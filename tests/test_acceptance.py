"""Acceptance criteria.

Each test prints one PASS/FAIL line (visible with pytest -s) and asserts
exactly; all comparisons are exact integer equalities.
"""

import random

import pytest

from affstr import (
    RacahOracle,
    build_fan,
    build_folded_fans,
    euler_square_series,
    level1_eta_series,
    string_table,
    verify_denominator,
    weight_multiplicity,
)
from affstr.strings import classifier_for, enumerate_class_weights
from affstr.verify import load_fixtures
from affstr.weyl import apply_word


def report(number, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {text}")
    assert ok, f"criterion {number}: {text}"


@pytest.fixture(scope="module")
def fixtures():
    return {fx["kind"]: fx for fx in load_fixtures()}


@pytest.fixture(scope="module")
def modules(a2):
    """Every fixture module: mu labels -> (level, depth)."""
    out = [((0, 0), 1, 20), ((1, 0), 1, 20), ((0, 1), 1, 20)]
    out += [((0, 0), 2, 10), ((1, 0), 2, 10), ((0, 1), 2, 10)]
    out += [(mu, 4, 9) for mu in [(0, 0), (1, 1), (0, 3), (3, 0), (2, 2)]]
    return out


def test_criterion_1_fan_fixture(a2, fixtures):
    fan = build_fan(a2, 9)
    ok = verify_denominator(fan).ok
    computed = {(tuple(v.root), v.grade): v.mult for v in fan}
    fx = fixtures["fan"]
    annotated = 0
    for entry in fx["entries"]:
        key = (tuple(entry["root"]), entry["grade"])
        ok = ok and computed.get(key) == entry["mult"]
        if "note" in entry:
            annotated += 1
        else:
            # unannotated entries must agree with the printed table
            ok = ok and entry.get("paper", entry["mult"]) == entry["mult"]
    ok = ok and len(computed) == len(fx["entries"]) == 71
    ok = ok and annotated == fx["annotated"] and annotated < 0.05 * fx["printed_entries"]
    report(1, ok, f"fan reproduces the published table ({annotated} annotated) "
                  "and the denominator identity holds at every grade <= 9")


def test_criterion_2_level1_strings(a2):
    table = string_table(a2, (0, 0), 1, -20)
    sigma = list(table.coefficients[0])
    euler = euler_square_series(20)
    ok = sigma == euler
    ok = ok and sigma[:11] == [1, 2, 5, 10, 20, 36, 65, 110, 185, 300, 481]
    ok = ok and sigma[20] == 24842
    report(2, ok, "level-1 string equals the inverse squared Euler product to q^20")


def test_criterion_3_level1_folded_fan(a2, fixtures):
    eta = level1_eta_series(20)
    sigma = euler_square_series(20)
    ok = True
    for base in enumerate_class_weights(a2, 1).values():
        folded, _ = build_folded_fans(a2, base, 20)
        ok = ok and folded[0].eta_row(0) == eta
    conv = all(
        sum(eta[n] * sigma[total - n] for n in range(total + 1))
        == (-1 if total == 0 else 0)
        for total in range(21)
    )
    ok = ok and conv
    fx = fixtures["level1"]
    flagged = {a["grade"] for a in fx["eta_annotations"]}
    printed = {int(g): m for g, m in fx["paper_folded_fan"].items()}
    diverging = {g for g in range(21) if printed.get(g, 0) != eta[g]}
    lst = fx["paper_eta_list"]
    insertions = {
        g for g in range(len(lst))
        if lst[:g] == eta[:g] and lst[g + 1:] == eta[g:21]
    }
    ok = ok and diverging <= flagged and bool(insertions & flagged)
    report(3, ok, "level-1 shifts equal the closed form termwise; printed-list "
                  f"divergences {sorted(diverging | (flagged - diverging))} all flagged; "
                  "convolution identity holds to q^20")


def test_criterion_4_level2_tables(a2):
    t1 = string_table(a2, (0, 0), 2, -10)
    ok = t1.coefficients[0] == (1, 2, 8, 20, 52, 116, 256, 522, 1045, 1996, 3736)
    ok = ok and t1.coefficients[1] == (0, 1, 4, 12, 32, 77, 172, 365, 740, 1445, 2736)
    t2 = string_table(a2, (1, 0), 2, -10)
    ok = ok and t2.coefficients[0][10] == 6410 and t2.coefficients[1][10] == 4708
    ok = ok and t2.coefficients[0] == (1, 4, 13, 36, 89, 204, 441, 908, 1798, 3444, 6410)
    ok = ok and t2.coefficients[1] == (0, 2, 7, 22, 56, 136, 300, 636, 1280, 2498, 4708)
    t3 = string_table(a2, (0, 1), 2, -10)
    ok = ok and t3.coefficients == t2.coefficients
    report(4, ok, "level-2 tables match to q^10 and the third class coincides "
                  "rowwise with the second")


def test_criterion_5_level4_tables(a2, fixtures):
    fx = fixtures["level4"]
    fan = build_fan(a2, 9)
    tables = {}
    ok = True
    annotated_total = 0
    for module in fx["modules"]:
        mu = tuple(module["mu"])
        table = string_table(a2, mu, 4, -9)
        tables[mu] = table
        sigma = [list(r) for r in table.coefficients]
        ok = ok and sigma == module["sigma"]
        oracle = RacahOracle(a2, a2.weight(mu, 4, 0), fan)
        for ann in module["annotations"]:
            annotated_total += 1
            s = ann["string"]
            grades = [ann["grade"]] if "grade" in ann else range(10)
            for d in grades:
                want = oracle.multiplicity(table.base.weights[s].shift_grade(-d))
                ok = ok and want == sigma[s][d]
    swap = all(
        tables[(3, 0)].coefficients[i] == tables[(0, 3)].coefficients[[0, 1, 3, 2, 4][i]]
        for i in range(5)
    )
    distinct = len({r for t in tables.values() for r in t.coefficients})
    ok = ok and swap and distinct == 17
    report(5, ok, "level-4 class-I tables match except "
                  f"{annotated_total} annotated entries (all equal to the unfolded "
                  f"recursion); swap statement holds; {distinct} distinct strings")


def test_criterion_6_oracle_equivalence(a2, modules):
    ok = True
    for mu, level, depth in modules:
        fan = build_fan(a2, depth)
        table = string_table(a2, mu, level, -depth)
        oracle = RacahOracle(a2, a2.weight(mu, level, 0), fan)
        for xi in table.base.weights:
            for d in range(depth + 1):
                lam = xi.shift_grade(-d)
                ok = ok and weight_multiplicity(a2, table, lam) == oracle.multiplicity(lam)
    report(6, ok, "folded path equals the unfolded recursion on every dominant "
                  "weight of every fixture module (zero tolerance)")


def test_criterion_7_structural(a2, modules):
    rng = random.Random(85)
    ok_block = True
    ok_head = True
    ok_weyl = True
    seen = set()
    for mu, level, depth in modules:
        cid = classifier_for(a2).id_of(mu)
        table = string_table(a2, mu, level, -depth)
        if (level, cid) not in seen:
            seen.add((level, cid))
            base = enumerate_class_weights(a2, level)[cid]
            folded, _ = build_folded_fans(a2, base, depth)
            ok_block = ok_block and all(
                ff.eta(s, 0) == (-1 if s == j else 0)
                for j, ff in enumerate(folded)
                for s in range(j + 1)
            )
        ok_head = ok_head and table.coefficients[table.mu_index][0] == 1
        for _ in range(100):
            s = rng.randrange(len(table.base))
            d = rng.randrange(depth + 1)
            lam = table.base.weights[s].shift_grade(-d)
            word = [rng.randrange(a2.rank + 1) for _ in range(rng.randrange(1, 9))]
            moved = apply_word(a2, word, lam)
            ok_weyl = ok_weyl and (
                weight_multiplicity(a2, table, moved) == table.coefficients[s][d]
            )
    ok = ok_block and ok_head and ok_weyl
    report(7, ok, "Weyl invariance on 100 orbit pairs per module; grade-0 "
                  "block upper triangular with -1 diagonal (det +-1); "
                  "highest-weight multiplicity 1")


def test_criterion_8_counting(a2):
    ok = True
    for level, per_class in [(1, 1), (2, 2), (4, 5)]:
        classes = enumerate_class_weights(a2, level)
        sizes = sorted(len(b) for b in classes.values())
        ok = ok and sizes == [per_class] * 3
    report(8, ok, "levels 1/2/4 give 3/6/15 dominant weights in 3 congruence "
                  "classes of 1/2/5")

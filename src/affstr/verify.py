"""Golden-fixture verification harness.

Each check compares a pipeline stage with a fixture file and reports the
first divergence.  Checks share results through the per-algebra memo
(algebra.algebra_memo): each module is solved once, each class folded
once, each table certified once (oracle.certify) and each fan gated
once; a two-path line fails when its fan fails the gate.  The
structural checks read those shared results rather than recomputing:
grade independence of the folds is the two-path comparison at every
depth, and the grade-0 block is read off the folded fans.  The checks
double as the acceptance suite: the CLI `verify` subcommand and the test
suite both run them.  Fixture files live in the packaged `fixtures/`
directory, the only one the harness reads.
"""

from __future__ import annotations

import json
import pathlib
import random
from typing import NamedTuple

from .algebra import load_algebra
from .errors import ConfigurationError
from .fan import build_fan
from .folding import build_folded_fans
from .oracle import _gate, certify, euler_square_series, level1_eta_series
from .strings import enumerate_class_weights, module_class, string_table, weight_multiplicity
from .weyl import apply_word

__all__ = ["CheckResult", "fixture_dir", "load_fixtures", "run_all"]

_RNG_SEED = 20081212
_ORBIT_SAMPLES = 100


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        tail = f"  {self.detail}" if self.detail else ""
        return f"{status}  {self.name}{tail}"


def fixture_dir() -> pathlib.Path:
    return pathlib.Path(__file__).parent / "fixtures"


def load_fixtures() -> list[dict]:
    """Every packaged fixture file; one that is not UTF-8 JSON is a
    ConfigurationError, so a damaged install exits 2, not with a traceback."""
    fixtures = []
    for path in sorted(fixture_dir().glob("*.json")):
        try:
            with open(path, encoding="utf-8") as fh:
                fixtures.append(json.load(fh))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"fixture {path} is not readable JSON: {exc}") from exc
    return fixtures


def run_all() -> list[CheckResult]:
    """Run every check against every packaged fixture."""
    fixtures = load_fixtures()
    checks = {"fan": check_fan, "level1": check_level1, "level2": check_level2,
              "level4": check_level4}
    results = [r for fx in fixtures for r in checks[fx["kind"]](fx)]
    results.extend(check_oracle_equivalence(fixtures))
    results.extend(check_structure(fixtures))
    results.extend(check_counting())
    return results


# -- individual checks -----------------------------------------------------


def check_fan(fx) -> list[CheckResult]:
    spec = load_algebra(fx["algebra"])
    cutoff = fx["cutoff"]
    fan = build_fan(spec, cutoff)
    out = []
    report = _gate(spec, fan)
    out.append(
        CheckResult(
            f"fan {fx['algebra']} n<={cutoff}: denominator identity",
            report.ok,
            "" if report.ok else f"first mismatch {report.mismatch}",
        )
    )
    computed = {(tuple(v.root), v.grade): v.mult for v in fan}
    bad = None
    annotated = 0
    for entry in fx["entries"]:
        key = (tuple(entry["root"]), entry["grade"])
        expected = entry["mult"]
        is_annotated = "note" in entry
        annotated += is_annotated
        if computed.get(key) != expected:
            bad = f"entry {key} computed {computed.get(key)} fixture {expected}"
            break
        if "paper" in entry and entry["paper"] == expected and is_annotated:
            bad = f"entry {key} annotated but printed value matches"
            break
    if bad is None and len(computed) != len(fx["entries"]):
        bad = f"{len(computed)} computed vs {len(fx['entries'])} fixture entries"
    out.append(
        CheckResult(
            f"fan {fx['algebra']} n<={cutoff}: fixture entries", bad is None, bad or ""
        )
    )
    limit = 0.05 * fx["printed_entries"]
    out.append(
        CheckResult(
            f"fan {fx['algebra']} n<={cutoff}: annotated entries below 5%",
            annotated == fx["annotated"] and annotated < limit,
            f"{annotated} annotated of {fx['printed_entries']}",
        )
    )
    return out


def check_level1(fx) -> list[CheckResult]:
    spec = load_algebra(fx["algebra"])
    depth = fx["depth"]
    out = []
    table = string_table(spec, (0,) * spec.rank, 1, -depth)
    sigma = list(table.coefficients[table.mu_index])
    euler = euler_square_series(depth)
    ok = sigma == euler == fx["sigma"]
    out.append(
        CheckResult(
            "level 1: string equals inverse squared Euler product",
            ok,
            "" if ok else f"solver {sigma[:5]}.. euler {euler[:5]}..",
        )
    )
    classes = enumerate_class_weights(spec, 1)
    eta_ref = level1_eta_series(depth)
    rows = [build_folded_fans(spec, base, depth)[0][0].eta_row(0) for base in classes.values()]
    same = all(r == rows[0] for r in rows)
    ok = same and rows[0] == eta_ref == fx["eta"]
    out.append(
        CheckResult(
            "level 1: folded shifts equal minus the squared Euler product, any base",
            ok,
            "" if ok else f"folded {rows[0][:8]}.. closed {eta_ref[:8]}..",
        )
    )
    conv_ok = all(
        sum(eta_ref[n] * euler[total - n] for n in range(total + 1))
        == (-1 if total == 0 else 0)
        for total in range(depth + 1)
    )
    out.append(CheckResult("level 1: shift/string convolution is -1", conv_ok))
    flagged = {a["grade"] for a in fx["eta_annotations"]}
    printed = {int(g): m for g, m in fx["paper_folded_fan"].items()}
    diverging = {g for g in range(depth + 1) if printed.get(g, 0) != eta_ref[g]}
    lst = fx["paper_eta_list"]
    insertions = {
        g
        for g in range(len(lst))
        if lst[:g] == eta_ref[:g] and lst[g + 1:] == eta_ref[g:depth + 1]
    }
    ok = diverging <= flagged and bool(insertions & flagged)
    out.append(
        CheckResult(
            "level 1: divergences from the printed lists are all annotated",
            ok,
            f"printed-list divergences {sorted(diverging)}, flagged {sorted(flagged)}",
        )
    )
    return out


def check_level2(fx) -> list[CheckResult]:
    spec = load_algebra(fx["algebra"])
    depth = fx["depth"]
    out = []
    tables = {}
    for cls in fx["classes"]:
        mu = tuple(cls["mu"])
        table = string_table(spec, mu, fx["level"], -depth)
        tables[cls["name"]] = table
        base_labels = [list(w.labels) for w in table.base.weights]
        ok = base_labels == cls["base"]
        sigma = [list(r) for r in table.coefficients]
        ok = ok and sigma == cls["sigma"]
        folded, _ = build_folded_fans(spec, table.base, depth)
        eta = [[folded[j].eta_row(s) for s in range(len(table.base))] for j in range(len(table.base))]
        ok = ok and eta == cls["eta"]
        out.append(
            CheckResult(
                f"level {fx['level']} class {cls['name']}: strings and shift lists",
                ok,
                "" if ok else "divergence from fixture",
            )
        )
    pairs = [
        (c["name"], c["coincides_with"]) for c in fx["classes"] if c.get("coincides_with")
    ]
    for name, other in pairs:
        ok = tables[name].coefficients == tables[other].coefficients
        out.append(
            CheckResult(
                f"level {fx['level']}: class {name} tables coincide rowwise with class {other}",
                ok,
            )
        )
    return out


def check_level4(fx) -> list[CheckResult]:
    spec = load_algebra(fx["algebra"])
    depth = fx["depth"]
    level = fx["level"]
    out = []
    base, _ = module_class(spec, fx["base"][0], level)
    ok = [list(w.labels) for w in base.weights] == fx["base"]
    out.append(CheckResult(f"level {level} class I: base weights and order", ok))
    folded, _ = build_folded_fans(spec, base, depth)
    p = len(base)
    eta = [[folded[j].eta_row(s) for s in range(p)] for j in range(p)]
    ok = eta == fx["eta"]
    annotated_rows = {tuple(a["row"]) for a in fx["eta_annotations"]}
    out.append(
        CheckResult(
            f"level {level} class I: shift lists match fixture "
            f"({len(annotated_rows)} printed row(s) adjudicated)",
            ok,
        )
    )
    tables = {}
    for module in fx["modules"]:
        mu = tuple(module["mu"])
        table = string_table(spec, mu, level, -depth)
        tables[mu] = table
        ok = [list(r) for r in table.coefficients] == module["sigma"]
        detail = ""
        if ok and module["annotations"]:
            # An annotation covers one grade of its string, or all of them.
            for s, d, _, _ in certify(table).mismatches:
                if any(a["string"] == s and a.get("grade", d) == d for a in module["annotations"]):
                    ok, detail = False, f"oracle disagrees at string {s} grade {d}"
        out.append(
            CheckResult(
                f"level {level} mu={list(mu)}: strings match fixture "
                f"({len(module['annotations'])} annotation(s) oracle-checked)",
                ok,
                detail,
            )
        )
    for module in fx["modules"]:
        if not module.get("swap_of"):
            continue
        mu = tuple(module["mu"])
        src = tuple(module["swap_of"])
        perm = module["swap_perm"]
        ok = all(
            tables[mu].coefficients[i] == tables[src].coefficients[perm[i]]
            for i in range(p)
        )
        out.append(
            CheckResult(
                f"level {level}: mu={list(mu)} table is mu={list(src)} with strings swapped",
                ok,
            )
        )
    distinct = len({r for t in tables.values() for r in t.coefficients})
    ok = distinct == fx["distinct_strings"]
    out.append(
        CheckResult(
            f"level {level} class I: distinct string functions",
            ok,
            f"{distinct} distinct",
        )
    )
    return out


def _fixture_modules(fixtures):
    """(spec, mu labels, level, depth) for every module any fixture mentions."""
    modules = []
    for fx in fixtures:
        kind = fx["kind"]
        if kind == "level1":
            spec = load_algebra(fx["algebra"])
            for base in enumerate_class_weights(spec, 1).values():
                modules.append((spec, base.weights[0].labels, 1, fx["depth"]))
        elif kind in ("level2", "level4"):
            spec = load_algebra(fx["algebra"])
            for module in fx["classes" if kind == "level2" else "modules"]:
                modules.append((spec, tuple(module["mu"]), fx["level"], fx["depth"]))
    return modules


def check_oracle_equivalence(fixtures) -> list[CheckResult]:
    """Folded path vs unfolded recursion on every in-window dominant weight, on a gated fan."""
    out = []
    for spec, mu, level, depth in _fixture_modules(fixtures):
        gate, mismatches = certify(string_table(spec, mu, level, -depth))
        detail = ""
        if not gate:
            detail = f"denominator identity fails: first mismatch {gate.mismatch}"
        elif mismatches:
            s, d, folded, unfolded = mismatches[0]
            detail = f"string {s} grade {-d}: folded {folded} unfolded {unfolded}"
        out.append(
            CheckResult(
                f"two-path identity mu={list(mu)} level {level} to depth {depth}",
                gate.ok and not mismatches,
                detail,
            )
        )
    return out


def check_structure(fixtures) -> list[CheckResult]:
    """Grade independence, triangular grade-0 block, Weyl invariance.

    The folds are made at grade 0 and reused at every depth; the two-path
    comparison (memoised, so no second oracle) shows they reproduce the
    unfolded recursion there.  In base order the grade-0 block has -1 on
    the diagonal and zeros below it, so its determinant is (-1)^p.
    """
    rng = random.Random(_RNG_SEED)
    out = []
    grade_detail = None
    block_detail = None
    head_ok = True
    seen_classes = set()
    for spec, mu, level, depth in _fixture_modules(fixtures):
        table = string_table(spec, mu, level, -depth)
        mismatches = certify(table).mismatches
        if mismatches and grade_detail is None:
            s, d, _, _ = mismatches[0]
            grade_detail = f"mu={list(mu)} level {level}: string {s} grade {-d}"
        base = table.base
        if base not in seen_classes:
            seen_classes.add(base)
            folded, _ = build_folded_fans(spec, base, depth)
            for j, ff in enumerate(folded):
                for s in range(j + 1):
                    entry = ff.eta(s, 0)
                    if entry != (-1 if s == j else 0) and block_detail is None:
                        block_detail = f"level {level} base {j} target {s}: grade-0 entry {entry}"
        head_ok = head_ok and table.coefficients[table.mu_index][0] == 1
        bad = None
        for _ in range(_ORBIT_SAMPLES):
            s = rng.randrange(len(table.base))
            d = rng.randrange(depth + 1)
            lam = table.base.weights[s].shift_grade(-d)
            word = [rng.randrange(spec.rank + 1) for _ in range(rng.randrange(1, 9))]
            image = apply_word(spec, word, lam)
            if weight_multiplicity(spec, table, image) != table.coefficients[s][d]:
                bad = f"word {word} on string {s} grade {-d}"
                break
        out.append(
            CheckResult(
                f"Weyl invariance of multiplicities mu={list(mu)} level {level} "
                f"({_ORBIT_SAMPLES} samples)",
                bad is None,
                bad or "",
            )
        )
    out.insert(
        0,
        CheckResult(
            "grade independence: grade-0 folds match the unfolded recursion "
            "at every depth, all fixture modules",
            grade_detail is None,
            grade_detail or "",
        ),
    )
    out.insert(
        1,
        CheckResult(
            "grade-0 block has -1 on the diagonal and 0 below it (det +-1), all fixtures",
            block_detail is None,
            block_detail or "",
        ),
    )
    out.insert(2, CheckResult("highest weight multiplicity is 1, all fixture modules", head_ok))
    return out


def check_counting() -> list[CheckResult]:
    spec = load_algebra("A2")
    out = []
    for level, total, per_class in [(1, 3, 1), (2, 6, 2), (4, 15, 5)]:
        classes = enumerate_class_weights(spec, level)
        sizes = [len(b) for b in classes.values()]
        ok = sum(sizes) == total and len(sizes) == 3 and all(s == per_class for s in sizes)
        out.append(
            CheckResult(
                f"counting: level {level} has {total} dominant weights in 3 classes of {per_class}",
                ok,
                f"sizes {sizes}",
            )
        )
    return out

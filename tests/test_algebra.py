import copy
import json
import pathlib
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from affstr import (
    AffineWeight,
    AlgebraSpec,
    ConfigurationError,
    load_algebra,
    to_root_basis,
)
from affstr.algebra import _PRESETS, _gauss_jordan
from weyl_reference import from_root_basis, inner_product, weyl_vector

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "configs"


def test_a2_affine_extension(a2):
    assert a2.rank == 2
    assert a2.marks == (1, 1)
    assert a2.comarks == (1, 1)
    assert a2.dual_coxeter == 3
    assert a2.positive_roots == ((0, 1), (1, 0), (1, 1))
    assert a2.theta_labels == (1, 1)


def test_cartan_validation():
    with pytest.raises(ConfigurationError):
        AlgebraSpec("bad", [[1]])
    with pytest.raises(ConfigurationError):
        AlgebraSpec("bad", [[2, 1], [1, 2]])
    with pytest.raises(ConfigurationError):
        AlgebraSpec("bad", [[2, -1], [0, 2]])
    # affine A1 matrix is symmetrizable but not positive definite
    with pytest.raises(ConfigurationError):
        AlgebraSpec("bad", [[2, -2], [-2, 2]])
    # hyperbolic rank 2: the second leading minor is 4 - 9 < 0
    with pytest.raises(ConfigurationError, match="positive definite"):
        AlgebraSpec("bad", [[2, -3], [-3, 2]])
    with pytest.raises(ConfigurationError, match="empty"):
        AlgebraSpec("point", [])


F = Fraction


@pytest.mark.parametrize(
    "cartan,symmetrizer,comarks",
    [
        ([[2, -2], [-1, 2]], (F(1, 2), 1), (1, 1)),  # B2
        ([[2, -1], [-2, 2]], (1, F(1, 2)), (1, 1)),  # C2
        ([[2, -1], [-3, 2]], (1, F(1, 3)), (2, 1)),  # G2
        ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], (1, 1, F(1, 2)), (1, 2, 1)),  # B3
        (
            [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
            (F(1, 2), F(1, 2), 1, 1),
            (1, 2, 3, 2),
        ),  # F4
        (
            [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
            (1, 1, 1, 1),
            (1, 2, 1, 1),
        ),  # D4
    ],
)
def test_non_simply_laced_and_d4_are_accepted(cartan, symmetrizer, comarks):
    # The positive-definiteness test reads the leading minors of the Cartan
    # matrix itself: D A and A have minors of the same sign for D > 0.
    spec = AlgebraSpec("X", cartan)
    assert spec.symmetrizer == symmetrizer
    assert spec.comarks == comarks


def test_elimination_determinant_and_singularity():
    assert _gauss_jordan([[1, 2], [3, 4]]) == (-2, ())
    # a row swap flips the sign, also when the elimination itself must swap
    assert _gauss_jordan([[3, 4], [1, 2]])[0] == 2
    assert _gauss_jordan([[0, 1], [1, 0]])[0] == -1
    assert _gauss_jordan([[0, 1, 0], [0, 0, 1], [1, 0, 0]])[0] == 1
    assert _gauss_jordan([[1, 2], [2, 4]]) == (0, None)
    assert _gauss_jordan([[0, 0], [0, 1]], [[1, 1]]) == (0, None)
    det, (x,) = _gauss_jordan([[2, 1], [1, 3]], [[3, 5]])
    assert det == 5 and x == (F(4, 5), F(7, 5))


@pytest.mark.parametrize(
    "spec",
    [pytest.param(name, id=name) for name in sorted(_PRESETS)]
    + [pytest.param(str(path), id=path.name) for path in sorted(CONFIGS.glob("*.json"))],
)
def test_cartan_inverse_is_exact(spec):
    spec = load_algebra(spec)
    rank = spec.rank
    for i in range(rank):
        for j in range(rank):
            entry = sum(spec.cartan[i][k] * spec.cartan_inverse[k][j] for k in range(rank))
            assert entry == (i == j)


def test_simple_root_norms(a2):
    # (alpha_i, alpha_j) = d_i A_ij with the normalized symmetrizer
    for i in range(2):
        for j in range(2):
            ai = from_root_basis(a2, tuple(1 if k == i else 0 for k in range(2)))
            aj = from_root_basis(a2, tuple(1 if k == j else 0 for k in range(2)))
            assert inner_product(a2, ai, aj) == a2.symmetrizer[i] * a2.cartan[i][j]


def test_fundamental_weight_pairing(a2):
    # Independent oracle: invert the Cartan matrix by hand; for A2 the
    # inverse is (1/3) [[2, 1], [1, 2]], so (w1, w2) = 1/3.
    w1 = a2.weight((1, 0), 1, 0)
    w2 = a2.weight((0, 1), 1, 0)
    assert inner_product(a2, w1, w2) == Fraction(1, 3)
    assert inner_product(a2, w1, w1) == Fraction(2, 3)
    zero = a2.weight((0, 0), 0, 0)
    assert inner_product(a2, zero, zero) == 0


def test_inner_product_affine_directions(a2):
    delta = AffineWeight((0, 0), 0, 1)
    assert inner_product(a2, delta, delta) == 0
    lam = a2.weight((2, 1), 4, -3)
    assert inner_product(a2, lam, delta) == lam.level


def test_inner_product_rank_guard(a2, a3):
    with pytest.raises(ConfigurationError):
        inner_product(a2, a2.weight((1, 0), 1, 0), AffineWeight((1, 0, 0), 1, 0))


@pytest.mark.parametrize(
    "name,labels,level",
    [("A1", (1,), 2), ("A2", (1, 1), 3), ("A3", (1, 1, 1), 4)],
)
def test_weyl_vector(name, labels, level):
    spec = load_algebra(name)
    rho = weyl_vector(spec)
    assert rho.labels == labels
    assert rho.level == level
    assert rho.grade == 0
    assert spec.label0(rho) == 1


def test_root_basis_display(a2):
    assert to_root_basis(a2, a2.weight((1, 0), 1, 0)) == (Fraction(2, 3), Fraction(1, 3))
    assert to_root_basis(a2, a2.weight((1, 1), 2, 0)) == (1, 1)
    assert to_root_basis(a2, a2.weight((0, 0), 0, 0)) == (0, 0)


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@given(
    st.tuples(rationals, rationals),
    st.integers(0, 4),
    st.integers(-6, 0),
)
def test_root_basis_round_trip(labels, level, grade):
    a2 = load_algebra("A2")
    w = AffineWeight(labels, level, grade)
    back = from_root_basis(a2, to_root_basis(a2, w), level, grade)
    assert back == w


@given(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
)
def test_inner_product_symmetry(la, lb):
    a2 = load_algebra("A2")
    a = AffineWeight(la, 1, 0)
    b = AffineWeight(lb, 2, -1)
    assert inner_product(a2, a, b) == inner_product(a2, b, a)


def test_non_simply_laced_config(tmp_path):
    path = tmp_path / "b2.json"
    path.write_text(json.dumps({"label": "B2", "cartan": [[2, -2], [-1, 2]]}))
    b2 = load_algebra(str(path))
    assert b2.rank == 2
    # highest root is long: squared length 2 after normalization
    theta = from_root_basis(b2, b2.marks)
    assert inner_product(b2, theta, theta) == 2
    assert all(isinstance(c, int) and c > 0 for c in b2.comarks)
    assert b2.dual_coxeter == 1 + sum(b2.comarks)


def test_load_algebra_errors(tmp_path):
    with pytest.raises(ConfigurationError):
        load_algebra("Z9")
    with pytest.raises(ConfigurationError):
        load_algebra(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigurationError):
        load_algebra(str(bad))
    nocartan = tmp_path / "nocartan.json"
    nocartan.write_text(json.dumps({"label": "X"}))
    with pytest.raises(ConfigurationError):
        load_algebra(str(nocartan))
    # Cartan entries must be integers: int() would truncate -1.5 and compute A2
    nonintegral = tmp_path / "nonintegral.json"
    for config in [
        {"cartan": [[2, -1.5], [-1, 2]]},
        {"cartan": [[2, float("-inf")], [-1, 2]]},
        {"cartan": [[2, float("nan")], [-1, 2]]},
        {"cartan": [[2, -1], [-1, 2]], "symmetrizer": [float("inf"), 1]},
    ]:
        nonintegral.write_text(json.dumps(config))
        with pytest.raises(ConfigurationError):
            load_algebra(str(nonintegral))


def test_weight_arithmetic(a2):
    a = a2.weight((1, 0), 1, 0)
    b = a2.weight((0, 1), 1, -2)
    assert (a + b).labels == (1, 1)
    assert (a + b).level == 2
    assert (a - b).grade == 2
    assert a.shift_grade(-3).grade == -3


def test_shift_grade_keeps_ints_and_exact_fractions(a2):
    # an int shift of an int grade stays an int; a Fraction shift is exact
    shifted = a2.weight((1, 0), 1, -2).shift_grade(-3)
    assert shifted.grade == -5 and type(shifted.grade) is int
    half = a2.weight((1, 0), 1, -2).shift_grade(Fraction(1, 2))
    assert half.grade == Fraction(-3, 2) and type(half.grade) is Fraction
    whole = a2.weight((1, 0), 1, Fraction(1, 3)).shift_grade(Fraction(2, 3))
    assert whole.grade == 1 and type(whole.grade) is int


def test_affine_weight_is_built_once_and_frozen():
    # integral components are stored as ints, the others as exact Fractions
    w = AffineWeight([Fraction(4, 2), Fraction(1, 2)], Fraction(6, 3), -2.0)
    assert type(w.labels) is tuple
    assert [type(x) for x in w.labels] == [int, Fraction]
    assert w.labels == (2, Fraction(1, 2))
    assert type(w.level) is int and type(w.grade) is int
    ints = AffineWeight((3, -1), 2, -4)
    fracs = AffineWeight((Fraction(6, 2), Fraction(-3, 3)), Fraction(2), Fraction(-8, 2))
    assert ints == fracs and hash(ints) == hash(fracs)
    assert repr(ints) == repr(fracs) == "(3,-1;2;-4)"
    with pytest.raises(AttributeError):
        w.grade = 0
    with pytest.raises(AttributeError):
        del w.labels
    assert (w.labels, w.level, w.grade) == ((2, Fraction(1, 2)), 2, -2)
    assert not hasattr(w, "__dict__")
    for twin in (pickle.loads(pickle.dumps(w)), copy.deepcopy(w)):
        assert twin == w and hash(twin) == hash(w)
        assert [type(x) for x in twin.labels] == [int, Fraction]

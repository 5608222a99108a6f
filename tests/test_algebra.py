import copy
import json
import pathlib
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from affstr import (
    AffineWeight,
    AlgebraSpec,
    ConfigurationError,
    ResourceLimitError,
    load_algebra,
    preset,
    to_root_basis,
)
from affstr import algebra, strings
from affstr.algebra import _gauss_jordan
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
    assert _gauss_jordan([[3, 4], [1, 2]])[0] == 2
    # no row exchanges: a zero leading pivot reads as singular
    assert _gauss_jordan([[0, 1], [1, 0]], [[1, 0]]) == (0, None)
    assert _gauss_jordan([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == (0, None)
    # the solve's grade-0 block: upper triangular, -1 on the diagonal
    det, (x,) = _gauss_jordan([[-1, 2, 1], [0, -1, 3], [0, 0, -1]], [[1, 2, 3]])
    assert det == -1 and x == (-26, -11, -3)
    assert _gauss_jordan([[1, 2], [2, 4]]) == (0, None)
    assert _gauss_jordan([[0, 0], [0, 1]], [[1, 1]]) == (0, None)
    det, (x,) = _gauss_jordan([[2, 1], [1, 3]], [[3, 5]])
    assert det == 5 and x == (F(4, 5), F(7, 5))


# -- the finite-type criterion: A^-1 exists and is positive --------------


def _reference_finite_type(cartan) -> bool:
    """A connected Dynkin graph whose simple roots have a finite reflection
    closure (Kac, Prop. 4.9), independent of AlgebraSpec."""
    r = len(cartan)
    reached, stack = {0}, [0]
    while stack:
        i = stack.pop()
        for j in range(r):
            if cartan[i][j] and j not in reached:
                reached.add(j)
                stack.append(j)
    if len(reached) != r:
        return False
    roots = {tuple(int(i == j) for j in range(r)) for i in range(r)}
    frontier = list(roots)
    while frontier:
        c = frontier.pop()
        for i in range(r):
            pairing = sum(a * x for a, x in zip(cartan[i], c))
            image = tuple(x - pairing * (j == i) for j, x in enumerate(c))
            if image not in roots:
                roots.add(image)
                frontier.append(image)
        if len(roots) > 200:  # F4 has 48 roots, the most of any rank <= 4
            return False
    return True


@st.composite
def small_gcms(draw):
    r = draw(st.integers(1, 4))
    pair = st.sampled_from([(0, 0)] + [(a, b) for a in (-1, -2, -3) for b in (-1, -2, -3)])
    m = [[2 * (i == j) for j in range(r)] for i in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            m[i][j], m[j][i] = draw(pair)
    return m


@given(small_gcms())
@settings(max_examples=300, deadline=None)
def test_finite_type_criterion_matches_reflection_closure(cartan):
    try:
        spec = AlgebraSpec("X", cartan)
    except ConfigurationError:
        assert not _reference_finite_type(cartan)
        return
    assert _reference_finite_type(cartan)
    r, d = spec.rank, spec.symmetrizer
    assert all(d[i] * cartan[i][j] == d[j] * cartan[j][i] for i in range(r) for j in range(r))
    assert all(type(c) is int and c > 0 for c in spec.comarks)
    theta = spec.highest_root
    assert sum(theta[i] * theta[j] * d[i] * cartan[i][j] for i in range(r) for j in range(r)) == 2


def test_criterion_named_cases():
    # decomposable A1 x A2: A^-1 has zero entries
    with pytest.raises(ConfigurationError, match="irreducible finite type"):
        AlgebraSpec("A1xA2", [[2, 0, 0], [0, 2, -1], [0, -1, 2]])
    # a 3-cycle that no diagonal D symmetrizes
    with pytest.raises(ConfigurationError, match="irreducible finite type"):
        AlgebraSpec("cycle", [[2, -1, -1], [-2, 2, -1], [-1, -1, 2]])
    # a one-way 3-cycle is no GCM, though its inverse is positive
    one_way = [[2, -1, 0], [0, 2, -1], [-1, 0, 2]]
    det, inverse = _gauss_jordan(one_way, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert det == 7 and all(x > 0 for column in inverse for x in column)
    with pytest.raises(ConfigurationError, match="zero pattern"):
        AlgebraSpec("one-way", one_way)


def _chain(r, edges=(), double=None):
    # A_r's chain, extra edges as (i, j), and one entry (i, j) set to -2
    m = [[2 * (i == j) - (abs(i - j) == 1) for j in range(r)] for i in range(r)]
    for i, j in edges:
        m[i][j] = m[j][i] = -1
    if double:
        m[double[0]][double[1]] = -2
    return m


def _e(r):
    # Bourbaki's E_r: the chain 1-3-4-...-r with node 2 on node 4
    order = [0, 2] + list(range(3, r))
    m = [[2 * (i == j) for j in range(r)] for i in range(r)]
    for i, j in list(zip(order, order[1:])) + [(1, 3)]:
        m[i][j] = m[j][i] = -1
    return m


@pytest.mark.parametrize(
    "cartan,det,dual_coxeter,positive_roots,comarks",
    [
        pytest.param(_chain(5, double=(4, 3)), 2, 9, 25, (1, 2, 2, 2, 1), id="B5"),
        pytest.param(_chain(5, double=(3, 4)), 2, 6, 25, (1, 1, 1, 1, 1), id="C5"),
        pytest.param(
            [[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, -1],
             [0, 0, -1, 2, 0], [0, 0, -1, 0, 2]],
            4, 8, 20, (1, 2, 2, 1, 1), id="D5",
        ),
        pytest.param(_e(6), 3, 12, 36, (1, 2, 2, 3, 2, 1), id="E6"),
        pytest.param(_e(7), 2, 18, 63, (2, 2, 3, 4, 3, 2, 1), id="E7"),
        pytest.param(_e(8), 1, 30, 120, (2, 3, 4, 6, 5, 4, 3, 2), id="E8"),
        pytest.param(_chain(4, double=(2, 1)), 1, 9, 24, (2, 3, 2, 1), id="F4"),
    ],
)
def test_exceptional_and_rank5_data_match_kac_table_aff1(
    cartan, det, dual_coxeter, positive_roots, comarks
):
    spec = AlgebraSpec("X", cartan)
    assert spec.cartan_det == det and type(spec.cartan_det) is int
    assert spec.dual_coxeter == dual_coxeter
    assert len(spec.positive_roots) == positive_roots
    assert spec.comarks == comarks


def test_one_elimination_per_algebra_and_none_per_classifier(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return _gauss_jordan(*args)

    monkeypatch.setattr(algebra, "_gauss_jordan", counting)
    monkeypatch.setattr(strings, "_gauss_jordan", counting)
    spec = AlgebraSpec("B3", [[2, -1, 0], [-1, 2, -1], [0, -2, 2]])
    assert len(calls) == 1
    classify = strings.classifier_for(spec)
    classify.id_of((1, 0, 1))
    strings.enumerate_class_weights(spec, 2)
    assert len(calls) == 1
    assert classify._det == spec.cartan_det == 2


def test_root_closure_limit_is_a_resource_limit(monkeypatch):
    monkeypatch.setattr(algebra, "_ROOT_CLOSURE_LIMIT", 10)
    with pytest.raises(ResourceLimitError, match="reached 11 roots, past its limit of 10"):
        AlgebraSpec("A4", _chain(4))


@pytest.mark.parametrize(
    "spec",
    [pytest.param(name, id=name) for name in ("A1", "A2", "A3")]
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


def test_one_instance_per_label_and_cartan_matrix(tmp_path):
    path = str(CONFIGS / "A2.json")
    a2 = load_algebra(path)
    assert load_algebra(path) is a2
    assert preset("A2") is a2 and load_algebra("A2") is a2
    # the key is the integer matrix, normalised as the constructor does
    same = tmp_path / "same.json"
    same.write_text(json.dumps({"label": "A2", "cartan": [[2.0, -1], [-1, 2]]}))
    assert load_algebra(str(same)) is a2
    # another label is another instance, with a memo of its own
    relabelled = tmp_path / "relabelled.json"
    relabelled.write_text(json.dumps({"label": "sl3", "cartan": [[2, -1], [-1, 2]]}))
    sl3 = load_algebra(str(relabelled))
    assert sl3 is not a2 and sl3.cartan == a2.cartan
    assert load_algebra(str(relabelled)) is sl3
    # the constructor stays outside the registry, with an empty memo
    direct = AlgebraSpec("A2", a2.cartan)
    assert direct is not a2 and direct._memo == {}
    assert preset("A2") is a2


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

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
    FoldedFan,
    ResourceLimitError,
    load_algebra,
    preset,
    to_root_basis,
)
from affstr import algebra, strings
from affstr.algebra import _adjugate
from weyl_reference import add, from_root_basis, inner_product, sub, weyl_vector

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


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _scalar(n, c):
    return [[c * (i == j) for j in range(n)] for i in range(n)]


def _cofactor_det(m):
    """det by cofactor expansion along the first row, independent of _adjugate."""
    if not m:
        return 1
    return sum(
        (-1) ** j * x * _cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
        for j, x in enumerate(m[0])
        if x
    )


def test_elimination_determinant_and_singularity():
    for m in ([[1, 2], [3, 4]], [[3, 4], [1, 2]], [[2, 1], [1, 3]], [[2, -1], [-3, 2]]):
        det, adj = _adjugate(m)
        assert det == _cofactor_det(m)
        assert _product(m, adj) == _product(adj, m) == _scalar(len(m), det)
    assert _adjugate([[1, 2], [3, 4]]) == (-2, ((4, -2), (-3, 1)))
    assert _adjugate([[2, 1], [1, 3]]) == (5, ((3, -1), (-1, 2)))
    # no row exchanges: a zero leading pivot reads as singular
    assert _adjugate([[0, 1], [1, 0]]) == (0, None)
    assert _adjugate([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == (0, None)
    assert _adjugate([[1, 2], [2, 4]]) == (0, None)
    assert _adjugate([[0, 0], [0, 1]]) == (0, None)
    # the solve's grade-0 block: upper triangular, -1 on the diagonal, so
    # det is (-1)^p and adj is upper triangular too
    block = [[-1, 2, 1], [0, -1, 3], [0, 0, -1]]
    det, adj = _adjugate(block)
    assert det == -1 and adj == ((1, 2, 7), (0, 1, 3), (0, 0, 1))
    x = [sum(a * c for a, c in zip(row, (1, 2, 3))) // det for row in adj]
    assert x == [-26, -11, -3] and _product(block, [[v] for v in x]) == [[1], [2], [3]]


@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_adjugate_matches_cofactor_expansion(m):
    det, adj = _adjugate(m)
    n = len(m)
    if adj is None:
        # a zero pivot: some leading minor vanishes
        assert det == 0
        assert any(_cofactor_det([row[:k] for row in m[:k]]) == 0 for k in range(1, n + 1))
        return
    assert det == _cofactor_det(m)
    assert all(type(x) is int for row in adj for x in row)
    assert _product(m, adj) == _product(adj, m) == _scalar(n, det)


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
    # F4 has 48 roots, the most of any rank <= 4
    return len(reached) == r and _reflection_closure(cartan, 200) is not None


def _reflection_closure(cartan, limit):
    """Every root in simple-root coordinates, both signs, by applying every
    simple reflection to every root found; None past `limit` roots."""
    r = len(cartan)
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
        if len(roots) > limit:
            return None
    return roots


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
    det, adj = _adjugate(one_way)
    assert det == 7 and all(x > 0 for row in adj for x in row)
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


KAC_TABLE_AFF1 = [
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
]


@pytest.mark.parametrize("cartan,det,dual_coxeter,positive_roots,comarks", KAC_TABLE_AFF1)
def test_exceptional_and_rank5_data_match_kac_table_aff1(
    cartan, det, dual_coxeter, positive_roots, comarks
):
    spec = AlgebraSpec("X", cartan)
    assert spec.cartan_det == det and type(spec.cartan_det) is int
    assert spec.dual_coxeter == dual_coxeter
    assert len(spec.positive_roots) == positive_roots
    assert spec.comarks == comarks


@pytest.mark.parametrize(
    "cartan",
    [pytest.param(case.values[0], id=case.id) for case in KAC_TABLE_AFF1]
    + [pytest.param([[2, -1], [-3, 2]], id="G2"), pytest.param([[2, -3], [-1, 2]], id="G2-dual")],
)
def test_positive_roots_match_a_brute_force_reflection_closure(cartan):
    # AlgebraSpec walks up from the simple roots only where a pairing is
    # negative; the closure here reflects every root, negative ones too.
    roots = _reflection_closure(cartan, 1000)  # E8 has 240
    positive = [c for c in roots if all(x >= 0 for x in c)]
    assert len(roots) == 2 * len(positive)
    expected = tuple(sorted(positive, key=lambda c: (sum(c), c)))
    assert AlgebraSpec("X", cartan).positive_roots == expected


def test_one_elimination_per_algebra_and_none_per_classifier(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return _adjugate(*args)

    monkeypatch.setattr(algebra, "_adjugate", counting)
    spec = AlgebraSpec("B3", [[2, -1, 0], [-1, 2, -1], [0, -2, 2]])
    assert len(calls) == 1
    classify = strings.classifier_for(spec)
    classify.id_of((1, 0, 1))
    strings.enumerate_class_weights(spec, 2)
    assert len(calls) == 1
    assert classify._det == spec.cartan_det == 2
    assert classify._adj is spec.cartan_adjugate


@pytest.mark.parametrize("depth", [0, 1, 12])
def test_no_elimination_per_solve_whatever_the_depth(monkeypatch, depth):
    # the grade-0 block is unit triangular: the solve back-substitutes
    # through it, and reads every block as sparse rows, never through a
    # dense eta lookup per cell
    spec = AlgebraSpec("A2", [[2, -1], [-1, 2]])

    def forbidden(*args):
        raise AssertionError(f"the solve eliminated or read a dense block: {args}")

    monkeypatch.setattr(algebra, "_adjugate", forbidden)
    monkeypatch.setattr(FoldedFan, "eta", forbidden)
    assert not hasattr(strings, "_adjugate")
    table = strings.string_table(spec, (1, 1), 3, -depth)
    assert len(table.base) == 4
    monkeypatch.undo()
    assert table.coefficients == strings.string_table(preset("A2"), (1, 1), 3, -depth).coefficients


@pytest.mark.parametrize(
    "cartan",
    [[[2, -1], [-1]], [[2], [-1, 2]], [[2, -1, 0], [-1, 2]]],
    ids=["short-last-row", "short-first-row", "long-first-row"],
)
def test_a_ragged_cartan_matrix_is_refused_before_elimination(monkeypatch, cartan):
    def forbidden(matrix):
        raise AssertionError(f"_adjugate saw the ragged matrix {matrix}")

    monkeypatch.setattr(algebra, "_adjugate", forbidden)
    with pytest.raises(ConfigurationError, match="must be square"):
        AlgebraSpec("ragged", cartan)


def test_root_closure_limit_is_a_resource_limit(monkeypatch):
    # the closure counts positive roots only: A4 has 10
    monkeypatch.setattr(algebra, "_ROOT_CLOSURE_LIMIT", 9)
    with pytest.raises(ResourceLimitError, match="reached 10 roots, past its limit of 9"):
        AlgebraSpec("A4", _chain(4))
    monkeypatch.setattr(algebra, "_ROOT_CLOSURE_LIMIT", 10)
    assert len(AlgebraSpec("A4", _chain(4)).positive_roots) == 10


@pytest.mark.parametrize(
    "spec",
    [pytest.param(name, id=name) for name in ("A1", "A2", "A3")]
    + [pytest.param(str(path), id=path.name) for path in sorted(CONFIGS.glob("*.json"))],
)
def test_cartan_inverse_is_exact(spec):
    # adj A / det A is the inverse: A adj A = adj A A = det A I, in integers
    spec = load_algebra(spec)
    adj, det = spec.cartan_adjugate, spec.cartan_det
    assert det > 0 and all(type(x) is int and x > 0 for row in adj for x in row)
    assert _product(spec.cartan, adj) == _product(adj, spec.cartan) == _scalar(spec.rank, det)


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


@given(
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
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
    assert add(a, b).labels == (1, 1)
    assert add(a, b).level == 2
    assert sub(a, b).grade == 2
    assert a.shift_grade(-3).grade == -3


@pytest.mark.parametrize("combine", [add, sub], ids=["add", "sub"])
def test_weight_arithmetic_refuses_a_rank_mismatch(combine):
    # zipping the labels would silently drop the second label of the A2 weight
    a2_weight, a1_weight = AffineWeight((1, 0), 1, 0), AffineWeight((1,), 1, 0)
    for a, b in ((a2_weight, a1_weight), (a1_weight, a2_weight)):
        with pytest.raises(ConfigurationError, match="weights of [12] and [12] labels"):
            combine(a, b)


def test_shift_grade_keeps_ints_and_converts_integral_fractions(a2):
    # an int shift of an int grade stays an int; so does an integral Fraction's
    shifted = a2.weight((1, 0), 1, -2).shift_grade(-3)
    assert shifted.grade == -5 and type(shifted.grade) is int
    whole = a2.weight((1, 0), 1, -2).shift_grade(Fraction(-6, 3))
    assert whole.grade == -4 and type(whole.grade) is int


def test_shift_grade_keeps_the_labels_and_level_and_freezes_the_result(a2):
    w = a2.weight((1, 0), 1, -2)
    shifted = w.shift_grade(-3)
    assert shifted == AffineWeight((1, 0), 1, -5) and hash(shifted) == hash(((1, 0), 1, -5))
    assert shifted.labels is w.labels and w.grade == -2
    with pytest.raises(AttributeError):
        shifted.grade = 0


def _build(how, a2, component, value):
    """A weight with `value` as its component, the others ints."""
    labels, level, grade = (1, 0), 2, -1
    if how == "shift_grade":
        return AffineWeight(labels, level, 0).shift_grade(value)
    if component == "Dynkin label":
        labels = (value, 0)
    elif component == "level":
        level = value
    else:
        grade = value
    if how == "spec.weight":
        return a2.weight(labels, level, grade)
    return AffineWeight(labels, level, grade)


CONTRACT = [
    (how, component)
    for how in ("AffineWeight", "spec.weight")
    for component in ("Dynkin label", "level", "grade")
] + [("shift_grade", "grade")]


@pytest.mark.parametrize("how, component", CONTRACT, ids=[f"{h}-{c}" for h, c in CONTRACT])
def test_weight_components_are_integers(a2, how, component):
    # every weight of an integrable module lies in the integral weight
    # lattice: a non-integral component is refused by name, never stored
    for value in (Fraction(1, 2), 1.5, float("nan"), float("inf")):
        with pytest.raises(ConfigurationError, match=f"^{component} "):
            _build(how, a2, component, value)
    # an integral Fraction, float or bool is stored as the int it equals
    for value in (Fraction(4, 2), -2.0, True):
        w = _build(how, a2, component, value)
        assert all(type(x) is int for x in (*w.labels, w.level, w.grade))
        ints = _build(how, a2, component, int(value))
        assert w == ints and hash(w) == hash(ints)


def test_affine_weight_is_built_once_and_frozen():
    # components that are not ints already are stored as the ints they equal
    w = AffineWeight([Fraction(4, 2), Fraction(-3, 3)], Fraction(6, 3), -2.0)
    assert type(w.labels) is tuple
    assert [type(x) for x in w.labels] == [int, int]
    assert w.labels == (2, -1)
    assert type(w.level) is int and type(w.grade) is int
    ints = AffineWeight((3, -1), 2, -4)
    fracs = AffineWeight((Fraction(6, 2), Fraction(-3, 3)), Fraction(2), Fraction(-8, 2))
    assert ints == fracs and hash(ints) == hash(fracs)
    assert repr(ints) == repr(fracs) == "(3,-1;2;-4)"
    with pytest.raises(AttributeError):
        w.grade = 0
    with pytest.raises(AttributeError):
        del w.labels
    assert (w.labels, w.level, w.grade) == ((2, -1), 2, -2)
    assert not hasattr(w, "__dict__")
    for twin in (pickle.loads(pickle.dumps(w)), copy.deepcopy(w)):
        assert twin == w and hash(twin) == hash(w)
        assert [type(x) for x in twin.labels] == [int, int]

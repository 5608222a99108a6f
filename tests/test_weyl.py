import json
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import weyl_reference as reference
from affstr import (
    AffineWeight,
    ConfigurationError,
    NonterminationError,
    character,
    string_table,
    to_dominant,
)
from affstr.algebra import load_algebra
from affstr import strings, weyl
from affstr.weyl import apply_word
from weyl_reference import (
    from_root_basis,
    inner_product,
    shifted_reflect,
    translate,
    translation_datum,
    weyl_vector,
)


labels2 = st.tuples(st.integers(-8, 8), st.integers(-8, 8))
weights2 = st.builds(AffineWeight, labels2, st.integers(1, 4), st.integers(-6, 2))
indices2 = st.integers(0, 2)


def test_reflect_simple(a2):
    rho = weyl_vector(a2)
    image = apply_word(a2, [1], rho)
    assert image.labels == (-1, 2)
    assert a2.label0(image) == 2
    assert image.grade == 0


def test_reflect_wall_fixed_point(a2):
    lam = a2.weight((0, 3), 4, -1)
    assert apply_word(a2, [1], lam) == lam


@given(weights2, indices2)
def test_reflect_involution(w, i):
    a2 = load_algebra("A2")
    assert apply_word(a2, [i, i], w) == w


@given(weights2, indices2)
def test_shifted_reflect_involution(w, i):
    a2 = load_algebra("A2")
    assert shifted_reflect(a2, i, shifted_reflect(a2, i, w)) == w


@given(weights2)
def test_grade_changes(w):
    a2 = load_algebra("A2")
    # classical reflections keep the grade; s_0 lowers it by the zeroth label,
    # which equals k - (classical part, highest coroot)
    assert apply_word(a2, [1], w).grade == w.grade
    assert apply_word(a2, [2], w).grade == w.grade
    theta = from_root_basis(a2, a2.marks)
    pairing = inner_product(a2, AffineWeight(w.labels, 0, 0), theta)
    assert apply_word(a2, [0], w).grade - w.grade == -(w.level - pairing)


def test_shifted_reflect_examples(a2):
    # shifted wall: (lam + rho)_i = 0
    lam = a2.weight((-1, 2), 1, 0)
    assert shifted_reflect(a2, 1, lam) == lam
    # shifted s_1 on the level-0 zero weight gives minus the first simple root
    zero = a2.weight((0, 0), 0, 0)
    img = shifted_reflect(a2, 1, zero)
    assert img.labels == (-2, 1) and img.grade == 0
    # shifted s_0 on it lands on the highest root one grade down; this is
    # minus the fan vector with root coordinates (-1,-1) at grade 1, and it
    # reduces back to the zero weight with the opposite sign (odd word)
    img0 = shifted_reflect(a2, 0, zero)
    from affstr.algebra import to_root_basis

    assert to_root_basis(a2, img0) == (1, 1)
    assert img0.grade == -1
    rho = weyl_vector(a2)
    out = to_dominant(a2, img0 + rho)
    assert out.dominant - rho == zero
    assert len(out.word) % 2 == 1


def test_to_dominant_trivial(a2):
    lam = a2.weight((1, 1), 3, 0)
    out = to_dominant(a2, lam)
    assert out.dominant == lam and out.word == ()


def test_to_dominant_orbit_membership(a2):
    # level-1 weight with root coordinates (-1/3, 1/3): the reflection
    # image of the first fundamental weight, so that is its dominant rep
    lam = from_root_basis(a2, (-1, 0), 0, 0) + a2.weight((1, 0), 1, 0)
    from affstr.algebra import to_root_basis
    from fractions import Fraction

    assert to_root_basis(a2, lam) == (Fraction(-1, 3), Fraction(1, 3))
    out = to_dominant(a2, lam)
    assert out.dominant == a2.weight((1, 0), 1, 0)
    assert len(out.word) % 2 == 1
    # brute-force cross-check: lam is in the orbit of the dominant rep
    orbit = reference.orbit(a2, out.dominant, -3)
    assert lam in orbit


def test_to_dominant_level2(a2):
    # (1,1)-labels weight plus the first simple root: folds back at grade +1
    lam = a2.weight((1, 1), 2, 0) + from_root_basis(a2, (1, 0))
    assert lam.labels == (3, 0)
    out = to_dominant(a2, lam)
    assert out.dominant.labels == (1, 1)
    assert out.dominant.grade == 1
    assert lam in reference.orbit(a2, out.dominant, -2)


def test_to_dominant_level_guard(a2):
    with pytest.raises(NonterminationError):
        to_dominant(a2, a2.weight((1, 0), 0, 0))
    with pytest.raises(NonterminationError):
        to_dominant(a2, a2.weight((1, 0), -2, 0))


@given(weights2, st.lists(indices2, max_size=10))
@settings(max_examples=60)
def test_orbit_canonicity(w, word):
    a2 = load_algebra("A2")
    moved = apply_word(a2, word, w)
    assert to_dominant(a2, moved).dominant == to_dominant(a2, w).dominant


@given(weights2, indices2)
@settings(max_examples=60)
def test_shifted_wall_consistency(w, i):
    # the dot action of s_i fixes exactly the weights on its shifted wall,
    # and it keeps w + rho in one ordinary orbit
    a2 = load_algebra("A2")
    rho = weyl_vector(a2)
    image = shifted_reflect(a2, i, w)
    assert (image == w) == (a2.affine_labels(w + rho)[i] == 0)
    assert to_dominant(a2, image + rho).dominant == to_dominant(a2, w + rho).dominant


def test_shifted_round_trip(a2):
    mu = a2.weight((1, 0), 2, 0)
    lam = shifted_reflect(a2, 0, shifted_reflect(a2, 1, mu))
    rho = weyl_vector(a2)
    out = to_dominant(a2, lam + rho)
    assert out.dominant - rho == mu
    assert len(out.word) % 2 == 0


def test_translation_datum_trivial(a2):
    out = to_dominant(a2, a2.weight((1, 1), 3, 0))
    assert translation_datum(a2, out).theta == (0, 0)
    classical = to_dominant(a2, a2.weight((2, -1), 4, 0))
    assert classical.word and 0 not in classical.word
    assert translation_datum(a2, classical).theta == (0, 0)


def test_translation_datum_s0(a2):
    from affstr.weyl import WeylOutcome

    outcome = WeylOutcome((1, 0, 0), 1, 0, (0,))
    td = translation_datum(a2, outcome)
    assert td.theta == (1, 1)  # the highest coroot
    # recomposition: t_{-theta} . s_0 must act as the classical reflection
    # in the highest root on five random lattice weights
    rng = random.Random(5)
    for _ in range(5):
        lam = a2.weight(
            (rng.randint(-4, 4), rng.randint(-4, 4)), rng.randint(1, 4), rng.randint(-4, 0)
        )
        w_img = apply_word(a2, (0,), lam)
        s_img = translate(a2, (-1, -1), w_img)
        assert s_img.grade == lam.grade
        pairing = sum(c * x for c, x in zip(a2.comarks, lam.labels))
        expected = tuple(x - pairing * t for x, t in zip(lam.labels, a2.theta_labels))
        assert s_img.labels == expected


def test_reflect_index_guard(a2):
    with pytest.raises(ConfigurationError):
        apply_word(a2, [3], a2.weight((1, 0), 1, 0))


# -- the integer kernel against the reference reduction --------------------

CONFIGS = {
    # marks (2, 3) differ from comarks (2, 1); the affine Cartan matrix is
    # not symmetric
    "G2": {"label": "G2", "cartan": [[2, -1], [-3, 2]]},
    "A4": {
        "label": "A4",
        "cartan": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    },
}


@pytest.fixture(scope="module")
def kernel_specs(tmp_path_factory):
    specs = {"A2": load_algebra("A2")}
    folder = tmp_path_factory.mktemp("algebras")
    for name, config in CONFIGS.items():
        path = folder / f"{name}.json"
        path.write_text(json.dumps(config))
        specs[name] = load_algebra(str(path))
    return specs


def _draw_weight(data, spec):
    labels = data.draw(st.tuples(*[st.integers(-8, 8)] * spec.rank))
    return AffineWeight(labels, data.draw(st.integers(1, 5)), data.draw(st.integers(-6, 2)))


@given(st.data())
@settings(max_examples=200)
def test_kernel_matches_reference_reduction(kernel_specs, data):
    spec = kernel_specs[data.draw(st.sampled_from(sorted(kernel_specs)))]
    w = _draw_weight(data, spec)
    out = to_dominant(spec, w)
    assert (out.dominant, out.word) == reference.to_dominant(spec, w)


@given(st.data())
@settings(max_examples=100)
def test_kernel_reflections_match_reference(kernel_specs, data):
    spec = kernel_specs[data.draw(st.sampled_from(sorted(kernel_specs)))]
    w = _draw_weight(data, spec)
    word = data.draw(st.lists(st.integers(0, spec.rank), max_size=8))
    assert apply_word(spec, word, w) == reference.apply_word(spec, word, w)


PERFBENCH_CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "configs"


@pytest.fixture(scope="module")
def delta_specs():
    return [load_algebra(name) for name in ("A2", "A3")] + [
        load_algebra(str(PERFBENCH_CONFIGS / f"{name}.json")) for name in ("G2", "A4")
    ]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_delta_shift_commutes_with_reduction(delta_specs, data):
    # The affine Weyl group fixes delta: lambda - n delta reduces to the
    # dominant point of lambda moved down by n, by the same word.  So a fold
    # made at grade 0 serves every depth of a string.
    spec = data.draw(st.sampled_from(delta_specs))
    w = _draw_weight(data, spec)
    top = to_dominant(spec, w)
    for n in range(21):
        out = to_dominant(spec, w.shift_grade(-n))
        assert (out.labels, out.level, out.word) == (top.labels, top.level, top.word)
        assert out.grade == top.grade - n


def test_kernel_step_budget(a2, monkeypatch):
    lam = a2.weight((-40, 3), 1, 0)
    steps = len(reference.to_dominant(a2, lam)[1])
    monkeypatch.setattr(weyl, "DEFAULT_STEP_LIMIT", steps + 1)
    assert len(to_dominant(a2, lam).word) == steps
    monkeypatch.setattr(weyl, "DEFAULT_STEP_LIMIT", steps)
    with pytest.raises(NonterminationError):
        to_dominant(a2, lam)


@pytest.mark.parametrize(
    "name,labels,level,grade,floor",
    [
        ("A2", (1, 0), 2, 0, -4),
        # a start on the floor: only its classical orbit qualifies
        ("A2", (1, 0), 1, -2, -2),
        ("A2", (1, 1), 3, 0, 1),
        ("G2", (0, 1), 2, 0, -4),
        ("G2", (1, 0), 3, -1, 0),
        ("A4", (1, 0, 0, 1), 2, 0, -2),
        ("A4", (0, 0, 0, 0), 2, 0, 1),
    ],
    ids=["A2", "A2-start-on-floor", "A2-start-below", "G2", "G2-start-below", "A4", "A4-start-below"],
)
def test_descending_orbit_matches_brute_force(kernel_specs, name, labels, level, grade, floor):
    spec = kernel_specs[name]
    start = spec.weight(labels, level, grade)
    walk = list(weyl.descending_orbit(spec, spec.affine_labels(start), grade, floor))
    assert bool(walk) == (grade >= floor)
    found = {}
    for parent, i, node in walk:
        w = AffineWeight(node[0][1:], level, node[1])
        assert spec.affine_labels(w) == node[0] and node not in found
        if parent is None:
            assert (i, found, w) == (None, {}, start)
        else:
            # a KeyError here is a child yielded before its parent
            assert reference.reflect(spec, i, found[parent]) == w
        found[node] = w
    assert set(found.values()) == reference.orbit(spec, start, floor)


CHARACTER_CASES = pytest.mark.parametrize(
    "name,mu,level,depth,window",
    [
        ("A2", (1, 0), 2, 4, 4),
        ("G2", (0, 1), 2, 4, (-1, -4)),
        # a window equal to the table depth on a rank-4 algebra
        ("A4", (1, 0, 0, 1), 2, 2, 2),
        # a window whose top and floor both sit strictly inside the table
        ("A2", (0, 0), 3, 6, (-2, -5)),
    ],
    ids=["A2", "G2", "A4-full-depth", "A2-inner-window"],
)


@CHARACTER_CASES
def test_character_orbits_match_brute_force(kernel_specs, name, mu, level, depth, window):
    spec = kernel_specs[name]
    table = string_table(spec, mu, level, -depth)
    top, bottom = (0, -window) if isinstance(window, int) else window
    want = {}
    for s, xi in enumerate(table.base.weights):
        for d in range(depth + 1):
            mult = table.coefficients[s][d]
            if mult and -d >= bottom:
                for w in reference.orbit(spec, xi.shift_grade(-d), bottom):
                    if w.grade <= top:
                        want[w] = mult
    got = character(spec, table, window)
    assert len(got) == len(want) > 50
    assert dict(got) == want
    # the CLI's text, JSON and CSV listings inherit this order
    keys = [(-w.grade, w.labels) for w, _ in got]
    assert keys == sorted(keys)


@CHARACTER_CASES
def test_character_weights_are_plain_int_weights(kernel_specs, name, mu, level, depth, window):
    # character builds its weights without the public constructor's
    # normalising; they must be indistinguishable from normalised ones
    spec = kernel_specs[name]
    got = character(spec, string_table(spec, mu, level, -depth), window)
    assert got
    for w, _ in got:
        assert type(w.labels) is tuple
        assert {type(x) for x in (*w.labels, w.level, w.grade)} == {int}
        same = AffineWeight(w.labels, w.level, w.grade)
        assert w == same and hash(w) == hash(same)
        with pytest.raises(AttributeError):
            w.grade = 0
        with pytest.raises(AttributeError):
            del w.labels
        assert w == same


def test_character_walks_no_string_below_its_window(a2, monkeypatch):
    # the (0,3) and (3,0) strings of the level-3 vacuum module start at
    # depth 2, below a window of depth 1
    walks = []

    def recording(spec, labels, grade, floor):
        walks.append((labels[1:], grade, floor))
        return weyl.descending_orbit(spec, labels, grade, floor)

    monkeypatch.setattr(strings, "descending_orbit", recording)
    table = string_table(a2, (0, 0), 3, -6)
    assert character(a2, table, 1)
    assert walks == [((0, 0), 0, -1), ((1, 1), 0, 0)]

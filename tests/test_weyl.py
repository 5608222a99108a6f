import io
import json
import keyword
import os
import pathlib
import random
import re
import subprocess
import sys
import tokenize

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
    add,
    from_root_basis,
    inner_product,
    shifted_reflect,
    sub,
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
    out = to_dominant(a2, add(img0, rho))
    assert sub(out.dominant, rho) == zero
    assert len(out.word) % 2 == 1


def test_to_dominant_trivial(a2):
    lam = a2.weight((1, 1), 3, 0)
    out = to_dominant(a2, lam)
    assert out.dominant == lam and out.word == ()


def test_to_dominant_orbit_membership(a2):
    # level-1 weight with root coordinates (-1/3, 1/3): the reflection
    # image of the first fundamental weight, so that is its dominant rep
    lam = add(from_root_basis(a2, (-1, 0), 0, 0), a2.weight((1, 0), 1, 0))
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
    lam = add(a2.weight((1, 1), 2, 0), from_root_basis(a2, (1, 0)))
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
    assert (image == w) == (a2.affine_labels(add(w, rho))[i] == 0)
    assert to_dominant(a2, add(image, rho)).dominant == to_dominant(a2, add(w, rho)).dominant


def test_shifted_round_trip(a2):
    mu = a2.weight((1, 0), 2, 0)
    lam = shifted_reflect(a2, 0, shifted_reflect(a2, 1, mu))
    rho = weyl_vector(a2)
    out = to_dominant(a2, add(lam, rho))
    assert sub(out.dominant, rho) == mu
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


def test_apply_word_converts_or_refuses_what_is_not_an_index(a2):
    # a word of ints in range is replayed as it is; an integral bool,
    # Fraction or float is the int it equals, anywhere in the word, and
    # anything else is refused by name
    from fractions import Fraction

    w = a2.weight((1, 2), 3, -4)
    want = apply_word(a2, (0, 1, 2, 0), w)
    assert want == reference.apply_word(a2, (0, 1, 2, 0), w)
    for word in ([0, True, 2, 0], (0, Fraction(2, 2), 2.0, 0), iter([0, 1, 2, 0])):
        got = apply_word(a2, word, w)
        assert got == want
        assert all(type(x) is int for x in (*got.labels, got.level, got.grade))
    assert apply_word(a2, (), w) == w
    for word, match in (([0, -1], "out of range"), ([1, 3], "out of range"),
                        ([0, 1.5], "not an integer"), (["1"], "not an integer")):
        with pytest.raises(ConfigurationError, match=match):
            apply_word(a2, word, w)


# -- the integer kernel against the reference reduction --------------------

CONFIGS = {
    # marks (2, 3) differ from comarks (2, 1); the affine Cartan matrix is
    # not symmetric
    "G2": {"label": "G2", "cartan": [[2, -1], [-3, 2]]},
    "A4": {
        "label": "A4",
        "cartan": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    },
    # symmetrizers of ratio 2, one short simple root at each end of the chain
    "B3": {"label": "B3", "cartan": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]},
    "C3": {"label": "C3", "cartan": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]]},
    # a branched diagram: alpha_2 meets three simple roots
    "D4": {
        "label": "D4",
        "cartan": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
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


@pytest.mark.parametrize(
    "name,labels,level",
    [
        # all three classical labels lowest; lambda_0 = 10
        ("A3", (-3, -3, -3), 1),
        # lambda_1 and lambda_3 lowest; lambda_0 = 4
        ("D4", (-2, 0, -2, 1), 1),
        # lambda_0 = lambda_1 = -2: s_0 first
        ("A2", (-2, 5), 1),
        ("A4", (-1, -1, -1, -1), 1),
        # lambda_0 = lambda_2 = -5 on a non-symmetric affine matrix
        ("G2", (6, -5), 2),
        ("B3", (-4, 1, -4), 3),
        ("C3", (-6, 2, -6), 2),
    ],
    ids=["A3-all", "D4", "A2-with-label0", "A4-all", "G2-with-label0", "B3", "C3"],
)
def test_kernel_ties_take_the_lowest_index(kernel_specs, name, labels, level):
    # Two or more labels share the lowest value: the kernel reflects at the
    # first of them, as the reference does.
    spec = kernel_specs[name] if name in kernel_specs else load_algebra(name)
    w = spec.weight(labels, level, 0)
    affine = spec.affine_labels(w)
    assert affine.count(min(affine)) >= 2
    out = to_dominant(spec, w)
    dominant, word = reference.to_dominant(spec, w)
    assert len(word) >= 2
    assert (out.dominant, out.word) == (dominant, word)
    reduced = weyl.reduce_labels(spec, affine, 0)
    assert reduced == (spec.affine_labels(dominant), dominant.grade, list(word))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_kernel_matches_reference_on_far_weights(kernel_specs, data):
    # Labels up to 200 from the wall: most words pass ASK_AFTER, and a
    # give_up that answers False lets the kernel finish the reduction.
    spec = kernel_specs[data.draw(st.sampled_from(sorted(kernel_specs)))]
    labels = data.draw(st.tuples(*[st.integers(-200, 200)] * spec.rank))
    w = AffineWeight(labels, data.draw(st.integers(1, 5)), data.draw(st.integers(-6, 2)))
    asked = []

    def give_up(spec, w):
        asked.append(w)
        return False

    out = to_dominant(spec, w, give_up=give_up)
    dominant, word = reference.to_dominant(spec, w)
    assert (out.labels, out.grade, out.word) == (spec.affine_labels(dominant), dominant.grade, word)
    assert asked == [w] * (len(word) >= weyl.ASK_AFTER)
    assert to_dominant(spec, w) == out


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


def test_budget_is_read_at_each_call_of_a_compiled_kernel(kernel_specs, kernel_steps, monkeypatch):
    # The budget is not written into the generated source: a kernel
    # compiled under one budget stops at a budget patched afterwards.
    spec = kernel_specs["D4"]
    lam = spec.weight((-9, 4, -7, 2), 1, 0)
    steps = len(reference.to_dominant(spec, lam)[1])
    assert to_dominant(spec, lam).word == reference.to_dominant(spec, lam)[1]
    ran = kernel_steps(spec)
    labels = spec.affine_labels(lam)
    for limit in (steps, steps // 2, 0):
        monkeypatch.setattr(weyl, "DEFAULT_STEP_LIMIT", limit)
        with pytest.raises(NonterminationError, match=f"exceeded {limit} steps"):
            to_dominant(spec, lam)
        with pytest.raises(NonterminationError, match=f"exceeded {limit} steps"):
            weyl.reduce_labels(spec, labels, 0)
        assert ran[-2:] == [limit, limit]
    monkeypatch.setattr(weyl, "DEFAULT_STEP_LIMIT", steps + 1)
    assert len(to_dominant(spec, lam).word) == len(weyl.reduce_labels(spec, labels, 0)[2]) == steps


def test_give_up_is_asked_once_after_the_first_reflections(a2, monkeypatch):
    lam = a2.weight((-40, 3), 1, 0)
    steps = len(reference.to_dominant(a2, lam)[1])
    assert steps > weyl.ASK_AFTER
    asked = []

    def ask(answer):
        def give_up(spec, w):
            asked.append((spec, w))
            return answer

        return give_up

    assert to_dominant(a2, lam, give_up=ask(False)) == to_dominant(a2, lam)
    assert asked == [(a2, lam)]
    with pytest.raises(NonterminationError, match=f"given up after {weyl.ASK_AFTER} steps"):
        to_dominant(a2, lam, give_up=ask(True))
    # a reduction that finishes first never asks; nor does a budget at or
    # below ASK_AFTER, which is spent first
    assert to_dominant(a2, a2.weight((-3, 1), 1, 0), give_up=ask(True)).word
    monkeypatch.setattr(weyl, "DEFAULT_STEP_LIMIT", weyl.ASK_AFTER)
    with pytest.raises(NonterminationError, match=f"exceeded {weyl.ASK_AFTER} steps"):
        to_dominant(a2, lam, give_up=ask(True))
    assert len(asked) == 2


def test_to_dominant_checks_the_rank_of_a_weight_that_does_not_fit(a2):
    for labels, level in (((1, 0, 0), 1), ((1,), 1), ((1, 0, 0), 0)):
        with pytest.raises(ConfigurationError, match="rank 2"):
            to_dominant(a2, AffineWeight(labels, level, 0))


# -- the generated kernel --------------------------------------------------


def _compiles(monkeypatch):
    """Record each kernel compiled from now on (weyl's `compile`)."""
    compiled = []

    def counting(source, filename, mode):
        compiled.append(source)
        return compile(source, filename, mode)

    monkeypatch.setattr(weyl, "compile", counting, raising=False)
    return compiled


def test_kernel_compiles_on_the_first_walk_once_per_algebra(
    tmp_path, monkeypatch, fresh_algebras
):
    compiled = _compiles(monkeypatch)
    path = tmp_path / "D4.json"
    path.write_text(json.dumps(CONFIGS["D4"]))
    spec = load_algebra(str(path))
    start = spec.affine_labels(spec.weight((1, 0, 0, 0), 1, 0))
    assert compiled == []
    walk = list(weyl.descending_orbit(spec, start, 0, -2))
    assert len(compiled) == 1
    assert weyl.reduce_labels(spec, walk[-1][2][0], walk[-1][2][1])[0] == start
    assert apply_word(spec, [2, 0, 1], spec.weight((0, 1, 0, 0), 2, 0))
    assert to_dominant(spec, spec.weight((-1, 0, 1, 0), 1, 0)).word
    assert len(compiled) == 1
    # an equal config loaded again is the same instance: nothing compiles
    other = tmp_path / "D4 again.json"
    other.write_text(json.dumps(CONFIGS["D4"]))
    assert load_algebra(str(other)) is spec
    assert to_dominant(spec, spec.weight((0, 1, -1, 0), 1, 0)).word
    assert len(compiled) == 1


def test_import_and_load_compile_no_kernel():
    src = pathlib.Path(weyl.__file__).resolve().parents[1]
    program = (
        "import affstr, affstr.cli\n"
        "from affstr import load_algebra, weyl\n"
        "specs = [load_algebra(name) for name in ('A1', 'A2', 'A3')]\n"
        "print([len(spec._memo) for spec in specs])\n"
        "walk = weyl.descending_orbit(specs[1], (1, 1, 1), 0, 0)\n"
        "print(walk is not None, len(specs[1]._memo))\n"
    )
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", program], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[0, 0, 0]", "True 1"]


# No `seen` or `add`: the orbit walk keeps no set of visited points.  The
# fold's own names follow `append`; its indexed locals are the base
# weight's labels x0..xr, the pairing p1..pr and the root r1..rr.  The
# oracle's `expand` follows the fold; its indexed locals are the state's
# labels x0..xr.
KERNEL_NAMES = {
    "dominant", "reduce", "replay", "orbit", "labels", "level", "grade", "word", "limit",
    "low", "x", "i", "_", "g", "floor", "start", "queue", "parent", "node", "range",
    "append",
    "fold", "xi", "pairing", "xi_norm", "top", "two_k", "cutoff", "vectors", "positions",
    "norms", "entries", "mult", "norm", "s", "key", "get",
    "expand", "state", "state_grade", "base", "ceiling", "priced", "state_form", "children",
    "price", "classical",
}


def test_kernel_source_holds_only_integers_and_its_own_names(
    tmp_path, monkeypatch, fresh_algebras
):
    # A config is outside input: whatever its label, the source compiled
    # is made of keywords, operators, integer literals and the kernel's
    # own names.
    compiled = _compiles(monkeypatch)
    configs = [*CONFIGS.values(), {"label": "__import__('os')\n1.5", "cartan": [[2, -1], [-3, 2]]}]
    for k, config in enumerate(configs):
        path = tmp_path / f"{k}.json"
        path.write_text(json.dumps(config))
        spec = load_algebra(str(path))
        assert to_dominant(spec, spec.weight((-1,) * spec.rank, 1, 0)).word
        # the compiled walks see `range` and no other global or builtin
        namespace = weyl._kernel(spec).reduce.__globals__
        assert namespace.keys() == {"__builtins__", "range", *weyl._Kernel.__slots__}
        assert namespace["__builtins__"] == {} and namespace["range"] is range
    assert len(compiled) == len(configs)
    for source in compiled:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.NAME:
                assert (
                    keyword.iskeyword(token.string)
                    or token.string in KERNEL_NAMES
                    or re.fullmatch(r"[lxpr][0-9]+", token.string)
                ), token
            elif token.type == tokenize.NUMBER:
                assert re.fullmatch(r"[1-9][0-9]*|0", token.string), token
            else:
                assert token.type in (
                    tokenize.OP, tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
                    tokenize.DEDENT, tokenize.ENDMARKER,
                ), token


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
        ("B3", (0, 0, 1), 2, 0, -3),
        ("C3", (1, 0, 0), 2, 0, -3),
        ("D4", (0, 0, 1, 1), 2, 0, -2),
        ("D4", (1, 0, 0, 0), 1, -1, -1),
    ],
    ids=[
        "A2", "A2-start-on-floor", "A2-start-below", "G2", "G2-start-below", "A4",
        "A4-start-below", "B3", "C3", "D4", "D4-start-on-floor",
    ],
)
def test_descending_orbit_matches_brute_force(kernel_specs, name, labels, level, grade, floor):
    spec = kernel_specs[name]
    _assert_walk(spec, spec.weight(labels, level, grade), floor)


def _assert_walk(spec, start, floor):
    """The walk from a dominant start is its orbit above the floor, each point once."""
    walk = list(weyl.descending_orbit(spec, spec.affine_labels(start), start.grade, floor))
    assert bool(walk) == (start.grade >= floor)
    found = {}
    for parent, i, node in walk:
        w = AffineWeight(node[0][1:], start.level, node[1])
        assert spec.affine_labels(w) == node[0] and node not in found
        if parent is None:
            assert (i, found, w) == (None, {}, start)
        else:
            # a KeyError here is a child yielded before its parent
            assert reference.reflect(spec, i, found[parent]) == w
            # the parent rule: i is the node's lowest negative label
            assert i == next(j for j, x in enumerate(node[0]) if x < 0)
        found[node] = w
    assert set(found.values()) == reference.orbit(spec, start, floor)


def _draw_dominant_labels(data, spec, level):
    labels = []
    room = level
    for comark in spec.comarks:
        labels.append(data.draw(st.integers(0, room // comark)))
        room -= comark * labels[-1]
    return labels


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_descending_orbit_visits_each_point_once(kernel_specs, data):
    spec = kernel_specs[data.draw(st.sampled_from(sorted(kernel_specs)))]
    level = data.draw(st.integers(1, 3))
    labels = _draw_dominant_labels(data, spec, level)
    grade = data.draw(st.integers(-2, 1))
    floor = data.draw(st.integers(grade - 3, grade + 1))
    _assert_walk(spec, spec.weight(labels, level, grade), floor)


@pytest.mark.parametrize(
    "labels,level", [((-1, 1), 2), ((2, -1), 2), ((1, 1), 1)], ids=["l1", "l2", "l0"]
)
def test_descending_orbit_refuses_a_start_off_the_dominant_chamber(a2, labels, level):
    # The tree reaches the whole orbit only from its dominant point: from
    # (2; -1, 1) the walk used to visit 8 points of some partial set.
    affine = a2.affine_labels(a2.weight(labels, level, 0))
    assert min(affine) < 0
    with pytest.raises(ConfigurationError, match="dominant start"):
        weyl.descending_orbit(a2, affine, 0, -2)


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
    got = _assert_character(spec, string_table(spec, mu, level, -depth), window)
    assert len(got) > 50


def _assert_character(spec, table, window):
    """character's window is the brute-force one, each weight once, in (-grade, labels) order."""
    top, bottom = (0, -window) if isinstance(window, int) else sorted(window, reverse=True)
    want = {}
    for s, xi in enumerate(table.base.weights):
        for d, mult in enumerate(table.coefficients[s]):
            if mult and -d >= bottom:
                for w in reference.orbit(spec, xi.shift_grade(-d), bottom):
                    if w.grade <= top:
                        want[w] = mult
    got = character(spec, table, window)
    assert len(got) == len(want)
    assert dict(got) == want
    # the CLI's text, JSON and CSV listings inherit this order
    keys = [(-w.grade, w.labels) for w, _ in got]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    return got


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_character_windows_match_brute_force(kernel_specs, data):
    # small tables of every kernel algebra: the classes of a level split
    # the modules, so several strings share each window
    spec = kernel_specs[data.draw(st.sampled_from(sorted(kernel_specs)))]
    level = data.draw(st.integers(1, 2))
    mu = _draw_dominant_labels(data, spec, level)
    depth = data.draw(st.integers(0, 3))
    table = string_table(spec, mu, level, -depth)
    lowest = st.integers(0, depth)
    if data.draw(st.booleans()):
        window = data.draw(lowest)
    else:
        window = (-data.draw(lowest), -data.draw(lowest))
    _assert_character(spec, table, window)


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

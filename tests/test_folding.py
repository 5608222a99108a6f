import math
import random

import pytest

from affstr import (
    CongruenceError,
    ConfigurationError,
    ConventionError,
    NonterminationError,
    build_fan,
    build_folded_fan,
    build_folded_fans,
    level1_eta_series,
)
from affstr import weyl
from affstr.algebra import AlgebraSpec
from affstr.folding import BaseWeightSet
from affstr.fan import Fan
from affstr.strings import _priced_above_grade0, classifier_for, enumerate_class_weights
from fan_reference import fan_vector, root_labels
from fold_reference import folded_entries
from weyl_reference import classical_inner


def class_of(spec, labels, level):
    cid = classifier_for(spec).id_of(labels)
    return enumerate_class_weights(spec, level)[cid]


def fold_one(spec, base, j, gamma, cutoff):
    """Entries of base weight j folded against the one-vector fan {gamma}."""
    return build_folded_fan(spec, base, j, Fan(spec, cutoff, [gamma]), cutoff).entries


def test_fold_shift_interior_no_folding(a2):
    # strictly interior base, small shift: the target is the shift itself
    base = class_of(a2, (1, 1), 4)
    assert base.weights[1].labels == (1, 1)
    entries = fold_one(a2, base, 1, fan_vector(a2, (0, 1), 0, 1), 0)
    assert entries == {(1, 0): -1, (base.index_of((0, 3)), 0): 1}


def test_fold_shift_level2_examples(a2):
    # base (0,0) at level 2: a grade-0 shift already lands on the second
    # class weight at offset 0
    base = class_of(a2, (0, 0), 2)
    assert base.weights[0].labels == (0, 0)
    entries = fold_one(a2, base, 0, fan_vector(a2, (1, 0), 0, 1), 2)
    assert entries == {(0, 0): -1, (base.index_of((1, 1)), 0): 1}
    # the longest-element shift lands back on the base two grades up
    entries = fold_one(a2, base, 0, fan_vector(a2, (2, 2), 0, 1), 2)
    assert entries == {(0, 0): -1, (0, 2): 1}


def test_level1_folded_fan_collapses(a2):
    # at level 1 every folded shift has zero classical offset and the
    # folded fan does not depend on the chosen base weight
    rows = []
    for labels in [(0, 0), (1, 0), (0, 1)]:
        base = class_of(a2, labels, 1)
        folded, _ = build_folded_fans(a2, base, 12)
        assert len(base) == 1
        assert all(s == 0 for (s, _n) in folded[0].entries)
        rows.append(folded[0].eta_row(0))
    assert rows[0] == rows[1] == rows[2]
    assert rows[0] == level1_eta_series(12)


def test_level2_folded_entries(a2):
    base = class_of(a2, (0, 0), 2)
    folded, _ = build_folded_fans(a2, base, 10)
    ff = folded[0]
    assert ff.eta(0, 2) == 1
    assert ff.eta(0, 4) == 2
    assert ff.eta(1, 0) == 2
    assert ff.eta(1, 1) == -1
    # seeded diagonal at the zero shift
    assert ff.eta(0, 0) == -1
    assert folded[1].eta(1, 0) == -1


def test_level4_block_row(a2):
    # the block between the second and third class weights
    base = class_of(a2, (0, 0), 4)
    folded, _ = build_folded_fans(a2, base, 9)
    assert folded[1].eta_row(2) == [1, -1, 1, 0, 1, -1, -1, -1, 0, 0]


def test_seeded_diagonal(a2):
    for level in (1, 2, 4):
        for base in enumerate_class_weights(a2, level).values():
            folded, _ = build_folded_fans(a2, base, 6)
            for j, ff in enumerate(folded):
                assert ff.eta(j, 0) == -1


def test_congruence_violation_detected(a2):
    # a truncated base missing one class member cannot absorb all targets
    full = class_of(a2, (0, 0), 2)
    partial = BaseWeightSet(a2, 2, (full.weights[0],), full.class_id)
    fan = build_fan(a2, 4)
    with pytest.raises(CongruenceError):
        build_folded_fan(a2, partial, 0, fan, 4)


def test_fan_too_short_is_rejected(a2):
    base = class_of(a2, (0, 0), 2)
    fan = build_fan(a2, 3)
    with pytest.raises(ConfigurationError):
        build_folded_fan(a2, base, 0, fan, 5)


def test_longer_fan_folds_to_the_same_window(a2, a3):
    # fan vectors above the cutoff never land inside the window, so the fan
    # built exactly to the cutoff folds to the same result as a longer one
    for spec, level, cutoff in [(a2, 2, 6), (a2, 4, 5), (a3, 2, 3)]:
        for base in enumerate_class_weights(spec, level).values():
            exact, fan = build_folded_fans(spec, base, cutoff)
            assert fan.cutoff == cutoff
            longer = build_fan(spec, cutoff + 6)
            for j, ff in enumerate(exact):
                assert build_folded_fan(spec, base, j, longer, cutoff).entries == ff.entries


def test_wrong_fan_grade_raises_convention_error(a2):
    # the root (1,0) of a grade-0 fan vector, given grade -1: it folds onto
    # (1,1) one grade above the base, below the grade of any real shift
    base = class_of(a2, (0, 0), 2)
    wrong = Fan(a2, 4, [fan_vector(a2, (1, 0), -1, 1)])
    with pytest.raises(ConventionError):
        build_folded_fan(a2, base, 0, wrong, 4)


def test_folded_grade_formula(a2):
    # every folded offset must equal the shift grade minus the translation
    # correction: n - (k/2)|b|^2 - (v(phi), b), with b read off the word
    from fractions import Fraction

    from weyl_reference import add, from_root_basis
    from affstr.weyl import apply_word, to_dominant
    from weyl_reference import translate, translation_datum

    base = class_of(a2, (0, 0), 2)
    fan = build_fan(a2, 8)
    for xi in base.weights:
        for gamma in fan:
            shifted = add(xi, from_root_basis(a2, gamma.root, 0, gamma.grade))
            reduction = to_dominant(a2, shifted)
            datum = translation_datum(a2, reduction)
            # classical part of the reducing element, applied to the shift
            v_phi = translate(
                a2, tuple(-t for t in datum.theta), apply_word(a2, reduction.word, shifted)
            )
            assert v_phi.grade == shifted.grade
            # recomposing the translation reproduces the reduction
            assert translate(a2, datum.theta, v_phi) == reduction.dominant
            coords = tuple(Fraction(b) / d for b, d in zip(datum.theta, a2.symmetrizer))
            b_weight = from_root_basis(a2, coords)
            offset = reduction.dominant.grade - xi.grade
            formula = (
                gamma.grade
                - Fraction(xi.level) * classical_inner(a2, b_weight.labels, b_weight.labels) / 2
                - classical_inner(a2, v_phi.labels, b_weight.labels)
            )
            assert offset == formula


# (Cartan matrix, cutoff): A1-A4 and D4, and the non-simply-laced types in
# both orientations of their Dynkin diagram.  At these cutoffs the invariant
# form skips from a third (A1) to nine tenths (D4) of the pairs.
REFERENCE_CASES = {
    "A1": ([[2]], 10),
    "A2": ([[2, -1], [-1, 2]], 6),
    "A3": ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], 3),
    "A4": ([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]], 1),
    "B2": ([[2, -2], [-1, 2]], 6),
    "C2": ([[2, -1], [-2, 2]], 6),
    "G2": ([[2, -1], [-3, 2]], 6),
    "G2'": ([[2, -3], [-1, 2]], 6),
    "B3": ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], 2),
    "C3": ([[2, -1, 0], [-1, 2, -2], [0, -1, 2]], 2),
    "D4": ([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]], 1),
}


@pytest.mark.parametrize("name", REFERENCE_CASES)
def test_priced_fold_matches_reference_fold(name):
    # skipping the folds the invariant form prices beyond the cutoff loses
    # no entry: every class at levels 1-4 folds as if every pair were reduced
    cartan, cutoff = REFERENCE_CASES[name]
    spec = AlgebraSpec(name, cartan)
    for level in (1, 2, 3, 4):
        for base in enumerate_class_weights(spec, level).values():
            folded, fan = build_folded_fans(spec, base, cutoff)
            for j, ff in enumerate(folded):
                assert ff.entries == folded_entries(spec, base, j, fan, cutoff)


def _unit_vectors(rank):
    return [tuple(int(i == j) for j in range(rank)) for i in range(rank)]


@pytest.mark.parametrize("name", REFERENCE_CASES)
def test_integer_norms_match_the_rational_form(name):
    # the integer Gram matrix gives the norms the fold and the far reads are
    # priced with; classical_inner computes the same form in Fractions
    spec = AlgebraSpec(name, REFERENCE_CASES[name][0])
    scale = spec.form_scale
    rng = random.Random(name)
    for _ in range(200):
        labels = tuple(rng.randint(-20, 20) for _ in range(spec.rank))
        norm = spec.form_norm(labels)
        assert type(norm) is int and norm == scale * classical_inner(spec, labels, labels)
        # the two grades either side of the bound, where the pricing flips
        level = rng.randint(1, 4)
        # the vertices k Lambda_i / a_i^vee of the dominant level-k simplex
        bound = max(
            level * level * scale * classical_inner(spec, e, e) / (c * c)
            for e, c in zip(_unit_vectors(spec.rank), spec.comarks)
        )
        assert spec.norm_bound(level) == math.floor(bound)
        below = math.floor((bound - norm) / (2 * level * scale))
        for grade in (below, below + 1):
            rational = 2 * level * scale * grade + norm > bound
            assert _priced_above_grade0(spec, spec.weight(labels, level, grade)) == rational
    for level in (1, 2, 3):
        for base in enumerate_class_weights(spec, level).values():
            assert base.norms == tuple(
                int(scale * classical_inner(spec, w.labels, w.labels)) for w in base.weights
            )


A5_CARTAN = [
    [2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, 0], [0, 0, -1, 2, -1], [0, 0, 0, -1, 2]
]


@pytest.mark.parametrize(
    "name,cartan,cutoff",
    [(name, *case) for name, case in REFERENCE_CASES.items()] + [("A5", A5_CARTAN, 4)],
)
def test_walk_records_labels_and_norms(name, cartan, cutoff):
    # the labels and norm each record takes from the orbit walk are the
    # affine labels of its root coordinates and their integer Gram norm
    spec = AlgebraSpec(name, cartan)
    for v in build_fan(spec, cutoff):
        assert v.labels == root_labels(spec, v.root)
        assert v.norm == spec.form_norm(v.labels[1:])


def test_fold_off_the_norm_identity_raises_convention_error(a2, monkeypatch):
    # a target norm off by 2k keeps offset >= grade and the target's class,
    # so only the invariant-form identity can catch it; the base folded
    # keeps its own norm, so every pair is priced as before
    base = class_of(a2, (0, 0), 2)
    two_k = 2 * base.level * a2.form_scale
    monkeypatch.setattr(base, "norms", (base.norms[0], base.norms[1] + two_k))
    with pytest.raises(ConventionError, match="invariant form"):
        build_folded_fan(a2, base, 0, build_fan(a2, 4), 4)


def test_fold_step_budget_raises_nontermination(a2, monkeypatch):
    # the kernel's pair loop reads the budget at each call and applies it
    # to each pair's reduction
    base = class_of(a2, (1, 0), 2)
    fan = build_fan(a2, 4)
    monkeypatch.setattr(weyl, "DEFAULT_STEP_LIMIT", 1)
    with pytest.raises(NonterminationError, match="reduction exceeded 1 steps"):
        build_folded_fan(a2, base, 0, fan, 4)


@pytest.mark.parametrize(
    "base_index, cutoff, match",
    [
        (99, 4, "base index 99 out of range"),
        (-1, 4, "base index -1 out of range"),
        (1.5, 4, "base index 1.5 is not an integer"),
        ("0", 4, "base index '0' is not an integer"),
        (0, 2.5, "folded cutoff 2.5 is not an integer"),
        (0, -1, "folded cutoff -1 is negative"),
    ],
    ids=["index-past-end", "index-negative", "index-fraction", "index-str", "cutoff-fraction",
         "cutoff-negative"],
)
def test_fold_refuses_a_bad_index_or_cutoff(a2, base_index, cutoff, match):
    base = class_of(a2, (1, 0), 2)
    with pytest.raises(ConfigurationError, match=match):
        build_folded_fan(a2, base, base_index, build_fan(a2, 4), cutoff)


def test_fold_takes_an_integral_index_and_cutoff_as_ints(a2):
    base = class_of(a2, (1, 0), 2)
    fan = build_fan(a2, 4)
    folded = build_folded_fan(a2, base, 1.0, fan, 4.0)
    assert folded == build_folded_fan(a2, base, 1, fan, 4)
    assert type(folded.base_index) is int and type(folded.cutoff) is int


@pytest.mark.parametrize(
    "weights, match",
    [
        ((), "base weight set is empty"),
        ((((1, 1), 3, 0),), "grade 0 of the level plane"),
        ((((1, 1), 2, -1),), "grade 0 of the level plane"),
        ((((3, 0), 2, 0),), r"base weight \(3,0;2;0\) is not dominant"),
        ((((1, 1), 2, 0), ((1, 1), 2, 0)), "base weights must be distinct"),
    ],
    ids=["empty", "other-level", "other-grade", "not-dominant", "repeated"],
)
def test_base_weight_set_refusals(a2, weights, match):
    weights = tuple(a2.weight(*w) for w in weights)
    with pytest.raises(ConfigurationError, match=match):
        BaseWeightSet(a2, 2, weights)

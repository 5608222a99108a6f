"""The multiplicity reads: `weight_multiplicity`, `RacahOracle.multiplicity`
and the `WeylOutcome` of `to_dominant` that both read from."""

import json
import pathlib
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import weyl_reference as reference
from affstr import (
    AffineWeight,
    ConfigurationError,
    NonterminationError,
    RacahOracle,
    build_fan,
    character,
    load_algebra,
    string_table,
    to_dominant,
    weight_multiplicity,
    weyl,
)
from affstr.strings import _priced_above_grade0

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "configs"

# (algebra, highest weight, level, depth) of the modules read below
MODULES = {
    "A2": ("A2", (1, 0), 2, 6),
    "A3": ("A3", (0, 1, 0), 2, 4),
    "G2": (str(CONFIGS / "G2.json"), (1, 0), 3, 6),
    "A4": (str(CONFIGS / "A4.json"), (1, 0, 0, 1), 2, 3),
}


@pytest.fixture(scope="module")
def modules():
    """name -> (spec, table), each algebra freshly loaded."""
    out = {}
    for name, (algebra, mu, level, depth) in MODULES.items():
        spec = load_algebra(algebra)
        out[name] = spec, string_table(spec, mu, level, -depth)
    return out


@pytest.fixture(scope="module")
def oracles(modules):
    """name -> RacahOracle of the module, for A2 and G2."""
    return {
        name: RacahOracle(spec, table.mu, build_fan(spec, -table.cutoff))
        for name, (spec, table) in modules.items()
        if name in ("A2", "G2")
    }


def _draw_image(data, spec, table):
    """(string index, depth, an image of that string point under a word)."""
    s = data.draw(st.integers(0, len(table.base) - 1))
    d = data.draw(st.integers(0, -table.cutoff))
    word = data.draw(st.lists(st.integers(0, spec.rank), max_size=12))
    return s, d, reference.apply_word(spec, word, table.base.weights[s].shift_grade(-d))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_read_of_an_image_is_its_string_coefficient(modules, oracles, data):
    name = data.draw(st.sampled_from(sorted(MODULES)))
    spec, table = modules[name]
    s, d, image = _draw_image(data, spec, table)
    expected = table.coefficients[s][d]
    assert weight_multiplicity(spec, table, image) == expected
    if name == "A2":
        assert oracles["A2"].multiplicity(image) == expected
    outcome = to_dominant(spec, image)
    assert (outcome.dominant, outcome.word) == reference.to_dominant(spec, image)
    assert outcome.dominant == table.base.weights[s].shift_grade(-d)


def test_weyl_outcome_contract(a2):
    outcome = to_dominant(a2, a2.weight((-3, 1), 2, -1))
    labels, level, grade, word = outcome
    assert (outcome.labels, outcome.level, outcome.grade, outcome.word) == outcome
    assert type(word) is tuple and word
    assert labels == a2.affine_labels(outcome.dominant)
    assert all(type(x) is int for x in labels)
    assert outcome.dominant == AffineWeight(labels[1:], level, grade)


def test_bool_components_read_as_ints(a2):
    w = AffineWeight((True, False), True, False)
    assert [type(x) for x in w.labels + (w.level, w.grade)] == [int] * 4
    table = string_table(a2, (0, 0), 1, -2)
    assert weight_multiplicity(a2, table, AffineWeight((True, True), 1, -1)) == (
        weight_multiplicity(a2, table, a2.weight((1, 1), 1, -1))
    )


# -- reads whose reduction outruns the step budget ------------------------


def _steps(spec, lam):
    return len(reference.to_dominant(spec, lam)[1])


def test_far_weight_reads_zero_when_the_budget_runs_out(a2, monkeypatch):
    table = string_table(a2, (0, 0), 1, -4)
    oracle = RacahOracle(a2, table.mu, build_fan(a2, 4))
    far = a2.weight((40, 0), 1, -1)
    assert weight_multiplicity(a2, table, far) == oracle.multiplicity(far) == 0
    monkeypatch.setattr(weyl, "DEFAULT_STEP_LIMIT", _steps(a2, far))
    with pytest.raises(NonterminationError):
        to_dominant(a2, far)
    assert weight_multiplicity(a2, table, far) == oracle.multiplicity(far) == 0


def test_budget_error_stands_for_a_weight_of_the_module(a2, monkeypatch):
    table = string_table(a2, (0, 0), 1, -4)
    oracle = RacahOracle(a2, table.mu, build_fan(a2, 4))
    inside = reference.apply_word(a2, (0, 1, 2, 0, 1, 2, 0), table.mu.shift_grade(-3))
    assert weight_multiplicity(a2, table, inside) == oracle.multiplicity(inside) == 10
    monkeypatch.setattr(weyl, "DEFAULT_STEP_LIMIT", _steps(a2, inside) - 1)
    with pytest.raises(NonterminationError):
        weight_multiplicity(a2, table, inside)
    with pytest.raises(NonterminationError):
        oracle.multiplicity(inside)


def test_far_read_is_priced_after_a_few_kernel_steps(fresh_algebras, kernel_steps):
    # `affstr mult --algebra A2 --level 1 --mu 0,0 --cutoff 4 --weight
    # 1000000,0 --grade -1`: the reduction would take over a million
    # reflections; the read prices the weight after ASK_AFTER of them.
    spec = load_algebra(str(CONFIGS / "A2.json"))
    table = string_table(spec, (0, 0), 1, -4)
    oracle = RacahOracle(spec, table.mu, build_fan(spec, 4))
    steps = kernel_steps(spec)
    for far in ((10**6, 0), (10**12, 0), (0, -(10**6))):
        for read in (partial(weight_multiplicity, spec, table), oracle.multiplicity):
            steps.clear()
            assert read(spec.weight(far, 1, -1)) == 0
            assert steps == [weyl.ASK_AFTER]
    # an ordinary read runs its reduction once, to the end
    steps.clear()
    image = reference.apply_word(spec, (0, 1, 2, 0), table.mu.shift_grade(-2))
    assert weight_multiplicity(spec, table, image) == 5
    assert steps == [len(reference.to_dominant(spec, image)[1])] == [4]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_priced_reads_are_sound(modules, oracles, data):
    # On a budget too small for any reflection, each read either gives the
    # unbudgeted value or lets the budget error stand.  Reduction only
    # raises the grade, so no draw falls below the window.
    name = data.draw(st.sampled_from(sorted(oracles)))
    spec, table = modules[name]
    labels = data.draw(st.tuples(*[st.integers(-30, 30)] * spec.rank))
    lam = AffineWeight(labels, table.level, data.draw(st.integers(table.cutoff, 3)))
    truth = weight_multiplicity(spec, table, lam)
    dominant = to_dominant(spec, lam)
    assert not _priced_above_grade0(spec, lam) or dominant.grade > 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(weyl, "DEFAULT_STEP_LIMIT", 1)
        try:
            assert weight_multiplicity(spec, table, lam) == truth
        except NonterminationError:
            assert dominant.word
        # The oracle also reduces inside its recursion, which may raise too.
        try:
            assert oracles[name].multiplicity(lam) == truth
        except NonterminationError:
            pass


def test_reads_refuse_a_table_of_another_algebra(a2, tmp_path):
    # A G2 read of an A2 table gave 0 for a multiplicity of 32 and listed
    # 39 pairs for a window of 27.
    table = string_table(a2, (0, 0), 2, -6)
    lam = a2.weight((1, 1), 2, -4)
    g2 = load_algebra(str(CONFIGS / "G2.json"))
    with pytest.raises(ConfigurationError, match="Cartan matrices differ"):
        weight_multiplicity(g2, table, lam)
    with pytest.raises(ConfigurationError, match="Cartan matrices differ"):
        character(g2, table, 2)
    # An algebra is its Cartan matrix: a relabelled A2, another instance,
    # reads the preset's table.
    config = tmp_path / "sl3.json"
    config.write_text(json.dumps({"label": "sl3", "cartan": [[2, -1], [-1, 2]]}))
    sl3 = load_algebra(str(config))
    assert sl3 is not a2
    assert weight_multiplicity(sl3, table, lam) == 32
    pairs = character(sl3, table, 2)
    assert len(pairs) == 27 and pairs == character(a2, table, 2)

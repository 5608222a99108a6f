import random
import time
from fractions import Fraction

import pytest

from affstr import (
    AlgebraSpec,
    ConfigurationError,
    ConsistencyError,
    OutOfWindowError,
    ResourceLimitError,
    build_fan,
    build_folded_fans,
    character,
    euler_square_series,
    string_table,
    weight_multiplicity,
)
from affstr import fan as fan_module
from affstr.folding import FoldedFan
from affstr.strings import (
    BlockSystem,
    assemble_system,
    classifier_for,
    enumerate_class_weights,
    module_class,
    solve_strings,
)
from affstr.weyl import apply_word, descending_orbit
from weyl_reference import from_root_basis


def test_singular_grade_zero_block_is_refused(a1):
    # A fold with no seeded -1 leaves the grade-zero block [[0]].
    base = enumerate_class_weights(a1, 1)[classifier_for(a1).id_of((0,))]
    system = assemble_system(base, [FoldedFan(0, 4, {})], 0, -4)
    with pytest.raises(ConsistencyError, match="singular"):
        solve_strings(system)


def test_class_counting(a2):
    expectations = {1: (3, 1), 2: (6, 2), 4: (15, 5)}
    for level, (total, per_class) in expectations.items():
        classes = enumerate_class_weights(a2, level)
        sizes = [len(b) for b in classes.values()]
        assert len(sizes) == 3
        assert all(s == per_class for s in sizes)
        assert sum(sizes) == total


def test_class_orders_match_tables(a2):
    classes = enumerate_class_weights(a2, 2)
    by_head = {tuple(map(int, b.weights[0].labels)): b for b in classes.values()}
    assert [tuple(map(int, w.labels)) for w in by_head[(0, 0)].weights] == [(0, 0), (1, 1)]
    assert [tuple(map(int, w.labels)) for w in by_head[(1, 0)].weights] == [(1, 0), (0, 2)]
    assert [tuple(map(int, w.labels)) for w in by_head[(0, 1)].weights] == [(0, 1), (2, 0)]
    classes4 = enumerate_class_weights(a2, 4)
    head = classifier_for(a2).id_of((0, 0))
    assert [tuple(map(int, w.labels)) for w in classes4[head].weights] == [
        (0, 0), (1, 1), (0, 3), (3, 0), (2, 2),
    ]


def test_classifier_root_invariance(a2):
    classify = classifier_for(a2)
    rng = random.Random(11)
    for _ in range(50):
        labels = (rng.randint(-6, 6), rng.randint(-6, 6))
        root = from_root_basis(a2, (rng.randint(-3, 3), rng.randint(-3, 3)))
        shifted = tuple(x + y for x, y in zip(labels, root.labels))
        assert classify.id_of(labels) == classify.id_of(shifted)


def test_assemble_level1_block(a2):
    cid = classifier_for(a2).id_of((0, 0))
    base = enumerate_class_weights(a2, 1)[cid]
    folded, _ = build_folded_fans(a2, base, 5)
    system = assemble_system(base, folded, 0, -5)
    # the single Toeplitz block is read off the folded shifts by grade
    assert [system.grade_matrix(n)[0][0] for n in range(6)] == folded[0].eta_row(0)
    assert system.grade_matrix(0) == [[-1]]
    assert system.depth == 5 and system.mu_index == 0


def test_assemble_depth_zero(a2):
    cid = classifier_for(a2).id_of((0, 0))
    base = enumerate_class_weights(a2, 2)[cid]
    folded, _ = build_folded_fans(a2, base, 0)
    system = assemble_system(base, folded, 0, 0)
    assert system.grade_matrix(0) == [[-1, 2], [0, -1]]
    table = solve_strings(system)
    assert table.coefficients == ((1,), (0,))


def test_one_dense_block_per_solve(a2, monkeypatch):
    # only the grade-0 block, which is eliminated, is built as a matrix;
    # the deeper blocks are read once from the folds as sparse rows
    base, mu_index = module_class(a2, (1, 1), 3)
    folded, _ = build_folded_fans(a2, base, 12)
    system = assemble_system(base, folded, mu_index, -12)
    calls = []
    grade_matrix = BlockSystem.grade_matrix

    def counting(self, n):
        calls.append(n)
        return grade_matrix(self, n)

    monkeypatch.setattr(BlockSystem, "grade_matrix", counting)
    table = solve_strings(system)
    assert calls == [0]
    assert table.coefficients == string_table(a2, (1, 1), 3, -12).coefficients


@pytest.mark.parametrize(
    "label, cartan, mu, level, depth",
    [
        ("A1", [[2]], (3,), 8, 30),
        ("A2", [[2, -1], [-1, 2]], (1, 1), 4, 10),
        ("G2", [[2, -1], [-3, 2]], (1, 0), 3, 10),
    ],
    ids=["A1-L8", "A2-L4", "G2-L3"],
)
def test_folds_built_past_the_depth_solve_to_the_same_table(label, cartan, mu, level, depth):
    # a fold built to a larger cutoff holds offsets past the system's depth,
    # which the solve must drop rather than read
    spec = AlgebraSpec(label, cartan)
    base, mu_index = module_class(spec, mu, level)
    exact, _ = build_folded_fans(spec, base, depth)
    deeper, _ = build_folded_fans(spec, base, depth + 5)
    assert any(n > depth for ff in deeper for (_, n), eta in ff.entries.items() if eta)
    want = solve_strings(assemble_system(base, exact, mu_index, -depth))
    got = solve_strings(assemble_system(base, deeper, mu_index, -depth))
    assert got.coefficients == want.coefficients
    assert got.cutoff == -depth and all(len(c) == depth + 1 for c in got.coefficients)


def _vacuum_level2_folds(a2, cutoff):
    base, _ = module_class(a2, (0, 0), 2)
    folded, _ = build_folded_fans(a2, base, cutoff)
    return base, folded


@pytest.mark.parametrize(
    "case, error, match",
    [
        pytest.param(
            lambda base, folded: (base, folded, 0, 1),
            ConfigurationError, "^cutoff grade u must be <= 0$", id="positive-cutoff",
        ),
        pytest.param(
            lambda base, folded: (base, folded[:1], 0, -3),
            ConfigurationError, "^need one folded fan per base weight$", id="fan-count",
        ),
        pytest.param(
            lambda base, folded: (base, folded[::-1], 0, -3),
            ConfigurationError, "^folded fans must be ordered by base index$", id="fan-order",
        ),
        pytest.param(
            lambda base, folded: (base, folded, 0, -5),
            OutOfWindowError, "^folded fan 0 reaches offset 4 < requested depth 5$",
            id="fold-too-shallow",
        ),
        pytest.param(
            lambda base, folded: (base, folded, 2, -3),
            ConfigurationError, "^mu_index out of range$", id="mu-index-range",
        ),
        pytest.param(
            lambda base, folded: (base, folded, -1, -3),
            ConfigurationError, "^mu_index out of range$", id="mu-index-negative",
        ),
    ],
)
def test_assemble_system_refusals(a2, case, error, match):
    base, folded = _vacuum_level2_folds(a2, 4)
    assert len(base) == 2
    with pytest.raises(error, match=match):
        assemble_system(*case(base, folded))


@pytest.mark.parametrize(
    "mu_index, u, what",
    [
        pytest.param(0, -2.5, "cutoff", id="float-cutoff"),
        pytest.param(0, Fraction(-7, 2), "cutoff", id="fraction-cutoff"),
        pytest.param(0, "-3", "cutoff", id="str-cutoff"),
        pytest.param(0, None, "cutoff", id="None-cutoff"),
        pytest.param(0.5, -3, "mu_index", id="float-mu-index"),
        pytest.param("0", -3, "mu_index", id="str-mu-index"),
        pytest.param(None, -3, "mu_index", id="None-mu-index"),
    ],
)
def test_assemble_system_refuses_non_integers(a2, mu_index, u, what):
    # a fractional cutoff was truncated to another depth, and the others
    # raised a bare TypeError, some of them only inside the solve
    base, folded = _vacuum_level2_folds(a2, 4)
    with pytest.raises(ConfigurationError, match=f"^{what} .* is not an integer$"):
        assemble_system(base, folded, mu_index, u)


def test_assemble_system_takes_integral_values_as_ints(a2):
    # as string_table does: an integral float or Fraction names the same system
    base, folded = _vacuum_level2_folds(a2, 4)
    system = assemble_system(base, folded, 0.0, Fraction(-6, 2))
    assert type(system.mu_index) is int and type(system.depth) is int
    assert system == assemble_system(base, folded, 0, -3)
    assert solve_strings(system).coefficients == string_table(a2, (0, 0), 2, -3).coefficients


def test_level1_strings(a2):
    table = string_table(a2, (0, 0), 1, -10)
    assert list(table.coefficients[0]) == euler_square_series(10)
    assert table.coefficients[0][:5] == (1, 2, 5, 10, 20)


def test_level2_strings(a2):
    table = string_table(a2, (0, 0), 2, -10)
    assert table.coefficients[0] == (1, 2, 8, 20, 52, 116, 256, 522, 1045, 1996, 3736)
    assert table.coefficients[1] == (0, 1, 4, 12, 32, 77, 172, 365, 740, 1445, 2736)
    assert table.mu_index == 0


def test_level4_strings(a2):
    table = string_table(a2, (1, 1), 4, -9)
    assert table.coefficients[0] == (2, 10, 40, 133, 398, 1084, 2760, 6632, 15214, 33508)
    assert table.coefficients[4] == (0, 1, 8, 35, 124, 379, 1052, 2700, 6536, 15047)


def test_diagram_automorphism_level2(a2):
    second = string_table(a2, (1, 0), 2, -10)
    third = string_table(a2, (0, 1), 2, -10)
    assert second.coefficients == third.coefficients


def test_string_table_refuses_non_integers(a2):
    from fractions import Fraction

    # a label is refused, not truncated to the table of another module
    for labels in [(1.5, 0), (Fraction(1, 2), 0), (0, float("nan")), (0, float("inf")), ("1", 0)]:
        with pytest.raises(ConfigurationError, match="Dynkin label"):
            string_table(a2, labels, 2, -3)
    # so are a non-integral level or cutoff
    with pytest.raises(ConfigurationError, match="level 1.5"):
        string_table(a2, (0, 0), 1.5, -3)
    with pytest.raises(ConfigurationError, match="cutoff -3.5"):
        string_table(a2, (0, 0), 1, -3.5)
    exact = string_table(a2, (1, 0), 2, -3)
    assert string_table(a2, (Fraction(1), 0.0), Fraction(2), -3.0) is exact
    assert string_table(a2, [1, 0], 2, -3) is exact


def test_weight_multiplicity_basics(a2):
    table = string_table(a2, (0, 0), 1, -6)
    mu = table.mu
    assert weight_multiplicity(a2, table, mu) == 1
    assert weight_multiplicity(a2, table, mu.shift_grade(-1)) == 2
    # any ordinary image of mu - 2delta keeps multiplicity 5
    image = apply_word(a2, (0, 1, 2, 0), mu.shift_grade(-2))
    assert weight_multiplicity(a2, table, image) == 5
    # weights above the highest weight have multiplicity zero
    assert weight_multiplicity(a2, table, mu.shift_grade(2)) == 0


def test_weight_multiplicity_guards(a2):
    table = string_table(a2, (0, 0), 1, -4)
    with pytest.raises(OutOfWindowError):
        weight_multiplicity(a2, table, table.mu.shift_grade(-5))
    with pytest.raises(ConfigurationError):
        weight_multiplicity(a2, table, a2.weight((0, 0), 2, 0))
    # different congruence class: simply zero
    assert weight_multiplicity(a2, table, a2.weight((1, 0), 1, 0)) == 0


def test_off_lattice_grade_is_refused_not_truncated(a2):
    # a fractional grade is no weight of any module; a truncated grade once
    # read the string at the wrong depth, so it is refused when built
    for grade in (Fraction(-1, 2), Fraction(-11, 2)):
        with pytest.raises(ConfigurationError, match="^grade "):
            a2.weight((0, 0), 2, grade)


def test_character_grade0(a2):
    table = string_table(a2, (0, 0), 1, -4)
    slice0 = [(w, m) for w, m in character(a2, table, 0)]
    assert slice0 == [(table.mu, 1)]


def test_character_totals_against_lattice_sum(a2):
    # independent count: the level-1 grade -n total multiplicity is the sum
    # of p2(n - |alpha|^2/2) over classical root-lattice vectors alpha
    table = string_table(a2, (0, 0), 1, -6)
    p2 = euler_square_series(6)

    def shell_total(n):
        total = 0
        for x in range(-4, 5):
            for y in range(-4, 5):
                half_norm = x * x - x * y + y * y
                if half_norm <= n:
                    total += p2[n - half_norm]
        return total

    pairs = character(a2, table, 6)
    for n in range(7):
        slice_total = sum(m for w, m in pairs if w.grade == -n)
        assert slice_total == shell_total(n)


def test_character_window_forms(a2):
    table = string_table(a2, (0, 0), 2, -5)
    full = character(a2, table, 3)
    window = character(a2, table, (-2, -3))
    assert window == [(w, m) for w, m in full if -3 <= w.grade <= -2]
    with pytest.raises(OutOfWindowError):
        character(a2, table, 9)
    # integral grades of any exact type name the same window
    assert character(a2, table, (Fraction(-6, 2), -2.0)) == window


def test_character_stops_at_the_node_budget(a2, monkeypatch):
    # The level-2 vacuum class holds (0,0) and (1,1): the budget counts the
    # points of both walks together, each down to its string's first depth.
    table = string_table(a2, (0, 0), 2, -3)
    heads = [next(d for d, mult in enumerate(c) if mult) for c in table.coefficients]
    assert heads == [0, 1]
    walks = [
        len(list(descending_orbit(a2, a2.affine_labels(xi), 0, head - 3)))
        for xi, head in zip(table.base.weights, heads)
    ]
    assert len(walks) == 2 and min(walks) > 1
    whole = character(a2, table, 3)
    monkeypatch.setattr(fan_module, "DEFAULT_NODE_LIMIT", sum(walks))
    assert character(a2, table, 3) == whole
    for limit in (sum(walks) - 1, walks[0] - 1):
        monkeypatch.setattr(fan_module, "DEFAULT_NODE_LIMIT", limit)
        with pytest.raises(ResourceLimitError, match=f"^character orbit walk exceeded {limit} "):
            character(a2, table, 3)


@pytest.mark.parametrize(
    "window", [(0, -2.5), 2.0, (0, -2, -3), "3", "-3", (0, "-2"), None, -1, (1, 0)]
)
def test_character_refuses_malformed_window(a2, window):
    # a fractional grade used to be truncated; the others raised bare errors
    table = string_table(a2, (0, 0), 2, -5)
    with pytest.raises(ConfigurationError):
        character(a2, table, window)


def test_extended_string_leading_zeros(a2):
    # the non-maximal class head at level 2 starts one grade down
    table = string_table(a2, (0, 0), 2, -8)
    assert table.coefficients[1][0] == 0
    assert table.coefficients[1][1] > 0


def test_solver_rejects_corrupted_folding(a2):
    cid = classifier_for(a2).id_of((0, 0))
    base = enumerate_class_weights(a2, 2)[cid]
    folded, _ = build_folded_fans(a2, base, 6)
    corrupted = FoldedFan(0, 6, dict(folded[0].entries))
    # a large negative shift multiplicity drives a coefficient below zero
    corrupted.entries[(0, 1)] = corrupted.entries.get((0, 1), 0) - 9
    with pytest.raises(ConsistencyError):
        solve_strings(assemble_system(base, (corrupted, folded[1]), 0, -6))


def test_solver_asserts_the_highest_weight_multiplicity_is_one(a2):
    # Grade-0 blocks [[-1, 1], [1, -2]] give the integral, non-negative
    # head column (2, 1): only the head-is-1 check can refuse it.
    base, _ = module_class(a2, (0, 0), 2)
    assert [w.labels for w in base.weights] == [(0, 0), (1, 1)]
    folded = (FoldedFan(0, 0, {(0, 0): -1, (1, 0): 1}), FoldedFan(1, 0, {(0, 0): 1, (1, 0): -2}))
    with pytest.raises(ConsistencyError, match="highest weight multiplicity is not 1"):
        solve_strings(assemble_system(base, folded, 0, 0))


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda a2: module_class(a2, ("1", 0), 2), id="module_class-str-label"),
        pytest.param(lambda a2: module_class(a2, (None, 0), 2), id="module_class-None-label"),
        pytest.param(lambda a2: module_class(a2, (0.5, 0), 2), id="module_class-half-label"),
        pytest.param(lambda a2: module_class(a2, (0, 0), 1.5), id="module_class-level"),
        pytest.param(lambda a2: enumerate_class_weights(a2, 1.5), id="class_weights-level"),
        pytest.param(lambda a2: classifier_for(a2).id_of((0, "1")), id="id_of-str-label"),
        pytest.param(
            lambda a2: apply_word(a2, [1.5], a2.weight((1, 0), 1, 0)), id="apply_word-index"
        ),
    ],
)
def test_malformed_integer_input_is_a_configuration_error(a2, call):
    # the classifier read the string "1" as 1, a half label was refused
    # already, and the others raised a bare TypeError
    with pytest.raises(ConfigurationError, match="is not an integer"):
        call(a2)


def test_string_table_rejects_bad_mu(a2):
    with pytest.raises(ConfigurationError):
        string_table(a2, (9, 9), 2, -4)
    with pytest.raises(ConfigurationError):
        string_table(a2, (-1, 0), 2, -4)


@pytest.mark.parametrize("level", [10**6, 10**20])
def test_huge_level_is_refused_before_enumerating(a2, level):
    # A2 has at least C(level + 2, 2) dominant labels at a level, far past
    # the node budget here: walking them (5 * 10**11 at level 10**6) would
    # never end, so the bound refuses the level at once.
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=f"^level {level} has more than"):
        module_class(a2, (0, 0), level)
    assert time.perf_counter() - start < 1


def test_class_enumeration_stops_at_the_node_budget(monkeypatch):
    # G2 (comarks 2, 1) has 9 dominant labels at level 4, above the bound
    # C(4 // 2 + 2, 2) = 6: a budget of 8 passes the bound, so the walk
    # itself must stop.
    g2 = AlgebraSpec("G2", [[2, -1], [-3, 2]])
    monkeypatch.setattr(fan_module, "DEFAULT_NODE_LIMIT", 8)
    with pytest.raises(ResourceLimitError, match="^level 4 has more than 8 dominant weights$"):
        enumerate_class_weights(g2, 4)
    monkeypatch.setattr(fan_module, "DEFAULT_NODE_LIMIT", 9)
    assert sum(len(base) for base in enumerate_class_weights(g2, 4).values()) == 9

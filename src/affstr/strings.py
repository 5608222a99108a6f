"""Congruence classes, the block system, and exact string function solving.

The dominant level-k grade-0 weights split into congruence classes
(classical parts modulo the classical root lattice); fan shifts never
leave a class.  A class is named by the residue of adj(A) times the
labels modulo det(A), A the Cartan matrix, and ordered by that integer
vector itself.  `module_class` is the one check that labels give a
highest weight of the level and the one lookup of its class.  Only the
oracle classifies weights itself, so that it shares no class enumeration
with the folded path it checks.

For one class the multiplicity recursion, written for all strings
simultaneously down to a cutoff grade u, becomes a square block system
with Toeplitz upper-triangular blocks built from the folded fan
multiplicities.  It is solved exactly grade by grade.  The grade-zero
block is the same at every depth, so algebra._adjugate, the package's
one exact elimination, reduces it once to its determinant and adjugate
in integers; each depth's coefficients are then the adjugate applied to
a right-hand side of shallower coefficients, divided by the determinant.
In base order that block has -1 on the diagonal and zeros below it,
which the `verify` harness checks on the folded fans.  Every solution
component must come out a non-negative integer; anything else signals an
upstream bug and aborts.

The classifier, the classes of a level and the table of a module are
memoised per algebra instance (algebra.algebra_memo), as are the folded
fans they are solved from: the modules of one class share a single fold.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import mul
from typing import NamedTuple

from . import fan
from .algebra import AffineWeight, AlgebraSpec, _adjugate, _integer_entry, algebra_memo
from .errors import (
    ConfigurationError,
    ConsistencyError,
    NonterminationError,
    OutOfWindowError,
    ResourceLimitError,
)
from .folding import BaseWeightSet, FoldedFan, build_folded_fans
from .weyl import descending_orbit, to_dominant

__all__ = [
    "CongruenceClassId",
    "CongruenceClassifier",
    "BlockSystem",
    "StringTable",
    "enumerate_class_weights",
    "assemble_system",
    "solve_strings",
    "module_class",
    "string_table",
    "weight_multiplicity",
    "character",
]


class CongruenceClassId(NamedTuple):
    """Residues of the classical part in the weight/root lattice quotient."""

    residue: tuple[int, ...]

    def __repr__(self):
        return "class" + repr(tuple(self.residue))


class CongruenceClassifier:
    """Classifies Dynkin-label vectors modulo the classical root lattice.

    Labels v lie in the root lattice exactly when A^-1 v is integral, that
    is when adj(A) v vanishes modulo det(A), adj(A) = det(A) A^-1 being an
    integer matrix.  The residue of adj(A) v modulo det(A) names the class.
    det(A) and adj(A) are read off the algebra (`cartan_det`,
    `cartan_adjugate`); the classifier eliminates nothing itself.  Since
    det(A) > 0, adj(A) v orders labels as their simple-root coordinates
    A^-1 v do, in integers.
    """

    def __init__(self, spec: AlgebraSpec):
        self.spec = spec
        self._det = spec.cartan_det
        self._adj = spec.cartan_adjugate

    def id_of(self, labels) -> CongruenceClassId:
        labels = tuple(_integer_entry(x, "Dynkin label") for x in labels)
        if len(labels) != self.spec.rank:
            raise ConfigurationError("label length does not match rank")
        return CongruenceClassId(tuple(x % self._det for x in self._scaled_roots(labels)))

    def _scaled_roots(self, labels) -> tuple[int, ...]:
        """adj(A) v: det(A) times the simple-root coordinates of int labels v."""
        return tuple(sum(map(mul, row, labels)) for row in self._adj)


@algebra_memo
def classifier_for(spec: AlgebraSpec) -> CongruenceClassifier:
    return CongruenceClassifier(spec)


@algebra_memo
def enumerate_class_weights(spec: AlgebraSpec, level: int, /) -> dict:
    """All dominant level-k grade-0 weights, partitioned by congruence class.

    Within a class, weights are ordered by their simple-root coordinates,
    the order level-plane tables are conventionally listed in.  A level
    with more than fan.DEFAULT_NODE_LIMIT dominant weights raises
    ResourceLimitError, at once when the lower bound C(k // max comark +
    rank, rank) on their count already passes it.
    """
    level = _integer_entry(level, "level")
    if level < 1:
        raise ConfigurationError("level must be >= 1")
    limit = fan.DEFAULT_NODE_LIMIT
    too_many = f"level {level} has more than {limit} dominant weights"
    if comb(level // max(spec.comarks) + spec.rank, spec.rank) > limit:
        raise ResourceLimitError(too_many)
    classify = classifier_for(spec)
    buckets: dict[CongruenceClassId, list[AffineWeight]] = {}
    for count, labels in enumerate(_dominant_labels(spec.comarks, level), 1):
        if count > limit:
            raise ResourceLimitError(too_many)
        w = spec.weight(labels, level, 0)
        buckets.setdefault(classify.id_of(labels), []).append(w)
    out = {}
    for cid in sorted(buckets, key=lambda c: c.residue):
        weights = sorted(buckets[cid], key=lambda w: classify._scaled_roots(w.labels))
        out[cid] = BaseWeightSet(spec, level, tuple(weights), cid)
    return out


def _dominant_labels(comarks, budget, prefix=()):
    if not comarks:
        yield prefix
        return
    head, rest = comarks[0], comarks[1:]
    for x in range(budget // head + 1):
        yield from _dominant_labels(rest, budget - head * x, prefix + (x,))


class BlockSystem(NamedTuple):
    """The square system determining all strings of one congruence class.

    Block (j, s) is the upper-triangular Toeplitz matrix of the folded
    multiplicities eta_{j,s}; the right-hand side carries a single -1 in
    the block of the highest weight at the grade-0 row.
    """

    base: BaseWeightSet
    mu_index: int
    depth: int  # |u|
    folded: tuple[FoldedFan, ...]

    def grade_matrix(self, n: int):
        p = len(self.base)
        return [[ff.eta(s, n) for s in range(p)] for ff in self.folded]


def assemble_system(base: BaseWeightSet, folded, mu_index: int, u: int) -> BlockSystem:
    """Collect folded fans into the block system for one highest weight."""
    if u > 0:
        raise ConfigurationError("cutoff grade u must be <= 0")
    depth = -int(u)
    folded = tuple(folded)
    if len(folded) != len(base):
        raise ConfigurationError("need one folded fan per base weight")
    for j, ff in enumerate(folded):
        if ff.base_index != j:
            raise ConfigurationError("folded fans must be ordered by base index")
        if ff.cutoff < depth:
            raise OutOfWindowError(
                f"folded fan {j} reaches offset {ff.cutoff} < requested depth {depth}"
            )
    if not 0 <= mu_index < len(base):
        raise ConfigurationError("mu_index out of range")
    return BlockSystem(base, mu_index, depth, folded)


class StringTable(NamedTuple):
    """String function coefficients m_{s,n} for one module, n = 0..depth."""

    algebra: AlgebraSpec
    base: BaseWeightSet
    mu_index: int
    cutoff: int  # u <= 0
    coefficients: tuple[tuple[int, ...], ...]  # [string s][depth n]

    @property
    def level(self) -> int:
        return self.base.level

    @property
    def mu(self) -> AffineWeight:
        return self.base.weights[self.mu_index]

    @property
    def depth(self) -> int:
        return -self.cutoff

    def to_json(self) -> dict:
        return {
            "mu": [int(x) for x in self.mu.labels],
            "level": int(self.level),
            "cutoff": int(self.cutoff),
            "strings": [
                {
                    "xi": [int(x) for x in w.labels],
                    "coeffs": list(self.coefficients[s]),
                }
                for s, w in enumerate(self.base.weights)
            ],
        }


def solve_strings(system: BlockSystem) -> StringTable:
    """Exact forward substitution through the grades.

    The grade-zero block E_0 is the same at every depth, so it is
    eliminated once, to det E_0 and adj E_0 in integers; at each depth d
    the column is adj E_0 times the right-hand side made of the
    already-known shallower coefficients, divided by det E_0.  Integrality
    and non-negativity of every component are asserted.
    """
    p = len(system.base)
    depth = system.depth
    det, adj = _adjugate(system.grade_matrix(0))
    if adj is None:
        raise ConsistencyError("grade-zero block is singular; the folded fan is inconsistent")
    # Only the nonzero entries of each row of adj E_0, as (column, entry).
    adj = [[(s, a) for s, a in enumerate(row) if a] for row in adj]
    columns: list[tuple[Fraction, ...]] = []
    for d in range(depth + 1):
        rhs = [Fraction(0)] * p
        if d == 0:
            rhs[system.mu_index] = Fraction(-1)
        for n in range(1, d + 1):
            en = system.grade_matrix(n)
            prev = columns[d - n]
            for j in range(p):
                acc = rhs[j]
                for s in range(p):
                    if en[j][s]:
                        acc -= en[j][s] * prev[s]
                rhs[j] = acc
        columns.append(tuple(sum(a * rhs[s] for s, a in row) / det for row in adj))
    coeffs = []
    for s in range(p):
        row = []
        for d in range(depth + 1):
            value = columns[d][s]
            if value.denominator != 1:
                raise ConsistencyError(
                    f"non-integer string coefficient {value} at (string {s}, depth {d})"
                )
            if value < 0:
                raise ConsistencyError(
                    f"negative string coefficient {value} at (string {s}, depth {d})"
                )
            row.append(int(value))
        coeffs.append(tuple(row))
    table = StringTable(
        system.base.algebra,
        system.base,
        system.mu_index,
        -depth,
        tuple(coeffs),
    )
    if table.coefficients[system.mu_index][0] != 1:
        raise ConsistencyError("highest weight multiplicity is not 1")
    return table


def string_table(spec: AlgebraSpec, mu_labels, level: int, u: int) -> StringTable:
    """Full pipeline: class enumeration, folding, assembly, exact solve.

    `mu_labels` may be any sequence of integers, integral `Fraction`s
    included; a label, level or cutoff that is not an integer raises
    `ConfigurationError`.  The table is memoised per algebra, highest
    weight, level and cutoff, and shared: do not mutate it.
    """
    labels = tuple(_integer_entry(x, "Dynkin label") for x in mu_labels)
    return _string_table(
        spec, labels, _integer_entry(level, "level"), _integer_entry(u, "cutoff")
    )


@algebra_memo
def _string_table(spec: AlgebraSpec, mu_labels: tuple, level: int, u: int, /) -> StringTable:
    base, mu_index = module_class(spec, mu_labels, level)
    folded, _ = build_folded_fans(spec, base, -u)
    system = assemble_system(base, folded, mu_index, u)
    return solve_strings(system)


def module_class(spec: AlgebraSpec, mu_labels, level: int) -> tuple[BaseWeightSet, int]:
    """The class of a highest weight at a level, and its index in that class.

    The one check that classical labels `mu_labels` give a highest weight
    of the level (non-negative labels, zeroth label >= 0), and the one
    lookup of its congruence class.  Returns (base weight set, mu index).
    """
    mu_labels = tuple(_integer_entry(x, "Dynkin label") for x in mu_labels)
    level = _integer_entry(level, "level")
    classes = enumerate_class_weights(spec, level)
    if any(x < 0 for x in mu_labels):
        raise ConfigurationError("highest weight labels must be non-negative")
    label0 = level - sum(c * x for c, x in zip(spec.comarks, mu_labels))
    if label0 < 0:
        raise ConfigurationError(
            f"labels {mu_labels} exceed level {level} (zeroth label {label0})"
        )
    base = classes[classifier_for(spec).id_of(mu_labels)]
    return base, base.index_of(mu_labels)


def weight_multiplicity(spec: AlgebraSpec, table: StringTable, lam: AffineWeight) -> int:
    """Multiplicity of an arbitrary weight of the module, via its string.

    `to_dominant` reduces the weight to its string point, and its integer
    labels look the string up; no `AffineWeight` is built.  A reduction
    still running after `weyl.ASK_AFTER` reflections is priced: if the
    invariant form puts the string point above grade 0, the multiplicity
    is 0 at once.  Otherwise it runs on, and if it outruns the step budget
    the error stands.
    A table of an algebra with another Cartan matrix raises
    `ConfigurationError`.
    """
    algebra, base, _, cutoff, coefficients = table
    if spec is not algebra:
        _check_table_algebra(spec, table)
    spec.check_rank(lam)
    if lam.level != base.level:
        raise ConfigurationError(
            f"weight level {lam.level} does not match module level {base.level}"
        )
    try:
        outcome = to_dominant(spec, lam, give_up=_priced_above_grade0)
    except NonterminationError:
        if _priced_above_grade0(spec, lam):
            return 0
        raise
    grade = outcome.grade
    if grade > 0:
        return 0
    if grade < cutoff:
        raise OutOfWindowError(f"grade {grade} is beyond the computed cutoff {cutoff}")
    # A dominant level-k weight of the module's class is a base weight.
    s = base.positions.get(outcome.labels[1:])
    return 0 if s is None else coefficients[s][-grade]


def _check_table_algebra(spec: AlgebraSpec, table: StringTable):
    # An algebra is its Cartan matrix: equal matrices give equal tables.
    if spec.cartan != table.algebra.cartan:
        raise ConfigurationError(
            f"table of algebra {table.algebra.label} cannot be read with algebra "
            f"{spec.label}: their Cartan matrices differ"
        )


def _priced_above_grade0(spec: AlgebraSpec, lam: AffineWeight) -> bool:
    """Whether the invariant form puts the dominant point of `lam` above grade 0.

    Reduction keeps |lambda-bar|^2 + 2k grade, and no dominant level-k
    weight is longer than `spec.norm_bound(k)`, so the dominant grade is
    at least grade + (|lambda-bar|^2 - bound) / 2k.  All of it is integers
    scaled by form_scale, the bound floored, which keeps the strict
    comparison exact.  Only a reduction that has run
    `weyl.ASK_AFTER` reflections, or outran the step budget, is priced.
    """
    level = lam.level
    norm = 2 * level * spec.form_scale * lam.grade + spec.form_norm(lam.labels)
    return norm > spec.norm_bound(level)


def character(spec: AlgebraSpec, table: StringTable, window) -> list:
    """All (weight, multiplicity) pairs with grades inside the window.

    `window` is either an int depth d >= 0 (grades 0..-d) or a pair of
    integer grades <= 0 in either order; anything else raises
    `ConfigurationError`.  Weights are found by walking the ordinary orbit
    of each base weight once down to the window floor and placing every
    orbit point at each depth of its string; each weight reduces to
    exactly one string point, so nothing is double counted.  A string
    whose first non-zero depth lies below the window is not walked.  The
    walk keeps integer labels, each orbit point's classical labels sliced
    once; one `AffineWeight` is built per weight returned, straight from
    those int labels, with no normalising.  Pairs come by grade
    descending, then by classical labels ascending.  A table of an algebra
    with another Cartan matrix raises `ConfigurationError`.
    """
    if spec is not table.algebra:
        _check_table_algebra(spec, table)
    top, bottom = _normalize_window(window)
    if bottom < table.cutoff:
        raise OutOfWindowError(
            f"window floor {bottom} is beyond the computed cutoff {table.cutoff}"
        )
    level = table.level
    # One dict per grade of the window, top grade first, keyed by classical
    # labels: sorting each dict's keys gives the order of the result.
    rows: list[dict] = [{} for _ in range(top - bottom + 1)]
    for xi, coeffs in zip(table.base.weights, table.coefficients):
        # The orbit of (xi, -d) is the orbit of (xi, 0) moved down by d, and
        # the string vanishes above its first non-zero depth `head`.
        head = next((d for d, mult in enumerate(coeffs) if mult), len(coeffs))
        floor = bottom + head
        if floor > 0:
            continue  # the whole string lies below the window
        for _, _, (labels, grade) in descending_orbit(spec, spec.affine_labels(xi), 0, floor):
            classical = labels[1:]
            for d in range(max(0, grade - top), grade - bottom + 1):
                if coeffs[d]:
                    rows[top - grade + d][classical] = coeffs[d]
    weight = AffineWeight._of_ints
    return [
        (weight(labels, level, top - i), row[labels])
        for i, row in enumerate(rows)
        for labels in sorted(row)
    ]


def _normalize_window(window):
    if isinstance(window, int):
        if window < 0:
            raise ConfigurationError("window depth must be >= 0")
        return 0, -window
    try:
        top, bottom = window
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"window {window!r} is neither an int depth nor a pair of grades"
        ) from None
    top = _integer_entry(top, "window grade")
    bottom = _integer_entry(bottom, "window grade")
    if top < bottom:
        top, bottom = bottom, top
    if top > 0:
        raise ConfigurationError("window grades must be <= 0")
    return top, bottom

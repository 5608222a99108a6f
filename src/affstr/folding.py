"""Folding the fan into the dominant chamber relative to a base weight.

For a dominant level-k base weight xi, every fan vector gamma is shifted
onto xi and the sum is reduced back to the dominant chamber by the
ordinary Weyl action.  The reduction target has the same level, lives in
the same congruence class, and sits at a grade offset n >= 0; the fan
multiplicities accumulate there.  The zero shift is seeded with
multiplicity -1, which turns the multiplicity recursion into a solvable
triangular system (see strings.py).

The affine labels of xi and of each fan vector are taken once and added
as integers; the reduction kernel in weyl.py does the rest.  Reduction
only ever raises the grade, so a folded offset is never below the grade
of its fan vector: the fan built exactly to the cutoff holds every
contributor.  build_folded_fan checks that bound on every fold and raises
ConventionError if it fails.  build_folded_fans is memoised per algebra
instance (algebra.algebra_memo), so a class is folded once however many of
its modules are solved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import AffineWeight, AlgebraSpec, algebra_memo
from .errors import CongruenceError, ConfigurationError, ConventionError
from .fan import Fan, FanVector, build_fan
from .weyl import reduce_labels

__all__ = [
    "BaseWeightSet",
    "FoldedFan",
    "build_folded_fan",
    "build_folded_fans",
    "lemma1_check",
]


@dataclass(frozen=True)
class BaseWeightSet:
    """Ordered dominant level-k grade-0 weights of one congruence class."""

    algebra: AlgebraSpec
    level: int
    weights: tuple[AffineWeight, ...]
    class_id: object = None

    def __post_init__(self):
        if not self.weights:
            raise ConfigurationError("base weight set is empty")
        positions = {}
        for i, w in enumerate(self.weights):
            if w.level != self.level or w.grade != 0:
                raise ConfigurationError("base weights must sit at grade 0 of the level plane")
            if not self.algebra.is_dominant(w):
                raise ConfigurationError(f"base weight {w} is not dominant")
            if w.labels in positions:
                raise ConfigurationError("base weights must be distinct")
            positions[w.labels] = i
        # labels -> position in `weights`; not a dataclass field.
        object.__setattr__(self, "positions", positions)

    def __len__(self):
        return len(self.weights)

    def __iter__(self):
        return iter(self.weights)

    def index_of(self, labels) -> int:
        target = tuple(labels)
        try:
            return self.positions[target]
        except KeyError:
            raise CongruenceError(f"labels {target} not in base weight set") from None


@dataclass
class FoldedFan:
    """Shift multiplicities eta for one base weight.

    `entries` maps (target index, grade offset) to the accumulated
    multiplicity; the seeded zero shift contributes -1 at
    (base_index, 0).  Absent entries are zero.
    """

    base_index: int
    cutoff: int
    entries: dict = field(default_factory=dict)

    def eta(self, target: int, grade: int) -> int:
        return self.entries.get((target, grade), 0)

    def eta_row(self, target: int) -> list[int]:
        return [self.eta(target, d) for d in range(self.cutoff + 1)]

    def to_json(self) -> dict:
        items = sorted(self.entries.items())
        return {
            "base": self.base_index,
            "cutoff": self.cutoff,
            "entries": [
                {"target": s, "grade": n, "eta": v} for (s, n), v in items
            ],
        }


def _fold(spec, xi_labels, xi_grade, gamma_labels, gamma):
    """Dominant affine labels of xi + gamma and their grade offset from xi.

    Walls are kept: ordinary weight multiplicities are Weyl-invariant, so
    wall targets accumulate like any other.
    """
    shifted = [x + y for x, y in zip(xi_labels, gamma_labels)]
    labels, grade, _ = reduce_labels(spec, shifted, xi_grade + gamma.grade)
    offset = grade - xi_grade
    if offset < 0 or offset < gamma.grade:
        raise ConventionError(
            f"folded offset {offset} is below the grade of shift {gamma} or negative"
        )
    return labels, offset


def build_folded_fan(
    spec: AlgebraSpec,
    base: BaseWeightSet,
    base_index: int,
    fan: Fan,
    cutoff: int,
) -> FoldedFan:
    """Fold every fan vector onto base.weights[base_index].

    The fan must reach at least the requested cutoff; offsets beyond the
    cutoff are discarded.  Every kept target must lie in `base`.
    """
    if fan.cutoff < cutoff:
        raise ConfigurationError(
            f"fan cutoff {fan.cutoff} is below the folded cutoff {cutoff}"
        )
    xi = base.weights[base_index]
    xi_labels = spec.affine_labels(xi)
    entries = {(base_index, 0): -1}
    for gamma, gamma_labels in zip(fan.vectors, fan.affine_labels):
        labels, offset = _fold(spec, xi_labels, xi.grade, gamma_labels, gamma)
        if offset > cutoff:
            continue
        try:
            s = base.index_of(labels[1:])
        except CongruenceError:
            raise CongruenceError(
                f"folded target {labels[1:]} at offset {offset} of base {xi} "
                "is outside its congruence class"
            ) from None
        key = (s, offset)
        value = entries.get(key, 0) + gamma.mult
        if value:
            entries[key] = value
        else:
            entries.pop(key, None)
    return FoldedFan(base_index, cutoff, entries)


@algebra_memo
def build_folded_fans(spec: AlgebraSpec, base: BaseWeightSet, cutoff: int, /):
    """Folded fans for every base weight, from the fan built to the cutoff.

    Returns the tuple of folded fans and the fan used.  Memoised per
    algebra, class and cutoff, so every module of a class shares one fold.
    """
    fan = build_fan(spec, cutoff)
    folded = tuple(build_folded_fan(spec, base, j, fan, cutoff) for j in range(len(base)))
    return folded, fan


def lemma1_check(
    spec: AlgebraSpec,
    base: BaseWeightSet,
    base_index: int,
    gamma: FanVector,
    probe_grades,
) -> bool:
    """Folded targets and offsets must not depend on the grade of the probing string point."""
    xi_labels = spec.affine_labels(base.weights[base_index])
    gamma_labels = spec.root_labels(gamma.root)
    folds = set()
    for n in probe_grades:
        if n > 0:
            raise ConfigurationError("probe grades must be <= 0")
        folds.add(_fold(spec, xi_labels, n, gamma_labels, gamma))
    return len(folds) <= 1

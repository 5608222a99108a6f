"""Folding the fan into the dominant chamber relative to a base weight.

For a dominant level-k base weight xi, every fan vector gamma is shifted
onto xi and the sum is reduced back to the dominant chamber by the
ordinary Weyl action.  The reduction target has the same level, lives in
the same congruence class, and sits at a grade offset n >= 0; the fan
multiplicities accumulate there.  The zero shift is seeded with
multiplicity -1, which turns the multiplicity recursion into a solvable
triangular system (see strings.py).

The pair loop is the `fold` of the algebra's generated kernel in
weyl.py: it adds the affine labels of xi, as integers, to those each fan
record carries and reduces them with the kernel's reduction steps.
Reduction only ever raises the grade, so a folded offset is never below
the grade of its fan vector: the fan built exactly to the cutoff holds
every contributor.

Each pair is priced before it is reduced.  The invariant form
(lambda|lambda) = |lambda-bar|^2 + 2k * grade does not change under the
Weyl group, so a fold of xi + gamma onto the target xi_s has offset

    n = grade(gamma) + (|xi-bar + gamma-bar|^2 - |xi_s-bar|^2) / 2k,

where |xi-bar + gamma-bar|^2 = |xi-bar|^2 + 2 (xi|gamma) + |gamma-bar|^2
and (xi|gamma) = sum_m xi_m gamma_m d_m (xi in Dynkin labels, gamma in
simple-root coordinates, d the symmetrizer).  No dominant level-k weight
is longer than the longest vertex k Lambda_i / a_i^vee of the dominant
chamber, so a pair whose offset that bound puts beyond the cutoff is
skipped unreduced, whatever the base weight set holds.  All of it is
integer arithmetic, scaled once per algebra by AlgebraSpec.form_scale;
each fan record carries |gamma-bar|^2, and a BaseWeightSet the norm of
each of its weights, read off the integer Gram matrix AlgebraSpec.form_gram.

The fold is made once, at grade 0, and serves every depth of a string:
the affine Weyl group fixes delta, so the dominant representative of
lambda - n delta is that of lambda moved down by n, with the same word.
Nothing here re-checks that at other grades; the `verify` harness
compares the folded solve with the unfolded recursion at every depth.

The kernel checks every fold it reduces three ways and stops at the
first failure, which build_folded_fan raises: the offset is at least the
grade of the fan vector (ConventionError), the target lies in the class
(CongruenceError), and the offset is the one the invariant form gives
(ConventionError).  Each pair's reduction runs under
weyl.DEFAULT_STEP_LIMIT reflections (NonterminationError past it).
build_folded_fans is memoised per algebra instance (algebra.algebra_memo),
so a class is folded once however many of its modules are solved.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple

from . import weyl
from .algebra import AffineWeight, AlgebraSpec, _integer_entry, algebra_memo
from .errors import CongruenceError, ConfigurationError, ConventionError, NonterminationError
from .fan import Fan, build_fan

__all__ = [
    "BaseWeightSet",
    "FoldedFan",
    "build_folded_fan",
    "build_folded_fans",
]


class BaseWeightSet:
    """Ordered dominant level-k grade-0 weights of one congruence class.

    Sets with equal algebra, level, weights and class id are equal and hash
    alike: build_folded_fans keys its memo by the set.
    """

    def __init__(
        self, algebra: AlgebraSpec, level: int, weights: tuple[AffineWeight, ...], class_id=None
    ):
        if not weights:
            raise ConfigurationError("base weight set is empty")
        positions = {}
        for i, w in enumerate(weights):
            if w.level != level or w.grade != 0:
                raise ConfigurationError("base weights must sit at grade 0 of the level plane")
            if not algebra.is_dominant(w):
                raise ConfigurationError(f"base weight {w} is not dominant")
            if w.labels in positions:
                raise ConfigurationError("base weights must be distinct")
            positions[w.labels] = i
        self.algebra = algebra
        self.level = level
        self.weights = weights
        self.class_id = class_id
        # labels -> position in `weights`, read-only, and form_scale * |xi|^2
        # of each weight, the class norms folds are priced with.
        self.positions = MappingProxyType(positions)
        self.norms = tuple(algebra.form_norm(w.labels) for w in weights)

    def _key(self):
        return self.algebra, self.level, self.weights, self.class_id

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"BaseWeightSet{self._key()!r}"

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


class FoldedFan(NamedTuple):
    """Shift multiplicities eta for one base weight.

    `entries` maps (target index, grade offset) to the accumulated
    multiplicity; the seeded zero shift contributes -1 at
    (base_index, 0).  Absent entries are zero.  A built fold's entries
    are read-only, as its memo shares them with every caller.
    """

    base_index: int
    cutoff: int
    entries: Mapping

    def __repr__(self):
        # read-only entries print as the dict they wrap
        return (f"FoldedFan(base_index={self.base_index}, cutoff={self.cutoff}, "
                f"entries={dict(self.entries)})")

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


def build_folded_fan(
    spec: AlgebraSpec,
    base: BaseWeightSet,
    base_index: int,
    fan: Fan,
    cutoff: int,
) -> FoldedFan:
    """Fold every fan vector onto base.weights[base_index].

    The fan must reach at least the requested cutoff; offsets beyond the
    cutoff are discarded, and a fold the invariant form prices beyond the
    cutoff is not reduced at all.  Every reduced target must lie in `base`.
    The index and the cutoff are integers, 0 <= base_index < len(base) and
    cutoff >= 0; anything else raises ConfigurationError.
    """
    base_index = _integer_entry(base_index, "base index")
    if not 0 <= base_index < len(base):
        raise ConfigurationError(f"base index {base_index} out of range 0..{len(base) - 1}")
    cutoff = _integer_entry(cutoff, "folded cutoff")
    if cutoff < 0:
        raise ConfigurationError(f"folded cutoff {cutoff} is negative")
    if fan.cutoff < cutoff:
        raise ConfigurationError(
            f"fan cutoff {fan.cutoff} is below the folded cutoff {cutoff}"
        )
    xi = base.weights[base_index]
    # Everything scaled by form_scale: 2k, |xi|^2, a bound on the norm of
    # any dominant level-k weight, whether in `base` or not, and
    # 2 (xi|gamma) = sum_m gamma_m * 2 xi_m d_m for gamma in root coordinates.
    two_k = 2 * xi.level * spec.form_scale
    top = spec.norm_bound(xi.level)
    pairing = [2 * x * d for x, d in zip(xi.labels, spec.form_symmetrizer)]
    entries = {(base_index, 0): -1}
    limit = weyl.DEFAULT_STEP_LIMIT
    failure = weyl._kernel(spec).fold(
        spec.affine_labels(xi), pairing, base.norms[base_index], top, two_k, cutoff,
        fan.vectors, base.positions, base.norms, limit, entries,
    )
    if failure is None:
        return FoldedFan(base_index, cutoff, MappingProxyType(entries))
    kind, root, grade, labels, offset = failure
    if kind == 0:
        raise NonterminationError(f"reduction exceeded {limit} steps")
    if kind == 1:
        raise ConventionError(
            f"folded offset {offset} is below the grade of shift {root} at "
            f"grade {grade} or negative"
        )
    if kind == 2:
        raise CongruenceError(
            f"folded target {labels} at offset {offset} of base {xi} "
            "is outside its congruence class"
        )
    raise ConventionError(
        f"fold of shift {root} at grade {grade} onto base {xi} reaches target "
        f"{base.positions[labels]} at offset {offset}, which the invariant form does not give"
    )


@algebra_memo
def build_folded_fans(spec: AlgebraSpec, base: BaseWeightSet, cutoff: int, /):
    """Folded fans for every base weight, from the fan built to the cutoff.

    Returns the tuple of folded fans and the fan used.  Memoised per
    algebra, class and cutoff, so every module of a class shares one fold.
    """
    fan = build_fan(spec, cutoff)
    folded = tuple(build_folded_fan(spec, base, j, fan, cutoff) for j in range(len(base)))
    return folded, fan


"""The fan of recursion shifts: signed singular weights of the trivial module.

Each fan vector is rho - w(rho) for a non-identity affine Weyl element w,
stored as integer simple-root coordinates with a non-negative grade and
multiplicity -det(w).  Enumeration is a breadth-first walk over the orbit
of rho, kept as integer affine labels, along strictly descending
reflections (weyl.descending_orbit).  Each step s_i with label l adds l
to the i-th root coordinate of the shift, or for s_0 subtracts l times
the marks and adds l to the grade, so no basis change is needed.  Descent
never raises the grade, so pruning below the cutoff loses nothing within
the window.  build_fan is memoised per algebra instance and cutoff
(algebra.algebra_memo); a cutoff is served by its own fan, never as a
prefix of a longer one.

verify_denominator is the independent completeness gate: it expands the
truncated product over the positive affine roots and compares it term by
term with the fan.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .algebra import AlgebraSpec, algebra_memo
from .errors import ConfigurationError, ResourceLimitError
from .weyl import descending_orbit

__all__ = ["Fan", "FanVector", "DenominatorReport", "build_fan", "verify_denominator"]

DEFAULT_NODE_LIMIT = 2_000_000


@dataclass(frozen=True)
class FanVector:
    """A signed shift: simple-root coordinates, grade >= 0, multiplicity."""

    root: tuple[int, ...]
    grade: int
    mult: int

    def __post_init__(self):
        object.__setattr__(self, "root", tuple(int(c) for c in self.root))
        object.__setattr__(self, "grade", int(self.grade))
        object.__setattr__(self, "mult", int(self.mult))


class Fan:
    """All fan vectors of one algebra up to a grade cutoff, sorted.

    `affine_labels` holds the affine labels of each vector's classical
    part, in the same order, for the integer folding and oracle walks.
    """

    def __init__(self, algebra: AlgebraSpec, cutoff: int, vectors):
        self.algebra = algebra
        self.cutoff = int(cutoff)
        self.vectors = tuple(sorted(vectors, key=lambda v: (v.grade, v.root)))
        if len({(v.root, v.grade) for v in self.vectors}) != len(self.vectors):
            raise ConfigurationError("duplicate fan vectors")
        self.affine_labels = tuple(algebra.root_labels(v.root) for v in self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def __len__(self):
        return len(self.vectors)

    def __repr__(self):
        return f"Fan({self.algebra.label}, cutoff={self.cutoff}, {len(self)} vectors)"

    def to_json(self) -> list[dict]:
        return [
            {"root": list(v.root), "grade": v.grade, "mult": v.mult}
            for v in self.vectors
        ]


@algebra_memo
def build_fan(
    spec: AlgebraSpec, cutoff: int, /, *, max_nodes: int = DEFAULT_NODE_LIMIT
) -> Fan:
    """Enumerate the fan exhaustively up to the grade cutoff.

    Memoised per algebra and cutoff; `max_nodes` is not part of the key.
    """
    if cutoff < 0:
        raise ConfigurationError("fan cutoff must be non-negative")
    # orbit point of rho -> (root coordinates of the shift, word length)
    shifts = {}
    vectors = []
    for parent, i, node in descending_orbit(spec, (1,) * (spec.rank + 1), 0, -cutoff):
        if parent is None:
            shifts[node] = ((0,) * spec.rank, 0)
            continue
        root, length = shifts[parent]
        li = parent[0][i]
        if i:
            root = root[: i - 1] + (root[i - 1] + li,) + root[i:]
        else:
            root = tuple(c - li * m for c, m in zip(root, spec.marks))
        shifts[node] = (root, length + 1)
        if len(shifts) > max_nodes:
            raise ResourceLimitError(
                f"fan orbit exceeded {max_nodes} nodes at cutoff {cutoff}"
            )
        # mult = -det(w), w having length + 1 letters
        vectors.append(FanVector(root, -node[1], 1 if length % 2 == 0 else -1))
    return Fan(spec, cutoff, vectors)


# -- denominator identity -------------------------------------------------


@dataclass(frozen=True)
class DenominatorReport:
    """Outcome of the truncated denominator check; falsy iff a term differs."""

    ok: bool
    mismatch: tuple | None = None
    checked_terms: int = 0

    def __bool__(self):
        return self.ok


def verify_denominator(fan: Fan) -> DenominatorReport:
    """Expand 1 - prod(1 - e^{-alpha})^{mult} to the cutoff and compare.

    The expansion never touches the Weyl group, so it is an independent
    oracle for both completeness and signs of the fan.
    """
    spec = fan.algebra
    cutoff = fan.cutoff
    series = _denominator_series(spec, cutoff)
    # 1 - R, truncated: negate and cancel the constant term.
    expected = {key: -c for key, c in series.items() if c}
    zero = ((0,) * spec.rank, 0)
    expected[zero] = expected.get(zero, 0) + 1
    expected = {k: v for k, v in expected.items() if v}
    got = {(v.root, v.grade): v.mult for v in fan}
    keys = sorted(set(expected) | set(got), key=lambda k: (k[1], k[0]))
    for key in keys:
        e = expected.get(key, 0)
        g = got.get(key, 0)
        if e != g:
            return DenominatorReport(False, (key[0], key[1], e, g), len(keys))
    return DenominatorReport(True, None, len(keys))


def _denominator_series(spec: AlgebraSpec, cutoff: int) -> dict:
    """Coefficients of prod over positive affine roots, by grade <= cutoff.

    Monomial keys are (simple-root coordinates, grade) of e^{-(root + grade*delta)}.
    Imaginary roots n*delta enter with multiplicity rank.
    """
    factors = []
    for root in spec.positive_roots:
        factors.append((root, 0, 1))
    for n in range(1, cutoff + 1):
        for root in spec.positive_roots:
            factors.append((root, n, 1))
            factors.append((tuple(-c for c in root), n, 1))
        if spec.rank:
            factors.append(((0,) * spec.rank, n, spec.rank))
    poly = {((0,) * spec.rank, 0): 1}
    for root, grade, mult in factors:
        poly = _multiply_factor(poly, root, grade, mult, cutoff)
    return poly


def _multiply_factor(poly, root, grade, mult, cutoff):
    """Multiply by (1 - x)^mult where x is the monomial (root, grade)."""
    out: dict = {}
    for (base_root, base_grade), coeff in poly.items():
        for j in range(mult + 1):
            new_grade = base_grade + j * grade
            if new_grade > cutoff:
                break
            term = coeff * comb(mult, j) * (-1 if j % 2 else 1)
            key = (
                tuple(b + j * r for b, r in zip(base_root, root)),
                new_grade,
            )
            new = out.get(key, 0) + term
            if new:
                out[key] = new
            elif key in out:
                del out[key]
    return out

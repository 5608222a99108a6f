"""Cartan data and exact affine weight arithmetic.

An algebra is its classical Cartan matrix A_ij = <alpha_i^vee, alpha_j>
(Kac's convention).  `AlgebraSpec` eliminates A once: A is of irreducible
finite type exactly when A^-1 exists with every entry positive (Kac, Cor.
4.3), and the symmetrizer, det A and the inverse are read off that one
elimination.

A weight is stored as (classical Dynkin labels; level; grade), each
component an exact rational: an `int` when integral, a `Fraction`
otherwise.  `AffineWeight` normalises them once, at construction, and
only those that are not already ints.  The zeroth label is never stored:
it is recovered from the level as lambda_0 = level - sum(comark_i *
label_i).  Simple-root coordinates (`to_root_basis`, the inverse Cartan
matrix applied exactly) exist only for display.

No floating point is used anywhere.  `_gauss_jordan` is the package's one
exact elimination, without row exchanges: it gives the inverse and the
determinant of the Cartan matrix, and the per-depth solve of the string
functions.  The invariant form is kept in integers too: `form_gram`, the
Gram matrix of the fundamental weights scaled by `form_scale`, gives the
norms that folds and far reads are priced with.

Everything derived from an algebra (kernel, classifier, congruence
classes, fans, folded fans, string tables) is memoised per instance by
`algebra_memo`, the one cache policy of the package.  `preset` and
`load_algebra` serve one registered instance per label and Cartan matrix,
which keeps the algebra and its memo for the life of the process.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from operator import mul

from .errors import ConfigurationError, ResourceLimitError

__all__ = [
    "AffineWeight",
    "AlgebraSpec",
    "algebra_memo",
    "load_algebra",
    "preset",
    "to_root_basis",
]

_ROOT_CLOSURE_LIMIT = 100_000


def _norm(value):
    # Integral values are kept as machine ints: they hash and compare the
    # same as the equal Fraction but arithmetic on them is much faster.
    # A bool becomes a plain int, so every stored component has type int
    # or Fraction and a type test tells integral from not.
    if type(value) is int:
        return value
    f = Fraction(value)
    return f.numerator if f.denominator == 1 else f


def _integer_entry(x, what: str = "Cartan entry") -> int:
    # int() alone would truncate -1.5 to -1 and compute with another value.
    try:
        if x == int(x):
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigurationError(f"{what} {x!r} is not an integer")


_INT = frozenset((int,))


class AffineWeight:
    """A weight (classical part; level; grade) in the Dynkin-label basis.

    Components are exact rationals, stored as int when integral.  Labels
    that are all ints already, the common case, are kept as they are.
    Instances are immutable and compare and hash by (labels, level, grade).
    """

    __slots__ = ("labels", "level", "grade")

    def __init__(self, labels, level, grade):
        labels = tuple(labels)
        if not _INT.issuperset(map(type, labels)):
            labels = tuple(map(_norm, labels))
        _set_labels(self, labels)
        _set_level(self, level if type(level) is int else _norm(level))
        _set_grade(self, grade if type(grade) is int else _norm(grade))

    @classmethod
    def _of_ints(cls, labels: tuple, level: int, grade: int) -> "AffineWeight":
        """A weight from a tuple of int labels and an int level and grade.

        Skips the normalising of `__init__`; the caller guarantees the types.
        """
        w = _new(cls)
        _set_labels(w, labels)
        _set_level(w, level)
        _set_grade(w, grade)
        return w

    def __add__(self, other: "AffineWeight") -> "AffineWeight":
        return AffineWeight(
            tuple(a + b for a, b in zip(self.labels, other.labels)),
            self.level + other.level,
            self.grade + other.grade,
        )

    def __sub__(self, other: "AffineWeight") -> "AffineWeight":
        return AffineWeight(
            tuple(a - b for a, b in zip(self.labels, other.labels)),
            self.level - other.level,
            self.grade - other.grade,
        )

    def shift_grade(self, dn) -> "AffineWeight":
        return AffineWeight(self.labels, self.level, self.grade + _norm(dn))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.labels, self.level, self.grade) == (other.labels, other.level, other.grade)
        return NotImplemented

    def __hash__(self):
        return hash((self.labels, self.level, self.grade))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an AffineWeight")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an AffineWeight")

    def __reduce__(self):
        return self.__class__, (self.labels, self.level, self.grade)

    def __repr__(self):
        lab = ",".join(str(x) for x in self.labels)
        return f"({lab};{self.level};{self.grade})"


# The slots' own setters: the class refuses plain assignment.
_set_labels = AffineWeight.labels.__set__
_set_level = AffineWeight.level.__set__
_set_grade = AffineWeight.grade.__set__
_new = object.__new__


class AlgebraSpec:
    """Classical Cartan data with its untwisted affine extension.

    The Cartan matrix is the whole input.  Its convention is Kac's,
    A_ij = <alpha_i^vee, alpha_j>, and the invariant form is
    (alpha_i|alpha_j) = d_i A_ij.  A matrix is accepted when it is of
    irreducible finite type, that is when A^-1 exists and has only
    positive entries.  The symmetrizer d is read off A^-1, up to the one
    scale that gives the highest root |theta|^2 = 2 (d_i = 1 on long
    roots).  Derived data (the inverse Cartan matrix and its determinant
    `cartan_det`, symmetrizer, positive roots, highest root, marks,
    comarks) is computed once at construction;
    instances are immutable afterwards and safe to share between threads.
    The only mutable part is the memo of `algebra_memo`, which fills on use.
    `preset` and `load_algebra` return the registered instance; calling the
    constructor gives an unregistered one with an empty memo.
    """

    def __init__(self, label: str, cartan):
        self._memo = {}
        self.label = str(label)
        self.cartan = tuple(tuple(_integer_entry(x) for x in row) for row in cartan)
        self.rank = len(self.cartan)
        self._validate_cartan()
        # Kac, Cor. 4.3: a GCM is of irreducible finite type exactly when A^-1
        # exists and every entry of it is positive.
        identity = [[int(i == j) for j in range(self.rank)] for i in range(self.rank)]
        det, inverse_columns = _gauss_jordan(self.cartan, identity)
        if inverse_columns is None or any(x <= 0 for c in inverse_columns for x in c):
            raise ConfigurationError(
                "Cartan matrix is not of irreducible finite type: A^-1 must exist with "
                "every entry positive (D A positive definite and A indecomposable)"
            )
        self.cartan_det = int(det)
        self.cartan_inverse = inverse = tuple(zip(*inverse_columns))
        # D A is symmetric exactly when A^-1 D^-1 is, so d_j is (A^-1)_0j /
        # (A^-1)_j0 up to scale.  |alpha_i|^2 = 2 d_i, and theta is a long
        # root: dividing by the largest d_i gives |theta|^2 = 2.
        ratios = [inverse[0][j] / inverse[j][0] for j in range(self.rank)]
        longest = max(ratios)
        self.symmetrizer = tuple(x / longest for x in ratios)
        self.positive_roots = self._close_roots()
        self.highest_root = self.positive_roots[-1]
        self.marks = tuple(int(c) for c in self.highest_root)
        comarks = tuple(a * d for a, d in zip(self.marks, self.symmetrizer))
        if any(c.denominator != 1 or c <= 0 for c in comarks):
            raise ConfigurationError("comarks are not positive integers")
        self.comarks = tuple(int(c) for c in comarks)
        self.dual_coxeter = 1 + sum(self.comarks)
        # Dynkin labels of the highest root, exact integers.
        self.theta_labels = tuple(
            sum(self.cartan[i][j] * self.marks[j] for j in range(self.rank))
            for i in range(self.rank)
        )
        # Affine Cartan columns: column i lists the nonzero affine labels
        # (j, <alpha_i, alpha_j^vee>) of the simple root alpha_i, j = 0..rank.
        columns = [(2,) + tuple(-t for t in self.theta_labels)]
        for i in range(self.rank):
            column = tuple(row[i] for row in self.cartan)
            columns.append((-sum(c * a for c, a in zip(self.comarks, column)),) + column)
        self.affine_columns = tuple(
            tuple((j, a) for j, a in enumerate(column) if a) for column in columns
        )
        # The invariant form in integers: form_scale * (lambda|mu) is integral
        # on the weight lattice (the least common denominator of the Gram
        # matrix (Lambda_i|Lambda_j) = d_i (A^-1)_ij of the fundamental
        # weights), and (Lambda_m|alpha_n) is d_m when m == n and 0
        # otherwise, so form_scale * d_m is integral too.
        gram = [[d * x for x in row] for d, row in zip(self.symmetrizer, self.cartan_inverse)]
        self.form_scale = math.lcm(*(g.denominator for row in gram for g in row))
        self.form_gram = tuple(tuple(int(self.form_scale * g) for g in row) for row in gram)
        self.form_symmetrizer = tuple(int(self.form_scale * d) for d in self.symmetrizer)
        # form_scale * |lambda|^2 of any dominant level-1 weight is at most
        # this: the dominant level-1 weights fill the simplex spanned by 0 and
        # the Lambda_i / a_i^vee, and a convex function peaks at a vertex.
        self.level1_norm_bound = max(
            Fraction(g[i], c * c) for i, (g, c) in enumerate(zip(self.form_gram, self.comarks))
        )

    def _validate_cartan(self):
        a = self.cartan
        if not a:
            raise ConfigurationError("Cartan matrix is empty; rank must be >= 1")
        for i in range(self.rank):
            if len(a[i]) != self.rank:
                raise ConfigurationError("Cartan matrix must be square")
            if a[i][i] != 2:
                raise ConfigurationError("Cartan diagonal entries must equal 2")
            for j in range(self.rank):
                if i != j:
                    if a[i][j] > 0:
                        raise ConfigurationError("off-diagonal Cartan entries must be <= 0")
                    if (a[i][j] == 0) != (a[j][i] == 0):
                        raise ConfigurationError("Cartan zero pattern must be symmetric")

    def _close_roots(self) -> tuple[tuple[int, ...], ...]:
        """All positive roots in simple-root coordinates, via reflection closure."""
        rank = self.rank
        seen: set[tuple[int, ...]] = set()
        frontier = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
        seen.update(frontier)
        while frontier:
            nxt = []
            for c in frontier:
                for i in range(rank):
                    pairing = sum(self.cartan[i][j] * c[j] for j in range(rank))
                    image = tuple(
                        c[j] - (pairing if j == i else 0) for j in range(rank)
                    )
                    if image not in seen:
                        seen.add(image)
                        nxt.append(image)
            if len(seen) > _ROOT_CLOSURE_LIMIT:
                raise ResourceLimitError(
                    f"root closure reached {len(seen)} roots, past its limit of "
                    f"{_ROOT_CLOSURE_LIMIT}"
                )
            frontier = nxt
        pos = [c for c in seen if all(x >= 0 for x in c)]
        pos.sort(key=lambda c: (sum(c), c))
        return tuple(pos)

    # -- affine labels ---------------------------------------------------

    def check_rank(self, w: AffineWeight):
        if len(w.labels) != self.rank:
            raise ConfigurationError(
                f"weight has {len(w.labels)} labels but algebra {self.label} has rank {self.rank}"
            )

    def label0(self, w: AffineWeight) -> int | Fraction:
        """lambda_0 = level - sum(comark_i * label_i): an int for an integral weight."""
        self.check_rank(w)
        return w.level - sum(map(mul, self.comarks, w.labels))

    def affine_labels(self, w: AffineWeight) -> tuple[int | Fraction, ...]:
        """(lambda_0, lambda_1, ..., lambda_r): ints for an integral weight."""
        return (self.label0(w),) + w.labels

    def form_norm(self, labels) -> int:
        """form_scale * |lambda-bar|^2 of integer Dynkin labels, an int."""
        return sum(x * sum(map(mul, row, labels)) for x, row in zip(labels, self.form_gram))

    def is_dominant(self, w: AffineWeight) -> bool:
        return all(x >= 0 for x in self.affine_labels(w))

    def weight(self, labels, level, grade=0) -> AffineWeight:
        w = AffineWeight(labels, level, grade)
        self.check_rank(w)
        return w

    def __repr__(self):
        return f"AlgebraSpec({self.label!r}, rank={self.rank})"


def algebra_memo(fn):
    """Memoise fn(spec, *key) per algebra instance.

    Values are stored on the spec itself, so they live exactly as long as
    the spec does: a registered algebra's for the whole process, while a
    new `AlgebraSpec` starts empty.  (A mapping
    keyed weakly by the spec would never drop an entry: the values refer
    back to their spec.)  Within one spec the key is the other positional
    arguments, compared exactly: callers normalise them first (int tuples,
    not lists), and fn declares them positional-only so that a key passed
    by keyword fails instead of missing.  The wrapper takes no keywords,
    so nothing outside the key can change a value.  Only returned values
    are stored; threads racing on one key all get the first value stored.
    A memoised value is shared by every caller that asks for it, so no
    caller may mutate it.
    """

    @functools.wraps(fn)
    def memoised(spec, *key):
        try:
            return spec._memo[fn, key]
        except KeyError:
            return spec._memo.setdefault((fn, key), fn(spec, *key))

    return memoised


def to_root_basis(spec: AlgebraSpec, w: AffineWeight) -> tuple[Fraction, ...]:
    """Classical part in simple-root coordinates (display basis)."""
    spec.check_rank(w)
    return tuple(sum(map(mul, row, w.labels)) for row in spec.cartan_inverse)


# -- exact linear algebra on small matrices ------------------------------


def _gauss_jordan(matrix, columns=()):
    """Exact Gauss-Jordan elimination of a square matrix A, without row exchanges.

    Returns (det A, the columns A^-1 c for each column c of `columns`),
    or (0, None) when a pivot is zero.  Entries may be ints or Fractions.
    Both callers' matrices, a finite-type Cartan matrix and the solve's
    grade-0 block, have no vanishing leading minor, so for them a zero
    pivot means A is singular.
    """
    n = len(matrix)
    m = [[Fraction(x) for x in row] + [c[i] for c in columns] for i, row in enumerate(matrix)]
    det = Fraction(1)
    for col in range(n):
        pivot = m[col][col]
        if not pivot:
            return Fraction(0), None
        det *= pivot
        inv = 1 / pivot
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det, tuple(tuple(m[i][n + k] for i in range(n)) for k in range(len(columns)))


# -- presets and config files --------------------------------------------


_registry: dict[tuple, AlgebraSpec] = {}
_PRESET_NAMES = ("A1", "A2", "A3")


def _registered(label, cartan) -> AlgebraSpec:
    # One instance per label and integer Cartan matrix, normalised as the
    # constructor does; threads racing on a first load get the first stored.
    key = (str(label), tuple(tuple(_integer_entry(x) for x in row) for row in cartan))
    return _registry.get(key) or _registry.setdefault(key, AlgebraSpec(*key))


def preset(name: str) -> AlgebraSpec:
    """The registered A_r algebra of a preset name: A1, A2 or A3."""
    if name not in _PRESET_NAMES:
        raise ConfigurationError(f"unknown algebra preset {name!r}")
    r = range(int(name[1]))  # A_r: 2 on the diagonal, -1 beside it
    return _registered(name, [[2 * (i == j) - (abs(i - j) == 1) for j in r] for i in r])


def load_algebra(source: str) -> AlgebraSpec:
    """The registered algebra of a preset name or a JSON config file path.

    Config schema: {"label": "A2", "cartan": [[2,-1],[-1,2]]}.  The
    symmetrizer is derived from the Cartan matrix, so a config that names
    one is refused rather than read.  Equal label and matrix, equal
    instance: a config twice, or a preset's label and matrix, give one.
    """
    if source in _PRESET_NAMES:
        return preset(source)
    try:
        with open(source) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read algebra config {source!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"invalid JSON in {source!r}: {exc}") from exc
    if not isinstance(data, dict) or "cartan" not in data:
        raise ConfigurationError(f"algebra config {source!r} must define 'cartan'")
    if "symmetrizer" in data:
        raise ConfigurationError(
            f"algebra config {source!r} names 'symmetrizer'; the symmetrizer is "
            "derived from the Cartan matrix, so remove the key"
        )
    try:
        return _registered(data.get("label", source), data["cartan"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"bad algebra config {source!r}: {exc}") from exc

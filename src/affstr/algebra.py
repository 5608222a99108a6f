"""Cartan data and exact affine weights.

An algebra is its classical Cartan matrix A_ij = <alpha_i^vee, alpha_j>
(Kac's convention).  `AlgebraSpec` eliminates A once, in integers, to
det A and adj A = det A * A^-1: A is of irreducible finite type exactly
when A^-1 exists with every entry positive (Kac, Cor. 4.3), that is when
det A != 0 and every entry of adj A has its sign, and the symmetrizer
and the integer invariant form are read off that one elimination.

A weight is stored as (classical Dynkin labels; level; grade), each
component an `int`: every weight of an integrable module lies in the
integral weight lattice.  `AffineWeight` converts a component that is not
already an int once, at construction, and refuses one that is not
integral.  The zeroth label is never stored:
it is recovered from the level as lambda_0 = level - sum(comark_i *
label_i).  Simple-root coordinates (`to_root_basis`, adj A / det A
applied exactly, in `Fraction`s) exist only for display.

No floating point is used anywhere.  `_adjugate` is the package's one
exact elimination: fraction-free (Bareiss), without row exchanges, it
gives det A and adj A of the Cartan matrix for its one caller,
`AlgebraSpec`; the string solve eliminates nothing.  The invariant form
is kept in integers too: `form_gram`, the Gram matrix of the fundamental
weights scaled by `form_scale`, gives the norms that folds and far reads
are priced with.  `Fraction` is left only in the public `symmetrizer` and
`to_root_basis`.

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

    Components are stored as ints.  Labels that are all ints already, the
    common case, are kept as they are; any other component goes through
    `_integer_entry`, so an integral `Fraction`, float or bool becomes an
    int and a non-integral one raises `ConfigurationError`.  Instances are
    immutable and compare and hash by (labels, level, grade).
    """

    __slots__ = ("labels", "level", "grade")

    def __init__(self, labels, level, grade):
        labels = tuple(labels)
        if not _INT.issuperset(map(type, labels)):
            labels = tuple(_integer_entry(x, "Dynkin label") for x in labels)
        _set_labels(self, labels)
        _set_level(self, level if type(level) is int else _integer_entry(level, "level"))
        _set_grade(self, grade if type(grade) is int else _integer_entry(grade, "grade"))

    def shift_grade(self, dn) -> "AffineWeight":
        return AffineWeight(self.labels, self.level, self.grade + _integer_entry(dn, "grade"))

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
    positive entries.  The symmetrizer d is read off adj A, up to the one
    scale that gives the highest root |theta|^2 = 2 (d_i = 1 on long
    roots), as `Fraction`s.  Derived data (the determinant `cartan_det`
    and the adjugate `cartan_adjugate`, a tuple of int rows with A^-1 =
    adj A / det A; symmetrizer, integer invariant form, positive roots,
    highest root, marks, comarks) is computed once at construction;
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
        # exists and every entry of it is positive, that is when det A != 0
        # and every entry of adj A = det A * A^-1 has the sign of det A.
        det, adj = _adjugate(self.cartan)
        if adj is None or any(x * det <= 0 for row in adj for x in row):
            raise ConfigurationError(
                "Cartan matrix is not of irreducible finite type: A^-1 must exist with "
                "every entry positive (D A positive definite and A indecomposable)"
            )
        self.cartan_det = det
        self.cartan_adjugate = adj
        # D A is symmetric exactly when A^-1 D^-1 is, so d_j is adj_0j / adj_j0
        # up to scale: over the common denominator of those ratios, the ints
        # r_j.  |alpha_i|^2 = 2 d_i, and theta is a long root: dividing by the
        # largest r_j gives |theta|^2 = 2.
        common = math.lcm(*(row[0] for row in adj))
        ratios = [adj[0][j] * (common // adj[j][0]) for j in range(self.rank)]
        longest = max(ratios)
        self.symmetrizer = tuple(Fraction(r, longest) for r in ratios)
        self.positive_roots = self._close_roots()
        self.highest_root = self.positive_roots[-1]
        self.marks = tuple(int(c) for c in self.highest_root)
        if any(a * r % longest for a, r in zip(self.marks, ratios)):
            raise ConfigurationError("comarks are not positive integers")
        self.comarks = tuple(a * r // longest for a, r in zip(self.marks, ratios))
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
        # matrix (Lambda_i|Lambda_j) = d_i adj_ij / det A = r_i adj_ij /
        # (longest det A) of the fundamental weights), and (Lambda_m|alpha_n)
        # is d_m when m == n and 0 otherwise, so form_scale * d_m is integral too.
        gram = [[r * x for x in row] for r, row in zip(ratios, adj)]
        divisor = math.gcd(longest * det, *(g for row in gram for g in row))
        self.form_scale = longest * det // divisor
        self.form_gram = tuple(tuple(g // divisor for g in row) for row in gram)
        self.form_symmetrizer = tuple(det * r // divisor for r in ratios)

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
        """All positive roots in simple-root coordinates, walked up from the simple roots.

        A positive root beta with p = <beta, alpha_i^vee> < 0 is not alpha_i,
        so s_i beta = beta - p alpha_i is a positive root -p higher; and every
        positive root above height 1 is such an image (it has a reflection
        that lowers it to a positive root).  Each root carries its pairings
        <beta, alpha_k^vee>, and the image's are p_k - p A_ki, read off
        column i of A.
        """
        rank = self.rank
        columns = tuple(zip(*self.cartan))
        queue = [(tuple(int(j == i) for j in range(rank)), columns[i]) for i in range(rank)]
        seen = {root for root, _ in queue}
        for root, pairings in queue:
            for i, p in enumerate(pairings):
                if p >= 0:
                    continue
                image = root[:i] + (root[i] - p,) + root[i + 1:]
                if image in seen:
                    continue
                seen.add(image)
                if len(seen) > _ROOT_CLOSURE_LIMIT:
                    raise ResourceLimitError(
                        f"root closure reached {len(seen)} roots, past its limit of "
                        f"{_ROOT_CLOSURE_LIMIT}"
                    )
                queue.append((image, tuple(q - p * a for q, a in zip(pairings, columns[i]))))
        return tuple(sorted(seen, key=lambda c: (sum(c), c)))

    # -- affine labels ---------------------------------------------------

    def check_rank(self, w: AffineWeight):
        if len(w.labels) != self.rank:
            raise ConfigurationError(
                f"weight has {len(w.labels)} labels but algebra {self.label} has rank {self.rank}"
            )

    def label0(self, w: AffineWeight) -> int:
        """lambda_0 = level - sum(comark_i * label_i)."""
        self.check_rank(w)
        return w.level - sum(map(mul, self.comarks, w.labels))

    def affine_labels(self, w: AffineWeight) -> tuple[int, ...]:
        """(lambda_0, lambda_1, ..., lambda_r)."""
        return (self.label0(w),) + w.labels

    def form_norm(self, labels) -> int:
        """form_scale * |lambda-bar|^2 of integer Dynkin labels, an int."""
        return sum(x * sum(map(mul, row, labels)) for x, row in zip(labels, self.form_gram))

    def norm_bound(self, level: int) -> int:
        """An int bound on form_scale * |lambda|^2 of every dominant level-k weight.

        The dominant level-k weights fill the simplex spanned by 0 and the
        k Lambda_i / a_i^vee, and a convex function peaks at a vertex.  The
        bound is floored: an integer exceeds the bound iff it exceeds its floor.
        """
        square, gram = level * level, self.form_gram
        return max(square * gram[i][i] // (c * c) for i, c in enumerate(self.comarks))

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
    det = spec.cartan_det
    return tuple(Fraction(sum(map(mul, row, w.labels)), det) for row in spec.cartan_adjugate)


# -- exact linear algebra on small matrices ------------------------------


def _adjugate(matrix):
    """Fraction-free Gauss-Jordan elimination of a square integer matrix A.

    Returns (det A, adj A), adj A = det A * A^-1 as a tuple of integer rows,
    or (0, None) when a pivot is zero.  Bareiss's elimination (Math. Comp.
    22, 1968) on [A | I], without row exchanges: every entry it forms is a
    minor of [A | I], so each division by the previous pivot is exact, and
    at the end the left half is det A * I and the right half adj A.  Its
    one caller, `AlgebraSpec`, passes a Cartan matrix: one of finite type
    has no vanishing leading minor, so a zero pivot refuses the matrix.
    """
    n = len(matrix)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    previous = 1
    for k in range(n):
        pivot_row = m[k]
        pivot = pivot_row[k]
        if not pivot:
            return 0, None
        for i in range(n):
            if i != k:
                row = m[i]
                f = row[k]
                m[i] = [(pivot * a - f * b) // previous for a, b in zip(row, pivot_row)]
        previous = pivot
    return previous, tuple(tuple(row[n:]) for row in m)


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
        with open(source, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read algebra config {source!r}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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

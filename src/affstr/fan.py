"""The fan of recursion shifts: signed singular weights of the trivial module.

Each fan vector gamma = rho - w(rho), for a non-identity affine Weyl
element w, is one immutable FanVector record, made only by build_fan:
integer simple-root coordinates, a non-negative grade, the multiplicity
-det(w), gamma's affine labels and its norm.  Enumeration is a
breadth-first walk over the orbit of rho, kept as integer affine labels,
along strictly descending reflections (weyl.descending_orbit).  Each step
s_i with label l adds l to the i-th root coordinate of the shift, or for
s_0 subtracts l times the marks and adds l to the grade, so no basis
change is needed.  The labels of gamma are rho's (all 1) minus those of
the orbit point w(rho).  Its norm needs no matrix product: w(rho) has the
norm of rho, so |gamma|^2 = 2 (rho|gamma) = 2 sum_m gamma_m d_m +
2 h^vee grade.  Descent never raises the grade, so pruning below the
cutoff loses nothing within the window.  build_fan is memoised per
algebra instance and cutoff (algebra.algebra_memo); a cutoff is served by
its own fan, never as a prefix of a longer one.

verify_denominator is the independent completeness gate: it expands the
truncated product over the positive affine roots and compares it term by
term with the fan.  Jacobi's triple product regroups that product as one
sparse theta series per positive classical root times a power of the
Euler function phi(q), so the expansion costs about as much as the fan
and never touches the Weyl group.  While it is expanded, each monomial is
keyed by one int (Kronecker substitution: root coordinates as mixed-radix
digits, the grade as the top digit), so a theta step is one integer
addition; the keys are unpacked once, at the end.
"""

from __future__ import annotations

from math import isqrt
from operator import mul
from typing import NamedTuple

from .algebra import AlgebraSpec, _integer_entry, algebra_memo
from .errors import ConfigurationError, ResourceLimitError
from .weyl import descending_orbit

__all__ = ["Fan", "FanVector", "DenominatorReport", "build_fan", "verify_denominator"]

DEFAULT_NODE_LIMIT = 2_000_000


class FanVector(NamedTuple):
    """A signed shift: simple-root coordinates, grade >= 0, multiplicity,
    affine labels (level 0) and norm, form_scale * |gamma-bar|^2."""

    root: tuple[int, ...]
    grade: int
    mult: int
    labels: tuple[int, ...]
    norm: int


class Fan:
    """All fan vectors of one algebra up to a grade cutoff.

    `vectors` holds the records sorted by grade, then root; no two share
    a root and grade.
    """

    def __init__(self, algebra: AlgebraSpec, cutoff: int, vectors):
        self.algebra = algebra
        self.cutoff = cutoff
        self.vectors = tuple(sorted(vectors, key=lambda v: (v.grade, v.root)))
        if len({(v.root, v.grade) for v in self.vectors}) != len(self.vectors):
            raise ConfigurationError("duplicate fan vectors")

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
def build_fan(spec: AlgebraSpec, cutoff: int, /) -> Fan:
    """Enumerate the fan exhaustively up to the grade cutoff.

    Memoised per algebra and cutoff.  The orbit walk stops with
    ResourceLimitError past DEFAULT_NODE_LIMIT nodes.
    """
    cutoff = _integer_entry(cutoff, "fan cutoff")
    if cutoff < 0:
        raise ConfigurationError("fan cutoff must be non-negative")
    # form_scale * |gamma|^2 = 2 sum_m root_m form_symmetrizer_m + grade_norm * grade
    symmetrizer = spec.form_symmetrizer
    grade_norm = 2 * spec.dual_coxeter * spec.form_scale
    # orbit point of rho -> (root coordinates of the shift, -det(w))
    shifts = {}
    vectors = []
    for parent, i, node in descending_orbit(spec, (1,) * (spec.rank + 1), 0, -cutoff):
        if parent is None:
            shifts[node] = ((0,) * spec.rank, -1)
            continue
        root, mult = shifts[parent]
        mult = -mult  # one more letter flips det(w)
        li = parent[0][i]
        if i:
            root = root[: i - 1] + (root[i - 1] + li,) + root[i:]
        else:
            root = tuple(c - li * m for c, m in zip(root, spec.marks))
        shifts[node] = (root, mult)
        if len(shifts) > DEFAULT_NODE_LIMIT:
            raise ResourceLimitError(
                f"fan orbit exceeded {DEFAULT_NODE_LIMIT} nodes at cutoff {cutoff}"
            )
        grade = -node[1]
        labels = tuple(1 - x for x in node[0])
        norm = 2 * sum(map(mul, root, symmetrizer)) + grade_norm * grade
        vectors.append(FanVector(root, grade, mult, labels, norm))
    return Fan(spec, cutoff, vectors)


# -- denominator identity -------------------------------------------------


class DenominatorReport(NamedTuple):
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
    Jacobi's triple product groups the factors of a positive classical root
    beta with one factor of phi(q) = prod_{n>=1} (1 - q^n):

        prod_{n>=1} (1 - q^n)(1 - e^{-beta} q^{n-1})(1 - e^{beta} q^n)
            = sum_m (-1)^m q^{m(m-1)/2} e^{-m beta},

    where q = e^{-delta}.  The imaginary roots n*delta have multiplicity
    rank, so the product is phi^(rank - |positive roots|) times one sparse
    theta series per positive root.

    While it is expanded, a monomial is one int (Kronecker substitution):
    root coordinate i is a mixed-radix digit offset by its bound
    reach * sum_beta beta_i, which no partial product exceeds, and the
    grade is the top digit.  Digits never carry, so a theta step adds a
    precomputed int, and a key reaches (cutoff + 1) * grade_place exactly
    when its grade passes the cutoff.
    """
    reach = isqrt(2 * cutoff) + 1
    steps = sorted(
        (m * (m - 1) // 2, m) for m in range(-reach, reach + 1) if m * (m - 1) <= 2 * cutoff
    )
    bounds = [reach * sum(column) for column in zip(*spec.positive_roots)]
    places = []
    grade_place = 1
    for bound in bounds:
        places.append(grade_place)
        grade_place *= 2 * bound + 1
    limit = (cutoff + 1) * grade_place
    poly = {sum(map(mul, bounds, places)): 1}
    # The roots on the first j simple roots come first, j = 1, 2, ..., so
    # each partial product spans as few coordinates, and keys, as it can.
    for beta in sorted(spec.positive_roots, key=lambda b: max(i for i, c in enumerate(b) if c)):
        shift = sum(map(mul, beta, places))
        theta = [(g * grade_place + m * shift, -1 if m % 2 else 1) for g, m in steps]
        out: dict = {}
        for key, coeff in poly.items():
            for step, sign in theta:
                term = key + step
                if term >= limit:
                    break
                out[term] = out.get(term, 0) + sign * coeff
        poly = {key: c for key, c in out.items() if c}
    phi = _euler_power(spec.rank - len(spec.positive_roots), cutoff)
    phi_steps = [(n * grade_place, c) for n, c in enumerate(phi) if c]
    out = {}
    for key, coeff in poly.items():
        for step, c in phi_steps:
            term = key + step
            if term >= limit:
                break
            out[term] = out.get(term, 0) + c * coeff
    series = {}
    for key, c in out.items():
        if c:
            grade, key = divmod(key, grade_place)
            root = []
            for bound in bounds:
                key, digit = divmod(key, 2 * bound + 1)
                root.append(digit - bound)
            series[tuple(root), grade] = c
    return series


def _euler_power(k: int, cutoff: int) -> list[int]:
    """Coefficients of phi(q)^k, phi(q) = prod_{n>=1} (1 - q^n), up to q^cutoff.

    phi is sparse by Euler's pentagonal number theorem, and the power of a
    series with constant term 1 obeys J. C. P. Miller's recurrence
    n b_n = sum_j ((k + 1) j - n) a_j b_{n-j}, exact in integers.
    """
    pentagonal = [(j, a) for j, a in enumerate(pentagonal_series(cutoff)) if j and a]
    power = [1] + [0] * cutoff
    for n in range(1, cutoff + 1):
        total = 0
        for j, a in pentagonal:
            if j > n:
                break
            total += ((k + 1) * j - n) * a * power[n - j]
        power[n] = total // n
    return power


def pentagonal_series(n: int) -> list[int]:
    """Coefficients of prod(1 - q^m) up to q^n (Euler's pentagonal expansion)."""
    if n < 0:
        raise ConfigurationError("series order must be >= 0")
    out = [0] * (n + 1)
    k = 0
    while True:
        hit = False
        for kk in (k, -k) if k else (0,):
            e = kk * (3 * kk - 1) // 2
            if e <= n:
                out[e] += -1 if kk % 2 else 1
                hit = True
        if not hit:
            break
        k += 1
    return out

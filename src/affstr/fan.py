"""The fan of recursion shifts: signed singular weights of the trivial module.

Each fan vector gamma = rho - w(rho), for a non-identity affine Weyl
element w, is one immutable FanVector record, made only by build_fan:
integer simple-root coordinates, a non-negative grade, the multiplicity
-det(w), gamma's affine labels and its norm.  Enumeration walks a
spanning tree of the orbit of rho, kept as integer affine labels, along
strictly descending reflections (weyl.descending_orbit): each orbit point
comes once, from its parent, the reflection at its lowest negative label,
so each vector is made once, from its parent's record.  Each step s_i
with label l adds l to the i-th root coordinate of the shift, or for s_0
subtracts l times the marks and adds l to the grade, so no basis change
is needed.  The labels of gamma are rho's (all 1) minus those of
the orbit point w(rho).  Its norm needs no matrix product: w(rho) has the
norm of rho, so |gamma|^2 = 2 (rho|gamma) = 2 sum_m gamma_m d_m +
2 h^vee grade, which is linear in gamma, and each record takes its
parent's norm plus l times the norm one unit of s_i adds.  Descent
never raises the grade, so pruning below the cutoff loses nothing
within the window.  build_fan is memoised per algebra instance and
cutoff (algebra.algebra_memo); a cutoff is served by its own fan, never
as a prefix of a longer one.

verify_denominator is the independent completeness gate: it checks the
truncated denominator identity 1 - fan = prod_{alpha>0} (1 - e^{-alpha})^{mult}
and never touches the Weyl group.  Jacobi's triple product regroups the
product as one sparse theta series per positive classical root times a
power of the Euler function phi(q).

The gate evaluates the identity.  It sets e^{-alpha_i} = x_i at two points
x of (Z/P)^rank, P = PRIME = 2^61 - 1, with every coordinate nonzero, so
that both sides become q-series over Z/P, and compares them grade by
grade: the product side is one theta series per positive classical root
times phi(q)^(rank - |positive roots|), and the fan side is 1 minus the
sum of mult x^root q^grade.  The points are drawn by a generator seeded
with the Cartan matrix and the cutoff, so a run never depends on the hash
seed.  Evaluation costs a few passes over the fan and no expansion.

Soundness (Schwartz 1980; Zippel 1979).  At each grade, the difference
of the two sides is a Laurent polynomial in x whose coefficients are the
differences between the fan's multiplicities and the true ones (0 or
+-1): integers smaller than P in size for any fan the gate evaluates, so
none of them vanishes modulo P.  If it is not zero, then once its
denominators are cleared it is a nonzero polynomial of some degree D
over Z/P, and it vanishes at a uniform point with probability at most
D/(P - 1); at two independent points, at most (D/(P - 1))^2.  D is at
most the sum over i of the spread of the i-th root coordinate over the
fan and the true one.  For correct fans that sum is 112 for A2 at
cutoff 200 and 216 for F4 at cutoff 6 and for E6 at cutoff 3, so one
point misses such a wrong fan with probability below 10^-16.

Only when the evaluation finds a difference, or the fan holds a vector
of another rank, with an entry that is not an int, outside the grade
window or with a multiplicity of P - 1 or more in size, is the product
expanded exactly and compared term by term, and that report stands: it
names the first differing term.  While it is expanded, each monomial is
keyed by one int (Kronecker substitution: root coordinates as
mixed-radix digits, the grade as the top digit), so a theta step is one
integer addition; the keys are unpacked once, at the end.
"""

from __future__ import annotations

from math import isqrt
from operator import add, itemgetter, mul, sub
from typing import NamedTuple

from .algebra import _INT, AlgebraSpec, _integer_entry, algebra_memo
from .errors import ConfigurationError, ResourceLimitError
from .weyl import descending_orbit

__all__ = ["Fan", "FanVector", "DenominatorReport", "build_fan", "verify_denominator"]

DEFAULT_NODE_LIMIT = 2_000_000
# The modulus of the evaluated denominator gate, the Mersenne prime 2^61 - 1.
PRIME = 2**61 - 1


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
        self.vectors = tuple(sorted(vectors, key=itemgetter(1, 0)))
        if len(set(map(itemgetter(0, 1), self.vectors))) != len(self.vectors):
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
    # is linear in the shift, so s_i at label l adds l * step[i] to it: s_i
    # adds l to root coordinate i, and s_0 subtracts l times the marks from
    # the root and adds l to the grade.
    symmetrizer = spec.form_symmetrizer
    grade_norm = 2 * spec.dual_coxeter * spec.form_scale
    step = (grade_norm - 2 * sum(map(mul, spec.marks, symmetrizer)),)
    step += tuple(2 * d for d in symmetrizer)
    rho = (1,) * (spec.rank + 1)
    record = FanVector._make
    # orbit point of rho -> (root coordinates of the shift, -det(w), norm)
    shifts = {}
    vectors = []
    for parent, i, node in descending_orbit(spec, rho, 0, -cutoff):
        if parent is None:
            shifts[node] = ((0,) * spec.rank, -1, 0)
            continue
        root, mult, norm = shifts[parent]
        mult = -mult  # one more letter flips det(w)
        li = parent[0][i]
        if i:
            root = root[: i - 1] + (root[i - 1] + li,) + root[i:]
        else:
            root = tuple(c - li * m for c, m in zip(root, spec.marks))
        norm += li * step[i]
        shifts[node] = (root, mult, norm)
        if len(shifts) > DEFAULT_NODE_LIMIT:
            raise ResourceLimitError(
                f"fan orbit exceeded {DEFAULT_NODE_LIMIT} nodes at cutoff {cutoff}"
            )
        vectors.append(record((root, -node[1], mult, tuple(map(sub, rho, node[0])), norm)))
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
    """Check 1 - fan = prod(1 - e^{-alpha})^{mult}, truncated at the cutoff.

    Both sides are evaluated at two points modulo PRIME and compared
    grade by grade; when they agree, the report is the one the exact
    comparison gives a correct fan, whose terms are its vectors.  Where
    they differ, or the fan holds what evaluation cannot judge, the
    product is expanded exactly and compared term by term, and that
    report stands.  Neither side touches the Weyl group, so the gate is an
    independent oracle for both completeness and signs of the fan.
    """
    spec, cutoff = fan.algebra, fan.cutoff
    terms = _fan_terms(fan)
    if terms is not None and all(
        _agrees_at(spec, cutoff, terms, x) for x in _points(spec, cutoff)
    ):
        return DenominatorReport(True, None, len(fan))
    return _compare_exactly(fan)


def _compare_exactly(fan: Fan) -> DenominatorReport:
    """Expand 1 - prod(1 - e^{-alpha})^{mult} to the cutoff and compare term by term."""
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


def _points(spec: AlgebraSpec, cutoff: int) -> tuple:
    """The two evaluation points of the algebra and cutoff, in (Z/PRIME)^rank.

    Every coordinate is nonzero, so every monomial can be inverted.  The
    generator is seeded with the text of the Cartan matrix and the cutoff
    (a string seed is hashed by SHA-512, never by hash()), so the points
    are the same in every process and on every Python the package runs on.
    """
    from random import Random

    draw = Random(repr((spec.cartan, cutoff))).randrange
    return tuple(tuple(draw(1, PRIME) for _ in range(spec.rank)) for _ in range(2))


def _fan_terms(fan: Fan):
    """(end of each grade, multiplicities, root coordinates by simple root)
    of the fan's vectors, or None when evaluation cannot judge the fan.

    It can when every vector has the algebra's rank and int entries (the
    exact comparison matches 1.0 with 1, a residue cannot), lies in the
    grade window, and has a multiplicity below PRIME - 1 in size, so that
    no residue confuses it with a true one (0 or +-1).
    """
    from bisect import bisect_right

    vectors, rank = fan.vectors, fan.algebra.rank
    roots = list(map(itemgetter(0), vectors))
    if set(map(len, roots)) - {rank}:
        return None
    grades = list(map(itemgetter(1), vectors))
    mults = list(map(itemgetter(2), vectors))
    columns = [list(map(itemgetter(i), roots)) for i in range(rank)]
    if not all(_INT.issuperset(map(type, entries)) for entries in (grades, mults, *columns)):
        return None
    if vectors and not (
        0 <= grades[0] and grades[-1] <= fan.cutoff and max(map(abs, mults)) < PRIME - 1
    ):
        return None
    ends = [bisect_right(grades, n) for n in range(fan.cutoff + 1)]
    return ends, mults, columns


def _agrees_at(spec: AlgebraSpec, cutoff: int, terms: tuple, x: tuple) -> bool:
    """Whether 1 - fan and the product agree at x modulo PRIME, grade by grade.

    e^{-alpha_i} becomes x_i and e^{-delta} stays the variable q.  Each
    theta series of _denominator_series becomes a sparse series over
    Z/PRIME, sum_m (-x^beta)^m q^{m(m-1)/2}, and the fan side sums
    mult x^root per grade, looking x_i^c up per coordinate value.
    """
    size = cutoff + 1
    steps = _theta_steps(cutoff)
    exponents = {m for _, m in steps}
    product = [1] + [0] * cutoff
    for beta in spec.positive_roots:
        y = 1
        for xi, b in zip(x, beta):
            y = y * pow(xi, b, PRIME) % PRIME
        powers = _powers(PRIME - y, exponents)
        product = _times(product, [(g, powers[m]) for g, m in steps], size)
    phi = _euler_power(spec.rank - len(spec.positive_roots), cutoff)
    product = _times(product, [(n, c % PRIME) for n, c in enumerate(phi) if c], size)
    ends, values, columns = terms
    for xi, column in zip(x, columns):
        powers = _powers(xi, set(column))
        values = list(map(mul, values, map(powers.__getitem__, column)))
    # product = 1 - fan, the 1 at grade 0
    start = 0
    for n, end in enumerate(ends):
        if (product[n] + sum(values[start:end]) - (n == 0)) % PRIME:
            return False
        start = end
    return True


def _powers(base: int, exponents) -> dict:
    """base^e mod PRIME for each exponent e, inverting base once."""
    inverse = pow(base, -1, PRIME)
    return {e: pow(base, e, PRIME) if e >= 0 else pow(inverse, -e, PRIME) for e in exponents}


def _times(series: list, sparse: list, size: int) -> list:
    """series times the sparse (exponent, coefficient) terms, mod PRIME, to `size` terms."""
    out = [0] * size
    for g, c in sparse:
        if g < size:
            out[g:] = map(add, out[g:], [c * s for s in series[: size - g]])
    return [c % PRIME for c in out]


def _theta_steps(cutoff: int) -> list:
    """(m(m-1)/2, m) for every m whose theta term lies at most at the cutoff, sorted."""
    reach = isqrt(2 * cutoff) + 1
    return sorted(
        (m * (m - 1) // 2, m) for m in range(-reach, reach + 1) if m * (m - 1) <= 2 * cutoff
    )


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
    steps = _theta_steps(cutoff)
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

"""Reference affine Weyl group code for the tests, independent of affstr.weyl.

Everything here works on `AffineWeight` values with the reflection
formulas written out in the classical basis: s_0 adds label_0 times the
highest root and lowers the grade by label_0, s_i subtracts label_i times
the i-th simple root.  The reduction loop is the one the package used
before its integer kernel and is the oracle the kernel is tested against;
`orbit` is the brute-force orbit the walks are tested against.
The translation helpers decompose a reducing element as t . s, and
`from_root_basis` builds a weight from simple-root coordinates.
`classical_inner` and `inner_product` are the invariant form in
`Fraction`s, the reference for the package's integer `form_gram`, and
`weyl_vector` is rho.  `add` and `sub` are the componentwise sum and
difference of two weights of one rank; the package itself never combines
weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from affstr import AffineWeight, ConfigurationError, NonterminationError
from affstr.algebra import to_root_basis


def _check_same_rank(a, b):
    # zip would drop the labels past the shorter tuple and give a wrong weight.
    if len(a.labels) != len(b.labels):
        raise ConfigurationError(
            f"cannot combine weights of {len(a.labels)} and {len(b.labels)} labels"
        )


def add(a, b):
    """a + b, componentwise: labels, level and grade."""
    _check_same_rank(a, b)
    labels = tuple(x + y for x, y in zip(a.labels, b.labels))
    return AffineWeight(labels, a.level + b.level, a.grade + b.grade)


def sub(a, b):
    """a - b, componentwise: labels, level and grade."""
    _check_same_rank(a, b)
    labels = tuple(x - y for x, y in zip(a.labels, b.labels))
    return AffineWeight(labels, a.level - b.level, a.grade - b.grade)


def weyl_vector(spec):
    """All Dynkin labels 1 (including the zeroth); level is the dual Coxeter number."""
    return AffineWeight((1,) * spec.rank, spec.dual_coxeter, 0)


def inner_product(spec, a, b):
    """Symmetric invariant form.

    On classical parts this is the positive-definite symmetrized form;
    the grade direction is isotropic and pairs with the level.
    """
    spec.check_rank(a)
    spec.check_rank(b)
    classical = classical_inner(spec, a.labels, b.labels)
    return classical + a.level * b.grade + b.level * a.grade


def classical_inner(spec, la, lb):
    """(la|lb) = sum_i la_i d_i (A^-1 lb)_i on classical Dynkin labels.

    A^-1 is adj A / det A, read off the spec's integer adjugate.
    """
    return sum(
        l * d * sum(x * y for x, y in zip(row, lb))
        for l, d, row in zip(la, spec.symmetrizer, spec.cartan_adjugate)
    ) / spec.cartan_det


def from_root_basis(spec, coords, level=0, grade=0):
    """Inverse of `to_root_basis`: labels are the Cartan matrix times coords."""
    coords = tuple(Fraction(c) for c in coords)
    assert len(coords) == spec.rank, "coordinate length does not match rank"
    labels = tuple(
        sum(spec.cartan[i][j] * coords[j] for j in range(spec.rank))
        for i in range(spec.rank)
    )
    return AffineWeight(labels, level, grade)


def reflect(spec, i, w):
    """Simple reflection s_i, ordinary action."""
    if i == 0:
        l0 = spec.label0(w)
        labels = tuple(x + l0 * t for x, t in zip(w.labels, spec.theta_labels))
        return AffineWeight(labels, w.level, w.grade - l0)
    li = w.labels[i - 1]
    labels = tuple(x - li * spec.cartan[j][i - 1] for j, x in enumerate(w.labels))
    return AffineWeight(labels, w.level, w.grade)


def apply_word(spec, word, w):
    for i in word:
        w = reflect(spec, i, w)
    return w


def orbit(spec, start, floor):
    """Brute-force ordinary orbit of `start`: every point with grade >= floor.

    Tries every simple reflection at every point found, so it needs no
    dominant start; a start below the floor gives the empty set.
    """
    if start.grade < floor:
        return set()
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for w in frontier:
            for i in range(spec.rank + 1):
                img = reflect(spec, i, w)
                if img.grade >= floor and img not in seen:
                    seen.add(img)
                    new.append(img)
        frontier = new
    return seen


def to_dominant(spec, w, max_steps=1_000_000):
    """(dominant, word): reflect at the most negative label, lowest index on ties."""
    word = []
    current = w
    for _ in range(max_steps):
        labels = spec.affine_labels(current)
        worst = min(range(len(labels)), key=lambda i: (labels[i], i))
        if labels[worst] >= 0:
            return current, tuple(word)
        current = reflect(spec, worst, current)
        word.append(worst)
    raise NonterminationError(f"reduction exceeded {max_steps} steps")


def shifted_reflect(spec, i, w):
    """The rho-shifted (dot) action of s_i."""
    rho = weyl_vector(spec)
    return sub(reflect(spec, i, add(w, rho)), rho)


@dataclass(frozen=True)
class TranslationDatum:
    """Coroot-lattice argument of the translation part of a reducing element."""

    theta: tuple[int, ...]


def translate(spec, coroot_coords, w):
    """Action of the translation t_beta, beta given in simple-coroot coordinates."""
    root_coords = tuple(Fraction(b) / d for b, d in zip(coroot_coords, spec.symmetrizer))
    beta_labels = tuple(
        sum(Fraction(spec.cartan[i][j]) * root_coords[j] for j in range(spec.rank))
        for i in range(spec.rank)
    )
    pairing = classical_inner(spec, w.labels, beta_labels)
    norm2 = classical_inner(spec, beta_labels, beta_labels)
    labels = tuple(x + w.level * b for x, b in zip(w.labels, beta_labels))
    return AffineWeight(labels, w.level, w.grade - pairing - w.level * norm2 / 2)


def translation_datum(spec, outcome):
    """theta-vee of the t . s decomposition of a reducing word.

    The word acts on the level-1 zero weight as pure translation data:
    w(0;1;0) has classical part nu(beta), read off in coroot coordinates.
    """
    probe = AffineWeight((0,) * spec.rank, 1, 0)
    image = apply_word(spec, outcome.word, probe)
    theta = []
    for y, d in zip(to_root_basis(spec, image), spec.symmetrizer):
        b = y * d
        assert b.denominator == 1, "translation argument left the coroot lattice"
        theta.append(int(b))
    return TranslationDatum(tuple(theta))

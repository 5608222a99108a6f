"""Reference denominator expansion for the tests, independent of affstr.fan.

The truncated product over the positive affine roots, expanded one factor
(1 - e^{-alpha})^{mult} at a time: every real root beta + n*delta and every
imaginary root n*delta up to the cutoff.  This is the dense expansion the
package used before its triple-product form and is the oracle that form is
tested against.
"""

from __future__ import annotations

from math import comb


def _denominator_series(spec, cutoff: int) -> dict:
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

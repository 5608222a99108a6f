"""Reference fan-vector data for the tests, independent of the orbit walk.

`root_labels` turns simple-root coordinates into affine labels through
the affine Cartan columns, as the package did before the walk recorded
each vector's labels; `fan_vector` builds a FanVector record from
(root, grade, mult) with those labels and the norm from the integer Gram
matrix, so a test can make a vector the walk never would.
"""

from __future__ import annotations

from affstr.fan import FanVector


def root_labels(spec, coords) -> tuple[int, ...]:
    """Affine labels (level 0) of a root-lattice vector in simple-root coordinates."""
    labels = [0] * (spec.rank + 1)
    for c, column in zip(coords, spec.affine_columns[1:]):
        for j, a in column:
            labels[j] += c * a
    return tuple(labels)


def fan_vector(spec, root, grade, mult) -> FanVector:
    """The record of the shift with these root coordinates, grade and multiplicity."""
    root = tuple(root)
    labels = root_labels(spec, root)
    return FanVector(root, grade, mult, labels, spec.form_norm(labels[1:]))

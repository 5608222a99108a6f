"""Reference fold for the tests: every (base weight, fan vector) pair reduced.

This is the fold the package used before it priced each pair by the
invariant form and skipped the pairs that cannot land inside the cutoff.
It reduces every pair through the same chamber-reduction kernel and keeps
the offsets up to the cutoff; the priced fold is tested against it entry
for entry.
"""

from __future__ import annotations

from affstr.weyl import reduce_labels


def folded_entries(spec, base, base_index, fan, cutoff) -> dict:
    """The entries of the folded fan of base.weights[base_index]."""
    xi = base.weights[base_index]
    xi_labels = spec.affine_labels(xi)
    entries = {(base_index, 0): -1}
    for _, gamma_grade, mult, gamma_labels, _ in fan.vectors:
        shifted = [x + y for x, y in zip(xi_labels, gamma_labels)]
        labels, grade, _ = reduce_labels(spec, shifted, xi.grade + gamma_grade)
        offset = grade - xi.grade
        if offset > cutoff:
            continue
        key = (base.index_of(labels[1:]), offset)
        value = entries.get(key, 0) + mult
        if value:
            entries[key] = value
        else:
            entries.pop(key, None)
    return entries

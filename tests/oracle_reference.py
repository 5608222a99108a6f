"""Reference oracle for the tests: every shift reduced.

This is the Racah-type recursion the package used before it priced each
shift by the invariant form and skipped the shifts that cannot reach
grade 0.  It reduces every shift of the grade window through the same
chamber-reduction kernel and keeps the children at or below grade 0; the
priced oracle is tested against it multiplicity for multiplicity.
"""

from __future__ import annotations

from affstr.errors import OutOfWindowError
from affstr.oracle import RacahOracle
from affstr.weyl import reduce_labels


class ReferenceOracle(RacahOracle):
    def _children(self, labels: tuple, grade: int):
        if grade < -self.fan.cutoff:
            raise OutOfWindowError(f"grade {grade} is beyond the fan cutoff {self.fan.cutoff}")
        for _, shift_grade, mult, shift, _ in self.fan.vectors:
            if grade + shift_grade > 0:
                break
            child, child_grade, _ = reduce_labels(
                self.spec, [x + y for x, y in zip(labels, shift)], grade + shift_grade
            )
            if child_grade <= 0:
                yield (child, child_grade), mult

"""Reference oracle for the tests: every shift reduced.

This is the Racah-type recursion the package used before it priced each
shift by the invariant form and skipped the shifts that cannot reach
grade 0.  It reduces every shift of the grade window through the same
chamber-reduction kernel and keeps the children at or below grade 0, and
it takes each state's singular term from the rho-shifted state's
reduction, as the package did before it read the term off the state; the
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

    def _singular(self, state: tuple) -> int:
        # the sign of w where w(lambda + rho) is (mu + rho, 0), 0 on a wall
        labels, grade = state
        shifted, shifted_grade, word = reduce_labels(self.spec, [x + 1 for x in labels], grade)
        mu_rho = tuple(x + 1 for x in self.spec.affine_labels(self.mu))
        if 0 in shifted or (shifted, shifted_grade) != (mu_rho, 0):
            return 0
        return -1 if len(word) % 2 else 1

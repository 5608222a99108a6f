"""Independent reference computations.

The Racah-type recursion below walks the unfolded fan directly, so it
shares nothing with the folding pipeline beyond the algebra data and the
chamber-reduction kernel, which holds the oracle's shift loop, `expand`,
beside the fold's `fold` (weyl.py).  It adjudicates table typos and is
the second leg of the two-path verification: folded solve and unfolded
recursion must agree exactly on every multiplicity.  `certify` is the
one place they are compared, on the fan object the fold read, which it
also gates.

Each shift is priced before it is reduced.  The invariant form is
Weyl-invariant, so the child of a state (lambda, grade) under a shift
gamma has grade

    grade + grade(gamma) + (|lambda-bar + gamma-bar|^2 - |child-bar|^2) / 2k,

and no dominant level-k weight is longer than the longest vertex
k Lambda_i / a_i^vee of the dominant chamber.  A shift that this bound puts
above grade 0 is skipped unreduced, and every reduced child must meet the
identity exactly or ConsistencyError is raised.  The kernel's `expand`
runs that loop for one state: the shifts come sorted by price, so it
stops at the first one the bound prices out; it skips a shift that starts
above grade 0, reduces the rest with the kernel's own steps, recording no
word, checks each child against the oracle's own norms and hands it out
with its shift's multiplicity, and it returns a failure as a tuple, which
the oracle raises; `_expansion` sums the children.
A query whose reduction runs past `weyl.ASK_AFTER` reflections is priced
by the same bound: above grade 0 its multiplicity is 0 at once, else the
reduction runs on and a budget error stands.  The oracle takes every norm
and the bound from its own integer Gram matrix of the fundamental
weights, built from the Cartan data, never from the norms the fold prices
with, so one wrong number cannot make both paths skip the same term.

Only the singular term depends on the highest weight.  The Gram matrix,
the priced shifts and each state's expansion (its children with summed
multiplicities, and its rho-shifted reduction) are computed once per
algebra, fan object and level, and shared by every oracle on them
(algebra.algebra_memo), so the modules of one class reduce each state's
shifts once.  Per dominant labels the shifts are kept sorted by their
grade-free price, and a state at any grade takes the prefix its bound
admits.  Sharing keeps the check independent of the fold: every admitted
shift is still reduced at its state's own grade and checked against the
identity, nothing is reused across grades, and an expansion that raises
is not kept.

The level-1 closed forms are pure q-series: the single string function
is the reciprocal of the squared Euler product, and the level-1 shift
multiplicities are its negated inverse series.  Both are powers of the
Euler function from fan._euler_power, the package's one q-series power.
"""

from __future__ import annotations

import math
from operator import itemgetter, mul
from typing import NamedTuple

from . import weyl
from .algebra import AffineWeight, AlgebraSpec, algebra_memo
from .errors import ConfigurationError, ConsistencyError, NonterminationError, OutOfWindowError
from .fan import DenominatorReport, Fan, _euler_power, verify_denominator
from .folding import build_folded_fans
from .strings import StringTable, classifier_for
from .weyl import _kernel, reduce_labels, to_dominant

__all__ = ["Certificate", "RacahOracle", "certify", "euler_square_series", "level1_eta_series"]


def euler_square_series(n: int) -> list[int]:
    """Coefficients of prod(1 - q^m)^{-2} up to q^n."""
    return _euler_power(-2, n)


def level1_eta_series(n: int) -> list[int]:
    """Level-1 folded shift multiplicities: minus the squared Euler product.

    The level-1 string is the inverse squared Euler product, and the shift
    series times the string series is -1, hence this closed form.
    """
    return [-c for c in _euler_power(2, n)]


class _Recursion:
    """The part of the recursion no highest weight enters, for one algebra,
    fan and level: the oracle's own integer form, the priced shifts, and
    every state's expansion, filled on use by the oracles that share it."""

    def __init__(self, spec: AlgebraSpec, fan: Fan, level: int):
        # The invariant form on Dynkin labels, scaled to integers: the Gram
        # matrix (Lambda_i|Lambda_j) = d_i adj_ij / det A over its common
        # denominator, with d_i = n_i / m_i taken over the lcm m of the m_i.
        m = math.lcm(*(d.denominator for d in spec.symmetrizer))
        gram = [
            [d.numerator * (m // d.denominator) * x for x in row]
            for d, row in zip(spec.symmetrizer, spec.cartan_adjugate)
        ]
        denominator = m * spec.cartan_det
        common = math.gcd(denominator, *(g for row in gram for g in row))
        scale = denominator // common
        self.gram = tuple(tuple(g // common for g in row) for row in gram)
        self.two_k = 2 * level * scale
        # A bound on the scaled norm of any dominant level-k weight, floored:
        # an integer exceeds the bound iff it exceeds its floor.
        self.top = max(
            level * level * self.gram[i][i] // (c * c) for i, c in enumerate(spec.comarks)
        )
        # (labels, grade, mult, classical labels, 2k grade + |gamma-bar|^2)
        self.shifts = tuple(
            (labels, grade, mult, labels[1:], self.two_k * grade + self.form(labels[1:])[0])
            for _, grade, mult, labels, _ in fan.vectors
        )
        self.cutoff = fan.cutoff
        self.forms: dict[tuple, tuple] = {}
        self.orders: dict[tuple, tuple] = {}
        self.expansions: dict[tuple, tuple] = {}

    def form(self, classical) -> tuple:
        """(|lambda|^2, (2 (lambda|Lambda_j))_j), scaled, of classical Dynkin labels."""
        pairing = tuple(2 * sum(map(mul, row, classical)) for row in self.gram)
        return sum(map(mul, classical, pairing)) // 2, pairing

    def state_form(self, labels: tuple) -> tuple:
        """form of the classical part of a state's labels, memoised per labels."""
        forms = self.forms
        return forms.get(labels) or forms.setdefault(labels, self.form(labels[1:]))

    def price_order(self, labels: tuple) -> tuple:
        """(price, labels, grade, mult, classical labels) of each shift at the
        dominant labels, sorted by grade-free price.

        A shift's price at labels lambda is 2k grade(gamma) + |gamma-bar|^2 +
        2 (lambda-bar|gamma-bar), so a state at grade g admits exactly the
        shifts priced at most top - |lambda-bar|^2 - 2k g: a prefix.  Shifts
        priced out at the deepest grade of the window are left out.
        """
        order = self.orders.get(labels)
        if order is None:
            norm, pairing = self.state_form(labels)
            ceiling = self.top - norm + self.two_k * self.cutoff
            priced = sorted(
                (
                    (price, shift, grade, mult, classical)
                    for shift, grade, mult, classical, cost in self.shifts
                    if (price := cost + sum(map(mul, pairing, classical))) <= ceiling
                ),
                key=itemgetter(0),
            )
            order = self.orders.setdefault(labels, tuple(priced))
        return order


@algebra_memo
def _recursion(spec: AlgebraSpec, fan: Fan, level: int, children, /) -> _Recursion:
    """The _Recursion of an algebra, fan (by identity) and level.

    `children` is the oracle class's method that expands a state: it is
    part of the key, so an oracle that expands states its own way never
    reads another's expansions.
    """
    return _Recursion(spec, fan, level)


class RacahOracle:
    """Unfolded multiplicity recursion for one module, with memoization.

    States are dominant (affine labels, grade) integer pairs, so the number
    of states is bounded by (dominant classes at the level) x (grade window).
    Everything but the singular term is shared with every oracle on the same
    algebra, fan and level (_recursion); each oracle keeps its own values.
    """

    def __init__(self, spec: AlgebraSpec, mu: AffineWeight, fan: Fan):
        spec.check_rank(mu)
        if mu.grade != 0 or not spec.is_dominant(mu):
            raise ConfigurationError("highest weight must be dominant at grade 0")
        if fan.algebra is not spec:
            raise ConfigurationError("fan belongs to a different algebra")
        self.spec = spec
        self.mu = mu
        self.fan = fan
        self.mu_class = classifier_for(spec).id_of(mu.labels)
        # (mu + rho, 0): the only regular dominant state of the singular term.
        self._mu_rho = (tuple(x + 1 for x in spec.affine_labels(mu)), 0)
        self._recursion = _recursion(spec, fan, mu.level, type(self)._children)
        self._cache: dict[tuple, int] = {}

    def multiplicity(self, lam: AffineWeight) -> int:
        spec = self.spec
        spec.check_rank(lam)
        if lam.level != self.mu.level:
            raise ConfigurationError("weight level does not match the module level")
        try:
            outcome = to_dominant(spec, lam, give_up=self._priced_above_grade0)
        except NonterminationError:
            # At level 0 the error stands, as there is no bound.
            if lam.level > 0 and self._priced_above_grade0(spec, lam):
                return 0
            raise
        labels, grade = outcome.labels, outcome.grade
        # Shifts stay in the class, so only a query can leave it.
        if grade > 0 or classifier_for(spec).id_of(labels[1:]) != self.mu_class:
            return 0
        return self._dominant_multiplicity(labels, grade)

    def _priced_above_grade0(self, spec: AlgebraSpec, lam: AffineWeight) -> bool:
        """Whether the oracle's own form puts the dominant point of lam above grade 0.

        A long reduction is priced as a shift is.
        """
        r = self._recursion
        return r.two_k * lam.grade + r.form(lam.labels)[0] > r.top

    def _dominant_multiplicity(self, labels: tuple, grade: int) -> int:
        # Depth-first on an explicit stack: a state is expanded (unknown
        # children pushed) on its first visit and summed on its second.  An
        # uncached child this call expanded lies on its path: a cycle.  Other
        # threads may cache a state this call expanded, so test cache first.
        cache, expanded, mu_rho = self._cache, {}, self._mu_rho
        stack = [(labels, grade)]
        while stack:
            state = stack[-1]
            if state in cache:
                stack.pop()
            elif state in expanded:
                children, shifted, sign = expanded.pop(state)
                value = sign if shifted == mu_rho else 0
                cache[state] = value + sum(m * cache[c] for c, m in children)
            else:
                expanded[state] = expansion = self._expansion(state)
                for child, _ in expansion[0]:
                    if child not in cache:
                        if child in expanded:
                            raise ConsistencyError(
                                f"recursion cycle at state {child}; the fan is not well-founded"
                            )
                        stack.append(child)
        return cache[labels, grade]

    def _expansion(self, state: tuple) -> tuple:
        """(children, shifted state, sign) of a state, shared through _recursion.

        The children are (child state, summed shift multiplicity) pairs; the
        shifted state is the state plus rho (every affine label 1) reduced,
        whose singular term is the sign when it is (mu + rho, 0), and the
        sign is 0 when the shifted labels lie on a wall.  An expansion that
        raises stores nothing.
        """
        expansions = self._recursion.expansions
        expansion = expansions.get(state)
        if expansion is None:
            children: dict[tuple, int] = {}
            for child, mult in self._children(*state):
                children[child] = children.get(child, 0) + mult
            labels, grade = state
            shifted, shifted_grade, word = reduce_labels(self.spec, [x + 1 for x in labels], grade)
            sign = 0 if 0 in shifted else -1 if len(word) % 2 else 1
            expansion = expansions.setdefault(
                state, (tuple(children.items()), (shifted, shifted_grade), sign)
            )
        return expansion

    def _children(self, labels: tuple, grade: int):
        """(dominant child state, shift multiplicity) for every shift that
        can reach grade 0, expanded by the kernel."""
        if grade < -self.fan.cutoff:
            raise OutOfWindowError(f"grade {grade} is beyond the fan cutoff {self.fan.cutoff}")
        r = self._recursion
        # 2k child_grade = 2k (grade + grade(gamma)) + |lambda + gamma|^2 - |child|^2
        # = base + price - |child|^2, and |child|^2 <= top: a shift priced
        # above top - base leaves a child above grade 0, and the child's own
        # norm fixes its grade exactly.  Reduction only raises the grade, so
        # a shift that starts above grade 0 is skipped unreduced.
        base = r.two_k * grade + r.state_form(labels)[0]
        limit = weyl.DEFAULT_STEP_LIMIT
        children: list = []
        failure = _kernel(self.spec).expand(
            labels, grade, base, r.top - base, r.price_order(labels), r.two_k, r.state_form,
            limit, children,
        )
        if failure is None:
            return children
        kind, classical, shift_grade, child_grade = failure
        if kind == 0:
            raise NonterminationError(f"reduction exceeded {limit} steps")
        raise ConsistencyError(
            f"shift {classical} at grade {shift_grade} of state {labels} at grade "
            f"{grade} reaches grade {child_grade}, which the invariant form does not give"
        )


class Certificate(NamedTuple):
    """The gate of the fan both paths read, and (string, depth, folded,
    unfolded) wherever the table and the recursion disagree."""

    gate: DenominatorReport
    mismatches: list


def certify(table: StringTable) -> Certificate:
    """A string table's certificate, memoised per algebra and table."""
    return _certify(table.algebra, table)


@algebra_memo
def _certify(spec: AlgebraSpec, table: StringTable, /) -> Certificate:
    _, fan = build_folded_fans(spec, table.base, table.depth)  # the fold's own fan object
    oracle = RacahOracle(spec, table.mu, fan)
    return Certificate(_gate(spec, fan), [
        (s, d, folded, unfolded)
        for s, xi in enumerate(table.base.weights)
        for d, folded in enumerate(table.coefficients[s])
        if (unfolded := oracle.multiplicity(xi.shift_grade(-d))) != folded
    ])


@algebra_memo
def _gate(spec: AlgebraSpec, fan: Fan, /) -> DenominatorReport:
    return verify_denominator(fan)  # once per fan object

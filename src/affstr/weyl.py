"""The affine Weyl group: one reflection kernel and dominant-chamber reduction.

The kernel works on affine Dynkin labels (lambda_0, lambda_1, ..., lambda_r)
plus the grade; the level is implicit in the labels.  A simple reflection

    s_i:  lambda_j -= lambda_i * A[j][i]   (A the affine Cartan matrix),
          and on s_0 only, grade -= lambda_0,

touches only the nonzero entries of one precomputed affine Cartan column.
Reduction applies the reflection at the most negative label (lowest index
on ties) until all labels are non-negative.  Any strategy yields the same
dominant representative; this one gives deterministic words.  It only ever
raises the grade.  Termination requires positive level, guarded by a step
budget.

The reverse walk, `descending_orbit`, visits the orbit of a dominant point
along reflections at positive labels, which only ever lower the grade.

Every Weyl walk in the package (fan enumeration, folding, the oracle, the
character orbits, the multiplicity reads) runs on integer labels through
these three functions.  `apply_word` builds one weight from its final
labels; `to_dominant` returns the reduced labels themselves, and its
`WeylOutcome` builds the dominant `AffineWeight` only when `dominant` is
read, so a read that looks up a table by labels builds no weight.
"""

from __future__ import annotations

from collections import deque, namedtuple

from .algebra import AffineWeight, AlgebraSpec
from .errors import ConfigurationError, NonterminationError

__all__ = [
    "WeylOutcome",
    "reflect_labels",
    "reduce_labels",
    "descending_orbit",
    "to_dominant",
    "apply_word",
]

DEFAULT_STEP_LIMIT = 1_000_000


class WeylOutcome(namedtuple("WeylOutcome", "labels level grade word")):
    """Result of a dominant-chamber reduction, as a tuple.

    `labels` are the affine Dynkin labels (lambda_0, ..., lambda_r) of the
    dominant representative, ints for an integral weight; `level` and
    `grade` are its level and grade, `word` the tuple of reflection
    indices applied.  `dominant` builds the representative as an
    `AffineWeight` on each access.
    """

    __slots__ = ()

    @property
    def dominant(self) -> AffineWeight:
        return AffineWeight(self.labels[1:], self.level, self.grade)


_outcome = WeylOutcome._make


def reflect_labels(spec: AlgebraSpec, i: int, labels: list, grade):
    """Apply s_i to a mutable affine label list in place; return the new grade."""
    li = labels[i]
    for j, a in spec.affine_columns[i]:
        labels[j] -= li * a
    return grade - li if i == 0 else grade


def reduce_labels(spec: AlgebraSpec, labels, grade):
    """Reduce affine labels to the dominant chamber.

    Returns the dominant labels as a tuple, their grade and the word of
    reflection indices applied.  The caller guarantees positive level;
    more than DEFAULT_STEP_LIMIT reflections raise NonterminationError.
    """
    labels = list(labels)
    word: list[int] = []
    for _ in range(DEFAULT_STEP_LIMIT):
        low = min(labels)
        if low >= 0:
            return tuple(labels), grade, word
        i = labels.index(low)
        grade = reflect_labels(spec, i, labels, grade)
        word.append(i)
    raise NonterminationError(f"reduction exceeded {DEFAULT_STEP_LIMIT} steps")


def descending_orbit(spec: AlgebraSpec, labels, grade, floor):
    """Breadth-first walk of the orbit of a dominant point down to a grade floor.

    Yields (parent, i, node) once per orbit point with grade >= floor,
    nodes being (affine labels tuple, grade) and node = s_i(parent); the
    starting point comes first, with parent and i None.
    """
    start = (tuple(labels), grade)
    seen = {start}
    queue = deque([start])
    yield None, None, start
    while queue:
        parent = queue.popleft()
        labels, grade = parent
        for i, li in enumerate(labels):
            if li <= 0:
                continue
            child = list(labels)
            child_grade = reflect_labels(spec, i, child, grade)
            if child_grade < floor:
                continue
            node = (tuple(child), child_grade)
            if node not in seen:
                seen.add(node)
                queue.append(node)
                yield parent, i, node


def apply_word(spec: AlgebraSpec, word, w: AffineWeight) -> AffineWeight:
    """Apply reflections in the order they were recorded."""
    labels = list(spec.affine_labels(w))
    grade = w.grade
    for i in word:
        if not 0 <= i <= spec.rank:
            raise ConfigurationError(f"reflection index {i} out of range 0..{spec.rank}")
        grade = reflect_labels(spec, i, labels, grade)
    return AffineWeight(labels[1:], w.level, grade)


def to_dominant(spec: AlgebraSpec, w: AffineWeight) -> WeylOutcome:
    """Reduce a positive-level weight to its dominant orbit representative.

    The rank is checked once, by `affine_labels`.  The reduction runs on
    the affine labels and the outcome holds the reduced labels; no
    `AffineWeight` is built unless the caller reads `dominant`.
    """
    labels = spec.affine_labels(w)
    level = w.level
    if level <= 0:
        raise NonterminationError(f"to_dominant needs positive level, got {level}")
    labels, grade, word = reduce_labels(spec, labels, w.grade)
    return _outcome((labels, level, grade, tuple(word)))

"""The affine Weyl group: one reflection kernel and dominant-chamber reduction.

The kernel works on affine Dynkin labels (lambda_0, lambda_1, ..., lambda_r)
plus the grade; the level is implicit in the labels.  A simple reflection

    s_i:  lambda_j -= lambda_i * A[j][i]   (A the affine Cartan matrix),
          and on s_0 only, grade -= lambda_0,

touches only the nonzero entries of one precomputed affine Cartan column,
`AlgebraSpec.affine_columns[i]`.  Reduction applies the reflection at the
most negative label (lowest index on ties) until all labels are
non-negative.  Any strategy yields the same dominant representative; this
one gives deterministic words.  It only ever raises the grade.
Termination requires positive level, guarded by a step budget.

The reverse walk, `descending_orbit`, visits the orbit of a dominant point
along reflections at positive labels, which only ever lower the grade.

Every Weyl walk in the package (fan enumeration, folding, the oracle, the
character orbits, the multiplicity reads) runs on integer labels through
`reduce_labels` or `descending_orbit`, each of which applies the sparse
column update in place inside its own loop, with no call per reflection.
`to_dominant` computes lambda_0 from a weight's stored labels and returns
the reduced labels themselves; its `WeylOutcome` builds the dominant
`AffineWeight` only when `dominant` is read, so a read that looks up a
table by labels builds no weight.  `apply_word`, which replays a recorded
word on one weight, is the only walk that starts and ends at an
`AffineWeight`.
"""

from __future__ import annotations

from collections import namedtuple
from operator import mul

from .algebra import AffineWeight, AlgebraSpec, _integer_entry
from .errors import ConfigurationError, NonterminationError

__all__ = [
    "WeylOutcome",
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


def reduce_labels(spec: AlgebraSpec, labels, grade):
    """Reduce affine labels to the dominant chamber.

    Returns the dominant labels as a tuple, their grade and the word of
    reflection indices applied.  The caller guarantees positive level;
    more than DEFAULT_STEP_LIMIT reflections raise NonterminationError.
    """
    columns = spec.affine_columns
    labels = list(labels)
    word: list[int] = []
    for _ in range(DEFAULT_STEP_LIMIT):
        low = min(labels)
        if low >= 0:
            return tuple(labels), grade, word
        i = labels.index(low)
        for j, a in columns[i]:
            labels[j] -= low * a
        if not i:
            grade -= low
        word.append(i)
    raise NonterminationError(f"reduction exceeded {DEFAULT_STEP_LIMIT} steps")


def descending_orbit(spec: AlgebraSpec, labels, grade, floor):
    """Breadth-first walk of the orbit of a dominant point down to a grade floor.

    Yields (parent, i, node) once per orbit point with grade >= floor,
    nodes being (affine labels tuple, grade) and node = s_i(parent), every
    parent before its children.  The starting point comes first, with
    parent and i None; a start below the floor yields nothing, since every
    step lowers the grade or keeps it.  Only s_0 changes the grade, so a
    child below the floor is dropped before it is built.
    """
    start = (tuple(labels), grade)
    if grade < floor:
        return
    columns = spec.affine_columns
    seen = {start}
    # The list is the queue: the loop reads it while children are appended.
    queue = [start]
    yield None, None, start
    for parent in queue:
        labels, grade = parent
        for i, li in enumerate(labels):
            if li <= 0:
                continue
            if i:
                child_grade = grade
            else:
                child_grade = grade - li
                if child_grade < floor:
                    continue
            child = list(labels)
            for j, a in columns[i]:
                child[j] -= li * a
            node = (tuple(child), child_grade)
            if node not in seen:
                seen.add(node)
                queue.append(node)
                yield parent, i, node


def apply_word(spec: AlgebraSpec, word, w: AffineWeight) -> AffineWeight:
    """Apply reflections in the order they were recorded."""
    columns = spec.affine_columns
    labels = list(spec.affine_labels(w))
    grade = w.grade
    for i in word:
        i = _integer_entry(i, "reflection index")
        if not 0 <= i <= spec.rank:
            raise ConfigurationError(f"reflection index {i} out of range 0..{spec.rank}")
        li = labels[i]
        for j, a in columns[i]:
            labels[j] -= li * a
        if not i:
            grade -= li
    return AffineWeight(labels[1:], w.level, grade)


def to_dominant(spec: AlgebraSpec, w: AffineWeight) -> WeylOutcome:
    """Reduce a positive-level weight to its dominant orbit representative.

    The rank is checked once; lambda_0 = level - sum(comark_i * label_i) is
    computed here from the stored labels.  The reduction runs on the affine
    labels and the outcome holds the reduced labels; no `AffineWeight` is
    built unless the caller reads `dominant`.
    """
    spec.check_rank(w)
    labels = w.labels
    level = w.level
    if level <= 0:
        raise NonterminationError(f"to_dominant needs positive level, got {level}")
    label0 = level - sum(map(mul, spec.comarks, labels))
    labels, grade, word = reduce_labels(spec, (label0, *labels), w.grade)
    return _outcome((labels, level, grade, tuple(word)))

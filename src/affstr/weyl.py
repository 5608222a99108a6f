"""The affine Weyl group: one reflection kernel per algebra, generated from its Cartan matrix.

Every Weyl walk works on affine Dynkin labels (lambda_0, lambda_1, ...,
lambda_r) plus the grade; the level is implicit in the labels.  A simple
reflection

    s_i:  lambda_j -= lambda_i * A[j][i]   (A the affine Cartan matrix),
          and on s_0 only, grade -= lambda_0,

touches only the nonzero entries of one affine Cartan column,
`AlgebraSpec.affine_columns[i]`.

The kernel.  Each algebra's walks are written out once as straight-line
Python, the way `collections.namedtuple` writes its classes, and compiled
on the first walk of that algebra instance (`algebra_memo`), never at
import or when the algebra is loaded.  The labels become the locals
`l0 ... lr`; a reflection is one assignment per nonzero column entry and a
child in an orbit walk is one tuple display.  The kernel also holds the
fold's pair loop, `fold`, which `folding.build_folded_fan` calls once
per base weight: for each fan vector it prices the pair, reduces it
with the same steps as `reduce` (keeping no word), checks it and adds it
to the folded entries, and it returns a failure as a tuple for
`build_folded_fan` to raise.  It also holds the oracle's shift loop,
`expand`, which `oracle.RacahOracle` calls once per state: for each
shift its price admits it reduces the state plus the shift with the same
steps (keeping no word), checks the child against the oracle's own
invariant form and hands the child out with the shift's multiplicity,
and it returns a failure as a tuple for the oracle to raise.  There is
no other reflection loop in the package.  The source holds only integer
literals, each written with `%d` from the int Cartan data, and its own
local names; nothing of a config file (not even the algebra's label)
enters it, and it runs with no builtin but `range`.

Reduction (`reduce_labels`, `to_dominant`) applies the reflection at the
most negative label, the lowest index on ties, until all labels are
non-negative.  Each step finds that label by comparison alone: a chain of
`if l_j < low` tests gives the lowest value, the step returns when it is
non-negative, and otherwise reflects at the first label equal to it.  Any
strategy yields the same dominant representative; this one gives the same
word every time, whose length the oracle's sign and the benchmark's
reflection counts read.  It only ever raises the grade.
Termination needs positive level, so each reduction runs under a budget of
DEFAULT_STEP_LIMIT reflections, read at each call (the fold reads it once
per call and applies it to each pair), and raises NonterminationError
past it.  A caller that can price a long reduction passes `give_up` to
`to_dominant`: it is asked once, after ASK_AFTER reflections, so a short
reduction never pays for it.

The reverse walk, `descending_orbit`, visits the orbit of a dominant point
along reflections at positive labels, which only ever lower the grade.  It
is a reverse search (Avis and Fukuda, 1996) over a spanning tree of the
orbit: the parent of a point is its reflection at its lowest negative
label, so a point p has the child s_i(p) when p_i > 0 and every label of
s_i(p) below index i is non-negative.  Each point comes once, from its
one parent, and nothing is stored to tell a point already seen.  A parent
never lies below its child's grade, so a grade floor prunes exactly.
`apply_word` replays a recorded word on one weight.  `to_dominant`
computes lambda_0 from a weight's stored labels inside the kernel and
returns the reduced labels themselves; its `WeylOutcome` builds the
dominant `AffineWeight` only when `dominant` is read, so a read that looks
up a table by labels builds no weight.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import AffineWeight, AlgebraSpec, _integer_entry, algebra_memo
from .algebra import _new, _set_grade, _set_labels, _set_level
from .errors import ConfigurationError, NonterminationError

__all__ = [
    "WeylOutcome",
    "reduce_labels",
    "descending_orbit",
    "to_dominant",
    "apply_word",
]

DEFAULT_STEP_LIMIT = 1_000_000
# Reflections a reduction runs before it asks its caller's `give_up`.
ASK_AFTER = 64


class WeylOutcome(namedtuple("WeylOutcome", "labels level grade word")):
    """Result of a dominant-chamber reduction, as a tuple.

    `labels` are the affine Dynkin labels (lambda_0, ..., lambda_r) of the
    dominant representative, all ints; `level` and `grade` are its level
    and grade, `word` the tuple of reflection indices applied.  `dominant`
    builds the representative as an `AffineWeight` on each access.
    """

    __slots__ = ()

    @property
    def dominant(self) -> AffineWeight:
        return AffineWeight(self.labels[1:], self.level, self.grade)


_outcome = WeylOutcome._make


# -- the generated kernel -------------------------------------------------


class _Kernel:
    """One algebra's compiled walks.

    dominant(labels, level, grade, word, limit) and
    reduce(l0, ..., lr, grade, word, limit) reduce, appending each
    reflection's index to `word` and stopping after `limit` reflections;
    they return (labels tuple, grade), and the reduction finished iff
    fewer than `limit` indices were appended.  `dominant` takes the
    classical labels and the level and computes lambda_0 itself.
    replay(l0, ..., lr, grade, word) applies a checked word;
    orbit(labels, grade, floor) is the generator of `descending_orbit`.
    fold(xi, pairing, xi_norm, top, two_k, cutoff, vectors, positions,
    norms, limit, entries) is the pair loop of `folding.build_folded_fan`:
    it adds each fold of a fan vector onto the base weight xi to `entries`
    and returns None, or returns (kind, root, grade, target labels, offset)
    at the first fold that fails: kind 0 ran `limit` reflections, 1 lies
    below its grade, 2 lands outside `positions`, 3 breaks the invariant
    form.
    expand(state, state_grade, base, ceiling, priced, two_k, state_form,
    limit, children) is the shift loop of `oracle.RacahOracle`: it reduces
    the state plus each priced shift up to the first price above
    `ceiling`, skipping those that start above grade 0, checks each child
    against the oracle's own form `state_form`, appends (child state, shift
    multiplicity) for each child at or below grade 0 to `children` and
    returns None, or returns (kind, shift's classical labels, shift's
    grade, child's grade) at the first failure: kind 0 ran `limit`
    reflections, 1 breaks the invariant form.
    """

    __slots__ = ("dominant", "reduce", "replay", "orbit", "fold", "expand")


# The kernel's source, filled in per algebra; {names} is "l0, l1, ..., lr".
# In `fold`, xi's labels are x0..xr and its pairing p1..pr, each fan record
# unpacks to its root r1..rr, grade g, multiplicity, labels and norm, and
# `norm` becomes form_scale * |xi-bar + gamma-bar|^2.  The pricing test is
# 2k (offset - g) = |xi + gamma|^2 - |target|^2 >= norm - top.  xi sits at
# grade 0, so the reduced grade is the offset.  Walls are kept: ordinary
# weight multiplicities are Weyl-invariant, so wall targets accumulate like
# any other.  A sum of multiplicities that cancels to 0 drops its entry.
# In `expand`, the state's labels are x0..xr, each priced shift unpacks to
# its price, labels, grade g, multiplicity and classical labels, and the
# identity checked is 2k child_grade = base + price - |child|^2, with base
# 2k state_grade + |state|^2.  The priced shifts are sorted by price, so the
# first one above `ceiling` ends the loop.  Each child goes out with its
# shift's multiplicity; the oracle sums them.
_SOURCE = """\
def reduce({names}, grade, word, limit):
    for _ in range(limit):
{reduce_step}
    return ({names}), grade

def dominant(labels, level, grade, word, limit):
    {classical}, = labels
    return reduce({label0}, {classical}, grade, word, limit)

def replay({names}, grade, word):
    for i in word:
{replay}
    return ({names}), grade

def orbit(labels, grade, floor):
    if grade < floor:
        return
    start = (labels, grade)
    queue = [start]
    yield None, None, start
    for parent in queue:
        ({names}), grade = parent
{children}
def fold(xi, pairing, xi_norm, top, two_k, cutoff, vectors, positions, norms, limit, entries):
    {bases}, = xi
    {pairs}, = pairing
    for ({roots},), g, mult, ({names}), norm in vectors:
        norm += xi_norm + {price}
        if norm - top > two_k * (cutoff - g):
            continue
{shift}
        grade = g
        for _ in range(limit):
{fold_step}
        else:
            return 0, ({roots},), g, ({classical},), grade
        if grade < 0 or grade < g:
            return 1, ({roots},), g, ({classical},), grade
        s = positions.get(({classical},))
        if s is None:
            return 2, ({roots},), g, ({classical},), grade
        if two_k * (grade - g) != norm - norms[s]:
            return 3, ({roots},), g, ({classical},), grade
        if grade <= cutoff:
            key = s, grade
            mult += entries.get(key, 0)
            if mult:
                entries[key] = mult
            else:
                del entries[key]

def expand(state, state_grade, base, ceiling, priced, two_k, state_form, limit, children):
    {bases}, = state
    for price, ({names}), g, mult, classical in priced:
        if price > ceiling:
            break
        grade = state_grade + g
        if grade > 0:
            continue
{shift}
        for _ in range(limit):
{fold_step}
        else:
            return 0, classical, g, grade
        if two_k * grade != base + price - state_form(({names}))[0]:
            return 1, classical, g, grade
        if grade <= 0:
            children.append(((({names}), grade), mult))
"""

# One reduction step: reflect at the most negative label, the lowest index
# on ties.  One comparison chain finds the lowest label, {done} leaves when
# it is non-negative, and the `l{i} == low` chain reflects at the first
# label that holds it.
_STEP = """\
low = l0
{lowest}
if low >= 0:
    {done}
{steps}"""

# The orbit walk's child s_i(parent), for i > 0 and for i = 0: only s_0
# lowers the grade, so a child below the floor is never built.  {lower}
# asks that the child's labels below i be non-negative: then i is the
# child's lowest negative label, and the child comes only from this parent.
_CHILD = """\
        if l{i} > 0{lower}:
            node = (({labels}), grade)
            queue.append(node)
            yield parent, {i}, node
"""
_CHILD0 = """\
        if l0 > 0:
            g = grade - l0
            if g >= floor:
                node = (({labels}), g)
                queue.append(node)
                yield parent, 0, node
"""


def _term(i, j, a, x):
    # lambda_j after s_i, x holding lambda_i before it: lambda_j - a * x for
    # the entry a = A[j][i] of the affine Cartan column.
    if j == i:
        return "-" + x
    if not a:
        return "l%d" % j
    if a == -1:
        return "l%d + %s" % (j, x)
    return "l%d + %d * %s" % (j, -a, x) if a < 0 else "l%d - %d * %s" % (j, a, x)


def _chain(columns, test, x, before, after):
    """An if/elif chain applying s_i under `test`; the last reflection takes `else`.

    Each branch runs `before`, the reflection with lambda_i read from x,
    then `after`; `test`, `before` and `after` are formatted with i.
    """
    lines = []
    for i, column in enumerate(columns):
        if i == len(columns) - 1:
            lines.append("else:")
        else:
            lines.append(("elif " if i else "if ") + test.format(i=i) + ":")
        body = [before.format(i=i)] + ["l%d = %s" % (j, _term(i, j, a, x)) for j, a in column]
        body += ["grade -= " + x] * (not i) + [after.format(i=i)]
        lines += ["    " + line for line in body if line]
    return "\n".join(lines)


def _indent(source, indent):
    return "\n".join(" " * indent + line for line in source.split("\n"))


def _step(columns, done, after, indent):
    # One reduction step, indented by `indent` spaces; each reflection
    # runs `after` (formatted with i).
    n = len(columns)
    step = _STEP.format(
        lowest="\n".join("if l%d < low:\n    low = l%d" % (j, j) for j in range(1, n)),
        done=done,
        steps=_chain(columns, "l{i} == low", "low", "", after),
    )
    return _indent(step, indent)


def _kernel_source(columns, comarks) -> str:
    n = len(columns)
    names = ", ".join("l%d" % j for j in range(n))
    children = ""
    for i, column in enumerate(columns):
        entries = dict(column)
        labels = [_term(i, j, entries.get(j, 0), "l%d" % i) for j in range(n)]
        lower = "".join(" and %s >= 0" % x for x in labels[:i])
        children += (_CHILD if i else _CHILD0).format(i=i, labels=", ".join(labels), lower=lower)
    label0 = "".join(
        " - l%d" % j if c == 1 else " - %d * l%d" % (c, j) for j, c in enumerate(comarks, 1)
    )
    return _SOURCE.format(
        names=names,
        classical=", ".join("l%d" % j for j in range(1, n)),
        label0="level" + label0,
        reduce_step=_step(columns, "return (%s), grade" % names, "word.append({i})", 8),
        replay=_indent(_chain(columns, "i == {i}", "x", "x = l{i}", ""), 8),
        children=children,
        bases=", ".join("x%d" % j for j in range(n)),
        pairs=", ".join("p%d" % j for j in range(1, n)),
        roots=", ".join("r%d" % j for j in range(1, n)),
        price=" + ".join("p%d * r%d" % (j, j) for j in range(1, n)),
        shift="\n".join("        l%d += x%d" % (j, j) for j in range(n)),
        fold_step=_step(columns, "break", "", 12),
    )


@algebra_memo
def _kernel(spec: AlgebraSpec, /) -> _Kernel:
    """The algebra's kernel, compiled on its first walk."""
    source = _kernel_source(spec.affine_columns, spec.comarks)
    namespace = {"__builtins__": {}, "range": range}
    exec(compile(source, "<affstr.weyl kernel of rank %d>" % spec.rank, "exec"), namespace)
    kernel = _Kernel()
    for name in _Kernel.__slots__:
        setattr(kernel, name, namespace[name])
    return kernel


# -- the walks ------------------------------------------------------------


def reduce_labels(spec: AlgebraSpec, labels, grade):
    """Reduce affine labels to the dominant chamber.

    Returns the dominant labels as a tuple, their grade and the word of
    reflection indices applied.  The caller guarantees positive level;
    more than DEFAULT_STEP_LIMIT reflections raise NonterminationError.
    """
    limit = DEFAULT_STEP_LIMIT
    word: list[int] = []
    labels, grade = _kernel(spec).reduce(*labels, grade, word, limit)
    if len(word) >= limit:
        raise NonterminationError(f"reduction exceeded {limit} steps")
    return labels, grade, word


def descending_orbit(spec: AlgebraSpec, labels, grade, floor):
    """Walk the orbit of a dominant point down to a grade floor, one visit per point.

    Yields (parent, i, node) once per orbit point with grade >= floor,
    nodes being (affine labels tuple, grade) and node = s_i(parent), every
    parent before its children.  The parent of a node is its reflection
    at its lowest negative label.  The starting point comes first, with
    parent and i None; a start below the floor yields nothing, since every
    step lowers the grade or keeps it.  Only s_0 changes the grade, so a
    child below the floor is dropped before it is built.  A start with a
    negative label raises `ConfigurationError`: the walk reaches the whole
    orbit only from its dominant point.
    """
    labels = tuple(labels)
    if min(labels) < 0:
        raise ConfigurationError(f"orbit walk needs a dominant start, got labels {labels}")
    return _kernel(spec).orbit(labels, grade, floor)


def apply_word(spec: AlgebraSpec, word, w: AffineWeight) -> AffineWeight:
    """Apply reflections in the order they were recorded.

    An index that is not an int is converted or refused by `_integer_entry`.
    """
    rank, checked = spec.rank, []
    for i in word:
        if type(i) is not int:
            i = _integer_entry(i, "reflection index")
        if not 0 <= i <= rank:
            raise ConfigurationError(f"reflection index {i} out of range 0..{rank}")
        checked.append(i)
    labels, grade = _kernel(spec).replay(*spec.affine_labels(w), w.grade, checked)
    image = _new(AffineWeight)
    _set_labels(image, labels[1:])
    _set_level(image, w.level)
    _set_grade(image, grade)
    return image


def to_dominant(spec: AlgebraSpec, w: AffineWeight, *, give_up=None) -> WeylOutcome:
    """Reduce a positive-level weight to its dominant orbit representative.

    The kernel computes lambda_0 = level - sum(comark_i * label_i) from the
    stored labels and reduces; the outcome holds the reduced labels, and
    no `AffineWeight` is built unless the caller reads `dominant`.  The
    rank is checked only when the labels do not fit the kernel.

    `give_up(spec, w)`, if given, is asked once when the reduction has run
    ASK_AFTER reflections without finishing; when it holds, the reduction
    stops there and raises NonterminationError, as it does past the
    budget.
    """
    level = w.level
    if level <= 0:
        spec.check_rank(w)
        raise NonterminationError(f"to_dominant needs positive level, got {level}")
    kernel = _kernel(spec)
    limit = DEFAULT_STEP_LIMIT
    first = limit if give_up is None or limit <= ASK_AFTER else ASK_AFTER
    word: list[int] = []
    try:
        labels, grade = kernel.dominant(w.labels, level, w.grade, word, first)
    except ValueError:
        spec.check_rank(w)
        raise
    if len(word) >= first:
        if first == limit:
            raise NonterminationError(f"reduction exceeded {limit} steps")
        if give_up(spec, w):
            raise NonterminationError(f"reduction given up after {first} steps")
        labels, grade = kernel.reduce(*labels, grade, word, limit - first)
        if len(word) >= limit:
            raise NonterminationError(f"reduction exceeded {limit} steps")
    return _outcome((labels, level, grade, tuple(word)))

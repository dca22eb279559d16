"""Hypothesis evaluation: closed-world extensions, coverage counts against
the example set, accuracy/gain scoring, and a batch path that shares one
memo across a search's concepts.

An extension is computed over the rows of one of two row spaces
(``RowSpace``), and each space has its own representation:

- The full space: one row per individual, reading the class masks and pair
  arrays the kb module builds at materialization as they are. An extension
  is a numpy bool array. Role restrictions are computed from flat pair
  arrays: for a role with subject rows ``subs`` and object ids ``objs``, the
  rows with at least one filler in ``C`` are ``subs[child_mask[objs]]``, and
  qualified cardinalities fall out of ``np.bincount`` over the same
  selection. A filler of a top-level restriction is computed here unless
  it is ``Thing``, an atom, a negated atom or an intersection or union of
  such fillers, and so are ``covered_set``, an evaluation with
  ``keep_set`` and one given no ``Evaluator``. Every extension here
  goes through the module-level ``covered_set``.
- The example space of one (kb, examples) pair: one row per example. An
  extension is a Python int whose bit *i* is example row *i*. ``Thing`` is
  the all-ones int, an atom reads its mask restricted to the examples, a
  negated atom is ``all ^ mask``, intersections and unions are ``&`` and
  ``|``, and a count is ``(ext & positives).bit_count()``. A search only
  ever counts the examples, so a candidate is computed here, and each of its
  top-level operands too, anew each time. A role restriction here reads only
  the pairs whose subject is an example, laid out per role and inverse role
  as ``Chunks``: chunk *j* is an int whose bit *i* is example row *i*'s
  *j*-th successor, so a filler over those successors is one int per chunk,
  in example-row order like every other int here. An atom filler is gathered
  from its mask once per role; a negated atom, an intersection and a union
  of fillers are ``^``, ``&`` and ``|`` of their operands' chunks; any other
  filler is computed in the full space and gathered. Then ``some`` is the
  union of the chunks, ``only`` holds where no chunk has a successor outside
  the filler, and ``min n``/``max n`` count "at least n" bit-sliced across
  the chunks. The chunks go no deeper than keeps them at least half full of
  successors, less one chunk; a row with more successors is counted with one
  ``np.add.reduceat`` over its own pairs and ORed in, so the layout holds at
  most twice the pairs plus the rows. Over a role with no such pair every
  count is 0, so the answer is the same on every row, and the filler is
  never computed. A concrete-role result is a bool array over the rows, made
  an int once with ``np.packbits``.

A search evaluates many concepts that share operands and fillers: the
operands of its unions and intersections, the fillers of its role
restrictions. Each memo below maps a canonical sort key rather than the
64-bit hash, so a hash collision can never hand one concept another's
result, and each entry is bit for bit what is computed without it. The
check sits at each operand and filler, so nested ones hit it too.

- The full-space memo is the dict passed as ``memo`` to ``covered_set``, or
  an ``Evaluator``'s ``memo``. The sort key of an operand or filler computed
  in the full space maps to its extension over all individuals as an
  ``np.packbits`` array, an eighth of a bool array's size. A hit returns a
  freshly unpacked bool array, because callers combine operands in place. A
  miss recurses through ``covered_set``, which is handed the full space
  rather than building another. On ``synth-wide`` (28k individuals) it ends
  a search with 104 entries, 0.37 MB.
- ``RowSpace.counts`` of the example space: ``(inverse, role_id, sort key
  of the filler)`` maps to the filler's chunk ints over that role's
  successors, a bool array over its heavy rows' pairs and each heavy row's
  count, or None and None. Every ``some``/``only``/``min``/``max`` over
  that role and filler reads the one entry, and so does every filler with
  it as an operand. On ``synth-wide`` it ends a search with 882 entries,
  1.2 MB.
- What is stored: the full-space memo holds only operands and fillers whose
  own computation does more than read a stored mask. The concept evaluated
  is never stored, because each one is evaluated once per search;
  ``Thing``, atoms and negated atoms are never stored there, because
  reading their mask is as cheap as reading an entry. The counts memo
  stores every filler, since even an atom's chunks take a gather. A
  top-level operand of the example space is not stored at all: its
  fillers are, so a restriction costs one counts hit and a few int
  operations, about what a lookup on its sort key would cost.

An ``Evaluator`` holds the two memos and the example space (``space``)
of one (kb, examples) pair, and counts concepts there. Each holder of a pair
builds one and keeps it while it holds the pair, so no cache outlives it:
``LocalExpander`` for a local run and for each KB_TRANSFER a worker takes,
the cluster master's expander, and ``dlbeam stats``. ``evaluate`` refuses
an ``Evaluator`` built for another kb or example set with ``ValueError``:
its space would count the other set's examples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import and_, or_, xor

import numpy as np

from .concept import (And, Atomic, BoolEq, Concept, Exists, Forall, MaxCard,
                      MinCard, NotAtomic, NumGeq, NumLeq, Or, StrEq, Top,
                      sort_key)
from .kb import ExampleSet, KbError, KnowledgeBase

__all__ = [
    "CoverageResult",
    "Score",
    "GAIN_BONUS",
    "EXPANSION_PENALTY",
    "Evaluator",
    "RowSpace",
    "Chunks",
    "covered_set",
    "evaluate",
    "evaluate_batch",
    "dominated_union",
    "accuracy",
    "score",
    "weak_threshold",
]


@dataclass
class CoverageResult:
    pos_covered: int
    neg_covered: int
    covered: np.ndarray | None = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoverageResult):
            return NotImplemented
        if (self.pos_covered, self.neg_covered) != (other.pos_covered, other.neg_covered):
            return False
        if self.covered is None or other.covered is None:
            return (self.covered is None) == (other.covered is None)
        return np.array_equal(self.covered, other.covered)


@dataclass(frozen=True)
class Score:
    accuracy: float
    value: float


# The weights of a score shaped as DL-Learner's (Lehmann & Hitzler 2010):
# the share of the gain in accuracy over the parent that is added, and what
# each unit of the node's length costs.
GAIN_BONUS = 0.5
EXPANSION_PENALTY = 0.02


@dataclass(eq=False, slots=True)
class RowSpace:
    """The rows an extension is computed over, and what it reads there.

    ``ids`` is None in the full space, whose rows are the individual ids,
    whose arrays are the KB's own and whose ``masks`` are its bool class
    masks. In the example space ``ids`` holds the individual id of each row,
    ``masks`` holds each class mask restricted to the rows as an int (bit
    *i* is row *i*), and the role and concrete-role pairs are those whose
    subject is a row, with that subject given as its row. A role pair's
    object stays an individual id, because a filler is always computed over
    all individuals.

    ``roles[inverse]`` is a (subjects, objects) pair of per-role lists, so a
    role expression's pairs are at its ``role_id`` in both; ``nums``,
    ``bools`` and ``strs`` are (subjects, values) pairs of per-role lists.
    Only the example space has the rest: ``top``, the all-ones int;
    ``positives`` and ``negatives`` as ints; the memo ``counts`` (see the
    module docstring); ``full``, the full space its fillers' nested
    restrictions are computed in; and
    ``chunks[inverse][role_id]``, the role's ``Chunks``, or None where no
    example is the subject of a pair.
    """

    ids: np.ndarray | None
    size: int
    masks: list
    roles: tuple[tuple[list, list], tuple[list, list]]
    nums: tuple[list, list]
    bools: tuple[list, list]
    strs: tuple[list, list]
    top: int = 0
    positives: int = 0
    negatives: int = 0
    counts: dict | None = None
    full: "RowSpace | None" = None
    chunks: tuple[list, list] | None = None


def _full_space(kb: KnowledgeBase) -> RowSpace:
    if not kb.materialized:
        raise KbError("evaluation requires a materialized knowledge base")
    return RowSpace(None, kb.num_individuals, kb.member_masks,
                    ((kb.role_subs, kb.role_objs), (kb.role_objs, kb.role_subs)),
                    (kb.num_subs, kb.num_vals), (kb.bool_subs, kb.bool_vals),
                    (kb.str_subs, kb.str_vals))


def _bits(a: np.ndarray) -> int:
    """A bool array as an int whose bit i is ``a[i]``."""
    return int.from_bytes(np.packbits(a, bitorder="little").tobytes(), "little")


@dataclass(eq=False, slots=True)
class Chunks:
    """One role's pairs whose subject is an example row, laid out for
    counting each row's successors in a filler with int bit operations.

    Chunk *j* has bit *i* for example row *i*'s *j*-th successor, in the
    order of the KB's pairs. ``ids[j, i]`` is the individual id of that
    successor, and ``present[j]`` the rows that have one; a row without
    reads id 0, which ``present[j]`` masks off. The number of chunks, the
    depth, is the largest *d* for which *d* chunks hold no more ids than
    twice the successors of the rows of at most *d*, plus one chunk. So
    ``ids`` holds at most 2 * pairs + rows ids, and a heavy tail cannot
    make the chunks mostly padding. ``light`` holds the rows of at most
    depth successors, those of none too. The rest, ``heavy_rows`` in
    ascending order, are counted outside the chunks over their own pairs:
    ``heavy_objs`` holds their objects row by row, ``heavy_starts`` where
    each row's begin, and ``heavy_degree`` how many each row has. ``most``
    is the largest degree.
    """

    ids: np.ndarray
    present: tuple[int, ...]
    light: int
    heavy_rows: np.ndarray
    heavy_starts: np.ndarray
    heavy_objs: np.ndarray
    heavy_degree: np.ndarray
    most: int


def _chunks(subs: np.ndarray, objs: np.ndarray, n: int) -> Chunks | None:
    """The ``Chunks`` of one role's pairs (row ``subs``, individual
    ``objs``) over ``n`` rows, or None when it has none."""
    if not len(subs):
        return None
    degree = np.bincount(subs, minlength=n)
    most = int(degree.max())
    # The deepest d chunks that hold at most twice the successors of the
    # rows of degree <= d, plus one chunk (see ``Chunks``).
    per_degree = np.bincount(degree)  # rows of each degree 0..most
    d = np.arange(most + 1)
    depth = int(np.flatnonzero(d * n <= 2 * np.cumsum(d * per_degree) + n)[-1])
    order = np.argsort(subs, kind="stable")
    rows, objs = subs[order], objs[order]
    rank = np.arange(len(rows)) - (np.cumsum(degree) - degree)[rows]
    in_chunks = degree[rows] <= depth
    ids = np.zeros((depth, n), dtype=np.intp)
    ids[rank[in_chunks], rows[in_chunks]] = objs[in_chunks]
    light = degree <= depth
    heavy_rows = np.flatnonzero(~light)
    heavy_degree = degree[heavy_rows]
    return Chunks(ids, tuple(_bits(light & (degree > j)) for j in range(depth)),
                  _bits(light), heavy_rows,
                  np.cumsum(heavy_degree) - heavy_degree, objs[~in_chunks],
                  heavy_degree, most)


def _example_space(kb: KnowledgeBase, examples: ExampleSet) -> RowSpace:
    full = _full_space(kb)
    ids = np.flatnonzero(examples.positives | examples.negatives)
    n = len(ids)
    row_of = np.full(kb.num_individuals, -1, dtype=np.intp)
    row_of[ids] = np.arange(n)

    def restrict(subs_list, others_list):
        """Per role, the pairs whose subject is a row, subject as its row."""
        subs_out, others_out = [], []
        for subs, others in zip(subs_list, others_list):
            rows = row_of[subs]
            keep = rows >= 0
            subs_out.append(np.compress(keep, rows))
            others_out.append(np.compress(keep, others))
        return subs_out, others_out

    roles = (restrict(kb.role_subs, kb.role_objs),
             restrict(kb.role_objs, kb.role_subs))
    return RowSpace(ids, n, [_bits(m[ids]) for m in kb.member_masks], roles,
                    restrict(kb.num_subs, kb.num_vals),
                    restrict(kb.bool_subs, kb.bool_vals),
                    restrict(kb.str_subs, kb.str_vals),
                    top=(1 << n) - 1,
                    positives=_bits(examples.positives[ids]),
                    negatives=_bits(examples.negatives[ids]),
                    counts={}, full=full,
                    chunks=tuple([_chunks(subs, objs, n)
                                  for subs, objs in zip(*pairs)]
                                 for pairs in roles))


class Evaluator:
    """Evaluation of concepts against ``examples`` over ``kb``: ``memo`` is
    the full-space memo, ``space`` the example space, which holds its own
    memo ``counts`` (see the module docstring)."""

    __slots__ = ("kb", "examples", "memo", "space")

    def __init__(self, kb: KnowledgeBase, examples: ExampleSet):
        self.kb, self.examples = kb, examples
        self.memo: dict = {}
        self.space = _example_space(kb, examples)

    def count(self, c: Concept) -> CoverageResult:
        """Covered positives and negatives of ``c``."""
        bits, space = _row_extension(c, self), self.space
        return CoverageResult((bits & space.positives).bit_count(),
                              (bits & space.negatives).bit_count())


# Concepts whose extension is a stored mask, read or inverted: never memoized.
_MASK_READS = (Top, Atomic, NotAtomic)


def _operand(c: Concept, kb: KnowledgeBase, full: RowSpace,
             memo: dict | None) -> np.ndarray:
    """Extension of the operand or filler ``c`` over all individuals,
    through the full-space ``memo``."""
    if memo is None or type(c) in _MASK_READS:
        return covered_set(c, kb, memo, full)
    key = sort_key(c)
    packed = memo.get(key)
    if packed is not None:
        return np.unpackbits(packed, count=full.size).view(bool)
    out = covered_set(c, kb, memo, full)
    memo[key] = np.packbits(out)
    return out


def _extension(c: Concept, kb: KnowledgeBase, full: RowSpace,
               memo: dict | None) -> np.ndarray:
    """Closed-world extension of ``c`` as a bool array over all individuals."""
    n = full.size
    if isinstance(c, Top):
        return np.ones(n, dtype=bool)
    if isinstance(c, Atomic):
        return full.masks[c.class_id].copy()
    if isinstance(c, NotAtomic):
        return ~full.masks[c.class_id]
    if isinstance(c, (Exists, Forall, MinCard, MaxCard)):
        subs_list, objs_list = full.roles[c.role.inverse]
        subs = subs_list[c.role.role_id]
        # With no pair the answer is the same on every row, and the filler
        # is never computed.
        if len(subs):
            objs = objs_list[c.role.role_id]
            child = _operand(c.child, kb, full, memo)[objs]
            # Vacuous satisfaction: no fillers means Forall holds.
            subs = np.compress(~child if isinstance(c, Forall) else child, subs)
        if isinstance(c, Exists):
            out = np.zeros(n, dtype=bool)
            out[subs] = True
            return out
        if isinstance(c, Forall):
            out = np.ones(n, dtype=bool)
            out[subs] = False
            return out
        counts = np.bincount(subs, minlength=n)
        if isinstance(c, MinCard):
            return counts >= c.n
        return counts <= c.n
    if isinstance(c, And):
        out = _operand(c.children[0], kb, full, memo)
        for ch in c.children[1:]:
            out &= _operand(ch, kb, full, memo)
        return out
    if isinstance(c, Or):
        out = _operand(c.children[0], kb, full, memo)
        for ch in c.children[1:]:
            out |= _operand(ch, kb, full, memo)
        return out
    return _concrete(c, full)


def _concrete(c: Concept, space: RowSpace) -> np.ndarray:
    """Extension of a concrete-role restriction as a bool array over
    ``space``'s rows."""
    if isinstance(c, BoolEq):
        subs, vals = space.bools
        sel = vals[c.role_id] == c.value
    elif isinstance(c, NumGeq):
        subs, vals = space.nums
        sel = vals[c.role_id] >= c.value
    elif isinstance(c, NumLeq):
        subs, vals = space.nums
        sel = vals[c.role_id] <= c.value
    elif isinstance(c, StrEq):
        subs, vals = space.strs
        sel = vals[c.role_id] == c.value_index
    else:
        raise TypeError(f"not a concept: {c!r}")
    # ANY-assertion reading: one matching value suffices.
    out = np.zeros(space.size, dtype=bool)
    out[np.compress(sel, subs[c.role_id])] = True
    return out


def _filler(c: Concept, ev: Evaluator, inverse: bool, rid: int, chunks: Chunks
            ) -> tuple[tuple[int, ...], np.ndarray | None, np.ndarray | None]:
    """Which successors in ``chunks`` (those of role ``rid``, or its
    inverse) are in the filler ``c``: one int per chunk; a bool array over
    the heavy rows' pairs and each heavy row's count of them, or None and
    None when there is no heavy row. Every filler goes through the example
    space's counts memo. ``Thing`` holds every successor, an atom is
    gathered from its mask, and a negated atom, an intersection and a union
    are int and array operations on what their operands hold; any other
    filler is computed over all individuals and gathered."""
    key = (inverse, rid, sort_key(c))
    memo = ev.space.counts
    hit = memo.get(key)
    if hit is not None:
        return hit
    t = type(c)
    heavy = len(chunks.heavy_rows) > 0
    found = None
    if t is Top:
        bits = chunks.present
        if heavy:
            found = np.ones(len(chunks.heavy_objs), dtype=bool)
    elif t is NotAtomic:
        bits, found, _ = _filler(Atomic(c.class_id), ev, inverse, rid, chunks)
        bits = tuple(map(xor, chunks.present, bits))
        if heavy:
            found = ~found
    elif t is And or t is Or:
        op, array_op = (and_, np.logical_and) if t is And else (or_, np.logical_or)
        bits, found, _ = _filler(c.children[0], ev, inverse, rid, chunks)
        for ch in c.children[1:]:
            more, more_found, _ = _filler(ch, ev, inverse, rid, chunks)
            bits = tuple(map(op, bits, more))
            if heavy:
                found = array_op(found, more_found)
    else:
        full_space = ev.space.full
        full = (full_space.masks[c.class_id] if t is Atomic
                else _operand(c, ev.kb, full_space, ev.memo))
        packed = np.packbits(full.take(chunks.ids), axis=1, bitorder="little")
        bits = tuple(int.from_bytes(row.tobytes(), "little") & present
                     for row, present in zip(packed, chunks.present))
        if heavy:
            found = full.take(chunks.heavy_objs)
    # Each heavy row's pairs are a run of ``found``, none of them empty.
    count = (np.add.reduceat(found.view(np.uint8), chunks.heavy_starts,
                             dtype=np.intp) if heavy else None)
    out = memo[key] = bits, found, count
    return out


def _at_least(bits: tuple[int, ...], n: int) -> int:
    """The rows whose bit is set in at least ``n`` >= 1 of ``bits``."""
    if n == 1:
        return reduce(or_, bits, 0)
    if n > len(bits):
        return 0
    # have[k]: the rows set in at least k of the ints read so far. After
    # int j, only the k from which n is still in reach are kept up.
    have = [-1] + [0] * n
    rest = len(bits)
    for j, b in enumerate(bits):
        rest -= 1
        for k in range(min(n, j + 1), max(0, n - rest - 1), -1):
            have[k] |= have[k - 1] & b
    return have[n]


def _restriction(c: Exists | Forall | MinCard | MaxCard,
                 ev: Evaluator) -> int:
    """Extension of a top-level role restriction over the example rows,
    read off the chunks of its role and filler: ``some`` is their union,
    ``only`` holds where no chunk has a successor outside the filler, and
    ``min n``/``max n`` count bit-sliced across the chunks. The heavy rows'
    counts are compared as numbers and ORed in."""
    t, space = type(c), ev.space
    inverse, rid = c.role.inverse, c.role.role_id
    chunks = space.chunks[inverse][rid]
    # With no pair every count is 0, and the filler is never computed.
    if chunks is None:
        return 0 if t is Exists or t is MinCard else space.top
    bits, _, count = _filler(c.child, ev, inverse, rid, chunks)
    if t is Exists:
        out = _at_least(bits, 1)
    elif t is MinCard:
        out = _at_least(bits, c.n)
    elif t is MaxCard:
        out = chunks.light ^ _at_least(bits, c.n + 1)
    else:
        outside = 0
        for present, b in zip(chunks.present, bits):
            outside |= present ^ b
        out = chunks.light ^ outside
    if count is None:
        return out
    if t is Exists:
        holds = count > 0
    elif t is MinCard:
        holds = count >= c.n
    elif t is MaxCard:
        holds = count <= c.n
    else:
        holds = count == chunks.heavy_degree
    rows = np.zeros(space.size, dtype=bool)
    rows[chunks.heavy_rows] = holds
    return out | _bits(rows)


def _row_extension(c: Concept, ev: Evaluator) -> int:
    """Closed-world extension of ``c`` over the example rows, as an int
    whose bit i is row i. Operands are computed here, the fillers of role
    restrictions over their role's chunks (``_filler``)."""
    t, space = type(c), ev.space
    if t is Atomic:
        return space.masks[c.class_id]
    if t is NotAtomic:
        return space.top ^ space.masks[c.class_id]
    if t is Top:
        return space.top
    if t is And:
        out = space.top
        for ch in c.children:
            out &= _row_extension(ch, ev)
        return out
    if t is Or:
        out = 0
        for ch in c.children:
            out |= _row_extension(ch, ev)
        return out
    if t is Exists or t is Forall or t is MinCard or t is MaxCard:
        return _restriction(c, ev)
    return _bits(_concrete(c, space))


def covered_set(c: Concept, kb: KnowledgeBase, memo: dict | None = None,
                full: RowSpace | None = None) -> np.ndarray:
    """Closed-world extension of ``c`` as a bool array over individual ids.

    ``memo`` holds operand and filler extensions of one search on ``kb``
    (see the module docstring); ``c``'s own extension is never stored in it.
    ``full`` is ``kb``'s full space, which a caller that has one passes down
    so that a filler miss does not build another.
    """
    return _extension(c, kb, _full_space(kb) if full is None else full, memo)


def evaluate(c: Concept, kb: KnowledgeBase, examples: ExampleSet,
             keep_set: bool = False, memo: dict | None = None) -> CoverageResult:
    """Covered positives and negatives of ``c``, and its extension over all
    individuals if ``keep_set``. ``memo`` may be an ``Evaluator``, which
    must be the one built for (kb, examples) or ValueError is raised; it
    counts in its example space, and with ``keep_set`` computes in the full
    one through its full-space memo. Any other memo is a full-space memo."""
    if isinstance(memo, Evaluator):
        if memo.kb is not kb or memo.examples is not examples:
            raise ValueError("an Evaluator evaluates only against the kb and "
                             "examples it was built for")
        if not keep_set:
            return memo.count(c)
        memo = memo.memo
    cov = covered_set(c, kb, memo)
    return CoverageResult(int(np.count_nonzero(cov & examples.positives)),
                          int(np.count_nonzero(cov & examples.negatives)),
                          cov if keep_set else None)


def evaluate_batch(cs: list[Concept], kb: KnowledgeBase, examples: ExampleSet,
                   keep_sets: bool = False,
                   memo: dict | None = None) -> list[CoverageResult]:
    """evaluate() each concept in order; result[i] is the same with or
    without ``memo``."""
    return [evaluate(c, kb, examples, keep_sets, memo) for c in cs]


def dominated_union(c: Concept, ev: Evaluator) -> bool:
    """Whether ``c`` is a union with a top-level operand that covers no
    positive example of ``ev``'s examples. Each operand is computed over the
    example rows, its fillers read from the counts memo where evaluating
    ``c`` with ``ev`` has left them."""
    if type(c) is not Or:
        return False
    positives = ev.space.positives
    return any(not _row_extension(ch, ev) & positives for ch in c.children)


def accuracy(cov: CoverageResult, examples: ExampleSet) -> float:
    """The share of the examples ``cov`` classifies right: the positives it
    covers and the negatives it does not."""
    npos, nneg = examples.pos_count, examples.neg_count
    return (cov.pos_covered + (nneg - cov.neg_covered)) / (npos + nneg)


def score(cov: CoverageResult, parent_accuracy: float | None, he: int,
          examples: ExampleSet) -> Score:
    """accuracy + gain bonus over the parent, minus the expansion penalty."""
    acc = accuracy(cov, examples)
    gain = 0.0 if parent_accuracy is None else max(0.0, acc - parent_accuracy)
    return Score(acc, acc + GAIN_BONUS * gain - EXPANSION_PENALTY * he)


def weak_threshold(examples: ExampleSet, noise: float) -> int:
    """The fewest covered positives that can still reach the noise-adjusted
    target; a concept that covers fewer is weak."""
    if not 0.0 <= noise < 1.0:
        raise ValueError(f"noise must be in [0, 1), got {noise}")
    return math.ceil((1.0 - noise) * examples.pos_count)

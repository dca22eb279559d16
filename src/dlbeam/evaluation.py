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
  selection. Fillers are always computed here, and so are ``covered_set``,
  an evaluation with ``keep_set`` and one given no ``ExtensionMemo``. Every
  extension here goes through the module-level ``covered_set``.
- The example space of one (kb, examples) pair: one row per example. An
  extension is a Python int whose bit *i* is example row *i*. ``Thing`` is
  the all-ones int, an atom reads its mask restricted to the examples, a
  negated atom is ``all ^ mask``, intersections and unions are ``&`` and
  ``|``, and a count is ``(ext & positives).bit_count()``. A search only
  ever counts the examples, so a candidate is computed here, and each of
  its top-level operands too. A role restriction here reads only the pairs
  whose subject is an example, through the count of each row's successors
  in the filler: ``some`` is ``count > 0``, ``min n`` is ``count >= n``,
  ``max n`` is ``count <= n`` and ``only`` is ``count == degree``, the
  row's number of successors. Over a role with no such pair every count is
  0, so the answer is the same on every row, and the filler is never
  computed. A restriction or concrete-role result is a bool array over the
  rows, made an int once with ``np.packbits``. The counts are column sums
  of the filler read through the role's successor blocks
  (``RowSpace.blocks``): the rows of one degree *d* form one (d, rows)
  block whose columns hold their successors, so a sum over a block's first
  axis counts its rows, with no padding and one block per distinct degree.

A search evaluates many concepts that share operands and fillers: the
operands of its unions and intersections, the fillers of its role
restrictions. Each memo below maps a canonical sort key rather than the
64-bit hash, so a hash collision can never hand one concept another's
result, and each entry is bit for bit what is computed without it. The
check sits at each operand and filler, so nested ones hit it too.

- The full-space memo is the dict passed as ``memo``; an ``ExtensionMemo``
  is such a dict that also holds the example space. The sort key of an
  operand or filler computed in the full space maps to its extension over
  all individuals as an ``np.packbits`` array, an eighth of a bool array's
  size. A hit returns a freshly unpacked bool array, because callers
  combine operands in place. A miss recurses through ``covered_set``, which
  is handed the full space rather than building another. On ``synth-wide``
  (28k individuals) it ends a search with 442 entries, 1.6 MB.
- ``RowSpace.table`` of the example space: the sort key of a top-level
  operand maps to its int over the example rows. Ints are immutable, so a
  hit is returned as it is. On ``synth-wide`` (4,000 examples) it ends a
  search with 122 entries, 63 kB. ``dominated_union`` reads a union's
  operands back from it after the union is evaluated.
- ``RowSpace.counts`` of the example space: ``(inverse, role_id, sort key
  of the filler)`` maps to the count of each row's successors in the
  filler, a numpy array in the dtype of the role's degrees
  (``RowSpace.degrees``), the smallest unsigned one that holds the role's
  largest degree. Every ``some``/``only``/``min``/``max`` over that role and
  filler reads the one entry. On ``synth-wide`` it ends a search with 876
  entries, 3.5 MB as ``uint8``.
- What is stored: the full-space memo and the table hold only operands and
  fillers whose own computation does more than read a stored mask. The
  concept evaluated is never stored, because each one is evaluated once per
  search; ``Thing``, atoms and negated atoms are never stored, because
  reading their mask is as cheap as reading an entry.
- A memo lives exactly as long as one search: ``LocalExpander`` creates an
  ``ExtensionMemo`` for a local run and for a worker's state of each
  ``KB_TRANSFER``, and the worker probe creates one of its own. It holds
  extensions of one KB and must not be passed with another. Its example
  space belongs to one (kb, examples) pair, and a call with other objects
  builds a new one, with an empty table and counts. No cache outlives its
  search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .concept import (And, Atomic, BoolEq, Concept, Exists, Forall, MaxCard,
                      MinCard, NotAtomic, NumGeq, NumLeq, Or, StrEq, Top,
                      sort_key)
from .kb import ExampleSet, KbError, KnowledgeBase

__all__ = [
    "CoverageResult",
    "Score",
    "EvalConfig",
    "ExtensionMemo",
    "RowSpace",
    "covered_set",
    "evaluate",
    "evaluate_batch",
    "dominated_union",
    "score",
    "is_weak",
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


@dataclass(frozen=True)
class EvalConfig:
    gain_bonus: float = 0.5
    expansion_penalty: float = 0.02

    def __post_init__(self):
        # A non-finite weight would make every score of a search NaN or
        # infinite, so a finite score is an invariant the cluster relies on.
        for name in ("gain_bonus", "expansion_penalty"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, "
                                 f"got {getattr(self, name)}")


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
    ``positives`` and ``negatives`` as ints; ``degrees[inverse][role_id]``,
    each row's number of pairs, in the smallest unsigned dtype that holds
    the largest; the memos ``table`` and ``counts`` (see the module
    docstring); ``full``, the full space its fillers are computed in; and
    ``blocks[inverse][role_id]``, the role's pairs laid out by
    ``_successor_blocks``.
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
    degrees: tuple[list, list] | None = None
    table: dict | None = None
    counts: dict | None = None
    full: "RowSpace | None" = None
    blocks: tuple[list, list] | None = None


def _full_space(kb: KnowledgeBase) -> RowSpace:
    return RowSpace(None, kb.num_individuals, kb.member_masks,
                    ((kb.role_subs, kb.role_objs), (kb.role_objs, kb.role_subs)),
                    (kb.num_subs, kb.num_vals), (kb.bool_subs, kb.bool_vals),
                    (kb.str_subs, kb.str_vals))


def _bits(a: np.ndarray) -> int:
    """A bool array as an int whose bit i is ``a[i]``."""
    return int.from_bytes(np.packbits(a, bitorder="little").tobytes(), "little")


def _degrees(subs: np.ndarray, n: int) -> np.ndarray:
    """Each of ``n`` rows' number of pairs, in the smallest unsigned dtype
    that holds the largest."""
    degree = np.bincount(subs, minlength=n)
    return degree.astype(np.min_scalar_type(degree.max(initial=0)))


def _successor_blocks(subs: np.ndarray, objs: np.ndarray, degree: np.ndarray
                      ) -> tuple[np.ndarray, list[tuple[int, int]],
                                 np.ndarray] | None:
    """One role's pairs (row ``subs``, individual ``objs``) laid out for
    counting, or None when it has none. The rows are put in order of falling
    degree, and the rows of each degree *d* > 0 form a (d, rows) block whose
    column *j* holds the successors of its *j*-th row. Returns the ids of
    every block, flat and in order, each block's shape, and each row's place
    in that order."""
    if not len(subs):
        return None
    by_row = objs[np.argsort(subs, kind="stable")]
    first = np.cumsum(degree, dtype=np.intp) - degree
    rows = np.argsort(degree, kind="stable")[::-1]
    sizes = degree[rows]
    ids, shapes = [], []
    for group in np.split(rows, np.flatnonzero(sizes[1:] != sizes[:-1]) + 1):
        d = int(degree[group[0]])
        if d:
            ids.append(by_row[first[group] + np.arange(d)[:, None]].ravel())
            shapes.append((d, len(group)))
    place = np.empty_like(rows)
    place[rows] = np.arange(len(rows))
    return np.concatenate(ids), shapes, place


def _block_sums(blocks: tuple[np.ndarray, list[tuple[int, int]], np.ndarray],
                filler: np.ndarray, degree: np.ndarray) -> np.ndarray:
    """Each row's count of successors in ``filler``, a bool array over all
    individuals, summed over one role's ``_successor_blocks`` in the dtype
    of its ``degree``."""
    ids, shapes, place = blocks
    found = filler.view(np.uint8).take(ids)
    sums = np.zeros(len(place), degree.dtype)
    at = row = 0
    for d, rows in shapes:
        np.add.reduce(found[at:at + d * rows].reshape(d, rows), axis=0,
                      out=sums[row:row + rows])
        at += d * rows
        row += rows
    return sums.take(place)


def _example_space(kb: KnowledgeBase, examples: ExampleSet) -> RowSpace:
    if not kb.materialized:
        raise KbError("evaluation requires a materialized knowledge base")
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
    degrees = tuple([_degrees(subs, n) for subs in subs_list]
                    for subs_list, _ in roles)
    return RowSpace(ids, n, [_bits(m[ids]) for m in kb.member_masks], roles,
                    restrict(kb.num_subs, kb.num_vals),
                    restrict(kb.bool_subs, kb.bool_vals),
                    restrict(kb.str_subs, kb.str_vals),
                    top=(1 << n) - 1,
                    positives=_bits(examples.positives[ids]),
                    negatives=_bits(examples.negatives[ids]),
                    degrees=degrees, table={}, counts={}, full=_full_space(kb),
                    blocks=tuple(list(map(_successor_blocks, *pairs, degree))
                                 for pairs, degree in zip(roles, degrees)))


class ExtensionMemo(dict):
    """One search's memos: the sort key of a strict sub-concept maps to its
    packed extension over all individuals, and ``rows`` hands out the
    example space of the (kb, examples) pair it was last called with, which
    holds the example space's own memos ``table`` and ``counts``."""

    __slots__ = ("_rows",)

    def __init__(self):
        super().__init__()
        self._rows = (None, None, None)

    def rows(self, kb: KnowledgeBase, examples: ExampleSet) -> RowSpace:
        """The example space of (kb, examples); a new one for other objects."""
        owner_kb, owner_examples, space = self._rows
        if owner_kb is not kb or owner_examples is not examples:
            space = _example_space(kb, examples)
            self._rows = (kb, examples, space)
        return space


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


def _row_operand(c: Concept, kb: KnowledgeBase, space: RowSpace,
                 memo: dict) -> int:
    """Extension of the top-level operand ``c`` over the example rows,
    through the space's table."""
    if type(c) in _MASK_READS:
        return _row_extension(c, kb, space, memo)
    key = sort_key(c)
    bits = space.table.get(key)
    if bits is None:
        bits = space.table[key] = _row_extension(c, kb, space, memo)
    return bits


def _successors(c: Exists | Forall | MinCard | MaxCard, kb: KnowledgeBase,
                space: RowSpace, memo: dict) -> tuple[np.ndarray, np.ndarray]:
    """Each example row's count of ``c.role`` successors in ``c.child``, and
    its count of all of them, through the space's counts memo."""
    inverse, rid = c.role.inverse, c.role.role_id
    degree = space.degrees[inverse][rid]
    blocks = space.blocks[inverse][rid]
    # With no pair every count is 0, and the filler is never computed.
    if blocks is None:
        return degree, degree
    key = (inverse, rid, sort_key(c.child))
    count = space.counts.get(key)
    if count is None:
        filler = _operand(c.child, kb, space.full, memo)
        count = space.counts[key] = _block_sums(blocks, filler, degree)
    return count, degree


def _row_extension(c: Concept, kb: KnowledgeBase, space: RowSpace,
                   memo: dict) -> int:
    """Closed-world extension of ``c`` over the example rows, as an int
    whose bit i is row i. Operands are computed here, fillers in the full
    space."""
    t = type(c)
    if t is Atomic:
        return space.masks[c.class_id]
    if t is NotAtomic:
        return space.top ^ space.masks[c.class_id]
    if t is Top:
        return space.top
    if t is And:
        out = space.top
        for ch in c.children:
            out &= _row_operand(ch, kb, space, memo)
        return out
    if t is Or:
        out = 0
        for ch in c.children:
            out |= _row_operand(ch, kb, space, memo)
        return out
    if t is Exists:
        return _bits(_successors(c, kb, space, memo)[0] > 0)
    if t is MinCard:
        return _bits(_successors(c, kb, space, memo)[0] >= c.n)
    if t is MaxCard:
        return _bits(_successors(c, kb, space, memo)[0] <= c.n)
    if t is Forall:
        count, degree = _successors(c, kb, space, memo)
        return _bits(count == degree)
    return _bits(_concrete(c, space))


def covered_set(c: Concept, kb: KnowledgeBase, memo: dict | None = None,
                full: RowSpace | None = None) -> np.ndarray:
    """Closed-world extension of ``c`` as a bool array over individual ids.

    ``memo`` holds operand and filler extensions of one search on ``kb``
    (see the module docstring); ``c``'s own extension is never stored in it.
    ``full`` is ``kb``'s full space, which a caller that has one passes down
    so that a filler miss does not build another.
    """
    if full is None:
        if not kb.materialized:
            raise KbError("evaluation requires a materialized knowledge base")
        full = _full_space(kb)
    return _extension(c, kb, full, memo)


def evaluate(c: Concept, kb: KnowledgeBase, examples: ExampleSet,
             keep_set: bool = False, memo: dict | None = None) -> CoverageResult:
    """Covered positives and negatives of ``c``, and its extension over all
    individuals if ``keep_set``. An ``ExtensionMemo`` computes the counts in
    its example space; any other memo, and ``keep_set``, in the full one."""
    if keep_set or not isinstance(memo, ExtensionMemo):
        cov = covered_set(c, kb, memo)
        return CoverageResult(int(np.count_nonzero(cov & examples.positives)),
                              int(np.count_nonzero(cov & examples.negatives)),
                              cov if keep_set else None)
    space = memo.rows(kb, examples)
    bits = _row_extension(c, kb, space, memo)
    return CoverageResult((bits & space.positives).bit_count(),
                          (bits & space.negatives).bit_count())


def evaluate_batch(cs: list[Concept], kb: KnowledgeBase, examples: ExampleSet,
                   keep_sets: bool = False,
                   memo: dict | None = None) -> list[CoverageResult]:
    """evaluate() each concept in order; result[i] is the same with or
    without ``memo``."""
    return [evaluate(c, kb, examples, keep_sets, memo) for c in cs]


def dominated_union(c: Concept, kb: KnowledgeBase, examples: ExampleSet,
                    memo: ExtensionMemo) -> bool:
    """Whether ``c`` is a union with a top-level operand that covers no
    positive example. Each operand is read from the example space of
    ``memo``, where evaluating ``c`` with it has left the operand's
    extension, so nothing is computed again."""
    if type(c) is not Or:
        return False
    space = memo.rows(kb, examples)
    positives = space.positives
    return any(not _row_operand(ch, kb, space, memo) & positives
               for ch in c.children)


def score(cov: CoverageResult, parent_accuracy: float | None, he: int,
          examples: ExampleSet, cfg: EvalConfig = EvalConfig()) -> Score:
    """accuracy + gain bonus over the parent, minus the expansion penalty."""
    npos, nneg = examples.pos_count, examples.neg_count
    accuracy = (cov.pos_covered + (nneg - cov.neg_covered)) / (npos + nneg)
    gain = 0.0 if parent_accuracy is None else max(0.0, accuracy - parent_accuracy)
    value = accuracy + cfg.gain_bonus * gain - cfg.expansion_penalty * he
    return Score(accuracy, value)


def weak_threshold(examples: ExampleSet, noise: float) -> int:
    """The fewest covered positives that can still reach the noise-adjusted
    target; a concept that covers fewer is weak."""
    if not 0.0 <= noise < 1.0:
        raise ValueError(f"noise must be in [0, 1), got {noise}")
    return math.ceil((1.0 - noise) * examples.pos_count)


def is_weak(cov: CoverageResult, examples: ExampleSet, noise: float) -> bool:
    """Too few covered positives to ever reach the noise-adjusted target."""
    return cov.pos_covered < weak_threshold(examples, noise)

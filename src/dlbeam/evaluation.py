"""Hypothesis evaluation: closed-world extension as boolean arrays, coverage
counts against the example set, accuracy/gain scoring, and a batch path that
shares one memo across a search's concepts.

All set algebra runs on numpy bool arrays, one entry per row of a row space
(``RowSpace``), through one extension function, ``_extension``. Role
restrictions are computed from flat pair arrays: for a role with subject
rows ``subs`` and object ids ``objs``, the rows with at least one filler in
``C`` are ``subs[child_mask[objs]]``, and qualified cardinalities fall out
of ``np.bincount`` over the same selection.

There are two row spaces:

- The full space: one row per individual, reading the masks and pair
  arrays the kb module builds at materialization as they are. Fillers are
  always computed here, and so is ``covered_set``, an evaluation with
  ``keep_set``, and one given no ``ExtensionMemo``.
- The example space of one (kb, examples) pair: one row per example, the
  class masks restricted to those rows, and only the pairs whose subject is
  an example, with the subject given as its row. A search only ever counts
  the examples, so a candidate is computed here, and each of its top-level
  operands too. A top-level role restriction with no such pair has the same
  answer on every example, all true for ``only``/``max`` and all false for
  ``some``/``min``, and its filler is never computed.

A search evaluates many concepts that share operands and fillers: the
operands of its unions and intersections, the fillers of its role
restrictions. So each space has a memo that maps the canonical sort key of
a strict sub-concept to its extension over the space's rows, bit for bit
the one computed without a memo. The check sits inside ``_extension`` at
each operand and filler, so nested ones hit it too. A miss in the full
space recurses through the module-level ``covered_set``, which is handed the
space it was computing in rather than building another, and one in the
example space through ``_extension``. The key is the sort key rather than the
64-bit hash, so a hash collision can never hand one concept another's
extension.

- The full space's memo is the dict passed as ``memo``; an
  ``ExtensionMemo`` is such a dict that also holds the example space, whose
  own memo (``RowSpace.table``) stores the top-level operands. Neither
  holds anything but concept keys.
- What is stored: only the extensions of operands and fillers whose own
  computation does more than read a stored mask. The concept evaluated is
  never stored, because each one is evaluated once per search and storing
  them all would hold one extension per evaluated concept; ``Thing``,
  atoms and negated atoms are never stored, because copying or inverting
  their mask is cheaper than unpacking an entry.
- Entries are ``np.packbits`` arrays, an eighth of a bool array's size. A hit
  returns a freshly unpacked bool array, because callers combine operands
  in place.
- A memo lives exactly as long as one search: ``LocalExpander`` creates an
  ``ExtensionMemo`` for a local run and for a worker's state of each
  ``KB_TRANSFER``, and the worker probe creates one of its own. It holds
  extensions of one KB and must not be passed with another. Its example
  space belongs to one (kb, examples) pair, and a call with other objects
  builds a new one, with an empty table. No cache outlives its search.
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
    """The rows an extension is computed over, and the arrays it reads there.

    ``ids`` is None in the full space, whose rows are the individual ids and
    whose arrays are the KB's own. In the example space ``ids`` holds the
    individual id of each row, and every array is restricted to the rows:
    the class masks, and the role and concrete-role pairs whose subject is a
    row, with that subject given as its row. A role pair's object stays an
    individual id, because a filler is always computed over all individuals.

    ``roles[inverse]`` is a (subjects, objects) pair of per-role lists, so a
    role expression's pairs are at its ``role_id`` in both; ``nums``,
    ``bools`` and ``strs`` are (subjects, values) pairs of per-role lists.
    Only the example space has ``positives``, ``negatives``, its operand
    memo ``table`` and ``full``, the full space its fillers are computed in.
    """

    ids: np.ndarray | None
    size: int
    masks: list[np.ndarray]
    roles: tuple[tuple[list, list], tuple[list, list]]
    nums: tuple[list, list]
    bools: tuple[list, list]
    strs: tuple[list, list]
    positives: np.ndarray | None = None
    negatives: np.ndarray | None = None
    table: dict | None = None
    full: "RowSpace | None" = None


def _full_space(kb: KnowledgeBase) -> RowSpace:
    return RowSpace(None, kb.num_individuals, kb.member_masks,
                    ((kb.role_subs, kb.role_objs), (kb.role_objs, kb.role_subs)),
                    (kb.num_subs, kb.num_vals), (kb.bool_subs, kb.bool_vals),
                    (kb.str_subs, kb.str_vals))


def _example_space(kb: KnowledgeBase, examples: ExampleSet) -> RowSpace:
    if not kb.materialized:
        raise KbError("evaluation requires a materialized knowledge base")
    ids = np.flatnonzero(examples.positives | examples.negatives)
    row_of = np.full(kb.num_individuals, -1, dtype=np.intp)
    row_of[ids] = np.arange(len(ids))

    def restrict(subs_list, others_list):
        """Per role, the pairs whose subject is a row, subject as its row."""
        subs_out, others_out = [], []
        for subs, others in zip(subs_list, others_list):
            rows = row_of[subs]
            keep = rows >= 0
            subs_out.append(np.compress(keep, rows))
            others_out.append(np.compress(keep, others))
        return subs_out, others_out

    return RowSpace(ids, len(ids), [m[ids] for m in kb.member_masks],
                    (restrict(kb.role_subs, kb.role_objs),
                     restrict(kb.role_objs, kb.role_subs)),
                    restrict(kb.num_subs, kb.num_vals),
                    restrict(kb.bool_subs, kb.bool_vals),
                    restrict(kb.str_subs, kb.str_vals),
                    positives=examples.positives[ids],
                    negatives=examples.negatives[ids], table={},
                    full=_full_space(kb))


class ExtensionMemo(dict):
    """One search's memo: the sort key of a strict sub-concept maps to its
    packed extension over all individuals, and ``rows`` hands out the
    example space of the (kb, examples) pair it was last called with."""

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


# Concepts whose extension is a stored mask, copied or inverted: never memoized.
_MASK_READS = (Top, Atomic, NotAtomic)


def _operand(c: Concept, kb: KnowledgeBase, space: RowSpace,
             memo: dict | None) -> np.ndarray:
    """Extension of the operand or filler ``c`` over ``space``, through
    ``memo`` in the full space and through the space's table otherwise."""
    table = memo if space.ids is None else space.table
    if table is None or type(c) in _MASK_READS:
        return _computed(c, kb, space, memo)
    key = sort_key(c)
    packed = table.get(key)
    if packed is not None:
        return np.unpackbits(packed, count=space.size).view(bool)
    out = _computed(c, kb, space, memo)
    table[key] = np.packbits(out)
    return out


def _computed(c: Concept, kb: KnowledgeBase, space: RowSpace,
              memo: dict | None) -> np.ndarray:
    # A full-column extension goes through the module-level covered_set.
    if space.ids is None:
        return covered_set(c, kb, memo, space)
    return _extension(c, kb, space, memo)


def _extension(c: Concept, kb: KnowledgeBase, space: RowSpace,
               memo: dict | None) -> np.ndarray:
    """Closed-world extension of ``c`` as a bool array over ``space``'s rows.

    Operands are computed in ``space``, fillers in the full space.
    """
    n = space.size
    if isinstance(c, Top):
        return np.ones(n, dtype=bool)
    if isinstance(c, Atomic):
        return space.masks[c.class_id].copy()
    if isinstance(c, NotAtomic):
        return ~space.masks[c.class_id]
    if isinstance(c, (Exists, Forall, MinCard, MaxCard)):
        subs_list, objs_list = space.roles[c.role.inverse]
        subs = subs_list[c.role.role_id]
        # With no pair the answer is the same on every row, and the filler
        # is never computed.
        if len(subs):
            objs = objs_list[c.role.role_id]
            child = _operand(c.child, kb, space.full or space, memo)[objs]
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
        out = _operand(c.children[0], kb, space, memo)
        for ch in c.children[1:]:
            out &= _operand(ch, kb, space, memo)
        return out
    if isinstance(c, Or):
        out = _operand(c.children[0], kb, space, memo)
        for ch in c.children[1:]:
            out |= _operand(ch, kb, space, memo)
        return out
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
    out = np.zeros(n, dtype=bool)
    out[np.compress(sel, subs[c.role_id])] = True
    return out


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
        pos, neg = examples.positives, examples.negatives
    else:
        space = memo.rows(kb, examples)
        cov = _extension(c, kb, space, memo)
        pos, neg = space.positives, space.negatives
    return CoverageResult(int(np.count_nonzero(cov & pos)),
                          int(np.count_nonzero(cov & neg)),
                          cov if keep_set else None)


def evaluate_batch(cs: list[Concept], kb: KnowledgeBase, examples: ExampleSet,
                   keep_sets: bool = False,
                   memo: dict | None = None) -> list[CoverageResult]:
    """evaluate() each concept in order; result[i] is the same with or
    without ``memo``."""
    return [evaluate(c, kb, examples, keep_sets, memo) for c in cs]


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

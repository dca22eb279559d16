"""Hypothesis evaluation: closed-world extension as boolean arrays, coverage
counts against the example set, accuracy/gain scoring, and a batch path that
shares one memo across a search's concepts.

All set algebra runs on numpy bool arrays indexed by individual id. Role
restrictions are computed from the flat assertion arrays the kb module builds
at materialization: for a role with subject array ``subs`` and object array
``objs``, the individuals with at least one filler in ``C`` are
``subs[child_mask[objs]]``, and qualified cardinalities fall out of
``np.bincount`` over the same selection.

A search evaluates many concepts that share operands and fillers: the
operands of its unions and intersections, the fillers of its role
restrictions. So ``covered_set`` takes an optional memo, a plain dict that
maps the canonical sort key of a strict sub-concept to its extension, bit
for bit the one computed without a memo. The check sits inside
``covered_set`` at each operand and filler, so nested ones hit it too, and
a miss recurses through the module-level ``covered_set``. The key is the
sort key rather than the 64-bit hash, so a hash collision can never hand one
concept another's extension.

- What is stored: only the extensions of operands and fillers whose own
  computation does more than read a stored mask. The concept passed in is
  never stored, because each one is evaluated once per search and storing
  them all would hold one extension per evaluated concept; ``Thing``,
  atoms and negated atoms are never stored, because copying or inverting
  their mask is cheaper than unpacking an entry.
- Entries are ``np.packbits`` arrays, an eighth of a bool array's size. A hit
  returns a freshly unpacked bool array, because callers combine operands
  in place.
- A memo lives exactly as long as one search: ``run_search`` creates one,
  and a worker creates one with the state of each ``KB_TRANSFER`` (and one
  for its probe). It holds extensions of one KB and must not be passed with
  another. No cache outlives its search.
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
    "covered_set",
    "evaluate",
    "evaluate_batch",
    "score",
    "is_weak",
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


def _role_arrays(kb: KnowledgeBase, role) -> tuple[np.ndarray, np.ndarray]:
    subs, objs = kb.role_subs[role.role_id], kb.role_objs[role.role_id]
    if role.inverse:
        return objs, subs
    return subs, objs


# Concepts whose extension is a stored mask, copied or inverted: never memoized.
_MASK_READS = (Top, Atomic, NotAtomic)


def _operand(c: Concept, kb: KnowledgeBase, memo: dict | None) -> np.ndarray:
    """Extension of the operand or filler ``c``, through ``memo`` if given."""
    if memo is None or type(c) in _MASK_READS:
        return covered_set(c, kb, memo)
    key = sort_key(c)
    packed = memo.get(key)
    if packed is not None:
        return np.unpackbits(packed, count=kb.num_individuals).view(bool)
    out = covered_set(c, kb, memo)
    memo[key] = np.packbits(out)
    return out


def covered_set(c: Concept, kb: KnowledgeBase,
                memo: dict | None = None) -> np.ndarray:
    """Closed-world extension of ``c`` as a bool array over individual ids.

    ``memo`` holds operand and filler extensions of one search on ``kb``
    (see the module docstring); ``c``'s own extension is never stored in it.
    """
    if not kb.materialized:
        raise KbError("evaluation requires a materialized knowledge base")
    n = kb.num_individuals
    if isinstance(c, Top):
        return np.ones(n, dtype=bool)
    if isinstance(c, Atomic):
        return kb.member_masks[c.class_id].copy()
    if isinstance(c, NotAtomic):
        return ~kb.member_masks[c.class_id]
    if isinstance(c, Exists):
        child = _operand(c.child, kb, memo)
        subs, objs = _role_arrays(kb, c.role)
        out = np.zeros(n, dtype=bool)
        out[subs[child[objs]]] = True
        return out
    if isinstance(c, Forall):
        # Vacuous satisfaction: no fillers means the restriction holds.
        child = _operand(c.child, kb, memo)
        subs, objs = _role_arrays(kb, c.role)
        out = np.ones(n, dtype=bool)
        out[subs[~child[objs]]] = False
        return out
    if isinstance(c, (MinCard, MaxCard)):
        child = _operand(c.child, kb, memo)
        subs, objs = _role_arrays(kb, c.role)
        counts = np.bincount(subs[child[objs]], minlength=n)
        if isinstance(c, MinCard):
            return counts >= c.n
        return counts <= c.n
    if isinstance(c, BoolEq):
        subs = kb.bool_subs[c.role_id]
        out = np.zeros(n, dtype=bool)
        out[subs[kb.bool_vals[c.role_id] == c.value]] = True
        return out
    if isinstance(c, (NumGeq, NumLeq)):
        # ANY-assertion reading: one matching value suffices.
        subs = kb.num_subs[c.role_id]
        vals = kb.num_vals[c.role_id]
        sel = vals >= c.value if isinstance(c, NumGeq) else vals <= c.value
        out = np.zeros(n, dtype=bool)
        out[subs[sel]] = True
        return out
    if isinstance(c, StrEq):
        subs = kb.str_subs[c.role_id]
        out = np.zeros(n, dtype=bool)
        out[subs[kb.str_vals[c.role_id] == c.value_index]] = True
        return out
    if isinstance(c, And):
        out = _operand(c.children[0], kb, memo)
        for ch in c.children[1:]:
            out &= _operand(ch, kb, memo)
        return out
    if isinstance(c, Or):
        out = _operand(c.children[0], kb, memo)
        for ch in c.children[1:]:
            out |= _operand(ch, kb, memo)
        return out
    raise TypeError(f"not a concept: {c!r}")


def evaluate(c: Concept, kb: KnowledgeBase, examples: ExampleSet,
             keep_set: bool = False, memo: dict | None = None) -> CoverageResult:
    cov = covered_set(c, kb, memo)
    pos = int(np.count_nonzero(cov & examples.positives))
    neg = int(np.count_nonzero(cov & examples.negatives))
    return CoverageResult(pos, neg, cov if keep_set else None)


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


def is_weak(cov: CoverageResult, examples: ExampleSet, noise: float) -> bool:
    """Too few covered positives to ever reach the noise-adjusted target."""
    if not 0.0 <= noise < 1.0:
        raise ValueError(f"noise must be in [0, 1), got {noise}")
    return cov.pos_covered < math.ceil((1.0 - noise) * examples.pos_count)

"""Hypothesis evaluation: closed-world extension as boolean arrays, coverage
counts against the example set, accuracy/gain scoring, and a threaded batch
path.

All set algebra runs on numpy bool arrays indexed by individual id. Role
restrictions are computed from the flat assertion arrays the kb module builds
at materialization: for a role with subject array ``subs`` and object array
``objs``, the individuals with at least one filler in ``C`` are
``subs[child_mask[objs]]``, and qualified cardinalities fall out of
``np.bincount`` over the same selection.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .concept import (And, Atomic, BoolEq, Concept, Exists, Forall, MaxCard,
                      MinCard, NotAtomic, NumGeq, NumLeq, Or, StrEq, Top)
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


def covered_set(c: Concept, kb: KnowledgeBase) -> np.ndarray:
    """Closed-world extension of ``c`` as a bool array over individual ids."""
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
        child = covered_set(c.child, kb)
        subs, objs = _role_arrays(kb, c.role)
        out = np.zeros(n, dtype=bool)
        out[subs[child[objs]]] = True
        return out
    if isinstance(c, Forall):
        # Vacuous satisfaction: no fillers means the restriction holds.
        child = covered_set(c.child, kb)
        subs, objs = _role_arrays(kb, c.role)
        out = np.ones(n, dtype=bool)
        out[subs[~child[objs]]] = False
        return out
    if isinstance(c, (MinCard, MaxCard)):
        child = covered_set(c.child, kb)
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
        out = covered_set(c.children[0], kb)
        for ch in c.children[1:]:
            out &= covered_set(ch, kb)
        return out
    if isinstance(c, Or):
        out = covered_set(c.children[0], kb)
        for ch in c.children[1:]:
            out |= covered_set(ch, kb)
        return out
    raise TypeError(f"not a concept: {c!r}")


def evaluate(c: Concept, kb: KnowledgeBase, examples: ExampleSet,
             keep_set: bool = False) -> CoverageResult:
    cov = covered_set(c, kb)
    pos = int(np.count_nonzero(cov & examples.positives))
    neg = int(np.count_nonzero(cov & examples.negatives))
    return CoverageResult(pos, neg, cov if keep_set else None)


def evaluate_batch(cs: list[Concept], kb: KnowledgeBase, examples: ExampleSet,
                   threads: int = 1, keep_sets: bool = False) -> list[CoverageResult]:
    """evaluate() each concept; result[i] is identical for every thread count."""
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if threads == 1 or len(cs) < 2:
        return [evaluate(c, kb, examples, keep_sets) for c in cs]
    results: list[CoverageResult | None] = [None] * len(cs)

    def run_chunk(lo: int, hi: int) -> None:
        for i in range(lo, hi):
            results[i] = evaluate(cs[i], kb, examples, keep_sets)

    step = math.ceil(len(cs) / threads)
    bounds = [(lo, min(lo + step, len(cs))) for lo in range(0, len(cs), step)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for f in [pool.submit(run_chunk, lo, hi) for lo, hi in bounds]:
            f.result()
    return results


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

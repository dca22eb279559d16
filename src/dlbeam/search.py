"""Beam search over the refinement lattice.

One iteration: take the best BW expandable nodes from the open list, expand
them in parallel (each node keeps a private closed list spanning its own
re-expansions), fold the per-node refinement lists through a pairwise staged
reduction against the global closed list (RHT), evaluate the survivors in a
batch, drop weak ones, and insert the rest into the open list at their
place in its order.

The open list is kept sorted by each node's ``key``, (-score, canonical
sort key), which is computed once when the node is built. Keys are unique,
because the closed list admits a concept once and the canonical sort key is
injective, so inserting each new node by bisection gives the same list as
appending it and sorting.

Nodes are not removed on expansion; they are revisited with a horizontal
expansion budget (he) that grows by one per visit until it reaches the
length cap. Scores are fixed at insertion time, with the expansion penalty
charged against the node's initial he, so the set of (hash, score) pairs a
run inserts is independent of the thread count.
"""

from __future__ import annotations

import time
from bisect import insort
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from operator import attrgetter

from .concept import (TOP, Concept, concept_length, hash_concept, sort_key)
from .evaluation import (CoverageResult, EvalConfig, Score, evaluate,
                         evaluate_batch, is_weak, score)
from .kb import ExampleSet, KbStatistics, KnowledgeBase, compute_statistics
from .refine import RefinementConfig, build_mb, refine

__all__ = [
    "SearchNode",
    "SearchConfig",
    "IterationStats",
    "SearchResult",
    "extract_best_nodes",
    "insert_node",
    "expand_single_node",
    "reduce_redundant",
    "run_search",
]


@dataclass
class SearchNode:
    concept: Concept
    hash: int
    he: int
    coverage: CoverageResult
    score: Score
    parent: "SearchNode | None" = None
    expandable: bool = True
    # Hashes this node has emitted across all of its expansions; None before
    # the first expansion and again once the node can no longer be expanded.
    local_closed: set[int] | None = None
    # Open-list order, best first: (-score, canonical sort key). Fixed at
    # construction, since neither the score nor the concept changes.
    key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.key = (-self.score.value, sort_key(self.concept))


@dataclass(frozen=True)
class SearchConfig:
    beam_width: int = 4
    limit: int = 1
    noise: float = 0.0
    max_millis: int | None = None
    max_length: int = 10
    target_accuracy: float = 1.0
    threads: int = 1
    use_inverse_roles: bool = True
    use_cardinality: bool = True
    use_disjunction: bool = True
    use_negation: bool = True
    eval_cfg: EvalConfig = EvalConfig()
    verify_collisions: bool = False

    def __post_init__(self):
        for name in ("beam_width", "limit", "threads", "max_length"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.noise < 1.0:
            raise ValueError(f"noise must be in [0, 1), got {self.noise}")


@dataclass
class IterationStats:
    expanded: int
    generated: int
    redundant_dropped: int
    weak_dropped: int
    st_size: int
    elapsed_millis: int


@dataclass
class SearchResult:
    hypotheses: list[SearchNode]
    status: str  # solved | budget | exhausted
    st_nodes: list[SearchNode]
    st_insertions: dict[int, float]
    rht: set[int]
    evaluated_hashes: list[int]
    iterations: list[IterationStats]
    wall_millis: int


_node_key = attrgetter("key")


def insert_node(st: list[SearchNode], node: SearchNode) -> None:
    """Insert ``node`` into the open list ``st`` at its place in key order."""
    insort(st, node, key=_node_key)


def extract_best_nodes(st: list[SearchNode], k: int,
                       expandable_only: bool = True) -> list[SearchNode]:
    """Best k nodes of the sorted open list, left in place for re-expansion."""
    if expandable_only:
        out = []
        for n in st:
            if n.expandable:
                out.append(n)
                if len(out) == k:
                    break
        return out
    return st[:k]


def expand_single_node(node: SearchNode, kb: KnowledgeBase, stats: KbStatistics,
                       mb: list[Concept], rcfg: RefinementConfig,
                       max_length: int) -> tuple[list[Concept], set[int]]:
    """Refine at bound he+1, emit only hashes new to this node, grow he."""
    if node.he >= max_length:
        node.expandable = False
        node.local_closed = None
        return [], set()
    bound = node.he + 1
    closed = node.local_closed
    if closed is None:
        closed = node.local_closed = set()
    emitted: list[Concept] = []
    emitted_hashes: set[int] = set()
    for r in refine(node.concept, bound, kb, stats, mb, rcfg):
        h = hash_concept(r)
        if h in closed:
            continue
        closed.add(h)
        emitted_hashes.add(h)
        emitted.append(r)
    node.he += 1
    if node.he >= max_length:
        node.expandable = False
        node.local_closed = None
    return emitted, emitted_hashes


def reduce_redundant(per_slot: list[tuple[list[Concept], set[int]]],
                     rht: set[int], verify: bool = False,
                     slot_ids: list[int] | None = None
                     ) -> list[tuple[Concept, int, int]]:
    """Pairwise staged merge of per-slot refinement lists.

    Returns (concept, hash, slot) triples ordered by ascending slot then the
    slot's original order; on a cross-slot duplicate the lower slot's copy
    survives; anything already in rht is dropped. With ``verify`` set, equal
    hashes from structurally different concepts raise.
    """
    if slot_ids is None:
        slot_ids = list(range(len(per_slot)))
    stages: list[list[tuple[Concept, int, int]]] = [
        [(c, hash_concept(c), slot_ids[i]) for c in refs]
        for i, (refs, _closed) in enumerate(per_slot)
    ]
    by_hash: dict[int, Concept] = {}
    if verify:
        for items in stages:
            for c, h, _ in items:
                prior = by_hash.setdefault(h, c)
                if prior != c:
                    raise RuntimeError(f"hash collision 0x{h:016x} between "
                                       f"structurally different concepts")
    while len(stages) > 1:
        merged: list[list[tuple[Concept, int, int]]] = []
        for i in range(0, len(stages) - 1, 2):
            a, b = stages[i], stages[i + 1]
            seen = {h for _, h, _ in a}
            merged.append(a + [t for t in b if t[1] not in seen])
        if len(stages) % 2:
            merged.append(stages[-1])
        stages = merged
    result = stages[0] if stages else []
    out: list[tuple[Concept, int, int]] = []
    taken: set[int] = set()
    for c, h, slot in result:
        if h in rht or h in taken:
            continue
        taken.add(h)
        out.append((c, h, slot))
    return out


def run_search(kb: KnowledgeBase, examples: ExampleSet, cfg: SearchConfig,
               stats: KbStatistics | None = None,
               mb: list[Concept] | None = None) -> SearchResult:
    """Run the full loop until solved, exhausted, or out of budget."""
    if stats is None:
        stats = compute_statistics(kb)
    if mb is None:
        mb = build_mb(kb, stats)
    # rcfg carries refine's memo and ext_memo evaluation's operand and
    # filler extensions, so both live for this search only.
    ext_memo: dict = {}
    rcfg = RefinementConfig.from_stats(
        stats,
        use_inverse_roles=cfg.use_inverse_roles,
        use_cardinality=cfg.use_cardinality,
        use_disjunction=cfg.use_disjunction,
        use_negation=cfg.use_negation,
        max_length=cfg.max_length)

    t0 = time.monotonic()

    def elapsed_ms() -> int:
        return int((time.monotonic() - t0) * 1000)

    root_cov = evaluate(TOP, kb, examples)
    root_score = score(root_cov, None, 1, examples, cfg.eval_cfg)
    root = SearchNode(TOP, hash_concept(TOP), 1, root_cov, root_score,
                      expandable=cfg.max_length > 1)
    st: list[SearchNode] = [root]
    rht: set[int] = {root.hash}
    st_insertions: dict[int, float] = {root.hash: root_score.value}
    evaluated_hashes: list[int] = [root.hash]
    iterations: list[IterationStats] = []
    best_accuracy = root_score.accuracy
    status = None

    pool = (ThreadPoolExecutor(max_workers=cfg.threads)
            if cfg.threads > 1 else None)
    try:
        if best_accuracy >= cfg.target_accuracy:
            status = "solved"
        while status is None:
            if cfg.max_millis is not None and elapsed_ms() >= cfg.max_millis:
                status = "budget"
                break
            beam = extract_best_nodes(st, cfg.beam_width)
            if not beam:
                status = "exhausted"
                break

            def expand(n: SearchNode) -> tuple[list[Concept], set[int]]:
                return expand_single_node(n, kb, stats, mb, rcfg, cfg.max_length)

            if pool is None:
                per_slot = [expand(n) for n in beam]
            else:
                per_slot = list(pool.map(expand, beam))

            generated = sum(len(refs) for refs, _ in per_slot)
            survivors = reduce_redundant(per_slot, rht,
                                         verify=cfg.verify_collisions)
            rht.update(h for _, h, _ in survivors)
            evaluated_hashes.extend(h for _, h, _ in survivors)
            covs = evaluate_batch([c for c, _, _ in survivors], kb, examples,
                                  threads=cfg.threads, memo=ext_memo)
            weak_dropped = 0
            for (c, h, slot), cov in zip(survivors, covs):
                if is_weak(cov, examples, cfg.noise):
                    weak_dropped += 1
                    continue
                parent = beam[slot]
                he0 = concept_length(c)
                sc = score(cov, parent.score.accuracy, he0, examples, cfg.eval_cfg)
                node = SearchNode(c, h, he0, cov, sc, parent=parent,
                                  expandable=he0 < cfg.max_length)
                insert_node(st, node)
                st_insertions[h] = sc.value
                if sc.accuracy > best_accuracy:
                    best_accuracy = sc.accuracy
            iterations.append(IterationStats(
                expanded=len(beam), generated=generated,
                redundant_dropped=generated - len(survivors),
                weak_dropped=weak_dropped, st_size=len(st),
                elapsed_millis=elapsed_ms()))
            if best_accuracy >= cfg.target_accuracy:
                status = "solved"
    finally:
        if pool is not None:
            pool.shutdown(wait=False)

    return SearchResult(
        hypotheses=extract_best_nodes(st, cfg.limit, expandable_only=False),
        status=status, st_nodes=st, st_insertions=st_insertions, rht=rht,
        evaluated_hashes=evaluated_hashes, iterations=iterations,
        wall_millis=elapsed_ms())

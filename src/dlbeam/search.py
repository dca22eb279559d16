"""Beam search over the refinement lattice.

One loop, ``search_loop``, serves ``run_search`` and the cluster master. An
iteration takes the best expandable nodes from the open list and hands them
to an expander, which refines them and evaluates the refinements; the loop
adds each new hash to the global closed list (RHT) once, counts the weak
ones, and inserts the rest into the open list at their place in its order.
The in-process expander expands each node (each node keeps a private closed
list spanning its own re-expansions), keeps the first occurrence of each
hash across the per-node refinement lists that the RHT does not hold, and
evaluates the survivors in a batch; the cluster's sends blocks of the beam to
workers, each of which runs the same in-process expander on its block.

The open list is kept sorted by each node's ``key``, (-score, canonical
sort key), which is computed once when the node is built. Keys are unique,
because the closed list admits a concept once and the canonical sort key is
injective, so inserting each new node by bisection gives the same list as
appending it and sorting.

Nodes are not removed on expansion; they are revisited with a horizontal
expansion budget (he) that grows by one per visit until it reaches the
length cap. Scores are fixed at insertion time, with the expansion penalty
charged against the node's initial he, so the set of (hash, score) pairs a
run inserts depends only on the beam width, not on how many workers share
the beam.
"""

from __future__ import annotations

import time
from bisect import insort
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
    "refinement_config",
    "root_node",
    "search_loop",
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
    use_inverse_roles: bool = True
    use_cardinality: bool = True
    use_disjunction: bool = True
    use_negation: bool = True
    eval_cfg: EvalConfig = EvalConfig()
    verify_collisions: bool = False

    def __post_init__(self):
        for name in ("beam_width", "limit", "max_length"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.noise < 1.0:
            raise ValueError(f"noise must be in [0, 1), got {self.noise}")


@dataclass
class IterationStats:
    """What one iteration expanded, generated and dropped.

    While no worker fails, a cluster run has the same ``expanded``,
    ``weak_dropped`` and ``st_size`` as a local run of the same beam width,
    iteration by iteration. Its ``generated`` and ``redundant_dropped``
    differ: a local run's ``generated`` counts every refinement, a
    cluster's only those its workers' RHT mirrors did not hold, so its
    ``redundant_dropped`` counts just the hashes that more than one worker
    returned.
    """

    expanded: int
    generated: int
    redundant_dropped: int
    weak_dropped: int
    st_size: int
    elapsed_millis: int


@dataclass
class SearchResult:
    hypotheses: list[SearchNode]
    status: str  # solved | budget | exhausted | failed (cluster only)
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
                     rht: set[int], verify: bool = False
                     ) -> list[tuple[Concept, int, int]]:
    """First occurrence of each hash across the per-slot refinement lists.

    Returns (concept, hash, slot) triples ordered by ascending slot then the
    slot's original order; on a cross-slot duplicate the lower slot's copy
    survives; anything already in rht is dropped. With ``verify`` set, equal
    hashes from structurally different concepts raise.
    """
    by_hash: dict[int, Concept] = {}
    out: list[tuple[Concept, int, int]] = []
    taken: set[int] = set()
    for slot, (refs, _closed) in enumerate(per_slot):
        for c in refs:
            h = hash_concept(c)
            if verify and by_hash.setdefault(h, c) != c:
                raise RuntimeError(f"hash collision 0x{h:016x} between "
                                   f"structurally different concepts")
            if h in rht or h in taken:
                continue
            taken.add(h)
            out.append((c, h, slot))
    return out


def refinement_config(stats: KbStatistics, cfg: SearchConfig, max_length: int
                      ) -> RefinementConfig:
    """A refinement config, and with it a refine memo, for one search in the
    hypothesis language of ``cfg``."""
    return RefinementConfig.from_stats(
        stats,
        use_inverse_roles=cfg.use_inverse_roles,
        use_cardinality=cfg.use_cardinality,
        use_disjunction=cfg.use_disjunction,
        use_negation=cfg.use_negation,
        max_length=max_length)


def root_node(kb: KnowledgeBase, examples: ExampleSet, eval_cfg: EvalConfig,
              max_length: int) -> SearchNode:
    """Thing, evaluated and scored as the root of a search."""
    cov = evaluate(TOP, kb, examples)
    return SearchNode(TOP, hash_concept(TOP), 1, cov,
                      score(cov, None, 1, examples, eval_cfg),
                      expandable=max_length > 1)


class LocalExpander:
    """Expands in this process: each node through ``expand_single_node``, the
    slots through ``reduce_redundant``, the survivors in one
    ``evaluate_batch``. ``run_search`` and each cluster worker use it."""

    def __init__(self, kb: KnowledgeBase, examples: ExampleSet,
                 cfg: SearchConfig, stats: KbStatistics, mb: list[Concept]):
        self.kb, self.examples, self.cfg = kb, examples, cfg
        self.stats, self.mb = stats, mb
        # rcfg carries refine's memo and ext_memo evaluation's operand and
        # filler extensions, so both live for this search only.
        self.rcfg = refinement_config(stats, cfg, cfg.max_length)
        self.ext_memo: dict = {}

    def width(self) -> int:
        return self.cfg.beam_width

    def expand(self, beam: list[SearchNode], rht: set[int]
               ) -> tuple[int, list[tuple[int, SearchNode | None]]]:
        kb, examples, cfg = self.kb, self.examples, self.cfg
        per_slot = [expand_single_node(n, kb, self.stats, self.mb, self.rcfg,
                                       cfg.max_length) for n in beam]
        survivors = reduce_redundant(per_slot, rht,
                                     verify=cfg.verify_collisions)
        covs = evaluate_batch([c for c, _, _ in survivors], kb, examples,
                              memo=self.ext_memo)
        found: list[tuple[int, SearchNode | None]] = []
        for (c, h, slot), cov in zip(survivors, covs):
            if is_weak(cov, examples, cfg.noise):
                found.append((h, None))
                continue
            parent = beam[slot]
            he0 = concept_length(c)
            sc = score(cov, parent.score.accuracy, he0, examples, cfg.eval_cfg)
            found.append((h, SearchNode(c, h, he0, cov, sc, parent=parent,
                                        expandable=he0 < cfg.max_length)))
        return sum(len(refs) for refs, _ in per_slot), found


def search_loop(kb: KnowledgeBase, examples: ExampleSet, cfg, expander,
                t0: float) -> SearchResult:
    """The beam search of ``run_search`` and of the cluster master.

    ``cfg`` is a ``SearchConfig`` or a ``MasterConfig``; the loop reads the
    fields they share. Times count from ``t0``, a ``time.monotonic()``
    reading. ``expander.width()`` is how many nodes to take per iteration,
    and the run fails once it is 0. ``expander.expand(beam, rht)`` returns
    the number of refinements generated, and each evaluated refinement that
    is new to ``rht`` as its hash with its node, or with None if it is weak;
    a weak hash may repeat.
    """

    def elapsed_ms() -> int:
        return int((time.monotonic() - t0) * 1000)

    root = root_node(kb, examples, cfg.eval_cfg, cfg.max_length)
    st: list[SearchNode] = [root]
    rht: set[int] = {root.hash}
    st_insertions: dict[int, float] = {root.hash: root.score.value}
    evaluated_hashes: list[int] = [root.hash]
    iterations: list[IterationStats] = []
    best_accuracy = root.score.accuracy
    status = "solved" if best_accuracy >= cfg.target_accuracy else None

    while status is None:
        if cfg.max_millis is not None and elapsed_ms() >= cfg.max_millis:
            status = "budget"
            break
        width = expander.width()
        if width == 0:
            status = "failed"
            break
        beam = extract_best_nodes(st, width)
        if not beam:
            status = "exhausted"
            break
        generated, found = expander.expand(beam, rht)
        evaluated = weak_dropped = 0
        for h, node in found:
            if h in rht:  # a weak hash that more than one worker returned
                continue
            rht.add(h)
            evaluated_hashes.append(h)
            evaluated += 1
            if node is None:
                weak_dropped += 1
                continue
            insert_node(st, node)
            st_insertions[h] = node.score.value
            if node.score.accuracy > best_accuracy:
                best_accuracy = node.score.accuracy
        iterations.append(IterationStats(
            expanded=len(beam), generated=generated,
            redundant_dropped=generated - evaluated,
            weak_dropped=weak_dropped, st_size=len(st),
            elapsed_millis=elapsed_ms()))
        if best_accuracy >= cfg.target_accuracy:
            status = "solved"

    return SearchResult(
        hypotheses=extract_best_nodes(st, cfg.limit, expandable_only=False),
        status=status, st_nodes=st, st_insertions=st_insertions, rht=rht,
        evaluated_hashes=evaluated_hashes, iterations=iterations,
        wall_millis=elapsed_ms())


def run_search(kb: KnowledgeBase, examples: ExampleSet, cfg: SearchConfig,
               stats: KbStatistics | None = None,
               mb: list[Concept] | None = None) -> SearchResult:
    """Run the full loop in this process until solved, exhausted, or out of
    budget."""
    if stats is None:
        stats = compute_statistics(kb)
    if mb is None:
        mb = build_mb(kb, stats)
    expander = LocalExpander(kb, examples, cfg, stats, mb)
    return search_loop(kb, examples, cfg, expander, time.monotonic())

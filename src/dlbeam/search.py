"""Beam search over the refinement lattice.

One loop, ``search_loop``, serves ``run_search`` and the cluster master, and
owns every search node. An iteration hands the best expandable nodes of the
open list, the beam, to an expander, which refines and evaluates. It reports
the beam indexes it expanded, and each evaluated refinement's hash, in
evaluation order, with None if it is weak or a dominated union, else with
the beam index of the node it refines, its concept and its counts. The loop
adds each new hash to the global closed list (RHT) once, counts the weak
ones, scores each other refinement against its parent in the beam and
inserts its node into the open list at its place in the list's order, and
grows the he of each expanded node.

The RHT is the only closed list: at each expansion a node proposes again
what it proposed before, and all of that is in the RHT by then. The
in-process expander refines each node, keeps the first occurrence of each
hash across the per-node refinement lists that the RHT does not hold, and
evaluates the survivors in a batch; the cluster's sends blocks of the beam
to workers, each of which runs the same in-process expander on its block.

The in-process expander holds one ``refine.Refiner``, built from the KB and
the search's own settings, and one ``evaluation.Evaluator`` of the search's
(kb, examples). It refines in the context of the examples
(``refine.top_context``), read once off the evaluator's example space: the
top level of a refinement names no role, inverse role or concrete role that
no example is the subject of, since such a restriction is constant on the
examples (see ``dlbeam.refine``). A worker's context comes from the examples
its KB_TRANSFER carries, so a cluster run still equals a local one.

The in-process expander also drops each union dominated in the examples'
context: an ``Or`` with a top-level operand that covers no positive example
(``evaluation.dominated_union``). Such a union covers the positives of its
other operands and at least their negatives, and it is longer, so they
dominate it. A refinement of it rewrites one operand, and a refined dead
operand still covers no positive, so each refinement is dominated the same
way, or weak if the union collapses to that operand. So the union is
reported as a weak refinement is, its hash with None: the loop closes it,
never inserts it and never expands it. A worker drops it in the same place,
so a cluster run still equals a local one; the master, which holds an
evaluator of its own, refuses one that a worker returns.

The open list is kept sorted by each node's ``key``, (-score, canonical
sort key), which is computed once when the node is built. Keys are unique,
because the closed list admits a concept once and the canonical sort key is
injective, so inserting each new node by bisection gives the same list as
appending it and sorting.

Nodes are not removed on expansion; they are revisited with a horizontal
expansion budget (he) that grows by one per expansion until it reaches the
length cap: for every node of a local beam, and on a cluster for the nodes
of the blocks whose workers answered. Scores are fixed at insertion time,
with the expansion penalty charged against the node's initial he, so the
set of (hash, score) pairs a run inserts depends only on the beam width,
not on how many workers share the beam.
"""

from __future__ import annotations

import math
import time
from bisect import insort
from dataclasses import dataclass, field
from operator import attrgetter

from .concept import (TOP, Concept, concept_length, hash_concept, sort_key)
from .evaluation import (CoverageResult, Evaluator, Score, dominated_union,
                         evaluate_batch, score, weak_threshold)
from .kb import ExampleSet, KbStatistics, KnowledgeBase, compute_statistics
from .refine import Refiner, TopContext, build_mb, refine, top_context

__all__ = [
    "SearchNode",
    "SearchSettings",
    "SearchConfig",
    "IterationStats",
    "SearchResult",
    "Child",
    "extract_best_nodes",
    "insert_node",
    "expand_single_node",
    "reduce_redundant",
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
    # Open-list order, best first: (-score, canonical sort key). Fixed at
    # construction, since neither the score nor the concept changes.
    key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.key = (-self.score.value, sort_key(self.concept))


@dataclass(frozen=True)
class SearchSettings:
    """The settings every search reads, local or distributed, validated here.

    ``SearchConfig`` adds only the beam width of a local run; the cluster's
    ``MasterConfig`` adds how the master finds and talks to its workers,
    whose beam width is the workers' cores. The score weights are
    ``evaluation.GAIN_BONUS`` and ``evaluation.EXPANSION_PENALTY``.
    """

    limit: int = 1
    noise: float = 0.0
    max_millis: int | None = None
    max_length: int = 10
    target_accuracy: float = 1.0
    use_inverse_roles: bool = True
    use_cardinality: bool = True
    use_disjunction: bool = True
    use_negation: bool = True

    def __post_init__(self):
        for name in ("limit", "max_length"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.noise < 1.0:
            raise ValueError(f"noise must be in [0, 1), got {self.noise}")
        # A NaN target is never reached, so the search could not be solved.
        if math.isnan(self.target_accuracy):
            raise ValueError("target_accuracy must be a number, got nan")
        if self.max_millis is not None and self.max_millis < 0:
            raise ValueError(f"max_millis must be >= 0, got {self.max_millis}")


@dataclass(frozen=True)
class SearchConfig(SearchSettings):
    beam_width: int = 4

    def __post_init__(self):
        if self.beam_width < 1:
            raise ValueError(f"beam_width must be >= 1, got {self.beam_width}")
        super().__post_init__()


@dataclass
class IterationStats:
    """What one iteration expanded, generated and dropped.

    While no worker fails, a cluster run has the same ``expanded``,
    ``weak_dropped`` and ``st_size`` as a local run of the same beam width,
    iteration by iteration; after a drop, ``expanded`` counts only the
    nodes of the workers that answered. Its ``generated`` and
    ``redundant_dropped`` differ: a local run's ``generated`` counts every
    refinement its expander proposed, a node's re-proposals of what it
    proposed at an earlier expansion included, a cluster's only those its
    workers' RHT mirrors did not hold, so its ``redundant_dropped`` counts
    just the hashes that more than one worker returned. ``weak_dropped``
    counts the weak refinements and the dominated unions together (see the
    module docstring): a worker returns both as weak hashes, so the master
    cannot tell them apart.
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


def extract_best_nodes(st: list[SearchNode], k: int) -> list[SearchNode]:
    """Best k expandable nodes of the sorted open list, left in place for
    re-expansion."""
    out = []
    for n in st:
        if n.expandable:
            out.append(n)
            if len(out) == k:
                break
    return out


def expand_single_node(node, refiner: Refiner,
                       context: TopContext) -> list[Concept]:
    """The refinements of ``node`` at bound he+1 in ``context``. ``node`` is
    anything with a ``concept`` and an ``he``, a beam node or a worker's task
    node, and is not changed: ``search_loop`` grows he."""
    return refine(node.concept, node.he + 1, refiner, context)


def reduce_redundant(per_slot: list[list[Concept]], rht: set[int]
                     ) -> list[tuple[Concept, int, int]]:
    """First occurrence of each hash across the per-slot refinement lists.

    Returns (concept, hash, slot) triples ordered by ascending slot then the
    slot's original order; on a cross-slot duplicate the lower slot's copy
    survives; anything already in rht is dropped. A hash repeated by a
    structurally different concept raises RuntimeError. A duplicate is
    mostly the refiner's interned object, so the equality test seldom runs.
    """
    first: dict[int, Concept] = {}
    out: list[tuple[Concept, int, int]] = []
    for slot, refs in enumerate(per_slot):
        for c in refs:
            h = hash_concept(c)
            if h in rht:
                continue
            seen = first.get(h)
            if seen is not None:
                if seen is c or seen == c:
                    continue
                raise RuntimeError(f"hash collision 0x{h:016x} between "
                                   f"structurally different concepts")
            first[h] = c
            out.append((c, h, slot))
    return out


def root_node(examples: ExampleSet, max_length: int) -> SearchNode:
    """Thing, which covers every example, scored as the root of a search."""
    cov = CoverageResult(examples.pos_count, examples.neg_count)
    return SearchNode(TOP, hash_concept(TOP), 1, cov,
                      score(cov, None, 1, examples),
                      expandable=max_length > 1)


# What an expander reports of an evaluated refinement that is neither weak
# nor a dominated union: the beam index of the node it refines, its concept
# and its counts.
Child = tuple[int, Concept, CoverageResult]


class LocalExpander:
    """Expands in this process: each node through ``expand_single_node``, the
    slots through ``reduce_redundant``, the survivors in one
    ``evaluate_batch``. ``run_search`` and each cluster worker use it."""

    def __init__(self, kb: KnowledgeBase, examples: ExampleSet,
                 cfg: SearchConfig, stats: KbStatistics, mb: list[Concept]):
        self.kb, self.examples, self.cfg = kb, examples, cfg
        # The refiner holds refine's memo and intern table, the evaluator
        # evaluation's memos and the example space the candidates are counted
        # and refined in, so both live for this search only. Building the
        # evaluator refuses a KB that is not materialized.
        self.refiner = Refiner(kb, stats, mb, cfg)
        self.evaluator = Evaluator(kb, examples)
        self.context = top_context(self.evaluator.space)
        # A refinement covering fewer positives than this is weak.
        self.min_pos = weak_threshold(examples, cfg.noise)

    def width(self) -> int:
        return self.cfg.beam_width

    def expand(self, beam: list, rht: set[int]
               ) -> tuple[range, int, list[tuple[int, Child | None]]]:
        """Expand every node of ``beam``, each anything with a ``concept``
        and an ``he``; see ``search_loop``."""
        per_slot = [expand_single_node(n, self.refiner, self.context)
                    for n in beam]
        survivors = reduce_redundant(per_slot, rht)
        covs = evaluate_batch([c for c, _, _ in survivors], self.kb,
                              self.examples, memo=self.evaluator)
        found: list[tuple[int, Child | None]] = []
        for (c, h, slot), cov in zip(survivors, covs):
            # A weak node and a dominated union are reported alike: closed,
            # never inserted, never expanded.
            weak = (cov.pos_covered < self.min_pos
                    or dominated_union(c, self.evaluator))
            found.append((h, None if weak else (slot, c, cov)))
        return range(len(beam)), sum(map(len, per_slot)), found


def search_loop(examples: ExampleSet, cfg: SearchSettings, expander,
                t0: float) -> SearchResult:
    """The beam search of ``run_search`` and of the cluster master.

    Times count from ``t0``, a ``time.monotonic()`` reading.
    ``expander.width()`` is how many nodes to take per iteration, and the
    run fails once it is 0. ``expander.expand(beam, rht)`` returns the
    indexes of the beam nodes it expanded, the number of refinements it
    generated, and each evaluated refinement that is new to ``rht`` as its
    hash with its ``Child``, or with None if it is weak or a dominated
    union; a hash may repeat, and its first occurrence counts.
    """

    def elapsed_ms() -> int:
        return int((time.monotonic() - t0) * 1000)

    root = root_node(examples, cfg.max_length)
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
        expanded, generated, found = expander.expand(beam, rht)
        for slot in expanded:
            n = beam[slot]
            n.he += 1
            n.expandable = n.he < cfg.max_length
        evaluated = weak_dropped = 0
        for h, child in found:
            if h in rht:  # a hash that more than one worker returned
                continue
            rht.add(h)
            evaluated_hashes.append(h)
            evaluated += 1
            if child is None:
                weak_dropped += 1
                continue
            slot, c, cov = child
            parent = beam[slot]
            he0 = concept_length(c)
            sc = score(cov, parent.score.accuracy, he0, examples)
            insert_node(st, SearchNode(c, h, he0, cov, sc, parent=parent,
                                       expandable=he0 < cfg.max_length))
            st_insertions[h] = sc.value
            if sc.accuracy > best_accuracy:
                best_accuracy = sc.accuracy
        iterations.append(IterationStats(
            expanded=len(expanded), generated=generated,
            redundant_dropped=generated - evaluated,
            weak_dropped=weak_dropped, st_size=len(st),
            elapsed_millis=elapsed_ms()))
        if best_accuracy >= cfg.target_accuracy:
            status = "solved"

    return SearchResult(
        hypotheses=st[:cfg.limit],
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
    return search_loop(examples, cfg, expander, time.monotonic())

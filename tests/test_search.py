import hashlib
import random
import time

import pytest

import dlbeam.evaluation as evaluation_mod
import dlbeam.search as search_mod
from dlbeam.concept import (Atomic, TOP, concept_length, hash_concept,
                            render, sort_key)
from dlbeam.evaluation import CoverageResult, Evaluator, Score
from dlbeam.kb import materialize, parse_examples, parse_kb
from dlbeam.refine import Refiner, top_context
from dlbeam.search import (SearchConfig, SearchNode, SearchSettings,
                           expand_single_node, extract_best_nodes,
                           reduce_redundant, run_search)
from generators import strict_subconcepts
from test_context import full_context
from test_dominance import without_dominance


def make_node(value, cid=0, he=1, expandable=True):
    c = Atomic(cid)
    return SearchNode(c, hash_concept(c), he, CoverageResult(1, 0),
                      Score(0.5, value), expandable=expandable)


# --- extract ----------------------------------------------------------------

def test_extract_best_nodes_takes_prefix_of_expandables():
    st = [make_node(0.9, 0), make_node(0.8, 1, expandable=False),
          make_node(0.7, 2), make_node(0.6, 3)]
    got = extract_best_nodes(st, 2)
    assert [n.score.value for n in got] == [0.9, 0.7]
    got = extract_best_nodes(st, 10)
    assert len(got) == 3  # non-expandable node skipped
    assert extract_best_nodes([], 3) == []


# --- expansion --------------------------------------------------------------

def root_node(fix):
    from dlbeam.evaluation import evaluate, score
    cov = evaluate(TOP, fix.kb, fix.examples)
    return SearchNode(TOP, hash_concept(TOP), 1, cov,
                      score(cov, None, 1, fix.examples))


def context_of(fix):
    return top_context(Evaluator(fix.kb, fix.examples).space)


def refiner_of(fix):
    return Refiner(fix.kb, fix.stats, fix.mb, SearchSettings())


def test_expand_root_emits_short_refinements(trains):
    refiner, context = refiner_of(trains), context_of(trains)
    node = root_node(trains)
    refs = expand_single_node(node, refiner, context)
    assert refs
    assert all(concept_length(c) <= 2 for c in refs)
    assert node.he == 1 and node.expandable  # the search loop grows he


def test_expand_again_proposes_the_earlier_refinements_again(trains):
    # A node keeps no closed list of its own: the RHT holds what it
    # proposed before by the time it is expanded again.
    refiner, context = refiner_of(trains), context_of(trains)
    node = root_node(trains)
    first = expand_single_node(node, refiner, context)
    node.he = 2
    second = expand_single_node(node, refiner, context)
    # bound 3 reaches quantifiers the length-2 pass could not
    assert ({hash_concept(c) for c in first}
            < {hash_concept(c) for c in second})


def test_search_loop_grows_he_of_the_nodes_reported_expanded(trains):
    """The loop alone grows he, and ends a node's expansion at max_length,
    for just the beam nodes the expander reports it expanded."""
    seen = []

    class EverySecondCall:
        def width(self):
            return 1

        def expand(self, beam, rht):
            seen.append(beam[0].he)
            return (range(1) if len(seen) % 2 == 0 else []), 0, []

    res = search_mod.search_loop(
        trains.examples,
        SearchConfig(max_length=4, target_accuracy=2.0), EverySecondCall(),
        time.monotonic())
    assert seen == [1, 1, 2, 2, 3, 3]
    assert res.status == "exhausted"
    (root,) = res.st_nodes
    assert root.he == 4 and not root.expandable


# --- reduction --------------------------------------------------------------

def fold_oracle(per_slot, rht):
    out, taken = [], set(rht)
    for slot, refs in enumerate(per_slot):
        for c in refs:
            h = hash_concept(c)
            if h not in taken:
                taken.add(h)
                out.append((c, h, slot))
    return out


def test_reduce_redundant_example():
    a, b, c, d = Atomic(0), Atomic(1), Atomic(2), Atomic(3)
    per_slot = [[a, b], [b, c], [c, d, a]]
    got = reduce_redundant(per_slot, rht=set())
    assert got == [(a, hash_concept(a), 0), (b, hash_concept(b), 0),
                   (c, hash_concept(c), 1), (d, hash_concept(d), 2)]


def test_reduce_redundant_respects_rht():
    a, b = Atomic(0), Atomic(1)
    got = reduce_redundant([[a, b]], rht={hash_concept(a)})
    assert got == [(b, hash_concept(b), 0)]
    assert reduce_redundant([], rht=set()) == []


def test_reduce_redundant_matches_fold_for_many_slot_counts():
    rng = random.Random(501)
    for _ in range(60):
        nslots = rng.randint(1, 8)
        pool = [Atomic(i) for i in range(12)]
        per_slot = [rng.sample(pool, rng.randint(0, 6))
                    for _ in range(nslots)]
        rht = {hash_concept(pool[i]) for i in range(12) if rng.random() < 0.2}
        assert reduce_redundant(per_slot, rht) == fold_oracle(per_slot, rht)


def test_reduce_redundant_slot_labels():
    a, b = Atomic(0), Atomic(1)
    got = reduce_redundant([[a], [b, a]], rht=set())
    assert got == [(a, hash_concept(a), 0), (b, hash_concept(b), 1)]


def test_reduce_redundant_collision_verification(monkeypatch):
    monkeypatch.setattr(search_mod, "hash_concept", lambda c: 42)
    per_slot = [[Atomic(0)], [Atomic(1)]]
    with pytest.raises(RuntimeError, match="hash collision"):
        search_mod.reduce_redundant(per_slot, set())
    # identical concepts under one hash are fine, first slot survives
    same = [[Atomic(0)], [Atomic(0)]]
    got = search_mod.reduce_redundant(same, set())
    assert got == [(Atomic(0), 42, 0)]


# --- full runs --------------------------------------------------------------

def test_search_solves_smoke(smoke):
    res = run_search(smoke.kb, smoke.examples, SearchConfig(max_length=5))
    assert res.status == "solved"
    best = res.hypotheses[0]
    assert best.score.accuracy == 1.0
    assert (best.coverage.pos_covered, best.coverage.neg_covered) == (2, 0)
    # (hasChild some Happy) separates too; Person wins the canonical tie
    assert render(best.concept, smoke.st) == "(hasChild some Person)"


def test_search_solves_trains(trains):
    res = run_search(trains.kb, trains.examples,
                     SearchConfig(beam_width=4, max_length=7))
    assert res.status == "solved"
    best = res.hypotheses[0]
    assert best.score.accuracy == 1.0
    assert (best.coverage.pos_covered, best.coverage.neg_covered) == (5, 0)


def test_search_status_budget(trains):
    res = run_search(trains.kb, trains.examples,
                     SearchConfig(max_millis=0, max_length=7))
    assert res.status == "budget"
    assert res.hypotheses[0].concept == TOP  # best effort: the root
    assert res.iterations == []


def test_search_status_exhausted_without_roles():
    st, kb = parse_kb("class A\nindividual x\nindividual y\nindividual z\n"
                      "instance A x\ninstance A z\n")
    materialize(kb, st)
    ex = parse_examples("+ x\n+ y\n- z\n", st)
    res = run_search(kb, ex, SearchConfig(max_length=5))
    assert res.status == "exhausted"
    assert res.hypotheses
    assert res.st_nodes[-1].concept != TOP or len(res.st_nodes) == 1
    # the space here is tiny: A, not-A, their union, and the root
    assert {render(n.concept, st) for n in res.st_nodes} <= \
        {"Thing", "A", "(not A)", "(A or (not A))"}
    assert any(it.weak_dropped for it in res.iterations)  # (A and not-A) etc.


def test_search_solved_at_root_when_target_is_low(smoke):
    res = run_search(smoke.kb, smoke.examples,
                     SearchConfig(target_accuracy=0.5, max_length=5))
    assert res.status == "solved"
    assert res.hypotheses[0].concept == TOP
    assert res.iterations == []


def test_search_limit_returns_k_sorted_hypotheses(trains):
    res = run_search(trains.kb, trains.examples,
                     SearchConfig(beam_width=4, limit=5, max_length=7))
    assert len(res.hypotheses) == 5
    values = [n.score.value for n in res.hypotheses]
    assert values == sorted(values, reverse=True)


def test_search_open_list_is_sorted(trains):
    res = run_search(trains.kb, trains.examples,
                     SearchConfig(beam_width=2, max_length=5,
                                  target_accuracy=2.0, max_millis=500))
    keys = [(-n.score.value, sort_key(n.concept)) for n in res.st_nodes]
    assert keys == sorted(keys)


def final_open_list_checked_in_order(trains, check_open_list) -> int:
    """The size of the final open list of a trains search that checks the
    list's order on every iteration."""
    calls = check_open_list(search_mod)
    res = run_search(trains.kb, trains.examples,
                     SearchConfig(beam_width=8, max_length=6,
                                  target_accuracy=2.0))  # run to exhaustion
    assert res.status == "exhausted"
    # one call per iteration and one that finds no beam
    assert len(calls) == len(res.iterations) + 1
    assert calls[-1] == len(res.st_nodes)
    return calls[-1]


def test_search_keeps_open_list_in_order_on_every_iteration(
        trains, check_open_list, monkeypatch):
    # With no union dropped as dominated the list grows past 1,000 nodes.
    without_dominance(monkeypatch)
    assert final_open_list_checked_in_order(trains, check_open_list) > 1000


def test_search_dropping_dominated_unions_keeps_open_list_in_order(
        trains, check_open_list):
    assert final_open_list_checked_in_order(trains, check_open_list) > 700


def test_search_never_evaluates_a_hash_twice(trains):
    res = run_search(trains.kb, trains.examples,
                     SearchConfig(beam_width=4, max_length=5,
                                  target_accuracy=2.0))  # run to exhaustion
    assert res.status == "exhausted"
    assert len(res.evaluated_hashes) == len(set(res.evaluated_hashes))
    assert set(res.evaluated_hashes) == res.rht


def test_search_scores_are_insertion_scores(trains):
    res = run_search(trains.kb, trains.examples,
                     SearchConfig(beam_width=4, max_length=7))
    for n in res.st_nodes:
        assert res.st_insertions[n.hash] == n.score.value
    # every inserted node is retained in the open list
    assert len(res.st_nodes) == len(res.st_insertions)


def test_search_iteration_stats_are_consistent(trains):
    res = run_search(trains.kb, trains.examples,
                     SearchConfig(beam_width=3, max_length=6))
    assert res.iterations
    for it in res.iterations:
        assert 1 <= it.expanded <= 3
        assert 0 <= it.redundant_dropped <= it.generated
        assert 0 <= it.weak_dropped <= it.generated - it.redundant_dropped
    sizes = [it.st_size for it in res.iterations]
    assert sizes == sorted(sizes)
    assert res.wall_millis >= res.iterations[-1].elapsed_millis


def test_search_with_collision_verification(smoke):
    res = run_search(smoke.kb, smoke.examples, SearchConfig(max_length=5))
    assert res.status == "solved"


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(beam_width=0)
    with pytest.raises(ValueError):
        SearchConfig(limit=0)
    with pytest.raises(ValueError):
        SearchConfig(max_length=0)
    for noise in (-0.1, 1.0, 1.5, float("nan")):
        with pytest.raises(ValueError, match="noise"):
            SearchConfig(noise=noise)
    with pytest.raises(ValueError, match="target_accuracy"):
        SearchConfig(target_accuracy=float("nan"))
    for millis in (-1, -1000):
        with pytest.raises(ValueError, match="max_millis"):
            SearchConfig(max_millis=millis)
    # An unreachable target, which runs to exhaustion, and a zero budget,
    # which ends at once, stay allowed.
    SearchConfig(target_accuracy=2.0, max_millis=0)


def test_search_max_length_one_cannot_expand(smoke):
    res = run_search(smoke.kb, smoke.examples, SearchConfig(max_length=1))
    assert res.status == "exhausted"
    assert res.st_nodes == res.hypotheses == [res.st_nodes[0]]
    assert res.st_nodes[0].concept == TOP
    assert not res.st_nodes[0].expandable


def pinned_trains_search(trains):
    """The bench's trains-narrow search, run to exhaustion, and a digest of
    the order of its evaluated hashes, its open-list insertions and its
    per-iteration counts."""
    res = run_search(trains.kb, trains.examples,
                     SearchConfig(beam_width=8, max_length=6,
                                  target_accuracy=2.0))
    assert res.status == "exhausted"
    digest = hashlib.sha256()
    digest.update(repr(res.evaluated_hashes).encode())
    digest.update(repr(list(res.st_insertions.items())).encode())
    digest.update(repr([(i.expanded, i.generated, i.redundant_dropped,
                         i.weak_dropped, i.st_size)
                        for i in res.iterations]).encode())
    return res, digest.hexdigest()


def test_exhaustive_trains_search_is_pinned(trains, monkeypatch):
    """The context-free operator, which a context holding every role gives,
    with no union dropped as dominated, is pinned by a digest of its
    results. Those are the results from before refinement was memoized, but
    for ``generated`` and ``redundant_dropped``, which count each node's
    re-proposals since the RHT is the only closed list."""
    every_role = full_context(trains.kb)
    monkeypatch.setattr(search_mod, "top_context", lambda space: every_role)
    without_dominance(monkeypatch)
    res, digest = pinned_trains_search(trains)
    assert len(res.rht) == len(res.evaluated_hashes) == 4_701
    assert len(res.iterations) == 265
    assert sum(i.generated for i in res.iterations) == 6_653
    assert digest == (
        "bb5f57688a73fe974d89e9c4915dc4046e64e3efa77912c2d80c974804066301")


def test_exhaustive_trains_search_in_context_is_pinned(trains, monkeypatch):
    """The same search in the context of its examples, with no union
    dropped as dominated."""
    without_dominance(monkeypatch)
    res, digest = pinned_trains_search(trains)
    assert len(res.rht) == len(res.evaluated_hashes) == 2_392
    assert len(res.iterations) == 106
    assert sum(i.generated for i in res.iterations) == 3_471
    assert digest == (
        "7590f8f0c65940eda107bd0d464ac6bf63c44783dfed8c8b1a49e79abae68183")


def test_exhaustive_trains_search_with_dominance_is_pinned(trains):
    """The same search as it runs: in context, dropping dominated unions."""
    res, digest = pinned_trains_search(trains)
    assert len(res.rht) == len(res.evaluated_hashes) == 1_290
    assert len(res.iterations) == 59
    assert sum(i.generated for i in res.iterations) == 1_953
    assert digest == (
        "d0f189e378a41423f3bb9a2c82779c11249c78363b68800d9ea51b87e99d0849")


# --- the operand and filler memo --------------------------------------------

EXHAUST = SearchConfig(beam_width=8, max_length=5, target_accuracy=2.0)


def count_extensions(monkeypatch) -> list:
    """Count every extension computed, as the benchmark does: by wrapping the
    module-level covered_set, through which each memo miss recurses."""
    calls = []
    original = evaluation_mod.covered_set

    def counting(c, *args):
        calls.append(c)
        return original(c, *args)

    monkeypatch.setattr(evaluation_mod, "covered_set", counting)
    return calls


def search_outcome(res):
    return (res.status, res.evaluated_hashes, list(res.st_insertions.items()),
            [(i.expanded, i.generated, i.redundant_dropped, i.weak_dropped,
              i.st_size) for i in res.iterations],
            [(n.hash, n.coverage, n.score) for n in res.st_nodes])


def test_a_second_search_computes_as_many_extensions_as_the_first(
        trains, monkeypatch):
    calls = count_extensions(monkeypatch)
    counts, outcomes = [], []
    for _ in range(2):
        before = len(calls)
        res = run_search(trains.kb, trains.examples, EXHAUST)
        counts.append(len(calls) - before)
        outcomes.append(search_outcome(res))
    assert counts[0] == counts[1]
    assert outcomes[0] == outcomes[1]

    # Without the memo the same search computes more and finds the same.
    original = search_mod.evaluate_batch
    monkeypatch.setattr(
        search_mod, "evaluate_batch",
        lambda cs, kb, examples, keep_sets=False, memo=None:
            original(cs, kb, examples, keep_sets))
    before = len(calls)
    res = run_search(trains.kb, trains.examples, EXHAUST)
    assert len(calls) - before > counts[0]
    assert search_outcome(res) == outcomes[0]


def test_search_memo_holds_no_top_level_concept(trains, monkeypatch):
    batches = []
    original = search_mod.evaluate_batch

    def recording(cs, kb, examples, keep_sets=False, memo=None):
        batches.append((list(cs), memo))
        return original(cs, kb, examples, keep_sets, memo)

    monkeypatch.setattr(search_mod, "evaluate_batch", recording)
    run_search(trains.kb, trains.examples, EXHAUST)
    first = len(batches)
    run_search(trains.kb, trains.examples, EXHAUST)
    memo = batches[0][1]
    assert memo.memo
    assert all(m is memo for _, m in batches[:first])
    assert all(m is not memo for _, m in batches[first:])  # one per search
    operands = {sort_key(s) for cs, _ in batches[:first] for c in cs
                for s in strict_subconcepts(c)}
    assert memo.memo.keys() <= operands


# --- interning ----------------------------------------------------------------

def test_equal_refinements_of_one_search_are_one_object(trains, monkeypatch):
    """Refine interns what it builds, so an equal concept that one search
    builds again, from another parent or at a larger bound, is the object
    built first; a new search builds its own."""
    searches = []
    original = search_mod.refine

    def recording(*args):
        out = original(*args)
        searches[-1].extend(out)
        return out

    monkeypatch.setattr(search_mod, "refine", recording)
    for _ in range(2):
        searches.append([])
        res = run_search(trains.kb, trains.examples, EXHAUST)
    first, second = searches
    interned = {}
    for c in first:
        assert interned.setdefault(sort_key(c), c) is c
    assert len(first) > len(interned)  # some were built more than once
    assert not any(interned[sort_key(c)] is c for c in second)
    ids = {id(c) for c in second}
    assert all(id(n.concept) in ids for n in res.st_nodes
               if n.parent is not None)

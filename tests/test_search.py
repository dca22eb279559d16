import hashlib
import random

import pytest

import dlbeam.evaluation as evaluation_mod
import dlbeam.search as search_mod
from dlbeam.concept import (Atomic, TOP, concept_length, hash_concept,
                            render, sort_key)
from dlbeam.evaluation import CoverageResult, Score
from dlbeam.kb import materialize, parse_examples, parse_kb
from dlbeam.refine import RefinementConfig
from dlbeam.search import (SearchConfig, SearchNode, expand_single_node,
                           extract_best_nodes, reduce_redundant, run_search)
from generators import strict_subconcepts


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


def test_extract_best_nodes_including_finished():
    st = [make_node(0.9, 0, expandable=False), make_node(0.8, 1)]
    got = extract_best_nodes(st, 1, expandable_only=False)
    assert got == [st[0]]
    assert extract_best_nodes([], 3) == []


# --- expansion --------------------------------------------------------------

def root_node(fix):
    from dlbeam.evaluation import evaluate, score
    cov = evaluate(TOP, fix.kb, fix.examples)
    return SearchNode(TOP, hash_concept(TOP), 1, cov,
                      score(cov, None, 1, fix.examples))


def test_expand_root_emits_short_refinements(trains):
    cfg = RefinementConfig.from_stats(trains.stats)
    node = root_node(trains)
    refs, closed = expand_single_node(node, trains.kb, trains.stats,
                                      trains.mb, cfg, max_length=7)
    assert refs
    assert all(concept_length(c) <= 2 for c in refs)
    assert closed == {hash_concept(c) for c in refs}
    assert node.he == 2
    assert node.expandable


def test_expand_again_only_emits_new_hashes(trains):
    cfg = RefinementConfig.from_stats(trains.stats)
    node = root_node(trains)
    first, _ = expand_single_node(node, trains.kb, trains.stats, trains.mb,
                                  cfg, max_length=7)
    second, closed2 = expand_single_node(node, trains.kb, trains.stats,
                                         trains.mb, cfg, max_length=7)
    assert node.he == 3
    first_hashes = {hash_concept(c) for c in first}
    assert first_hashes.isdisjoint(closed2)
    assert second  # bound 3 reaches quantifiers the length-2 pass could not


def test_expand_exhausts_at_max_length(trains):
    cfg = RefinementConfig.from_stats(trains.stats)
    node = root_node(trains)
    for _ in range(10):
        expand_single_node(node, trains.kb, trains.stats, trains.mb, cfg,
                           max_length=3)
        if not node.expandable:
            break
    assert node.he == 3
    assert not node.expandable
    refs, closed = expand_single_node(node, trains.kb, trains.stats,
                                      trains.mb, cfg, max_length=3)
    assert refs == [] and closed == set()
    assert node.he == 3  # the guarded call never bumps the budget


def test_local_closed_lives_only_while_the_node_is_expandable(trains):
    cfg = RefinementConfig.from_stats(trains.stats)
    node = root_node(trains)
    assert node.local_closed is None  # nothing emitted yet
    _, closed = expand_single_node(node, trains.kb, trains.stats, trains.mb,
                                   cfg, max_length=3)
    assert node.expandable and node.local_closed == closed
    expand_single_node(node, trains.kb, trains.stats, trains.mb, cfg,
                       max_length=3)
    assert not node.expandable and node.local_closed is None
    node = root_node(trains)
    node.he = 3
    assert expand_single_node(node, trains.kb, trains.stats, trains.mb, cfg,
                              max_length=3) == ([], set())
    assert not node.expandable and node.local_closed is None


# --- reduction --------------------------------------------------------------

def fold_oracle(per_slot, rht):
    out, taken = [], set(rht)
    for slot, (refs, _) in enumerate(per_slot):
        for c in refs:
            h = hash_concept(c)
            if h not in taken:
                taken.add(h)
                out.append((c, h, slot))
    return out


def test_reduce_redundant_example():
    a, b, c, d = Atomic(0), Atomic(1), Atomic(2), Atomic(3)
    per_slot = [([a, b], set()), ([b, c], set()), ([c, d, a], set())]
    got = reduce_redundant(per_slot, rht=set())
    assert got == [(a, hash_concept(a), 0), (b, hash_concept(b), 0),
                   (c, hash_concept(c), 1), (d, hash_concept(d), 2)]


def test_reduce_redundant_respects_rht():
    a, b = Atomic(0), Atomic(1)
    got = reduce_redundant([([a, b], set())], rht={hash_concept(a)})
    assert got == [(b, hash_concept(b), 0)]
    assert reduce_redundant([], rht=set()) == []


def test_reduce_redundant_matches_fold_for_many_slot_counts():
    rng = random.Random(501)
    for _ in range(60):
        nslots = rng.randint(1, 8)
        pool = [Atomic(i) for i in range(12)]
        per_slot = [(rng.sample(pool, rng.randint(0, 6)), set())
                    for _ in range(nslots)]
        rht = {hash_concept(pool[i]) for i in range(12) if rng.random() < 0.2}
        assert reduce_redundant(per_slot, rht) == fold_oracle(per_slot, rht)


def test_reduce_redundant_slot_labels():
    a, b = Atomic(0), Atomic(1)
    got = reduce_redundant([([a], set()), ([b, a], set())], rht=set())
    assert got == [(a, hash_concept(a), 0), (b, hash_concept(b), 1)]


def test_reduce_redundant_collision_verification(monkeypatch):
    monkeypatch.setattr(search_mod, "hash_concept", lambda c: 42)
    per_slot = [([Atomic(0)], set()), ([Atomic(1)], set())]
    with pytest.raises(RuntimeError, match="hash collision"):
        search_mod.reduce_redundant(per_slot, set(), verify=True)
    # identical concepts under one hash are fine, first slot survives
    same = [([Atomic(0)], set()), ([Atomic(0)], set())]
    got = search_mod.reduce_redundant(same, set(), verify=True)
    assert got == [(Atomic(0), 42, 0)]
    # without verification a collision silently keeps the first arrival
    got = search_mod.reduce_redundant(per_slot, set(), verify=False)
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


def test_search_keeps_open_list_in_order_on_every_iteration(
        trains, check_open_list):
    calls = check_open_list(search_mod)
    res = run_search(trains.kb, trains.examples,
                     SearchConfig(beam_width=8, max_length=6,
                                  target_accuracy=2.0))  # run to exhaustion
    assert res.status == "exhausted"
    # one call per iteration, one that finds no beam, one for the hypotheses
    assert len(calls) == len(res.iterations) + 2
    assert calls[-1] == len(res.st_nodes) > 1000


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
    res = run_search(smoke.kb, smoke.examples,
                     SearchConfig(max_length=5, verify_collisions=True))
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


def test_search_max_length_one_cannot_expand(smoke):
    res = run_search(smoke.kb, smoke.examples, SearchConfig(max_length=1))
    assert res.status == "exhausted"
    assert res.st_nodes == res.hypotheses == [res.st_nodes[0]]
    assert res.st_nodes[0].concept == TOP
    assert not res.st_nodes[0].expandable


def test_exhaustive_trains_search_is_pinned(trains):
    """The bench's trains-narrow search, run to exhaustion: the order of the
    evaluated hashes, the open-list insertions and the per-iteration counts
    are pinned by a digest of the results before refinement was memoized."""
    res = run_search(trains.kb, trains.examples,
                     SearchConfig(beam_width=8, max_length=6,
                                  target_accuracy=2.0))
    assert res.status == "exhausted"
    assert len(res.rht) == len(res.evaluated_hashes) == 4_701
    assert len(res.iterations) == 265
    digest = hashlib.sha256()
    digest.update(repr(res.evaluated_hashes).encode())
    digest.update(repr(list(res.st_insertions.items())).encode())
    digest.update(repr([(i.expanded, i.generated, i.redundant_dropped,
                         i.weak_dropped, i.st_size)
                        for i in res.iterations]).encode())
    assert digest.hexdigest() == (
        "856aafedcea90dc1617522d660c5647b8aa17db3db44182a6b9240c5b39c6e3f")


# --- the operand and filler memo --------------------------------------------

EXHAUST = SearchConfig(beam_width=8, max_length=5, target_accuracy=2.0)


def count_extensions(monkeypatch) -> list:
    """Count every extension computed, as the benchmark does: by wrapping the
    module-level covered_set, through which each memo miss recurses."""
    calls = []
    original = evaluation_mod.covered_set

    def counting(c, kb, memo=None):
        calls.append(c)
        return original(c, kb, memo)

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
    assert memo
    assert all(m is memo for _, m in batches[:first])
    assert all(m is not memo for _, m in batches[first:])  # one per search
    operands = {sort_key(s) for cs, _ in batches[:first] for c in cs
                for s in strict_subconcepts(c)}
    assert memo.keys() <= operands

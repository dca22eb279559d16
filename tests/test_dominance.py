"""Unions dominated in the examples' context.

A search drops a union with a top-level operand that covers no positive
example, as it drops a weak node. Such a union covers the positives of its
other operands and at least their negatives, and it is longer, so they
dominate it; every refinement of it is dominated, or weak, the same way.
These tests check the helper that decides it, ``dominated_union``, and that
a search that drops such unions drops nothing else: it evaluates a subset of
what the same search without the check evaluates, every union it drops has
an operand that the naive interpreter says covers no positive, it reports
the same best concept and score, and a cluster runs it as a local search
does.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dlbeam.cluster as cluster_mod
import dlbeam.search as search_mod
from dlbeam.cluster import run_master
from dlbeam.concept import (And, Atomic, NotAtomic, Or, TOP, connective,
                            hash_concept)
from dlbeam.evaluation import (Evaluator, dominated_union, evaluate_batch,
                               weak_threshold)
from dlbeam.refine import Refiner, refine
from dlbeam.search import SearchConfig, SearchSettings, run_search
from naive_oracle import naive_covered_set
from test_cluster import master_cfg, worker
from test_context import generated_input


def without_dominance(m) -> None:
    """Stop a search dropping dominated unions, through the monkeypatch
    ``m``: the search as it ran before it dropped them. A cluster master
    then also accepts the dominated unions its workers return."""
    m.setattr(search_mod, "dominated_union", lambda *args: False)
    m.setattr(cluster_mod, "dominated_union", lambda *args: False)


def covers_no_positive(c, kb, examples) -> bool:
    """Whether the naive interpreter finds no positive example in ``c``."""
    return not any(examples.positives[x] for x in naive_covered_set(c, kb))


# --- the helper ---------------------------------------------------------------

def evaluated_memo(fix, concepts) -> Evaluator:
    """A search's memo after it evaluated ``concepts``."""
    memo = Evaluator(fix.kb, fix.examples)
    evaluate_batch(concepts, fix.kb, fix.examples, memo=memo)
    return memo


def atoms_by_positives(fix):
    """The rule-1 atoms of the fixture that cover some positive, and those
    that cover none."""
    refiner = Refiner(fix.kb, fix.stats, fix.mb,
                      SearchSettings(use_disjunction=False))
    live, dead = [], []
    for c in refine(TOP, 4, refiner):
        (dead if covers_no_positive(c, fix.kb, fix.examples) else live).append(c)
    return live, dead


def test_a_union_with_an_operand_that_covers_no_positive_is_dominated(trains):
    live, dead = atoms_by_positives(trains)
    assert live and dead
    for operand in (dead[0], connective(And, (live[0], dead[0]))):
        u = connective(Or, (live[0], operand))
        memo = evaluated_memo(trains, [u])
        assert dominated_union(u, memo)


def test_a_union_whose_operands_all_cover_a_positive_is_kept(trains):
    live, dead = atoms_by_positives(trains)
    assert len(live) >= 2
    dead_class = next(c for c in dead if isinstance(c, Atomic))
    # The complement of a class that covers no positive covers them all.
    for u in (connective(Or, (live[0], live[1])),
              connective(Or, (live[0], NotAtomic(dead_class.class_id))),
              connective(Or, (live[1], connective(And, (live[0], live[1]))))):
        assert isinstance(u, Or)
        assert not any(covers_no_positive(ch, trains.kb, trains.examples)
                       for ch in u.children)
        memo = evaluated_memo(trains, [u])
        assert not dominated_union(u, memo)


def test_a_concept_that_is_not_a_union_is_never_dominated(trains):
    live, dead = atoms_by_positives(trains)
    inner = connective(Or, (live[0], dead[0]))
    for c in (TOP, dead[0], connective(And, (live[0], dead[0])),
              connective(And, (live[1], inner))):
        assert not isinstance(c, Or)
        memo = evaluated_memo(trains, [c])
        assert not dominated_union(c, memo)


# --- the search ---------------------------------------------------------------

def recorded_search(kb, examples, cfg, dominance: bool):
    """run_search, every concept it evaluated by hash, and every union it
    dropped as dominated; with ``dominance`` False it drops none."""
    evaluated, dropped = {}, []
    original_batch = search_mod.evaluate_batch
    original_dominated = search_mod.dominated_union

    def recording_batch(cs, *args, **kwargs):
        evaluated.update((hash_concept(c), c) for c in cs)
        return original_batch(cs, *args, **kwargs)

    def recording_dominated(c, *args):
        out = original_dominated(c, *args)
        if out:
            dropped.append(c)
        return out

    with pytest.MonkeyPatch.context() as m:
        m.setattr(search_mod, "evaluate_batch", recording_batch)
        if dominance:
            m.setattr(search_mod, "dominated_union", recording_dominated)
        else:
            without_dominance(m)
        res = run_search(kb, examples, cfg)
    return res, evaluated, dropped


def best(res):
    n = res.hypotheses[0]
    return n.hash, n.concept, n.score


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_search_drops_only_dominated_unions_and_what_they_lead_to(seed):
    rng = random.Random(seed)
    st_sym, kb, examples = generated_input(rng)
    cfg = SearchConfig(beam_width=rng.choice([1, 2, 4]),
                       max_length=rng.choice([4, 5]), target_accuracy=2.0,
                       limit=5)
    old, old_evaluated, none = recorded_search(kb, examples, cfg, False)
    res, evaluated, dropped = recorded_search(kb, examples, cfg, True)
    assert not none
    assert res.status == old.status == "exhausted"
    assert res.rht <= old.rht
    assert evaluated.keys() == res.rht - {hash_concept(TOP)}
    for c in dropped:
        assert isinstance(c, Or)
        assert any(covers_no_positive(ch, kb, examples) for ch in c.children)
    # What only a dominated union leads to is a union with such an operand
    # too, or weak where a refinement makes the union collapse.
    min_pos = weak_threshold(examples, cfg.noise)
    for h in old.rht - res.rht:
        c = old_evaluated[h]
        assert ((isinstance(c, Or)
                 and any(covers_no_positive(ch, kb, examples)
                         for ch in c.children))
                or len(naive_covered_set(c, kb)
                       & set(examples.pos_ids())) < min_pos)
    assert best(res) == best(old)

    with worker(cores=cfg.beam_width) as w:
        cluster = run_master(kb, st_sym, examples, master_cfg(
            w, max_length=cfg.max_length, target_accuracy=2.0, limit=5))
    assert cluster.status == "exhausted"
    assert cluster.rht == res.rht
    assert cluster.st_insertions == res.st_insertions
    assert ([(n.hash, n.score) for n in cluster.hypotheses]
            == [(n.hash, n.score) for n in res.hypotheses])

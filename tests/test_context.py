"""Refinement in the examples' context.

A search refines in the context of its examples (``refine.top_context``):
its top level names no role, inverse role or concrete role that no example
is the subject of. These tests check that against a reference computed from
the KB's own pair arrays, and that it drops nothing but concepts with such a
"dead" operand: for a concept with none, refinement in context is the
context-free refinement minus the results that have one; a search in
context evaluates the context-free search's concepts minus those; and it
reports the same best concept and score, and as hypotheses the best of the
context-free open list that have no dead operand. A context-free search is
a search whose context is replaced by one that holds every role.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dlbeam.search as search_mod
from dlbeam.cluster import run_master
from dlbeam.concept import (And, BoolEq, Exists, Forall, MaxCard, MinCard,
                            NumGeq, NumLeq, Or, RoleExpr, StrEq, TOP,
                            concept_length, hash_concept)
from dlbeam.evaluation import Evaluator
from dlbeam.kb import compute_statistics
from dlbeam.refine import (Refiner, TopContext, build_mb, refine,
                           refine_top_levels, top_context)
from dlbeam.search import SearchConfig, SearchSettings, run_search
from generators import (dims_of, example_subset_kb, random_concept,
                        random_examples, random_kb)
from test_cluster import master_cfg, worker

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)
seeds = st.integers(0, 2**32 - 1)


def generated_input(rng):
    """A generated KB and examples; most have roles no example is the
    subject of."""
    if rng.random() < 0.75:
        return example_subset_kb(rng)
    st_sym, kb = random_kb(rng)
    return st_sym, kb, random_examples(rng, kb)


def reference_context(kb, examples) -> TopContext:
    """The context read straight off the KB's pair arrays."""
    is_example = examples.positives | examples.negatives

    def with_example(subs_list):
        return frozenset(i for i, subs in enumerate(subs_list)
                         if is_example[subs].any())

    return TopContext(
        frozenset(RoleExpr(r, False) for r in with_example(kb.role_subs))
        | frozenset(RoleExpr(r, True) for r in with_example(kb.role_objs)),
        with_example(kb.bool_subs), with_example(kb.num_subs),
        with_example(kb.str_subs))


def full_context(kb) -> TopContext:
    """A context that holds every role: refinement in it is context-free."""
    return TopContext(
        frozenset(RoleExpr(r, inverse) for r in range(kb.num_roles)
                  for inverse in (False, True)),
        frozenset(range(len(kb.boolean_assertions))),
        frozenset(range(len(kb.numeric_assertions))),
        frozenset(range(len(kb.string_assertions))))


def has_dead_operand(c, ctx: TopContext) -> bool:
    """Whether a top-level operand of ``c``, through And and Or, is a
    restriction over a role outside ``ctx``."""
    t = type(c)
    if t in (And, Or):
        return any(has_dead_operand(ch, ctx) for ch in c.children)
    if t in (Exists, Forall, MinCard, MaxCard):
        return c.role not in ctx.roles
    if t is BoolEq:
        return c.role_id not in ctx.bools
    if t in (NumGeq, NumLeq):
        return c.role_id not in ctx.nums
    if t is StrEq:
        return c.role_id not in ctx.strs
    return False


def same_context(a: TopContext, b: TopContext) -> bool:
    return (a.roles, a.bools, a.nums, a.strs) == (b.roles, b.bools, b.nums,
                                                  b.strs)


# --- the context and one refinement step ------------------------------------

@SETTINGS
@given(seed=seeds)
def test_refine_in_context_is_context_free_refine_minus_dead_operands(seed):
    rng = random.Random(seed)
    _, kb, examples = generated_input(rng)
    stats = compute_statistics(kb)
    mb = build_mb(kb, stats)
    context = top_context(Evaluator(kb, examples).space)
    assert same_context(context, reference_context(kb, examples))
    free, in_context = (Refiner(kb, stats, mb, SearchSettings())
                        for _ in range(2))

    tops = refine(TOP, 5, free)
    concepts = [TOP] + rng.sample(tops, min(20, len(tops)))
    for c in concepts[1:5]:
        below = refine(c, concept_length(c) + 2, free)
        concepts += rng.sample(below, min(5, len(below)))
    concepts += [random_concept(rng, dims_of(kb), depth=3) for _ in range(10)]
    checked = 0
    for c in concepts:
        if has_dead_operand(c, context):
            continue
        checked += 1
        for bound in range(concept_length(c), concept_length(c) + 3):
            want = [r for r in refine(c, bound, free)
                    if not has_dead_operand(r, context)]
            assert refine(c, bound, in_context, context) == want
    assert checked
    for bound in range(2, 7):
        want = [r for r in refine_top_levels(bound, free)
                if not has_dead_operand(r, context)]
        assert refine_top_levels(bound, in_context, context) == want


def test_the_full_context_refines_as_no_context(trains):
    free, in_full = (Refiner(trains.kb, trains.stats, trains.mb,
                             SearchSettings()) for _ in range(2))
    full = full_context(trains.kb)
    frontier = [TOP]
    for bound in range(1, 6):
        for c in frontier:
            assert refine(c, bound, in_full, full) == refine(c, bound, free)
        frontier = refine(TOP, bound, free)[:40]


# --- the search ---------------------------------------------------------------

TOP_HASH = hash_concept(TOP)


def recorded_search(kb, examples, cfg, context_free: bool):
    """run_search, and every concept it evaluated by hash; with
    ``context_free`` the search's context holds every role."""
    evaluated = {}
    original = search_mod.evaluate_batch

    def recording(cs, *args, **kwargs):
        evaluated.update((hash_concept(c), c) for c in cs)
        return original(cs, *args, **kwargs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(search_mod, "evaluate_batch", recording)
        if context_free:
            m.setattr(search_mod, "top_context", lambda space: full_context(kb))
        res = run_search(kb, examples, cfg)
    return res, evaluated


def hypotheses(res):
    return [(n.hash, n.concept, n.score) for n in res.hypotheses]


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=seeds)
def test_a_search_in_context_drops_only_concepts_with_a_dead_operand(seed):
    rng = random.Random(seed)
    _, kb, examples = generated_input(rng)
    context = reference_context(kb, examples)
    cfg = SearchConfig(beam_width=rng.choice([1, 2, 4]),
                       max_length=rng.choice([4, 5]), target_accuracy=2.0,
                       limit=5)
    free, free_evaluated = recorded_search(kb, examples, cfg, True)
    res, evaluated = recorded_search(kb, examples, cfg, False)
    assert res.status == free.status == "exhausted"
    assert res.rht <= free.rht
    # Every concept refined from one with a dead operand has one too, so
    # run to exhaustion the search in context evaluates exactly the others.
    assert res.rht == {h for h in free.rht if h == TOP_HASH
                       or not has_dead_operand(free_evaluated[h], context)}
    assert all(has_dead_operand(free_evaluated[h], context)
               for h in free.rht - res.rht)
    assert evaluated.keys() == res.rht - {TOP_HASH}
    assert hypotheses(res)[0] == hypotheses(free)[0]
    # A concept with a dead operand has the accuracy of the same concept
    # without it, or of Thing or Nothing, so it can rank among the
    # context-free hypotheses: Or(C0, flag2 = false), where no example has
    # flag2, is fifth at seed 0. Those are the ones left out.
    live = [n for n in free.st_nodes
            if not has_dead_operand(n.concept, context)]
    assert hypotheses(res) == [(n.hash, n.concept, n.score)
                               for n in live[:cfg.limit]]


@pytest.mark.parametrize("seed", [3, 17, 40])
def test_a_cluster_in_context_equals_a_local_search(seed):
    st_sym, kb, examples = example_subset_kb(random.Random(seed))
    away = RoleExpr(kb.num_roles - 1, False)  # no example is its subject
    assert away not in top_context(Evaluator(kb, examples).space).roles
    with worker(cores=2) as w:
        res = run_master(kb, st_sym, examples,
                         master_cfg(w, max_length=5, target_accuracy=2.0,
                                    limit=5))
    local = run_search(kb, examples, SearchConfig(
        beam_width=2, max_length=5, target_accuracy=2.0, limit=5))
    assert res.status == local.status == "exhausted"
    assert res.rht == local.rht
    assert res.st_insertions == local.st_insertions
    assert hypotheses(res) == hypotheses(local)

"""Refinement in the examples' context, and the rule-1 table of each context.

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

Rule 1 is read from a table that the refiner builds once per context. These
tests check it against the per-call rule 1 it replaced, kept here as the
oracle, and check that no context is the refiner's full context.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dlbeam.search as search_mod
from dlbeam.cluster import run_master
from dlbeam.concept import (And, Atomic, BoolEq, Exists, Forall, MaxCard,
                            MinCard, NotAtomic, NumGeq, NumLeq, Or, RoleExpr,
                            StrEq, TOP, concept_length, hash_concept, sort_key)
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


# --- rule 1, one table per context -------------------------------------------

def reference_rule_1(bound, r: Refiner, context: TopContext | None):
    """Rule 1 as it was built at each call, before the table: the atoms
    directly below Thing with length <= ``bound``, over the roles of
    ``context``, or over every role if it is None."""
    out = []
    if bound >= 1:
        out.extend(Atomic(c) for c in r.stats.top_level_classes)
        out.extend(m for m in r.mb if concept_length(m) <= bound
                   and (context is None
                        or not has_dead_operand(m, context)))
    if r.use_negation and bound >= 2:
        out.extend(NotAtomic(c) for c in r.stats.leaf_classes)
    for inverse in (False, True) if r.use_inverse_roles else (False,):
        for rid in range(r.kb.num_roles):
            role = RoleExpr(rid, inverse)
            if context is not None and role not in context.roles:
                continue
            rlen = 3 + inverse
            if rlen <= bound:
                out.append(Exists(role, TOP))
                out.append(Forall(role, TOP))
            if (r.use_cardinality and not inverse and rlen + 1 <= bound
                    and r.filler_cap(role) >= 2):
                out.append(MinCard(2, role, TOP))
    return out


def sub_context(rng, ctx: TopContext) -> TopContext:
    """A random part of ``ctx``."""

    def part(items):
        return frozenset(x for x in sorted(items, key=repr)
                         if rng.random() < 0.5)

    return TopContext(part(ctx.roles), part(ctx.bools), part(ctx.nums),
                      part(ctx.strs))


FLAG_SETTINGS = [
    SearchSettings(use_inverse_roles=inv, use_cardinality=card,
                   use_disjunction=disj, use_negation=neg)
    for inv, card, disj, neg in itertools.product((False, True), repeat=4)]


@SETTINGS
@given(seed=seeds)
def test_the_rule_1_table_equals_rule_1_built_per_call(seed):
    rng = random.Random(seed)
    _, kb, examples = generated_input(rng)
    stats = compute_statistics(kb)
    mb = build_mb(kb, stats)
    example_context = top_context(Evaluator(kb, examples).space)
    built = []
    original = Refiner._atom_table

    def counting(self, context):
        built.append(context)
        return original(self, context)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(Refiner, "_atom_table", counting)
        for flags in FLAG_SETTINGS:
            r = Refiner(kb, stats, mb, flags)
            assert same_context(r.full, full_context(kb))
            cases = [(r.full, None), (example_context, example_context)]
            cases += [(c, c) for c in (sub_context(rng, r.full)
                                       for _ in range(3))]
            built.clear()
            for ctx, oracle_ctx in cases:
                for bound in range(-1, 7):
                    want = sorted(reference_rule_1(bound, r, oracle_ctx),
                                  key=concept_length)
                    got = r.atoms(bound, ctx)
                    assert ([sort_key(a) for a in got]
                            == [sort_key(a) for a in want])
                    # A second call returns the very same atom objects.
                    again = r.atoms(bound, ctx)
                    assert all(a is b for a, b in zip(again, got, strict=True))
            assert built == [ctx for ctx, _ in cases]


@SETTINGS
@given(seed=seeds)
def test_no_context_is_the_full_context_and_one_memo_entry(seed):
    rng = random.Random(seed)
    _, kb, _ = generated_input(rng)
    stats = compute_statistics(kb)
    r = Refiner(kb, stats, build_mb(kb, stats), rng.choice(FLAG_SETTINGS))
    tops = refine(TOP, 4, r)
    concepts = [TOP] + rng.sample(tops, min(8, len(tops)))
    concepts += [random_concept(rng, dims_of(kb), depth=3) for _ in range(5)]
    for c in concepts:
        for bound in range(concept_length(c), concept_length(c) + 3):
            free = refine(c, bound, r)
            entries = len(r.memo)
            assert (sort_key(c), bound, r.full) in r.memo
            assert refine(c, bound, r, r.full) == free
            assert len(r.memo) == entries
    for bound in range(2, 7):
        assert refine_top_levels(bound, r) == refine_top_levels(bound, r,
                                                                 r.full)


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

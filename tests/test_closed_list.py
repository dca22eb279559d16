"""The RHT as a search's only closed list.

A node keeps no closed list of its own, so at each expansion it proposes
again what it proposed at its previous one. Those repeats never reach
evaluation: the reduction keeps each proposed hash that the RHT does not
hold, the loop adds every hash it keeps to the RHT, weak or not, and a node
is expanded at most once per iteration, so everything a node proposed is in
the RHT before it is expanded again. These tests check that invariant on
generated KBs, and that a private closed list per node, which drops a
node's repeats before the reduction sees them, changes nothing of a search
but how many refinements it counts as generated.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dlbeam.search as search_mod
from dlbeam.concept import hash_concept
from dlbeam.search import SearchConfig, run_search
from test_context import generated_input


def recorded_expansions(kb, examples, cfg):
    """run_search; each expand_single_node call it made, as the index of its
    iteration, the node's hash and the hashes it proposed; and the RHT at
    the start of each iteration."""
    calls, rhts = [], []
    original_expand = search_mod.expand_single_node
    original_reduce = search_mod.reduce_redundant

    def recording_expand(node, *args):
        out = original_expand(node, *args)
        calls.append((len(rhts), node.hash, {hash_concept(c) for c in out}))
        return out

    def recording_reduce(per_slot, rht, *args, **kwargs):
        # Called once per iteration, after its expansions and before the
        # loop adds anything to the RHT.
        rhts.append(set(rht))
        return original_reduce(per_slot, rht, *args, **kwargs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(search_mod, "expand_single_node", recording_expand)
        m.setattr(search_mod, "reduce_redundant", recording_reduce)
        res = run_search(kb, examples, cfg)
    return res, calls, rhts


def with_private_closed_lists(m) -> None:
    """Give each node of a search a closed list of its own, through the
    monkeypatch ``m``: an expansion proposes only hashes that the node did
    not propose before."""
    closed: dict[int, set[int]] = {}
    original = search_mod.expand_single_node

    def filtering(node, *args):
        seen = closed.setdefault(node.hash, set())
        out = []
        for c in original(node, *args):
            h = hash_concept(c)
            if h not in seen:
                seen.add(h)
                out.append(c)
        return out

    m.setattr(search_mod, "expand_single_node", filtering)


def parent_chain(node):
    chain = []
    while node is not None:
        chain.append(node.hash)
        node = node.parent
    return chain


def outcome(res):
    """All of a search's results but its generated and redundant counts."""
    return (res.status, res.evaluated_hashes, list(res.st_insertions.items()),
            [(i.expanded, i.weak_dropped, i.st_size) for i in res.iterations],
            [(n.hash, n.he, n.expandable, n.score, parent_chain(n))
             for n in res.st_nodes],
            [n.hash for n in res.hypotheses])


def generated_search(seed):
    rng = random.Random(seed)
    _st_sym, kb, examples = generated_input(rng)
    cfg = SearchConfig(beam_width=rng.choice([1, 2, 4]),
                       max_length=rng.choice([4, 5]), target_accuracy=2.0,
                       limit=5)
    return kb, examples, cfg


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_what_a_node_proposed_is_in_the_rht_when_it_is_expanded_again(seed):
    kb, examples, cfg = generated_search(seed)
    res, calls, rhts = recorded_expansions(kb, examples, cfg)
    assert res.status == "exhausted"
    assert len(rhts) == len(res.iterations)
    previous: dict[int, set[int]] = {}
    repeats = 0
    for iteration, node, proposed in calls:
        before = previous.get(node)
        if before is not None:
            assert before <= rhts[iteration]
            repeats += len(before & proposed)
        previous[node] = proposed
    # The root is expanded at every bound up to max_length, and proposes
    # its atoms again at each.
    assert repeats


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_private_closed_list_per_node_changes_only_what_is_generated(seed):
    kb, examples, cfg = generated_search(seed)
    res = run_search(kb, examples, cfg)
    with pytest.MonkeyPatch.context() as m:
        with_private_closed_lists(m)
        private = run_search(kb, examples, cfg)
    assert outcome(res) == outcome(private)
    assert ([i.generated - i.redundant_dropped for i in res.iterations]
            == [i.generated - i.redundant_dropped for i in private.iterations])
    assert (sum(i.generated for i in res.iterations)
            > sum(i.generated for i in private.iterations))

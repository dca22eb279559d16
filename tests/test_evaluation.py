import math
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dlbeam.evaluation as evaluation_mod
from dlbeam.concept import (And, Atomic, BoolEq, Exists, Forall, MaxCard,
                            MinCard, NotAtomic, NumGeq, NumLeq, Or, RoleExpr,
                            StrEq, TOP, Top, canonicalize, sort_key)
from dlbeam.evaluation import (CoverageResult, Evaluator, accuracy,
                               covered_set, evaluate, evaluate_batch, score,
                               weak_threshold)
from dlbeam.kb import ExampleSet, KbError, materialize, parse_kb
from generators import (NUM_POOL, dims_of, example_subset_kb, random_concept,
                        random_examples, random_kb, strict_subconcepts)
from naive_oracle import naive_covered_set, satisfies


def ids(mask) -> set:
    return set(np.nonzero(mask)[0].tolist())


# a=0 b=1 c=2 d=3 e=4 f=5; Person={a..d}, Happy={b,d}; a->b, c->d, e->f
def test_atomic_and_negation(smoke):
    kb, st = smoke.kb, smoke.st
    person = st.class_names.id_of("Person")
    assert ids(covered_set(Atomic(person), kb)) == {0, 1, 2, 3}
    assert ids(covered_set(NotAtomic(person), kb)) == {4, 5}
    assert ids(covered_set(TOP, kb)) == {0, 1, 2, 3, 4, 5}


def test_exists_and_inverse(smoke):
    kb, st = smoke.kb, smoke.st
    child = RoleExpr(st.role_names.id_of("hasChild"))
    happy = Atomic(st.class_names.id_of("Happy"))
    assert ids(covered_set(Exists(child, happy), kb)) == {0, 2}
    assert ids(covered_set(Exists(child, TOP), kb)) == {0, 2, 4}
    inv = RoleExpr(child.role_id, True)
    assert ids(covered_set(Exists(inv, TOP), kb)) == {1, 3, 5}


def test_forall_is_vacuously_true_without_fillers(smoke):
    kb, st = smoke.kb, smoke.st
    child = RoleExpr(st.role_names.id_of("hasChild"))
    happy = Atomic(st.class_names.id_of("Happy"))
    # b, d, f have no children at all and still satisfy the restriction.
    assert ids(covered_set(Forall(child, happy), kb)) == {0, 1, 2, 3, 5}


def test_cardinalities(smoke):
    kb, st = smoke.kb, smoke.st
    child = RoleExpr(st.role_names.id_of("hasChild"))
    happy = Atomic(st.class_names.id_of("Happy"))
    assert ids(covered_set(MinCard(1, child, TOP), kb)) == {0, 2, 4}
    assert ids(covered_set(MinCard(2, child, TOP), kb)) == set()
    assert ids(covered_set(MaxCard(0, child, happy), kb)) == {1, 3, 4, 5}
    assert ids(covered_set(MaxCard(5, child, TOP), kb)) == {0, 1, 2, 3, 4, 5}


def test_min_card_one_equals_exists(smoke):
    rng = random.Random(301)
    for _ in range(50):
        c = random_concept(rng, dims_of(smoke.kb), depth=2)
        role = RoleExpr(0, rng.random() < 0.5)
        a = covered_set(MinCard(1, role, c), smoke.kb)
        b = covered_set(Exists(role, c), smoke.kb)
        assert np.array_equal(a, b)


CONCRETE = """\
numrole weight
boolrole electric
strrole color
individual x
individual y
individual z
individual w
numfact weight x 1.0
numfact weight x 3.0
numfact weight y 2.0
boolfact electric y true
boolfact electric z false
boolfact electric w true
boolfact electric w false
strfact color x red
strfact color y blue
strfact color z red
"""


def test_concrete_roles_use_any_assertion_semantics():
    st, kb = parse_kb(CONCRETE)
    materialize(kb, st)
    # x carries both 1.0 and 3.0, so one assertion can satisfy each side;
    # bounds are inclusive (y's 2.0 meets both).
    assert ids(covered_set(NumGeq(0, 2.5), kb)) == {0}
    assert ids(covered_set(NumGeq(0, 2.0), kb)) == {0, 1}
    assert ids(covered_set(NumLeq(0, 2.0), kb)) == {0, 1}
    assert ids(covered_set(NumGeq(0, 1.0), kb)) == {0, 1}
    assert ids(covered_set(BoolEq(0, True), kb)) == {1, 3}
    assert ids(covered_set(BoolEq(0, False), kb)) == {2, 3}
    red = st.string_values[0].id_of("red")
    blue = st.string_values[0].id_of("blue")
    assert ids(covered_set(StrEq(0, red), kb)) == {0, 2}
    assert ids(covered_set(StrEq(0, blue), kb)) == {1}


def test_connectives_match_set_algebra(smoke):
    rng = random.Random(302)
    dims = dims_of(smoke.kb)
    for _ in range(80):
        a = random_concept(rng, dims, depth=2)
        b = random_concept(rng, dims, depth=2)
        ca, cb = covered_set(a, smoke.kb), covered_set(b, smoke.kb)
        assert np.array_equal(covered_set(And((a, b)), smoke.kb), ca & cb)
        assert np.array_equal(covered_set(Or((a, b)), smoke.kb), ca | cb)


def test_covered_set_requires_materialized_kb():
    _, kb = parse_kb("class A\nindividual x\n")
    with pytest.raises(KbError):
        covered_set(Atomic(0), kb)


def test_covered_set_matches_naive_interpreter():
    rng = random.Random(303)
    for _ in range(60):
        _, kb = random_kb(rng)
        dims = dims_of(kb)
        for _ in range(5):
            c = random_concept(rng, dims)
            assert ids(covered_set(c, kb)) == naive_covered_set(c, kb)


def test_canonicalization_preserves_semantics():
    from dlbeam.concept import canonicalize
    rng = random.Random(304)
    for _ in range(60):
        _, kb = random_kb(rng)
        c = random_concept(rng, dims_of(kb), canonical=False)
        assert np.array_equal(covered_set(c, kb),
                              covered_set(canonicalize(c), kb))


# --- evaluate / batch -------------------------------------------------------

def test_evaluate_counts(smoke):
    child = RoleExpr(smoke.st.role_names.id_of("hasChild"))
    happy = Atomic(smoke.st.class_names.id_of("Happy"))
    cov = evaluate(Exists(child, happy), smoke.kb, smoke.examples)
    assert (cov.pos_covered, cov.neg_covered) == (2, 0)
    assert cov.covered is None
    person = Atomic(smoke.st.class_names.id_of("Person"))
    cov = evaluate(person, smoke.kb, smoke.examples, keep_set=True)
    assert (cov.pos_covered, cov.neg_covered) == (2, 1)
    assert ids(cov.covered) == {0, 1, 2, 3}


def test_evaluate_batch_matches_sequential(smoke):
    rng = random.Random(305)
    cs = [random_concept(rng, dims_of(smoke.kb)) for _ in range(120)]
    want = [evaluate(c, smoke.kb, smoke.examples) for c in cs]
    assert evaluate_batch(cs, smoke.kb, smoke.examples) == want


def test_evaluate_batch_edge_cases(smoke):
    assert evaluate_batch([], smoke.kb, smoke.examples) == []
    c = Atomic(0)
    got = evaluate_batch([c, c, c], smoke.kb, smoke.examples)
    assert got[0] == got[1] == got[2]


# --- operand and filler memo ----------------------------------------------

def concepts_sharing_operands(rng, kb, n=40):
    """Concepts built over a small pool, so that many share an operand or a
    filler, followed by every strict sub-concept of each."""
    dims = dims_of(kb)
    pool = [random_concept(rng, dims, depth=2) for _ in range(6)]
    out = []
    for _ in range(n):
        a, b = rng.choice(pool), rng.choice(pool)
        role = RoleExpr(rng.randrange(dims.n_roles), rng.random() < 0.3)
        out.append(canonicalize(rng.choice([
            And((a, b)), Or((a, b)), Exists(role, a), Forall(role, b),
            MinCard(2, role, a), MaxCard(1, role, Or((a, b)))])))
    return out + [s for c in out for s in strict_subconcepts(c)]


def test_a_shared_memo_changes_no_extension():
    rng = random.Random(306)
    for _ in range(40):
        _, kb = random_kb(rng)
        cs = concepts_sharing_operands(rng, kb)
        want = [covered_set(c, kb) for c in cs]
        memo = {}
        order = list(range(len(cs))) * 2
        rng.shuffle(order)
        checked = set()
        for i in order:
            got = covered_set(cs[i], kb, memo)
            assert got.dtype == bool
            assert np.array_equal(got, want[i])
            if i not in checked:
                checked.add(i)
                assert ids(got) == naive_covered_set(cs[i], kb)
            got ^= True  # callers combine in place; the memo must not see it
        assert memo


def test_memo_holds_only_operand_and_filler_extensions():
    rng = random.Random(307)
    for _ in range(40):
        _, kb = random_kb(rng)
        cs = concepts_sharing_operands(rng, kb)[:40]
        memo = {}
        for c in cs:
            covered_set(c, kb, memo)
        operands = {sort_key(s): s for c in cs for s in strict_subconcepts(c)}
        assert memo.keys() <= operands.keys()
        for key, packed in memo.items():
            operand = operands[key]
            assert not isinstance(operand, (Top, Atomic, NotAtomic))
            assert packed.dtype == np.uint8
            assert packed.shape == ((kb.num_individuals + 7) // 8,)
            assert np.array_equal(
                np.unpackbits(packed, count=kb.num_individuals).astype(bool),
                covered_set(operand, kb))


def test_threads_sharing_one_memo_get_memo_free_results():
    rng = random.Random(308)
    _, kb = random_kb(rng, max_individuals=200)
    examples = random_examples(rng, kb)
    base = concepts_sharing_operands(rng, kb, n=60)
    want_sets = [covered_set(c, kb) for c in base]
    cs = base * 4  # every concept four times, so later copies hit the memo
    want = evaluate_batch(cs, kb, examples, keep_sets=True)
    memo = {}
    assert evaluate_batch(cs, kb, examples, keep_sets=True, memo=memo) == want
    assert memo
    assert evaluate_batch(cs, kb, examples, keep_sets=True, memo=memo) == want
    failures = []

    def race(memo: dict, seed: int, start: threading.Barrier) -> None:
        order = list(range(len(base)))
        random.Random(seed).shuffle(order)
        start.wait()
        for i in order:
            if not np.array_equal(covered_set(base[i], kb, memo), want_sets[i]):
                failures.append((seed, i))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # Four threads start together on a fresh memo each round and fill it
        # while the others read it.
        for r in range(60):
            memo, start = {}, threading.Barrier(4)
            threads = [threading.Thread(target=race, args=(memo, 4 * r + k, start))
                       for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert failures == []


# --- the example row space ---------------------------------------------------

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


def away_concepts(rng, kb):
    """Restrictions whose subjects are never examples (see
    ``example_subset_kb``): over the last role, forward and inverse, and the
    last numeric and boolean roles, alone and inside nested And/Or."""
    dims = dims_of(kb)
    away = kb.num_roles - 1
    out = [NumGeq(dims.n_num - 1, rng.choice(NUM_POOL)),
           NumLeq(dims.n_num - 1, rng.choice(NUM_POOL)),
           BoolEq(dims.n_bool - 1, rng.random() < 0.5)]
    for inverse in (False, True):
        role = RoleExpr(away, inverse)
        filler = random_concept(rng, dims, depth=2)
        out += [Exists(role, filler), Forall(role, filler),
                MinCard(rng.randint(1, 2), role, filler),
                MaxCard(0, role, filler), MaxCard(2, role, filler)]
    for _ in range(6):
        inner = And((rng.choice(out), random_concept(rng, dims, depth=2)))
        out.append(Or((inner, rng.choice(out), random_concept(rng, dims, 1))))
    return [canonicalize(c) for c in out]


def full_counts(c, kb, examples):
    cov = covered_set(c, kb)
    return (int(np.count_nonzero(cov & examples.positives)),
            int(np.count_nonzero(cov & examples.negatives)))


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1))
def test_example_space_counts_equal_covered_set_and_the_oracle(seed):
    rng = random.Random(seed)
    _, kb, examples = example_subset_kb(rng)
    cs = ([random_concept(rng, dims_of(kb), depth=3) for _ in range(20)]
          + away_concepts(rng, kb))
    pos, neg = set(examples.pos_ids()), set(examples.neg_ids())
    memo = Evaluator(kb, examples)
    for c in cs:
        got = evaluate(c, kb, examples, memo=memo)
        assert (got.pos_covered, got.neg_covered) == full_counts(c, kb, examples)
        naive = naive_covered_set(c, kb)
        assert (got.pos_covered, got.neg_covered) == (len(naive & pos),
                                                      len(naive & neg))
    # A second pass reads what the first stored, and keep_set still gives
    # the extension over all individuals.
    for c in cs:
        assert (evaluate(c, kb, examples, memo=memo)
                == evaluate(c, kb, examples))
        assert (evaluate(c, kb, examples, keep_set=True, memo=memo)
                == evaluate(c, kb, examples, keep_set=True))
    space = memo.space
    assert space.ids.tolist() == sorted(pos | neg)
    operands = {sort_key(s): s for c in cs for s in strict_subconcepts(c)}
    assert memo.memo.keys() <= operands.keys()


def test_a_restriction_no_example_is_subject_of_never_computes_its_filler(
        monkeypatch):
    calls = []
    original = evaluation_mod.covered_set

    def counting(c, *args):
        calls.append(c)
        return original(c, *args)

    monkeypatch.setattr(evaluation_mod, "covered_set", counting)
    rng = random.Random(311)
    for _ in range(20):
        _, kb, examples = example_subset_kb(rng)
        away = RoleExpr(kb.num_roles - 1)
        filler = Exists(RoleExpr(0), NotAtomic(0))
        memo = Evaluator(kb, examples)
        for c in (Exists(away, filler), Forall(away, filler),
                  MinCard(1, away, filler), MaxCard(0, away, filler)):
            got = evaluate(c, kb, examples, memo=memo)
            assert (got.pos_covered, got.neg_covered) == full_counts(
                c, kb, examples)
            calls.clear()
            evaluate(c, kb, examples, memo=memo)
            assert calls == []


def test_each_example_set_counts_under_a_memo_of_its_own():
    rng = random.Random(312)
    for _ in range(30):
        _, kb, first = example_subset_kb(rng)
        second = random_examples(rng, kb)
        cs = [random_concept(rng, dims_of(kb), depth=3) for _ in range(20)]
        for examples in (first, second):
            memo = Evaluator(kb, examples)
            assert ([evaluate(c, kb, examples, memo=memo) for c in cs]
                    == [evaluate(c, kb, examples) for c in cs])
            assert memo.space.ids.tolist() == sorted(
                examples.pos_ids() + examples.neg_ids())


def test_an_evaluator_refuses_another_kb_or_example_set(trains, smoke):
    """An Evaluator counts in the example space it was built for, so
    handed another pair it would count that space's examples."""
    kb, examples = trains.kb, trains.examples
    c = Exists(RoleExpr(0), Atomic(3))  # hasCar some ClosedCar
    ids = examples.pos_ids() + examples.neg_ids()
    # The same examples with trains 0 and 5 the only positives.
    other = ExampleSet.from_ids(kb.num_individuals, [0, 5],
                                [i for i in ids if i not in (0, 5)])
    ev = Evaluator(kb, examples)
    assert evaluate(c, kb, other) == CoverageResult(2, 6)
    assert evaluate(c, kb, examples, memo=ev) == evaluate(c, kb, examples)
    for keep_set in (False, True):
        for pair in ((kb, other), (smoke.kb, examples)):
            with pytest.raises(ValueError, match="built for"):
                evaluate(c, *pair, keep_set, memo=ev)


WIDE = 300  # individuals, so that one row can have more than 255 successors


def wide_kb(rng):
    """A random KB of WIDE individuals, with two example sets over 30 of
    them, a role ``wide`` over which two examples of both sets have 256 or
    more successors, and a role ``away`` no example is the subject of.
    Returns (kb, examples of the first set, of the second)."""
    st, kb = random_kb(rng, do_materialize=False)
    for x in range(kb.num_individuals, WIDE):
        st.individual_names.intern(f"i{x}")
        kb.add_individual()
        for c in range(kb.num_classes):
            if rng.random() < 0.3:
                kb.add_instance(c, x)
    ids = list(range(WIDE))
    rng.shuffle(ids)
    hubs, rows, others = ids[:2], ids[2:30], ids[30:]
    sets = []
    for _ in range(2):
        chosen = hubs + rng.sample(rows, rng.randint(1, len(rows)))
        rng.shuffle(chosen)
        npos = rng.randint(1, len(chosen) - 1)
        sets.append(ExampleSet.from_ids(WIDE, chosen[:npos], chosen[npos:]))
    for name in ("wide", "away"):
        st.role_names.intern(name)
        kb.add_role()
    wide, away = kb.num_roles - 2, kb.num_roles - 1
    for hub in hubs:
        for y in rng.sample(ids, rng.randint(256, 280)):
            kb.add_fact(wide, hub, y)
    for _ in range(rng.randint(1, 60)):
        kb.add_fact(wide, rng.choice(ids), rng.choice(ids))
        kb.add_fact(away, rng.choice(others), rng.choice(ids))
    materialize(kb, st)
    return kb, *sets


def oracle_counts(c, kb, examples):
    """Covered positives and negatives by the naive interpreter, asked only
    about the examples."""
    return (sum(satisfies(c, kb, x) for x in examples.pos_ids()),
            sum(satisfies(c, kb, x) for x in examples.neg_ids()))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_every_form_over_one_role_and_filler_reads_one_successor_count(seed):
    rng = random.Random(seed)
    kb, first, second = wide_kb(rng)
    dims = dims_of(kb)
    wide, away = kb.num_roles - 2, kb.num_roles - 1
    cs, fillers = [], {}
    for rid in range(kb.num_roles):
        for inverse in (False, True):
            role = RoleExpr(rid, inverse)
            filler = random_concept(rng, dims, depth=2)
            fillers[inverse, rid, sort_key(filler)] = filler
            n = rng.choice((1, 2, 255, 256, 270)) if rid == wide else rng.randint(1, 3)
            forms = [Exists(role, filler), Forall(role, filler),
                     MinCard(n, role, filler), MaxCard(n - 1, role, filler)]
            cs += forms + [canonicalize(Or((And((forms[0], forms[3])),
                                            forms[1])))]
    for examples in (first, second):
        memo = Evaluator(kb, examples)
        for c in cs:
            got = evaluate(c, kb, examples, memo=memo)
            counts = (got.pos_covered, got.neg_covered)
            assert counts == full_counts(c, kb, examples)
            assert counts == oracle_counts(c, kb, examples)
        space = memo.space
        check_chunks(space, kb)
        # An entry per role and filler, and none for a role no example is
        # the subject of; the rest are the fillers' operands and the atoms
        # of their negated atoms, read through the same chunks.
        assert {key for key in fillers if space.chunks[key[0]][key[1]]
                is not None} <= space.counts.keys()
        assert not any(rid == away for inverse, rid, _ in space.counts
                       if not inverse)
        concepts = {}
        for (inverse, rid, _), f in fillers.items():
            for sub in (f, *strict_subconcepts(f)):
                concepts[inverse, rid, sort_key(sub)] = sub
                if type(sub) is NotAtomic:  # read off its atom's entry
                    atom = Atomic(sub.class_id)
                    concepts[inverse, rid, sort_key(atom)] = atom
        for key, (bits, found, count) in space.counts.items():
            inverse, rid, _ = key
            chunks = space.chunks[inverse][rid]
            in_filler = naive_covered_set(concepts[key], kb)
            lists = successor_lists(kb, space, inverse, rid)
            for row, successors in enumerate(lists):
                if row in chunks.heavy_rows:
                    assert not any(b >> row & 1 for b in bits)
                    continue
                for j, b in enumerate(bits):
                    assert b >> row & 1 == (j < len(successors)
                                            and successors[j] in in_filler)
            if found is None:
                assert count is None and not len(chunks.heavy_rows)
                continue
            assert found.tolist() == [
                o in in_filler for o in chunks.heavy_objs.tolist()]
            assert count.tolist() == [
                len(in_filler.intersection(lists[row]))
                for row in chunks.heavy_rows.tolist()]


def successor_lists(kb, space, inverse, rid):
    """Each example row's successors over role ``rid`` or its inverse, by
    the naive reading of the KB's pairs, in their order."""
    pairs = [(o, s) if inverse else (s, o) for s, o in kb.role_assertions[rid]]
    return [[o for s, o in pairs if s == x] for x in space.ids.tolist()]


def check_chunks(space, kb):
    """Every role's chunks against the naive reading of the KB: the depth
    is the largest that keeps the chunks within twice the successors they
    hold plus one chunk, a row of at most ``depth`` successors has its
    *j*-th at chunk *j*, a heavier row is counted outside the chunks over
    its own pairs, and the chunks hold at most 2 * pairs + rows ids."""
    for inverse in (False, True):
        for rid in range(kb.num_roles):
            lists = successor_lists(kb, space, inverse, rid)
            chunks = space.chunks[inverse][rid]
            pairs = sum(map(len, lists))
            if not pairs:
                assert chunks is None
                continue
            depth = len(chunks.present)
            n = space.size
            assert depth == max(
                d for d in range(chunks.most + 1)
                if d * n <= 2 * sum(len(s) for s in lists if len(s) <= d) + n)
            assert chunks.ids.shape == (depth, n)
            assert chunks.ids.size <= 2 * pairs + n
            assert chunks.most == max(map(len, lists)) >= depth
            heavy = [row for row, s in enumerate(lists) if len(s) > depth]
            assert chunks.heavy_rows.tolist() == heavy
            for row, successors in enumerate(lists):
                light = len(successors) <= depth
                assert chunks.light >> row & 1 == light
                if not light:
                    at = heavy.index(row)
                    assert chunks.heavy_degree[at] == len(successors)
                    start = chunks.heavy_starts[at]
                    assert chunks.heavy_objs[
                        start:start + len(successors)].tolist() == successors
                for j in range(depth):
                    has = light and j < len(successors)
                    assert chunks.present[j] >> row & 1 == has
                    if has:
                        assert chunks.ids[j, row] == successors[j]


def test_chunks_hold_each_rows_jth_successor():
    # Rows 1 and 4 have no successor; row 2 has the most, three.
    subs = np.array([2, 0, 2, 2, 0, 3, 3])
    objs = np.array([7, 5, 8, 9, 6, 4, 1])
    chunks = evaluation_mod._chunks(subs, objs, 5)
    assert chunks.ids.tolist() == [[5, 0, 7, 4, 0], [6, 0, 8, 1, 0],
                                   [0, 0, 9, 0, 0]]
    assert chunks.present == (0b01101, 0b01101, 0b00100)
    assert chunks.light == 0b11111 and chunks.most == 3
    assert chunks.heavy_rows.tolist() == []
    assert evaluation_mod._chunks(subs[:0], objs[:0], 5) is None
    # Six chunks for row 0's six successors would hold 36 ids for 8 pairs:
    # one chunk holds rows 1 and 2, and row 0 is counted outside it.
    subs = np.array([0, 1, 0, 0, 2, 0, 0, 0])
    objs = np.array([3, 4, 5, 6, 7, 8, 9, 1])
    chunks = evaluation_mod._chunks(subs, objs, 6)
    assert chunks.ids.tolist() == [[0, 4, 7, 0, 0, 0]]
    assert chunks.present == (0b000110,)
    assert chunks.light == 0b111110 and chunks.most == 6
    assert chunks.heavy_rows.tolist() == [0]
    assert chunks.heavy_objs.tolist() == [3, 5, 6, 8, 9, 1]
    assert chunks.heavy_starts.tolist() == [0]
    assert chunks.heavy_degree.tolist() == [6]


def test_chunks_of_forward_and_inverse_roles_in_the_example_space():
    st, kb = parse_kb(
        "role r\n" + "".join(f"individual i{x}\n" for x in range(6))
        + "fact r i0 i1\nfact r i0 i2\nfact r i3 i0\nfact r i1 i0\n"
        + "fact r i5 i4\n")
    materialize(kb, st)
    examples = ExampleSet.from_ids(6, [0, 1], [3, 4])
    space = Evaluator(kb, examples).space
    check_chunks(space, kb)
    forward, backward = space.chunks[False][0], space.chunks[True][0]
    # Rows are i0, i1, i3, i4. Forward: i0 -> i1, i2; i1 -> i0; i3 -> i0;
    # i4 has none. Backward: i0 <- i3, i1; i1 <- i0; i4 <- i5; i3 has none.
    assert forward.ids.tolist() == [[1, 0, 0, 0], [2, 0, 0, 0]]
    assert forward.present == (0b0111, 0b0001)
    assert backward.ids.tolist() == [[3, 0, 0, 5], [1, 0, 0, 0]]
    assert backward.present == (0b1011, 0b0001)
    assert forward.light == backward.light == 0b1111


def hub_kb(rng):
    """A random KB whose role ``hub`` gives 20 to 40 example rows up to
    three successors each, and one to three of them 40 to 80, more than
    the chunks' depth. Objects are any individual, examples too, so the
    inverse role has pairs over the example rows as well. Returns (kb,
    examples, role id)."""
    st, kb = random_kb(rng, do_materialize=False)
    total = rng.randint(100, 160)
    for x in range(kb.num_individuals, total):
        st.individual_names.intern(f"i{x}")
        kb.add_individual()
        for c in range(kb.num_classes):
            if rng.random() < 0.3:
                kb.add_instance(c, x)
    ids = list(range(total))
    rng.shuffle(ids)
    rows = ids[:rng.randint(20, 40)]
    npos = rng.randint(1, len(rows) - 1)
    examples = ExampleSet.from_ids(total, rows[:npos], rows[npos:])
    st.role_names.intern("hub")
    kb.add_role()
    hub = kb.num_roles - 1
    hubs = rng.sample(rows, rng.randint(1, 3))
    for x in rows:
        degree = rng.randint(40, 80) if x in hubs else rng.randint(0, 3)
        for y in rng.sample(ids, degree):
            kb.add_fact(hub, x, y)
    materialize(kb, st)
    return kb, examples, hub


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_rows_above_the_chunk_depth_count_as_covered_set_and_the_oracle(seed):
    rng = random.Random(seed)
    kb, examples, hub = hub_kb(rng)
    dims = dims_of(kb)
    memo = Evaluator(kb, examples)
    space = memo.space
    check_chunks(space, kb)
    assert len(space.chunks[False][hub].heavy_rows) > 0
    cs = []
    for inverse in (False, True):
        chunks = space.chunks[inverse][hub]
        if chunks is None:
            continue
        role, depth = RoleExpr(hub, inverse), len(chunks.present)
        for filler in (TOP, Atomic(rng.randrange(kb.num_classes)),
                       NotAtomic(rng.randrange(kb.num_classes)),
                       random_concept(rng, dims, depth=2)):
            cs += [Exists(role, filler), Forall(role, filler)]
            for n in {1, depth - 1, depth, depth + 1, chunks.most,
                      chunks.most + 1} - {0}:
                cs += [MinCard(n, role, filler), MaxCard(n - 1, role, filler),
                       MaxCard(n, role, filler)]
    cs = [canonicalize(c) for c in cs]
    cs.append(canonicalize(Or((And((cs[0], cs[-1])), cs[1]))))
    for c in cs:
        got = evaluate(c, kb, examples, memo=memo)
        counts = (got.pos_covered, got.neg_covered)
        assert counts == full_counts(c, kb, examples)
        assert counts == oracle_counts(c, kb, examples)


# --- scoring ----------------------------------------------------------------

def test_score_formula():
    ex = ExampleSet.from_ids(10, range(5), range(5, 10))
    # perfect separation, no parent: value = accuracy - penalty * he
    s = score(CoverageResult(5, 0), None, 3, ex)
    assert s.accuracy == 1.0
    assert s.value == pytest.approx(1.0 - 0.02 * 3)
    # accuracy counts uncovered negatives as wins
    s = score(CoverageResult(4, 1), None, 1, ex)
    assert s.accuracy == pytest.approx((4 + 4) / 10)
    assert s.accuracy == accuracy(CoverageResult(4, 1), ex)
    # gain bonus is half the improvement over the parent
    s = score(CoverageResult(5, 0), 0.8, 5, ex)
    assert s.value == pytest.approx(1.0 + 0.5 * 0.2 - 0.02 * 5)
    # no negative gain: a worse child only pays the length penalty
    s = score(CoverageResult(3, 0), 1.0, 4, ex)
    assert s.value == pytest.approx(0.8 - 0.02 * 4)


# --- weakness ---------------------------------------------------------------

def test_weak_threshold():
    ex = ExampleSet.from_ids(10, range(5), range(5, 10))
    assert weak_threshold(ex, 0.0) == 5


def test_weak_threshold_with_noise():
    ex = ExampleSet.from_ids(20, range(10), range(10, 20))
    # ceil(0.8 * 10) = 8 positives required
    assert weak_threshold(ex, 0.2) == 8
    # awkward float products still round up: ceil(0.7 * 10) = 7
    assert weak_threshold(ex, 0.3) == 7
    assert math.ceil((1.0 - 0.3) * 10) == 7


def test_weak_threshold_validates_noise():
    ex = ExampleSet.from_ids(2, [0], [1])
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            weak_threshold(ex, bad)


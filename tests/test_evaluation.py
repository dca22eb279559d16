import math
import random
import sys
import threading

import numpy as np
import pytest

from dlbeam.concept import (And, Atomic, BoolEq, Exists, Forall, MaxCard,
                            MinCard, NotAtomic, NumGeq, NumLeq, Or, RoleExpr,
                            StrEq, TOP, Top, canonicalize, sort_key)
from dlbeam.evaluation import (CoverageResult, EvalConfig, covered_set,
                               evaluate, evaluate_batch, is_weak, score)
from dlbeam.kb import ExampleSet, KbError, materialize, parse_kb
from generators import (dims_of, random_concept, random_examples, random_kb,
                        strict_subconcepts)
from naive_oracle import naive_covered_set


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
    # gain bonus is half the improvement over the parent
    s = score(CoverageResult(5, 0), 0.8, 5, ex)
    assert s.value == pytest.approx(1.0 + 0.5 * 0.2 - 0.02 * 5)
    # no negative gain: a worse child only pays the length penalty
    s = score(CoverageResult(3, 0), 1.0, 4, ex)
    assert s.value == pytest.approx(0.8 - 0.02 * 4)


def test_score_custom_config():
    ex = ExampleSet.from_ids(4, [0, 1], [2, 3])
    cfg = EvalConfig(gain_bonus=1.0, expansion_penalty=0.1)
    s = score(CoverageResult(2, 0), 0.5, 2, ex, cfg)
    assert s.value == pytest.approx(1.0 + 0.5 - 0.2)


# --- weakness ---------------------------------------------------------------

def test_is_weak_threshold():
    ex = ExampleSet.from_ids(10, range(5), range(5, 10))
    assert not is_weak(CoverageResult(5, 0), ex, 0.0)
    assert is_weak(CoverageResult(4, 0), ex, 0.0)
    assert is_weak(CoverageResult(0, 0), ex, 0.0)


def test_is_weak_with_noise():
    ex = ExampleSet.from_ids(20, range(10), range(10, 20))
    # ceil(0.8 * 10) = 8 positives required
    assert not is_weak(CoverageResult(8, 0), ex, 0.2)
    assert is_weak(CoverageResult(7, 0), ex, 0.2)
    # awkward float products still round up: ceil(0.7 * 10) = 7
    assert not is_weak(CoverageResult(7, 0), ex, 0.3)
    assert math.ceil((1.0 - 0.3) * 10) == 7


def test_is_weak_validates_noise():
    ex = ExampleSet.from_ids(2, [0], [1])
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            is_weak(CoverageResult(1, 0), ex, bad)

import random
import sys
import threading

import numpy as np
import pytest

import dlbeam.refine as refine_mod
from dlbeam.concept import (And, Atomic, BoolEq, Exists, Forall, MaxCard,
                            MinCard, NotAtomic, NumGeq, NumLeq, Or, RoleExpr,
                            StrEq, TOP, canonicalize, concept_length, decode,
                            encode, hash_concept, render, sort_key)
from dlbeam.evaluation import covered_set
from dlbeam.kb import compute_statistics, materialize, parse_kb
from dlbeam.refine import (RefinementConfig, build_mb, refine,
                           refine_top_levels)
from generators import dims_of, random_concept, random_kb


def setup_kb(text):
    st, kb = parse_kb(text)
    materialize(kb, st)
    stats = compute_statistics(kb)
    return st, kb, stats, build_mb(kb, stats)


def rcfg_for(stats, **kwargs):
    return RefinementConfig.from_stats(stats, **kwargs)


# --- M_B --------------------------------------------------------------------

def test_build_mb_contents():
    _, kb, stats, mb = setup_kb("""\
numrole d
boolrole b
strrole s
individual x
individual y
numfact d x 3.0
numfact d y 1.0
strfact s x red
strfact s y blue
boolfact b x true
""")
    assert mb == [
        BoolEq(0, True), BoolEq(0, False),
        NumGeq(0, 1.0), NumGeq(0, 3.0), NumLeq(0, 1.0), NumLeq(0, 3.0),
        StrEq(0, 0), StrEq(0, 1),
    ]


def test_build_mb_empty_without_concrete_roles(trains):
    assert trains.mb == []


# --- rule 1 (from Thing) ----------------------------------------------------

def test_refine_thing_at_bound_three(trains):
    cfg = rcfg_for(trains.stats)
    got = refine(TOP, 3, trains.kb, trains.stats, trains.mb, cfg)
    st = trains.st
    tops = [st.class_names.id_of(n) for n in ("Train", "Car", "Load")]
    for cid in tops:
        assert Atomic(cid) in got
    leaf = st.class_names.id_of("SquareLoad")
    assert NotAtomic(leaf) in got
    for rid in range(trains.kb.num_roles):
        assert Exists(RoleExpr(rid), TOP) in got
        assert Forall(RoleExpr(rid), TOP) in got
        # inverse variants and cardinalities cost 4, over this bound
        assert Exists(RoleExpr(rid, True), TOP) not in got
        assert MinCard(2, RoleExpr(rid), TOP) not in got
    assert all(concept_length(c) <= 3 for c in got)


def test_refine_thing_at_bound_four_adds_inverse_and_cardinality(trains):
    cfg = rcfg_for(trains.stats)
    got = refine(TOP, 4, trains.kb, trains.stats, trains.mb, cfg)
    has_car = trains.st.role_names.id_of("hasCar")
    assert Exists(RoleExpr(has_car, True), TOP) in got
    assert Forall(RoleExpr(has_car, True), TOP) in got
    assert trains.stats.max_fillers[has_car] >= 2
    assert MinCard(2, RoleExpr(has_car), TOP) in got
    # only-one-filler roles get no cardinality refinement
    first_car = trains.st.role_names.id_of("firstCar")
    assert trains.stats.max_fillers[first_car] == 1
    assert MinCard(2, RoleExpr(first_car), TOP) not in got


def test_refine_thing_at_bound_one(trains):
    cfg = rcfg_for(trains.stats)
    got = refine(TOP, 1, trains.kb, trains.stats, trains.mb, cfg)
    assert got  # top-level atomics fit
    assert all(isinstance(c, Atomic) for c in got)


def test_feature_toggles(trains):
    def refined_types(**kwargs):
        cfg = rcfg_for(trains.stats, **kwargs)
        got = refine(TOP, 6, trains.kb, trains.stats, trains.mb, cfg)
        types = set()
        for c in got:
            stack = [c]
            while stack:
                x = stack.pop()
                types.add(type(x))
                if isinstance(x, (Exists, Forall, MinCard, MaxCard)):
                    if x.role.inverse:
                        types.add("inverse")
                    stack.append(x.child)
                elif isinstance(x, (And, Or)):
                    stack.extend(x.children)
        return types

    assert Or in refined_types()
    assert Or not in refined_types(use_disjunction=False)
    assert NotAtomic not in refined_types(use_negation=False)
    assert MinCard not in refined_types(use_cardinality=False)
    assert "inverse" not in refined_types(use_inverse_roles=False)


# --- rules 2-3 (atomic, negation) -------------------------------------------

def test_refine_atomic_descends_hierarchy(trains):
    cfg = rcfg_for(trains.stats)
    st = trains.st
    car = Atomic(st.class_names.id_of("Car"))
    got = refine(car, 3, trains.kb, trains.stats, trains.mb, cfg)
    for name in ("ClosedCar", "OpenCar", "ShortCar", "LongCar"):
        assert Atomic(st.class_names.id_of(name)) in got
    train = Atomic(st.class_names.id_of("Train"))
    assert canonicalize(And((car, train))) in got
    assert car not in got  # never the input itself


def test_refine_atomic_respects_length_bound(trains):
    cfg = rcfg_for(trains.stats)
    car = Atomic(trains.st.class_names.id_of("Car"))
    got = refine(car, 1, trains.kb, trains.stats, trains.mb, cfg)
    assert all(isinstance(c, Atomic) for c in got)  # no room for conjunctions


def test_refine_negation_climbs_hierarchy(trains):
    cfg = rcfg_for(trains.stats)
    st = trains.st
    closed = st.class_names.id_of("ClosedCar")
    car = st.class_names.id_of("Car")
    got = refine(NotAtomic(closed), 4, trains.kb, trains.stats, trains.mb, cfg)
    assert got == [NotAtomic(car)]
    # a root class has no superclasses: its complement is terminal
    assert refine(NotAtomic(car), 4, trains.kb, trains.stats, trains.mb, cfg) == []


# --- rule 4-5 (quantifiers) -------------------------------------------------

def test_refine_exists(trains):
    cfg = rcfg_for(trains.stats)
    st = trains.st
    has_car = RoleExpr(st.role_names.id_of("hasCar"))
    first_car = RoleExpr(st.role_names.id_of("firstCar"))
    car = Atomic(st.class_names.id_of("Car"))
    got = refine(Exists(has_car, TOP), 4, trains.kb, trains.stats, trains.mb, cfg)
    assert Exists(has_car, car) in got          # child refinement
    assert Exists(first_car, TOP) in got        # subrole descent
    assert MinCard(2, has_car, TOP) in got      # cardinality introduction
    # the cardinality step needs one extra length unit
    tight = refine(Exists(has_car, TOP), 3, trains.kb, trains.stats, trains.mb, cfg)
    assert MinCard(2, has_car, TOP) not in tight
    assert Exists(has_car, car) in tight


def test_refine_exists_inverse_cardinality(trains):
    cfg = rcfg_for(trains.stats)
    st = trains.st
    inv = RoleExpr(st.role_names.id_of("hasCar"), True)
    got = refine(Exists(inv, TOP), 5, trains.kb, trains.stats, trains.mb, cfg)
    # every car has exactly one hasCar-predecessor in the fixture
    assert trains.stats.max_fillers_inverse[inv.role_id] == 1
    assert MinCard(2, inv, TOP) not in got
    assert Exists(RoleExpr(st.role_names.id_of("firstCar"), True), TOP) in got


def test_refine_forall_only_refines_child(trains):
    cfg = rcfg_for(trains.stats)
    st = trains.st
    has_car = RoleExpr(st.role_names.id_of("hasCar"))
    got = refine(Forall(has_car, TOP), 4, trains.kb, trains.stats, trains.mb, cfg)
    assert got
    assert all(isinstance(c, Forall) and c.role == has_car for c in got)


# --- rules 6-8 (bounds) -----------------------------------------------------

CARD_KB = """\
class A
role r
numrole d
individual u
individual v
individual w
instance A u
fact r u v
fact r u w
fact r v w
numfact d u 1.0
numfact d v 2.5
numfact d w 4.0
"""


def test_refine_min_card_steps_up_to_cap():
    _, kb, stats, mb = setup_kb(CARD_KB)
    cfg = rcfg_for(stats)
    assert stats.max_fillers == [2]
    r = RoleExpr(0)
    got = refine(MinCard(1, r, TOP), 5, kb, stats, mb, cfg)
    assert MinCard(2, r, TOP) in got
    got = refine(MinCard(2, r, TOP), 5, kb, stats, mb, cfg)
    assert all(not (isinstance(c, MinCard) and c.n == 3) for c in got)
    assert MinCard(2, r, Atomic(0)) in got  # child refinement still applies


def test_refine_max_card_steps_down_to_zero():
    _, kb, stats, mb = setup_kb(CARD_KB)
    cfg = rcfg_for(stats)
    r = RoleExpr(0)
    got = refine(MaxCard(1, r, TOP), 5, kb, stats, mb, cfg)
    assert MaxCard(0, r, TOP) in got
    got = refine(MaxCard(0, r, TOP), 5, kb, stats, mb, cfg)
    assert all(not isinstance(c, MaxCard) or c.n == 0 for c in got)


def test_refine_numeric_bounds_step_one_boundary():
    _, kb, stats, mb = setup_kb(CARD_KB)
    cfg = rcfg_for(stats)
    assert stats.numeric_boundaries == [[1.0, 2.5, 4.0]]
    assert refine(NumGeq(0, 1.0), 3, kb, stats, mb, cfg) == [NumGeq(0, 2.5)]
    assert refine(NumGeq(0, 2.5), 3, kb, stats, mb, cfg) == [NumGeq(0, 4.0)]
    assert refine(NumGeq(0, 4.0), 3, kb, stats, mb, cfg) == []
    assert refine(NumLeq(0, 4.0), 3, kb, stats, mb, cfg) == [NumLeq(0, 2.5)]
    assert refine(NumLeq(0, 1.0), 3, kb, stats, mb, cfg) == []


def test_refine_concrete_equalities_are_terminal():
    _, kb, stats, mb = setup_kb(CONCRETE_KB)
    cfg = rcfg_for(stats)
    assert refine(BoolEq(0, True), 5, kb, stats, mb, cfg) == []
    assert refine(StrEq(0, 0), 5, kb, stats, mb, cfg) == []


CONCRETE_KB = """\
boolrole b
strrole s
individual x
boolfact b x true
strfact s x red
"""


# --- rules 9-10 (connectives) -----------------------------------------------

def test_refine_and(trains):
    cfg = rcfg_for(trains.stats)
    st = trains.st
    train = Atomic(st.class_names.id_of("Train"))
    car = Atomic(st.class_names.id_of("Car"))
    closed = Atomic(st.class_names.id_of("ClosedCar"))
    load = Atomic(st.class_names.id_of("Load"))
    c = And((train, car))
    got = refine(c, 5, trains.kb, trains.stats, trains.mb, cfg)
    assert And((train, closed)) in got            # child replaced
    assert And((train, car, load)) in got         # conjunct appended
    # at the exact current length there is no room to grow
    tight = refine(c, 3, trains.kb, trains.stats, trains.mb, cfg)
    assert And((train, closed)) in tight
    assert all(len(x.children) == 2 for x in tight if isinstance(x, And))


def test_refine_or_replaces_but_never_appends(trains):
    cfg = rcfg_for(trains.stats)
    st = trains.st
    train = Atomic(st.class_names.id_of("Train"))
    car = Atomic(st.class_names.id_of("Car"))
    closed = Atomic(st.class_names.id_of("ClosedCar"))
    c = Or((train, car))
    got = refine(c, 7, trains.kb, trains.stats, trains.mb, cfg)
    assert Or((train, closed)) in got
    assert all(len(x.children) == 2 for x in got if isinstance(x, Or))


def test_refine_top_levels_builds_binary_unions(trains):
    cfg = rcfg_for(trains.stats)
    st = trains.st
    train = Atomic(st.class_names.id_of("Train"))
    car = Atomic(st.class_names.id_of("Car"))
    got = refine_top_levels(3, trains.kb, trains.stats, trains.mb, cfg)
    assert Or((train, car)) in got
    assert all(isinstance(c, Or) and len(c.children) == 2 for c in got)
    assert all(concept_length(c) <= 3 for c in got)


def test_refine_rejects_bound_below_input():
    _, kb, stats, mb = setup_kb(CARD_KB)
    cfg = rcfg_for(stats)
    with pytest.raises(ValueError):
        refine(MinCard(2, RoleExpr(0), TOP), 3, kb, stats, mb, cfg)


# --- output contract --------------------------------------------------------

def contains_max_card(c):
    stack = [c]
    while stack:
        x = stack.pop()
        if isinstance(x, MaxCard):
            return True
        if isinstance(x, (Exists, Forall, MinCard)):
            stack.append(x.child)
        elif isinstance(x, (And, Or)):
            stack.extend(x.children)
    return False


def test_refine_output_contract_on_random_inputs():
    rng = random.Random(401)
    for _ in range(40):
        _, kb = random_kb(rng)
        stats = compute_statistics(kb)
        mb = build_mb(kb, stats)
        cfg = rcfg_for(stats)
        dims = dims_of(kb)
        for _ in range(6):
            c = random_concept(rng, dims, depth=3)
            bound = concept_length(c) + rng.randint(0, 3)
            got = refine(c, bound, kb, stats, mb, cfg)
            assert got == refine(c, bound, kb, stats, mb, cfg)  # deterministic
            hashes = [hash_concept(r) for r in got]
            assert len(hashes) == len(set(hashes))              # no duplicates
            assert hash_concept(c) not in hashes                # input excluded
            keys = [sort_key(r) for r in got]
            assert keys == sorted(keys)                         # canonical order
            for r in got:
                assert concept_length(r) <= bound
                assert canonicalize(r) == r
                assert decode(encode(r)) == r


def test_specializing_rules_shrink_coverage():
    # Every rule except the MaxCard child rewrite is a specialization, so on
    # MaxCard-free inputs each refinement covers a subset of the input.
    rng = random.Random(402)
    checked = 0
    while checked < 120:
        _, kb = random_kb(rng)
        stats = compute_statistics(kb)
        mb = build_mb(kb, stats)
        cfg = rcfg_for(stats)
        c = random_concept(rng, dims_of(kb), depth=3)
        if contains_max_card(c):
            continue
        base = covered_set(c, kb)
        for r in refine(c, concept_length(c) + 2, kb, stats, mb, cfg):
            assert not np.any(covered_set(r, kb) & ~base), \
                f"{r} is not a specialization of {c}"
        checked += 1


# --- completeness at a small bound ------------------------------------------

def closure_from_thing(fix, bound, **toggles):
    cfg = rcfg_for(fix.stats, max_length=bound, **toggles)
    seen = {hash_concept(TOP)}
    frontier = [TOP]
    everything = []
    while frontier:
        nxt = []
        for c in frontier:
            for r in refine(c, bound, fix.kb, fix.stats, fix.mb, cfg):
                h = hash_concept(r)
                if h not in seen:
                    seen.add(h)
                    nxt.append(r)
                    everything.append(r)
        frontier = nxt
    return everything


# Hand-enumerated concepts that iterated refinement from Thing must reach
# within length 5 on the trains fixture, with the rule trail that produces
# them. Kept small and human-checkable on purpose.
TRAINS_LENGTH5_GOLDEN = [
    "Train",                                     # rule 1
    "Car",
    "(not TriangleLoad)",                        # rule 1, leaf negation
    "(hasCar some Thing)",                       # rule 1
    "(nextCar only Thing)",
    "(inverse(hasLoad) some Thing)",             # rule 1, inverse
    "(hasCar min 2 Thing)",                      # rule 1, cardinality
    "ShortCar",                                  # rule 2 descent from Car
    "(not Load)",                                # rule 3 climb from (not TriangleLoad)
    "(hasCar some Car)",                         # rule 4 child refinement
    "(firstCar some Thing)",                     # rule 4 subrole descent
    "(hasCar min 3 Thing)",                      # rule 6 (three cars on one train)
    "(hasCar min 2 Car)",                        # rule 6 child refinement
    "(hasCar only ClosedCar)",                   # rule 5 via two child steps
    "(Train and Car)",                           # rule 2 conjunction
    "(Load and (hasCar some Thing))",            # rules 2+9 mixing quantifier
    "(Train or (hasCar some Thing))",            # refineTopLevels
    "(hasCar some (ClosedCar and ShortCar))",    # rules 4+2+9, the separator
]


def test_iterated_refinement_reaches_golden_list(trains):
    everything = closure_from_thing(trains, 5)
    rendered = {render(c, trains.st) for c in everything}
    missing = [g for g in TRAINS_LENGTH5_GOLDEN if g not in rendered]
    assert not missing, f"missing from closure: {missing}"
    assert all(concept_length(c) <= 5 for c in everything)


def test_closure_respects_disjunction_toggle(trains):
    everything = closure_from_thing(trains, 4, use_disjunction=False)
    assert everything
    assert all(not isinstance(c, Or) for c in everything)


# --- memo -------------------------------------------------------------------

def memo_free(monkeypatch):
    """Make every refine call start from an empty memo, recursion included."""
    monkeypatch.setattr(refine_mod, "_memo_table", lambda kb, stats, mb, cfg: {})


def test_a_shared_memo_changes_no_refinement(monkeypatch):
    rng = random.Random(402)
    for _ in range(25):
        _, kb = random_kb(rng)
        stats = compute_statistics(kb)
        mb = build_mb(kb, stats)
        dims = dims_of(kb)
        cfg = rcfg_for(stats)
        # Thing, its refinements and theirs share sub-problems with each
        # other, and random trees add every constructor.
        concepts = [TOP] + refine(TOP, 4, kb, stats, mb, cfg)
        concepts += [r for c in concepts[1:6] for r in refine(c, 5, kb, stats, mb, cfg)]
        concepts += [random_concept(rng, dims, depth=3) for _ in range(10)]
        pairs = [(c, concept_length(c) + rng.randint(0, 2)) for c in concepts]

        with monkeypatch.context() as m:
            memo_free(m)
            want = [refine(c, b, kb, stats, mb, rcfg_for(stats)) for c, b in pairs]

        shared = rcfg_for(stats)
        order = list(range(len(pairs))) * 2
        rng.shuffle(order)
        for i in order:
            c, b = pairs[i]
            got = refine(c, b, kb, stats, mb, shared)
            assert got == want[i]
            got.append(TOP)  # a fresh list: the memo's copy is not touched
        assert [refine(c, b, kb, stats, mb, shared) for c, b in pairs] == want


LOW_KB = """\
class A
class B
subclass B A
individual x
instance B x
"""

HIGH_KB = """\
class A
class B
subclass A B
individual x
instance A x
"""


def test_no_memo_leaks_across_kbs():
    # The same class ids, but the hierarchy is turned round.
    st_low, low, low_stats, low_mb = setup_kb(LOW_KB)
    st_high, high, high_stats, high_mb = setup_kb(HIGH_KB)
    a = Atomic(st_low.class_names.id_of("A"))
    b = Atomic(st_low.class_names.id_of("B"))
    assert st_high.class_names.id_of("A") == a.class_id
    for cfg_low, cfg_high in ((rcfg_for(low_stats), rcfg_for(high_stats)),
                              (rcfg_for(low_stats),) * 2):  # one shared config
        for _ in range(2):
            assert b in refine(a, 3, low, low_stats, low_mb, cfg_low)
            assert b not in refine(a, 3, high, high_stats, high_mb, cfg_high)
            assert a in refine(b, 3, high, high_stats, high_mb, cfg_high)
            assert a not in refine(b, 3, low, low_stats, low_mb, cfg_low)


def test_threads_sharing_one_memo_get_memo_free_results(monkeypatch):
    # Threads expand in parallel against one config. Half of them use the
    # other KB, so the memo is also rebound while others fill it.
    kbs = [setup_kb(LOW_KB), setup_kb(HIGH_KB)]
    pairs = [(Atomic(i), b) for i in range(2) for b in range(1, 6)]
    with monkeypatch.context() as m:
        memo_free(m)
        want = [[refine(c, b, kb, stats, mb, rcfg_for(stats)) for c, b in pairs]
                for _, kb, stats, mb in kbs]
    shared = rcfg_for(kbs[0][2])
    failures = []

    def work(k: int) -> None:
        _, kb, stats, mb = kbs[k % 2]
        rng = random.Random(k)
        for _ in range(20_000):
            i = rng.randrange(len(pairs))
            c, b = pairs[i]
            if refine(c, b, kb, stats, mb, shared) != want[k % 2][i]:
                failures.append((k, i))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert failures == []

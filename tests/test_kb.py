import copy
import random
import zlib

import numpy as np
import pytest

from dlbeam.kb import (ExampleSet, Interner, KbCodecError, KbError,
                       KbParseError, compute_statistics, deserialize_kb,
                       materialize, parse_examples, parse_kb, serialize_kb)
from generators import random_kb, tiny_kb

GOLDEN_TEXT = """\
# comment-only line

class Animal
class Dog
subclass Dog Animal
role owns
role feeds
subrole feeds owns
numrole age
boolrole vaccinated
strrole "fur color"
individual alice
individual rex
instance Dog rex
instance Animal alice
fact owns alice rex
numfact age rex 3.5
boolfact vaccinated rex true
strfact "fur color" rex brown   # trailing comment
"""


def test_parse_golden_text():
    st, kb = parse_kb(GOLDEN_TEXT)
    assert st.class_names.names == ["Animal", "Dog"]
    assert st.role_names.names == ["owns", "feeds"]
    assert st.num_role_names.names == ["age"]
    assert st.bool_role_names.names == ["vaccinated"]
    assert st.str_role_names.names == ["fur color"]
    assert st.individual_names.names == ["alice", "rex"]
    assert kb.subclass_edges == [(1, 0)]
    assert kb.subrole_edges == [(1, 0)]
    assert kb.class_members == [{0}, {1}]
    assert kb.role_assertions == [[(0, 1)], []]
    assert kb.numeric_assertions == [[(1, 3.5)]]
    assert kb.boolean_assertions == [[(1, True)]]
    assert kb.string_assertions == [[(1, 0)]]
    assert st.string_values[0].names == ["brown"]
    assert not kb.materialized


def test_parse_duplicate_declarations_are_idempotent():
    st, kb = parse_kb("class A\nclass A\nrole r\nrole r\n")
    assert len(st.class_names) == 1
    assert kb.num_roles == 1


@pytest.mark.parametrize("text,line,fragment", [
    ("subclass A B", 1, "undeclared class 'A'"),
    ("class A\nsubclass A B", 2, "undeclared class 'B'"),
    ("class A\nrole A", 2, "already declared as class"),
    ("class A B", 1, "'class' expects 1 argument(s), got 2"),
    ("chair A", 1, "unknown statement 'chair'"),
    ("individual x\nnumrole n\nnumfact n x abc", 3, "bad number 'abc'"),
    ("individual x\nnumrole n\nnumfact n x nan", 3, "NaN"),
    ("individual x\nboolrole b\nboolfact b x yes", 3, "expected true or false"),
    ('class "A', 1, "syntax error"),
    ("individual x\nrole r\nfact r x y", 3, "undeclared individual 'y'"),
])
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(KbParseError) as exc:
        parse_kb(text)
    assert exc.value.line == line
    assert fragment in str(exc.value)


# --- examples ---------------------------------------------------------------

def test_parse_examples_golden():
    st, _ = parse_kb("individual a\nindividual b\nindividual c\n")
    ex = parse_examples("+ a\n# noise\n- b\n+ c\n", st)
    assert ex.pos_ids() == [0, 2]
    assert ex.neg_ids() == [1]
    assert (ex.pos_count, ex.neg_count) == (2, 1)


@pytest.mark.parametrize("text,err,fragment", [
    ("+ a\n- nobody", KbParseError, "unknown individual"),
    ("+ a\n- a", KbParseError, "conflicting example"),
    ("- a", KbError, "no positive examples"),
    ("+ a", KbError, "no negative examples"),
    ("a b c", KbParseError, "expected '+ <name>'"),
])
def test_parse_examples_errors(text, err, fragment):
    st, _ = parse_kb("individual a\nindividual b\n")
    with pytest.raises(err) as exc:
        parse_examples(text, st)
    assert fragment in str(exc.value)


def test_example_set_from_ids():
    ex = ExampleSet.from_ids(5, [0, 3], [1])
    assert list(ex.positives) == [True, False, False, True, False]
    assert list(ex.negatives) == [False, True, False, False, False]


def test_example_counts_are_fixed_at_construction_over_read_only_masks():
    rng = random.Random(105)
    for _ in range(20):
        n = rng.randint(1, 40)
        ids = rng.sample(range(n), rng.randint(0, n))
        cut = rng.randint(0, len(ids))
        ex = ExampleSet.from_ids(n, ids[:cut], ids[cut:])
        assert ex.pos_count == np.count_nonzero(ex.positives) == cut
        assert ex.neg_count == np.count_nonzero(ex.negatives) == len(ids) - cut
        for mask in (ex.positives, ex.negatives):
            with pytest.raises(ValueError, match="read-only"):
                mask[0] = not mask[0]
            with pytest.raises(ValueError, match="read-only"):
                mask[:] = True
        assert ex.pos_count == cut and ex.neg_count == len(ids) - cut


# --- materialization --------------------------------------------------------

DIAMOND = """\
class Top1
class Mid1
class Mid2
class Bottom
subclass Mid1 Top1
subclass Mid2 Top1
subclass Bottom Mid1
subclass Bottom Mid2
role r
role s
subrole s r
individual x
individual y
instance Bottom x
instance Mid2 y
fact s x y
"""


def test_materialize_diamond_closure():
    st, kb = parse_kb(DIAMOND)
    materialize(kb, st)
    # x propagates through both parents to the shared ancestor, once.
    assert kb.class_members == [{0, 1}, {0}, {0, 1}, {0}]
    assert kb.role_assertions == [[(0, 1)], [(0, 1)]]


def _oracle_closure(kb):
    """Fixpoint closure over the raw edge lists, independent of materialize()."""
    def ancestors(n, edges):
        sup = [set() for _ in range(n)]
        for a, b in edges:
            sup[a].add(b)
        changed = True
        while changed:
            changed = False
            for c in range(n):
                grown = set().union(*(sup[s] for s in sup[c])) if sup[c] else set()
                if not grown <= sup[c]:
                    sup[c] |= grown
                    changed = True
        return sup

    members = [set(m) for m in kb.class_members]
    for cid, sups in enumerate(ancestors(kb.num_classes, kb.subclass_edges)):
        for sup in sups:
            members[sup] |= kb.class_members[cid]
    pairs = [set(p) for p in kb.role_assertions]
    for rid, sups in enumerate(ancestors(kb.num_roles, kb.subrole_edges)):
        for sup in sups:
            pairs[sup] |= set(kb.role_assertions[rid])
    return members, pairs


def test_materialize_matches_fixpoint_oracle():
    rng = random.Random(201)
    for _ in range(150):
        _, kb = random_kb(rng, do_materialize=False)
        want_members, want_pairs = _oracle_closure(kb)
        materialize(kb)
        assert kb.class_members == want_members
        assert [set(p) for p in kb.role_assertions] == want_pairs
        # list form stays duplicate-free
        for pairs in kb.role_assertions:
            assert len(pairs) == len(set(pairs))


def test_materialize_is_idempotent():
    rng = random.Random(202)
    _, kb = random_kb(rng, do_materialize=False)
    materialize(kb)
    snapshot = copy.deepcopy((kb.class_members, kb.role_assertions))
    materialize(kb)
    assert (kb.class_members, kb.role_assertions) == snapshot


@pytest.mark.parametrize("text,fragment", [
    ("class A\nclass B\nsubclass A B\nsubclass B A\n", "cycle in subclass hierarchy: A -> B -> A"),
    ("role r\nsubrole r r\n", "cycle in subrole hierarchy: r -> r"),
])
def test_materialize_rejects_cycles(text, fragment):
    st, kb = parse_kb(text)
    with pytest.raises(KbError) as exc:
        materialize(kb, st)
    assert fragment in str(exc.value)


DEPTH = 5000


def _chain_kb(cycle=False):
    """A 5,000-deep class chain and role chain, each declared bottom-up,
    with one fact at the bottom; ``cycle`` closes the class chain."""
    lines = [f"class C{i}" for i in range(DEPTH)]
    lines += [f"role r{i}" for i in range(DEPTH)]
    lines += ["individual a", "individual b", "instance C0 a", "fact r0 a b"]
    lines += [f"subclass C{i} C{i + 1}" for i in range(DEPTH - 1)]
    lines += [f"subrole r{i} r{i + 1}" for i in range(DEPTH - 1)]
    if cycle:
        lines.append(f"subclass C{DEPTH - 1} C0")
    return parse_kb("\n".join(lines) + "\n")


def test_materialize_closes_a_5000_deep_chain():
    st, kb = _chain_kb()
    materialize(kb, st)
    a, b = st.individual_names.id_of("a"), st.individual_names.id_of("b")
    assert kb.class_members == [{a}] * DEPTH
    assert kb.role_assertions == [[(a, b)]] * DEPTH


def test_materialize_names_a_5000_deep_cycle():
    st, kb = _chain_kb(cycle=True)
    with pytest.raises(KbError) as exc:
        materialize(kb, st)
    names = " -> ".join(f"C{i}" for i in range(DEPTH))
    assert str(exc.value) == f"cycle in subclass hierarchy: {names} -> C0"


def test_materialize_builds_numpy_mirrors():
    st, kb = parse_kb(DIAMOND)
    materialize(kb, st)
    for cid in range(kb.num_classes):
        assert set(np.nonzero(kb.member_masks[cid])[0]) == kb.class_members[cid]
    for rid in range(kb.num_roles):
        got = list(zip(kb.role_subs[rid].tolist(), kb.role_objs[rid].tolist()))
        assert got == kb.role_assertions[rid]
    assert kb.direct_subclasses[0] == [1, 2]
    assert kb.direct_superclasses[3] == [1, 2]
    assert kb.direct_subroles[0] == [1]


# --- statistics -------------------------------------------------------------

def test_statistics_require_materialization():
    _, kb = parse_kb("class A\n")
    with pytest.raises(KbError):
        compute_statistics(kb)


def test_statistics_golden():
    text = """\
class A
class B
subclass B A
role r
numrole n
strrole s
individual w
individual x
individual y
fact r w x
fact r w y
fact r x y
numfact n w 2.0
numfact n x -1.0
numfact n y 2.0
strfact s w red
strfact s x blue
"""
    st, kb = parse_kb(text)
    materialize(kb, st)
    stats = compute_statistics(kb)
    assert stats.max_fillers == [2]          # w has two r-successors
    assert stats.max_fillers_inverse == [2]  # y has two r-predecessors
    assert stats.numeric_boundaries == [[-1.0, 2.0]]  # sorted, deduplicated
    assert stats.string_domains == [[0, 1]]
    assert stats.top_level_classes == [0]
    assert stats.leaf_classes == [1]


def test_statistics_on_trains_fixture(trains):
    has_car = trains.st.role_names.id_of("hasCar")
    first_car = trains.st.role_names.id_of("firstCar")
    # every train has exactly one firstCar
    assert trains.stats.max_fillers[first_car] == 1
    # firstCar is a subrole of hasCar, so hasCar has at least those pairs
    assert trains.stats.max_fillers[has_car] >= 2
    train = trains.st.class_names.id_of("Train")
    assert train in trains.stats.top_level_classes
    closed = trains.st.class_names.id_of("ClosedCar")
    assert closed in trains.stats.leaf_classes
    assert closed not in trains.stats.top_level_classes


# --- binary codec -----------------------------------------------------------

def test_kb_codec_round_trip_fixture(trains):
    blob = serialize_kb(trains.kb, trains.st)
    st2, kb2 = deserialize_kb(blob)
    assert st2 == trains.st
    assert kb2 == trains.kb
    assert kb2.materialized
    assert serialize_kb(kb2, st2) == blob  # byte-stable


def test_kb_codec_round_trip_random():
    rng = random.Random(203)
    for _ in range(100):
        st, kb = tiny_kb(rng)
        blob = serialize_kb(kb, st)
        st2, kb2 = deserialize_kb(blob)
        assert (st2, kb2.materialized) == (st, kb.materialized)
        assert kb2 == kb
        assert serialize_kb(kb2, st2) == blob


def test_kb_codec_rebuilds_caches_for_materialized_input(trains):
    _, kb2 = deserialize_kb(serialize_kb(trains.kb, trains.st))
    assert len(kb2.member_masks) == kb2.num_classes
    assert np.array_equal(kb2.member_masks[0], trains.kb.member_masks[0])


def test_kb_codec_rejects_corruption(trains):
    blob = bytearray(serialize_kb(trains.kb, trains.st))
    rng = random.Random(204)
    for _ in range(40):
        data = bytearray(blob)
        pos = rng.randrange(6, len(data))  # past magic+version: CRC territory
        data[pos] ^= 1 << rng.randrange(8)
        with pytest.raises(KbCodecError):
            deserialize_kb(bytes(data))


def test_kb_codec_header_errors(trains):
    blob = serialize_kb(trains.kb, trains.st)
    with pytest.raises(KbCodecError, match="bad magic"):
        deserialize_kb(b"XXXX" + blob[4:])
    with pytest.raises(KbCodecError, match="unsupported version"):
        deserialize_kb(blob[:4] + b"\x00\x63" + blob[6:])
    with pytest.raises(KbCodecError, match="missing header"):
        deserialize_kb(blob[:8])
    with pytest.raises(KbCodecError, match="checksum"):
        deserialize_kb(blob[:-5] + blob[-4:])  # drop a payload byte
    with pytest.raises(KbCodecError, match="checksum"):
        deserialize_kb(blob + b"\x00")


def test_kb_codec_rejects_out_of_range_ids():
    st, kb = parse_kb("class A\nindividual x\ninstance A x\n")
    blob = serialize_kb(kb, st)
    # The payload ends with the id of the single member followed by the two
    # empty edge-list counts. Patch the id out of range, fix the checksum.
    payload = bytearray(blob[6:-4])
    assert payload[-12:-8] == (0).to_bytes(4, "big")
    payload[-12:-8] = (99).to_bytes(4, "big")
    fixed = blob[:6] + bytes(payload) + zlib.crc32(bytes(payload)).to_bytes(4, "big")
    with pytest.raises(KbCodecError, match="out of range"):
        deserialize_kb(fixed)


# --- structural equality ----------------------------------------------------

def test_kb_equality_tracks_content():
    st, kb = parse_kb("class A\nindividual x\n")
    st2, kb2 = parse_kb("class A\nindividual x\n")
    assert kb == kb2 and st == st2
    kb2.add_instance(0, 0)
    assert kb != kb2


def test_interner_round_trip():
    it = Interner()
    assert it.intern("a") == 0
    assert it.intern("b") == 1
    assert it.intern("a") == 0  # stable on re-intern
    assert it.id_of("b") == 1
    assert it.id_of("zz") is None
    assert it.name_of(1) == "b"
    assert "a" in it and len(it) == 2

"""Property-based tests of the concept codec, parser and renderer, the KB
codec and text parser, frames, and the EXPAND_TASK and EXPAND_RESULT payloads.

``canonicalize`` is checked against ``reference_canonicalize``, a copy of
the walk that defined the normal form before ``connective`` took it over.
The concept codec is checked by round trips, truncations and byte flips,
also through a decode table, which must give what a plain decode gives, and
``parse_concept`` by text over its grammar's alphabet, and ``render`` by
numeric bounds that must parse back bit for bit. The KB codec is
checked against ``loop_serialize_kb``, a copy of the field-at-a-time writer
that defined the format, and its decoder against truncations and byte flips.
A KB_TRANSFER, whose sealed KB shares the codec's tables, is checked against
``loop_read_kb_transfer``, a field-at-a-time reader: a round trip must give
the master's columns, statistics and restriction pool, and a truncation or
byte flip must be refused or read as that reader reads it.
The KB text parser is checked against shlex, which every line with a comment
goes through, and against ``_statement``'s checks, and on arbitrary text,
which must parse or raise a ``KbParseError`` naming its line.
Frames and EXPAND_RESULT payloads are checked by round trips, truncations
and byte flips, which must end in ``ProtocolError`` and nothing else, and
frames against the joined construction that defined their bytes. The
EXPAND_TASK tests drive one live ``WorkerServer`` over fresh connections.
"""

import importlib.util
import math
import random
import re
import shlex
import socket
import struct
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlbeam.cluster import (BlockNode, MSG_ERROR, MSG_EXPAND_RESULT,
                            MSG_EXPAND_TASK, MSG_KB_ACK, MSG_KB_TRANSFER,
                            PROTOCOL_VERSION, ProtocolError, WorkerServer,
                            _pack_expand_result, _pack_expand_task,
                            _pack_kb_transfer, _split_expand_result,
                            _split_expand_task, _unpack_kb_transfer,
                            deserialize_block, frame_bytes, parse_frame,
                            read_frame, serialize_block, write_frame)
from dlbeam.concept import (MAX_CARDINALITY, TOP, And, Atomic, BoolEq,
                            ConceptParseError, DecodeError, Exists, Forall,
                            MaxCard, MinCard, NotAtomic, NumGeq, NumLeq, Or,
                            RoleExpr, StrEq, canonicalize, concept_length,
                            connective, decode, encode, hash_concept,
                            parse_concept, render, sort_key)
from dlbeam.evaluation import CoverageResult, score
from dlbeam.fixtures import fixture_path
from dlbeam.kb import (_PLAIN_LINE, Interner, KbCodecError, KbError,
                       KbParseError, KnowledgeBase, SymbolTable, _lines,
                       _split_line, _statement, deserialize_kb,
                       deserialize_sealed, materialize, parse_examples,
                       parse_kb, serialize_kb, serialize_sealed)

from generators import random_examples, random_kb, tiny_kb
from test_cluster import (PARAMS, assert_reads_the_statistics_and_pool_of,
                          assert_same_columns, local_expand_oracle,
                          root_block_node)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)
seeds = st.integers(0, 2**32 - 1)
u64s = st.integers(0, 2**64 - 1)
# A node's slot, the ends of its u32 field always among the draws.
slots = st.sampled_from([0, 2**32 - 1]) | st.integers(0, 2**32 - 1)


# --- canonical form, the concept codec and parse_concept -------------------

def reference_canonicalize(c):
    """The recursive flatten, dedupe and sort that defined the normal form."""
    t = type(c)
    if t in (Exists, Forall):
        child = reference_canonicalize(c.child)
        return c if child is c.child else t(c.role, child)
    if t in (MinCard, MaxCard):
        child = reference_canonicalize(c.child)
        return c if child is c.child else t(c.n, c.role, child)
    if t in (And, Or):
        flat = []
        unchanged = True
        for ch in c.children:
            canon = reference_canonicalize(ch)
            if type(canon) is t:
                flat.extend(canon.children)
                unchanged = False
            else:
                flat.append(canon)
                unchanged = unchanged and canon is ch
        if unchanged and len(flat) > 1:
            keys = [sort_key(ch) for ch in flat]
            if all(keys[i] < keys[i + 1] for i in range(len(keys) - 1)):
                return c
        seen = set()
        unique = []
        for ch in flat:
            k = sort_key(ch)
            if k not in seen:
                seen.add(k)
                unique.append((k, ch))
        unique.sort(key=lambda pair: pair[0])
        if len(unique) == 1:
            return unique[0][1]
        return t(tuple(ch for _, ch in unique))
    return c


roles = st.builds(RoleExpr, st.integers(0, 3), st.booleans())
numbers = st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0, 1.0])
leaves = st.one_of(
    st.just(TOP), st.integers(0, 5).map(Atomic), st.integers(0, 5).map(NotAtomic),
    st.builds(BoolEq, st.integers(0, 2), st.booleans()),
    st.builds(NumGeq, st.integers(0, 2), numbers),
    st.builds(NumLeq, st.integers(0, 2), numbers),
    st.builds(StrEq, st.integers(0, 2), st.integers(0, 3)))


def compound(children):
    operands = st.lists(children, min_size=1, max_size=4).map(tuple)
    return st.one_of(
        st.builds(Exists, roles, children), st.builds(Forall, roles, children),
        st.builds(MinCard, st.integers(1, MAX_CARDINALITY), roles, children),
        st.builds(MaxCard, st.integers(0, MAX_CARDINALITY), roles, children),
        operands.map(And), operands.map(Or))


raw_concepts = st.recursive(leaves, compound, max_leaves=16)
canonical_concepts = raw_concepts.map(reference_canonicalize)


@SETTINGS
@given(raw=raw_concepts)
def test_canonicalize_equals_the_reference_walk(raw):
    want = reference_canonicalize(raw)
    got = canonicalize(raw)
    # Encodings, unlike ==, tell 0.0 from -0.0.
    assert encode(got) == encode(want)
    assert (got is raw) == (want is raw)
    assert canonicalize(got) is got
    assert canonicalize(want) is want


@SETTINGS
@given(t=st.sampled_from([And, Or]),
       children=st.lists(canonical_concepts, min_size=1, max_size=5))
def test_connective_builds_the_reference_normal_form(t, children):
    built = connective(t, children)
    assert encode(built) == encode(reference_canonicalize(t(tuple(children))))
    assert sort_key(built) == sort_key(decode(encode(built)))  # stored key


@SETTINGS
@given(c=canonical_concepts)
def test_canonical_concepts_round_trip_through_the_codec(c):
    data = encode(c)
    back = decode(data)
    assert back == c
    assert encode(back) == data
    assert hash_concept(back) == hash_concept(c)


@SETTINGS
@given(c=canonical_concepts, data=st.data())
def test_every_truncation_or_byte_flip_of_a_concept_decodes_faithfully_or_not_at_all(
        c, data):
    encoded = encode(c)
    cut = data.draw(st.integers(0, len(encoded) - 1), label="cut")
    with pytest.raises(DecodeError):  # the encoding is prefix-free
        decode(encoded[:cut])
    at = data.draw(st.integers(0, len(encoded) - 1), label="at")
    flipped = bytearray(encoded)
    flipped[at] ^= data.draw(st.integers(1, 255), label="flip")
    try:
        back = decode(bytes(flipped))
    except DecodeError:
        return
    assert encode(back) == flipped


def assert_table_is_faithful(table):
    """Every entry of a decode table is the plain decode of its key, and has
    its key as its encoding."""
    for enc, c in table.items():
        plain = decode(enc)
        assert plain == c and sort_key(plain) == sort_key(c)
        assert encode(c) == enc == encode(plain)


@SETTINGS
@given(c=canonical_concepts)
def test_decoding_through_a_table_equals_a_plain_decode(c):
    data = encode(c)
    table = {}
    plain = decode(data)
    got = decode(data, table)
    assert got == plain
    assert (sort_key(got), hash_concept(got), concept_length(got), encode(got)) \
        == (sort_key(plain), hash_concept(plain), concept_length(plain), data)
    assert decode(data, table) is got  # the same bytes, the same object
    assert deserialize_block(serialize_block([BlockNode(c, 1, 0, 0, 0)]),
                             table)[0].concept is got
    assert_table_is_faithful(table)


def block_of(enc: bytes) -> bytes:
    """A one-node block whose concept bytes are ``enc``, whatever they are."""
    return (struct.pack(">II", 1, len(enc)) + enc
            + struct.pack(">HIII", 1, 0, 0, 0))


@SETTINGS
@given(cs=st.lists(canonical_concepts, min_size=1, max_size=4), data=st.data())
def test_truncations_and_byte_flips_through_a_shared_table_are_refused_or_faithful(
        cs, data):
    table = {}
    for c in cs:  # the table holds every subtree of every concept
        decode(encode(c), table)
    encoded = encode(data.draw(st.sampled_from(cs), label="concept"))
    cut = data.draw(st.integers(0, len(encoded) - 1), label="cut")
    with pytest.raises(DecodeError):
        decode(encoded[:cut], table)
    with pytest.raises(ProtocolError):
        deserialize_block(block_of(encoded[:cut]), table)
    at = data.draw(st.integers(0, len(encoded) - 1), label="at")
    flipped = bytearray(encoded)
    flipped[at] ^= data.draw(st.integers(1, 255), label="flip")
    flipped = bytes(flipped)
    try:
        back = decode(flipped, table)
    except DecodeError:
        with pytest.raises(ProtocolError):
            deserialize_block(block_of(flipped), table)
    else:
        assert back == decode(flipped) and encode(back) == flipped
        assert deserialize_block(block_of(flipped), table)[0].concept is back
    assert_table_is_faithful(table)


PARSE_SYMBOLS, _ = parse_kb(
    "class A\nclass B\nrole r\nnumrole n\nboolrole b\nstrrole s\n"
    "individual x\nstrfact s x red\n")
classes = st.sampled_from(["Thing", "A", "B", "nope", "r"])
roles = st.sampled_from(["r", "inverse(r)", "inverse(r", "A"])
concrete_roles = st.sampled_from(["n", "b", "s", "r"])
number_texts = (st.sampled_from(["1e999", "-1e999", "1e400", "-0", ".5", "2",
                                 "1e5e5", "1-2"])
                | st.integers(-2, 70_000).map(str)
                | st.floats(allow_nan=False).map(repr))
value_texts = st.sampled_from(["true", "false", '"red"', '"blue"', '"r\\"ed"'])


def phrases(children):
    return st.one_of(
        st.tuples(roles, st.sampled_from(["some", "only"]), children),
        st.tuples(roles, st.sampled_from(["min", "max"]), number_texts,
                  children),
        st.tuples(st.just("not"), classes),
        st.tuples(concrete_roles, st.sampled_from([">=", "<="]), number_texts),
        st.tuples(concrete_roles, st.just("="), value_texts),
        st.tuples(st.lists(children, min_size=2, max_size=3),
                  st.sampled_from([" and ", " or "])).map(
                      lambda p: (p[1].join(p[0]),)),
    ).map(lambda words: "(" + " ".join(words) + ")")


# Text along the grammar, with any name, number or value in each slot, and
# text over the grammar's alphabet.
concept_texts = (st.recursive(classes, phrases, max_leaves=8)
                 | st.text(alphabet='() andorsmeiflxTABh=<>0123456789.e+-"\\',
                           max_size=40))


@settings(SETTINGS, max_examples=300)  # cheap, and most texts fail early
@given(text=concept_texts, data=st.data())
def test_parse_concept_returns_a_concept_or_raises_its_typed_error(text, data):
    start = data.draw(st.integers(0, len(text)), label="start")
    stop = data.draw(st.integers(start, len(text)), label="stop")
    for t in (text, text[:start] + text[stop:]):  # whole, and with a cut
        try:
            c = parse_concept(t, PARSE_SYMBOLS)
        except ConceptParseError:
            continue
        canon = canonicalize(c)
        assert canon == reference_canonicalize(c)
        assert decode(encode(canon)) == canon  # whatever parses, the codec holds


bounds = (st.floats(allow_nan=False)
          | st.sampled_from([math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                             2.2250738585072014e-308, 1e-310, 1e16]))


@SETTINGS
@given(t=st.sampled_from([NumGeq, NumLeq]), value=bounds)
def test_numeric_bounds_render_and_parse_back_bit_for_bit(t, value):
    c = t(0, value)
    back = parse_concept(render(c, PARSE_SYMBOLS), PARSE_SYMBOLS)
    assert back == c
    assert struct.pack(">d", back.value) == struct.pack(">d", value)


# --- the KB codec -----------------------------------------------------------

def loop_serialize_kb(kb: KnowledgeBase, sym: SymbolTable) -> bytes:
    """The field-at-a-time writer that defined the KB blob format."""
    buf = bytearray()

    def u32(v):
        buf.extend(struct.pack(">I", v))

    def string(s):
        raw = s.encode("utf-8")
        u32(len(raw))
        buf.extend(raw)

    buf.append(1 if kb.materialized else 0)
    for interner in (sym.class_names, sym.role_names, sym.num_role_names,
                     sym.bool_role_names, sym.str_role_names,
                     sym.individual_names, *sym.string_values):
        u32(len(interner))
        for name in interner.names:
            string(name)
    for members in kb.class_members:
        u32(len(members))
        for iid in sorted(members):
            u32(iid)
    for pairs in (kb.subclass_edges, *kb.role_assertions, kb.subrole_edges):
        u32(len(pairs))
        for sub, obj in pairs:
            u32(sub)
            u32(obj)
    for rows in kb.numeric_assertions:
        u32(len(rows))
        for sub, val in rows:
            u32(sub)
            buf.extend(struct.pack(">d", val))
    for rows in kb.boolean_assertions:
        u32(len(rows))
        for sub, val in rows:
            u32(sub)
            buf.append(1 if val else 0)
    for rows in kb.string_assertions:
        u32(len(rows))
        for sub, vi in rows:
            u32(sub)
            u32(vi)
    payload = bytes(buf)
    return (b"SPKB" + struct.pack(">H", 1) + payload
            + struct.pack(">I", zlib.crc32(payload)))


def generated_kb(seed: int):
    rng = random.Random(seed)
    if rng.random() < 0.5:
        return tiny_kb(rng)
    return random_kb(rng, do_materialize=rng.random() < 0.5)


def with_crc(payload: bytes) -> bytes:
    """A blob around ``payload`` whose header and checksum are valid."""
    return (b"SPKB" + struct.pack(">H", 1) + payload
            + struct.pack(">I", zlib.crc32(payload)))


def assert_same_blob_and_round_trip(sym, kb):
    blob = serialize_kb(kb, sym)
    assert blob == loop_serialize_kb(kb, sym)
    sym2, kb2 = deserialize_kb(blob)
    assert sym2 == sym
    assert kb2 == kb


@SETTINGS
@given(seed=seeds)
def test_kb_codec_writes_the_bytes_of_the_loop_writer(seed):
    sym, kb = generated_kb(seed)
    assert_same_blob_and_round_trip(sym, kb)


names = st.lists(st.text(max_size=12), min_size=1, max_size=5, unique=True)


@SETTINGS
@given(classes=names, individuals=names, values=names,
       value=st.floats(allow_nan=False))
def test_kb_codec_writes_the_bytes_of_the_loop_writer_for_any_names(
        classes, individuals, values, value):
    lines = [f"class c{i}" for i in range(len(classes))]
    lines += [f"individual i{i}" for i in range(len(individuals))]
    lines += ["numrole n", "strrole s", "boolrole b",
              "instance c0 i0", f"numfact n i0 {value!r}", "boolfact b i0 true"]
    sym, kb = parse_kb("\n".join(lines))
    # Rename through the interners, so names need not survive the text format.
    sym.class_names = Interner(classes)
    sym.individual_names = Interner(individuals)
    sym.string_values = [Interner(values)]
    kb.add_str_fact(0, 0, len(values) - 1)
    assert_same_blob_and_round_trip(sym, kb)


@pytest.mark.parametrize("name", ["trains", "smoke"])
def test_kb_codec_writes_the_bytes_of_the_loop_writer_for_the_fixtures(
        request, name):
    fix = request.getfixturevalue(name)
    assert_same_blob_and_round_trip(fix.st, fix.kb)


def synth_texts(seed: int) -> tuple[str, str]:
    """The synth-wide KB and example texts of ``seed``, from the benchmark's
    generator."""
    path = Path(__file__).resolve().parents[1] / "bench" / "synth.py"
    spec = importlib.util.spec_from_file_location("synth_kb_generator", path)
    synth = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(synth)
    return synth.generate(seed)


def synth_text(seed: int) -> str:
    """The synth-wide KB text of ``seed``."""
    return synth_texts(seed)[0]


def test_kb_codec_writes_the_bytes_of_the_loop_writer_for_the_synth_kb():
    kb_text = synth_text(1)
    sym, kb = parse_kb(kb_text)
    materialize(kb, sym)
    assert_same_blob_and_round_trip(sym, kb)


@SETTINGS
@given(seed=seeds)
def test_kb_codec_keeps_the_first_of_repeated_rows_as_the_adders_do(seed):
    # A blob whose tables repeat rows, as serialize_kb never writes one: the
    # decoder must build what the add_* methods build from the same rows.
    sym, kb = generated_kb(seed)
    rng = random.Random(seed)
    raw = KnowledgeBase()
    raw.num_individuals = kb.num_individuals
    raw.materialized = kb.materialized

    def repeated(rows):
        if not rows:
            return []
        return list(rows) + [rng.choice(rows) for _ in range(len(rows) // 2)]

    raw.class_members = kb.class_members
    raw.subclass_edges = repeated(kb.subclass_edges)
    raw.role_assertions = [repeated(r) for r in kb.role_assertions]
    raw.subrole_edges = repeated(kb.subrole_edges)
    raw.numeric_assertions = [repeated(r) for r in kb.numeric_assertions]
    raw.boolean_assertions = [repeated(r) for r in kb.boolean_assertions]
    raw.string_assertions = [repeated(r) for r in kb.string_assertions]

    want = KnowledgeBase()
    for _ in kb.class_members:
        want.add_class()
    for _ in kb.role_assertions:
        want.add_role()
    for _ in kb.numeric_assertions:
        want.add_num_role()
    for _ in kb.boolean_assertions:
        want.add_bool_role()
    for _ in kb.string_assertions:
        want.add_str_role()
    want.num_individuals = kb.num_individuals
    want.class_members = [set(m) for m in kb.class_members]
    for edge in raw.subclass_edges:
        want.add_subclass(*edge)
    for edge in raw.subrole_edges:
        want.add_subrole(*edge)
    for rid, rows in enumerate(raw.role_assertions):
        for row in rows:
            want.add_fact(rid, *row)
    for rid, rows in enumerate(raw.numeric_assertions):
        for row in rows:
            want.add_num_fact(rid, *row)
    for rid, rows in enumerate(raw.boolean_assertions):
        for row in rows:
            want.add_bool_fact(rid, *row)
    for rid, rows in enumerate(raw.string_assertions):
        for row in rows:
            want.add_str_fact(rid, *row)

    want.materialized = kb.materialized

    sym2, kb2 = deserialize_kb(loop_serialize_kb(raw, sym))
    assert sym2 == sym
    assert kb2 == want == kb
    sets = ("_role_pair_sets", "_num_sets", "_bool_sets", "_str_sets",
            "_edge_set", "_redge_set")
    for name in sets:
        if kb.materialized:
            # A materialized KB takes no more rows, so it keeps no sets.
            assert getattr(kb2, name) is None
        else:
            assert getattr(kb2, name) == getattr(want, name)


@SETTINGS
@given(seed=seeds, data=st.data())
def test_every_truncation_or_byte_flip_of_a_kb_blob_raises_kb_codec_error(
        seed, data):
    sym, kb = generated_kb(seed)
    blob = serialize_kb(kb, sym)
    payload = blob[6:-4]

    cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
    with pytest.raises(KbCodecError):
        deserialize_kb(blob[:cut])
    at = data.draw(st.integers(0, len(blob) - 1), label="at")
    flip = data.draw(st.integers(1, 255), label="flip")
    flipped = bytearray(blob)
    flipped[at] ^= flip
    with pytest.raises(KbCodecError):
        deserialize_kb(bytes(flipped))

    # Past the checksum: the same faults inside the payload, with the
    # checksum made to match.
    cut = data.draw(st.integers(0, len(payload) - 1), label="payload cut")
    with pytest.raises(KbCodecError):
        deserialize_kb(with_crc(payload[:cut]))
    at = data.draw(st.integers(0, len(payload) - 1), label="payload at")
    flipped = bytearray(payload)
    flipped[at] ^= flip
    try:
        deserialize_kb(with_crc(bytes(flipped)))
    except KbCodecError:
        pass  # or it decodes: a flipped name or an id still in range


def test_kb_codec_rejects_a_repeated_name_and_bad_utf8():
    sym, kb = parse_kb("class A\nclass B\nindividual x\n")
    blob = bytearray(serialize_kb(kb, sym))
    at = blob.index(b"\x00\x00\x00\x01B") + 4  # the name B, past its length
    twin = bytes(blob[:at]) + b"A" + bytes(blob[at + 1:])
    with pytest.raises(KbCodecError, match="duplicate name"):
        deserialize_kb(with_crc(twin[6:-4]))
    bad = bytes(blob[:at]) + b"\xff" + bytes(blob[at + 1:])
    with pytest.raises(KbCodecError, match="UTF-8"):
        deserialize_kb(with_crc(bad[6:-4]))


@pytest.mark.parametrize("flag", [2, 0xFF])
def test_kb_codec_rejects_a_boolean_other_than_0_or_1(flag):
    sym, kb = parse_kb("boolrole b\nindividual x\nboolfact b x true\n")
    payload = bytearray(serialize_kb(kb, sym)[6:-4])
    assert payload[-5:] == b"\x00\x00\x00\x00\x01"  # the row (x, true)
    payload[-1] = flag
    with pytest.raises(KbCodecError, match=f"bad boolean {flag}"):
        deserialize_kb(with_crc(bytes(payload)))
    payload[-2] = 7  # an id out of range before the flag is reported first
    with pytest.raises(KbCodecError, match="individual id 7 out of range"):
        deserialize_kb(with_crc(bytes(payload)))


# --- KB_TRANSFER and its sealed KB -----------------------------------------

def sealed_kb(seed: int):
    """A materialized generated KB, its symbols and examples. Half of them
    have a numeric role that asserts -0.0 and 0.0, in either order."""
    rng = random.Random(seed)
    sym, kb = random_kb(rng, max_individuals=rng.choice((6, 30)),
                        do_materialize=False)
    if rng.random() < 0.5:
        sym.num_role_names.intern("zeros")
        kb.add_num_role()
        for _ in range(rng.randint(1, 6)):
            kb.add_num_fact(kb.num_numeric_roles - 1,
                            rng.randrange(kb.num_individuals),
                            rng.choice((-0.0, 0.0, 1.0)))
    materialize(kb, sym)
    return sym, kb, random_examples(rng, kb)


def loop_read_kb_transfer(payload: bytes) -> tuple[dict, int]:
    """A KB_TRANSFER read one field at a time, without a check: the sealed
    KB's counts and tables, the example ids and the settings, as Python
    values; and the number of bytes read."""
    pos = 0

    def take(fmt):
        nonlocal pos
        values = struct.unpack_from(fmt, payload, pos)
        pos += struct.calcsize(fmt)
        return values if len(values) > 1 else values[0]

    def rows(fmt):
        return [take(fmt) for _ in range(take(">I"))]

    n_classes, n_roles, n_nums, n_bools, n_strs, n_ind = take(">6I")
    values = [take(">I") for _ in range(n_strs)]
    return {"num_individuals": n_ind, "string_values": values,
            "members": [set(rows(">I")) for _ in range(n_classes)],
            "subclass_edges": rows(">II"),
            "roles": [rows(">II") for _ in range(n_roles)],
            "subrole_edges": rows(">II"),
            "nums": [rows(">Id") for _ in range(n_nums)],
            "bools": [rows(">IB") for _ in range(n_bools)],
            "strs": [rows(">II") for _ in range(n_strs)],
            "positives": set(rows(">I")), "negatives": set(rows(">I")),
            "settings": take(">dddHB")}, pos


def assert_reads_as(kb, examples, cfg, want: dict) -> None:
    """What ``_unpack_kb_transfer`` returned is what ``want``, a
    ``loop_read_kb_transfer`` of the same payload, holds; floats compared
    bit for bit."""

    def pairs(a, b):
        return list(zip(a.tolist(), b.tolist()))

    def bits(rows):
        return [(sub, struct.pack(">d", v)) for sub, v in rows]

    assert kb.num_individuals == want["num_individuals"]
    assert [set(np.flatnonzero(m).tolist()) for m in kb.member_masks] == want["members"]
    assert kb.subclass_edges == want["subclass_edges"]
    assert kb.subrole_edges == want["subrole_edges"]
    assert list(map(pairs, kb.role_subs, kb.role_objs)) == want["roles"]
    assert ([bits(pairs(s, v)) for s, v in zip(kb.num_subs, kb.num_vals)]
            == [bits(rows) for rows in want["nums"]])
    assert (list(map(pairs, kb.bool_subs, kb.bool_vals))
            == [[(sub, flag == 1) for sub, flag in rows] for rows in want["bools"]])
    assert list(map(pairs, kb.str_subs, kb.str_vals)) == want["strs"]
    assert set(np.flatnonzero(examples.positives).tolist()) == want["positives"]
    assert set(np.flatnonzero(examples.negatives).tolist()) == want["negatives"]
    noise, gain, penalty, max_length, flags = want["settings"]
    assert flags < 0x10  # a byte with any of bits 4-7 set is refused
    assert (struct.pack(">dddH", cfg.noise, cfg.eval_cfg.gain_bonus,
                        cfg.eval_cfg.expansion_penalty, cfg.max_length)
            == struct.pack(">dddH", noise, gain, penalty, max_length))
    assert (cfg.use_inverse_roles, cfg.use_cardinality, cfg.use_disjunction,
            cfg.use_negation) == tuple(bool(flags >> i & 1) for i in range(4))


@SETTINGS
@given(seed=seeds)
def test_a_kb_transfer_gives_the_worker_what_the_master_reads(seed):
    sym, kb, examples = sealed_kb(seed)
    payload = _pack_kb_transfer(kb, sym, examples, PARAMS)
    kb2, ex2, cfg2 = _unpack_kb_transfer(payload)
    assert_same_columns(kb2, kb)
    assert ex2 == examples
    assert cfg2 == PARAMS
    assert_reads_the_statistics_and_pool_of(kb2, kb)
    want, end = loop_read_kb_transfer(payload)
    assert end == len(payload)
    assert_reads_as(kb2, ex2, cfg2, want)
    assert want["string_values"] == [len(v) for v in sym.string_values]
    # The sealed KB leads the payload, and its tables are serialize_kb's.
    sealed = serialize_sealed(kb, sym)
    assert payload.startswith(sealed)
    kb3, end = deserialize_sealed(sealed)
    assert end == len(sealed)
    assert_same_columns(kb3, kb)
    tables = sealed[24 + 4 * len(sym.string_values):]
    assert serialize_kb(kb, sym)[:-4].endswith(tables)


@SETTINGS
@given(seed=seeds, data=st.data())
def test_every_truncation_or_byte_flip_of_a_kb_transfer_is_refused_or_read_as_written(
        seed, data):
    sym, kb, examples = sealed_kb(seed)
    payload = _pack_kb_transfer(kb, sym, examples, PARAMS)
    cut, flipped = truncation_and_flip(payload, data)
    with pytest.raises(ProtocolError):
        _unpack_kb_transfer(cut)
    try:
        got = _unpack_kb_transfer(flipped)
    except ProtocolError:
        return  # refused
    want, end = loop_read_kb_transfer(flipped)
    assert end == len(flipped)
    assert_reads_as(*got, want)


def names_in(data: bytes, names: set[bytes]) -> set[bytes]:
    """The ``names``, each of printable ASCII, that occur in ``data``. An
    occurrence lies inside one maximal run of printable bytes, so only the
    runs are searched."""
    lengths = {len(name) for name in names}
    found = set()
    for run in set(re.findall(rb"[!-~]+", data)):
        for n in lengths:
            found.update(run[i:i + n] for i in range(len(run) - n + 1)
                         if run[i:i + n] in names)
    return found


def test_the_synth_kb_transfer_carries_no_individual_name():
    kb_text, ex_text = synth_texts(1)
    sym, kb = parse_kb(kb_text)
    examples = parse_examples(ex_text, sym)
    materialize(kb, sym)
    names = {name.encode() for name in sym.individual_names.names}
    assert len(names) > 20_000
    assert all(re.fullmatch(rb"[!-~]+", name) for name in names)
    # The search finds every name in the serialize_kb blob, which has them.
    assert names_in(serialize_kb(kb, sym), names) == names
    assert names_in(_pack_kb_transfer(kb, sym, examples, PARAMS), names) == set()


# --- the KB text parser -----------------------------------------------------

# Characters that decide how a line splits: quotes, comments, escapes, the
# whitespace shlex splits on, whitespace only str.split splits on, and line
# boundaries.
SPLIT_CHARS = " \t\"'#\\\xa0\x1f\u3000\u2000\u200b\x0b\x0c\x1c\x85\u2028\r\nab1.+-"
split_lines = st.text(alphabet=st.one_of(st.sampled_from(SPLIT_CHARS),
                                         st.characters()), max_size=24)
line_texts = st.text(alphabet=st.one_of(st.sampled_from(SPLIT_CHARS),
                                        st.characters()), max_size=60)


@settings(SETTINGS, max_examples=500)
@given(line=split_lines)
def test_a_line_splits_as_shlex_splits_it(line):
    try:
        want = shlex.split(line, comments=True)
    except ValueError as exc:
        with pytest.raises(KbParseError) as got:
            _split_line(line, 7)
        assert (got.value.line, str(got.value)) == (7, f"line 7: syntax error: {exc}")
    else:
        assert _split_line(line, 7) == want
    if _PLAIN_LINE.fullmatch(line):
        assert line.split() == want


@settings(SETTINGS, max_examples=500)
@given(text=line_texts)
def test_streamed_lines_are_the_splitlines_lines(text):
    assert list(_lines(text)) == text.splitlines()


# Names that need quoting, or read as something else when they are not.
KB_NAMES = ("A", "b", "x y", "#c", "it's", "q\\z", "\xe9", "1.5", "-inf",
            "true", "nan", "t\tu", "\u3000")
DECLARATIONS = ("class", "role", "numrole", "boolrole", "strrole", "individual")
# What each other statement takes: a name declared as that kind, or a value.
USES = {"subclass": ("class", "class"), "subrole": ("role", "role"),
        "instance": ("class", "individual"),
        "fact": ("role", "individual", "individual"),
        "numfact": ("numrole", "individual", "number"),
        "boolfact": ("boolrole", "individual", "boolean"),
        "strfact": ("strrole", "individual", "string"), "chair": ("class",)}
VALUES = {"number": ("1.5", "-inf", "2", "1e3"), "boolean": ("true", "false"),
          "string": KB_NAMES}
BAD_VALUES = ("nan", "abc", "yes")
# A line ending in a backslash escapes the " #" that forces_shlex appends.
noise_lines = split_lines.filter(lambda line: not line.endswith("\\"))


@st.composite
def kb_texts(draw):
    """Declarations of a few names, then statements over them, with tabs and
    comments. A clean text quotes every name that needs it and gives each
    statement the arguments it takes; a flawed one now and then does not,
    and holds bad lines."""
    flawed = draw(st.booleans())

    def chance(one_in):
        return flawed and draw(st.integers(1, one_in)) == 1

    def token(words):
        word = draw(st.sampled_from(words))
        return word if chance(10) else shlex.quote(word)

    def line(stmt, args):
        sep = draw(st.sampled_from((" ", "\t", "  ")))
        end = draw(st.sampled_from(("", "", " # note", "#x", " ")))
        return sep.join([stmt, *args]) + end

    kinds = draw(st.dictionaries(st.sampled_from(KB_NAMES),
                                 st.sampled_from(DECLARATIONS + ("individual",) * 4),
                                 min_size=1, max_size=len(KB_NAMES)))
    lines = [line(kind, [token([name])]) for name, kind in kinds.items()]
    for _ in range(draw(st.integers(0, 24))):
        if chance(20):
            lines.append(draw(noise_lines))
            continue
        stmt = draw(st.sampled_from(tuple(USES) + DECLARATIONS))
        if stmt in DECLARATIONS:
            declared = [name for name, kind in kinds.items() if kind == stmt]
            if declared or flawed:
                lines.append(line(stmt, [token(KB_NAMES if flawed else declared)]))
            continue
        args = []
        for need in USES[stmt]:
            if need in VALUES:
                args.append(token(VALUES[need] + (BAD_VALUES if flawed else ())))
                continue
            of_kind = [name for name, kind in kinds.items() if kind == need]
            if not of_kind and not flawed:
                break
            args.append(token(of_kind or KB_NAMES))
        else:
            if stmt != "chair" or flawed:
                if chance(20):
                    args.pop()
                lines.append(line(stmt, args))
    return "\n".join(lines)


def forces_shlex(text: str) -> str:
    """``text`` with " #" after every line: the same statements, each of
    them split by shlex."""
    return "\n".join(line + " #" for line in text.splitlines())


def checked_parse(text: str):
    """``parse_kb`` with every statement through ``_statement``'s checks,
    none through the direct path of the frequent ones."""
    sym, kb, declared = SymbolTable(), KnowledgeBase(), {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = _split_line(line, lineno)
        if tokens:
            _statement(tokens, lineno, sym, kb, declared)
    return sym, kb


def parse_outcome(text: str, parse=parse_kb):
    try:
        return parse(text)
    except KbParseError as exc:
        return exc.line, str(exc)


@settings(SETTINGS, max_examples=300)
@given(text=kb_texts())
def test_a_generated_kb_text_parses_as_on_the_shlex_path(text):
    want = parse_outcome(text)
    assert parse_outcome(forces_shlex(text)) == want
    assert parse_outcome(text, checked_parse) == want


@pytest.mark.parametrize("name", ["trains", "smoke"])
def test_the_fixtures_parse_as_on_the_shlex_path(name):
    text = Path(fixture_path(f"{name}.kb")).read_text()
    sym, kb = parse_kb(text)
    assert (sym, kb) == parse_kb(forces_shlex(text))
    assert kb.num_individuals and sym.individual_names.names


@pytest.mark.parametrize("seed", [1, 2])
def test_the_synth_kb_parses_as_on_the_shlex_path(seed):
    text = synth_text(seed)
    sym, kb = parse_kb(text)
    assert (sym, kb) == parse_kb(forces_shlex(text))
    assert kb.num_individuals > 20_000


def assert_line_in(exc: KbParseError, text: str) -> None:
    assert isinstance(exc.line, int)
    assert 1 <= exc.line <= len(text.splitlines())
    assert str(exc).startswith(f"line {exc.line}: ")


@settings(SETTINGS, max_examples=300)
@given(text=st.one_of(kb_texts(), line_texts))
def test_any_text_parses_to_a_kb_or_a_kb_parse_error_with_its_line(text):
    try:
        parse_kb(text)
    except KbParseError as exc:
        assert_line_in(exc, text)


EXAMPLE_LINES = ("+ a", "- b", "+ 'a'", '- "b"', "+ c", "+ a b", "a", "+",
                 "- a # x", "+\tb", "+ \\a")


@settings(SETTINGS, max_examples=300)
@given(text=st.one_of(st.lists(st.one_of(st.sampled_from(EXAMPLE_LINES),
                                         split_lines),
                               max_size=8).map("\n".join),
                      line_texts))
def test_any_text_parses_to_examples_or_a_kb_error(text):
    sym, _ = parse_kb("individual a\nindividual b\n")
    try:
        parse_examples(text, sym)
    except KbParseError as exc:
        assert_line_in(exc, text)
    except KbError as exc:
        assert str(exc) in ("no positive examples", "no negative examples")


# --- frames and EXPAND_RESULT ------------------------------------------------

def read_frame_from(data: bytes):
    """``read_frame`` on a socket that carries ``data`` and then hangs up."""
    a, b = socket.socketpair()
    with a, b:
        a.sendall(data)
        a.shutdown(socket.SHUT_WR)
        b.settimeout(10)
        return read_frame(b)


def truncation_and_flip(blob: bytes, data) -> tuple[bytes, bytes]:
    cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
    at = data.draw(st.integers(0, len(blob) - 1), label="at")
    flipped = bytearray(blob)
    flipped[at] ^= data.draw(st.integers(1, 255), label="flip")
    return blob[:cut], bytes(flipped)


@SETTINGS
@given(mtype=st.integers(0, 255), payload=st.binary(max_size=64),
       data=st.data())
def test_every_truncation_or_byte_flip_of_a_frame_raises_protocol_error(
        mtype, payload, data):
    frame = frame_bytes(mtype, payload)
    assert parse_frame(frame) == (mtype, payload)
    assert read_frame_from(frame) == (mtype, payload)
    for bad in truncation_and_flip(frame, data):
        with pytest.raises(ProtocolError):
            parse_frame(bad)
        with pytest.raises(ProtocolError):
            read_frame_from(bad)


@SETTINGS
@given(mtype=st.integers(0, 255), payload=st.binary(max_size=256))
def test_a_frame_is_the_bytes_of_the_joined_construction(mtype, payload):
    # Header, payload and the CRC32 of the type byte joined to the payload.
    joined = (struct.pack(">4sHBI", b"SPDL", PROTOCOL_VERSION, mtype,
                          len(payload))
              + payload + struct.pack(">I", zlib.crc32(bytes([mtype]) + payload)))
    assert frame_bytes(mtype, payload) == joined
    assert parse_frame(joined) == (mtype, payload)
    assert read_frame_from(joined) == (mtype, payload)


result_nodes = st.builds(
    BlockNode, canonical_concepts, st.integers(0, 0xFFFF), slots,
    st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))


@SETTINGS
@given(nodes=st.lists(result_nodes, min_size=1, max_size=4), data=st.data())
def test_a_block_round_trips_and_a_flip_in_a_slot_changes_only_that_slot(
        nodes, data):
    block = serialize_block(nodes)
    assert deserialize_block(block) == nodes
    # The slot is the u32 that follows a node's u16 he, after its encoding.
    i = data.draw(st.integers(0, len(nodes) - 1), label="node")
    at = 4 + sum(4 + len(encode(n.concept)) + 14 for n in nodes[:i])
    at += 4 + len(encode(nodes[i].concept)) + 2
    flip = data.draw(st.integers(1, 2**32 - 1), label="flip")
    flipped = bytearray(block)
    struct.pack_into(">I", flipped, at, struct.unpack_from(">I", block, at)[0] ^ flip)
    want = list(nodes)
    want[i] = replace(nodes[i], slot=nodes[i].slot ^ flip)
    assert deserialize_block(bytes(flipped)) == want


@SETTINGS
@given(nodes=st.lists(result_nodes, max_size=4),
       weak=st.lists(u64s, max_size=6), data=st.data())
def test_every_truncation_or_byte_flip_of_an_expand_result_is_a_protocol_error(
        nodes, weak, data):
    payload = _pack_expand_result(nodes, weak)
    assert _split_expand_result(payload) == (nodes, weak)
    cut, flipped = truncation_and_flip(payload, data)
    with pytest.raises(ProtocolError):
        _split_expand_result(cut)
    try:  # a flip may still leave a well-formed payload
        _split_expand_result(flipped)
    except ProtocolError:
        pass


# --- EXPAND_TASK ------------------------------------------------------------

block_nodes = st.builds(
    BlockNode, st.integers(0, 20).map(Atomic), st.integers(0, 0xFFFF), slots,
    st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))


@SETTINGS
@given(known=st.lists(u64s, max_size=40),
       nodes=st.lists(block_nodes, max_size=6))
def test_expand_task_known_hashes_round_trip(known, nodes):
    payload = _pack_expand_task(known, nodes)
    assert payload[:4] == struct.pack(">I", len(known))
    assert _split_expand_task(payload) == (known, nodes)


@pytest.fixture(scope="module")
def live_worker():
    w = WorkerServer(udp_port=0, io_timeout=10.0).start()
    yield w
    w.stop()


def connect(w: WorkerServer, fix) -> socket.socket:
    """A connection to ``w`` that has sent ``fix``'s KB_TRANSFER."""
    sock = socket.create_connection(("127.0.0.1", w.tcp_port), timeout=10)
    sock.settimeout(10)
    write_frame(sock, MSG_KB_TRANSFER,
                _pack_kb_transfer(fix.kb, fix.st, fix.examples, PARAMS))
    assert read_frame(sock) == (MSG_KB_ACK, b"")
    return sock


def expand(sock, known, tasks):
    write_frame(sock, MSG_EXPAND_TASK, _pack_expand_task(known, tasks))
    mtype, payload = read_frame(sock)
    assert mtype == MSG_EXPAND_RESULT
    return _split_expand_result(payload)


@SETTINGS
@given(known=st.lists(u64s, max_size=4), data=st.data())
def test_any_truncation_of_an_expand_task_gets_an_error_from_a_live_worker(
        live_worker, smoke, known, data):
    payload = _pack_expand_task(known, [root_block_node(smoke)] * 2)
    cut = data.draw(st.integers(0, len(payload) - 1), label="cut")
    with connect(live_worker, smoke) as sock:
        write_frame(sock, MSG_EXPAND_TASK, payload[:cut])
        mtype, reply = read_frame(sock)
        assert mtype == MSG_ERROR, reply
        assert sock.recv(1) == b""  # the worker hung up after answering


@pytest.fixture(scope="module")
def second_level(trains):
    """Trains' best four first-level nodes in beam slots 0 to 3, and what a
    worker with an empty mirror returns for them."""
    root = root_block_node(trains)
    good, _ = local_expand_oracle(trains, [root], PARAMS)
    root_accuracy = score(CoverageResult(root.pos_covered, root.neg_covered),
                          None, 1, trains.examples).accuracy
    best = sorted(good, key=lambda bn: -score(
        CoverageResult(bn.pos_covered, bn.neg_covered), root_accuracy, bn.he,
        trains.examples).value)[:4]
    tasks = [replace(bn, slot=k) for k, bn in enumerate(best)]
    return tasks, local_expand_oracle(trains, tasks, PARAMS)


@SETTINGS
@given(data=st.data())
def test_a_worker_given_known_hashes_returns_the_oracle_minus_them(
        live_worker, trains, second_level, data):
    tasks, (good, weak) = second_level
    hashes = [hash_concept(bn.concept) for bn in good] + weak
    known = data.draw(st.lists(st.sampled_from(hashes), unique=True),
                      label="known")
    unrelated = data.draw(st.lists(u64s, max_size=3), label="unrelated")
    split = data.draw(st.integers(0, len(known)), label="split")
    with connect(live_worker, trains) as sock:
        # The mirror grows over tasks: part of the hashes with no nodes to
        # expand, the rest with the nodes.
        assert expand(sock, known[:split] + unrelated, []) == ([], [])
        nodes, weak_got = expand(sock, known[split:], tasks)
    held = set(known)
    assert nodes == [bn for bn in good if hash_concept(bn.concept) not in held]
    assert weak_got == [h for h in weak if h not in held]


def test_a_second_kb_transfer_starts_an_empty_mirror(
        live_worker, trains, second_level):
    tasks, (good, weak) = second_level
    every = [hash_concept(bn.concept) for bn in good] + weak
    with connect(live_worker, trains) as sock:
        assert expand(sock, every, tasks) == ([], [])
        write_frame(sock, MSG_KB_TRANSFER,
                    _pack_kb_transfer(trains.kb, trains.st, trains.examples,
                                      PARAMS))
        assert read_frame(sock) == (MSG_KB_ACK, b"")
        assert expand(sock, [], tasks) == (good, weak)

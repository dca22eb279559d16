"""Property-based tests of the KB codec and of the EXPAND_TASK protocol.

The KB codec is checked against ``loop_serialize_kb``, a copy of the
field-at-a-time writer that defined the format, and its decoder against
truncations and byte flips. The EXPAND_TASK tests drive one live
``WorkerServer`` over fresh connections.
"""

import importlib.util
import random
import socket
import struct
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlbeam.cluster import (BlockNode, MSG_ERROR, MSG_EXPAND_RESULT,
                            MSG_EXPAND_TASK, MSG_KB_ACK, MSG_KB_TRANSFER,
                            WorkerServer, _pack_expand_task,
                            _pack_kb_transfer, _split_expand_result,
                            _split_expand_task, read_frame, write_frame)
from dlbeam.concept import Atomic, hash_concept
from dlbeam.kb import (Interner, KbCodecError, KnowledgeBase, SymbolTable,
                       deserialize_kb, materialize, parse_kb, serialize_kb)

from generators import random_kb, tiny_kb
from test_cluster import PARAMS, local_expand_oracle, root_block_node

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)
seeds = st.integers(0, 2**32 - 1)
u64s = st.integers(0, 2**64 - 1)


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


def test_kb_codec_writes_the_bytes_of_the_loop_writer_for_the_synth_kb():
    path = Path(__file__).resolve().parents[1] / "bench" / "synth.py"
    spec = importlib.util.spec_from_file_location("synth_kb_generator", path)
    synth = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(synth)
    kb_text, _ = synth.generate(1)
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
    want.materialized = kb.materialized
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

    sym2, kb2 = deserialize_kb(loop_serialize_kb(raw, sym))
    assert sym2 == sym
    assert kb2 == want == kb
    assert kb2._role_pair_sets == want._role_pair_sets
    assert kb2._num_sets == want._num_sets


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


# --- EXPAND_TASK ------------------------------------------------------------

block_nodes = st.builds(
    BlockNode, st.integers(0, 20).map(Atomic), st.integers(0, 0xFFFF),
    st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
    st.floats(allow_nan=False))


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
    """Trains' best four first-level nodes, and what a worker with an empty
    mirror returns for them."""
    good, _ = local_expand_oracle(trains, [root_block_node(trains)], PARAMS)
    tasks = sorted(good, key=lambda bn: -bn.value)[:4]
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

import contextlib
import json
import random
import re
import socket
import struct
import threading
import time
import types
from collections import Counter

import pytest

import dlbeam.search as search_mod
from dlbeam.cli import main
from dlbeam.cluster import (BlockNode, ClusterError, MasterConfig,
                            MSG_ERROR, MSG_EXPAND_RESULT,
                            MSG_EXPAND_TASK, MSG_HELLO, MSG_HELLO_ACK,
                            MSG_KB_ACK, MSG_KB_TRANSFER, MSG_TERMINATE,
                            PROTOCOL_VERSION, ProtocolError, WorkerServer,
                            _coverage, _pack_expand_result, _pack_kb_transfer,
                            _split_expand_result,
                            _split_expand_task, _unpack_kb_transfer, discover, frame_bytes,
                            parse_frame, read_frame, run_master,
                            serialize_block, deserialize_block, write_frame)
from dlbeam.concept import (And, Atomic, Exists, MinCard, Or, RoleExpr, TOP,
                            concept_length, connective, encode, hash_concept)
from dlbeam.evaluation import (CoverageResult, EvalConfig, ExtensionMemo,
                               evaluate, evaluate_batch, is_weak, score)
from dlbeam.fixtures import fixture_path
from dlbeam.kb import (MAX_SEALED_INDIVIDUALS, ExampleSet, KbStatistics,
                       compute_statistics, materialize, parse_kb)
from dlbeam.refine import RefinementConfig, build_mb, top_context
from dlbeam.search import (SearchConfig, SearchNode, expand_single_node,
                           reduce_redundant, run_search)

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")


# --- framing ----------------------------------------------------------------

def test_frame_round_trip():
    for mtype, payload in [(MSG_HELLO, b""), (MSG_EXPAND_TASK, b"abc"),
                           (MSG_ERROR, bytes(range(256)))]:
        assert parse_frame(frame_bytes(mtype, payload)) == (mtype, payload)


def test_frame_rejects_every_single_bit_flip():
    frame = frame_bytes(MSG_EXPAND_TASK, b"some payload bytes")
    for byte_pos in range(len(frame)):
        for bit in range(8):
            data = bytearray(frame)
            data[byte_pos] ^= 1 << bit
            with pytest.raises(ProtocolError):
                parse_frame(bytes(data))


def test_frame_rejects_truncation_and_extension():
    frame = frame_bytes(MSG_HELLO, b"xy")
    for cut in range(len(frame)):
        with pytest.raises(ProtocolError):
            parse_frame(frame[:cut])
    with pytest.raises(ProtocolError):
        parse_frame(frame + b"\x00")


def test_frame_io_over_socketpair():
    a, b = socket.socketpair()
    try:
        write_frame(a, MSG_EXPAND_TASK, b"payload")
        assert read_frame(b) == (MSG_EXPAND_TASK, b"payload")
        # a closed peer mid-frame surfaces as a protocol error
        a.sendall(frame_bytes(MSG_EXPAND_TASK, b"xxxx")[:7])
        a.close()
        with pytest.raises(ProtocolError, match="closed mid-frame"):
            read_frame(b)
    finally:
        b.close()


def test_read_frame_rejects_oversized_payload_header():
    import struct
    a, b = socket.socketpair()
    try:
        a.sendall(struct.pack(">4sHBI", b"SPDL", PROTOCOL_VERSION, MSG_HELLO,
                              1 << 29))
        with pytest.raises(ProtocolError, match="exceeds limit"):
            read_frame(b)
    finally:
        a.close()
        b.close()


# --- hypothesis blocks ------------------------------------------------------

SAMPLE_NODES = [
    BlockNode(TOP, 1, 0, 5, 5),
    BlockNode(Atomic(2), 2, 1, 4, 1),
    BlockNode(Exists(RoleExpr(0), Atomic(1)), 3, 2**32 - 1, 5, 0),
]


def test_block_round_trip():
    rng = random.Random(601)
    random_nodes = [BlockNode(Atomic(rng.randrange(50)), rng.randint(1, 9),
                              rng.choice([0, 2**32 - 1, rng.randrange(2**32)]),
                              rng.randint(0, 9), rng.randint(0, 9))
                    for _ in range(64)]
    for nodes in (SAMPLE_NODES, random_nodes):
        assert deserialize_block(serialize_block(nodes)) == nodes
    assert serialize_block([]) == b"\x00\x00\x00\x00"
    assert deserialize_block(b"\x00\x00\x00\x00") == []


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d[:3], "shorter than its count"),
    (lambda d: d[:6], "node 0: truncated length prefix"),
    (lambda d: d[:-1], "node 2: truncated record"),
    (lambda d: d + b"\x00", "trailing bytes"),
])
def test_block_structural_errors(mutate, fragment):
    data = serialize_block(SAMPLE_NODES)
    with pytest.raises(ProtocolError, match=fragment):
        deserialize_block(mutate(data))


def test_block_reports_nodes_with_bad_encodings_by_index():
    # second node's concept bytes start right after the first record
    data = bytearray(serialize_block(SAMPLE_NODES))
    first_len = 4 + 4 + 1 + 14
    data[first_len + 4] = 0xEE  # unknown concept tag
    with pytest.raises(ProtocolError, match="node 1: unknown concept tag"):
        deserialize_block(bytes(data))


def test_expand_result_round_trip_and_truncations():
    weak = [0, 1, (1 << 64) - 1]
    data = _pack_expand_result(SAMPLE_NODES, weak)
    assert _split_expand_result(data) == (SAMPLE_NODES, weak)
    assert _split_expand_result(_pack_expand_result([], [])) == ([], [])
    for cut in range(len(data)):
        with pytest.raises(ProtocolError):
            _split_expand_result(data[:cut])
    with pytest.raises(ProtocolError, match="trailing bytes"):
        _split_expand_result(data + b"\x00")


# --- parameter and KB payloads ----------------------------------------------

def test_search_params_round_trip(smoke):
    rng = random.Random(602)
    bare = len(_pack_kb_transfer(smoke.kb, smoke.st, smoke.examples,
                                 SearchConfig()))
    for _ in range(40):
        p = SearchConfig(noise=rng.choice([0.0, 0.1, 0.25]),
                         eval_cfg=EvalConfig(rng.random(), rng.random() / 10),
                         max_length=rng.randint(1, 20),
                         use_inverse_roles=rng.random() < 0.5,
                         use_cardinality=rng.random() < 0.5,
                         use_disjunction=rng.random() < 0.5,
                         use_negation=rng.random() < 0.5)
        packed = _pack_kb_transfer(smoke.kb, smoke.st, smoke.examples, p)
        assert len(packed) == bare
        assert _unpack_kb_transfer(packed)[2] == p
    with pytest.raises(ProtocolError, match="truncated search settings"):
        _unpack_kb_transfer(packed[:-1])


def test_kb_transfer_carries_the_master_settings_in_the_v4_layout(smoke):
    # Protocol v5 changed the node record and left KB_TRANSFER as v4 had it.
    cfg = MasterConfig(limit=3, noise=0.25, max_millis=500, max_length=300,
                       target_accuracy=0.9, use_cardinality=False,
                       use_negation=False, eval_cfg=EvalConfig(0.75, 0.125),
                       broadcast_addrs=(), expect_workers=2)
    payload = _pack_kb_transfer(smoke.kb, smoke.st, smoke.examples, cfg)
    # inverse roles (bit 0) and disjunction (bit 2) on
    assert payload[-27:] == struct.pack(">dddHB", 0.25, 0.75, 0.125, 300,
                                        0b0101)
    assert PROTOCOL_VERSION == 5
    assert _unpack_kb_transfer(payload)[2] == SearchConfig(
        noise=0.25, max_length=300, use_cardinality=False, use_negation=False,
        eval_cfg=EvalConfig(0.75, 0.125))


def assert_same_columns(got, want):
    """``got``, a sealed KB of columns only, holds what a search reads of
    ``want``: its counts, numpy mirrors, hierarchy edges and direct
    sub- and superclass and subrole lists, in the same dtypes."""
    assert got.materialized and want.materialized
    assert got.class_members is None and got.role_assertions is None
    assert got.numeric_assertions is None and got.boolean_assertions is None
    assert got.string_assertions is None
    for name in ("num_individuals", "num_classes", "num_roles",
                 "num_numeric_roles", "num_boolean_roles", "num_string_roles",
                 "subclass_edges", "subrole_edges", "direct_subclasses",
                 "direct_superclasses", "direct_subroles"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("member_masks", "role_subs", "role_objs", "num_subs",
                 "num_vals", "bool_subs", "bool_vals", "str_subs", "str_vals"):
        got_arrays, want_arrays = getattr(got, name), getattr(want, name)
        assert len(got_arrays) == len(want_arrays), name
        for g, w in zip(got_arrays, want_arrays):
            assert g.dtype == w.dtype, name
            # tobytes, so that -0.0 and 0.0 differ
            assert g.tobytes() == w.tobytes(), name


def row_statistics(kb):
    """The statistics of ``kb`` read from its rows: the reference that
    ``compute_statistics``, which reads the numpy mirrors, must equal."""
    stats = KbStatistics()
    for pairs in kb.role_assertions:
        stats.max_fillers.append(max(Counter(s for s, _ in pairs).values(),
                                     default=0))
        stats.max_fillers_inverse.append(
            max(Counter(o for _, o in pairs).values(), default=0))
    for rows in kb.numeric_assertions:
        stats.numeric_boundaries.append(sorted({v for _, v in rows}))
    for rows in kb.string_assertions:
        stats.string_domains.append(sorted({vi for _, vi in rows}))
    has_super = {sub for sub, _ in kb.subclass_edges}
    has_sub = {sup for _, sup in kb.subclass_edges}
    stats.top_level_classes = [c for c in range(kb.num_classes) if c not in has_super]
    stats.leaf_classes = [c for c in range(kb.num_classes) if c not in has_sub]
    return stats


def assert_reads_the_statistics_and_pool_of(got, want):
    """Sealed ``got``'s statistics and restriction pool are those of
    ``want``, read from its rows: compared by repr and encoding, so that
    -0.0 and 0.0 differ."""
    stats = compute_statistics(got)
    assert repr(stats) == repr(compute_statistics(want)) == repr(row_statistics(want))
    assert ([encode(c) for c in build_mb(got, stats)]
            == [encode(c) for c in build_mb(want, row_statistics(want))])


def test_kb_transfer_round_trip(smoke):
    params = SearchConfig(max_length=5, use_disjunction=False)
    payload = _pack_kb_transfer(smoke.kb, smoke.st, smoke.examples, params)
    kb2, ex2, params2 = _unpack_kb_transfer(payload)
    assert_same_columns(kb2, smoke.kb)
    assert ex2 == smoke.examples
    assert params2 == params
    for cut in (2, 10, len(payload) - 1):
        with pytest.raises(ProtocolError):
            _unpack_kb_transfer(payload[:cut])
    with pytest.raises(ProtocolError, match="trailing"):
        _unpack_kb_transfer(payload + b"\x00")


@pytest.mark.parametrize("name", ["smoke", "trains"])
def test_a_worker_reads_what_the_master_reads_of_a_fixture(request, name):
    fix = request.getfixturevalue(name)
    kb2, ex2, _ = _unpack_kb_transfer(
        _pack_kb_transfer(fix.kb, fix.st, fix.examples, PARAMS))
    assert_same_columns(kb2, fix.kb)
    assert ex2 == fix.examples
    assert_reads_the_statistics_and_pool_of(kb2, fix.kb)
    assert repr(compute_statistics(kb2)) == repr(fix.stats)


@pytest.mark.parametrize("first,second", [("-0.0", "0.0"), ("0.0", "-0.0")])
def test_signed_zeros_resolve_to_the_first_asserted_on_both_sides(first, second):
    st, kb = parse_kb("numrole n\nindividual a\nindividual b\nindividual c\n"
                      f"numfact n a {first}\nnumfact n b {second}\n"
                      "numfact n c 1.5\n")
    materialize(kb, st)
    examples = ExampleSet.from_ids(3, [0], [1])
    kb2, _, _ = _unpack_kb_transfer(_pack_kb_transfer(kb, st, examples, PARAMS))
    assert_same_columns(kb2, kb)
    assert repr(row_statistics(kb).numeric_boundaries) == f"[[{first}, 1.5]]"
    assert_reads_the_statistics_and_pool_of(kb, kb)
    assert_reads_the_statistics_and_pool_of(kb2, kb)


# --- discovery --------------------------------------------------------------

@contextlib.contextmanager
def worker(**kwargs):
    kwargs.setdefault("udp_port", 0)
    kwargs.setdefault("io_timeout", 10.0)
    w = WorkerServer(**kwargs).start()
    try:
        yield w
    finally:
        w.stop()


def test_discover_via_direct_endpoint():
    with worker(cores=3) as w:
        cfg = MasterConfig(broadcast_addrs=(),
                           worker_endpoints=(("127.0.0.1", w.udp_port),),
                           discovery_millis=3000, expect_workers=1)
        assert discover(cfg) == [("127.0.0.1", w.tcp_port)]


def test_discover_via_loopback_broadcast():
    port = 47941  # fixed so both workers share it via SO_REUSEPORT
    with worker(udp_port=port) as w1, worker(udp_port=port) as w2:
        cfg = MasterConfig(udp_port=port,
                           broadcast_addrs=("127.255.255.255",),
                           discovery_millis=4000, expect_workers=2)
        found = discover(cfg)
        assert {p for _, p in found} == {w1.tcp_port, w2.tcp_port}


def test_discover_times_out_with_nobody_listening():
    cfg = MasterConfig(broadcast_addrs=(), worker_endpoints=(),
                       discovery_millis=150)
    assert discover(cfg) == []


# --- worker protocol --------------------------------------------------------

PARAMS = SearchConfig(max_length=5)
# The known-hash section of an EXPAND_TASK that names no known hash.
NO_KNOWN = struct.pack(">I", 0)


@contextlib.contextmanager
def master_connection(fix, send_kb=True, params=PARAMS, **worker_kwargs):
    with worker(**worker_kwargs) as w:
        sock = socket.create_connection(("127.0.0.1", w.tcp_port), timeout=10)
        sock.settimeout(10)
        try:
            if send_kb:
                write_frame(sock, MSG_KB_TRANSFER,
                            _pack_kb_transfer(fix.kb, fix.st, fix.examples, params))
                assert read_frame(sock) == (MSG_KB_ACK, b"")
            yield sock, w
        finally:
            sock.close()


def root_block_node(fix):
    cov = evaluate(TOP, fix.kb, fix.examples)
    return BlockNode(TOP, 1, 0, cov.pos_covered, cov.neg_covered)


def local_expand_oracle(fix, tasks, params):
    """What a correct worker must return for EXPAND_TASK, computed in-process:
    each refinement names the slot of the task node it refines."""
    rcfg = RefinementConfig.from_stats(
        fix.stats,
        use_inverse_roles=params.use_inverse_roles,
        use_cardinality=params.use_cardinality,
        use_disjunction=params.use_disjunction,
        use_negation=params.use_negation)
    # A worker refines in the context of the examples it was sent.
    context = top_context(ExtensionMemo().rows(fix.kb, fix.examples))
    per_slot = []
    for bn in tasks:
        cov = CoverageResult(bn.pos_covered, bn.neg_covered)
        node = SearchNode(bn.concept, hash_concept(bn.concept), bn.he, cov,
                          score(cov, None, bn.he, fix.examples))
        per_slot.append(expand_single_node(node, fix.kb, fix.stats, fix.mb,
                                           rcfg, params.max_length, context))
    survivors = reduce_redundant(per_slot, rht=set())
    covs = evaluate_batch([c for c, _, _ in survivors], fix.kb, fix.examples)
    good, weak = [], []
    for (c, h, slot), cov in zip(survivors, covs):
        # A union with an operand that covers no positive is dominated, and
        # returned as a weak node is.
        if is_weak(cov, fix.examples, params.noise) or (
                isinstance(c, Or)
                and any(evaluate(ch, fix.kb, fix.examples).pos_covered == 0
                        for ch in c.children)):
            weak.append(h)
            continue
        good.append(BlockNode(c, concept_length(c), tasks[slot].slot,
                              cov.pos_covered, cov.neg_covered))
    return good, weak


def test_worker_hello_reports_cores(smoke):
    with master_connection(smoke, send_kb=False, cores=3) as (sock, _):
        write_frame(sock, MSG_HELLO)
        mtype, payload = read_frame(sock)
        assert mtype == MSG_HELLO_ACK
        assert int.from_bytes(payload, "big") == 3


def test_worker_rejects_unknown_message(smoke):
    # 0x05 and 0x06 were PROBE and PROBE_RESULT up to protocol v4.
    for mtype in (MSG_KB_ACK, 0x05, 0x06, 0x0A):
        with master_connection(smoke) as (sock, _):
            write_frame(sock, mtype)
            reply, payload = read_frame(sock)
            assert reply == MSG_ERROR
            assert f"unexpected message type 0x{mtype:02x}".encode() in payload


def test_worker_answers_corrupt_frame_with_error_and_hangs_up(smoke):
    with master_connection(smoke, send_kb=False) as (sock, _):
        bad = bytearray(frame_bytes(MSG_HELLO, b""))
        bad[-1] ^= 0xFF
        sock.sendall(bytes(bad))
        mtype, _ = read_frame(sock)
        assert mtype == MSG_ERROR
        assert sock.recv(1) == b""  # worker closed the connection


def test_worker_answers_an_over_deep_concept_with_error(smoke):
    # One block node whose concept is 5,000 nested (r0 some ...) around
    # Thing: a well-formed frame that decode must refuse, not recurse into.
    enc = bytes.fromhex("030000000000") * 5_000 + bytes.fromhex("00")
    block = (struct.pack(">II", 1, len(enc)) + enc
             + struct.pack(">HIII", 1, 0, 0, 0))
    with master_connection(smoke) as (sock, _):
        write_frame(sock, MSG_EXPAND_TASK, NO_KNOWN + block)
        mtype, payload = read_frame(sock)
        assert mtype == MSG_ERROR
        assert b"node 0: concept nested deeper than" in payload
        assert sock.recv(1) == b""  # worker closed the connection


@pytest.mark.parametrize("concept,message", [
    (Atomic(999), b"node 0: class id 999 is not in the KB"),
    (Exists(RoleExpr(77), Atomic(0)), b"node 0: role id 77 is not in the KB"),
])
def test_worker_answers_a_task_concept_outside_the_kb_with_error(
        smoke, concept, message):
    root = root_block_node(smoke)
    task = BlockNode(concept, 4, 0, root.pos_covered, root.neg_covered)
    with master_connection(smoke) as (sock, _):
        write_frame(sock, MSG_EXPAND_TASK, NO_KNOWN + serialize_block([task]))
        mtype, payload = read_frame(sock)
        assert mtype == MSG_ERROR
        assert message in payload
        assert sock.recv(1) == b""  # worker closed the connection


@pytest.mark.parametrize("counts,message", [
    # smoke has 2 positives and 2 negatives
    ((3, 0), b"node 0: covers 3 positives and 0 negatives of 2 and 2"),
    ((2, 3), b"node 0: covers 2 positives and 3 negatives of 2 and 2"),
])
def test_worker_answers_a_task_node_with_impossible_counts_with_error(
        smoke, counts, message):
    task = BlockNode(TOP, 1, 0, *counts)
    with master_connection(smoke) as (sock, _):
        write_frame(sock, MSG_EXPAND_TASK, NO_KNOWN + serialize_block([task]))
        mtype, payload = read_frame(sock)
        assert mtype == MSG_ERROR
        assert message in payload
        assert sock.recv(1) == b""  # worker closed the connection


def send_kb_transfer_and_expect_error(payload, message):
    with master_connection(None, send_kb=False) as (sock, _):
        write_frame(sock, MSG_KB_TRANSFER, payload)
        mtype, reply = read_frame(sock)
        assert mtype == MSG_ERROR
        assert message in reply
        assert sock.recv(1) == b""  # worker closed the connection


def test_worker_answers_a_corrupt_kb_blob_with_error(smoke):
    payload = bytearray(_pack_kb_transfer(smoke.kb, smoke.st, smoke.examples,
                                          PARAMS))
    # Six counts, no string role, then the first class's member count and
    # first member: an individual id out of range, in a well-formed frame.
    assert struct.unpack_from(">6I", payload) == (2, 1, 0, 0, 0, 6)
    assert struct.unpack_from(">I", payload, 24)[0] > 0
    struct.pack_into(">I", payload, 28, 77)
    send_kb_transfer_and_expect_error(
        bytes(payload),
        b"bad KB transfer: individual id 77 out of range (< 6)")


def test_kb_transfer_refuses_more_individuals_than_the_limit(smoke):
    payload = bytearray(_pack_kb_transfer(smoke.kb, smoke.st, smoke.examples,
                                          PARAMS))
    # The sixth count is the individuals'; no array is built for them.
    struct.pack_into(">I", payload, 20, MAX_SEALED_INDIVIDUALS + 1)
    with pytest.raises(ProtocolError, match="bad KB transfer: 67108865 "
                       "individuals exceed the limit of 67108864"):
        _unpack_kb_transfer(bytes(payload))


@pytest.mark.parametrize("text,subclass,subrole,message", [
    # A sealed KB whose hierarchy has a cycle, which materialize refuses.
    ("class A\nclass B\ninstance A x\ninstance B x\n", [(0, 1), (1, 0)], [],
     b"bad KB transfer: cycle in subclass hierarchy: 0 -> 1 -> 0"),
    ("role r\nrole s\nfact r x y\nfact s x y\n", [], [(0, 1), (1, 0)],
     b"bad KB transfer: cycle in subrole hierarchy: 0 -> 1 -> 0"),
    # Sealed KBs that are not closed under their hierarchies.
    ("class A\nclass B\ninstance A x\n", [(0, 1)], [],
     b"bad KB transfer: subclass hierarchy not closed: class 0 has a member "
     b"outside its superclass 1"),
    ("role r\nrole s\nfact r x y\nfact s y x\n", [], [(0, 1)],
     b"bad KB transfer: subrole hierarchy not closed: role 0 has a pair "
     b"outside its superrole 1"),
])
def test_worker_answers_a_kb_that_cannot_materialize_with_error(
        text, subclass, subrole, message):
    st, kb = parse_kb("individual x\nindividual y\n" + text)
    materialize(kb, st)
    # The edges of a KB that materialize cannot leave, set after sealing.
    kb.subclass_edges, kb.subrole_edges = subclass, subrole
    examples = ExampleSet.from_ids(2, [0], [1])
    payload = _pack_kb_transfer(kb, st, examples, PARAMS)
    with pytest.raises(ProtocolError, match=re.escape(message.decode())):
        _unpack_kb_transfer(payload)
    send_kb_transfer_and_expect_error(payload, message)


def test_kb_transfer_rejects_an_example_id_out_of_range(smoke):
    n = smoke.kb.num_individuals
    examples = ExampleSet.from_ids(n + 1, [0], [n])
    payload = _pack_kb_transfer(smoke.kb, smoke.st, examples, PARAMS)
    with pytest.raises(ProtocolError, match="example id out of range"):
        _unpack_kb_transfer(payload)
    send_kb_transfer_and_expect_error(payload, b"example id out of range")


@pytest.mark.parametrize("pos_ids,neg_ids,message", [
    ([], [1], b"no positive examples"),
    ([0], [], b"no negative examples"),
    ([], [], b"no positive examples"),
    ([0, 1], [1, 2], b"both positive and negative"),
])
def test_worker_answers_a_kb_transfer_with_bad_examples_with_error(
        smoke, pos_ids, neg_ids, message):
    examples = ExampleSet.from_ids(smoke.kb.num_individuals, pos_ids, neg_ids)
    payload = _pack_kb_transfer(smoke.kb, smoke.st, examples, PARAMS)
    with pytest.raises(ProtocolError, match=message.decode()):
        _unpack_kb_transfer(payload)
    send_kb_transfer_and_expect_error(payload, message)


def kb_transfer_with(fix, fmt, offset, value):
    """A KB_TRANSFER of ``fix`` whose 27-byte search settings hold ``value``,
    packed as ``fmt``, at ``offset``: 0 noise, 8 gain bonus, 16 expansion
    penalty, 24 max_length."""
    payload = bytearray(_pack_kb_transfer(fix.kb, fix.st, fix.examples, PARAMS))
    struct.pack_into(fmt, payload, len(payload) - 27 + offset, value)
    return bytes(payload)


def test_worker_answers_a_kb_transfer_with_bad_noise_with_error(smoke):
    for noise in (1.5, -0.1, float("nan")):
        payload = kb_transfer_with(smoke, ">d", 0, noise)
        with pytest.raises(ProtocolError, match="noise must be in"):
            _unpack_kb_transfer(payload)
        send_kb_transfer_and_expect_error(payload, b"noise must be in")


def test_worker_answers_a_kb_transfer_with_a_non_finite_weight_with_error(
        smoke):
    for offset, name in ((8, "gain_bonus"), (16, "expansion_penalty")):
        for value in (float("nan"), float("inf"), float("-inf")):
            payload = kb_transfer_with(smoke, ">d", offset, value)
            message = f"{name} must be finite, got {value}"
            with pytest.raises(ProtocolError, match=message):
                _unpack_kb_transfer(payload)
            send_kb_transfer_and_expect_error(payload, message.encode())


def test_worker_answers_a_kb_transfer_with_a_zero_bound_with_error(smoke):
    for payload in (kb_transfer_with(smoke, ">H", 24, 0),):
        with pytest.raises(ProtocolError, match="must be >= 1"):
            _unpack_kb_transfer(payload)
        send_kb_transfer_and_expect_error(payload, b"must be >= 1")


@pytest.mark.parametrize("bit", range(4, 8))
def test_worker_answers_a_kb_transfer_with_an_unknown_settings_bit_with_error(
        smoke, bit):
    payload = bytearray(_pack_kb_transfer(smoke.kb, smoke.st, smoke.examples,
                                          PARAMS))
    assert payload[-1] == 0x0F  # bits 0-3 all set
    payload[-1] |= 1 << bit
    message = f"bad KB transfer: unknown settings bits 0x{1 << bit:02x}"
    with pytest.raises(ProtocolError, match=message):
        _unpack_kb_transfer(bytes(payload))
    send_kb_transfer_and_expect_error(bytes(payload), message.encode())


# The smoke fixture's names with other memberships and facts, so the same
# sort keys name concepts whose extensions differ from smoke's.
MIRRORED_SMOKE = """\
class Person
class Happy
role hasChild
individual a
individual b
individual c
individual d
individual e
individual f
instance Happy a
instance Happy c
instance Happy e
instance Person b
instance Person f
fact hasChild b a
fact hasChild b c
fact hasChild d c
fact hasChild f e
"""


def test_a_new_kb_transfer_starts_a_new_extension_memo(smoke):
    st, kb = parse_kb(MIRRORED_SMOKE)
    materialize(kb, st)
    stats = compute_statistics(kb)
    mirrored = types.SimpleNamespace(st=st, kb=kb, stats=stats,
                                     mb=build_mb(kb, stats),
                                     examples=smoke.examples)
    with master_connection(smoke) as (sock, _):
        for fix in (smoke, mirrored, smoke):
            write_frame(sock, MSG_KB_TRANSFER,
                        _pack_kb_transfer(fix.kb, fix.st, fix.examples, PARAMS))
            assert read_frame(sock) == (MSG_KB_ACK, b"")
            # Thing at he 4: every refinement up to length 5, so operands and
            # fillers recur across the batch and fill the memo.
            root = root_block_node(fix)
            tasks = [BlockNode(TOP, 4, 0, root.pos_covered, root.neg_covered)]
            write_frame(sock, MSG_EXPAND_TASK, NO_KNOWN + serialize_block(tasks))
            mtype, payload = read_frame(sock)
            assert mtype == MSG_EXPAND_RESULT
            assert _split_expand_result(payload) == local_expand_oracle(
                fix, tasks, PARAMS)


def test_worker_expands_empty_task(smoke):
    with master_connection(smoke) as (sock, _):
        write_frame(sock, MSG_EXPAND_TASK, NO_KNOWN + serialize_block([]))
        mtype, payload = read_frame(sock)
        assert mtype == MSG_EXPAND_RESULT
        assert _split_expand_result(payload) == ([], [])


def test_worker_expand_matches_local_oracle(smoke):
    tasks = [root_block_node(smoke)]
    with master_connection(smoke) as (sock, _):
        write_frame(sock, MSG_EXPAND_TASK, NO_KNOWN + serialize_block(tasks))
        mtype, payload = read_frame(sock)
        assert mtype == MSG_EXPAND_RESULT
        nodes, weak = _split_expand_result(payload)
    want_nodes, want_weak = local_expand_oracle(smoke, tasks, PARAMS)
    assert nodes == want_nodes
    assert weak == want_weak
    assert nodes  # the root has refinements at this depth


def test_worker_expand_second_level(trains):
    # drive two levels by feeding results back as the next task block
    with master_connection(trains) as (sock, _):
        tasks = [root_block_node(trains)]
        write_frame(sock, MSG_EXPAND_TASK, NO_KNOWN + serialize_block(tasks))
        nodes, _ = _split_expand_result(read_frame(sock)[1])
        # Four first-level nodes in beam slots 3 to 6, echoed back.
        level2 = [BlockNode(bn.concept, bn.he, 3 + k, bn.pos_covered,
                            bn.neg_covered)
                  for k, bn in enumerate(nodes[:4])]
        write_frame(sock, MSG_EXPAND_TASK, NO_KNOWN + serialize_block(level2))
        mtype, payload = read_frame(sock)
        assert mtype == MSG_EXPAND_RESULT
        nodes2, weak2 = _split_expand_result(payload)
    want_nodes, want_weak = local_expand_oracle(trains, level2, PARAMS)
    assert nodes2 == want_nodes
    assert weak2 == want_weak


def test_a_worker_adds_the_nodes_it_returns_to_its_decode_table(trains):
    """So that they come back in the next EXPAND_TASK without a decode."""
    state = {}
    with worker() as w:
        a, b = socket.socketpair()
        with a, b:
            w._dispatch(a, MSG_KB_TRANSFER,
                        _pack_kb_transfer(trains.kb, trains.st,
                                          trains.examples, PARAMS), state)
        reply = w._expand(NO_KNOWN + serialize_block([root_block_node(trains)]),
                          state)
    nodes, _ = _split_expand_result(reply)
    table = state["table"]
    assert nodes
    assert [table[encode(bn.concept)] for bn in nodes] == [bn.concept for bn in nodes]
    _, again = _split_expand_task(NO_KNOWN + serialize_block(nodes), table)
    assert all(got.concept is table[encode(bn.concept)]
               for got, bn in zip(again, nodes, strict=True))


def test_search_node_refuses_a_node_again_and_keeps_only_subtrees_that_passed(
        trains):
    bad = BlockNode(connective(And, (Atomic(0), Exists(RoleExpr(0), Atomic(999)))),
                    3, 0, 1, 1)
    checked = set()
    for _ in range(2):
        with pytest.raises(ProtocolError, match="node 4: class id 999"):
            _coverage(bad, 4, trains.kb, trains.examples, checked)
    assert checked == {encode(Atomic(0))}


def test_worker_terminate_closes_without_reply(smoke):
    tasks = [root_block_node(smoke)]
    with master_connection(smoke) as (sock, _):
        write_frame(sock, MSG_EXPAND_TASK, NO_KNOWN + serialize_block(tasks))
        read_frame(sock)
        write_frame(sock, MSG_TERMINATE)
        assert sock.recv(1) == b""  # no reply, and the connection is closed


# --- master end-to-end ------------------------------------------------------

def master_cfg(w, **kwargs):
    kwargs.setdefault("broadcast_addrs", ())
    kwargs.setdefault("worker_endpoints", (("127.0.0.1", w.udp_port),))
    kwargs.setdefault("discovery_millis", 3000)
    kwargs.setdefault("expect_workers", 1)
    return MasterConfig(**kwargs)


def test_master_solves_trains_with_one_worker(trains):
    with worker(cores=2) as w:
        res = run_master(trains.kb, trains.st, trains.examples,
                         master_cfg(w, max_length=7))
    assert res.status == "solved"
    best = res.hypotheses[0]
    assert best.score.accuracy == 1.0
    assert (best.coverage.pos_covered, best.coverage.neg_covered) == (5, 0)
    assert len(res.workers) == 1
    assert res.workers[0].cores == 2
    assert 0 <= res.workers[0].kb_ack_millis <= res.handshake_millis


def test_master_equivalent_to_local_search(trains):
    with worker(cores=2) as w1, worker(cores=2) as w2:
        cfg = master_cfg(
            w1, worker_endpoints=(("127.0.0.1", w1.udp_port),
                                  ("127.0.0.1", w2.udp_port)),
            expect_workers=2, max_length=6, target_accuracy=2.0)
        res = run_master(trains.kb, trains.st, trains.examples, cfg)
    local = run_search(trains.kb, trains.examples,
                       SearchConfig(beam_width=4, max_length=6,
                                    target_accuracy=2.0))
    assert res.status == local.status == "exhausted"
    assert res.rht == local.rht
    assert res.st_insertions == local.st_insertions
    best_c, best_l = res.hypotheses[0], local.hypotheses[0]
    assert best_c.concept == best_l.concept
    assert best_c.score == best_l.score
    # A cluster's generated counts only the refinements its workers' RHT
    # mirrors lacked, a local run's every refinement, so generated and
    # redundant_dropped differ; the rest matches iteration by iteration.
    assert ([(i.expanded, i.weak_dropped, i.st_size) for i in res.iterations]
            == [(i.expanded, i.weak_dropped, i.st_size)
                for i in local.iterations])
    # The master makes each returned node a child of the beam node in its
    # slot, so every node's chain of parents is the local run's.
    assert [parent_chain(n) for n in res.st_nodes] == [
        parent_chain(n) for n in local.st_nodes]
    assert parent_chain(best_c)[-1] == TOP


def parent_chain(node):
    """The concepts from ``node`` up through its parents to the root."""
    chain = []
    while node is not None:
        chain.append(node.concept)
        node = node.parent
    return chain


def test_a_lone_worker_returns_only_refinements_new_to_the_rht(trains):
    with worker(cores=4) as w:
        res = run_master(trains.kb, trains.st, trains.examples,
                         master_cfg(w, max_length=5, target_accuracy=2.0))
    assert res.status == "exhausted"
    # With no second worker to return the same hash, every refinement
    # returned is evaluated once: the RHT is the root plus all of them.
    assert sum(i.generated for i in res.iterations) == len(res.rht) - 1
    assert all(i.redundant_dropped == 0 for i in res.iterations)


def final_master_open_list_checked_in_order(trains, check_open_list) -> int:
    """The size of the final open list of a trains run of a master with two
    workers that checks the list's order on every iteration."""
    calls = check_open_list(search_mod)  # the module of search_loop
    with worker(cores=4) as w1, worker(cores=4) as w2:
        cfg = master_cfg(
            w1, worker_endpoints=(("127.0.0.1", w1.udp_port),
                                  ("127.0.0.1", w2.udp_port)),
            expect_workers=2, max_length=6, target_accuracy=2.0)
        res = run_master(trains.kb, trains.st, trains.examples, cfg)
    assert res.status == "exhausted"
    assert sum(w.cores for w in res.workers) == 8
    # one call per iteration, one that finds no beam, one for the hypotheses
    assert len(calls) == len(res.iterations) + 2
    assert calls[-1] == len(res.st_nodes)
    return calls[-1]


def test_master_keeps_open_list_in_order_on_every_iteration(
        trains, check_open_list, monkeypatch):
    from test_dominance import without_dominance  # it imports this module
    # With the in-process workers dropping no union as dominated, the list
    # grows past 1,000 nodes.
    without_dominance(monkeypatch)
    assert final_master_open_list_checked_in_order(trains,
                                                   check_open_list) > 1000


def test_master_dropping_dominated_unions_keeps_open_list_in_order(
        trains, check_open_list):
    assert final_master_open_list_checked_in_order(trains,
                                                   check_open_list) > 700


def test_master_raises_without_workers():
    cfg = MasterConfig(broadcast_addrs=(), worker_endpoints=(),
                       discovery_millis=150)
    with pytest.raises(ClusterError, match="no workers responded"):
        run_master(None, None, None, cfg)


def test_master_raises_on_a_kb_that_is_not_materialized(smoke):
    st, kb = parse_kb(fixture_path("smoke.kb").read_text())
    with worker() as w:
        with pytest.raises(ClusterError, match="must be materialized"):
            run_master(kb, st, smoke.examples, master_cfg(w))


def test_master_raises_when_short_of_expected_workers(smoke):
    with worker() as w:
        cfg = master_cfg(w, expect_workers=2, discovery_millis=400)
        with pytest.raises(ClusterError, match="expected 2 workers"):
            run_master(smoke.kb, smoke.st, smoke.examples, cfg)


@contextlib.contextmanager
def answering_pings(tcp_port):
    """A UDP endpoint that answers every discovery ping with ``tcp_port``,
    whether or not anything listens there. Yields its UDP port."""
    udp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    udp.bind(("127.0.0.1", 0))
    udp.settimeout(0.1)
    stop = threading.Event()

    def serve():
        while not stop.is_set():
            try:
                _, addr = udp.recvfrom(64)
            except socket.timeout:
                continue
            udp.sendto(b"SPDL!" + struct.pack(">H", tcp_port), addr)

    t = threading.Thread(target=serve, daemon=True)
    t.start()
    try:
        yield udp.getsockname()[1]
    finally:
        stop.set()
        t.join(timeout=5)
        udp.close()


def unparseable_expand_result(payload, state):
    return serialize_block([])  # a block without its weak-hash section


def test_master_exits_3_when_a_discovered_port_refuses(capsys):
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]  # nobody listens once it is closed
    with answering_pings(port) as udp_port:
        code = main(["master", str(fixture_path("smoke.kb")),
                     str(fixture_path("smoke.ex")),
                     "--worker-endpoint", f"127.0.0.1:{udp_port}",
                     "--expect-workers", "1"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("cluster error: worker ('127.0.0.1', "
                          f"{port}): cannot connect")


# One byte where cores needs two.
SHORT_HELLO_ACK = frame_bytes(MSG_HELLO_ACK, b"\x00")
# A worker that has no core to take a block with.
ZERO_CORES_HELLO_ACK = frame_bytes(MSG_HELLO_ACK, struct.pack(">H", 0))


@pytest.mark.parametrize("reply", [
    # The same frame from a worker of protocol version 1, 2, 3 or 4; the
    # checksum covers only type and payload, so it stays valid.
    SHORT_HELLO_ACK[:4] + struct.pack(">H", 1) + SHORT_HELLO_ACK[6:],
    SHORT_HELLO_ACK[:4] + struct.pack(">H", 2) + SHORT_HELLO_ACK[6:],
    SHORT_HELLO_ACK[:4] + struct.pack(">H", 3) + SHORT_HELLO_ACK[6:],
    SHORT_HELLO_ACK[:4] + struct.pack(">H", 4) + SHORT_HELLO_ACK[6:],
    SHORT_HELLO_ACK,
    ZERO_CORES_HELLO_ACK,
    b"not a frame at all",
])
def test_master_closes_the_socket_of_a_failed_handshake(smoke, reply):
    listener = socket.create_server(("127.0.0.1", 0))
    after_reply = []

    def serve():
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(10)
            read_frame(conn)  # HELLO
            conn.sendall(reply)
            try:
                after_reply.append(conn.recv(1))
            except ConnectionResetError:  # closed with part of reply unread
                after_reply.append(b"")

    t = threading.Thread(target=serve, daemon=True)
    t.start()
    try:
        with answering_pings(listener.getsockname()[1]) as udp_port:
            cfg = MasterConfig(broadcast_addrs=(),
                               worker_endpoints=(("127.0.0.1", udp_port),),
                               discovery_millis=3000, expect_workers=1)
            # excinfo keeps run_master's frames alive, so only an explicit
            # close ends the connection before the join below.
            with pytest.raises(ClusterError) as excinfo:
                run_master(smoke.kb, smoke.st, smoke.examples, cfg)
            t.join(timeout=15)
        assert not t.is_alive()
        assert after_reply == [b""]  # the master hung up
        assert "worker ('127.0.0.1'" in str(excinfo.value)
        if reply == ZERO_CORES_HELLO_ACK:
            assert str(excinfo.value).endswith(": bad HELLO_ACK: 0 cores")
    finally:
        listener.close()


def master_with_a_bad_worker(fix, bad_expand, cause):
    """run_master on trains with two 2-core workers, one expanding through
    ``bad_expand``, and the local run it must equal once that one is
    dropped in the first iteration, which the run records with a cause
    that ``cause`` (a regular expression) matches."""
    with worker(cores=2) as good, worker(cores=2) as bad:
        bad._expand = bad_expand
        cfg = master_cfg(
            good, worker_endpoints=(("127.0.0.1", good.udp_port),
                                    ("127.0.0.1", bad.udp_port)),
            expect_workers=2, max_length=5, target_accuracy=2.0)
        res = run_master(fix.kb, fix.st, fix.examples, cfg)
    (drop,) = res.dropped
    assert drop.address == ("127.0.0.1", bad.tcp_port)
    assert drop.iteration == 0
    assert re.match(cause, drop.cause), drop.cause
    # The root stays in the open list if it was in the bad worker's block,
    # so the run is a local one of the good worker's width.
    local = run_search(fix.kb, fix.examples,
                       SearchConfig(beam_width=2, max_length=5,
                                    target_accuracy=2.0))
    return res, local


def test_master_requeues_the_block_of_a_worker_whose_reply_does_not_parse(
        trains):
    res, local = master_with_a_bad_worker(
        trains, unparseable_expand_result, "block shorter than its count field")
    assert res.status == local.status == "exhausted"
    assert res.rht == local.rht
    assert res.st_insertions == local.st_insertions


def test_master_drops_a_worker_that_returns_a_concept_outside_the_kb(trains):
    outside = BlockNode(Atomic(999), 1, 0, 5, 0)
    res, local = master_with_a_bad_worker(
        trains, lambda payload, state: _pack_expand_result([outside], []),
        "node 0: class id 999 is not in the KB")
    assert hash_concept(outside.concept) not in res.rht
    assert res.status == local.status == "exhausted"
    assert res.rht == local.rht
    assert res.st_insertions == local.st_insertions


# A concept of length 6 that trains can hold.
MIN7 = MinCard(7, RoleExpr(0), connective(And, (Atomic(0), Atomic(1))))


@pytest.mark.parametrize("bad,cause", [
    # trains has 5 positives
    (BlockNode(MIN7, 6, 0, 999, 0), "node 0: covers 999 positives"),
    (BlockNode(MIN7, 5, 0, 1, 5), "node 0: he 5 is not its length 6"),
    # No block holds that slot: the widest beam here is 4.
    (BlockNode(MIN7, 6, 2**32 - 1, 1, 5),
     "node 0: slot 4294967295 was not sent to this worker"),
], ids=["impossible-counts", "he-not-length", "slot-not-sent"])
def test_master_drops_a_worker_that_returns_an_impossible_node(
        trains, bad, cause):
    res, local = master_with_a_bad_worker(
        trains, lambda payload, state: _pack_expand_result([bad], []),
        re.escape(cause))
    assert res.status == local.status == "exhausted"
    assert res.rht == local.rht
    assert res.st_insertions == local.st_insertions


def test_master_scores_what_a_worker_returns(trains):
    """A worker that adds a node of its own to its first reply cannot choose
    that node's value: the master derives it from the node's counts, its
    length and the beam node in its slot, as a local run would."""
    with worker(cores=2) as w:
        expand = w._expand

        def adding_min7(payload, state):
            nodes, weak = _split_expand_result(expand(payload, state))
            if not state.setdefault("added", False):
                state["added"] = True
                slot = _split_expand_task(payload)[1][0].slot
                nodes.append(BlockNode(MIN7, concept_length(MIN7), slot, 1, 5))
            return _pack_expand_result(nodes, weak)

        w._expand = adding_min7
        res = run_master(trains.kb, trains.st, trains.examples,
                         master_cfg(w, max_length=5, target_accuracy=2.0))
    assert res.status == "exhausted" and res.dropped == []
    (node,) = [n for n in res.st_nodes if n.concept == MIN7]
    assert node.parent.concept == TOP
    want = score(CoverageResult(1, 5), node.parent.score.accuracy,
                 concept_length(MIN7), trains.examples, EvalConfig())
    assert node.score == want
    assert res.st_insertions[node.hash] == want.value
    assert res.hypotheses[0].concept != MIN7


def test_master_exits_3_once_no_worker_is_left(capsys):
    with worker() as w:
        w._expand = unparseable_expand_result
        code = main(["master", str(fixture_path("smoke.kb")),
                     str(fixture_path("smoke.ex")),
                     "--worker-endpoint", f"127.0.0.1:{w.udp_port}",
                     "--expect-workers", "1"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out.startswith("status: failed\n")
    assert err == ""


def test_master_json_reports_each_dropped_worker(capsys):
    with worker() as w:
        w._expand = unparseable_expand_result
        code = main(["master", str(fixture_path("smoke.kb")),
                     str(fixture_path("smoke.ex")), "--json",
                     "--worker-endpoint", f"127.0.0.1:{w.udp_port}",
                     "--expect-workers", "1"])
    out, err = capsys.readouterr()
    assert code == 3 and err == ""
    records = [json.loads(line) for line in out.splitlines()]
    assert [r for r in records if r["type"] == "worker_dropped"] == [
        {"type": "worker_dropped", "address": f"127.0.0.1:{w.tcp_port}",
         "iteration": 0, "cause": "block shorter than its count field"}]
    assert [r["status"] for r in records if r["type"] == "result"] == ["failed"]
    (handshake,) = [r for r in records if r["type"] == "handshake"]
    (info,) = [r for r in records if r["type"] == "worker"]
    assert info["address"] == f"127.0.0.1:{w.tcp_port}"
    assert 0 <= info["kb_ack_millis"] <= handshake["handshake_millis"]
    assert set(info) == {"type", "address", "cores", "kb_ack_millis"}


def test_master_drops_a_worker_that_stops_answering(capsys):
    """A worker that answers the handshake, then never an EXPAND_TASK, is
    dropped by the master's socket timeout."""
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    def serve():
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(10)
            replies = {MSG_HELLO: (MSG_HELLO_ACK, struct.pack(">H", 2)),
                       MSG_KB_TRANSFER: (MSG_KB_ACK, b"")}
            try:
                while True:
                    mtype, _ = read_frame(conn)
                    if mtype in replies:
                        write_frame(conn, *replies[mtype])
            except (OSError, ProtocolError):  # the master hung up
                pass

    t = threading.Thread(target=serve, daemon=True)
    t.start()
    try:
        with answering_pings(port) as udp_port:
            t0 = time.monotonic()
            code = main(["master", str(fixture_path("smoke.kb")),
                         str(fixture_path("smoke.ex")),
                         "--worker-endpoint", f"127.0.0.1:{udp_port}",
                         "--expect-workers", "1", "--io-timeout", "0.5"])
            elapsed = time.monotonic() - t0
        t.join(timeout=15)
    finally:
        listener.close()
    out, err = capsys.readouterr()
    assert code == 3
    assert out.startswith("status: failed\n")
    assert (f"worker 127.0.0.1:{port} dropped in "
            f"iteration 0: no reply: timed out\n") in out
    assert err == ""
    assert elapsed < 5.0
    assert not t.is_alive()

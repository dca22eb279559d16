import contextlib
import random
import socket
import struct
import threading
import time
import types

import pytest

import dlbeam.search as search_mod
from dlbeam.cli import main
from dlbeam.cluster import (BlockNode, ClusterError, MasterConfig,
                            MSG_ERROR, MSG_EXPAND_RESULT,
                            MSG_EXPAND_TASK, MSG_HELLO, MSG_HELLO_ACK,
                            MSG_KB_ACK, MSG_KB_TRANSFER, MSG_PROBE,
                            MSG_PROBE_RESULT, MSG_TERMINATE, PROTOCOL_VERSION,
                            ProtocolError,
                            SearchParams, WorkerServer, _accuracy,
                            _pack_expand_result, _pack_kb_transfer,
                            _split_expand_result,
                            _unpack_kb_transfer, discover, frame_bytes,
                            parse_frame, read_frame, run_master,
                            serialize_block, deserialize_block, write_frame)
from dlbeam.concept import (Atomic, Exists, RoleExpr, TOP, concept_length,
                            hash_concept)
from dlbeam.evaluation import (CoverageResult, Score, evaluate, evaluate_batch,
                               is_weak, score)
from dlbeam.fixtures import fixture_path
from dlbeam.kb import ExampleSet, compute_statistics, materialize, parse_kb
from dlbeam.refine import RefinementConfig, build_mb
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
        write_frame(a, MSG_PROBE, b"payload")
        assert read_frame(b) == (MSG_PROBE, b"payload")
        # a closed peer mid-frame surfaces as a protocol error
        a.sendall(frame_bytes(MSG_PROBE, b"xxxx")[:7])
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
    BlockNode(TOP, 1, 5, 5, 0.48),
    BlockNode(Atomic(2), 2, 4, 1, 0.76),
    BlockNode(Exists(RoleExpr(0), Atomic(1)), 3, 5, 0, 1.04),
]


def test_block_round_trip():
    rng = random.Random(601)
    random_nodes = [BlockNode(Atomic(rng.randrange(50)), rng.randint(1, 9),
                              rng.randint(0, 9), rng.randint(0, 9), rng.random())
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
    first_len = 4 + 4 + 1 + 18
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

def test_search_params_round_trip():
    rng = random.Random(602)
    for _ in range(40):
        p = SearchParams(noise=rng.choice([0.0, 0.1, 0.25]),
                         gain_bonus=rng.random(),
                         expansion_penalty=rng.random() / 10,
                         max_length=rng.randint(1, 20),
                         use_inverse_roles=rng.random() < 0.5,
                         use_cardinality=rng.random() < 0.5,
                         use_disjunction=rng.random() < 0.5,
                         use_negation=rng.random() < 0.5)
        packed = p.pack()
        assert len(packed) == 27
        q, end = SearchParams.unpack(packed, 0)
        assert q == p and end == 27
    with pytest.raises(ProtocolError):
        SearchParams.unpack(SearchParams().pack()[:-1], 0)


def test_kb_transfer_round_trip(smoke):
    params = SearchParams(max_length=5, use_disjunction=False)
    payload = _pack_kb_transfer(smoke.kb, smoke.st, smoke.examples, params)
    st2, kb2, ex2, params2 = _unpack_kb_transfer(payload)
    assert st2 == smoke.st
    assert kb2 == smoke.kb
    assert ex2 == smoke.examples
    assert params2 == params
    for cut in (2, 10, len(payload) - 1):
        with pytest.raises(ProtocolError):
            _unpack_kb_transfer(payload[:cut])
    with pytest.raises(ProtocolError, match="trailing"):
        _unpack_kb_transfer(payload + b"\x00")


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

PARAMS = SearchParams(max_length=5)
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
    sc = score(cov, None, 1, fix.examples)
    return BlockNode(TOP, 1, cov.pos_covered, cov.neg_covered, sc.value)


def local_expand_oracle(fix, tasks, params):
    """What a correct worker must return for EXPAND_TASK, computed in-process."""
    rcfg = RefinementConfig.from_stats(
        fix.stats, max_length=params.max_length,
        use_inverse_roles=params.use_inverse_roles,
        use_cardinality=params.use_cardinality,
        use_disjunction=params.use_disjunction,
        use_negation=params.use_negation)
    per_slot = []
    for bn in tasks:
        node = SearchNode(bn.concept, hash_concept(bn.concept), bn.he,
                          CoverageResult(bn.pos_covered, bn.neg_covered),
                          Score(_accuracy(bn, fix.examples), bn.value))
        per_slot.append(expand_single_node(node, fix.kb, fix.stats, fix.mb,
                                           rcfg, params.max_length))
    survivors = reduce_redundant(per_slot, rht=set())
    covs = evaluate_batch([c for c, _, _ in survivors], fix.kb, fix.examples)
    good, weak = [], []
    for (c, h, slot), cov in zip(survivors, covs):
        if is_weak(cov, fix.examples, params.noise):
            weak.append(h)
            continue
        sc = score(cov, _accuracy(tasks[slot], fix.examples),
                   concept_length(c), fix.examples, params.eval_cfg())
        good.append(BlockNode(c, concept_length(c), cov.pos_covered,
                              cov.neg_covered, sc.value))
    return good, weak


def test_worker_hello_reports_cores(smoke):
    with master_connection(smoke, send_kb=False, cores=3) as (sock, _):
        write_frame(sock, MSG_HELLO)
        mtype, payload = read_frame(sock)
        assert mtype == MSG_HELLO_ACK
        assert int.from_bytes(payload, "big") == 3


def test_worker_probe_returns_cores_and_timing(smoke):
    with master_connection(smoke, cores=2) as (sock, _):
        write_frame(sock, MSG_PROBE)
        mtype, payload = read_frame(sock)
        assert mtype == MSG_PROBE_RESULT
        assert len(payload) == 6
        assert int.from_bytes(payload[:2], "big") == 2


def test_worker_rejects_probe_before_kb(smoke):
    with master_connection(smoke, send_kb=False) as (sock, _):
        write_frame(sock, MSG_PROBE)
        mtype, payload = read_frame(sock)
        assert mtype == MSG_ERROR
        assert b"PROBE before KB_TRANSFER" in payload


def test_worker_rejects_unknown_message(smoke):
    with master_connection(smoke, send_kb=False) as (sock, _):
        write_frame(sock, MSG_KB_ACK)
        mtype, payload = read_frame(sock)
        assert mtype == MSG_ERROR
        assert b"unexpected message type" in payload


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
             + struct.pack(">HIId", 1, 0, 0, 0.5))
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
    task = BlockNode(concept, 4, root.pos_covered, root.neg_covered, root.value)
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
    payload[4:8] = b"XXXX"  # the KB blob's magic, inside a well-formed frame
    send_kb_transfer_and_expect_error(bytes(payload), b"bad KB transfer")


def test_worker_answers_a_kb_that_cannot_materialize_with_error():
    st, kb = parse_kb("class A\nclass B\nsubclass A B\nsubclass B A\n"
                      "individual x\nindividual y\ninstance A x\n")
    examples = ExampleSet.from_ids(2, [0], [1])
    send_kb_transfer_and_expect_error(
        _pack_kb_transfer(kb, st, examples, PARAMS),
        b"cycle in subclass hierarchy")


def test_kb_transfer_rejects_an_example_id_out_of_range(smoke):
    n = smoke.kb.num_individuals
    examples = ExampleSet.from_ids(n + 1, [0], [n])
    payload = _pack_kb_transfer(smoke.kb, smoke.st, examples, PARAMS)
    with pytest.raises(ProtocolError, match="example id out of range"):
        _unpack_kb_transfer(payload)
    send_kb_transfer_and_expect_error(payload, b"example id out of range")


def test_worker_answers_a_kb_transfer_with_bad_noise_with_error(smoke):
    for noise in (1.5, -0.1, float("nan")):
        params = SearchParams(noise=noise, max_length=5)
        payload = _pack_kb_transfer(smoke.kb, smoke.st, smoke.examples, params)
        with pytest.raises(ProtocolError, match="noise must be in"):
            _unpack_kb_transfer(payload)
        send_kb_transfer_and_expect_error(payload, b"noise must be in")


def test_worker_answers_a_kb_transfer_with_a_zero_bound_with_error(smoke):
    for params in (SearchParams(max_length=0),):
        payload = _pack_kb_transfer(smoke.kb, smoke.st, smoke.examples, params)
        with pytest.raises(ProtocolError, match="must be >= 1"):
            _unpack_kb_transfer(payload)
        send_kb_transfer_and_expect_error(payload, b"must be >= 1")


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
            tasks = [BlockNode(TOP, 4, root.pos_covered, root.neg_covered,
                               root.value)]
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
        level2 = sorted(nodes, key=lambda bn: -bn.value)[:4]
        write_frame(sock, MSG_EXPAND_TASK, NO_KNOWN + serialize_block(level2))
        mtype, payload = read_frame(sock)
        assert mtype == MSG_EXPAND_RESULT
        nodes2, weak2 = _split_expand_result(payload)
    want_nodes, want_weak = local_expand_oracle(trains, level2, PARAMS)
    assert nodes2 == want_nodes
    assert weak2 == want_weak


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
    assert res.phases == ["discovery", "probing", "learning", "terminating", "done"]
    best = res.hypotheses[0]
    assert best.score.accuracy == 1.0
    assert (best.coverage.pos_covered, best.coverage.neg_covered) == (5, 0)
    assert len(res.workers) == 1
    assert res.workers[0].cores == 2
    assert res.workers[0].wn == 2  # block size equals the advertised cores
    assert res.workers[0].probe_millis >= 0


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


def test_a_lone_worker_returns_only_refinements_new_to_the_rht(trains):
    with worker(cores=4) as w:
        res = run_master(trains.kb, trains.st, trains.examples,
                         master_cfg(w, max_length=5, target_accuracy=2.0))
    assert res.status == "exhausted"
    # With no second worker to return the same hash, every refinement
    # returned is evaluated once: the RHT is the root plus all of them.
    assert sum(i.generated for i in res.iterations) == len(res.rht) - 1
    assert all(i.redundant_dropped == 0 for i in res.iterations)


def test_master_keeps_open_list_in_order_on_every_iteration(
        trains, check_open_list):
    calls = check_open_list(search_mod)  # the module of search_loop
    with worker(cores=4) as w1, worker(cores=4) as w2:
        cfg = master_cfg(
            w1, worker_endpoints=(("127.0.0.1", w1.udp_port),
                                  ("127.0.0.1", w2.udp_port)),
            expect_workers=2, max_length=6, target_accuracy=2.0)
        res = run_master(trains.kb, trains.st, trains.examples, cfg)
    assert res.status == "exhausted"
    assert sum(w.wn for w in res.workers) == 8
    # one call per iteration, one that finds no beam, one for the hypotheses
    assert len(calls) == len(res.iterations) + 2
    assert calls[-1] == len(res.st_nodes) > 1000


def test_master_raises_without_workers():
    cfg = MasterConfig(broadcast_addrs=(), worker_endpoints=(),
                       discovery_millis=150)
    with pytest.raises(ClusterError, match="no workers responded"):
        run_master(None, None, None, cfg)


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


@pytest.mark.parametrize("reply", [
    # The same frame from a worker of protocol version 1 or 2; the checksum
    # covers only type and payload, so it stays valid.
    SHORT_HELLO_ACK[:4] + struct.pack(">H", 1) + SHORT_HELLO_ACK[6:],
    SHORT_HELLO_ACK[:4] + struct.pack(">H", 2) + SHORT_HELLO_ACK[6:],
    SHORT_HELLO_ACK,
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
    finally:
        listener.close()


def master_with_a_bad_worker(fix, bad_expand):
    """run_master on trains with two 2-core workers, one expanding through
    ``bad_expand``, and the local run it must equal once that one is
    dropped in the first iteration."""
    with worker(cores=2) as good, worker(cores=2) as bad:
        bad._expand = bad_expand
        cfg = master_cfg(
            good, worker_endpoints=(("127.0.0.1", good.udp_port),
                                    ("127.0.0.1", bad.udp_port)),
            expect_workers=2, max_length=5, target_accuracy=2.0)
        res = run_master(fix.kb, fix.st, fix.examples, cfg)
    # The root stays in the open list if it was in the bad worker's block,
    # so the run is a local one of the good worker's width.
    local = run_search(fix.kb, fix.examples,
                       SearchConfig(beam_width=2, max_length=5,
                                    target_accuracy=2.0))
    return res, local


def test_master_requeues_the_block_of_a_worker_whose_reply_does_not_parse(
        trains):
    res, local = master_with_a_bad_worker(trains, unparseable_expand_result)
    assert res.status == local.status == "exhausted"
    assert res.rht == local.rht
    assert res.st_insertions == local.st_insertions


def test_master_drops_a_worker_that_returns_a_concept_outside_the_kb(trains):
    outside = BlockNode(Atomic(999), 1, 5, 0, 2.0)
    res, local = master_with_a_bad_worker(
        trains, lambda payload, state: _pack_expand_result([outside], []))
    assert hash_concept(outside.concept) not in res.rht
    assert res.status == local.status == "exhausted"
    assert res.rht == local.rht
    assert res.st_insertions == local.st_insertions


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


def test_master_drops_a_worker_that_stops_answering(capsys):
    """A worker that answers the handshake, then never an EXPAND_TASK, is
    dropped by the master's socket timeout."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(10)
            replies = {MSG_HELLO: (MSG_HELLO_ACK, struct.pack(">H", 2)),
                       MSG_KB_TRANSFER: (MSG_KB_ACK, b""),
                       MSG_PROBE: (MSG_PROBE_RESULT, struct.pack(">HI", 2, 1))}
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
        with answering_pings(listener.getsockname()[1]) as udp_port:
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
    assert err == ""
    assert elapsed < 5.0
    assert not t.is_alive()

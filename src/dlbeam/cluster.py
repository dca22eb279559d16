"""Master-worker distributed search over a framed TCP protocol.

Frame layout (big-endian): magic ``SPDL``, u16 version (1), u8 message type,
u32 payload length, payload, u32 CRC32 over type byte + payload.

Message types: 0x01 HELLO, 0x02 HELLO_ACK, 0x03 KB_TRANSFER, 0x04 KB_ACK,
0x05 PROBE, 0x06 PROBE_RESULT, 0x07 EXPAND_TASK, 0x08 EXPAND_RESULT,
0x09 TERMINATE, 0x0A BEST_HYPOTHESES, 0x0F ERROR.

Discovery is a UDP ping ``SPDL?`` + u16 master TCP port; a worker answers
``SPDL!`` + u16 its TCP listen port, and the master opens one TCP connection
per responder, each driven by a dedicated handler thread.

A hypothesis block is u32 count, then per node: u32 length of the encoded
concept, the encoding, u16 he, u32 covered positives, u32 covered negatives,
f64 score value. Blocks are byte-identical for any serializer thread count.

An EXPAND_RESULT carries the evaluated non-weak refinements as a block,
followed by the hashes of the weak ones (u32 count + u64 each) so the master
can keep its closed list identical to a single-machine run's.
"""

from __future__ import annotations

import os
import queue
import socket
import struct
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .concept import (TOP, Concept, DecodeError, concept_length, decode,
                      encode, hash_concept, sort_key)
from .evaluation import CoverageResult, EvalConfig, Score, evaluate, evaluate_batch, is_weak, score
from .kb import ExampleSet, KnowledgeBase, SymbolTable, compute_statistics, deserialize_kb, materialize, serialize_kb
from .refine import RefinementConfig, build_mb
from .search import (IterationStats, SearchNode, expand_single_node,
                     extract_best_nodes, insert_node, reduce_redundant)

__all__ = [
    "MSG_HELLO", "MSG_HELLO_ACK", "MSG_KB_TRANSFER", "MSG_KB_ACK", "MSG_PROBE",
    "MSG_PROBE_RESULT", "MSG_EXPAND_TASK", "MSG_EXPAND_RESULT", "MSG_TERMINATE",
    "MSG_BEST_HYPOTHESES", "MSG_ERROR",
    "ProtocolError", "ClusterError",
    "BlockNode", "SearchParams", "WorkerInfo",
    "write_frame", "read_frame", "frame_bytes", "parse_frame",
    "serialize_block", "deserialize_block",
    "WorkerServer", "discover", "MasterConfig", "ClusterResult", "run_master",
    "DEFAULT_UDP_PORT", "DEFAULT_TCP_PORT", "PROBE_HE",
]

FRAME_MAGIC = b"SPDL"
PROTOCOL_VERSION = 1
DISCOVER_PING = b"SPDL?"
DISCOVER_REPLY = b"SPDL!"
DEFAULT_UDP_PORT = 47901
DEFAULT_TCP_PORT = 47902
PROBE_HE = 5
MAX_PAYLOAD = 1 << 28

MSG_HELLO = 0x01
MSG_HELLO_ACK = 0x02
MSG_KB_TRANSFER = 0x03
MSG_KB_ACK = 0x04
MSG_PROBE = 0x05
MSG_PROBE_RESULT = 0x06
MSG_EXPAND_TASK = 0x07
MSG_EXPAND_RESULT = 0x08
MSG_TERMINATE = 0x09
MSG_BEST_HYPOTHESES = 0x0A
MSG_ERROR = 0x0F

_u16 = struct.Struct(">H")
_u32 = struct.Struct(">I")
_u64 = struct.Struct(">Q")
_f64 = struct.Struct(">d")
_HEADER = struct.Struct(">4sHBI")


class ProtocolError(Exception):
    pass


class ClusterError(Exception):
    pass


# ---------------------------------------------------------------------------
# Framing

def frame_bytes(mtype: int, payload: bytes) -> bytes:
    crc = zlib.crc32(bytes([mtype]) + payload)
    return _HEADER.pack(FRAME_MAGIC, PROTOCOL_VERSION, mtype, len(payload)) + payload + _u32.pack(crc)


def parse_frame(data: bytes) -> tuple[int, bytes]:
    """Parse one complete frame held in memory (the read_frame inverse)."""
    if len(data) < _HEADER.size + 4:
        raise ProtocolError("truncated frame")
    magic, version, mtype, plen = _HEADER.unpack_from(data)
    if magic != FRAME_MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    if len(data) != _HEADER.size + plen + 4:
        raise ProtocolError("frame length mismatch")
    payload = data[_HEADER.size:_HEADER.size + plen]
    crc = _u32.unpack_from(data, _HEADER.size + plen)[0]
    if crc != zlib.crc32(bytes([mtype]) + payload):
        raise ProtocolError("frame checksum failure")
    return mtype, payload


def write_frame(sock: socket.socket, mtype: int, payload: bytes = b"") -> None:
    sock.sendall(frame_bytes(mtype, payload))


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ProtocolError("connection closed mid-frame")
        buf += chunk
    return bytes(buf)


def read_frame(sock: socket.socket) -> tuple[int, bytes]:
    head = _recv_exact(sock, _HEADER.size)
    magic, version, mtype, plen = _HEADER.unpack(head)
    if magic != FRAME_MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    if plen > MAX_PAYLOAD:
        raise ProtocolError(f"payload length {plen} exceeds limit")
    rest = _recv_exact(sock, plen + 4)
    payload, crc = rest[:plen], _u32.unpack(rest[plen:])[0]
    if crc != zlib.crc32(bytes([mtype]) + payload):
        raise ProtocolError("frame checksum failure")
    return mtype, payload


# ---------------------------------------------------------------------------
# Hypothesis blocks

@dataclass(frozen=True)
class BlockNode:
    concept: Concept
    he: int
    pos_covered: int
    neg_covered: int
    value: float


def _encode_node(n: BlockNode) -> bytes:
    enc = encode(n.concept)
    return (_u32.pack(len(enc)) + enc + _u16.pack(n.he)
            + _u32.pack(n.pos_covered) + _u32.pack(n.neg_covered)
            + _f64.pack(n.value))


def serialize_block(nodes: list[BlockNode], threads: int = 1) -> bytes:
    """u32 count + per-node records; output bytes independent of threads."""
    if threads > 1 and len(nodes) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(_encode_node, nodes))
    else:
        parts = [_encode_node(n) for n in nodes]
    return _u32.pack(len(nodes)) + b"".join(parts)


def deserialize_block(data: bytes, threads: int = 1) -> list[BlockNode]:
    if len(data) < 4:
        raise ProtocolError("block shorter than its count field")
    (count,) = _u32.unpack_from(data, 0)
    pos = 4
    raw: list[tuple[bytes, int, int, int, float]] = []
    for i in range(count):
        if pos + 4 > len(data):
            raise ProtocolError(f"node {i}: truncated length prefix")
        (clen,) = _u32.unpack_from(data, pos)
        pos += 4
        end = pos + clen + 2 + 4 + 4 + 8
        if end > len(data):
            raise ProtocolError(f"node {i}: truncated record")
        enc = data[pos:pos + clen]
        pos += clen
        (he,) = _u16.unpack_from(data, pos)
        (pc,) = _u32.unpack_from(data, pos + 2)
        (nc,) = _u32.unpack_from(data, pos + 6)
        (val,) = _f64.unpack_from(data, pos + 10)
        pos += 18
        raw.append((enc, he, pc, nc, val))
    if pos != len(data):
        raise ProtocolError(f"{len(data) - pos} trailing bytes after block")

    def build(item: tuple[int, tuple[bytes, int, int, int, float]]) -> BlockNode:
        i, (enc, he, pc, nc, val) = item
        try:
            c = decode(enc)
        except DecodeError as exc:
            raise ProtocolError(f"node {i}: {exc}") from None
        return BlockNode(c, he, pc, nc, val)

    items = list(enumerate(raw))
    if threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(build, items))
    return [build(it) for it in items]


# ---------------------------------------------------------------------------
# Search parameters carried by KB_TRANSFER

@dataclass(frozen=True)
class SearchParams:
    noise: float = 0.0
    gain_bonus: float = 0.5
    expansion_penalty: float = 0.02
    max_length: int = 10
    limit: int = 1
    use_inverse_roles: bool = True
    use_cardinality: bool = True
    use_disjunction: bool = True
    use_negation: bool = True

    def pack(self) -> bytes:
        flags = (self.use_inverse_roles | self.use_cardinality << 1
                 | self.use_disjunction << 2 | self.use_negation << 3)
        return (_f64.pack(self.noise) + _f64.pack(self.gain_bonus)
                + _f64.pack(self.expansion_penalty) + _u16.pack(self.max_length)
                + _u16.pack(self.limit) + bytes([flags]))

    @classmethod
    def unpack(cls, data: bytes, pos: int) -> tuple["SearchParams", int]:
        if pos + 29 > len(data):
            raise ProtocolError("truncated search parameters")
        noise = _f64.unpack_from(data, pos)[0]
        gain = _f64.unpack_from(data, pos + 8)[0]
        pen = _f64.unpack_from(data, pos + 16)[0]
        max_length = _u16.unpack_from(data, pos + 24)[0]
        limit = _u16.unpack_from(data, pos + 26)[0]
        flags = data[pos + 28]
        return cls(noise, gain, pen, max_length, limit,
                   bool(flags & 1), bool(flags & 2), bool(flags & 4),
                   bool(flags & 8)), pos + 29

    def eval_cfg(self) -> EvalConfig:
        return EvalConfig(self.gain_bonus, self.expansion_penalty)


def _pack_kb_transfer(kb: KnowledgeBase, st: SymbolTable, examples: ExampleSet,
                      params: SearchParams) -> bytes:
    blob = serialize_kb(kb, st)
    out = bytearray(_u32.pack(len(blob)))
    out += blob
    pos_ids, neg_ids = examples.pos_ids(), examples.neg_ids()
    out += _u32.pack(len(pos_ids))
    for i in pos_ids:
        out += _u32.pack(i)
    out += _u32.pack(len(neg_ids))
    for i in neg_ids:
        out += _u32.pack(i)
    out += params.pack()
    return bytes(out)


def _unpack_kb_transfer(payload: bytes
                        ) -> tuple[SymbolTable, KnowledgeBase, ExampleSet, SearchParams]:
    if len(payload) < 4:
        raise ProtocolError("truncated KB transfer")
    (blen,) = _u32.unpack_from(payload, 0)
    pos = 4 + blen
    if pos > len(payload):
        raise ProtocolError("truncated KB payload")
    st, kb = deserialize_kb(payload[4:pos])

    def id_list(p: int) -> tuple[list[int], int]:
        if p + 4 > len(payload):
            raise ProtocolError("truncated example list")
        (n,) = _u32.unpack_from(payload, p)
        p += 4
        if p + 4 * n > len(payload):
            raise ProtocolError("truncated example list")
        ids = [_u32.unpack_from(payload, p + 4 * i)[0] for i in range(n)]
        return ids, p + 4 * n

    pos_ids, pos = id_list(pos)
    neg_ids, pos = id_list(pos)
    params, pos = SearchParams.unpack(payload, pos)
    if pos != len(payload):
        raise ProtocolError("trailing bytes after KB transfer")
    examples = ExampleSet.from_ids(st.num_individuals, pos_ids, neg_ids)
    return st, kb, examples, params


# ---------------------------------------------------------------------------
# Worker

@dataclass
class WorkerInfo:
    address: tuple[str, int]
    cores: int
    probe_millis: int = 0
    wn: int = 0
    connection_id: int = 0


def _check_port(port: int) -> None:
    if not 0 <= port <= 0xFFFF:
        raise ValueError(f"port must be in [0, 65535], got {port}")


class WorkerServer:
    """A worker node: answers discovery pings and serves one master at a time."""

    def __init__(self, host: str = "127.0.0.1", tcp_port: int = 0,
                 udp_port: int = DEFAULT_UDP_PORT, cores: int | None = None,
                 threads: int | None = None, io_timeout: float = 60.0):
        self.host = host
        self.cores = cores if cores is not None else (os.cpu_count() or 1)
        self.threads = threads if threads is not None else self.cores
        # cores travels to the master as u16 (HELLO_ACK, PROBE_RESULT).
        if not 1 <= self.cores <= 0xFFFF:
            raise ValueError(f"cores must be in [1, 65535], got {self.cores}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        _check_port(tcp_port)
        _check_port(udp_port)
        self.io_timeout = io_timeout
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []

        self._tcp = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._udp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            self._tcp.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._tcp.bind((host, tcp_port))
            self._tcp.listen(8)
            self._tcp.settimeout(0.2)
            self.tcp_port = self._tcp.getsockname()[1]

            self._udp.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            if hasattr(socket, "SO_REUSEPORT"):
                self._udp.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            self._udp.bind(("", udp_port))
            self._udp.settimeout(0.2)
            self.udp_port = self._udp.getsockname()[1]
        except OSError:
            self._tcp.close()
            self._udp.close()
            raise

    def start(self) -> "WorkerServer":
        for target in (self._udp_loop, self._accept_loop):
            t = threading.Thread(target=target, daemon=True)
            t.start()
            self._threads.append(t)
        return self

    def stop(self) -> None:
        self._stop.set()
        for t in self._threads:
            t.join(timeout=5)
        self._tcp.close()
        self._udp.close()

    # -- discovery ----------------------------------------------------------

    def _udp_loop(self) -> None:
        while not self._stop.is_set():
            try:
                data, addr = self._udp.recvfrom(64)
            except socket.timeout:
                continue
            except OSError:
                return
            if len(data) == len(DISCOVER_PING) + 2 and data.startswith(DISCOVER_PING):
                try:
                    self._udp.sendto(DISCOVER_REPLY + _u16.pack(self.tcp_port), addr)
                except OSError:
                    pass

    # -- protocol -----------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = self._tcp.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            t = threading.Thread(target=self._serve_master, args=(conn,), daemon=True)
            t.start()
            self._threads.append(t)

    def _serve_master(self, conn: socket.socket) -> None:
        conn.settimeout(self.io_timeout)
        state: dict = {"best": []}
        try:
            while not self._stop.is_set():
                try:
                    mtype, payload = read_frame(conn)
                except ProtocolError as exc:
                    try:
                        write_frame(conn, MSG_ERROR, str(exc).encode("utf-8"))
                    except OSError:
                        pass
                    return
                except (socket.timeout, OSError):
                    return
                try:
                    done = self._dispatch(conn, mtype, payload, state)
                except ProtocolError as exc:
                    try:
                        write_frame(conn, MSG_ERROR, str(exc).encode("utf-8"))
                    except OSError:
                        pass
                    return
                if done:
                    return
        finally:
            conn.close()

    def _dispatch(self, conn: socket.socket, mtype: int, payload: bytes,
                  state: dict) -> bool:
        if mtype == MSG_HELLO:
            write_frame(conn, MSG_HELLO_ACK, _u16.pack(self.cores))
            return False
        if mtype == MSG_KB_TRANSFER:
            st, kb, examples, params = _unpack_kb_transfer(payload)
            materialize(kb, st)
            stats = compute_statistics(kb)
            # rcfg carries refine's memo, which lives as long as this state.
            state.update(kb=kb, examples=examples, params=params, stats=stats,
                         mb=build_mb(kb, stats),
                         rcfg=RefinementConfig.from_stats(
                             stats,
                             use_inverse_roles=params.use_inverse_roles,
                             use_cardinality=params.use_cardinality,
                             use_disjunction=params.use_disjunction,
                             use_negation=params.use_negation,
                             max_length=params.max_length))
            write_frame(conn, MSG_KB_ACK)
            return False
        if mtype == MSG_PROBE:
            if "kb" not in state:
                raise ProtocolError("PROBE before KB_TRANSFER")
            millis = self._probe(state)
            write_frame(conn, MSG_PROBE_RESULT,
                        _u16.pack(self.cores) + _u32.pack(millis))
            return False
        if mtype == MSG_EXPAND_TASK:
            if "kb" not in state:
                raise ProtocolError("EXPAND_TASK before KB_TRANSFER")
            write_frame(conn, MSG_EXPAND_RESULT, self._expand(payload, state))
            return False
        if mtype == MSG_TERMINATE:
            block = serialize_block(state["best"], threads=self.threads)
            write_frame(conn, MSG_BEST_HYPOTHESES, block)
            return True
        raise ProtocolError(f"unexpected message type 0x{mtype:02x}")

    def _probe(self, state: dict) -> int:
        """Expand Thing out to the probe depth and evaluate, for timing."""
        kb, examples = state["kb"], state["examples"]
        t0 = time.monotonic()
        cov = evaluate(TOP, kb, examples)
        sc = score(cov, None, 1, examples, state["params"].eval_cfg())
        node = SearchNode(TOP, hash_concept(TOP), 1, cov, sc)
        # A config, and so a refine memo, of the probe's own.
        rcfg = RefinementConfig.from_stats(
            state["stats"], max_length=PROBE_HE,
            use_inverse_roles=state["params"].use_inverse_roles,
            use_cardinality=state["params"].use_cardinality,
            use_disjunction=state["params"].use_disjunction,
            use_negation=state["params"].use_negation)
        emitted: list[Concept] = []
        while node.expandable and node.he < PROBE_HE:
            refs, _ = expand_single_node(node, kb, state["stats"], state["mb"],
                                         rcfg, PROBE_HE)
            emitted.extend(refs)
        evaluate_batch(emitted, kb, examples, threads=self.threads)
        return int((time.monotonic() - t0) * 1000)

    def _expand(self, payload: bytes, state: dict) -> bytes:
        kb, examples, params = state["kb"], state["examples"], state["params"]
        tasks = deserialize_block(payload, threads=self.threads)

        def expand_one(bn: BlockNode) -> tuple[list[Concept], set[int]]:
            acc = _accuracy(bn, examples)
            node = SearchNode(bn.concept, hash_concept(bn.concept), bn.he,
                              CoverageResult(bn.pos_covered, bn.neg_covered),
                              Score(acc, bn.value))
            return expand_single_node(node, kb, state["stats"], state["mb"],
                                      state["rcfg"], params.max_length)

        if self.threads > 1 and len(tasks) > 1:
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                per_slot = list(pool.map(expand_one, tasks))
        else:
            per_slot = [expand_one(bn) for bn in tasks]

        survivors = reduce_redundant(per_slot, rht=set())
        covs = evaluate_batch([c for c, _, _ in survivors], kb, examples,
                              threads=self.threads)
        good: list[BlockNode] = []
        weak_hashes: list[int] = []
        for (c, h, slot), cov in zip(survivors, covs):
            if is_weak(cov, examples, params.noise):
                weak_hashes.append(h)
                continue
            parent_acc = _accuracy(tasks[slot], examples)
            sc = score(cov, parent_acc, concept_length(c), examples,
                       params.eval_cfg())
            good.append(BlockNode(c, concept_length(c), cov.pos_covered,
                                  cov.neg_covered, sc.value))

        merged = state["best"] + good
        merged.sort(key=lambda bn: (-bn.value, sort_key(bn.concept)))
        state["best"] = merged[:max(params.limit, 1)]

        out = bytearray(serialize_block(good, threads=self.threads))
        out += _u32.pack(len(weak_hashes))
        for h in weak_hashes:
            out += _u64.pack(h)
        return bytes(out)


def _accuracy(bn: BlockNode, examples: ExampleSet) -> float:
    return ((bn.pos_covered + (examples.neg_count - bn.neg_covered))
            / (examples.pos_count + examples.neg_count))


# ---------------------------------------------------------------------------
# Master

@dataclass(frozen=True)
class MasterConfig:
    limit: int = 1
    noise: float = 0.0
    max_millis: int | None = None
    max_length: int = 10
    target_accuracy: float = 1.0
    use_inverse_roles: bool = True
    use_cardinality: bool = True
    use_disjunction: bool = True
    use_negation: bool = True
    eval_cfg: EvalConfig = EvalConfig()
    udp_port: int = DEFAULT_UDP_PORT
    broadcast_addrs: tuple[str, ...] = ("255.255.255.255", "127.255.255.255")
    worker_endpoints: tuple[tuple[str, int], ...] = ()
    discovery_millis: int = 2000
    expect_workers: int | None = None
    io_timeout: float = 60.0

    def __post_init__(self):
        # limit and max_length travel to the workers as u16 (SearchParams).
        for name in ("limit", "max_length"):
            if not 1 <= getattr(self, name) <= 0xFFFF:
                raise ValueError(f"{name} must be in [1, 65535], "
                                 f"got {getattr(self, name)}")
        if not 0.0 <= self.noise < 1.0:
            raise ValueError(f"noise must be in [0, 1), got {self.noise}")
        if self.expect_workers is not None and self.expect_workers < 1:
            raise ValueError(f"expect_workers must be >= 1, "
                             f"got {self.expect_workers}")
        for port in (self.udp_port, *(p for _h, p in self.worker_endpoints)):
            _check_port(port)


@dataclass
class ClusterResult:
    hypotheses: list[SearchNode]
    status: str  # solved | budget | exhausted | failed
    st_nodes: list[SearchNode]
    st_insertions: dict[int, float]
    rht: set[int]
    iterations: list[IterationStats]
    wall_millis: int
    workers: list[WorkerInfo]
    phases: list[str]


def discover(cfg: MasterConfig, reply_port: int = 0) -> list[tuple[str, int]]:
    """Ping over UDP and collect (host, tcp_port) worker endpoints."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_BROADCAST, 1)
    sock.bind(("", 0))
    sock.settimeout(0.1)
    ping = DISCOVER_PING + _u16.pack(reply_port)
    deadline = time.monotonic() + cfg.discovery_millis / 1000.0
    found: list[tuple[str, int]] = []
    seen: set[tuple[str, int]] = set()
    targets = [(a, cfg.udp_port) for a in cfg.broadcast_addrs]
    targets += [(h, p) for h, p in cfg.worker_endpoints]
    last_ping = 0.0
    try:
        while time.monotonic() < deadline:
            now = time.monotonic()
            if now - last_ping > 0.2:
                for t in targets:
                    try:
                        sock.sendto(ping, t)
                    except OSError:
                        pass
                last_ping = now
            try:
                data, addr = sock.recvfrom(64)
            except socket.timeout:
                continue
            if len(data) == len(DISCOVER_REPLY) + 2 and data.startswith(DISCOVER_REPLY):
                endpoint = (addr[0], _u16.unpack(data[len(DISCOVER_REPLY):])[0])
                if endpoint not in seen:
                    seen.add(endpoint)
                    found.append(endpoint)
                    if cfg.expect_workers is not None and len(found) >= cfg.expect_workers:
                        break
    finally:
        sock.close()
    return found


class _Handler(threading.Thread):
    """One request/response channel per worker connection."""

    def __init__(self, sock: socket.socket, connection_id: int):
        super().__init__(daemon=True)
        self.sock = sock
        self.connection_id = connection_id
        self.inbox: queue.Queue = queue.Queue()
        self.outbox: queue.Queue = queue.Queue()
        self.alive = True

    def run(self) -> None:
        while True:
            item = self.inbox.get()
            if item is None:
                return
            mtype, payload = item
            try:
                write_frame(self.sock, mtype, payload)
                reply = read_frame(self.sock)
                self.outbox.put(("ok", reply))
            except Exception as exc:  # noqa: BLE001 - any I/O failure drops the worker
                self.outbox.put(("err", exc))

    def request(self, mtype: int, payload: bytes = b"") -> None:
        self.inbox.put((mtype, payload))

    def collect(self, timeout: float) -> tuple[str, object]:
        try:
            return self.outbox.get(timeout=timeout)
        except queue.Empty:
            return ("err", ProtocolError("worker reply timeout"))

    def shutdown(self) -> None:
        self.inbox.put(None)
        try:
            self.sock.close()
        except OSError:
            pass


def _scatter_gather(handlers: list["_Handler"], requests: list[tuple[int, bytes]],
                    timeout: float) -> list[tuple[str, object]]:
    for h, (mtype, payload) in zip(handlers, requests):
        h.request(mtype, payload)
    return [h.collect(timeout) for h in handlers]


def run_master(kb: KnowledgeBase, st_sym: SymbolTable, examples: ExampleSet,
               cfg: MasterConfig) -> ClusterResult:
    """Drive the four phases and return the merged search outcome."""
    t0 = time.monotonic()

    def elapsed_ms() -> int:
        return int((time.monotonic() - t0) * 1000)

    phases = ["discovery"]
    # A TCP listener whose port rides in the ping, so workers could dial back.
    reply_sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    reply_sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    reply_sock.bind(("", 0))
    reply_sock.listen(4)
    try:
        endpoints = discover(cfg, reply_port=reply_sock.getsockname()[1])
    finally:
        reply_sock.close()
    if not endpoints:
        raise ClusterError("no workers responded to discovery")
    if cfg.expect_workers is not None and len(endpoints) < cfg.expect_workers:
        raise ClusterError(f"expected {cfg.expect_workers} workers, found {len(endpoints)}")

    handlers: list[_Handler] = []
    workers: list[WorkerInfo] = []
    try:
        for cid, ep in enumerate(endpoints):
            sock = socket.create_connection(ep, timeout=cfg.io_timeout)
            sock.settimeout(cfg.io_timeout)
            write_frame(sock, MSG_HELLO)
            mtype, payload = read_frame(sock)
            if mtype != MSG_HELLO_ACK or len(payload) != 2:
                raise ClusterError(f"worker {ep}: bad HELLO_ACK")
            h = _Handler(sock, cid)
            h.start()
            handlers.append(h)
            workers.append(WorkerInfo(address=ep, cores=_u16.unpack(payload)[0],
                                      connection_id=cid))

        phases.append("probing")
        params = SearchParams(
            noise=cfg.noise, gain_bonus=cfg.eval_cfg.gain_bonus,
            expansion_penalty=cfg.eval_cfg.expansion_penalty,
            max_length=cfg.max_length, limit=cfg.limit,
            use_inverse_roles=cfg.use_inverse_roles,
            use_cardinality=cfg.use_cardinality,
            use_disjunction=cfg.use_disjunction,
            use_negation=cfg.use_negation)
        kb_payload = _pack_kb_transfer(kb, st_sym, examples, params)
        for status, reply in _scatter_gather(
                handlers, [(MSG_KB_TRANSFER, kb_payload)] * len(handlers),
                cfg.io_timeout):
            if status != "ok" or reply[0] != MSG_KB_ACK:
                raise ClusterError(f"KB transfer failed: {reply}")
        for (status, reply), w in zip(
                _scatter_gather(handlers, [(MSG_PROBE, b"")] * len(handlers),
                                cfg.io_timeout), workers):
            if status != "ok" or reply[0] != MSG_PROBE_RESULT or len(reply[1]) != 6:
                raise ClusterError(f"probe failed on worker {w.address}")
            w.cores = _u16.unpack_from(reply[1], 0)[0]
            w.probe_millis = _u32.unpack_from(reply[1], 2)[0]
            w.wn = w.cores

        # Fastest worker takes the best block; ties broken by connection id.
        order = sorted(range(len(workers)),
                       key=lambda i: (workers[i].probe_millis, workers[i].connection_id))
        alive = list(order)

        phases.append("learning")
        root_cov = evaluate(TOP, kb, examples)
        root_score = score(root_cov, None, 1, examples, cfg.eval_cfg)
        root = SearchNode(TOP, hash_concept(TOP), 1, root_cov,
                          root_score, expandable=cfg.max_length > 1)
        st: list[SearchNode] = [root]
        rht: set[int] = {root.hash}
        st_insertions: dict[int, float] = {root.hash: root_score.value}
        iterations: list[IterationStats] = []
        best_accuracy = root_score.accuracy
        status_flag: str | None = "solved" if best_accuracy >= cfg.target_accuracy else None

        while status_flag is None:
            if cfg.max_millis is not None and elapsed_ms() >= cfg.max_millis:
                status_flag = "budget"
                break
            if not alive:
                status_flag = "failed"
                break
            n_total = sum(workers[i].wn for i in alive)
            beam = extract_best_nodes(st, n_total)
            if not beam:
                status_flag = "exhausted"
                break

            blocks: list[tuple[int, list[SearchNode]]] = []
            cursor = 0
            for i in alive:
                take = beam[cursor:cursor + workers[i].wn]
                cursor += len(take)
                blocks.append((i, take))

            reqs = []
            for _i, block in blocks:
                payload = serialize_block(
                    [BlockNode(n.concept, n.he, n.coverage.pos_covered,
                               n.coverage.neg_covered, n.score.value)
                     for n in block])
                reqs.append((MSG_EXPAND_TASK, payload))
            replies = _scatter_gather([handlers[i] for i, _ in blocks], reqs,
                                      cfg.io_timeout)

            result_blocks: list[tuple[list[BlockNode], list[int]]] = []
            parents_per_block: list[list[SearchNode]] = []
            failed_workers: list[int] = []
            for (wi, block), (stat, reply) in zip(blocks, replies):
                if stat != "ok" or reply[0] == MSG_ERROR:
                    failed_workers.append(wi)
                    continue  # nodes keep their he; the block is requeued
                if reply[0] != MSG_EXPAND_RESULT:
                    failed_workers.append(wi)
                    continue
                payload = reply[1]
                nodes, weak = _split_expand_result(payload)
                for n in block:  # committed only on a successful round-trip
                    n.he += 1
                    if n.he >= cfg.max_length:
                        n.expandable = False
                result_blocks.append((nodes, weak))
                parents_per_block.append(block)
            for wi in failed_workers:
                alive.remove(wi)

            per_slot = [([bn.concept for bn in nodes], set())
                        for nodes, _ in result_blocks]
            node_by_hash: dict[int, BlockNode] = {}
            weak_hashes: list[int] = []
            for nodes, weak in result_blocks:
                weak_hashes.extend(weak)
                for bn in nodes:
                    node_by_hash.setdefault(hash_concept(bn.concept), bn)
            generated = sum(len(nodes) + len(weak) for nodes, weak in result_blocks)
            survivors = reduce_redundant(per_slot, rht)
            new_weak = [h for h in weak_hashes if h not in rht]
            rht.update(h for _, h, _ in survivors)
            rht.update(new_weak)

            inserted = 0
            for c, h, _slot in survivors:
                bn = node_by_hash[h]
                acc = _accuracy(bn, examples)
                node = SearchNode(c, h, bn.he,
                                  CoverageResult(bn.pos_covered, bn.neg_covered),
                                  Score(acc, bn.value),
                                  expandable=bn.he < cfg.max_length)
                insert_node(st, node)
                st_insertions[h] = bn.value
                inserted += 1
                if acc > best_accuracy:
                    best_accuracy = acc
            iterations.append(IterationStats(
                expanded=sum(len(b) for _, b in blocks), generated=generated,
                redundant_dropped=generated - inserted - len(new_weak),
                weak_dropped=len(new_weak), st_size=len(st),
                elapsed_millis=elapsed_ms()))
            if best_accuracy >= cfg.target_accuracy:
                status_flag = "solved"

        phases.append("terminating")
        for stat, reply in _scatter_gather(
                [handlers[i] for i in alive],
                [(MSG_TERMINATE, b"")] * len(alive), cfg.io_timeout):
            # Best-hypothesis blocks are informational; the master open list
            # already contains every non-weak refinement the workers returned.
            if stat == "ok" and reply[0] == MSG_BEST_HYPOTHESES:
                deserialize_block(reply[1])
        phases.append("done")

        return ClusterResult(
            hypotheses=extract_best_nodes(st, cfg.limit, expandable_only=False),
            status=status_flag, st_nodes=st, st_insertions=st_insertions,
            rht=rht, iterations=iterations, wall_millis=elapsed_ms(),
            workers=workers, phases=phases)
    finally:
        for h in handlers:
            h.shutdown()


def _split_expand_result(payload: bytes) -> tuple[list[BlockNode], list[int]]:
    """EXPAND_RESULT = block + u32 weak count + u64 weak hashes."""
    if len(payload) < 4:
        raise ProtocolError("truncated expand result")
    (count,) = _u32.unpack_from(payload, 0)
    pos = 4
    for i in range(count):
        if pos + 4 > len(payload):
            raise ProtocolError(f"node {i}: truncated length prefix")
        (clen,) = _u32.unpack_from(payload, pos)
        pos += 4 + clen + 18
    if pos + 4 > len(payload):
        raise ProtocolError("missing weak-hash section")
    block = deserialize_block(payload[:pos])
    (wcount,) = _u32.unpack_from(payload, pos)
    pos += 4
    if pos + 8 * wcount != len(payload):
        raise ProtocolError("weak-hash section length mismatch")
    weak = [_u64.unpack_from(payload, pos + 8 * i)[0] for i in range(wcount)]
    return block, weak


"""Master-worker distributed search over a framed TCP protocol.

Frame layout (big-endian): magic ``SPDL``, u16 version (3), u8 message type,
u32 payload length, payload, u32 CRC32 over type byte + payload.

Message types: 0x01 HELLO, 0x02 HELLO_ACK, 0x03 KB_TRANSFER, 0x04 KB_ACK,
0x05 PROBE, 0x06 PROBE_RESULT, 0x07 EXPAND_TASK, 0x08 EXPAND_RESULT,
0x09 TERMINATE, 0x0F ERROR. Each message but TERMINATE gets one reply;
on TERMINATE the worker closes the connection without one. Type 0x0A is
reserved.

Discovery is a UDP ping ``SPDL?`` + u16 0; a worker answers ``SPDL!`` + u16
its TCP listen port, and the master opens one TCP connection per responder.
The master drives every connection from its own thread: it writes each
worker's request, then reads each reply on that worker's socket, whose
timeout drops a worker that stops answering. The master's learning phase is
``dlbeam.search.search_loop`` over an expander that sends each worker a
block of the beam per iteration; the worker expands its block with the same
``dlbeam.search.LocalExpander`` that a local run uses.

A hypothesis block is u32 count, then per node: u32 length of the encoded
concept, the encoding, u16 he, u32 covered positives, u32 covered negatives,
f64 score value.

An EXPAND_TASK starts with a known-hash section, u32 count + u64 each: the
hashes added to the master's closed list (RHT) since its previous
EXPAND_TASK, all of it for the first. The beam nodes to expand follow as a
block. Each worker keeps a mirror of the RHT, which every KB_TRANSFER
starts empty and each EXPAND_TASK extends by its known hashes, so before a
worker expands, its mirror equals the master's RHT at the start of that
iteration; the worker's expander drops every refinement the mirror holds
before evaluating it, as a local run's expander drops what its RHT holds.

An EXPAND_RESULT carries the hashes of the weak refinements (u32 count + u64
each), so the master can keep its closed list identical to a single-machine
run's, followed by the evaluated non-weak refinements as a block.

A KB_TRANSFER is u32 length + the ``serialize_kb`` blob, the positive and
the negative example ids (u32 count + u32 each), then the search parameters:
f64 noise, f64 gain bonus, f64 expansion penalty, u16 max_length and a u8 of
flags (inverse roles, cardinality, disjunction, negation from bit 0 up).
"""

from __future__ import annotations

import math
import os
import socket
import struct
import threading
import time
import zlib
from dataclasses import dataclass

from .concept import (And, Atomic, BoolEq, Concept, DecodeError, Exists,
                      Forall, MaxCard, MinCard, NotAtomic, NumGeq, NumLeq, Or,
                      StrEq, decode, encode, hash_concept)
from .evaluation import CoverageResult, EvalConfig, Score, evaluate_batch
from .kb import (ExampleSet, KbError, KnowledgeBase, SymbolTable,
                 compute_statistics, deserialize_kb, materialize, serialize_kb)
from .refine import build_mb
from .search import (IterationStats, LocalExpander, SearchConfig, SearchNode,
                     expand_single_node, refinement_config, root_node,
                     search_loop)
# Not called here since the master runs search_loop and the worker a
# LocalExpander; bench/tracing.py still wraps the master's calls under these
# names, and reads them as 0.
from .concept import sort_key  # noqa: F401
from .search import extract_best_nodes, reduce_redundant  # noqa: F401

__all__ = [
    "MSG_HELLO", "MSG_HELLO_ACK", "MSG_KB_TRANSFER", "MSG_KB_ACK", "MSG_PROBE",
    "MSG_PROBE_RESULT", "MSG_EXPAND_TASK", "MSG_EXPAND_RESULT", "MSG_TERMINATE",
    "MSG_ERROR",
    "ProtocolError", "ClusterError",
    "BlockNode", "SearchParams", "WorkerInfo",
    "write_frame", "read_frame", "frame_bytes", "parse_frame",
    "serialize_block", "deserialize_block",
    "WorkerServer", "discover", "MasterConfig", "ClusterResult", "run_master",
    "DEFAULT_UDP_PORT", "DEFAULT_TCP_PORT", "PROBE_HE",
]

FRAME_MAGIC = b"SPDL"
PROTOCOL_VERSION = 3
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
MSG_ERROR = 0x0F

_u16 = struct.Struct(">H")
_u32 = struct.Struct(">I")
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


def serialize_block(nodes: list[BlockNode]) -> bytes:
    """u32 count + per-node records."""
    return _u32.pack(len(nodes)) + b"".join(_encode_node(n) for n in nodes)


def deserialize_block(data: bytes) -> list[BlockNode]:
    if len(data) < 4:
        raise ProtocolError("block shorter than its count field")
    (count,) = _u32.unpack_from(data, 0)
    pos = 4
    nodes: list[BlockNode] = []
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
        try:
            c = decode(enc)
        except DecodeError as exc:
            raise ProtocolError(f"node {i}: {exc}") from None
        nodes.append(BlockNode(c, he, pc, nc, val))
    if pos != len(data):
        raise ProtocolError(f"{len(data) - pos} trailing bytes after block")
    return nodes


# ---------------------------------------------------------------------------
# Search parameters carried by KB_TRANSFER

@dataclass(frozen=True)
class SearchParams:
    noise: float = 0.0
    gain_bonus: float = 0.5
    expansion_penalty: float = 0.02
    max_length: int = 10
    use_inverse_roles: bool = True
    use_cardinality: bool = True
    use_disjunction: bool = True
    use_negation: bool = True

    def pack(self) -> bytes:
        flags = (self.use_inverse_roles | self.use_cardinality << 1
                 | self.use_disjunction << 2 | self.use_negation << 3)
        return (_f64.pack(self.noise) + _f64.pack(self.gain_bonus)
                + _f64.pack(self.expansion_penalty) + _u16.pack(self.max_length)
                + bytes([flags]))

    @classmethod
    def unpack(cls, data: bytes, pos: int) -> tuple["SearchParams", int]:
        if pos + 27 > len(data):
            raise ProtocolError("truncated search parameters")
        noise = _f64.unpack_from(data, pos)[0]
        if not 0.0 <= noise < 1.0:
            raise ProtocolError(f"noise must be in [0, 1), got {noise}")
        gain = _f64.unpack_from(data, pos + 8)[0]
        pen = _f64.unpack_from(data, pos + 16)[0]
        max_length = _u16.unpack_from(data, pos + 24)[0]
        if max_length == 0:
            raise ProtocolError("max_length must be >= 1, got 0")
        flags = data[pos + 26]
        return cls(noise, gain, pen, max_length,
                   bool(flags & 1), bool(flags & 2), bool(flags & 4),
                   bool(flags & 8)), pos + 27

    def eval_cfg(self) -> EvalConfig:
        return EvalConfig(self.gain_bonus, self.expansion_penalty)

    def search_config(self) -> SearchConfig:
        return SearchConfig(
            noise=self.noise, max_length=self.max_length,
            use_inverse_roles=self.use_inverse_roles,
            use_cardinality=self.use_cardinality,
            use_disjunction=self.use_disjunction,
            use_negation=self.use_negation, eval_cfg=self.eval_cfg())


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
        if any(i >= st.num_individuals for i in ids):
            raise ProtocolError("example id out of range")
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
                 io_timeout: float = 60.0):
        self.host = host
        self.cores = cores if cores is not None else (os.cpu_count() or 1)
        # cores travels to the master as u16 (HELLO_ACK, PROBE_RESULT).
        if not 1 <= self.cores <= 0xFFFF:
            raise ValueError(f"cores must be in [1, 65535], got {self.cores}")
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
        state: dict = {}
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
            try:
                st, kb, examples, params = _unpack_kb_transfer(payload)
                materialize(kb, st)
            except KbError as exc:  # a corrupt blob, or a KB that cannot close
                raise ProtocolError(f"bad KB transfer: {exc}") from None
            stats = compute_statistics(kb)
            # The expander's refine and extension memos, and the RHT mirror,
            # live as long as this state, so a new KB_TRANSFER starts new ones.
            state["expander"] = LocalExpander(kb, examples,
                                              params.search_config(), stats,
                                              build_mb(kb, stats))
            state["rht"] = set()
            write_frame(conn, MSG_KB_ACK)
            return False
        if mtype == MSG_PROBE:
            if "expander" not in state:
                raise ProtocolError("PROBE before KB_TRANSFER")
            millis = self._probe(state)
            write_frame(conn, MSG_PROBE_RESULT,
                        _u16.pack(self.cores) + _u32.pack(millis))
            return False
        if mtype == MSG_EXPAND_TASK:
            if "expander" not in state:
                raise ProtocolError("EXPAND_TASK before KB_TRANSFER")
            write_frame(conn, MSG_EXPAND_RESULT, self._expand(payload, state))
            return False
        if mtype == MSG_TERMINATE:
            return True
        raise ProtocolError(f"unexpected message type 0x{mtype:02x}")

    def _probe(self, state: dict) -> int:
        """Expand Thing out to the probe depth and evaluate, for timing."""
        ex = state["expander"]
        t0 = time.monotonic()
        node = root_node(ex.kb, ex.examples, ex.cfg.eval_cfg, PROBE_HE)
        # A config, and so a refine memo, of the probe's own, as is the
        # extension memo passed to evaluate_batch below.
        rcfg = refinement_config(ex.stats, ex.cfg, PROBE_HE)
        emitted: list[Concept] = []
        while node.expandable and node.he < PROBE_HE:
            refs, _ = expand_single_node(node, ex.kb, ex.stats, ex.mb, rcfg,
                                         PROBE_HE)
            emitted.extend(refs)
        evaluate_batch(emitted, ex.kb, ex.examples, memo={})
        return int((time.monotonic() - t0) * 1000)

    def _expand(self, payload: bytes, state: dict) -> bytes:
        ex, rht = state["expander"], state["rht"]
        known, tasks = _split_expand_task(payload)
        for i, bn in enumerate(tasks):
            _check_ids(bn.concept, ex.kb, i)
        rht.update(known)
        beam = [SearchNode(bn.concept, hash_concept(bn.concept), bn.he,
                           CoverageResult(bn.pos_covered, bn.neg_covered),
                           Score(_accuracy(bn, ex.examples), bn.value))
                for bn in tasks]
        _generated, found = ex.expand(beam, rht)
        return _pack_expand_result(
            [_block_node(n) for _h, n in found if n is not None],
            [h for h, n in found if n is None])


def _check_ids(c: Concept, kb: KnowledgeBase, node: int) -> None:
    """Raise ProtocolError if ``c``, the concept of block node ``node``,
    names a class or role that ``kb`` does not have."""
    if isinstance(c, (Atomic, NotAtomic)):
        what, i, n = "class", c.class_id, kb.num_classes
    elif isinstance(c, (Exists, Forall, MinCard, MaxCard)):
        _check_ids(c.child, kb, node)
        what, i, n = "role", c.role.role_id, kb.num_roles
    elif isinstance(c, BoolEq):
        what, i, n = "boolean role", c.role_id, len(kb.boolean_assertions)
    elif isinstance(c, (NumGeq, NumLeq)):
        what, i, n = "numeric role", c.role_id, len(kb.numeric_assertions)
    elif isinstance(c, StrEq):
        what, i, n = "string role", c.role_id, len(kb.string_assertions)
    elif isinstance(c, (And, Or)):
        for ch in c.children:
            _check_ids(ch, kb, node)
        return
    else:  # Thing
        return
    if i >= n:
        raise ProtocolError(f"node {node}: {what} id {i} is not in the KB")


def _accuracy(bn: BlockNode, examples: ExampleSet) -> float:
    return ((bn.pos_covered + (examples.neg_count - bn.neg_covered))
            / (examples.pos_count + examples.neg_count))


def _block_node(n: SearchNode) -> BlockNode:
    return BlockNode(n.concept, n.he, n.coverage.pos_covered,
                     n.coverage.neg_covered, n.score.value)


def _pack_hashes(hashes: list[int]) -> bytes:
    """u32 count + u64 each."""
    return struct.pack(f">I{len(hashes)}Q", len(hashes), *hashes)


def _split_hashes(payload: bytes, what: str) -> tuple[list[int], bytes]:
    """The hashes of a leading u32 count + u64 section, and what follows."""
    if len(payload) < 4:
        raise ProtocolError(f"truncated {what} count")
    (count,) = _u32.unpack_from(payload, 0)
    end = 4 + 8 * count
    if end > len(payload):
        raise ProtocolError(f"truncated {what} section")
    return list(struct.unpack_from(f">{count}Q", payload, 4)), payload[end:]


def _pack_expand_task(known: list[int], nodes: list[BlockNode]) -> bytes:
    """EXPAND_TASK = u32 known count + u64 known hashes + block."""
    return _pack_hashes(known) + serialize_block(nodes)


def _split_expand_task(payload: bytes) -> tuple[list[int], list[BlockNode]]:
    """The known hashes and the nodes of an EXPAND_TASK."""
    known, rest = _split_hashes(payload, "known-hash")
    return known, deserialize_block(rest)


def _pack_expand_result(nodes: list[BlockNode], weak: list[int]) -> bytes:
    """EXPAND_RESULT = u32 weak count + u64 weak hashes + block."""
    return _pack_hashes(weak) + serialize_block(nodes)


def _split_expand_result(payload: bytes) -> tuple[list[BlockNode], list[int]]:
    """The nodes and weak hashes of an EXPAND_RESULT."""
    weak, rest = _split_hashes(payload, "weak-hash")
    return deserialize_block(rest), weak


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
        # max_length travels to the workers as u16 (SearchParams); limit
        # stays on the master, within the same bounds.
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
        if not (math.isfinite(self.io_timeout) and self.io_timeout > 0):
            raise ValueError(f"io_timeout must be a positive number of "
                             f"seconds, got {self.io_timeout}")


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


def discover(cfg: MasterConfig) -> list[tuple[str, int]]:
    """Ping over UDP and collect (host, tcp_port) worker endpoints."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_BROADCAST, 1)
    sock.bind(("", 0))
    sock.settimeout(0.1)
    ping = DISCOVER_PING + _u16.pack(0)  # the u16 field is unused
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


def _round_trip(socks: list[socket.socket], mtype: int, payloads: list[bytes],
                reply_type: int) -> list[bytes | None]:
    """Write each worker its request, then read each reply on that worker's
    socket. Returns each reply's payload, or None for a worker whose write or
    read failed (the socket's io_timeout included) or whose reply is not of
    ``reply_type``."""
    sent = []
    for sock, payload in zip(socks, payloads):
        try:
            write_frame(sock, mtype, payload)
            sent.append(True)
        except OSError:
            sent.append(False)
    replies: list[bytes | None] = []
    for sock, ok in zip(socks, sent):
        reply = None
        if ok:
            try:
                rtype, payload = read_frame(sock)
                if rtype == reply_type:
                    reply = payload
            except (OSError, ProtocolError):
                pass
        replies.append(reply)
    return replies


def _hello(ep: tuple[str, int], timeout: float) -> tuple[socket.socket, int]:
    """Connect to a worker and exchange HELLO; returns the socket and the
    worker's cores. Any failure closes the socket and raises ClusterError."""
    try:
        sock = socket.create_connection(ep, timeout=timeout)
    except OSError as exc:
        raise ClusterError(f"worker {ep}: cannot connect: "
                           f"{exc.strerror or exc}") from None
    try:
        write_frame(sock, MSG_HELLO)
        mtype, payload = read_frame(sock)
        if mtype != MSG_HELLO_ACK or len(payload) != 2:
            raise ProtocolError("bad HELLO_ACK")
    except (OSError, ProtocolError) as exc:
        sock.close()
        raise ClusterError(f"worker {ep}: {exc}") from None
    return sock, _u16.unpack(payload)[0]


class _RemoteExpander:
    """Expands on the workers: each alive worker, fastest first, gets the
    next ``wn`` nodes of the beam as one EXPAND_TASK, with the RHT hashes
    its mirror lacks. A node's he grows only once its worker has answered; a
    worker whose round trip fails, whose reply does not parse or names a
    class or role outside ``kb`` is dropped, and its nodes stay in the open
    list for a later iteration."""

    def __init__(self, socks: list[socket.socket], workers: list[WorkerInfo],
                 alive: list[int], kb: KnowledgeBase, examples: ExampleSet,
                 cfg: MasterConfig):
        self.socks, self.workers, self.alive = socks, workers, alive
        self.kb, self.examples, self.cfg = kb, examples, cfg
        # The RHT hashes already sent. Every alive worker gets every
        # EXPAND_TASK, so this is each alive worker's mirror.
        self.sent: set[int] = set()

    def width(self) -> int:
        return sum(self.workers[i].wn for i in self.alive)

    def expand(self, beam: list[SearchNode], rht: set[int]
               ) -> tuple[int, list[tuple[int, SearchNode | None]]]:
        blocks: list[tuple[int, list[SearchNode]]] = []
        cursor = 0
        for i in self.alive:
            blocks.append((i, beam[cursor:cursor + self.workers[i].wn]))
            cursor += self.workers[i].wn
        known = sorted(rht - self.sent)
        self.sent.update(known)
        replies = _round_trip(
            [self.socks[i] for i, _ in blocks], MSG_EXPAND_TASK,
            [_pack_expand_task(known, [_block_node(n) for n in block])
             for _i, block in blocks],
            MSG_EXPAND_RESULT)
        max_length = self.cfg.max_length
        generated = 0
        found: list[tuple[int, SearchNode | None]] = []
        for (wi, block), reply in zip(blocks, replies):
            try:
                if reply is None:
                    raise ProtocolError("no EXPAND_RESULT")
                nodes, weak = _split_expand_result(reply)
                for i, bn in enumerate(nodes):
                    _check_ids(bn.concept, self.kb, i)
            except ProtocolError:
                self.alive.remove(wi)
                continue
            for n in block:
                n.he += 1
                if n.he >= max_length:
                    n.expandable = False
            generated += len(nodes) + len(weak)
            for bn in nodes:
                h = hash_concept(bn.concept)
                if h in rht:
                    continue
                found.append((h, SearchNode(
                    bn.concept, h, bn.he,
                    CoverageResult(bn.pos_covered, bn.neg_covered),
                    Score(_accuracy(bn, self.examples), bn.value),
                    expandable=bn.he < max_length)))
            found.extend((h, None) for h in weak)
        return generated, found


def run_master(kb: KnowledgeBase, st_sym: SymbolTable, examples: ExampleSet,
               cfg: MasterConfig) -> ClusterResult:
    """Drive the four phases and return the merged search outcome."""
    t0 = time.monotonic()
    phases = ["discovery"]
    endpoints = discover(cfg)
    if not endpoints:
        raise ClusterError("no workers responded to discovery")
    if cfg.expect_workers is not None and len(endpoints) < cfg.expect_workers:
        raise ClusterError(f"expected {cfg.expect_workers} workers, found {len(endpoints)}")

    socks: list[socket.socket] = []
    workers: list[WorkerInfo] = []
    try:
        for cid, ep in enumerate(endpoints):
            sock, cores = _hello(ep, cfg.io_timeout)
            socks.append(sock)
            workers.append(WorkerInfo(address=ep, cores=cores,
                                      connection_id=cid))

        phases.append("probing")
        params = SearchParams(
            noise=cfg.noise, gain_bonus=cfg.eval_cfg.gain_bonus,
            expansion_penalty=cfg.eval_cfg.expansion_penalty,
            max_length=cfg.max_length,
            use_inverse_roles=cfg.use_inverse_roles,
            use_cardinality=cfg.use_cardinality,
            use_disjunction=cfg.use_disjunction,
            use_negation=cfg.use_negation)
        kb_payload = _pack_kb_transfer(kb, st_sym, examples, params)
        for reply, w in zip(_round_trip(socks, MSG_KB_TRANSFER,
                                        [kb_payload] * len(socks), MSG_KB_ACK),
                            workers):
            if reply is None:
                raise ClusterError(f"KB transfer failed on worker {w.address}")
        for reply, w in zip(_round_trip(socks, MSG_PROBE, [b""] * len(socks),
                                        MSG_PROBE_RESULT), workers):
            if reply is None or len(reply) != 6:
                raise ClusterError(f"probe failed on worker {w.address}")
            w.cores = _u16.unpack_from(reply, 0)[0]
            w.probe_millis = _u32.unpack_from(reply, 2)[0]
            w.wn = w.cores

        # Fastest worker takes the best block; ties broken by connection id.
        alive = sorted(range(len(workers)),
                       key=lambda i: (workers[i].probe_millis, workers[i].connection_id))

        phases.append("learning")
        res = search_loop(kb, examples, cfg,
                          _RemoteExpander(socks, workers, alive, kb, examples,
                                          cfg), t0)

        phases.append("terminating")
        for i in alive:  # the workers close without a reply
            try:
                write_frame(socks[i], MSG_TERMINATE)
            except OSError:
                pass
        phases.append("done")

        return ClusterResult(
            hypotheses=res.hypotheses, status=res.status, st_nodes=res.st_nodes,
            st_insertions=res.st_insertions, rht=res.rht,
            iterations=res.iterations,
            wall_millis=int((time.monotonic() - t0) * 1000),
            workers=workers, phases=phases)
    finally:
        for sock in socks:
            sock.close()

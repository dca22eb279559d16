"""Master-worker distributed search over a framed TCP protocol.

Frame layout (big-endian): magic ``SPDL``, u16 version (6), u8 message type,
u32 payload length, payload, u32 CRC32 over type byte + payload.

Message types: 0x01 HELLO, 0x02 HELLO_ACK, 0x03 KB_TRANSFER, 0x04 KB_ACK,
0x07 EXPAND_TASK, 0x08 EXPAND_RESULT, 0x09 TERMINATE, 0x0F ERROR. Each
message but TERMINATE gets one reply; on TERMINATE the worker closes the
connection without one. A request the worker refuses, or fails on with an
error of its own (``internal error: <Type>: <message>``), gets an ERROR, and
the worker then closes the connection. Types 0x05, 0x06 and 0x0A are
reserved and refused as any unknown type is. A HELLO_ACK carries the
worker's cores as u16, at least 1; the master gives each worker a block of
that many beam nodes.

Discovery is a UDP ping ``SPDL?`` + u16 0; a worker answers ``SPDL!`` + u16
its TCP listen port, and the master opens one TCP connection per responder.
The master drives every connection from its own thread: it writes each
worker's request, then reads each reply on that worker's socket, whose
timeout drops a worker that stops answering. The master's learning phase is
``dlbeam.search.search_loop`` over an expander that sends each worker a
block of the beam per iteration, cut in beam order and in connection order;
the worker expands its block with the same ``dlbeam.search.LocalExpander``
that a local run uses. Workers refine, evaluate and count; they score
nothing and keep no search node.

A hypothesis block is u32 count, then per node: u32 length of the encoded
concept, the encoding, u16 he, u32 slot, u32 covered positives, u32 covered
negatives. In an EXPAND_TASK a node's slot is its place in the master's beam;
in an EXPAND_RESULT it is the slot of the task node it refines, echoed back.
No score travels: the master's expander hands each returned node to
``search_loop`` as the in-process expander hands it a refinement, and the
loop scores it from its counts, its length and the accuracy of the beam node
in its slot, which becomes its parent. The master refuses a node whose slot
it did not send that worker, whose he is not its concept's length, or that
is weak or a dominated union, which a worker returns as a weak hash. For the
last it holds an ``evaluation.Evaluator`` of its search's (kb, examples) and
counts each returned union's operands on the examples: on ``synth-wide``
(seed 1) building it takes about 1 ms, checking the 179 unions a search
returns about 2 ms, and it ends holding 0.6 MB. A worker refuses a task
node whose he leaves nothing to expand under max_length.

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

A KB_TRANSFER carries what a worker's search reads and nothing else. It
is the sealed form of the master's materialized KB (``kb.serialize_sealed``):
u32 counts of classes, roles, numeric, boolean and string roles and
individuals, each string role's u32 count of values, then the table sections
of a ``serialize_kb`` blob, written from the KB's numpy mirrors. No names
travel. The positive and the negative example ids follow (u32 count + u32
each), then the master's search settings that govern a worker's
refinement: f64 noise, u16 max_length and a u8 of flags (inverse roles,
cardinality, disjunction, negation from bit 0 up; a worker refuses a byte
with any of bits 4-7 set). No scoring weight travels: no worker scores.

A worker's KB is columns only: ``kb.deserialize_sealed`` turns the tables
into the numpy arrays a search reads, keeps no Python rows, and refuses a KB
that is not closed as ``materialize`` leaves it, naming classes and roles by
id. The worker unpacks the settings into the ``SearchConfig`` of its
expander, so they are validated by the same rules as a local run's, and its
``refine.Refiner`` reads the hypothesis language from that config. The
expander takes its refinement context from the examples the KB_TRANSFER
carries, as a local run's does from its own, so no field carries the context
and the worker refines as a local run refines.

Each side of a search keeps a decode table (``concept.decode``): the
master's ``_RemoteExpander`` one for its search, a worker one per
KB_TRANSFER, which a later KB_TRANSFER replaces. Each side decodes against
the ``concept.IdBounds`` of its KB, so a class or role id that the KB does
not have is refused in the one walk that parses it; the master, which
renders what it keeps, also bounds string value ids by its symbol table. A
table so holds only subtrees that passed, and ``deserialize_block`` looks
each node's encoding up whole before decoding it, so a concept that comes
back, such as a beam node sent again with a larger he, is neither decoded
nor checked twice. A worker also adds every node it returns to its table,
in range by construction, so its own nodes come back in the next
EXPAND_TASK without being decoded.

The master records each worker it drops, with the worker's address, the
index of the iteration and the cause, in ``ClusterResult.dropped``, and the
cost of the handshake: ``ClusterResult.handshake_millis`` from the start of
``run_master`` to the last KB_ACK, and each worker's
``WorkerInfo.kb_ack_millis`` from the start of the KB_TRANSFER round to its
KB_ACK.
"""

from __future__ import annotations

import math
import os
import socket
import struct
import sys
import threading
import time
import zlib
from dataclasses import dataclass

import numpy as np

from .concept import (Concept, DecodeError, IdBounds, concept_length, decode,
                      encode, hash_concept)
from .evaluation import (CoverageResult, Evaluator, dominated_union,
                         weak_threshold)
from .kb import (ExampleSet, KbError, KnowledgeBase, SymbolTable,
                 compute_statistics, deserialize_sealed, serialize_sealed)
from .refine import build_mb
from .search import (Child, LocalExpander, SearchConfig, SearchNode,
                     SearchResult, SearchSettings, search_loop)
# Not called here since the master runs search_loop and the worker a
# LocalExpander; bench/tracing.py still wraps the master's calls under these
# names, and reads them as 0.
from .concept import sort_key  # noqa: F401
from .search import extract_best_nodes, reduce_redundant  # noqa: F401

__all__ = [
    "MSG_HELLO", "MSG_HELLO_ACK", "MSG_KB_TRANSFER", "MSG_KB_ACK",
    "MSG_EXPAND_TASK", "MSG_EXPAND_RESULT", "MSG_TERMINATE", "MSG_ERROR",
    "ProtocolError", "ClusterError",
    "BlockNode", "WorkerInfo", "WorkerDrop",
    "write_frame", "read_frame", "frame_bytes", "parse_frame",
    "serialize_block", "deserialize_block",
    "WorkerServer", "discover", "MasterConfig", "ClusterResult", "run_master",
    "DEFAULT_UDP_PORT", "DEFAULT_TCP_PORT",
]

FRAME_MAGIC = b"SPDL"
PROTOCOL_VERSION = 6
DISCOVER_PING = b"SPDL?"
DISCOVER_REPLY = b"SPDL!"
DEFAULT_UDP_PORT = 47901
DEFAULT_TCP_PORT = 47902
MAX_PAYLOAD = 1 << 28

MSG_HELLO = 0x01
MSG_HELLO_ACK = 0x02
MSG_KB_TRANSFER = 0x03
MSG_KB_ACK = 0x04
MSG_EXPAND_TASK = 0x07
MSG_EXPAND_RESULT = 0x08
MSG_TERMINATE = 0x09
MSG_ERROR = 0x0F

_u16 = struct.Struct(">H")
_u32 = struct.Struct(">I")
# KB_TRANSFER's search settings: noise, max_length, flags.
_SETTINGS = struct.Struct(">dHB")
# The flags' bits 0-3: inverse roles, cardinality, disjunction, negation.
_KNOWN_FLAGS = 0x0F
_HEADER = struct.Struct(">4sHBI")
_IDS = np.dtype(">u4")


class ProtocolError(Exception):
    pass


class ClusterError(Exception):
    pass


# ---------------------------------------------------------------------------
# Framing

def _crc(mtype: int, payload) -> int:
    """The CRC32 of the type byte and then ``payload``, without joining them."""
    return zlib.crc32(payload, zlib.crc32(bytes((mtype,))))


def frame_bytes(mtype: int, payload: bytes) -> bytes:
    return b"".join((_HEADER.pack(FRAME_MAGIC, PROTOCOL_VERSION, mtype, len(payload)),
                     payload, _u32.pack(_crc(mtype, payload))))


def _frame_header(data: bytes) -> tuple[int, int]:
    """The message type and payload length of the header ``data`` starts
    with, once its magic, version and length are checked."""
    magic, version, mtype, plen = _HEADER.unpack_from(data)
    if magic != FRAME_MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    if plen > MAX_PAYLOAD:
        raise ProtocolError(f"payload length {plen} exceeds limit")
    return mtype, plen


def _frame_payload(mtype: int, body) -> bytes:
    """The payload of a frame's ``body``, the bytes after its header, once
    the CRC that ends it is checked; copied once, when it is returned."""
    with memoryview(body) as view:
        payload = view[:-4]
        (crc,) = _u32.unpack_from(view, len(payload))
        if crc != _crc(mtype, payload):
            raise ProtocolError("frame checksum failure")
        return bytes(payload)


def parse_frame(data: bytes) -> tuple[int, bytes]:
    """Parse one complete frame held in memory (the read_frame inverse)."""
    if len(data) < _HEADER.size + 4:
        raise ProtocolError("truncated frame")
    mtype, plen = _frame_header(data)
    if len(data) != _HEADER.size + plen + 4:
        raise ProtocolError("frame length mismatch")
    return mtype, _frame_payload(mtype, memoryview(data)[_HEADER.size:])


def write_frame(sock: socket.socket, mtype: int, payload: bytes = b"") -> None:
    sock.sendall(frame_bytes(mtype, payload))


def _recv_exact(sock: socket.socket, n: int) -> bytearray:
    """The next ``n`` bytes on ``sock``, received into one buffer."""
    buf = bytearray(n)
    with memoryview(buf) as view:
        got = 0
        while got < n:
            k = sock.recv_into(view[got:])
            if not k:
                raise ProtocolError("connection closed mid-frame")
            got += k
    return buf


def read_frame(sock: socket.socket) -> tuple[int, bytes]:
    """Read one frame, checked as ``parse_frame`` checks it."""
    mtype, plen = _frame_header(_recv_exact(sock, _HEADER.size))
    return mtype, _frame_payload(mtype, _recv_exact(sock, plen + 4))


# ---------------------------------------------------------------------------
# Hypothesis blocks

@dataclass(frozen=True)
class BlockNode:
    concept: Concept
    he: int
    slot: int
    pos_covered: int
    neg_covered: int


# What follows a node's concept encoding: he, slot, covered positives,
# covered negatives.
_NODE_TAIL = struct.Struct(">HIII")


def _encode_node(n: BlockNode) -> bytes:
    enc = encode(n.concept)
    return (_u32.pack(len(enc)) + enc
            + _NODE_TAIL.pack(n.he, n.slot, n.pos_covered, n.neg_covered))


def serialize_block(nodes: list[BlockNode]) -> bytes:
    """u32 count + per-node records."""
    return _u32.pack(len(nodes)) + b"".join(_encode_node(n) for n in nodes)


def deserialize_block(data: bytes, table: dict[bytes, Concept] | None = None,
                      bounds: IdBounds | None = None) -> list[BlockNode]:
    """The nodes of a block, their concepts decoded within ``bounds``, if
    given. With a decode ``table``, a node whose whole encoding is in it
    takes the concept found there, and the others are decoded through it
    (see ``concept.decode``)."""
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
        end = pos + clen + _NODE_TAIL.size
        if end > len(data):
            raise ProtocolError(f"node {i}: truncated record")
        enc = data[pos:pos + clen]
        he, slot, pc, nc = _NODE_TAIL.unpack_from(data, pos + clen)
        pos = end
        c = table.get(enc) if table is not None else None
        if c is None:
            try:
                c = decode(enc, table, bounds)
            except DecodeError as exc:
                raise ProtocolError(f"node {i}: {exc}") from None
        nodes.append(BlockNode(c, he, slot, pc, nc))
    if pos != len(data):
        raise ProtocolError(f"{len(data) - pos} trailing bytes after block")
    return nodes


# ---------------------------------------------------------------------------
# KB_TRANSFER

def _pack_kb_transfer(kb: KnowledgeBase, st: SymbolTable, examples: ExampleSet,
                      cfg: SearchSettings) -> bytes:
    """KB_TRANSFER = the sealed form of materialized ``kb``, the positive and
    the negative example ids (u32 count + u32 each), the search settings."""
    out = [serialize_sealed(kb, st)]
    for mask in (examples.positives, examples.negatives):
        ids = np.flatnonzero(mask)
        out += (_u32.pack(len(ids)), ids.astype(_IDS).tobytes())
    flags = (cfg.use_inverse_roles | cfg.use_cardinality << 1
             | cfg.use_disjunction << 2 | cfg.use_negation << 3)
    out.append(_SETTINGS.pack(cfg.noise, cfg.max_length, flags))
    return b"".join(out)


def _unpack_kb_transfer(payload: bytes
                        ) -> tuple[KnowledgeBase, ExampleSet, SearchConfig]:
    """The sealed KB, the examples and the search config of a KB_TRANSFER;
    raise ProtocolError on a fault in any of them."""
    try:
        kb, pos = deserialize_sealed(payload)
    except KbError as exc:
        raise ProtocolError(f"bad KB transfer: {exc}") from None
    n = kb.num_individuals

    def id_mask(p: int) -> tuple[np.ndarray, np.ndarray, int]:
        """The ids at ``p``, their mask over the individuals, and the offset
        after them."""
        if p + 4 > len(payload):
            raise ProtocolError("truncated example list")
        (count,) = _u32.unpack_from(payload, p)
        p += 4
        if p + 4 * count > len(payload):
            raise ProtocolError("truncated example list")
        ids = np.frombuffer(payload, dtype=_IDS, count=count, offset=p)
        if count and ids.max() >= n:
            raise ProtocolError("example id out of range")
        mask = np.zeros(n, dtype=bool)
        mask[ids] = True
        return ids, mask, p + 4 * count

    pos_ids, positives, pos = id_mask(pos)
    neg_ids, negatives, pos = id_mask(pos)
    # The rules parse_examples applies to an example file.
    if not len(pos_ids):
        raise ProtocolError("no positive examples")
    if not len(neg_ids):
        raise ProtocolError("no negative examples")
    if positives[neg_ids].any():
        raise ProtocolError("an example is both positive and negative")
    if pos + _SETTINGS.size > len(payload):
        raise ProtocolError("truncated search settings")
    if pos + _SETTINGS.size != len(payload):
        raise ProtocolError("trailing bytes after KB transfer")
    noise, max_length, flags = _SETTINGS.unpack_from(payload, pos)
    if flags & ~_KNOWN_FLAGS:
        raise ProtocolError(f"bad KB transfer: unknown settings bits "
                            f"0x{flags & ~_KNOWN_FLAGS:02x}")
    try:
        cfg = SearchConfig(
            noise=noise, max_length=max_length,
            use_inverse_roles=bool(flags & 1), use_cardinality=bool(flags & 2),
            use_disjunction=bool(flags & 4), use_negation=bool(flags & 8))
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None
    return kb, ExampleSet(n, positives, negatives), cfg


# ---------------------------------------------------------------------------
# Worker

@dataclass
class WorkerInfo:
    address: tuple[str, int]
    cores: int
    # Always 0, as there is no probe; read only by bench/tracing.py, and
    # deleted by the benchmark change of ROADMAP item 1.
    probe_millis: int = 0
    kb_ack_millis: int = 0


def _check_port(port: int) -> None:
    if not 0 <= port <= 0xFFFF:
        raise ValueError(f"port must be in [0, 65535], got {port}")


class WorkerServer:
    """A worker node: answers discovery pings and serves every connection
    it accepts on a thread of its own, with its own KB, settings, RHT
    mirror and decode table."""

    def __init__(self, host: str = "127.0.0.1", tcp_port: int = 0,
                 udp_port: int = DEFAULT_UDP_PORT, cores: int | None = None,
                 io_timeout: float = 60.0):
        self.host = host
        self.cores = cores if cores is not None else (os.cpu_count() or 1)
        # cores travels to the master as u16 (HELLO_ACK).
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
            # The two loops lead the list; drop the finished connections.
            self._threads[2:] = [u for u in self._threads[2:] if u.is_alive()]
            self._threads.append(t)

    def _serve_master(self, conn: socket.socket) -> None:
        """Serve one connection until TERMINATE, a protocol error or any
        other error of the worker's own, each of which gets one ERROR reply
        (the other error's traceback also goes to standard error), or a
        socket error or timeout, reading a frame or writing a reply, which
        ends it quietly."""
        conn.settimeout(self.io_timeout)
        state: dict = {}
        try:
            while not self._stop.is_set():
                mtype, payload = read_frame(conn)
                if self._dispatch(conn, mtype, payload, state):
                    return
        except ProtocolError as exc:
            self._reply_error(conn, str(exc))
        except OSError:  # socket.timeout included
            pass
        except Exception as exc:  # a fault of the worker's, such as a hash collision
            # The default hook prints the traceback without importing the
            # traceback module, which a worker would otherwise carry.
            sys.excepthook(type(exc), exc, exc.__traceback__)
            self._reply_error(conn, f"internal error: {type(exc).__name__}: {exc}")
        finally:
            conn.close()

    @staticmethod
    def _reply_error(conn: socket.socket, message: str) -> None:
        try:
            write_frame(conn, MSG_ERROR, message.encode("utf-8"))
        except OSError:
            pass

    def _dispatch(self, conn: socket.socket, mtype: int, payload: bytes,
                  state: dict) -> bool:
        if mtype == MSG_HELLO:
            write_frame(conn, MSG_HELLO_ACK, _u16.pack(self.cores))
            return False
        if mtype == MSG_KB_TRANSFER:
            kb, examples, cfg = _unpack_kb_transfer(payload)
            stats = compute_statistics(kb)
            # The expander's refiner and extension memo, the RHT mirror, the
            # decode table and its bounds live as long as this state, so a
            # new KB_TRANSFER starts new ones.
            state["expander"] = LocalExpander(kb, examples, cfg, stats,
                                              build_mb(kb, stats))
            state["rht"] = set()
            state["table"] = {}
            state["bounds"] = _id_bounds(kb)
            write_frame(conn, MSG_KB_ACK)
            return False
        if mtype == MSG_EXPAND_TASK:
            if "expander" not in state:
                raise ProtocolError("EXPAND_TASK before KB_TRANSFER")
            write_frame(conn, MSG_EXPAND_RESULT, self._expand(payload, state))
            return False
        if mtype == MSG_TERMINATE:
            return True
        raise ProtocolError(f"unexpected message type 0x{mtype:02x}")

    def _expand(self, payload: bytes, state: dict) -> bytes:
        ex, rht, table = state["expander"], state["rht"], state["table"]
        known, tasks = _split_expand_task(payload, table, state["bounds"])
        # A task node's counts are never read, but no search sends a node
        # that _coverage refuses, nor one the master could not expand, nor
        # one whose he is below its length, which refine cannot take.
        for i, bn in enumerate(tasks):
            _coverage(bn, i, ex.examples)
            if bn.he >= ex.cfg.max_length:
                raise ProtocolError(f"node {i}: he {bn.he} leaves nothing to "
                                    f"expand under max_length "
                                    f"{ex.cfg.max_length}")
            n = concept_length(bn.concept)
            if bn.he < n:
                raise ProtocolError(f"node {i}: he {bn.he} is below its "
                                    f"length {n}")
        rht.update(known)
        _expanded, _generated, found = ex.expand(tasks, rht)
        children = [child for _h, child in found if child is not None]
        nodes = [BlockNode(c, concept_length(c), tasks[i].slot,
                           cov.pos_covered, cov.neg_covered)
                 for i, c, cov in children]
        reply = _pack_expand_result(nodes, [h for h, ch in found if ch is None])
        for bn in nodes:  # encoded by now, so encode reads the stored bytes
            table[encode(bn.concept)] = bn.concept
        return reply


def _id_bounds(kb: KnowledgeBase, values: tuple[int, ...] | None = None
               ) -> IdBounds:
    """The bounds that a concept of ``kb`` must fit, with ``values``, each
    string role's number of values, if given."""
    return IdBounds(kb.num_classes, kb.num_roles, kb.num_boolean_roles,
                    kb.num_numeric_roles, kb.num_string_roles, values)


def _coverage(bn: BlockNode, i: int, examples: ExampleSet) -> CoverageResult:
    """The counts of block node ``i``. Raise ProtocolError if it covers more
    examples than there are: no search makes such a node."""
    if bn.pos_covered > examples.pos_count or bn.neg_covered > examples.neg_count:
        raise ProtocolError(f"node {i}: covers {bn.pos_covered} positives "
                            f"and {bn.neg_covered} negatives of "
                            f"{examples.pos_count} and {examples.neg_count}")
    return CoverageResult(bn.pos_covered, bn.neg_covered)


def _block_node(n: SearchNode, slot: int) -> BlockNode:
    return BlockNode(n.concept, n.he, slot, n.coverage.pos_covered,
                     n.coverage.neg_covered)


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


def _split_expand_task(payload: bytes, table: dict[bytes, Concept] | None = None,
                       bounds: IdBounds | None = None
                       ) -> tuple[list[int], list[BlockNode]]:
    """The known hashes and the nodes of an EXPAND_TASK, its concepts
    decoded through ``table`` within ``bounds``."""
    known, rest = _split_hashes(payload, "known-hash")
    return known, deserialize_block(rest, table, bounds)


def _pack_expand_result(nodes: list[BlockNode], weak: list[int]) -> bytes:
    """EXPAND_RESULT = u32 weak count + u64 weak hashes + block."""
    return _pack_hashes(weak) + serialize_block(nodes)


def _split_expand_result(payload: bytes, table: dict[bytes, Concept] | None = None,
                         bounds: IdBounds | None = None
                         ) -> tuple[list[BlockNode], list[int]]:
    """The nodes and weak hashes of an EXPAND_RESULT, its concepts decoded
    through ``table`` within ``bounds``."""
    weak, rest = _split_hashes(payload, "weak-hash")
    return deserialize_block(rest, table, bounds), weak


# ---------------------------------------------------------------------------
# Master

@dataclass(frozen=True)
class MasterConfig(SearchSettings):
    udp_port: int = DEFAULT_UDP_PORT
    broadcast_addrs: tuple[str, ...] = ("255.255.255.255", "127.255.255.255")
    worker_endpoints: tuple[tuple[str, int], ...] = ()
    discovery_millis: int = 2000
    expect_workers: int | None = None
    io_timeout: float = 60.0

    def __post_init__(self):
        super().__post_init__()
        # max_length travels to the workers as u16 (KB_TRANSFER); limit
        # stays on the master, within the same bounds.
        for name in ("limit", "max_length"):
            if getattr(self, name) > 0xFFFF:
                raise ValueError(f"{name} must be in [1, 65535], "
                                 f"got {getattr(self, name)}")
        if self.discovery_millis < 0:
            raise ValueError(f"discovery_millis must be >= 0, "
                             f"got {self.discovery_millis}")
        if self.expect_workers is not None and self.expect_workers < 1:
            raise ValueError(f"expect_workers must be >= 1, "
                             f"got {self.expect_workers}")
        for port in (self.udp_port, *(p for _h, p in self.worker_endpoints)):
            _check_port(port)
        if not (math.isfinite(self.io_timeout) and self.io_timeout > 0):
            raise ValueError(f"io_timeout must be a positive number of "
                             f"seconds, got {self.io_timeout}")


@dataclass(frozen=True)
class WorkerDrop:
    """A worker the master stopped using: its address, the index of the
    iteration whose round trip it failed, and why."""

    address: tuple[str, int]
    iteration: int
    cause: str


@dataclass
class ClusterResult(SearchResult):
    workers: list[WorkerInfo]
    dropped: list[WorkerDrop]
    handshake_millis: int


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


def _read_reply(sock: socket.socket, reply_type: int) -> bytes:
    """The payload of the next frame on ``sock``. Raise ProtocolError, saying
    why, if it cannot be read (the socket's io_timeout included) or is not
    of ``reply_type``."""
    try:
        rtype, payload = read_frame(sock)
    except OSError as exc:
        raise ProtocolError(f"no reply: {exc.strerror or exc}") from None
    if rtype == MSG_ERROR:
        raise ProtocolError(
            f"worker error: {payload.decode('utf-8', 'replace')}")
    if rtype != reply_type:
        raise ProtocolError(f"reply of type 0x{rtype:02x}, "
                            f"not 0x{reply_type:02x}")
    return payload


def _round_trip(socks: list[socket.socket], mtype: int, payloads: list[bytes],
                reply_type: int, replied: list[float] | None = None
                ) -> list[bytes | ProtocolError]:
    """Write each worker its request, then read each reply on that worker's
    socket. Returns each reply's payload, or for a worker whose write or
    read failed or whose reply is not of ``reply_type`` the ProtocolError
    that says why. ``replied``, if given, gets the ``time.monotonic()`` at
    which each worker's reply was read or failed, in worker order."""
    errors: list[ProtocolError | None] = []
    for sock, payload in zip(socks, payloads):
        try:
            write_frame(sock, mtype, payload)
            errors.append(None)
        except OSError as exc:
            errors.append(ProtocolError(f"cannot send: {exc.strerror or exc}"))
    replies: list[bytes | ProtocolError] = []
    for sock, error in zip(socks, errors):
        reply = error
        if error is None:
            try:
                reply = _read_reply(sock, reply_type)
            except ProtocolError as exc:
                reply = exc
        replies.append(reply)
        if replied is not None:
            replied.append(time.monotonic())
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
        (cores,) = _u16.unpack(payload)
        if cores == 0:  # a block of no nodes: the run could only fail
            raise ProtocolError("bad HELLO_ACK: 0 cores")
    except (OSError, ProtocolError) as exc:
        sock.close()
        raise ClusterError(f"worker {ep}: {exc}") from None
    return sock, cores


class _RemoteExpander:
    """Expands on the workers: each alive worker, in connection order, gets
    the next ``cores`` nodes of the beam as one EXPAND_TASK, with the RHT
    hashes its mirror lacks. It reports as expanded only the nodes of the
    blocks whose workers answered; a worker whose round trip fails, or whose
    reply does not parse or holds a node ``_child`` refuses, is dropped, and
    its nodes stay in the open list for a later iteration. Each drop is
    recorded in ``dropped``."""

    def __init__(self, socks: list[socket.socket], workers: list[WorkerInfo],
                 alive: list[int], kb: KnowledgeBase, st_sym: SymbolTable,
                 examples: ExampleSet, cfg: MasterConfig):
        self.socks, self.workers, self.alive = socks, workers, alive
        self.examples = examples
        # The RHT hashes already sent. Every alive worker gets every
        # EXPAND_TASK, so this is each alive worker's mirror.
        self.sent: set[int] = set()
        # This search's decode table and its bounds. The master renders
        # what it keeps, so it refuses a string value id that its symbol
        # table cannot name.
        self.table: dict[bytes, Concept] = {}
        self.bounds = _id_bounds(kb, tuple(map(len, st_sym.string_values)))
        self.dropped: list[WorkerDrop] = []
        self.iteration = 0  # the index of the next expand's iteration
        # A worker returns a refinement covering fewer positives than this,
        # and a union that the evaluator finds dominated, as a weak hash,
        # never as a node.
        self.min_pos = weak_threshold(examples, cfg.noise)
        self.evaluator = Evaluator(kb, examples)

    def width(self) -> int:
        return sum(self.workers[i].cores for i in self.alive)

    def _child(self, bn: BlockNode, i: int, slots: range) -> Child:
        """What result node ``i`` reports of a refinement of the beam node
        in its slot. Raise ProtocolError where ``_coverage`` does, or if its
        he is not its concept's length, as for every refinement, it is weak,
        it is a dominated union, or its slot is not in ``slots``, the block
        its worker was sent."""
        cov = _coverage(bn, i, self.examples)
        length = concept_length(bn.concept)
        if bn.he != length:
            raise ProtocolError(f"node {i}: he {bn.he} is not its length "
                                f"{length}")
        if bn.pos_covered < self.min_pos:
            raise ProtocolError(f"node {i}: weak, covers {bn.pos_covered} "
                                f"positives where {self.min_pos} are needed")
        if dominated_union(bn.concept, self.evaluator):
            raise ProtocolError(f"node {i}: dominated union, an operand "
                                f"covers no positive example")
        if bn.slot not in slots:
            raise ProtocolError(f"node {i}: slot {bn.slot} was not sent to "
                                f"this worker")
        return bn.slot, bn.concept, cov

    def expand(self, beam: list[SearchNode], rht: set[int]
               ) -> tuple[list[int], int, list[tuple[int, Child | None]]]:
        blocks: list[tuple[int, range]] = []
        cursor, every = 0, range(len(beam))
        for i in self.alive:
            blocks.append((i, every[cursor:cursor + self.workers[i].cores]))
            cursor += self.workers[i].cores
        known = sorted(rht - self.sent)
        self.sent.update(known)
        replies = _round_trip(
            [self.socks[i] for i, _ in blocks], MSG_EXPAND_TASK,
            [_pack_expand_task(known, [_block_node(beam[s], s) for s in slots])
             for _i, slots in blocks],
            MSG_EXPAND_RESULT)
        expanded: list[int] = []
        generated = 0
        found: list[tuple[int, Child | None]] = []
        for (wi, slots), reply in zip(blocks, replies):
            try:
                if isinstance(reply, ProtocolError):
                    raise reply
                block_nodes, weak = _split_expand_result(reply, self.table,
                                                         self.bounds)
                children = [self._child(bn, i, slots)
                            for i, bn in enumerate(block_nodes)]
            except ProtocolError as exc:
                self.alive.remove(wi)
                self.dropped.append(WorkerDrop(self.workers[wi].address,
                                               self.iteration, str(exc)))
                continue
            expanded.extend(slots)
            generated += len(children) + len(weak)
            found.extend((hash_concept(child[1]), child) for child in children)
            found.extend((h, None) for h in weak)
        self.iteration += 1
        return expanded, generated, found


def run_master(kb: KnowledgeBase, st_sym: SymbolTable, examples: ExampleSet,
               cfg: MasterConfig) -> ClusterResult:
    """Discover the workers, send each the KB, search, and return the
    merged search outcome. ``kb`` must be materialized: workers receive it
    sealed."""
    t0 = time.monotonic()
    endpoints = discover(cfg)
    if not endpoints:
        raise ClusterError("no workers responded to discovery")
    if cfg.expect_workers is not None and len(endpoints) < cfg.expect_workers:
        raise ClusterError(f"expected {cfg.expect_workers} workers, found {len(endpoints)}")
    if not kb.materialized:
        raise ClusterError("the knowledge base must be materialized before "
                           "it is sent to workers")

    socks: list[socket.socket] = []
    workers: list[WorkerInfo] = []
    try:
        for ep in endpoints:
            sock, cores = _hello(ep, cfg.io_timeout)
            socks.append(sock)
            workers.append(WorkerInfo(address=ep, cores=cores))

        kb_payload = _pack_kb_transfer(kb, st_sym, examples, cfg)
        sent, acked = time.monotonic(), []
        replies = _round_trip(socks, MSG_KB_TRANSFER, [kb_payload] * len(socks),
                              MSG_KB_ACK, acked)
        for reply, w, at in zip(replies, workers, acked):
            if isinstance(reply, ProtocolError):
                raise ClusterError(f"KB transfer failed on worker {w.address}: "
                                   f"{reply}")
            w.kb_ack_millis = int((at - sent) * 1000)
        handshake_millis = int((time.monotonic() - t0) * 1000)

        alive = list(range(len(workers)))
        expander = _RemoteExpander(socks, workers, alive, kb, st_sym,
                                   examples, cfg)
        res = search_loop(examples, cfg, expander, t0)

        for i in alive:  # the workers close without a reply
            try:
                write_frame(socks[i], MSG_TERMINATE)
            except OSError:
                pass

        # vars, not dataclasses.asdict, which would deep-copy the open list.
        return ClusterResult(
            **{**vars(res), "wall_millis": int((time.monotonic() - t0) * 1000)},
            workers=workers, dropped=expander.dropped,
            handshake_millis=handshake_millis)
    finally:
        for sock in socks:
            sock.close()

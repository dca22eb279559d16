"""Layer probes for the traced run.

A ``Tracer`` replaces module attributes of the program with wrappers that
time a call as a span (name, start, end, parent span) or count it, and puts
the originals back on ``close()``. Spans stay in memory until the benchmark
writes them out. ``layer_metrics`` turns one traced search into the
per-layer metrics.

Later refactors rename or remove some wrapped names. A probe whose module or
attribute is gone is recorded as missing, and every metric fed by it is
reported as not measured (``None``), never as zero. A metric fed by no probe
of the workload at hand (the master of a cluster run expands nothing) reads
zero, because the calls it counts do not happen in the measured process.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time
from collections import Counter
from contextlib import contextmanager

# (module, attribute, span name or None, counter name or None)
LOCAL_PROBES = (
    ("dlbeam.search", "extract_best_nodes", "search.select", None),
    ("dlbeam.search", "expand_single_node", "search.expand", None),
    ("dlbeam.search", "reduce_redundant", "search.reduce", None),
    ("dlbeam.search", "evaluate_batch", "search.evaluate", None),
    # The search loop's refine call is timed and counted here; the recursive
    # calls go through the refine module's own global and are counted there.
    ("dlbeam.search", "refine", "refine", "refine.calls"),
    ("dlbeam.refine", "refine", None, "refine.calls"),
    ("dlbeam.search", "sort_key", None, "concept.sort_key_calls"),
    ("dlbeam.search", "hash_concept", None, "concept.hash_calls"),
    ("dlbeam.refine", "hash_concept", None, "concept.hash_calls"),
    ("dlbeam.evaluation", "covered_set", None, "evaluation.covered_set_calls"),
)

# The master of a cluster run: selection, reduction, the open-list sort and
# the block codec run here; expansion and evaluation run in the workers.
CLUSTER_PROBES = (
    ("dlbeam.cluster", "extract_best_nodes", "search.select", None),
    ("dlbeam.cluster", "reduce_redundant", "search.reduce", None),
    ("dlbeam.cluster", "sort_key", None, "concept.sort_key_calls"),
    ("dlbeam.cluster", "hash_concept", None, "concept.hash_calls"),
    ("dlbeam.search", "hash_concept", None, "concept.hash_calls"),
    ("dlbeam.evaluation", "covered_set", None, "evaluation.covered_set_calls"),
    ("dlbeam.cluster", "serialize_block", "cluster.block_encode", None),
    ("dlbeam.cluster", "deserialize_block", "cluster.block_decode", None),
)

FRAMES = "cluster.frames"
SENT_TYPES = ("HELLO", "KB_TRANSFER", "PROBE", "EXPAND_TASK", "TERMINATE")
RECEIVED_TYPES = ("HELLO_ACK", "KB_ACK", "PROBE_RESULT", "EXPAND_RESULT",
                  "BEST_HYPOTHESES")

SEARCH_PHASES = ("search.select", "search.expand", "search.reduce",
                 "search.evaluate")

# Metric -> the probes (span or counter names) it is computed from.
DEPENDS = {
    "search.select_s": ("search.select",),
    "search.expand_s": ("search.expand",),
    "search.reduce_s": ("search.reduce",),
    "search.evaluate_s": ("search.evaluate",),
    "search.upkeep_s": SEARCH_PHASES + (FRAMES,),
    "concept.sort_key_calls": ("concept.sort_key_calls",),
    "concept.hash_calls": ("concept.hash_calls",),
    "refine.s": ("refine",),
    "refine.calls": ("refine.calls",),
    "evaluation.covered_set_calls_per_eval": ("evaluation.covered_set_calls",),
    "evaluation.us_per_eval": ("search.evaluate",),
    "cluster.handshake_s": (FRAMES,),
    "cluster.round_trip_s": (FRAMES,),
    "cluster.master_s": (FRAMES,),
    "cluster.frames_sent": (FRAMES,),
    "cluster.bytes_sent": (FRAMES,),
    "cluster.bytes_received": (FRAMES,),
    "cluster.block_encode_s": ("cluster.block_encode",),
    "cluster.block_decode_s": ("cluster.block_decode",),
}
for _t in SENT_TYPES:
    DEPENDS[f"cluster.frames_sent.{_t}"] = (FRAMES,)
    DEPENDS[f"cluster.bytes_sent.{_t}"] = (FRAMES,)
for _t in RECEIVED_TYPES:
    DEPENDS[f"cluster.bytes_received.{_t}"] = (FRAMES,)

# Every per-layer metric the traced run reports, with its unit, in order.
PER_LAYER_UNITS = {
    "kb.parse_s": "s", "kb.materialize_s": "s", "kb.statistics_s": "s",
    "search.select_s": "s", "search.expand_s": "s", "search.reduce_s": "s",
    "search.evaluate_s": "s", "search.upkeep_s": "s",
    "search.iterations": "count", "search.generated": "count",
    "search.survivor_ratio": "ratio", "search.weak_ratio": "ratio",
    "search.open_list_final": "count",
    "concept.sort_key_calls": "count", "concept.hash_calls": "count",
    "refine.s": "s", "refine.calls": "count",
    "evaluation.covered_set_calls_per_eval": "calls/eval",
    "evaluation.us_per_eval": "us",
    "cluster.handshake_s": "s", "cluster.round_trip_s": "s",
    "cluster.master_s": "s",
    "cluster.frames_sent": "count", "cluster.bytes_sent": "bytes",
    "cluster.bytes_received": "bytes",
    **{f"cluster.frames_sent.{t}": "count" for t in SENT_TYPES},
    **{f"cluster.bytes_sent.{t}": "bytes" for t in SENT_TYPES},
    **{f"cluster.bytes_received.{t}": "bytes" for t in RECEIVED_TYPES},
    "cluster.block_encode_s": "s", "cluster.block_decode_s": "s",
    "cluster.worker_probe_ms": "ms", "cluster.worker_peak_rss_mb": "MB",
    "trace.search_s_untraced": "s", "trace.search_s_traced": "s",
    "trace.overhead_ratio": "ratio",
}

# Metrics that must repeat exactly between runs of one seed.
COUNT_METRICS = tuple(m for m, unit in PER_LAYER_UNITS.items()
                      if unit in ("count", "bytes", "calls/eval"))


class Tracer:
    """Spans and counters of one traced call, from wrappers it installs."""

    def __init__(self, trace_id: str = ""):
        self.trace_id = trace_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.missing: dict[str, str] = {}  # probe name -> why it is missing
        self.first_task: float | None = None
        self.round_trip_s = 0.0
        self._outstanding = 0
        self._round_start = 0.0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = [name, time.perf_counter(), None, stack[-1] if stack else None]
        with self._lock:
            self.spans.append(record)
            index = len(self.spans) - 1
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            record[2] = time.perf_counter()

    def total(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def last(self, name: str) -> list:
        return next(s for s in reversed(self.spans) if s[0] == name)

    # -- probes --------------------------------------------------------------

    def install(self, probes) -> None:
        for module_name, attr, span_name, counter in probes:
            fn = self._lookup(module_name, attr, span_name, counter)
            if fn is not None:
                self._patch(module_name, attr, self._wrap(fn, span_name, counter))

    def install_frames(self) -> None:
        """Count frames and bytes per message type on the master's side and
        time the handshake and the EXPAND round trips."""
        write = self._lookup("dlbeam.cluster", "write_frame", FRAMES, None)
        read = self._lookup("dlbeam.cluster", "read_frame", FRAMES, None)
        if write is None or read is None:
            return
        cluster = importlib.import_module("dlbeam.cluster")
        names = {v: k[4:] for k, v in vars(cluster).items()
                 if k.startswith("MSG_") and isinstance(v, int)}
        task = getattr(cluster, "MSG_EXPAND_TASK", None)
        replies = {getattr(cluster, "MSG_EXPAND_RESULT", None),
                   getattr(cluster, "MSG_ERROR", None)}

        @functools.wraps(write)
        def write_frame(sock, mtype, payload=b"", *args, **kwargs):
            name = names.get(mtype, "other")
            with self._lock:
                self.counts[f"cluster.frames_sent.{name}"] += 1
                self.counts[f"cluster.bytes_sent.{name}"] += len(payload)
                if mtype == task:
                    now = time.perf_counter()
                    if self.first_task is None:
                        self.first_task = now
                    if self._outstanding == 0:
                        self._round_start = now
                    self._outstanding += 1
            return write(sock, mtype, payload, *args, **kwargs)

        @functools.wraps(read)
        def read_frame(*args, **kwargs):
            mtype, payload = frame = read(*args, **kwargs)
            with self._lock:
                self.counts[f"cluster.bytes_received.{names.get(mtype, 'other')}"] += len(payload)
                if self._outstanding and mtype in replies:
                    self._outstanding -= 1
                    if self._outstanding == 0:
                        self.round_trip_s += time.perf_counter() - self._round_start
            return frame

        self._patch("dlbeam.cluster", "write_frame", write_frame)
        self._patch("dlbeam.cluster", "read_frame", read_frame)

    def close(self) -> None:
        """Put every wrapped attribute back, newest first, and freeze the
        spans as tuples, which the garbage collector stops tracking."""
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)
        self.spans = [tuple(s) for s in self.spans]

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _lookup(self, module_name, attr, span_name, counter):
        try:
            return getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError):
            for probe in (span_name, counter):
                if probe is not None:
                    self.missing.setdefault(probe, f"{module_name}.{attr} not found")
            return None

    def _patch(self, module_name: str, attr: str, wrapper) -> None:
        module = importlib.import_module(module_name)
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _wrap(self, fn, span_name, counter):
        counts = self.counts
        if span_name is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[counter] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            with self.span(span_name):
                return fn(*args, **kwargs)
        return timed


def layer_metrics(tracer: Tracer, result, evaluated: int) -> dict[str, float | None]:
    """Per-layer metrics of one traced search, which ran inside a span named
    ``search``. Metrics whose probe is missing come back as ``None``."""
    search_s = tracer.total("search")
    phases = {p: tracer.total(p) for p in SEARCH_PHASES}
    handshake_s = 0.0
    if tracer.first_task is not None:
        handshake_s = tracer.first_task - tracer.last("search")[1]
    round_trip_s = tracer.round_trip_s
    counts = tracer.counts
    iterations = result.iterations
    generated = sum(it.generated for it in iterations)
    survivors = sum(it.generated - it.redundant_dropped for it in iterations)
    weak = sum(it.weak_dropped for it in iterations)
    m: dict[str, float | None] = {
        "search.select_s": phases["search.select"],
        "search.expand_s": phases["search.expand"],
        "search.reduce_s": phases["search.reduce"],
        "search.evaluate_s": phases["search.evaluate"],
        "search.upkeep_s": (search_s - sum(phases.values())
                            - handshake_s - round_trip_s),
        "search.iterations": len(iterations),
        "search.generated": generated,
        "search.survivor_ratio": survivors / generated if generated else 0.0,
        "search.weak_ratio": weak / survivors if survivors else 0.0,
        "search.open_list_final": len(result.st_nodes),
        "concept.sort_key_calls": counts["concept.sort_key_calls"],
        "concept.hash_calls": counts["concept.hash_calls"],
        "refine.s": tracer.total("refine"),
        "refine.calls": counts["refine.calls"],
        "evaluation.covered_set_calls_per_eval":
            counts["evaluation.covered_set_calls"] / evaluated,
        "evaluation.us_per_eval": phases["search.evaluate"] / evaluated * 1e6,
        "cluster.handshake_s": handshake_s,
        "cluster.round_trip_s": round_trip_s,
        "cluster.master_s": (search_s - handshake_s - round_trip_s
                             if tracer.first_task is not None else 0.0),
        "cluster.frames_sent": sum(v for k, v in counts.items()
                                   if k.startswith("cluster.frames_sent.")),
        "cluster.bytes_sent": sum(v for k, v in counts.items()
                                  if k.startswith("cluster.bytes_sent.")),
        "cluster.bytes_received": sum(v for k, v in counts.items()
                                      if k.startswith("cluster.bytes_received.")),
        "cluster.block_encode_s": tracer.total("cluster.block_encode"),
        "cluster.block_decode_s": tracer.total("cluster.block_decode"),
        "cluster.worker_probe_ms": max((w.probe_millis for w in
                                        getattr(result, "workers", ())), default=0),
    }
    for t in SENT_TYPES:
        m[f"cluster.frames_sent.{t}"] = counts[f"cluster.frames_sent.{t}"]
        m[f"cluster.bytes_sent.{t}"] = counts[f"cluster.bytes_sent.{t}"]
    for t in RECEIVED_TYPES:
        m[f"cluster.bytes_received.{t}"] = counts[f"cluster.bytes_received.{t}"]
    for name, probes in DEPENDS.items():
        if any(p in tracer.missing for p in probes):
            m[name] = None
    return m


def combine(per_rep: list[dict[str, float | None]]) -> dict[str, float | None]:
    """Each metric over the traced repetitions: the median of a time, and a
    count as it is (the caller checks that counts repeat exactly)."""
    out = {}
    for name in per_rep[0]:
        values = [r[name] for r in per_rep]
        if None in values:
            out[name] = None
        elif name in COUNT_METRICS:
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out

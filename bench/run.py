"""Fixed-work benchmark of dlbeam.

    python3 bench/run.py --workload trains-narrow --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout; the program is imported from its ``src/``.
One invocation sets one workload up, runs one untimed warm-up search, then
for ``--seconds`` (at least three times) repeats the same fixed-work search,
with further timed set-ups in between, and verifies every result. Times are
in reference seconds, which do not move with the speed of a shared machine
(see calibrate.py). The last line of standard output is a JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the searches
alternate between untraced and traced, and the metrics are the per-layer
ones, with the tracing overhead, in plain wall time. Spans are written to
``.bench_out/``. ``--workload all`` runs every workload in its own process.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import ExitStack

import checkout

try:
    checkout.use_checkout()
except checkout.MissingProgram as exc:
    print(f"error: {exc}", file=sys.stderr)
    sys.exit(2)

import calibrate  # noqa: E402
import tracing  # noqa: E402 - these import the program from the checkout
import verify  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "search_s": "s", "evals_per_s": "1/s",
                    "peak_rss_mb": "MB"}
WORKLOAD_NAMES = tuple(workloads.WORKLOADS)
SETUP_SLICE_S = 0.25
SETUP_SHARE = 0.5
MIN_SEARCHES = 3
STOP_STARTING_AFTER_S = 120.0  # no new search this long after start-up


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Runs:
    """Every search goes through ``attempt``, which times and verifies it and
    counts a crash or a failed check without stopping the other runs."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.attempted = 0
        self.failed = 0

    def attempt(self, search, ready, reference=None, tracer=None, meter=None,
                sample_during=True):
        """``search(ready)`` timed and checked: (seconds, result), or
        (None, None) when the run failed. With a ``meter`` the seconds are
        reference seconds (see calibrate.py)."""
        self.attempted += 1
        gc.collect()
        try:
            if meter is not None:
                elapsed, result = meter.time("search", search, ready,
                                             sample_during=sample_during)
            elif tracer is None:
                t0 = time.perf_counter()
                result = search(ready)
                elapsed = time.perf_counter() - t0
            else:
                with tracer.span("search"):
                    result = search(ready)
                elapsed = tracer.total("search")
            problems = verify.check(result, ready, self.oracle, reference)
        except Exception as exc:  # noqa: BLE001 - a crashed run is a failed run
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.fail(f"search {self.attempted}: " + "; ".join(problems))
            return None, None
        return elapsed, result

    def fail(self, why: str) -> None:
        self.failed += 1
        print(f"FAILED {why}", file=sys.stderr, flush=True)


def set_up_slice(kb_text: str, ex_text: str, meter, times: list,
                 tracers: list):
    """Set up at least once and for SETUP_SLICE_S; return the last state.
    Without a ``meter`` every set-up is traced."""
    spent = 0.0
    while spent < SETUP_SLICE_S:
        tracer = None
        if meter is not None:
            elapsed, ready = meter.time("setup", workloads.set_up, kb_text,
                                        ex_text)
        else:
            tracer = tracing.Tracer(f"setup.{len(times) + 1}")
            t0 = time.perf_counter()
            ready = workloads.set_up(kb_text, ex_text, tracer)
            elapsed = time.perf_counter() - t0
        times.append(elapsed)
        spent += elapsed
        if tracer is not None:
            tracers.append(tracer)
    return ready


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the result object the benchmark prints."""
    started = time.perf_counter()
    workload = workloads.WORKLOADS[name]
    kb_text, ex_text = workloads.make_inputs(workload, seed)
    probes = tracing.CLUSTER_PROBES if workload.cluster else tracing.LOCAL_PROBES
    untraced, traced = [], []  # seconds; (tracer, per-layer metrics)
    with ExitStack() as stack:
        workers = (stack.enter_context(workloads.Workers())
                   if workload.cluster else None)
        # End-to-end times are in reference seconds; the traced run's are
        # plain wall times, compared only with each other.
        meter = None if trace else calibrate.Meter()
        setup_times, setup_tracers = [], []
        ready = set_up_slice(kb_text, ex_text, meter, setup_times, setup_tracers)
        runs = Runs(verify.OracleCheck(checkout.load_oracle()))

        def local(ready):
            return workloads.search_local(ready, workload.beam)

        def cluster(ready):
            return workloads.search_cluster(ready, workers.endpoints)

        def reference_of(result):
            return verify.Reference.of(result) if result is not None else None

        search = cluster if workload.cluster else local
        reference = (reference_of(runs.attempt(local, ready)[1])
                     if workload.cluster else None)
        # Untimed warm-up: lazy imports, allocator and worker start-up.
        warm = reference_of(runs.attempt(search, ready, reference)[1])
        reference = reference or warm
        evaluated = len(reference.rht) if reference is not None else 0
        deadline = time.perf_counter() + seconds
        rounds = 0
        while rounds < MIN_SEARCHES or time.perf_counter() < deadline:
            if time.perf_counter() - started > STOP_STARTING_AFTER_S and rounds:
                break
            rounds += 1
            # Set-ups are sampled between the searches, so that their median
            # spans the run rather than one moment of a machine whose speed
            # drifts, and take at most SETUP_SHARE of the searches' time.
            if sum(setup_times) <= SETUP_SHARE * sum(untraced):
                ready = None  # one state at a time, as in `dlbeam learn`
                ready = set_up_slice(kb_text, ex_text, meter, setup_times,
                                     setup_tracers)
            # Reference chunks during a cluster search would take processor
            # time from the workers: it is scaled by the run's chunks below.
            elapsed = runs.attempt(search, ready, reference, meter=meter,
                                   sample_during=not workload.cluster)[0]
            if elapsed is not None:
                untraced.append(elapsed)
            if trace:
                with tracing.Tracer(f"search.{rounds}") as tracer:
                    tracer.install(probes)
                    if workload.cluster:
                        tracer.install_frames()
                    elapsed, result = runs.attempt(search, ready, reference, tracer)
                if elapsed is not None:
                    traced.append((tracer, tracing.layer_metrics(tracer, result,
                                                                 evaluated)))
                result = None
    # Every worker has been reaped here, so its peak memory is accounted.
    workers_rss_mb = (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
                      if workload.cluster else 0.0)

    if trace:
        values = layer_metrics(runs, setup_tracers, untraced, traced,
                               workers_rss_mb)
        units = tracing.PER_LAYER_UNITS
        write_spans(name, seed, setup_tracers + [t for t, _ in traced])
    else:
        if workload.cluster:
            untraced = [t * meter.run_scale() for t in untraced]
        search_s = statistics.median(untraced) if untraced else None
        values = {
            "setup_s": statistics.median(setup_times),
            "search_s": search_s,
            "evals_per_s": evaluated / search_s if search_s else None,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    summary(name, seed, values, units, runs, setup_times, untraced, len(traced),
            meter)
    return {"correct": runs.failed == 0 and evaluated > 0,
            "attempted": runs.attempted, "failed": runs.failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}


def layer_metrics(runs: Runs, setup_tracers, untraced, traced,
                  workers_rss_mb) -> dict[str, float | None]:
    out: dict[str, float | None] = dict.fromkeys(tracing.PER_LAYER_UNITS)
    for metric, span in (("kb.parse_s", "kb.parse"),
                         ("kb.materialize_s", "kb.materialize"),
                         ("kb.statistics_s", "kb.statistics")):
        out[metric] = statistics.median(t.total(span) for t in setup_tracers)
    if traced:
        per_rep = [metrics for _, metrics in traced]
        for metric in tracing.COUNT_METRICS:
            if len({rep[metric] for rep in per_rep}) > 1:
                runs.fail(f"count {metric} differs between traced runs: "
                          f"{[rep[metric] for rep in per_rep]}")
        out.update(tracing.combine(per_rep))
        for probe, why in traced[0][0].missing.items():
            print(f"not measured: {probe} ({why})", file=sys.stderr)
    out["cluster.worker_peak_rss_mb"] = workers_rss_mb
    plain = statistics.median(untraced) if untraced else None
    with_probes = (statistics.median(t.total("search") for t, _ in traced)
                   if traced else None)
    out["trace.search_s_untraced"] = plain
    out["trace.search_s_traced"] = with_probes
    out["trace.overhead_ratio"] = (with_probes / plain - 1.0
                                   if plain and with_probes else None)
    return out


def write_spans(name: str, seed: int, tracers) -> None:
    out_dir = checkout.ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{name}-seed{seed}.spans.json"
    spans = [{"trace": t.trace_id, "name": s[0], "start": s[1], "end": s[2],
              "parent": s[3]} for t in tracers for s in t.spans]
    path.write_text(json.dumps(spans))
    print(f"{len(spans)} spans written to {path.relative_to(checkout.ROOT)}",
          file=sys.stderr)


def summary(name, seed, values, units, runs, setup_times, search_times,
            traced: int, meter) -> None:
    """Print every metric by name with its unit, then the failure rate."""
    print(f"{name} (seed {seed}): {len(setup_times)} set-ups, "
          f"{len(search_times)} timed searches"
          + (f", {traced} traced searches" if traced else "")
          + "; each timing is a median")
    for metric, unit in units.items():
        value = values[metric]
        shown = "not measured" if value is None else f"{value:.6g} {unit}"
        print(f"  {metric:40s} {shown}")
    rate = runs.failed / runs.attempted if runs.attempted else 1.0
    print(f"  {'failure_rate':40s} {rate:.6g} ({runs.failed} of "
          f"{runs.attempted} searches failed)")
    # The highest percentile of each timing with ten samples beyond it.
    for metric, times in (("setup_s", setup_times), ("search_s", search_times)):
        n = len(times)
        if n > 20:
            print(f"  {metric} p{100 * (n - 10) / n:.0f} = "
                  f"{sorted(times)[n - 11]:.6g} s over {n} samples")
        else:
            print(f"  {metric}: {n} samples, too few for a percentile above "
                  f"the median with ten beyond it")
    print("  search_s samples: " + " ".join(f"{t:.4g}" for t in search_times))
    if meter is not None:
        own = {label: statistics.median(t) for label, t in meter.own.items()}
        print(f"  in reference seconds: {len(meter.chunks)} reference chunks, "
              f"mean {statistics.fmean(meter.chunks):.6g} s against "
              f"{calibrate.REFERENCE_CHUNK_S} s; unscaled medians: "
              + ", ".join(f"{label} {t:.6g} s" for label, t in own.items()))


def run_all(args) -> int:
    """Every workload in its own process, so each reports its own peak memory."""
    worst = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)])
        worst = max(worst, proc.returncode)
    return worst


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)  # unwinds, so the workers are reaped


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if args.workload == "all":
        return run_all(args)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

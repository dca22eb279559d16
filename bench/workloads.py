"""The benchmark's workloads: their inputs, set-up, one search each, and the
worker processes of the cluster workload.

Every search runs to exhaustion: ``target_accuracy`` 2.0 can never be
reached, so a run stops only once no node is left to expand and evaluates
the same set of concepts every time. That is the fixed amount of work, and
no time budget (``max_millis``) is ever set.
"""

from __future__ import annotations

import os
import re
import select
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from dlbeam.cluster import MasterConfig, run_master
from dlbeam.fixtures import fixture_path
from dlbeam.kb import compute_statistics, materialize, parse_examples, parse_kb
from dlbeam.refine import build_mb
from dlbeam.search import SearchConfig, run_search

import synth
from checkout import ROOT, SRC

MAX_LENGTH = 6
UNREACHABLE = 2.0
WORKERS = 2
WORKER_CORES = 64  # two workers advertising 64 cores give a total beam of 128
WORKER_STARTUP_S = 60.0


@dataclass(frozen=True)
class Workload:
    name: str
    synthetic: bool  # seeded synth-wide text, or the shipped trains fixture
    beam: int
    cluster: bool


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload("trains-narrow", synthetic=False, beam=8, cluster=False),
    Workload("synth-wide", synthetic=True, beam=128, cluster=False),
    Workload("cluster-synth-wide", synthetic=True, beam=128, cluster=True),
)}


@dataclass
class Ready:
    """Everything a search needs, as ``dlbeam learn`` builds it."""
    st: object
    kb: object
    examples: object
    stats: object
    mb: list


def make_inputs(workload: Workload, seed: int) -> tuple[str, str]:
    """KB text and example text; the same seed gives the same text."""
    if workload.synthetic:
        return synth.generate(seed)
    return (Path(fixture_path("trains.kb")).read_text(),
            Path(fixture_path("trains.ex")).read_text())


def set_up(kb_text: str, ex_text: str, tracer=None) -> Ready:
    """Parse, materialize and derive statistics and the restriction pool."""
    span = tracer.span if tracer is not None else (lambda _name: nullcontext())
    with span("kb.parse"):
        st, kb = parse_kb(kb_text)
        examples = parse_examples(ex_text, st)
    with span("kb.materialize"):
        materialize(kb, st)
    with span("kb.statistics"):
        stats = compute_statistics(kb)
        mb = build_mb(kb, stats)
    return Ready(st, kb, examples, stats, mb)


def search_local(ready: Ready, beam: int):
    cfg = SearchConfig(beam_width=beam, max_length=MAX_LENGTH,
                       target_accuracy=UNREACHABLE)
    return run_search(ready.kb, ready.examples, cfg, stats=ready.stats,
                      mb=ready.mb)


def search_cluster(ready: Ready, endpoints: list[tuple[str, int]]):
    cfg = MasterConfig(max_length=MAX_LENGTH, target_accuracy=UNREACHABLE,
                       broadcast_addrs=(), worker_endpoints=tuple(endpoints),
                       expect_workers=len(endpoints), discovery_millis=10_000)
    return run_master(ready.kb, ready.st, ready.examples, cfg)


class WorkerError(RuntimeError):
    pass


class Workers:
    """``dlbeam worker`` subprocesses on loopback, on ports the OS picks.

    Used as a context manager, it always terminates and reaps every worker,
    also when start-up or a run fails.
    """

    STARTUP = re.compile(r"worker listening on tcp (\d+), udp (\d+)")

    def __init__(self):
        self.procs: list[subprocess.Popen] = []
        self.endpoints: list[tuple[str, int]] = []  # UDP ports: ping targets

    def __enter__(self) -> "Workers":
        try:
            cmd = [sys.executable, "-m", "dlbeam.cli", "worker",
                   "--host", "127.0.0.1", "--port", "0", "--broadcast-port", "0",
                   "--cores", str(WORKER_CORES), "--threads", "1"]
            env = dict(os.environ, PYTHONPATH=str(SRC))
            for _ in range(WORKERS):
                self.procs.append(subprocess.Popen(
                    cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True))
            deadline = time.monotonic() + WORKER_STARTUP_S
            for proc in self.procs:
                line = self._first_line(proc, deadline)
                m = self.STARTUP.fullmatch(line.strip())
                if m is None:
                    raise WorkerError(f"unexpected worker start-up line {line!r}")
                self.endpoints.append(("127.0.0.1", int(m.group(2))))
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @staticmethod
    def _first_line(proc: subprocess.Popen, deadline: float) -> str:
        ready, _, _ = select.select([proc.stdout], [], [],
                                    max(0.0, deadline - time.monotonic()))
        if not ready:
            raise WorkerError("worker did not report its ports in time")
        return proc.stdout.readline()

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        self.procs = []

"""The benchmark's cluster entry point runs against this program.

``bench/workloads.py`` builds the cluster workload's ``MasterConfig`` and
reads its result through ``bench/verify.py``. A change to the settings or
result types could break that run while every other test passes, so this
test runs ``workloads.search_cluster`` on the trains input over two
in-process workers and verifies it against the local search of the same
beam width, as the benchmark does.
"""

import importlib.util
import sys
from pathlib import Path

from dlbeam.cluster import WorkerServer

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name):
    """``bench/<name>.py``, registered under ``name`` so that the bench
    modules' imports of each other find it."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


checkout = load("checkout")
load("synth")
workloads = load("workloads")
verify = load("verify")


def test_bench_cluster_search_equals_the_local_search_and_verifies():
    cores = workloads.WORKER_CORES
    ready = workloads.set_up(*workloads.make_inputs(
        workloads.WORKLOADS["trains-narrow"], seed=1))
    reference = verify.Reference.of(workloads.search_local(ready, 2 * cores))
    servers = [WorkerServer(udp_port=0, cores=cores, io_timeout=30.0).start()
               for _ in range(2)]
    try:
        result = workloads.search_cluster(
            ready, [("127.0.0.1", w.udp_port) for w in servers])
    finally:
        for w in servers:
            w.stop()
    assert len(result.evaluated_hashes) == len(result.rht)
    oracle = verify.OracleCheck(checkout.load_oracle())
    assert verify.check(result, ready, oracle, reference) == []

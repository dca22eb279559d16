"""The benchmark's layer probes name functions that exist, and fire.

``bench/tracing.py`` wraps module attributes by name, and reports a metric
whose wrapped name is gone as not measured. A rename in the program would
turn a per-layer figure into "not measured" without failing anything, so
these tests resolve every probe the traced runs install, and check that
each probe of a local run is called by a local search.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from dlbeam.search import SearchConfig, run_search

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
# The frame probes are looked up by name in install_frames.
FRAME_PROBES = (("dlbeam.cluster", "write_frame"),
                ("dlbeam.cluster", "read_frame"))
PROBES = sorted({probe[:2] for probe in tracing.LOCAL_PROBES
                 + tracing.CLUSTER_PROBES} | set(FRAME_PROBES))


@pytest.mark.parametrize("module,attr", PROBES,
                         ids=[f"{m}.{a}" for m, a in PROBES])
def test_every_probe_resolves_to_a_function(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("probe", tracing.LOCAL_PROBES,
                         ids=[f"{m}.{a}" for m, a, _, _ in tracing.LOCAL_PROBES])
def test_every_local_probe_fires_in_a_traced_trains_search(probe, trains):
    # A probe can resolve and still never be called, when the program calls
    # the function through another module's name; its metric then reads 0
    # as if the work did not happen. Each probe is installed alone, so that
    # probes feeding one counter are checked one by one.
    _, _, span, counter = probe
    cfg = SearchConfig(beam_width=8, max_length=6, target_accuracy=2.0)
    with tracing.Tracer("probe") as tracer:
        tracer.install([probe])
        run_search(trains.kb, trains.examples, cfg, stats=trains.stats,
                   mb=trains.mb)
    assert tracer.missing == {}
    if span is not None:
        assert tracer.total(span) > 0
    if counter is not None:
        assert tracer.counts[counter] > 0

"""The benchmark's layer probes name functions that exist.

``bench/tracing.py`` wraps module attributes by name, and reports a metric
whose wrapped name is gone as not measured. A rename in the program would
turn a per-layer figure into "not measured" without failing anything, so
this test resolves every probe the traced runs install.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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

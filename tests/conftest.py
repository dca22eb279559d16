import warnings
from dataclasses import dataclass
from pathlib import Path

import pytest

from dlbeam.concept import sort_key
from dlbeam.fixtures import fixture_path
from dlbeam.kb import (ExampleSet, KbStatistics, KnowledgeBase, SymbolTable,
                       compute_statistics, materialize, parse_examples,
                       parse_kb)
from dlbeam.refine import build_mb

# When a hypothesis test fails, hypothesis's pytest plugin imports its patch
# writer, whose libcst import warns of a deprecation in mypy_extensions; under
# filterwarnings = error that aborts the whole session. Imported here once
# with the warning ignored, a failing property stays a plain test failure.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@dataclass
class LoadedKb:
    st: SymbolTable
    kb: KnowledgeBase
    stats: KbStatistics
    mb: list
    examples: ExampleSet


def load_fixture(name: str) -> LoadedKb:
    st, kb = parse_kb(Path(fixture_path(f"{name}.kb")).read_text())
    materialize(kb, st)
    stats = compute_statistics(kb)
    examples = parse_examples(Path(fixture_path(f"{name}.ex")).read_text(), st)
    return LoadedKb(st, kb, stats, build_mb(kb, stats), examples)


@pytest.fixture(scope="session")
def trains() -> LoadedKb:
    return load_fixture("trains")


@pytest.fixture(scope="session")
def smoke() -> LoadedKb:
    return load_fixture("smoke")


def open_list_order(n):
    """The open-list order, recomputed from scratch: best score first, then
    the canonical order of the concepts."""
    return (-n.score.value, sort_key(n.concept))


@pytest.fixture
def check_open_list(monkeypatch):
    """Wrap a module's ``extract_best_nodes`` so that every call first checks
    that the open list is in order and that each node's stored key is the
    order recomputed from scratch. Returns the list of open-list sizes seen,
    one per call."""
    calls: list[int] = []

    def install(module):
        original = module.extract_best_nodes

        def checked(st, k, expandable_only=True):
            keys = [open_list_order(n) for n in st]
            assert [n.key for n in st] == keys
            # A stable sort leaves st as it is exactly when its keys ascend.
            assert keys == sorted(keys)
            calls.append(len(st))
            return original(st, k, expandable_only)

        monkeypatch.setattr(module, "extract_best_nodes", checked)
        return calls

    return install

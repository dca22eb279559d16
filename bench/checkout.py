"""Locates the program under test in the checkout the benchmark runs from.

The benchmark imports ``dlbeam`` from the checkout's ``src/`` and never from
an installed copy, so it always measures the code it was checked out with.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLE = ROOT / "tests" / "naive_oracle.py"


class MissingProgram(RuntimeError):
    """The checkout does not hold the program or its reference oracle."""


def use_checkout() -> None:
    """Put ``src/`` first on ``sys.path``; raise if the program is absent."""
    for path in (SRC / "dlbeam" / "__init__.py", ORACLE):
        if not path.is_file():
            raise MissingProgram(f"{path.relative_to(ROOT)} not found under {ROOT}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    import dlbeam
    if Path(dlbeam.__file__).resolve().parent != SRC / "dlbeam":
        raise MissingProgram(f"dlbeam was imported from {dlbeam.__file__}, not {SRC}")


def load_oracle():
    """Import ``tests/naive_oracle.py`` as a module, without editing it."""
    spec = importlib.util.spec_from_file_location("naive_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

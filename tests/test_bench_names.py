"""The traced benchmark wraps package functions by name; every name it
lists must still resolve, so a rename fails here rather than in a traced
benchmark run."""

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    """Execute perfbench/tracing.py from its source, writing no bytecode."""
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_wrapped_names_resolve():
    tracing = load_tracing()
    names = [target for targets in tracing.STAGES.values() for target in targets]
    names += tracing.HOT.values()
    missing = [
        f"pdesctl.{module}.{attr}"
        for module, attr in names
        if not callable(getattr(importlib.import_module(f"pdesctl.{module}"), attr, None))
    ]
    assert not missing

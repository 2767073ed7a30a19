"""The traced benchmark wraps package functions by name and sizes some of
their results; every name it lists must still resolve and every size must
read a real result, so a rename fails here rather than in a traced
benchmark run."""

import importlib
import types
from pathlib import Path

from pdesctl import TrialConfig, infimal_co_support, scaling_from_spec, supervisor_from_scaling
from conftest import branch_plant, branch_spec, robot_plant, robot_spec

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


def sized_stage_args():
    """Arguments of each sized stage's function, on the worked examples."""
    robot, branches = (robot_plant(), robot_spec()), (branch_plant(), branch_spec())
    sup = supervisor_from_scaling(scaling_from_spec(*robot))
    return {
        "verification.tc": robot,
        "verification.to": robot,
        "supervisor.classes": robot,
        "infimal.saturate": branches,
        "infimal.refine": branches + (infimal_co_support(*branches),),
        "simulate.trials": (robot[0], sup, TrialConfig(trials=20, max_depth=3, seed=1)),
    }


def test_result_sizes_read_real_results():
    tracing = load_tracing()
    args = sized_stage_args()
    assert set(tracing.RESULT_SIZES) <= set(args)
    for name, (count, size) in tracing.RESULT_SIZES.items():
        module, attr = tracing.STAGES[name][0]
        result = getattr(importlib.import_module(f"pdesctl.{module}"), attr)(*args[name])
        value = size(result)
        assert isinstance(value, int) and value > 0, (count, value)

"""The benchmark's tracer (perfbench/tracing.py) wraps rtoa functions by
name and binds some of their parameters by name.  These tests load it
read-only, without writing bytecode next to it, so a rename that would only
break a traced benchmark run fails here."""

import inspect
import types
from pathlib import Path

from rtoa.spectral import completeness_check

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_wrapped_name_resolves():
    tracing = _tracing()
    resolved = tracing.resolve_targets()
    assert len(resolved) == len(tracing.TARGETS)


def test_completeness_keeps_the_parameter_names_the_tracer_binds():
    assert list(inspect.signature(completeness_check).parameters)[:3] == [
        "test_fn",
        "tau_window",
        "tau_step",
    ]

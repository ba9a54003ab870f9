"""The bench tracer's hooks: a package name it wraps must not be deleted or renamed away."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Wrapped names that no longer resolve in the package.  Their layers read 0 until the tracer
# wraps what cells call now (ROADMAP item 0), which also empties this set.
DARK = {"metrics.error_report", "noise.perturb_stefan_data"}


def test_only_known_trace_hooks_are_dark():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    dark = {f"{layer}.{name}" for layer, (home, names) in tracing.FUNCTIONS.items()
            for name in names if not callable(getattr(importlib.import_module(home), name, None))}
    assert dark == DARK

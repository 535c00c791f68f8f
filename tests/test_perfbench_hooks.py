"""The benchmark's layer hooks still find every library name they wrap.

`perfbench/tracing.py` wraps library callables by name; a renamed or
deleted target would turn its layer metrics into `missing` in a benchmark
run. This catches that in the test suite instead.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_benchmark_hook_finds_its_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.unhook()

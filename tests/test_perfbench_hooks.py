"""The benchmark's layer hooks still find every library name they wrap.

`perfbench/tracing.py` wraps library callables by name; a renamed or
deleted target would turn its layer metrics into `missing` in a benchmark
run. This catches that in the test suite instead, and checks that the
counters read from hooked arguments see what the model passes.
"""

import importlib
from pathlib import Path

import numpy as np

from dreamer import DreamerModel, desk_config
from dreamer import tensor as T

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def install(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing").install()


def test_every_benchmark_hook_finds_its_target(monkeypatch):
    tracer = install(monkeypatch)
    try:
        assert tracer.missing == []
    finally:
        tracer.unhook()


def test_routing_counters_see_one_dr_da_forward(monkeypatch):
    cfg = desk_config("DR_DA", 2, vocab_size=32, context_length=16)
    model = DreamerModel(cfg, seed=0)
    tokens = np.arange(12).reshape(2, 6) % cfg.vocab_size
    tracer = install(monkeypatch)
    try:
        tracer.begin_op(0)
        with T.no_grad():
            model.model_forward(tokens)
        tracer.end_op()
    finally:
        tracer.unhook()
    counts = tracer.counts[0]
    for key in ("bank_pairs", "bank_run", "ea_pairs", "matmul_calls"):
        assert counts[key] > 0, key
    assert counts["bank_pairs"] <= counts["bank_run"]
    # per depth: SA and DA each route their qkv and out banks, one pair per row
    assert counts["bank_pairs"] == cfg.depth * 2 * 2 * tokens.size
    assert counts["ea_pairs"] == cfg.depth * tokens.size * cfg.ea_active_experts
    # the span tree that `attention.gqa_ms.sa` and `.da` are read from
    spans = tracer.spans()
    names = [s[0] for s in spans]
    for module in ("model.sa", "model.da", "model.ea"):
        assert names.count(module) == cfg.depth, module
    assert names.count("attention.gqa") == 2 * cfg.depth
    for s in spans:
        if s[0] == "attention.gqa":
            parent = s[3]
            while parent >= 0 and spans[parent][0] not in ("model.sa", "model.da"):
                parent = spans[parent][3]
            assert parent >= 0

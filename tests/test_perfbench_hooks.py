"""The benchmark's layer hooks still find every library name they wrap.

`perfbench/tracing.py` wraps library callables by name; a renamed or
deleted target would turn its layer metrics into `missing` in a benchmark
run. This catches that in the test suite instead, and checks that the
counters read from hooked arguments see what the model passes, and that
the benchmark's run information reads BLAS as the library's manifest does.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

import dreamer
import dreamer.cli
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


def test_tape_counters_read_the_tape_before_backward_consumes_it(monkeypatch):
    # `tensor.tape_nodes` and `tensor.tape_mib` are counted at `eval`, so
    # the backward that frees the tape as it walks does not blind them:
    # one tiny DR_DA train step, against the tape seen just before backward
    cfg = desk_config("DR_DA", 2, hidden_size=16, vocab_size=16, context_length=16,
                      ea_num_experts=4, ea_active_experts=2, ea_intermediate_size=8,
                      batch_size=2)
    before = []
    real_backward = T.backward

    def measuring_backward(loss, inputs):
        tape = T._topo(loss)
        before.append((len(tape), sum(node.data.nbytes for node in tape)))
        del tape
        grads = real_backward(loss, inputs)
        assert len(T._topo(loss)) == 1  # consumed: the loss has no parents left
        return grads

    monkeypatch.setattr(T, "backward", measuring_backward)
    tracer = install(monkeypatch)
    try:
        tracer.begin_op(0)
        dreamer.train(cfg, dreamer.TaskSpec("copy", 9, 16), 1)
        tracer.end_op()
    finally:
        tracer.unhook()
    counts = tracer.counts[0]
    assert counts["tape_evals"] == len(before) == 1
    assert (counts["tape_nodes"], counts["tape_bytes"]) == before[0]
    assert before[0][0] > 100


def test_benchmark_and_manifest_read_the_same_blas(monkeypatch):
    # `run._openblas` and `cli._blas_info` each hold a ctypes reader of
    # numpy's bundled OpenBLAS; a fix to one alone would split them
    monkeypatch.syspath_prepend(str(PERFBENCH))
    config, threads = importlib.import_module("run")._openblas()
    if threads is None:
        pytest.skip("numpy has no bundled OpenBLAS to read")
    info = dreamer.cli._blas_info()
    assert [info["blas_name"], info["blas_version"]] == config.split()[:2]
    assert info["blas_threads"] == threads

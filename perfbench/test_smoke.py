"""Smoke test of the benchmark itself, at tiny size.

    python -m pytest perfbench/test_smoke.py

Each workload runs end to end and traced for about a second. The test
checks that every metric BENCHMARK.json names is reported with its unit,
that the checks pass, that spans nest inside their parents and their op,
and that no self time is negative.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402


def run(workload, trace, *extra):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics(workload):
    result = run(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_spans_nest(workload, tmp_path):
    spans_path = tmp_path / "spans.json"
    result = run(workload, 1, "--spans-out", str(spans_path))
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] is not None for v in result["metrics"].values())

    dump = json.loads(spans_path.read_text())
    assert dump["missing"] == []
    spans = [[s["name"], s["start"], s["end"], s["parent"], s["op"], s["tag"]]
             for s in dump["spans"]]
    assert spans
    for s in spans:
        assert s[1] <= s[2]
        if s[3] >= 0:
            parent = spans[s[3]]
            assert parent[1] <= s[1] and s[2] <= parent[2] and parent[4] == s[4]
    assert min(tracing.self_times(spans)) >= 0


def test_missing_hook_target_degrades():
    tracer = tracing.Tracer()
    tracer.hook("dreamer.model", "no_such_function", "x")
    tracer.hook("dreamer.model", "DreamerModel.no_such_method", "x")
    assert tracer.missing == ["dreamer.model.no_such_function",
                              "dreamer.model.DreamerModel.no_such_method"]
    tracer.missing.append("dreamer.model.bank_apply")
    values, _ = tracing.layer_metrics(tracer, [1.0], 1, [1], [1.0])
    assert values["routing.bank_apply_ms"] is None
    assert values["routing.bank_useful_ratio"] is None
    assert values["model.sa_ms"] == 0.0

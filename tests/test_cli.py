"""End-to-end command-line behavior through main()."""

import csv
import json

import numpy as np
import pytest

from dreamer.cli import main
from dreamer.config import desk_config
from dreamer.model import DreamerModel
from dreamer.params import load_checkpoint
from dreamer.telemetry import TelemetryLog, gini
from dreamer import tensor as T


def write_config(tmp_path, name="model.json", variant="DR_DA", depth=2, **overrides):
    base = dict(hidden_size=16, vocab_size=16, context_length=16,
                ea_num_experts=4, ea_active_experts=2, ea_intermediate_size=8,
                batch_size=2, warmup_steps=4)
    base.update(overrides)
    cfg = desk_config(variant, depth, **base)
    path = tmp_path / name
    path.write_text(cfg.to_json())
    return path, cfg


def run_train(tmp_path, out_name="run", steps=2, extra=(), config_path=None):
    if config_path is None:
        config_path, _ = write_config(tmp_path)
    out = tmp_path / out_name
    code = main(["train", "--config", str(config_path), "--task", "copy",
                 "--seq-len", "9", "--steps", str(steps),
                 "--out", str(out), *extra])
    return code, out


def test_train_writes_run_directory(tmp_path):
    code, out = run_train(tmp_path, steps=2)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["seed"] == 0
    assert len(manifest["config_hash"]) == 64
    lines = (out / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 2
    ckpts = sorted(p.name for p in (out / "checkpoints").iterdir())
    assert ckpts == ["final.ckpt", "step_000000.ckpt"]


def test_train_zero_steps(tmp_path):
    code, out = run_train(tmp_path, steps=0)
    assert code == 0
    assert (out / "metrics.jsonl").read_text() == ""
    ckpts = sorted(p.name for p in (out / "checkpoints").iterdir())
    assert ckpts == ["step_000000.ckpt"]


def test_train_missing_and_invalid_config(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "r1")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"hiden_size": 32}))
    assert main(["train", "--config", str(bad),
                 "--out", str(tmp_path / "r2")]) == 2
    assert "hiden_size" in capsys.readouterr().err


def test_train_rejects_negative_checkpoint_every(tmp_path, capsys):
    code, _ = run_train(tmp_path, extra=("--checkpoint-every", "-1"))
    assert code == 2
    assert "checkpoint_every" in capsys.readouterr().err


def test_train_refuses_nonempty_out_without_force(tmp_path):
    config_path, _ = write_config(tmp_path)
    code, out = run_train(tmp_path, steps=0, config_path=config_path)
    assert code == 0
    code, _ = run_train(tmp_path, steps=0, config_path=config_path)
    assert code == 2
    code, _ = run_train(tmp_path, steps=0, extra=("--force",),
                        config_path=config_path)
    assert code == 0


def test_train_same_seed_same_metrics_in_float64(tmp_path):
    config_path, _ = write_config(tmp_path)
    _, out_a = run_train(tmp_path, "a", steps=3, config_path=config_path,
                         extra=("--precision", "float64", "--seed", "5"))
    _, out_b = run_train(tmp_path, "b", steps=3, config_path=config_path,
                         extra=("--precision", "float64", "--seed", "5"))
    assert (out_a / "metrics.jsonl").read_bytes() == (out_b / "metrics.jsonl").read_bytes()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_train_numeric_failure_exit_code(tmp_path):
    config_path, _ = write_config(tmp_path, max_lr=1e9, grad_clip=1e12,
                                  warmup_steps=1)
    code, _ = run_train(tmp_path, steps=60, config_path=config_path)
    assert code == 3


def test_usage_error_exit_code():
    assert main([]) == 2
    assert main(["train"]) == 2


def test_match_self_and_reports(tmp_path):
    base, _ = write_config(tmp_path, "base.json", variant="LA", depth=2)
    out = tmp_path / "match"
    code = main(["match", "--baseline", str(base), "--candidate", str(base),
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "match_report.json").read_text())
    assert report["flops_error"] == 0.0
    assert report["params_error"] == 0.0
    matched = json.loads((out / "matched_config.json").read_text())
    assert matched["variant"] == "LA"


def test_match_depth_mismatch(tmp_path, capsys):
    base, _ = write_config(tmp_path, "base.json", variant="LA", depth=2)
    cand, _ = write_config(tmp_path, "cand.json", variant="DR", depth=3)
    code = main(["match", "--baseline", str(base), "--candidate", str(cand),
                 "--out", str(tmp_path / "m")])
    assert code == 2
    assert "depth" in capsys.readouterr().err


def test_match_boundary_warning(tmp_path):
    base, _ = write_config(tmp_path, "base.json", variant="LA", depth=2,
                           ea_num_experts=2, ea_active_experts=1)
    cand, _ = write_config(tmp_path, "cand.json", variant="DR", depth=2,
                           ea_num_experts=32, ea_active_experts=8,
                           ea_intermediate_size=64)
    out = tmp_path / "m"
    code = main(["match", "--baseline", str(base), "--candidate", str(cand),
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "match_report.json").read_text())
    assert report["boundary"] is True
    assert "warning" in report


def checkpoint_from_train(tmp_path, variant="DR_DA"):
    config_path, cfg = write_config(tmp_path, f"{variant}.json", variant=variant)
    out = tmp_path / f"train_{variant}"
    assert main(["train", "--config", str(config_path), "--task", "copy",
                 "--seq-len", "9", "--steps", "0", "--out", str(out)]) == 0
    return out / "checkpoints" / "step_000000.ckpt", cfg


def test_analyze_checkpoint_artifacts(tmp_path):
    ckpt, cfg = checkpoint_from_train(tmp_path)
    out = tmp_path / "analysis"
    code = main(["analyze", "--checkpoint", str(ckpt), "--sequences", "3",
                 "--seq-len", "8", "--out", str(out)])
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["da_score_map.csv", "lorenz.csv", "manifest.json",
                     "p_depth_given_expert.csv", "p_expert_given_depth.csv",
                     "summary.json", "telemetry.jsonl"]
    with open(out / "p_expert_given_depth.csv") as fh:
        rows = [[float(v) for v in row] for row in csv.reader(fh)]
    assert len(rows) == cfg.depth
    for row in rows:
        assert sum(row) == pytest.approx(1.0, abs=1e-9)
    with open(out / "da_score_map.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][1] == ""  # above-diagonal cell is structurally absent
    assert float(rows[0][0]) == 1.0
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["routers"]) == {"ea", "sa", "da"}


def test_analyze_la_checkpoint_has_no_depth_map(tmp_path):
    ckpt, _ = checkpoint_from_train(tmp_path, variant="LA")
    out = tmp_path / "analysis_la"
    code = main(["analyze", "--checkpoint", str(ckpt), "--sequences", "2",
                 "--seq-len", "8", "--out", str(out)])
    assert code == 0
    names = {p.name for p in out.iterdir()}
    assert "da_score_map.csv" not in names
    assert "p_depth_given_expert.csv" in names


def test_analyze_telemetry_file_matches_oracles(tmp_path):
    log = TelemetryLog()
    ids = np.array([[0], [1], [1], [3]])
    gates = np.full((4, 1), 1.0)
    log.add_routing("layer.ea", 0, ids, gates)
    log.add_routing("layer.ea", 1, ids[:2], gates[:2])
    tele = tmp_path / "tele.jsonl"
    log.save(tele)
    out = tmp_path / "analysis_t"
    code = main(["analyze", "--telemetry", str(tele), "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    counts = np.array([1, 3, 0, 2], dtype=np.float64)  # totals over both depths
    assert summary["routers"]["ea"]["gini"] == pytest.approx(gini(counts))
    assert summary["routers"]["ea"]["unique_experts_per_depth"] == [3, 2]


@pytest.mark.parametrize("record,message", [
    ({"kind": "route", "router": "layer.ea"}, "missing 'depth'"),
    ({"kind": "route", "router": "layer.ea", "depth": "0", "experts": [[0]], "gates": [[1.0]]},
     "'depth' must be int"),
    ([{"kind": "route"}], "must be a JSON object"),
    ({"kind": "route", "router": "layer.ea", "depth": -1, "experts": [[2]], "gates": [[1.0]]},
     "must be >= 0"),
    ({"kind": "route", "router": "layer.ea", "depth": 0, "experts": [[-1]], "gates": [[1.0]]},
     "must be >= 0"),
    ({"kind": "depth_scores", "depth": -1, "tokens": 4, "scores": []}, ">= 0"),
    ({"kind": "depth_scores", "depth": 0, "tokens": -4, "scores": [1.0]}, ">= 0"),
])
def test_analyze_rejects_malformed_telemetry_records(tmp_path, capsys, record, message):
    good = {"kind": "route", "router": "layer.ea", "depth": 0, "experts": [[0]], "gates": [[1.0]]}
    tele = tmp_path / "tele.jsonl"
    tele.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n")
    code = main(["analyze", "--telemetry", str(tele), "--out", str(tmp_path / "a")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{tele}:2: " in err and message in err


def test_analyze_rejects_overlong_sequences(tmp_path):
    ckpt, _ = checkpoint_from_train(tmp_path)
    code = main(["analyze", "--checkpoint", str(ckpt), "--seq-len", "64",
                 "--out", str(tmp_path / "a")])
    assert code == 2


def test_generate_echo_and_oracle(tmp_path, capsys):
    ckpt, cfg = checkpoint_from_train(tmp_path)
    capsys.readouterr()
    code = main(["generate", "--checkpoint", str(ckpt),
                 "--prompt-tokens", "1,2,3", "--n", "0"])
    assert code == 0
    assert capsys.readouterr().out.split() == ["1", "2", "3"]

    code = main(["generate", "--checkpoint", str(ckpt),
                 "--prompt-tokens", "1,2,3", "--n", "4"])
    assert code == 0
    got = [int(v) for v in capsys.readouterr().out.split()]
    cfg2, store = load_checkpoint(ckpt)
    oracle = DreamerModel(cfg2, store).decode(np.array([[1, 2, 3]]), 4)
    assert got == oracle.reshape(-1).tolist()


def test_generate_error_paths(tmp_path, capsys):
    ckpt, _ = checkpoint_from_train(tmp_path)
    assert main(["generate", "--checkpoint", str(ckpt),
                 "--prompt-tokens", "1,2", "--n", "999"]) == 2
    assert main(["generate", "--checkpoint", str(ckpt),
                 "--prompt-tokens", "1,a"]) == 2
    capsys.readouterr()


def test_output_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("DREAMER_OUTPUT_ROOT", str(tmp_path / "root"))
    base, _ = write_config(tmp_path, "base.json", variant="LA", depth=2)
    code = main(["match", "--baseline", str(base), "--candidate", str(base)])
    assert code == 0
    assert (tmp_path / "root" / "match_run" / "match_report.json").exists()

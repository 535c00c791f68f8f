"""Command-line entry point for training, matching, analysis, and decoding."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .config import ModelConfig, load_config
from .costs import DFF_RANGE, EXPERTS_RANGE_MAX, cost_report, match_model
from .errors import ConfigError, DreamerError, InputError, NumericError
from .model import DreamerModel
from .params import load_checkpoint
from .telemetry import (TelemetryLog, da_score_map, depth_unique_expert_profile, gini,
                        generalization_order, joint_to_conditionals, lorenz,
                        support_size, usage_matrix)
from .training import TaskSpec, make_task, train, validate_run

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
OUTPUT_ROOT_VAR = "DREAMER_OUTPUT_ROOT"

PRECISIONS = {"float32": np.float32, "float64": np.float64}

# every file `analyze` may write besides the manifest
ANALYSIS_OUTPUTS = ("telemetry.jsonl", "p_depth_given_expert.csv",
                    "p_expert_given_depth.csv", "lorenz.csv", "da_score_map.csv",
                    "summary.json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dreamer",
        description="Depth-recurrent attention-mixture language models.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common_out = dict(help="run directory (default: $%s/<command>_run)" % OUTPUT_ROOT_VAR)

    p = sub.add_parser("train", help="train a model on a task")
    p.add_argument("--config", required=True, help="model config file")
    p.add_argument("--task", default="copy",
                   choices=("copy", "reverse", "modular_sum_chain", "token_lm"))
    p.add_argument("--seq-len", type=int, default=64)
    p.add_argument("--task-vocab", type=int, default=0,
                   help="task vocab (default: model vocab)")
    p.add_argument("--modulus", type=int, default=0)
    p.add_argument("--token-file", default=None)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--precision", choices=sorted(PRECISIONS), default="float32")
    p.add_argument("--checkpoint-every", type=int, default=0)
    p.add_argument("--out", default=None, **common_out)
    p.add_argument("--force", action="store_true",
                   help="allow writing into a non-empty run directory")

    p = sub.add_parser("match", help="match a config to a baseline's costs")
    p.add_argument("--baseline", required=True)
    p.add_argument("--candidate", required=True)
    p.add_argument("--seq-len", type=int, default=1024)
    p.add_argument("--out", default=None, **common_out)
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("analyze", help="collect routing telemetry and statistics")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--checkpoint", help="model checkpoint to drive")
    src.add_argument("--telemetry", help="pre-recorded telemetry file to analyze")
    p.add_argument("--task", default="random",
                   choices=("random", "copy", "reverse", "modular_sum_chain", "token_lm"),
                   help="sequence source when driving a checkpoint")
    p.add_argument("--token-file", default=None)
    p.add_argument("--modulus", type=int, default=0)
    p.add_argument("--seq-len", type=int, default=64)
    p.add_argument("--sequences", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--precision", choices=sorted(PRECISIONS), default="float32")
    p.add_argument("--out", default=None, **common_out)
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("generate", help="greedy-decode from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--prompt-tokens", required=True,
                   help="comma-separated token ids")
    p.add_argument("--n", type=int, default=16, help="tokens to generate")
    p.add_argument("--precision", choices=sorted(PRECISIONS), default="float32")
    return parser


def _resolve_out(args) -> Path:
    """Create the run directory; call it only once the command's inputs are checked."""
    if args.out is not None:
        out = Path(args.out)
    else:
        root = Path(os.environ.get(OUTPUT_ROOT_VAR, "."))
        out = root / f"{args.command}_run"
    if out.is_dir() and any(out.iterdir()) and not args.force:
        raise InputError(
            f"run directory {out} is not empty; pass --force to reuse it")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create run directory {out}: {exc}") from None
    return out


def _write_manifest(out: Path, args, config_source: str,
                    cfg: ModelConfig | None, seed: int | None):
    manifest = {
        "command": args.command,
        "config_path": config_source,
        "config_hash": cfg.config_hash() if cfg is not None else None,
        "seed": seed,
        "out_dir": str(out),
        "version": __version__,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _task_spec(args, cfg: ModelConfig) -> TaskSpec:
    vocab = args.task_vocab if getattr(args, "task_vocab", 0) else cfg.vocab_size
    return TaskSpec(kind=args.task, seq_len=args.seq_len, vocab_size=vocab,
                    seed=args.seed, modulus=args.modulus, path=args.token_file)


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    spec = _task_spec(args, cfg)
    validate_run(cfg, spec, args.steps, args.checkpoint_every)
    out = _resolve_out(args)
    _write_manifest(out, args, args.config, cfg, args.seed)
    result = train(cfg, spec, args.steps, run_dir=out,
                   checkpoint_every=args.checkpoint_every, seed=args.seed,
                   dtype=PRECISIONS[args.precision])
    if result.history:
        last = result.history[-1]
        print(f"step {last['step']} loss {last['loss']:.6f}")
    print(f"run written to {out}")
    return EXIT_OK


def cmd_match(args) -> int:
    baseline = load_config(args.baseline)
    candidate = load_config(args.candidate)
    if baseline.depth != candidate.depth:
        raise ConfigError(
            f"depth mismatch: baseline {baseline.depth} vs candidate {candidate.depth}")
    result = match_model(candidate, baseline, seq_len=args.seq_len)
    matched = result.config
    at_boundary = (matched.ea_intermediate_size in DFF_RANGE
                   or matched.ea_num_experts in (max(1, matched.ea_active_experts),
                                                 EXPERTS_RANGE_MAX))
    report = {
        "flops_error": result.flops_error,
        "params_error": result.params_error,
        "memory_error": result.memory_error,
        "iterations": result.iterations,
        "boundary": at_boundary,
        "baseline": asdict(cost_report(baseline, args.seq_len)),
        "matched": asdict(cost_report(matched, args.seq_len)),
    }
    if at_boundary:
        report["warning"] = "search stopped at a bound of the expert knobs"
    out = _resolve_out(args)
    (out / "matched_config.json").write_text(matched.to_json() + "\n")
    (out / "match_report.json").write_text(json.dumps(report, indent=2) + "\n")
    _write_manifest(out, args, args.candidate, matched, None)
    print(f"flops error {result.flops_error:.4%}, params error {result.params_error:.4%}, "
          f"memory error {result.memory_error:.4%}")
    print(f"run written to {out}")
    return EXIT_OK


def _analysis_sequences(args, cfg: ModelConfig):
    if args.task == "random":
        rng = np.random.default_rng(args.seed)
        for _ in range(args.sequences):
            yield rng.integers(0, cfg.vocab_size, (1, args.seq_len))
    else:
        spec = _task_spec(args, cfg)
        for index in range(args.sequences):
            tokens, _ = make_task(spec, index)
            yield tokens[None, :]


def _write_csv(path: Path, rows, header=None):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)


def _analysis_artifacts(out: Path, log: TelemetryLog):
    produced = []
    routers = sorted({ev.router for ev in log.events})
    summary = {"events": len(log.events), "routers": {}}

    ea_counts = None
    for suffix_name, suffix in (("ea", ".ea"), ("sa", ".sa"), ("da", ".da")):
        if not any(r.endswith(suffix) for r in routers):
            continue
        counts = usage_matrix(log, suffix)
        totals = counts.sum(axis=0)
        entry = {
            "gini": gini(totals),
            "unique_experts_per_depth": depth_unique_expert_profile(counts)[0].tolist(),
        }
        if suffix_name == "ea":
            ea_counts = counts
        summary["routers"][suffix_name] = entry

    if ea_counts is not None:
        p_expert, p_depth, _, expert_defined = joint_to_conditionals(ea_counts)
        _write_csv(out / "p_depth_given_expert.csv", p_depth.tolist())
        _write_csv(out / "p_expert_given_depth.csv", p_expert.tolist())
        produced += ["p_depth_given_expert.csv", "p_expert_given_depth.csv"]
        order = generalization_order(p_depth, expert_defined)
        sizes = [support_size(p_depth[e]) for e in order if expert_defined[e]]
        histogram = {}
        for size in sizes:
            histogram[size] = histogram.get(size, 0) + 1
        summary["ea_generalization_order"] = [int(e) for e in order]
        summary["ea_support_size_histogram"] = {str(k): v for k, v in sorted(histogram.items())}
        curve = lorenz(ea_counts.sum(axis=0))
        _write_csv(out / "lorenz.csv", curve.tolist(),
                   header=("expert_share", "usage_share"))
        produced.append("lorenz.csv")

    if log.depth_rows:
        score_map, defined = da_score_map(log)
        rows = [[score_map[i, j] if defined[i, j] else ""
                 for j in range(score_map.shape[1])]
                for i in range(score_map.shape[0])]
        _write_csv(out / "da_score_map.csv", rows)
        produced.append("da_score_map.csv")

    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    produced.append("summary.json")
    return produced


def cmd_analyze(args) -> int:
    if args.telemetry:
        log = TelemetryLog.load(args.telemetry)
        out = _resolve_out(args)
        _write_manifest(out, args, args.telemetry, None, args.seed)
    else:
        for flag, value, low in (("--seq-len", args.seq_len, 1),
                                 ("--sequences", args.sequences, 1),
                                 ("--seed", args.seed, 0)):
            if value < low:
                raise ConfigError(f"{flag} must be >= {low}, got {value}")
        cfg, params = load_checkpoint(args.checkpoint,
                                      dtype=PRECISIONS[args.precision])
        if args.seq_len > cfg.context_length:
            raise ConfigError(
                f"seq_len {args.seq_len} exceeds context {cfg.context_length}")
        log = TelemetryLog()
        model = DreamerModel(cfg, params, telemetry=log)
        from .tensor import no_grad
        with no_grad():
            for tokens in _analysis_sequences(args, cfg):
                model.model_forward(tokens)
        out = _resolve_out(args)
        log.save(out / "telemetry.jsonl")
        _write_manifest(out, args, args.checkpoint, cfg, args.seed)
    produced = _analysis_artifacts(out, log)
    if not args.telemetry:
        produced.insert(0, "telemetry.jsonl")
    # a --force re-run leaves none of an earlier analysis's outputs behind
    for stale in set(ANALYSIS_OUTPUTS) - set(produced):
        (out / stale).unlink(missing_ok=True)
    print("wrote " + ", ".join(produced))
    print(f"run written to {out}")
    return EXIT_OK


def cmd_generate(args) -> int:
    cfg, params = load_checkpoint(args.checkpoint, dtype=PRECISIONS[args.precision])
    ids = []
    for tok in args.prompt_tokens.split(","):
        try:
            ids.append(np.int64(int(tok)))
        except ValueError as exc:
            raise InputError(f"prompt tokens must be integers: {exc}") from exc
        except OverflowError:
            raise InputError(f"prompt token {tok.strip()} does not fit in int64") from None
    prompt = np.array(ids, dtype=np.int64)
    model = DreamerModel(cfg, params)
    tokens = model.decode(prompt, args.n)
    for token in tokens.reshape(-1):
        print(int(token))
    return EXIT_OK


COMMANDS = {
    "train": cmd_train,
    "match": cmd_match,
    "analyze": cmd_analyze,
    "generate": cmd_generate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return COMMANDS[args.command](args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DreamerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()

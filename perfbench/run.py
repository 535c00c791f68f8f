"""Benchmark entry point: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload train|prefill|decode --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout: the library is imported from the
checkout's `src/`, never from an installed copy, and the run exits with
code 2 if that source tree is absent. The workloads are described in
`workloads.py` and README.md.

`--trace 0` reports the end-to-end metrics. Set-up is timed in fresh
interpreters (`probe.py`); the ops are timed in this process, which is
the workload's only process and whose peak RSS is reported. Set-up times,
and on `decode` the op times, are corrected to a reference host speed
with the kernel of `hostspeed.py`, run just before and just after each
probe or op.

`--trace 1` runs the workload for half the time untraced, then for half
the time with the layer hooks of `tracing.py` installed, and reports the
per-layer metrics together with the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# BLAS runs single-threaded in every workload process and set-up probe:
# the matrices are small, and one thread keeps the timings steady on a
# shared two-core machine.
BLAS_THREADS = 1
BLAS_ENV = {name: str(BLAS_THREADS) for name in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
SETUP_PROBES = 11  # timed probes per run; one more, untimed, warms the caches
PARAMS_REPEATS = 5

END_TO_END_UNITS = {"setup_s": "s", "tokens_per_s": "tokens/s", "op_ms_p50": "ms",
                    "op_ms_p75": "ms", "peak_rss_mib": "MiB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "prefill", "decode"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the smoke test")
    parser.add_argument("--spans-out", help="with --trace 1, write the spans to this JSON file")
    return parser.parse_args(argv)


# -- run information ----------------------------------------------------------

def _openblas():
    """(version string, live thread count) from numpy's bundled OpenBLAS."""
    import ctypes

    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    try:
        lib = ctypes.CDLL(libs[0])
        config = lib.scipy_openblas_get_config64_
        threads = lib.scipy_openblas_get_num_threads64_
    except (IndexError, OSError, AttributeError):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}", None
    config.restype = ctypes.c_char_p
    threads.restype = ctypes.c_int
    return config().decode(), threads()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None  # a plain checkout; src_sha256 identifies the code
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_info(args):
    import numpy as np
    blas, live_threads = _openblas()
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads_pinned": BLAS_THREADS,
            "blas_threads_live": live_threads, "git_commit": _git_commit(),
            "src_sha256": _src_digest(), "machine": platform.machine()}


# -- end to end ----------------------------------------------------------------------

def probe_setup(args, checkpoint):
    """Median set-up seconds of the probes, at the reference host speed.

    Set-up (imports and a checkpoint load or weight init) is bound by
    Python's own work, like decode, so each probe is bracketed by runs
    of the host-speed kernel.
    """
    import hostspeed
    command = [sys.executable, str(HERE / "probe.py"), args.workload, args.size,
               str(args.seed), checkpoint or "-"]
    samples = []
    before = hostspeed.first_bracket()
    for i in range(SETUP_PROBES + 1):
        out = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        after = hostspeed.kernel_seconds()
        if i:
            samples += hostspeed.corrected([float(out.stdout.split()[-1])], [before, after])
        before = after
    return statistics.median(samples)


def op_seconds(phase):
    """Per-op seconds, at the reference host speed where the loop timed the kernel."""
    import hostspeed
    return hostspeed.corrected(phase.seconds, phase.kernel) if phase.kernel else phase.seconds


def run_phase(workloads, args, size, model, seconds, tracer=None):
    if args.workload == "train":
        return workloads.run_train(size, args.seed, seconds, tracer)
    run = workloads.run_prefill if args.workload == "prefill" else workloads.run_decode
    return run(model, size, args.seed, seconds, tracer)


def end_to_end(workloads, args, size, checkpoint, lines):
    setup_s = probe_setup(args, checkpoint)
    model = None if args.workload == "train" else workloads.setup(
        args.workload, size, args.seed, checkpoint)
    phase = run_phase(workloads, args, size, model, args.seconds)
    failed = phase.failed
    if args.workload == "train":
        mismatched, loss = workloads.check_train_repeats(size, args.seed, phase.notes["losses"])
        failed += mismatched
        lines.append(f"loss at step {workloads.CHECK_STEPS - 1} (fixed; compare across "
                     f"commits): {loss!r}")
    elif args.workload == "prefill":
        lines.append(f"logits digest of batch 0: {phase.notes['digest']}")
    else:
        lines.append(f"requests: {len(phase.seconds)}, prompt tokens: "
                     f"{phase.notes['prompt_tokens']}, new tokens each: {size.new_tokens}")
    import hostspeed
    seconds = op_seconds(phase)
    times_ms = [1e3 * s for s in seconds]
    metrics = {
        "setup_s": setup_s,
        "tokens_per_s": sum(phase.tokens) / sum(seconds),
        "op_ms_p50": statistics.median(times_ms),
        "op_ms_p75": (statistics.quantiles(times_ms, n=4, method="inclusive")[2]
                      if len(times_ms) > 1 else times_ms[0]),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for name, value in metrics.items():
        lines.append(f"  {name:<14} {value:>12.4f} {END_TO_END_UNITS[name]}")
    lines.append(f"ops timed: {len(times_ms)} (after {workloads.WARMUP_OPS} untimed warm-up "
                 f"ops); set-up: median of {SETUP_PROBES} fresh processes")
    if phase.kernel:
        lines.append(f"op times above are at the reference host speed; measured op p50 "
                     f"{1e3 * statistics.median(phase.seconds):.4f} ms, host-speed kernel p50 "
                     f"{1e3 * statistics.median(phase.kernel):.4f} ms (reference "
                     f"{1e3 * hostspeed.REFERENCE_S:g} ms)")
    return len(phase.seconds), failed, {
        name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in metrics.items()}


# -- traced ----------------------------------------------------------------------------

def setup_layer_ms(workloads, args, size, checkpoint):
    """Median time of the params call that set-up makes on this workload."""
    if args.workload == "train":
        cfg = workloads.config("train", size)
        call = lambda: workloads.init_parameters(cfg, args.seed)  # noqa: E731
    else:
        call = lambda: workloads.load_checkpoint(checkpoint)  # noqa: E731
    samples = []
    for _ in range(PARAMS_REPEATS):
        t0 = time.perf_counter()
        call()
        samples.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(samples)


def traced(workloads, args, size, checkpoint, lines):
    import tracing
    model = None if args.workload == "train" else workloads.setup(
        args.workload, size, args.seed, checkpoint)
    plain = run_phase(workloads, args, size, model, args.seconds / 2)
    tracer = tracing.install()
    try:
        hooked = run_phase(workloads, args, size, model, args.seconds / 2, tracer)
    finally:
        tracer.unhook()
    failed = plain.failed + hooked.failed
    if args.workload == "train":  # tracing must not change a single loss
        failed += sum(a != b for a, b in zip(plain.notes["losses"], hooked.notes["losses"]))

    values, absent = tracing.layer_metrics(tracer, hooked.seconds, workloads.COUNT_OPS,
                                           hooked.tokens, hooked.analytic_flops)
    if args.workload == "train":
        setup_layer, unused = "params.init_parameters_ms", "params.load_checkpoint_ms"
    else:
        setup_layer, unused = "params.load_checkpoint_ms", "params.init_parameters_ms"
    values[setup_layer] = setup_layer_ms(workloads, args, size, checkpoint)
    values[unused] = 0.0
    absent.append(unused)
    values["trace.overhead_ratio"] = (statistics.median(op_seconds(hooked))
                                      / statistics.median(op_seconds(plain)))
    values["trace.span_coverage"] = tracing.coverage(tracer, hooked.seconds)
    if args.spans_out:
        tracer.write(args.spans_out)

    lines.append(f"ops: {len(plain.seconds)} untraced, {len(hooked.seconds)} traced; "
                 f"counts and ratios over the first {workloads.COUNT_OPS} traced ops")
    lines.append("unmeasured layers (on no timed path): " + ", ".join(tracing.UNMEASURED))
    if tracer.missing:
        lines.append("missing hook targets: " + ", ".join(tracer.missing))
    metrics = {}
    for name, (unit, _) in tracing.LAYER_METRICS.items():
        value = values[name]
        shown = "missing" if value is None else f"{value:.6g}"
        note = "  (absent: not on this workload's path)" if name in absent else ""
        lines.append(f"  {name:<32} {shown:>12} {unit}{note}")
        metrics[name] = {"value": value, "unit": unit}
    return len(plain.seconds) + len(hooked.seconds), failed, metrics


# -- main ------------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dreamer" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC / 'dreamer'}; "
              "run from the root of a checkout of the repository", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy loads OpenBLAS
    sys.path.insert(0, str(SRC))
    import workloads
    if Path(workloads.dreamer.__file__).resolve().parent != SRC / "dreamer":
        print(f"perfbench: imported dreamer from {workloads.dreamer.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    size = workloads.SIZES[args.size]
    lines = [f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
             f"trace={args.trace} size={args.size}"]
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        checkpoint = None
        if args.workload != "train":
            checkpoint = os.path.join(scratch, "model.ckpt")
            workloads.write_checkpoint(args.workload, size, args.seed, checkpoint)
        measure = traced if args.trace else end_to_end
        try:
            attempted, failed, metrics = measure(workloads, args, size, checkpoint, lines)
        except workloads.dreamer.DreamerError as exc:
            print(f"perfbench: {args.workload} failed: {exc!r}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = min(failed, attempted)  # several checks can fail on one op
    lines.append(f"ops attempted: {attempted}, failed: {failed}")
    print("\n".join(lines))
    print("# run " + json.dumps(run_info(args), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

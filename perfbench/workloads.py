"""The three benchmark workloads: inputs from the seed, op loops and checks.

Every workload is a closed loop with one caller: the next op starts only
after the previous one returned. Inputs and weights are a pure function of
the seed, and every op is checked outside its timed region. A library
error (`DreamerError`) raised by a timed op makes that op a failed op; an
error during set-up or warm-up ends the run without a result.

  train    DR_DA trained on the copy task through `dreamer.train`; one op is
           one optimizer step, timed between `stop_when` callbacks. The only
           workload that records a tape and runs backward and AdamW.
  prefill  LA loaded from a checkpoint, forward-only `model_forward` under
           `no_grad` on full-context batches; one op is one batch. No banks,
           no depth attention, no tape, no optimizer.
  decode   DR_DA loaded from a checkpoint, batch-1 greedy `decode`; one op is
           one request for 16 new tokens, the default of `dreamer generate
           --n`, on prompts of 8 to 64 tokens cycled in a seeded order. The
           only workload that uses the SA and DA caches.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

import dreamer
import hostspeed
from dreamer import (DreamerModel, OptimizerState, TaskSpec, count_flops,
                     desk_config, init_parameters, load_checkpoint,
                     save_checkpoint)
from dreamer import tensor as T

WORKLOADS = ("train", "prefill", "decode")
VARIANT = {"train": "DR_DA", "prefill": "LA", "decode": "DR_DA"}
WARMUP_OPS = 2  # untimed ops before the measured loop
CHECK_STEPS = 10  # train steps re-run to check that losses repeat; the
# loss at the last of them is the one to compare across commits
PREFILL_POOL = 4  # distinct prefill batches, cycled so digests can repeat
COUNT_OPS = 4  # leading ops whose counters give the exactly repeating counts


@dataclass(frozen=True)
class Size:
    depth: int
    overrides: dict = field(default_factory=dict)
    train_seq: int = 64
    task_vocab: int = 64
    prefill_batch: int = 8
    prefill_seq: int = 256
    prompt_min: int = 8
    prompt_max: int = 64
    prompt_step: int = 4  # prompt lengths 8, 12, ..., 64
    new_tokens: int = 16  # the default of `dreamer generate --n`


SIZES = {
    "full": Size(depth=4),
    # For the smoke test only: every code path, a few milliseconds per op.
    "tiny": Size(depth=2, overrides=dict(hidden_size=16, vocab_size=32, context_length=32,
                                         ea_num_experts=4, ea_active_experts=2,
                                         ea_intermediate_size=8, batch_size=2),
                 train_seq=8, task_vocab=16, prefill_batch=2, prefill_seq=16,
                 prompt_min=3, prompt_max=6, prompt_step=1, new_tokens=3),
}


def config(workload: str, size: Size):
    return desk_config(VARIANT[workload], size.depth, **size.overrides)


def write_checkpoint(workload: str, size: Size, seed: int, path: str):
    """Seeded initial weights for the workloads that load a checkpoint."""
    cfg = config(workload, size)
    save_checkpoint(path, cfg, init_parameters(cfg, seed))


def setup(workload: str, size: Size, seed: int, checkpoint: str | None):
    """The timed set-up after imports: model and optimizer build, or load."""
    if workload == "train":
        cfg = config(workload, size)
        model = DreamerModel(cfg, init_parameters(cfg, seed))
        OptimizerState.for_store(model.params, cfg)
        return model
    cfg, store = load_checkpoint(checkpoint)
    return DreamerModel(cfg, store)


@dataclass
class Phase:
    """What one measured loop did: per-op wall time and work, and failures."""

    seconds: list = field(default_factory=list)
    kernel: list = field(default_factory=list)  # host-speed kernel runs around the ops (decode)
    tokens: list = field(default_factory=list)  # tokens trained, run or generated
    analytic_flops: list = field(default_factory=list)  # count_flops work per op
    failed: int = 0
    notes: dict = field(default_factory=dict)


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


# -- train ------------------------------------------------------------------------

def train_losses(size: Size, seed: int, seconds: float, tracer=None, steps=None):
    """Run `dreamer.train` until `seconds` have passed after the warm-up.

    Returns (per-step losses, per-op seconds, failed ops). One op is the
    time between two `stop_when` callbacks. A step that aborts training
    with NumericError is one failed op, timed up to the abort, and ends
    the loop. With `steps`, runs exactly that many steps instead.
    """
    cfg = config("train", size)
    task = TaskSpec("copy", size.train_seq, size.task_vocab, seed=seed)
    marks = [time.perf_counter()]  # marks[WARMUP_OPS] ends the warm-up
    recorded = []

    def stop_when(record, history):
        recorded.append(record)
        marks.append(time.perf_counter())
        if tracer is not None:
            tracer.end_op()
        if steps is not None or len(marks) <= WARMUP_OPS:
            return False
        if marks[-1] - marks[WARMUP_OPS] >= seconds:
            return True
        if tracer is not None:
            tracer.begin_op(len(marks) - 1 - WARMUP_OPS)
        return False

    failed = 0
    try:
        dreamer.train(cfg, task, steps if steps is not None else 10**9,
                      seed=seed, stop_when=stop_when)
    except dreamer.NumericError:
        marks.append(time.perf_counter())
        failed = 1
    losses = [record["loss"] for record in recorded]
    timed = marks[min(WARMUP_OPS, len(marks) - 2):]
    return losses, list(np.diff(timed)), failed


def run_train(size: Size, seed: int, seconds: float, tracer=None) -> Phase:
    cfg = config("train", size)
    phase = Phase()
    losses, phase.seconds, phase.failed = train_losses(size, seed, seconds, tracer)
    tokens = cfg.batch_size * size.train_seq
    done = len(phase.seconds) - phase.failed
    phase.tokens = [tokens] * done + [0] * phase.failed
    phase.analytic_flops = [tokens * count_flops(cfg, size.train_seq)] * len(phase.seconds)
    phase.notes["losses"] = losses
    return phase


def check_train_repeats(size: Size, seed: int, losses: list):
    """Re-run the first CHECK_STEPS steps.

    Returns (failed checks, the loss at step CHECK_STEPS - 1 or None). A
    check fails for each loss that differs bitwise from the timed run's
    and when the re-run aborts.
    """
    again, _, failed = train_losses(size, seed, 0.0, steps=CHECK_STEPS)
    failed += sum(a != b for a, b in zip(again, losses))
    return failed, (again[-1] if len(again) == CHECK_STEPS else None)


# -- prefill ----------------------------------------------------------------------

def prefill_batch(size: Size, vocab: int, seed: int, index: int) -> np.ndarray:
    rng = np.random.default_rng([seed, index])
    return rng.integers(0, vocab, (size.prefill_batch, size.prefill_seq))


def run_prefill(model, size: Size, seed: int, seconds: float, tracer=None) -> Phase:
    cfg = model.cfg
    pool = [prefill_batch(size, cfg.vocab_size, seed, i) for i in range(PREFILL_POOL)]
    digests = {}
    for i in range(WARMUP_OPS):
        with T.no_grad():
            digests.setdefault(i % PREFILL_POOL, _digest(model.model_forward(pool[i % PREFILL_POOL]).data))
    phase = Phase()
    tokens = size.prefill_batch * size.prefill_seq
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        op = len(phase.seconds)
        batch = pool[op % PREFILL_POOL]
        if tracer is not None:
            tracer.begin_op(op)
        t0 = time.perf_counter()
        try:
            with T.no_grad():
                logits = model.model_forward(batch)
        except dreamer.DreamerError:
            logits = None
        phase.seconds.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end_op()
        ok = logits is not None and bool(np.all(np.isfinite(logits.data)))
        if ok:
            digest = _digest(logits.data)
            ok = digests.setdefault(op % PREFILL_POOL, digest) == digest
        phase.failed += not ok
        phase.tokens.append(tokens if logits is not None else 0)
        phase.analytic_flops.append(tokens * count_flops(cfg, size.prefill_seq))
    phase.notes["digest"] = digests[0]
    return phase


# -- decode -----------------------------------------------------------------------

def decode_prompts(size: Size, vocab: int, seed: int) -> list:
    """One prompt of each length in the stratified set, in a seeded order.

    Every seed sees the same prompt lengths, so the mix of short and long
    requests, which sets the request time, does not vary with the seed;
    the order and the tokens do.
    """
    rng = np.random.default_rng([seed, 1])
    lengths = rng.permutation(np.arange(size.prompt_min, size.prompt_max + 1,
                                        size.prompt_step))
    return [rng.integers(0, vocab, (1, int(n))) for n in lengths]


def greedy_matches(model, prompt: np.ndarray, out: np.ndarray) -> bool:
    """The cached decode equals the argmax of one full-recompute forward."""
    try:
        with T.no_grad():
            logits = model.model_forward(out[:, :-1]).data
    except dreamer.DreamerError:
        return False
    start = prompt.shape[1]
    expected = np.argmax(logits[0, start - 1:], axis=-1)
    return (np.array_equal(out[:, :start], prompt)
            and np.array_equal(out[0, start:], expected))


def run_decode(model, size: Size, seed: int, seconds: float, tracer=None) -> Phase:
    """Cycle the prompt pool until `seconds` have passed and a cycle is whole.

    Each prompt's first output is checked against a full-recompute
    forward; every later request with that prompt must repeat it bitwise.
    Every op is bracketed by runs of the host-speed kernel: decode is
    bound by Python call overhead, the kind of work the kernel does, so
    its times are reported at the reference host speed. Train and prefill
    are array-bound; the kernel did not track them better than their raw
    times spread, so they are reported as measured.
    """
    cfg = model.cfg
    pool = decode_prompts(size, cfg.vocab_size, seed)
    for i in range(WARMUP_OPS):
        model.decode(pool[i % len(pool)], size.new_tokens)
    phase = Phase(kernel=[hostspeed.first_bracket()], notes={"prompt_tokens": 0})
    outputs = {}  # pool index -> first output
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(phase.seconds) % len(pool):
        op = len(phase.seconds)
        prompt = pool[op % len(pool)]
        if tracer is not None:
            tracer.begin_op(op)
        t0 = time.perf_counter()
        try:
            out = model.decode(prompt, size.new_tokens)
        except dreamer.DreamerError:  # e.g. a depth cache overflow
            out = None
        phase.seconds.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end_op()
        phase.kernel.append(hostspeed.kernel_seconds())
        total = prompt.shape[1] + size.new_tokens
        phase.analytic_flops.append((total - 1) * count_flops(cfg, total))
        if out is None:
            phase.failed += 1
            phase.tokens.append(0)
            continue
        phase.tokens.append(size.new_tokens)
        phase.notes["prompt_tokens"] += prompt.shape[1]
        first = outputs.setdefault(op % len(pool), out)
        phase.failed += first is not out and not np.array_equal(first, out)
    phase.failed += sum(not greedy_matches(model, pool[i], out) for i, out in outputs.items())
    return phase

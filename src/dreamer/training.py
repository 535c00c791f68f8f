"""Optimizer, schedule, synthetic tasks, and the deterministic training loop."""

from __future__ import annotations

import contextlib
import functools
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as T
from .config import ModelConfig
from .errors import ConfigError, InputError, NumericError
from .model import DreamerModel
from .params import init_parameters, learnable, save_checkpoint
from .tensor import Tensor

SEPARATOR_TOKEN = 0
IGNORE_TARGET = -1
TASK_KINDS = ("copy", "reverse", "modular_sum_chain", "token_lm")


def lr_at(step: int, max_lr: float, warmup_steps: int) -> float:
    """Linear warmup to `max_lr`, constant afterwards; step 0 is nonzero."""
    if step < 0:
        raise ConfigError(f"step must be >= 0, got {step}")
    return max_lr * min(1.0, (step + 1) / warmup_steps)


def global_grad_norm(grads: dict[str, np.ndarray]) -> float:
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.asarray(g, dtype=np.float64) ** 2))
    return float(np.sqrt(total))


def clip_grad_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place so the global L2 norm is <= max_norm.

    Returns the pre-clip norm. A non-finite gradient anywhere is an
    abort-step condition and raises NumericError.
    """
    norm = global_grad_norm(grads)
    if not np.isfinite(norm):
        bad = sorted(name for name, g in grads.items()
                     if not np.all(np.isfinite(g)))
        raise NumericError(f"non-finite gradient in {bad}")
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


@dataclass
class OptimizerState:
    """AdamW moments; the hyperparameters are read from `cfg`."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    cfg: ModelConfig
    step: int = 0

    @classmethod
    def for_store(cls, params: dict[str, Tensor], cfg: ModelConfig) -> "OptimizerState":
        m = {name: np.zeros_like(t.data) for name, t in learnable(params).items()}
        v = {name: np.zeros_like(t.data) for name, t in learnable(params).items()}
        return cls(m=m, v=v, cfg=cfg)


def adamw_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
               state: OptimizerState) -> float:
    """One bias-corrected AdamW update with decoupled weight decay.

    Decay is applied after the adaptive update but against the pre-step
    parameter value. Returns the learning rate used.
    """
    unknown = [name for name in grads if name not in state.m]
    if unknown:  # before any update: a rejected step leaves the state as it was
        raise ConfigError(f"gradient for unknown parameter {unknown[0]}")
    cfg = state.cfg
    beta1, beta2 = cfg.adam_beta1, cfg.adam_beta2
    lr = lr_at(state.step, cfg.max_lr, cfg.warmup_steps)
    state.step += 1
    t = state.step
    correct1 = 1.0 - beta1 ** t
    correct2 = 1.0 - beta2 ** t
    for name, g in grads.items():
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * np.square(g)
        m_hat = m / correct1
        v_hat = v / correct2
        param = params[name].data
        pre_step = param.copy()
        param -= lr * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
        param -= lr * cfg.weight_decay * pre_step
    return lr


# -- tasks ----------------------------------------------------------------------

@dataclass(frozen=True)
class TaskSpec:
    """Deterministic sample generator description.

    Synthetic kinds lay out `content SEPARATOR answer`; token ids offset
    content values by one so the separator id stays reserved. `token_lm`
    reads fixed windows from a binary token file instead.
    """

    kind: str
    seq_len: int
    vocab_size: int
    seed: int = 0
    modulus: int = 0  # modular_sum_chain only; 0 picks vocab_size - 1
    path: str | None = None  # token_lm only

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ConfigError(f"task kind must be one of {TASK_KINDS}, got {self.kind!r}")
        if self.seq_len < 3:
            raise ConfigError(f"seq_len must be >= 3, got {self.seq_len}")
        if self.vocab_size < 3:
            raise ConfigError(f"vocab_size must be >= 3, got {self.vocab_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.modulus <= self.vocab_size - 1:
            raise ConfigError(f"modulus must be in [0, vocab_size - 1], got {self.modulus}")
        if self.kind == "token_lm" and not self.path:
            raise ConfigError("token_lm task needs a token file path")

    @property
    def content_length(self) -> int:
        return (self.seq_len - 1) // 2


def running_modular_sums(values: np.ndarray, modulus: int) -> np.ndarray:
    """Prefix sums of `values` reduced mod `modulus`."""
    if modulus < 2:
        raise ConfigError(f"modulus must be >= 2, got {modulus}")
    return np.cumsum(np.asarray(values, dtype=np.int64)) % modulus


def synthetic_answer(kind: str, values: np.ndarray, modulus: int) -> np.ndarray:
    if kind == "copy":
        return np.asarray(values, dtype=np.int64)
    if kind == "reverse":
        return np.asarray(values, dtype=np.int64)[::-1]
    return running_modular_sums(values, modulus)


def _load_token_file(path: str):
    sidecar = Path(str(path) + ".json")
    try:
        meta = json.loads(sidecar.read_text())
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read token file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"corrupt token file sidecar {sidecar}: {exc}") from exc
    if not isinstance(meta, dict):
        raise InputError(f"token file sidecar {sidecar} is not a JSON object")
    for key in ("vocab_size", "count"):
        if key not in meta:
            raise InputError(f"token file sidecar {sidecar} is missing {key!r}")
        if not isinstance(meta[key], int) or isinstance(meta[key], bool):
            raise InputError(
                f"token file sidecar {sidecar} has non-integer {key!r}: {meta[key]!r}")
    data = np.frombuffer(raw, dtype="<u4")
    if data.size != meta["count"]:
        raise InputError(
            f"token file holds {data.size} ids but sidecar says {meta['count']}")
    if data.size and int(data.max()) >= meta["vocab_size"]:
        raise InputError(
            f"token id {int(data.max())} exceeds sidecar vocab {meta['vocab_size']}")
    return data.astype(np.int64), meta["vocab_size"]


def save_token_file(path: str, tokens: np.ndarray, vocab_size: int):
    tokens = np.asarray(tokens)
    if tokens.size and (tokens.min() < 0 or tokens.max() >= vocab_size):
        raise InputError("token ids out of range for the stated vocab")
    Path(path).write_bytes(tokens.astype("<u4").tobytes())
    Path(str(path) + ".json").write_text(
        json.dumps({"vocab_size": int(vocab_size), "count": int(tokens.size)}))
    _cached_token_file.cache_clear()


def _token_file(path: str):
    """The file's (ids, vocab), read again whenever it or its sidecar changes."""
    try:
        stamp = tuple((s.st_mtime_ns, s.st_size)
                      for s in map(os.stat, (path, f"{path}.json")))
    except OSError as exc:
        raise InputError(f"cannot read token file: {exc}") from exc
    return _cached_token_file(path, stamp)


@functools.lru_cache(maxsize=4)
def _cached_token_file(path: str, stamp: tuple):
    return _load_token_file(path)


def make_task(spec: TaskSpec, index: int):
    """Sample `index` of the task: (input tokens [T], target ids [T]).

    Targets are next-token ids aligned to input positions; positions
    whose next token is prompt or separator hold IGNORE_TARGET.
    """
    if spec.kind == "token_lm":
        data, vocab = _token_file(spec.path)
        if vocab > spec.vocab_size:
            raise ConfigError(
                f"token file vocab {vocab} exceeds task vocab {spec.vocab_size}")
        if data.size < spec.seq_len + 1:
            raise InputError(
                f"token file has {data.size} ids, need {spec.seq_len + 1}")
        start = (index * spec.seq_len) % (data.size - spec.seq_len)
        window = data[start:start + spec.seq_len + 1]
        return window[:-1].copy(), window[1:].copy()

    rng = np.random.default_rng([spec.seed, index])
    c = spec.content_length
    modulus = spec.modulus if spec.modulus else spec.vocab_size - 1
    if spec.kind == "modular_sum_chain":
        values = rng.integers(0, modulus, c)
    else:
        values = rng.integers(0, spec.vocab_size - 1, c)
    answer = synthetic_answer(spec.kind, values, modulus)
    seq = np.full(spec.seq_len, SEPARATOR_TOKEN, dtype=np.int64)
    seq[:c] = values + 1
    seq[c + 1:2 * c + 1] = answer + 1
    targets = np.full(spec.seq_len, IGNORE_TARGET, dtype=np.int64)
    targets[c:2 * c] = seq[c + 1:2 * c + 1]
    return seq, targets


def make_batch(spec: TaskSpec, step: int, batch_size: int):
    rows = [make_task(spec, step * batch_size + j) for j in range(batch_size)]
    tokens = np.stack([r[0] for r in rows])
    targets = np.stack([r[1] for r in rows])
    return tokens, targets


def masked_cross_entropy(logits: T.Tensor, targets: np.ndarray) -> T.Tensor:
    """Mean next-token cross entropy over positions not marked IGNORE_TARGET."""
    b, s, vocab = logits.shape
    flat = logits.reshape(b * s, vocab)
    tgt = targets.reshape(-1)
    live = tgt != IGNORE_TARGET
    if not np.any(live):
        raise InputError("no live target positions in batch")
    safe = np.where(live, tgt, 0)
    picked = T.take_rows(flat.reshape(-1), np.arange(b * s) * vocab + safe)
    losses = T.logsumexp(flat) - picked
    return (losses * live.astype(logits.dtype)).sum() / float(live.sum())


# -- the loop ---------------------------------------------------------------------

@dataclass
class TrainResult:
    history: list = field(default_factory=list)
    model: DreamerModel = None
    optimizer: OptimizerState = None


def _emit(metrics, record):
    """Append one JSON line and flush it, so an interrupted run keeps it."""
    if metrics is not None:
        metrics.write(json.dumps(record) + "\n")
        metrics.flush()


def validate_run(cfg: ModelConfig, task: TaskSpec, steps: int,
                 checkpoint_every: int = 0) -> None:
    """The checks `train` makes before it writes anything.

    The task's first sample is built too, so a missing or mismatched token
    file is refused here rather than at the first step.
    """
    cfg.validate()
    if steps < 0:
        raise ConfigError(f"steps must be >= 0, got {steps}")
    if checkpoint_every < 0:
        raise ConfigError(f"checkpoint_every must be >= 0, got {checkpoint_every}")
    if task.seq_len > cfg.context_length:
        raise ConfigError(
            f"task seq_len {task.seq_len} exceeds context {cfg.context_length}")
    if task.vocab_size > cfg.vocab_size:
        raise ConfigError(
            f"task vocab {task.vocab_size} exceeds model vocab {cfg.vocab_size}")
    make_task(task, 0)


def _checkpoint(run_dir, cfg, params, label):
    if run_dir is not None:
        save_checkpoint(run_dir / "checkpoints" / f"{label}.ckpt", cfg, params)


def train(cfg: ModelConfig, task: TaskSpec, steps: int, run_dir=None,
          checkpoint_every: int = 0, seed: int = 0, dtype=np.float32,
          stop_when=None) -> TrainResult:
    """Run `steps` optimizer steps; deterministic given (cfg, task, seed).

    Every step records loss, pre-clip gradient norm, learning rate, and
    per-router usage counts; balancing biases update once per router per
    step. A non-finite loss or gradient aborts with a diagnostic dump.
    `stop_when(record, history)` is checked after each recorded step and
    ends the run early when it returns True; the final checkpoint is
    still written.

    With `run_dir`, the run streams `run_dir/metrics.jsonl` and writes
    `run_dir/checkpoints/step_000000.ckpt`, one more every
    `checkpoint_every` steps when that is > 0, and `final.ckpt`. The
    `*.ckpt` files of an earlier run in the same directory are deleted
    first. Without it, nothing is written.
    """
    validate_run(cfg, task, steps, checkpoint_every)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if run_dir is not None:
        run_dir = Path(run_dir)
        (run_dir / "checkpoints").mkdir(parents=True, exist_ok=True)
        for stale in (run_dir / "checkpoints").glob("*.ckpt"):
            stale.unlink()
    model = DreamerModel(cfg, init_parameters(cfg, seed=seed, dtype=dtype))
    optimizer = OptimizerState.for_store(model.params, cfg)
    result = TrainResult(model=model, optimizer=optimizer)
    _checkpoint(run_dir, cfg, model.params, "step_000000")

    inputs = learnable(model.params)
    with (open(run_dir / "metrics.jsonl", "w") if run_dir is not None
          else contextlib.nullcontext()) as metrics:
        for step in range(steps):
            tokens, targets = make_batch(task, step, cfg.batch_size)
            try:
                loss = T.eval(masked_cross_entropy(model.model_forward(tokens), targets),
                              inputs)
            except NumericError as exc:
                _abort(metrics, step, None, str(exc))
            loss_value = float(loss.data)
            grads = T.backward(loss, inputs)
            del loss  # backward consumed the tape; nothing of this forward is left
            usage = {name: state.counts.tolist()
                     for name, state in sorted(model.routers.items())}
            try:
                grad_norm = clip_grad_norm(grads, cfg.grad_clip)
            except NumericError as exc:
                _abort(metrics, step, loss_value, str(exc))
            lr = adamw_step(model.params, grads, optimizer)
            model.update_balancing()
            result.history.append({"step": step, "loss": loss_value,
                                   "grad_norm": grad_norm, "lr": lr,
                                   "usage": usage})
            _emit(metrics, result.history[-1])
            if checkpoint_every and (step + 1) % checkpoint_every == 0:
                _checkpoint(run_dir, cfg, model.params, f"step_{step + 1:06d}")
            if stop_when is not None and stop_when(result.history[-1], result.history):
                break

    if steps > 0:
        _checkpoint(run_dir, cfg, model.params, "final")
    return result


def _abort(metrics, step, loss_value, reason):
    _emit(metrics, {"step": step, "abort": {"step": step, "loss": loss_value,
                                            "reason": reason}})
    raise NumericError(f"training aborted at step {step}: {reason}")

"""Layer spans and counters taken from outside the dreamer library.

The tracer replaces public callables by the names their callers look up
at call time (module globals and class attributes), so no file of the
library changes. Each span records its name, start, end, parent span and
the benchmark op it belongs to. Spans are kept in memory and only turned
into metrics, or written out, when the run ends.

A hook whose target no longer exists is recorded as missing instead of
failing the run; every metric that depends on it is then reported as
`missing` (a null value) rather than as a misleading zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter

import numpy as np

# Layer modules that are deliberately left unhooked: neither is on any
# timed path of the three workloads.
UNMEASURED = ("telemetry", "cli")

# Span name for the benchmark's own bookkeeping (the tape walk); it is
# excluded from layer coverage and shows up in the tracing overhead.
OWN_SPAN = "trace.tape_walk"


def _matmul_flops(a, b) -> int:
    # `tensor.matmul` allows only equal or absent leading batch dims.
    batch = 1
    for extent in (a.shape if a.ndim >= b.ndim else b.shape)[:-2]:
        batch *= extent
    return 2 * batch * a.shape[-2] * a.shape[-1] * b.shape[-1]


def _tape_stats(root):
    """Nodes and bytes of the recorded tape reachable from `root`."""
    seen, stack, nbytes = set(), [root], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nbytes += node.data.nbytes
        stack.extend(p for p in node.parents if p.requires_grad)
    return len(seen), nbytes


class Tracer:
    """Spans and per-op counters for one traced phase of a workload.

    Span fields live in parallel lists of plain numbers and strings, so
    that a long run does not hand the garbage collector one more
    container object per span to scan.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []  # index of the enclosing span, or -1
        self.ops: list[int] = []
        self.tags: list = []  # "prefill" or "step" on cached forward calls
        self.counts: dict[int, Counter] = {}
        self.missing: list[str] = []
        self.op = -1  # index of the op being recorded; -1 records nothing
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def spans(self) -> list[tuple]:
        """(name, start, end, parent, op, tag) for every recorded span."""
        return list(zip(self.names, self.starts, self.ends, self.parents, self.ops,
                        self.tags))

    def add_span(self, name: str, parent: int) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(parent)
        self.ops.append(self.op)
        self.tags.append(None)
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())
        return index

    # -- op boundaries -----------------------------------------------------

    def begin_op(self, index: int):
        self.op = index
        self.counts[index] = Counter()

    def end_op(self):
        self.op = -1

    def count(self, key: str, amount=1):
        if self.op >= 0:
            self.counts[self.op][key] += amount

    # -- hooking -----------------------------------------------------------

    def _wrap(self, fn, name, after):
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            if tracer.op < 0:
                return fn(*args, **kwargs)
            span = -1
            if name is not None:
                span = tracer.add_span(name, stack[-1] if stack else -1)
                stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                if span >= 0:
                    tracer.ends[span] = time.perf_counter()
                    stack.pop()
            if after is not None:
                after(tracer, span, args, kwargs, result)
            return result

        return hooked

    def hook(self, module: str, path: str, name: str | None, after=None):
        """Wrap `module.path` (a function or `Class.method`) in a span."""
        try:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            self.missing.append(f"{module}.{path}")
            return
        setattr(owner, attr, self._wrap(original, name, after))
        self._restore.append((owner, attr, original))

    def unhook(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: str):
        keys = ("name", "start", "end", "parent", "op", "tag")
        with open(path, "w") as fh:
            json.dump({"missing": self.missing,
                       "spans": [dict(zip(keys, s)) for s in self.spans()]}, fh)


# -- counters attached to hooks -----------------------------------------------

def _after_matmul(tracer, span, args, kwargs, result):
    tracer.count("matmul_calls")
    tracer.count("matmul_flops", _matmul_flops(args[0], args[1]))


def _after_eval(tracer, span, args, kwargs, result):
    own = tracer.add_span(OWN_SPAN, tracer.parents[span])
    nodes, nbytes = _tape_stats(result)
    tracer.ends[own] = time.perf_counter()
    tracer.count("tape_evals")
    tracer.count("tape_nodes", nodes)
    tracer.count("tape_bytes", nbytes)


def _after_forward(tracer, span, args, kwargs, result):
    caches = args[2] if len(args) > 2 else kwargs.get("caches")
    if caches is None:
        return
    new_tokens = np.shape(args[1])[1]
    tracer.tags[span] = "prefill" if caches.tokens_cached == new_tokens else "step"
    if caches.depth is not None:
        seen = tracer.counts[tracer.op]["depthcache_high_water"]
        tracer.counts[tracer.op]["depthcache_high_water"] = max(seen, caches.depth.high_water)


def _after_seqcache_append(tracer, span, args, kwargs, result):
    k, v = result
    new_k = args[1]
    if k is not new_k:  # the cache concatenated old and new entries
        tracer.count("seqcache_copied_bytes", k.data.nbytes + v.data.nbytes)


def _after_select_topk(tracer, span, args, kwargs, result):
    idx = result[0]
    if args[1].name.endswith(".ea"):
        tracer.count("ea_pairs", idx.size)
        tracer.count("ea_run", idx.shape[0] * np.unique(idx).size)


def _after_bank_apply(tracer, span, args, kwargs, result):
    idx = np.asarray(args[1])
    tracer.count("bank_pairs", idx.size)
    tracer.count("bank_run", idx.size * np.unique(idx).size)


# (module, callable looked up by its callers, span name, counter)
HOOKS = (
    ("dreamer.tensor", "eval", "tensor.eval", _after_eval),
    ("dreamer.tensor", "backward", "tensor.backward", None),
    ("dreamer.tensor", "matmul", None, _after_matmul),
    ("dreamer.model", "DreamerModel.model_forward", "model.forward", _after_forward),
    ("dreamer.model", "DreamerModel.sa_forward", "model.sa", None),
    ("dreamer.model", "DreamerModel.da_forward", "model.da", None),
    ("dreamer.model", "DreamerModel.ea_forward", "model.ea", None),
    ("dreamer.model", "DreamerModel.update_balancing", "model.update_balancing", None),
    ("dreamer.model", "SeqCache.append", "model.seqcache_append", _after_seqcache_append),
    ("dreamer.model", "rms_norm", "attention.rms_norm", None),
    ("dreamer.model", "rope_apply", "attention.rope", None),
    ("dreamer.model", "rope_depth_apply", "attention.rope", None),
    ("dreamer.model", "grouped_query_attention", "attention.gqa", None),
    ("dreamer.model", "depth_router_logits", "routing.router_logits", None),
    ("dreamer.model", "select_topk", "routing.select_topk", _after_select_topk),
    ("dreamer.model", "bank_apply", "routing.bank_apply", _after_bank_apply),
    ("dreamer.model", "update_balance", "routing.update_balance", None),
    ("dreamer.training", "make_batch", "training.make_batch", None),
    ("dreamer.training", "masked_cross_entropy", "training.loss", None),
    ("dreamer.training", "clip_grad_norm", "training.clip", None),
    ("dreamer.training", "adamw_step", "training.adamw", None),
)


def install() -> Tracer:
    tracer = Tracer()
    for module, path, name, after in HOOKS:
        tracer.hook(module, path, name, after)
    return tracer


# -- per-layer metrics ----------------------------------------------------------

# metric -> (unit, hooks it needs). A metric whose hook is missing reads null.
LAYER_METRICS = {
    "tensor.eval_self_ms": ("ms/op", ["dreamer.tensor.eval"]),
    "tensor.backward_ms": ("ms/op", ["dreamer.tensor.backward"]),
    "tensor.tape_nodes": ("count/step", ["dreamer.tensor.eval"]),
    "tensor.tape_mib": ("MiB/step", ["dreamer.tensor.eval"]),
    "tensor.matmul_calls": ("count/token", ["dreamer.tensor.matmul"]),
    "tensor.matmul_mflop_per_token": ("MFLOP/token", ["dreamer.tensor.matmul"]),
    "costs.flops_ratio": ("ratio", ["dreamer.tensor.matmul"]),
    "model.forward_ms": ("ms/op", ["dreamer.model.DreamerModel.model_forward"]),
    "model.sa_ms": ("ms/op", ["dreamer.model.DreamerModel.sa_forward"]),
    "model.da_ms": ("ms/op", ["dreamer.model.DreamerModel.da_forward"]),
    "model.ea_ms": ("ms/op", ["dreamer.model.DreamerModel.ea_forward"]),
    "model.ea_self_ms": ("ms/op", ["dreamer.model.DreamerModel.ea_forward"]),
    "model.prefill_call_ms": ("ms/call", ["dreamer.model.DreamerModel.model_forward"]),
    "model.step_call_ms": ("ms/call", ["dreamer.model.DreamerModel.model_forward"]),
    "model.seqcache_append_ms": ("ms/token", ["dreamer.model.SeqCache.append"]),
    "model.seqcache_copied_kib": ("KiB/token", ["dreamer.model.SeqCache.append"]),
    "model.depthcache_high_water": ("count", ["dreamer.model.DreamerModel.model_forward"]),
    "attention.gqa_ms.sa": ("ms/op", ["dreamer.model.grouped_query_attention"]),
    "attention.gqa_ms.da": ("ms/op", ["dreamer.model.grouped_query_attention"]),
    "attention.rms_norm_ms": ("ms/op", ["dreamer.model.rms_norm"]),
    "attention.rope_ms": ("ms/op", ["dreamer.model.rope_apply",
                                    "dreamer.model.rope_depth_apply"]),
    "routing.router_logits_ms": ("ms/op", ["dreamer.model.depth_router_logits"]),
    "routing.select_topk_ms": ("ms/op", ["dreamer.model.select_topk"]),
    "routing.bank_apply_ms": ("ms/op", ["dreamer.model.bank_apply"]),
    "routing.update_balance_ms": ("ms/op", ["dreamer.model.update_balance"]),
    "routing.ea_useful_ratio": ("ratio", ["dreamer.model.select_topk"]),
    "routing.bank_useful_ratio": ("ratio", ["dreamer.model.bank_apply"]),
    "training.make_batch_ms": ("ms/op", ["dreamer.training.make_batch"]),
    "training.loss_ms": ("ms/op", ["dreamer.training.masked_cross_entropy"]),
    "training.clip_ms": ("ms/op", ["dreamer.training.clip_grad_norm"]),
    "training.adamw_ms": ("ms/op", ["dreamer.training.adamw_step"]),
    # Timed by run.py around direct calls and around the whole traced phase.
    "params.init_parameters_ms": ("ms", []),
    "params.load_checkpoint_ms": ("ms", []),
    "trace.overhead_ratio": ("ratio", []),
    "trace.span_coverage": ("ratio", []),
}


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _ancestor(spans, index, prefix):
    parent = spans[index][3]
    while parent >= 0 and not spans[parent][0].startswith(prefix):
        parent = spans[parent][3]
    return spans[parent][0] if parent >= 0 else None


def layer_metrics(tracer: Tracer, op_seconds: list[float], count_ops: int,
                  tokens_per_op: list[int], analytic_flops: list[float]):
    """Per-layer metrics of a traced phase.

    `op_seconds[i]` is op i's wall time. Times are means per op over every
    traced op. Counts and ratios are summed over the first `count_ops` ops
    only, so that they repeat exactly for a given seed whatever the run
    length; `tokens_per_op` and `analytic_flops` (the `count_flops` work of
    each op) are their bases. Returns ({name: value}, absent names), where
    absent names had no call on this workload's path.
    """
    spans = tracer.spans()
    ops = len(op_seconds)
    own = self_times(spans)
    total = Counter()
    self_total = Counter()
    calls = Counter()
    tagged = {"prefill": [], "step": []}
    for i, s in enumerate(spans):
        name = s[0]
        if name == "attention.gqa":
            name += {"model.sa": ".sa", "model.da": ".da"}.get(_ancestor(spans, i, "model."), "")
        total[name] += s[2] - s[1]
        self_total[name] += own[i]
        calls[name] += 1
        if s[5] in tagged:
            tagged[s[5]].append(s[2] - s[1])
    counted = Counter()
    for op in range(min(count_ops, ops)):
        counted.update(tracer.counts.get(op, Counter()))
    depth_water = max((c["depthcache_high_water"] for c in tracer.counts.values()), default=0)
    tokens = sum(tokens_per_op[:count_ops])
    all_tokens = sum(tokens_per_op)

    def per_op(seconds):
        return 1e3 * seconds / ops

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "tensor.eval_self_ms": per_op(self_total["tensor.eval"]),
        "tensor.backward_ms": per_op(total["tensor.backward"]),
        "tensor.tape_nodes": ratio(counted["tape_nodes"], counted["tape_evals"]),
        "tensor.tape_mib": ratio(counted["tape_bytes"], counted["tape_evals"]) / 2**20,
        "tensor.matmul_calls": ratio(counted["matmul_calls"], tokens),
        "tensor.matmul_mflop_per_token": ratio(counted["matmul_flops"], tokens) / 1e6,
        "costs.flops_ratio": ratio(counted["matmul_flops"], sum(analytic_flops[:count_ops])),
        "model.forward_ms": per_op(total["model.forward"]),
        "model.sa_ms": per_op(total["model.sa"]),
        "model.da_ms": per_op(total["model.da"]),
        "model.ea_ms": per_op(total["model.ea"]),
        "model.ea_self_ms": per_op(self_total["model.ea"]),
        "model.prefill_call_ms": 1e3 * ratio(sum(tagged["prefill"]), len(tagged["prefill"])),
        "model.step_call_ms": 1e3 * ratio(sum(tagged["step"]), len(tagged["step"])),
        "model.seqcache_append_ms": 1e3 * ratio(total["model.seqcache_append"], all_tokens),
        "model.seqcache_copied_kib": ratio(counted["seqcache_copied_bytes"], tokens) / 1024,
        "model.depthcache_high_water": float(depth_water),
        "attention.gqa_ms.sa": per_op(total["attention.gqa.sa"]),
        "attention.gqa_ms.da": per_op(total["attention.gqa.da"]),
        "attention.rms_norm_ms": per_op(total["attention.rms_norm"]),
        "attention.rope_ms": per_op(total["attention.rope"]),
        "routing.router_logits_ms": per_op(total["routing.router_logits"]),
        "routing.select_topk_ms": per_op(total["routing.select_topk"]),
        "routing.bank_apply_ms": per_op(total["routing.bank_apply"]),
        "routing.update_balance_ms": per_op(total["routing.update_balance"]),
        "routing.ea_useful_ratio": ratio(counted["ea_pairs"], counted["ea_run"]),
        "routing.bank_useful_ratio": ratio(counted["bank_pairs"], counted["bank_run"]),
        "training.make_batch_ms": per_op(total["training.make_batch"]),
        "training.loss_ms": per_op(total["training.loss"]),
        "training.clip_ms": per_op(total["training.clip"]),
        "training.adamw_ms": per_op(total["training.adamw"]),
    }
    exercised = {
        "tensor.eval_self_ms": calls["tensor.eval"],
        "tensor.backward_ms": calls["tensor.backward"],
        "tensor.tape_nodes": counted["tape_evals"],
        "tensor.tape_mib": counted["tape_evals"],
        "model.da_ms": calls["model.da"],
        "model.prefill_call_ms": len(tagged["prefill"]),
        "model.step_call_ms": len(tagged["step"]),
        "model.seqcache_append_ms": calls["model.seqcache_append"],
        "model.seqcache_copied_kib": calls["model.seqcache_append"],
        "model.depthcache_high_water": depth_water,
        "attention.gqa_ms.da": calls["attention.gqa.da"],
        "routing.bank_apply_ms": calls["routing.bank_apply"],
        "routing.update_balance_ms": calls["routing.update_balance"],
        "routing.bank_useful_ratio": counted["bank_run"],
        "training.make_batch_ms": calls["training.make_batch"],
        "training.loss_ms": calls["training.loss"],
        "training.clip_ms": calls["training.clip"],
        "training.adamw_ms": calls["training.adamw"],
    }
    absent = [name for name, n in exercised.items() if not n]
    for name, (_, needs) in LAYER_METRICS.items():
        if any(hook in tracer.missing for hook in needs):
            values[name] = None
    return values, absent


def coverage(tracer: Tracer, op_seconds: list[float]) -> float:
    """Share of op wall time covered by top-level layer spans.

    The benchmark's own tape walk is taken out of both sides.
    """
    spans = tracer.spans()
    own = sum(s[2] - s[1] for s in spans if s[0] == OWN_SPAN)
    covered = sum(s[2] - s[1] for s in spans if s[3] < 0 and s[0] != OWN_SPAN)
    return covered / (sum(op_seconds) - own)

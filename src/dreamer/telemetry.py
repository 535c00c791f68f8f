"""Routing telemetry and the statistics derived from it.

A TelemetryLog collects two record kinds during forward passes:
  * RoutingEvent: one per router call, carrying the selected expert ids
    and gate values for every token in the call,
  * DepthScoreRow: one per depth-attention call, carrying the token-mean
    post-softmax scores over the visible depth history.

Analysis happens on aggregates: a depth-by-expert usage matrix, its row
and column conditionals, expert orderings by how many depths an expert
effectively serves, Lorenz/Gini usage concentration, and the depth-score
map. Logs round-trip through line-delimited JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, EmptyDataError, InputError


@dataclass
class RoutingEvent:
    """Selections from one router call: ids/gates are [tokens, k]."""

    router: str
    depth: int
    expert_ids: np.ndarray
    gates: np.ndarray

    def __post_init__(self):
        self.expert_ids = np.asarray(self.expert_ids, dtype=np.int64)
        self.gates = np.asarray(self.gates, dtype=np.float64)
        if self.expert_ids.ndim != 2 or self.expert_ids.shape != self.gates.shape:
            raise ContractError(
                f"routing event wants [tokens, k] ids and gates, got "
                f"{self.expert_ids.shape} / {self.gates.shape}")
        if self.depth < 0 or (self.expert_ids < 0).any():
            raise ContractError(
                f"routing event depth and expert ids must be >= 0, got depth "
                f"{self.depth}, smallest id {self.expert_ids.min(initial=0)}")


@dataclass
class DepthScoreRow:
    """Token-mean depth-attention scores for one (query depth) call."""

    depth: int
    tokens: int
    scores: np.ndarray  # [depth + 1] visible history, sums to ~1

    def __post_init__(self):
        if self.depth < 0 or self.tokens < 0:
            raise ContractError(
                f"depth score row wants depth and tokens >= 0, got {self.depth}, {self.tokens}")
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.shape != (self.depth + 1,):
            raise ContractError(
                f"depth {self.depth} score row must have {self.depth + 1} entries, "
                f"got {self.scores.shape}")


# Field name -> JSON type of each saved record kind, in the order the
# matching `TelemetryLog.add_*` method takes them.
_RECORD_FIELDS = {
    "route": {"router": str, "depth": int, "experts": list, "gates": list},
    "depth_scores": {"depth": int, "tokens": int, "scores": list},
}
# List field -> the JSON types its entries may have (a bool is neither).
_ENTRY_TYPES = {"experts": (int,), "gates": (int, float), "scores": (int, float)}


def _entries(value: list):
    """The non-list entries of nested lists, in order."""
    for v in value:
        yield from _entries(v) if type(v) is list else (v,)


@dataclass
class TelemetryLog:
    events: list = field(default_factory=list)
    depth_rows: list = field(default_factory=list)

    def add_routing(self, router, depth, expert_ids, gates):
        self.events.append(RoutingEvent(router, depth, expert_ids, gates))

    def add_depth_scores(self, depth, tokens, scores):
        self.depth_rows.append(DepthScoreRow(depth, tokens, scores))

    def save(self, path):
        with open(path, "w") as f:
            for ev in self.events:
                f.write(json.dumps({
                    "kind": "route", "router": ev.router, "depth": ev.depth,
                    "experts": ev.expert_ids.tolist(), "gates": ev.gates.tolist(),
                }) + "\n")
            for row in self.depth_rows:
                f.write(json.dumps({
                    "kind": "depth_scores", "depth": row.depth,
                    "tokens": row.tokens, "scores": row.scores.tolist(),
                }) + "\n")

    @classmethod
    def load(cls, path):
        log = cls()
        try:
            with open(path) as f:
                lines = f.read().split("\n")
        except (OSError, UnicodeDecodeError) as e:
            raise InputError(f"cannot read telemetry {path}: {e}") from None
        for line_no, line in enumerate(lines, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{line_no}"
            try:
                rec = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as e:  # too deeply nested
                raise InputError(f"{where}: bad telemetry record: {e}") from None
            if not isinstance(rec, dict):
                raise InputError(f"{where}: telemetry record must be a JSON object")
            kind = rec.get("kind")
            fields = _RECORD_FIELDS.get(kind) if type(kind) is str else None
            if fields is None:
                raise InputError(f"{where}: unknown record kind")
            for name, want in fields.items():
                if name not in rec:
                    raise InputError(f"{where}: {kind} record is missing {name!r}")
                if type(rec[name]) is not want:
                    raise InputError(f"{where}: {name!r} must be {want.__name__}, "
                                     f"got {type(rec[name]).__name__}")
                allowed = _ENTRY_TYPES.get(name)
                bad = [] if allowed is None else [
                    v for v in _entries(rec[name]) if type(v) not in allowed]
                if bad:
                    raise InputError(f"{where}: {name!r} entries must be "
                                     f"{' or '.join(t.__name__ for t in allowed)}, "
                                     f"got {bad[0]!r}")
            add = log.add_routing if kind == "route" else log.add_depth_scores
            try:
                add(*(rec[name] for name in fields))
            except (ContractError, TypeError, ValueError) as e:
                raise InputError(f"{where}: bad {kind} record: {e}") from None
        return log


def usage_matrix(log: TelemetryLog, router_suffix: str = ".ea") -> np.ndarray:
    """Depth-by-expert selection counts for routers matching the suffix."""
    rows = cols = 0
    picked = [ev for ev in log.events if ev.router.endswith(router_suffix)]
    for ev in picked:
        rows = max(rows, ev.depth + 1)
        cols = max(cols, int(ev.expert_ids.max(initial=-1)) + 1)
    counts = np.zeros((rows, cols), dtype=np.int64)
    for ev in picked:
        np.add.at(counts[ev.depth], ev.expert_ids.reshape(-1), 1)
    return counts


def joint_to_conditionals(counts: np.ndarray):
    """Row/column conditionals of a joint count matrix.

    Returns (p_expert_given_depth [L, E], p_depth_given_expert [E, L],
    depth_defined [L], expert_defined [E]). Rows with zero mass are flagged
    undefined and left at zero rather than producing NaN.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 2:
        raise ContractError(f"usage matrix must be 2-D, got {counts.shape}")
    depth_mass = counts.sum(axis=1)
    expert_mass = counts.sum(axis=0)
    depth_defined = depth_mass > 0
    expert_defined = expert_mass > 0
    p_e_given_d = np.zeros_like(counts)
    p_e_given_d[depth_defined] = counts[depth_defined] / depth_mass[depth_defined, None]
    p_d_given_e = np.zeros_like(counts.T)
    p_d_given_e[expert_defined] = counts.T[expert_defined] / expert_mass[expert_defined, None]
    return p_e_given_d, p_d_given_e, depth_defined, expert_defined


def support_size(dist: np.ndarray, mass: float = 0.9) -> int:
    """Smallest number of top entries whose total probability reaches `mass`.

    The cumulative comparison allows 1e-9 slack so exactly-uniform rows
    land on ceil(mass * n) instead of tripping on float rounding.
    """
    dist = np.asarray(dist, dtype=np.float64)
    total = dist.sum()
    if total <= 0:
        raise EmptyDataError("support_size of an empty distribution")
    ordered = np.sort(dist)[::-1] / total
    cum = np.cumsum(ordered)
    return int(np.argmax(cum >= mass - 1e-9)) + 1


def distribution_median(dist: np.ndarray) -> int:
    """Smallest index where the CDF reaches one half."""
    dist = np.asarray(dist, dtype=np.float64)
    total = dist.sum()
    if total <= 0:
        raise EmptyDataError("median of an empty distribution")
    return int(np.argmax(np.cumsum(dist / total) >= 0.5))


def generalization_order(p_depth_given_expert: np.ndarray,
                         expert_defined: np.ndarray | None = None) -> np.ndarray:
    """Order experts from depth-specialized to depth-general.

    Sort key: (support size of the depth distribution ascending, median
    depth within equal support, expert id). Unused experts sort last.
    Returns a permutation of all expert ids.
    """
    p = np.asarray(p_depth_given_expert, dtype=np.float64)
    E, L = p.shape
    if expert_defined is None:
        expert_defined = p.sum(axis=1) > 0

    def key(e):
        if not expert_defined[e]:
            return (L + 1, L + 1, e)
        return (support_size(p[e]), distribution_median(p[e]), e)

    return np.array(sorted(range(E), key=key), dtype=np.int64)


def lorenz(counts: np.ndarray) -> np.ndarray:
    """Lorenz points [(expert share, activation share)] with experts sorted
    by descending usage; starts at (0, 0), ends at (1, 1), concave."""
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 1:
        raise ContractError("lorenz expects a 1-D usage vector")
    total = counts.sum()
    if total <= 0:
        raise EmptyDataError("lorenz curve of all-zero usage")
    ordered = np.sort(counts)[::-1]
    x = np.arange(counts.size + 1) / counts.size
    y = np.concatenate([[0.0], np.cumsum(ordered) / total])
    return np.column_stack([x, y])


def gini(counts: np.ndarray) -> float:
    """Mean absolute difference Gini: sum_ij |n_i - n_j| / (2 E sum n).

    0 for uniform usage, (E-1)/E when one expert takes everything.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 1:
        raise ContractError("gini expects a 1-D usage vector")
    total = counts.sum()
    if total <= 0:
        raise EmptyDataError("gini of all-zero usage")
    n = counts.size
    ordered = np.sort(counts)
    ranks = np.arange(1, n + 1)
    return float(2.0 * (ranks * ordered).sum() / (n * total) - (n + 1.0) / n)


def da_score_map(log: TelemetryLog, depths: int | None = None):
    """Mean depth-attention score per (query depth, key depth), row-scaled.

    Rows are averaged over tokens, then divided by the row max so every
    defined row peaks at exactly 1. Cells above the diagonal (key depth >
    query depth) are structurally absent; `defined` marks real cells.
    Returns (map [L, L], defined [L, L]).
    """
    L = depths or 0
    for row in log.depth_rows:
        L = max(L, row.depth + 1)
    if L == 0:
        raise EmptyDataError("no depth-attention rows recorded")
    sums = np.zeros((L, L), dtype=np.float64)
    weights = np.zeros(L, dtype=np.float64)
    for row in log.depth_rows:
        sums[row.depth, :row.depth + 1] += row.scores * row.tokens
        weights[row.depth] += row.tokens
    mean = np.zeros_like(sums)
    seen = weights > 0
    mean[seen] = sums[seen] / weights[seen, None]
    defined = np.tril(np.ones((L, L), dtype=bool)) & seen[:, None]
    out = np.zeros_like(mean)
    for l in range(L):
        if seen[l]:
            peak = mean[l, :l + 1].max()
            if peak > 0:
                out[l, :l + 1] = mean[l, :l + 1] / peak
    return out, defined


def depth_unique_expert_profile(counts: np.ndarray,
                                baseline: np.ndarray | None = None):
    """Distinct experts used per depth; optional ratio against a baseline
    profile (e.g. a per-depth-parameterized run)."""
    counts = np.asarray(counts)
    uniques = (counts > 0).sum(axis=1).astype(np.int64)
    if baseline is None:
        return uniques, None
    baseline = np.asarray(baseline, dtype=np.float64)
    if baseline.shape != uniques.shape:
        raise ContractError(
            f"baseline profile shape {baseline.shape} != {uniques.shape}")
    ratio = np.full(uniques.shape, np.nan)
    nz = baseline > 0
    ratio[nz] = uniques[nz] / baseline[nz]
    return uniques, ratio

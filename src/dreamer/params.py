"""Parameter store, initialization, and the checkpoint container format.

The store is the single home of every named array the model owns:
learnable weights, norm gains, and the (non-learned) balancing bias
vectors. Names are hierarchical, e.g. `layer.sa.qkv_bank.experts` for the
shared set of a depth-recurrent model or `layer3.ea.experts.down` for the
fourth set of a layered one.

Initialization: weights draw from N(0, sqrt(1/(5 h))); output projections
(attention output banks and EA down projections) use the depth-aware
N(0, sqrt(1 / (2.5 h depth attn_modules))) with attn_modules = 3 when
depth attention is present and 2 otherwise. Gains start at one, biases at
zero. Draw order is the enumeration order, so a seed pins every value.

Checkpoint container (binary, little-endian):
    u32 format version | u32 endianness probe (0x01020304)
    u64 config length  | config JSON bytes
    u64 tensor count
    per tensor: u32 name length | name bytes | u32 rank | u64*rank extents
                | float32 payload
Balancing biases are stored like any other tensor; usage counts are
transient and never persisted.
"""

from __future__ import annotations

import os
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .config import ModelConfig
from .errors import ContractError, InputError
from .tensor import Tensor

CHECKPOINT_VERSION = 1
ENDIAN_PROBE = 0x01020304

# init kinds: how each tensor is filled at construction time
INIT_WEIGHT = "weight"      # N(0, sqrt(1/(5h)))
INIT_OUT = "out_weight"     # N(0, sqrt(1/(2.5 h depth attn_modules)))
INIT_ONES = "ones"          # norm gains
INIT_ZEROS = "zeros"        # balancing biases (non-learned)


@dataclass(frozen=True)
class ParamSpec:
    name: str
    shape: tuple
    init: str

    @property
    def learnable(self) -> bool:
        return self.init != INIT_ZEROS


def iter_parameter_specs(cfg: ModelConfig):
    """Enumerate every named tensor of a model, in construction order."""
    cfg.validate()
    h = cfg.hidden_size

    def router(prefix, experts):
        yield ParamSpec(f"{prefix}.query.weight", (h, cfg.ea_qk_dim), INIT_WEIGHT)
        yield ParamSpec(f"{prefix}.keys", (experts, cfg.ea_qk_dim), INIT_WEIGHT)
        yield ParamSpec(f"{prefix}.bias", (experts,), INIT_ZEROS)

    yield ParamSpec("embed.weight", (cfg.vocab_size, h), INIT_WEIGHT)
    if not cfg.tie_embeddings:
        yield ParamSpec("head.weight", (cfg.vocab_size, h), INIT_WEIGHT)
    yield ParamSpec("final_norm.gain", (h,), INIT_ONES)
    if not cfg.layered:
        yield ParamSpec("layer.stream_norm.gain", (h,), INIT_ONES)

    for i in range(cfg.param_sets):
        p = cfg.set_name(i)

        yield ParamSpec(f"{p}.sa.in_norm.gain", (h,), INIT_ONES)
        yield ParamSpec(f"{p}.sa.q_norm.gain", (cfg.sa_head_dim,), INIT_ONES)
        yield ParamSpec(f"{p}.sa.k_norm.gain", (cfg.sa_head_dim,), INIT_ONES)
        if cfg.layered:
            yield ParamSpec(f"{p}.sa.qkv.weight", (h, cfg.sa_qkv_dim), INIT_WEIGHT)
            yield ParamSpec(f"{p}.sa.out.weight", (cfg.sa_out_dim, h), INIT_OUT)
        else:
            E = cfg.attn_experts
            yield ParamSpec(f"{p}.sa.qkv_bank.experts", (E, h, cfg.sa_qkv_dim), INIT_WEIGHT)
            yield ParamSpec(f"{p}.sa.qkv_bank.shared", (h, cfg.sa_qkv_dim), INIT_WEIGHT)
            yield ParamSpec(f"{p}.sa.out_bank.experts", (E, cfg.sa_out_dim, h), INIT_OUT)
            yield ParamSpec(f"{p}.sa.out_bank.shared", (cfg.sa_out_dim, h), INIT_OUT)
            yield from router(f"{p}.sa.router", E)

        if cfg.has_da:
            E = cfg.attn_experts
            yield ParamSpec(f"{p}.da.in_norm.gain", (h,), INIT_ONES)
            yield ParamSpec(f"{p}.da.q_norm.gain", (cfg.da_head_dim,), INIT_ONES)
            yield ParamSpec(f"{p}.da.k_norm.gain", (cfg.da_head_dim,), INIT_ONES)
            yield ParamSpec(f"{p}.da.qkv_bank.experts", (E, h, cfg.da_qkv_dim), INIT_WEIGHT)
            yield ParamSpec(f"{p}.da.qkv_bank.shared", (h, cfg.da_qkv_dim), INIT_WEIGHT)
            yield ParamSpec(f"{p}.da.out_bank.experts", (E, cfg.da_out_dim, h), INIT_OUT)
            yield ParamSpec(f"{p}.da.out_bank.shared", (cfg.da_out_dim, h), INIT_OUT)
            yield from router(f"{p}.da.router", E)

        yield ParamSpec(f"{p}.ea.in_norm.gain", (h,), INIT_ONES)
        yield from router(f"{p}.ea.router", cfg.ea_num_experts)
        dff = cfg.ea_intermediate_size
        yield ParamSpec(f"{p}.ea.experts.gate", (cfg.ea_num_experts, h, dff), INIT_WEIGHT)
        yield ParamSpec(f"{p}.ea.experts.up", (cfg.ea_num_experts, h, dff), INIT_WEIGHT)
        yield ParamSpec(f"{p}.ea.experts.down", (cfg.ea_num_experts, dff, h), INIT_OUT)


class ParameterStore:
    """Ordered name -> Tensor mapping; non-learnable tensors take no gradient."""

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}

    def add(self, name: str, array: np.ndarray, learnable: bool = True):
        if name in self._tensors:
            raise ContractError(f"duplicate parameter name {name!r}")
        self._tensors[name] = Tensor(array, requires_grad=learnable)

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def names(self):
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    def learnable(self):
        return {n: t for n, t in self._tensors.items() if t.requires_grad}


def init_parameters(cfg: ModelConfig, seed: int, dtype=np.float32) -> ParameterStore:
    rng = np.random.default_rng(seed)
    h = cfg.hidden_size
    std = float(np.sqrt(1.0 / (5.0 * h)))
    attn_modules = 3 if cfg.has_da else 2
    out_std = float(np.sqrt(1.0 / (2.5 * h * cfg.depth * attn_modules)))

    store = ParameterStore()
    for spec in iter_parameter_specs(cfg):
        if spec.init == INIT_WEIGHT:
            arr = rng.normal(0.0, std, spec.shape).astype(dtype)
        elif spec.init == INIT_OUT:
            arr = rng.normal(0.0, out_std, spec.shape).astype(dtype)
        elif spec.init == INIT_ONES:
            arr = np.ones(spec.shape, dtype=dtype)
        else:  # balancing bias: float64 statistic outside the graph
            arr = np.zeros(spec.shape, dtype=np.float64)
        store.add(spec.name, arr, learnable=spec.learnable)
    return store


# -- checkpoint container ------------------------------------------------------

def save_checkpoint(path, cfg: ModelConfig, store: ParameterStore) -> None:
    """Write the container atomically: a failed write leaves `path` as it was."""
    config_bytes = cfg.to_json().encode()
    tmp = f"{os.fspath(path)}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(struct.pack("<II", CHECKPOINT_VERSION, ENDIAN_PROBE))
            f.write(struct.pack("<Q", len(config_bytes)))
            f.write(config_bytes)
            f.write(struct.pack("<Q", len(store.names())))
            for name, t in store.items():
                raw = name.encode()
                f.write(struct.pack("<I", len(raw)))
                f.write(raw)
                f.write(struct.pack("<I", t.ndim))
                f.write(struct.pack(f"<{t.ndim}Q", *t.shape))
                f.write(np.ascontiguousarray(t.data, dtype="<f4").tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_checkpoint(path, dtype=np.float32):
    """Read a checkpoint container; returns (config, store)."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        raise InputError(f"cannot read checkpoint {path}: {e}") from None
    try:
        return _parse_checkpoint(blob, dtype)
    except (struct.error, IndexError, UnicodeDecodeError) as e:
        raise InputError(f"corrupt checkpoint {path}: {e}") from None


def _parse_checkpoint(blob: bytes, dtype):
    off = 0

    def take(n):
        nonlocal off
        if off + n > len(blob):
            raise InputError("checkpoint truncated")
        out = blob[off:off + n]
        off += n
        return out

    version, probe = struct.unpack("<II", take(8))
    if version != CHECKPOINT_VERSION:
        raise InputError(f"unsupported checkpoint version {version}")
    if probe != ENDIAN_PROBE:
        raise InputError("checkpoint endianness probe mismatch")
    (config_len,) = struct.unpack("<Q", take(8))
    cfg = ModelConfig.from_json(take(config_len).decode())
    (count,) = struct.unpack("<Q", take(8))

    # the config's specs decide each tensor's shape, dtype and learnability,
    # exactly as `init_parameters` does for a fresh store
    expected = {s.name: s for s in iter_parameter_specs(cfg)}
    store = ParameterStore()
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        name = take(name_len).decode()
        (rank,) = struct.unpack("<I", take(4))
        shape = struct.unpack(f"<{rank}Q", take(8 * rank))
        size = int(np.prod(shape, dtype=np.int64)) if rank else 1
        data = np.frombuffer(take(4 * size), dtype="<f4").reshape(shape)
        spec = expected.get(name)
        if spec is None or name in store:
            raise InputError(f"checkpoint tensors do not match its config: {name!r}")
        if shape != spec.shape:
            raise InputError(f"checkpoint tensor {name} has shape {shape}, "
                             f"config implies {spec.shape}")
        store.add(name, data.astype(dtype if spec.learnable else np.float64),
                  learnable=spec.learnable)
    if off != len(blob):
        raise InputError("trailing bytes after checkpoint payload")
    if list(expected) != store.names():
        raise InputError("checkpoint tensors do not match its config")
    return cfg, store

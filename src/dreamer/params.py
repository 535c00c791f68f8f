"""Parameter naming, initialization, and the checkpoint container format.

A model's parameters are a plain `dict[str, Tensor]` in the order of
`iter_parameter_specs`: learnable weights, norm gains, and the
(non-learned, no-gradient) balancing bias vectors. Names are
hierarchical, e.g. `layer.sa.qkv_bank.experts` for the shared set of a
depth-recurrent model or `layer3.ea.experts.down` for the fourth set of a
layered one.

Initialization: weights draw from N(0, sqrt(1/(5 h))); output projections
(attention output banks and EA down projections) use the depth-aware
N(0, sqrt(1 / (2.5 h depth attn_modules))) with attn_modules = 3 when
depth attention is present and 2 otherwise. Gains start at one, biases at
zero. Draw order is the enumeration order, so a seed pins every value.

Checkpoint container (binary, little-endian):
    u32 format version | u32 endianness probe (0x01020304)
    u64 config length  | config JSON bytes
    u64 tensor count
    per tensor: u32 name length | name bytes | u32 dtype code
                | u32 rank | u64*rank extents | payload
The dtype code indexes PAYLOAD_DTYPES: a float64 tensor is stored as
float64, any other as float32. Version 1 files have no dtype code and
store every payload as float32; they still load. Balancing biases are
stored like any other tensor; usage counts are transient and never
persisted.
"""

from __future__ import annotations

import os
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .config import ModelConfig
from .errors import InputError
from .tensor import Tensor

CHECKPOINT_VERSION = 2
ENDIAN_PROBE = 0x01020304
PAYLOAD_DTYPES = (np.dtype("<f4"), np.dtype("<f8"))

# init kinds: how each tensor is filled at construction time
INIT_WEIGHT = "weight"      # N(0, sqrt(1/(5h)))
INIT_OUT = "out_weight"     # N(0, sqrt(1/(2.5 h depth attn_modules)))
INIT_ONES = "ones"          # norm gains
INIT_ZEROS = "zeros"        # balancing biases (non-learned)

# balancing biases are float64 statistics outside the graph, whatever the
# dtype of the learnable tensors
BIAS_DTYPE = np.float64


@dataclass(frozen=True)
class ParamSpec:
    name: str
    shape: tuple
    init: str

    @property
    def learnable(self) -> bool:
        return self.init != INIT_ZEROS

    def dtype(self, weights_dtype) -> np.dtype:
        """How the parameters hold this tensor: learnable ones in `weights_dtype`."""
        return np.dtype(weights_dtype if self.learnable else BIAS_DTYPE)


def iter_parameter_specs(cfg: ModelConfig):
    """Enumerate every named tensor of a model, in construction order."""
    cfg.validate()
    h = cfg.hidden_size

    def router(m, module):
        experts = cfg.router_dims(module)[0]
        yield ParamSpec(f"{m}.router.query.weight", (h, cfg.ea_qk_dim), INIT_WEIGHT)
        yield ParamSpec(f"{m}.router.keys", (experts, cfg.ea_qk_dim), INIT_WEIGHT)
        yield ParamSpec(f"{m}.router.bias", (experts,), INIT_ZEROS)

    yield ParamSpec("embed.weight", (cfg.vocab_size, h), INIT_WEIGHT)
    if not cfg.tie_embeddings:
        yield ParamSpec("head.weight", (cfg.vocab_size, h), INIT_WEIGHT)
    yield ParamSpec("final_norm.gain", (h,), INIT_ONES)
    if not cfg.layered:
        yield ParamSpec("layer.stream_norm.gain", (h,), INIT_ONES)

    for i in range(cfg.param_sets):
        p = cfg.set_name(i)

        for module in cfg.attention_modules:
            m = f"{p}.{module}"
            _, _, head_dim, qkv_dim, out_dim = cfg.attention_dims(module)
            yield ParamSpec(f"{m}.in_norm.gain", (h,), INIT_ONES)
            yield ParamSpec(f"{m}.q_norm.gain", (head_dim,), INIT_ONES)
            yield ParamSpec(f"{m}.k_norm.gain", (head_dim,), INIT_ONES)
            if cfg.layered:
                yield ParamSpec(f"{m}.qkv.weight", (h, qkv_dim), INIT_WEIGHT)
                yield ParamSpec(f"{m}.out.weight", (out_dim, h), INIT_OUT)
                continue
            E = cfg.router_dims(module)[0]
            yield ParamSpec(f"{m}.qkv_bank.experts", (E, h, qkv_dim), INIT_WEIGHT)
            yield ParamSpec(f"{m}.qkv_bank.shared", (h, qkv_dim), INIT_WEIGHT)
            yield ParamSpec(f"{m}.out_bank.experts", (E, out_dim, h), INIT_OUT)
            yield ParamSpec(f"{m}.out_bank.shared", (out_dim, h), INIT_OUT)
            yield from router(m, module)

        yield ParamSpec(f"{p}.ea.in_norm.gain", (h,), INIT_ONES)
        yield from router(f"{p}.ea", "ea")
        dff = cfg.ea_intermediate_size
        yield ParamSpec(f"{p}.ea.experts.gate", (cfg.ea_num_experts, h, dff), INIT_WEIGHT)
        yield ParamSpec(f"{p}.ea.experts.up", (cfg.ea_num_experts, h, dff), INIT_WEIGHT)
        yield ParamSpec(f"{p}.ea.experts.down", (cfg.ea_num_experts, dff, h), INIT_OUT)


def learnable(params: dict[str, Tensor]) -> dict[str, Tensor]:
    """The tensors that take a gradient: all but the balancing biases."""
    return {name: t for name, t in params.items() if t.requires_grad}


def init_parameters(cfg: ModelConfig, seed: int, dtype=np.float32) -> dict[str, Tensor]:
    rng = np.random.default_rng(seed)
    h = cfg.hidden_size
    std = float(np.sqrt(1.0 / (5.0 * h)))
    attn_modules = 3 if cfg.has_da else 2
    out_std = float(np.sqrt(1.0 / (2.5 * h * cfg.depth * attn_modules)))

    params = {}
    for spec in iter_parameter_specs(cfg):
        if spec.init == INIT_WEIGHT:
            arr = rng.normal(0.0, std, spec.shape).astype(dtype)
        elif spec.init == INIT_OUT:
            arr = rng.normal(0.0, out_std, spec.shape).astype(dtype)
        elif spec.init == INIT_ONES:
            arr = np.ones(spec.shape, dtype=dtype)
        else:  # balancing bias
            arr = np.zeros(spec.shape, dtype=spec.dtype(dtype))
        params[spec.name] = Tensor(arr, requires_grad=spec.learnable)
    return params


# -- checkpoint container ------------------------------------------------------

def save_checkpoint(path, cfg: ModelConfig, params: dict[str, Tensor]) -> None:
    """Write the container atomically: a failed write leaves `path` as it was."""
    config_bytes = cfg.to_json().encode()
    tmp = f"{os.fspath(path)}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(struct.pack("<II", CHECKPOINT_VERSION, ENDIAN_PROBE))
            f.write(struct.pack("<Q", len(config_bytes)))
            f.write(config_bytes)
            f.write(struct.pack("<Q", len(params)))
            for name, t in params.items():
                raw = name.encode()
                f.write(struct.pack("<I", len(raw)))
                f.write(raw)
                payload = np.ascontiguousarray(
                    t.data, dtype="<f8" if t.dtype == np.float64 else "<f4")
                f.write(struct.pack("<II", PAYLOAD_DTYPES.index(payload.dtype), t.ndim))
                f.write(struct.pack(f"<{t.ndim}Q", *t.shape))
                f.write(payload.tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_checkpoint(path, dtype=np.float32):
    """Read a checkpoint container; returns (config, params)."""
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
    if version not in (1, CHECKPOINT_VERSION):
        raise InputError(f"unsupported checkpoint version {version}")
    if probe != ENDIAN_PROBE:
        raise InputError("checkpoint endianness probe mismatch")
    (config_len,) = struct.unpack("<Q", take(8))
    cfg = ModelConfig.from_json(take(config_len).decode())
    (count,) = struct.unpack("<Q", take(8))

    # the config's specs decide each tensor's shape, dtype and learnability,
    # exactly as `init_parameters` does for fresh parameters
    expected = {s.name: s for s in iter_parameter_specs(cfg)}
    params = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        name = take(name_len).decode()
        (code,) = struct.unpack("<I", take(4)) if version > 1 else (0,)
        if code >= len(PAYLOAD_DTYPES):
            raise InputError(f"checkpoint tensor {name} has unknown dtype code {code}")
        (rank,) = struct.unpack("<I", take(4))
        shape = struct.unpack(f"<{rank}Q", take(8 * rank))
        size = int(np.prod(shape, dtype=np.int64)) if rank else 1
        payload = PAYLOAD_DTYPES[code]
        data = np.frombuffer(take(payload.itemsize * size), dtype=payload).reshape(shape)
        spec = expected.get(name)
        if spec is None or name in params:
            raise InputError(f"checkpoint tensors do not match its config: {name!r}")
        if shape != spec.shape:
            raise InputError(f"checkpoint tensor {name} has shape {shape}, "
                             f"config implies {spec.shape}")
        # astype copies, so the arrays that AdamW and balancing update in
        # place are writable, unlike the buffer they are read from
        params[name] = Tensor(data.astype(spec.dtype(dtype)),
                              requires_grad=spec.learnable)
    if off != len(blob):
        raise InputError("trailing bytes after checkpoint payload")
    if list(expected) != list(params):
        raise InputError("checkpoint tensors do not match its config")
    return cfg, params

"""Model and training configuration.

One flat record covers architecture and optimizer settings; config files
are JSON with exactly these field names, and unknown keys are hard errors
so a typo can never silently fall back to a default.

Variants:
  * LA: classically layered; every depth has its own parameter set, plain
    attention projections, no depth attention,
  * DR: one shared parameter set applied `depth` times, attention
    projections become top-1 expert banks, residual stream is re-normalized
    after every application,
  * DR_DA: DR plus the depth-attention module.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

from .errors import ConfigError

VARIANTS = ("LA", "DR", "DR_DA")
COMPOSITIONS = ("sequential", "partial_parallel", "full_parallel")


@dataclass
class ModelConfig:
    variant: str = "DR_DA"
    depth: int = 4
    hidden_size: int = 64
    vocab_size: int = 512
    context_length: int = 256
    composition: str = "partial_parallel"
    tie_embeddings: bool = True
    rms_eps: float = 1e-6

    # sequence attention
    sa_query_heads: int = 4
    sa_kv_heads: int = 2
    sa_head_dim: int = 16
    sa_rope_base: float = 10000.0

    # depth attention (DR_DA only)
    da_query_heads: int = 1
    da_kv_heads: int = 1
    da_head_dim: int = 16
    da_rope_base: float = 500.0

    # expert attention
    ea_num_experts: int = 32
    ea_active_experts: int = 8
    ea_intermediate_size: int = 64
    ea_qk_dim: int = 16
    ea_bias_update_rate: float = 1e-3

    # attention-projection expert banks (DR variants; LA stays plain)
    attn_moe_num_experts: int = 0  # 0 means "= depth"
    attn_moe_bias_update_rate: float = 1e-2

    # optimizer
    max_lr: float = 4e-4
    warmup_steps: int = 500
    weight_decay: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    grad_clip: float = 0.5
    batch_size: int = 8

    # -- derived geometry ---------------------------------------------------
    @property
    def attn_experts(self) -> int:
        return self.attn_moe_num_experts or self.depth

    @property
    def attention_modules(self) -> tuple:
        return ("sa", "da") if self.has_da else ("sa",)

    def attention_dims(self, module: str) -> tuple:
        """(query_heads, kv_heads, head_dim, qkv_dim, out_dim) of "sa" or "da"."""
        query_heads, kv_heads, head_dim = (
            getattr(self, f"{module}_{n}") for n in ("query_heads", "kv_heads", "head_dim"))
        return (query_heads, kv_heads, head_dim,
                (query_heads + 2 * kv_heads) * head_dim, query_heads * head_dim)

    @property
    def layered(self) -> bool:
        return self.variant == "LA"

    @property
    def has_da(self) -> bool:
        return self.variant == "DR_DA"

    @property
    def param_sets(self) -> int:
        return self.depth if self.layered else 1

    def set_name(self, depth: int) -> str:
        return f"layer{depth}" if self.layered else "layer"

    def validate(self) -> "ModelConfig":
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.composition not in COMPOSITIONS:
            raise ConfigError(
                f"composition must be one of {COMPOSITIONS}, got {self.composition!r}")
        if self.depth < 1:
            raise ConfigError(f"depth must be >= 1, got {self.depth}")
        for name in ("hidden_size", "vocab_size", "context_length", "sa_query_heads",
                     "sa_kv_heads", "sa_head_dim", "da_query_heads", "da_kv_heads",
                     "da_head_dim", "ea_num_experts", "ea_active_experts",
                     "ea_intermediate_size", "ea_qk_dim", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.sa_query_heads % self.sa_kv_heads != 0:
            raise ConfigError("sa_query_heads must be a multiple of sa_kv_heads")
        if self.da_query_heads % self.da_kv_heads != 0:
            raise ConfigError("da_query_heads must be a multiple of da_kv_heads")
        if self.sa_head_dim % 2 != 0:
            raise ConfigError("sa_head_dim must be even for rotary positions")
        if self.da_head_dim % 4 != 0:
            raise ConfigError("da_head_dim must be divisible by 4 for depth rotary")
        if self.ea_qk_dim % 4 != 0:
            raise ConfigError("ea_qk_dim must be divisible by 4 for depth rotary")
        if self.ea_active_experts > self.ea_num_experts:
            raise ConfigError(
                f"ea_active_experts={self.ea_active_experts} exceeds "
                f"ea_num_experts={self.ea_num_experts}")
        if self.attn_moe_num_experts < 0:
            raise ConfigError("attn_moe_num_experts must be >= 0")
        if self.warmup_steps < 1:
            raise ConfigError("warmup_steps must be >= 1")
        return self

    # -- serialization --------------------------------------------------------
    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        field_names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - field_names
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        typed = {}
        for f in dataclasses.fields(cls):
            if f.name not in data:
                continue
            value = data[f.name]
            want = f.type if isinstance(f.type, type) else {"str": str, "int": int,
                                                            "float": float,
                                                            "bool": bool}[f.type]
            if want is float and isinstance(value, int) and not isinstance(value, bool):
                value = float(value)
            if not isinstance(value, want) or (want is int and isinstance(value, bool)):
                raise ConfigError(
                    f"config key {f.name!r} expects {want.__name__}, got {value!r}")
            typed[f.name] = value
        return cls(**typed).validate()

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from None
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        return cls.from_dict(data)

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def load_config(path) -> ModelConfig:
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    return ModelConfig.from_json(text)


def desk_config(variant: str = "DR_DA", depth: int = 4, **overrides) -> ModelConfig:
    """Small CPU-friendly preset used across tests and examples."""
    cfg = dataclasses.replace(ModelConfig(), variant=variant, depth=depth, **overrides)
    return cfg.validate()


def published_config(variant: str, depth: int) -> ModelConfig:
    """Published large-scale presets (for cost-model yardsticks only)."""
    ea = {("LA", 16): (32 * 16, 512), ("LA", 32): (32 * 32, 512),
          ("DR", 16): (517, 504), ("DR", 32): (1039, 504),
          ("DR_DA", 16): (537, 480), ("DR_DA", 32): (1097, 472)}
    try:
        num, dff = ea[(variant, depth)]
    except KeyError:
        raise ConfigError(f"no published preset for {variant} depth {depth}") from None
    # LA presets list total experts across layers; convert to per-layer counts
    if variant == "LA":
        num //= depth
    return ModelConfig(
        variant=variant, depth=depth, hidden_size=1024, vocab_size=128256,
        context_length=4096, tie_embeddings=False,
        sa_query_heads=16, sa_kv_heads=8, sa_head_dim=128,
        da_query_heads=1, da_kv_heads=1, da_head_dim=128,
        ea_num_experts=num, ea_intermediate_size=dff, ea_qk_dim=128,
    ).validate()

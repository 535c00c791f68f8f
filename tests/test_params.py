"""Configuration records, parameter initialization, and checkpoint files."""

import numpy as np
import pytest

from dreamer.config import ModelConfig, desk_config, load_config, published_config
from dreamer.errors import ConfigError, InputError
from dreamer.params import (
    init_parameters,
    iter_parameter_specs,
    load_checkpoint,
    save_checkpoint,
)
from reference import save_checkpoint_v1


# -- configuration ---------------------------------------------------------

def test_config_json_round_trip():
    cfg = desk_config("DR_DA", 4, hidden_size=128, ea_num_experts=16)
    again = ModelConfig.from_json(cfg.to_json())
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()


def test_config_rejects_unknown_keys():
    data = desk_config().to_dict()
    data["hiden_size"] = 64
    with pytest.raises(ConfigError, match="hiden_size"):
        ModelConfig.from_dict(data)


def test_config_rejects_wrong_types():
    data = desk_config().to_dict()
    data["depth"] = "4"
    with pytest.raises(ConfigError, match="depth"):
        ModelConfig.from_dict(data)
    data = desk_config().to_dict()
    data["depth"] = True
    with pytest.raises(ConfigError, match="depth"):
        ModelConfig.from_dict(data)


def test_config_accepts_int_for_float_field():
    data = desk_config().to_dict()
    data["max_lr"] = 1
    assert ModelConfig.from_dict(data).max_lr == 1.0


def test_config_hash_tracks_content():
    a = desk_config("DR", 4)
    b = desk_config("DR", 8)
    assert a.config_hash() != b.config_hash()
    assert a.config_hash() == desk_config("DR", 4).config_hash()


@pytest.mark.parametrize("field,value", [
    ("variant", "MoE"),
    ("composition", "parallel"),
    ("depth", 0),
    ("sa_query_heads", 3),       # not a multiple of sa_kv_heads=2
    ("sa_head_dim", 15),
    ("da_head_dim", 18),         # even but not divisible by 4
    ("ea_qk_dim", 6),
    ("ea_active_experts", 33),   # exceeds ea_num_experts=32
    ("warmup_steps", 0),
])
def test_config_validation_errors(field, value):
    with pytest.raises(ConfigError):
        desk_config(**{field: value})


FLOAT_FIELDS = ("rms_eps", "sa_rope_base", "da_rope_base", "ea_bias_update_rate",
                "attn_moe_bias_update_rate", "max_lr", "weight_decay", "adam_beta1",
                "adam_beta2", "adam_eps", "grad_clip")


@pytest.mark.parametrize("field,value", [
    *((name, v) for name in FLOAT_FIELDS for v in (float("nan"), float("inf"), float("-inf"))),
    ("rms_eps", -1.0), ("rms_eps", 0.0), ("adam_eps", 0.0), ("grad_clip", -0.5),
    ("grad_clip", 0.0), ("max_lr", 0.0), ("max_lr", -4e-4), ("sa_rope_base", 0.0),
    ("da_rope_base", -500.0), ("weight_decay", -1.0), ("ea_bias_update_rate", -1.0),
    ("attn_moe_bias_update_rate", -1e-2), ("adam_beta1", 1.0), ("adam_beta1", -0.1),
    ("adam_beta2", 1.0), ("adam_beta2", 1.5),
])
def test_config_rejects_bad_floats(field, value):
    data = desk_config().to_dict()
    data[field] = value
    with pytest.raises(ConfigError, match=field):
        ModelConfig.from_dict(data)


def test_config_accepts_float_range_edges():
    data = desk_config().to_dict()
    data.update(weight_decay=0.0, ea_bias_update_rate=0.0, attn_moe_bias_update_rate=0.0,
                adam_beta1=0.0, adam_beta2=0.0, rms_eps=1e-30, max_lr=1e9)
    assert ModelConfig.from_dict(data).adam_beta1 == 0.0


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.json")


def test_load_config_round_trip(tmp_path):
    cfg = desk_config("LA", 2)
    path = tmp_path / "model.json"
    path.write_text(cfg.to_json())
    assert load_config(path) == cfg


def test_published_presets_are_valid():
    for variant in ("LA", "DR", "DR_DA"):
        for depth in (16, 32):
            cfg = published_config(variant, depth)
            assert cfg.hidden_size == 1024
            assert not cfg.tie_embeddings
    assert published_config("LA", 16).ea_num_experts == 32
    assert published_config("DR_DA", 32).ea_num_experts == 1097
    with pytest.raises(ConfigError):
        published_config("DR", 64)


# -- parameter naming and initialization -------------------------------------

def test_layered_store_names():
    store = init_parameters(desk_config("LA", 2), seed=0)
    names = set(store)
    assert "layer0.sa.qkv.weight" in names
    assert "layer1.ea.experts.down" in names
    assert "layer.stream_norm.gain" not in names
    assert not any(".da." in n for n in names)
    assert not any("_bank" in n for n in names)
    assert not any(".sa.router" in n for n in names)


def test_recurrent_store_names():
    store = init_parameters(desk_config("DR", 4), seed=0)
    names = set(store)
    assert "layer.stream_norm.gain" in names
    assert "layer.sa.qkv_bank.experts" in names
    assert "layer.sa.router.bias" in names
    assert "layer0.sa.qkv.weight" not in names
    assert not any(".da." in n for n in names)

    da_names = set(init_parameters(desk_config("DR_DA", 4), seed=0))
    assert "layer.da.qkv_bank.shared" in da_names
    assert "layer.da.router.keys" in da_names


def test_attention_bank_expert_count_follows_depth():
    cfg = desk_config("DR", 6)
    store = init_parameters(cfg, seed=0)
    assert store["layer.sa.qkv_bank.experts"].shape == (6, 64, cfg.attention_dims("sa")[3])
    cfg = desk_config("DR", 6, attn_moe_num_experts=3)
    store = init_parameters(cfg, seed=0)
    assert store["layer.sa.qkv_bank.experts"].shape == (3, 64, cfg.attention_dims("sa")[3])


def test_init_is_deterministic_per_seed():
    cfg = desk_config("DR_DA", 2)
    a = init_parameters(cfg, seed=7)
    b = init_parameters(cfg, seed=7)
    c = init_parameters(cfg, seed=8)
    for name in list(a):
        assert np.array_equal(a[name].data, b[name].data)
    assert not np.array_equal(a["embed.weight"].data, c["embed.weight"].data)


def test_init_statistics():
    cfg = desk_config("DR_DA", 4, vocab_size=4096, hidden_size=64)
    store = init_parameters(cfg, seed=0)
    std = np.sqrt(1.0 / (5 * 64))
    out_std = np.sqrt(1.0 / (2.5 * 64 * 4 * 3))
    embed = store["embed.weight"].data
    assert abs(embed.std() - std) < 0.05 * std
    down = store["layer.ea.experts.down"].data
    assert abs(down.std() - out_std) < 0.05 * out_std
    assert np.all(store["final_norm.gain"].data == 1.0)
    bias = store["layer.ea.router.bias"]
    assert bias.dtype == np.float64
    assert not bias.requires_grad
    assert np.all(bias.data == 0.0)


def test_output_scale_counts_attention_modules():
    down_da = init_parameters(desk_config("DR_DA", 4), seed=0)["layer.ea.experts.down"]
    down_dr = init_parameters(desk_config("DR", 4), seed=0)["layer.ea.experts.down"]
    ratio = down_dr.data.std() / down_da.data.std()
    assert abs(ratio - np.sqrt(3 / 2)) < 0.05


@pytest.mark.parametrize("variant", ["LA", "DR", "DR_DA"])
@pytest.mark.parametrize("depth", [1, 2, 4, 7])
def test_specs_never_repeat_a_name(variant, depth):
    names = [spec.name for spec in iter_parameter_specs(desk_config(variant, depth))]
    assert len(set(names)) == len(names)


def test_tied_embeddings_drop_head_matrix():
    tied = init_parameters(desk_config("DR", 2, tie_embeddings=True), seed=0)
    untied = init_parameters(desk_config("DR", 2, tie_embeddings=False), seed=0)
    assert "head.weight" not in list(tied)
    assert "head.weight" in list(untied)


# -- checkpoint container -----------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    cfg = desk_config("DR_DA", 2, hidden_size=32, ea_num_experts=8,
                      ea_active_experts=4, ea_intermediate_size=16)
    store = init_parameters(cfg, seed=3)
    store["layer.ea.router.bias"].data[:] = np.linspace(-0.004, 0.004, 8)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, store)

    cfg2, store2 = load_checkpoint(path)
    assert cfg2 == cfg
    assert list(store2) == list(store)
    for name in list(store):
        orig = store[name].data.astype(np.float32)
        assert np.array_equal(store2[name].data.astype(np.float32), orig), name
    bias = store2["layer.ea.router.bias"]
    assert bias.dtype == np.float64
    assert not bias.requires_grad
    assert store2["embed.weight"].requires_grad


def test_checkpoint_float64_load(tmp_path):
    cfg = desk_config("DR", 2, hidden_size=16, ea_num_experts=4,
                      ea_active_experts=2, ea_intermediate_size=8)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, init_parameters(cfg, seed=0))
    _, store = load_checkpoint(path, dtype=np.float64)
    assert store["embed.weight"].dtype == np.float64


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_checkpoint_keeps_each_tensor_dtype_bitwise(tmp_path, dtype):
    cfg = desk_config("DR_DA", 2, hidden_size=16, ea_num_experts=4,
                      ea_active_experts=2, ea_intermediate_size=8)
    store = init_parameters(cfg, seed=5, dtype=dtype)
    bias = store["layer.ea.router.bias"].data
    bias[:] = np.arange(1, 5) / 3.0e3  # not representable in float32
    assert not np.array_equal(bias.astype(np.float32).astype(np.float64), bias)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, store)

    _, loaded = load_checkpoint(path, dtype=dtype)
    assert list(loaded) == list(store)
    for name, t in store.items():
        got = loaded[name]
        assert got.dtype == t.dtype and got.data.tobytes() == t.data.tobytes(), name
        assert got.requires_grad == t.requires_grad
        assert got.data.flags.writeable, name


def test_checkpoint_version1_still_loads(tmp_path):
    cfg = desk_config("DR_DA", 2, hidden_size=16, ea_num_experts=4,
                      ea_active_experts=2, ea_intermediate_size=8)
    store = init_parameters(cfg, seed=5, dtype=np.float64)
    store["layer.ea.router.bias"].data[:] = np.arange(1, 5) / 3.0e3
    path = tmp_path / "v1.ckpt"
    save_checkpoint_v1(path, cfg, store)
    for dtype in (np.float32, np.float64):
        cfg2, loaded = load_checkpoint(path, dtype=dtype)
        assert cfg2 == cfg
        assert list(loaded) == list(store)
        for spec in iter_parameter_specs(cfg):
            # version 1 held every payload as float32
            want = store[spec.name].data.astype(np.float32).astype(spec.dtype(dtype))
            got = loaded[spec.name].data
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert got.flags.writeable


def test_checkpoint_unknown_dtype_code_rejected(tmp_path):
    cfg = desk_config("DR", 2, hidden_size=16, ea_num_experts=4,
                      ea_active_experts=2, ea_intermediate_size=8)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, init_parameters(cfg, seed=0))
    blob = bytearray(path.read_bytes())
    first = 8 + 8 + len(cfg.to_json().encode()) + 8 + 4 + len(b"embed.weight")
    blob[first:first + 4] = (7).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(InputError, match="dtype code 7"):
        load_checkpoint(path)


def test_checkpoint_truncation_rejected(tmp_path):
    cfg = desk_config("DR", 2, hidden_size=16, ea_num_experts=4,
                      ea_active_experts=2, ea_intermediate_size=8)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, init_parameters(cfg, seed=0))
    blob = path.read_bytes()
    for cut in (4, len(blob) // 2, len(blob) - 3):
        clipped = tmp_path / f"cut{cut}.ckpt"
        clipped.write_bytes(blob[:cut])
        with pytest.raises(InputError):
            load_checkpoint(clipped)


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    cfg = desk_config("DR", 2, hidden_size=16, ea_num_experts=4,
                      ea_active_experts=2, ea_intermediate_size=8)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, init_parameters(cfg, seed=0))
    path.write_bytes(path.read_bytes() + b"\x00\x01")
    with pytest.raises(InputError, match="trailing"):
        load_checkpoint(path)


def test_checkpoint_bad_probe_rejected(tmp_path):
    cfg = desk_config("DR", 2, hidden_size=16, ea_num_experts=4,
                      ea_active_experts=2, ea_intermediate_size=8)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, init_parameters(cfg, seed=0))
    blob = bytearray(path.read_bytes())
    blob[4:8] = blob[4:8][::-1]
    path.write_bytes(bytes(blob))
    with pytest.raises(InputError, match="endian"):
        load_checkpoint(path)


def test_checkpoint_tensor_set_must_match_config(tmp_path):
    cfg = desk_config("DR", 2, hidden_size=16, ea_num_experts=4,
                      ea_active_experts=2, ea_intermediate_size=8)
    full = init_parameters(cfg, seed=0)
    partial = {name: t for name, t in full.items() if name != "final_norm.gain"}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, partial)
    with pytest.raises(InputError, match="do not match"):
        load_checkpoint(path)

    class Repeated:  # writes one tensor twice, which a dict cannot hold
        def __len__(self):
            return len(full) + 1

        def items(self):
            return list(full.items()) + [("embed.weight", full["embed.weight"])]

    save_checkpoint(path, cfg, Repeated())
    with pytest.raises(InputError, match="do not match"):
        load_checkpoint(path)


def test_failed_checkpoint_write_keeps_previous_file(tmp_path):
    cfg = desk_config("DR", 2, hidden_size=16, ea_num_experts=4,
                      ea_active_experts=2, ea_intermediate_size=8)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, init_parameters(cfg, seed=0))
    before = path.read_bytes()
    store = init_parameters(cfg, seed=1)
    second = store[list(store)[1]]
    # the second tensor cannot become float32, so the write fails partway
    second.data = np.full(second.shape, "x", dtype=object)
    with pytest.raises(ValueError):
        save_checkpoint(path, cfg, store)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(InputError, match="cannot read"):
        load_checkpoint(tmp_path / "absent.ckpt")

"""Configuration records, parameter initialization, and checkpoint files."""

import numpy as np
import pytest

from dreamer.config import ModelConfig, desk_config, load_config, published_config
from dreamer.errors import ConfigError, ContractError, InputError
from dreamer.params import (
    ParameterStore,
    init_parameters,
    load_checkpoint,
    save_checkpoint,
)


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
    names = set(store.names())
    assert "layer0.sa.qkv.weight" in names
    assert "layer1.ea.experts.down" in names
    assert "layer.stream_norm.gain" not in names
    assert not any(".da." in n for n in names)
    assert not any("_bank" in n for n in names)
    assert not any(".sa.router" in n for n in names)


def test_recurrent_store_names():
    store = init_parameters(desk_config("DR", 4), seed=0)
    names = set(store.names())
    assert "layer.stream_norm.gain" in names
    assert "layer.sa.qkv_bank.experts" in names
    assert "layer.sa.router.bias" in names
    assert "layer0.sa.qkv.weight" not in names
    assert not any(".da." in n for n in names)

    da_names = set(init_parameters(desk_config("DR_DA", 4), seed=0).names())
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
    for name in a.names():
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


def test_store_rejects_duplicates():
    store = ParameterStore()
    store.add("w", np.zeros((2, 2), dtype=np.float32))
    with pytest.raises(ContractError, match="duplicate"):
        store.add("w", np.zeros((2, 2), dtype=np.float32))


def test_tied_embeddings_drop_head_matrix():
    tied = init_parameters(desk_config("DR", 2, tie_embeddings=True), seed=0)
    untied = init_parameters(desk_config("DR", 2, tie_embeddings=False), seed=0)
    assert "head.weight" not in tied.names()
    assert "head.weight" in untied.names()


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
    assert store2.names() == store.names()
    for name in store.names():
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
    partial = ParameterStore()
    for name, t in full.items():
        if name != "final_norm.gain":
            partial.add(name, t.data, "weight")
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, partial)
    with pytest.raises(InputError, match="do not match"):
        load_checkpoint(path)

    class Repeated:  # writes one tensor twice, which a ParameterStore cannot hold
        def names(self):
            return full.names() + ["embed.weight"]

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
    second = store[store.names()[1]]
    # the second tensor cannot become float32, so the write fails partway
    second.data = np.full(second.shape, "x", dtype=object)
    with pytest.raises(ValueError):
        save_checkpoint(path, cfg, store)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(InputError, match="cannot read"):
        load_checkpoint(tmp_path / "absent.ckpt")

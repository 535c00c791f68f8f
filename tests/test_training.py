"""Optimizer math, task generation, and training-loop mechanics."""

import json
import weakref

import numpy as np
import pytest

import dreamer.training
from dreamer.config import desk_config
from dreamer.errors import ConfigError, InputError, NumericError
from dreamer.params import init_parameters, learnable, load_checkpoint
from dreamer.training import (IGNORE_TARGET, SEPARATOR_TOKEN, OptimizerState,
                              TaskSpec, adamw_step, clip_grad_norm,
                              lr_at, make_batch, make_task,
                              masked_cross_entropy, running_modular_sums,
                              save_token_file, synthetic_answer, train)
from dreamer import tensor as T


def tiny_config(variant="DR", **overrides):
    base = dict(hidden_size=16, vocab_size=16, context_length=16,
                ea_num_experts=4, ea_active_experts=2, ea_intermediate_size=8,
                batch_size=2, warmup_steps=4)
    base.update(overrides)
    return desk_config(variant, 2, **base)


# -- schedule and optimizer ------------------------------------------------------

def test_lr_schedule():
    assert lr_at(0, 4e-4, 500) == pytest.approx(8e-7)
    assert lr_at(499, 4e-4, 500) == pytest.approx(4e-4)
    assert lr_at(10_000, 4e-4, 500) == pytest.approx(4e-4)
    assert lr_at(250, max_lr=1.0, warmup_steps=500) == pytest.approx(0.502)
    with pytest.raises(ConfigError):
        lr_at(-1, 4e-4, 500)


def test_clip_scales_to_max_norm():
    grads = {"a": np.array([2.0, 0.0]), "b": np.array([0.0, 0.0])}
    norm = clip_grad_norm(grads, 0.5)
    assert norm == pytest.approx(2.0)
    assert np.allclose(grads["a"], [0.5, 0.0])

    grads = {"a": np.array([0.3])}
    clip_grad_norm(grads, 0.5)
    assert grads["a"][0] == pytest.approx(0.3)

    rng = np.random.default_rng(0)
    grads = {f"g{i}": rng.normal(0, 1, (5, 7)) for i in range(4)}
    clip_grad_norm(grads, 0.5)
    post = np.sqrt(sum(np.sum(g ** 2) for g in grads.values()))
    assert post <= 0.5 + 1e-9


def test_clip_rejects_nonfinite():
    grads = {"ok": np.array([1.0]), "bad": np.array([np.nan])}
    with pytest.raises(NumericError, match="bad"):
        clip_grad_norm(grads, 0.5)


def scalar_state(**overrides):
    fields = dict(weight_decay=0.0, max_lr=0.1, warmup_steps=1)
    fields.update(overrides)
    return OptimizerState(m={"p": np.zeros(1)}, v={"p": np.zeros(1)},
                          cfg=desk_config(**fields))


class OneParamStore:
    def __init__(self, value):
        self.tensor = T.Tensor(np.array([value]), requires_grad=True)

    def __getitem__(self, name):
        return self.tensor


def test_adamw_hand_computed_step():
    params = OneParamStore(1.0)
    state = scalar_state()
    lr = adamw_step(params, {"p": np.array([1.0])}, state)
    assert lr == pytest.approx(0.1)
    assert params.tensor.data[0] == pytest.approx(0.9, abs=1e-6)

    params = OneParamStore(1.0)
    state = scalar_state(weight_decay=0.1)
    adamw_step(params, {"p": np.array([1.0])}, state)
    assert params.tensor.data[0] == pytest.approx(0.89, abs=1e-6)


def test_adamw_zero_grad_is_identity():
    params = OneParamStore(0.7)
    state = scalar_state()
    adamw_step(params, {"p": np.array([0.0])}, state)
    assert params.tensor.data[0] == 0.7
    assert state.step == 1


def test_adamw_moment_shapes_and_step_counter():
    cfg = tiny_config()
    store = init_parameters(cfg, seed=0)
    state = OptimizerState.for_store(store, cfg)
    for name, t in learnable(store).items():
        assert state.m[name].shape == t.data.shape
        assert state.v[name].shape == t.data.shape
    assert "layer.ea.router.bias" not in state.m
    assert state.step == 0


def test_adamw_unknown_gradient_changes_nothing():
    # the unknown name comes last, after every real gradient: the step is
    # still rejected before any parameter, moment or the counter moves
    cfg = tiny_config()
    store = init_parameters(cfg, seed=0)
    state = OptimizerState.for_store(store, cfg)
    rng = np.random.default_rng(0)
    grads = {name: rng.normal(0, 1, t.data.shape).astype(t.dtype)
             for name, t in learnable(store).items()}
    adamw_step(store, dict(grads), state)  # moments and step away from their zeros
    grads["bogus"] = np.ones(3, dtype=np.float32)

    def snapshot():
        return ({name: t.data.tobytes() for name, t in store.items()},
                {name: m.tobytes() for name, m in state.m.items()},
                {name: v.tobytes() for name, v in state.v.items()}, state.step)

    before = snapshot()
    with pytest.raises(ConfigError, match="bogus"):
        adamw_step(store, grads, state)
    assert snapshot() == before


# -- tasks -----------------------------------------------------------------------

def test_running_modular_sums_hand_check():
    assert running_modular_sums([3, 5, 6], 7).tolist() == [3, 1, 0]


def test_synthetic_answers():
    values = np.array([3, 1, 4])
    assert synthetic_answer("copy", values, 0).tolist() == [3, 1, 4]
    assert synthetic_answer("reverse", values, 0).tolist() == [4, 1, 3]


def test_make_task_layout():
    spec = TaskSpec("copy", seq_len=9, vocab_size=16, seed=1)
    tokens, targets = make_task(spec, 0)
    c = spec.content_length
    assert tokens.shape == targets.shape == (9,)
    assert tokens[c] == SEPARATOR_TOKEN
    assert np.all(tokens[:c] >= 1)
    assert np.array_equal(tokens[c + 1:2 * c + 1], tokens[:c])
    # live targets are exactly the answer tokens, predicted one step early
    assert np.array_equal(targets[c:2 * c], tokens[c + 1:2 * c + 1])
    assert np.all(targets[:c] == IGNORE_TARGET)
    assert np.all(targets[2 * c:] == IGNORE_TARGET)


def test_make_task_reverse_and_modular():
    spec = TaskSpec("reverse", seq_len=9, vocab_size=16, seed=2)
    tokens, _ = make_task(spec, 5)
    c = spec.content_length
    assert np.array_equal(tokens[c + 1:2 * c + 1], tokens[:c][::-1])

    spec = TaskSpec("modular_sum_chain", seq_len=9, vocab_size=16, seed=2, modulus=7)
    tokens, _ = make_task(spec, 5)
    values = tokens[:c] - 1
    want = running_modular_sums(values, 7) + 1
    assert np.array_equal(tokens[c + 1:2 * c + 1], want)


def test_make_task_deterministic_per_index():
    spec = TaskSpec("copy", seq_len=9, vocab_size=16, seed=3)
    a1, _ = make_task(spec, 11)
    a2, _ = make_task(spec, 11)
    b, _ = make_task(spec, 12)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_task_spec_validation():
    with pytest.raises(ConfigError, match="kind"):
        TaskSpec("sort", seq_len=9, vocab_size=16)
    with pytest.raises(ConfigError, match="token file"):
        TaskSpec("token_lm", seq_len=9, vocab_size=16)
    with pytest.raises(ConfigError, match="modulus"):
        TaskSpec("modular_sum_chain", seq_len=9, vocab_size=16, modulus=-5)
    with pytest.raises(ConfigError, match="modulus"):
        TaskSpec("modular_sum_chain", seq_len=9, vocab_size=16, modulus=16)
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        TaskSpec("copy", seq_len=9, vocab_size=16, seed=-1)


def test_token_lm_roundtrip(tmp_path):
    path = tmp_path / "corpus.bin"
    tokens = np.arange(50) % 11
    save_token_file(path, tokens, vocab_size=11)
    spec = TaskSpec("token_lm", seq_len=8, vocab_size=16, path=str(path))
    inputs, targets = make_task(spec, 0)
    assert np.array_equal(inputs, tokens[:8])
    assert np.array_equal(targets, tokens[1:9])
    inputs2, _ = make_task(spec, 1)
    assert np.array_equal(inputs2, tokens[8:16])


def test_token_lm_sees_a_rewritten_or_deleted_file(tmp_path):
    path = tmp_path / "corpus.bin"
    save_token_file(path, np.arange(20) % 7, vocab_size=8)
    spec = TaskSpec("token_lm", seq_len=4, vocab_size=16, path=str(path))
    assert make_task(spec, 0)[0].tolist() == [0, 1, 2, 3]
    save_token_file(path, (np.arange(20) + 3) % 7, vocab_size=8)
    assert make_task(spec, 0)[0].tolist() == [3, 4, 5, 6]
    # another writer, bypassing save_token_file
    path.write_bytes((np.arange(30) % 5 + 1).astype("<u4").tobytes())
    (tmp_path / "corpus.bin.json").write_text(json.dumps({"vocab_size": 8, "count": 30}))
    assert make_task(spec, 0)[0].tolist() == [1, 2, 3, 4]
    path.unlink()
    with pytest.raises(InputError, match="cannot read"):
        make_task(spec, 0)


def test_token_lm_rejects_bad_files(tmp_path):
    path = tmp_path / "corpus.bin"
    save_token_file(path, np.arange(20), vocab_size=32)
    meta = json.loads((tmp_path / "corpus.bin.json").read_text())
    meta["count"] = 99
    (tmp_path / "corpus.bin.json").write_text(json.dumps(meta))
    from dreamer.training import _load_token_file
    with pytest.raises(InputError, match="sidecar"):
        _load_token_file(str(path))
    with pytest.raises(InputError, match="cannot read"):
        _load_token_file(str(tmp_path / "missing.bin"))
    with pytest.raises(InputError, match="out of range"):
        save_token_file(path, np.array([5]), vocab_size=4)
    for bad, message in ((5, "JSON object"), ({"vocab_size": 32, "count": "ten"}, "count")):
        (tmp_path / "corpus.bin.json").write_text(json.dumps(bad))
        with pytest.raises(InputError, match=message):
            _load_token_file(str(path))


def test_masked_cross_entropy_matches_hand_case():
    logits = T.Tensor(np.zeros((1, 3, 4)))
    targets = np.array([[2, IGNORE_TARGET, 1]])
    loss = masked_cross_entropy(logits, targets)
    assert float(loss.data) == pytest.approx(np.log(4.0))
    with pytest.raises(InputError, match="live"):
        masked_cross_entropy(logits, np.full((1, 3), IGNORE_TARGET))


# -- the loop ---------------------------------------------------------------------

def test_train_zero_steps_initial_checkpoint_only(tmp_path):
    cfg = tiny_config()
    spec = TaskSpec("copy", seq_len=9, vocab_size=16, seed=0)
    result = train(cfg, spec, steps=0, run_dir=tmp_path, seed=0)
    assert result.history == []
    files = sorted(p.name for p in (tmp_path / "checkpoints").iterdir())
    assert files == ["step_000000.ckpt"]
    assert (tmp_path / "metrics.jsonl").read_text() == ""


def test_train_records_metrics_and_checkpoints(tmp_path):
    cfg = tiny_config()
    spec = TaskSpec("copy", seq_len=9, vocab_size=16, seed=0)
    result = train(cfg, spec, steps=5, run_dir=tmp_path, checkpoint_every=2, seed=0)
    assert len(result.history) == 5
    for step, record in enumerate(result.history):
        assert record["step"] == step
        assert np.isfinite(record["loss"])
        assert record["grad_norm"] >= 0
        assert record["lr"] == pytest.approx(lr_at(step, cfg.max_lr, cfg.warmup_steps))
        assert set(record["usage"]) == {"layer.ea", "layer.sa"}
        # every batch token routes through EA exactly once per depth
        tokens_routed = cfg.batch_size * spec.seq_len * cfg.depth
        assert sum(record["usage"]["layer.ea"]) == tokens_routed * cfg.ea_active_experts
        assert sum(record["usage"]["layer.sa"]) == tokens_routed

    lines = [json.loads(line) for line in
             (tmp_path / "metrics.jsonl").read_text().splitlines()]
    assert [r["step"] for r in lines] == list(range(5))
    files = sorted(p.name for p in (tmp_path / "checkpoints").iterdir())
    assert files == ["final.ckpt", "step_000000.ckpt", "step_000002.ckpt",
                     "step_000004.ckpt"]
    cfg2, store = load_checkpoint(tmp_path / "checkpoints" / "final.ckpt")
    assert cfg2 == cfg
    assert np.array_equal(store["embed.weight"].data,
                          result.model.params["embed.weight"].data)


def test_train_is_deterministic_in_float64():
    cfg = tiny_config()
    spec = TaskSpec("copy", seq_len=9, vocab_size=16, seed=0)
    a = train(cfg, spec, steps=4, seed=7, dtype=np.float64)
    b = train(cfg, spec, steps=4, seed=7, dtype=np.float64)
    assert [r["loss"] for r in a.history] == [r["loss"] for r in b.history]
    c = train(cfg, spec, steps=4, seed=8, dtype=np.float64)
    assert [r["loss"] for r in a.history] != [r["loss"] for r in c.history]


def test_train_updates_balancing_biases():
    cfg = tiny_config()
    spec = TaskSpec("copy", seq_len=9, vocab_size=16, seed=0)
    result = train(cfg, spec, steps=3, seed=0)
    bias = result.model.params["layer.ea.router.bias"].data
    assert bias.shape == (cfg.ea_num_experts,)
    assert np.any(bias != 0.0)
    assert len(result.history) == 3
    for name, state in result.model.routers.items():
        assert np.all(state.counts == 0)  # reset after the last update
        # balancing ran once per step, on that step's recorded counts
        replay = np.zeros(state.num_experts)
        for record in result.history:
            n = np.array(record["usage"][name], dtype=np.float64)
            replay += state.update_rate * np.sign(np.median(n) - n)
        np.testing.assert_array_equal(state.bias, replay)


def test_train_loss_decreases_on_tiny_copy():
    cfg = tiny_config(batch_size=4)
    spec = TaskSpec("copy", seq_len=9, vocab_size=16, seed=0)
    result = train(cfg, spec, steps=60, seed=1)
    first = np.mean([r["loss"] for r in result.history[:10]])
    last = np.mean([r["loss"] for r in result.history[-10:]])
    assert last < first


def test_train_validates_task_against_config(tmp_path):
    cfg = tiny_config()
    with pytest.raises(ConfigError, match="seq_len"):
        train(cfg, TaskSpec("copy", seq_len=32, vocab_size=16), steps=1)
    with pytest.raises(ConfigError, match="vocab"):
        train(cfg, TaskSpec("copy", seq_len=9, vocab_size=512), steps=1)
    with pytest.raises(ConfigError, match="steps"):
        train(cfg, TaskSpec("copy", seq_len=9, vocab_size=16), steps=-1)
    with pytest.raises(ConfigError, match="checkpoint_every"):
        train(cfg, TaskSpec("copy", seq_len=9, vocab_size=16), steps=1,
              checkpoint_every=-1)
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        train(cfg, TaskSpec("copy", seq_len=9, vocab_size=16), steps=1, seed=-1,
              run_dir=tmp_path / "run")
    assert not (tmp_path / "run").exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_train_aborts_on_nonfinite_loss(tmp_path):
    cfg = tiny_config(max_lr=1e6, grad_clip=1e9, warmup_steps=1)
    spec = TaskSpec("copy", seq_len=9, vocab_size=16, seed=0)
    with pytest.raises(NumericError, match="aborted"):
        train(cfg, spec, steps=50, run_dir=tmp_path, seed=0)
    lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
    assert "abort" in lines[-1]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_train_names_a_nonfinite_parameter(tmp_path, monkeypatch):
    # `train` hands `eval` its learnable parameters, so an inf in one is
    # reported by name: here in an embedding row no input token reads, which
    # reaches the loss only through the tied output head
    cfg = tiny_config(vocab_size=32)
    real_init = dreamer.training.init_parameters

    def poisoned(*args, **kwargs):
        params = real_init(*args, **kwargs)
        params["embed.weight"].data[31, 0] = np.inf
        return params

    monkeypatch.setattr(dreamer.training, "init_parameters", poisoned)
    with pytest.raises(NumericError, match="step 0: non-finite values in input 'embed.weight'"):
        train(cfg, TaskSpec("copy", seq_len=9, vocab_size=16), steps=1, run_dir=tmp_path)
    abort = json.loads((tmp_path / "metrics.jsonl").read_text().splitlines()[-1])["abort"]
    assert abort["reason"] == "non-finite values in input 'embed.weight'"


def test_metrics_stream_survives_an_exception_mid_run(tmp_path):
    cfg = tiny_config()
    spec = TaskSpec("copy", seq_len=9, vocab_size=16, seed=0)

    def stop_when(record, history):
        if len(history) == 3:
            raise KeyboardInterrupt
        return False

    with pytest.raises(KeyboardInterrupt):
        train(cfg, spec, steps=10, run_dir=tmp_path, seed=0, stop_when=stop_when)
    lines = [json.loads(line) for line in
             (tmp_path / "metrics.jsonl").read_text().splitlines()]
    assert [r["step"] for r in lines] == [0, 1, 2]
    assert all(np.isfinite(r["loss"]) for r in lines)


def test_step_tape_is_freed_before_stop_when(monkeypatch):
    # Tensor has no __weakref__ slot, so the reference is to the loss's
    # array, which only the loss tensor holds
    refs = []
    real_eval = T.eval

    def recording_eval(loss, inputs=None):
        refs.append(weakref.ref(loss.data))
        return real_eval(loss, inputs)

    monkeypatch.setattr(T, "eval", recording_eval)
    alive = []

    def stop_when(record, history):
        alive.append(refs[-1]() is not None)
        return False

    spec = TaskSpec("copy", seq_len=9, vocab_size=16, seed=0)
    train(tiny_config(), spec, steps=3, seed=0, stop_when=stop_when)
    assert alive == [False, False, False]

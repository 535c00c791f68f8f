"""Analysis statistics against hand-computed and pairwise oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dreamer.errors import ContractError, EmptyDataError
from dreamer.telemetry import (TelemetryLog, da_score_map,
                               depth_unique_expert_profile, distribution_median,
                               generalization_order, gini, joint_to_conditionals,
                               lorenz, support_size, usage_matrix)


def test_conditionals_identity_matrix():
    p_ed, p_de, dd, ed = joint_to_conditionals(np.eye(3))
    np.testing.assert_array_equal(p_ed, np.eye(3))
    np.testing.assert_array_equal(p_de, np.eye(3))
    assert dd.all() and ed.all()


def test_conditionals_match_normalization_oracle():
    rng = np.random.default_rng(0)
    counts = rng.integers(0, 20, (3, 5)).astype(float)
    counts[:, 2] = 0  # an expert nobody uses
    p_ed, p_de, dd, ed = joint_to_conditionals(counts)
    for l in range(3):
        np.testing.assert_allclose(p_ed[l], counts[l] / counts[l].sum(), atol=1e-12)
        assert abs(p_ed[l].sum() - 1.0) < 1e-12
    for e in range(5):
        if counts[:, e].sum() > 0:
            np.testing.assert_allclose(p_de[e], counts[:, e] / counts[:, e].sum(),
                                       atol=1e-12)
    assert not ed[2] and np.all(p_de[2] == 0.0)
    assert not np.any(np.isnan(p_ed)) and not np.any(np.isnan(p_de))


def test_support_size_cases():
    assert support_size(np.array([0.5, 0.3, 0.15, 0.05])) == 3
    assert support_size(np.array([0.0, 1.0, 0.0])) == 1
    for L in (4, 7, 10, 16):
        assert support_size(np.full(L, 1.0 / L)) == int(np.ceil(0.9 * L))
    with pytest.raises(EmptyDataError):
        support_size(np.zeros(4))


def test_distribution_median():
    assert distribution_median(np.array([0.1, 0.2, 0.5, 0.2])) == 2
    assert distribution_median(np.array([1.0, 0, 0])) == 0
    assert distribution_median(np.array([0.5, 0.5])) == 0


def test_generalization_order_specialists_first():
    p = np.array([
        [0.25, 0.25, 0.25, 0.25],  # generalist: support 4
        [1.0, 0.0, 0.0, 0.0],      # specialist at depth 0
        [0.0, 0.05, 0.9, 0.05],    # support 2, median depth 2
        [0.0, 0.9, 0.05, 0.05],    # support 2, median depth 1
    ])
    order = generalization_order(p)
    assert order.tolist() == [1, 3, 2, 0]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.integers(1, 6), st.integers(0, 10 ** 6))
def test_generalization_order_is_permutation(E, L, seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 5, (L, E)).astype(float)
    _, p_de, _, ed = joint_to_conditionals(counts)
    order = generalization_order(p_de, ed)
    assert sorted(order.tolist()) == list(range(E))


def test_gini_frozen_examples():
    np.testing.assert_allclose(gini(np.array([4, 2, 2])), 8 / 48, atol=1e-12)
    assert gini(np.full(8, 3)) == pytest.approx(0.0, abs=1e-12)
    assert gini(np.array([5, 0, 0, 0])) == pytest.approx(0.75, abs=1e-12)


def test_gini_matches_pairwise_oracle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = rng.integers(1, 200, size=int(rng.integers(2, 12))).astype(float)
        pairwise = np.abs(n[:, None] - n[None, :]).sum() / (2 * n.size * n.sum())
        assert abs(gini(n) - pairwise) < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.floats(0.1, 1000.0))
def test_gini_scale_invariant(alpha):
    n = np.array([9.0, 1.0, 4.0, 2.0])
    assert abs(gini(n) - gini(alpha * n)) < 1e-12


def test_lorenz_shape_and_endpoints():
    pts = lorenz(np.array([4, 2, 2]))
    assert pts.shape == (4, 2)
    np.testing.assert_allclose(pts[0], [0, 0], atol=0)
    np.testing.assert_allclose(pts[-1], [1, 1], atol=1e-12)
    # descending order makes the curve concave: increments non-increasing
    inc = np.diff(pts[:, 1])
    assert np.all(np.diff(inc) <= 1e-12)
    assert np.all(inc >= -1e-12)
    np.testing.assert_allclose(pts[1], [1 / 3, 0.5], atol=1e-12)


def test_lorenz_uniform_is_diagonal():
    pts = lorenz(np.full(5, 2.0))
    np.testing.assert_allclose(pts[:, 1], pts[:, 0], atol=1e-12)


def test_lorenz_and_gini_reject_empty():
    with pytest.raises(EmptyDataError):
        lorenz(np.zeros(3))
    with pytest.raises(EmptyDataError):
        gini(np.zeros(3))


def test_usage_matrix_from_log():
    log = TelemetryLog()
    log.add_routing("layer.ea", 0, [[0, 1], [0, 2]], [[0.5, 0.5], [0.6, 0.4]])
    log.add_routing("layer.ea", 2, [[3, 0]], [[0.7, 0.3]])
    log.add_routing("layer.sa", 1, [[0]], [[1.0]])  # different router family
    m = usage_matrix(log, ".ea")
    assert m.shape == (3, 4)
    assert m[0].tolist() == [2, 1, 1, 0]
    assert m[2].tolist() == [1, 0, 0, 1]
    assert m[1].sum() == 0


def test_da_score_map_single_depth_is_one():
    log = TelemetryLog()
    log.add_depth_scores(0, 4, [1.0])
    m, defined = da_score_map(log)
    assert m.tolist() == [[1.0]]
    assert defined.tolist() == [[True]]


def test_da_score_map_weighted_average_and_row_max():
    log = TelemetryLog()
    log.add_depth_scores(1, 2, [0.25, 0.75])
    log.add_depth_scores(1, 6, [0.5, 0.5])
    log.add_depth_scores(0, 3, [1.0])
    m, defined = da_score_map(log, depths=3)
    # token-weighted mean: (2*[.25,.75] + 6*[.5,.5]) / 8 = [0.4375, 0.5625]
    np.testing.assert_allclose(m[1, :2], [0.4375 / 0.5625, 1.0], atol=1e-12)
    assert m[1, 1] == 1.0 and m[0, 0] == 1.0
    assert not defined[0, 1] and not defined[2, 0]
    assert np.all(m[~defined] == 0.0)


def test_da_score_map_rows_peak_at_exactly_one():
    rng = np.random.default_rng(2)
    log = TelemetryLog()
    for l in range(4):
        for _ in range(3):
            s = rng.uniform(0.1, 1.0, l + 1)
            log.add_depth_scores(l, int(rng.integers(1, 9)), s / s.sum())
    m, defined = da_score_map(log)
    for l in range(4):
        assert m[l, :l + 1].max() == 1.0


def test_depth_unique_expert_profile():
    counts = np.array([[3, 0, 1], [0, 0, 5], [2, 2, 2]])
    uniques, ratio = depth_unique_expert_profile(counts)
    assert uniques.tolist() == [2, 1, 3]
    assert ratio is None
    uniques, ratio = depth_unique_expert_profile(counts, baseline=np.array([1, 1, 1]))
    np.testing.assert_allclose(ratio, [2.0, 1.0, 3.0])


def test_telemetry_roundtrip(tmp_path):
    log = TelemetryLog()
    log.add_routing("layer.ea", 1, [[0, 2]], [[0.3, 0.7]])
    log.add_depth_scores(1, 5, [0.4, 0.6])
    path = tmp_path / "telemetry.jsonl"
    log.save(path)
    back = TelemetryLog.load(path)
    assert len(back.events) == 1 and len(back.depth_rows) == 1
    np.testing.assert_array_equal(back.events[0].expert_ids, [[0, 2]])
    np.testing.assert_allclose(back.depth_rows[0].scores, [0.4, 0.6])
    assert back.events[0].router == "layer.ea" and back.events[0].depth == 1


def test_routing_event_validates_shapes():
    log = TelemetryLog()
    with pytest.raises(ContractError):
        log.add_routing("r", 0, [0, 1], [[0.5, 0.5]])
    with pytest.raises(ContractError):
        log.add_depth_scores(2, 4, [0.5, 0.5])
    with pytest.raises(ContractError):  # negative depth
        log.add_routing("r", -1, [[0]], [[1.0]])
    with pytest.raises(ContractError):  # negative expert id
        log.add_routing("r", 0, [[0], [-1]], [[1.0], [1.0]])
    with pytest.raises(ContractError):
        log.add_depth_scores(-1, 4, [])
    with pytest.raises(ContractError):
        log.add_depth_scores(0, -4, [1.0])
    assert not log.events and not log.depth_rows

"""Weighted layer aggregation tests."""

import numpy as np
import pytest

from svkit import aggregator
from svkit import autodiff as ad
from svkit.aggregator import aggregate, aggregate_graph, export_weights, normalized_weights, write_weights_csv
from svkit.autodiff import Tensor
from svkit.ecapa import EcapaConfig
from svkit.errors import DataError
from svkit.pipeline import System
from svkit.upstream import LayerStack, Manifest, ManifestRow, MockUpstreamConfig, PlantSpec, speaker_offset
from test_autodiff import softmax


def stack_from(layers):
    return LayerStack(np.asarray(layers, dtype=np.float64), frame_rate_hz=50.0)


# ---------------------------------------------------------------------------
# normalized_weights
# ---------------------------------------------------------------------------


def test_uniform_logits_give_uniform_weights():
    np.testing.assert_allclose(normalized_weights([0.0, 0.0, 0.0]), np.full(3, 1 / 3), atol=1e-15)


def test_closed_form_softmax():
    w = normalized_weights([0.0, 0.0, np.log(2.0)])
    np.testing.assert_allclose(w, [0.25, 0.25, 0.5], atol=1e-12)


def test_non_finite_logits_rejected():
    with pytest.raises(DataError, match="non-finite"):
        normalized_weights([0.0, np.nan])
    with pytest.raises(DataError, match="non-finite"):
        normalized_weights([np.inf, 1.0])


def test_weights_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        w = normalized_weights(rng.standard_normal(13) * 5)
        assert abs(w.sum() - 1.0) < 1e-6
        assert np.all(w > 0) and np.all(w < 1)


def test_shift_invariance():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal(8)
    base = normalized_weights(logits)
    for c in (1.0, -3.5, 7.25):
        np.testing.assert_allclose(normalized_weights(logits + c), base, atol=1e-12)


@pytest.mark.parametrize("n, scale, dtype", [(2, 1e-3, np.float64), (13, 1.0, np.float64), (25, 1e3, np.float32)])
def test_exported_weights_are_the_mixed_weights(n, scale, dtype):
    # layer l one-hot at column l: the mix of these layers is the weight vector itself, so the weights
    # `export-weights` writes are the ones `aggregate` mixes with, to the byte
    logits = (np.random.default_rng(n).standard_normal(n) * scale).astype(dtype)
    mixed = aggregate([np.eye(n)[l][None, :] for l in range(n)], logits.astype(np.float64))
    assert mixed.shape == (1, n)
    assert mixed[0].tobytes() == normalized_weights(logits).tobytes()


# ---------------------------------------------------------------------------
# aggregate
# ---------------------------------------------------------------------------


def test_identical_layers_any_weights():
    rng = np.random.default_rng(2)
    h = rng.standard_normal((4, 3))
    stack = stack_from(np.stack([h, h, h]))
    np.testing.assert_allclose(aggregate(stack.layers, rng.standard_normal(3)), stack.layers[0], atol=1e-7)


def test_two_layer_symmetry():
    a = np.tile([1.0, 0.0], (5, 1))
    b = np.tile([0.0, 1.0], (5, 1))
    out = aggregate(stack_from(np.stack([a, b])).layers, [0.0, 0.0])
    np.testing.assert_allclose(out, np.full((5, 2), 0.5))


def test_one_hot_saturated_logits_select_layer():
    rng = np.random.default_rng(3)
    layers = rng.standard_normal((5, 6, 4))
    k = 2
    logits = np.zeros(5)
    logits[k] = 40.0
    out = aggregate(stack_from(layers).layers, logits)
    assert np.max(np.abs(out - layers[k].astype(np.float32))) < 1e-6


def test_aggregate_linear_in_stack():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((4, 5, 3))
    b = rng.standard_normal((4, 5, 3))
    logits = rng.standard_normal(4)
    lhs = aggregate(stack_from(2.0 * a + 0.5 * b).layers, logits)
    rhs = 2.0 * aggregate(stack_from(a).layers, logits) + 0.5 * aggregate(stack_from(b).layers, logits)
    np.testing.assert_allclose(lhs, rhs, atol=1e-6)


def former_graph(layers, logits, probe):
    """The former `aggregate_graph` (concat, reshape and matmul) and its logits and layer gradients."""
    logits = Tensor(logits, requires_grad=True)
    w = softmax(logits.reshape(1, -1), axis=1)
    t, d = layers[0].shape
    out = (w @ ad.concat(layers).reshape(len(layers), t * d)).reshape(t, d)
    (out * probe).sum().backward()
    return out.data, logits.grad, [h.grad for h in layers if isinstance(h, Tensor)]


def former_numpy(layers, logits):
    """The former `aggregate`: `tensordot` of the normalized weights with the float64 stack."""
    stack = np.stack([h.data if isinstance(h, Tensor) else h for h in layers])
    return np.tensordot(normalized_weights(logits), stack, axes=(0, 0))


def former_row_layers(stack, speaker_id, plant):
    """The former stored-stack path: the whole stack cast to float64, then planted."""
    layers = stack.astype(np.float64)
    if plant.layer != -1:
        layers[plant.layer] = layers[plant.layer] + plant.strength * speaker_offset(speaker_id, stack.shape[-1])
    return layers


@pytest.mark.parametrize("case", ["stack", "planted", "tuned"])
@pytest.mark.parametrize("t", [150, 300])
def test_one_node_matches_the_former_forms_byte_for_byte(case, t):
    rng = np.random.default_rng(t)
    row = ManifestRow("u", "spk", "u.svhs")
    plant = PlantSpec(3, 4.0) if case == "planted" else PlantSpec()
    logits = rng.standard_normal(13)
    probe = rng.standard_normal((t, 64))
    if case == "tuned":
        arrays = rng.standard_normal((13, t, 64))
        layers, old = ([Tensor(h, requires_grad=True) for h in arrays] for _ in range(2))
    else:
        stack = rng.standard_normal((13, t, 64)).astype(np.float32)
        ecapa_cfg = EcapaConfig(in_dim=64, channels=16, se_bottleneck=8, attention_channels=8, embed_dim=8)
        system = System.init(MockUpstreamConfig(n_layers=12, dim=64), ecapa_cfg, n_classes=2, seed=0, plant=plant)
        layers = system.row_layers(stack, Manifest((row,)), row)
        old = former_row_layers(stack, row.speaker_id, plant)
    ref, ref_grad, ref_layer_grads = former_graph(old, logits, probe)
    assert former_numpy(old, logits).tobytes() == ref.tobytes()
    graph_logits = Tensor(logits, requires_grad=True)
    out = aggregate_graph(layers, graph_logits)
    (out * probe).sum().backward()
    assert out.data.tobytes() == ref.tobytes()
    assert aggregate(layers, logits).tobytes() == out.data.tobytes()
    assert graph_logits.grad.tobytes() == ref_grad.tobytes()
    layer_grads = [h.grad for h in layers if isinstance(h, Tensor)]
    assert len(layer_grads) == (13 if case == "tuned" else 0)
    assert [g.tobytes() for g in layer_grads] == [g.tobytes() for g in ref_layer_grads]


@pytest.mark.parametrize("tuned", [False, True])
@pytest.mark.parametrize("frames_per_block", [1, 7, 64])
def test_a_mix_with_gradient_in_blocks_matches_the_one_matrix_graph(tuned, frames_per_block, monkeypatch):
    # a paper-shape crop spans several blocks: the value and the tuned layers' gradients keep their bytes,
    # and the logits' gradient, summed block by block, is within 1e-10 relative of the one-matrix graph's
    monkeypatch.setattr(aggregator, "MIX_BLOCK_BYTES", frames_per_block * 13 * 64 * 8)
    rng = np.random.default_rng(frames_per_block)
    arrays = rng.standard_normal((13, 150, 64))
    logits, probe = rng.standard_normal(13), rng.standard_normal((150, 64))
    if tuned:
        layers, old = ([Tensor(h, requires_grad=True) for h in arrays] for _ in range(2))
    else:
        layers = old = list(arrays.astype(np.float32))
    ref, ref_grad, ref_layer_grads = former_graph(old, logits, probe)
    graph_logits = Tensor(logits, requires_grad=True)
    out = aggregate_graph(layers, graph_logits)
    (out * probe).sum().backward()
    assert out.data.tobytes() == ref.tobytes()
    assert np.max(np.abs(graph_logits.grad - ref_grad)) <= 1e-10 * np.max(np.abs(ref_grad))
    assert [h.grad.tobytes() for h in layers if tuned] == [g.tobytes() for g in ref_layer_grads]


def test_aggregate_graph_gradient_flows_to_layers():
    rng = np.random.default_rng(6)
    layer_tensors = [Tensor(rng.standard_normal((4, 3)), requires_grad=True) for _ in range(3)]
    logits = Tensor(np.zeros(3), requires_grad=True)
    aggregate_graph(layer_tensors, logits).sum().backward()
    assert logits.grad is not None
    for h in layer_tensors:
        np.testing.assert_allclose(h.grad, np.full((4, 3), 1 / 3), atol=1e-12)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def test_export_uniform_formatting():
    rows = export_weights(np.full(3, 1 / 3))
    assert rows == [("layer_0", "0.333333"), ("layer_1", "0.333333"), ("layer_2", "0.333333")]


def test_export_rounded_rows_sum_near_one():
    rng = np.random.default_rng(7)
    for _ in range(50):
        w = normalized_weights(rng.standard_normal(13) * 3)
        rows = export_weights(w)
        assert abs(sum(float(v) for _, v in rows) - 1.0) <= 1e-5 + 13 * 5e-7


def test_export_default_labels():
    rows = export_weights([0.5, 0.5])
    assert [r[0] for r in rows] == ["layer_0", "layer_1"]


def test_csv_writer_layout(tmp_path):
    path = tmp_path / "w.csv"
    write_weights_csv(path, np.full(3, 1 / 3))
    text = path.read_text()
    lines = text.split("\n")
    assert lines[0] == "layer,weight"
    assert lines[1] == "layer_0,0.333333"
    assert text.endswith("\n") and "\r" not in text


@pytest.mark.parametrize("shape", [(25, 1000, 1024), (13, 1000, 64), (13, 377, 64), (25, 301, 768)])
@pytest.mark.parametrize("frames_per_block", [None, 1, 7])
def test_a_mix_without_gradient_in_blocks_matches_the_one_matrix_product(shape, frames_per_block, monkeypatch):
    # embed casts and mixes MIX_BLOCK_BYTES of float64 frames at a time; the former form, still training's,
    # cast the whole stack into one (L+1, T*D) matrix
    n, t, d = shape
    if frames_per_block is not None:  # several blocks per row, the last one short where 7 does not divide T
        monkeypatch.setattr(aggregator, "MIX_BLOCK_BYTES", frames_per_block * n * d * 8)
    rng = np.random.default_rng(t + d)
    layers = list(rng.standard_normal(shape, dtype=np.float32))
    layers[3] = layers[3] + rng.standard_normal(d)  # a planted layer is float64
    logits = rng.standard_normal(n)
    w = normalized_weights(logits)
    former = (w @ np.stack(layers, dtype=np.float64).reshape(n, t * d)).reshape(t, d)
    assert aggregate(layers, logits).tobytes() == former.tobytes()
    assert aggregate_graph(layers, Tensor(logits, requires_grad=True)).data.tobytes() == former.tobytes()

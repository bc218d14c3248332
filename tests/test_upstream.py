"""Mock upstream encoder, planting, stack format, manifest tests."""

import numpy as np
import pytest

from svkit.audio import Waveform
from svkit.autodiff import Tensor
from svkit.errors import ConfigError, DataError, FormatError
from svkit.rng import child_rng
from svkit.training import _fd_report
from svkit.upstream import (
    CONV_STRIDES,
    LayerStack,
    Manifest,
    ManifestRow,
    MockUpstream,
    MockUpstreamConfig,
    PlantSpec,
    _smooth,
    load_manifest,
    load_stack,
    mock_forward,
    param_shapes,
    plant_speaker_info,
    save_manifest,
    save_stack,
    speaker_offset,
)
from test_autodiff import time_patches


def rand_wav(n, seed=0):
    return Waveform(np.random.default_rng(seed).uniform(-0.5, 0.5, n))


# ---------------------------------------------------------------------------
# mock encoder
# ---------------------------------------------------------------------------


def test_mock_forward_shape_one_second():
    stack = mock_forward(rand_wav(16000), MockUpstreamConfig())
    assert stack.layers.shape == (13, 50, 64)  # 16000/320 frames, 12+1 layers
    assert stack.frame_rate_hz == 50.0


def test_mock_forward_deterministic():
    cfg = MockUpstreamConfig(seed=3)
    wav = rand_wav(8000, seed=1)
    a = mock_forward(wav, cfg)
    b = mock_forward(wav, cfg)
    np.testing.assert_array_equal(a.layers, b.layers)


def loop_init_params(cfg):
    """The mock's initializer as an explicit loop: the reference for the table-driven one."""
    rng = child_rng(cfg.seed, "mock-upstream-init")
    params = {}
    c_in = 1
    for i, stride in enumerate(CONV_STRIDES):
        fan = stride * c_in
        params[f"conv{i}.w"] = rng.normal(0.0, 1.0 / np.sqrt(fan), (fan, cfg.dim))
        params[f"conv{i}.b"] = rng.normal(0.0, 0.1, cfg.dim)
        c_in = cfg.dim
    for l in range(1, cfg.n_layers + 1):
        params[f"mix{l}.w"] = rng.normal(0.0, 1.0 / np.sqrt(cfg.dim), (cfg.dim, cfg.dim))
        params[f"mix{l}.b"] = rng.normal(0.0, 0.1, cfg.dim)
    return params


@pytest.mark.parametrize("cfg", [MockUpstreamConfig(), MockUpstreamConfig(n_layers=1, dim=1, seed=9),
                                 MockUpstreamConfig(n_layers=3, dim=12, seed=2)])
def test_param_table_initializer_matches_the_explicit_loop(cfg):
    want = loop_init_params(cfg)
    got = MockUpstream(cfg).params
    assert list(got) == list(want) == list(param_shapes(cfg))
    for name, shape in param_shapes(cfg).items():
        assert got[name].shape == shape
        assert got[name].data.tobytes() == want[name].tobytes(), name


def test_given_parameters_replace_the_seeded_ones():
    cfg = MockUpstreamConfig(n_layers=1, dim=2, seed=1)
    given = {name: np.full(shape, 0.5) for name, shape in param_shapes(cfg).items()}
    assert all(np.array_equal(p.data, given[k]) for k, p in MockUpstream(cfg, given).params.items())
    seeded = MockUpstream(cfg, {}).params
    assert all(np.array_equal(p.data, loop_init_params(cfg)[k]) for k, p in seeded.items())


def test_mock_forward_zero_input_bias_only():
    cfg = MockUpstreamConfig(n_layers=2, dim=8, seed=5)
    model = MockUpstream(cfg)
    stack = model.forward_array(Waveform(np.zeros(3200)))
    h0 = stack[0]
    # every frame identical: zero input leaves only the bias response
    assert np.all(h0 == h0[0])
    # direct formula oracle: fold the biases through the linear conv stack
    c = np.zeros(1)
    for i, stride in enumerate(CONV_STRIDES):
        w = model.params[f"conv{i}.w"].data
        b = model.params[f"conv{i}.b"].data
        c = np.tile(c, stride) @ w + b
    np.testing.assert_allclose(h0[0], c, atol=1e-12)


def test_mock_frame_count_depends_only_on_length():
    cfg = MockUpstreamConfig(n_layers=2, dim=8, seed=0)
    rng = np.random.default_rng(2)
    for n in (320, 333, 5000, 16001):
        t_sizes = set()
        for trial in range(3):
            stack = mock_forward(Waveform(rng.uniform(-0.5, 0.5, n)), cfg)
            t_sizes.add(stack.layers.shape[1])
        assert t_sizes == {n // 320}


def test_mock_forward_too_short_errors():
    with pytest.raises(DataError, match="shorter than"):
        mock_forward(Waveform(np.zeros(100)), MockUpstreamConfig())


def test_mock_graph_matches_array_path():
    cfg = MockUpstreamConfig(n_layers=3, dim=16, seed=9)
    model = MockUpstream(cfg)
    wav = rand_wav(4800, seed=3)
    arr = model.forward_array(wav)
    graph = model.forward_graph(Tensor(wav.samples))
    for l, h in enumerate(graph):
        np.testing.assert_allclose(h.data, arr[l], atol=1e-12)


def test_mock_graph_parameters_receive_gradients():
    cfg = MockUpstreamConfig(n_layers=2, dim=8, seed=4)
    model = MockUpstream(cfg)
    assert all(isinstance(p, Tensor) and not p.requires_grad for p in model.params.values())
    params = model.as_tensors()
    assert params is model.params
    layers = model.forward_graph(Tensor(rand_wav(1600, seed=6).samples))
    sum(h.sum() for h in layers).backward()
    for name, p in params.items():
        assert p.grad is not None and np.any(p.grad != 0), name


def reference_forward(model, samples):
    """Layers 0..L with the four strided convs run one at a time: the reference
    for the composed 320-sample patch map."""
    x = samples.reshape(-1, 1)
    for i, stride in enumerate(CONV_STRIDES):
        t = x.shape[0] // stride
        x = x[: t * stride].reshape(t, stride * x.shape[1])
        x = x @ model.params[f"conv{i}.w"] + model.params[f"conv{i}.b"]
    layers = [x]
    for l in range(1, model.cfg.n_layers + 1):
        x = _smooth((x @ model.params[f"mix{l}.w"] + model.params[f"mix{l}.b"]).tanh())
        layers.append(x)
    return layers


def rel_err(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("n", [4877, 16001])
def test_patch_map_matches_conv_by_conv_reference(n):
    cfg = MockUpstreamConfig(n_layers=3, dim=16, seed=11)
    samples = rand_wav(n, seed=n).samples
    composed, reference = MockUpstream(cfg), MockUpstream(cfg)
    params, ref_params = composed.as_tensors(), reference.as_tensors()
    got = composed.forward_graph(Tensor(samples))
    want = reference_forward(reference, Tensor(samples))
    assert len(got) == len(want) == cfg.n_layers + 1
    probe = np.random.default_rng(1).standard_normal((len(want),) + want[0].shape)
    for h, r, p in zip(got, want, probe):
        assert h.shape == r.shape == (n // 320, cfg.dim)
        assert rel_err(h.data, r.data) <= 1e-10
    sum((h * p).sum() for h, p in zip(got, probe)).backward()
    sum((r * p).sum() for r, p in zip(want, probe)).backward()
    assert set(params) == {f"conv{i}.{k}" for i in range(4) for k in "wb"} | {
        f"mix{l}.{k}" for l in range(1, 4) for k in "wb"
    }
    for name, p in params.items():
        assert rel_err(p.grad, ref_params[name].grad) <= 1e-10, name


def test_tuned_mock_gradients_match_finite_differences():
    # the composed conv stack, the mixing layers and the smoothing, all trainable
    model = MockUpstream(MockUpstreamConfig(n_layers=2, dim=4, seed=2))
    params = model.as_tensors()
    samples = Tensor(rand_wav(5 * 320, seed=4).samples)
    probe = np.random.default_rng(5).standard_normal((3, 5, 4))

    def make_loss():
        return sum((h * p).sum() for h, p in zip(model.forward_graph(samples), probe))

    report = _fd_report(make_loss, params, 1e-5)
    assert report.keys() == params.keys()
    assert max(report.values()) < 1e-4, report


@pytest.mark.parametrize("t", [1, 2, 7])
def test_smooth_matches_time_patches_average(t):
    rng = np.random.default_rng(t)
    data = rng.standard_normal((t, 5))
    x, ref_x = Tensor(data, requires_grad=True), Tensor(data.copy(), requires_grad=True)
    out = _smooth(x)
    ref = time_patches(ref_x, 3).sum(axis=1) * (1.0 / 3)
    assert out.data.tobytes() == ref.data.tobytes()
    probe = rng.standard_normal((t, 5))
    (out * probe).sum().backward()
    (ref * probe).sum().backward()
    assert rel_err(x.grad, ref_x.grad) <= 1e-10


# ---------------------------------------------------------------------------
# planting
# ---------------------------------------------------------------------------


def stack_fixture():
    return mock_forward(rand_wav(3200, seed=7), MockUpstreamConfig(n_layers=4, dim=16, seed=1))


def layers_fixture():
    return stack_fixture().layers.astype(np.float64)


def planted(layers, speaker_id, layer, strength):
    out = layers.copy()
    plant_speaker_info(out, speaker_id, PlantSpec(layer, strength))
    return out


def test_plant_zero_strength_unchanged():
    layers = layers_fixture()
    np.testing.assert_array_equal(planted(layers, "spk1", 2, 0.0), layers)


def test_plant_same_speaker_same_offset():
    layers = layers_fixture()
    a = planted(layers, "spk7", 1, 2.0)
    b = planted(layers, "spk7", 1, 2.0)
    np.testing.assert_array_equal(a, b)
    off = speaker_offset("spk7", 16)
    np.testing.assert_allclose(np.linalg.norm(off), 1.0, atol=1e-12)
    c = planted(layers, "spk8", 1, 2.0)
    assert np.any(c != a)


def test_plant_out_of_range_layer_errors():
    layers = layers_fixture()
    for layer in (-1, layers.shape[0], layers.shape[0] + 2):
        with pytest.raises(DataError, match="out of range"):
            planted(layers, "spk1", layer, 1.0)


def test_plant_touches_only_target_layer():
    layers = layers_fixture()
    out = planted(layers, "spk1", 2, 3.0)
    for l in range(layers.shape[0]):
        if l != 2:
            np.testing.assert_array_equal(out[l], layers[l])
        else:
            assert np.any(out[l] != layers[l])


def test_plant_commutes_across_layers():
    layers = layers_fixture()
    ab = planted(planted(layers, "x", 1, 2.0), "y", 3, 1.5)
    ba = planted(planted(layers, "y", 3, 1.5), "x", 1, 2.0)
    np.testing.assert_array_equal(ab, ba)


def test_plant_tensor_list_matches_array():
    layers = layers_fixture()
    tensors = [Tensor(h) for h in layers]
    plant_speaker_info(tensors, "spk3", PlantSpec(2, 1.5))
    np.testing.assert_array_equal(np.stack([h.data for h in tensors]), planted(layers, "spk3", 2, 1.5))


@pytest.mark.parametrize("strength", [-1.0, np.nan, np.inf])
def test_plant_strength_must_be_finite_non_negative(strength):
    with pytest.raises(ConfigError, match="plant.strength"):
        PlantSpec(1, strength)


# ---------------------------------------------------------------------------
# SVHS stack files
# ---------------------------------------------------------------------------


def test_stack_roundtrip_bit_exact(tmp_path):
    stack = stack_fixture()
    path = tmp_path / "a.svhs"
    save_stack(stack, path)
    loaded = load_stack(path)
    np.testing.assert_array_equal(loaded.layers, stack.layers)
    assert loaded.frame_rate_hz == stack.frame_rate_hz


def test_stack_roundtrip_preserves_subnormals(tmp_path):
    layers = np.zeros((2, 3, 4), dtype=np.float32)
    layers[0, 0, 0] = np.float32(1e-41)  # subnormal in float32
    layers[1, 2, 3] = np.float32(-1e-44)
    stack = LayerStack(layers, frame_rate_hz=50.0)
    path = tmp_path / "sub.svhs"
    save_stack(stack, path)
    np.testing.assert_array_equal(load_stack(path).layers, layers)


def test_stack_bad_magic(tmp_path):
    path = tmp_path / "bad.svhs"
    path.write_bytes(b"XXXX" + b"\x00" * 40)
    with pytest.raises(FormatError, match="bad magic"):
        load_stack(path)


def test_stack_truncated_payload(tmp_path):
    stack = stack_fixture()
    path = tmp_path / "trunc.svhs"
    save_stack(stack, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(FormatError, match="truncated"):
        load_stack(path)


def test_stack_header_overflow_claim(tmp_path):
    import struct

    # header claims dimensions far beyond the payload
    header = b"SVHS" + struct.pack("<IIIIf", 1, 1000, 1000, 1000, 50.0)
    path = tmp_path / "claim.svhs"
    path.write_bytes(header + b"\x00" * 64)
    with pytest.raises(FormatError, match="truncated"):
        load_stack(path)


def test_stack_trailing_bytes(tmp_path):
    stack = stack_fixture()
    path = tmp_path / "extra.svhs"
    save_stack(stack, path)
    path.write_bytes(path.read_bytes() + b"\x00\x00")
    with pytest.raises(FormatError, match="mismatch"):
        load_stack(path)


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


def test_manifest_roundtrip(tmp_path):
    rows = (
        ManifestRow("u1", "spkA", "wav/u1.wav"),
        ManifestRow("u2", "spkB", "wav/u2.wav"),
    )
    path = tmp_path / "m.tsv"
    save_manifest(Manifest(rows, base_dir=tmp_path), path)
    loaded = load_manifest(path)
    assert loaded.rows == rows
    assert loaded.speakers == ["spkA", "spkB"]
    assert loaded.resolve(rows[0]) == tmp_path / "wav/u1.wav"


def test_manifest_duplicate_ids_rejected():
    with pytest.raises(FormatError, match="duplicate"):
        Manifest((ManifestRow("u1", "a", "x"), ManifestRow("u1", "b", "y")))


def test_manifest_path_check(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("u1\tspkA\tmissing.wav\n")
    with pytest.raises(FormatError, match="not found"):
        load_manifest(path, check_paths=True)


def test_manifest_bad_field_count(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("u1\tspkA\n")
    with pytest.raises(FormatError, match="3 tab-separated"):
        load_manifest(path)

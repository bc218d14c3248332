"""Mock upstream encoder, planting, stack format, manifest tests."""

import numpy as np
import pytest

import svkit.autodiff as ad
from svkit.audio import Waveform
from svkit.autodiff import Tensor
from svkit.ecapa import EcapaConfig
from svkit.errors import ConfigError, DataError, FormatError
from svkit.pipeline import System
from svkit.rng import child_rng
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
    save_manifest,
    save_stack,
    speaker_offset,
)
from gradcheck import fd_report
from test_autodiff import check_op, time_patches


def tuned(model):
    """The mock's parameters, marked trainable as a tuned training stage marks them."""
    for p in model.params.values():
        p.requires_grad = True
    return model.params


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
    tensors = {k: Tensor(v) for k, v in given.items()}  # a model's tensors: shared, so training moves the mock
    assert all(p is tensors[k] for k, p in MockUpstream(cfg, tensors).params.items())
    seeded = MockUpstream(cfg, {}).params
    assert all(np.array_equal(p.data, loop_init_params(cfg)[k]) for k, p in seeded.items())


def test_seeded_parameters_are_drawn_on_first_use_and_once(monkeypatch):
    # a system's mock is drawn when it first runs it, not when the system is built
    from svkit.ecapa import EcapaConfig
    from svkit.pipeline import System

    cfg = MockUpstreamConfig(n_layers=2, dim=4, seed=3)
    calls = []
    monkeypatch.setattr(MockUpstream, "_init_params", staticmethod(lambda c: calls.append(c) or loop_init_params(c)))
    ec = EcapaConfig(in_dim=4, channels=8, res2_scale=4, se_bottleneck=4, attention_channels=4, embed_dim=4)
    system = System.init(cfg, ec, n_classes=2, seed=0)
    assert calls == []  # building the system draws nothing
    wav = Waveform(np.linspace(-0.5, 0.5, 3200))
    system.upstream.forward_array(wav)
    system.upstream.stack(wav, "w")
    system.trainable(tune_upstream=True)
    assert calls == [cfg]
    assert all(system.tensors[f"upstream.{k}"] is p for k, p in system.upstream.params.items())
    MockUpstream(cfg, loop_init_params(cfg))  # given parameters are never drawn
    assert calls == [cfg]


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
    assert arr.dtype == np.float32 and arr.shape == (len(graph), *graph[0].shape)
    for l, h in enumerate(graph):
        assert arr[l].tobytes() == h.data.astype(np.float32).tobytes()  # each layer cast once, as stored


def test_mock_graph_parameters_receive_gradients():
    cfg = MockUpstreamConfig(n_layers=2, dim=8, seed=4)
    model = MockUpstream(cfg)
    assert all(isinstance(p, Tensor) and not p.requires_grad for p in model.params.values())
    params = tuned(model)
    layers = model.forward_graph(Tensor(rand_wav(1600, seed=6).samples))
    sum(h.sum() for h in layers).backward()
    for name, p in params.items():
        assert p.grad is not None and np.any(p.grad != 0), name


def composed_smooth(x):
    """The 3-frame moving average built from slices, `concat`, `+` and `*`: the reference for the one-node `_smooth`."""
    prev = ad.concat([x[:1], x[:-1]])
    nxt = ad.concat([x[1:], x[-1:]])
    return (prev + x + nxt) * (1.0 / 3)


def reference_forward(model, samples):
    """Layers 0..L with the four strided convs run one at a time and each mixing layer
    composed of `@`, `+`, `tanh` and `composed_smooth`: the reference for the composed
    320-sample patch map and the fused mixing layers."""
    x = samples.reshape(-1, 1)
    for i, stride in enumerate(CONV_STRIDES):
        t = x.shape[0] // stride
        x = x[: t * stride].reshape(t, stride * x.shape[1])
        x = x @ model.params[f"conv{i}.w"] + model.params[f"conv{i}.b"]
    layers = [x]
    for l in range(1, model.cfg.n_layers + 1):
        x = composed_smooth((x @ model.params[f"mix{l}.w"] + model.params[f"mix{l}.b"]).tanh())
        layers.append(x)
    return layers


def rel_err(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("n", [4877, 16001])
def test_patch_map_matches_conv_by_conv_reference(n):
    cfg = MockUpstreamConfig(n_layers=3, dim=16, seed=11)
    samples = rand_wav(n, seed=n).samples
    composed, reference = MockUpstream(cfg), MockUpstream(cfg)
    params, ref_params = tuned(composed), tuned(reference)
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
    params = tuned(model)
    samples = Tensor(rand_wav(5 * 320, seed=4).samples)
    probe = np.random.default_rng(5).standard_normal((3, 5, 4))

    def make_loss():
        return sum((h * p).sum() for h, p in zip(model.forward_graph(samples), probe))

    report = fd_report(make_loss, params, 1e-5)
    assert report.keys() == params.keys()
    assert max(report.values()) < 1e-4, report


@pytest.mark.parametrize("t", [1, 2, 7])
def test_smooth_matches_time_patches_average(t):
    # one node, byte-equal in forward to the gather reference and to its composed form
    rng = np.random.default_rng(t)
    data = rng.standard_normal((t, 5))
    x = Tensor(data, requires_grad=True)
    refs = [Tensor(data.copy(), requires_grad=True) for _ in range(2)]
    out = _smooth(x)
    assert out._parents == (x,)
    outs = [time_patches(refs[0], 3).sum(axis=1) * (1.0 / 3), composed_smooth(refs[1])]
    probe = rng.standard_normal((t, 5))
    (out * probe).sum().backward()
    for ref_x, ref in zip(refs, outs):
        assert out.data.tobytes() == ref.data.tobytes()
        (ref * probe).sum().backward()
        assert rel_err(x.grad, ref_x.grad) <= 1e-10


@pytest.mark.parametrize("shape", [(1, 3), (2, 3), (5, 3)])
def test_smooth_gradient_matches_finite_differences(shape):
    # a tanh after the average, so the input gradient varies by frame and channel
    check_op(lambda t: _smooth(t).tanh(), shape, seed=shape[0])


# ---------------------------------------------------------------------------
# planting
# ---------------------------------------------------------------------------


PLANT_UP = MockUpstreamConfig(n_layers=4, dim=16, seed=1)
PLANT_EC = EcapaConfig(in_dim=16, channels=16, se_bottleneck=8, attention_channels=8, embed_dim=8)


def stack_fixture():
    return mock_forward(rand_wav(3200, seed=7), PLANT_UP)


def layers_fixture():
    return stack_fixture().layers.astype(np.float64)


def row_layers(layers, speaker_id, plant):
    """`System.row_layers` of a system with this plant, on a row of `speaker_id`."""
    row = ManifestRow("u", speaker_id, "u.svhs")
    return System.init(PLANT_UP, PLANT_EC, n_classes=2, seed=0, plant=plant).row_layers(layers, Manifest((row,)), row)


def planted(layers, speaker_id, layer, strength):
    return np.stack(row_layers(layers, speaker_id, PlantSpec(layer, strength)))


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


@pytest.mark.parametrize("build", ["init", "from_checkpoint", "from_result"])
def test_plant_out_of_range_layer_errors(build):
    # the bound is the config's alone: every way to build a system refuses a layer past the upstream's last
    from svkit.training import TrainResult

    system = System.init(PLANT_UP, PLANT_EC, n_classes=2, seed=0)
    builders = {
        "init": lambda plant: System.init(PLANT_UP, PLANT_EC, n_classes=2, seed=0, plant=plant),
        "from_checkpoint": lambda plant: System.from_checkpoint(system.checkpoint_tensors(), PLANT_UP, PLANT_EC,
                                                                plant=plant),
        "from_result": lambda plant: System.from_result(TrainResult(system, ["a", "b"], []), PLANT_UP, PLANT_EC,
                                                        plant=plant),
    }
    assert builders[build](PlantSpec(PLANT_UP.n_layers, 1.0)).plant.layer == 4  # the last layer is planted
    for layer in (PLANT_UP.n_layers + 1, PLANT_UP.n_layers + 3):
        with pytest.raises(ConfigError) as info:
            builders[build](PlantSpec(layer, 1.0))
        assert str(info.value) == f"plant.layer must be -1 (off) or an upstream layer in 0..4, got {layer}"


def test_plant_off_leaves_layers_unchanged():
    layers = layers_fixture()
    assert PlantSpec() == PlantSpec(layer=-1, strength=0.0)
    assert planted(layers, "spk1", -1, 3.0).tobytes() == layers.tobytes()
    tensors = row_layers([Tensor(h) for h in layers], "spk1", PlantSpec())
    assert np.stack([h.data for h in tensors]).tobytes() == layers.tobytes()


@pytest.mark.parametrize("kw", [dict(n_layers=0), dict(dim=0)])
def test_mock_upstream_config_refuses_an_empty_network(kw):
    with pytest.raises(ConfigError) as info:
        MockUpstreamConfig(**kw)
    assert str(info.value) == "upstream.{} must be >= 1, got 0".format(*kw)


@pytest.mark.parametrize("layer", [-2, -13])
def test_plant_layer_below_off_is_config_error(layer):
    with pytest.raises(ConfigError, match="plant.layer"):
        PlantSpec(layer, 1.0)


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
    tensors = row_layers([Tensor(h) for h in layers], "spk3", PlantSpec(2, 1.5))
    np.testing.assert_array_equal(np.stack([h.data for h in tensors]), planted(layers, "spk3", 2, 1.5))


@pytest.mark.parametrize("strength", [-1.0, np.nan, np.inf])
def test_plant_strength_must_be_finite_non_negative(strength):
    with pytest.raises(ConfigError, match="plant.strength"):
        PlantSpec(1, strength)
    with pytest.raises(ConfigError, match="plant.strength"):
        PlantSpec(-1, strength)  # also with the plant off


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


@pytest.mark.parametrize("dtype", ["<f8", "<f4", "<i2"])
def test_layer_stack_owns_a_read_only_copy(dtype):
    buf = bytearray(np.arange(24).astype(dtype).tobytes())
    # a writable float64 array, or a read-only view of a buffer as load_stack decodes one
    source = np.frombuffer(buf if dtype == "<f8" else memoryview(buf).toreadonly(), dtype=dtype).reshape(2, 3, 4)
    stack = LayerStack(source, frame_rate_hz=50.0)
    assert stack.layers.dtype == np.float32 and stack.layers.flags.owndata and not stack.layers.flags.writeable
    buf[:] = bytes(len(buf))  # a later write to the source's memory
    np.testing.assert_array_equal(stack.layers, np.arange(24, dtype=np.float32).reshape(2, 3, 4))


@pytest.mark.parametrize("rate", [1e39, 1e-50, "50"])  # inf and 0.0 in float32, the rate's on-disk precision
def test_layer_stack_refuses_a_frame_rate_float32_cannot_hold(rate):
    with pytest.raises(ValueError, match="frame rate must be positive and finite in float32"):
        LayerStack(np.zeros((2, 3, 4)), frame_rate_hz=rate)


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
    with pytest.raises(FormatError, match="duplicate utterance id: 'u1'"):
        Manifest((ManifestRow("u1", "a", "x"), ManifestRow("u1", "b", "y")))


def test_manifest_of_an_iterator_keeps_every_row():
    # the rows are read once: the duplicate check runs over the kept tuple, not the spent iterator
    rows = (ManifestRow("u1", "a", "x"), ManifestRow("u2", "b", "y"))
    assert Manifest(r for r in rows).rows == Manifest(iter(rows)).rows == rows
    with pytest.raises(FormatError, match="duplicate utterance id: 'u1'"):
        Manifest(iter(rows + rows[:1]))


def test_an_empty_manifest_built_in_python_is_allowed():
    # only a manifest file must have a row (`load_manifest` refuses one that has none)
    assert len(Manifest(())) == 0 and Manifest(()).speakers == []


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


@pytest.mark.parametrize("t", [1, 2, 3, 150])
def test_smooth_in_place_matches_the_former_sum(t):
    a = np.random.default_rng(t).standard_normal((t, 16))
    prev, nxt = np.concatenate([a[:1], a[:-1]]), np.concatenate([a[1:], a[-1:]])
    assert _smooth(Tensor(a)).data.tobytes() == ((prev + a + nxt) * (1.0 / 3)).tobytes()


@pytest.mark.parametrize("layers, rate, message", [
    (np.zeros((2, 3, 4), dtype=complex) + 1j, 50.0, "entries must be integers or floats, got complex128"),
    ([[["1", "2"]], [["3", "4"]]], 50.0, "entries must be integers or floats, got <U1"),
    (np.zeros((2, 3, 4), dtype=bool), 50.0, "entries must be integers or floats, got bool"),
    (np.zeros((2, 3, 4)), True, "frame rate must be positive and finite in float32, got True"),
], ids=["complex", "strings", "bools", "bool_rate"])
def test_layer_stack_refuses_what_is_not_a_real_number(layers, rate, message):
    # before: a complex stack kept its real part with a warning, strings were parsed, and True was a rate of 1
    with pytest.raises(ValueError, match=message):
        LayerStack(layers, frame_rate_hz=rate)


def test_a_loaded_stack_is_a_read_only_view_of_the_file_bytes(tmp_path):
    stack = stack_fixture()
    save_stack(stack, tmp_path / "s.svhs")
    loaded = load_stack(tmp_path / "s.svhs")
    assert not loaded.layers.flags.owndata and not loaded.layers.flags.writeable
    owner = loaded.layers
    while isinstance(owner, np.ndarray):
        owner = owner.base
    assert isinstance(owner.obj, bytes)  # immutable: nothing else can write under the stack
    assert loaded.layers.tobytes() == stack.layers.tobytes() and loaded.frame_rate_hz == stack.frame_rate_hz


def test_the_mock_stack_keeps_the_array_its_forward_made(monkeypatch):
    model = MockUpstream(MockUpstreamConfig(n_layers=2, dim=8, seed=1))
    made = []
    forward_array = model.forward_array

    def recorded(wav):
        made.append(forward_array(wav))
        return made[-1]

    monkeypatch.setattr(model, "forward_array", recorded)
    stack = model.stack(rand_wav(1600, seed=2), "w")
    assert stack.layers is made[0] and not stack.layers.flags.writeable


@pytest.mark.parametrize("layers, rate, message", [
    (np.zeros((1, 3, 4), dtype=np.float32), 50.0, r"must be \(L\+1\) x T x D"),
    (np.full((2, 3, 4), np.inf, dtype=np.float32), 50.0, "non-finite entries"),
    (np.zeros((2, 3, 4), dtype=np.float32), 0.0, "frame rate must be positive"),
    (np.zeros((2, 3, 4), dtype=np.float32), 1e39, "frame rate must be positive"),
])
def test_a_kept_stack_makes_every_check_of_a_copied_one(layers, rate, message):
    messages = []
    for build in (LayerStack, LayerStack._own):
        with pytest.raises(ValueError, match=message) as info:
            build(layers.copy(), rate)
        messages.append(str(info.value))
    assert messages[0] == messages[1]

"""ECAPA-TDNN block and end-to-end encoder tests."""

import numpy as np
import pytest

import svkit.autodiff as ad
import svkit.ecapa as em
from svkit.autodiff import Tensor
from svkit.ecapa import (
    EcapaConfig,
    attentive_stats_pool,
    count_params,
    forward,
    init_params,
    load_checkpoint,
    param_shapes,
    save_checkpoint,
    se_gate,
    se_res2_block,
)
from svkit.errors import ConfigError, FormatError
from gradcheck import fd_report
from test_autodiff import time_patches

SMALL = EcapaConfig(
    in_dim=6, channels=16, res2_scale=8, dilations=(2, 3, 4),
    se_bottleneck=8, attention_channels=8, embed_dim=8,
)


def small_params(seed=0):
    return init_params(SMALL, seed=seed)


def zero_params(cfg):
    return {name: Tensor(np.zeros(shape)) for name, shape in param_shapes(cfg).items()}


# ---------------------------------------------------------------------------
# SE gate
# ---------------------------------------------------------------------------


def test_se_gate_zero_parameters_halves_input():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((7, 16)))
    out = se_gate(x, Tensor(np.zeros((16, 8))), Tensor(np.zeros(8)), Tensor(np.zeros((8, 16))), Tensor(np.zeros(16)))
    np.testing.assert_allclose(out.data, x.data / 2.0, atol=1e-15)


def test_se_gate_constant_input_equals_single_frame():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(16)
    w1, b1 = Tensor(rng.standard_normal((16, 8))), Tensor(rng.standard_normal(8))
    w2, b2 = Tensor(rng.standard_normal((8, 16))), Tensor(rng.standard_normal(16))
    many = se_gate(Tensor(np.tile(v, (9, 1))), w1, b1, w2, b2)
    single = se_gate(Tensor(v.reshape(1, -1)), w1, b1, w2, b2)
    np.testing.assert_allclose(many.data, np.tile(single.data, (9, 1)), atol=1e-12)


def test_se_gate_w1_gradient_matches_fd():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 6))
    w1 = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
    b1, w2, b2 = Tensor(rng.standard_normal(4)), Tensor(rng.standard_normal((4, 6))), Tensor(rng.standard_normal(6))
    probe = rng.standard_normal((5, 6))

    def loss():
        return (se_gate(Tensor(x), w1, b1, w2, b2) * probe).sum()

    assert fd_report(loss, {"w1": w1}, 1e-6)["w1"] < 1e-4


# ---------------------------------------------------------------------------
# SE-Res2 block
# ---------------------------------------------------------------------------


def test_block_zero_parameters_is_identity():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((10, 16)))
    out = se_res2_block(x, zero_params(SMALL), "block0", SMALL, dilation=2)
    np.testing.assert_array_equal(out.data, x.data)


def test_block_single_frame_finite_and_shaped():
    rng = np.random.default_rng(4)
    params = small_params()
    x = Tensor(rng.standard_normal((1, 16)))
    out = se_res2_block(x, params, "block1", SMALL, dilation=3)
    assert out.data.shape == (1, 16)
    assert np.all(np.isfinite(out.data))


def test_parameter_count_closed_form_default_config():
    cfg = EcapaConfig()  # in 64, C 512, scale 8, se 128, attn 128, E 192
    stem = 5 * 64 * 512 + 512 + 2 * 512
    block = (
        512 * 512 + 512  # conv1
        + 2 * 512  # norm1
        + 7 * (3 * 64 * 64 + 64)  # res2 convs
        + 2 * 512  # norm2
        + 512 * 512 + 512  # conv2
        + 2 * 512  # norm3
        + 512 * 128 + 128 + 128 * 512 + 512  # se
    )
    mfa = 1536 * 1536 + 1536
    asp = 1536 * 128 + 128 + 128
    fc = 2 * 1536 * 192 + 192
    expected = stem + 3 * block + mfa + asp + fc
    assert count_params(cfg) == expected == 5552768


def test_parameter_count_within_ten_percent_of_reference():
    assert abs(count_params(EcapaConfig()) - 6_000_000) / 6_000_000 < 0.10


def test_config_validation():
    with pytest.raises(ConfigError) as info:
        EcapaConfig(channels=30, res2_scale=8)
    assert str(info.value) == "ecapa.channels must be a multiple of ecapa.res2_scale, got 30 and 8"
    with pytest.raises(ConfigError):
        EcapaConfig(dilations=(2, 3))


# ---------------------------------------------------------------------------
# attentive statistics pooling
# ---------------------------------------------------------------------------


def test_asp_zero_attention_reduces_to_plain_stats():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((11, 6))
    out = attentive_stats_pool(Tensor(x), Tensor(np.zeros((6, 4))), Tensor(np.zeros(4)), Tensor(np.zeros(4)))
    mu = x.mean(axis=0)
    sigma = np.sqrt(np.maximum((x**2).mean(axis=0) - mu**2, 1e-8))
    np.testing.assert_allclose(out.data[:6], mu, atol=1e-12)
    np.testing.assert_allclose(out.data[6:], sigma, atol=1e-12)


def test_asp_constant_input_hits_std_floor():
    rng = np.random.default_rng(6)
    v = rng.standard_normal(6)
    x = np.tile(v, (9, 1))
    w, b, a = Tensor(rng.standard_normal((6, 4))), Tensor(rng.standard_normal(4)), Tensor(rng.standard_normal(4))
    out = attentive_stats_pool(Tensor(x), w, b, a)
    np.testing.assert_allclose(out.data[:6], v, atol=1e-12)
    np.testing.assert_allclose(out.data[6:], np.full(6, 1e-4), atol=1e-12)


def test_asp_single_frame():
    rng = np.random.default_rng(7)
    v = rng.standard_normal(6)
    out = attentive_stats_pool(
        Tensor(v.reshape(1, -1)),
        Tensor(rng.standard_normal((6, 4))),
        Tensor(rng.standard_normal(4)),
        Tensor(rng.standard_normal(4)),
    )
    np.testing.assert_allclose(out.data[:6], v, atol=1e-12)
    np.testing.assert_allclose(out.data[6:], np.full(6, 1e-4), atol=1e-12)


# ---------------------------------------------------------------------------
# full forward
# ---------------------------------------------------------------------------


def test_embedding_shape_independent_of_length():
    params = small_params()
    rng = np.random.default_rng(8)
    for t in (1, 2, 17, 300):
        emb = forward(rng.standard_normal((t, 6)), params, SMALL)
        assert emb.data.shape == (8,)
        assert np.all(np.isfinite(emb.data))


def _constant_oracle(v, params, cfg):
    """Plain-numpy forward for a time-constant input (replicate padding makes
    every frame identical, so each layer reduces to single-frame arithmetic)."""

    def p(name):
        return params[name].data

    def frame_norm(h, g, c):
        mu = h.mean()
        var = ((h - mu) ** 2).mean()
        return (h - mu) / np.sqrt(var + 1e-5) * g + c

    def conv(h, w, b, k):
        return np.tile(h, k) @ w + b

    def block(h, blk):
        y = frame_norm(np.maximum(conv(h, p(f"{blk}.conv1.w"), p(f"{blk}.conv1.b"), 1), 0),
                       p(f"{blk}.norm1.g"), p(f"{blk}.norm1.c"))
        width = cfg.channels // cfg.res2_scale
        groups = [y[i * width : (i + 1) * width] for i in range(cfg.res2_scale)]
        outs = [groups[0]]
        for i in range(1, cfg.res2_scale):
            outs.append(conv(groups[i] + outs[i - 1], p(f"{blk}.res2.conv{i}.w"), p(f"{blk}.res2.conv{i}.b"), 3))
        y = frame_norm(np.maximum(np.concatenate(outs), 0), p(f"{blk}.norm2.g"), p(f"{blk}.norm2.c"))
        y = np.maximum(conv(y, p(f"{blk}.conv2.w"), p(f"{blk}.conv2.b"), 1), 0)
        gate = 1.0 / (1.0 + np.exp(-(np.maximum(y @ p(f"{blk}.se.w1") + p(f"{blk}.se.b1"), 0) @ p(f"{blk}.se.w2") + p(f"{blk}.se.b2"))))
        y = frame_norm(y * gate, p(f"{blk}.norm3.g"), p(f"{blk}.norm3.c"))
        return h + y

    h = frame_norm(np.maximum(conv(v, p("stem.w"), p("stem.b"), 5), 0), p("stem.norm.g"), p("stem.norm.c"))
    b0 = block(h, "block0")
    b1 = block(b0, "block1")
    b2 = block(b1, "block2")
    z = np.maximum(np.concatenate([b0, b1, b2]) @ p("mfa.w") + p("mfa.b"), 0)
    pooled = np.concatenate([z, np.full_like(z, 1e-4)])  # sigma floor: constant input
    return pooled @ p("fc.w") + p("fc.b")


def test_constant_input_embedding_independent_of_length():
    params = small_params(seed=9)
    rng = np.random.default_rng(9)
    v = rng.standard_normal(6)
    oracle = _constant_oracle(v, params, SMALL)
    e_short = forward(np.tile(v, (7, 1)), params, SMALL).data
    e_long = forward(np.tile(v, (123, 1)), params, SMALL).data
    np.testing.assert_allclose(e_short, e_long, atol=1e-5)
    np.testing.assert_allclose(e_short, oracle, atol=1e-5)


def test_every_parameter_gets_gradient():
    params = small_params(seed=10)
    rng = np.random.default_rng(10)
    feats = rng.standard_normal((12, 6))
    probe = rng.standard_normal(8)
    (forward(feats, params, SMALL) * probe).sum().backward()
    for name, p in params.items():
        assert p.grad is not None, name
        assert np.any(p.grad != 0), f"all-zero gradient for {name}"


def test_forward_is_pure_across_calls():
    params = small_params(seed=11)
    rng = np.random.default_rng(11)
    a = rng.standard_normal((9, 6))
    b = rng.standard_normal((14, 6))
    first = forward(a, params, SMALL).data.copy()
    forward(b, params, SMALL)
    again = forward(a, params, SMALL).data.copy()
    np.testing.assert_array_equal(first, again)


def test_zero_blocks_identity_stem_closed_form():
    cfg = EcapaConfig(in_dim=8, channels=8, res2_scale=4, dilations=(2, 3, 4),
                      se_bottleneck=4, attention_channels=4, embed_dim=5)
    rng = np.random.default_rng(12)
    params = zero_params(cfg)
    stem_w = np.zeros((5 * 8, 8))
    stem_w[2 * 8 : 3 * 8] = np.eye(8)  # center tap passes the frame through
    params["stem.w"] = Tensor(stem_w)
    params["stem.norm.g"] = Tensor(np.ones(8))
    params["mfa.w"] = Tensor(rng.standard_normal((24, 24)))
    params["mfa.b"] = Tensor(rng.standard_normal(24))
    params["fc.w"] = Tensor(rng.standard_normal((48, 5)))
    params["fc.b"] = Tensor(rng.standard_normal(5))

    x = rng.standard_normal((20, 8))
    emb = forward(x, params, cfg).data

    # closed-form oracle: affine map of the pooled statistics of the MFA output
    def frame_norm(h):
        mu = h.mean(axis=1, keepdims=True)
        var = ((h - mu) ** 2).mean(axis=1, keepdims=True)
        return (h - mu) / np.sqrt(var + 1e-5)

    y = frame_norm(np.maximum(x, 0))
    z = np.maximum(np.concatenate([y, y, y], axis=1) @ params["mfa.w"].data + params["mfa.b"].data, 0)
    mu = z.mean(axis=0)
    sigma = np.sqrt(np.maximum((z**2).mean(axis=0) - mu**2, 1e-8))
    expected = np.concatenate([mu, sigma]) @ params["fc.w"].data + params["fc.b"].data
    np.testing.assert_allclose(emb, expected, atol=1e-10)


DESK = EcapaConfig(in_dim=64, channels=64, res2_scale=8, dilations=(2, 3, 4),
                   se_bottleneck=32, attention_channels=32, embed_dim=64)


def composed_conv1d(x, w, b, kernel, dilation=1, relu=False):
    """A k-tap conv as four nodes (gather, reshape, matmul, bias), then a `relu` node:
    the reference for `ad.conv1d`."""
    t = x.shape[0]
    y = time_patches(x, kernel, dilation).reshape(t, kernel * x.shape[1]) @ w + b
    return y.relu() if relu else y


def composed_linear(x, w, b, relu=False):
    """`x @ w + b` as two nodes, then a `relu` node: the reference for `ad.linear`."""
    y = x @ w + b
    return y.relu() if relu else y


def composed_res2(x, ws, bs, dilation):
    """The Res2 conv as per-group slices, adds and convs joined by `concat`: the reference for `ad.res2`."""
    width = x.shape[1] // (len(ws) + 1)
    groups = [x[:, i * width : (i + 1) * width] for i in range(len(ws) + 1)]
    outs = [groups[0]]
    for i, (w, b) in enumerate(zip(ws, bs), start=1):
        outs.append(composed_conv1d(groups[i] + outs[i - 1], w, b, 3, dilation))
    return ad.concat(outs, axis=1)


SCALE4 = EcapaConfig(in_dim=32, channels=32, res2_scale=4, dilations=(2, 3, 4),
                     se_bottleneck=16, attention_channels=16, embed_dim=32)


# T <= 3 clips every tap of the stem's kernel 5 and of the res2 convs at dilation 4
EQUIVALENCE_CASES = ([pytest.param(DESK, t, id=f"desk-T{t}") for t in (1, 2, 3, 5, 150)]
                     + [pytest.param(SCALE4, t, id=f"scale4-T{t}") for t in (1, 2, 3, 5, 150)]
                     + [pytest.param(EcapaConfig(), 150, id="C512-T150")])


@pytest.mark.parametrize("cfg,t", EQUIVALENCE_CASES)
def test_fused_ops_forward_and_gradients_byte_identical_to_composed_forms(cfg, t, monkeypatch):
    rng = np.random.default_rng(t)
    feats = rng.standard_normal((t, cfg.in_dim))
    probe = rng.standard_normal(cfg.embed_dim)

    def run():
        params = init_params(cfg, seed=t)
        x = Tensor(feats, requires_grad=True)
        emb = forward(x, params, cfg)
        (emb * probe).sum().backward()
        return emb.data, x.grad, {name: p.grad for name, p in params.items()}

    emb, x_grad, grads = run()
    monkeypatch.setattr(ad, "conv1d", composed_conv1d)
    monkeypatch.setattr(ad, "linear", composed_linear)
    monkeypatch.setattr(ad, "res2", composed_res2)
    ref_emb, ref_x_grad, ref_grads = run()
    assert emb.tobytes() == ref_emb.tobytes()
    assert x_grad.tobytes() == ref_x_grad.tobytes()
    assert grads.keys() == ref_grads.keys()
    for name, g in grads.items():
        assert g.tobytes() == ref_grads[name].tobytes(), name


def reached_tensors(out) -> set:
    """Ids of the tensors reachable from `out` through recorded parents, `out` included."""
    reached, todo = {id(out)}, [out]
    while todo:
        for p in todo.pop()._parents:
            if id(p) not in reached:
                reached.add(id(p))
                todo.append(p)
    return reached


def test_desk_forward_graph_size_is_pinned():
    # the tensors one desk crop's forward records (parameters, input, op nodes and
    # constants): a change that grows the graph again fails here
    params = init_params(DESK, seed=0)
    x = Tensor(np.random.default_rng(0).standard_normal((150, DESK.in_dim)))
    out = forward(x, params, DESK)
    reached = reached_tensors(out)
    assert {id(p) for p in params.values()} | {id(x)} <= reached
    assert len(reached) == 167  # 95 parameters, the input, 67 op nodes and 4 constants


def test_tuned_desk_utterance_graph_size_is_pinned():
    # one fine-tuned desk crop: the mock upstream's graph, `aggregate_graph` (one
    # node for all 13 layers, after the logits' softmax) and ECAPA; a frozen crop's graph,
    # with the stack as a constant, holds only the logits' and ECAPA's nodes
    from svkit.aggregator import aggregate_graph
    from svkit.audio import Waveform
    from svkit.upstream import MockUpstream, MockUpstreamConfig

    upstream = MockUpstream(MockUpstreamConfig(n_layers=12, dim=64, seed=0))
    samples = np.random.default_rng(0).uniform(-0.5, 0.5, 150 * 320)
    params = init_params(DESK, seed=0)
    logits = Tensor(np.zeros(13), requires_grad=True)
    frozen = forward(aggregate_graph(upstream.forward_array(Waveform(samples)), logits), params, DESK)
    for p in upstream.params.values():  # tuned, as in stage 2
        p.requires_grad = True
    tuned = forward(aggregate_graph(upstream.forward_graph(Tensor(samples)), logits), params, DESK)
    assert [len(reached_tensors(frozen)), len(reached_tensors(tuned))] == [173, 284]


def test_input_dim_mismatch():
    with pytest.raises(ConfigError, match="in_dim"):
        forward(np.zeros((4, 5)), small_params(), SMALL)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    params = small_params(seed=13)
    path = tmp_path / "p.svck"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert set(loaded) == set(params)
    for name, p in params.items():
        np.testing.assert_array_equal(loaded[name], p.data.astype(np.float32))
    # a second save of the loaded tensors is byte-identical
    path2 = tmp_path / "p2.svck"
    save_checkpoint(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.svck"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError, match="bad magic"):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    params = small_params(seed=14)
    path = tmp_path / "t.svck"
    save_checkpoint(params, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 6])
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(path)

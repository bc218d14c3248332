"""Finite-difference and structural checks for the autodiff engine."""

import inspect
import weakref
import zlib

import numpy as np
import pytest

import svkit.autodiff as ad
from svkit.autodiff import Tensor

from gradcheck import fd_grad, fd_report


def check_op(build, shape, seed, atol=1e-7):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    t = Tensor(x.copy(), requires_grad=True)
    out = build(t)
    out.sum().backward()

    def f(arr):
        return build(Tensor(arr)).sum().item()

    np.testing.assert_allclose(t.grad, fd_grad(f, x.copy()), atol=atol, rtol=1e-5)


# fixed weights for ops whose plain sum has a constant gradient
W = np.arange(12.0).reshape(4, 3) / 6.0 - 1.0

# every engine op is called on a gradient-carrying tensor by at least one case
# (test_every_op_has_a_finite_difference_case)
OP_CASES = [
    ("exp", lambda t: t.exp()),
    ("log", lambda t: (t * t + 1.0).log()),
    ("sqrt", lambda t: (t * t + 0.5).sqrt()),
    ("tanh", lambda t: t.tanh()),
    ("sigmoid", lambda t: t.sigmoid()),
    ("relu", lambda t: (t + 0.05).relu()),
    ("mean", lambda t: (t.mean(axis=0, keepdims=True) * t)),
    ("clip", lambda t: t.clip(-0.5, 0.5) * 3.0),
    ("slice", lambda t: t[1:3, :2] * 2.0),
    ("index_scalar", lambda t: t * t[1, 2]),
    ("reshape", lambda t: t.reshape(2, -1).tanh()),
    ("transpose", lambda t: (t.transpose() @ t)),
    ("div", lambda t: t / (t * t + 2.0)),
    ("softmax", lambda t: ad.softmax(t, axis=1) * np.arange(12.0).reshape(4, 3)),
    ("logsumexp", lambda t: ad.logsumexp(t, axis=1)),
    # dilation 2 on T=4: taps clip at both edges; w and b are built from t, so all three gradients are checked
    ("conv1d", lambda t: ad.conv1d(t, ad.concat([t[:3], t[1:], t[:3] * t[1:]]), t[3], 3, 2).tanh()),
    ("conv1d_relu", lambda t: ad.conv1d(t, ad.concat([t[:3], t[1:], t[:3] * t[1:]]), t[3], 3, 2, relu=True).tanh()),
    # w and b are built from t, so the x, w and b gradients are all checked
    ("linear", lambda t: ad.linear(t, t[1:] * t[:3], t[0]).tanh()),
    ("linear_relu", lambda t: ad.linear(t, t[1:] * t[:3], t[0], relu=True).tanh()),
    # three groups of width 2 at dilation 2 on T=4: taps clip at both edges; x, ws and bs are built from t
    ("res2", lambda t: ad.res2(ad.concat([t, t.tanh()], axis=1), [t.reshape(6, 2), (t * t).reshape(6, 2)],
                               [t[0, :2], t[1, 1:]], 2).tanh()),
    # g and c are built from t, so the x, g and c gradients are all checked
    ("frame_norm", lambda t: ad.frame_norm(t, t[0] * t[1], t[2], 1e-5) * W),
    ("sub_row_mean", lambda t: (t - t.mean(axis=1, keepdims=True)) * W),
    ("rsub", lambda t: 1.0 - t * t),
    ("add_column", lambda t: (t + t[:, :1]).tanh()),
    ("radd", lambda t: (0.5 + t).tanh()),
    ("mul_column", lambda t: t * t[:, 1:2]),
    ("rmul", lambda t: (2.0 * t).tanh()),
    ("div_column", lambda t: t / (t[:, 2:] * t[:, 2:] + 1.0)),
    ("sum_all", lambda t: t * (t * t).sum()),
    ("concat_axis1", lambda t: ad.concat([t.tanh(), t[:, :1] * 2.0], axis=1) * np.arange(16.0).reshape(4, 4)),
    ("concat_rows", lambda t: ad.concat([t[0].reshape(1, -1), (t[1] * t[2]).reshape(1, -1)]).tanh()),
]


@pytest.mark.parametrize("name,build", OP_CASES)
def test_op_gradients(name, build):
    check_op(build, (4, 3), seed=zlib.crc32(name.encode()))


def test_matmul_gradients():
    rng = np.random.default_rng(1)
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    ((a @ b).tanh()).sum().backward()

    def fa(arr):
        return (Tensor(arr) @ Tensor(b.data)).tanh().sum().item()

    def fb(arr):
        return (Tensor(a.data) @ Tensor(arr)).tanh().sum().item()

    np.testing.assert_allclose(a.grad, fd_grad(fa, a.data.copy()), atol=1e-8)
    np.testing.assert_allclose(b.grad, fd_grad(fb, b.data.copy()), atol=1e-8)


def test_broadcast_bias_gradient():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 3))
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    ((Tensor(x) + b).relu()).sum().backward()
    expected = ((x + b.data) > 0).sum(axis=0).astype(float)
    np.testing.assert_allclose(b.grad, expected)


def test_diamond_graph_accumulates():
    # y = x*x + x*x reuses the same node twice; gradient must be 4x
    x = Tensor(np.array([1.5, -2.0]), requires_grad=True)
    y = x * x
    (y + y).sum().backward()
    np.testing.assert_allclose(x.grad, 4.0 * x.data)


def test_concat_of_rows():
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.full(3, 2.0), requires_grad=True)
    out = ad.concat([a.reshape(1, -1), b.reshape(1, -1)])
    assert out.data.shape == (2, 3)
    (out * np.array([[1.0], [10.0]])).sum().backward()
    np.testing.assert_allclose(a.grad, np.ones(3))
    np.testing.assert_allclose(b.grad, np.full(3, 10.0))


def time_patches(x: Tensor, width: int, dilation: int = 1) -> Tensor:
    """(T, width, C) replicate-padded dilated patches of a (T, C) tensor, as one node:
    the reference gather that `conv1d` and the mock's smoothing are checked against."""
    t = x.data.shape[0]
    idx = np.clip(np.arange(t)[:, None] + (np.arange(width) - width // 2)[None, :] * dilation, 0, t - 1)

    def vjp(g):
        full = np.zeros_like(x.data)
        np.add.at(full, idx, g)
        return (full,)

    return Tensor._op(x.data[idx], (x,), vjp)


def test_conv1d_replicate_padding():
    x = Tensor(np.arange(8.0).reshape(4, 2))
    # an identity weight returns each frame's patch: frame 0 replicates itself on the left
    p = ad.conv1d(x, np.eye(6), np.zeros(6), 3, 1)
    np.testing.assert_array_equal(p.data[0], [0.0, 1.0, 0.0, 1.0, 2.0, 3.0])
    np.testing.assert_array_equal(p.data[3], [4.0, 5.0, 6.0, 7.0, 6.0, 7.0])
    # a time-constant input gives a time-constant output
    rng = np.random.default_rng(0)
    c = ad.conv1d(Tensor(np.full((5, 3), 7.0)), rng.standard_normal((15, 4)), rng.standard_normal(4), 5, 2)
    np.testing.assert_allclose(c.data, np.tile(c.data[0], (5, 1)), rtol=1e-14)


def test_res2_weight_and_bias_gradients_with_a_constant_input():
    # x needs no gradient, yet each group's conv input gradient must still reach the groups before it
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((6, 8)))
    ws = [Tensor(rng.standard_normal((6, 2)), requires_grad=True) for _ in range(3)]
    bs = [Tensor(rng.standard_normal(2), requires_grad=True) for _ in range(3)]
    probe = rng.standard_normal((6, 8))
    params = {**{f"w{i}": w for i, w in enumerate(ws)}, **{f"b{i}": b for i, b in enumerate(bs)}}
    report = fd_report(lambda: (ad.res2(x, ws, bs, 2).tanh() * probe).sum(), params, 1e-6)
    assert max(report.values()) < 1e-6, report
    assert x.grad is None


def test_backward_through_a_released_res2_node_raises():
    x = Tensor(np.linspace(-1.0, 1.0, 12).reshape(4, 3), requires_grad=True)
    h = ad.res2(x, [Tensor(np.ones((3, 1)))] * 2, [Tensor(np.zeros(1))] * 2, 2)
    first, other = h.sum(), (h * 2.0).sum()
    first.backward()
    with pytest.raises(ValueError, match="released"):
        other.backward()


def composed_frame_norm(x, g, c, eps):
    """Per-frame norm as eleven nodes (mean, center, variance, sqrt, scale, shift):
    the reference for `ad.frame_norm`."""
    mu = x.mean(axis=1, keepdims=True)
    d = x - mu
    var = (d * d).mean(axis=1, keepdims=True)
    return d / (var + eps).sqrt() * g + c


@pytest.mark.parametrize("t", [1, 5, 150])
def test_frame_norm_matches_the_composed_form(t):
    rng = np.random.default_rng(t)
    x = rng.standard_normal((t, 64)) * 3.0 + 1.0
    x[0] = 0.7  # a constant frame: its variance is 0 and `eps` alone sets the scale
    g, c, probe = 1.0 + rng.standard_normal(64), rng.standard_normal(64), rng.standard_normal((t, 64))

    def run(norm):
        ts = [Tensor(v.copy(), requires_grad=True) for v in (x, g, c)]
        y = norm(*ts, 1e-5)
        (y * probe).sum().backward()
        return y.data, [v.grad for v in ts]

    y, grads = run(ad.frame_norm)
    ref_y, ref_grads = run(composed_frame_norm)
    assert y.tobytes() == ref_y.tobytes()
    for name, got, ref in zip("xgc", grads, ref_grads):
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref)), name


def test_constant_subgraphs_carry_no_graph():
    x = Tensor(np.ones((2, 2)))
    y = (x * 3.0).tanh()
    assert y._parents == () and y._backward is None and not y.requires_grad


def test_array_index_keys_rejected():
    # `x[[0, 0, 1]].sum()` has gradient [2, 1, 0]; a scatter by `full[key] += g` gives [1, 1, 0]
    x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    for key in (np.array([0, 0, 1]), [0, 0, 1], np.array([True, False, True]), (slice(None), np.array([1]))):
        with pytest.raises(ValueError, match="integers and slices"):
            x[key]
    x[1:, 0].sum().backward()
    np.testing.assert_array_equal(x.grad, [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])


def test_integer_index_to_one_element_is_0_d():
    v = Tensor(np.arange(3.0), requires_grad=True)
    m = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    one, corner = v[1], m[1, 2]
    assert one.shape == () and corner.shape == ()
    assert one.item() == 1.0 and corner.item() == 5.0
    (one * 3.0).backward()
    (corner * 2.0).backward()
    np.testing.assert_array_equal(v.grad, [0.0, 3.0, 0.0])
    np.testing.assert_array_equal(m.grad, [[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
    assert m[1].shape == (3,) and m[:, 1].data.flags.c_contiguous  # a slice stays a contiguous array


def retaining_backward(root: Tensor):
    """`Tensor.backward` before it released the graph: every node keeps its `.grad`,
    parents and VJP until the caller drops it. The reference the releasing backward
    is checked against."""
    topo = []
    seen = {id(root)}
    stack = [(root, iter(root._parents))]
    while stack:
        node, it = stack[-1]
        advanced = False
        for p in it:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append((p, iter(p._parents)))
                advanced = True
                break
        if not advanced:
            topo.append(node)
            stack.pop()

    root.grad = np.ones_like(root.data) if root.grad is None else root.grad + 1.0
    for node in reversed(topo):
        if node._backward is None or node.grad is None:
            continue
        for parent, grad in zip(node._parents, node._backward(node.grad), strict=True):
            if grad is None or not parent.requires_grad:
                continue
            if grad.shape != parent.data.shape:
                grad = ad._unbroadcast(grad, parent.data.shape)
            if parent.grad is None:
                parent.grad = grad.copy()
            else:
                parent.grad += grad


def test_backward_frees_interior_nodes_while_the_loss_is_held():
    x = Tensor(np.linspace(-1.0, 1.0, 6).reshape(2, 3), requires_grad=True)

    def build():
        h = (x * 3.0).tanh()
        return (h * h).sum(), weakref.ref(h.data)

    loss, interior = build()
    retaining_backward(loss)
    assert interior() is not None  # the retaining walk keeps the whole graph
    expected = x.grad
    x.grad = None
    loss, interior = build()
    loss.backward()
    assert interior() is None
    assert loss.grad is None and loss._parents == ()
    assert x.grad.tobytes() == expected.tobytes()  # a leaf keeps its gradient


@pytest.mark.parametrize("again", ["same loss", "loss sharing a released node"])
def test_backward_through_a_released_graph_raises(again):
    x = Tensor(np.array([0.5, -1.0]), requires_grad=True)
    h = (x * x).tanh()
    first, other = h.sum(), (h * 2.0).sum()
    first.backward()
    grad = x.grad.copy()
    with pytest.raises(ValueError, match="released"):
        (first if again == "same loss" else other).backward()
    # the walk raised before any VJP ran: no gradient was partly accumulated
    assert x.grad.tobytes() == grad.tobytes() and other.grad is None


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2.0).backward()


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    s = ad.softmax(Tensor(rng.standard_normal((6, 5)) * 10), axis=1)
    np.testing.assert_allclose(s.data.sum(axis=1), np.ones(6), atol=1e-12)


def engine_ops():
    """The public Tensor methods, the arithmetic dunders and the module's public functions."""
    not_ops = {"__init__", "__repr__", "__eq__", "__ne__", "item", "backward"}
    methods = [n for n, f in vars(Tensor).items()
               if inspect.isfunction(f) and n not in not_ops and (n.startswith("__") or not n.startswith("_"))]
    functions = [n for n, f in vars(ad).items()
                 if inspect.isfunction(f) and f.__module__ == ad.__name__ and not n.startswith("_")]
    return methods, functions


def test_every_op_has_a_finite_difference_case(monkeypatch):
    methods, functions = engine_ops()
    assert {"__add__", "__rsub__", "__matmul__", "__getitem__", "sum", "clip"} <= set(methods)
    assert {"concat", "conv1d", "frame_norm", "softmax", "logsumexp"} <= set(functions)
    exercised = set()

    def record(owner, name):
        original = vars(owner)[name]

        def wrapper(*args, **kwargs):
            flat = [x for a in args for x in (a if isinstance(a, (list, tuple)) else (a,))]
            if any(isinstance(x, Tensor) and x.requires_grad for x in flat):
                exercised.add(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in methods:
        record(Tensor, name)
    for name in functions:
        record(ad, name)
    for _, build in OP_CASES:
        build(Tensor(np.ones((4, 3)), requires_grad=True))
    assert sorted(set(methods + functions) - exercised) == []


def test_a_constant_parent_gets_no_gradient():
    x = Tensor(np.ones(3), requires_grad=True)
    c = Tensor(np.full(3, 2.0))
    # the VJP computes c's gradient too; `backward` drops it
    out = Tensor._op(x.data * c.data, (x, c), lambda g: (g * c.data, g * x.data))
    (out.sum() + (x * c).sum()).backward()
    assert c.grad is None
    np.testing.assert_array_equal(x.grad, 2.0 * c.data)


@pytest.mark.parametrize("op", ["linear", "conv1d", "matmul"])
def test_a_constant_input_gets_no_input_gradient_computed(monkeypatch, op):
    rng = np.random.default_rng(5)
    scatters = []
    scatter = ad._scatter_taps
    monkeypatch.setattr(ad, "_scatter_taps", lambda *args: scatters.append(1) or scatter(*args))
    build = {"linear": lambda x, w, b: ad.linear(x, w, b, relu=True),
             "conv1d": lambda x, w, b: ad.conv1d(x, w, b, 3, 2, relu=True),
             "matmul": lambda x, w, b: x @ w + b}[op]
    w_rows = 3 * 4 if op == "conv1d" else 4
    for x_needs_grad in (False, True):
        x = Tensor(rng.standard_normal((6, 4)), requires_grad=x_needs_grad)
        w = Tensor(rng.standard_normal((w_rows, 5)), requires_grad=True)
        b = Tensor(rng.standard_normal(5), requires_grad=True)
        out = build(x, w, b)
        node = out._parents[0] if op == "matmul" else out
        gx, gw = node._backward(rng.standard_normal(node.shape))[:2]
        assert (gx is None) != x_needs_grad and gw is not None
        scatters.clear()
        (out * rng.standard_normal(out.shape)).sum().backward()
        assert (x.grad is None) != x_needs_grad and w.grad is not None and b.grad is not None
        assert len(scatters) == (op == "conv1d" and x_needs_grad)


def test_a_vjp_with_the_wrong_number_of_gradients_raises():
    x = Tensor(np.ones(3), requires_grad=True)
    for vjp in (lambda g: (g, g), lambda g: ()):
        with pytest.raises(ValueError):
            Tensor._op(x.data * 2.0, (x,), vjp).sum().backward()


def test_ndarray_on_the_left_reaches_the_reflected_op():
    t = Tensor(np.arange(3.0), requires_grad=True)
    for out, expected in ((np.ones(3) + t, [1.0, 2.0, 3.0]), (np.ones(3) - t, [1.0, 0.0, -1.0]),
                          (np.full(3, 2.0) * t, [0.0, 2.0, 4.0])):
        assert isinstance(out, Tensor)
        np.testing.assert_array_equal(out.data, expected)
    (np.full(3, 2.0) * t).sum().backward()
    np.testing.assert_array_equal(t.grad, [2.0, 2.0, 2.0])


def test_equality_raises_and_hash_is_identity():
    t = Tensor(np.ones(3))
    for compare in (lambda: t == t, lambda: t != Tensor(np.ones(3)), lambda: np.ones(3) != t,
                    lambda: np.ones(3) == t, lambda: t != np.ones(3)):
        with pytest.raises(TypeError, match=r"compare \.data"):
            compare()
    assert {t: 1}[t] == 1 and hash(t) == object.__hash__(t)


@pytest.mark.parametrize("rows, relu", [(1, False), (150, False), (1000, True)])
def test_affine_bias_added_in_place_matches_the_former_sum(rows, relu):
    # `_affine` adds the bias into the fresh product; the former form made a second array with `a @ w + b`
    rng = np.random.default_rng(rows)
    a, w, b = rng.standard_normal((rows, 64)), rng.standard_normal((64, 48)), rng.standard_normal(48)
    former = a @ w + b
    if relu:
        former = np.maximum(former, 0.0)
    assert ad.linear(a, w, b, relu=relu).data.tobytes() == former.tobytes()
    patches = a.reshape(-1, 16)[ad._taps(a.size // 16, 3, 2)[1]].reshape(-1, 48)
    conv_former = patches @ w[:48] + b
    assert ad.conv1d(a.reshape(-1, 16), w[:48], b, 3, dilation=2).data.tobytes() == conv_former.tobytes()


def test_a_tensor_holds_float64_so_float32_operands_compute_in_float64():
    for data in (np.full((2, 3), 1 / 3, dtype=np.float32), np.arange(6).reshape(2, 3), np.eye(2, 3, dtype=bool)):
        t = Tensor(data)
        assert t.data.dtype == np.float64
        np.testing.assert_array_equal(t.data, data.astype(np.float64))
    rng = np.random.default_rng(0)
    x, w, b = (rng.standard_normal(shape).astype(np.float32) for shape in ((8, 16), (16, 4), (4,)))
    out = ad.linear(x, w, b).data
    wide = x.astype(np.float64) @ w.astype(np.float64) + b.astype(np.float64)
    assert out.dtype == np.float64 and out.tobytes() == wide.tobytes()
    assert out.tobytes() != (x @ w + b).astype(np.float64).tobytes()  # not the float32 product, widened after


@pytest.mark.parametrize("build, message", [
    (lambda: Tensor(np.ones(3)) @ Tensor(np.ones((3, 2))), "matmul supports 2-D operands only"),
    (lambda: Tensor(np.ones(3)).transpose(), "transpose supports 2-D tensors only"),
    (lambda: ad.linear(np.ones(3), np.ones((3, 2)), np.ones(2)), "linear supports 2-D operands only"),
    (lambda: ad.conv1d(np.ones(4), np.ones((3, 2)), np.ones(2), 3), r"conv1d expects a \(T, C\) tensor"),
    (lambda: ad.res2(np.ones((4, 6)), [np.ones((6, 2))] * 3, [np.ones(2)] * 3, 1),
     r"res2 expects a \(T, C\) tensor, C a multiple of len\(ws\) \+ 1"),
    (lambda: ad.frame_norm(np.ones(4), np.ones(4), np.zeros(4), 1e-5), r"frame_norm expects a \(T, C\) tensor"),
], ids=["matmul", "transpose", "linear", "conv1d", "res2", "frame_norm"])
def test_shape_guards_refuse_a_wrong_shape(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_repr_names_the_shape_and_the_gradient_flag():
    assert repr(Tensor(np.zeros((2, 3)), requires_grad=True)) == "Tensor(shape=(2, 3), grad=True)"


def test_backward_of_a_constant_changes_nothing():
    leaf = Tensor(np.ones(3))
    loss = (leaf * 2.0).sum()
    assert loss.backward() is None
    assert loss.grad is None and leaf.grad is None

"""Minimal reverse-mode automatic differentiation over numpy arrays.

Eager float64 tensors: a ``Tensor`` stores its data as float64 whatever it
is given (float32, integers, booleans), so every op computes in float64;
float32 is only the precision stacks and checkpoints keep at rest. Every
operation computes its value immediately and records it through
``Tensor._op``, with its parents and one vector-Jacobian product (VJP):
the function that maps the output's gradient to a tuple of one gradient per
parent, ``None`` for a parent whose gradient it does not compute.
``Tensor.backward()`` walks the recorded graph in reverse topological order,
runs each node's VJP once, and for each parent on a path to a
``requires_grad`` leaf sums its gradient down to the parent's shape where
numpy broadcasting widened it and accumulates it into the parent's ``.grad``.
Work a constant parent alone would need (the input gradient of a matmul,
``linear`` or ``conv1d``) is skipped. The walk frees the graph as it goes:
once a node's VJP has run it drops its gradient, parents and VJP, so only
leaves (tensors no op recorded, such as parameters) keep ``.grad``, and a
released graph cannot be backpropagated again.

The op set is deliberately small: elementwise arithmetic with numpy
broadcasting, 2-D matmul, reductions, a few nonlinearities, slicing,
concatenation, and four fused layer ops, each one node whose values equal
those of the composition it replaces to the byte:

* ``linear`` (``x @ w + b``, with a ReLU if ``relu=True``);
* ``conv1d`` (a dilated temporal convolution with replicate padding, with
  the same ``relu`` flag);
* ``res2`` (the hierarchical Res2 conv: per-group 3-tap convs, each fed the
  previous group's output);
* ``frame_norm`` (per-frame normalization across channels, with a
  closed-form backward).

``conv1d`` and ``res2`` share one tap table per (length, kernel, dilation),
cached, and one input-gradient scatter. A ReLU's or a clip's mask is built
in its VJP, so a forward without backward never pays for it. Everything
higher-level is composed from these.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, inverting numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


# the `_backward` of a node whose VJP has run and whose graph `backward` has dropped
_RELEASED = object()


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")
    # an ndarray on the left of an operator defers to the Tensor's reflected op
    __array_ufunc__ = None
    __hash__ = object.__hash__

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"

    def __eq__(self, other):
        raise TypeError("Tensor does not support == or !=; compare .data")

    __ne__ = __eq__

    # -- graph plumbing ----------------------------------------------------

    @staticmethod
    def _op(data: np.ndarray, parents: tuple, vjp) -> "Tensor":
        """Record a node: its value, its parents and its VJP, which maps the node's
        gradient to a tuple of one gradient (or `None`) per parent. A node none of
        whose parents needs a gradient is a constant and records no graph."""
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = False
        for p in parents:  # a plain loop: a generator costs more than the test on small graphs
            if p.requires_grad:
                out.requires_grad = True
                break
        if out.requires_grad:
            out._parents = parents
            out._backward = vjp
        else:
            out._parents = ()
            out._backward = None
        return out

    def backward(self):
        """Accumulate d(self)/d(leaf) into .grad of every reachable leaf, releasing the graph.

        Each interior node drops its gradient, parents and VJP as soon as its
        VJP has run, so only leaves (tensors no op recorded) keep `.grad`, and
        the graph's memory is freed during the walk rather than when the caller
        drops the loss. A released graph cannot be backpropagated again: a
        second `backward()` on the same loss, or on a loss that shares a
        released node, raises ValueError before any gradient changes. A VJP
        that returns other than one gradient per parent raises ValueError too.
        """
        if self.data.size != 1:
            raise ValueError("backward() needs a scalar")
        if not self.requires_grad:
            return

        # iterative post-order over the requires_grad subgraph
        topo = []
        seen = {id(self)}
        stack = [(self, iter(self._parents))]
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
                if node._backward is _RELEASED:
                    raise ValueError("backward() reached a graph node that an earlier backward() released; "
                                     "rebuild the graph to backpropagate through it again")
                topo.append(node)
                stack.pop()

        self.grad = np.ones_like(self.data) if self.grad is None else self.grad + 1.0
        while topo:
            node = topo.pop()
            if node._backward is None:  # a leaf keeps its gradient
                continue
            for parent, grad in zip(node._parents, node._backward(node.grad), strict=True):
                if grad is None or not parent.requires_grad:
                    continue
                if grad.shape != parent.data.shape:
                    grad = _unbroadcast(grad, parent.data.shape)
                if parent.grad is None:
                    # a fresh result is the parent's alone; a view, or the node's own gradient
                    # passed through, still aliases another array and is copied
                    parent.grad = grad if grad.base is None and grad is not node.grad else grad.copy()
                else:
                    parent.grad += grad
            node.grad = None
            node._parents = ()
            node._backward = _RELEASED

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    def __add__(self, other):
        a, b = self, Tensor._coerce(other)
        return Tensor._op(a.data + b.data, (a, b), lambda g: (g, g))

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self, Tensor._coerce(other)
        return Tensor._op(a.data - b.data, (a, b), lambda g: (g, -g))

    def __rsub__(self, other):
        return Tensor._coerce(other) - self

    def __mul__(self, other):
        a, b = self, Tensor._coerce(other)
        return Tensor._op(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self, Tensor._coerce(other)
        return Tensor._op(a.data / b.data, (a, b), lambda g: (g / b.data, -g * a.data / (b.data * b.data)))

    def __matmul__(self, other):
        a, b = self, Tensor._coerce(other)
        if a.data.ndim != 2 or b.data.ndim != 2:
            raise ValueError("matmul supports 2-D operands only")
        return Tensor._op(a.data @ b.data, (a, b), lambda g: (g @ b.data.T if a.requires_grad else None,
                                                              a.data.T @ g if b.requires_grad else None))

    # -- shapes ----------------------------------------------------------------

    def reshape(self, *shape):
        orig = self.data.shape
        return Tensor._op(self.data.reshape(shape), (self,), lambda g: (g.reshape(orig),))

    def transpose(self):
        if self.data.ndim != 2:
            raise ValueError("transpose supports 2-D tensors only")
        return Tensor._op(self.data.T.copy(), (self,), lambda g: (g.T,))

    def __getitem__(self, key):
        # integer and slice keys only: `full[key] += g` would drop repeated array indices
        if any(isinstance(k, (list, np.ndarray)) for k in (key if isinstance(key, tuple) else (key,))):
            raise ValueError("indexing supports integers and slices only")
        a = self
        data = a.data[key]

        def vjp(g):
            full = np.zeros_like(a.data)
            full[key] += g
            return (full,)

        # one element is a 0-d array (`ascontiguousarray` would make it 1-d); a slice is made contiguous
        return Tensor._op(np.ascontiguousarray(data) if np.ndim(data) else np.array(data), (a,), vjp)

    # -- reductions --------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        shape = self.data.shape
        keep = keepdims or axis is None  # the gradient already broadcasts against `shape`
        return Tensor._op(np.asarray(self.data.sum(axis=axis, keepdims=keepdims)), (self,),
                          lambda g: (np.broadcast_to(g if keep else np.expand_dims(g, axis), shape),))

    def mean(self, axis=None, keepdims: bool = False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- nonlinearities --------------------------------------------------------

    def exp(self):
        data = np.exp(self.data)
        return Tensor._op(data, (self,), lambda g: (g * data,))

    def log(self):
        a = self
        return Tensor._op(np.log(a.data), (a,), lambda g: (g / a.data,))

    def sqrt(self):
        data = np.sqrt(self.data)
        return Tensor._op(data, (self,), lambda g: (g * 0.5 / data,))

    def tanh(self):
        data = np.tanh(self.data)
        return Tensor._op(data, (self,), lambda g: (g * (1.0 - data * data),))

    def sigmoid(self):
        z = np.exp(-np.abs(self.data))
        data = np.where(self.data >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
        return Tensor._op(data, (self,), lambda g: (g * data * (1.0 - data),))

    def relu(self):
        a = self
        return Tensor._op(np.maximum(a.data, 0.0), (a,), lambda g: (g * (a.data > 0),))

    def clip(self, lo=None, hi=None):
        a = self

        def vjp(g):
            keep = True
            if lo is not None:
                keep = a.data >= lo
            if hi is not None:
                keep = keep & (a.data <= hi)
            return (g * keep,)

        return Tensor._op(np.clip(a.data, lo, hi), (a,), vjp)


def concat(tensors, axis: int = 0) -> Tensor:
    ts = tuple(Tensor._coerce(t) for t in tensors)
    data = np.concatenate([t.data for t in ts], axis=axis)
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in ts])
    lead = (slice(None),) * (axis % data.ndim)
    parts = [lead + (slice(lo, hi),) for lo, hi in zip(offsets[:-1], offsets[1:])]
    return Tensor._op(data, ts, lambda g: tuple(g[part] for part in parts))


@lru_cache(maxsize=16)  # an utterance length takes four (ECAPA's stem and three dilations)
def _taps(t: int, kernel: int, dilation: int) -> tuple:
    """The taps of a `kernel`-tap conv at `dilation` over `t` frames, read-only:
    `(offs, idx, edge, idx[edge])`. Tap k of output frame j reads frame `idx[j, k]`,
    `j + offs[k]` clipped to the sequence (replicate padding); `edge` marks the reads
    of the first or last frame, every clipped read among them."""
    offs = (np.arange(kernel) - kernel // 2) * dilation
    idx = np.clip(np.arange(t)[:, None] + offs[None, :], 0, t - 1)
    edge = (idx == 0) | (idx == t - 1)
    taps = (offs, idx, edge, idx[edge])
    for arr in taps:
        arr.flags.writeable = False
    return taps


def _scatter_taps(gp: np.ndarray, taps: tuple) -> np.ndarray:
    """The input gradient of a conv from the gradient `gp` (T, kernel, C) of its patches."""
    offs, _idx, edge, edge_idx = taps
    t = gp.shape[0]
    full = np.zeros((t, gp.shape[2]))
    # An interior frame j (0 < j < t-1) is read unclipped, by tap k from frame j - offs[k].
    # Adding the taps in descending order sums those reads in the order `np.add.at`
    # over `idx` would (row-major, frame j - offs[k] ascending), so the result is the same bytes.
    for k in range(len(offs) - 1, -1, -1):
        o = offs[k]
        lo, hi = max(1, o), min(t - 1, t + o)
        if lo < hi:
            full[lo:hi] += gp[lo - o : hi - o, k]
    # the two edge frames also take every clipped read
    np.add.at(full, edge_idx, gp[edge])
    return full


def _affine(a: np.ndarray, x: Tensor, w: Tensor, b: Tensor, relu: bool, to_x=None) -> Tensor:
    """One node for `a @ w + b`, ReLU'd if `relu`, with parents (x, w, b): `a` is `x`'s
    data or patches read from it, and `to_x`, if given, maps the gradient of `a` to `x`'s.
    The ReLU's mask is built in the VJP, and a constant `x` or `w` gets no product."""
    data = a @ w.data
    data += b.data  # in place: the sum `a @ w + b` makes, without a second fresh array
    if relu:
        np.maximum(data, 0.0, out=data)

    def vjp(g):
        if relu:
            g = g * (data > 0)
        gx = None
        if x.requires_grad:
            gx = g @ w.data.T if to_x is None else to_x(g @ w.data.T)
        return gx, a.T @ g if w.requires_grad else None, g

    return Tensor._op(data, (x, w, b), vjp)


def linear(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """`x @ w + b` for a 2-D `x` and `w` and a bias `b` broadcast over rows, then a
    ReLU if `relu`: one node. Its values are those of `(x @ w + b).relu()` to the byte."""
    x, w, b = (Tensor._coerce(v) for v in (x, w, b))
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ValueError("linear supports 2-D operands only")
    return _affine(x.data, x, w, b, relu)


def conv1d(x: Tensor, w: Tensor, b: Tensor, kernel: int, dilation: int = 1, relu: bool = False) -> Tensor:
    """Dilated temporal convolution of a (T, C) tensor: (T, C_out), then a ReLU if `relu`.

    `w` is (kernel * C, C_out), its rows tap-major, and `b` is (C_out,).
    Padding is replicate ('edge'): out-of-range taps read the first or last
    frame, so a time-constant input yields a time-constant output.
    """
    x, w, b = (Tensor._coerce(v) for v in (x, w, b))
    if x.data.ndim != 2:
        raise ValueError("conv1d expects a (T, C) tensor")
    t, c = x.data.shape
    taps = _taps(t, kernel, dilation)
    patches = x.data[taps[1]].reshape(t, kernel * c)
    return _affine(patches, x, w, b, relu, lambda gp: _scatter_taps(gp.reshape(t, kernel, c), taps))


def res2(x: Tensor, ws, bs, dilation: int) -> Tensor:
    """The hierarchical Res2 conv of a (T, C) tensor (Gao et al., 2019) as one node: (T, C).

    The channels split into `len(ws) + 1` groups of width `C / (len(ws) + 1)`. Group 0
    passes through; group i >= 1 adds the previous group's output and runs a 3-tap
    `conv1d` at `dilation` with `ws[i-1]` (3 * width, width) and `bs[i-1]` (width,).
    The values are those of the same conv built from slices, `+`, `conv1d` and `concat`,
    to the byte. Its VJP is one reverse sweep over the groups.
    """
    x = Tensor._coerce(x)
    ws, bs = tuple(Tensor._coerce(v) for v in ws), tuple(Tensor._coerce(v) for v in bs)
    scale = len(ws) + 1
    if x.data.ndim != 2 or len(bs) != len(ws) or x.data.shape[1] % scale:
        raise ValueError("res2 expects a (T, C) tensor, C a multiple of len(ws) + 1, and one bias per weight")
    t, c = x.data.shape
    width = c // scale
    groups = [slice(i * width, (i + 1) * width) for i in range(scale)]
    taps = _taps(t, 3, dilation)
    data = np.empty_like(x.data)
    data[:, groups[0]] = prev = x.data[:, groups[0]]
    patches = []  # conv j's, which writes group j + 1
    for j, (w, b) in enumerate(zip(ws, bs)):
        patches.append((x.data[:, groups[j + 1]] + prev)[taps[1]].reshape(t, 3 * width))
        data[:, groups[j + 1]] = prev = patches[j] @ w.data + b.data

    def sweep(g):
        """(gx, *gws, *gbs) for the output gradient `g`. Conv j's input gradient also
        reaches the output of conv j - 1 (group 0 for j = 0), so the convs run last to first."""
        gx = np.zeros_like(x.data)
        gws, gbs = [None] * len(ws), [None] * len(ws)
        gh = None
        for j in range(len(ws) - 1, -1, -1):
            go = g[:, groups[j + 1]].copy() if gh is None else g[:, groups[j + 1]] + gh
            gws[j] = patches[j].T @ go
            gbs[j] = go.sum(axis=0)
            gh = _scatter_taps((go @ ws[j].data.T).reshape(t, 3, width), taps)
            gx[:, groups[j + 1]] += gh
        gx[:, groups[0]] += g[:, groups[0]] if gh is None else g[:, groups[0]] + gh
        return (gx, *gws, *gbs)

    return Tensor._op(data, (x, *ws, *bs), sweep)


def frame_norm(x: Tensor, g: Tensor, c: Tensor, eps: float) -> Tensor:
    """Normalize each frame of a (T, C) tensor across its channels, then scale by
    `g` and shift by `c` (both (C,)): `(x - mean) / sqrt(var + eps) * g + c`.

    One node. Its forward runs, in order, the numpy ops of the same norm built
    from `Tensor` ops (`mean`, `-`, `*`, `sqrt`, `/`, `+`), so its values equal
    that composition's to the byte. Its backward is the closed-form layer-norm
    gradient (Ba et al., 2016): with `xhat` the normalized input and `s` the
    per-frame deviation, the input gradient of `gy` is
    `(gx - mean(gx) - xhat * mean(gx * xhat)) / s` for `gx = gy * g`, the
    means over channels.
    """
    x, g, c = (Tensor._coerce(v) for v in (x, g, c))
    if x.data.ndim != 2:
        raise ValueError("frame_norm expects a (T, C) tensor")
    inv_n = 1.0 / x.data.shape[1]
    xhat = x.data - x.data.sum(axis=1, keepdims=True) * inv_n
    s = np.sqrt((xhat * xhat).sum(axis=1, keepdims=True) * inv_n + eps)
    xhat /= s  # in place, as is `y += c`: the same values with fewer (T, C) arrays alive
    y = xhat * g.data
    y += c.data

    def vjp(gy):
        gx = gy * g.data
        gx = (gx - gx.sum(axis=1, keepdims=True) * inv_n
              - xhat * ((gx * xhat).sum(axis=1, keepdims=True) * inv_n)) / s
        return gx, (gy * xhat).sum(axis=0), gy.sum(axis=0)

    return Tensor._op(y, (x, g, c), vjp)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along `axis` (max is treated as constant)."""
    x = Tensor._coerce(x)
    m = Tensor(np.max(x.data, axis=axis, keepdims=True))
    z = (x - m).exp()
    return z / z.sum(axis=axis, keepdims=True)


def logsumexp(x: Tensor, axis: int = -1) -> Tensor:
    x = Tensor._coerce(x)
    m = np.max(x.data, axis=axis, keepdims=True)
    z = (x - Tensor(m)).exp().sum(axis=axis)
    return z.log() + Tensor(np.squeeze(m, axis=axis))

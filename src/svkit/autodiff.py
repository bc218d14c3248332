"""Minimal reverse-mode automatic differentiation over numpy arrays.

Eager tensors: every operation computes its value immediately and records it
through ``Tensor._op``, with its parents and one vector-Jacobian product (VJP)
per parent: the function that turns the output's gradient into that parent's.
``Tensor.backward()`` walks the recorded graph in reverse topological order
and, for each parent on a path to a ``requires_grad`` leaf, runs that parent's
VJP, sums the result down to the parent's shape where numpy broadcasting
widened it, and accumulates it into the parent's ``.grad``. A parent that
needs no gradient never has its VJP run. The walk frees the graph as it goes:
once a node's VJPs have run it drops its gradient, parents and VJPs, so only
leaves (tensors no op recorded, such as parameters) keep ``.grad``, and a
released graph cannot be backpropagated again.

The op set is deliberately small: elementwise arithmetic with numpy
broadcasting, 2-D matmul, reductions, a few nonlinearities, slicing,
concatenation, ``conv1d`` (a dilated temporal convolution with replicate
padding, the one temporal op) and ``frame_norm`` (per-frame normalization
across channels, with a closed-form backward). Everything higher-level is
composed from these.
"""

from __future__ import annotations

from operator import itemgetter

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, inverting numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def _same(g):
    return g


# the `_backward` of a node whose VJPs have run and whose graph `backward` has dropped
_RELEASED = object()


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")
    # an ndarray on the left of an operator defers to the Tensor's reflected op
    __array_ufunc__ = None
    __hash__ = object.__hash__

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data = arr
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
    def _op(data: np.ndarray, parents: tuple, vjps: tuple) -> "Tensor":
        """Record a node: its value and one VJP per parent. A node none of
        whose parents needs a gradient is a constant and records no graph."""
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = any(p.requires_grad for p in parents)
        if out.requires_grad:
            out._parents = parents
            out._backward = vjps
        else:
            out._parents = ()
            out._backward = None
        return out

    def backward(self):
        """Accumulate d(self)/d(leaf) into .grad of every reachable leaf, releasing the graph.

        Each interior node drops its gradient, parents and VJPs as soon as its
        VJPs have run, so only leaves (tensors no op recorded) keep `.grad`, and
        the graph's memory is freed during the walk rather than when the caller
        drops the loss. A released graph cannot be backpropagated again: a
        second `backward()` on the same loss, or on a loss that shares a
        released node, raises ValueError before any gradient changes.
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
            for parent, vjp in zip(node._parents, node._backward):
                if not parent.requires_grad:
                    continue
                grad = vjp(node.grad)
                if grad.shape != parent.data.shape:
                    grad = _unbroadcast(grad, parent.data.shape)
                if parent.grad is None:
                    # a fresh result is the parent's alone; a view, or the node's own gradient
                    # (from `_same`), still aliases another array and is copied
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
        return Tensor._op(a.data + b.data, (a, b), (_same, _same))

    __radd__ = __add__

    def __neg__(self):
        return Tensor._op(-self.data, (self,), (np.negative,))

    def __sub__(self, other):
        a, b = self, Tensor._coerce(other)
        return Tensor._op(a.data - b.data, (a, b), (_same, np.negative))

    def __rsub__(self, other):
        return Tensor._coerce(other) - self

    def __mul__(self, other):
        a, b = self, Tensor._coerce(other)
        return Tensor._op(a.data * b.data, (a, b), (lambda g: g * b.data, lambda g: g * a.data))

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self, Tensor._coerce(other)
        return Tensor._op(a.data / b.data, (a, b),
                          (lambda g: g / b.data, lambda g: -g * a.data / (b.data * b.data)))

    def __matmul__(self, other):
        a, b = self, Tensor._coerce(other)
        if a.data.ndim != 2 or b.data.ndim != 2:
            raise ValueError("matmul supports 2-D operands only")
        return Tensor._op(a.data @ b.data, (a, b), (lambda g: g @ b.data.T, lambda g: a.data.T @ g))

    # -- shapes ----------------------------------------------------------------

    def reshape(self, *shape):
        orig = self.data.shape
        return Tensor._op(self.data.reshape(shape), (self,), (lambda g: g.reshape(orig),))

    def transpose(self):
        if self.data.ndim != 2:
            raise ValueError("transpose supports 2-D tensors only")
        return Tensor._op(self.data.T.copy(), (self,), (np.transpose,))

    def __getitem__(self, key):
        # integer and slice keys only: `full[key] += g` would drop repeated array indices
        if any(isinstance(k, (list, np.ndarray)) for k in (key if isinstance(key, tuple) else (key,))):
            raise ValueError("indexing supports integers and slices only")
        a = self
        data = a.data[key]
        if np.isscalar(data) or data.ndim == 0:
            data = np.asarray(data).reshape(())

        def vjp(g):
            full = np.zeros_like(a.data)
            full[key] += g
            return full

        return Tensor._op(np.ascontiguousarray(data), (a,), (vjp,))

    # -- reductions --------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        shape = self.data.shape
        keep = keepdims or axis is None  # the gradient already broadcasts against `shape`
        return Tensor._op(np.asarray(self.data.sum(axis=axis, keepdims=keepdims)), (self,),
                          (lambda g: np.broadcast_to(g if keep else np.expand_dims(g, axis), shape),))

    def mean(self, axis=None, keepdims: bool = False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- nonlinearities --------------------------------------------------------

    def exp(self):
        data = np.exp(self.data)
        return Tensor._op(data, (self,), (lambda g: g * data,))

    def log(self):
        a = self
        return Tensor._op(np.log(a.data), (a,), (lambda g: g / a.data,))

    def sqrt(self):
        data = np.sqrt(self.data)
        return Tensor._op(data, (self,), (lambda g: g * 0.5 / data,))

    def tanh(self):
        data = np.tanh(self.data)
        return Tensor._op(data, (self,), (lambda g: g * (1.0 - data * data),))

    def sigmoid(self):
        z = np.exp(-np.abs(self.data))
        data = np.where(self.data >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
        return Tensor._op(data, (self,), (lambda g: g * data * (1.0 - data),))

    def relu(self):
        a = self
        return Tensor._op(np.maximum(a.data, 0.0), (a,), (lambda g: g * (a.data > 0),))

    def clip(self, lo=None, hi=None):
        mask = np.ones_like(self.data)
        if lo is not None:
            mask *= self.data >= lo
        if hi is not None:
            mask *= self.data <= hi
        return Tensor._op(np.clip(self.data, lo, hi), (self,), (lambda g: g * mask,))


def concat(tensors, axis: int = 0) -> Tensor:
    ts = tuple(Tensor._coerce(t) for t in tensors)
    data = np.concatenate([t.data for t in ts], axis=axis)
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in ts])
    vjps = []
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        idx = [slice(None)] * data.ndim
        idx[axis] = slice(lo, hi)
        vjps.append(itemgetter(tuple(idx)))  # bound now: each part reads its own slice
    return Tensor._op(data, ts, tuple(vjps))


def conv1d(x: Tensor, w: Tensor, b: Tensor, kernel: int, dilation: int = 1) -> Tensor:
    """Dilated temporal convolution of a (T, C) tensor: (T, C_out).

    `w` is (kernel * C, C_out), its rows tap-major, and `b` is (C_out,).
    Padding is replicate ('edge'): out-of-range taps read the first or last
    frame, so a time-constant input yields a time-constant output.
    """
    x, w, b = (Tensor._coerce(v) for v in (x, w, b))
    if x.data.ndim != 2:
        raise ValueError("conv1d expects a (T, C) tensor")
    t, c = x.data.shape
    offs = (np.arange(kernel) - kernel // 2) * dilation
    idx = np.clip(np.arange(t)[:, None] + offs[None, :], 0, t - 1)
    patches = x.data[idx].reshape(t, kernel * c)

    def vjp_x(g):
        gp = (g @ w.data.T).reshape(t, kernel, c)
        full = np.zeros_like(x.data)
        # An interior frame j (0 < j < t-1) is read unclipped, by tap k from frame j - offs[k].
        # Adding the taps in descending order sums those reads in the order `np.add.at`
        # over `idx` would (row-major, frame j - offs[k] ascending), so the result is the same bytes.
        for k in range(kernel - 1, -1, -1):
            o = offs[k]
            lo, hi = max(1, o), min(t - 1, t + o)
            if lo < hi:
                full[lo:hi] += gp[lo - o : hi - o, k]
        # the two edge frames also take every clipped read
        edge = (idx == 0) | (idx == t - 1)
        np.add.at(full, idx[edge], gp[edge])
        return full

    return Tensor._op(patches @ w.data + b.data, (x, w, b), (vjp_x, lambda g: patches.T @ g, _same))


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

    def vjp_x(gy):
        gx = gy * g.data
        return (gx - gx.sum(axis=1, keepdims=True) * inv_n
                - xhat * ((gx * xhat).sum(axis=1, keepdims=True) * inv_n)) / s

    return Tensor._op(y, (x, g, c),
                      (vjp_x, lambda gy: (gy * xhat).sum(axis=0), lambda gy: gy.sum(axis=0)))


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

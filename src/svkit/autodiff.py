"""Minimal reverse-mode automatic differentiation over numpy arrays.

Eager tensors: every operation computes its value immediately and records
a backward closure. ``Tensor.backward()`` walks the recorded graph in
reverse topological order and accumulates gradients into ``.grad`` of every
tensor on a path to a ``requires_grad`` leaf.

The op set is deliberately small: elementwise arithmetic with numpy
broadcasting, 2-D matmul, reductions, a few nonlinearities, slicing,
concatenation, and ``time_patches`` (the gather that backs dilated
temporal convolutions with replicate padding). Everything higher-level
is composed from these.
"""

from __future__ import annotations

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, inverting numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

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

    # -- graph plumbing ----------------------------------------------------

    @staticmethod
    def _child(data: np.ndarray, parents, backward) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = any(p.requires_grad for p in parents)
        if out.requires_grad:
            out._parents = tuple(parents)
            out._backward = backward
        else:
            out._parents = ()
            out._backward = None
        return out

    @staticmethod
    def _accum(parent: "Tensor", grad: np.ndarray):
        if not parent.requires_grad:
            return
        if parent.grad is None:
            parent.grad = grad.copy()
        else:
            parent.grad += grad

    def backward(self):
        """Accumulate d(self)/d(leaf) into .grad of every reachable tensor."""
        if self.data.size != 1:
            raise ValueError("backward() needs a scalar")

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
                topo.append(node)
                stack.pop()

        Tensor._accum(self, np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    def __add__(self, other):
        a, b = self, Tensor._coerce(other)
        data = a.data + b.data

        def back(g):
            Tensor._accum(a, _unbroadcast(g, a.data.shape))
            Tensor._accum(b, _unbroadcast(g, b.data.shape))

        return Tensor._child(data, (a, b), back)

    __radd__ = __add__

    def __neg__(self):
        a = self

        def back(g):
            Tensor._accum(a, -g)

        return Tensor._child(-a.data, (a,), back)

    def __sub__(self, other):
        return self + (-Tensor._coerce(other))

    def __rsub__(self, other):
        return Tensor._coerce(other) + (-self)

    def __mul__(self, other):
        a, b = self, Tensor._coerce(other)
        data = a.data * b.data

        def back(g):
            Tensor._accum(a, _unbroadcast(g * b.data, a.data.shape))
            Tensor._accum(b, _unbroadcast(g * a.data, b.data.shape))

        return Tensor._child(data, (a, b), back)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self, Tensor._coerce(other)
        data = a.data / b.data

        def back(g):
            Tensor._accum(a, _unbroadcast(g / b.data, a.data.shape))
            Tensor._accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

        return Tensor._child(data, (a, b), back)

    def __matmul__(self, other):
        a, b = self, Tensor._coerce(other)
        if a.data.ndim != 2 or b.data.ndim != 2:
            raise ValueError("matmul supports 2-D operands only")
        data = a.data @ b.data

        def back(g):
            Tensor._accum(a, g @ b.data.T)
            Tensor._accum(b, a.data.T @ g)

        return Tensor._child(data, (a, b), back)

    # -- shapes ----------------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        orig = a.data.shape
        data = a.data.reshape(shape)

        def back(g):
            Tensor._accum(a, g.reshape(orig))

        return Tensor._child(data, (a,), back)

    def transpose(self):
        a = self
        if a.data.ndim != 2:
            raise ValueError("transpose supports 2-D tensors only")

        def back(g):
            Tensor._accum(a, g.T)

        return Tensor._child(a.data.T.copy(), (a,), back)

    def __getitem__(self, key):
        # integer and slice keys only: `full[key] += g` would drop repeated array indices
        if any(isinstance(k, (list, np.ndarray)) for k in (key if isinstance(key, tuple) else (key,))):
            raise ValueError("indexing supports integers and slices only")
        a = self
        data = a.data[key]
        if np.isscalar(data) or data.ndim == 0:
            data = np.asarray(data).reshape(())

        def back(g):
            full = np.zeros_like(a.data)
            full[key] += g
            Tensor._accum(a, full)

        return Tensor._child(np.ascontiguousarray(data), (a,), back)

    # -- reductions --------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        a = self
        data = a.data.sum(axis=axis, keepdims=keepdims)

        def back(g):
            if axis is None:
                Tensor._accum(a, np.broadcast_to(g, a.data.shape).copy())
            else:
                gg = g if keepdims else np.expand_dims(g, axis)
                Tensor._accum(a, np.broadcast_to(gg, a.data.shape).copy())

        return Tensor._child(np.asarray(data), (a,), back)

    def mean(self, axis=None, keepdims: bool = False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- nonlinearities --------------------------------------------------------

    def exp(self):
        a = self
        data = np.exp(a.data)

        def back(g):
            Tensor._accum(a, g * data)

        return Tensor._child(data, (a,), back)

    def log(self):
        a = self

        def back(g):
            Tensor._accum(a, g / a.data)

        return Tensor._child(np.log(a.data), (a,), back)

    def sqrt(self):
        a = self
        data = np.sqrt(a.data)

        def back(g):
            Tensor._accum(a, g * 0.5 / data)

        return Tensor._child(data, (a,), back)

    def tanh(self):
        a = self
        data = np.tanh(a.data)

        def back(g):
            Tensor._accum(a, g * (1.0 - data * data))

        return Tensor._child(data, (a,), back)

    def sigmoid(self):
        a = self
        z = np.exp(-np.abs(a.data))
        data = np.where(a.data >= 0, 1.0 / (1.0 + z), z / (1.0 + z))

        def back(g):
            Tensor._accum(a, g * data * (1.0 - data))

        return Tensor._child(data, (a,), back)

    def relu(self):
        a = self
        data = np.maximum(a.data, 0.0)

        def back(g):
            Tensor._accum(a, g * (a.data > 0))

        return Tensor._child(data, (a,), back)

    def clip(self, lo=None, hi=None):
        a = self
        data = np.clip(a.data, lo, hi)
        mask = np.ones_like(a.data)
        if lo is not None:
            mask *= a.data >= lo
        if hi is not None:
            mask *= a.data <= hi

        def back(g):
            Tensor._accum(a, g * mask)

        return Tensor._child(data, (a,), back)


def concat(tensors, axis: int = 0) -> Tensor:
    ts = [Tensor._coerce(t) for t in tensors]
    data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def back(g):
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            Tensor._accum(t, g[tuple(idx)])

    return Tensor._child(data, ts, back)


def stack_rows(tensors) -> Tensor:
    """Stack 1-D tensors of equal length into a (len, n) matrix."""
    return concat([t.reshape(1, -1) for t in tensors], axis=0)


def time_patches(x: Tensor, width: int, dilation: int = 1) -> Tensor:
    """Gather (T, width, C) dilated temporal patches from a (T, C) tensor.

    Padding is replicate ('edge'): out-of-range taps read the first or last
    frame, so a time-constant input yields time-constant patches.
    """
    a = Tensor._coerce(x)
    if a.data.ndim != 2:
        raise ValueError("time_patches expects a (T, C) tensor")
    t = a.data.shape[0]
    offs = (np.arange(width) - width // 2) * dilation
    idx = np.clip(np.arange(t)[:, None] + offs[None, :], 0, t - 1)
    data = a.data[idx]

    def back(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        Tensor._accum(a, full)

    return Tensor._child(data, (a,), back)


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

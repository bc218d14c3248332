"""Learnable weighted average over upstream layers.

Weights live as free logits; one softmax (`autodiff._softmax`) gives the weights
the mix uses and export writes, so they always sum to one.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .binfile import write_lines
from .errors import DataError


def normalized_weights(logits) -> np.ndarray:
    """Softmax of the weight logits: the weights `aggregate_graph` mixes the layers with."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise DataError("weight logits contain non-finite values")
    return np.divide(*ad._softmax(logits))


def aggregate(layers, logits) -> np.ndarray:
    """(T, D) mix of the layers at constant logits: `aggregate_graph`'s value."""
    return aggregate_graph(layers, ad.Tensor(logits)).data


MIX_BLOCK_BYTES = 16 << 20  # the float64 frames the mix casts at a time


def aggregate_graph(layers, logits: ad.Tensor) -> ad.Tensor:
    """The (T, D) softmax(logits)-weighted sum of a list of L+1 (T, D) layers, as one node on the logits.

    A layer is a constant array (a stored float32 layer, or a float64 planted one) or, while the upstream
    is fine-tuned, a tensor; gradients flow to the logits and each tensor. At most MIX_BLOCK_BYTES of float64
    frames are cast and mixed at a time, each output entry the same product of the same column as in the
    whole (L+1, T*D) matrix, so the values are that matrix's to the byte; the logits' VJP keeps the blocks.
    """
    z, s = ad._softmax(logits.data)
    w = z / s
    arrays = [h.data if isinstance(h, ad.Tensor) else h for h in layers]
    n, (t, d) = len(arrays), arrays[0].shape
    tuned = [l for l, h in enumerate(layers) if isinstance(h, ad.Tensor)]
    out, kept = np.empty((t, d)), []
    step = max(1, MIX_BLOCK_BYTES // (8 * n * d))
    for lo in range(0, t, step):
        block = np.stack([h[lo : lo + step] for h in arrays], dtype=np.float64).reshape(n, -1)
        np.matmul(w, block, out=out[lo : lo + step].reshape(-1))
        if logits.requires_grad:
            kept.append((lo, block))

    def vjp(g):  # each kept block's weight gradient, summed from -0.0 (from 0, a -0.0 would become 0.0),
        # then the composed softmax's backward: the division's, the sum's and the exp's ops in their order
        gw = sum(((g[lo : lo + step].reshape(1, -1) @ block.T).ravel() for lo, block in kept), -0.0)
        gl = (gw / s + (-gw * z / (s * s)).sum(axis=0, keepdims=True)) * z if kept else None
        return (gl, *(w[l] * g for l in tuned))

    return ad.Tensor._op(out, (logits, *(layers[l] for l in tuned)), vjp)


def export_weights(weights) -> list:
    """Rows of (layer_i, normalized-weight-to-6-decimals), layer 0 first."""
    return [(f"layer_{i}", f"{val:.6f}") for i, val in enumerate(np.asarray(weights, dtype=np.float64))]


def write_weights_csv(path, weights):
    write_lines(path, ["layer,weight"] + [f"{lab},{val}" for lab, val in export_weights(weights)])

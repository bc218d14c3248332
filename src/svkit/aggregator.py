"""Learnable weighted average over upstream layers.

Weights live as free logits; the simplex constraint is enforced by a softmax,
so the normalized weights always sum to one during training and export.
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
    return ad.softmax(ad.Tensor(logits)).data


def aggregate(layers, logits) -> np.ndarray:
    """(T, D) mix of the layers at constant logits: `aggregate_graph`'s value."""
    return aggregate_graph(layers, ad.Tensor(logits)).data


MIX_BLOCK_BYTES = 16 << 20  # the float64 frames a mix with no gradient casts at a time


def aggregate_graph(layers, logits: ad.Tensor) -> ad.Tensor:
    """The (T, D) softmax(logits)-weighted sum of a list of L+1 (T, D) layers, as one node.

    A layer is a constant array (a stored float32 layer, or a float64 planted one) or, while the upstream
    is fine-tuned, a tensor. With a gradient to compute they are stacked once in float64, the matrix the
    logits' VJP reads; gradients flow to the logits and each tensor. With none (embed), at most
    MIX_BLOCK_BYTES of float64 frames are cast and mixed at a time: each output entry is the same product
    of the same column, so the values are those of the whole matrix to the byte.
    """
    w = ad.softmax(logits)
    arrays = [h.data if isinstance(h, ad.Tensor) else h for h in layers]
    n, (t, d) = len(arrays), arrays[0].shape
    tuned = [l for l, h in enumerate(layers) if isinstance(h, ad.Tensor)]
    parents = (w, *(layers[l] for l in tuned))
    if not any(p.requires_grad for p in parents):
        out = np.empty((t, d))
        step = max(1, MIX_BLOCK_BYTES // (8 * n * d))
        for lo in range(0, t, step):
            block = np.stack([h[lo : lo + step] for h in arrays], dtype=np.float64)
            np.matmul(w.data, block.reshape(n, -1), out=out[lo : lo + step].reshape(-1))
        return ad.Tensor(out)
    flat = np.stack(arrays, dtype=np.float64).reshape(n, t * d)
    return ad.Tensor._op((w.data @ flat).reshape(t, d), parents,
                         lambda g: ((g.reshape(1, -1) @ flat.T).ravel(), *(w.data[l] * g for l in tuned)))


def export_weights(weights) -> list:
    """Rows of (layer_i, normalized-weight-to-6-decimals), layer 0 first."""
    return [(f"layer_{i}", f"{val:.6f}") for i, val in enumerate(np.asarray(weights, dtype=np.float64))]


def write_weights_csv(path, weights):
    write_lines(path, ["layer,weight"] + [f"{lab},{val}" for lab, val in export_weights(weights)])

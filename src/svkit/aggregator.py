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


def aggregate_graph(layers, logits: ad.Tensor) -> ad.Tensor:
    """The (T, D) softmax(logits)-weighted sum of a list of L+1 (T, D) layers, as one node.

    A layer is a constant array (a stored float32 layer, or a float64 planted one) or, while the upstream
    is fine-tuned, a tensor. They are stacked once in float64; gradients flow to the logits and each tensor.
    """
    w = ad.softmax(logits)
    flat = np.stack([h.data if isinstance(h, ad.Tensor) else h for h in layers], dtype=np.float64)
    n, t, d = flat.shape
    flat = flat.reshape(n, t * d)
    tuned = [l for l, h in enumerate(layers) if isinstance(h, ad.Tensor)]
    return ad.Tensor._op((w.data @ flat).reshape(t, d), (w, *(layers[l] for l in tuned)),
                         lambda g: ((g.reshape(1, -1) @ flat.T).ravel(), *(w.data[l] * g for l in tuned)))


def export_weights(weights) -> list:
    """Rows of (layer_i, normalized-weight-to-6-decimals), layer 0 first."""
    return [(f"layer_{i}", f"{val:.6f}") for i, val in enumerate(np.asarray(weights, dtype=np.float64))]


def write_weights_csv(path, weights):
    write_lines(path, ["layer,weight"] + [f"{lab},{val}" for lab, val in export_weights(weights)])

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
    """Softmax of the weight logits."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise DataError("weight logits contain non-finite values")
    z = np.exp(logits - np.max(logits))
    return z / z.sum()


def aggregate(layers: np.ndarray, weights) -> np.ndarray:
    """(T, D) weighted sum of a float64 (L+1, T, D) stack; bit-equal to `aggregate_graph`."""
    weights = np.asarray(weights, dtype=np.float64)
    n = layers.shape[0]
    if weights.shape != (n,):
        raise DataError(f"expected {n} layer weights, got shape {weights.shape}")
    return np.tensordot(weights, layers, axes=(0, 0))


def aggregate_graph(layers, logits: ad.Tensor) -> ad.Tensor:
    """Differentiable aggregation of a sequence of (T, D) layers.

    The layers are constant arrays (a float64 (L+1, T, D) stack iterates as
    its layers) or, while the upstream is fine-tuned, tensors. Gradients flow
    to the logits and to any layer tensor; constant rows record no graph.
    """
    w = ad.softmax(logits.reshape(1, -1), axis=1)
    t, d = layers[0].shape
    flat = ad.concat(layers).reshape(len(layers), t * d)
    return (w @ flat).reshape(t, d)


def export_weights(weights) -> list:
    """Rows of (layer_i, normalized-weight-to-6-decimals), layer 0 first."""
    return [(f"layer_{i}", f"{val:.6f}") for i, val in enumerate(np.asarray(weights, dtype=np.float64))]


def write_weights_csv(path, weights):
    write_lines(path, ["layer,weight"] + [f"{lab},{val}" for lab, val in export_weights(weights)])

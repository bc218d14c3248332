"""ECAPA-TDNN speaker embedding network.

Frame encoder (stem conv + three SE-Res2 blocks with dilations 2/3/4),
multi-layer feature aggregation (channel concat + 1x1 conv), attentive
statistics pooling, and an affine projection to the embedding space.

Design notes that differ from typical GPU recipes, chosen for determinism
and batch-size independence:
  * normalization is per-frame across channels (layer-norm style), never
    across the batch, and sits after the SE gate in each block so the gate
    pools raw conv statistics;
  * convolution padding is replicate ('edge'), so a time-constant input
    stays time-constant through every block;
  * attention in the pooling layer is a single distribution over time
    shared by all channels.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .binfile import Reader
from .errors import ConfigError, DataError, FormatError
from .rng import child_rng

# frame norm's eps: its per-frame statistics are batch-independent and, unlike centering
# over time, keep time-constant speaker information alive on its way to the pooling layer
_NORM_EPS = 1e-5
_STD_EPS = 1e-8


@dataclass(frozen=True)
class EcapaConfig:
    in_dim: int = 64
    channels: int = 512
    res2_scale: int = 8
    dilations: tuple = (2, 3, 4)
    se_bottleneck: int = 128
    attention_channels: int = 128
    embed_dim: int = 192

    def __post_init__(self):
        if self.channels % self.res2_scale != 0:
            raise ConfigError("ecapa.channels must be divisible by res2_scale")
        if len(self.dilations) != 3:
            raise ConfigError("ecapa.dilations must list exactly three dilations")
        if min(self.in_dim, self.embed_dim, self.se_bottleneck, self.attention_channels) < 1:
            raise ConfigError("ecapa dimensions must be >= 1")
        object.__setattr__(self, "dilations", tuple(int(d) for d in self.dilations))

    @property
    def cat_dim(self) -> int:
        """Width after concatenating the three block outputs."""
        return 3 * self.channels


def param_shapes(cfg: EcapaConfig) -> dict:
    """Shapes of every trainable tensor, in initialization order."""
    c, f, e = cfg.channels, cfg.in_dim, cfg.embed_dim
    w = c // cfg.res2_scale
    shapes = {
        "stem.w": (5 * f, c),
        "stem.b": (c,),
        "stem.norm.g": (c,),
        "stem.norm.c": (c,),
    }
    for i in range(3):
        blk = f"block{i}"
        shapes[f"{blk}.conv1.w"] = (c, c)
        shapes[f"{blk}.conv1.b"] = (c,)
        shapes[f"{blk}.norm1.g"] = (c,)
        shapes[f"{blk}.norm1.c"] = (c,)
        for j in range(1, cfg.res2_scale):
            shapes[f"{blk}.res2.conv{j}.w"] = (3 * w, w)
            shapes[f"{blk}.res2.conv{j}.b"] = (w,)
        shapes[f"{blk}.norm2.g"] = (c,)
        shapes[f"{blk}.norm2.c"] = (c,)
        shapes[f"{blk}.conv2.w"] = (c, c)
        shapes[f"{blk}.conv2.b"] = (c,)
        shapes[f"{blk}.norm3.g"] = (c,)
        shapes[f"{blk}.norm3.c"] = (c,)
        shapes[f"{blk}.se.w1"] = (c, cfg.se_bottleneck)
        shapes[f"{blk}.se.b1"] = (cfg.se_bottleneck,)
        shapes[f"{blk}.se.w2"] = (cfg.se_bottleneck, c)
        shapes[f"{blk}.se.b2"] = (c,)
    cat = cfg.cat_dim
    shapes["mfa.w"] = (cat, cat)
    shapes["mfa.b"] = (cat,)
    shapes["asp.w"] = (cat, cfg.attention_channels)
    shapes["asp.b"] = (cfg.attention_channels,)
    shapes["asp.v"] = (cfg.attention_channels,)
    shapes["fc.w"] = (2 * cat, e)
    shapes["fc.b"] = (e,)
    return shapes


def count_params(cfg: EcapaConfig) -> int:
    return sum(int(np.prod(s)) for s in param_shapes(cfg).values())


def init_params(cfg: EcapaConfig, seed: int = 0, trainable: bool = True) -> dict:
    """Seeded He/Xavier-style initialization; norm scales 1, shifts 0, biases 0."""
    rng = child_rng(seed, "ecapa-init")
    params = {}
    for name, shape in param_shapes(cfg).items():
        if name.endswith(".g"):
            data = np.ones(shape)
        elif name.endswith((".b", ".c", ".b1", ".b2")):
            data = np.zeros(shape)
        else:
            data = rng.normal(0.0, np.sqrt(2.0 / shape[0]), shape)
        params[name] = Tensor(data, requires_grad=trainable)
    return params


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------


def se_gate(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Squeeze-excitation: sigmoid-gated channel rescaling from time-mean statistics."""
    s = x.mean(axis=0, keepdims=True)
    s = ((s @ w1 + b1).relu() @ w2 + b2).sigmoid()
    return x * s


def _res2(x: Tensor, params: dict, prefix: str, scale: int, dilation: int) -> Tensor:
    c = x.shape[1]
    w = c // scale
    groups = [x[:, i * w : (i + 1) * w] for i in range(scale)]
    outs = [groups[0]]
    for i in range(1, scale):
        h = groups[i] + outs[i - 1]
        outs.append(ad.conv1d(h, params[f"{prefix}.conv{i}.w"], params[f"{prefix}.conv{i}.b"], 3, dilation))
    return ad.concat(outs, axis=1)


def se_res2_block(x: Tensor, params: dict, prefix: str, cfg: EcapaConfig, dilation: int) -> Tensor:
    h = ad.frame_norm(
        (x @ params[f"{prefix}.conv1.w"] + params[f"{prefix}.conv1.b"]).relu(),
        params[f"{prefix}.norm1.g"],
        params[f"{prefix}.norm1.c"],
        _NORM_EPS,
    )
    h = ad.frame_norm(
        _res2(h, params, f"{prefix}.res2", cfg.res2_scale, dilation).relu(),
        params[f"{prefix}.norm2.g"],
        params[f"{prefix}.norm2.c"],
        _NORM_EPS,
    )
    # SE pools the raw conv output: the time norm would zero every channel
    # mean and leave the gate blind to the utterance, so it comes after.
    h = (h @ params[f"{prefix}.conv2.w"] + params[f"{prefix}.conv2.b"]).relu()
    h = se_gate(
        h,
        params[f"{prefix}.se.w1"],
        params[f"{prefix}.se.b1"],
        params[f"{prefix}.se.w2"],
        params[f"{prefix}.se.b2"],
    )
    h = ad.frame_norm(h, params[f"{prefix}.norm3.g"], params[f"{prefix}.norm3.c"], _NORM_EPS)
    return x + h


def attentive_stats_pool(x: Tensor, w: Tensor, b: Tensor, v: Tensor) -> Tensor:
    """Attention-weighted mean and std over time: (T, C) -> (2C,)."""
    scores = (x @ w + b).tanh() @ v.reshape(-1, 1)
    alpha = ad.softmax(scores, axis=0)
    mu = (x * alpha).sum(axis=0)
    ex2 = (x * x * alpha).sum(axis=0)
    sigma = (ex2 - mu * mu).clip(_STD_EPS, None).sqrt()
    return ad.concat([mu, sigma], axis=0)


def forward(features, params: dict, cfg: EcapaConfig) -> Tensor:
    """Embed a (T, F) feature matrix (array or tensor) into an (E,) tensor."""
    x = features if isinstance(features, Tensor) else Tensor(np.asarray(features, dtype=np.float64))
    if x.shape[1] != cfg.in_dim:
        raise ConfigError(f"feature dim {x.shape[1]} does not match ecapa.in_dim {cfg.in_dim}")
    x = ad.frame_norm(
        ad.conv1d(x, params["stem.w"], params["stem.b"], 5).relu(),
        params["stem.norm.g"],
        params["stem.norm.c"],
        _NORM_EPS,
    )
    b0 = se_res2_block(x, params, "block0", cfg, cfg.dilations[0])
    b1 = se_res2_block(b0, params, "block1", cfg, cfg.dilations[1])
    b2 = se_res2_block(b1, params, "block2", cfg, cfg.dilations[2])
    cat = ad.concat([b0, b1, b2], axis=1)
    h = (cat @ params["mfa.w"] + params["mfa.b"]).relu()
    pooled = attentive_stats_pool(h, params["asp.w"], params["asp.b"], params["asp.v"])
    emb = pooled.reshape(1, -1) @ params["fc.w"] + params["fc.b"]
    return emb.reshape(-1)


def embed(features, params: dict, cfg: EcapaConfig) -> np.ndarray:
    """Inference-only forward returning a plain float64 vector."""
    return forward(features, params, cfg).data.copy()


# ---------------------------------------------------------------------------
# Checkpoints (SVCK): named float32 tensors
# ---------------------------------------------------------------------------

_SVCK_MAGIC = b"SVCK"


def save_checkpoint(tensors: dict, path):
    """Write named tensors sorted by name: SVCK, version, then records.

    A tensor that is not finite in float32 is a DataError, and nothing is written.
    """
    out = [_SVCK_MAGIC, struct.pack("<I", 1)]
    for name in sorted(tensors):
        data = tensors[name]
        with np.errstate(over="ignore"):  # an overflow is a non-finite tensor, refused below
            arr = np.asarray(data.data if isinstance(data, Tensor) else data, dtype="<f4")
        if not np.isfinite(arr).all():  # load_checkpoint would reject the file
            raise DataError(f"tensor {name} is not finite in float32; no checkpoint written")
        enc = name.encode("utf-8")
        if len(enc) > 0xFFFF:
            raise FormatError(f"tensor name too long: {name}")
        if arr.ndim > 0xFF or any(d > 2**32 - 1 for d in arr.shape):
            raise FormatError(f"tensor rank/dims overflow header fields: {name}")
        out.append(struct.pack("<H", len(enc)))
        out.append(enc)
        out.append(struct.pack("<B", arr.ndim))
        out.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        out.append(arr.tobytes())
    Path(path).write_bytes(b"".join(out))


def load_checkpoint(path) -> dict:
    r = Reader(path)
    r.header(_SVCK_MAGIC, "SVCK checkpoint")
    names, chunks, tensors = [], [], {}
    while r.remaining:
        name = r.text("tensor name")
        (rank,) = r.unpack("B", f"rank of {name}")
        dims = r.unpack(f"{rank}I", f"dims of {name}")
        names.append(name)
        chunks.append(r.take(4 * math.prod(dims), f"payload of {name}"))
        try:
            tensors[name] = np.frombuffer(chunks[-1], dtype="<f4").reshape(dims).copy()
        except ValueError as exc:
            raise r.error(f"bad shape {dims} for {name}: {exc}") from None
    r.unique(names, "tensor name")
    r.float32(chunks, "tensor payload")
    return tensors

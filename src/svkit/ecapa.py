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
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .binfile import Reader, Writer
from .errors import ConfigError
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
        for key in ("in_dim", "channels", "res2_scale", "embed_dim", "se_bottleneck", "attention_channels"):
            if getattr(self, key) < 1:
                raise ConfigError(f"ecapa.{key} must be >= 1, got {getattr(self, key)}")
        if self.channels % self.res2_scale != 0:
            raise ConfigError("ecapa.channels must be a multiple of ecapa.res2_scale, "
                              f"got {self.channels} and {self.res2_scale}")
        if len(self.dilations) != 3 or min(self.dilations) < 1:
            raise ConfigError(f"ecapa.dilations must list exactly three dilations, each >= 1, got {self.dilations}")
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
    s = ad.linear(ad.linear(s, w1, b1, relu=True), w2, b2).sigmoid()
    return x * s


def se_res2_block(x: Tensor, params: dict, prefix: str, cfg: EcapaConfig, dilation: int) -> Tensor:
    convs = range(1, cfg.res2_scale)
    h = ad.frame_norm(
        ad.linear(x, params[f"{prefix}.conv1.w"], params[f"{prefix}.conv1.b"], relu=True),
        params[f"{prefix}.norm1.g"],
        params[f"{prefix}.norm1.c"],
        _NORM_EPS,
    )
    h = ad.frame_norm(
        ad.res2(h, [params[f"{prefix}.res2.conv{j}.w"] for j in convs],
                [params[f"{prefix}.res2.conv{j}.b"] for j in convs], dilation).relu(),
        params[f"{prefix}.norm2.g"],
        params[f"{prefix}.norm2.c"],
        _NORM_EPS,
    )
    # SE pools the raw conv output: the time norm would zero every channel
    # mean and leave the gate blind to the utterance, so it comes after.
    h = ad.linear(h, params[f"{prefix}.conv2.w"], params[f"{prefix}.conv2.b"], relu=True)
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
    scores = ad.linear(x, w, b).tanh() @ v.reshape(-1, 1)
    alpha = ad.softmax(scores, axis=0)
    mu = (x * alpha).sum(axis=0)
    ex2 = (x * x * alpha).sum(axis=0)
    sigma = (ex2 - mu * mu).clip(_STD_EPS, None).sqrt()
    return ad.concat([mu, sigma], axis=0)


def forward(features, params: dict, cfg: EcapaConfig) -> Tensor:
    """Embed a (T, F) feature matrix (array or tensor) into an (E,) tensor."""
    if features.shape[1] != cfg.in_dim:
        raise ConfigError(f"feature dim {features.shape[1]} does not match ecapa.in_dim {cfg.in_dim}")
    x = ad.frame_norm(
        ad.conv1d(features, params["stem.w"], params["stem.b"], 5, relu=True),
        params["stem.norm.g"],
        params["stem.norm.c"],
        _NORM_EPS,
    )
    b0 = se_res2_block(x, params, "block0", cfg, cfg.dilations[0])
    b1 = se_res2_block(b0, params, "block1", cfg, cfg.dilations[1])
    b2 = se_res2_block(b1, params, "block2", cfg, cfg.dilations[2])
    cat = ad.concat([b0, b1, b2], axis=1)
    h = ad.linear(cat, params["mfa.w"], params["mfa.b"], relu=True)
    pooled = attentive_stats_pool(h, params["asp.w"], params["asp.b"], params["asp.v"])
    return ad.linear(pooled.reshape(1, -1), params["fc.w"], params["fc.b"]).reshape(-1)


def embed(features, params: dict, cfg: EcapaConfig) -> np.ndarray:
    """Inference-only forward returning a plain float64 vector."""
    return forward(features, params, cfg).data.copy()


# ---------------------------------------------------------------------------
# Checkpoints (SVCK): named float32 tensors
# ---------------------------------------------------------------------------

_SVCK_MAGIC = b"SVCK"


def float32_tensors(tensors: dict) -> dict:
    """Named tensors or arrays as the float32 arrays SVCK stores, sorted by name; a non-finite one is a DataError."""
    w = Writer(_SVCK_MAGIC, "checkpoint")
    return {k: w.float32(v.data if isinstance(v, Tensor) else v, [f"tensor {k}"]) for k, v in sorted(tensors.items())}


def save_checkpoint(tensors: dict, path):
    """Write named tensors sorted by name: SVCK, version, then records; nothing if one is not finite in float32."""
    w = Writer(_SVCK_MAGIC, "checkpoint")
    for name, arr in float32_tensors(tensors).items():
        w.text(name, "tensor name")
        w.pack(f"B{arr.ndim}I", arr.ndim, *arr.shape, what=f"rank/dims of tensor {name}")
        w.array(arr)
    w.save(path)


def load_checkpoint(path) -> dict:
    r = Reader(path)
    r.header(_SVCK_MAGIC, "SVCK checkpoint")
    names, tensors = [], {}
    while r.remaining:
        name = r.text("tensor name")
        (rank,) = r.unpack("B", f"rank of {name}")
        dims = r.unpack(f"{rank}I", f"dims of {name}")
        names.append(name)
        values = r.float32([r.take(4 * math.prod(dims), f"payload of {name}")], [f"tensor {name}"])
        try:
            tensors[name] = values.reshape(dims).copy()
        except ValueError as exc:
            raise r.error(f"bad shape {dims} for {name}: {exc}") from None
    r.unique(names, "tensor name")
    return tensors

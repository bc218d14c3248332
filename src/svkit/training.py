"""AAM-softmax training with the two-stage freeze/fine-tune schedule.

Stage 1 trains the layer-weight logits, the ECAPA encoder and the class
anchors with the upstream frozen. Stage 2 additionally fine-tunes the mock
upstream (imported stacks stay frozen by construction). The final stage
repeats stage 2 with a larger margin and longer crops.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from . import ecapa as ecapa_mod
from . import scoring
from .aggregator import aggregate_graph
from .audio import SAMPLE_RATE, AugmentBanks, AugmentConfig, Waveform, augment, read_wav
from .ecapa import EcapaConfig
from .errors import ConfigError, DataError
from .rng import child_rng
from .upstream import (
    Manifest,
    MockUpstream,
    MockUpstreamConfig,
    PlantSpec,
    check_row_stack,
    is_stack_file,
    load_stack,
    plant_speaker_info,
)

logger = logging.getLogger(__name__)


def check_aam(margin_key: str, margin: float, scale: float = 1.0):
    """Raise ConfigError unless 0 <= margin < pi/2 and scale > 0."""
    if not 0.0 <= margin < math.pi / 2:
        raise ConfigError(f"{margin_key} must lie in [0, pi/2)")
    if not scale > 0:
        raise ConfigError("aam.scale must be positive")


@dataclass(frozen=True)
class AamConfig:
    """The `aam` config section; the class count is the number of anchors."""

    margin: float = 0.2
    scale: float = 30.0

    def __post_init__(self):
        check_aam("aam.margin", self.margin, self.scale)


@dataclass(frozen=True)
class TrainSchedule:
    stage1_epochs: int = 10
    stage2_epochs: int = 5
    lmft_epochs: int = 2
    crop_seconds: float = 3.0
    lmft_crop_seconds: float = 6.0
    lmft_margin: float = 0.5
    batch_size: int = 32
    lr_stage1: float = 1e-3
    lr_stage2: float = 1e-4
    lr_lmft: float = 1e-4

    def __post_init__(self):
        if min(self.stage1_epochs, self.stage2_epochs, self.lmft_epochs) < 0:
            raise ConfigError("epoch counts must be >= 0")
        for key in ("crop_seconds", "lmft_crop_seconds"):
            if not 0.0 < getattr(self, key) < math.inf:
                raise ConfigError(f"schedule.{key} must be finite and > 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        check_aam("schedule.lmft_margin", self.lmft_margin)
        for key in ("lr_stage1", "lr_stage2", "lr_lmft"):
            if not 0.0 < getattr(self, key) < math.inf:
                raise ConfigError(f"schedule.{key} must be finite and > 0")


@dataclass
class TrainResult:
    ecapa: dict
    agg_logits: np.ndarray
    anchors: np.ndarray
    upstream: dict
    speakers: list
    log: list
    notices: list

    def checkpoint_tensors(self) -> dict:
        out = {f"ecapa.{k}": v for k, v in self.ecapa.items()}
        out["agg.logits"] = self.agg_logits
        out["aam.anchors"] = self.anchors
        for k, v in self.upstream.items():
            out[f"upstream.{k}"] = v
        return out


# ---------------------------------------------------------------------------
# AAM-softmax loss
# ---------------------------------------------------------------------------


def aam_loss(embeddings: Tensor, labels, anchors: Tensor, cfg: AamConfig) -> Tensor:
    """Additive angular margin softmax cross-entropy.

    Cosine logits between unit embeddings and unit anchors; the target
    class logit becomes s*cos(theta + m), with the monotonic fallback
    s*(cos(theta) - m*sin(m)) once theta + m would pass pi.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != embeddings.shape[0]:
        raise DataError("labels must align with the embedding batch")
    b, n_classes = embeddings.shape[0], anchors.shape[0]
    if labels.min() < 0 or labels.max() >= n_classes:
        raise DataError(f"label out of range [0, {n_classes})")

    e_norms = np.sqrt((embeddings.data**2).sum(axis=1))
    if np.any(e_norms == 0):
        raise DataError("zero-norm embedding in batch")
    e_unit = embeddings / (embeddings * embeddings).sum(axis=1, keepdims=True).sqrt()
    a_unit = anchors / (anchors * anchors).sum(axis=1, keepdims=True).sqrt()

    cos = (e_unit @ a_unit.transpose()).clip(-1.0 + 1e-7, 1.0 - 1e-7)
    onehot = np.zeros((b, n_classes))
    onehot[np.arange(b), labels] = 1.0
    oh = Tensor(onehot)

    cos_t = (cos * oh).sum(axis=1, keepdims=True)
    sin_t = (1.0 - cos_t * cos_t).sqrt()
    phi = cos_t * math.cos(cfg.margin) - sin_t * math.sin(cfg.margin)
    fallback = cos_t - cfg.margin * math.sin(cfg.margin)
    use_phi = Tensor((cos_t.data > math.cos(math.pi - cfg.margin)).astype(np.float64))
    target = use_phi * phi + (1.0 - use_phi) * fallback

    logits = (cos + oh * (target - cos_t)) * cfg.scale
    lse = ad.logsumexp(logits, axis=1)
    picked = (logits * oh).sum(axis=1)
    return (lse - picked).mean()


# ---------------------------------------------------------------------------
# Batching
# ---------------------------------------------------------------------------


def crop_random(wav: Waveform, seconds: float, rng: np.random.Generator) -> Waveform:
    """Uniform-random contiguous crop; shorter utterances are tiled to length."""
    target = int(round(seconds * SAMPLE_RATE))
    if target < 1:
        raise DataError("crop length must be at least one sample")
    n = len(wav)
    if n < target:
        reps = -(-target // n)
        return Waveform(np.tile(wav.samples, reps)[:target])
    offset = int(rng.integers(0, n - target + 1))
    return Waveform(wav.samples[offset : offset + target])


class Adam:
    """Adaptive-moment gradient descent over a fixed list of tensors."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params, lr: float):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        self.t += 1
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            self.m[i] = self.BETA1 * self.m[i] + (1 - self.BETA1) * g
            self.v[i] = self.BETA2 * self.v[i] + (1 - self.BETA2) * g * g
            m_hat = self.m[i] / (1 - self.BETA1**self.t)
            v_hat = self.v[i] / (1 - self.BETA2**self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def train(
    manifest: Manifest,
    schedule: TrainSchedule,
    *,
    upstream_cfg: MockUpstreamConfig,
    ecapa_cfg: EcapaConfig,
    aam: AamConfig = AamConfig(),
    augment_cfg: AugmentConfig = AugmentConfig(),
    banks: AugmentBanks = AugmentBanks(),
    plant: PlantSpec | None = None,
    seed: int = 0,
) -> TrainResult:
    """Run the staged training pipeline on a manifest.

    A `.svhs` row is an imported layer stack, used whole (no crop or
    augmentation) and frozen in every stage. Every other row is a WAV that is
    cropped, augmented from `banks` (empty banks add nothing), and run through
    the seeded mock upstream. With no WAV row there is no upstream to tune:
    stages 2 and 3 each log a notice and the result exports no upstream
    tensors. A non-finite loss, or a non-finite parameter after an optimizer
    step, is a DataError that names the stage, epoch and batch.
    """
    speakers = manifest.speakers
    if len(speakers) < 2:
        raise DataError("training requires at least two speakers in the manifest")
    spk_index = {s: i for i, s in enumerate(speakers)}
    if ecapa_cfg.in_dim != upstream_cfg.dim:
        raise ConfigError("ecapa.in_dim must equal the upstream dim")

    upstream = MockUpstream(upstream_cfg)
    logits = Tensor(np.zeros(upstream_cfg.n_layers + 1), requires_grad=True)
    params = ecapa_mod.init_params(ecapa_cfg, seed=seed)
    anchors = Tensor(
        child_rng(seed, "aam-anchors").normal(0.0, 1.0, (len(speakers), ecapa_cfg.embed_dim)),
        requires_grad=True,
    )
    rng_order = child_rng(seed, "batch-order")
    rng_crop = child_rng(seed, "crop")
    rng_aug = child_rng(seed, "augment")

    def features(row, crop_s: float, tune_upstream: bool) -> Tensor:
        """Aggregated (T, D) features for one training utterance.

        Stored float32 layers become float64 once, before the plant: the frozen
        stages compute `pipeline.System`'s features bit for bit. Fine-tuning
        keeps the upstream's float64 graph instead, so that gradients reach it.
        """
        path = manifest.resolve(row)
        if is_stack_file(path):
            layers = load_stack(path).layers.astype(np.float64)
            check_row_stack(layers, manifest, row, logits.data.size, upstream_cfg.dim)
        else:
            wav = augment(crop_random(read_wav(path), crop_s, rng_crop), banks, augment_cfg, rng_aug)
            if tune_upstream:
                layers = upstream.forward_graph(Tensor(wav.samples))
            else:
                layers = upstream.stack(wav, f"{row.utt_id} ({path})").layers.astype(np.float64)
        if plant is not None:
            plant_speaker_info(layers, row.speaker_id, plant)
        return aggregate_graph(layers, logits)

    rows = list(manifest.rows)
    has_wav = not all(is_stack_file(row.path) for row in rows)
    stages = [
        (1, schedule.stage1_epochs, schedule.lr_stage1, aam, schedule.crop_seconds, False),
        (2, schedule.stage2_epochs, schedule.lr_stage2, aam, schedule.crop_seconds, has_wav),
        (3, schedule.lmft_epochs, schedule.lr_lmft, replace(aam, margin=schedule.lmft_margin),
         schedule.lmft_crop_seconds, has_wav),
    ]
    log, notices = [], []
    for stage, n_epochs, lr, aam_cfg, crop_s, tune_upstream in stages:
        if n_epochs == 0:
            continue
        if stage > 1 and not has_wav:
            notices.append(f"stage {stage}: imported stacks are frozen; training downstream only")
            logger.info(notices[-1])
        trainable = [logits, anchors] + [params[k] for k in sorted(params)]
        if tune_upstream:
            up_params = upstream.as_tensors()
            trainable += [up_params[k] for k in sorted(up_params)]
        opt = Adam(trainable, lr=lr)
        for _ in range(n_epochs):
            epoch = len(log) + 1
            perm = rng_order.permutation(len(rows))
            losses = []
            for batch_no, start in enumerate(range(0, len(perm), schedule.batch_size), 1):
                batch = [rows[i] for i in perm[start : start + schedule.batch_size]]
                embs = [ecapa_mod.forward(features(row, crop_s, tune_upstream), params, ecapa_cfg) for row in batch]
                labels = [spk_index[row.speaker_id] for row in batch]
                loss = aam_loss(ad.concat([e.reshape(1, -1) for e in embs]), labels, anchors, aam_cfg)
                value = loss.item()
                where = f"stage {stage} epoch {epoch} batch {batch_no}"
                if not math.isfinite(value):
                    raise DataError(f"training diverged at {where}: non-finite loss; lower the learning rate")
                opt.zero_grad()
                loss.backward()
                opt.step()
                if not all(np.isfinite(p.data).all() for p in trainable):
                    raise DataError(f"training diverged at {where}: non-finite parameter after the "
                                    "optimizer step; lower the learning rate")
                losses.append(value)
            log.append((epoch, stage, float(np.mean(losses)), lr))
            logger.info("epoch %d stage %d loss %.6f lr %g", *log[-1])

    return TrainResult(
        ecapa={k: v.data.copy() for k, v in params.items()}, agg_logits=logits.data.copy(),
        anchors=anchors.data.copy(), upstream=upstream.param_arrays() if has_wav else {},
        speakers=speakers, log=log, notices=notices,
    )


# ---------------------------------------------------------------------------
# Finite-difference gradient verification
# ---------------------------------------------------------------------------


def _fd_report(make_loss, params: dict, epsilon: float) -> dict:
    """Max relative error per tensor: analytic backward vs central differences.

    Tensors whose true gradient is (near) zero are measured against the
    component's overall gradient scale, not against finite-difference noise.
    """
    for p in params.values():
        p.grad = None
    make_loss().backward()
    analytic = {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data)) for k, p in params.items()}
    numeric = {}
    # the difference loop's forwards need no graph: freeze the parameters, then restore their flags
    flags = [p.requires_grad for p in params.values()]
    try:
        for p in params.values():
            p.requires_grad = False
        for name, p in params.items():
            flat = p.data.reshape(-1)
            fd = np.zeros(flat.size)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + epsilon
                hi = make_loss().item()
                flat[i] = orig - epsilon
                lo = make_loss().item()
                flat[i] = orig
                fd[i] = (hi - lo) / (2 * epsilon)
            numeric[name] = fd
    finally:
        for p, flag in zip(params.values(), flags):
            p.requires_grad = flag
    scale = max(
        max((np.max(np.abs(a)) for a in analytic.values()), default=0.0),
        max((np.max(np.abs(f)) for f in numeric.values()), default=0.0),
        1e-12,
    )
    report = {}
    for name, a in analytic.items():
        f = numeric[name]
        denom = max(np.max(np.abs(a)), np.max(np.abs(f)), 1e-5 * scale)
        report[name] = float(np.max(np.abs(a.reshape(-1) - f)) / denom)
    return report


def grad_check(component_id: str, trial_count: int = 1, epsilon: float = 1e-5, seed: int = 0) -> dict:
    """Central-difference check of every parameter group of one component.

    Returns {tensor_name: max relative error} merged over trials (worst case).
    """
    builders = {
        "aggregator": _gc_aggregator,
        "ecapa": _gc_ecapa,
        "aam": _gc_aam,
        "calibration": _gc_calibration,
    }
    if component_id not in builders:
        raise ConfigError(
            f"unknown or parameter-free component: {component_id} "
            f"(expected one of {sorted(builders)})"
        )
    merged: dict = {}
    for trial in range(trial_count):
        rng = child_rng(seed, f"grad-check:{component_id}:{trial}")
        make_loss, params = builders[component_id](rng)
        for name, err in _fd_report(make_loss, params, epsilon).items():
            merged[name] = max(err, merged.get(name, 0.0))
    return merged


def _gc_aggregator(rng):
    n_layers, t, d = 5, 4, 3
    stack = rng.standard_normal((n_layers, t, d))
    probe = rng.standard_normal((t, d))
    logits = Tensor(rng.standard_normal(n_layers) * 0.5, requires_grad=True)

    def make_loss():
        return (aggregate_graph(stack, logits) * probe).sum()

    return make_loss, {"logits": logits}


def _gc_ecapa(rng):
    cfg = EcapaConfig(
        in_dim=6, channels=16, res2_scale=8, dilations=(2, 3, 4),
        se_bottleneck=8, attention_channels=8, embed_dim=8,
    )
    params = ecapa_mod.init_params(cfg, seed=int(rng.integers(1 << 31)))
    feats = rng.standard_normal((5, cfg.in_dim))
    probe = rng.standard_normal(cfg.embed_dim)

    def make_loss():
        return (ecapa_mod.forward(feats, params, cfg) * probe).sum()

    return make_loss, params


def _gc_aam(rng):
    b, e, n = 4, 6, 5
    cfg = AamConfig()
    emb = Tensor(rng.standard_normal((b, e)), requires_grad=True)
    anchors = Tensor(rng.standard_normal((n, e)), requires_grad=True)
    labels = rng.integers(0, n, size=b)

    def make_loss():
        return aam_loss(emb, labels, anchors, cfg)

    return make_loss, {"embeddings": emb, "anchors": anchors}


def _gc_calibration(rng):
    n = 32
    x = np.column_stack([rng.standard_normal(n), rng.standard_normal(n)])
    y = (rng.random(n) < 0.5).astype(np.float64)
    theta = Tensor(rng.standard_normal(3) * 0.5, requires_grad=True)

    def make_loss():
        # the objective and gradient that scoring.fit_calibration descends, as one node
        value, grad = scoring._bce_value_grad(theta.data, x, y)
        return Tensor._op(np.asarray(value), (theta,), (lambda g: g * grad,))

    return make_loss, {"theta": theta}

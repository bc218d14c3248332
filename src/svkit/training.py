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
from .aggregator import aggregate_graph
from .audio import SAMPLE_RATE, AugmentBanks, AugmentConfig, Waveform, augment, read_wav
from .ecapa import EcapaConfig
from .errors import ConfigError, DataError
from .pipeline import System
from .rng import child_rng
from .upstream import Manifest, MockUpstreamConfig, PlantSpec, is_stack_file

logger = logging.getLogger(__name__)


def check_aam(margin_key: str, margin: float):
    """Raise ConfigError unless 0 <= margin < pi/2."""
    if not 0.0 <= margin < math.pi / 2:
        raise ConfigError(f"{margin_key} must lie in [0, pi/2)")


@dataclass(frozen=True)
class AamConfig:
    """The `aam` config section; the class count is the number of anchors."""

    margin: float = 0.2
    scale: float = 30.0

    def __post_init__(self):
        check_aam("aam.margin", self.margin)
        if not 0.0 < self.scale < math.inf:
            raise ConfigError(f"aam.scale must be finite and > 0, got {self.scale}")


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
        for key, low in (("stage1_epochs", 0), ("stage2_epochs", 0), ("lmft_epochs", 0), ("batch_size", 1)):
            if getattr(self, key) < low:
                raise ConfigError(f"schedule.{key} must be >= {low}, got {getattr(self, key)}")
        for key in ("crop_seconds", "lmft_crop_seconds", "lr_stage1", "lr_stage2", "lr_lmft"):
            if not 0.0 < getattr(self, key) < math.inf:
                raise ConfigError(f"schedule.{key} must be finite and > 0")
        check_aam("schedule.lmft_margin", self.lmft_margin)


@dataclass
class TrainResult:
    """A trained system, its speakers (the anchors' rows) and one (epoch, stage, loss, lr) row per epoch."""

    system: System
    speakers: list
    log: list

    def checkpoint_tensors(self) -> dict:
        return self.system.checkpoint_tensors()

    @property
    def agg_logits(self) -> np.ndarray:
        return self.system.logits.data


# ---------------------------------------------------------------------------
# AAM-softmax loss
# ---------------------------------------------------------------------------


def aam_loss(embedding: Tensor, label: int, anchors: Tensor, cfg: AamConfig) -> Tensor:
    """Additive angular margin softmax cross-entropy of one utterance; a 0-d loss.

    `embedding` is the (E,) tensor `ecapa.forward` returns and `label` its
    class, a row of the (C, E) `anchors`. The logits are the cosines between
    the unit embedding and the unit anchors; the target class logit becomes
    s*cos(theta + m), with the monotonic fallback s*(cos(theta) - m*sin(m))
    once theta + m would pass pi. Only the branch taken is recorded.
    """
    n_classes = anchors.shape[0]
    if not 0 <= label < n_classes:
        raise DataError(f"label out of range [0, {n_classes})")
    norm = (embedding * embedding).sum().sqrt()
    if norm.item() == 0:
        raise DataError("zero-norm embedding in batch")
    row = (embedding / norm).reshape(1, -1)
    a_unit = anchors / (anchors * anchors).sum(axis=1, keepdims=True).sqrt()

    # `row @ a_unit.T`, not `a_unit @ column`: the two orientations round differently
    cos = (row @ a_unit.transpose()).reshape(-1).clip(-1.0 + 1e-7, 1.0 - 1e-7)
    cos_t = cos[label]
    if cos_t.item() > math.cos(math.pi - cfg.margin):
        target = cos_t * math.cos(cfg.margin) - (1.0 - cos_t * cos_t).sqrt() * math.sin(cfg.margin)
    else:
        target = cos_t - cfg.margin * math.sin(cfg.margin)
    onehot = np.zeros(n_classes)
    onehot[label] = 1.0
    logits = (cos + onehot * (target - cos_t)) * cfg.scale
    return ad.logsumexp(logits, axis=0) - logits[label]


def backward_per_utterance(embeddings, labels, anchors: Tensor, cfg: AamConfig, where: str) -> float:
    """Backpropagate a batch's mean `aam_loss` one utterance at a time; returns that mean.

    Each utterance's `aam_loss` over the batch size is backpropagated as soon
    as `embeddings` (an iterable that builds each (E,) embedding's graph when
    drawn) yields it, and `backward` frees that graph before the next is
    built. The leaves' `.grad` sum the batch's gradient while only one
    utterance's graph is alive. A non-finite term is a DataError naming
    `where`.
    """
    scale = 1.0 / len(labels)
    total = 0.0
    for emb, label in zip(embeddings, labels, strict=True):
        loss = aam_loss(emb, label, anchors, cfg) * scale
        value = loss.item()
        if not math.isfinite(value):
            raise DataError(f"training diverged at {where}: non-finite loss; lower the learning rate")
        loss.backward()
        total += value
    return total


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
    plant: PlantSpec = PlantSpec(),
    seed: int = 0,
) -> TrainResult:
    """Run the staged training pipeline on a manifest.

    A `.svhs` row is an imported layer stack, used whole (no crop or
    augmentation) and frozen in every stage. Every other row is a WAV that is
    cropped, augmented from `banks` (empty banks add nothing), and run through
    the seeded mock upstream. With no WAV row there is no upstream to tune:
    stages 2 and 3 each log a notice and the result exports no upstream
    tensors. Each batch is backpropagated one utterance at a time
    (`backward_per_utterance`), then Adam steps once. A non-finite loss, or a
    non-finite parameter after an optimizer step, is a DataError that names
    the stage, epoch and batch. The system returned, with `plant`, is the
    float32 form its checkpoint reloads to (`System.checkpoint_tensors`).
    """
    speakers = manifest.speakers
    if len(speakers) < 2:
        raise DataError("training requires at least two speakers in the manifest")
    spk_index = {s: i for i, s in enumerate(speakers)}
    system = System.init(upstream_cfg, ecapa_cfg, len(speakers), seed, plant)
    rows = list(manifest.rows)
    has_wav = not all(is_stack_file(row.path) for row in rows)
    upstream = system.upstream if has_wav else None  # an import-only run never draws the mock
    rng_order = child_rng(seed, "batch-order")
    rng_crop = child_rng(seed, "crop")
    rng_aug = child_rng(seed, "augment")

    def features(row, crop_s: float, tune_upstream: bool) -> Tensor:
        """Aggregated (T, D) features for one training utterance. A stored stack is read by `System.stack_for`,
        and every row's layers (that stack, or the tuned upstream's graph) go through `System.row_layers`, as in
        `embed`, so frozen stages compute embed's features bit for bit."""
        path = manifest.resolve(row)
        if is_stack_file(path):
            layers = system.stack_for(manifest, row).layers
        else:
            wav = augment(crop_random(read_wav(path), crop_s, rng_crop), banks, augment_cfg, rng_aug)
            layers = (upstream.forward_graph(Tensor(wav.samples)) if tune_upstream
                      else upstream.stack(wav, f"{row.utt_id} ({path})").layers)
        return aggregate_graph(system.row_layers(layers, manifest, row), system.logits)

    stages = [
        (1, schedule.stage1_epochs, schedule.lr_stage1, aam, schedule.crop_seconds, False),
        (2, schedule.stage2_epochs, schedule.lr_stage2, aam, schedule.crop_seconds, has_wav),
        (3, schedule.lmft_epochs, schedule.lr_lmft, replace(aam, margin=schedule.lmft_margin),
         schedule.lmft_crop_seconds, has_wav),
    ]
    log = []
    for stage, n_epochs, lr, aam_cfg, crop_s, tune_upstream in stages:
        if n_epochs == 0:
            continue
        if stage > 1 and not has_wav:
            logger.info("stage %d: imported stacks are frozen; training downstream only", stage)
        trainable = system.trainable(tune_upstream)
        opt = Adam(trainable, lr=lr)
        for _ in range(n_epochs):
            epoch = len(log) + 1
            perm = rng_order.permutation(len(rows))
            losses = []
            for batch_no, start in enumerate(range(0, len(perm), schedule.batch_size), 1):
                batch = [rows[i] for i in perm[start : start + schedule.batch_size]]
                embs = (ecapa_mod.forward(features(row, crop_s, tune_upstream), system.ecapa, ecapa_cfg)
                        for row in batch)
                labels = [spk_index[row.speaker_id] for row in batch]
                where = f"stage {stage} epoch {epoch} batch {batch_no}"
                opt.zero_grad()
                value = backward_per_utterance(embs, labels, system.tensors["aam.anchors"], aam_cfg, where)
                opt.step()
                if not all(np.isfinite(p.data).all() for p in trainable):
                    raise DataError(f"training diverged at {where}: non-finite parameter after the "
                                    "optimizer step; lower the learning rate")
                losses.append(value)
            log.append((epoch, stage, float(np.mean(losses)), lr))
            logger.info("epoch %d stage %d loss %.6f lr %g", *log[-1])

    return TrainResult(System.from_checkpoint(system.checkpoint_tensors(), upstream_cfg, ecapa_cfg, plant),
                       speakers, log)

"""Trial scoring: cosine similarity, adaptive s-norm, calibration, ensemble, EER.

Score flow: cosine -> adaptive s-norm against a speaker-averaged imposter
cohort -> affine (logistic-fit) calibration with optional quality features ->
weighted-mean ensemble -> EER. Every step is deterministic and oracle-checkable.
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binfile import Reader
from .errors import DataError, FormatError
from .upstream import Manifest

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Trial:
    enroll_id: str
    test_id: str
    label: int | None = None


@dataclass(frozen=True)
class Cohort:
    """Unit-norm speaker-mean embeddings used as score-normalization imposters."""

    members: np.ndarray
    speaker_ids: tuple
    top_k: int

    def __post_init__(self):
        if self.members.ndim != 2 or self.members.shape[0] < 2:
            raise DataError("cohort needs at least two speaker means")
        if not 1 <= self.top_k <= self.members.shape[0]:
            raise DataError("cohort top_k must lie in [1, member count]")


@dataclass(frozen=True)
class CalibrationModel:
    score_weight: float
    quality_weights: tuple
    bias: float

    @property
    def arity(self) -> int:
        return len(self.quality_weights)


# ---------------------------------------------------------------------------
# Cosine scoring
# ---------------------------------------------------------------------------


def cosine_score(e1, e2) -> float:
    e1 = np.asarray(e1, dtype=np.float64)
    e2 = np.asarray(e2, dtype=np.float64)
    n1, n2 = np.linalg.norm(e1), np.linalg.norm(e2)
    if n1 == 0.0 or n2 == 0.0:
        raise DataError("cosine score of a zero-norm embedding is undefined")
    return float(np.clip(np.dot(e1, e2) / (n1 * n2), -1.0, 1.0))


def _embedding(store: dict, uid: str):
    try:
        return store[uid]
    except KeyError:
        raise DataError(f"trial references unknown utterance id: {uid}") from None


def score_trials(trials, store: dict) -> np.ndarray:
    out = np.empty(len(trials))
    for i, t in enumerate(trials):
        out[i] = cosine_score(_embedding(store, t.enroll_id), _embedding(store, t.test_id))
    return out


# ---------------------------------------------------------------------------
# Adaptive s-norm
# ---------------------------------------------------------------------------


def build_cohort(store: dict, manifest: Manifest, top_k: int = 600) -> Cohort:
    """One unit-normalized mean embedding per training speaker."""
    if not store:
        raise DataError("embedding store is empty")
    groups = manifest.by_speaker()
    speakers = sorted(groups)
    means = []
    for spk in speakers:
        embs = [store[r.utt_id] for r in groups[spk] if r.utt_id in store]
        if not embs:
            raise DataError(f"speaker {spk} has no embeddings in the store")
        m = np.mean(np.asarray(embs, dtype=np.float64), axis=0)
        norm = np.linalg.norm(m)
        if norm == 0.0:
            raise DataError(f"speaker {spk} has a zero-norm mean embedding")
        means.append(m / norm)
    members = np.asarray(means)
    return Cohort(members, tuple(speakers), top_k=min(top_k, len(speakers)))


def adaptive_snorm(scores, trials, store: dict, cohort: Cohort) -> np.ndarray:
    """Symmetric score normalization over each side's top-k cohort scores.

    s' = ((s - mu_e)/sigma_e + (s - mu_t)/sigma_t) / 2, with mu/sigma taken
    over the top_k highest cosine scores between that side and the cohort.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (len(trials),):
        raise DataError("score set does not align with the trial list")
    stats: dict = {}

    def side_stats(uid: str):
        if uid not in stats:
            e = np.asarray(_embedding(store, uid), dtype=np.float64)
            norm = np.linalg.norm(e)
            if norm == 0.0:
                raise DataError(f"zero-norm embedding for {uid}")
            cos = cohort.members @ (e / norm)
            top = np.sort(cos)[-cohort.top_k :]
            stats[uid] = (float(np.mean(top)), float(np.std(top)))
        return stats[uid]

    out = np.empty_like(scores)
    for i, t in enumerate(trials):
        mu_e, sd_e = side_stats(t.enroll_id)
        mu_t, sd_t = side_stats(t.test_id)
        if sd_e == 0.0 or sd_t == 0.0:
            raise DataError(f"degenerate cohort (zero spread) for trial {t.enroll_id} {t.test_id}")
        out[i] = 0.5 * ((scores[i] - mu_e) / sd_e + (scores[i] - mu_t) / sd_t)
    return out


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


def quality_features(trial: Trial, durations: dict) -> np.ndarray:
    """Duration-based pair features: [log(min(d_e, d_t)), log(d_e) + log(d_t)]."""
    for uid in (trial.enroll_id, trial.test_id):
        if uid not in durations:
            raise DataError(f"no duration recorded for {uid}")
        if durations[uid] <= 0:
            raise DataError(f"nonpositive duration for {uid}")
    de, dt = durations[trial.enroll_id], durations[trial.test_id]
    return np.array([np.log(min(de, dt)), np.log(de) + np.log(dt)])


def _bce_value_grad(theta: np.ndarray, x: np.ndarray, y: np.ndarray):
    """Mean binary cross-entropy of a logistic model and its gradient.

    x carries the raw feature columns; a constant bias column is implied as
    the last component of theta.
    """
    z = x @ theta[:-1] + theta[-1]
    value = float(np.mean(np.logaddexp(0.0, z) - y * z))
    p = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
    resid = (p - y) / len(y)
    return value, np.concatenate([x.T @ resid, [resid.sum()]])


def fit_calibration(scores, labels, quality=None, tol: float = 1e-8, max_iter: int = 10000) -> CalibrationModel:
    """Logistic regression of label on [score, quality features].

    Plain gradient descent with a backtracking/growing step, run to gradient
    tolerance or the iteration cap. Degenerate (single-class) labels raise.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise DataError("scores and labels must be aligned 1-D arrays")
    if np.all(labels == labels[0]):
        raise DataError("calibration labels are degenerate (single class)")
    if quality is None:
        x = scores[:, None]
    else:
        quality = np.atleast_2d(np.asarray(quality, dtype=np.float64))
        if quality.shape[0] != scores.size:
            raise DataError("quality feature rows must align with scores")
        x = np.column_stack([scores, quality])

    theta = np.zeros(x.shape[1] + 1)
    value, grad = _bce_value_grad(theta, x, labels)
    step = 1.0
    for _ in range(max_iter):
        if np.max(np.abs(grad)) < tol:
            break
        while True:
            cand = theta - step * grad
            cand_value, cand_grad = _bce_value_grad(cand, x, labels)
            if cand_value <= value or step < 1e-18:
                break
            step *= 0.5
        if cand_value > value:
            break
        theta, value, grad = cand, cand_value, cand_grad
        step *= 1.3

    model = CalibrationModel(
        score_weight=float(theta[0]),
        quality_weights=tuple(float(t) for t in theta[1:-1]),
        bias=float(theta[-1]),
    )
    if model.score_weight <= 0:
        logger.warning("calibration fit produced a non-positive score weight (%.4g)", model.score_weight)
    return model


def apply_calibration(model: CalibrationModel, scores, quality=None) -> np.ndarray:
    """Affine log-odds transform a*s + b.q + c (no sigmoid; EER sweeps thresholds)."""
    scores = np.asarray(scores, dtype=np.float64)
    if quality is None:
        if model.arity != 0:
            raise DataError(f"model expects {model.arity} quality features, got none")
        return model.score_weight * scores + model.bias
    quality = np.atleast_2d(np.asarray(quality, dtype=np.float64))
    if quality.shape[1] != model.arity:
        raise DataError(f"model expects {model.arity} quality features, got {quality.shape[1]}")
    return model.score_weight * scores + quality @ np.asarray(model.quality_weights) + model.bias


# ---------------------------------------------------------------------------
# Ensemble
# ---------------------------------------------------------------------------


def ensemble(score_sets, weights) -> np.ndarray:
    """Per-trial weighted mean, weights renormalized to sum one."""
    sets = [np.asarray(s, dtype=np.float64) for s in score_sets]
    if not sets or any(s.shape != sets[0].shape for s in sets):
        raise DataError("ensemble needs aligned, equally sized score sets")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (len(sets),) or np.any(w < 0) or w.sum() == 0:
        raise DataError("ensemble weights must be nonnegative, not all zero, one per system")
    w = w / w.sum()
    out = np.zeros_like(sets[0])
    for wi, s in zip(w, sets):
        out += wi * s
    return out


# ---------------------------------------------------------------------------
# EER
# ---------------------------------------------------------------------------


def eer(scores, labels) -> tuple:
    """Equal error rate and its threshold.

    Sweeps every distinct operating point (miss = fraction of targets below
    the threshold, fa = fraction of nontargets at or above it) and linearly
    interpolates between the adjacent points where miss and fa cross.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise DataError("scores and labels must be aligned 1-D arrays")
    if not np.isfinite(scores).all():
        raise DataError("EER needs finite scores")
    n_tar = int(np.sum(labels == 1))
    n_non = int(np.sum(labels == 0))
    if n_tar == 0 or n_non == 0:
        raise DataError("EER needs at least one target and one nontarget trial")

    distinct = np.unique(scores)
    # operating points below the minimum, between each adjacent pair, above the max
    miss = [0.0]
    fa = [1.0]
    thresholds = [distinct[0] - 1.0]
    tar_scores = scores[labels == 1]
    non_scores = scores[labels == 0]
    for i, v in enumerate(distinct):
        miss.append(float(np.sum(tar_scores <= v)) / n_tar)
        fa.append(float(np.sum(non_scores > v)) / n_non)
        thresholds.append((v + distinct[i + 1]) / 2.0 if i + 1 < len(distinct) else v + 1.0)
    miss = np.asarray(miss)
    fa = np.asarray(fa)
    thresholds = np.asarray(thresholds)

    diff = miss - fa
    # diff starts at -1 and ends at +1, so the first nonnegative index is >= 1
    idx = int(np.argmax(diff >= 0))
    if diff[idx] == 0.0:
        return float(miss[idx]), float(thresholds[idx])
    lo, hi = idx - 1, idx
    denom = (miss[hi] - miss[lo]) - (fa[hi] - fa[lo])
    lam = (fa[lo] - miss[lo]) / denom
    value = miss[lo] + lam * (miss[hi] - miss[lo])
    threshold = thresholds[lo] + lam * (thresholds[hi] - thresholds[lo])
    return float(value), float(threshold)


# ---------------------------------------------------------------------------
# File formats: trial lists, score files, embedding stores (SVEB)
# ---------------------------------------------------------------------------


def load_trials(path) -> list:
    """Space-separated trials: 'label enroll test' or unlabeled 'enroll test'."""
    trials = []
    labeled = None
    for lineno, parts in Reader(path).rows():
        if len(parts) == 3:
            if labeled is False:
                raise FormatError(f"{path}:{lineno}: mixed labeled/unlabeled rows")
            labeled = True
            if parts[0] not in ("0", "1"):
                raise FormatError(f"{path}:{lineno}: label must be 0 or 1, got {parts[0]!r}")
            trials.append(Trial(parts[1], parts[2], label=int(parts[0])))
        elif len(parts) == 2:
            if labeled is True:
                raise FormatError(f"{path}:{lineno}: mixed labeled/unlabeled rows")
            labeled = False
            trials.append(Trial(parts[0], parts[1]))
        else:
            raise FormatError(f"{path}:{lineno}: expected 2 or 3 fields, got {len(parts)}")
    if not trials:
        raise FormatError(f"{path}: empty trial list")
    return trials


def save_trials(trials, path):
    lines = []
    for t in trials:
        lines.append(f"{t.enroll_id} {t.test_id}" if t.label is None else f"{t.label} {t.enroll_id} {t.test_id}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def trial_labels(trials) -> np.ndarray:
    labels = [t.label for t in trials]
    if any(l is None for l in labels):
        raise DataError("trial list is unlabeled")
    return np.asarray(labels)


def load_scores(path, trials=None) -> np.ndarray:
    """Score file 'enroll test score'; when trials are given, order must match."""
    rows = []
    for lineno, parts in Reader(path).rows():
        if len(parts) != 3:
            raise FormatError(f"{path}:{lineno}: expected 'enroll test score'")
        try:
            score = float(parts[2])
        except ValueError:
            score = math.nan
        if not math.isfinite(score):
            raise FormatError(f"{path}:{lineno}: bad score value {parts[2]!r}")
        rows.append((parts[0], parts[1], score))
    if trials is not None:
        if len(rows) != len(trials):
            raise FormatError(f"{path}: {len(rows)} scores for {len(trials)} trials")
        for (e, t, _), trial in zip(rows, trials):
            if (e, t) != (trial.enroll_id, trial.test_id):
                raise FormatError(f"{path}: score rows do not match the trial list order")
    return np.asarray([r[2] for r in rows])


def save_scores(trials, scores, path):
    scores = np.asarray(scores)
    lines = [f"{t.enroll_id} {t.test_id} {s:.6f}" for t, s in zip(trials, scores)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


_SVEB_MAGIC = b"SVEB"


def save_embeddings(store: dict, path):
    """SVEB store: magic, version, dim, count, then (id, float32 vector) records."""
    if not store:
        raise DataError("refusing to write an empty embedding store")
    ids = sorted(store)
    dim = int(np.asarray(store[ids[0]]).size)
    out = [_SVEB_MAGIC, struct.pack("<III", 1, dim, len(ids))]
    for uid in ids:
        vec = np.asarray(store[uid], dtype="<f4").reshape(-1)
        if vec.size != dim:
            raise DataError(f"embedding {uid} has dim {vec.size}, expected {dim}")
        enc = uid.encode("utf-8")
        out.append(struct.pack("<H", len(enc)))
        out.append(enc)
        out.append(vec.tobytes())
    Path(path).write_bytes(b"".join(out))


def load_embeddings(path) -> dict:
    r = Reader(path)
    r.header(_SVEB_MAGIC, "SVEB store")
    dim, count = r.unpack("II", "header")
    ids, chunks = [], []
    for _ in range(count):
        ids.append(r.text("embedding id"))
        chunks.append(r.take(4 * dim, "embedding vector"))
    r.end()
    r.unique(ids, "embedding id")
    return dict(zip(ids, r.float32(chunks, "embeddings").reshape(count, dim).astype(np.float64)))

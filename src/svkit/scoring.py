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

_GRAD_TOL = 1e-8  # fit_calibration stops once max |d loss / d theta| falls below this
_NEWTON_MAX_ITER = 100  # overlapping classes converge in about 10 steps


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
        if not np.isfinite(self.members).all():
            raise DataError("cohort members contain non-finite values")


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


def _trial_rows(trials, store: dict, zero_norm: str):
    """Unit rows of the trials' distinct ids, in trial order, and each trial's enroll and test row."""
    sides = [uid for t in trials for uid in (t.enroll_id, t.test_id)]
    index = {uid: i for i, uid in enumerate(dict.fromkeys(sides))}
    pairs = np.array([index[uid] for uid in sides], dtype=np.intp)
    ids = list(index)
    try:
        emb = np.array([store[uid] for uid in ids], dtype=np.float64).reshape(len(ids), -1)
    except KeyError as exc:
        raise DataError(f"trial references unknown utterance id: {exc.args[0]}") from None
    norms = np.linalg.norm(emb, axis=1)
    for bad, message in ((~np.isfinite(emb).all(axis=1), "non-finite embedding for {uid}"), (norms == 0.0, zero_norm)):
        if bad.any():
            raise DataError(message.format(uid=ids[int(np.argmax(bad))]))
    return emb / norms[:, None], pairs[0::2], pairs[1::2]


def score_trials(trials, store: dict) -> np.ndarray:
    out = np.empty(len(trials))
    if trials:
        unit, e, t = _trial_rows(trials, store, "cosine score of a zero-norm embedding is undefined")
        for lo in range(0, len(out), 4096):  # cache-sized row gathers; memory stays flat at any trial count
            block = slice(lo, lo + 4096)
            out[block] = np.einsum("ij,ij->i", unit[e[block]], unit[t[block]])
    return np.clip(out, -1.0, 1.0, out=out)


# ---------------------------------------------------------------------------
# Adaptive s-norm
# ---------------------------------------------------------------------------


def build_cohort(store: dict, manifest: Manifest, top_k: int) -> Cohort:
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
    if not np.isfinite(scores).all():
        raise DataError("s-norm input scores contain non-finite values")
    if not trials:
        return scores.copy()
    unit, e, t = _trial_rows(trials, store, "zero-norm embedding for {uid}")
    top = np.partition(unit @ cohort.members.T, -cohort.top_k, axis=1)[:, -cohort.top_k :]
    mu, sd = top.mean(axis=1), top.std(axis=1)
    flat = (sd[e] == 0.0) | (sd[t] == 0.0)
    if flat.any():
        bad = trials[int(np.argmax(flat))]
        raise DataError(f"degenerate cohort (zero spread) for trial {bad.enroll_id} {bad.test_id}")
    return 0.5 * ((scores - mu[e]) / sd[e] + (scores - mu[t]) / sd[t])


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


def quality_features(trial: Trial, durations: dict) -> np.ndarray:
    """Duration-based pair features: [log(min(d_e, d_t)), log(d_e) + log(d_t)].

    Each duration must be positive and finite; a missing, nonpositive, NaN or
    infinite one is a DataError naming the utterance.
    """
    for uid in (trial.enroll_id, trial.test_id):
        if uid not in durations:
            raise DataError(f"no duration recorded for {uid}")
        if not 0 < durations[uid] < math.inf:
            raise DataError(f"nonpositive or non-finite duration {durations[uid]} for {uid}")
    de, dt = durations[trial.enroll_id], durations[trial.test_id]
    return np.array([np.log(min(de, dt)), np.log(de) + np.log(dt)])


def _quality_rows(quality, n: int) -> np.ndarray:
    """Quality features as a 2-D array of n finite rows, one per score; a DataError names the first bad row."""
    quality = np.atleast_2d(np.asarray(quality, dtype=np.float64))
    if quality.shape[0] != n:
        raise DataError("quality feature rows must align with scores")
    bad = np.flatnonzero(~np.isfinite(quality).all(axis=1))
    if bad.size:
        raise DataError(f"quality features of row {bad[0]} are not finite: {quality[bad[0]].tolist()}")
    return quality


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


def fit_calibration(scores, labels, quality=None) -> CalibrationModel:
    """Logistic regression of label on [score, quality features].

    Damped Newton (IRLS): the step solves the Hessian system by least squares,
    so separable data's near-singular Hessian does not raise, and is halved
    until the loss does not rise. Single-class labels and non-finite inputs raise.
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
        x = np.column_stack([scores, _quality_rows(quality, scores.size)])
    if not (np.isfinite(scores).all() and np.isfinite(labels).all()):
        raise DataError("calibration needs finite scores and labels")

    xb = np.column_stack([x, np.ones(len(labels))])
    theta = np.zeros(xb.shape[1])
    value, grad = _bce_value_grad(theta, x, labels)
    for _ in range(_NEWTON_MAX_ITER):
        if np.max(np.abs(grad)) < _GRAD_TOL:
            break
        p = 0.5 * (1.0 + np.tanh(0.5 * (xb @ theta)))
        hessian = (xb.T * (p * (1.0 - p) / len(labels))) @ xb
        direction = np.linalg.lstsq(hessian, grad, rcond=None)[0]
        step = 1.0
        while True:
            cand = theta - step * direction
            cand_value, cand_grad = _bce_value_grad(cand, x, labels)
            if cand_value <= value or step < 1e-18:
                break
            step *= 0.5
        if cand_value >= value:
            break
        theta, value, grad = cand, cand_value, cand_grad

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
    quality = _quality_rows(quality, scores.size)
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
    with np.errstate(over="ignore"):  # an overflowing sum is refused as non-finite
        total = w.sum()
    if w.shape != (len(sets),) or not np.all(w >= 0) or not 0 < total < np.inf:
        raise DataError("ensemble weights must be finite and nonnegative, not all zero, one per system")
    w = w / total
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
    tar = np.sort(scores[labels == 1])
    non = np.sort(scores[labels == 0])
    if tar.size == 0 or non.size == 0:
        raise DataError("EER needs at least one target and one nontarget trial")

    distinct = np.unique(scores)
    # operating points below the minimum, between each adjacent pair, above the max
    miss = np.concatenate([[0.0], np.searchsorted(tar, distinct, "right") / tar.size])
    fa = np.concatenate([[1.0], (non.size - np.searchsorted(non, distinct, "right")) / non.size])
    thresholds = np.concatenate([[distinct[0] - 1.0], (distinct[:-1] + distinct[1:]) / 2.0, [distinct[-1] + 1.0]])

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
    lines = [f"{t.enroll_id} {t.test_id}" if t.label is None else f"{t.label} {t.enroll_id} {t.test_id}" for t in trials]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def trial_labels(trials) -> np.ndarray:
    labels = [t.label for t in trials]
    if any(l is None for l in labels):
        raise DataError("trial list is unlabeled")
    return np.asarray(labels)


def load_scores(path, trials) -> np.ndarray:
    """Score file 'enroll test score', one row per trial in the trial list's order."""
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
    with np.errstate(over="ignore"):  # an overflow is a non-finite vector, refused below
        vecs = [np.asarray(store[uid], dtype="<f4").reshape(-1) for uid in ids]
    dim = vecs[0].size
    for uid, vec in zip(ids, vecs):
        if vec.size != dim:
            raise DataError(f"embedding {uid} has dim {vec.size}, expected {dim}")
    finite = np.isfinite(np.stack(vecs)).all(axis=1)
    if not finite.all():  # load_embeddings would reject the file
        raise DataError(f"embedding {ids[int(np.argmin(finite))]} is not finite in float32; no store written")
    out = [_SVEB_MAGIC, struct.pack("<III", 1, dim, len(ids))]
    for uid, vec in zip(ids, vecs):
        enc = uid.encode("utf-8")
        if len(enc) > 0xFFFF:
            raise FormatError(f"embedding id too long for SVEB (over 65535 UTF-8 bytes): {uid}")
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

"""Trial scoring: cosine similarity, adaptive s-norm, calibration, ensemble, EER.

Score flow: cosine -> adaptive s-norm against a speaker-averaged imposter
cohort -> affine (logistic-fit) calibration with optional quality features ->
weighted-mean ensemble -> EER. Every step is deterministic and oracle-checkable.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from sys import intern
from typing import NamedTuple

import numpy as np

from .autodiff import _logistic
from .binfile import Reader, Writer, write_lines
from .errors import DataError, FormatError
from .upstream import Manifest

logger = logging.getLogger(__name__)

_GRAD_TOL = 1e-8  # fit_calibration stops once max |d loss / d theta| falls below this
_NEWTON_MAX_ITER = 100  # overlapping classes converge in about 10 steps


class Trial(NamedTuple):
    enroll_id: str
    test_id: str
    label: int | None = None


@dataclass(frozen=True)
class Cohort:
    """Unit-norm speaker-mean embeddings used as score-normalization imposters."""

    members: np.ndarray
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


def _finite_scores(scores, what: str) -> np.ndarray:
    """Scores as a finite float64 1-D array, else a DataError naming `what`."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or not np.isfinite(scores).all():
        raise DataError(f"{what} scores must be 1-D with no non-finite values")
    return scores


# ---------------------------------------------------------------------------
# Cosine scoring
# ---------------------------------------------------------------------------


def _trial_rows(trials, store: dict):
    """Unit rows of the trials' distinct ids, in trial order, and each trial's enroll and test row."""
    enroll, test = list(map(itemgetter(0), trials)), list(map(itemgetter(1), trials))
    ids = list(dict.fromkeys(chain.from_iterable(zip(enroll, test))))
    index = dict(zip(ids, range(len(ids))))
    e, t = (np.fromiter(map(index.__getitem__, side), dtype=np.intp, count=len(side)) for side in (enroll, test))
    try:
        emb = np.array([store[uid] for uid in ids], dtype=np.float64).reshape(len(ids), -1)
    except KeyError as exc:
        raise DataError(f"trial references unknown utterance id: {exc.args[0]}") from None
    norms = np.linalg.norm(emb, axis=1)
    for bad, what in ((~np.isfinite(emb).all(axis=1), "non-finite"), (norms == 0.0, "zero-norm")):
        if bad.any():
            raise DataError(f"{what} embedding for {ids[int(np.argmax(bad))]}")
    return emb / norms[:, None], e, t


def score_trials(trials, store: dict) -> np.ndarray:
    out = np.empty(len(trials))
    if trials:
        unit, e, t = _trial_rows(trials, store)
        for lo in range(0, len(out), 512):  # cache-sized row gathers; memory stays flat at any trial count
            block = slice(lo, lo + 512)
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
    return Cohort(members, top_k=min(top_k, len(speakers)))


def adaptive_snorm(scores, trials, store: dict, cohort: Cohort) -> np.ndarray:
    """Symmetric score normalization over each side's top-k cohort scores.

    s' = ((s - mu_e)/sigma_e + (s - mu_t)/sigma_t) / 2, with mu/sigma taken
    over the top_k highest cosine scores between that side and the cohort.
    """
    scores = _finite_scores(scores, "s-norm input")
    if scores.shape != (len(trials),):
        raise DataError("score set does not align with the trial list")
    if not trials:
        return scores.copy()
    unit, e, t = _trial_rows(trials, store)
    if unit.shape[1] != cohort.members.shape[1]:
        raise DataError(f"trial embeddings have dim {unit.shape[1]} but the cohort's have dim {cohort.members.shape[1]}")
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


def _duration(durations: dict, uid: str) -> float:
    """The duration of `uid`, positive and finite, else a DataError naming it."""
    try:
        d = durations[uid]
    except KeyError:
        raise DataError(f"no duration recorded for {uid}") from None
    if not 0 < d < math.inf:
        raise DataError(f"nonpositive or non-finite duration {d} for {uid}")
    return d


def quality_features(trial: Trial, durations: dict) -> tuple:
    """Duration-based pair features, a float pair: (log(min(d_e, d_t)), log(d_e) + log(d_t)).

    Each duration must be positive and finite; a missing, nonpositive, NaN or
    infinite one is a DataError naming the utterance, the enroll side first.
    """
    # np.log, not math.log: the two can differ in the last bit
    le, lt = np.log(_duration(durations, trial.enroll_id)), np.log(_duration(durations, trial.test_id))
    return float(min(le, lt)), float(le + lt)  # log is monotone: min(le, lt) == log(min(d_e, d_t))


def _check_binary_labels(labels: np.ndarray, what: str):
    """A DataError naming the first label that is neither 0 nor 1."""
    bad = np.flatnonzero((labels != 0) & (labels != 1))
    if bad.size:
        raise DataError(f"{what} labels must be 0 or 1, got {labels[bad[0]].item()!r} at trial {bad[0]}")


def _quality_rows(quality, n: int) -> np.ndarray:
    """Quality features as n finite rows, one per score; None is (n, 0). A DataError names the first bad row."""
    if quality is None:
        return np.empty((n, 0))
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
    resid = (_logistic(z) - y) / len(y)
    return value, np.concatenate([x.T @ resid, [resid.sum()]])


def fit_calibration(scores, labels, quality=None) -> CalibrationModel:
    """Logistic regression of label on [score, quality features].

    Damped Newton (IRLS): the step solves the Hessian system by least squares,
    so separable data's near-singular Hessian does not raise, and is halved
    until the loss does not rise. Empty or single-class labels and non-finite inputs raise.
    """
    scores = _finite_scores(scores, "calibration")
    labels = np.asarray(labels, dtype=np.float64)
    if labels.shape != scores.shape or not np.isfinite(labels).all():
        raise DataError("calibration labels must be finite and aligned with the scores")
    _check_binary_labels(labels, "calibration")
    if not labels.size or np.all(labels == labels[0]):
        raise DataError("calibration labels are degenerate (none, or a single class)")
    x = np.column_stack([scores, _quality_rows(quality, scores.size)])

    xb = np.column_stack([x, np.ones(len(labels))])
    theta = np.zeros(xb.shape[1])
    value, grad = _bce_value_grad(theta, x, labels)
    for _ in range(_NEWTON_MAX_ITER):
        if np.max(np.abs(grad)) < _GRAD_TOL:
            break
        p = _logistic(xb @ theta)
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
    scores = _finite_scores(scores, "calibration")
    quality = _quality_rows(quality, scores.size)
    if quality.shape[1] != model.arity:
        raise DataError(f"model expects {model.arity} quality features, got {quality.shape[1]}")
    return model.score_weight * scores + quality @ np.asarray(model.quality_weights) + model.bias


# ---------------------------------------------------------------------------
# Ensemble
# ---------------------------------------------------------------------------


def ensemble(score_sets, weights) -> np.ndarray:
    """Per-trial weighted mean, weights renormalized to sum one."""
    sets = [_finite_scores(s, "ensemble") for s in score_sets]
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
    scores = _finite_scores(scores, "EER")
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise DataError("scores and labels must be aligned 1-D arrays")
    _check_binary_labels(labels, "EER")
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


_LABELS = {"0": 0, "1": 1}


def _refuse_trial_row(path, lineno: int, parts: list, width: int):
    """Raise the FormatError for a row that does not fit a trial list whose first row has `width` fields."""
    if len(parts) not in (2, 3):
        raise FormatError(f"{path}:{lineno}: expected 2 or 3 fields, got {len(parts)}")
    if len(parts) != width:
        raise FormatError(f"{path}:{lineno}: mixed labeled/unlabeled rows")
    raise FormatError(f"{path}:{lineno}: label must be 0 or 1, got {parts[0]!r}")


def load_trials(path) -> list:
    """Space-separated trials: 'label enroll test' or unlabeled 'enroll test'.

    Each Trial is built as its row is split; the first row's field count decides for the whole file.
    Ids are interned: the list holds each distinct id once, however many trials name it.
    """
    rows = Reader(path).rows()
    first = next(rows, None)
    if first is None:
        raise FormatError(f"{path}: empty trial list")
    width = len(first[1])
    rows, new, label_of = chain((first,), rows), tuple.__new__, _LABELS.get  # skips Trial.__new__'s Python frame
    if width == 2:
        return [new(Trial, (intern(p[0]), intern(p[1]), None)) if len(p) == 2
                else _refuse_trial_row(path, n, p, width) for n, p in rows]
    # a first row of any width but 2 or 3 is refused here, as the first row of the list
    return [new(Trial, (intern(p[1]), intern(p[2]), label)) if len(p) == 3 and (label := label_of(p[0])) is not None
            else _refuse_trial_row(path, n, p, width) for n, p in rows]


def save_trials(trials, path):
    lines = [f"{t.enroll_id} {t.test_id}" if t.label is None else f"{t.label} {t.enroll_id} {t.test_id}" for t in trials]
    write_lines(path, lines)


def trial_labels(trials) -> np.ndarray:
    """The trials' labels as integers; an unlabeled trial, or a label other than 0 or 1, is a DataError."""
    # read as floats, so that a label of 0.5 is refused rather than truncated to 0; None reads as NaN
    labels = np.fromiter(map(itemgetter(2), trials), dtype=float, count=len(trials))
    if np.isnan(labels).any():
        raise DataError("trial list is unlabeled")
    _check_binary_labels(labels, "trial")
    return labels.astype(int)


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
    if scores.shape != (len(trials),):
        raise DataError(f"{scores.size} scores for {len(trials)} trials; no score file written")
    # Python floats format faster than numpy scalars, with the same digits
    write_lines(path, (f"{t.enroll_id} {t.test_id} {s:.6f}" for t, s in zip(trials, scores.tolist())))


_SVEB_MAGIC = b"SVEB"


def save_embeddings(store: dict, path):
    """SVEB store: magic, version, dim, count, then (id, float32 vector) records."""
    if not store:
        raise DataError("refusing to write an empty embedding store")
    ids = sorted(store)
    vecs = [np.asarray(store[uid]).reshape(-1) for uid in ids]
    dim = vecs[0].size
    for uid, vec in zip(ids, vecs):
        if vec.size != dim:
            raise DataError(f"embedding {uid} has dim {vec.size}, expected {dim}")
    w = Writer(_SVEB_MAGIC, "store")
    arr = w.float32(np.stack(vecs), [f"embedding {uid}" for uid in ids])
    w.pack("II", dim, len(ids), what="store dimensions")
    for uid, vec in zip(ids, arr):
        w.text(uid, "embedding id")
        w.array(vec)
    w.save(path)


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
    return dict(zip(ids, r.float32(chunks, (f"embedding {u}" for u in ids)).reshape(count, dim).astype(np.float64)))

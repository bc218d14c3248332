"""Cosine scoring, s-norm, calibration, ensemble, and EER tests with
independent brute-force oracles."""

import logging
import re
from dataclasses import dataclass

import numpy as np
import pytest

from svkit import scoring
from svkit.binfile import Reader
from svkit.errors import DataError, FormatError
from svkit.scoring import (
    CalibrationModel,
    Cohort,
    Trial,
    _quality_rows,
    adaptive_snorm,
    apply_calibration,
    build_cohort,
    eer,
    ensemble,
    fit_calibration,
    load_embeddings,
    load_scores,
    load_trials,
    quality_features,
    save_embeddings,
    save_scores,
    save_trials,
    score_trials,
    trial_labels,
)
from svkit.upstream import Manifest, ManifestRow


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------


def eer_oracle(scores, labels):
    """Evaluate miss/fa just past every distinct score and interpolate the crossing."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    tar = scores[labels == 1]
    non = scores[labels == 0]
    cands = [np.min(scores) - 1.0] + [v + 1e-9 for v in sorted(set(scores))]
    pts = []
    for t in cands:
        miss = np.mean(tar < t)
        fa = np.mean(non >= t)
        pts.append((miss, fa))
    for (m0, f0), (m1, f1) in zip(pts[:-1], pts[1:]):
        if m0 - f0 < 0 <= m1 - f1:
            if m1 - f1 == 0:
                return m1
            lam = (f0 - m0) / ((m1 - m0) - (f1 - f0))
            return m0 + lam * (m1 - m0)
    return pts[0][0] if pts[0][0] >= pts[0][1] else pts[-1][0]


def snorm_oracle(score, e_scores, t_scores, top_k):
    es = np.sort(e_scores)[-top_k:]
    ts = np.sort(t_scores)[-top_k:]
    return 0.5 * ((score - es.mean()) / es.std() + (score - ts.mean()) / ts.std())


# The per-trial loop implementations that the whole-array scoring code
# replaced, kept as references for it.


def cosine_score(e1, e2) -> float:
    e1 = np.asarray(e1, dtype=np.float64)
    e2 = np.asarray(e2, dtype=np.float64)
    n1, n2 = np.linalg.norm(e1), np.linalg.norm(e2)
    if n1 == 0.0 or n2 == 0.0:
        raise DataError("cosine score of a zero-norm embedding is undefined")
    return float(np.clip(np.dot(e1, e2) / (n1 * n2), -1.0, 1.0))


def loop_score_trials(trials, store):
    out = np.empty(len(trials))
    for i, t in enumerate(trials):
        out[i] = cosine_score(store[t.enroll_id], store[t.test_id])
    return out


def loop_adaptive_snorm(scores, trials, store, cohort):
    stats = {}

    def side_stats(uid):
        if uid not in stats:
            e = np.asarray(store[uid], dtype=np.float64)
            top = np.sort(cohort.members @ (e / np.linalg.norm(e)))[-cohort.top_k :]
            stats[uid] = (float(np.mean(top)), float(np.std(top)))
        return stats[uid]

    out = np.empty(len(trials))
    for i, t in enumerate(trials):
        mu_e, sd_e = side_stats(t.enroll_id)
        mu_t, sd_t = side_stats(t.test_id)
        if sd_e == 0.0 or sd_t == 0.0:
            raise DataError(f"degenerate cohort (zero spread) for trial {t.enroll_id} {t.test_id}")
        out[i] = 0.5 * ((scores[i] - mu_e) / sd_e + (scores[i] - mu_t) / sd_t)
    return out


# The per-trial forms that the one-pass loader replaced, kept as references:
# a frozen-dataclass trial built per row, and a quality feature that takes
# the log of the minimum.


@dataclass(frozen=True)
class DataclassTrial:
    enroll_id: str
    test_id: str
    label: int | None = None


def dataclass_load_trials(path) -> list:
    trials, labeled = [], None
    for lineno, parts in Reader(path).rows():
        if len(parts) not in (2, 3):
            raise FormatError(f"{path}:{lineno}: expected 2 or 3 fields, got {len(parts)}")
        labeled = len(parts) == 3 if labeled is None else labeled
        if (len(parts) == 3) != labeled:
            raise FormatError(f"{path}:{lineno}: mixed labeled/unlabeled rows")
        if labeled and parts[0] not in ("0", "1"):
            raise FormatError(f"{path}:{lineno}: label must be 0 or 1, got {parts[0]!r}")
        trials.append(DataclassTrial(parts[-2], parts[-1], label=int(parts[0]) if labeled else None))
    if not trials:
        raise FormatError(f"{path}: empty trial list")
    return trials


def log_of_min_quality_features(trial, durations):
    de, dt = durations[trial.enroll_id], durations[trial.test_id]
    return np.array([np.log(min(de, dt)), np.log(de) + np.log(dt)])


def score_bulk_trials(labeled=True):
    """20k trials over 1200 ids, 33 trial sides per id, the shape of perfbench's score_bulk list."""
    rng = np.random.default_rng(3)
    ids = [f"s{s:03d}_u{u:02d}" for s in range(120) for u in range(10)]
    pairs, labels = rng.integers(len(ids), size=(20000, 2)).tolist(), rng.integers(2, size=20000).tolist()
    return [Trial(ids[a], ids[b], label if labeled else None) for (a, b), label in zip(pairs, labels)]


def loop_eer(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_tar, n_non = int(np.sum(labels == 1)), int(np.sum(labels == 0))
    distinct = np.unique(scores)
    miss, fa, thresholds = [0.0], [1.0], [distinct[0] - 1.0]
    tar_scores, non_scores = scores[labels == 1], scores[labels == 0]
    for i, v in enumerate(distinct):
        miss.append(float(np.sum(tar_scores <= v)) / n_tar)
        fa.append(float(np.sum(non_scores > v)) / n_non)
        thresholds.append((v + distinct[i + 1]) / 2.0 if i + 1 < len(distinct) else v + 1.0)
    miss, fa, thresholds = np.asarray(miss), np.asarray(fa), np.asarray(thresholds)
    diff = miss - fa
    idx = int(np.argmax(diff >= 0))
    if diff[idx] == 0.0:
        return float(miss[idx]), float(thresholds[idx])
    lo, hi = idx - 1, idx
    lam = (fa[lo] - miss[lo]) / ((miss[hi] - miss[lo]) - (fa[hi] - fa[lo]))
    return float(miss[lo] + lam * (miss[hi] - miss[lo])), float(thresholds[lo] + lam * (thresholds[hi] - thresholds[lo]))


def random_scoring_case(rng):
    """A random store, a trial list that repeats ids, and a cohort (sometimes top_k = its size)."""
    dim = int(rng.integers(2, 17))
    ids = [f"u{i}" for i in range(int(rng.integers(1, 30)))]
    store = {uid: rng.standard_normal(dim) * rng.uniform(0.01, 100.0) for uid in ids}
    pairs = rng.integers(len(ids), size=(int(rng.integers(1, 80)), 2))
    trials = [Trial(ids[a], ids[b]) for a, b in pairs]
    members = rng.standard_normal((int(rng.integers(2, 25)), dim))
    members /= np.linalg.norm(members, axis=1, keepdims=True)
    top_k = members.shape[0] if rng.random() < 0.3 else int(rng.integers(1, members.shape[0] + 1))
    return store, trials, Cohort(members, top_k=top_k)


# ---------------------------------------------------------------------------
# cosine
# ---------------------------------------------------------------------------


def test_cosine_scale_invariance_exact():
    e = np.array([0.3, -1.2, 0.7])
    assert cosine_score(e, 2.0 * e) == 1.0


def test_cosine_orthogonal_and_antipodal():
    assert cosine_score([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert cosine_score([3.0, 4.0], [-3.0, -4.0]) == -1.0  # exact 3-4-5 norms
    assert abs(cosine_score([1.0, 2.0], [-1.0, -2.0]) + 1.0) < 1e-12


def test_cosine_zero_norm_rejected():
    with pytest.raises(DataError, match="zero-norm"):
        cosine_score([0.0, 0.0], [1.0, 0.0])


def test_cosine_positive_scaling_invariance():
    rng = np.random.default_rng(0)
    for _ in range(30):
        a, b = rng.standard_normal(8), rng.standard_normal(8)
        base = cosine_score(a, b)
        assert abs(cosine_score(a * rng.uniform(0.1, 50), b * rng.uniform(0.1, 50)) - base) < 1e-12


# ---------------------------------------------------------------------------
# cohort + s-norm
# ---------------------------------------------------------------------------


def manifest_for(ids_speakers):
    return Manifest(tuple(ManifestRow(u, s, f"{u}.wav") for u, s in ids_speakers))


def test_cohort_single_embedding_is_unit_mean():
    store = {"u1": np.array([3.0, 4.0]), "u2": np.array([0.0, 2.0])}
    manifest = manifest_for([("u1", "a"), ("u2", "b")])
    cohort = build_cohort(store, manifest, top_k=600)
    np.testing.assert_allclose(cohort.members[0], [0.6, 0.8])
    assert cohort.top_k == 2  # clamped to cohort size


def test_cohort_duplicate_embeddings_idempotent():
    store = {"u1": np.array([3.0, 4.0]), "u2": np.array([3.0, 4.0]), "u3": np.array([1.0, 0.0])}
    manifest = manifest_for([("u1", "a"), ("u2", "a"), ("u3", "b")])
    cohort = build_cohort(store, manifest, top_k=600)
    np.testing.assert_allclose(cohort.members[0], [0.6, 0.8])


def test_cohort_missing_speaker_embeddings():
    store = {"u1": np.array([1.0, 0.0])}
    manifest = manifest_for([("u1", "a"), ("u2", "b")])
    with pytest.raises(DataError, match="no embeddings"):
        build_cohort(store, manifest, top_k=600)


def test_cohort_needs_two_speakers():
    with pytest.raises(DataError, match="at least two"):
        Cohort(np.ones((1, 4)), top_k=1)


def test_snorm_centering_case():
    # cohort scores symmetric around the raw score with equal spread -> 0
    e = np.array([1.0, 0.0])
    t = np.array([np.cos(0.3), np.sin(0.3)])
    members = np.stack([
        _rot(e, 0.2), _rot(e, -0.2),  # enroll cohort scores cos(0.2) twice? use explicit trick below
    ])
    # simpler: construct via direct stats by hand-built cohort of two members
    # enroll-vs-members: cos(0.2), cos(-0.2) -> both cos(0.2): zero spread; build differently
    store = {"e": np.array([1.0, 0.0]), "t": np.array([1.0, 0.0])}
    members = np.stack([_rot(e, 0.1), _rot(e, 0.5)])
    cohort = Cohort(members, top_k=2)
    trials = [Trial("e", "t")]
    raw = np.array([(np.cos(0.1) + np.cos(0.5)) / 2.0])  # midpoint of both sides' cohort scores
    out = adaptive_snorm(raw, trials, store, cohort)
    np.testing.assert_allclose(out, [0.0], atol=1e-12)


def _rot(v, angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])


def test_snorm_hand_case():
    # enroll-side cohort scores {0.0, 0.4}, test-side {0.2, 0.3}, raw 0.3
    e = np.array([1.0, 0.0, 0.0])
    t = np.array([0.0, 1.0, 0.0])
    members = np.stack([
        0.0 * e + np.array([0.0, 0.2, np.sqrt(1 - 0.2**2)]),      # cos(e)=0.0, cos(t)=0.2
        0.4 * e + np.array([0.0, 0.3, 0.0]) + np.array([0.0, 0.0, np.sqrt(1 - 0.16 - 0.09)]),
    ])
    store = {"e": e, "t": t}
    cohort = Cohort(members, top_k=2)
    out = adaptive_snorm(np.array([0.3]), [Trial("e", "t")], store, cohort)
    # mu_e=0.2 sd_e=0.2, mu_t=0.25 sd_t=0.05 -> 0.5*(0.5 + 1.0)
    np.testing.assert_allclose(out, [0.5 * ((0.3 - 0.2) / 0.2 + (0.3 - 0.25) / 0.05)], atol=1e-12)


def test_snorm_degenerate_cohort_errors():
    store = {"e": np.array([1.0, 0.0]), "t": np.array([0.0, 1.0])}
    members = np.tile(np.array([np.sqrt(0.5), np.sqrt(0.5)]), (3, 1))
    cohort = Cohort(members, top_k=3)
    with pytest.raises(DataError, match="degenerate cohort.*e t"):
        adaptive_snorm(np.array([0.5]), [Trial("e", "t")], store, cohort)
    # only e's side is flat: the error names the first trial that uses it
    store = {"a": np.array([0.6, 0.8, 0.0]), "b": np.array([0.0, 0.6, 0.8]), "e": np.array([1.0, 0.0, 0.0])}
    cohort = Cohort(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), top_k=2)
    trials = [Trial("a", "b"), Trial("b", "e"), Trial("e", "a")]
    with pytest.raises(DataError, match="degenerate cohort.* for trial b e$"):
        adaptive_snorm(np.zeros(3), trials, store, cohort)


def test_score_trials_and_snorm_match_loop_reference():
    rng = np.random.default_rng(11)
    for _ in range(300):
        store, trials, cohort = random_scoring_case(rng)
        raw = score_trials(trials, store)
        assert np.max(np.abs(raw - loop_score_trials(trials, store))) <= 1e-12
        try:
            want = loop_adaptive_snorm(raw, trials, store, cohort)
        except DataError as exc:
            with pytest.raises(DataError, match=f"^{re.escape(str(exc))}$"):
                adaptive_snorm(raw, trials, store, cohort)
            continue
        # a small top-k spread scales s-norm values (and rounding) up, hence also a relative bound
        np.testing.assert_allclose(adaptive_snorm(raw, trials, store, cohort), want, rtol=1e-12, atol=1e-12)
    # a trial list longer than score_trials' 512-trial blocks, not a multiple of them
    store, trials, _ = random_scoring_case(rng)
    ids = sorted(store)
    trials = [Trial(ids[a], ids[b]) for a, b in rng.integers(len(ids), size=(9001, 2))]
    raw = score_trials(trials, store)
    assert np.max(np.abs(raw - loop_score_trials(trials, store))) <= 1e-12
    # einsum reduces each row alone, so the block size moves no bit: one unblocked gather is the byte reference
    emb = np.array([store[uid] for uid in ids])
    unit = dict(zip(ids, emb / np.linalg.norm(emb, axis=1)[:, None]))
    gather = [np.array([unit[getattr(t, side)] for t in trials]) for side in ("enroll_id", "test_id")]
    assert raw.tobytes() == np.clip(np.einsum("ij,ij->i", *gather), -1.0, 1.0).tobytes()


def test_empty_trial_list_scores_empty():
    cohort = Cohort(np.eye(2), top_k=2)
    assert score_trials([], {}).shape == (0,)
    assert adaptive_snorm(np.empty(0), [], {}, cohort).shape == (0,)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_embedding_rejected(bad):
    store = {"e": np.array([1.0, 0.5]), "t": np.array([bad, 1.0])}
    with pytest.raises(DataError, match="non-finite embedding for t"):
        score_trials([Trial("e", "t")], store)
    with pytest.raises(DataError, match="non-finite embedding for t"):
        adaptive_snorm(np.array([0.5]), [Trial("e", "t")], store, Cohort(np.eye(2), top_k=2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_snorm_non_finite_score_rejected(bad):
    store = {"e": np.array([1.0, 0.5]), "t": np.array([0.5, 1.0])}
    with pytest.raises(DataError, match="non-finite"):
        adaptive_snorm(np.array([bad]), [Trial("e", "t")], store, Cohort(np.eye(2), top_k=2))


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_cohort_non_finite_member_rejected(bad):
    with pytest.raises(DataError, match="non-finite"):
        Cohort(np.array([[1.0, 0.0], [bad, 1.0]]), top_k=2)


def test_zero_norm_embedding_messages():
    store = {"e": np.array([1.0, 0.5]), "t": np.zeros(2)}
    # one condition, one message: both scorers name the offending id
    with pytest.raises(DataError, match="^zero-norm embedding for t$"):
        score_trials([Trial("e", "t")], store)
    with pytest.raises(DataError, match="^zero-norm embedding for t$"):
        adaptive_snorm(np.array([0.5]), [Trial("e", "t")], store, Cohort(np.eye(2), top_k=2))



# (id, call given an output directory, message): each raises DataError with exactly this message, and
# writes nothing
SCORING_REFUSALS = [
    ("save_embeddings_empty_store", lambda out: save_embeddings({}, out / "s.sveb"),
     "refusing to write an empty embedding store"),
    ("save_embeddings_mixed_dims", lambda out: save_embeddings({"a": np.ones(2), "b": np.ones(3)}, out / "s.sveb"),
     "embedding b has dim 3, expected 2"),
    ("snorm_misaligned_scores",
     lambda out: adaptive_snorm(np.zeros(2), [Trial("e", "t")], {"e": np.ones(2), "t": np.ones(2)},
                                Cohort(np.eye(2), top_k=2)),
     "score set does not align with the trial list"),
    ("cohort_empty_store", lambda out: build_cohort({}, manifest_for([("u1", "a"), ("u2", "b")]), 600),
     "embedding store is empty"),
    ("cohort_zero_norm_speaker_mean",
     lambda out: build_cohort({"u1": np.array([1.0, 0.0]), "u2": np.array([-1.0, 0.0]), "u3": np.array([0.0, 1.0])},
                              manifest_for([("u1", "a"), ("u2", "a"), ("u3", "b")]), 600),
     "speaker a has a zero-norm mean embedding"),
    ("eer_misaligned_labels", lambda out: eer([0.1, 0.9], [1]), "scores and labels must be aligned 1-D arrays"),
    # a label of 2 was dropped from both classes
    ("eer_label_not_0_or_1", lambda out: eer([0.1, 0.2, 0.3, 0.4], [1, 0, 2, 1]),
     "EER labels must be 0 or 1, got 2 at trial 2"),
    # a label of 2 was fitted, with only the non-positive-weight warning
    ("calibration_label_not_0_or_1", lambda out: fit_calibration([0.1, 0.2, 0.3, 0.4], [1, 0, 2, 1]),
     "calibration labels must be 0 or 1, got 2.0 at trial 2"),
    ("calibration_label_negative", lambda out: fit_calibration([0.1, 0.2, 0.3], [1.0, -1.0, 0.0]),
     "calibration labels must be 0 or 1, got -1.0 at trial 1"),
    # zip wrote one line for the one score
    ("save_scores_count_mismatch",
     lambda out: save_scores([Trial("a", "b", 1), Trial("a", "c", 0)], [0.5], out / "s.txt"),
     "1 scores for 2 trials; no score file written"),
    ("save_scores_extra_score", lambda out: save_scores([Trial("a", "b", 1)], [0.5, 0.25], out / "s.txt"),
     "2 scores for 1 trials; no score file written"),
    ("cohort_top_k_zero", lambda out: Cohort(np.eye(2), top_k=0), "cohort top_k must lie in [1, member count]"),
    ("cohort_top_k_above_members", lambda out: Cohort(np.eye(2), top_k=3),
     "cohort top_k must lie in [1, member count]"),
]


@pytest.mark.parametrize("call, message", [r[1:] for r in SCORING_REFUSALS], ids=[r[0] for r in SCORING_REFUSALS])
def test_scoring_refusal_message(tmp_path, call, message):
    with pytest.raises(DataError) as info:
        call(tmp_path)
    assert str(info.value) == message
    assert list(tmp_path.iterdir()) == []


def test_snorm_unknown_id():
    cohort = Cohort(np.eye(2), top_k=2)
    with pytest.raises(DataError, match="unknown utterance id: t"):
        adaptive_snorm(np.array([0.5]), [Trial("e", "t")], {"e": np.ones(2)}, cohort)

def test_snorm_matches_oracle_random_instances():
    rng = np.random.default_rng(1)
    for _ in range(100):
        dim = int(rng.integers(3, 8))
        n_cohort = int(rng.integers(2, 21))
        top_k = int(rng.integers(1, n_cohort + 1))
        members = rng.standard_normal((n_cohort, dim))
        members /= np.linalg.norm(members, axis=1, keepdims=True)
        store = {"e": rng.standard_normal(dim), "t": rng.standard_normal(dim)}
        cohort = Cohort(members, top_k=top_k)
        raw = np.array([float(rng.uniform(-1, 1))])
        try:
            out = adaptive_snorm(raw, [Trial("e", "t")], store, cohort)
        except DataError:
            continue  # zero-spread draw
        e_scores = members @ (store["e"] / np.linalg.norm(store["e"]))
        t_scores = members @ (store["t"] / np.linalg.norm(store["t"]))
        expected = snorm_oracle(raw[0], e_scores, t_scores, top_k)
        assert abs(out[0] - expected) < 1e-9


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------


def test_fit_calibration_separable():
    rng = np.random.default_rng(2)
    scores = np.concatenate([rng.uniform(0.5, 1.0, 50), rng.uniform(-1.0, -0.5, 50)])
    labels = np.concatenate([np.ones(50), np.zeros(50)])
    model = fit_calibration(scores, labels)
    assert model.score_weight > 0
    from svkit.scoring import _bce_value_grad

    theta = np.array([model.score_weight, model.bias])
    value, _ = _bce_value_grad(theta, scores[:, None], labels)
    assert value < 1e-2


def test_fit_calibration_of_a_narrow_margin_set_does_not_overflow():
    # separable with a +-0.0005 margin: the Newton steps drive the score weight
    # past 1e4, so |z| at the outer scores passes exp's float64 range; with
    # pyproject's error::RuntimeWarning an overflow fails this test
    scores = np.concatenate([np.linspace(-1.0, -0.0005, 20), np.linspace(0.0005, 1.0, 20)])
    labels = (scores > 0).astype(np.float64)
    model = fit_calibration(scores, labels)
    assert model.score_weight > 1e4
    from svkit.scoring import _bce_value_grad

    theta = np.array([model.score_weight, model.bias])
    z = scores * theta[0] + theta[1]
    assert np.abs(z).max() > 710  # exp(|z|) overflows here, exp(-|z|) does not
    with np.errstate(over="ignore", invalid="ignore"):  # the two-sided form, for reference
        p = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
    resid = (p - labels) / len(labels)
    _, grad = _bce_value_grad(theta, scores[:, None], labels)
    assert grad.tobytes() == np.array([scores @ resid, resid.sum()]).tobytes()


def test_fit_calibration_null_labels():
    rng = np.random.default_rng(3)
    scores = rng.standard_normal(400)
    labels = (rng.random(400) < 0.5).astype(float)
    if labels.min() == labels.max():  # keep the fixture two-class
        labels[0] = 1 - labels[0]
    model = fit_calibration(scores, labels)
    assert abs(model.score_weight) < 0.5
    held_scores = rng.standard_normal(200)
    held_labels = (rng.random(200) < 0.5).astype(float)
    held_labels[:2] = [0, 1]
    raw_eer, _ = eer(held_scores, held_labels)
    cal_eer, _ = eer(apply_calibration(model, held_scores), held_labels)
    assert abs(raw_eer - cal_eer) < 0.02


def test_fit_calibration_degenerate_labels():
    with pytest.raises(DataError, match="single class"):
        fit_calibration(np.array([0.1, 0.2]), np.array([1.0, 1.0]))
    with pytest.raises(DataError, match="degenerate"):
        fit_calibration([], [])  # no trial at all


def test_fit_calibration_gradient_tolerance_reached():
    rng = np.random.default_rng(4)
    scores = rng.standard_normal(300)
    labels = (scores + rng.standard_normal(300) * 2 > 0).astype(float)
    model = fit_calibration(scores, labels)
    from svkit.scoring import _bce_value_grad

    theta = np.array([model.score_weight, model.bias])
    _, grad = _bce_value_grad(theta, scores[:, None], labels)
    assert np.max(np.abs(grad)) < 1e-7  # overlapping classes: optimum reachable


def test_fit_calibration_quality_aware_converges():
    from scipy.optimize import minimize

    from svkit.scoring import _bce_value_grad

    rng = np.random.default_rng(12)
    n = 3000
    labels = (rng.random(n) < 0.5).astype(float)
    seconds = np.exp(rng.uniform(np.log(2.0), np.log(20.0), (n, 2)))
    scores = labels * 2.0 - 1.0 + rng.standard_normal(n) * (0.5 + 2.0 / np.sqrt(seconds.min(axis=1)))
    quality = np.column_stack([np.log(seconds.min(axis=1)), np.log(seconds).sum(axis=1)])
    model = fit_calibration(scores, labels, quality)
    theta = np.array([model.score_weight, *model.quality_weights, model.bias])
    x = np.column_stack([scores, quality])
    _, grad = _bce_value_grad(theta, x, labels)
    assert np.max(np.abs(grad)) < 1e-8
    ref = minimize(_bce_value_grad, np.zeros(4), args=(x, labels), jac=True, method="BFGS", options={"gtol": 1e-12})
    np.testing.assert_allclose(theta, ref.x, rtol=1e-6)


def tanh_hessian_fit(x, labels):
    """The former `fit_calibration` loop, its Hessian weights from the logistic's tanh form
    `0.5 * (1 + tanh(z / 2))`: the reference for the one logistic form. Returns theta."""
    xb = np.column_stack([x, np.ones(len(labels))])
    theta = np.zeros(xb.shape[1])
    value, grad = scoring._bce_value_grad(theta, x, labels)
    for _ in range(scoring._NEWTON_MAX_ITER):
        if np.max(np.abs(grad)) < scoring._GRAD_TOL:
            break
        p = 0.5 * (1.0 + np.tanh(0.5 * (xb @ theta)))
        hessian = (xb.T * (p * (1.0 - p) / len(labels))) @ xb
        direction = np.linalg.lstsq(hessian, grad, rcond=None)[0]
        step = 1.0
        while True:
            cand = theta - step * direction
            cand_value, cand_grad = scoring._bce_value_grad(cand, x, labels)
            if cand_value <= value or step < 1e-18:
                break
            step *= 0.5
        if cand_value >= value:
            break
        theta, value, grad = cand, cand_value, cand_grad
    return theta


@pytest.mark.parametrize("seed", [4, 5, 12])
@pytest.mark.parametrize("with_quality", [False, True])
def test_fit_calibration_matches_the_tanh_form_hessian_fit(seed, with_quality):
    rng = np.random.default_rng(seed)
    n = 2000
    labels = (rng.random(n) < 0.5).astype(float)
    seconds = np.exp(rng.uniform(np.log(2.0), np.log(20.0), (n, 2)))
    scores = labels * 2.0 - 1.0 + rng.standard_normal(n) * (0.5 + 2.0 / np.sqrt(seconds.min(axis=1)))
    quality = np.column_stack([np.log(seconds.min(axis=1)), np.log(seconds).sum(axis=1)]) if with_quality else None
    model = fit_calibration(scores, labels, quality)
    theta = np.array([model.score_weight, *model.quality_weights, model.bias])
    ref = tanh_hessian_fit(scores[:, None] if quality is None else np.column_stack([scores, quality]), labels)
    assert np.max(np.abs(theta - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_fit_calibration_halves_a_step_that_raises_the_loss_and_stops_without_a_decrease(monkeypatch):
    # scores at a large offset with a tiny spread leave the fit at rounding level: the first full Newton
    # step rounds the loss up, its half does not, and a later step that cannot lower the loss ends the fit
    labels = np.tile([0.0, 1.0], 20)
    scores = 1e6 + 1e-6 * (np.random.default_rng(0).standard_normal(40) + labels)
    seq = []
    value_grad, lstsq = scoring._bce_value_grad, np.linalg.lstsq

    def spy_value_grad(theta, x, y):
        out = value_grad(theta, x, y)
        seq.append(out[0])
        return out

    def spy_lstsq(a, b, rcond=None):  # one Newton direction, taken from the last accepted point
        seq.append("newton")
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(scoring, "_bce_value_grad", spy_value_grad)
    monkeypatch.setattr(np.linalg, "lstsq", spy_lstsq)
    model = fit_calibration(scores, labels)
    first = seq.index("newton")
    assert seq[first + 1] > seq[first - 1]  # the full step raises the loss ...
    assert seq[first + 2] <= seq[first - 1]  # ... and the halved one does not
    accepted = [seq[i - 1] for i, v in enumerate(seq) if v == "newton"]
    assert len(accepted) >= 2 and accepted == sorted(accepted, reverse=True)  # the accepted losses never rise
    assert seq[-1] >= accepted[-1]  # the last step did not lower the loss, so the fit stopped there
    theta = np.array([model.score_weight, model.bias])
    assert value_grad(theta, scores[:, None], labels)[0] == accepted[-1]


def test_fit_calibration_warns_on_a_non_positive_score_weight(caplog):
    scores = np.array([0.9, 0.8, 0.3, 0.2, 0.7, 0.1, 0.5, 0.4])
    labels = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0])  # the higher score, the less likely a target
    with caplog.at_level(logging.WARNING, logger="svkit.scoring"):
        model = fit_calibration(scores, labels)
    assert model.score_weight < 0
    assert caplog.messages == [f"calibration fit produced a non-positive score weight ({model.score_weight:.4g})"]


@pytest.mark.parametrize("where", ["score", "label", "quality"])
def test_fit_calibration_non_finite_rejected(where):
    scores, labels, quality = np.array([0.1, 0.9, 0.3, 0.7]), np.array([0.0, 1.0, 0.0, 1.0]), np.ones((4, 2))
    {"score": scores, "label": labels, "quality": quality[:, 1]}[where][2] = np.inf if where == "quality" else np.nan
    with pytest.raises(DataError, match="finite"):
        fit_calibration(scores, labels, quality)


def test_apply_calibration_identity_and_affine():
    model = CalibrationModel(score_weight=1.0, quality_weights=(), bias=0.0)
    s = np.array([0.1, -0.4, 0.9])
    np.testing.assert_array_equal(apply_calibration(model, s), s)
    model = CalibrationModel(score_weight=2.0, quality_weights=(), bias=-1.0)
    np.testing.assert_allclose(apply_calibration(model, np.array([0.6])), [0.2], atol=1e-15)


def test_apply_calibration_preserves_eer_when_positive():
    rng = np.random.default_rng(5)
    scores = rng.standard_normal(60)
    labels = (rng.random(60) < 0.5).astype(int)
    labels[:2] = [0, 1]
    model = CalibrationModel(score_weight=1.7, quality_weights=(), bias=0.3)
    assert eer(scores, labels)[0] == eer(apply_calibration(model, scores), labels)[0]


@pytest.mark.parametrize("n_scores, rows", [(1, 3), (3, 1)])
def test_calibration_quality_rows_must_align_with_scores(n_scores, rows):
    # numpy would broadcast either shape into a silently wrong result
    model = CalibrationModel(score_weight=1.0, quality_weights=(0.5, 0.5), bias=0.0)
    with pytest.raises(DataError, match="quality feature rows must align with scores"):
        apply_calibration(model, np.full(n_scores, 0.1), np.ones((rows, 2)))
    with pytest.raises(DataError, match="quality feature rows must align with scores"):
        fit_calibration(np.array([0.1, 0.9]), np.array([0.0, 1.0]), np.ones((rows, 2)))


def test_apply_calibration_arity_mismatch():
    model = CalibrationModel(score_weight=1.0, quality_weights=(0.5,), bias=0.0)
    with pytest.raises(DataError, match="expects 1 quality features, got 0$"):
        apply_calibration(model, np.array([0.1]))
    with pytest.raises(DataError, match="quality features"):
        apply_calibration(model, np.array([0.1]), quality=np.zeros((1, 2)))


def test_quality_features_values_and_errors():
    trial = Trial("e", "t")
    pair = quality_features(trial, {"e": 2.0, "t": 3.0})
    assert type(pair) is tuple and [type(v) for v in pair] == [float, float]
    np.testing.assert_allclose(quality_features(trial, {"e": 1.0, "t": 1.0}), [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(
        quality_features(trial, {"e": np.e, "t": np.e**2}), [1.0, 3.0], atol=1e-12
    )
    with pytest.raises(DataError, match="nonpositive"):
        quality_features(trial, {"e": 1.0, "t": 0.0})
    # the enroll side is checked first, and a missing duration before a bad one of the same side
    for durations, message in [
        ({}, "no duration recorded for e"),
        ({"e": 0.0}, "nonpositive or non-finite duration 0.0 for e"),
        ({"e": 1.0}, "no duration recorded for t"),
        ({"e": -1.0, "t": 0.0}, "nonpositive or non-finite duration -1.0 for e"),
    ]:
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            quality_features(trial, durations)


def test_quality_features_byte_equal_to_the_log_of_the_minimum():
    rng = np.random.default_rng(17)
    ids = [f"u{i}" for i in range(300)]
    durations = dict(zip(ids, np.round(np.exp(rng.uniform(np.log(0.01), np.log(60.0), 300)), 3).tolist()))
    durations["u0"] = durations["u1"]  # equal durations too
    trials = [Trial(ids[a], ids[b]) for a, b in rng.integers(len(ids), size=(5000, 2))] + [Trial("u0", "u1")]
    got = np.array([quality_features(t, durations) for t in trials])
    assert got.tobytes() == np.array([log_of_min_quality_features(t, durations) for t in trials]).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_quality_features_non_finite_duration_rejected(bad):
    with pytest.raises(DataError, match="non-finite duration .* for t$"):
        quality_features(Trial("e", "t"), {"e": 2.0, "t": bad})


def test_no_quality_features_is_a_zero_column_matrix():
    # the former no-quality forms, x = scores[:, None] and a*s + b, are the byte references
    rng = np.random.default_rng(13)
    scores = rng.standard_normal(200)
    labels = (scores + rng.standard_normal(200) > 0).astype(float)
    assert _quality_rows(None, scores.size).shape == (200, 0)
    x = np.column_stack([scores, _quality_rows(None, scores.size)])
    assert x.tobytes() == scores[:, None].tobytes()
    model = fit_calibration(scores, labels)
    assert model.quality_weights == ()
    a, b = model.score_weight, model.bias
    assert apply_calibration(model, scores).tobytes() == (a * scores + b).tobytes()


@pytest.mark.parametrize("scores", [[np.nan, 0.5], [0.5, -np.inf], [[0.1, 0.2]]])
def test_apply_calibration_non_finite_or_misshaped_scores_rejected(scores):
    model = CalibrationModel(score_weight=1.0, quality_weights=(), bias=0.0)
    with pytest.raises(DataError, match="1-D with no non-finite"):
        apply_calibration(model, scores)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_apply_calibration_non_finite_quality_rejected(bad):
    model = CalibrationModel(score_weight=1.0, quality_weights=(0.5, 0.25), bias=0.0)
    quality = np.ones((3, 2))
    quality[1, 0] = bad
    with pytest.raises(DataError, match="row 1 are not finite"):
        apply_calibration(model, np.array([0.1, 0.2, 0.3]), quality)


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------


def test_ensemble_single_system_identity():
    s = np.array([0.25, -0.5, 0.125])
    np.testing.assert_array_equal(ensemble([s], [7.0]), s)


def test_ensemble_idempotent_on_identical_sets():
    s = np.array([0.25, -0.5, 0.125])
    np.testing.assert_array_equal(ensemble([s, s], [1.0, 1.0]), s)


def test_ensemble_weighted_mean():
    np.testing.assert_allclose(ensemble([np.array([1.0]), np.array([0.0])], [3.0, 1.0]), [0.75], atol=1e-15)


def test_ensemble_validation():
    with pytest.raises(DataError):
        ensemble([np.zeros(3), np.zeros(4)], [1.0, 1.0])
    with pytest.raises(DataError):
        ensemble([np.zeros(3)], [0.0])
    with pytest.raises(DataError):
        ensemble([np.zeros(3), np.zeros(3)], [1.0, -1.0])
    for weights in ([np.nan, 1.0], [np.inf, 1.0], [1e308, 1e308]):  # the last sum overflows
        with pytest.raises(DataError, match="finite"):
            ensemble([np.zeros(3), np.zeros(3)], weights)


@pytest.mark.parametrize("score_sets", [[[np.nan, 1.0], [0.0, np.inf]], [[[0.1, 0.2]], [[0.3, 0.4]]]])
def test_ensemble_non_finite_or_misshaped_scores_rejected(score_sets):
    with pytest.raises(DataError, match="ensemble scores must be 1-D with no non-finite"):
        ensemble(score_sets, [1.0, 1.0])


# ---------------------------------------------------------------------------
# EER
# ---------------------------------------------------------------------------


def test_eer_perfect_separation():
    value, threshold = eer([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])
    assert value == 0.0
    assert 0.2 < threshold < 0.8


def test_eer_fully_reversed():
    value, _ = eer([0.2, 0.8], [1, 0])
    assert value == 1.0
    assert eer_oracle([0.2, 0.8], [1, 0]) == 1.0


def test_eer_monotone_transform_invariance():
    rng = np.random.default_rng(6)
    scores = np.round(rng.uniform(-1, 1, 40), 3)
    labels = (rng.random(40) < 0.4).astype(int)
    labels[:2] = [0, 1]
    base, _ = eer(scores, labels)
    maps = [
        lambda s: 3.0 * s + 1.0,
        np.arctan,
        lambda s: s**3,
        np.exp,
        lambda s: np.sinh(2.0 * s),
    ]
    for f in maps:
        assert eer(f(scores), labels)[0] == base


def test_eer_matches_oracle_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 51))
        scores = np.round(rng.uniform(-1, 1, n), 2)
        labels = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(int)
        labels[: max(1, n // 4)] = 1
        labels[-max(1, n // 4) :] = 0
        value, _ = eer(scores, labels)
        assert abs(value - eer_oracle(scores, labels)) < 1e-9


def test_eer_bit_equal_to_loop_reference():
    rng = np.random.default_rng(13)
    for _ in range(2000):
        n = int(rng.integers(2, 120))
        scores = np.round(rng.normal(0.0, 1.0, n), int(rng.integers(0, 3)))  # many ties
        labels = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(int)
        labels[:2] = [0, 1]
        assert eer(scores, labels) == loop_eer(scores, labels)


def test_eer_single_class_rejected():
    with pytest.raises(DataError, match="target and one nontarget"):
        eer([0.5, 0.6], [1, 1])



@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eer_non_finite_rejected(bad):
    with pytest.raises(DataError, match="finite"):
        eer([0.9, bad, 0.1, 0.2], [1, 1, 0, 0])

def test_eer_threshold_separates_at_crossing():
    scores = np.array([0.1, 0.4, 0.35, 0.8, 0.75, 0.2])
    labels = np.array([0, 0, 1, 1, 1, 0])
    value, threshold = eer(scores, labels)
    miss = np.mean(scores[labels == 1] < threshold)
    fa = np.mean(scores[labels == 0] >= threshold)
    assert abs(miss - fa) <= max(miss, fa, 0.34)  # crossing lies between the step points


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def test_trials_roundtrip_labeled_and_unlabeled(tmp_path):
    trials = [Trial("a", "b", 1), Trial("c", "d", 0)]
    path = tmp_path / "t.txt"
    save_trials(trials, path)
    assert load_trials(path) == trials
    assert path.read_text() == "1 a b\n0 c d\n"
    unlabeled = [Trial("a", "b"), Trial("c", "d")]
    save_trials(unlabeled, path)
    assert load_trials(path) == unlabeled


MALFORMED_TRIALS = [
    ("1 a b\nc d\n", "2: mixed labeled/unlabeled rows"),
    ("a b\n1 c d\n", "2: mixed labeled/unlabeled rows"),
    ("a b\n2 c d\n", "2: mixed labeled/unlabeled rows"),  # mixed rows are reported before a bad label
    ("2 a b\n", "1: label must be 0 or 1, got '2'"),
    ("1 a b\n0 c d e\n", "2: expected 2 or 3 fields, got 4"),
    ("a\nb c\n", "1: expected 2 or 3 fields, got 1"),  # a first row of another width decides nothing
    ("1 a b c\n", "1: expected 2 or 3 fields, got 4"),
]


def test_trials_reject_mixed_and_bad_labels(tmp_path):
    path = tmp_path / "bad.txt"
    for text, match in MALFORMED_TRIALS:
        path.write_text(text)
        with pytest.raises(FormatError, match=match):
            load_trials(path)


def test_trial_is_a_named_tuple_used_by_position_and_keyword():
    t = Trial("e", "t", label=1)
    assert t == Trial("e", "t", 1) == ("e", "t", 1) and (t.enroll_id, t.test_id, t.label) == ("e", "t", 1)
    assert Trial("e", "t").label is None
    with pytest.raises(AttributeError):
        t.label = 0


@pytest.mark.parametrize("labeled", [True, False])
def test_load_trials_matches_the_former_loader_on_a_score_bulk_sized_list(tmp_path, labeled):
    path = tmp_path / "trials.txt"
    save_trials(score_bulk_trials(labeled=labeled), path)
    trials, want = load_trials(path), dataclass_load_trials(path)
    assert type(trials) is list and len(trials) == 20000
    assert all(type(t) is Trial for t in trials)
    assert [tuple(t) for t in trials] == [(t.enroll_id, t.test_id, t.label) for t in want]


@pytest.mark.parametrize("data", [text.encode() for text, _ in MALFORMED_TRIALS] + [b"", b"\n  \n", b"1 a b\n0 a \xff\n"])
def test_load_trials_raises_as_the_former_loader(tmp_path, data):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    with pytest.raises(FormatError) as want:
        dataclass_load_trials(path)
    with pytest.raises(FormatError, match=f"^{re.escape(str(want.value))}$"):
        load_trials(path)


# Line semantics of the trial and score loaders: lines end as `str.splitlines` ends them (CRLF, a lone CR,
# form feed, U+2028, ...), fields part on any whitespace run, and a whitespace-only line is skipped but
# counted. (file text, the trials or scores it loads or the message that follows the path)
TRIAL_LINE_CASES = [
    ("1 a b\r\n0 c d\r\n", [Trial("a", "b", 1), Trial("c", "d", 0)]),
    ("1 a b\r0 c d\r", [Trial("a", "b", 1), Trial("c", "d", 0)]),
    ("a b\x0cc d\u2028e f\u2029", [Trial("a", "b"), Trial("c", "d"), Trial("e", "f")]),
    ("1\ta\t\tb\n0 \t c\td\n", [Trial("a", "b", 1), Trial("c", "d", 0)]),
    (" \t \n1 a b\n\n   \n0 c d\n\n\n", [Trial("a", "b", 1), Trial("c", "d", 0)]),
    ("1 a b\r\n\r\n0 c d e\r\n", ":3: expected 2 or 3 fields, got 4"),
    ("1 a b\r\r0 c\r", ":3: mixed labeled/unlabeled rows"),
    ("1 a b\x0c \x0c2 c d", ":3: label must be 0 or 1, got '2'"),
    ("a b\u2028\u2028c", ":3: expected 2 or 3 fields, got 1"),
    ("1\x0ca b\n", ":1: expected 2 or 3 fields, got 1"),  # a form feed ends the line, it does not part fields
    (" \r\n\t\r\n", ": empty trial list"),
]
SCORE_LINE_CASES = [
    ("a b 0.5\r\nc d -0.25\r\n", [0.5, -0.25]),
    ("a b 0.5\rc d -0.25", [0.5, -0.25]),
    ("a\tb\t 0.5\x0c c d\t-0.25\n\n \n", [0.5, -0.25]),
    ("a b 0.5\u2028\u2028c d -0.25\u2028", [0.5, -0.25]),
    ("a b 0.5\r\n\r\nc d x\r\n", ":3: bad score value 'x'"),
    ("a b\t0.5\x0c \x0cc d", ":3: expected 'enroll test score'"),
    ("a b 0.5\u2028c d -0.25 1\n", ":2: expected 'enroll test score'"),
    ("\n\na b 0.5\n \t\n", ": 1 scores for 2 trials"),
]


@pytest.mark.parametrize("text, want", TRIAL_LINE_CASES)
def test_load_trials_line_semantics(tmp_path, text, want):
    path = tmp_path / "trials.txt"
    path.write_bytes(text.encode("utf-8"))
    if isinstance(want, str):
        with pytest.raises(FormatError, match=f"^{re.escape(f'{path}{want}')}$"):
            load_trials(path)
    else:
        assert load_trials(path) == want


@pytest.mark.parametrize("text, want", SCORE_LINE_CASES)
def test_load_scores_line_semantics(tmp_path, text, want):
    path = tmp_path / "scores.txt"
    path.write_bytes(text.encode("utf-8"))
    trials = [Trial("a", "b", 1), Trial("c", "d", 0)]
    if isinstance(want, str):
        with pytest.raises(FormatError, match=f"^{re.escape(f'{path}{want}')}$"):
            load_scores(path, trials)
    else:
        assert load_scores(path, trials).tolist() == want


def test_save_scores_formats_as_numpy_scalars_did(tmp_path):
    rng = np.random.default_rng(37)
    trials = [Trial(f"e{i}", f"t{i}") for i in range(500)]
    values = np.concatenate([rng.standard_normal(490) * 10.0 ** rng.integers(-8, 6, 490),
                             [0.0, -0.0, 0.5e-6, -0.5e-6, 1.5e-6, 2.5e-6, 1e30, -1e-30, 123456.7894565, -2.0]])
    for scores in (values, values.astype(np.float32), values.tolist()):
        save_scores(trials, scores, tmp_path / "s.txt")
        want = "".join(f"{t.enroll_id} {t.test_id} {s:.6f}\n" for t, s in zip(trials, np.asarray(scores)))
        assert (tmp_path / "s.txt").read_text() == want


def test_scores_roundtrip_and_alignment(tmp_path):
    trials = [Trial("a", "b", 1), Trial("c", "d", 0)]
    path = tmp_path / "s.txt"
    save_scores(trials, [0.123456789, -0.5], path)
    assert path.read_text() == "a b 0.123457\nc d -0.500000\n"
    scores = load_scores(path, trials)
    np.testing.assert_allclose(scores, [0.123457, -0.5])
    with pytest.raises(FormatError, match="match the trial list"):
        load_scores(path, list(reversed(trials)))
    for bad in ("nan", "inf", "-Infinity"):
        path.write_text(f"a b 0.5\nc d {bad}\n")
        with pytest.raises(FormatError, match=f"2: bad score value '{bad}'"):
            load_scores(path, trials)


def test_embedding_store_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    store = {f"utt{i}": rng.standard_normal(6).astype(np.float32).astype(np.float64) for i in range(5)}
    path = tmp_path / "e.sveb"
    save_embeddings(store, path)
    loaded = load_embeddings(path)
    assert set(loaded) == set(store)
    for k in store:
        np.testing.assert_array_equal(loaded[k], store[k])


@pytest.mark.parametrize("bad", [np.inf, np.nan, 1e39])  # 1e39 is finite in float64, inf in float32
def test_embedding_store_refuses_a_vector_its_reader_rejects(tmp_path, bad):
    path = tmp_path / "e.sveb"
    with pytest.raises(DataError, match="embedding b is not finite in float32; no store written"):
        save_embeddings({"a": np.ones(3), "b": np.array([1.0, bad, 2.0]), "c": np.ones(3)}, path)
    assert not path.exists()


def test_embedding_store_bad_magic(tmp_path):
    path = tmp_path / "bad.sveb"
    path.write_bytes(b"JUNK" + b"\x00" * 20)
    with pytest.raises(FormatError, match="bad magic"):
        load_embeddings(path)


def test_score_trials_unknown_id():
    with pytest.raises(DataError, match="unknown utterance"):
        score_trials([Trial("x", "y")], {"x": np.ones(3)})


def test_trial_labels_requires_labels():
    with pytest.raises(DataError, match="unlabeled"):
        trial_labels([Trial("a", "b")])
    with pytest.raises(DataError, match="^trial list is unlabeled$"):
        trial_labels([Trial("a", "b", 1), Trial("a", "c"), Trial("b", "c", 0)])
    for bad, shown in ((2, "2.0"), (0.5, "0.5"), (-1, "-1.0")):  # an int cast would have read 0.5 as 0
        with pytest.raises(DataError, match=f"^trial labels must be 0 or 1, got {re.escape(shown)} at trial 1$"):
            trial_labels([Trial("a", "b", 1), Trial("a", "c", bad)])


def test_trial_labels_as_the_former_list_form():
    trials = score_bulk_trials()
    labels, want = trial_labels(trials), np.asarray([t.label for t in trials])
    assert labels.dtype == want.dtype and labels.tobytes() == want.tobytes()

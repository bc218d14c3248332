"""Cosine scoring, s-norm, calibration, ensemble, and EER tests with
independent brute-force oracles."""

import re

import numpy as np
import pytest

from svkit.errors import DataError, FormatError
from svkit.scoring import (
    CalibrationModel,
    Cohort,
    Trial,
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
    return store, trials, Cohort(members, tuple(f"c{i}" for i in range(members.shape[0])), top_k=top_k)


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
        Cohort(np.ones((1, 4)), ("a",), top_k=1)


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
    cohort = Cohort(members, ("a", "b"), top_k=2)
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
    cohort = Cohort(members, ("a", "b"), top_k=2)
    out = adaptive_snorm(np.array([0.3]), [Trial("e", "t")], store, cohort)
    # mu_e=0.2 sd_e=0.2, mu_t=0.25 sd_t=0.05 -> 0.5*(0.5 + 1.0)
    np.testing.assert_allclose(out, [0.5 * ((0.3 - 0.2) / 0.2 + (0.3 - 0.25) / 0.05)], atol=1e-12)


def test_snorm_degenerate_cohort_errors():
    store = {"e": np.array([1.0, 0.0]), "t": np.array([0.0, 1.0])}
    members = np.tile(np.array([np.sqrt(0.5), np.sqrt(0.5)]), (3, 1))
    cohort = Cohort(members, ("a", "b", "c"), top_k=3)
    with pytest.raises(DataError, match="degenerate cohort.*e t"):
        adaptive_snorm(np.array([0.5]), [Trial("e", "t")], store, cohort)
    # only e's side is flat: the error names the first trial that uses it
    store = {"a": np.array([0.6, 0.8, 0.0]), "b": np.array([0.0, 0.6, 0.8]), "e": np.array([1.0, 0.0, 0.0])}
    cohort = Cohort(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), ("a", "b"), top_k=2)
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
    # a trial list longer than score_trials' 4096-trial blocks, not a multiple of them
    store, trials, _ = random_scoring_case(rng)
    ids = sorted(store)
    trials = [Trial(ids[a], ids[b]) for a, b in rng.integers(len(ids), size=(9001, 2))]
    assert np.max(np.abs(score_trials(trials, store) - loop_score_trials(trials, store))) <= 1e-12


def test_empty_trial_list_scores_empty():
    cohort = Cohort(np.eye(2), ("a", "b"), top_k=2)
    assert score_trials([], {}).shape == (0,)
    assert adaptive_snorm(np.empty(0), [], {}, cohort).shape == (0,)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_embedding_rejected(bad):
    store = {"e": np.array([1.0, 0.5]), "t": np.array([bad, 1.0])}
    with pytest.raises(DataError, match="non-finite embedding for t"):
        score_trials([Trial("e", "t")], store)
    with pytest.raises(DataError, match="non-finite embedding for t"):
        adaptive_snorm(np.array([0.5]), [Trial("e", "t")], store, Cohort(np.eye(2), ("a", "b"), top_k=2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_snorm_non_finite_score_rejected(bad):
    store = {"e": np.array([1.0, 0.5]), "t": np.array([0.5, 1.0])}
    with pytest.raises(DataError, match="non-finite"):
        adaptive_snorm(np.array([bad]), [Trial("e", "t")], store, Cohort(np.eye(2), ("a", "b"), top_k=2))


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_cohort_non_finite_member_rejected(bad):
    with pytest.raises(DataError, match="non-finite"):
        Cohort(np.array([[1.0, 0.0], [bad, 1.0]]), ("a", "b"), top_k=2)


def test_zero_norm_embedding_messages():
    store = {"e": np.array([1.0, 0.5]), "t": np.zeros(2)}
    with pytest.raises(DataError, match="cosine score of a zero-norm embedding"):
        score_trials([Trial("e", "t")], store)
    with pytest.raises(DataError, match="zero-norm embedding for t"):
        adaptive_snorm(np.array([0.5]), [Trial("e", "t")], store, Cohort(np.eye(2), ("a", "b"), top_k=2))



def test_snorm_unknown_id():
    cohort = Cohort(np.eye(2), ("a", "b"), top_k=2)
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
        cohort = Cohort(members, tuple(f"s{i}" for i in range(n_cohort)), top_k=top_k)
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
    with pytest.raises(DataError, match="quality features"):
        apply_calibration(model, np.array([0.1]))
    with pytest.raises(DataError, match="quality features"):
        apply_calibration(model, np.array([0.1]), quality=np.zeros((1, 2)))


def test_quality_features_values_and_errors():
    trial = Trial("e", "t")
    np.testing.assert_allclose(quality_features(trial, {"e": 1.0, "t": 1.0}), [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(
        quality_features(trial, {"e": np.e, "t": np.e**2}), [1.0, 3.0], atol=1e-12
    )
    with pytest.raises(DataError, match="nonpositive"):
        quality_features(trial, {"e": 1.0, "t": 0.0})


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_quality_features_non_finite_duration_rejected(bad):
    with pytest.raises(DataError, match="non-finite duration .* for t$"):
        quality_features(Trial("e", "t"), {"e": 2.0, "t": bad})


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


def test_trials_reject_mixed_and_bad_labels(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 a b\nc d\n")
    with pytest.raises(FormatError, match="mixed"):
        load_trials(path)
    path.write_text("2 a b\n")
    with pytest.raises(FormatError, match="label"):
        load_trials(path)


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


def test_embedding_store_rejects_an_id_its_length_field_cannot_hold(tmp_path):
    longest = "é" * (0xFFFF // 2) + "u"  # 65535 UTF-8 bytes: the largest id a u16 length holds
    save_embeddings({longest: np.ones(2)}, tmp_path / "ok.sveb")
    assert set(load_embeddings(tmp_path / "ok.sveb")) == {longest}
    path = tmp_path / "long.sveb"
    with pytest.raises(FormatError, match="embedding id too long"):
        save_embeddings({"short": np.ones(2), longest + "x": np.ones(2)}, path)
    assert not path.exists()


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

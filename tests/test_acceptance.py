"""Acceptance suite: ten verification criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines. Thresholds are pinned; runtime budgets are asserted.
"""

import time

import numpy as np
import pytest

from svkit.aggregator import normalized_weights
from svkit.config import RunConfig
from svkit.ecapa import EcapaConfig, count_params, save_checkpoint
from svkit.pipeline import System, extract_embeddings
from svkit.scoring import (
    Cohort,
    Trial,
    adaptive_snorm,
    apply_calibration,
    eer,
    fit_calibration,
    save_scores,
    score_trials,
    trial_labels,
)
from svkit.errors import DataError
from svkit.synthcorpus import SynthSpec, synth_corpus
from svkit.training import PlantSpec, TrainSchedule, train
from svkit.upstream import MockUpstream, MockUpstreamConfig

from gradcheck import grad_check
from test_scoring import eer_oracle, snorm_oracle


def report(n, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {n}: {detail}")
    assert passed, f"criterion {n}: {detail}"


# ---------------------------------------------------------------------------
# criterion 5/6 shared desk-scale run (pinned seeds and hyperparameters)
# ---------------------------------------------------------------------------

DESK_UPSTREAM = MockUpstreamConfig(n_layers=12, dim=64, seed=11)
DESK_ECAPA = EcapaConfig(in_dim=64, channels=64, res2_scale=8, dilations=(2, 3, 4),
                         se_bottleneck=32, attention_channels=32, embed_dim=64)
DESK_SCHEDULE = TrainSchedule(stage1_epochs=4, stage2_epochs=0, lmft_epochs=0,
                              crop_seconds=3.0, batch_size=16, lr_stage1=5e-3)
DESK_PLANT = PlantSpec(layer=3, strength=4.0)


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk_corpus")
    start = time.time()
    corpus = synth_corpus(SynthSpec(n_speakers=20, utts_per_speaker=10, utt_seconds=3, seed=7), out)
    result = train(corpus.train, DESK_SCHEDULE, upstream_cfg=DESK_UPSTREAM,
                   ecapa_cfg=DESK_ECAPA, plant=DESK_PLANT, seed=5)
    system = System.from_result(result, DESK_UPSTREAM, DESK_ECAPA, plant=DESK_PLANT)
    store = extract_embeddings(system, corpus.heldout)
    scores = score_trials(corpus.trials, store)
    labels = trial_labels(corpus.trials)
    return {
        "corpus": corpus,
        "result": result,
        "scores": scores,
        "labels": labels,
        "elapsed": time.time() - start,
    }


# ---------------------------------------------------------------------------
# 1. gradient fidelity
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_fidelity():
    start = time.time()
    worst = {}
    for component in ("aggregator", "ecapa", "aam", "calibration"):
        rep = grad_check(component, trial_count=1, epsilon=1e-5, seed=0)
        worst[component] = max(rep.values())
    elapsed = time.time() - start
    ok = all(v < 1e-4 for v in worst.values()) and elapsed < 120
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items()) + f" (<1e-4), {elapsed:.0f}s (<120s)"
    report(1, ok, f"gradient fidelity: {detail}")


# ---------------------------------------------------------------------------
# 2. EER oracle equivalence + monotone invariance
# ---------------------------------------------------------------------------


def test_criterion_2_eer_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(100)
    max_diff = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 51))
        scores = np.round(rng.uniform(-1, 1, n), 2)
        labels = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(int)
        labels[: max(1, n // 4)] = 1
        labels[-max(1, n // 4):] = 0
        value, _ = eer(scores, labels)
        max_diff = max(max_diff, abs(value - eer_oracle(scores, labels)))

    scores = np.round(rng.uniform(-1, 1, 60), 3)
    labels = (rng.random(60) < 0.5).astype(int)
    labels[:3] = 1
    labels[-3:] = 0
    base, _ = eer(scores, labels)
    invariant = True
    for _ in range(100):
        a = rng.uniform(0.1, 5.0)
        b = rng.uniform(0.1, 3.0)
        c = rng.uniform(-2.0, 2.0)
        mapped = a * scores**3 + b * scores + c  # strictly increasing
        invariant &= eer(mapped, labels)[0] == base
    elapsed = time.time() - start
    ok = max_diff < 1e-9 and invariant and elapsed < 10
    report(2, ok, f"EER oracle: max |diff| {max_diff:.2e} (<1e-9), "
                  f"monotone invariance {'held' if invariant else 'BROKEN'}, {elapsed:.1f}s (<10s)")


# ---------------------------------------------------------------------------
# 3. s-norm oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_3_snorm_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(200)
    max_diff = 0.0
    checked = 0
    while checked < 100:
        dim = int(rng.integers(3, 9))
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
            continue
        e_scores = members @ (store["e"] / np.linalg.norm(store["e"]))
        t_scores = members @ (store["t"] / np.linalg.norm(store["t"]))
        max_diff = max(max_diff, abs(out[0] - snorm_oracle(raw[0], e_scores, t_scores, top_k)))
        checked += 1
    elapsed = time.time() - start
    ok = max_diff < 1e-9 and elapsed < 10
    report(3, ok, f"s-norm oracle: max |diff| {max_diff:.2e} (<1e-9) over 100 instances, "
                  f"{elapsed:.1f}s (<10s)")


# ---------------------------------------------------------------------------
# 4. freeze contract
# ---------------------------------------------------------------------------


def test_criterion_4_freeze_contract(tmp_path):
    start = time.time()
    corpus = synth_corpus(SynthSpec(4, 4, 1, seed=3), tmp_path / "corpus")
    up_cfg = MockUpstreamConfig(n_layers=3, dim=12, seed=2)
    ec_cfg = EcapaConfig(in_dim=12, channels=16, res2_scale=8, dilations=(2, 3, 4),
                         se_bottleneck=8, attention_channels=8, embed_dim=12)

    def upstream_tensors(result):
        return {k: v for k, v in result.checkpoint_tensors().items() if k.startswith("upstream.")}

    init_path = tmp_path / "init.svck"
    save_checkpoint({f"upstream.{k}": p for k, p in MockUpstream(up_cfg).params.items()}, init_path)

    stage1 = train(corpus.train,
                   TrainSchedule(stage1_epochs=1, stage2_epochs=0, lmft_epochs=0,
                                 crop_seconds=1.0, batch_size=8, lr_stage1=1e-3),
                   upstream_cfg=up_cfg, ecapa_cfg=ec_cfg, seed=1)
    s1_path = tmp_path / "s1.svck"
    save_checkpoint(upstream_tensors(stage1), s1_path)
    frozen = init_path.read_bytes() == s1_path.read_bytes()

    stage2 = train(corpus.train,
                   TrainSchedule(stage1_epochs=1, stage2_epochs=1, lmft_epochs=0,
                                 crop_seconds=1.0, batch_size=8, lr_stage1=1e-3, lr_stage2=1e-3),
                   upstream_cfg=up_cfg, ecapa_cfg=ec_cfg, seed=1)
    s2_path = tmp_path / "s2.svck"
    save_checkpoint(upstream_tensors(stage2), s2_path)
    changed = init_path.read_bytes() != s2_path.read_bytes()

    elapsed = time.time() - start
    ok = frozen and changed and elapsed < 60
    report(4, ok, f"freeze contract: stage-1 bytes {'identical' if frozen else 'CHANGED'}, "
                  f"stage-2 bytes {'changed' if changed else 'UNCHANGED'}, {elapsed:.0f}s (<60s)")


# ---------------------------------------------------------------------------
# 5. end-to-end desk-scale separability
# ---------------------------------------------------------------------------


def test_criterion_5_desk_scale_separability(desk_run):
    value, _ = eer(desk_run["scores"], desk_run["labels"])
    weights = normalized_weights(desk_run["result"].agg_logits)
    argmax = int(np.argmax(weights))
    elapsed = desk_run["elapsed"]
    ok = value < 0.05 and argmax == DESK_PLANT.layer and elapsed < 600
    report(5, ok, f"desk-scale separability: held-out EER {value:.4f} (<0.05), "
                  f"weight argmax layer {argmax} (= {DESK_PLANT.layer}), "
                  f"w[3] {weights[3]:.4f} vs next {np.max(np.delete(weights, 3)):.4f}, "
                  f"{elapsed:.0f}s (<600s)")


# ---------------------------------------------------------------------------
# 6. aggregation reduction: one-hot on the planted layer
# ---------------------------------------------------------------------------


def test_criterion_6_one_hot_reduction(desk_run):
    learned_eer, _ = eer(desk_run["scores"], desk_run["labels"])
    one_hot = np.full(DESK_UPSTREAM.n_layers + 1, -40.0)
    one_hot[DESK_PLANT.layer] = 40.0
    result = desk_run["result"]
    system = System.from_checkpoint({**result.checkpoint_tensors(), "agg.logits": one_hot},
                                    DESK_UPSTREAM, DESK_ECAPA, plant=DESK_PLANT)
    store = extract_embeddings(system, desk_run["corpus"].heldout)
    onehot_eer, _ = eer(score_trials(desk_run["corpus"].trials, store), desk_run["labels"])
    diff = abs(onehot_eer - learned_eer)
    ok = diff < 0.01
    report(6, ok, f"aggregation reduction: learned EER {learned_eer:.4f}, "
                  f"one-hot(layer {DESK_PLANT.layer}) EER {onehot_eer:.4f}, |diff| {diff:.4f} (<0.01)")


# ---------------------------------------------------------------------------
# 7. default-config fidelity
# ---------------------------------------------------------------------------


def test_criterion_7_default_config_fidelity():
    cfg = RunConfig()
    checks = {
        "margin 0.2": cfg.aam.margin == 0.2,
        "LMFT margin 0.5": cfg.schedule.lmft_margin == 0.5,
        "crop 3 s": cfg.schedule.crop_seconds == 3.0,
        "LMFT crop 6 s": cfg.schedule.lmft_crop_seconds == 6.0,
        "augment probability 0.6": cfg.augment.probability == 0.6,
        "cohort top_k 600": cfg.scoring.cohort_top_k == 600,
        "epochs 10/5/2": (cfg.schedule.stage1_epochs, cfg.schedule.stage2_epochs,
                          cfg.schedule.lmft_epochs) == (10, 5, 2),
        "fbank 40-d 25 ms / 10 ms": (cfg.fbank.n_mels, cfg.fbank.win_ms, cfg.fbank.hop_ms)
                                     == (40, 25.0, 10.0),
    }
    ok = all(checks.values())
    bad = [k for k, v in checks.items() if not v]
    report(7, ok, "default-config fidelity: all reference values present"
                  if ok else f"default-config fidelity: MISMATCH {bad}")


# ---------------------------------------------------------------------------
# 8. parameter-count sanity
# ---------------------------------------------------------------------------


def test_criterion_8_parameter_count():
    start = time.time()
    n = count_params(EcapaConfig())  # full-scale defaults: C=512, E=192
    rel = abs(n - 6_000_000) / 6_000_000
    elapsed = time.time() - start
    ok = rel < 0.10 and elapsed < 5
    report(8, ok, f"parameter count: {n:,} = {rel:.1%} from 6M (<10%), {elapsed:.2f}s (<5s)")


# ---------------------------------------------------------------------------
# 9. end-to-end determinism
# ---------------------------------------------------------------------------


def _mini_pipeline(out_dir):
    corpus = synth_corpus(SynthSpec(5, 5, 1, seed=17), out_dir / "corpus")
    up_cfg = MockUpstreamConfig(n_layers=4, dim=16, seed=4)
    ec_cfg = EcapaConfig(in_dim=16, channels=16, res2_scale=8, dilations=(2, 3, 4),
                         se_bottleneck=8, attention_channels=8, embed_dim=16)
    plant = PlantSpec(layer=2, strength=3.0)
    result = train(corpus.train,
                   TrainSchedule(stage1_epochs=2, stage2_epochs=1, lmft_epochs=0,
                                 crop_seconds=1.0, batch_size=8, lr_stage1=3e-3, lr_stage2=1e-3),
                   upstream_cfg=up_cfg, ecapa_cfg=ec_cfg, plant=plant, seed=23)
    system = System.from_result(result, up_cfg, ec_cfg, plant=plant)
    store = extract_embeddings(system, corpus.heldout)
    scores = score_trials(corpus.trials, store)
    value, _ = eer(scores, trial_labels(corpus.trials))
    path = out_dir / "scores.txt"
    save_scores(corpus.trials, scores, path)
    return path.read_bytes(), value


def test_criterion_9_pipeline_determinism(tmp_path):
    bytes_a, eer_a = _mini_pipeline(tmp_path / "run_a")
    bytes_b, eer_b = _mini_pipeline(tmp_path / "run_b")
    ok = bytes_a == bytes_b
    report(9, ok, f"pipeline determinism: score files {'byte-identical' if ok else 'DIFFER'} "
                  f"({len(bytes_a)} bytes, EER {eer_a:.4f}/{eer_b:.4f})")


# ---------------------------------------------------------------------------
# 10. calibration safety
# ---------------------------------------------------------------------------


def test_criterion_10_calibration_rank_safety():
    rng = np.random.default_rng(300)
    failures = 0
    checked = 0
    for _ in range(50):
        n = int(rng.integers(20, 80))
        sep = rng.uniform(0.5, 3.0)
        labels = (rng.random(n) < 0.5).astype(int)
        labels[:2] = [0, 1]
        scores = rng.standard_normal(n) + sep * labels
        model = fit_calibration(scores, labels.astype(float))
        if model.score_weight <= 0:
            continue  # criterion applies to fits with positive score weight
        checked += 1
        raw_eer, _ = eer(scores, labels)
        cal_eer, _ = eer(apply_calibration(model, scores), labels)
        if cal_eer != raw_eer:
            failures += 1
    ok = failures == 0 and checked >= 45
    report(10, ok, f"calibration safety: EER unchanged on {checked - failures}/{checked} "
                   f"positive-weight fits (need all, {checked} of 50 sets eligible)")

"""The three benchmark workloads, driven through the public svkit API.

Each workload has a `setup` that writes its seeded inputs into a work
directory and a `run_pass` that performs one closed-loop request over them
and checks the outputs. A request is timed as consecutive steps (each svkit
call, each embedded row, each training epoch) that add up to its wall time,
and each step also in units of a reference computation timed at least every
0.1 s. svkit functions are always called through their module (`scoring.eer`,
not a bare `eer`), so a tracer that swaps module attributes sees every call.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

from svkit import aggregator, audio, ecapa, pipeline, scoring, synthcorpus, training, upstream

# The pinned desk system of the acceptance suite.
DESK_UPSTREAM = upstream.MockUpstreamConfig(n_layers=12, dim=64, seed=11)
DESK_ECAPA = ecapa.EcapaConfig(in_dim=64, channels=64, res2_scale=8, dilations=(2, 3, 4),
                               se_bottleneck=32, attention_channels=32, embed_dim=64)
DESK_PLANT = training.PlantSpec(layer=3, strength=4.0)

TOLERANCE = 1e-9  # recompute and oracle agreement, as in the acceptance oracles


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng((seed, stream))


@dataclass
class PassResult:
    wall_s: float
    attempted: int
    failed: int
    digests: dict
    train_s: float = 0.0
    crops: int = 0
    rows_per_epoch: int = 0
    embed_ms: list = field(default_factory=list)
    embed_audio_s: list = field(default_factory=list)
    embed_kind: list = field(default_factory=list)
    chain_s: float = 0.0
    trials: int = 0
    exact: dict = field(default_factory=dict)  # deterministic outputs: eer_pct, final_loss, ...
    steps: dict = field(default_factory=dict)  # step name -> seconds; they add up to wall_s
    ref_steps: dict = field(default_factory=dict)  # step name -> reference units (see StepClock)
    ref_s: list = field(default_factory=list)  # every reference time taken


# The reference computation: a fixed mix of interpreter work (a dict build),
# small matrix products, whole-array numpy passes and one logistic-loss
# gradient over 20 000 rows, as in svkit's own steps.
_REF_RNG = np.random.default_rng(0)
_REF_MATRIX = _REF_RNG.standard_normal((64, 64))
_REF_VECTOR = _REF_RNG.standard_normal(20_000)
_REF_KEYS = [f"k{i}" for i in range(300)]
_REF_FEATURES = _REF_RNG.standard_normal((20_000, 6))
_REF_WEIGHTS = 0.1 * _REF_RNG.standard_normal(6)


def reference_seconds() -> float:
    """The faster of two runs of the reference computation (about 1.5 ms each)."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        {key: i * 0.5 for i, key in enumerate(_REF_KEYS)}
        for _ in range(20):
            _REF_MATRIX @ _REF_MATRIX
        for _ in range(3):
            np.sort(_REF_VECTOR)
            np.cumsum(_REF_VECTOR * 1.0001)
        z = _REF_FEATURES @ _REF_WEIGHTS
        np.mean(np.logaddexp(0.0, z) - z)
        _REF_FEATURES.T @ (0.5 * (1.0 + np.tanh(0.5 * z)))
        best = min(best, time.perf_counter() - start)
    return best


class StepClock:
    """Splits one request into consecutive steps, in seconds and in reference units.

    Used as a context manager around the timed part of a request. `mark`
    closes the step that began at the previous mark, so the steps cover the
    request without gaps and add up to its wall time. Each step is cut into
    slices of at most SLICE_S by an interval timer: at the end of every slice
    the reference computation is timed, outside the slice, and the slice is
    counted in reference units at that reference time. A shared host that
    slows every computation for a while slows a slice and the reference run
    right after it alike, also within a step of several seconds.
    """

    SLICE_S = 0.1

    def __init__(self, result: PassResult):
        self.result = result
        self.step_s = self.step_ref = 0.0
        self.busy = False

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        self.last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.SLICE_S, self.SLICE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def _tick(self, signum, frame):
        if not self.busy:  # a tick during a mark is covered by the mark's slice
            self.busy = True
            self._slice()
            self.busy = False

    def _slice(self):
        took = time.perf_counter() - self.last
        ref = reference_seconds()
        self.step_s += took
        self.step_ref += took / ref
        self.result.ref_s.append(ref)
        self.last = time.perf_counter()

    def mark(self, name: str) -> float:
        self.busy = True
        self._slice()
        took, result = self.step_s, self.result
        result.steps[name] = result.steps.get(name, 0.0) + took
        result.ref_steps[name] = result.ref_steps.get(name, 0.0) + self.step_ref
        result.wall_s += took
        self.step_s = self.step_ref = 0.0
        self.busy = False
        return took


class _EpochMarks(logging.Handler):
    """Ends a step at each epoch record of the `svkit.training` logger."""

    def __init__(self, clock: StepClock):
        super().__init__(logging.INFO)
        self.clock, self.epochs = clock, 0

    def emit(self, record):
        if record.msg.startswith("epoch "):
            self.epochs += 1
            self.clock.mark(f"train.epoch{self.epochs}")


@contextmanager
def _epoch_steps(clock: StepClock):
    logger = logging.getLogger("svkit.training")
    handler, level = _EpochMarks(clock), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _timed_embeds(system, manifest, durations, kinds, clock: StepClock) -> dict:
    store, result = {}, clock.result
    for row in manifest.rows:
        store[row.utt_id] = system.embed_row(manifest, row)
        result.embed_ms.append(1e3 * clock.mark(f"embed_row.{row.utt_id}"))
        result.embed_audio_s.append(durations[row.utt_id])
        result.embed_kind.append(kinds[row.utt_id])
    return store


# ---------------------------------------------------------------------------
# train_desk
# ---------------------------------------------------------------------------


class TrainDesk:
    """Stage 1 (frozen upstream), stage 2 (tuned upstream) and large-margin
    fine-tuning on 6 s crops of 3 s utterances, with augmentation at p = 0.6,
    then embedding of every corpus utterance and s-normed scoring of the
    held-out trials against the training speakers."""

    # 10 stage-1 epochs: fewer leave the planted layer's weight lead within
    # noise for some corpus seeds
    schedule = training.TrainSchedule(stage1_epochs=10, stage2_epochs=1, lmft_epochs=1,
                                      crop_seconds=3.0, lmft_crop_seconds=6.0,
                                      batch_size=4, lr_stage1=1e-2)
    # the acceptance suite's training seed: crop, batch-order and augmentation
    # draws, and with them the work per request, do not depend on --seed
    train_seed = 5
    warmups = 0  # a request is ~20 s; both of a run's requests are timed
    max_heldout_eer = 0.05  # the acceptance suite's desk-scale separability bar

    def setup(self, work: Path, seed: int):
        self.work = work
        self.corpus = synthcorpus.synth_corpus(
            synthcorpus.SynthSpec(n_speakers=8, utts_per_speaker=5, utt_seconds=3.0, seed=seed),
            work / "corpus")
        # seeded banks: 2 s of coloured noise and 0.25 s exponentially decaying
        # impulse responses with a direct path, four of each
        rng = rng_for(seed, 1)
        (work / "noise").mkdir()
        (work / "rir").mkdir()
        for i in range(4):
            noise = lfilter([1.0], [1.0, -0.9], rng.standard_normal(32000))
            audio.write_wav(work / "noise" / f"n{i}.wav", audio.Waveform(0.5 * noise / np.max(np.abs(noise))))
            n = 4000
            ir = rng.standard_normal(n) * np.exp(-np.arange(n) / (16000 * rng.uniform(0.03, 0.08)))
            ir[0] = 3.0 * np.max(np.abs(ir))
            audio.write_wav(work / "rir" / f"r{i}.wav", audio.Waveform(0.9 * ir / np.max(np.abs(ir))))
        self.banks = audio.AugmentBanks(noises=audio.load_bank(work / "noise"),
                                        rirs=audio.load_bank(work / "rir"))
        scoring.save_trials([scoring.Trial(a.utt_id, b.utt_id, int(a.speaker_id == b.speaker_id))
                             for a, b in itertools.combinations(self.corpus.heldout.rows, 2)],
                            work / "heldout_trials.txt")
        everything = self.corpus.manifest
        self.durations = {r.utt_id: audio.read_wav_duration(everything.resolve(r)) for r in everything.rows}

    def run_pass(self, quiet) -> PassResult:
        work, corpus, sched = self.work, self.corpus, self.schedule
        epochs = sched.stage1_epochs + sched.stage2_epochs + sched.lmft_epochs
        out = PassResult(wall_s=0.0, attempted=0, failed=0, digests={},
                         crops=epochs * len(corpus.train), rows_per_epoch=len(corpus.train))
        with StepClock(out) as clock:
            with _epoch_steps(clock):
                result = training.train(corpus.train, sched, upstream_cfg=DESK_UPSTREAM, ecapa_cfg=DESK_ECAPA,
                                        augment_cfg=audio.AugmentConfig(probability=0.6), banks=self.banks,
                                        plant=DESK_PLANT, seed=self.train_seed)
            clock.mark("train.return")
            out.train_s = out.wall_s
            ecapa.save_checkpoint(result.checkpoint_tensors(), work / "checkpoint.svck")
            system = pipeline.System.from_result(result, DESK_UPSTREAM, DESK_ECAPA, plant=DESK_PLANT)
            clock.mark("save_checkpoint")
            store = _timed_embeds(system, corpus.manifest, self.durations, dict.fromkeys(self.durations, "wav"),
                                  clock)
            scoring.save_embeddings(store, work / "embeddings.sveb")
            clock.mark("save_embeddings")
            chain_start = out.wall_s
            trials = scoring.load_trials(work / "heldout_trials.txt")
            clock.mark("load_trials")
            raw = scoring.score_trials(trials, store)
            clock.mark("score_trials")
            cohort = scoring.build_cohort(store, corpus.train, top_k=4)
            clock.mark("build_cohort")
            normed = scoring.adaptive_snorm(raw, trials, store, cohort)
            clock.mark("adaptive_snorm")
            value, _ = scoring.eer(normed, scoring.trial_labels(trials))
            clock.mark("eer")
            scoring.save_scores(trials, normed, work / "heldout_scores.txt")
            clock.mark("save_scores")
            out.chain_s, out.trials = out.wall_s - chain_start, len(trials)
        with quiet():
            self._check(out, result, value)
        return out

    def _check(self, out, result, value):
        work, sched = self.work, self.schedule
        epochs = sched.stage1_epochs + sched.stage2_epochs + sched.lmft_epochs
        weights = aggregator.normalized_weights(result.agg_logits)
        checks = [np.isfinite(loss) for _, _, loss, _ in result.log]
        checks.append(len(result.log) == epochs)
        checks.append(int(np.argmax(weights)) == DESK_PLANT.layer)
        checks.append(value <= self.max_heldout_eer)
        out.attempted, out.failed = len(checks), checks.count(False)
        out.digests = {name: sha256(work / name)
                       for name in ("checkpoint.svck", "embeddings.sveb", "heldout_scores.txt")}
        out.exact = {"eer_pct": 100.0 * value, "final_loss": result.log[-1][2],
                     "planted_weight": float(weights[DESK_PLANT.layer])}


# ---------------------------------------------------------------------------
# enroll_mixed
# ---------------------------------------------------------------------------


class EnrollMixed:
    """Inference only: a manifest of 2-20 s utterances, half WAVs and half
    SVHS stacks exported from those WAVs, embedded row by row with
    `System.embed_row`, then an SVEB round trip."""

    n_speakers, utts_per_speaker = 8, 4
    # one length per utterance, log-spaced over 2-20 s; the seed only permutes them
    lengths = np.round(np.geomspace(2.0, 20.0, n_speakers * utts_per_speaker), 2)
    warmups = 1  # the first request fills lazy caches and is checked but not timed

    def setup(self, work: Path, seed: int):
        self.work = work
        rng = rng_for(seed, 2)
        spec = synthcorpus.SynthSpec(n_speakers=self.n_speakers, utts_per_speaker=self.utts_per_speaker,
                                     utt_seconds=2.0, seed=seed)
        lengths = rng.permutation(self.lengths)
        (work / "wav").mkdir()
        (work / "svhs").mkdir()
        rows = []
        self.durations, self.kinds, self.twin = {}, {}, {}
        profiles = [synthcorpus.synth_speaker(spec, s) for s in range(self.n_speakers)]
        # shortest first, so that the allocations and with them the memory peak
        # do not depend on which speaker the seed gave the long utterances
        for i in np.argsort(lengths, kind="stable"):
            s, u = divmod(int(i), self.utts_per_speaker)
            profile, seconds = profiles[s], float(lengths[i])
            uid = f"{profile.speaker_id}_u{u:03d}"
            wav_path = work / "wav" / f"{uid}.wav"
            audio.write_wav(wav_path, synthcorpus.synth_utterance(profile, u, seconds))
            stack = upstream.mock_forward(audio.read_wav(wav_path), DESK_UPSTREAM)
            upstream.save_stack(stack, work / "svhs" / f"{uid}.svhs")
            wav_row = upstream.ManifestRow(uid, profile.speaker_id, f"wav/{uid}.wav")
            svhs_row = upstream.ManifestRow(f"{uid}-svhs", profile.speaker_id, f"svhs/{uid}.svhs")
            rows += [wav_row, svhs_row]
            duration = audio.read_wav_duration(wav_path)
            self.durations.update({wav_row.utt_id: duration, svhs_row.utt_id: duration})
            self.kinds.update({wav_row.utt_id: "wav", svhs_row.utt_id: "svhs"})
            self.twin[uid] = svhs_row.utt_id
        order = rng.permutation(len(rows))
        upstream.save_manifest(upstream.Manifest(tuple(rows[i] for i in order), base_dir=work),
                               work / "manifest.tsv")
        params = ecapa.init_params(DESK_ECAPA, seed=seed, trainable=False)
        tensors = {f"ecapa.{k}": v.data for k, v in params.items()}
        tensors["agg.logits"] = rng.normal(0.0, 0.5, DESK_UPSTREAM.n_layers + 1)
        ecapa.save_checkpoint(tensors, work / "checkpoint.svck")

    def run_pass(self, quiet) -> PassResult:
        work = self.work
        out = PassResult(wall_s=0.0, attempted=0, failed=0, digests={})
        with StepClock(out) as clock:
            manifest = upstream.load_manifest(work / "manifest.tsv")
            tensors = ecapa.load_checkpoint(work / "checkpoint.svck")
            system = pipeline.System.from_checkpoint(tensors, DESK_UPSTREAM, DESK_ECAPA, plant=DESK_PLANT)
            clock.mark("load")
            store = _timed_embeds(system, manifest, self.durations, self.kinds, clock)
            scoring.save_embeddings(store, work / "store.sveb")
            loaded = scoring.load_embeddings(work / "store.sveb")
            clock.mark("sveb_round_trip")
        with quiet():
            self._check(out, store, loaded)
        return out

    def _check(self, out, store, loaded):
        work = self.work
        checks = [store[uid].tobytes() == store[twin].tobytes() for uid, twin in self.twin.items()]
        scoring.save_embeddings(loaded, work / "store_again.sveb")
        checks.append(
            loaded.keys() == store.keys()
            and all(loaded[k].tobytes() == store[k].astype("<f4").astype(np.float64).tobytes()
                    for k in store)
            and sha256(work / "store_again.sveb") == sha256(work / "store.sveb"))
        out.attempted, out.failed = len(checks), checks.count(False)
        out.digests = {"store.sveb": sha256(work / "store.sveb")}


# ---------------------------------------------------------------------------
# score_bulk
# ---------------------------------------------------------------------------


class ScoreBulk:
    """Scoring only: a speaker-clustered SVEB store, 20k labelled trials with
    many trials per utterance id, per-utterance durations, and the full chain
    from load_trials to save_scores with quality-aware calibration."""

    n_speakers, utts_per_speaker = 120, 10
    cohort_speakers, cohort_utts = 300, 2
    dim, n_trials, top_k = 64, 20000, 200
    oracle_sample = 400
    warmups = 1

    def setup(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        rng = rng_for(0, 3)  # the same embeddings, durations and pairs for every seed
        order = rng_for(seed, 3)
        n_spk = self.n_speakers + self.cohort_speakers
        name = order.permutation(n_spk).tolist()  # speaker s is named name[s]
        centers = rng.standard_normal((n_spk, self.dim))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        store, durations, cohort_rows = {}, {}, []
        for s in range(n_spk):
            cohort = s >= self.n_speakers
            for u in range(self.cohort_utts if cohort else self.utts_per_speaker):
                uid = f"{'c' if cohort else 's'}{name[s]:03d}_u{u:02d}"
                seconds = float(np.exp(rng.uniform(np.log(2.0), np.log(20.0))))
                # shorter utterances get noisier embeddings, so duration carries quality
                sigma = 0.6 + 1.2 / np.sqrt(seconds)
                store[uid] = centers[s] + sigma * rng.standard_normal(self.dim) / np.sqrt(self.dim)
                durations[uid] = round(seconds, 3)
                if cohort:
                    cohort_rows.append(upstream.ManifestRow(uid, f"spk{name[s]:03d}", f"{uid}.wav"))
        # alternating target and non-target trials, drawn whole-array so that
        # set-up time is mostly svkit's writes, not this generator
        per, half = self.utts_per_speaker, self.n_trials // 2
        spk = rng.integers(self.n_speakers, size=half)
        a = rng.integers(per, size=half)
        b = (a + rng.integers(1, per, size=half)) % per  # another utterance of the same speaker
        s1 = rng.integers(self.n_speakers, size=half)
        s2 = (s1 + rng.integers(1, self.n_speakers, size=half)) % self.n_speakers  # another speaker
        u1, u2 = rng.integers(per, size=(2, half))
        trials = []
        for s, x, y, p, q, v, w in zip(*(col.tolist() for col in (spk, a, b, s1, s2, u1, u2))):
            s, p, q = name[s], name[p], name[q]
            trials.append(scoring.Trial(f"s{s:03d}_u{x:02d}", f"s{s:03d}_u{y:02d}", 1))
            trials.append(scoring.Trial(f"s{p:03d}_u{v:02d}", f"s{q:03d}_u{w:02d}", 0))
        trials = [trials[i] for i in order.permutation(len(trials))]
        scoring.save_embeddings(store, work / "store.sveb")
        scoring.save_trials(trials, work / "trials.txt")
        upstream.save_manifest(upstream.Manifest(tuple(cohort_rows), base_dir=work), work / "cohort.tsv")
        (work / "durations.txt").write_text(
            "".join(f"{uid} {d}\n" for uid, d in sorted(durations.items())), encoding="utf-8")

    def run_pass(self, quiet) -> PassResult:
        work = self.work
        out = PassResult(wall_s=0.0, attempted=0, failed=0, digests={})
        with StepClock(out) as clock:
            trials = scoring.load_trials(work / "trials.txt")
            clock.mark("load_trials")
            store = scoring.load_embeddings(work / "store.sveb")
            clock.mark("load_embeddings")
            cohort_manifest = upstream.load_manifest(work / "cohort.tsv")
            durations = {uid: float(d) for uid, d in
                         (line.split() for line in (work / "durations.txt").read_text().splitlines())}
            clock.mark("load_cohort_durations")
            raw = scoring.score_trials(trials, store)
            clock.mark("score_trials")
            cohort = scoring.build_cohort(store, cohort_manifest, top_k=self.top_k)
            clock.mark("build_cohort")
            normed = scoring.adaptive_snorm(raw, trials, store, cohort)
            clock.mark("adaptive_snorm")
            quality = np.array([scoring.quality_features(t, durations) for t in trials])
            labels = scoring.trial_labels(trials)
            clock.mark("quality_features")
            model = scoring.fit_calibration(normed, labels.astype(np.float64), quality)
            clock.mark("fit_calibration")
            calibrated = scoring.apply_calibration(model, normed, quality)
            fused = scoring.ensemble([calibrated, normed], [1.0, 1.0])
            clock.mark("apply_calibration_ensemble")
            value, _ = scoring.eer(fused, labels)
            clock.mark("eer")
            scoring.save_scores(trials, fused, work / "scores.txt")
            clock.mark("save_scores")
            out.chain_s, out.trials = out.wall_s, len(trials)
        with quiet():
            self._check(out, trials, store, cohort, raw, normed, quality, labels, model, fused, value)
        return out

    def _check(self, out, trials, store, cohort, raw, normed, quality, labels, model, fused, value):
        work = self.work
        want_raw, want_norm = _vector_scores(trials, store, cohort.members, cohort.top_k)
        bad = (np.abs(raw - want_raw) > TOLERANCE) | (np.abs(normed - want_norm) > TOLERANCE)
        pick = rng_for(self.seed, 4).choice(len(trials), size=self.oracle_sample, replace=False)
        oracle_ok = abs(scoring.eer(fused[pick], labels[pick])[0]
                        - eer_oracle(fused[pick], labels[pick])) <= TOLERANCE
        out.attempted, out.failed = len(trials) + 1, int(bad.sum()) + (not oracle_ok)
        out.digests = {"scores.txt": sha256(work / "scores.txt")}
        out.exact = {"eer_pct": 100.0 * value,
                     "calibration_grad_max": _calibration_grad_max(model, normed, quality, labels)}


def _vector_scores(trials, store, members, top_k):
    """Cosine and adaptive s-norm recomputed with whole-array numpy operations."""
    ids = sorted({t.enroll_id for t in trials} | {t.test_id for t in trials})
    index = {uid: i for i, uid in enumerate(ids)}
    emb = np.array([store[uid] for uid in ids])
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    e = np.array([index[t.enroll_id] for t in trials])
    t = np.array([index[t.test_id] for t in trials])
    raw = np.clip(np.einsum("ij,ij->i", emb[e], emb[t]), -1.0, 1.0)
    top = np.sort(emb @ members.T, axis=1)[:, -top_k:]
    mu, sd = top.mean(axis=1), top.std(axis=1)
    norm = 0.5 * ((raw - mu[e]) / sd[e] + (raw - mu[t]) / sd[t])
    return raw, norm


def eer_oracle(scores, labels) -> float:
    """Brute force: miss/false-alarm just past every distinct score, interpolated at the crossing."""
    tar, non = scores[labels == 1], scores[labels == 0]
    points = [(np.mean(tar < t), np.mean(non >= t))
              for t in [scores.min() - 1.0] + [v + 1e-9 for v in sorted(set(scores))]]
    for (m0, f0), (m1, f1) in zip(points[:-1], points[1:]):
        if m0 - f0 < 0 <= m1 - f1:
            if m1 - f1 == 0:
                return m1
            lam = (f0 - m0) / ((m1 - m0) - (f1 - f0))
            return m0 + lam * (m1 - m0)
    return points[0][0] if points[0][0] >= points[0][1] else points[-1][0]


def _calibration_grad_max(model, scores, quality, labels) -> float:
    """Largest |d mean-BCE / d parameter| at the fitted calibration model."""
    x = np.column_stack([scores, quality])
    z = x @ np.array([model.score_weight, *model.quality_weights]) + model.bias
    resid = (0.5 * (1.0 + np.tanh(0.5 * z)) - labels) / len(labels)
    return float(np.max(np.abs(np.concatenate([x.T @ resid, [resid.sum()]]))))


WORKLOADS = {"train_desk": TrainDesk, "enroll_mixed": EnrollMixed, "score_bulk": ScoreBulk}

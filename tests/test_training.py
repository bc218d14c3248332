"""AAM loss, cropping and staged training, plus the tests of the checker in `tests/gradcheck.py`."""

import logging
import math
from dataclasses import replace

import numpy as np
import pytest

import svkit.autodiff as ad
import svkit.ecapa as em
from svkit.aggregator import aggregate_graph
from svkit.autodiff import Tensor
from svkit.audio import Waveform
from svkit.ecapa import EcapaConfig, save_checkpoint
from svkit.errors import ConfigError, DataError
from svkit.pipeline import System
from svkit.synthcorpus import SynthSpec, synth_corpus
from svkit.training import (
    AamConfig,
    Adam,
    PlantSpec,
    TrainSchedule,
    aam_loss,
    backward_per_utterance,
    crop_random,
    train,
)
from svkit.upstream import MockUpstream, MockUpstreamConfig
from gradcheck import fd_report, grad_check
from test_autodiff import retaining_backward


# ---------------------------------------------------------------------------
# AAM loss
# ---------------------------------------------------------------------------


def batch_aam_loss(embeddings: Tensor, labels, anchors: Tensor, cfg: AamConfig) -> Tensor:
    """The batch form of the AAM loss that `aam_loss` replaced: the mean over a (B, E) batch,
    with a (B, C) one-hot matrix and both target branches blended by a 0/1 mask. The
    reference that the one-utterance form equals to the byte."""
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


def aam_case(rng):
    """A seeded one-utterance case: embedding, label, anchors and config. E 2-39, C 2-29,
    margin 0-1.5, scale 1-64; one case in five puts the embedding near its anchor's
    antipode, where theta + m passes pi."""
    e, c = int(rng.integers(2, 40)), int(rng.integers(2, 30))
    cfg = AamConfig(margin=float(rng.uniform(0.0, 1.5)), scale=float(rng.uniform(1.0, 64.0)))
    anchors, label = rng.standard_normal((c, e)), int(rng.integers(0, c))
    if rng.random() < 0.2:
        emb = -anchors[label] * rng.uniform(0.5, 2.0) + 1e-3 * rng.standard_normal(e)
    else:
        emb = rng.standard_normal(e) * rng.uniform(0.01, 100.0)
    return emb, label, anchors, cfg


def test_aam_loss_equals_the_batch_form_to_the_byte():
    rng = np.random.default_rng(29)
    fallbacks, margins = 0, []
    for _ in range(300):
        emb, label, anchors, cfg = aam_case(rng)
        got = []
        for loss_of in (lambda e, a: aam_loss(e, label, a, cfg),
                        lambda e, a: batch_aam_loss(e.reshape(1, -1), [label], a, cfg)):
            e, a = Tensor(emb.copy(), requires_grad=True), Tensor(anchors.copy(), requires_grad=True)
            loss = loss_of(e, a)
            loss.backward()
            got.append((loss.shape, np.asarray(loss.data).tobytes(), e.grad.tobytes(), a.grad.tobytes()))
        assert got[0][0] == ()
        assert got[0][1:] == got[1][1:]
        cos_t = emb @ anchors[label] / np.linalg.norm(emb) / np.linalg.norm(anchors[label])
        fallbacks += cos_t <= math.cos(math.pi - cfg.margin)
        margins.append(cfg.margin)
    assert fallbacks >= 20 and min(margins) < 0.05 and max(margins) > 1.45


def test_aam_zero_margin_unit_scale_is_softmax_ce():
    rng = np.random.default_rng(0)
    b, e, n = 5, 4, 3
    emb = rng.standard_normal((b, e))
    anchors = rng.standard_normal((n, e))
    labels = rng.integers(0, n, b)
    cfg = AamConfig(margin=0.0, scale=1.0)

    eu = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    au = anchors / np.linalg.norm(anchors, axis=1, keepdims=True)
    cos = np.clip(eu @ au.T, -1 + 1e-7, 1 - 1e-7)
    expected = np.log(np.exp(cos).sum(axis=1)) - cos[np.arange(b), labels]
    for row, label, want in zip(emb, labels, expected):
        assert abs(aam_loss(Tensor(row), label, Tensor(anchors), cfg).item() - want) < 1e-12


def test_aam_closed_form_perfectly_aligned_pair():
    # one sample, two classes, cos(theta_y)=1, cos(theta_other)=-1, m=0.2, s=30
    emb = Tensor(np.array([2.0, 0.0]))
    anchors = Tensor(np.array([[5.0, 0.0], [-3.0, 0.0]]))
    cfg = AamConfig(margin=0.2, scale=30.0)
    loss = aam_loss(emb, 0, anchors, cfg).item()
    cos_y = 1.0 - 1e-7  # clamp
    cos_o = -1.0 + 1e-7
    target = 30.0 * math.cos(math.acos(cos_y) + 0.2)
    expected = math.log1p(math.exp(30.0 * cos_o - target))
    assert abs(loss - expected) < 1e-12


def test_aam_margin_fallback_branch():
    # nearly antipodal target: theta + m past pi must use the monotonic fallback
    emb = Tensor(np.array([-1.0, 1e-4]))
    anchors = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    cfg = AamConfig(margin=0.2, scale=30.0)
    loss = aam_loss(emb, 0, anchors, cfg).item()
    eu = emb.data / np.linalg.norm(emb.data)
    cos_y = float(np.clip(eu @ anchors.data[0] / np.linalg.norm(anchors.data[0]), -1 + 1e-7, 1 - 1e-7))
    cos_o = float(np.clip(eu @ anchors.data[1] / np.linalg.norm(anchors.data[1]), -1 + 1e-7, 1 - 1e-7))
    assert cos_y <= math.cos(math.pi - 0.2)
    target = 30.0 * (cos_y - 0.2 * math.sin(0.2))
    expected = math.log1p(math.exp(30.0 * cos_o - target))
    assert abs(loss - expected) < 1e-10


def test_aam_rejects_bad_labels_and_zero_embeddings():
    anchors = Tensor(np.eye(3))
    cfg = AamConfig()
    # the class count is the anchor count
    for label in (3, -1):
        with pytest.raises(DataError, match=r"label out of range \[0, 3\)"):
            aam_loss(Tensor(np.ones(3)), label, anchors, cfg)
    assert np.isfinite(aam_loss(Tensor(np.ones(3)), 3, Tensor(np.eye(4, 3) + 0.1), cfg).item())
    with pytest.raises(DataError, match="zero-norm"):
        aam_loss(Tensor(np.zeros(3)), 0, anchors, cfg)


def test_aam_invariant_to_embedding_rescale():
    rng = np.random.default_rng(1)
    emb = rng.standard_normal((4, 6))
    anchors = Tensor(rng.standard_normal((3, 6)))
    cfg = AamConfig()
    for row, label in zip(emb, [0, 1, 2, 1]):
        base = aam_loss(Tensor(row), label, anchors, cfg).item()
        assert abs(aam_loss(Tensor(row * 37.5), label, anchors, cfg).item() - base) < 1e-6


def test_aam_gradient_step_decreases_separable_toy():
    rng = np.random.default_rng(2)
    emb = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
    anchors = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
    labels = [0, 1, 0, 1, 0, 1]
    cfg = AamConfig(margin=0.0, scale=10.0)

    def mean_loss():
        return sum(aam_loss(emb[i], label, anchors, cfg) for i, label in enumerate(labels)) * (1 / len(labels))

    loss = mean_loss()
    loss.backward()
    before = loss.item()
    emb.data = emb.data - 1e-3 * emb.grad
    anchors.data = anchors.data - 1e-3 * anchors.grad
    assert mean_loss().item() < before


def test_aam_config_validation():
    with pytest.raises(ConfigError):
        AamConfig(margin=2.0)
    with pytest.raises(ConfigError):
        AamConfig(scale=0.0)


# ---------------------------------------------------------------------------
# cropping
# ---------------------------------------------------------------------------


def test_crop_exact_length_identity():
    wav = Waveform(np.random.default_rng(3).uniform(-0.5, 0.5, 48000))
    out = crop_random(wav, 3.0, np.random.default_rng(0))
    np.testing.assert_array_equal(out.samples, wav.samples)


def test_crop_tiles_short_utterance():
    x = np.random.default_rng(4).uniform(-0.5, 0.5, 16000)
    out = crop_random(Waveform(x), 3.0, np.random.default_rng(0))
    np.testing.assert_array_equal(out.samples, np.tile(x, 3))


def test_crop_deterministic_given_seed():
    wav = Waveform(np.random.default_rng(5).uniform(-0.5, 0.5, 64000))
    a = crop_random(wav, 2.0, np.random.default_rng(11))
    b = crop_random(wav, 2.0, np.random.default_rng(11))
    np.testing.assert_array_equal(a.samples, b.samples)


# ---------------------------------------------------------------------------
# staged training
# ---------------------------------------------------------------------------

UP = MockUpstreamConfig(n_layers=3, dim=12, seed=2)
EC = EcapaConfig(in_dim=12, channels=16, res2_scale=8, dilations=(2, 3, 4),
                 se_bottleneck=8, attention_channels=8, embed_dim=12)


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_corpus")
    return synth_corpus(SynthSpec(n_speakers=4, utts_per_speaker=4, utt_seconds=1, seed=3), out)


def tiny_schedule(**kw):
    base = dict(stage1_epochs=1, stage2_epochs=0, lmft_epochs=0, crop_seconds=1.0,
                batch_size=8, lr_stage1=1e-3, lr_stage2=1e-3, lr_lmft=1e-3)
    base.update(kw)
    return TrainSchedule(**base)


def test_zero_epoch_schedule_returns_initialization(tiny_corpus):
    res = train(tiny_corpus.train, tiny_schedule(stage1_epochs=0),
                upstream_cfg=UP, ecapa_cfg=EC, seed=1)
    init = em.init_params(EC, seed=1)
    for name, p in init.items():  # in the float32 form the checkpoint stores
        np.testing.assert_array_equal(res.system.ecapa[name].data, p.data.astype(np.float32))
    np.testing.assert_array_equal(res.agg_logits, np.zeros(4))
    assert res.log == []


def test_stage1_freezes_upstream_stage2_changes_it(tiny_corpus, tmp_path):
    res1 = train(tiny_corpus.train, tiny_schedule(), upstream_cfg=UP, ecapa_cfg=EC, seed=1)
    before = tmp_path / "up_before.svck"
    after = tmp_path / "up_after.svck"
    from svkit.upstream import MockUpstream

    save_checkpoint(MockUpstream(UP).params, before)
    save_checkpoint(res1.system.upstream.params, after)
    assert before.read_bytes() == after.read_bytes()

    res2 = train(tiny_corpus.train, tiny_schedule(stage2_epochs=1),
                 upstream_cfg=UP, ecapa_cfg=EC, seed=1)
    changed = tmp_path / "up_changed.svck"
    save_checkpoint(res2.system.upstream.params, changed)
    assert before.read_bytes() != changed.read_bytes()


def test_training_loss_decreases(tiny_corpus):
    res = train(tiny_corpus.train, tiny_schedule(stage1_epochs=4, lr_stage1=5e-3),
                upstream_cfg=UP, ecapa_cfg=EC,
                plant=PlantSpec(layer=1, strength=3.0), seed=5)
    losses = [row[2] for row in res.log]
    assert losses[-1] < losses[0]


def test_non_finite_parameter_after_the_last_step_raises(tiny_corpus, monkeypatch):
    # no loss follows the last step, so the parameters themselves are checked
    last = -(-len(tiny_corpus.train) // 3)
    step = Adam.step

    def poisoned(self):
        step(self)
        if self.t == last:
            self.params[-1].data = np.full_like(self.params[-1].data, np.inf)

    monkeypatch.setattr(Adam, "step", poisoned)
    with pytest.raises(DataError, match=f"diverged at stage 1 epoch 1 batch {last}: non-finite parameter"):
        train(tiny_corpus.train, tiny_schedule(batch_size=3), upstream_cfg=UP, ecapa_cfg=EC, seed=1)


def test_training_deterministic_given_seed(tiny_corpus):
    kw = dict(upstream_cfg=UP, ecapa_cfg=EC, seed=9)
    a = train(tiny_corpus.train, tiny_schedule(), **kw)
    b = train(tiny_corpus.train, tiny_schedule(), **kw)
    np.testing.assert_array_equal(a.agg_logits, b.agg_logits)
    ta, tb = a.checkpoint_tensors(), b.checkpoint_tensors()
    assert ta.keys() == tb.keys() and "aam.anchors" in ta
    for name in ta:
        np.testing.assert_array_equal(ta[name], tb[name])
    assert a.log == b.log


def test_lmft_stage_uses_larger_margin_crop(tiny_corpus, monkeypatch):
    seen = []

    def spy(wav, seconds, rng):
        seen.append(seconds)
        return crop_random(wav, seconds, rng)

    monkeypatch.setattr("svkit.training.crop_random", spy)
    sched = tiny_schedule(stage1_epochs=1, lmft_epochs=1)
    res = train(tiny_corpus.train, sched, upstream_cfg=UP, ecapa_cfg=EC, seed=2)
    stages = [row[1] for row in res.log]
    assert stages == [1, 3]
    assert res.log[1][3] == sched.lr_lmft
    n = len(tiny_corpus.train)  # one crop per row per epoch
    assert seen == [sched.crop_seconds] * n + [sched.lmft_crop_seconds] * n


def test_aam_config_sets_stages_1_and_2_and_lmft_keeps_its_scale(tiny_corpus, monkeypatch):
    seen = []

    def spy(embedding, label, anchors, cfg):
        seen.append((cfg.margin, cfg.scale))
        return aam_loss(embedding, label, anchors, cfg)

    monkeypatch.setattr("svkit.training.aam_loss", spy)
    sched = tiny_schedule(stage2_epochs=1, lmft_epochs=1)
    res = train(tiny_corpus.train, sched, upstream_cfg=UP, ecapa_cfg=EC,
                aam=AamConfig(margin=0.1, scale=10.0), seed=2)
    assert [row[1] for row in res.log] == [1, 2, 3]
    n = len(tiny_corpus.train)  # one call per utterance, one epoch per stage
    assert seen == [(0.1, 10.0)] * (2 * n) + [(sched.lmft_margin, 10.0)] * n


@pytest.fixture(scope="module")
def imported_corpus(tiny_corpus, tmp_path_factory):
    """The tiny training manifest with every row replaced by its exported mock stack."""
    from svkit.audio import read_wav
    from svkit.upstream import Manifest, ManifestRow, mock_forward, save_stack

    out = tmp_path_factory.mktemp("imported")
    rows = []
    for row in tiny_corpus.train.rows:
        save_stack(mock_forward(read_wav(tiny_corpus.train.resolve(row)), UP), out / f"{row.utt_id}.svhs")
        rows.append(ManifestRow(row.utt_id, row.speaker_id, f"{row.utt_id}.svhs"))
    return Manifest(tuple(rows), base_dir=out)


def stage_notices(caplog):
    """The stage notices `train` logged on svkit.training (its epoch records left out)."""
    messages = [r.getMessage() for r in caplog.records if r.name == "svkit.training"]
    return [m for m in messages if m.startswith("stage ")]


def test_import_mode_stage2_freezes_and_notices(imported_corpus, caplog):
    caplog.set_level(logging.INFO, logger="svkit.training")
    res = train(imported_corpus, tiny_schedule(stage1_epochs=1, stage2_epochs=1),
                upstream_cfg=UP, ecapa_cfg=EC, seed=4)
    assert not any(name.startswith("upstream.") for name in res.checkpoint_tensors())
    assert any("frozen" in n for n in stage_notices(caplog))
    assert [row[1] for row in res.log] == [1, 2]


@pytest.mark.parametrize("stage2,lmft", [(0, 1), (2, 0), (2, 1)])
def test_import_mode_gives_one_notice_per_stage_2_or_3_that_runs(imported_corpus, caplog, stage2, lmft):
    caplog.set_level(logging.INFO, logger="svkit.training")
    res = train(imported_corpus, tiny_schedule(stage1_epochs=0, stage2_epochs=stage2, lmft_epochs=lmft),
                upstream_cfg=UP, ecapa_cfg=EC, seed=4)
    stages = [2] * (stage2 > 0) + [3] * (lmft > 0)
    assert stage_notices(caplog) == [f"stage {s}: imported stacks are frozen; training downstream only" for s in stages]
    assert [row[:2] for row in res.log] == list(enumerate([2] * stage2 + [3] * lmft, 1))


def test_stage_2_divergence_names_the_global_epoch(tiny_corpus, monkeypatch):
    step = Adam.step

    def poisoned(self):  # stage 2's first step
        step(self)
        if self.lr == 2e-3 and self.t == 1:
            self.params[-1].data = np.full_like(self.params[-1].data, np.inf)

    monkeypatch.setattr(Adam, "step", poisoned)
    with pytest.raises(DataError, match="diverged at stage 2 epoch 2 batch 1: non-finite parameter"):
        train(tiny_corpus.train, tiny_schedule(stage2_epochs=1, lr_stage2=2e-3),
              upstream_cfg=UP, ecapa_cfg=EC, seed=1)


def mixed_manifest(corpus, out):
    """The tiny training manifest with every second row replaced by its exported mock stack."""
    from svkit.audio import read_wav
    from svkit.upstream import Manifest, ManifestRow, mock_forward, save_stack

    rows = []
    for i, row in enumerate(corpus.train.rows):
        path = str(corpus.train.resolve(row))
        if i % 2:
            save_stack(mock_forward(read_wav(path), UP), out / f"{row.utt_id}.svhs")
            path = f"{row.utt_id}.svhs"
        rows.append(ManifestRow(row.utt_id, row.speaker_id, path))
    return Manifest(tuple(rows), base_dir=out)


def test_mixed_manifest_tunes_upstream_through_wav_rows(tiny_corpus, tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="svkit.training")
    res = train(mixed_manifest(tiny_corpus, tmp_path), tiny_schedule(stage2_epochs=1),
                upstream_cfg=UP, ecapa_cfg=EC, seed=4)
    assert stage_notices(caplog) == []
    assert [row[1] for row in res.log] == [1, 2]
    initial, tuned = MockUpstream(UP).params, res.system.upstream.params
    assert set(tuned) == set(initial)
    assert any(np.any(tuned[k].data != v.data.astype(np.float32)) for k, v in initial.items())


def test_adam_leaves_the_upstream_untouched_after_an_svhs_only_batch(tiny_corpus, tmp_path, monkeypatch):
    # at batch size 1 a stage-2 batch of one SVHS row gives the tuned upstream no gradient, and Adam skips
    # a parameter without one: its moments from earlier WAV batches must not move it
    tuned, steps = {}, []
    trainable, step = System.trainable, Adam.step

    def spy_trainable(self, tune_upstream):
        if tune_upstream:
            tuned.update({k: p for k, p in self.tensors.items() if k.startswith("upstream.")})
        return trainable(self, tune_upstream)

    def spy_step(self):
        before = {k: p.data.tobytes() for k, p in tuned.items()}
        no_grad = all(p.grad is None for p in tuned.values())
        step(self)
        if tuned:
            steps.append((no_grad, all(p.data.tobytes() == before[k] for k, p in tuned.items())))

    monkeypatch.setattr(System, "trainable", spy_trainable)
    monkeypatch.setattr(Adam, "step", spy_step)
    manifest = mixed_manifest(tiny_corpus, tmp_path)
    train(manifest, tiny_schedule(stage2_epochs=1, batch_size=1), upstream_cfg=UP, ecapa_cfg=EC, seed=4)
    n_svhs = sum(row.path.endswith(".svhs") for row in manifest.rows)
    assert len(steps) == len(manifest) and 0 < n_svhs < len(manifest)
    assert [unchanged for no_grad, unchanged in steps if no_grad] == [True] * n_svhs
    assert not any(unchanged for no_grad, unchanged in steps if not no_grad)  # a WAV batch moves it
    first_wav = next(i for i, (no_grad, _) in enumerate(steps) if not no_grad)
    assert any(no_grad for no_grad, _ in steps[first_wav + 1 :])  # an SVHS-only batch comes after a WAV one


def test_row_layers_is_the_one_shape_and_plant_site(tiny_corpus, tmp_path, monkeypatch):
    # every crop of every stage, WAV or SVHS, frozen or tuned, is checked and planted by one call
    import svkit.pipeline as pipeline_mod

    calls, planted = [], []
    row_layers, speaker_offset = System.row_layers, pipeline_mod.speaker_offset

    def spy(system, layers, manifest, row):
        out = row_layers(system, layers, manifest, row)
        calls.append((row.utt_id, row.path.endswith(".svhs"), type(out[0])))
        return out

    def count_plant(speaker_id, dim):
        planted.append(speaker_id)
        return speaker_offset(speaker_id, dim)

    manifest = mixed_manifest(tiny_corpus, tmp_path)
    monkeypatch.setattr(System, "row_layers", spy)
    monkeypatch.setattr(pipeline_mod, "speaker_offset", count_plant)
    train(manifest, tiny_schedule(stage2_epochs=1, lmft_epochs=1), upstream_cfg=UP, ecapa_cfg=EC,
          plant=PlantSpec(layer=1, strength=3.0), seed=4)
    n = len(manifest)  # one crop per row per epoch
    assert len(calls) == len(planted) == 3 * n
    for stage in range(3):
        crops = calls[stage * n : (stage + 1) * n]
        assert sorted(utt for utt, _, _ in crops) == sorted(row.utt_id for row in manifest.rows)
        assert all(kind is (Tensor if stage > 0 and not svhs else np.ndarray) for _, svhs, kind in crops)


def test_import_only_run_never_draws_a_mock_upstream(imported_corpus, monkeypatch):
    from svkit.pipeline import System, extract_embeddings

    def no_seeded_mock(cfg):
        raise AssertionError("an import-only run drew a seeded mock upstream")

    monkeypatch.setattr(MockUpstream, "_init_params", staticmethod(no_seeded_mock))
    res = train(imported_corpus, tiny_schedule(stage2_epochs=1), upstream_cfg=UP, ecapa_cfg=EC, seed=4)
    embs = extract_embeddings(System.from_result(res, UP, EC), imported_corpus)
    assert set(embs) == {row.utt_id for row in imported_corpus.rows}


def test_import_only_training_reads_each_row_once_per_epoch_through_pipeline_load_stack(imported_corpus, monkeypatch):
    # a stored row is read as `embed` reads it, by `System.stack_for`, so `pipeline.load_stack` sees every read
    import svkit.pipeline as pipeline_mod

    reads, load_stack = [], pipeline_mod.load_stack

    def spy(path):
        reads.append(path.name)
        return load_stack(path)

    monkeypatch.setattr(pipeline_mod, "load_stack", spy)
    res = train(imported_corpus, tiny_schedule(stage1_epochs=2, stage2_epochs=1, lmft_epochs=1),
                upstream_cfg=UP, ecapa_cfg=EC, seed=4)
    names, n = sorted(row.path for row in imported_corpus.rows), len(imported_corpus)
    assert len(res.log) == 4 and len(reads) == 4 * n
    assert all(sorted(reads[e * n : (e + 1) * n]) == names for e in range(4))


def stage2_step(n_crops=3):
    """One tuned stage-2 batch from fresh parameters: a generator that builds each crop's
    embedding when drawn (a `forward_graph` crop, `aggregate_graph` and `ecapa.forward`),
    the crops' labels, and the parameters by checkpoint name."""
    system = System.init(UP, EC, n_classes=2, seed=3)
    system.logits.data = np.linspace(-0.5, 0.5, UP.n_layers + 1)  # a mix that is not uniform
    upstream = system.upstream  # the drawn mock's tensors join the system's
    system.trainable(tune_upstream=True)
    crops = np.random.default_rng(5).uniform(-0.5, 0.5, (n_crops, 8 * 320))
    embs = (em.forward(aggregate_graph(upstream.forward_graph(Tensor(c)), system.logits), system.ecapa, EC)
            for c in crops)
    return embs, [0, 1, 0][:n_crops], system.tensors


def batch_loss(embs, labels, anchors, cfg):
    """The batch form: `batch_aam_loss` over `ad.concat` of every embedding, one graph for
    the whole batch. The reference for `backward_per_utterance`."""
    return batch_aam_loss(ad.concat([e.reshape(1, -1) for e in embs]), labels, anchors, cfg)


def test_tuned_stage_2_gradients_equal_the_retaining_backward():
    embs, labels, params = stage2_step()
    batch_loss(embs, labels, params["aam.anchors"], AamConfig()).backward()
    ref_embs, ref_labels, ref_params = stage2_step()
    retaining_backward(batch_loss(ref_embs, ref_labels, ref_params["aam.anchors"], AamConfig()))
    assert params.keys() == ref_params.keys()
    for name, p in params.items():
        assert p.grad is not None and p.grad.tobytes() == ref_params[name].grad.tobytes(), name


def rel_close(a, b, tol=1e-10):
    """|a - b| within `tol` of b's largest magnitude, elementwise (a zero `b` needs an equal `a`)."""
    return np.max(np.abs(a - b)) <= tol * np.max(np.abs(b))


@pytest.mark.parametrize("n_crops", [3, 1])
def test_backward_per_utterance_equals_the_batch_backward(n_crops):
    embs, labels, params = stage2_step(n_crops)
    drawn = []

    def one_graph_at_a_time():
        for emb in embs:
            assert all(e._parents == () for e in drawn)  # each earlier utterance's graph is released
            drawn.append(emb)
            yield emb

    value = backward_per_utterance(one_graph_at_a_time(), labels, params["aam.anchors"], AamConfig(), "test")
    ref_embs, ref_labels, ref_params = stage2_step(n_crops)
    ref = batch_loss(ref_embs, ref_labels, ref_params["aam.anchors"], AamConfig())
    ref.backward()
    assert len(drawn) == n_crops
    assert abs(value - ref.item()) <= 1e-10 * abs(ref.item())
    for name, p in params.items():
        assert p.grad is not None and rel_close(p.grad, ref_params[name].grad), name


def test_training_steps_on_the_batch_gradient_with_a_short_last_batch(tiny_corpus, monkeypatch):
    # batch size 3 leaves a shorter last batch, whose terms are scaled by its own size; stage 2
    # adds the tuned upstream. Every optimizer step sees the batch form's gradient.
    assert len(tiny_corpus.train) % 3
    step = Adam.step

    def run(backward):
        grads = []

        def spy(self):
            grads.append([None if p.grad is None else p.grad.copy() for p in self.params])
            step(self)

        with monkeypatch.context() as m:
            m.setattr(Adam, "step", spy)
            m.setattr("svkit.training.backward_per_utterance", backward)
            res = train(tiny_corpus.train, tiny_schedule(stage2_epochs=1, batch_size=3),
                        upstream_cfg=UP, ecapa_cfg=EC, seed=6)
        return res.log, grads

    def batch_backward(embs, labels, anchors, cfg, where):
        loss = batch_loss(list(embs), labels, anchors, cfg)
        loss.backward()
        return loss.item()

    log, grads = run(backward_per_utterance)
    ref_log, ref_grads = run(batch_backward)
    assert len(grads) == len(ref_grads) == 2 * -(-len(tiny_corpus.train) // 3)
    for (epoch, stage, loss, lr), ref in zip(log, ref_log, strict=True):
        assert (epoch, stage, lr) == (ref[0], ref[1], ref[3]) and abs(loss - ref[2]) <= 1e-10 * abs(ref[2])
    for step_grads, ref_step in zip(grads, ref_grads):
        for g, r in zip(step_grads, ref_step, strict=True):
            assert (g is None) == (r is None)
            if g is not None:
                assert rel_close(g, r)


def test_single_speaker_manifest_rejected(tmp_path):
    from svkit.upstream import Manifest, ManifestRow

    manifest = Manifest((ManifestRow("u1", "spk0", "x.wav"), ManifestRow("u2", "spk0", "y.wav")))
    with pytest.raises(DataError, match="two speakers"):
        train(manifest, tiny_schedule(), upstream_cfg=UP, ecapa_cfg=EC, seed=0)


# (id, call given the tiny corpus, error, message)
TRAINING_REFUSALS = [
    ("ecapa_in_dim_not_upstream_dim",
     lambda corpus: train(corpus.train, tiny_schedule(), upstream_cfg=UP, ecapa_cfg=replace(EC, in_dim=13), seed=0),
     ConfigError, "ecapa.in_dim must equal the upstream dim"),
    ("negative_epoch_count", lambda corpus: tiny_schedule(stage2_epochs=-1), ConfigError,
     "schedule.stage2_epochs must be >= 0, got -1"),
    ("batch_size_zero", lambda corpus: tiny_schedule(batch_size=0), ConfigError, "schedule.batch_size must be >= 1, got 0"),
    ("crop_under_one_sample", lambda corpus: crop_random(Waveform(np.ones(16)), 1e-5, np.random.default_rng(0)),
     DataError, "crop length must be at least one sample"),
]


@pytest.mark.parametrize("call, error, message", [r[1:] for r in TRAINING_REFUSALS],
                         ids=[r[0] for r in TRAINING_REFUSALS])
def test_training_refusal_message(tiny_corpus, call, error, message):
    with pytest.raises(error) as info:
        call(tiny_corpus)
    assert str(info.value) == message


def test_training_with_augmentation_banks(tiny_corpus):
    from svkit.audio import AugmentBanks, AugmentConfig, Waveform

    rng = np.random.default_rng(17)
    banks = AugmentBanks(
        noises=(Waveform(rng.uniform(-0.2, 0.2, 20000)),),
        rirs=(Waveform(np.concatenate([[1.0], rng.uniform(-0.02, 0.02, 40)])),),
    )
    res = train(tiny_corpus.train, tiny_schedule(), upstream_cfg=UP, ecapa_cfg=EC,
                augment_cfg=AugmentConfig(probability=0.8), banks=banks, seed=6)
    assert len(res.log) == 1 and np.isfinite(res.log[0][2])
    again = train(tiny_corpus.train, tiny_schedule(), upstream_cfg=UP, ecapa_cfg=EC,
                  augment_cfg=AugmentConfig(probability=0.8), banks=banks, seed=6)
    assert res.log == again.log


# ---------------------------------------------------------------------------
# optimizer and gradient checks
# ---------------------------------------------------------------------------


def test_adam_converges_on_quadratic():
    p = Tensor(np.array([5.0, -3.0]), requires_grad=True)
    opt = Adam([p], lr=0.1)
    for _ in range(500):
        opt.zero_grad()
        (p * p).sum().backward()
        opt.step()
    assert np.all(np.abs(p.data) < 1e-3)


def test_grad_check_components_pass():
    for comp in ("aggregator", "aam", "calibration"):
        report = grad_check(comp, trial_count=2)
        assert max(report.values()) < 1e-4, (comp, report)


def test_fd_report_freezes_the_difference_loop_and_restores_requires_grad():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([3.0]))
    params = {"a": a, "b": b}
    flags = []

    def make_loss():
        flags.append((a.requires_grad, b.requires_grad))
        return (a * a).sum() + (a[:1] * b).sum()

    report = fd_report(make_loss, params, 1e-5)
    assert report["a"] < 1e-8
    assert flags[0] == (True, False) and set(flags[1:]) == {(False, False)}
    assert (a.requires_grad, b.requires_grad) == (True, False)

    def failing_loss():
        if not a.requires_grad:
            raise RuntimeError("loss failed")
        return (a * a).sum()

    with pytest.raises(RuntimeError, match="loss failed"):
        fd_report(failing_loss, params, 1e-5)
    assert (a.requires_grad, b.requires_grad) == (True, False)


def test_grad_check_calibration_differences_the_shipped_objective(monkeypatch):
    from svkit import scoring

    shipped = scoring._bce_value_grad

    def flipped_bias(theta, x, y):
        value, grad = shipped(theta, x, y)
        return value, np.concatenate([grad[:-1], -grad[-1:]])

    assert grad_check("calibration")["theta"] < 1e-6
    monkeypatch.setattr(scoring, "_bce_value_grad", flipped_bias)
    assert grad_check("calibration")["theta"] > 0.1

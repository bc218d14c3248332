"""System assembly and embedding-extraction path tests."""

import numpy as np
import pytest

from svkit.ecapa import EcapaConfig, save_checkpoint
from svkit.errors import ConfigError, DataError, FormatError
from svkit.pipeline import System, extract_embeddings, utterance_durations
from svkit.synthcorpus import SynthSpec, synth_corpus
from svkit.training import PlantSpec, TrainSchedule, train
from svkit.upstream import MockUpstreamConfig

UP = MockUpstreamConfig(n_layers=3, dim=12, seed=2)
EC = EcapaConfig(in_dim=12, channels=16, res2_scale=8, dilations=(2, 3, 4),
                 se_bottleneck=8, attention_channels=8, embed_dim=12)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipe_corpus")
    corpus = synth_corpus(SynthSpec(4, 4, 1, seed=6), out)
    sched = TrainSchedule(stage1_epochs=1, stage2_epochs=0, lmft_epochs=0,
                          crop_seconds=1.0, batch_size=8, lr_stage1=1e-3)
    result = train(corpus.train, sched, upstream_cfg=UP, ecapa_cfg=EC,
                   plant=PlantSpec(layer=1, strength=2.0), seed=3)
    return corpus, result


def test_checkpoint_and_result_paths_agree(trained, tmp_path):
    corpus, result = trained
    plant = PlantSpec(layer=1, strength=2.0)
    direct = System.from_result(result, UP, EC, plant=plant)
    path = tmp_path / "ck.svck"
    save_checkpoint(result.checkpoint_tensors(), path)
    from svkit.ecapa import load_checkpoint

    restored = System.from_checkpoint(load_checkpoint(path), UP, EC, plant=plant)
    a = extract_embeddings(direct, corpus.heldout)
    b = extract_embeddings(restored, corpus.heldout)
    assert set(a) == set(b)
    for k in a:
        # training returns the float32 form the checkpoint stores: one system, one set of bytes
        assert a[k].tobytes() == b[k].tobytes(), k


def test_the_trained_system_holds_its_plant_and_embeds_as_from_result(trained):
    corpus, result = trained
    plant = PlantSpec(layer=1, strength=2.0)
    assert result.system.plant == plant
    a = extract_embeddings(result.system, corpus.heldout)
    b = extract_embeddings(System.from_result(result, UP, EC, plant=plant), corpus.heldout)
    assert a.keys() == b.keys()
    assert all(a[k].tobytes() == b[k].tobytes() for k in a)


def test_from_checkpoint_rejects_mismatched_config(trained, tmp_path):
    _, result = trained
    path = tmp_path / "ck.svck"
    save_checkpoint(result.checkpoint_tensors(), path)
    from svkit.ecapa import load_checkpoint

    wrong = EcapaConfig(in_dim=12, channels=32, res2_scale=8, dilations=(2, 3, 4),
                        se_bottleneck=8, attention_channels=8, embed_dim=12)
    with pytest.raises(FormatError, match="do not match"):
        System.from_checkpoint(load_checkpoint(path), UP, wrong)
    no_logits = {k: v for k, v in load_checkpoint(path).items() if k != "agg.logits"}
    with pytest.raises(FormatError, match="agg.logits: checkpoint has no such tensor"):
        System.from_checkpoint(no_logits, UP, EC)
    with pytest.raises(DataError, match="weight logits contain non-finite values"):
        System.from_checkpoint({**no_logits, "agg.logits": np.full(UP.n_layers + 1, np.nan)}, UP, EC)


def test_from_result_refuses_configs_other_than_the_trained_ones(trained):
    # the result's model carries its configs; another one, even of the same shapes, would embed differently
    from dataclasses import replace

    _, result = trained
    with pytest.raises(ConfigError, match="differ from those the result was trained with"):
        System.from_result(result, UP, replace(EC, dilations=(1, 1, 1)))


def test_from_checkpoint_reads_upstream_shapes_without_building_a_mock(trained, tmp_path, monkeypatch):
    from svkit.ecapa import load_checkpoint
    from svkit.upstream import MockUpstream

    _, result = trained
    path = tmp_path / "ck.svck"
    save_checkpoint(result.checkpoint_tensors(), path)
    tensors = load_checkpoint(path)
    assert "upstream.conv0.w" in tensors

    def no_seeded_mock(cfg):
        raise AssertionError("from_checkpoint drew a seeded mock upstream")

    monkeypatch.setattr(MockUpstream, "_init_params", staticmethod(no_seeded_mock))
    system = System.from_checkpoint(tensors, UP, EC)
    assert all(np.array_equal(p.data, tensors[f"upstream.{k}"]) for k, p in system.upstream.params.items())
    tensors["upstream.conv0.w"] = tensors["upstream.conv0.w"][:, :-1]
    with pytest.raises(FormatError) as info:
        System.from_checkpoint(tensors, UP, EC)
    assert "upstream.conv0.w: checkpoint has (5, 11), config expects (5, 12)" in str(info.value)
    assert info.value.exit_code == 3


def test_a_stack_that_does_not_fit_reads_the_same_from_train_and_embed(trained, tmp_path):
    from svkit.errors import DataError
    from svkit.upstream import LayerStack, Manifest, ManifestRow, save_stack

    _, result = trained
    rng = np.random.default_rng(5)
    save_stack(LayerStack(rng.standard_normal((4, 6, 12)), frame_rate_hz=50.0), tmp_path / "u0.svhs")
    save_stack(LayerStack(rng.standard_normal((4, 6, 8)), frame_rate_hz=50.0), tmp_path / "u1.svhs")
    manifest = Manifest((ManifestRow("u0", "s0", "u0.svhs"), ManifestRow("u1", "s1", "u1.svhs")), base_dir=tmp_path)
    sched = TrainSchedule(stage1_epochs=1, stage2_epochs=0, lmft_epochs=0, crop_seconds=1.0, batch_size=2)
    with pytest.raises(DataError) as train_err:
        train(manifest, sched, upstream_cfg=UP, ecapa_cfg=EC, seed=3)
    with pytest.raises(DataError) as embed_err:
        extract_embeddings(System.from_result(result, UP, EC), manifest)
    want = f"u1 ({tmp_path / 'u1.svhs'}): stack has 4 layers of dim 8, expected 4 layers of dim 12"
    assert str(train_err.value) == str(embed_err.value) == want


def test_batch_composition_does_not_change_any_embedding(trained, tmp_path):
    from svkit.audio import read_wav
    from svkit.upstream import Manifest, ManifestRow, save_stack

    corpus, result = trained
    plant = PlantSpec(layer=1, strength=2.0)
    heldout = corpus.heldout
    rows = []
    for row in heldout.rows[:3]:  # each WAV row and its stored stack as an SVHS row
        path = heldout.resolve(row)
        save_stack(System.from_result(result, UP, EC).upstream.stack(read_wav(path), row.utt_id),
                   tmp_path / f"{row.utt_id}.svhs")
        rows += [ManifestRow(row.utt_id, row.speaker_id, str(path)),
                 ManifestRow(f"{row.utt_id}-svhs", row.speaker_id, f"{row.utt_id}.svhs")]
    full = Manifest(tuple(rows), base_dir=tmp_path)

    def embed(manifest):  # a fresh system per manifest, as each `embed` call builds one
        return extract_embeddings(System.from_result(result, UP, EC, plant=plant), manifest)

    together = embed(full)
    reversed_ = embed(Manifest(tuple(reversed(rows)), base_dir=tmp_path))
    for row in rows:
        alone = embed(Manifest((row,), base_dir=tmp_path))[row.utt_id]
        assert alone.tobytes() == together[row.utt_id].tobytes() == reversed_[row.utt_id].tobytes(), row.utt_id
    for row in heldout.rows[:3]:  # a WAV row and its stack give one embedding
        assert together[row.utt_id].tobytes() == together[f"{row.utt_id}-svhs"].tobytes()


def test_embeddings_deterministic(trained):
    corpus, result = trained
    system = System.from_result(result, UP, EC, plant=PlantSpec(layer=1, strength=2.0))
    a = extract_embeddings(system, corpus.heldout)
    b = extract_embeddings(system, corpus.heldout)
    for k in a:
        np.testing.assert_array_equal(a[k], b[k])


def test_durations(trained):
    corpus, _ = trained
    durations = utterance_durations(corpus.heldout)
    assert all(abs(d - 1.0) < 1e-9 for d in durations.values())


def test_durations_of_exported_stacks_are_frames_over_frame_rate(tmp_path):
    from svkit.audio import Waveform, write_wav
    from svkit.upstream import HOP, Manifest, ManifestRow, MockUpstream, save_stack

    upstream, rows, expected = MockUpstream(UP), [], {}
    for i, n in enumerate((HOP, 8000 + HOP - 1, 16000)):
        wav = Waveform(np.random.default_rng(i).uniform(-0.1, 0.1, n))
        save_stack(upstream.stack(wav, f"u{i}"), tmp_path / f"u{i}.svhs")
        write_wav(tmp_path / f"u{i}.wav", wav)
        rows += [ManifestRow(f"u{i}", "s", f"u{i}.svhs"), ManifestRow(f"w{i}", "s", f"u{i}.wav")]
        expected.update({f"u{i}": (n // HOP) / 50.0, f"w{i}": n / 16000})
    assert utterance_durations(Manifest(tuple(rows), tmp_path)) == expected


@pytest.mark.parametrize("plant", [PlantSpec(), PlantSpec(layer=1, strength=2.0)])
def test_frozen_training_features_equal_embed_features(tmp_path, monkeypatch, plant):
    """Full-length, unaugmented rows: WAV rows and their SVHS twins reach the
    aggregator with the same layers, byte for byte and dtype for dtype, in training and in `System`."""
    import svkit.pipeline as pipeline_mod
    import svkit.training as training_mod
    from svkit.aggregator import aggregate, aggregate_graph
    from svkit.audio import read_wav
    from svkit.upstream import Manifest, ManifestRow, mock_forward, save_stack

    corpus = synth_corpus(SynthSpec(2, 3, 1, seed=8), tmp_path / "corpus")
    rows = []
    for row in corpus.train.rows:
        wav_path = corpus.train.resolve(row)
        save_stack(mock_forward(read_wav(wav_path), UP), tmp_path / f"{row.utt_id}.svhs")
        rows.append(ManifestRow(row.utt_id, row.speaker_id, str(wav_path)))
        rows.append(ManifestRow(f"{row.utt_id}-svhs", row.speaker_id, f"{row.utt_id}.svhs"))
    manifest = Manifest(tuple(rows), base_dir=tmp_path)

    seen = {"train": [], "embed": []}

    def key(layers):
        # a stored layer stays float32 up to the mix, a planted one is float64
        return [(h.dtype.str, h.tobytes()) for h in layers]

    def record_graph(layers, logits):
        out = aggregate_graph(layers, logits)
        seen["train"].append((key(layers), logits.data.copy(), out.data.tobytes()))
        return out

    def record_numpy(layers, logits):
        out = aggregate(layers, logits)
        seen["embed"].append((key(layers), logits.copy(), out.tobytes()))
        return out

    monkeypatch.setattr(training_mod, "aggregate_graph", record_graph)
    monkeypatch.setattr(pipeline_mod, "aggregate", record_numpy)
    # one uncropped batch: every row is aggregated with the initial logits
    sched = TrainSchedule(stage1_epochs=1, stage2_epochs=0, lmft_epochs=0,
                          crop_seconds=1.0, batch_size=len(rows), lr_stage1=1e-3)
    result = train(manifest, sched, upstream_cfg=UP, ecapa_cfg=EC, plant=plant, seed=3)
    logits = seen["train"][0][1]
    # without `upstream.*` the system draws the seeded float64 mock the frozen stage ran, not its float32 form
    tensors = {k: v for k, v in result.checkpoint_tensors().items() if not k.startswith("upstream.")}
    system = System.from_checkpoint({**tensors, "agg.logits": logits}, UP, EC, plant=plant)
    embs = extract_embeddings(system, manifest)
    assert all(np.array_equal(rec[1], logits) for rec in seen["train"] + seen["embed"])
    assert sorted((layers, out) for layers, _, out in seen["train"]) == sorted(
        (layers, out) for layers, _, out in seen["embed"]
    )
    assert {dtype for layers, _, _ in seen["embed"] for dtype, _ in layers} == (
        {"<f4", "<f8"} if plant.layer != -1 else {"<f4"}
    )
    for row in corpus.train.rows:
        assert embs[row.utt_id].tobytes() == embs[f"{row.utt_id}-svhs"].tobytes()

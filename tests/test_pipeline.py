"""System assembly and embedding-extraction path tests."""

import numpy as np
import pytest

from svkit.ecapa import EcapaConfig, save_checkpoint
from svkit.errors import FormatError
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
        # checkpoint stores float32; agreement is at storage precision
        np.testing.assert_allclose(a[k], b[k], rtol=1e-4, atol=1e-5)


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


@pytest.mark.parametrize("plant", [None, PlantSpec(layer=1, strength=2.0)])
def test_frozen_training_features_equal_embed_features(tmp_path, monkeypatch, plant):
    """Full-length, unaugmented rows: WAV rows and their SVHS twins reach the
    aggregator with the same float64 layers in training and in `System`."""
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

    def record_graph(layers, logits):
        out = aggregate_graph(layers, logits)
        seen["train"].append((layers.copy(), logits.data.copy(), out.data.copy()))
        return out

    def record_numpy(layers, weights):
        out = aggregate(layers, weights)
        seen["embed"].append((layers.copy(), out.copy()))
        return out

    monkeypatch.setattr(training_mod, "aggregate_graph", record_graph)
    monkeypatch.setattr(pipeline_mod, "aggregate", record_numpy)
    # one uncropped batch: every row is aggregated with the initial logits
    sched = TrainSchedule(stage1_epochs=1, stage2_epochs=0, lmft_epochs=0,
                          crop_seconds=1.0, batch_size=len(rows), lr_stage1=1e-3)
    result = train(manifest, sched, upstream_cfg=UP, ecapa_cfg=EC, plant=plant, seed=3)
    logits = seen["train"][0][1]
    assert all(np.array_equal(rec[1], logits) for rec in seen["train"])
    system = System(UP, EC, result.ecapa, logits, upstream_params=result.upstream, plant=plant)
    embs = extract_embeddings(system, manifest)

    def key(arrays):
        return [a.tobytes() for a in arrays]

    assert sorted(key((layers, out)) for layers, _, out in seen["train"]) == sorted(
        key(rec) for rec in seen["embed"]
    )
    for row in corpus.train.rows:
        assert embs[row.utt_id].tobytes() == embs[f"{row.utt_id}-svhs"].tobytes()

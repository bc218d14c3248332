"""Synthetic corpus generator tests."""

import math

import numpy as np
import pytest
from scipy.signal import welch

from svkit.audio import fbank, read_wav
from svkit.errors import ConfigError, DataError
from svkit.synthcorpus import SynthSpec, synth_corpus, synth_speaker, synth_utterance

SPEC = SynthSpec(n_speakers=5, utts_per_speaker=5, utt_seconds=1, seed=21)


def test_speaker_profile_deterministic():
    a = synth_speaker(SPEC, 2)
    b = synth_speaker(SPEC, 2)
    assert a == b
    assert 80.0 <= a.pitch_hz <= 300.0
    assert all(300.0 <= f <= 3500.0 for f in a.formants_hz)
    assert all(50.0 <= bw <= 200.0 for bw in a.bandwidths_hz)


def test_speaker_profiles_distinct():
    profiles = [synth_speaker(SPEC, i) for i in range(SPEC.n_speakers)]
    formant_tuples = {p.formants_hz for p in profiles}
    assert len(formant_tuples) == SPEC.n_speakers


def test_speaker_index_out_of_range():
    with pytest.raises(DataError, match="out of range"):
        synth_speaker(SPEC, SPEC.n_speakers)


def test_utterance_under_one_second_rejected():
    with pytest.raises(DataError) as info:
        synth_utterance(synth_speaker(SPEC, 0), 0, seconds=0.5)
    assert str(info.value) == "utterances must be at least one second long"


def test_utterance_deterministic_per_index():
    profile = synth_speaker(SPEC, 0)
    a = synth_utterance(profile, 3, 1.0)
    b = synth_utterance(profile, 3, 1.0)
    np.testing.assert_array_equal(a.samples, b.samples)
    c = synth_utterance(profile, 4, 1.0)
    assert np.any(c.samples != a.samples)


def test_utterance_peak_normalized():
    profile = synth_speaker(SPEC, 1)
    wav = synth_utterance(profile, 0, 1.0)
    assert abs(np.max(np.abs(wav.samples)) - 0.5) < 1e-6


def test_utterance_spectral_peak_near_a_formant():
    # oracle: a coarse periodogram's argmax must sit within one bin of the
    # nearest formant center (bin width 250 Hz >= half the maximum pitch)
    for idx in range(SPEC.n_speakers):
        profile = synth_speaker(SPEC, idx)
        wav = synth_utterance(profile, 0, 1.0)
        freqs, power = welch(wav.samples, fs=16000, nperseg=64)
        peak_hz = freqs[np.argmax(power)]
        nearest = min(abs(peak_hz - f) for f in profile.formants_hz)
        assert nearest <= 16000 / 64


def test_spec_validation():
    with pytest.raises(ConfigError):
        SynthSpec(n_speakers=1, utts_per_speaker=5, utt_seconds=1)
    with pytest.raises(ConfigError):
        SynthSpec(n_speakers=2, utts_per_speaker=1, utt_seconds=1)
    with pytest.raises(ConfigError, match="three utterances"):
        SynthSpec(n_speakers=2, utts_per_speaker=2, utt_seconds=1)
    with pytest.raises(ConfigError, match="one second"):
        SynthSpec(n_speakers=2, utts_per_speaker=3, utt_seconds=0.5)
    for seconds in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="finite"):
            SynthSpec(n_speakers=2, utts_per_speaker=3, utt_seconds=seconds)


def test_corpus_layout_and_cardinality(tmp_path):
    layout = synth_corpus(SPEC, tmp_path)
    assert len(layout.manifest) == 25
    assert len(layout.train) == 15  # 3 train + 2 held per speaker
    assert len(layout.heldout) == 10
    assert (tmp_path / "manifest.tsv").is_file()
    assert len(list((tmp_path / "wav").glob("*.wav"))) == 25
    wav = read_wav(tmp_path / layout.manifest.rows[0].path)
    assert len(wav) == 16000


def test_corpus_trials_balanced_no_self_pairs(tmp_path):
    layout = synth_corpus(SPEC, tmp_path)
    labels = [t.label for t in layout.trials]
    assert abs(labels.count(1) - labels.count(0)) <= 1
    assert all(t.enroll_id != t.test_id for t in layout.trials)
    held_ids = {r.utt_id for r in layout.heldout.rows}
    for t in layout.trials:
        assert t.enroll_id in held_ids and t.test_id in held_ids


def test_corpus_regeneration_byte_identical(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    synth_corpus(SPEC, a_dir)
    synth_corpus(SPEC, b_dir)
    a_files = sorted(p.relative_to(a_dir) for p in a_dir.rglob("*") if p.is_file())
    b_files = sorted(p.relative_to(b_dir) for p in b_dir.rglob("*") if p.is_file())
    assert a_files == b_files
    for rel in a_files:
        assert (a_dir / rel).read_bytes() == (b_dir / rel).read_bytes(), rel


def test_corpus_rejects_two_utterances_per_speaker(tmp_path):
    # two are held out to form target trials, so two per speaker leave none to train on
    with pytest.raises(ConfigError, match="at least three utterances per speaker"):
        synth_corpus(SynthSpec(n_speakers=3, utts_per_speaker=2, utt_seconds=1, seed=0), tmp_path)


def test_fbank_nearest_neighbor_speaker_accuracy_above_chance(tmp_path):
    layout = synth_corpus(SPEC, tmp_path)
    means, speakers = [], []
    for row in layout.manifest.rows:
        feats = fbank(read_wav(layout.manifest.resolve(row)))
        means.append(feats.mean(axis=0))
        speakers.append(row.speaker_id)
    means = np.asarray(means)
    correct = 0
    for i in range(len(means)):
        d = np.linalg.norm(means - means[i], axis=1)
        d[i] = np.inf
        correct += speakers[int(np.argmin(d))] == speakers[i]
    accuracy = correct / len(means)
    assert accuracy > 1.0 / SPEC.n_speakers  # learnable before model tests run

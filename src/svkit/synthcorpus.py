"""Deterministic synthetic speaker corpus.

Speakers are formant resonator sets (fixed center frequencies, bandwidths and
pitch drawn from a seeded hash), utterances are pulse trains filtered through
the speaker's resonators with small per-utterance jitter. Speaker identity is
therefore spectrally encoded and survives filterbank and encoder front ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import SAMPLE_RATE, Waveform, write_wav
from .errors import ConfigError, DataError
from .rng import child_rng, derive_seed
from .scoring import Trial, save_trials
from .upstream import Manifest, ManifestRow, save_manifest

_FORMANT_RANGE_HZ = (300.0, 3500.0)
_BANDWIDTH_RANGE_HZ = (50.0, 200.0)
_PITCH_RANGE_HZ = (80.0, 300.0)
_N_FORMANTS = 4
_FORMANT_JITTER = 0.02  # per-utterance relative shift of each formant, at most
_NOISE_FLOOR = 0.01  # relative to pre-normalization RMS


@dataclass(frozen=True)
class SynthSpec:
    n_speakers: int
    utts_per_speaker: int
    utt_seconds: float
    seed: int = 0

    def __post_init__(self):
        if self.n_speakers < 2:
            raise ConfigError("synth corpus needs at least two speakers")
        if self.utts_per_speaker < 3:  # two held out to form target trials, at least one to train on
            raise ConfigError("synth corpus needs at least three utterances per speaker")
        if not 1 <= self.utt_seconds < math.inf:
            raise ConfigError(f"utterances must be at least one second long and finite, got {self.utt_seconds}")


@dataclass(frozen=True)
class SpeakerProfile:
    speaker_id: str
    formants_hz: tuple
    bandwidths_hz: tuple
    pitch_hz: float
    seed: int


@dataclass(frozen=True)
class CorpusLayout:
    manifest: Manifest
    train: Manifest
    heldout: Manifest
    trials: tuple


def synth_speaker(spec: SynthSpec, speaker_index: int) -> SpeakerProfile:
    """Fixed resonator set and pitch for one speaker, derived from the corpus seed."""
    if not 0 <= speaker_index < spec.n_speakers:
        raise DataError(f"speaker index {speaker_index} out of range 0..{spec.n_speakers - 1}")
    rng = child_rng(spec.seed, f"speaker:{speaker_index}")
    formants = tuple(sorted(rng.uniform(*_FORMANT_RANGE_HZ, size=_N_FORMANTS)))
    bandwidths = tuple(rng.uniform(*_BANDWIDTH_RANGE_HZ, size=_N_FORMANTS))
    pitch = float(rng.uniform(*_PITCH_RANGE_HZ))
    return SpeakerProfile(
        speaker_id=f"spk{speaker_index:03d}",
        formants_hz=formants,
        bandwidths_hz=bandwidths,
        pitch_hz=pitch,
        seed=derive_seed(spec.seed, f"speaker:{speaker_index}:utts"),
    )


def synth_utterance(profile: SpeakerProfile, utt_index: int, seconds: float) -> Waveform:
    """Pulse train at the speaker pitch through jittered resonators, peak 0.5.

    All randomness derives from (profile, utt_index), so regeneration is
    bit-identical.
    """
    from scipy.signal import lfilter  # here, not at module load: ~1.5 s of every fresh interpreter

    if seconds < 1:
        raise DataError("utterances must be at least one second long")
    rng = np.random.default_rng(derive_seed(profile.seed, f"utt:{utt_index}"))
    n = int(round(seconds * SAMPLE_RATE))
    period = SAMPLE_RATE / profile.pitch_hz
    pulses = np.zeros(n)
    positions = np.round(np.arange(0, n, period)).astype(int)
    pulses[positions[positions < n]] = 1.0

    out = pulses
    for f0, bw in zip(profile.formants_hz, profile.bandwidths_hz):
        f_jit = f0 * (1.0 + _FORMANT_JITTER * rng.uniform(-1.0, 1.0))
        r = np.exp(-np.pi * bw / SAMPLE_RATE)
        omega = 2.0 * np.pi * f_jit / SAMPLE_RATE
        out = lfilter([1.0], [1.0, -2.0 * r * np.cos(omega), r * r], out)
    out = out + _NOISE_FLOOR * np.sqrt(np.mean(out**2)) * rng.standard_normal(n)
    return Waveform(out * (0.5 / np.max(np.abs(out))))


def synth_corpus(spec: SynthSpec, out_dir) -> CorpusLayout:
    """Write WAVs, manifests (full / train / held-out) and balanced held-out trials.

    The split holds out the last utterances of every speaker (at least two, a
    fifth when more). Target trials are all same-speaker held-out pairs; an
    equal number of seeded cross-speaker pairs forms the nontargets.
    """
    out_dir = Path(out_dir)
    n_held = max(2, spec.utts_per_speaker // 5)

    all_rows, train_rows, held_rows = [], [], []
    for s in range(spec.n_speakers):
        profile = synth_speaker(spec, s)
        for u in range(spec.utts_per_speaker):
            wav = synth_utterance(profile, u, spec.utt_seconds)
            utt_id = f"{profile.speaker_id}_u{u:03d}"
            rel = f"wav/{utt_id}.wav"
            write_wav(out_dir / rel, wav)
            row = ManifestRow(utt_id, profile.speaker_id, rel)
            all_rows.append(row)
            (held_rows if u >= spec.utts_per_speaker - n_held else train_rows).append(row)

    manifest = Manifest(tuple(all_rows), base_dir=out_dir)
    train = Manifest(tuple(train_rows), base_dir=out_dir)
    heldout = Manifest(tuple(held_rows), base_dir=out_dir)
    save_manifest(manifest, out_dir / "manifest.tsv")
    save_manifest(train, out_dir / "train.tsv")
    save_manifest(heldout, out_dir / "heldout.tsv")

    trials = _balanced_trials(heldout, child_rng(spec.seed, "trials"))
    save_trials(trials, out_dir / "trials.txt")
    return CorpusLayout(manifest=manifest, train=train, heldout=heldout, trials=tuple(trials))


def _balanced_trials(heldout: Manifest, rng: np.random.Generator) -> list:
    groups = heldout.by_speaker()
    speakers = sorted(groups)
    targets = []
    for spk in speakers:
        utts = groups[spk]
        for i in range(len(utts)):
            for j in range(i + 1, len(utts)):
                targets.append(Trial(utts[i].utt_id, utts[j].utt_id, label=1))
    nontargets = []
    seen = set()
    attempts = 0
    while len(nontargets) < len(targets):
        attempts += 1
        if attempts > 200 * (len(targets) + 1):
            raise DataError("could not assemble enough distinct nontarget trials")
        i, j = rng.choice(len(speakers), size=2, replace=False)
        a = groups[speakers[i]][int(rng.integers(0, len(groups[speakers[i]])))]
        b = groups[speakers[j]][int(rng.integers(0, len(groups[speakers[j]])))]
        key = (a.utt_id, b.utt_id)
        if key in seen:
            continue
        seen.add(key)
        nontargets.append(Trial(a.utt_id, b.utt_id, label=0))
    return targets + nontargets

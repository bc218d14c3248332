"""Waveform I/O, log mel filterbank features, and online waveform augmentation.

Audio is mono 16 kHz 16-bit PCM throughout; there is no resampling and no
voice activity detection. All operations are pure given an explicit rng.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binfile import Reader, write_bytes
from .errors import ConfigError, DataError, FormatError

SAMPLE_RATE = 16000


@dataclass(frozen=True)
class Waveform:
    """Mono 16 kHz sample sequence with amplitudes in [-1, 1]."""

    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples)
        if arr.dtype.kind not in "iuf":  # numpy would parse strings and drop imaginary parts
            raise ValueError(f"waveform samples must be integers or floats, got {arr.dtype}")
        self._keep(np.array(arr, dtype=np.float64))  # a copy: the waveform owns its data

    @classmethod
    def _own(cls, samples: np.ndarray) -> "Waveform":
        """A waveform over `samples`, a fresh float64 array no caller holds, kept read-only rather than copied."""
        wav = object.__new__(cls)
        wav._keep(samples)
        return wav

    def _keep(self, arr: np.ndarray):
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("waveform must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("waveform contains non-finite samples")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    def __len__(self):
        return self.samples.size

    def rms(self) -> float:
        return float(np.sqrt(np.mean(self.samples**2)))


# The fixed part of the FBank recipe: Kaldi's pre-emphasis, a 20-7600 Hz mel
# range (below 8 kHz Nyquist), and the log floor that keeps silence finite.
PREEMPH = 0.97
MEL_LOW_HZ, MEL_HIGH_HZ = 20.0, 7600.0
LOG_FLOOR = 1e-10
MAX_WIN_MS = 1000.0  # a 16384-point FFT; a longer window is no speech frame


@dataclass(frozen=True)
class FbankConfig:
    n_mels: int = 40
    win_ms: float = 25.0
    hop_ms: float = 10.0

    def __post_init__(self):
        if self.n_mels < 1:
            raise ConfigError("fbank.n_mels must be >= 1")
        # bounded before the filterbank below is sized by the FFT that covers one window
        if not (math.isfinite(self.win_ms) and self.win_ms <= MAX_WIN_MS):
            raise ConfigError(f"fbank.win_ms must be finite and at most {MAX_WIN_MS:g} ms, got {self.win_ms}")
        if not 0 < self.hop_ms < self.win_ms:
            raise ConfigError(f"fbank.hop_ms must lie in (0, fbank.win_ms = {self.win_ms}), got {self.hop_ms}")
        if not self.win_samples > self.hop_samples >= 1:
            raise ConfigError(
                f"fbank.win_ms = {self.win_ms} and fbank.hop_ms = {self.hop_ms} give {self.win_samples}- and "
                f"{self.hop_samples}-sample frames at {SAMPLE_RATE} Hz; need window > hop >= 1 sample"
            )
        # a bin lies inside at most two triangles, so past 2 * (fft/2 + 1) filters one is surely empty
        if self.n_mels > self.fft_size + 2 or not mel_filterbank(self).any(axis=1).all():
            raise ConfigError(
                f"fbank.n_mels = {self.n_mels} leaves a mel filter with no bin of the {self.fft_size}-point FFT"
            )

    @property
    def win_samples(self) -> int:
        return int(round(self.win_ms * SAMPLE_RATE / 1000.0))

    @property
    def hop_samples(self) -> int:
        return int(round(self.hop_ms * SAMPLE_RATE / 1000.0))

    @property
    def fft_size(self) -> int:
        """The smallest power of two that covers one window."""
        return 1 << (self.win_samples - 1).bit_length()


# The fixed part of the augmentation recipe: additive noise at an SNR drawn uniformly from 0-20 dB.
NOISE_SNR_DB = (0.0, 20.0)


@dataclass(frozen=True)
class AugmentConfig:
    probability: float = 0.6

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError("augment.probability must lie in [0, 1]")


@dataclass(frozen=True)
class AugmentBanks:
    """Noise and impulse-response waveforms, enumerated in sorted filename order."""

    noises: tuple = ()
    rirs: tuple = ()


# ---------------------------------------------------------------------------
# WAV I/O (RIFF little-endian, PCM 16-bit mono 16 kHz only)
# ---------------------------------------------------------------------------


def read_wav(path) -> Waveform:
    """Read a 16-bit PCM mono 16 kHz WAV file, scaling samples by 1/32768."""
    samples = np.frombuffer(_pcm_data(path), dtype="<i2").astype(np.float64)
    samples /= 32768.0
    return Waveform._own(samples)


def read_wav_duration(path) -> float:
    """Duration in seconds from the WAV header, without decoding samples."""
    return len(_pcm_data(path)) / 2 / SAMPLE_RATE


def _pcm_data(path) -> memoryview:
    """The data chunk of a WAV file, once its fmt chunk passes every check read_wav makes."""
    r = Reader(path)
    riff, _, wave = r.unpack("4sI4s", "RIFF header")
    if (riff, wave) != (b"RIFF", b"WAVE"):
        raise r.error("malformed RIFF/WAVE header")
    fmt = None
    data = None
    while r.remaining >= 8:
        cid, size = r.unpack("4sI", "chunk header")
        body = r.take(size, f"chunk {cid!r}")
        if size % 2 and r.remaining:
            r.take(1, "chunk pad byte")
        if cid == b"fmt ":
            fmt = body
        elif cid == b"data":
            data = body
    if fmt is None or data is None:
        raise r.error("missing fmt or data chunk")
    if len(fmt) < 16:
        raise r.error("malformed fmt chunk")
    audio_format, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt)
    if audio_format != 1:
        raise r.error(f"unsupported encoding (expected PCM, got format {audio_format})")
    if channels != 1:
        raise r.error(f"unsupported channel count {channels} (expected mono)")
    if rate != SAMPLE_RATE:
        raise r.error(f"unsupported sample rate {rate} (expected {SAMPLE_RATE})")
    if bits != 16:
        raise r.error(f"unsupported bit depth {bits} (expected 16)")
    if len(data) % 2 != 0 or len(data) == 0:
        raise r.error("malformed data chunk")
    return data


def write_wav(path, wav: Waveform):
    """Write 16-bit PCM mono 16 kHz WAV (deterministic byte layout)."""
    pcm = np.clip(np.round(wav.samples * 32768.0), -32768, 32767).astype("<i2")
    data = pcm.tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, SAMPLE_RATE, SAMPLE_RATE * 2, 2, 16)
    header += b"data" + struct.pack("<I", len(data))
    write_bytes(path, header + data)


# ---------------------------------------------------------------------------
# Fbank
# ---------------------------------------------------------------------------


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(cfg: FbankConfig) -> np.ndarray:
    """Triangular mel filters evaluated at FFT bin centers, shape (n_mels, fft/2+1)."""
    bin_hz = np.arange(cfg.fft_size // 2 + 1) * SAMPLE_RATE / cfg.fft_size
    pts = mel_to_hz(np.linspace(hz_to_mel(MEL_LOW_HZ), hz_to_mel(MEL_HIGH_HZ), cfg.n_mels + 2))
    left, center, right = pts[:-2, None], pts[1:-1, None], pts[2:, None]
    rise = (bin_hz - left) / (center - left)
    fall = (right - bin_hz) / (right - center)
    return np.maximum(0.0, np.minimum(rise, fall))


def fbank(wav: Waveform, cfg: FbankConfig = FbankConfig()) -> np.ndarray:
    """Log mel filterbank energies, a float64 (T, n_mels) array.

    Pipeline: pre-emphasis -> Hamming window -> |FFT|^2 -> triangular mel
    filterbank -> log(max(energy, LOG_FLOOR)). Frame count is
    floor((N - win) / hop) + 1; trailing samples short of a window are dropped.
    """
    win, hop = cfg.win_samples, cfg.hop_samples
    x = wav.samples
    if x.size < win:
        raise DataError(f"waveform of {x.size} samples is shorter than one {win}-sample window")
    emph = np.concatenate(([x[0]], x[1:] - PREEMPH * x[:-1]))
    n_frames = (x.size - win) // hop + 1
    idx = np.arange(win)[None, :] + hop * np.arange(n_frames)[:, None]
    frames = emph[idx] * np.hamming(win)
    power = np.abs(np.fft.rfft(frames, n=cfg.fft_size, axis=1)) ** 2
    energies = power @ mel_filterbank(cfg).T
    return np.log(np.maximum(energies, LOG_FLOOR))


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------


def mix_noise(wav: Waveform, noise: Waveform, snr_db: float, rng: np.random.Generator) -> Waveform:
    """Add a random crop of `noise` at the requested segmental SNR.

    The gain g satisfies 20*log10(rms(wav) / (g*rms(crop))) = snr_db; the sum
    is hard-clipped to [-1, 1].
    """
    n = len(wav)
    nz = noise.samples
    if nz.size < n:
        reps = -(-n // nz.size)
        nz = np.tile(nz, reps)
    offset = int(rng.integers(0, nz.size - n + 1))
    crop = nz[offset : offset + n]
    rms_n = float(np.sqrt(np.mean(crop**2)))
    if rms_n == 0.0:
        raise DataError("noise crop has zero energy; SNR is undefined")
    rms_s = wav.rms()
    gain = rms_s / (rms_n * 10.0 ** (snr_db / 20.0))
    out = gain * crop
    out += wav.samples
    return Waveform._own(np.clip(out, -1.0, 1.0, out=out))


def apply_rir(wav: Waveform, ir: Waveform) -> Waveform:
    """Convolve with an impulse response, truncate to the input length, match RMS.

    scipy's size rule picks FFT for a room response, direct (exact) for a unit impulse."""
    from scipy.signal import convolve  # here, not at module load: ~1.5 s of every fresh interpreter

    h = ir.samples
    if not np.any(h != 0.0):
        raise DataError("impulse response has zero energy")
    out = convolve(wav.samples, h)[: len(wav)]
    rms_in = wav.rms()
    rms_out = float(np.sqrt(np.mean(out**2)))
    if rms_out > 0.0:
        out *= rms_in / rms_out
    return Waveform._own(np.clip(out, -1.0, 1.0, out=out))


def augment(
    wav: Waveform,
    banks: AugmentBanks,
    cfg: AugmentConfig,
    rng: np.random.Generator,
) -> Waveform:
    """With probability cfg.probability apply one augmentation kind, drawn
    uniformly from the kinds whose bank is non-empty ("noise", then "reverb").

    Returns the input object unchanged when not triggered or when both banks
    are empty. Fully determined by the rng state: the trigger draw always
    happens first, then kind, then kind-specific parameters.
    """
    kinds = [kind for kind, bank in (("noise", banks.noises), ("reverb", banks.rirs)) if bank]
    if not rng.random() < cfg.probability or not kinds:
        return wav
    kind = kinds[int(rng.integers(0, len(kinds)))]
    if kind == "noise":
        noise = banks.noises[int(rng.integers(0, len(banks.noises)))]
        snr = float(rng.uniform(*NOISE_SNR_DB))
        return mix_noise(wav, noise, snr, rng)
    ir = banks.rirs[int(rng.integers(0, len(banks.rirs)))]
    return apply_rir(wav, ir)


def load_bank(directory) -> tuple:
    """Load every .wav under `directory` in sorted filename order."""
    directory = Path(directory)
    if not directory.is_dir():
        raise FormatError(f"augmentation bank directory not found: {directory}")
    bank = tuple(read_wav(p) for p in sorted(directory.glob("*.wav")))
    if not bank:
        raise FormatError(f"augmentation bank directory has no .wav files: {directory}")
    return bank

"""Waveform I/O, Fbank, and augmentation tests."""

import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from svkit.audio import (
    LOG_FLOOR,
    MEL_HIGH_HZ,
    MEL_LOW_HZ,
    AugmentBanks,
    AugmentConfig,
    FbankConfig,
    Waveform,
    apply_rir,
    augment,
    fbank,
    hz_to_mel,
    load_bank,
    mel_filterbank,
    mel_to_hz,
    mix_noise,
    read_wav,
    write_wav,
)
from svkit.errors import ConfigError, DataError, FormatError


def tone(freq_hz, seconds=1.0, amp=0.3):
    t = np.arange(int(seconds * 16000)) / 16000.0
    return Waveform(amp * np.sin(2 * np.pi * freq_hz * t))


# ---------------------------------------------------------------------------
# WAV reader
# ---------------------------------------------------------------------------


def test_read_silence_roundtrip(tmp_path):
    path = tmp_path / "silence.wav"
    write_wav(path, Waveform(np.zeros(16000)))
    wav = read_wav(path)
    assert len(wav) == 16000
    assert np.all(wav.samples == 0.0)


def test_read_rejects_wrong_sample_rate(tmp_path):
    path = tmp_path / "bad_rate.wav"
    data = np.zeros(100, dtype="<i2").tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 44100, 44100 * 2, 2, 16)
    header += b"data" + struct.pack("<I", len(data))
    path.write_bytes(header + data)
    with pytest.raises(FormatError, match="unsupported sample rate"):
        read_wav(path)


def test_read_rejects_stereo_and_bit_depth(tmp_path):
    def make(channels, bits):
        data = b"\x00" * 64
        h = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
        h += b"fmt " + struct.pack(
            "<IHHIIHH", 16, 1, channels, 16000, 16000 * channels * bits // 8, channels * bits // 8, bits
        )
        h += b"data" + struct.pack("<I", len(data))
        return h + data

    stereo = tmp_path / "stereo.wav"
    stereo.write_bytes(make(2, 16))
    with pytest.raises(FormatError, match="channel count"):
        read_wav(stereo)
    eight = tmp_path / "eight.wav"
    eight.write_bytes(make(1, 8))
    with pytest.raises(FormatError, match="bit depth"):
        read_wav(eight)


def test_read_rejects_malformed_header(tmp_path):
    path = tmp_path / "noise.bin"
    path.write_bytes(b"NOTRIFFDATA" + b"\x00" * 64)
    with pytest.raises(FormatError, match="malformed RIFF"):
        read_wav(path)


def test_full_scale_square_wave_scaling(tmp_path):
    # int16 +-32767 must decode to +-32767/32768
    pcm = np.tile(np.array([32767, -32767], dtype="<i2"), 800)
    data = pcm.tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 16000, 32000, 2, 16)
    header += b"data" + struct.pack("<I", len(data))
    path = tmp_path / "square.wav"
    path.write_bytes(header + data)
    wav = read_wav(path)
    assert np.all(np.abs(wav.samples) == 32767.0 / 32768.0)


def test_waveform_invariants():
    with pytest.raises(ValueError):
        Waveform(np.array([]))
    with pytest.raises(ValueError):
        Waveform(np.array([0.0, np.nan]))
    wav = Waveform(np.zeros(10))
    with pytest.raises(ValueError):
        wav.samples[0] = 1.0  # immutable after construction


@pytest.mark.parametrize("dtype", ["<f8", "<f4", "<i2"])
def test_waveform_owns_a_read_only_copy(dtype):
    buf = bytearray(np.arange(-3, 5).astype(dtype).tobytes())
    # a writable float64 array, or a read-only view of a buffer as read_wav decodes one
    source = np.frombuffer(buf if dtype == "<f8" else memoryview(buf).toreadonly(), dtype=dtype)
    wav = Waveform(source)
    assert wav.samples.dtype == np.float64 and wav.samples.flags.owndata and not wav.samples.flags.writeable
    buf[:] = bytes(len(buf))  # a later write to the source's memory
    np.testing.assert_array_equal(wav.samples, np.arange(-3.0, 5.0))


@pytest.mark.parametrize("samples, message", [
    (np.array([1 + 2j]), "waveform samples must be integers or floats, got complex128"),
    (["1", "2"], "waveform samples must be integers or floats, got <U1"),
    ([True, False], "waveform samples must be integers or floats, got bool"),
], ids=["complex", "strings", "bools"])
def test_waveform_refuses_what_is_not_a_real_number(samples, message):
    # before: a complex sample kept its real part with only a warning, and strings were parsed
    with pytest.raises(ValueError, match=message):
        Waveform(samples)


def test_read_wav_scales_in_place_as_the_former_division(tmp_path):
    pcm = np.array([-32768, -12345, -1, 0, 1, 3, 12345, 32767], dtype="<i2")
    write_wav(tmp_path / "w.wav", Waveform(pcm / 32768.0))
    wav = read_wav(tmp_path / "w.wav")
    assert wav.samples.tobytes() == (pcm.astype(np.float64) / 32768.0).tobytes()
    assert wav.samples.flags.owndata and not wav.samples.flags.writeable


# ---------------------------------------------------------------------------
# Fbank
# ---------------------------------------------------------------------------


def test_fbank_frame_count_one_second():
    feats = fbank(Waveform(np.random.default_rng(0).uniform(-0.1, 0.1, 16000)))
    assert feats.shape == (98, 40)  # floor((16000-400)/160)+1


def test_fbank_frame_count_formula_random_lengths():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(400, 50000))
        feats = fbank(Waveform(rng.uniform(-0.1, 0.1, n)))
        assert feats.shape[0] == (n - 400) // 160 + 1


def test_fbank_silence_hits_log_floor():
    feats = fbank(Waveform(np.zeros(16000)))
    assert np.all(feats == np.log(1e-10))


def test_fbank_tone_peaks_at_nearest_mel_center():
    # independent oracle: recompute center frequencies from the mel formula
    cfg = FbankConfig()
    mel = lambda f: 2595.0 * np.log10(1.0 + f / 700.0)
    imel = lambda m: 700.0 * (10.0 ** (m / 2595.0) - 1.0)
    centers = imel(np.linspace(mel(20.0), mel(7600.0), 42))[1:-1]
    expected_bin = int(np.argmin(np.abs(centers - 1000.0)))
    feats = fbank(tone(1000.0), cfg)
    assert np.all(np.argmax(feats, axis=1) == expected_bin)


def test_fbank_too_short_errors():
    with pytest.raises(DataError, match="shorter than one"):
        fbank(Waveform(np.zeros(399)))


def test_fbank_invariant_to_trailing_partial_window():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(400, 20000))
        x = rng.uniform(-0.5, 0.5, n)
        base = fbank(Waveform(x))
        slack = 160 - ((n - 400) % 160)
        pad = int(rng.integers(0, slack))  # stays short of the next full window
        padded = fbank(Waveform(np.concatenate([x, np.zeros(pad)])))
        np.testing.assert_array_equal(base, padded)


def test_fbank_config_validation():
    with pytest.raises(ConfigError):
        FbankConfig(n_mels=0)
    with pytest.raises(ConfigError):
        FbankConfig(win_ms=10, hop_ms=25)
    with pytest.raises(ConfigError, match="fbank.win_ms must be finite"):
        FbankConfig(win_ms=math.inf)
    with pytest.raises(ConfigError, match="fbank.hop_ms"):
        FbankConfig(hop_ms=math.nan)
    with pytest.raises(ConfigError, match="fbank.hop_ms = 0.01 give 400- and 0-sample"):
        FbankConfig(hop_ms=0.01)  # rounds to 0 samples
    with pytest.raises(ConfigError, match="give 160- and 160-sample"):
        FbankConfig(win_ms=10.02, hop_ms=10.0)  # both round to 160 samples


@pytest.mark.parametrize("win_ms", [1000.5, 1e5, 99999999999.0, 1e300])
def test_fbank_refuses_a_window_over_one_second_before_sizing_the_filterbank(win_ms, monkeypatch):
    import svkit.audio as audio

    monkeypatch.setattr(audio, "mel_filterbank", lambda cfg: pytest.fail("the filterbank was built"))
    with pytest.raises(ConfigError) as info:
        FbankConfig(win_ms=win_ms)
    assert str(info.value) == f"fbank.win_ms must be finite and at most 1000 ms, got {win_ms}"
    monkeypatch.undo()
    assert FbankConfig(win_ms=1000.0).fft_size == 16384  # the bound itself is a usable window


def test_fbank_fft_size_is_the_smallest_power_of_two_covering_a_window():
    assert FbankConfig().win_samples == 400 and FbankConfig().fft_size == 512
    for win_ms, fft in [(16.0, 256), (16.0625, 512), (32.0, 512), (40.0, 1024)]:
        cfg = FbankConfig(win_ms=win_ms)
        assert cfg.fft_size == fft
        assert cfg.fft_size // 2 < cfg.win_samples <= cfg.fft_size
    # a window longer than 512 samples is framed as usual
    feats = fbank(tone(1000.0), FbankConfig(win_ms=40.0))
    assert feats.shape == ((16000 - 640) // 160 + 1, 40)


def loop_mel_filterbank(n_mels, fft_size):
    """The filterbank built one triangle at a time: the reference for the whole-array form."""
    bin_hz = np.arange(fft_size // 2 + 1) * 16000 / fft_size
    pts = mel_to_hz(np.linspace(hz_to_mel(MEL_LOW_HZ), hz_to_mel(MEL_HIGH_HZ), n_mels + 2))
    fb = np.zeros((n_mels, bin_hz.size))
    for m in range(n_mels):
        left, center, right = pts[m], pts[m + 1], pts[m + 2]
        fb[m] = np.maximum(0.0, np.minimum((bin_hz - left) / (center - left), (right - bin_hz) / (right - center)))
    return fb


# 10, 25 and 64 ms windows are 256-, 512- and 1024-point FFTs; 80 and 100 filters leave some empty at 256 points
@pytest.mark.parametrize("n_mels, win_ms", [(1, 10), (40, 10)] + [(n, w) for n in (1, 40, 80, 100) for w in (25, 64)])
def test_mel_filterbank_is_byte_identical_to_the_per_filter_loop(n_mels, win_ms):
    cfg = FbankConfig(n_mels=n_mels, win_ms=win_ms, hop_ms=5)
    assert mel_filterbank(cfg).tobytes() == loop_mel_filterbank(n_mels, cfg.fft_size).tobytes()


@pytest.mark.parametrize("n_mels, empty", [(40, 0), (80, 0), (128, 1), (1000, 530)])
def test_fbank_config_refuses_mel_filters_with_no_fft_bin(n_mels, empty):
    assert (~loop_mel_filterbank(n_mels, 512).any(axis=1)).sum() == empty
    if empty:
        with pytest.raises(ConfigError, match=f"fbank.n_mels = {n_mels} leaves a mel filter with no bin of the "
                                              "512-point FFT"):
            FbankConfig(n_mels=n_mels)
    else:
        assert fbank(tone(1000.0), FbankConfig(n_mels=n_mels)).min() > math.log(LOG_FLOOR)


def refused(**fields) -> bool:
    """Whether FbankConfig refuses `fields` for an empty mel filter."""
    try:
        FbankConfig(**fields)
    except ConfigError as exc:
        assert "leaves a mel filter with no bin" in str(exc)
        return True
    return False


# 5, 10 and 25 ms windows are 128-, 256- and 512-point FFTs: every filter count up to fft/2 + 1 + 2, past which
# one is surely empty; 64 ms (1024 points) in strides, and a few counts at 1 s (16384 points)
@pytest.mark.parametrize("win_ms, counts", [(5, range(1, 132)), (10, range(1, 260)), (25, range(1, 516)),
                                            (64, range(1, 1028, 13)), (1000, (1, 40, 400))])
def test_fbank_config_refuses_exactly_the_filterbanks_with_an_empty_filter(win_ms, counts):
    fft_size = FbankConfig(n_mels=1, win_ms=win_ms, hop_ms=1.0).fft_size
    for n_mels in counts:
        built = mel_filterbank(SimpleNamespace(n_mels=n_mels, fft_size=fft_size))
        assert refused(n_mels=n_mels, win_ms=win_ms, hop_ms=1.0) == (not built.any(axis=1).all()), n_mels


def test_a_config_load_checks_the_mel_filters_without_building_the_filterbank(monkeypatch):
    import svkit.audio as audio
    from svkit.config import load_config

    monkeypatch.setattr(audio, "mel_filterbank", lambda cfg: pytest.fail("the filterbank was built"))
    assert load_config(overrides=[("fbank.win_ms", "1000"), ("fbank.n_mels", "3000")]).fbank.n_mels == 3000
    with pytest.raises(ConfigError, match="fbank.n_mels = 4000 leaves a mel filter with no bin of the 16384-point"):
        load_config(overrides=[("fbank.win_ms", "1000"), ("fbank.n_mels", "4000")])


# ---------------------------------------------------------------------------
# mix_noise
# ---------------------------------------------------------------------------


def test_mix_noise_equal_power_gain_one():
    rng = np.random.default_rng(3)
    wav = Waveform(np.full(8000, 0.1))
    noise = Waveform(np.where(np.arange(8000) % 2 == 0, 0.1, -0.1))
    out = mix_noise(wav, noise, 0.0, rng)
    added = out.samples - wav.samples
    # snr 0 with equal rms -> unit gain on the noise crop
    np.testing.assert_allclose(np.sqrt(np.mean(added**2)), 0.1, rtol=1e-12)


def test_mix_noise_zero_energy_noise_errors():
    with pytest.raises(DataError, match="zero energy"):
        mix_noise(tone(440.0), Waveform(np.zeros(20000)), 10.0, np.random.default_rng(0))


def test_mix_noise_realized_snr_matches_request():
    rng = np.random.default_rng(4)
    wav = Waveform(rng.uniform(-0.2, 0.2, 16000))
    noise = Waveform(rng.uniform(-0.2, 0.2, 40000))
    for snr in (0.0, 5.0, 12.5, 20.0):
        out = mix_noise(wav, noise, snr, np.random.default_rng(7))
        added = out.samples - wav.samples
        realized = 20.0 * np.log10(wav.rms() / np.sqrt(np.mean(added**2)))
        assert abs(realized - snr) < 0.1


def test_mix_noise_tiles_short_noise():
    rng = np.random.default_rng(5)
    wav = Waveform(rng.uniform(-0.2, 0.2, 16000))
    noise = Waveform(rng.uniform(-0.2, 0.2, 3000))
    out = mix_noise(wav, noise, 10.0, np.random.default_rng(0))
    assert len(out) == len(wav)
    assert np.any(out.samples != wav.samples)


def former_mix_noise(wav, noise, snr_db, rng):
    """`mix_noise` as it was before its sum was finished in place."""
    n = len(wav)
    nz = noise.samples
    if nz.size < n:
        nz = np.tile(nz, -(-n // nz.size))
    offset = int(rng.integers(0, nz.size - n + 1))
    crop = nz[offset : offset + n]
    gain = wav.rms() / (float(np.sqrt(np.mean(crop**2))) * 10.0 ** (snr_db / 20.0))
    return np.clip(wav.samples + gain * crop, -1.0, 1.0)


@pytest.mark.parametrize("n_noise, snr", [(40000, 0.0), (3000, 12.5), (16000, -20.0)])
def test_mix_noise_in_place_matches_the_former_sum(n_noise, snr):
    rng = np.random.default_rng(n_noise)
    wav = Waveform(rng.uniform(-0.9, 0.9, 16000))
    noise = Waveform(rng.uniform(-0.5, 0.5, n_noise))
    out = mix_noise(wav, noise, snr, np.random.default_rng(3))
    former = former_mix_noise(wav, noise, snr, np.random.default_rng(3))
    assert out.samples.tobytes() == former.tobytes()
    assert not out.samples.flags.writeable


# ---------------------------------------------------------------------------
# apply_rir
# ---------------------------------------------------------------------------


def test_rir_unit_impulse_identity():
    wav = tone(440.0)
    out = apply_rir(wav, Waveform(np.array([1.0])))
    np.testing.assert_array_equal(out.samples, wav.samples)


def test_rir_delayed_impulse_shifts():
    rng = np.random.default_rng(6)
    x = rng.uniform(-0.3, 0.3, 4000)
    wav = Waveform(x)
    ir = np.zeros(11)
    ir[10] = 1.0
    out = apply_rir(wav, Waveform(ir))
    shifted = np.concatenate([np.zeros(10), x[:-10]])
    scale = wav.rms() / np.sqrt(np.mean(shifted**2))
    np.testing.assert_allclose(out.samples, shifted * scale, atol=1e-12)


@pytest.mark.parametrize("n, taps", [(4000, 1), (4000, 11), (48000, 4000), (1500, 4000)])
def test_rir_matches_direct_convolution(n, taps):
    rng = np.random.default_rng(n + taps)
    x = rng.uniform(-0.3, 0.3, n)
    ir = rng.standard_normal(taps) * np.exp(-np.arange(taps) / (1.0 + taps / 5))
    ref = np.convolve(x, ir)[:n]
    ref = np.clip(ref * (np.sqrt(np.mean(x**2)) / np.sqrt(np.mean(ref**2))), -1.0, 1.0)
    out = apply_rir(Waveform(x), Waveform(ir))
    assert np.max(np.abs(out.samples - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("n, taps, gain", [(4000, 1, 1.0), (4000, 11, 3.0), (48000, 4000, 1.0)])
def test_rir_in_place_matches_the_former_scaling(n, taps, gain):
    from scipy.signal import convolve

    rng = np.random.default_rng(n + taps)
    x = rng.uniform(-0.9, 0.9, n)
    ir = gain * rng.standard_normal(taps) * np.exp(-np.arange(taps) / (1.0 + taps / 5))
    conv = convolve(x, ir)[:n]
    former = np.clip(conv * (Waveform(x).rms() / float(np.sqrt(np.mean(conv**2)))), -1.0, 1.0)
    out = apply_rir(Waveform(x), Waveform(ir))
    assert out.samples.tobytes() == former.tobytes()
    assert not out.samples.flags.writeable


def test_rir_zero_energy_errors():
    with pytest.raises(DataError, match="zero energy"):
        apply_rir(tone(440.0), Waveform(np.zeros(16)))


def test_rir_preserves_rms():
    rng = np.random.default_rng(7)
    wav = Waveform(rng.uniform(-0.2, 0.2, 8000))
    ir = Waveform(rng.uniform(-0.05, 0.08, 300))
    out = apply_rir(wav, ir)
    assert abs(out.rms() - wav.rms()) / wav.rms() < 1e-6


# ---------------------------------------------------------------------------
# augment
# ---------------------------------------------------------------------------


def banks():
    rng = np.random.default_rng(8)
    return AugmentBanks(
        noises=(Waveform(rng.uniform(-0.2, 0.2, 20000)),),
        rirs=(Waveform(np.concatenate([[1.0], rng.uniform(-0.01, 0.01, 50)])),),
    )


def test_augment_probability_zero_is_identity():
    wav = tone(200.0)
    cfg = AugmentConfig(probability=0.0)
    rng = np.random.default_rng(9)
    for _ in range(20):
        assert augment(wav, banks(), cfg, rng) is wav


def test_augment_unit_impulse_reverb_identity():
    wav = tone(200.0)
    cfg = AugmentConfig(probability=1.0)
    only_delta = AugmentBanks(rirs=(Waveform(np.array([1.0])),))
    out = augment(wav, only_delta, cfg, np.random.default_rng(10))
    np.testing.assert_array_equal(out.samples, wav.samples)


def test_augment_trigger_rate_concentrates():
    wav = Waveform(np.full(1600, 0.05))
    cfg = AugmentConfig(probability=0.6)
    rng = np.random.default_rng(11)
    bank = banks()
    triggered = sum(augment(wav, bank, cfg, rng) is not wav for _ in range(10000))
    assert 0.58 <= triggered / 10000 <= 0.62


def test_augment_empty_banks_return_input():
    wav = tone(200.0)
    cfg = AugmentConfig(probability=1.0)
    assert augment(wav, AugmentBanks(), cfg, np.random.default_rng(0)) is wav


def test_augment_noise_only_bank_mixes_every_crop():
    # the kinds follow the banks: with no RIR bank, every triggered crop is noise-mixed
    wav = tone(200.0)
    cfg = AugmentConfig(probability=1.0)
    bank = banks()
    noise_only = AugmentBanks(noises=bank.noises)
    rng, replay = np.random.default_rng(13), np.random.default_rng(13)
    for _ in range(20):
        out = augment(wav, noise_only, cfg, rng)
        replay.random()  # trigger
        replay.integers(0, 1)  # kind: noise is the only one
        noise = noise_only.noises[int(replay.integers(0, 1))]
        snr = float(replay.uniform(0.0, 20.0))  # the recipe's fixed SNR range
        np.testing.assert_array_equal(out.samples, mix_noise(wav, noise, snr, replay).samples)


def test_load_bank_rejects_directory_without_wavs(tmp_path):
    with pytest.raises(FormatError, match="no .wav files"):
        load_bank(tmp_path)


def test_load_bank_rejects_a_missing_directory(tmp_path):
    with pytest.raises(FormatError) as info:
        load_bank(tmp_path / "absent")
    assert str(info.value) == f"augmentation bank directory not found: {tmp_path / 'absent'}"


def test_augment_deterministic_across_runs():
    wav = Waveform(np.random.default_rng(12).uniform(-0.3, 0.3, 16000))
    cfg = AugmentConfig(probability=0.7)
    bank = banks()
    out1 = [augment(wav, bank, cfg, np.random.default_rng(99)).samples for _ in range(1)]
    out2 = [augment(wav, bank, cfg, np.random.default_rng(99)).samples for _ in range(1)]
    rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(25):
        a = augment(wav, bank, cfg, rng_a)
        b = augment(wav, bank, cfg, rng_b)
        np.testing.assert_array_equal(a.samples, b.samples)
    np.testing.assert_array_equal(out1[0], out2[0])


def test_augment_config_validation():
    with pytest.raises(ConfigError):
        AugmentConfig(probability=1.5)

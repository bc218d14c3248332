"""The bounds-checked readers and their writers: SVHS, SVCK, SVEB, WAV and the text formats.

Every malformed input must raise a ToolkitError subclass naming the file; no
raw exception may escape a loader. A writer refuses what its reader would
reject, and writes nothing then.
"""

import hashlib
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from svkit.aggregator import normalized_weights, write_weights_csv
from svkit.audio import Waveform, read_wav, read_wav_duration, write_wav
from svkit.binfile import write_lines, write_npy
from svkit.ecapa import load_checkpoint, save_checkpoint
from svkit.errors import ConfigError, FormatError, ToolkitError
from svkit.scoring import Trial, load_embeddings, load_scores, load_trials, save_embeddings, save_scores, save_trials
from svkit.upstream import (LayerStack, Manifest, ManifestRow, load_manifest, load_stack, save_manifest, save_stack,
                            stack_duration)


def svhs(n=2, t=3, d=4, rate=50.0, values=None):
    if values is None:
        values = np.arange(n * t * d, dtype="<f4")
    return b"SVHS" + struct.pack("<IIIIf", 1, n, t, d, rate) + np.asarray(values, dtype="<f4").tobytes()


def svck_record(name: bytes, dims, values):
    out = struct.pack("<H", len(name)) + name + struct.pack("<B", len(dims))
    return out + struct.pack(f"<{len(dims)}I", *dims) + np.asarray(values, dtype="<f4").tobytes()


def svck(*records):
    return b"SVCK" + struct.pack("<I", 1) + b"".join(records)


def sveb_record(uid: bytes, values):
    return struct.pack("<H", len(uid)) + uid + np.asarray(values, dtype="<f4").tobytes()


def sveb(dim, count, *records):
    return b"SVEB" + struct.pack("<III", 1, dim, count) + b"".join(records)


def wav(channels=1, rate=16000, bits=16, data=b"\x00" * 64, fmt_size=16, before_data=b""):
    """A RIFF/WAVE file; `fmt_size` cuts the fmt chunk short, and `before_data` is spliced in as whole chunks."""
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", 1, channels, rate, rate * block, block, bits)[:fmt_size]
    out = b"RIFF" + struct.pack("<I", 20 + fmt_size + len(before_data) + len(data)) + b"WAVE"
    out += b"fmt " + struct.pack("<I", fmt_size) + fmt + before_data
    return out + b"data" + struct.pack("<I", len(data)) + data


# One crafted file per defect the shared reader closes: (name, file bytes, loader, match).
DEFECTS = [
    ("sveb_invalid_utf8_id", sveb(2, 1, sveb_record(b"\xff\xfe", [1, 2])), load_embeddings, "UTF-8"),
    ("svck_invalid_utf8_name", svck(svck_record(b"w\xc3", [2], [1, 2])), load_checkpoint, "UTF-8"),
    ("sveb_trailing_bytes", sveb(2, 1, sveb_record(b"a", [1, 2])) + b"\x00", load_embeddings, "mismatch"),
    (
        "sveb_duplicate_id",
        sveb(2, 3, sveb_record(b"a", [1, 2]), sveb_record(b"b", [3, 4]), sveb_record(b"a", [5, 6])),
        load_embeddings,
        "duplicate embedding id: 'a'",
    ),
    (
        "svck_duplicate_name",
        svck(svck_record(b"w", [2], [1, 2]), svck_record(b"w", [2], [3, 4])),
        load_checkpoint,
        "duplicate tensor name: 'w'",
    ),
    ("sveb_nan", sveb(2, 2, sveb_record(b"a", [1, 2]), sveb_record(b"b", [1, np.nan])), load_embeddings,
     "non-finite value in embedding b$"),
    ("sveb_inf", sveb(2, 2, sveb_record(b"a", [1, 2]), sveb_record(b"b", [np.inf, 1])), load_embeddings,
     "non-finite value in embedding b$"),
    ("svck_nan", svck(svck_record(b"w", [2], [np.nan, 1])), load_checkpoint, "non-finite value in tensor w"),
    ("svck_inf", svck(svck_record(b"w", [2], [1, -np.inf])), load_checkpoint, "non-finite value in tensor w"),
    ("svhs_nan_payload", svhs(values=np.full(24, np.nan)), load_stack, "non-finite"),
    ("svhs_one_layer", svhs(n=1, values=np.zeros(12)), load_stack, "L >= 1"),
    ("svhs_nan_frame_rate", svhs(rate=float("nan")), load_stack, "frame rate"),
    ("svhs_zero_frame_rate", svhs(rate=0.0), load_stack, "frame rate"),
    ("svck_dims_overflow_int64", svck(svck_record(b"w", [65536] * 4, [])), load_checkpoint, "truncated"),
    ("svck_empty_tensor_huge_dims", svck(svck_record(b"w", [0] + [2**32 - 1] * 3, [])), load_checkpoint, "bad shape"),
    ("svck_rank_beyond_numpy", svck(svck_record(b"w", [1] * 70, [1])), load_checkpoint, "bad shape"),
    ("svhs_empty_stack_huge_dims", svhs(n=0, t=2**32 - 1, d=2**32 - 1, values=[]), load_stack, None),
    # the header-only duration read makes load_stack's checks but the payload values'
    ("svhs_duration_bad_magic", b"SVHX" + svhs()[4:], stack_duration, r"bad magic \(not an SVHS stack file\)$"),
    ("svhs_duration_version_2", b"SVHS" + struct.pack("<IIIIf", 2, 2, 3, 4, 50.0), stack_duration,
     "unsupported SVHS version 2$"),
    ("svhs_duration_truncated_header", svhs()[:20], stack_duration, r"truncated header \(16 bytes needed, 12 left\)$"),
    ("svhs_duration_truncated_payload", svhs()[:-1], stack_duration,
     r"truncated payload \(96 bytes needed, 95 left\)$"),
    ("svhs_duration_trailing_bytes", svhs() + b"\x00", stack_duration, r"payload size mismatch \(1 trailing bytes\)$"),
    ("svhs_duration_one_layer", svhs(n=1, values=np.zeros(12)), stack_duration, "L >= 1$"),
    ("svhs_duration_empty_stack_huge_dims", svhs(n=0, t=2**32 - 1, d=2**32 - 1, values=[]), stack_duration, "L >= 1$"),
    ("svhs_duration_nan_frame_rate", svhs(rate=float("nan")), stack_duration, "frame rate must be positive"),
    ("svhs_duration_zero_frame_rate", svhs(rate=0.0), stack_duration, "frame rate must be positive"),
    ("wav_duration_rate_zero", wav(rate=0), read_wav_duration, "unsupported sample rate"),
    ("wav_duration_stereo_8k", wav(channels=2, rate=8000), read_wav_duration, "channel count"),
    ("trials_invalid_utf8", b"1 a b\n0 a \xff\n", load_trials, "UTF-8"),
    ("scores_invalid_utf8", b"a \xff 0.5\n", lambda path: load_scores(path, []), "UTF-8"),
    ("manifest_invalid_utf8", b"u\ts\t\xff.wav\n", load_manifest, "UTF-8"),
    ("manifest_duplicate_id", b"u1\ta\tx.wav\nu2\ta\ty.wav\nu1\tb\tz.wav\n", load_manifest,
     "duplicate utterance id: 'u1'"),
    ("manifest_empty", b"\n \t\n", load_manifest, ": empty manifest$"),
    ("wav_short_fmt_chunk", wav(fmt_size=14), read_wav, "malformed fmt chunk"),
    ("wav_odd_data_chunk", wav(data=b"\x00" * 3), read_wav, "malformed data chunk"),
    ("wav_empty_data_chunk", wav(data=b""), read_wav, "malformed data chunk"),
    ("scores_two_fields", b"a b\n", lambda path: load_scores(path, []), ":1: expected 'enroll test score'"),
    ("scores_unparsable", b"a b abc\n", lambda path: load_scores(path, []), ":1: bad score value 'abc'"),
    ("scores_count_mismatch", b"a b 0.5\n", lambda path: load_scores(path, []), ": 1 scores for 0 trials"),
]


@pytest.mark.parametrize("raw,loader,match", [d[1:] for d in DEFECTS], ids=[d[0] for d in DEFECTS])
def test_defect_raises_format_error_naming_file(tmp_path, raw, loader, match):
    path = tmp_path / "crafted.bin"
    path.write_bytes(raw)
    with pytest.raises(FormatError, match=match) as info:
        loader(path)
    assert str(path) in str(info.value)


def test_wav_skips_an_odd_sized_chunk_and_its_pad_byte(tmp_path):
    # RIFF pads an odd-sized chunk to an even length; the pad byte is not part of the next chunk
    data = np.array([1, -2, 300, -32768], dtype="<i2").tobytes()
    plain, listed = tmp_path / "plain.wav", tmp_path / "listed.wav"
    plain.write_bytes(wav(data=data))
    listed.write_bytes(wav(data=data, before_data=b"LIST" + struct.pack("<I", 3) + b"abc" + b"\x00"))
    assert read_wav(listed).samples.tobytes() == read_wav(plain).samples.tobytes()
    assert read_wav_duration(listed) == read_wav_duration(plain) == 4 / 16000


def test_stack_duration_reads_the_header_alone(tmp_path, monkeypatch):
    import svkit.upstream as upstream

    big = tmp_path / "big.svhs"  # a paper-shape row, 25 x 1000 x 1024, sparse: its header and a zero payload
    big.write_bytes(svhs(25, 1000, 1024, 50.0, values=[]))
    with big.open("r+b") as f:
        f.truncate(24 + 25 * 1000 * 1024 * 4)
    nan = tmp_path / "nan.svhs"
    nan.write_bytes(svhs(rate=40.0, values=np.full(24, np.nan)))
    read = []

    class SpyReader(upstream.Reader):
        def __init__(self, path, prefix=None):
            super().__init__(path, prefix)
            read.append(len(self._buf))

    monkeypatch.setattr(upstream, "Reader", SpyReader)
    assert stack_duration(big) == 20.0
    assert stack_duration(nan) == 3 / 40.0  # the payload's values are not read, so not checked
    assert read == [24, 24]
    with pytest.raises(FormatError, match="non-finite"):
        load_stack(nan)


@pytest.mark.parametrize("loader", [load_stack, load_checkpoint, load_embeddings, read_wav, stack_duration])
def test_missing_file_is_format_error(tmp_path, loader):
    with pytest.raises(FormatError, match="not found or unreadable"):
        loader(tmp_path / "absent.bin")


def test_sveb_empty_store_loads(tmp_path):
    path = tmp_path / "empty.sveb"
    path.write_bytes(sveb(4, 0))
    assert load_embeddings(path) == {}


def test_svck_scalar_tensor_roundtrip(tmp_path):
    path = tmp_path / "s.svck"
    save_checkpoint({"s": np.float32(2.5), "v": np.arange(3.0)}, path)
    loaded = load_checkpoint(path)
    assert loaded["s"].shape == () and loaded["s"] == np.float32(2.5)
    assert loaded["v"].dtype == np.float32


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "save, load, what",
    [(save_embeddings, load_embeddings, "embedding id"), (save_checkpoint, load_checkpoint, "tensor name")],
    ids=["sveb", "svck"],
)
def test_writer_refuses_a_name_its_length_field_cannot_hold(tmp_path, save, load, what):
    longest = "é" * (0xFFFF // 2) + "u"  # 65535 UTF-8 bytes: the largest name a u16 length holds
    save({longest: np.ones(2)}, tmp_path / "ok.bin")
    assert set(load(tmp_path / "ok.bin")) == {longest}
    path = tmp_path / "long.bin"
    with pytest.raises(FormatError, match=f"{what} too long"):
        save({"short": np.ones(2), longest + "x": np.ones(2)}, path)
    assert not path.exists()


def test_checkpoint_writer_refuses_a_dim_its_u32_field_cannot_hold(tmp_path):
    path = tmp_path / "huge.svck"
    with pytest.raises(FormatError, match="rank/dims of tensor w overflow"):
        save_checkpoint({"v": np.ones(2), "w": np.empty((2**32, 0))}, path)  # zero-size: no memory needed
    assert not path.exists()


def write_fixtures(out):
    """One small file per writer case, each through its public saver."""
    trials = [Trial("a", "b", 1), Trial("a", "c", 0), Trial("é", "b", 1)]
    save_stack(LayerStack(np.arange(24).reshape(2, 3, 4) / 7, frame_rate_hz=49.5), out / "stack.svhs")
    tensors = {"z": np.float32(-2.5), "a.w": np.arange(6.0).reshape(2, 3) / 3, "b": np.array([1e-41, -0.0, 1e30])}
    save_checkpoint(tensors, out / "checkpoint.svck")
    save_embeddings({"u2": np.array([0.1, -0.2, 0.3]), "é1": np.arange(3.0) / 3}, out / "store.sveb")
    rows = (ManifestRow("u1", "spkA", "wav/u1.wav"), ManifestRow("é2", "spkB", "/abs/é2.svhs"))
    save_manifest(Manifest(rows), out / "manifest.tsv")
    save_trials(trials, out / "trials.txt")
    save_trials([Trial(t.enroll_id, t.test_id) for t in trials], out / "trials_unlabeled.txt")
    save_scores(trials, [0.5, -1 / 3, 2 / 3], out / "scores.txt")
    write_weights_csv(out / "weights.csv", normalized_weights([0.0, 1.0, -1.0]))
    write_wav(out / "wave.wav", Waveform([0.0, 0.25, -1 / 3, 1.0, -1.0, 0.5 / 32768]))  # clips 1.0, rounds half to 0
    write_npy(out / "feats.npy", np.arange(6.0).reshape(2, 3) / 7)


# Recorded from the writers before they shared binfile.Writer and write_lines;
# wave.wav and feats.npy before they shared binfile.write_bytes.
WRITER_SHA256 = {
    "checkpoint.svck": "df3f5dc966dd8430908d35f2d3577b73db94f48f209bd9368727932d95c5dd67",
    "manifest.tsv": "ecdc3616cc654a20b2c353a28787e17a2f8905002b665eb458c546eb4161d5ba",
    "scores.txt": "f6dbc7592ca5fdd178493118980c6ee6ee34c7f80fabdd96a56a2417d17632c4",
    "stack.svhs": "af36aaf872801d02e17134622b6e42bfb6139c98596eea3f1a87ce39695cd154",
    "store.sveb": "7abafe3403d2e9f15558c17e5218d2ef4b7554acd103e2842db7da12fc88b0b4",
    "trials.txt": "5dce70328e03bbafa371dabf3af00f943f797d0394249b89d2ae5428210347be",
    "trials_unlabeled.txt": "7fec1d80596b8b3dff9e0ec1b09089cb18b110648a48e094f2dac6df2f93c3fd",
    "weights.csv": "c8f7213aac8b599c709e7996fd31e76e023103d7d960a29ab359cc0705cf3990",
    "wave.wav": "b89aa88d4f368363cb84d925e1a1ebeb79def900cdb26ff1024852b6002d61fa",
    "feats.npy": "6d6d7e5ea1c459106db9392e37de7f0872c849a80578a26f20051276f7368e11",
}


def test_writers_keep_their_recorded_bytes(tmp_path):
    write_fixtures(tmp_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == WRITER_SHA256


@pytest.mark.parametrize("error", [OSError(28, "No space left on device"), KeyboardInterrupt()])
def test_a_write_that_fails_midway_leaves_the_old_file_and_no_temp(tmp_path, monkeypatch, error):
    path = tmp_path / "scores.txt"
    write_lines(path, ["a b 1.000000", "a c 2.000000"])
    old = path.read_bytes()

    def torn(self, data):  # half the bytes reach the disk, then the write fails
        with open(self, "wb") as f:
            f.write(data[: len(data) // 2])
        raise error

    monkeypatch.setattr(Path, "write_bytes", torn)
    if isinstance(error, OSError):  # exit 2 naming the output, as for any unwritable path
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: cannot write output file "
                                              r"\(No space left on device\)$"):
            write_lines(path, ["a much longer replacement"] * 50)
    else:
        with pytest.raises(KeyboardInterrupt):
            write_lines(path, ["a much longer replacement"] * 50)
    assert path.read_bytes() == old
    assert list(tmp_path.iterdir()) == [path]


# ---------------------------------------------------------------------------
# Seeded mutation fuzzing
# ---------------------------------------------------------------------------


def valid_files(tmp_path):
    rng = np.random.default_rng(0)
    save_stack(LayerStack(rng.standard_normal((3, 4, 5)), frame_rate_hz=50.0), tmp_path / "v.svhs")
    save_checkpoint({"a.w": rng.standard_normal((3, 2)), "b": rng.standard_normal(4)}, tmp_path / "v.svck")
    save_embeddings({"u1": rng.standard_normal(4), "u2é": rng.standard_normal(4)}, tmp_path / "v.sveb")
    write_wav(tmp_path / "v.wav", Waveform(rng.uniform(-0.5, 0.5, 40)))
    return {
        "svhs": (tmp_path / "v.svhs", load_stack),
        "svck": (tmp_path / "v.svck", load_checkpoint),
        "sveb": (tmp_path / "v.sveb", load_embeddings),
        "wav": (tmp_path / "v.wav", read_wav),
    }


def mutate(raw: bytes, rng) -> bytes:
    kind = int(rng.integers(4))
    if kind == 0:
        return raw[: int(rng.integers(len(raw)))]
    if kind == 1:
        buf = bytearray(raw)
        buf[int(rng.integers(len(buf)))] ^= int(rng.integers(1, 256))
        return bytes(buf)
    if kind == 2:
        return raw + rng.bytes(int(rng.integers(1, 9)))
    # a header field set to 0 or 0xFFFFFFFF
    pos = int(rng.integers(min(len(raw), 48) - 3))
    return raw[:pos] + (b"\x00" if rng.random() < 0.5 else b"\xff") * 4 + raw[pos + 4 :]


@pytest.mark.parametrize("fmt", ["svhs", "svck", "sveb", "wav"])
def test_mutated_files_load_or_raise_toolkit_error(tmp_path, fmt):
    path, loader = valid_files(tmp_path)[fmt]
    raw = path.read_bytes()
    loader(path)
    rng = np.random.default_rng(sum(fmt.encode()))
    target = tmp_path / f"m.{fmt}"
    rejected = 0
    for _ in range(300):
        target.write_bytes(mutate(raw, rng))
        try:
            out = loader(target)
        except ToolkitError as exc:
            rejected += 1
            if fmt == "wav":
                with pytest.raises(ToolkitError):
                    read_wav_duration(target)
            if fmt == "svhs" and "non-finite" not in str(exc):  # the duration read leaves the values unread
                with pytest.raises(FormatError) as info:
                    stack_duration(target)
                assert str(info.value) == str(exc)
            continue
        if fmt == "wav":
            assert read_wav_duration(target) == len(out) / 16000
        if fmt == "svhs":
            assert stack_duration(target) == out.layers.shape[1] / out.frame_rate_hz
    assert rejected > 0

"""The bounds-checked readers: SVHS, SVCK, SVEB, WAV and the text formats.

Every malformed input must raise a ToolkitError subclass naming the file; no
raw exception may escape a loader.
"""

import struct

import numpy as np
import pytest

from svkit.audio import Waveform, read_wav, read_wav_duration, write_wav
from svkit.ecapa import load_checkpoint, save_checkpoint
from svkit.errors import FormatError, ToolkitError
from svkit.scoring import load_embeddings, load_scores, load_trials, save_embeddings
from svkit.upstream import LayerStack, load_manifest, load_stack, save_stack


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


def wav(channels=1, rate=16000, bits=16, data=b"\x00" * 64):
    block = channels * bits // 8
    out = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    out += b"fmt " + struct.pack("<IHHIIHH", 16, 1, channels, rate, rate * block, block, bits)
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
    ("sveb_nan", sveb(2, 1, sveb_record(b"a", [1, np.nan])), load_embeddings, "non-finite"),
    ("sveb_inf", sveb(2, 1, sveb_record(b"a", [np.inf, 1])), load_embeddings, "non-finite"),
    ("svck_nan", svck(svck_record(b"w", [2], [np.nan, 1])), load_checkpoint, "non-finite"),
    ("svck_inf", svck(svck_record(b"w", [2], [1, -np.inf])), load_checkpoint, "non-finite"),
    ("svhs_nan_payload", svhs(values=np.full(24, np.nan)), load_stack, "non-finite"),
    ("svhs_one_layer", svhs(n=1, values=np.zeros(12)), load_stack, "L >= 1"),
    ("svhs_nan_frame_rate", svhs(rate=float("nan")), load_stack, "frame rate"),
    ("svhs_zero_frame_rate", svhs(rate=0.0), load_stack, "frame rate"),
    ("svck_dims_overflow_int64", svck(svck_record(b"w", [65536] * 4, [])), load_checkpoint, "truncated"),
    ("svck_empty_tensor_huge_dims", svck(svck_record(b"w", [0] + [2**32 - 1] * 3, [])), load_checkpoint, "bad shape"),
    ("svck_rank_beyond_numpy", svck(svck_record(b"w", [1] * 70, [1])), load_checkpoint, "bad shape"),
    ("svhs_empty_stack_huge_dims", svhs(n=0, t=2**32 - 1, d=2**32 - 1, values=[]), load_stack, None),
    ("wav_duration_rate_zero", wav(rate=0), read_wav_duration, "unsupported sample rate"),
    ("wav_duration_stereo_8k", wav(channels=2, rate=8000), read_wav_duration, "channel count"),
    ("trials_invalid_utf8", b"1 a b\n0 a \xff\n", load_trials, "UTF-8"),
    ("scores_invalid_utf8", b"a \xff 0.5\n", lambda path: load_scores(path, []), "UTF-8"),
    ("manifest_invalid_utf8", b"u\ts\t\xff.wav\n", load_manifest, "UTF-8"),
]


@pytest.mark.parametrize("raw,loader,match", [d[1:] for d in DEFECTS], ids=[d[0] for d in DEFECTS])
def test_defect_raises_format_error_naming_file(tmp_path, raw, loader, match):
    path = tmp_path / "crafted.bin"
    path.write_bytes(raw)
    with pytest.raises(FormatError, match=match) as info:
        loader(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("loader", [load_stack, load_checkpoint, load_embeddings, read_wav])
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
        except ToolkitError:
            rejected += 1
            if fmt == "wav":
                with pytest.raises(ToolkitError):
                    read_wav_duration(target)
            continue
        if fmt == "wav":
            assert read_wav_duration(target) == len(out) / 16000
    assert rejected > 0

"""Bounds-checked cursor over one input file, and its write side.

The SVHS, SVCK, SVEB and WAV loaders read only through a Reader, the one
module that moves a read position; every read failure raises FormatError naming
the file, and the manifest, trial and score loaders take their rows from it.
SVHS, SVCK and SVEB are written through a Writer, text by `write_lines`, arrays by `write_npy`,
and every output file, WAV too, by `write_bytes`: it makes the directory, replaces the file whole, and a failed
write is exit 2.
"""

from __future__ import annotations

import io
import os
import struct
from collections import Counter
from collections.abc import Iterator
from contextlib import suppress
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FormatError


class Reader:
    def __init__(self, path):
        self.path = path
        try:
            self._buf = memoryview(Path(path).read_bytes())
        except OSError as exc:
            raise FormatError(f"{path}: file not found or unreadable ({exc.strerror})") from None
        self._pos = 0

    def error(self, message: str) -> FormatError:
        return FormatError(f"{self.path}: {message}")

    @property
    def remaining(self) -> int:
        return len(self._buf) - self._pos

    def header(self, magic: bytes, kind: str):
        """Consume the magic and u32 version 1 that open SVHS, SVCK and SVEB files."""
        if self._buf[: len(magic)] != magic:
            raise self.error(f"bad magic (not an {kind})")
        (version,) = self.unpack(f"{len(magic)}xI", "header")
        if version != 1:
            raise self.error(f"unsupported {magic.decode()} version {version}")

    def take(self, n: int, what: str) -> memoryview:
        """The next n bytes, as a view into the file buffer."""
        start = self._pos
        if start + n > len(self._buf):
            raise self.error(f"truncated {what} ({n} bytes needed, {self.remaining} left)")
        self._pos = start + n
        return self._buf[start : self._pos]

    def unpack(self, fmt: str, what: str) -> tuple:
        """Unpack the little-endian struct `fmt` (no byte-order prefix)."""
        fmt = "<" + fmt
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def text(self, what: str) -> str:
        """A u16-length-prefixed UTF-8 string."""
        n = int.from_bytes(self.take(2, what), "little")
        try:
            return str(self.take(n, what), "utf-8")
        except UnicodeDecodeError:
            raise self.error(f"{what} is not valid UTF-8") from None

    def rows(self, sep: str | None = None) -> Iterator[tuple[int, list]]:
        """(line number, fields split on `sep`) for each non-blank line of a UTF-8 text file."""
        try:
            text = str(self._buf, "utf-8")
        except UnicodeDecodeError:
            raise self.error("not valid UTF-8 text") from None
        return ((n, line.split(sep)) for n, line in enumerate(text.splitlines(), 1) if line.strip())

    def float32(self, chunks, labels) -> np.ndarray:
        """The float32 values of `chunks` as one flat, read-only array; a non-finite one names its chunk's label."""
        values = np.frombuffer(b"".join(chunks), dtype="<f4")
        if not np.isfinite(values).all():  # one pass over the whole payload; the chunk is found only on failure
            bad = next(label for label, chunk in zip(labels, chunks)
                       if not np.isfinite(np.frombuffer(chunk, dtype="<f4")).all())
            raise self.error(f"non-finite value in {bad}")
        return values

    def unique(self, names: list, what: str):
        dup = first_duplicate(names)
        if dup is not None:
            raise self.error(f"duplicate {what}: {dup!r}")

    def end(self):
        """Reject bytes left after the last record."""
        if self.remaining:
            raise self.error(f"payload size mismatch ({self.remaining} trailing bytes)")


def first_duplicate(names):
    """The first name that occurs more than once, else None."""
    return next((n for n, c in Counter(names).items() if c > 1), None)


class Writer:
    """The write side of Reader: built in memory and saved at once, so a refused value leaves no file."""

    def __init__(self, magic: bytes, noun: str):
        self.noun = noun
        self._out = [magic, struct.pack("<I", 1)]  # mirrors Reader.header

    def pack(self, fmt: str, *values, what: str):
        """Append the little-endian struct `fmt` (no byte-order prefix)."""
        try:
            self._out.append(struct.pack("<" + fmt, *values))
        except struct.error:
            raise FormatError(f"{what} overflow the {self.noun} header fields") from None

    def text(self, value: str, what: str):
        """Append a u16-length-prefixed UTF-8 string."""
        enc = value.encode("utf-8")
        if len(enc) > 0xFFFF:
            raise FormatError(f"{what} too long for the {self.noun} (over 65535 UTF-8 bytes): {value}")
        self._out += (struct.pack("<H", len(enc)), enc)

    def float32(self, values, labels) -> np.ndarray:
        """`values` cast to little-endian float32, one row per label, each checked finite there."""
        with np.errstate(over="ignore"):  # an overflow is a non-finite value, refused below
            arr = np.asarray(values, dtype="<f4")
        finite = np.isfinite(arr.reshape(len(labels), -1)).all(axis=1)
        if not finite.all():  # the reader would reject the file
            raise DataError(f"{labels[int(np.argmin(finite))]} is not finite in float32; no {self.noun} written")
        return arr

    def array(self, arr: np.ndarray):
        """Append the bytes of `arr` in C order."""
        self._out.append(arr.tobytes())

    def save(self, path):
        write_bytes(path, b"".join(self._out))


def write_bytes(path, data: bytes):
    """Write `data` to exactly `path`, making its directory first: the one place output reaches the disk.

    The bytes go to a temp sibling that then replaces `path` in one rename, so a write that fails or is
    interrupted leaves the old file (or none), never a prefix of the new one, and no temp file.
    """
    path = Path(path)
    tmp = path.parent / f".svkit-{os.getpid()}.tmp"  # not named after `path`: a name at the length limit still fits
    try:
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except BaseException:
            with suppress(OSError):
                tmp.unlink()
            raise
    except OSError as exc:
        raise ConfigError(f"{path}: cannot write output file ({exc.strerror})") from None


def write_lines(path, lines):
    """Write UTF-8 text, each line ended by a bare LF (no CR) on every platform."""
    write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


def write_npy(path, arr: np.ndarray):
    """Write `arr` in NumPy's .npy format to exactly `path`; np.save given a name would append ".npy"."""
    buf = io.BytesIO()
    np.save(buf, arr)
    write_bytes(path, buf.getvalue())

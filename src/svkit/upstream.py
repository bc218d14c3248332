"""Layer stacks from an upstream speech encoder.

Two sources are supported: a deterministic mock encoder (seeded random
strided convolutions plus mixing layers, a desk-scale stand-in for large
pre-trained models) and stacks imported from files exported by real models.
Stacks carry hidden states for layers 0..L, where index 0 is the encoder
output that feeds the first mixing layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .audio import SAMPLE_RATE, Waveform
from .binfile import Reader, Writer, first_duplicate, write_lines
from .errors import ConfigError, DataError, FormatError
from .rng import child_rng

_PLANT_SALT = 0x5EED


@dataclass(frozen=True)
class LayerStack:
    """(L+1) x T x D hidden states, stored as float32 (the on-disk precision)."""

    layers: np.ndarray
    frame_rate_hz: float

    def __post_init__(self):
        arr = np.asarray(self.layers)
        if arr.dtype.kind not in "iuf":  # numpy would parse strings and drop imaginary parts
            raise ValueError(f"layer stack entries must be integers or floats, got {arr.dtype}")
        with np.errstate(over="ignore"):  # an overflow is a non-finite entry, refused by `_keep`
            arr = np.array(arr, dtype=np.float32)  # a copy: the stack owns its data
        self._keep(arr)

    @classmethod
    def _own(cls, layers: np.ndarray, frame_rate_hz) -> "LayerStack":
        """A stack over `layers`, a float32 array that no caller can write (a fresh array, or a view of the
        immutable bytes of a file), kept read-only rather than copied."""
        stack = object.__new__(cls)
        object.__setattr__(stack, "frame_rate_hz", frame_rate_hz)
        stack._keep(layers)
        return stack

    def _keep(self, arr: np.ndarray):
        _check_stack(arr.shape, self.frame_rate_hz, arr)
        arr.flags.writeable = False
        object.__setattr__(self, "layers", arr)


def _check_stack(shape: tuple, rate, layers=None):
    """ValueError unless `shape` is (L+1) x T x D with L >= 1, the `layers` (if given) are finite and the
    frame rate is positive and finite in float32, checked in that order."""
    if len(shape) != 3 or shape[0] < 2 or shape[1] < 1 or shape[2] < 1:
        raise ValueError("layer stack must be (L+1) x T x D with L >= 1")
    if layers is not None and not np.all(np.isfinite(layers)):
        raise ValueError("layer stack contains non-finite entries")
    real = isinstance(rate, (int, float, np.number)) and not isinstance(rate, bool)  # numpy parses a str
    with np.errstate(over="ignore"):  # an overflow is an infinite rate
        if not (real and 0 < np.float32(rate) < np.inf):
            raise ValueError(f"stack frame rate must be positive and finite in float32, got {rate!r}")


# The mock's front end is fixed, like the encoders it stands in for (the
# wav2vec 2.0 feature encoder hops 320 samples, 20 ms at 16 kHz): four strided
# convs whose kernels equal their strides, and a 3-frame moving average after
# every mixing layer. With no nonlinearity between them the four convs are one
# linear map of each 320-sample patch, which `forward_graph` applies. That holds
# for the mock only: real encoders put GELU and a norm between their convs.
CONV_STRIDES = (5, 4, 4, 4)
HOP = math.prod(CONV_STRIDES)


@dataclass(frozen=True)
class MockUpstreamConfig:
    n_layers: int = 12
    dim: int = 64
    seed: int = 0

    def __post_init__(self):
        for key in ("n_layers", "dim"):
            if getattr(self, key) < 1:
                raise ConfigError(f"upstream.{key} must be >= 1, got {getattr(self, key)}")

    @property
    def frame_rate_hz(self) -> float:
        return SAMPLE_RATE / HOP


def param_shapes(cfg: MockUpstreamConfig) -> dict:
    """Shapes of every mock tensor, in initialization order: conv0-3, then mix1..L, each weight then bias."""
    d = cfg.dim
    shapes = {}
    for i, stride in enumerate(CONV_STRIDES):
        shapes[f"conv{i}.w"] = (stride * (d if i else 1), d)
        shapes[f"conv{i}.b"] = (d,)
    for l in range(1, cfg.n_layers + 1):
        shapes[f"mix{l}.w"] = (d, d)
        shapes[f"mix{l}.b"] = (d,)
    return shapes


class MockUpstream:
    """Seeded random encoder: strided conv stack then tanh mixing layers.

    Parameters are fixed by the seed (or given, as arrays or as the tensors a
    `pipeline.System` trains) and held as float64 tensors. Forward passes are
    pure.
    """

    def __init__(self, cfg: MockUpstreamConfig, params: dict = {}):
        self.cfg = cfg
        self.params = {k: v if isinstance(v, ad.Tensor) else ad.Tensor(v)
                       for k, v in (params or self._init_params(cfg)).items()}

    @staticmethod
    def _init_params(cfg: MockUpstreamConfig) -> dict:
        """Draw `param_shapes(cfg)` in order: N(0, 1/sqrt(rows)) weights, N(0, 0.1) biases."""
        rng = child_rng(cfg.seed, "mock-upstream-init")
        return {
            name: rng.normal(0.0, 1.0 / np.sqrt(shape[0]) if name.endswith(".w") else 0.1, shape)
            for name, shape in param_shapes(cfg).items()
        }

    def forward_array(self, wav: Waveform) -> np.ndarray:
        """The float32 (L+1) x T x D stack, each layer cast once into it; an entry past float32's range is inf."""
        graph = self.forward_graph(ad.Tensor(wav.samples))
        out = np.empty((len(graph), *graph[0].shape), dtype=np.float32)
        with np.errstate(over="ignore"):  # refused by `stack` as a non-finite entry
            for l, h in enumerate(graph):
                out[l] = h.data
        return out

    def stack(self, wav: Waveform, source: str) -> LayerStack:
        """The forward pass stored as a float32 LayerStack, like an imported SVHS stack.

        An output that overflows float32 is a DataError naming `source`.
        """
        layers = self.forward_array(wav)
        try:
            return LayerStack._own(layers, self.cfg.frame_rate_hz)
        except ValueError as exc:  # a forward's shape and rate are valid, so its values are not finite
            raise DataError(f"{source}: mock upstream output does not fit float32: {exc}") from None

    def forward_graph(self, samples: ad.Tensor) -> list:
        """Differentiable forward: list of (T, D) tensors for layers 0..L."""
        cfg = self.cfg
        if samples.data.size < HOP:
            raise DataError(
                f"waveform of {samples.data.size} samples is shorter than the "
                f"{HOP}-sample receptive field"
            )
        # compose the conv stack into one (HOP, D) weight and (1, D) bias: conv i
        # reads `stride` frames of conv i-1, so its weight stacks the previous one
        # times each (D, D) tap, and the previous bias passes through the taps' sum
        d, p = cfg.dim, self.params
        w, b = p["conv0.w"], p["conv0.b"].reshape(1, d)
        for i, stride in enumerate(CONV_STRIDES[1:], 1):
            wi = p[f"conv{i}.w"]
            w = ad.concat([w @ wi[k * d : (k + 1) * d] for k in range(stride)])
            b = b @ wi.reshape(stride, d, d).sum(axis=0) + p[f"conv{i}.b"]
        t = samples.data.size // HOP
        x = samples[: t * HOP].reshape(t, HOP) @ w + b
        layers = [x]
        for l in range(1, cfg.n_layers + 1):
            x = _smooth(ad.linear(x, p[f"mix{l}.w"], p[f"mix{l}.b"]).tanh())
            layers.append(x)
        return layers


def _smooth(x: ad.Tensor) -> ad.Tensor:
    """3-frame moving average with replicate padding: each frame averages itself and its neighbours.

    One node. Its forward runs the numpy ops of the same average built from `Tensor`
    slices, `concat`, `+` and `*`, in order, so its values equal that composition's to
    the byte; its VJP is the transposed average: each frame's gradient over 3 goes back
    to the frames it read, the clipped reads to the first and last frame.
    """
    a = x.data
    # `(prev + a + nxt) * (1 / 3)`, op for op, in one fresh array: `out` starts as `prev`, each frame's
    # previous frame, then takes `a`, then `nxt`, each frame's next frame
    out = np.concatenate([a[:1], a[:-1]])
    out += a
    out[:-1] += a[1:]
    out[-1] += a[-1]
    out *= 1.0 / 3

    def vjp(g):
        g3 = g * (1.0 / 3)
        gx = g3.copy()
        gx[:-1] += g3[1:]  # frame j - 1 was frame j's `prev`
        gx[1:] += g3[:-1]  # frame j + 1 was frame j's `nxt`
        gx[0] += g3[0]
        gx[-1] += g3[-1]
        return (gx,)

    return ad.Tensor._op(out, (x,), vjp)


def mock_forward(wav: Waveform, cfg: MockUpstreamConfig) -> LayerStack:
    """Run the seeded mock encoder on one waveform."""
    return MockUpstream(cfg).stack(wav, "waveform")


def is_stack_file(path) -> bool:
    """Row source rule: a `.svhs` file is an imported stack; any other path is a WAV."""
    return Path(path).suffix == ".svhs"


# ---------------------------------------------------------------------------
# Planted speaker information (fixture for verifying weight learning)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlantSpec:
    """The `plant` config section: a fixed per-speaker offset in one upstream layer; layer -1 is off. A layer past
    the upstream's last is refused by `pipeline.System`, which holds both configs."""

    layer: int = -1
    strength: float = 0.0

    def __post_init__(self):
        if self.layer < -1:
            raise ConfigError(f"plant.layer must be -1 (off) or a layer index, got {self.layer}")
        if not 0.0 <= self.strength < math.inf:
            raise ConfigError(f"plant.strength must be finite and >= 0, got {self.strength}")


def speaker_offset(speaker_id, dim: int) -> np.ndarray:
    """Fixed unit vector for a speaker id, from a seeded hash."""
    rng = child_rng(_PLANT_SALT, f"plant:{speaker_id}")
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# Stack file format (SVHS)
# ---------------------------------------------------------------------------

_SVHS_MAGIC = b"SVHS"


def save_stack(stack: LayerStack, path):
    w = Writer(_SVHS_MAGIC, "stack")
    w.pack("IIIf", *stack.layers.shape, stack.frame_rate_hz, what="stack dimensions")
    w.array(stack.layers.astype("<f4", copy=False))
    w.save(path)


def _stack_header(r: Reader) -> tuple:
    """The (L+1, T, D) shape and frame rate in the header of the SVHS file `r` opens, and the payload's size."""
    r.header(_SVHS_MAGIC, "SVHS stack file")
    n, t, d, rate = r.unpack("IIIf", "header")
    return (n, t, d), float(rate), n * t * d * 4


def load_stack(path) -> LayerStack:
    r = Reader(path)
    shape, rate, size = _stack_header(r)
    payload = r.take(size, "payload")
    r.end()
    try:
        return LayerStack._own(np.frombuffer(payload, dtype="<f4").reshape(shape), rate)
    except ValueError as exc:
        raise r.error(str(exc)) from None


def stack_duration(path) -> float:
    """Seconds of the SVHS stack at `path`, frames / frame rate, from its header alone: `load_stack`'s checks
    of the header, the file size, the shape and the rate, with its messages, but the payload's values unread."""
    r = Reader(path, prefix=24)  # the header: magic, version, three u32 dims and an f32 frame rate
    shape, rate, size = _stack_header(r)
    r.skip(size, "payload")
    r.end()
    try:
        _check_stack(shape, rate)
    except ValueError as exc:
        raise r.error(str(exc)) from None
    return shape[1] / rate


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ManifestRow:
    utt_id: str
    speaker_id: str
    path: str


@dataclass(frozen=True)
class Manifest:
    rows: tuple
    base_dir: Path = field(default_factory=Path)

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))  # first: an iterator is read once
        dup = first_duplicate(r.utt_id for r in self.rows)
        if dup is not None:
            raise FormatError(f"manifest contains duplicate utterance id: {dup!r}")
        object.__setattr__(self, "base_dir", Path(self.base_dir))

    def __len__(self):
        return len(self.rows)

    def resolve(self, row: ManifestRow) -> Path:
        p = Path(row.path)
        return p if p.is_absolute() else self.base_dir / p

    @property
    def speakers(self) -> list:
        return sorted({r.speaker_id for r in self.rows})

    def by_speaker(self) -> dict:
        out: dict = {}
        for r in self.rows:
            out.setdefault(r.speaker_id, []).append(r)
        return out


def load_manifest(path, check_paths: bool = False) -> Manifest:
    """Read a tab-separated manifest (utt_id, speaker_id, path per line); a file with no row is a FormatError.

    Relative paths resolve against the manifest's directory.
    """
    path = Path(path)
    r = Reader(path)
    rows = []
    for lineno, parts in r.rows("\t"):
        if len(parts) != 3:
            raise FormatError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}")
        rows.append(ManifestRow(*parts))
    if not rows:
        raise FormatError(f"{path}: empty manifest")
    r.unique([row.utt_id for row in rows], "utterance id")
    manifest = Manifest(tuple(rows), base_dir=path.parent)
    if check_paths:
        for row in manifest.rows:
            if not manifest.resolve(row).is_file():
                raise FormatError(f"manifest entry {row.utt_id}: file not found: {manifest.resolve(row)}")
    return manifest


def save_manifest(manifest: Manifest, path):
    write_lines(path, (f"{r.utt_id}\t{r.speaker_id}\t{r.path}" for r in manifest.rows))

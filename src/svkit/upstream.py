"""Layer stacks from an upstream speech encoder.

Two sources are supported: a deterministic mock encoder (seeded random
strided convolutions plus mixing layers, a desk-scale stand-in for large
pre-trained models) and stacks imported from files exported by real models.
Stacks carry hidden states for layers 0..L, where index 0 is the encoder
output that feeds the first mixing layer.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .audio import SAMPLE_RATE, Waveform
from .binfile import Reader
from .errors import ConfigError, DataError, FormatError
from .rng import child_rng

_PLANT_SALT = 0x5EED


@dataclass(frozen=True)
class LayerStack:
    """(L+1) x T x D hidden states, stored as float32 (the on-disk precision)."""

    layers: np.ndarray
    frame_rate_hz: float

    def __post_init__(self):
        with np.errstate(over="ignore"):  # an overflow is a non-finite entry, refused below
            arr = np.asarray(self.layers, dtype=np.float32)
        if arr.ndim != 3 or arr.shape[0] < 2 or arr.shape[1] < 1 or arr.shape[2] < 1:
            raise ValueError("layer stack must be (L+1) x T x D with L >= 1")
        if not np.all(np.isfinite(arr)):
            raise ValueError("layer stack contains non-finite entries")
        if not 0 < self.frame_rate_hz < np.inf:
            raise ValueError(f"layer stack frame rate must be positive and finite, got {self.frame_rate_hz}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "layers", arr)

    @property
    def num_frames(self) -> int:
        return self.layers.shape[1]

    @property
    def dim(self) -> int:
        return self.layers.shape[2]


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
        if self.n_layers < 1 or self.dim < 1:
            raise ConfigError("mock upstream needs n_layers >= 1 and dim >= 1")

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

    Parameters are fixed by the seed (or given) and held as frozen float64
    tensors; `as_tensors` makes them trainable for the joint fine-tuning
    stage. Forward passes are pure.
    """

    def __init__(self, cfg: MockUpstreamConfig, params: dict = {}):
        self.cfg = cfg
        arrays = params or self._init_params(cfg)  # no given parameters: seeded from cfg
        self.params = {k: ad.Tensor(np.asarray(v, dtype=np.float64)) for k, v in arrays.items()}

    @staticmethod
    def _init_params(cfg: MockUpstreamConfig) -> dict:
        """Draw `param_shapes(cfg)` in order: N(0, 1/sqrt(rows)) weights, N(0, 0.1) biases."""
        rng = child_rng(cfg.seed, "mock-upstream-init")
        return {
            name: rng.normal(0.0, 1.0 / np.sqrt(shape[0]) if name.endswith(".w") else 0.1, shape)
            for name, shape in param_shapes(cfg).items()
        }

    def forward_array(self, wav: Waveform) -> np.ndarray:
        """Float64 (L+1) x T x D stack; the float32 LayerStack is a storage view."""
        graph = self.forward_graph(ad.Tensor(wav.samples))
        return np.stack([h.data for h in graph])

    def stack(self, wav: Waveform, source: str) -> LayerStack:
        """The forward pass stored as a float32 LayerStack, like an imported SVHS stack.

        An output that overflows float32 is a DataError naming `source`.
        """
        layers = self.forward_array(wav)
        try:
            return LayerStack(layers, frame_rate_hz=self.cfg.frame_rate_hz)
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
            z = (x @ p[f"mix{l}.w"] + p[f"mix{l}.b"]).tanh()
            x = _smooth(z)
            layers.append(x)
        return layers

    def as_tensors(self) -> dict:
        """Mark the parameters trainable; returns them."""
        for p in self.params.values():
            p.requires_grad = True
        return self.params

    def param_arrays(self) -> dict:
        return {name: p.data.copy() for name, p in self.params.items()}


def _smooth(x: ad.Tensor) -> ad.Tensor:
    """3-frame moving average with replicate padding: each frame averages itself and its neighbours."""
    prev = ad.concat([x[:1], x[:-1]])
    nxt = ad.concat([x[1:], x[-1:]])
    return (prev + x + nxt) * (1.0 / 3)


def mock_forward(wav: Waveform, cfg: MockUpstreamConfig) -> LayerStack:
    """Run the seeded mock encoder on one waveform."""
    return MockUpstream(cfg).stack(wav, "waveform")


def is_stack_file(path) -> bool:
    """Row source rule: a `.svhs` file is an imported stack; any other path is a WAV."""
    return Path(path).suffix == ".svhs"


def check_row_stack(layers, manifest: Manifest, row: ManifestRow, n_layers_plus_1: int, dim: int):
    """DataError naming the row and its file unless `layers` is (n_layers_plus_1, T, dim)."""
    n, _, d = layers.shape
    if (n, d) != (n_layers_plus_1, dim):
        raise DataError(
            f"{row.utt_id} ({manifest.resolve(row)}): stack has {n} layers of dim {d}, "
            f"expected {n_layers_plus_1} layers of dim {dim}"
        )


# ---------------------------------------------------------------------------
# Planted speaker information (fixture for verifying weight learning)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlantSpec:
    """Inject a fixed per-speaker offset into one upstream layer (test fixture)."""

    layer: int
    strength: float

    def __post_init__(self):
        if not 0.0 <= self.strength < math.inf:
            raise ConfigError(f"plant.strength must be finite and >= 0, got {self.strength}")


def speaker_offset(speaker_id, dim: int) -> np.ndarray:
    """Fixed unit vector for a speaker id, from a seeded hash."""
    rng = child_rng(_PLANT_SALT, f"plant:{speaker_id}")
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def plant_speaker_info(layers, speaker_id, plant: PlantSpec):
    """Add strength * unit_vector(speaker_id) to every frame of the planted layer, in place.

    `layers` is a float64 (L+1, T, D) array or, while the upstream is fine-tuned, a list of (T, D) tensors.
    """
    k = plant.layer
    if not 0 <= k < len(layers):
        raise DataError(f"plant layer {k} out of range 0..{len(layers) - 1}")
    layers[k] = layers[k] + plant.strength * speaker_offset(speaker_id, layers[k].shape[-1])


# ---------------------------------------------------------------------------
# Stack file format (SVHS)
# ---------------------------------------------------------------------------

_SVHS_MAGIC = b"SVHS"
_U32_MAX = 2**32 - 1


def save_stack(stack: LayerStack, path):
    n, t, d = stack.layers.shape
    if max(n, t, d) > _U32_MAX:
        raise FormatError("stack dimensions overflow the u32 header fields")
    header = _SVHS_MAGIC + struct.pack("<IIIIf", 1, n, t, d, stack.frame_rate_hz)
    Path(path).write_bytes(header + stack.layers.astype("<f4").tobytes())


def load_stack(path) -> LayerStack:
    r = Reader(path)
    r.header(_SVHS_MAGIC, "SVHS stack file")
    n, t, d, rate = r.unpack("IIIf", "header")
    payload = r.take(n * t * d * 4, "payload")
    r.end()
    try:
        return LayerStack(np.frombuffer(payload, dtype="<f4").reshape(n, t, d), frame_rate_hz=float(rate))
    except ValueError as exc:
        raise r.error(str(exc)) from None


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
        ids = [r.utt_id for r in self.rows]
        if len(set(ids)) != len(ids):
            raise FormatError("manifest contains duplicate utterance ids")
        object.__setattr__(self, "rows", tuple(self.rows))
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
    """Read a tab-separated manifest (utt_id, speaker_id, path per line).

    Relative paths resolve against the manifest's directory.
    """
    path = Path(path)
    rows = []
    for lineno, parts in Reader(path).rows("\t"):
        if len(parts) != 3:
            raise FormatError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}")
        rows.append(ManifestRow(*parts))
    manifest = Manifest(tuple(rows), base_dir=path.parent)
    if check_paths:
        for r in manifest.rows:
            if not manifest.resolve(r).is_file():
                raise FormatError(f"manifest entry {r.utt_id}: file not found: {manifest.resolve(r)}")
    return manifest


def save_manifest(manifest: Manifest, path):
    lines = [f"{r.utt_id}\t{r.speaker_id}\t{r.path}" for r in manifest.rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

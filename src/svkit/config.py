"""Run configuration: flat "section.key = value" text files.

Defaults carry the reference recipe: AAM margin 0.2 (0.5 for large-margin
fine-tuning), 3 s crops (6 s LMFT), augmentation probability 0.6, imposter
cohort top-k 600, epochs 10/5/2, 40-dim filterbank at 25 ms / 10 ms.
Unknown keys are rejected; CLI --set overrides win over the file.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace

from .audio import AugmentConfig, FbankConfig
from .binfile import Reader
from .ecapa import EcapaConfig
from .errors import ConfigError, FormatError
from .training import AamConfig, TrainSchedule
from .upstream import MockUpstreamConfig, PlantSpec


@dataclass(frozen=True)
class ScoringConfig:
    cohort_top_k: int = 600

    def __post_init__(self):
        if self.cohort_top_k < 1:
            raise ConfigError("scoring.cohort_top_k must be >= 1")


@dataclass(frozen=True)
class PathSettings:
    noise_dir: str = ""
    rir_dir: str = ""


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    fbank: FbankConfig = field(default_factory=FbankConfig)
    upstream: MockUpstreamConfig = field(default_factory=MockUpstreamConfig)
    ecapa: EcapaConfig = field(default_factory=EcapaConfig)
    aam: AamConfig = field(default_factory=AamConfig)
    schedule: TrainSchedule = field(default_factory=TrainSchedule)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    scoring: ScoringConfig = field(default_factory=ScoringConfig)
    plant: PlantSpec = field(default_factory=PlantSpec)
    paths: PathSettings = field(default_factory=PathSettings)


def _parse_value(dotted: str, text: str, default):
    """Parse text as the default's type: int, float or str, or a tuple of exactly as many values as the default.
    Text is one line, as a config file holds it: `dump_config` writes it back verbatim."""
    text = text.strip()
    if isinstance(default, str) and len(text.splitlines()) > 1:
        raise ConfigError(f"{dotted}: expected one line of text, got {text!r}")
    many = isinstance(default, tuple)
    defaults, parts = (default, text.split(",")) if many else ((default,), [text])
    try:
        values = tuple(type(d)(part) for d, part in zip(defaults, parts, strict=True))
    except ValueError:
        expected = f"comma-separated numbers ({len(default)} values)" if many else (
            "an integer" if isinstance(default, int) else "a number")
        raise ConfigError(f"{dotted}: expected {expected}, got {text!r}") from None
    return values if many else values[0]


def _apply(cfg: RunConfig, dotted: str, raw: str) -> RunConfig:
    """cfg with the setting `dotted` (`seed` or `section.key`) parsed from raw, found by walking its parts."""
    trail, node = [], cfg
    for name in dotted.split("."):
        if not (is_dataclass(node) and name in {f.name for f in fields(node)}):
            if node is cfg and "." in dotted:
                raise ConfigError(f"unknown config section: {name}")
            raise ConfigError(f"unknown config key: {dotted}")
        trail.append((node, name))
        node = getattr(node, name)
    if is_dataclass(node):
        raise ConfigError(f"unknown config key: {dotted}")
    value = _parse_value(dotted, raw, node)
    try:
        for parent, name in reversed(trail):
            value = replace(parent, **{name: value})
    except ConfigError:
        raise
    except Exception as exc:  # a section check tripping on outside input in a way it does not name
        raise ConfigError(f"invalid value for {dotted}: {exc}") from None
    return value


def load_config(path=None, overrides=()) -> RunConfig:
    """Build a RunConfig from defaults, an optional file, and --set overrides."""
    cfg = RunConfig()
    if path is not None:
        try:
            rows = Reader(path).rows("=")
        except FormatError as exc:
            raise ConfigError(str(exc)) from None
        for lineno, (dotted, *raw) in rows:
            if dotted.strip().startswith("#"):
                continue
            if not raw:
                raise ConfigError(f"{path}:{lineno}: expected 'section.key = value'")
            try:
                cfg = _apply(cfg, dotted.strip(), "=".join(raw))
            except ConfigError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
    for dotted, raw in overrides:
        cfg = _apply(cfg, dotted, raw)
    return cfg


def _settings(node, prefix=""):
    """(dotted key, value) for every setting under node, in field order."""
    for f in fields(node):
        value = getattr(node, f.name)
        if is_dataclass(value):
            yield from _settings(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, value


def dump_config(cfg: RunConfig) -> str:
    """Canonical text form; load(dump(cfg)) reproduces cfg."""
    return "".join(f"{key} = {','.join(map(str, value)) if isinstance(value, tuple) else value}\n"
                   for key, value in _settings(cfg))

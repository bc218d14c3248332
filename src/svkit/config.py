"""Run configuration: flat "section.key = value" text files.

Defaults carry the reference recipe: AAM margin 0.2 (0.5 for large-margin
fine-tuning), 3 s crops (6 s LMFT), augmentation probability 0.6, imposter
cohort top-k 600, epochs 10/5/2, 40-dim filterbank at 25 ms / 10 ms.
Unknown keys are rejected; CLI --set overrides win over the file.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

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


_SECTIONS = tuple(f.name for f in fields(RunConfig) if f.name != "seed")


def _parse_value(text: str, current):
    """Parse a config value against the type of the current (default) value."""
    text = text.strip()
    if isinstance(current, int):
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"expected an integer, got {text!r}") from None
    if isinstance(current, float):
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"expected a number, got {text!r}") from None
    if isinstance(current, tuple):
        kind = type(current[0])
        try:
            return tuple(kind(p) for p in text.split(","))
        except ValueError:
            raise ConfigError(f"expected comma-separated numbers, got {text!r}") from None
    return text


def _apply(cfg: RunConfig, dotted: str, raw: str) -> RunConfig:
    if "." not in dotted:
        if dotted == "seed":
            return replace(cfg, seed=_parse_value(raw, cfg.seed))
        raise ConfigError(f"unknown config key: {dotted}")
    section, key = dotted.split(".", 1)
    if section not in _SECTIONS:
        raise ConfigError(f"unknown config section: {section}")
    sub = getattr(cfg, section)
    names = {f.name for f in fields(sub)}
    if key not in names:
        raise ConfigError(f"unknown config key: {section}.{key}")
    try:
        new_sub = replace(sub, **{key: _parse_value(raw, getattr(sub, key))})
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"invalid value for {section}.{key}: {exc}") from None
    return replace(cfg, **{section: new_sub})


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


def dump_config(cfg: RunConfig) -> str:
    """Canonical text form; load(dump(cfg)) reproduces cfg."""
    lines = [f"seed = {cfg.seed}"]
    for section in _SECTIONS:
        sub = getattr(cfg, section)
        for f in fields(sub):
            value = getattr(sub, f.name)
            if isinstance(value, tuple):
                text = ",".join(str(v) for v in value)
            else:
                text = repr(value) if isinstance(value, float) else str(value)
            lines.append(f"{section}.{f.name} = {text}")
    return "\n".join(lines) + "\n"

"""End-to-end glue: run a trained system over a manifest to produce embeddings.

Shared by the CLI `embed` command and the verification suite so that both
exercise the exact same inference path.
"""

from __future__ import annotations

import numpy as np

from . import ecapa as ecapa_mod
from .aggregator import aggregate
from .audio import read_wav, read_wav_duration
from .errors import ConfigError
from .training import Model, TrainResult
from .upstream import LayerStack, Manifest, MockUpstream, PlantSpec, is_stack_file, load_stack, row_layers


class System:
    """A trained verification system: a `Model` (upstream, layer weights, embedding net) and its rows' plant."""

    def __init__(self, model: Model, plant: PlantSpec = PlantSpec()):
        self.model, self.plant = model, plant

    @property
    def upstream(self) -> MockUpstream:
        return self.model.upstream

    @classmethod
    def from_result(cls, result: TrainResult, upstream_cfg, ecapa_cfg, plant: PlantSpec = PlantSpec()) -> "System":
        """The trained model as it is: the float32 form its checkpoint reloads to, so both embed the same bytes."""
        if (upstream_cfg, ecapa_cfg) != (result.model.upstream_cfg, result.model.ecapa_cfg):
            raise ConfigError("the upstream and ecapa configs differ from those the result was trained with")
        return cls(result.model, plant)

    @classmethod
    def from_checkpoint(cls, tensors: dict, upstream_cfg, ecapa_cfg, plant: PlantSpec = PlantSpec()) -> "System":
        """A system of checkpoint tensors, each checked by name and shape against the configs."""
        return cls(Model.from_checkpoint(tensors, upstream_cfg, ecapa_cfg), plant)

    def stack_for(self, manifest: Manifest, row) -> LayerStack:
        """The row's stored float32 stack: a `.svhs` file, else the mock upstream's output."""
        path = manifest.resolve(row)
        if is_stack_file(path):
            return load_stack(path)
        return self.upstream.stack(read_wav(path), f"{row.utt_id} ({path})")

    def embed_row(self, manifest: Manifest, row) -> np.ndarray:
        m = self.model
        layers = row_layers(self.stack_for(manifest, row).layers, manifest, row, m.logits.data.size,
                            m.ecapa_cfg.in_dim, self.plant)
        return ecapa_mod.embed(aggregate(layers, m.logits.data), m.ecapa, m.ecapa_cfg)


def extract_embeddings(system: System, manifest: Manifest) -> dict:
    """Embed every manifest row; returns {utt_id: embedding}."""
    return {row.utt_id: system.embed_row(manifest, row) for row in manifest.rows}


def utterance_durations(manifest: Manifest) -> dict:
    """Seconds per row, by the row source rule: a WAV's from its header, an SVHS stack's as frames / frame rate."""
    return {row.utt_id: _duration(manifest.resolve(row)) for row in manifest.rows}


def _duration(path) -> float:
    if not is_stack_file(path):
        return read_wav_duration(path)
    stack = load_stack(path)
    return stack.layers.shape[1] / stack.frame_rate_hz

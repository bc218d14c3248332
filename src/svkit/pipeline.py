"""End-to-end glue: run a trained system over a manifest to produce embeddings.

Shared by the CLI `embed` command and the verification suite so that both
exercise the exact same inference path.
"""

from __future__ import annotations

import numpy as np

from . import ecapa as ecapa_mod
from . import upstream as upstream_mod
from .aggregator import aggregate, normalized_weights
from .audio import read_wav, read_wav_duration
from .autodiff import Tensor
from .ecapa import EcapaConfig
from .errors import FormatError
from .training import TrainResult
from .upstream import (
    LayerStack,
    Manifest,
    MockUpstream,
    MockUpstreamConfig,
    PlantSpec,
    check_row_stack,
    is_stack_file,
    load_stack,
    plant_speaker_info,
)


class System:
    """A trained verification system: upstream + layer weights + embedding net."""

    def __init__(
        self,
        upstream_cfg: MockUpstreamConfig,
        ecapa_cfg: EcapaConfig,
        ecapa_params: dict,
        agg_logits: np.ndarray,
        upstream_params: dict,
        plant: PlantSpec | None = None,
    ):
        self.ecapa_cfg = ecapa_cfg
        self.ecapa_params = {k: Tensor(np.asarray(v, dtype=np.float64)) for k, v in ecapa_params.items()}
        self.weights = normalized_weights(np.asarray(agg_logits, dtype=np.float64))
        self.plant = plant
        self.upstream = MockUpstream(upstream_cfg, upstream_params)

    @classmethod
    def from_result(cls, result: TrainResult, upstream_cfg, ecapa_cfg, plant=None) -> "System":
        return cls.from_checkpoint(result.checkpoint_tensors(), upstream_cfg, ecapa_cfg, plant=plant)

    @classmethod
    def from_checkpoint(cls, tensors: dict, upstream_cfg, ecapa_cfg, plant=None) -> "System":
        """Build a system, checking each tensor it reads by name and shape against the configs.

        Upstream tensors are optional: without them the mock upstream is
        initialized from `upstream_cfg`'s seed.
        """
        ecapa_params = {k[len("ecapa.") :]: v for k, v in tensors.items() if k.startswith("ecapa.")}
        upstream_params = {k[len("upstream.") :]: v for k, v in tensors.items() if k.startswith("upstream.")}
        expected = {f"ecapa.{k}": tuple(s) for k, s in ecapa_mod.param_shapes(ecapa_cfg).items()}
        expected["agg.logits"] = (upstream_cfg.n_layers + 1,)
        if upstream_params:
            expected.update({f"upstream.{k}": s for k, s in upstream_mod.param_shapes(upstream_cfg).items()})
        found = {
            k: np.shape(v) for k, v in tensors.items() if k == "agg.logits" or k.startswith(("ecapa.", "upstream."))
        }
        for name in sorted(expected.keys() | found.keys()):
            if found.get(name) != expected.get(name):
                raise FormatError(
                    f"checkpoint tensors do not match the configured system: {name}: checkpoint has "
                    f"{found.get(name, 'no such tensor')}, config expects {expected.get(name, 'no such tensor')}"
                )
        return cls(upstream_cfg, ecapa_cfg, ecapa_params, tensors["agg.logits"], upstream_params, plant=plant)

    def stack_for(self, manifest: Manifest, row) -> LayerStack:
        """The row's stored float32 stack: a `.svhs` file, else the mock upstream's output."""
        path = manifest.resolve(row)
        if is_stack_file(path):
            return load_stack(path)
        return self.upstream.stack(read_wav(path), f"{row.utt_id} ({path})")

    def embed_row(self, manifest: Manifest, row) -> np.ndarray:
        layers = self.stack_for(manifest, row).layers.astype(np.float64)
        check_row_stack(layers, manifest, row, self.weights.size, self.ecapa_cfg.in_dim)
        if self.plant is not None:
            plant_speaker_info(layers, row.speaker_id, self.plant)
        return ecapa_mod.embed(aggregate(layers, self.weights), self.ecapa_params, self.ecapa_cfg)


def extract_embeddings(system: System, manifest: Manifest) -> dict:
    """Embed every manifest row; returns {utt_id: embedding}."""
    return {row.utt_id: system.embed_row(manifest, row) for row in manifest.rows}


def utterance_durations(manifest: Manifest) -> dict:
    return {row.utt_id: read_wav_duration(manifest.resolve(row)) for row in manifest.rows}

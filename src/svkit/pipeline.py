"""One trained system, and the end-to-end glue that runs it over a manifest to produce embeddings.

`train` builds and returns a `System`; the CLI `embed` command and the
verification suite run one, so both exercise the exact same inference path.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import ecapa as ecapa_mod
from .aggregator import aggregate, normalized_weights
from .audio import read_wav, read_wav_duration
from .autodiff import Tensor
from .ecapa import EcapaConfig
from .errors import ConfigError, DataError, FormatError
from .rng import child_rng
from .upstream import (LayerStack, Manifest, MockUpstream, MockUpstreamConfig, PlantSpec, is_stack_file, load_stack,
                       param_shapes, speaker_offset, stack_duration)


class System:
    """A verification system: its configs, its rows' plant and every named tensor by checkpoint name (`ecapa.*`,
    `agg.logits`, `aam.anchors`, `upstream.*`), as the float64 tensors `train` updates and `embed_row` embeds
    with; `checkpoint_tensors` is its one output. `upstream.*` are given, or drawn from `upstream_cfg`'s seed
    when the mock first runs: a system that never runs it draws and exports none."""

    def __init__(self, upstream_cfg: MockUpstreamConfig, ecapa_cfg: EcapaConfig, tensors: dict,
                 plant: PlantSpec = PlantSpec()):
        if ecapa_cfg.in_dim != upstream_cfg.dim:
            raise ConfigError("ecapa.in_dim must equal the upstream dim")
        if plant.layer > upstream_cfg.n_layers:
            raise ConfigError(f"plant.layer must be -1 (off) or an upstream layer in 0..{upstream_cfg.n_layers}, "
                              f"got {plant.layer}")
        self.upstream_cfg, self.ecapa_cfg, self.plant = upstream_cfg, ecapa_cfg, plant
        self.tensors = {name: Tensor(v) for name, v in tensors.items()}
        self.ecapa, self.logits = self._group("ecapa."), self.tensors["agg.logits"]
        normalized_weights(self.logits.data)  # refuses non-finite logits

    @classmethod
    def init(cls, upstream_cfg: MockUpstreamConfig, ecapa_cfg: EcapaConfig, n_classes: int, seed: int,
             plant: PlantSpec = PlantSpec()) -> "System":
        """Seeded initial state: `ecapa.init_params`, zero layer logits and N(0, 1) class anchors."""
        tensors = {f"ecapa.{k}": p.data for k, p in ecapa_mod.init_params(ecapa_cfg, seed=seed).items()}
        tensors["agg.logits"] = np.zeros(upstream_cfg.n_layers + 1)
        tensors["aam.anchors"] = child_rng(seed, "aam-anchors").normal(0.0, 1.0, (n_classes, ecapa_cfg.embed_dim))
        return cls(upstream_cfg, ecapa_cfg, tensors, plant)

    @classmethod
    def from_checkpoint(cls, tensors: dict, upstream_cfg: MockUpstreamConfig, ecapa_cfg: EcapaConfig,
                        plant: PlantSpec = PlantSpec()) -> "System":
        """Checkpoint tensors, each checked by name and shape against the configs; `upstream.*` and an unchecked
        `aam.anchors` are optional, and no other name is read."""
        expected = {f"ecapa.{k}": tuple(s) for k, s in ecapa_mod.param_shapes(ecapa_cfg).items()}
        expected["agg.logits"] = (upstream_cfg.n_layers + 1,)
        found = {k: np.shape(v) for k, v in tensors.items()
                 if k == "agg.logits" or k.startswith(("ecapa.", "upstream."))}
        if any(k.startswith("upstream.") for k in found):
            expected.update({f"upstream.{k}": s for k, s in param_shapes(upstream_cfg).items()})
        for name in sorted(expected.keys() | found.keys()):
            if found.get(name) != expected.get(name):
                raise FormatError(
                    f"checkpoint tensors do not match the configured system: {name}: checkpoint has "
                    f"{found.get(name, 'no such tensor')}, config expects {expected.get(name, 'no such tensor')}"
                )
        return cls(upstream_cfg, ecapa_cfg, {k: v for k, v in tensors.items() if k in expected or k == "aam.anchors"},
                   plant)

    @classmethod
    def from_result(cls, result, upstream_cfg, ecapa_cfg, plant: PlantSpec = PlantSpec()) -> "System":
        """A `TrainResult`'s system as it is, with `plant`: the float32 form its checkpoint reloads to, so both
        embed the same bytes."""
        if (upstream_cfg, ecapa_cfg) != (result.system.upstream_cfg, result.system.ecapa_cfg):
            raise ConfigError("the upstream and ecapa configs differ from those the result was trained with")
        return cls(upstream_cfg, ecapa_cfg, {k: t.data for k, t in result.system.tensors.items()}, plant)

    def _group(self, prefix: str) -> dict:
        return {name[len(prefix) :]: t for name, t in self.tensors.items() if name.startswith(prefix)}

    @cached_property
    def upstream(self) -> MockUpstream:
        """The mock upstream over the `upstream.*` tensors, built on first use; a drawn mock's tensors join
        the system's."""
        mock = MockUpstream(self.upstream_cfg, self._group("upstream."))
        self.tensors.update({f"upstream.{k}": p for k, p in mock.params.items()})
        return mock

    def trainable(self, tune_upstream: bool) -> list:
        """The tensors a stage trains, sorted by name and marked trainable: `upstream.*` only if it tunes them."""
        params = [t for name, t in sorted(self.tensors.items()) if tune_upstream or not name.startswith("upstream.")]
        for p in params:
            p.requires_grad = True
        return params

    def checkpoint_tensors(self) -> dict:
        """Every tensor by name as the float32 array SVCK stores; one not finite in float32 is a DataError."""
        return ecapa_mod.float32_tensors(self.tensors)

    def stack_for(self, manifest: Manifest, row) -> LayerStack:
        """The row's stored float32 stack: a `.svhs` file, else the mock upstream's output."""
        path = manifest.resolve(row)
        if is_stack_file(path):
            return load_stack(path)
        return self.upstream.stack(read_wav(path), f"{row.utt_id} ({path})")

    def row_layers(self, layers, manifest: Manifest, row) -> list:
        """A row's (T, D) arrays or tensors as a list, checked to be the upstream's L+1 layers of its dim, with
        the plant's speaker offset added to its layer: that entry is float64, or a tensor when the layer is one."""
        n, d = len(layers), layers[0].shape[-1]
        if (n, d) != (self.upstream_cfg.n_layers + 1, self.upstream_cfg.dim):
            raise DataError(
                f"{row.utt_id} ({manifest.resolve(row)}): stack has {n} layers of dim {d}, "
                f"expected {self.upstream_cfg.n_layers + 1} layers of dim {self.upstream_cfg.dim}"
            )
        layers, k = list(layers), self.plant.layer
        if k != -1:
            layers[k] = layers[k] + self.plant.strength * speaker_offset(row.speaker_id, d)
        return layers

    def embed_row(self, manifest: Manifest, row) -> np.ndarray:
        layers = self.row_layers(self.stack_for(manifest, row).layers, manifest, row)
        return ecapa_mod.embed(aggregate(layers, self.logits.data), self.ecapa, self.ecapa_cfg)


def extract_embeddings(system: System, manifest: Manifest) -> dict:
    """Embed every manifest row; returns {utt_id: embedding}."""
    return {row.utt_id: system.embed_row(manifest, row) for row in manifest.rows}


def utterance_durations(manifest: Manifest) -> dict:
    """Seconds per row, by the row source rule: a WAV's from its header, an SVHS stack's as frames / frame rate."""
    return {row.utt_id: _duration(manifest.resolve(row)) for row in manifest.rows}


def _duration(path) -> float:
    return stack_duration(path) if is_stack_file(path) else read_wav_duration(path)

"""Span tracing from outside the program.

`Tracer.install` replaces selected svkit functions with timing wrappers at
the attribute their callers look up at call time (a module global such as
`svkit.training.augment`, or a class attribute such as `Tensor.backward`),
and `Tracer.uninstall` puts the originals back. Spans (name, start, end,
parent, run id) stay in memory until `write_spans` saves them. A layer's
self time is its spans' duration minus the time covered by child spans.
"""

from __future__ import annotations

import json
import logging
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from svkit import audio, autodiff, ecapa, pipeline, scoring, synthcorpus, training, upstream

# span name -> (owner, attribute) pairs to wrap. A function reached under
# several names (read_wav from training and from pipeline) is wrapped at each.
WRAP_POINTS = {
    "synthcorpus.synth_corpus": [(synthcorpus, "synth_corpus")],
    "audio.read_wav": [(training, "read_wav"), (pipeline, "read_wav")],
    "audio.augment": [(training, "augment")],
    "audio.apply_rir": [(audio, "apply_rir")],
    "audio.mix_noise": [(audio, "mix_noise")],
    "upstream.forward_array": [(upstream.MockUpstream, "forward_array")],
    "upstream.forward_graph": [(upstream.MockUpstream, "forward_graph")],
    "upstream.load_stack": [(pipeline, "load_stack")],
    "aggregator.aggregate_graph": [(training, "aggregate_graph")],
    "aggregator.aggregate": [(pipeline, "aggregate")],
    "ecapa.forward": [(ecapa, "forward")],
    "ecapa.se_res2_block": [(ecapa, "se_res2_block")],
    "ecapa.attentive_stats_pool": [(ecapa, "attentive_stats_pool")],
    "ecapa.embed": [(ecapa, "embed")],
    "ecapa.load_checkpoint": [(ecapa, "load_checkpoint")],
    "autodiff.backward": [(autodiff.Tensor, "backward")],
    "training.train": [(training, "train")],
    "training.aam_loss": [(training, "aam_loss")],
    "training.adam_step": [(training.Adam, "step")],
    "training.crop_random": [(training, "crop_random")],
    "pipeline.stack_for": [(pipeline.System, "stack_for")],
    "pipeline.embed_row": [(pipeline.System, "embed_row")],
    **{
        f"scoring.{name}": [(scoring, name)]
        for name in (
            "load_trials", "load_embeddings", "save_embeddings", "score_trials",
            "build_cohort", "adaptive_snorm", "quality_features", "fit_calibration",
            "apply_calibration", "ensemble", "eer", "save_scores",
        )
    },
}

# The frozen forward runs the graph forward inside it; its whole cost is
# reported as forward_array, so spans below it are not recorded.
OPAQUE = {"upstream.forward_array"}


def graph_size(root) -> int:
    """Number of distinct tensors reachable from `root` through recorded parents."""
    seen = {id(root)}
    todo = [root]
    while todo:
        for p in todo.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return len(seen)


class _EpochLog(logging.Handler):
    """Timestamps the per-epoch records of the `svkit.training` logger."""

    def __init__(self, tracer):
        super().__init__(logging.INFO)
        self.tracer = tracer

    def emit(self, record):
        if record.msg.startswith("epoch ") and self.tracer.active:
            epoch, stage, loss, _lr = record.args
            self.tracer.epochs.append((time.perf_counter(), self.tracer.run_id, int(stage), float(loss)))


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, run id]
        self.active = False
        self.run_id = "setup"
        self.epochs = []  # (time, run id, stage, loss) per epoch record
        self.train_starts = []  # (time, run id) per training.train call
        self.counters = defaultdict(float)  # (run id, counter) -> value
        self._stack = []
        self._opaque = 0
        self._saved = []
        self._log = _EpochLog(self)
        self._log_level = None

    # -- installation ----------------------------------------------------

    def install(self):
        for name, points in WRAP_POINTS.items():
            for owner, attr in points:
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
        logger = logging.getLogger("svkit.training")
        self._log_level = logger.level
        logger.setLevel(logging.INFO)
        logger.addHandler(self._log)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        logger = logging.getLogger("svkit.training")
        logger.removeHandler(self._log)
        logger.setLevel(self._log_level)

    @contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def count(self, counter: str, amount: float):
        self.counters[(self.run_id, counter)] += amount

    def _wrap(self, name, fn):
        tracer = self
        opaque = name in OPAQUE
        on_call = _ON_CALL.get(name)

        def traced(*args, **kwargs):
            if not tracer.active or tracer._opaque:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(tracer, args)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, tracer.run_id]
            tracer.spans.append(span)
            tracer._stack.append(index)
            tracer._opaque += opaque
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._opaque -= opaque
                tracer._stack.pop()
            on_return = _ON_RETURN.get(name)
            if on_return is not None:
                on_return(tracer, args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- reduction -----------------------------------------------------------

    def self_times(self):
        """{(run id, span name): [self seconds, calls]}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _run in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0])
        for (name, start, end, _parent, run), busy in zip(self.spans, child):
            cell = out[(run, name)]
            cell[0] += end - start - busy
            cell[1] += 1
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


def _count_backward(tracer, args):
    # walked before the span opens, so the walk is not charged to backward
    tracer.count("autodiff.nodes", graph_size(args[0]))


def _count_train(tracer, args):
    tracer.train_starts.append((time.perf_counter(), tracer.run_id))


def _count_eer(tracer, args):
    tracer.count("scoring.eer.distinct_scores", np.unique(np.asarray(args[0], dtype=np.float64)).size)


def _count_augment(tracer, args, out):
    tracer.count("audio.augment.applied", out is not args[0])


def _count_load_stack(tracer, args, out):
    tracer.count("upstream.load_stack.mb", out.layers.nbytes / 1e6)


def _count_snorm(tracer, args):
    trials = args[1]
    ids = {t.enroll_id for t in trials} | {t.test_id for t in trials}
    tracer.count("scoring.snorm.sides", 2 * len(trials))
    tracer.count("scoring.snorm.ids", len(ids))


_ON_CALL = {
    "autodiff.backward": _count_backward,
    "training.train": _count_train,
    "scoring.eer": _count_eer,
    "scoring.adaptive_snorm": _count_snorm,
}
_ON_RETURN = {
    "audio.augment": _count_augment,
    "upstream.load_stack": _count_load_stack,
}

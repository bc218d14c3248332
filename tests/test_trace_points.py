"""Guards for the benchmark's use of the svkit API (`perfbench/`).

The span tracer (`perfbench/tracing.py`) replaces svkit functions by attribute
name, so a rename or a call that bypasses one of those attributes breaks or
blinds `--trace 1` runs. The workloads call svkit by module attribute with
keyword arguments, so a renamed function or keyword breaks every benchmark run.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from svkit import training
from svkit.audio import AugmentBanks, AugmentConfig, Waveform, read_wav
from svkit.ecapa import EcapaConfig
from svkit.pipeline import System, extract_embeddings
from svkit.synthcorpus import SynthSpec, synth_corpus
from svkit.upstream import Manifest, ManifestRow, MockUpstreamConfig, mock_forward, save_stack

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wrap_points(tracing):
    return [(owner, attr) for points in tracing.WRAP_POINTS.values() for owner, attr in points]


def current(owner, attr):
    # the tracer saves a class attribute from the class's own namespace
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_every_wrap_point_resolves(tracing):
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr in wrap_points(tracing)
        if not (attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr))
    ]
    assert missing == []


def test_install_then_uninstall_restores_the_originals(tracing):
    points = wrap_points(tracing)
    before = [current(owner, attr) for owner, attr in points]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(current(o, a) is not b for (o, a), b in zip(points, before))
    finally:
        tracer.uninstall()
    assert all(current(o, a) is b for (o, a), b in zip(points, before))


def test_feature_path_calls_through_the_wrapped_names(tracing, tmp_path):
    up = MockUpstreamConfig(n_layers=3, dim=12, seed=2)
    ec = EcapaConfig(in_dim=12, channels=16, res2_scale=8, dilations=(2, 3, 4),
                     se_bottleneck=8, attention_channels=8, embed_dim=12)
    corpus = synth_corpus(SynthSpec(2, 3, 1, seed=4), tmp_path / "corpus")
    rows = []
    for i, row in enumerate(corpus.train.rows):
        path = str(corpus.train.resolve(row))
        if i % 2:
            save_stack(mock_forward(read_wav(path), up), tmp_path / f"{row.utt_id}.svhs")
            path = f"{row.utt_id}.svhs"
        rows.append(ManifestRow(row.utt_id, row.speaker_id, path))
    manifest = Manifest(tuple(rows), base_dir=tmp_path)
    banks = AugmentBanks(noises=(Waveform(np.full(800, 0.1)),), rirs=(Waveform(np.array([1.0, 0.5])),))
    sched = training.TrainSchedule(stage1_epochs=1, stage2_epochs=1, lmft_epochs=0,
                                   crop_seconds=0.5, batch_size=8)

    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.active = True
        result = training.train(manifest, sched, upstream_cfg=up, ecapa_cfg=ec,
                                augment_cfg=AugmentConfig(probability=1.0), banks=banks, seed=1)
        extract_embeddings(System.from_result(result, up, ec), manifest)
    finally:
        tracer.active = False
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    expected = {
        "training.train", "audio.read_wav", "training.crop_random", "audio.augment",
        "upstream.forward_array", "upstream.forward_graph", "aggregator.aggregate_graph",
        "upstream.load_stack", "pipeline.stack_for", "pipeline.embed_row", "aggregator.aggregate",
    }
    assert expected - names == set()


def parse(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def svkit_uses(tree):
    """(dotted name, object or None, node) for each `<svkit module>.<name>...` chain in a tree."""
    modules = {
        alias.asname or alias.name: importlib.import_module(f"svkit.{alias.name}")
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "svkit"
        for alias in node.names
    }
    for node in ast.walk(tree):
        parts, base = [], node
        while isinstance(base, ast.Attribute):
            parts.insert(0, base.attr)
            base = base.value
        if not parts or not isinstance(base, ast.Name) or base.id not in modules:
            continue
        obj = modules[base.id]
        for part in parts:
            obj = getattr(obj, part, None)
        yield ".".join([base.id, *parts]), obj, node


@pytest.mark.parametrize("name", ["workloads.py", "tracing.py"])
def test_every_svkit_name_the_benchmark_uses_resolves(name):
    uses = list(svkit_uses(parse(name)))
    assert uses
    assert [dotted for dotted, obj, _ in uses if obj is None] == []


def test_every_svkit_call_in_the_workloads_binds_its_arguments():
    tree = parse("workloads.py")
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    checked, unbound = set(), []
    for dotted, obj, node in svkit_uses(tree):
        call = calls.get(id(node))
        if call is None or obj is None:
            continue
        starred = any(isinstance(a, ast.Starred) for a in call.args)
        try:
            inspect.signature(obj).bind_partial(
                *([] if starred else [None] * len(call.args)),
                **{kw.arg: None for kw in call.keywords if kw.arg is not None},
            )
        except TypeError as exc:
            unbound.append(f"line {call.lineno}: {dotted}: {exc}")
        checked.add(dotted)
    assert unbound == []
    assert {"training.train", "scoring.build_cohort", "synthcorpus.SynthSpec", "ecapa.EcapaConfig"} <= checked


def train_result_attrs(tree):
    """Attribute names read off `training.train`'s return value: on the name it is bound to, and on the
    parameter of each `self.<method>` of the same class it is passed to by position."""
    uses = {id(node): dotted for dotted, _, node in svkit_uses(tree)}
    found = set()

    def reads(func, name, methods):
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == name:
                found.add(node.attr)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in methods:
                callee = methods[node.func.attr]
                for i, arg in enumerate(node.args, 1):  # parameter 0 is `self`
                    if isinstance(arg, ast.Name) and arg.id == name:
                        reads(callee, callee.args.args[i].arg, methods)

    for scope in [tree] + [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]:
        defs = [f for f in scope.body if isinstance(f, ast.FunctionDef)]
        methods = {f.name: f for f in defs} if isinstance(scope, ast.ClassDef) else {}
        for func in defs:
            for node in ast.walk(func):
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) \
                        and uses.get(id(node.value.func)) == "training.train":
                    reads(func, node.targets[0].id, methods)
    return found


def test_every_train_result_attribute_the_workloads_read_resolves(tmp_path):
    attrs = train_result_attrs(parse("workloads.py"))
    assert {"checkpoint_tensors", "agg_logits", "log"} <= attrs
    corpus = synth_corpus(SynthSpec(2, 3, 1, seed=4), tmp_path / "corpus")
    up = MockUpstreamConfig(n_layers=2, dim=8, seed=2)
    ec = EcapaConfig(in_dim=8, channels=8, res2_scale=4, dilations=(2, 3, 4),
                     se_bottleneck=4, attention_channels=4, embed_dim=8)
    sched = training.TrainSchedule(stage1_epochs=1, stage2_epochs=0, lmft_epochs=0, crop_seconds=0.5, batch_size=4)
    result = training.train(corpus.train, sched, upstream_cfg=up, ecapa_cfg=ec, seed=1)
    assert [attr for attr in sorted(attrs) if not hasattr(result, attr)] == []

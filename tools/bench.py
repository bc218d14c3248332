"""Fold perfbench run records into one BENCH file, and compare two BENCH files.

    python3 tools/bench.py --out BENCH_21.json .perfbench_runs/*-seed6[1-3]-trace0.json
    python3 tools/bench.py --compare BENCH_20.json BENCH_21.json

Each `perfbench/run.py` run writes a record to `.perfbench_runs/`. Folding the
records of one checkout gives, per workload, each metric per seed and its
median, the failed and attempted operation counts and the output digests per
seed; `--trace 1` records fill a `per_layer` table beside the `--trace 0`
end-to-end metrics. The environment (cores, BLAS, Python, numpy and scipy
versions) and `src_loc` are stored once, and records that disagree on them
are refused: they do not come from one checkout on one host.

`--compare` prints, for every number both files hold, the old and new value
and their ratio, marks each one more than 10% worse (by the metric's
direction in BENCHMARK.json), lists every digest that changed on a seed both
files ran, and exits 1 when anything was marked or changed.

    python3 tools/bench.py --probe-scoring

`--probe-scoring` is an ungated probe of perfbench's `score_bulk` request
(load_trials -> cosine -> s-norm -> quality-aware calibration -> ensemble ->
EER -> save_scores) at 20 000, 300 000 and 580 000 trials (the size of
VoxCeleb1-E), with as many speakers as keep 33 trial sides per utterance id.
`ScoreBulk.setup` writes the inputs; then a fresh child process with one BLAS
thread, so that its RSS is its own, runs `ScoreBulk.run_pass` at least three
times and for at least one second, each pass checked against perfbench's
oracles outside the clock. For each size it prints the fastest chain's ms per
1000 trials and the child's peak RSS growth over its post-import baseline (the
checks included), then for each larger size its ms per 1000 trials over the
smallest size's: 1.0 is linear scaling.

    python3 tools/bench.py --probe-ecapa

`--probe-ecapa` is an ungated probe of one ECAPA forward plus backward (a
dot product of the embedding with a fixed probe vector as the loss) at
perfbench's desk size (C=64) for T = 5, 150 and 300 frames and at the default
C=512 for T = 300. Each size runs in a fresh child process with one BLAS
thread, which times seven steps and keeps the fastest. For each it prints that
step's ms and the number of op nodes one forward records: the desk sizes show
the per-node Python cost, C=512 the matmul cost that a desk-tuned change can
slow unseen.

    python3 tools/bench.py --probe-train

`--probe-train` is an ungated probe of a training step at the paper's shape:
four imported 25 x 300 x 1024 SVHS rows (layers 0..24 of a 24-layer model, 6 s
at 50 frames/s, 1024 dims) of two speakers, written once to a temp directory.
For each batch size, 1 and 4, a fresh child process with one BLAS thread runs
the real `training.train` for one stage-1 epoch with the default C=512 ECAPA
and prints the epoch's seconds and its peak RSS growth over the child's
baseline before `train`: memory that grows with the batch shows as the
difference between the two lines.

    python3 tools/bench.py --probe-embed

`--probe-embed` is an ungated probe of embedding one imported row at the
paper's shape: a 25 x 1000 x 1024 SVHS stack (20 s of a 24-layer, 1024-dim
model at 50 frames/s), written once to a temp directory. A fresh child process
with one BLAS thread embeds it with the default C=512 `System` and prints the
ms to load the stack and mix its layers, the ms of the ECAPA forward, and the
growth of its peak RSS over its RSS before the row, and of its minor page
faults (`ru_minflt`): the memory the row's full-size arrays take.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORSE = 0.10  # the north-star rule: a tracked number more than 10% worse must be explained
PROBE_TRIALS = (20000, 300000, 580000)
PROBE_SEED = 61
CHAIN_MIN_REPEATS, CHAIN_MIN_S = 3, 1.0  # the first passes of a fresh process run slower
PROBE_FRAMES = (("desk", 5), ("desk", 150), ("desk", 300), ("default", 300))
ECAPA_STEPS = 7
TRAIN_SHAPE = (25, 300, 1024)  # (layers, frames, dims) of one probe row
TRAIN_BATCHES = (1, 4)
EMBED_SHAPE = (25, 1000, 1024)  # (layers, frames, dims) of the embed probe's row
BLAS_1 = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def fold(records: list) -> dict:
    """One BENCH document from perfbench run records (dicts as run.py writes them)."""
    if not records:
        raise ValueError("no run records to fold")
    env = None
    workloads: dict = {}
    for rec in records:
        rec_env = {k: v for k, v in rec["environment"].items() if k != "seed"}
        if env is None:
            env = rec_env
        elif rec_env != env:
            raise ValueError(f"{rec['workload']} seed {rec['seed']}: environment differs from the first record's")
        seed = str(rec["seed"])
        w = workloads.setdefault(rec["workload"], {"end_to_end": {}, "per_layer": {}, "digests": {},
                                                   "failed": {}, "attempted": {}})
        table = w["per_layer" if rec["trace"] else "end_to_end"]
        for name, m in rec["metrics"].items():
            table.setdefault(name, {"unit": m["unit"], "per_seed": {}})["per_seed"][seed] = m["value"]
        w["digests"][seed] = rec["digests"]
        w["failed"][seed] = w["failed"].get(seed, 0) + rec["failed"]
        w["attempted"][seed] = w["attempted"].get(seed, 0) + rec["attempted"]
    for w in workloads.values():
        for table in (w["end_to_end"], w["per_layer"]):
            for m in table.values():
                m["median"] = statistics.median(m["per_seed"].values())
    src_loc = env.pop("src_loc")
    return {"environment": env, "src_loc": src_loc, "workloads": dict(sorted(workloads.items()))}


def read_record(path: Path) -> dict:
    """One perfbench run record; a ValueError naming `path` if it is no JSON or lacks a field `fold` reads."""
    try:
        rec = json.loads(path.read_text(encoding="utf-8"))
        fold([rec])  # a one-record fold reads every field the real one will
    except KeyError as exc:
        raise ValueError(f"{path}: not a perfbench run record: no field {exc}") from None
    except (OSError, ValueError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: not a perfbench run record: {exc}") from None
    return rec


def directions(benchmark: dict) -> dict:
    """{metric name: "lower" or "higher"} from BENCHMARK.json."""
    return {m["name"]: m["better"] for key in ("end_to_end", "per_layer") for m in benchmark.get(key, [])}


def compare(old: dict, new: dict, better: dict) -> tuple:
    """(report lines, number of marked or changed entries)."""
    rows = [("src_loc", old["src_loc"], new["src_loc"], "lower")]
    changed = []
    for name in sorted(old["workloads"].keys() & new["workloads"].keys()):
        a, b = old["workloads"][name], new["workloads"][name]
        for table in ("end_to_end", "per_layer"):
            for metric in sorted(a[table].keys() & b[table].keys()):
                rows.append((f"{name} {metric}", a[table][metric]["median"], b[table][metric]["median"],
                             better.get(metric, "lower")))
        for seed in sorted(a["digests"].keys() & b["digests"].keys(), key=int):
            da, db = a["digests"][seed], b["digests"][seed]
            changed += [f"digest changed: {name} seed {seed} {key}" for key in sorted(da.keys() | db.keys())
                        if da.get(key) != db.get(key)]
    lines, marked = [], 0
    for label, x, y, direction in rows:
        ratio = y / x if x else float("inf") if y else 1.0
        worse = ratio > 1 + WORSE if direction == "lower" else ratio < 1 - WORSE
        marked += worse
        lines.append(f"{label:60s} {x:>14.6g} {y:>14.6g} {ratio:>8.3f}" + ("  WORSE" if worse else ""))
    return lines + changed, marked + len(changed)


def perfbench_workloads():
    """perfbench's workloads module, imported by the name perfbench/run.py imports it."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.append(str(ROOT / "perfbench"))
    import workloads

    return workloads


def score_bulk(n_trials: int):
    """perfbench's ScoreBulk workload at n_trials trials, over as many speakers as keep its trial sides per id."""
    bulk = perfbench_workloads().ScoreBulk()
    bulk.n_speakers = max(2, round(bulk.n_speakers * n_trials / bulk.n_trials))
    bulk.n_trials = n_trials
    return bulk


def rss_mib() -> float:
    """This process's peak RSS so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def current_rss_mib() -> float:
    """This process's RSS now."""
    with open("/proc/self/statm", encoding="ascii") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def run_child(name: str, spec: dict) -> dict:
    """`CHILDREN[name](**spec)` in a fresh child process at one BLAS thread, so that its RSS is its own;
    returns the dict the child printed."""
    child = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child", name, json.dumps(spec)],
                           env={**os.environ, **BLAS_1}, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(child.stdout.splitlines()[-1])


def run_scoring_chain(work: str, n_trials: int) -> dict:
    """ScoreBulk passes over the inputs its setup wrote to `work`: the fastest chain and the RSS growth."""
    bulk = score_bulk(n_trials)
    bulk.work, bulk.seed = Path(work), PROBE_SEED  # as setup(work, PROBE_SEED) left them in the parent
    base, passes = rss_mib(), []
    while len(passes) < CHAIN_MIN_REPEATS or sum(p.chain_s for p in passes) < CHAIN_MIN_S:
        gc.collect()
        passes.append(bulk.run_pass(nullcontext))
        if passes[-1].failed:
            raise RuntimeError(f"{passes[-1].failed} of {passes[-1].attempted} scoring checks failed")
    return {"chain_s": min(p.chain_s for p in passes), "rss_growth_mib": rss_mib() - base,
            "eer_pct": passes[-1].exact["eer_pct"]}


def probe_scoring(sizes) -> list:
    """One printed line per trial count, then each later one's ms per 1k trials over the first's; returns them."""
    results = []
    for n in sizes:
        bulk = score_bulk(n)
        ids = bulk.n_speakers * bulk.utts_per_speaker
        with tempfile.TemporaryDirectory(prefix="svkit-probe-") as tmp:
            bulk.setup(Path(tmp), PROBE_SEED)
            res = {"trials": n, "ids": ids, **run_child("scoring_chain", {"work": tmp, "n_trials": n})}
        res["ms_per_1k_trials"] = 1e6 * res["chain_s"] / n
        results.append(res)
        print(f"scoring chain trials={n} ids={ids} chain_s={res['chain_s']:.3f} "
              f"ms_per_1k_trials={res['ms_per_1k_trials']:.3f} rss_growth_mib={res['rss_growth_mib']:.1f} "
              f"eer_pct={res['eer_pct']:.3f}", flush=True)
    lo = results[0]
    for hi in results[1:]:
        print(f"scaling ms_per_1k_trials at {hi['trials']} / at {lo['trials']} = "
              f"{hi['ms_per_1k_trials'] / lo['ms_per_1k_trials']:.3f}")
    return results


def run_ecapa_steps(cfg_fields: dict, frames: int) -> dict:
    """The fastest of ECAPA_STEPS forward-plus-backward steps and the op nodes one forward records."""
    import numpy as np

    from svkit import ecapa

    cfg = ecapa.EcapaConfig(**cfg_fields)
    params = ecapa.init_params(cfg, seed=PROBE_SEED)
    rng = np.random.default_rng(PROBE_SEED)
    feats, probe = rng.standard_normal((frames, cfg.in_dim)), rng.standard_normal(cfg.embed_dim)
    emb = ecapa.forward(feats, params, cfg)
    nodes, todo = {id(emb)}, [emb]
    while todo:  # the tensors with recorded parents, reached from the embedding
        for p in todo.pop()._parents:
            if p._parents and id(p) not in nodes:
                nodes.add(id(p))
                todo.append(p)
    steps = []
    for _ in range(ECAPA_STEPS):
        for p in params.values():
            p.grad = None
        gc.collect()
        start = time.perf_counter()
        (ecapa.forward(feats, params, cfg) * probe).sum().backward()
        steps.append(time.perf_counter() - start)
    return {"op_nodes": len(nodes), "step_ms": 1e3 * min(steps)}


def probe_ecapa(cases) -> list:
    """One printed line per (EcapaConfig, frames) case, each timed in a fresh child; returns the results."""
    results = []
    for cfg, frames in cases:
        res = {"channels": cfg.channels, "frames": frames,
               **run_child("ecapa_steps", {"cfg_fields": asdict(cfg), "frames": frames})}
        results.append(res)
        print(f"ecapa forward+backward C={cfg.channels} T={frames} step_ms={res['step_ms']:.2f} "
              f"op_nodes={res['op_nodes']}", flush=True)
    return results


def write_rows(work, shape, count: int) -> None:
    """`count` SVHS rows of `shape` (layers, frames, dims), of two speakers in turn, and their `manifest.tsv`,
    in the directory `work`."""
    import numpy as np

    from svkit.upstream import LayerStack, Manifest, ManifestRow, save_manifest, save_stack

    work, rng = Path(work), np.random.default_rng(PROBE_SEED)
    rows = []
    for i in range(count):
        save_stack(LayerStack(rng.standard_normal(shape, dtype=np.float32), frame_rate_hz=50.0), work / f"u{i}.svhs")
        rows.append(ManifestRow(f"u{i}", f"s{i % 2}", f"u{i}.svhs"))
    save_manifest(Manifest(tuple(rows)), work / "manifest.tsv")


def run_train_epoch(work: str, batch_size: int, n_layers: int, cfg_fields: dict) -> dict:
    """One stage-1 epoch of `training.train` over the rows in `work`: its seconds and the RSS growth."""
    from svkit import training
    from svkit.ecapa import EcapaConfig
    from svkit.upstream import MockUpstreamConfig, load_manifest

    manifest = load_manifest(Path(work) / "manifest.tsv")
    ecapa_cfg = EcapaConfig(**cfg_fields)
    schedule = training.TrainSchedule(stage1_epochs=1, stage2_epochs=0, lmft_epochs=0, batch_size=batch_size)
    gc.collect()
    base, start = rss_mib(), time.perf_counter()
    training.train(manifest, schedule, upstream_cfg=MockUpstreamConfig(n_layers=n_layers, dim=ecapa_cfg.in_dim),
                   ecapa_cfg=ecapa_cfg, seed=PROBE_SEED)
    return {"train_s": time.perf_counter() - start, "rss_growth_mib": rss_mib() - base}


def probe_train(shape, cfg, batch_sizes) -> list:
    """One printed line per batch size, each epoch run in a fresh child; returns the results."""
    results = []
    with tempfile.TemporaryDirectory(prefix="svkit-probe-") as tmp:
        write_rows(Path(tmp), shape, 4)
        for batch_size in batch_sizes:
            spec = {"work": tmp, "batch_size": batch_size, "n_layers": shape[0] - 1,
                    "cfg_fields": {**asdict(cfg), "in_dim": shape[2]}}
            res = {"batch_size": batch_size, **run_child("train_epoch", spec)}
            results.append(res)
            print(f"train epoch rows=4 stack={'x'.join(map(str, shape))} C={cfg.channels} batch_size={batch_size} "
                  f"train_s={res['train_s']:.2f} rss_growth_mib={res['rss_growth_mib']:.1f}", flush=True)
    return results


def run_embed_row(work: str, n_layers: int, cfg_fields: dict) -> dict:
    """`System.embed_row`'s two steps on the first row in `work`, timed apart, and the growth of the peak RSS
    and of the minor page faults over the RSS and count before the row (the peak so far may be the System's
    initialization)."""
    from svkit import ecapa
    from svkit.aggregator import aggregate
    from svkit.pipeline import System
    from svkit.upstream import MockUpstreamConfig, load_manifest

    manifest = load_manifest(Path(work) / "manifest.tsv")
    row, cfg = manifest.rows[0], ecapa.EcapaConfig(**cfg_fields)
    system = System.init(MockUpstreamConfig(n_layers=n_layers, dim=cfg.in_dim), cfg, n_classes=2, seed=PROBE_SEED)
    gc.collect()
    base, base_rss = resource.getrusage(resource.RUSAGE_SELF), current_rss_mib()
    start = time.perf_counter()
    feats = aggregate(system.row_layers(system.stack_for(manifest, row).layers, manifest, row), system.logits.data)
    mixed = time.perf_counter()
    ecapa.embed(feats, system.ecapa, cfg)
    end = time.perf_counter()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"load_mix_ms": 1e3 * (mixed - start), "ecapa_ms": 1e3 * (end - mixed),
            "rss_growth_mib": usage.ru_maxrss / 1024 - base_rss, "minflt": usage.ru_minflt - base.ru_minflt}


def probe_embed(shape, cfg) -> dict:
    """One printed line for one row of `shape` embedded in a fresh child; returns the result."""
    with tempfile.TemporaryDirectory(prefix="svkit-probe-") as tmp:
        # written by a child too: a child starts with the peak RSS of the process it was spawned from
        run_child("rows", {"work": tmp, "shape": shape, "count": 1})
        res = run_child("embed_row", {"work": tmp, "n_layers": shape[0] - 1,
                                      "cfg_fields": {**asdict(cfg), "in_dim": shape[2]}})
    print(f"embed row stack={'x'.join(map(str, shape))} C={cfg.channels} load_mix_ms={res['load_mix_ms']:.1f} "
          f"ecapa_ms={res['ecapa_ms']:.1f} rss_growth_mib={res['rss_growth_mib']:.1f} minflt={res['minflt']}",
          flush=True)
    return res


CHILDREN = {"scoring_chain": run_scoring_chain, "ecapa_steps": run_ecapa_steps, "train_epoch": run_train_epoch,
            "embed_row": run_embed_row, "rows": write_rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("records", nargs="*", type=Path, help="perfbench run records to fold")
    mode = parser.add_mutually_exclusive_group()  # one mode a run: a second one is a usage error
    mode.add_argument("--out", type=Path, help="BENCH file to write from the records")
    mode.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    mode.add_argument("--probe-scoring", action="store_true",
                      help=f"time score_bulk's scoring chain at {', '.join(map(str, PROBE_TRIALS))} trials")
    mode.add_argument("--probe-ecapa", action="store_true",
                      help="time one ECAPA forward and backward at desk and default sizes")
    mode.add_argument("--probe-train", action="store_true",
                      help="peak RSS growth of one C=512 training epoch on paper-shape stacks at batch sizes 1 and 4")
    mode.add_argument("--probe-embed", action="store_true",
                      help="load+mix and ECAPA ms, peak RSS and minor fault growth of one paper-shape embed")
    parser.add_argument("--child", nargs=2, help=argparse.SUPPRESS)  # a probe's child: NAME SPEC_JSON
    args = parser.parse_args(argv)
    if any((args.child, args.probe_scoring, args.probe_ecapa, args.probe_train, args.probe_embed)):
        sys.path.insert(0, str(ROOT / "src"))
    if args.child:
        name, spec = args.child
        print(json.dumps(CHILDREN[name](**json.loads(spec))))
        return 0
    if args.probe_scoring:
        probe_scoring(PROBE_TRIALS)
        return 0
    if args.probe_ecapa:
        from svkit.ecapa import EcapaConfig

        sizes = {"desk": perfbench_workloads().DESK_ECAPA, "default": EcapaConfig()}
        probe_ecapa([(sizes[name], frames) for name, frames in PROBE_FRAMES])
        return 0
    if args.probe_train:
        from svkit.ecapa import EcapaConfig

        probe_train(TRAIN_SHAPE, EcapaConfig(), TRAIN_BATCHES)
        return 0
    if args.probe_embed:
        from svkit.ecapa import EcapaConfig

        probe_embed(EMBED_SHAPE, EcapaConfig())
        return 0
    if args.compare:
        old, new = (json.loads(p.read_text(encoding="utf-8")) for p in args.compare)
        better = directions(json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8")))
        lines, flagged = compare(old, new, better)
        print("\n".join(lines))
        return 1 if flagged else 0
    if not args.out:
        parser.error("give --out with records to fold, --compare OLD NEW, --probe-scoring, --probe-ecapa, "
                     "--probe-train or --probe-embed")
    try:
        bench = fold([read_record(p) for p in args.records])
    except ValueError as exc:  # a file that is no run record, no records, or records from two checkouts or hosts
        parser.error(str(exc))
    args.out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

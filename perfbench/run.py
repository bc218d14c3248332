"""svkit benchmark: one workload per invocation, closed loop, one caller.

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports svkit from its `src`
directory. Set-up is repeated and timed, a workload with short requests
makes one untimed warm-up request, then one request after another runs
until `--seconds` have passed (at least two, so that output digests can be
compared within the run). Every request's outputs are checked. With
`--trace 0` the last stdout line holds the end-to-end metrics; with `--trace 1` the first request runs untraced as
the overhead baseline and the rest are traced for the per-layer metrics.
A record with the environment, output digests and sample counts is written
to `.perfbench_runs/`. See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUPS = 5
# setup_s converts set-up time from reference units back to seconds at this
# fixed reference time: seconds on a host whose reference run takes 1.5 ms,
# about what a 2-core Xeon host reads while its neighbours are quiet
NOMINAL_REFERENCE_S = 1.5e-3
MIN_PASSES = 2
# One caller issuing small matrix products: a second BLAS thread adds
# synchronisation jitter without speed-up, so one thread (<= nproc) is used.
BLAS_THREADS = 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train_desk", "enroll_mixed", "score_bulk"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "svkit" / "__init__.py").is_file():
        print(f"perfbench: no svkit sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(min(BLAS_THREADS, nproc))  # read once, when numpy loads BLAS
    sys.path.insert(0, str(SRC))

    import numpy as np  # noqa: E402  (after the thread settings)

    import tracing  # noqa: E402
    import workloads  # noqa: E402

    tracer = tracing.Tracer() if args.trace else None
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = RUNS / f"work-{name}-{os.getpid()}"
    try:
        outcome = _run(workloads, args, tracer, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes, checked = outcome["passes"], outcome["warmups"] + outcome["passes"]
    extra = _workload_metrics(passes, outcome) if passes else {}
    if outcome["errors"]:
        metrics = {}  # a request raised: the run failed and measured nothing whole
    elif args.trace:
        metrics = _layer_metrics(tracer, passes)
    else:
        metrics = _end_to_end(passes, outcome)
    correct = not outcome["errors"] and all(p.failed == 0 for p in checked)
    attempted = sum(p.attempted for p in checked) + outcome["determinism_checks"]
    failed = sum(p.failed for p in checked) + outcome["determinism_failures"] + outcome["errors"]
    env = _environment(np, nproc, args.seed)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "setup_s": outcome["setup_s"], "warmups": len(outcome["warmups"]),
        "pass_wall_s": [p.wall_s for p in passes], "embed_samples": sum(len(p.embed_ms) for p in passes),
        "digests": checked[0].digests if checked else {}, "workload_metrics": extra,
        "metrics": metrics, "correct": correct, "attempted": attempted, "failed": failed,
    }
    RUNS.mkdir(exist_ok=True)
    (RUNS / f"{name}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.write_spans(RUNS / f"{name}-spans.jsonl")

    print(f"# {args.workload} seed {args.seed}: {len(passes)} timed requests after "
          f"{len(outcome['warmups'])} warm-up, {record['embed_samples']} embed samples")
    print("# environment " + json.dumps(env, sort_keys=True))
    for key, digest in sorted(record["digests"].items()):
        print(f"# sha256 {key} {digest}")
    for key, m in extra.items():
        print(f"# {key:42s} {m['value']:>16.6g} {m['unit']}")
    for key, m in metrics.items():
        print(f"{key:44s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
                      "metrics": metrics}))
    return 0 if correct else 1


def _run(workloads, args, tracer, work):
    """Set up SETUPS times (once when traced), warm up, then loop requests for the run length."""
    cls = workloads.WORKLOADS[args.workload]
    if tracer:
        tracer.install()
        tracer.active = True  # synth_corpus is traced in set-up
    setups = []
    for _ in range(1 if tracer else SETUPS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        workload = cls()
        setups.append(workloads.PassResult(wall_s=0.0, attempted=0, failed=0, digests={}))
        with workloads.StepClock(setups[-1]) as clock:
            workload.setup(work, args.seed)
            clock.mark("setup")
    quiet = tracer.paused if tracer else nullcontext

    warmups, passes, errors = [], [], 0
    try:
        if tracer:
            tracer.active = False
        for _ in range(cls.warmups):
            warmups.append(workload.run_pass(quiet))
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
            if tracer:
                tracer.active, tracer.run_id = len(passes) > 0, f"pass{len(passes)}"
            gc.collect()  # no request pays for the garbage of the one before it
            passes.append(workload.run_pass(quiet))
    except Exception:  # a failing request is reported, not hidden
        traceback.print_exc()
        errors = 1
    if tracer:
        tracer.active = False
        tracer.uninstall()

    checked = warmups + passes
    mismatched = sum(p.digests != checked[0].digests for p in checked[1:])  # same inputs, same bytes
    return {"setup_s": [r.wall_s for r in setups], "setup_refs": [r.ref_steps["setup"] for r in setups],
            "warmups": warmups, "passes": passes, "errors": errors,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "determinism_checks": max(len(checked) - 1, 0), "determinism_failures": mismatched}


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _end_to_end(passes, outcome):
    return {
        "setup_s": _metric(statistics.median(outcome["setup_refs"]) * NOMINAL_REFERENCE_S, "s"),
        "wall_ref": _metric(_request_in_refs(passes), "ref"),
        "peak_rss_mb": _metric(outcome["peak_rss_mb"], "MiB"),
    }


def _request_in_refs(passes):
    """One request's wall time in reference units: per step, the median over
    the timed requests of the step's reference units (see StepClock)."""
    return sum(statistics.median(p.ref_steps[step] for p in passes) for step in passes[0].ref_steps)


def _workload_metrics(passes, outcome):
    """The metrics only some workloads produce, over the timed requests.

    They are printed and recorded, not gated: every end-to-end metric must
    come from every workload. The traced run reports the same quantities as
    per-layer metrics.
    """
    out = {"wall_s": _metric(statistics.median(p.wall_s for p in passes), "s"),
           "setup_wall_s": _metric(statistics.median(outcome["setup_s"]), "s"),
           "reference_ms": _metric(1e3 * statistics.median(x for p in passes for x in p.ref_s), "ms")}
    trainers = [p for p in passes if p.crops]
    if trainers:
        out["train_ms_per_utt"] = _metric(statistics.median(1e3 * p.train_s / p.crops for p in trainers), "ms")
    ms = [x for p in passes for x in p.embed_ms]
    if ms:
        out["embed_ms_per_audio_s"] = _metric(
            statistics.median(sum(p.embed_ms) / sum(p.embed_audio_s) for p in passes), "ms/s")
        out["embed_ms_p50"] = _metric(_percentile(ms, 50), "ms")
        out["embed_ms_p95"] = _metric(_percentile(ms, 95), "ms")
        out["embed_samples"] = _metric(len(ms), "count")
    chains = [p.trials / p.chain_s for p in passes if p.chain_s]
    if chains:
        out["score_trials_per_s"] = _metric(statistics.median(chains), "1/s")
    if "eer_pct" in passes[0].exact:
        out["eer_pct"] = _metric(passes[0].exact["eer_pct"], "%")
    return out


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else 0.0


def _layer_metrics(tracer, passes):
    """Per-layer metrics, each per traced request (synth_corpus: per set-up)."""
    import tracing

    traced = passes[1:]
    runs = {f"pass{i}" for i in range(1, len(passes))}
    n = max(len(traced), 1)
    totals = {}
    for (run, name), (busy, calls) in tracer.self_times().items():
        if run in runs or (run == "setup" and name == "synthcorpus.synth_corpus"):
            cell = totals.setdefault(name, [0.0, 0])
            cell[0] += busy
            cell[1] += calls
    out = {}
    for name in tracing.WRAP_POINTS:
        busy, calls = totals.get(name, (0.0, 0))
        k = 1 if name == "synthcorpus.synth_corpus" else n
        out[f"{name}.s"] = _metric(busy / k, "s")
        out[f"{name}.calls"] = _metric(calls / k, "count")

    def counter(key):
        return sum(v for (run, c), v in tracer.counters.items() if c == key and run in runs)

    crops = sum(p.crops for p in traced)
    augments = totals.get("audio.augment", (0.0, 0))[1]
    sides, ids = counter("scoring.snorm.sides"), counter("scoring.snorm.ids")
    out["autodiff.nodes_per_utt"] = _metric(counter("autodiff.nodes") / crops if crops else 0.0, "count")
    out["audio.augment.applied_ratio"] = _metric(counter("audio.augment.applied") / augments if augments else 0.0, "ratio")
    out["upstream.load_stack.mb"] = _metric(counter("upstream.load_stack.mb") / n, "MB")
    out.update(_stage_metrics(tracer, traced, runs))
    for key, unit in (("final_loss", "nats"), ("planted_weight", "ratio")):
        out[f"training.{key}"] = _metric(traced[0].exact.get(key, 0.0) if traced else 0.0, unit)
    ms = [x for p in traced for x in p.embed_ms]
    sec = sum(x for p in traced for x in p.embed_audio_s)
    out["pipeline.embed_row.ms_p50"] = _metric(_percentile(ms, 50), "ms")
    out["pipeline.embed_row.ms_p95"] = _metric(_percentile(ms, 95), "ms")
    out["pipeline.embed_row.ms_per_audio_s"] = _metric(sum(ms) / sec if sec else 0.0, "ms/s")
    out["training.train.ms_per_utt"] = _metric(
        1e3 * sum(p.train_s for p in traced) / crops if crops else 0.0, "ms")
    chains = [p.trials / p.chain_s for p in traced if p.chain_s]
    out["scoring.chain.trials_per_s"] = _metric(statistics.median(chains) if chains else 0.0, "1/s")
    for kind in ("wav", "svhs"):
        ms = sum(x for p in traced for x, k in zip(p.embed_ms, p.embed_kind) if k == kind)
        sec = sum(x for p in traced for x, k in zip(p.embed_audio_s, p.embed_kind) if k == kind)
        out[f"pipeline.embed_row.{kind}_ms_per_audio_s"] = _metric(ms / sec if sec else 0.0, "ms/s")
    out["scoring.snorm_trials_per_id"] = _metric(sides / ids if ids else 0.0, "ratio")
    out["scoring.calibration_grad_max"] = _metric(
        traced[0].exact.get("calibration_grad_max", 0.0) if traced else 0.0, "1")
    out["scoring.eer.distinct_scores"] = _metric(counter("scoring.eer.distinct_scores") / n, "count")
    out["scoring.eer_pct"] = _metric(traced[0].exact.get("eer_pct", 0.0) if traced else 0.0, "%")
    wall = statistics.median(p.wall_s for p in traced) if traced else 0.0
    out["trace.wall_s"] = _metric(wall, "s")
    # in reference units, so that the host's speed changes between the requests
    # do not count as overhead; converted at the run's median reference time
    in_refs = [sum(p.ref_steps.values()) for p in passes]
    ref_s = statistics.median(x for p in passes for x in p.ref_s)
    extra = statistics.median(in_refs[1:]) - in_refs[0] if traced else 0.0
    out["trace.overhead_s"] = _metric(extra * ref_s, "s")
    return out


def _stage_metrics(tracer, traced, runs):
    """ms per crop of each stage, from the timestamps of the epoch log records."""
    rows = traced[0].rows_per_epoch if traced else 0
    starts = {run: t for t, run in tracer.train_starts if run in runs}
    busy, epochs = {1: 0.0, 2: 0.0, 3: 0.0}, {1: 0, 2: 0, 3: 0}
    last = dict(starts)
    for t, run, stage, _loss in tracer.epochs:
        if run in runs:
            busy[stage] += t - last[run]
            epochs[stage] += 1
            last[run] = t
    return {f"training.{label}.ms_per_utt": _metric(1e3 * busy[s] / (epochs[s] * rows) if epochs[s] else 0.0, "ms")
            for s, label in ((1, "stage1"), (2, "stage2"), (3, "lmft"))}


def _environment(np, nproc, seed):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    import scipy

    return {
        "nproc": nproc, "blas": blas.get("name", "unknown"), "blas_version": blas.get("version", "unknown"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "seed": seed,
        "src_loc": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "svkit").glob("*.py")),
    }


if __name__ == "__main__":
    sys.exit(main())

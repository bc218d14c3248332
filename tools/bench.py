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
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORSE = 0.10  # the north-star rule: a tracked number more than 10% worse must be explained


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("records", nargs="*", type=Path, help="perfbench run records to fold")
    parser.add_argument("--out", type=Path, help="BENCH file to write from the records")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.loads(p.read_text(encoding="utf-8")) for p in args.compare)
        better = directions(json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8")))
        lines, flagged = compare(old, new, better)
        print("\n".join(lines))
        return 1 if flagged else 0
    if not args.out:
        parser.error("give --out with records to fold, or --compare OLD NEW")
    bench = fold([json.loads(p.read_text(encoding="utf-8")) for p in args.records])
    args.out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

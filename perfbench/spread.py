"""Run-to-run spread of the end-to-end metrics, one seed per run.

    python3 perfbench/spread.py --workloads train_desk score_bulk --seeds 1 2 3 4 5

For every workload and metric it prints the median, the quartile distance as
a share of the median (compare with the bound in BENCHMARK.json), and
whether the run's output digests equal those of an earlier run of the same
seed, as saved in the `.perfbench_runs/` records.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workloads:
        values, digests_same, failed = {}, 0, 0
        for seed in args.seeds:
            record_path = ROOT / ".perfbench_runs" / f"{workload}-seed{seed}-trace0.json"
            before = json.loads(record_path.read_text())["digests"] if record_path.is_file() else None
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"] + (proc.returncode != 0)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            after = json.loads(record_path.read_text())["digests"]
            digests_same += before == after
            print(f"  {workload} seed {seed}: exit {proc.returncode}, failed {result['failed']}, "
                  f"digests {'repeat' if before == after else 'new' if before is None else 'CHANGED'}",
                  flush=True)
        print(f"{workload}: {len(args.seeds)} runs, {failed} failed, "
              f"{digests_same} with digests equal to an earlier run")
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"  {name:24s} median {median:12.6g}  iqr/median {spread:7.4f}  bound {bounds[name]}")
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Makes `--runs` untraced runs of each workload, each with its own seed, and
prints per metric the median, the quartiles (statistics.quantiles, n=4) and
the spread (q3 - q1) / median next to a third of the metric's bound, and
the same figures for the times as measured (`wall.*`, no bound). The last
stdout line is all of it as JSON, which is how bench/baseline.json was
recorded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from run import WALL_UNITS, RunError, load_contract, run_workload


def main() -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append", choices=names)
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    summary = {}
    for workload in args.workload or names:
        values: dict[str, list[float]] = {name: [] for name in (*bounds, *WALL_UNITS)}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            try:
                result, wall = run_workload(contract, workload, seed, contract["run_seconds"], False)
            except RunError as exc:
                print(f"spread.py: {exc}", file=sys.stderr)
                return 1
            if not result["correct"]:
                print(f"spread.py: {workload} seed {seed} failed its gate", file=sys.stderr)
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            for name in WALL_UNITS:
                values[name].append(wall[name])
        summary[workload] = {}
        for name, xs in values.items():
            q1, median, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / median
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
            third = bounds[name] / 3 if name in bounds else None
            flag = "" if third is None else f"bound/3 {third:6.3f} {'ok' if spread < third else 'WIDE'}"
            print(f"{workload:16s} {name:17s} median {median:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {spread:6.3f}  {flag}", flush=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

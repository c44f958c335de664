"""Campaign benchmark for the antipaths package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S]

The first form makes one run and prints, as its last stdout line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics of BENCHMARK.json with `--trace 0`, its per-layer metrics with
`--trace 1`. The second form makes both runs of every workload and prints
every metric by name with its unit, plus each workload's fail ratio.

Each run is a fresh interpreter (bench/campaign.py) that imports the package
from this checkout's src/. `setup_s` is the median set-up time of that
process and of SETUP_PROBES more processes that stop after set-up. The
end-to-end times are scaled to the reference host speed of bench/speed.py;
the times as measured are printed too (`wall.*`), on stderr for one run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 9
RUN_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 20
WALL_UNITS = {"wall.setup_s": "s", "wall.trials_per_s": "1/s", "wall.cpu_s": "s"}


class RunError(RuntimeError):
    """A benchmark process failed; no result can be reported."""


def spawn(spec: dict, timeout: float) -> dict:
    """Run campaign.py in a new session and return its JSON line.

    On timeout the whole session, pool workers included, is killed and
    reaped before the error is raised.
    """
    spec = dict(spec, t0=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, "-E", "-S", os.path.join(HERE, "campaign.py"), json.dumps(spec)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RunError(f"{spec['workload']}: no result within {timeout} s") from None
    if proc.returncode != 0:
        raise RunError(f"{spec['workload']}: campaign exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(
    contract: dict, workload: str, seed: int, seconds: float, trace: bool
) -> tuple[dict, dict]:
    """The result line of one run, and the untraced times as measured."""
    spec = {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "setup_only": False}
    raw = spawn(spec, RUN_TIMEOUT_S)
    if not trace:
        probes = [raw] + [spawn(dict(spec, setup_only=True), PROBE_TIMEOUT_S)
                          for _ in range(SETUP_PROBES)]
        for key in ("setup_s", "wall.setup_s"):
            raw[key] = statistics.median(p[key] for p in probes)
    wanted = contract["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": raw[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": raw["failed"] == 0 and raw["attempted"] >= 1,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    return result, {} if trace else {key: raw[key] for key in WALL_UNITS}


def print_all(contract: dict, seed: int, seconds: float) -> bool:
    """Both runs of every workload as a table; True when all are correct."""
    all_correct = True
    for w in contract["workloads"]:
        for trace in (False, True):
            result, wall = run_workload(contract, w["name"], seed, seconds, trace)
            all_correct &= result["correct"]
            rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
            rows += [(key, value, WALL_UNITS[key]) for key, value in wall.items()]
            rows.append(("fail_ratio", result["failed"] / result["attempted"], "ratio"))
            print(f"== {w['name']} ({'traced' if trace else 'end to end'}), "
                  f"{result['attempted']} trials, correct={result['correct']}")
            for name, value, unit in rows:
                print(f"  {name:40s} {value:14.6g} {unit}")
            sys.stdout.flush()
    return all_correct


def main(argv: list[str] | None = None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=names)
    p.add_argument("--all", action="store_true", help="run every workload, traced and not")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=contract["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.all == (args.workload is not None):
        p.error("give exactly one of --workload and --all")
    try:
        if args.all:
            return 0 if print_all(contract, args.seed, args.seconds) else 1
        result, wall = run_workload(
            contract, args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if wall:
        print(f"{args.workload} as measured: {json.dumps(wall)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

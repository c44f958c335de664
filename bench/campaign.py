"""One benchmark run of one workload, in a fresh interpreter.

    python3 bench/campaign.py '<json spec>'

The spec holds `t0` (the parent's time.monotonic() just before it started
this process), `workload`, `seed`, `seconds`, `trace` and `setup_only`.
Set-up is interpreter start, `import antipaths` and config validation
through the CLI parser, timed from `t0`. With `setup_only` the process
reports that and exits. Otherwise it runs the workload's passes and prints
one JSON object of raw figures on its last stdout line; `run.py` turns them
into metrics. Exits 3 when the package cannot be imported from `src/`.

Untraced times are reported twice: as measured (`wall.*`) and scaled to
the reference host speed of `speed.py` (the end-to-end metrics).

Modules that set-up does not need are imported where they are used, so that
set-up time is the package's own.
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")


def load_package():
    """Import antipaths from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import antipaths
        from antipaths import cli, harness  # noqa: F401  (part of set-up)
    except ImportError as exc:
        print(f"campaign: cannot import antipaths from {SRC}: {exc}", file=sys.stderr)
        sys.exit(3)
    if not os.path.abspath(antipaths.__file__).startswith(SRC + os.sep):
        print(f"campaign: antipaths resolved outside {SRC}", file=sys.stderr)
        sys.exit(3)
    return antipaths


def configs(argvs: list[list[str]], **overrides) -> list:
    """Parse and validate each campaign's CLI arguments, as `antipaths` does."""
    import dataclasses

    from antipaths import cli

    parser = cli.build_parser()
    out = []
    for argv in argvs:
        cfg = dataclasses.replace(cli.config_from_args(parser.parse_args(argv)), **overrides)
        cfg.validate()
        out.append(cfg)
    return out


def run_pass(cfgs: list) -> tuple[list[str], float]:
    """Run each campaign and serialize its stream, as `antipaths` does
    before writing it. Returns the streams and the time spent in
    `harness.run` alone."""
    from antipaths import harness

    texts = []
    run_s = 0.0
    for cfg in cfgs:
        t0 = time.perf_counter()
        try:
            records = harness.run(cfg)
        except Exception:  # a crashed campaign leaves its stream missing
            import traceback

            traceback.print_exc()
            continue
        finally:
            run_s += time.perf_counter() - t0
        texts.append(harness.serialize_records(records, cfg.output_format))
        del records
    return texts, run_s


def cpu_s() -> float:
    """User plus system CPU of this process and its reaped pool workers."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any worker it has reaped."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def digest(texts: list[str]) -> str:
    import hashlib

    h = hashlib.sha256()
    for text in texts:
        h.update(hashlib.sha256(text.encode()).digest())
    return h.hexdigest()


def gate(antipaths, workload, texts: list[str], expected_digest: str | None = None) -> int:
    """Failed trials of one pass; a missing stream fails all its trials.

    A pass that must repeat an already gated pass gives `expected_digest`
    instead, and fails whole unless its streams match it."""
    from gate import check_stream

    if expected_digest is not None:
        return 0 if digest(texts) == expected_digest else workload.records
    per_stream = workload.records // len(workload.template)
    failed = sum(check_stream(antipaths, text, per_stream) for text in texts)
    return failed + per_stream * (len(workload.template) - len(texts))


def measure(antipaths, workload, seed: int, seconds: float) -> dict:
    """Passes with tracing off until `seconds` of pass time have run.

    Each pass's wall and CPU time is scaled by the host speed sampled
    during it; rates and CPU are medians over the passes."""
    import statistics

    from speed import Sampler

    walls: list[float] = []
    cpus: list[float] = []
    scales: list[float] = []
    failed = 0
    first_digest = None
    while not walls or sum(walls) < seconds:
        cfgs = configs(workload.argvs(seed, len(walls)))
        c0 = cpu_s()
        t0 = time.perf_counter()
        with Sampler() as sampler:
            texts, _ = run_pass(cfgs)
        walls.append(time.perf_counter() - t0)
        cpus.append(cpu_s() - c0)
        scales.append(sampler.scale())
        # same inputs must give the same stream
        failed += gate(antipaths, workload, texts, None if workload.seeded else first_digest)
        first_digest = first_digest or digest(texts)
        del texts
    peak = peak_rss_mb()
    passes = len(walls)
    checked = passes
    if cfgs[0].jobs > 1:
        # the stream must not depend on the worker count
        texts, _ = run_pass(configs(workload.argvs(seed, 0), jobs=1))
        failed += gate(antipaths, workload, texts, first_digest)
        checked += 1
    return {
        "attempted": checked * workload.records,
        "failed": failed,
        "trials_per_s": workload.records / statistics.median(
            [w * k for w, k in zip(walls, scales)]),
        "cpu_s": statistics.median([c * k for c, k in zip(cpus, scales)]),
        "wall.trials_per_s": workload.records / statistics.median(walls),
        "wall.cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak,
    }


def _nearest_rank(sorted_xs: list[float], q: float) -> float:
    import math

    return sorted_xs[max(0, math.ceil(q * len(sorted_xs)) - 1)]


def trial_tail(sorted_xs: list[float]) -> float:
    """The highest of p99.9, p99, p90, p50 with at least ten samples beyond
    it; the maximum when there are too few samples for any."""
    import math

    n = len(sorted_xs)
    for q in (0.999, 0.99, 0.9, 0.5):
        if n - math.ceil(q * n) >= 10:
            return _nearest_rank(sorted_xs, q)
    return sorted_xs[-1] if sorted_xs else 0.0


def layer_metrics(tracer, pass_wall: float, run_wall: float, jobs: int) -> dict:
    """Per-layer figures of one traced pass. `_s` figures are self time."""
    from tracer import TARGETS

    t = tracer.totals()
    per = t["per_name"]

    def calls(name):
        return per.get(name, (0, 0.0))[0]

    def self_s(name):
        return per.get(name, (0, 0.0))[1]

    trials = sorted(t["trial_s"])
    builds = calls("rotation.build_state")
    samplers = calls("constructions.random_with_min_pd")
    out = {
        "graphs.adjacency_masks_calls": calls("graphs.adjacency_masks"),
        "witnesses.validate_antipath_calls": calls("witnesses.validate_antipath"),
        "constructions.attempts_per_graph":
            calls("constructions.random_oriented_graph") / samplers if samplers else 0.0,
        "rotation.closure_states": tracer.closure_states,
        "rotation.closure_truncated_ratio": tracer.closures_truncated / builds if builds else 0.0,
        "harness.trial_ms_p50": 1000 * _nearest_rank(trials, 0.5) if trials else 0.0,
        "harness.trial_ms_tail": 1000 * trial_tail(trials),
        "harness.trial_self_s": self_s("harness.trial"),
        "harness.serialize_s": self_s("harness.serialize"),
        "harness.pool_efficiency": sum(trials) / (jobs * run_wall),
        "trace.coverage": t["roots_s"] / pass_wall,
    }
    for name, _, _ in TARGETS:
        if not name.startswith("harness."):
            out[f"{name}_s"] = self_s(name)
    return out


def traced(antipaths, workload, seed: int) -> dict:
    """An untraced and a traced pass over the same inputs, plus, for a pool
    workload, a traced jobs-1 pass that gives the worker-side layers."""
    from tracer import Tracer

    cfgs = configs(workload.argvs(seed, 0))
    t0 = time.perf_counter()
    texts, _ = run_pass(cfgs)
    untraced_wall = time.perf_counter() - t0
    failed = gate(antipaths, workload, texts)
    plain = digest(texts)
    del texts

    def traced_pass(pass_cfgs):
        nonlocal failed
        with Tracer() as tracer:
            t0 = time.perf_counter()
            texts, run_wall = run_pass(pass_cfgs)
            wall = time.perf_counter() - t0
        failed += gate(antipaths, workload, texts, plain)  # tracing must not change the stream
        if tracer.missing:
            print(f"campaign: not traced: {', '.join(tracer.missing)}", file=sys.stderr)
        return tracer, wall, run_wall

    tracer, wall, run_wall = traced_pass(cfgs)
    overhead = wall - untraced_wall
    layers, layer_wall = tracer, wall
    passes = 2
    if cfgs[0].jobs > 1:
        layers, layer_wall, _ = traced_pass(configs(workload.argvs(seed, 0), jobs=1))
        passes = 3
    metrics = layer_metrics(layers, layer_wall, run_wall, cfgs[0].jobs)
    metrics["trace.overhead_s"] = overhead
    os.makedirs(OUT_DIR, exist_ok=True)
    layers.write(os.path.join(OUT_DIR, f"spans-{workload.name}.csv"))
    return {"attempted": passes * workload.records, "failed": failed, **metrics}


def main() -> None:
    spec = json.loads(sys.argv[1])
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    antipaths = load_package()
    t0 = time.perf_counter()
    configs(workload.argvs(spec["seed"], 0))
    validate_s = time.perf_counter() - t0
    setup = time.monotonic() - spec["t0"]
    from speed import scale_now

    result = {"setup_s": setup * scale_now(), "wall.setup_s": setup, "cli.validate_s": validate_s}
    if not spec["setup_only"]:
        if spec["trace"]:
            result.update(traced(antipaths, workload, spec["seed"]))
        else:
            result.update(measure(antipaths, workload, spec["seed"], spec["seconds"]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

"""Self-tests of the benchmark: python3 -m pytest bench"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import campaign  # noqa: E402
import speed  # noqa: E402
from gate import check_stream, parse_witness  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

antipaths = campaign.load_package()

# one small campaign per mode, so every layer is called at least once
TINY = [
    ["exhaustive-lemmas", "--n", "3"],
    ["audit", "--k", "4", "--samples", "6", "--seed", "3"],
    ["tightness", "--k", "4"],
    ["verify-theorem", "--k", "4", "--samples", "3", "--seed", "2"],
]


def _bindings() -> dict:
    """Every (module, name) in the package that holds an object some target wraps."""
    originals = set()
    for _, module_name, attr in TARGETS:
        obj = sys.modules[module_name]
        for part in attr.split("."):
            obj = getattr(obj, part)
        originals.add(id(obj))
    found = {}
    for mod_name, mod in sys.modules.items():
        if mod_name == "antipaths" or mod_name.startswith("antipaths."):
            for key, value in vars(mod).items():
                if id(value) in originals:
                    found[(mod_name, key)] = value
    found[("OrientedGraph", "adjacency_masks")] = antipaths.OrientedGraph.adjacency_masks
    found[("OrientedGraph", "degree_profile")] = antipaths.OrientedGraph.degree_profile
    return found


def _traced_tiny() -> tuple[Tracer, list[str]]:
    with Tracer() as tracer:
        texts, _ = campaign.run_pass(campaign.configs(TINY))
    return tracer, texts


def test_wrappers_are_restored_after_a_traced_run():
    before = _bindings()
    assert ("antipaths.harness", "validate_antipath") in before
    assert ("antipaths.rotation", "validate_antipath") in before
    assert ("antipaths.oracle", "validate_antipath") in before
    assert ("antipaths.harness", "build_state") in before
    with Tracer() as tracer:
        assert antipaths.harness.validate_antipath is not before[
            ("antipaths.harness", "validate_antipath")]
    assert not tracer.missing
    _traced_tiny()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_trace_has_a_span_for_every_named_layer():
    tracer, texts = _traced_tiny()
    totals = tracer.totals()
    assert set(totals["per_name"]) == {name for name, _, _ in TARGETS}
    assert all(calls > 0 for calls, _ in totals["per_name"].values())
    assert tracer.closure_states > 0
    assert len(totals["trial_s"]) == sum(text.count("\n") for text in texts)
    metrics = campaign.layer_metrics(tracer, pass_wall=1e9, run_wall=1e9, jobs=1)
    assert all(metrics[f"{name}_s"] > 0 for name, _, _ in TARGETS if not name.startswith("harness."))


def test_tracing_leaves_streams_unchanged():
    plain, _ = campaign.run_pass(campaign.configs(TINY))
    _, traced = _traced_tiny()
    assert campaign.digest(plain) == campaign.digest(traced)


def test_speed_sampler_samples_and_restores_sigalrm():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        end = time.perf_counter() + 3.5 * speed.SAMPLE_PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0 < sampler.scale() < 100


def _stream(argv) -> str:
    (text,), _ = campaign.run_pass(campaign.configs([argv]))
    return text


def _corrupt(text: str, line: int, edit) -> str:
    lines = text.splitlines()
    rec = json.loads(lines[line])
    edit(rec)
    lines[line] = json.dumps(rec)
    return "\n".join(lines) + "\n"


def _drop_vertex(witness: str) -> str:
    verts, forward = parse_witness(witness)
    return f"antipath: {' '.join(map(str, verts[:-1]))} dir={'+' if forward else '-'}"


def test_gate_passes_good_streams():
    for argv in TINY:
        text = _stream(argv)
        assert check_stream(antipaths, text, text.count("\n")) == 0


def test_gate_rejects_a_witness_with_one_vertex_dropped():
    text = _stream(["tightness", "--k", "6"])
    bad = _corrupt(text, 0, lambda r: r.update(witness=_drop_vertex(r["witness"])))
    assert check_stream(antipaths, bad, 1) == 1

    text = _stream(["verify-theorem", "--k", "4", "--samples", "3", "--seed", "2"])

    def drop(rec):
        rec["shapes"][1]["witness"] = _drop_vertex(rec["shapes"][1]["witness"])

    assert check_stream(antipaths, _corrupt(text, 2, drop), 3) == 1


def test_gate_counts_bad_missing_and_misordered_records():
    text = _stream(["audit", "--k", "4", "--samples", "6", "--seed", "3"])
    assert check_stream(antipaths, _corrupt(text, 4, lambda r: r.update(ok=False)), 6) == 1
    lines = text.splitlines(keepends=True)
    assert check_stream(antipaths, "".join(lines[:5]), 6) == 1
    assert check_stream(antipaths, "".join([lines[1], lines[0], *lines[2:]]), 6) == 2
    wrong_pd = _corrupt(_stream(["tightness", "--k", "4"]), 0, lambda r: r.update(pd=3))
    assert check_stream(antipaths, wrong_pd, 1) == 1


def test_run_fails_without_a_result_when_the_package_is_absent(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "audit-k6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

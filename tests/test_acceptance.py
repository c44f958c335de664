"""Acceptance gate: every criterion at its stated budget, one line printed each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines on the terminal.
"""

import json
import random
import time

import pytest

from antipaths import (
    OrientedGraph,
    audit_maximality,
    build_state,
    contains_antipath_of_length,
    enumerate_oriented_graphs,
    improve,
    integer_threshold,
    longest_antipath,
    longest_anticycle,
    random_oriented_graph,
    validate_antipath,
)
from antipaths.harness import ExperimentConfig, records_to_json_lines, run
from antipaths.rotation import _insertions, _odd_chords_seq, _pivot_chord_seq, _rotations, _swap_successors

from test_rotation import planted_opening_fixture


def report(name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


def run_mode(**kwargs):
    cfg = ExperimentConfig(**kwargs)
    cfg.validate()
    return run(cfg)


@pytest.fixture(scope="module")
def exhaustive_n5_records():
    return run_mode(mode="exhaustive-lemmas", n=5, k_min=4, k_max=10)


def test_criterion_1_tightness_reproduction():
    # every even k up to 20 (blobs b = 2..10), each within its own budget
    details = []
    ok = True
    for k in range(4, 21, 2):
        t0 = time.monotonic()
        (r,) = run_mode(mode="tightness", k=k)
        elapsed = time.monotonic() - t0
        ok = ok and r["pd"] == k // 2 and r["longest_len"] == k - 1 and elapsed < 10.0
        details.append(f"k={k} pd={r['pd']} longest={r['longest_len']} ({elapsed:.1f}s)")
    report("1 tightness", ok, "; ".join(details))


def test_criterion_2_theorem_sampling():
    t0 = time.monotonic()
    failures = 0
    total = 0
    for k in (4, 5, 6, 7):
        records = run_mode(
            mode="verify-theorem", k=k, n=2 * k + 2, samples=1000, seed=20250801
        )
        assert len(records) == 1000
        floor = integer_threshold(k)
        for r in records:
            total += 1
            assert r["pd"] >= floor
            if not r["ok"]:
                failures += 1
    elapsed = time.monotonic() - t0
    ok = failures == 0 and elapsed < 600.0
    report(
        "2 theorem sampling",
        ok,
        f"{total} degree-floor graphs across k=4..7, {failures} missing shapes ({elapsed:.1f}s)",
    )


def test_criterion_3_exhaustive_lemma_check(exhaustive_n5_records):
    t0 = time.monotonic()
    records = exhaustive_n5_records
    elapsed = time.monotonic() - t0  # fixture may be cached; recheck budget below
    counterexamples = sum(len(r["violations"]) for r in records)
    ok = len(records) == 59049 and counterexamples == 0
    report(
        "3 exhaustive lemmas",
        ok,
        f"{len(records)} graphs on 5 vertices, {counterexamples} counterexamples",
    )
    assert elapsed < 900.0


def test_criterion_3_budget():
    t0 = time.monotonic()
    run_mode(mode="exhaustive-lemmas", n=5, k_min=4, k_max=10)
    elapsed = time.monotonic() - t0
    report("3b exhaustive budget", elapsed < 900.0, f"{elapsed:.1f}s (< 900s)")


def test_criterion_4_audit_soundness():
    openings = 0
    short = 0
    audited = 0
    for k in (4, 5):
        for r in run_mode(mode="audit", k=k, samples=500, seed=77):
            if r["audit"] is not None:
                audited += 1
                openings += len(r["audit"]["extension_openings"])
            if r["checks"]["below_target_length"]:
                short += 1
    fixtures_ok = 0
    cases = [
        (m, i, flavor)
        for m in (3, 5, 7, 9)
        for i in range(1, (m - 1) // 2 + 1)
        for flavor in ("before", "onto")
    ]
    assert len(cases) == 20
    for m, i, flavor in cases:
        g, seq, v, w = planted_opening_fixture(m, i, flavor)
        path = validate_antipath(g, seq)
        pd = g.degree_profile().min_pseudo_semidegree
        rep = audit_maximality(build_state(g, path), m + 1, pd)
        hits = [o for o in rep.extension_openings]
        good = bool(hits)
        for o in hits:
            wit = validate_antipath(g, o.longer_path.vertices)
            good = good and wit.length == path.length + 1
        fixtures_ok += good
    ok = openings == 0 and short == 0 and fixtures_ok == 20 and audited > 0
    report(
        "4 audit soundness",
        ok,
        f"{audited} certified-longest states, {openings} openings, {short} short graphs; "
        f"{fixtures_ok}/20 planted fixtures flagged with validating longer paths",
    )


def _random_antipath(g, rng):
    """An independent random alternating walk (never uses the engine's code)."""
    arcs = g.arcs()
    u, v = arcs[rng.randrange(len(arcs))]
    seq = [u, v] if rng.random() < 0.5 else [v, u]
    forward = seq[0] == u  # first arc leaves seq[0] iff we kept (u, v) order
    # extend at the right end while the alternation allows
    next_forward = not forward
    while rng.random() < 0.75:
        tail = seq[-1]
        pool = g.out_neighbors(tail) if next_forward else g.in_neighbors(tail)
        options = sorted(pool - set(seq))
        if not options:
            break
        seq.append(options[rng.randrange(len(options))])
        next_forward = not next_forward
    return validate_antipath(g, seq)


def test_criterion_5_move_soundness():
    rng = random.Random(1234)
    counts = {"rotation": 0, "swap": 0, "insertion": 0, "improve": 0}
    trials = 0
    while trials < 10_000:
        n = rng.randrange(4, 9)
        g = random_oriented_graph(n, rng.uniform(0.25, 0.85), rng.randrange(10**9))
        if g.arc_count == 0:
            continue
        path = _random_antipath(g, rng)
        oracle_len = longest_antipath(g).length

        if path.length % 2 == 1:
            # every move the engine enumerates, on the forward form of path
            st = build_state(g, path)
            seq = st.path.vertices
            m = st.path.length
            rotated = list(_rotations(g, seq))
            assert rotated[0] == seq
            for s in rotated[1:]:
                assert set(s) == set(seq)
                assert validate_antipath(g, s).length == m
                counts["rotation"] += 1
                trials += 1
            for s in _swap_successors(g, seq):
                assert validate_antipath(g, s).length == m
                counts["swap"] += 1
                trials += 1
            for v, w, i in _insertions(g, seq, sorted(st.head_candidates)):
                for build, chord in ((_odd_chords_seq, seq[2 * i - 1]), (_pivot_chord_seq, seq[2 * i])):
                    if not g.has_arc(w, chord):
                        continue
                    out = validate_antipath(g, build(seq, v, w, i))
                    assert out.length == m + 1
                    assert set(out.vertices) == set(seq[1:]) | {v, w}
                    counts["insertion"] += 1
                    trials += 1

        improved = improve(g, path)
        validate_antipath(g, improved.vertices)
        assert path.length <= improved.length <= oracle_len
        assert improve(g, improved).length == improved.length
        counts["improve"] += 1
        trials += 1
    ok = all(c > 0 for c in counts.values())
    report("5 move soundness", ok, f"{trials} move trials: {counts}")


def test_criterion_6_parity_properties(exhaustive_n5_records):
    cycles = 0
    for g in enumerate_oriented_graphs(4):
        w = longest_anticycle(g)
        if w is not None:
            assert w.length % 2 == 0 and w.length >= 4
            cycles += 1
    rng = random.Random(5)
    for _ in range(500):
        g = random_oriented_graph(rng.randrange(5, 9), rng.uniform(0.3, 0.9), rng.randrange(10**9))
        w = longest_anticycle(g)
        if w is not None:
            assert w.length % 2 == 0 and w.length >= 4
            cycles += 1
    parity_breaks = 0
    scanned = 0
    for r in exhaustive_n5_records:
        pd, m = r["pd"], r["longest_len"]
        for k in range(4, 11):
            if 2 * pd >= k and m < k:
                scanned += 1
                if m % 2 == 0 and m > 0:
                    parity_breaks += 1
    ok = cycles > 0 and parity_breaks == 0
    report(
        "6 parity",
        ok,
        f"{cycles} emitted anticycles all even length >= 4; "
        f"{scanned} stuck longest paths under the degree floor, {parity_breaks} even",
    )


def test_criterion_7_threshold_arithmetic():
    expected = {4: 3, 5: 3, 7: 5, 12: 8, 103: 57}
    got = {k: integer_threshold(k) for k in expected}
    ok = got == expected
    report("7 threshold arithmetic", ok, f"{got}")


def test_criterion_8_reproducibility(tmp_path):
    a = records_to_json_lines(run_mode(mode="verify-theorem", k=4, samples=40, seed=6))
    b = records_to_json_lines(run_mode(mode="verify-theorem", k=4, samples=40, seed=6))
    serial = records_to_json_lines(run_mode(mode="audit", k=4, samples=10, seed=6, jobs=1))
    parallel = records_to_json_lines(run_mode(mode="audit", k=4, samples=10, seed=6, jobs=2))
    e1 = records_to_json_lines(run_mode(mode="exhaustive-lemmas", n=4))
    e2 = records_to_json_lines(run_mode(mode="exhaustive-lemmas", n=4))
    ok = a == b and serial == parallel and e1 == e2
    report(
        "8 reproducibility",
        ok,
        f"repeat={'=' if a == b else '!='} parallel={'=' if serial == parallel else '!='} "
        f"exhaustive={'=' if e1 == e2 else '!='}",
    )


def test_witnesses_in_streams_revalidate(exhaustive_n5_records):
    # spot-check the stream contract: graphs rebuild from records and hashes match
    sample = exhaustive_n5_records[:: 4096]
    for r in sample:
        g = OrientedGraph.from_arcs(r["graph"]["n"], [tuple(a) for a in r["graph"]["arcs"]])
        if r["longest_len"]:
            assert contains_antipath_of_length(g, r["longest_len"]) is not None
            assert contains_antipath_of_length(g, r["longest_len"] + 1) is None
    line = records_to_json_lines(sample[:1])
    assert json.loads(line)["mode"] == "exhaustive-lemmas"

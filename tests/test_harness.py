import hashlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from antipaths import OrientedGraph, cycle_blowup, format_edge_list, graph_from_code, graph_hash
from antipaths.harness import (
    ConfigError,
    ExperimentConfig,
    derive_seed,
    execute,
    parse_construction,
    records_from_csv,
    records_to_csv,
    records_to_json_lines,
    run,
    serialize_records,
)
from antipaths.witnesses import validate_antipath
import antipaths.harness as harness
import antipaths.cli as cli

from test_rotation import planted_opening_fixture


ROOT = Path(__file__).resolve().parent.parent


def run_cli(*args, check=False):
    # the child imports this checkout's package, installed or not
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "antipaths", *args],
        capture_output=True,
        text=True,
        cwd=str(ROOT),
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"CLI failed ({proc.returncode}): {proc.stderr}")
    return proc


# ---------------------------------------------------------------------------
# config validation


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(mode="verify-theorem", k=3),
        dict(mode="verify-theorem", k=4, n=4),
        dict(mode="verify-theorem", k=4, samples=0),
        dict(mode="verify-theorem", k=4, construction="random:p=0.5"),
        dict(mode="tightness", k=5),
        dict(mode="tightness", k=2),
        dict(mode="exhaustive-lemmas", n=6),
        dict(mode="exhaustive-lemmas", n=4, k_min=5, k_max=4),
        dict(mode="audit", k=4, construction="nonsense"),
        dict(mode="audit", k=4, construction="random:p"),
        dict(mode="audit", k=4, construction="random-min-pd:d=9"),
        dict(mode="audit", k=4, construction="random:p=2.0"),
        dict(mode="audit", k=4, construction="cycle-blowup:ell=2,b=2"),
        dict(mode="audit", k=4, construction="random:p=0.5,q=3"),
        dict(mode="audit", k=4, construction="cycle-blowup:ell=3,b=2.5"),
        dict(mode="search"),
        dict(mode="nonsense"),
        dict(mode="audit", k=4, output_format="xml"),
        dict(mode="audit", k=4, jobs=0),
        dict(mode="audit", k=4, construction="cycle-blowup:ell=3,b=2,b=3"),
    ],
)
def test_config_rejections(kwargs):
    with pytest.raises(ConfigError):
        ExperimentConfig(**kwargs).validate()


def test_config_defaults():
    cfg = ExperimentConfig(mode="verify-theorem", k=4)
    cfg.validate()
    assert cfg.n == 10 and cfg.samples == 1000


@pytest.mark.parametrize(
    "mode, flags, required",
    [
        pytest.param("verify-theorem", ["--k", "4"], dict(k=4), id="verify-theorem"),
        pytest.param("tightness", ["--k", "4"], dict(k=4), id="tightness"),
        pytest.param("exhaustive-lemmas", ["--n", "3"], dict(n=3), id="exhaustive-lemmas"),
        pytest.param("audit", ["--k", "4"], dict(k=4), id="audit"),
        pytest.param("search", ["--input", "graph.el"], dict(input_path="graph.el"), id="search"),
    ],
)
def test_cli_defaults_are_config_defaults(mode, flags, required):
    # the parser fills in nothing: every default comes from ExperimentConfig
    cfg = cli.config_from_args(cli.build_parser().parse_args([mode, *flags]))
    expected = ExperimentConfig(mode=mode, **required)
    assert cfg == expected
    cfg.validate()
    expected.validate()
    assert cfg == expected


def test_parse_construction():
    assert parse_construction("cycle-blowup:ell=3,b=2") == ("cycle-blowup", {"ell": 3, "b": 2})
    assert parse_construction("random:p=0.25") == ("random", {"p": 0.25})
    assert parse_construction("random:p=1e-1") == ("random", {"p": 0.1})
    assert parse_construction("random:p=1") == ("random", {"p": 1.0})
    with pytest.raises(ConfigError):
        parse_construction("cycle-blowup:ell=3")  # missing b


def test_derive_seed_is_stable():
    assert derive_seed(0, 0) == derive_seed(0, 0)
    assert derive_seed(0, 0) != derive_seed(0, 1)
    assert derive_seed(1, 0) != derive_seed(0, 0)
    # frozen value (first 8 bytes of sha256(b"0:0")): the cross-release contract
    expected = int.from_bytes(hashlib.sha256(b"0:0").digest()[:8], "big")
    assert expected == 0xAC72368A586A18C1
    assert derive_seed(0, 0) == expected


# ---------------------------------------------------------------------------
# record semantics


def records_for(**kwargs):
    cfg = ExperimentConfig(**kwargs)
    cfg.validate()
    return run(cfg)


def test_verify_records_and_witnesses_revalidate():
    records = records_for(mode="verify-theorem", k=4, samples=10, seed=5)
    assert len(records) == 10
    for r in records:
        assert r["ok"]
        g = OrientedGraph.from_arcs(r["graph"]["n"], [tuple(a) for a in r["graph"]["arcs"]])
        assert graph_hash(g) == r["graph"]["hash"]
        for shape in r["shapes"]:
            assert shape["found"]
            verts = [int(x) for x in shape["witness"].split("dir=")[0].split()[1:]]
            wit = validate_antipath(g, verts)
            assert wit.length == 4
            assert shape["witness"].endswith("+" if wit.start_forward else "-")


def test_tightness_records():
    (r,) = records_for(mode="tightness", k=4)
    assert r["ok"] and r["pd"] == 2 and r["longest_len"] == 3
    (r6,) = records_for(mode="tightness", k=6)
    assert r6["ok"] and r6["pd"] == 3 and r6["longest_len"] == 5


def test_exhaustive_records_n3_vacuous():
    records = records_for(mode="exhaustive-lemmas", n=3)
    assert len(records) == 27
    assert all(r["ok"] for r in records)
    # no 3-vertex graph clears the degree hypothesis for k >= 4
    assert all(r["pd"] <= 1 for r in records)


def test_exhaustive_holds_across_wide_k_range():
    # the supporting statements are claimed for every k >= 1, not just 4..10
    records = records_for(mode="exhaustive-lemmas", n=4, k_min=1, k_max=12)
    assert len(records) == 729
    assert all(not r["violations"] for r in records)


def test_exhaustive_k_max_beyond_every_floor_costs_nothing():
    # no check can fire once k > 2 * pd (pd <= 3 at n = 4), so the loop stops
    # there: a huge k_max is fast and gives the records of k_max = 12
    huge = records_for(mode="exhaustive-lemmas", n=4, k_min=1, k_max=10**9)
    small = records_for(mode="exhaustive-lemmas", n=4, k_min=1, k_max=12)
    assert all(r["config"]["k_max"] == 10**9 for r in huge)
    assert [{**r, "config": None} for r in huge] == [{**r, "config": None} for r in small]


def assert_lines_are_the_encoding(records):
    # every record carries the line _ENCODER writes for its fields, and the
    # stream is the same whether the serializer reads those lines or not
    plain = records_to_json_lines([dict(r) for r in records])
    assert [r.line for r in records] == plain.splitlines(keepends=True)
    assert records_to_json_lines(records) == plain


@pytest.mark.parametrize("n, stride", [(4, 1), (5, 61)])
def test_exhaustive_records_match_their_own_graph(n, stride):
    # the lemma fields are computed once per isomorphism class, on its
    # representative, and the graph fields from half-code row tables; each
    # record must still hold what its own graph, decoded through add_arc, gives
    records = records_for(mode="exhaustive-lemmas", n=n, k_min=1, k_max=12)
    assert [r["trial"] for r in records] == list(range(3 ** (n * (n - 1) // 2)))
    assert_lines_are_the_encoding(records)
    for r in records:
        g = graph_from_code(n, r["trial"])
        assert r["graph"] == {
            "hash": graph_hash(g),
            "n": n,
            "arc_count": g.arc_count,
            "arcs": [list(arc) for arc in g.arcs()],
        }
    for r in records[::stride]:
        fields = harness._lemma_fields(graph_from_code(n, r["trial"]), 1, 12)
        assert {key: r[key] for key in fields} == fields


# n = 5 is checked at k 1..12 in test_exhaustive_records_match_their_own_graph,
# and at the default k range by its stream's pin, which joins the lines it carries
@pytest.mark.parametrize(
    "n, k_min, k_max", [(n, 4, 10) for n in range(5)] + [(n, 1, 12) for n in range(5)]
)
def test_exhaustive_lines_are_the_encoding(n, k_min, k_max):
    assert_lines_are_the_encoding(
        records_for(mode="exhaustive-lemmas", n=n, k_min=k_min, k_max=k_max)
    )


def test_exhaustive_lines_survive_pickling():
    # a pool sends records back to the parent process pickled
    records = records_for(mode="exhaustive-lemmas", n=4)
    assert_lines_are_the_encoding(pickle.loads(pickle.dumps(records)))
    assert_lines_are_the_encoding(records_for(mode="exhaustive-lemmas", n=4, jobs=2))


# sha256 of the exhaustive-lemmas streams at the default k range, pinned from
# the per-code decoding implementation. n = 0 and 1 have no pair, n = 2 one,
# and n = 3 an odd number, so both halves of the code split are covered.
EXHAUSTIVE_STREAM_SHA256 = {
    (0, "json"): "670702d64edf9ca637d087453d570bf323536891c6f177eff145fc32aa4f7020",
    (1, "json"): "e2591717c048af5904f90fde94768cde4205aea77f3851f9cc09e139815d8ca1",
    (2, "json"): "c493c941d423db2a028d4d315672f328ef53f53e70c0f172a180c773c33b0daa",
    (3, "json"): "859d22d09eb32ba2b33414637ba4fa6b05518bf8b20f2c23fe4026bf788224af",
    (4, "json"): "6c572e606720a011ef7af330a2c0ba7f8afc26d289e8bd2746af96d5ded3bf0e",
    (5, "json"): "a88bb80026b5d535a36247055d164cb396fe89668c48147833c9eedffbd270e2",
    (4, "csv"): "3ea74c5bc9b12acca60d5e730329f6a2c6a67958ead4fb96099bd8624bfd9463",
}


# sha256 of the streams of the other modes, keyed by their CLI arguments and
# pinned from the implementation that stated each mode's record fields in full
STREAM_SHA256 = {
    ("tightness --k 8", "json"):
        "9ed9fed0add553525c78616fe4c749b4b8a4a0888e4eedbfe8f4fed7d0bccaee",
    ("tightness --k 8", "csv"):
        "0884c71e6cb3873405db23f1914f9f75d2c5a4a961f9aea148ef8a512a40fa4f",
    ("verify-theorem --k 9 --samples 40 --seed 4", "json"):
        "1a219dddb62aff6a2462095f9afea7e98cc85c4cbd265501ce41f03dc932ec3b",
    ("verify-theorem --k 10 --samples 40 --seed 4", "json"):
        "50d3e3dd4125850f492163be3ef7b07c0d379f79cc7862580d1f52f06ac90d87",
    ("audit --k 6 --samples 40 --seed 3", "json"):
        "abbd22be3cdbb32dfe3e560ede21e2af25a516d2546ef76a9a13e01bfdcde20f",
    ("audit --k 6 --samples 40 --seed 3", "csv"):
        "03779f72a41e197089112a954c55147a677ef605b371038dc57ee0857870f2cc",
    ("audit --k 4 --n 6 --samples 3 --construction cycle-blowup:ell=3,b=2", "json"):
        "ce5366c9da8a04f5f39e14e1401b609d091c3c186c854cc5716c3211549b3655",
    ("audit --k 5 --samples 20 --seed 2 --construction random:p=0.5", "json"):
        "80ec47d684d3871a229ce6be4c665fec8a9eaa259e19297c5ba80aace5e5f66d",
}


def stream_sha256(args: str, output_format: str) -> str:
    """The sha256 of the stream that `antipaths <args> --format <output_format>` writes."""
    argv = args.split() + ["--format", output_format]
    cfg = cli.config_from_args(cli.build_parser().parse_args(argv))
    return hashlib.sha256(serialize_records(run(cfg), output_format).encode()).hexdigest()


@pytest.mark.parametrize("n, output_format", sorted(EXHAUSTIVE_STREAM_SHA256))
def test_exhaustive_streams_are_pinned(n, output_format):
    digest = stream_sha256(f"exhaustive-lemmas --n {n}", output_format)
    assert digest == EXHAUSTIVE_STREAM_SHA256[n, output_format]


@pytest.mark.parametrize("args, output_format", sorted(STREAM_SHA256))
def test_streams_are_pinned(args, output_format):
    assert stream_sha256(args, output_format) == STREAM_SHA256[args, output_format]


# `search` seeds `improve` with the first arc; on each graph the climb needs
# the named move. The planted opening is reached by endpoint extensions alone.
SEARCH_GRAPHS = {
    "rotation": OrientedGraph.from_arcs(5, [(0, 1), (2, 1), (2, 3), (0, 3), (2, 4)]),
    "planted-opening": planted_opening_fixture(5, 2, "before")[0],
    "swap": OrientedGraph.from_arcs(7, [(2, 1), (4, 0), (4, 1), (5, 2), (6, 1), (6, 3)]),
    "insertion": OrientedGraph.from_arcs(8, [
        (0, 1), (0, 4), (1, 5), (3, 0), (3, 2), (3, 5), (4, 1), (4, 3),
        (4, 6), (5, 0), (5, 4), (6, 3), (6, 5), (7, 1), (7, 3), (7, 6),
    ]),
}

# sha256 of `search --input graph.el` on each graph, pinned before the
# checked public move wrappers were deleted
SEARCH_STREAM_SHA256 = {
    "rotation":
        "d1586f3437a3c36d56d849e70212b04efddc79bd87d48725152e8ec4535e1445",
    "planted-opening":
        "016efe5952a764f5f8553e3ef48ff718dba857e6b300009267ef1f6c411d843c",
    "swap":
        "467bf30f22f34cea8878449f7dab2ae78a2995847ab17d55ccc0f6d8cd588edd",
    "insertion":
        "a970d80f540d89219ed853951129d73ed37453c3ebbe1ec8a05c8c5c3057ff62",
}


@pytest.mark.parametrize("name", sorted(SEARCH_GRAPHS))
def test_search_streams_are_pinned(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the record echoes the input path
    Path("graph.el").write_text(format_edge_list(SEARCH_GRAPHS[name]))
    assert stream_sha256("search --input graph.el", "json") == SEARCH_STREAM_SHA256[name]


def test_audit_with_blowup_construction_is_not_a_failure():
    records = records_for(
        mode="audit", k=4, n=6, samples=1, construction="cycle-blowup:ell=3,b=2"
    )
    (r,) = records
    assert r["ok"]
    assert r["longest_len"] == 3
    assert r["checks"]["below_target_length"] is False  # degree floor unmet, nothing to enforce
    assert r["audit"]["extension_openings"] == []


def test_audit_random_sampling():
    records = records_for(mode="audit", k=4, samples=8, seed=11)
    assert len(records) == 8
    for r in records:
        assert r["ok"]
        if r["audit"] is not None:
            assert r["audit"]["extension_openings"] == []


# ---------------------------------------------------------------------------
# reproducibility and format parity


def test_repeat_runs_are_byte_identical():
    a = records_to_json_lines(records_for(mode="verify-theorem", k=4, samples=6, seed=1))
    b = records_to_json_lines(records_for(mode="verify-theorem", k=4, samples=6, seed=1))
    assert a == b
    c = records_to_json_lines(records_for(mode="verify-theorem", k=4, samples=6, seed=2))
    assert c != a


def test_parallel_runs_match_serial():
    serial = records_for(mode="audit", k=4, samples=6, seed=3, jobs=1)
    parallel = records_for(mode="audit", k=4, samples=6, seed=3, jobs=2)
    assert records_to_json_lines(serial) == records_to_json_lines(parallel)
    e1 = records_for(mode="exhaustive-lemmas", n=4, jobs=1)
    e2 = records_for(mode="exhaustive-lemmas", n=4, jobs=2)
    assert records_to_json_lines(e1) == records_to_json_lines(e2)


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs serially."""

    sizes: list = []

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize(
    "jobs, cpus, count, expected",
    [
        (10000, 4, 100, 4),  # capped by the CPU count
        (10000, 4, 3, 3),  # capped by the trial count
        (3, 4, 100, 3),
        (10000, None, 100, None),  # unknown CPU count: serial, no pool
        (8, 4, 1, None),
    ],
)
def test_pool_size_is_capped(monkeypatch, jobs, cpus, count, expected):
    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    out = harness._map_trials(lambda params, t: (params, t), "p", count, jobs)
    assert out == [("p", t) for t in range(count)]
    assert RecordingPool.sizes == ([] if expected is None else [expected])


def test_csv_json_parity():
    records = records_for(mode="verify-theorem", k=4, samples=4, seed=9)
    csv_text = records_to_csv(records)
    parsed = records_from_csv(csv_text)
    json_records = [json.loads(line) for line in records_to_json_lines(records).splitlines()]
    assert parsed == json_records


def test_execute_writes_stream_and_reports(tmp_path, capsys):
    out = tmp_path / "records.jsonl"
    cfg = ExperimentConfig(mode="tightness", k=4, output_path=str(out))
    assert execute(cfg) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["ok"]
    assert "tightness: 1 records, 0 failures" in capsys.readouterr().err


def test_execute_exit_one_on_failures(monkeypatch):
    monkeypatch.setitem(
        harness._RUNNERS, "tightness", lambda cfg: [{"ok": False, "mode": "tightness"}]
    )
    cfg = ExperimentConfig(mode="tightness", k=4, output_path="/dev/null")
    assert execute(cfg) == 1


# ---------------------------------------------------------------------------
# CLI surface


def test_cli_main_exit_codes(tmp_path):
    assert cli.main(["tightness", "--k", "4", "--out", str(tmp_path / 'a.jsonl')]) == 0
    assert cli.main(["tightness", "--k", "5", "--out", str(tmp_path / 'b.jsonl')]) == 2
    assert cli.main(["exhaustive-lemmas", "--n", "6"]) == 2
    assert cli.main(["search", "--input", str(tmp_path / "missing.el")]) == 2


def test_cli_subprocess_streams_json():
    proc = run_cli("tightness", "--k", "4", check=True)
    record = json.loads(proc.stdout.splitlines()[0])
    assert record["pd"] == 2 and record["longest_len"] == 3


@pytest.mark.parametrize(
    "construction",
    ["random-min-pd:d=9", "random:p=2.0", "cycle-blowup:ell=2,b=2", "random:p=0.5,q=3",
     "cycle-blowup:ell=3,b=2.5", "cycle-blowup:ell=3,b=2,b=3"],
)
def test_cli_construction_errors_exit_2(construction):
    proc = run_cli("audit", "--k", "4", "--samples", "2", "--construction", construction)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize(
    "case",
    ["verify-floor-unreachable", "audit-floor-unreachable", "input-is-dir", "input-not-utf8",
     "path-too-deep", "vertices-past-memory", "vertices-past-index", "blowup-past-index"],
)
def test_cli_run_errors_exit_2(tmp_path, case):
    not_utf8 = tmp_path / "latin1.el"
    not_utf8.write_bytes(b"2 1\n0 1 \xe9\n")
    # the 1500-vertex alternating path: the exact walker recurses once per vertex
    deep = tmp_path / "alternating-path.el"
    arcs = [(i, i + 1) if i % 2 == 0 else (i + 1, i) for i in range(1499)]
    deep.write_text(f"1500 {len(arcs)}\n" + "".join(f"{u} {v}\n" for u, v in arcs))
    # 2^61 vertices fail CPython's list-size check (MemoryError) before any
    # allocation; 10^19 does not fit an index at all (OverflowError)
    past_memory = tmp_path / "past-memory.el"
    past_memory.write_text("2305843009213693952 0\n")
    past_index = tmp_path / "past-index.el"
    past_index.write_text("10000000000000000000 0\n")
    args = {
        # the degree floor 3 of k=4 cannot be reached on 7 vertices
        "verify-floor-unreachable": ["verify-theorem", "--k", "4", "--n", "7", "--samples", "2"],
        "audit-floor-unreachable": ["audit", "--k", "4", "--n", "7", "--samples", "2"],
        "input-is-dir": ["search", "--input", str(tmp_path)],
        "input-not-utf8": ["search", "--input", str(not_utf8)],
        "path-too-deep": ["search", "--input", str(deep)],
        "vertices-past-memory": ["search", "--input", str(past_memory)],
        "vertices-past-index": ["search", "--input", str(past_index)],
        # raised by the dry build in validate()
        "blowup-past-index": ["audit", "--k", "4", "--samples", "1",
                              "--construction", "cycle-blowup:ell=3,b=10000000000000000000"],
    }[case]
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert case != "path-too-deep" or "recursion limit" in lines[0]
    assert "past" not in case or "too many vertices" in lines[0]


def test_cli_search_roundtrip(tmp_path):
    el = tmp_path / "blowup.el"
    el.write_text(format_edge_list(cycle_blowup(3, 2)))
    dot = tmp_path / "blowup.dot"
    proc = run_cli("search", "--input", str(el), "--dot", str(dot), check=True)
    record = json.loads(proc.stdout)
    assert record["longest_len"] == 3
    assert record["heuristic_len"] <= record["longest_len"]
    assert record["agreement"] is True
    text = dot.read_text()
    assert text.count("->") == 12
    assert "color=red" in text


def test_cli_search_parse_error_names_line(tmp_path):
    el = tmp_path / "bad.el"
    el.write_text("2 1\n1 x\n")
    proc = run_cli("search", "--input", str(el))
    assert proc.returncode == 2
    assert "line 2" in proc.stderr


def test_cli_search_arcless(tmp_path):
    el = tmp_path / "empty.el"
    el.write_text("5 0\n")
    proc = run_cli("search", "--input", str(el), check=True)
    record = json.loads(proc.stdout)
    assert record["pd"] == 0 and record["longest_len"] is None


def test_cli_csv_format(tmp_path):
    out = tmp_path / "r.csv"
    assert cli.main(["tightness", "--k", "4", "--format", "csv", "--out", str(out)]) == 0
    rows = records_from_csv(out.read_text())
    assert rows[0]["pd"] == 2

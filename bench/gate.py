"""Correctness gate for one record stream.

A stream passes when it holds the expected number of records, in trial
order, every record is ok, and every witness it carries is a valid
antipath of its stated length and direction in the graph rebuilt from the
record's own `graph.arcs`. Mode-specific facts are checked too: the
extremal blow-up must reach exactly `longest_len == k - 1` at `pd == k/2`.
"""

from __future__ import annotations

import json


def parse_witness(text: str) -> tuple[list[int], bool]:
    """"antipath: 0 2 1 3 dir=+" -> ([0, 2, 1, 3], True)."""
    kind, _, rest = text.partition(": ")
    *verts, direction = rest.split()
    if kind != "antipath" or direction not in ("dir=+", "dir=-"):
        raise ValueError(f"not an antipath witness: {text!r}")
    return [int(v) for v in verts], direction == "dir=+"


def _witness_ok(antipaths, g, text, length: int, forward: bool | None = None) -> bool:
    try:
        verts, flag = parse_witness(text)
        wit = antipaths.validate_antipath(g, verts)
    except (ValueError, TypeError, IndexError):
        return False
    if wit.start_forward != flag or wit.length != length:
        return False
    return forward is None or flag == forward


def record_ok(antipaths, rec: dict) -> bool:
    """Does one decoded record pass every per-record check?"""
    if rec.get("ok") is not True:
        return False
    mode = rec.get("mode")
    if mode == "exhaustive-lemmas":
        return rec.get("violations") == []
    graph = rec["graph"]
    if len(graph["arcs"]) != graph["arc_count"]:
        return False
    try:
        g = antipaths.OrientedGraph.from_arcs(graph["n"], map(tuple, graph["arcs"]))
    except ValueError:
        return False
    if mode == "verify-theorem":
        k = rec["k"]
        for shape in rec["shapes"]:
            forward = {"+": True, "-": False}.get(shape["start"])
            if not shape["found"] or not _witness_ok(antipaths, g, shape["witness"], k, forward):
                return False
        return len(rec["shapes"]) == (1 if k % 2 else 2)
    if mode == "tightness":
        k = rec["k"]
        return (rec["longest_len"] == k - 1 and 2 * rec["pd"] == k
                and _witness_ok(antipaths, g, rec["witness"], k - 1))
    if mode == "audit":
        m = rec["longest_len"]
        if rec["witness"] is None:
            return m is None
        if not _witness_ok(antipaths, g, rec["witness"], m):
            return False
        audit = rec["audit"]
        return audit is None or _witness_ok(antipaths, g, audit["path"], m)
    return False


def check_stream(antipaths, text: str, expected: int) -> int:
    """Number of failed trials among `expected`: records that are missing,
    out of trial order, or fail `record_ok`. Decodes one line at a time so
    the gate adds little to the run's memory."""
    failed = 0
    seen = 0
    for line in text.splitlines():
        try:
            rec = json.loads(line)
            good = rec.get("trial") == seen and record_ok(antipaths, rec)
        except (ValueError, KeyError, TypeError, AttributeError):
            good = False
        failed += not good
        seen += 1
    if seen > expected:
        return expected
    return failed + expected - seen

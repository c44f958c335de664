"""Campaign orchestration: configs, trial workers, and record streams.

A run is a list of trials, each producing one JSON-serializable record dict
from its own sub-seed, drawn from (master seed, trial index) via SHA-256. So
a config's stream is bit-identical for any worker count; records are merged
back in trial order. Only a run with two or more workers imports a pool.

Record streams deliberately contain no wall-clock data (timing goes to the
stderr summary instead) so that repeated runs are byte-identical.

Each campaign decision has one home here. Defaults live only in
`ExperimentConfig` and its `validate()`. Constructions live in one table,
`_CONSTRUCTIONS`, which `verify-theorem` and `audit` sample through (at the
degree floor unless one is named). Every sampled or built record starts with
the one header `_record` writes: config, mode, trial, sub_seed, graph, pd, delta.

`exhaustive-lemmas` still writes one record per labeled graph, but checks
each isomorphism class once: the lemma fields are computed on the class
representative, and each labeled record takes them with its own graph fields.
Those are built from half-code tables, not from a decoded graph: a code splits
into a low and a high half over disjoint vertex pairs, each half's out-masks
are decoded once per run, and a table keyed by (vertex, out-mask) holds each
vertex's arc text and (u, v) pairs. The records of one process share those
pairs and their class's lists, so they are read-only.

Their JSON lines are built from text encoded once per run, too. Each class
holds its line's text around a record's own values (arc count, arcs, hash
and trial), cut from `_ENCODER`'s text of the class's record with a
placeholder for each of them, and each row also holds the JSON of its pairs.
So a line is one concatenation. Each record is a `_Record`: a dict that
carries the line `_ENCODER` would write for it, which `records_to_json_lines`
writes as it is. The line is read-only like the shared lists, and a record
pickles with it, so pool workers send it back.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import sys
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import partial

from . import constructions as cons
from . import oracle
from .graphs import (
    DegreeProfile,
    OrientedGraph,
    _arcs_hash,
    _arcs_text,
    _arcs_text_hash,
    read_edge_list,
    to_dot,
)
from .rotation import audit_maximality, build_state, improve
from .witnesses import validate_antipath, witness_arcs


class ConfigError(ValueError):
    """Bad or incomplete run parameters; maps to exit code 2."""


# each construction: its builder, called as builder(n, seed, **params), and
# the type each of its parameters must parse as
_CONSTRUCTIONS: dict[str, tuple[Callable[..., OrientedGraph], dict[str, type]]] = {
    "cycle-blowup": (lambda n, seed, ell, b: cons.cycle_blowup(ell, b), {"ell": int, "b": int}),
    "random": (lambda n, seed, p: cons.random_oriented_graph(n, p, seed), {"p": float}),
    "random-min-pd": (lambda n, seed, d: cons.random_with_min_pd(n, d, seed), {"d": int}),
}


def parse_construction(text: str) -> tuple[str, dict]:
    """Parse "name" or "name:key=value,key=value" into (name, params)."""
    name, _, rest = text.partition(":")
    if name not in _CONSTRUCTIONS:
        raise ConfigError(
            f"unknown construction {name!r}; known: {sorted(_CONSTRUCTIONS)}"
        )
    types = _CONSTRUCTIONS[name][1]
    params: dict = {}
    if rest:
        for item in rest.split(","):
            key, sep, val = item.partition("=")
            if not sep:
                raise ConfigError(f"construction parameter {item!r} is not key=value")
            if key not in types:
                raise ConfigError(
                    f"construction {name!r} has no parameter {key!r}; known: {sorted(types)}"
                )
            if key in params:
                raise ConfigError(f"construction parameter {key!r} is given twice")
            try:
                params[key] = types[key](val)
            except ValueError:
                kind = "an integer" if types[key] is int else "a number"
                raise ConfigError(f"construction parameter {item!r} is not {kind}") from None
    missing = types.keys() - params.keys()
    if missing:
        raise ConfigError(f"construction {name!r} missing parameters {sorted(missing)}")
    return name, params


def build_construction(name: str, params: dict, n: int, seed: int) -> OrientedGraph:
    return _CONSTRUCTIONS[name][0](n, seed, **params)


@dataclass
class ExperimentConfig:
    mode: str
    k: int | None = None
    n: int | None = None
    samples: int | None = None
    seed: int = 0
    k_min: int = 4
    k_max: int = 10
    construction: str | None = None
    input_path: str | None = None
    output_format: str = "json"
    output_path: str | None = None
    dot_path: str | None = None
    jobs: int = 1

    def validate(self) -> None:
        if self.mode not in _RUNNERS:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.output_format not in ("json", "csv"):
            raise ConfigError(f"format must be json or csv, got {self.output_format!r}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        if self.mode in ("verify-theorem", "audit"):
            if self.k is None or self.k < 4:
                raise ConfigError(f"{self.mode} needs k >= 4, got {self.k}")
            if self.n is None:
                self.n = 2 * self.k + 2
            if self.n <= self.k:
                raise ConfigError(f"need n >= k+1, got n={self.n} k={self.k}")
            if self.samples is None:
                self.samples = 1000 if self.mode == "verify-theorem" else 500
            if self.samples < 1:
                raise ConfigError(f"samples must be >= 1, got {self.samples}")
            if self.mode == "verify-theorem" or self.construction is None:
                d = cons.integer_threshold(self.k)
                if self.n < 2 * d + 1:
                    raise ConfigError(
                        f"degree floor {d} needs n >= {2 * d + 1}, got n={self.n}"
                    )
            if self.construction is not None:
                if self.mode == "verify-theorem":
                    raise ConfigError("verify-theorem always samples at the degree floor")
                name, params = parse_construction(self.construction)
                try:  # out-of-range values surface here, not mid-run
                    build_construction(name, params, self.n, derive_seed(self.seed, 0))
                except ValueError as exc:
                    raise ConfigError(f"construction {self.construction!r}: {exc}") from None
        elif self.mode == "tightness":
            if self.k is None or self.k < 4 or self.k % 2 != 0:
                raise ConfigError(f"tightness needs even k >= 4, got {self.k}")
        elif self.mode == "exhaustive-lemmas":
            if self.n is None or self.n < 0:
                raise ConfigError(f"exhaustive-lemmas needs n >= 0, got {self.n}")
            if self.n > oracle.ENUMERATION_CAP:
                raise ConfigError(
                    f"n={self.n} exceeds the exhaustive cap {oracle.ENUMERATION_CAP}"
                )
            if not 1 <= self.k_min <= self.k_max:
                raise ConfigError(f"need 1 <= k_min <= k_max, got {self.k_min}..{self.k_max}")
        elif self.mode == "search":
            if self.input_path is None:
                raise ConfigError("search needs an edge-list input file")

    def echo(self) -> dict:
        """The science-relevant parameters, echoed into every record.

        Output routing and worker count are excluded on purpose: they must
        not change record bytes.
        """
        out = {"mode": self.mode, "seed": self.seed}
        if self.mode in ("verify-theorem", "audit"):
            out.update(k=self.k, n=self.n, samples=self.samples)
            if self.construction:
                out["construction"] = self.construction
        elif self.mode == "tightness":
            out.update(k=self.k)
        elif self.mode == "exhaustive-lemmas":
            out.update(n=self.n, k_min=self.k_min, k_max=self.k_max)
        elif self.mode == "search":
            out.update(input=self.input_path)
        return out


def derive_seed(master: int, index: int) -> int:
    """Per-trial sub-seed: first 8 bytes of SHA-256 over "master:index"."""
    digest = hashlib.sha256(f"{master}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _record(
    echo: dict, trial: int, sub_seed: int | None, g: OrientedGraph, prof: DegreeProfile,
    **fields,
) -> dict:
    """A record on graph g: the header every sampled or built record starts
    with, then the mode's own fields; `graph.arcs` is `g.arcs()`, not a copy."""
    arcs = g.arcs()
    return {
        "config": echo,
        "mode": echo["mode"],
        "trial": trial,
        "sub_seed": sub_seed,
        "graph": {
            "hash": _arcs_hash(g.n, arcs),
            "n": g.n,
            "arc_count": g.arc_count,
            "arcs": arcs,
        },
        "pd": prof.min_pseudo_semidegree,
        "delta": prof.min_semidegree,
        **fields,
    }


# ---------------------------------------------------------------------------
# trial workers (top level so they pickle for process pools)


def _sample(params: dict, trial: int) -> tuple[int, OrientedGraph]:
    """The trial's sub-seed and the graph its construction builds from it."""
    sub = derive_seed(params["seed"], trial)
    name, cparams = params["construction"]
    return sub, build_construction(name, cparams, params["n"], sub)


def _verify_trial(params: dict, trial: int) -> dict:
    k = params["k"]
    sub, g = _sample(params, trial)
    prof = g.degree_profile()
    if k % 2 == 1:
        shapes = [("any", None)]
    else:
        shapes = [("+", True), ("-", False)]
    results = []
    for label, flag in shapes:
        wit = oracle.contains_antipath_of_length(g, k, flag)
        results.append(
            {
                "start": label,
                "found": wit is not None,
                "witness": wit.serialize() if wit else None,
            }
        )
    ok = all(shape["found"] for shape in results)
    return _record(params["echo"], trial, sub, g, prof, k=k, shapes=results, ok=ok)


def _tightness_record(cfg: ExperimentConfig) -> dict:
    k = cfg.k
    assert k is not None
    g = cons.cycle_blowup(3, k // 2)
    prof = g.degree_profile()
    longest = oracle.longest_antipath(g)
    assert longest is not None
    ok = prof.min_pseudo_semidegree == k // 2 and longest.length == k - 1
    return _record(
        cfg.echo(), 0, None, g, prof,
        k=k,
        longest_len=longest.length,
        witness=longest.serialize(),
        checks={"expected_pd": k // 2, "expected_longest": k - 1},
        ok=ok,
    )


def _lemma_fields(g: OrientedGraph, k_min: int, k_max: int) -> dict:
    """The exhaustive-lemmas fields of g, each invariant under relabeling."""
    prof = g.degree_profile()
    pd = prof.min_pseudo_semidegree
    m, traversals = oracle.all_longest_antipaths(g)
    cycle_lengths = sorted(oracle.anticycle_lengths(g))

    # best off-path slack over forward-first longest traversals: the larger of
    # (in-neighbors of the second vertex outside the path) and (out-neighbors
    # of the penultimate vertex outside the path)
    out_m, in_m = g.adjacency_masks()
    slack = None
    for t in traversals:
        if not g.has_arc(t[0], t[1]):
            continue
        off_path = ~sum(1 << v for v in t)
        side = max(
            (in_m[t[1]] & off_path).bit_count(),
            (out_m[t[-2]] & off_path).bit_count(),
        )
        slack = side if slack is None else max(slack, side)

    violations = []
    # no check can fire once k > 2 * pd, where even the weak floor fails
    for k in range(k_min, min(k_max, 2 * pd) + 1):
        weak = 2 * pd >= k  # positive-degree floor at least k/2
        strong = 2 * pd > k
        if weak and m < k and m % 2 == 0:
            violations.append({"k": k, "check": "parity", "longest": m})
        if strong:
            for c in cycle_lengths:
                if c <= k and c > m:
                    violations.append(
                        {"k": k, "check": "cycle_promotion", "cycle_length": c}
                    )
        if weak and m < k:
            # some longest path must leave the required slack at an endpoint
            if slack is None or 2 * slack < 2 * pd - k:
                violations.append(
                    {"k": k, "check": "endpoint_slack", "slack": slack}
                )
    return {
        "pd": pd,
        "delta": prof.min_semidegree,
        "longest_len": m,
        "anticycle_lengths": cycle_lengths,
        "violations": violations,
        "ok": not violations,
    }


class _Record(dict):
    """A record that carries, in `line`, the JSON line `_ENCODER` writes for it.

    The line is built with the record, so it is read-only: a changed field
    would not show in the stream.
    """

    __slots__ = ("line",)


def _exhaustive_record(echo: dict, trial: int | str, graph: dict, fields: dict) -> dict:
    """The fields of an exhaustive-lemmas record, for its dict and its line."""
    return {
        "config": echo,
        "mode": "exhaustive-lemmas",
        "trial": trial,
        "sub_seed": None,
        "graph": graph,
        **fields,
    }


def _exhaustive_trial(params: dict, code: int) -> _Record:
    # in one process, records share the (u, v) pairs of the row table and the
    # lists of their class: read them only
    n, rows = params["n"], params["rows"]
    hi, lo = divmod(code, params["lo_count"])
    texts = []
    arcs: list[tuple[int, int]] = []
    arcs_json = []
    for row, lo_mask, hi_mask in zip(rows, params["lo_rows"][lo], params["hi_rows"][hi]):
        text, pairs, pairs_json = row[lo_mask | hi_mask]
        if pairs:
            texts.append(text)
            arcs += pairs
            arcs_json.append(pairs_json)
    graph_hash = _arcs_text_hash(n, ";".join(texts))
    fields, head, to_arcs, to_hash, to_trial, tail = params["classes"][params["class_of"][code]]
    graph = {"hash": graph_hash, "n": n, "arc_count": len(arcs), "arcs": arcs}
    record = _Record(_exhaustive_record(params["echo"], code, graph, fields))
    record.line = (
        f"{head}{len(arcs)}{to_arcs}{','.join(arcs_json)}{to_hash}{graph_hash}{to_trial}{code}{tail}"
    )
    return record


def _audit_trial(params: dict, trial: int) -> dict:
    k = params["k"]
    sub, g = _sample(params, trial)
    prof = g.degree_profile()
    pd = prof.min_pseudo_semidegree
    longest = oracle.longest_antipath(g)
    ok = True
    checks: dict = {}
    audit_dict = None
    m = None
    if longest is not None:
        m = longest.length
        if m % 2 == 1:
            report = audit_maximality(build_state(g, longest), k, pd)
            audit_dict = report.to_json_dict()
            if report.extension_openings:
                # an opening on an exact-search longest path is impossible
                ok = False
        else:
            checks["audit_skipped"] = "even-length longest path"
    short = pd >= params["floor"] and (m is None or m < k)
    checks["below_target_length"] = short
    return _record(
        params["echo"], trial, sub, g, prof,
        k=k,
        longest_len=m,
        witness=longest.serialize() if longest else None,
        audit=audit_dict,
        checks=checks,
        ok=ok and not short,
    )


def _search_record(cfg: ExperimentConfig) -> dict:
    assert cfg.input_path is not None
    g = read_edge_list(cfg.input_path)
    prof = g.degree_profile()
    longest = oracle.longest_antipath(g)
    heuristic = None
    if longest is not None:
        arcs = g.arcs()
        seed_path = validate_antipath(g, arcs[0])
        heuristic = improve(g, seed_path)
    if cfg.dot_path:
        highlight = witness_arcs(g, longest) if longest else []
        with open(cfg.dot_path, "w", encoding="utf-8") as fh:
            fh.write(to_dot(g, highlight))
    return _record(
        cfg.echo(), 0, None, g, prof,
        longest_len=longest.length if longest else None,
        witness=longest.serialize() if longest else None,
        heuristic_len=heuristic.length if heuristic else None,
        heuristic_witness=heuristic.serialize() if heuristic else None,
        agreement=(heuristic.length == longest.length) if longest else None,
        ok=heuristic.length <= longest.length if longest else True,
    )


# ---------------------------------------------------------------------------
# runners


def _map_trials(
    worker: Callable[[dict, int], dict], params: dict, count: int, jobs: int
) -> list[dict]:
    """Run trials 0..count-1, merged back in trial order.

    The pool starts every worker up front, so it gets no more workers than
    there are CPUs or trials, whatever jobs asks for.
    """
    workers = min(jobs, os.cpu_count() or 1, count)
    if workers <= 1:
        return [worker(params, t) for t in range(count)]
    from concurrent.futures import ProcessPoolExecutor  # here, so one-worker runs never load it
    chunk = max(1, count // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(partial(worker, params), range(count), chunksize=chunk))


def _run_sampled(cfg: ExperimentConfig, worker: Callable[[dict, int], dict]) -> list[dict]:
    """A verify-theorem or audit run: cfg.samples trials of worker."""
    floor = cons.integer_threshold(cfg.k)
    params = {
        "k": cfg.k,
        "n": cfg.n,
        "seed": cfg.seed,
        "floor": floor,
        # without a construction, trials sample at the degree floor
        "construction": (
            parse_construction(cfg.construction) if cfg.construction
            else ("random-min-pd", {"d": floor})
        ),
        "echo": cfg.echo(),
    }
    return _map_trials(worker, params, cfg.samples, cfg.jobs)


def run_exhaustive_lemmas(cfg: ExperimentConfig) -> list[dict]:
    n = cfg.n
    echo = cfg.echo()
    class_of, reps = oracle.isomorphism_classes(n)
    # code = lo + lo_count * hi, where lo holds the trits of the first h pairs
    # and hi the rest. The halves cover disjoint pairs, so the out-mask of u in
    # a code's graph is lo_rows[lo][u] | hi_rows[hi][u].
    pairs = n * (n - 1) // 2
    h = pairs // 2
    lo_count = 3**h
    heads = [[v for v in range(n) if mask >> v & 1] for mask in range(1 << n)]

    # A record's line is its class's text around the record's own values. That
    # text is cut from _ENCODER's text of a class record holding a placeholder
    # for each own value ("\0" occurs in no record), at each placeholder's text.
    own = ("arc_count", "arcs", "hash", "trial")  # in the order of their text
    hole = {key: "\0" + key for key in own}
    graph = {"hash": hole["hash"], "n": n, "arc_count": hole["arc_count"], "arcs": [hole["arcs"]]}
    marks = [_ENCODER.encode(hole[key]) for key in own]
    # the hash's quotes stay in the text: it is hex digits, which JSON keeps as is
    marks[2] = marks[2][1:-1]
    classes = []
    for rep in reps:
        fields = _lemma_fields(oracle.graph_from_code(n, rep), cfg.k_min, cfg.k_max)
        rest = _ENCODER.encode(_exhaustive_record(echo, hole["trial"], graph, fields))
        pieces = []
        for mark in marks:  # unpacking fails unless each mark occurs once, in order
            piece, rest = rest.split(mark)
            pieces.append(piece)
        classes.append((fields, *pieces, rest + "\n"))
    params = {
        "n": n,
        "echo": echo,
        "class_of": class_of,
        # per class: its lemma fields, then its line's text before the arc
        # count, before the arcs, before the hash, before the trial and after it
        "classes": classes,
        "lo_count": lo_count,
        "lo_rows": [
            oracle.graph_from_code(n, lo).adjacency_masks()[0] for lo in range(lo_count)
        ],
        "hi_rows": [
            oracle.graph_from_code(n, hi * lo_count).adjacency_masks()[0]
            for hi in range(3 ** (pairs - h))
        ],
        # rows[u][mask]: the arc text, the (u, v) pairs and their JSON (without
        # the list's brackets) of u's out-mask mask
        "rows": [
            [
                (
                    _arcs_text(out_arcs := [(u, v) for v in vs]),
                    out_arcs,
                    _ENCODER.encode(out_arcs)[1:-1],
                )
                for vs in heads
            ]
            for u in range(n)
        ],
    }
    return _map_trials(_exhaustive_trial, params, len(class_of), cfg.jobs)


_RUNNERS: dict[str, Callable[[ExperimentConfig], list[dict]]] = {
    "verify-theorem": lambda cfg: _run_sampled(cfg, _verify_trial),
    "tightness": lambda cfg: [_tightness_record(cfg)],
    "exhaustive-lemmas": run_exhaustive_lemmas,
    "audit": lambda cfg: _run_sampled(cfg, _audit_trial),
    "search": lambda cfg: [_search_record(cfg)],
}


def run(cfg: ExperimentConfig) -> list[dict]:
    cfg.validate()
    return _RUNNERS[cfg.mode](cfg)


# ---------------------------------------------------------------------------
# record serialization


# one encoder for every record and cell: json.dumps would build one per call
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def records_to_json_lines(records: Iterable[dict]) -> str:
    """One compact, key-sorted JSON line per record.

    A record that carries its line (a `_Record`) is written as that line;
    any other record is encoded here.
    """
    encode = _ENCODER.encode
    return "".join(getattr(r, "line", None) or encode(r) + "\n" for r in records)


def records_to_csv(records: list[dict]) -> str:
    """Same data as the JSON stream; every cell is compact JSON."""
    if not records:
        return ""
    columns = sorted({key for r in records for key in r})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    encode = _ENCODER.encode
    for r in records:
        writer.writerow([encode(r.get(c)) for c in columns])
    return buf.getvalue()


def records_from_csv(text: str) -> list[dict]:
    """Inverse of records_to_csv, for the format-parity contract."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return []
    header = rows[0]
    return [{c: json.loads(cell) for c, cell in zip(header, row)} for row in rows[1:]]


def serialize_records(records: list[dict], output_format: str) -> str:
    if output_format == "csv":
        return records_to_csv(records)
    return records_to_json_lines(records)


def execute(cfg: ExperimentConfig) -> int:
    """Run, write the stream, print a summary; exit-code semantics.

    Returns 0 when every record is ok, 1 otherwise. Config, input and
    generator problems raise, for the CLI to map to exit code 2.
    """
    started = time.monotonic()
    records = run(cfg)
    text = serialize_records(records, cfg.output_format)
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    failures = sum(1 for r in records if not r["ok"])
    elapsed = time.monotonic() - started
    print(
        f"{cfg.mode}: {len(records)} records, {failures} failures, {elapsed:.1f}s",
        file=sys.stderr,
    )
    return 0 if failures == 0 else 1

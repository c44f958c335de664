"""Command-line front end.

Five subcommands, one per campaign mode. Exit codes: 0 all records ok,
1 at least one verification failure, 2 config or input error (including an
unreadable input file, a generator that cannot reach the degree floor, an
input whose antipaths are too long for the recursive exact search and a
vertex count too large to hold in memory).

Flags have no defaults here: each sets the `ExperimentConfig` field it is
named after, which holds the default.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from .constructions import AttemptsExhaustedError
from .graphs import EdgeListParseError
from .harness import ConfigError, ExperimentConfig, execute
from .oracle import CapExceededError


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), dest="output_format",
                   help="record stream format (default json)")
    p.add_argument("--out", metavar="PATH", dest="output_path",
                   help="write records here instead of stdout")
    p.add_argument("--jobs", type=int, metavar="N",
                   help="worker processes; records are identical for any N")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antipaths",
        description="Alternating-path search and verification campaigns on oriented graphs.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    add_mode = partial(sub.add_parser, argument_default=argparse.SUPPRESS)

    p = add_mode(
        "verify-theorem",
        help="sample graphs at the degree floor and demand every shape of length k",
    )
    p.add_argument("--k", type=int, required=True, help="target path length (>= 4)")
    p.add_argument("--n", type=int, help="vertex count (default 2k+2)")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    _add_output_flags(p)

    p = add_mode(
        "tightness",
        help="rebuild the extremal blow-up for even k and confirm its longest path",
    )
    p.add_argument("--k", type=int, required=True, help="target length (even, >= 4)")
    _add_output_flags(p)

    p = add_mode(
        "exhaustive-lemmas",
        help="check the supporting statements over every labeled graph on n <= 5 vertices",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k-min", type=int, dest="k_min")
    p.add_argument("--k-max", type=int, dest="k_max")
    _add_output_flags(p)

    p = add_mode(
        "audit",
        help="audit the structure of exact longest paths on sampled graphs",
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, help="vertex count (default 2k+2)")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--construction",
        metavar="NAME:PARAMS",
        help="generator override, e.g. cycle-blowup:ell=3,b=2 | random:p=0.5 | random-min-pd:d=3",
    )
    _add_output_flags(p)

    p = add_mode("search", help="exact and heuristic search on an edge-list file")
    p.add_argument("--input", required=True, metavar="PATH", dest="input_path",
                   help="edge list: first line 'n m', then m lines 'u v'")
    p.add_argument("--dot", metavar="PATH", dest="dot_path",
                   help="write a DOT rendering with the longest path highlighted")
    _add_output_flags(p)

    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(**vars(args))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = config_from_args(args)
    try:
        return execute(cfg)
    except (
        ConfigError,
        CapExceededError,
        EdgeListParseError,
        AttemptsExhaustedError,
        OSError,
        UnicodeDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # the exact walker recurses once per placed path vertex
        print(
            f"error: an exact search went deeper than Python's recursion limit of "
            f"{sys.getrecursionlimit()} frames; antipaths of more than about that "
            f"many arcs cannot be searched",
            file=sys.stderr,
        )
        return 2
    except (MemoryError, OverflowError):  # MemoryError carries no message to print
        print("error: the graph has too many vertices to hold in memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Five subcommands, one per campaign mode. Exit codes: 0 all records ok,
1 at least one verification failure, 2 config or input error (including an
unreadable input file, a generator that cannot reach the degree floor and an
input whose antipaths are too long for the recursive exact search).
"""

from __future__ import annotations

import argparse
import sys

from .constructions import AttemptsExhaustedError
from .graphs import EdgeListParseError
from .harness import ConfigError, ExperimentConfig, execute
from .oracle import CapExceededError


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="record stream format (default json)")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write records here instead of stdout")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes; records are identical for any N")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antipaths",
        description="Alternating-path search and verification campaigns on oriented graphs.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    p = sub.add_parser(
        "verify-theorem",
        help="sample graphs at the degree floor and demand every shape of length k",
    )
    p.add_argument("--k", type=int, required=True, help="target path length (>= 4)")
    p.add_argument("--n", type=int, default=None, help="vertex count (default 2k+2)")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    _add_output_flags(p)

    p = sub.add_parser(
        "tightness",
        help="rebuild the extremal blow-up for even k and confirm its longest path",
    )
    p.add_argument("--k", type=int, required=True, help="target length (even, >= 4)")
    _add_output_flags(p)

    p = sub.add_parser(
        "exhaustive-lemmas",
        help="check the supporting statements over every labeled graph on n <= 5 vertices",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k-min", type=int, default=4, dest="k_min")
    p.add_argument("--k-max", type=int, default=10, dest="k_max")
    _add_output_flags(p)

    p = sub.add_parser(
        "audit",
        help="audit the structure of exact longest paths on sampled graphs",
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, default=None, help="vertex count (default 2k+2)")
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--construction",
        default=None,
        metavar="NAME:PARAMS",
        help="generator override, e.g. cycle-blowup:ell=3,b=2 | random:p=0.5 | random-min-pd:d=3",
    )
    _add_output_flags(p)

    p = sub.add_parser("search", help="exact and heuristic search on an edge-list file")
    p.add_argument("--input", required=True, metavar="PATH",
                   help="edge list: first line 'n m', then m lines 'u v'")
    p.add_argument("--dot", default=None, metavar="PATH", dest="dot_path",
                   help="write a DOT rendering with the longest path highlighted")
    _add_output_flags(p)

    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        mode=args.mode,
        k=getattr(args, "k", None),
        n=getattr(args, "n", None),
        samples=getattr(args, "samples", None),
        seed=getattr(args, "seed", 0),
        k_min=getattr(args, "k_min", 4),
        k_max=getattr(args, "k_max", 10),
        construction=getattr(args, "construction", None),
        input_path=getattr(args, "input", None),
        output_format=args.format,
        output_path=args.out,
        dot_path=getattr(args, "dot_path", None),
        jobs=args.jobs,
    )


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


if __name__ == "__main__":
    sys.exit(main())

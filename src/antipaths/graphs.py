"""Loop-free oriented graphs with two-directional adjacency and degree statistics.

An oriented graph carries at most one arc per unordered vertex pair: no loops,
no 2-cycles. Vertices are dense integers 0..n-1, and the out- and
in-neighborhood of every vertex are each stored as one bitmask int (bit w set
means w is a neighbor). Those masks are the only adjacency representation:
membership is a shift, degrees are bit counts, and the exact search in
`oracle` walks the stored masks directly.

Graphs are built by arc insertion, or all at once from finished mask lists
by the private `OrientedGraph._from_masks` (the random generator and
`reverse` use it), and treated as immutable afterwards; every search routine
in this package only reads them.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass


class GraphError(ValueError):
    """Base class for arc-insertion and format violations."""


class SelfLoopError(GraphError):
    """Raised when an arc would connect a vertex to itself."""


class DuplicateArcError(GraphError):
    """Raised when the exact same arc is inserted twice."""


class AntiparallelArcError(GraphError):
    """Raised when inserting (u, v) while (v, u) is present.

    A 2-cycle would silently break every degree-threshold statement downstream,
    so this is a hard error rather than a skip.
    """


class EdgeListParseError(GraphError):
    """Malformed edge-list input; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class DegreeProfile:
    """Per-vertex degrees plus the two minimum-degree statistics.

    min_semidegree is the minimum over all vertices of min(in-degree,
    out-degree). min_pseudo_semidegree is 0 for an arcless graph, otherwise the
    largest d such that every vertex has out-degree 0 or >= d and in-degree 0
    or >= d; equivalently the smallest positive degree appearing anywhere.
    """

    in_degrees: tuple[int, ...]
    out_degrees: tuple[int, ...]
    min_semidegree: int
    min_pseudo_semidegree: int


class OrientedGraph:
    """A digraph with no loops and at most one arc per unordered pair."""

    __slots__ = ("n", "_out", "_in", "_arc_count")

    def __init__(self, n: int):
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        self.n = n
        self._out: list[int] = [0] * n
        self._in: list[int] = [0] * n
        self._arc_count = 0

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable[tuple[int, int]]) -> "OrientedGraph":
        g = cls(n)
        for u, v in arcs:
            g.add_arc(u, v)
        return g

    @classmethod
    def _from_masks(cls, out: list[int], in_: list[int]) -> "OrientedGraph":
        """The graph whose out- and in-mask lists are out and in_, taken as its own.

        Nothing is checked: callers must pass the masks of an oriented graph
        (no loops, no 2-cycles, in_ the transpose of out) and not keep them.
        """
        g = cls.__new__(cls)
        g.n = len(out)
        g._out = out
        g._in = in_
        g._arc_count = sum([m.bit_count() for m in out])
        return g

    @property
    def arc_count(self) -> int:
        return self._arc_count

    def add_arc(self, u: int, v: int) -> None:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"arc ({u}, {v}) out of range for n={self.n}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if self._out[u] >> v & 1:
            raise DuplicateArcError(f"arc ({u}, {v}) already present")
        if self._out[v] >> u & 1:
            raise AntiparallelArcError(f"arc ({v}, {u}) present; ({u}, {v}) would form a 2-cycle")
        self._out[u] |= 1 << v
        self._in[v] |= 1 << u
        self._arc_count += 1

    def has_arc(self, u: int, v: int) -> bool:
        # total on any ints: a negative v would be a negative shift count
        return 0 <= u < self.n and v >= 0 and self._out[u] >> v & 1 == 1

    def out_neighbors(self, v: int) -> frozenset[int]:
        return frozenset(_bits(self._out[v]))

    def in_neighbors(self, v: int) -> frozenset[int]:
        return frozenset(_bits(self._in[v]))

    def out_degree(self, v: int) -> int:
        return self._out[v].bit_count()

    def in_degree(self, v: int) -> int:
        return self._in[v].bit_count()

    def arcs(self) -> list[tuple[int, int]]:
        """All arcs, sorted, so iteration order is deterministic."""
        arcs = []
        for u, mask in enumerate(self._out):
            while mask:  # lowest bit first, so each row comes out sorted
                low = mask & -mask
                arcs.append((u, low.bit_length() - 1))
                mask ^= low
        return arcs

    def reverse(self) -> "OrientedGraph":
        """The graph with every arc flipped. An involution."""
        return OrientedGraph._from_masks(self._in.copy(), self._out.copy())

    def degree_profile(self) -> DegreeProfile:
        """Always recomputed from the adjacency masks, never patched."""
        # lists, not generators: tuple(genexpr) raised peak RSS by ~0.9 MB
        # over a few thousand calls on the blow-ups
        ins = tuple([m.bit_count() for m in self._in])
        outs = tuple([m.bit_count() for m in self._out])
        if self.n == 0:
            return DegreeProfile((), (), 0, 0)
        delta = min(min(i, o) for i, o in zip(ins, outs))
        positive = [d for d in ins + outs if d > 0]
        pd = min(positive) if positive else 0
        return DegreeProfile(ins, outs, delta, pd)

    def adjacency_masks(self) -> tuple[list[int], list[int]]:
        """(out_masks, in_masks): the stored bitmask lists themselves.

        No copy is made, so callers must only read them.
        """
        return self._out, self._in

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrientedGraph):
            return NotImplemented
        return self.n == other.n and self._out == other._out

    def __repr__(self) -> str:
        return f"OrientedGraph(n={self.n}, arcs={self._arc_count})"


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def relabel(g: OrientedGraph, perm: Sequence[int]) -> OrientedGraph:
    """Apply a vertex permutation: arc (u, v) becomes (perm[u], perm[v])."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    return OrientedGraph.from_arcs(g.n, ((perm[u], perm[v]) for u, v in g.arcs()))


def graph_hash(g: OrientedGraph) -> str:
    """Stable 64-bit hash (16 hex chars) over the sorted arc list."""
    return _arcs_hash(g.n, g.arcs())


def _arcs_hash(n: int, arcs: list[tuple[int, int]]) -> str:
    """graph_hash of the graph on n vertices whose sorted arc list is arcs."""
    return _arcs_text_hash(n, _arcs_text(arcs))


def _arcs_text(arcs: Iterable[tuple[int, int]]) -> str:
    """The hashed text "u,v;u,v;..." of an arc list.

    The texts of consecutive non-empty runs of a list, joined with ";", give
    the text of the whole list.
    """
    return ";".join(f"{u},{v}" for u, v in arcs)


def _arcs_text_hash(n: int, text: str) -> str:
    """_arcs_hash from the _arcs_text of the sorted arc list."""
    return hashlib.sha256(f"{n}|{text}".encode()).hexdigest()[:16]


def parse_edge_list(text: str) -> OrientedGraph:
    """Parse the plain edge-list format.

    First line "n m", then m lines "u v" each meaning the arc u -> v,
    0-indexed. Raises EdgeListParseError with the offending line number.
    """
    lines = text.split("\n")
    # trailing blank lines are tolerated; anything else must parse
    while lines and lines[-1].strip() == "":
        lines.pop()
    if not lines:
        raise EdgeListParseError(1, "empty input, expected header 'n m'")
    header = lines[0].split()
    if len(header) != 2:
        raise EdgeListParseError(1, f"expected 'n m', got {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise EdgeListParseError(1, f"expected two integers, got {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise EdgeListParseError(1, f"n and m must be >= 0, got n={n} m={m}")
    if len(lines) - 1 > m:
        raise EdgeListParseError(m + 2, f"unexpected line after the {m} promised arcs")
    if len(lines) - 1 < m:
        raise EdgeListParseError(
            len(lines) + 1, f"header promises {m} arcs but found {len(lines) - 1}"
        )
    g = OrientedGraph(n)
    for idx, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(idx, f"expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(idx, f"expected two integers, got {line!r}") from None
        try:
            g.add_arc(u, v)
        except ValueError as exc:  # covers range errors and the arc invariants
            raise EdgeListParseError(idx, str(exc)) from None
    return g


def read_edge_list(path: str) -> OrientedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def format_edge_list(g: OrientedGraph) -> str:
    """Inverse of parse_edge_list: sorted arcs, LF line endings."""
    lines = [f"{g.n} {g.arc_count}"]
    lines.extend(f"{u} {v}" for u, v in g.arcs())
    return "\n".join(lines) + "\n"


def to_dot(g: OrientedGraph, highlight: Iterable[tuple[int, int]] = ()) -> str:
    """DOT export with one edge statement per arc.

    Arcs listed in `highlight` are drawn red and thick; isolated vertices get
    explicit node statements so they stay visible.
    """
    hot = set(highlight)
    lines = ["digraph G {"]
    for v in range(g.n):
        lines.append(f"  {v};")
    for u, v in g.arcs():
        if (u, v) in hot:
            lines.append(f"  {u} -> {v} [color=red, penwidth=2.0];")
        else:
            lines.append(f"  {u} -> {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def enumerate_pairs(n: int) -> Iterator[tuple[int, int]]:
    """Unordered vertex pairs (u, v), u < v, in lexicographic order."""
    for u in range(n):
        for v in range(u + 1, n):
            yield u, v

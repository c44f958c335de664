"""Alternating-path and alternating-cycle witnesses.

A witness is a bare vertex sequence (plus a start-direction flag for paths);
arc directions are always re-derived from the host graph at validation time,
so a witness can never drift out of sync with the graph it certifies.

In an antidirected path every vertex has, within the path, in-degree 0 or
out-degree 0: arc directions alternate along the sequence. The cyclic
analogue forces even length, which is why odd cyclic sequences are always
rejected by the alternation checks rather than by an explicit parity test.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .graphs import OrientedGraph


class WitnessError(ValueError):
    """Base class for sequence-validation failures."""


class RepeatedVertexError(WitnessError):
    def __init__(self, vertex: int):
        super().__init__(f"vertex {vertex} repeated in sequence")
        self.vertex = vertex


class NotAdjacentError(WitnessError):
    """No arc in either direction between positions i and i+1."""

    def __init__(self, index: int, u: int, v: int):
        super().__init__(f"no arc between positions {index} and {index + 1} ({u}, {v})")
        self.index = index


class AlternationBrokenError(WitnessError):
    """Two consecutive arcs share direction at the vertex at this index."""

    def __init__(self, index: int):
        super().__init__(f"alternation broken at position {index}")
        self.index = index


class WrapAlternationBrokenError(WitnessError):
    """The wrap-around pair of a cyclic sequence breaks alternation."""

    def __init__(self) -> None:
        super().__init__("alternation broken at the wrap-around pair")


@dataclass(frozen=True)
class AntipathWitness:
    """Distinct vertices v0..vm plus whether the first arc runs v0 -> v1.

    Length is the number of arcs, m = len(vertices) - 1 >= 1. A single vertex
    is not a path here; every statement this package checks concerns length
    at least 1.
    """

    vertices: tuple[int, ...]
    start_forward: bool

    def __post_init__(self) -> None:
        if len(self.vertices) < 2:
            raise WitnessError("an antipath needs at least 2 vertices")
        if len(set(self.vertices)) != len(self.vertices):
            raise WitnessError("antipath vertices must be distinct")

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    def reversed_(self) -> "AntipathWitness":
        """The same path traversed from the other end.

        For odd length the start flag flips; for even length both traversals
        start with the same arc direction (the two even shapes).
        """
        flag = self.start_forward if self.length % 2 == 0 else not self.start_forward
        return AntipathWitness(tuple(reversed(self.vertices)), flag)

    def serialize(self) -> str:
        verts = " ".join(str(v) for v in self.vertices)
        return f"antipath: {verts} dir={'+' if self.start_forward else '-'}"


@dataclass(frozen=True)
class AnticycleWitness:
    """Cyclic sequence of distinct vertices; alternation forces even length >= 4."""

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) < 4:
            raise WitnessError("an anticycle needs at least 4 vertices")
        if len(self.vertices) % 2 != 0:
            raise WitnessError("an anticycle has even length")
        if len(set(self.vertices)) != len(self.vertices):
            raise WitnessError("anticycle vertices must be distinct")

    @property
    def length(self) -> int:
        return len(self.vertices)

    def serialize(self) -> str:
        return "anticycle: " + " ".join(str(v) for v in self.vertices)


def _pair_forward(g: OrientedGraph, a: int, b: int, index: int) -> bool:
    """True if the arc between consecutive vertices a, b runs a -> b.

    At most one direction can be present (oriented-graph invariant), so the
    answer is unambiguous.
    """
    if g.has_arc(a, b):
        return True
    if g.has_arc(b, a):
        return False
    raise NotAdjacentError(index, a, b)


def validate_antipath(g: OrientedGraph, seq: Sequence[int]) -> AntipathWitness:
    """Check seq against g and return a witness, or raise a WitnessError.

    Checks, in order: distinctness, adjacency of each consecutive pair,
    and direction alternation. The alternation error reports the index of
    the vertex where two arcs share direction.
    """
    if len(seq) < 2:
        raise WitnessError("an antipath needs at least 2 vertices")
    seen: set[int] = set()
    for v in seq:
        if v in seen:
            raise RepeatedVertexError(v)
        seen.add(v)
    flags = [_pair_forward(g, seq[i], seq[i + 1], i) for i in range(len(seq) - 1)]
    for j in range(1, len(flags)):
        if flags[j] == flags[j - 1]:
            raise AlternationBrokenError(j)
    return AntipathWitness(tuple(seq), flags[0])


def validate_anticycle(g: OrientedGraph, seq: Sequence[int]) -> AnticycleWitness:
    """Cyclic validation; even length falls out of alternation, it is not assumed."""
    if len(seq) < 4:
        raise WitnessError("an anticycle needs at least 4 vertices")
    seen: set[int] = set()
    for v in seq:
        if v in seen:
            raise RepeatedVertexError(v)
        seen.add(v)
    length = len(seq)
    flags = [_pair_forward(g, seq[j], seq[(j + 1) % length], j) for j in range(length)]
    for j in range(1, length):
        if flags[j] == flags[j - 1]:
            raise AlternationBrokenError(j)
    if flags[0] == flags[length - 1]:
        raise WrapAlternationBrokenError()
    # alternation around a cycle is a proper 2-coloring, so length is even
    assert length % 2 == 0
    return AnticycleWitness(tuple(seq))


def antipath_shapes(k: int) -> int:
    """Number of non-isomorphic alternating orientations of a length-k path.

    One for odd k; two for even k (both endpoints emitting vs both
    absorbing).
    """
    if k < 1:
        raise ValueError(f"length must be >= 1, got {k}")
    return 1 if k % 2 == 1 else 2


def witness_arcs(g: OrientedGraph, witness: AntipathWitness) -> list[tuple[int, int]]:
    """The actual host arcs traversed by the witness, in path order."""
    out = []
    vs = witness.vertices
    for i in range(len(vs) - 1):
        a, b = vs[i], vs[i + 1]
        out.append((a, b) if g.has_arc(a, b) else (b, a))
    return out

"""Shared test helpers: graph strategies and independent brute-force oracles.

The brute-force functions deliberately share no code with the package's
search routines: they enumerate raw vertex permutations and push each through
the validators, so they can serve as ground truth for the searchers.
"""

from __future__ import annotations

import itertools

from hypothesis import strategies as st

from antipaths import (
    AntipathWitness,
    OrientedGraph,
    WitnessError,
    validate_anticycle,
    validate_antipath,
)
from antipaths.graphs import enumerate_pairs


def graph_from_trits(n: int, trits: list[int]) -> OrientedGraph:
    g = OrientedGraph(n)
    for (u, v), r in zip(enumerate_pairs(n), trits):
        if r == 1:
            g.add_arc(u, v)
        elif r == 2:
            g.add_arc(v, u)
    return g


@st.composite
def oriented_graphs(draw, min_n: int = 2, max_n: int = 6) -> OrientedGraph:
    n = draw(st.integers(min_n, max_n))
    npairs = n * (n - 1) // 2
    trits = draw(st.lists(st.integers(0, 2), min_size=npairs, max_size=npairs))
    return graph_from_trits(n, trits)


def brute_antipaths(g: OrientedGraph, k: int) -> list[AntipathWitness]:
    """Every antipath of length k, one per traversal, by checking every vertex
    permutation; in lexicographic order of the vertex sequence."""
    found = []
    for seq in itertools.permutations(range(g.n), k + 1):
        try:
            found.append(validate_antipath(g, seq))
        except WitnessError:
            continue
    return found


def brute_longest_antipath_len(g: OrientedGraph) -> int:
    """Maximum alternating-path length; 0 for an arcless graph."""
    return max((k for k in range(1, g.n) if brute_antipaths(g, k)), default=0)


def brute_first_anticycles(g: OrientedGraph) -> dict[int, tuple[int, ...]]:
    """For each alternating-cycle length, the least cycle of that length.

    Raw permutations that start at their least vertex and pass the validator
    are compared under the key (first vertex, whether the first arc enters the
    first vertex, the rest of the sequence): forward-first traversals come
    before backward-first ones from the same start.
    """
    first: dict[int, tuple[int, ...]] = {}
    for size in range(4, g.n + 1, 2):
        cycles = []
        for s in range(g.n):
            for rest in itertools.permutations(range(s + 1, g.n), size - 1):
                try:
                    cycles.append(validate_anticycle(g, (s, *rest)).vertices)
                except WitnessError:
                    continue
        if cycles:
            first[size] = min(
                cycles, key=lambda seq: (seq[0], not g.has_arc(seq[0], seq[1]), seq[1:])
            )
    return first

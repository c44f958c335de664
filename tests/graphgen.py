"""Shared test helpers: graph strategies, independent brute-force oracles and
a reference random generator.

The brute-force functions deliberately share no code with the package's
search routines: they enumerate raw vertex permutations and push each through
the validators, so they can serve as ground truth for the searchers.

The reference generator is the arc-by-arc form of the package's random
constructions: every arc through `add_arc`, neighborhoods as frozensets and
the repair's free vertices as a sorted list. It shares no code with
`antipaths.constructions`, so the package's mask-level generator can be held
to the same draws and the same graphs.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import strategies as st

from antipaths import (
    AntipathWitness,
    AttemptsExhaustedError,
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


def ref_random_oriented_graph(n: int, p: float, seed: int) -> OrientedGraph:
    """Each unordered pair gets an arc with probability p, orientation uniform."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")
    rng = random.Random(seed)
    g = OrientedGraph(n)
    for u, v in enumerate_pairs(n):
        if rng.random() < p:
            if rng.random() < 0.5:
                g.add_arc(u, v)
            else:
                g.add_arc(v, u)
    return g


def ref_random_with_min_pd(
    n: int, d: int, seed: int, max_attempts: int = 64
) -> OrientedGraph:
    """A graph whose every positive degree is at least d, by densify-and-repair."""
    if d < 1:
        raise ValueError(f"degree target must be >= 1, got {d}")
    if n < 2 * d + 1:
        raise ValueError(f"need n >= 2d+1 = {2 * d + 1} vertices, got {n}")
    rng = random.Random(seed)
    base_p = min(1.0, 2.0 * (d + 1) / (n - 1))
    for attempt in range(max_attempts):
        p = min(1.0, base_p + 0.05 * attempt)
        g = ref_random_oriented_graph(n, p, rng.randrange(2**63))
        if _ref_repair_pd(g, d, rng) and g.degree_profile().min_pseudo_semidegree >= d:
            return g
    raise AttemptsExhaustedError(
        f"could not reach positive-degree floor {d} on {n} vertices "
        f"in {max_attempts} attempts"
    )


def _ref_repair_pd(g: OrientedGraph, d: int, rng: random.Random) -> bool:
    """Add arcs until no vertex has a positive degree below d. False if stuck."""
    while True:
        deficient = None
        for v in range(g.n):
            if 0 < g.out_degree(v) < d:
                deficient = (v, True)
                break
            if 0 < g.in_degree(v) < d:
                deficient = (v, False)
                break
        if deficient is None:
            return True
        v, out_side = deficient
        linked = g.out_neighbors(v) | g.in_neighbors(v)
        free = [w for w in range(g.n) if w != v and w not in linked]
        if not free:
            return False
        w = free[rng.randrange(len(free))]
        if out_side:
            g.add_arc(v, w)
        else:
            g.add_arc(w, v)

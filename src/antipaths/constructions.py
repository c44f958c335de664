"""Instance generators and the degree-threshold arithmetic.

Random generation uses Python's random.Random (MT19937), which is stable
across platforms and versions, with a documented draw order, so any (seed,
parameters) pair reproduces the same graph everywhere. See README for the
exact draw sequence.
"""

from __future__ import annotations

import math
import random

from .graphs import OrientedGraph


class AttemptsExhaustedError(RuntimeError):
    """Densification failed to reach the requested degree floor."""


def cycle_blowup(ell: int, b: int) -> OrientedGraph:
    """Blow-up of a directed ell-cycle with b independent vertices per blob.

    Blob j holds vertices [j*b, (j+1)*b); all b*b arcs run from blob j to
    blob j+1 (mod ell). Every vertex ends up with in- and out-degree exactly
    b, so both degree statistics equal b. The family is extremal: its longest
    alternating path stops one arc short of twice the blob size.
    """
    if ell < 3:
        raise ValueError(f"cycle length must be >= 3 (2 would create 2-cycles), got {ell}")
    if b < 1:
        raise ValueError(f"blob size must be >= 1, got {b}")
    g = OrientedGraph(ell * b)
    for j in range(ell):
        nxt = (j + 1) % ell
        for u in range(j * b, (j + 1) * b):
            for v in range(nxt * b, (nxt + 1) * b):
                g.add_arc(u, v)
    return g


def threshold(k: int) -> float:
    """The real degree bound (k - 1 + sqrt(k - 3)) / 2 for target length k."""
    if k < 4:
        raise ValueError(f"threshold is defined for k >= 4, got {k}")
    return (k - 1 + math.sqrt(k - 3)) / 2.0


def integer_threshold(k: int) -> int:
    """Smallest integer strictly above threshold(k), in exact arithmetic.

    d > (k - 1 + sqrt(k - 3)) / 2 is equivalent to t = 2d - k + 1 > 0 and
    t*t > k - 3, which avoids any floating-point edge case at perfect
    squares.
    """
    if k < 4:
        raise ValueError(f"threshold is defined for k >= 4, got {k}")
    d = (k - 1) // 2
    while True:
        t = 2 * d - k + 1
        if t > 0 and t * t > k - 3:
            return d
        d += 1


def random_oriented_graph(n: int, p: float, seed: int) -> OrientedGraph:
    """Each unordered pair gets an arc with probability p, orientation uniform.

    Draw order (the reproducibility contract): pairs (u, v) with u < v in
    lexicographic order; one float per pair decides presence, and a second
    float (drawn only when present) picks u->v on < 0.5, else v->u.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")
    draw = random.Random(seed).random
    out = [0] * n
    in_ = [0] * n
    bits = [1 << v for v in range(n)]
    for u in range(n):
        # row u's own bits gather in locals; pairs (w, u), w < u, are already in
        out_u = in_u = 0
        bit_u = bits[u]
        for v in range(u + 1, n):
            if draw() < p:
                if draw() < 0.5:
                    out_u |= bits[v]
                    in_[v] |= bit_u
                else:
                    in_u |= bits[v]
                    out[v] |= bit_u
        out[u] |= out_u
        in_[u] |= in_u
    return OrientedGraph._from_masks(out, in_)


# densities tried by random_with_min_pd before AttemptsExhaustedError
MAX_ATTEMPTS = 64


def random_with_min_pd(n: int, d: int, seed: int) -> OrientedGraph:
    """A random-looking graph whose every positive degree is at least d.

    Strategy: sample random_oriented_graph at escalating densities; then
    greedily repair, giving any vertex with 0 < out-degree < d extra out-arcs
    to uniformly chosen non-adjacent vertices (symmetrically for in-degree).
    Repair targets the positive-degree floor rather than the plain minimum
    degree, so zero-degree sides are left alone. Deterministic given seed.
    """
    if d < 1:
        raise ValueError(f"degree target must be >= 1, got {d}")
    if n < 2 * d + 1:
        raise ValueError(f"need n >= 2d+1 = {2 * d + 1} vertices, got {n}")
    rng = random.Random(seed)
    base_p = min(1.0, 2.0 * (d + 1) / (n - 1))
    for attempt in range(MAX_ATTEMPTS):
        p = min(1.0, base_p + 0.05 * attempt)
        g = random_oriented_graph(n, p, rng.randrange(2**63))
        # after a repair every positive degree is >= d, so pd < d means no arcs
        if _repair_pd(g, d, rng) and g.arc_count > 0:
            return g
    raise AttemptsExhaustedError(
        f"could not reach positive-degree floor {d} on {n} vertices "
        f"in {MAX_ATTEMPTS} attempts"
    )


def _repair_pd(g: OrientedGraph, d: int, rng: random.Random) -> bool:
    """Add arcs until no vertex has a positive degree below d. False if stuck.

    Each step repairs the least deficient vertex v, its out-side first, with
    an arc to a vertex w drawn uniformly from v's non-neighbors in increasing
    order. Only v and w change, so the next scan starts at min(v, w).
    """
    out, in_ = g.adjacency_masks()
    full = (1 << g.n) - 1
    v = 0
    while True:
        for v in range(v, g.n):
            if 0 < out[v].bit_count() < d:
                out_side = True
                break
            if 0 < in_[v].bit_count() < d:
                out_side = False
                break
        else:
            return True
        free = full & ~(out[v] | in_[v] | 1 << v)
        if not free:
            return False
        for _ in range(rng.randrange(free.bit_count())):
            free &= free - 1  # drop the lowest set bit
        w = (free & -free).bit_length() - 1
        if out_side:
            g.add_arc(v, w)
        else:
            g.add_arc(w, v)
        v = min(v, w)

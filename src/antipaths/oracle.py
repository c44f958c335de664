"""Exact ground-truth search for alternating paths and cycles.

Everything here is exhaustive backtracking over partial alternating
sequences, reading the graph's stored out/in bitmasks. Because directions must
alternate, a partial path forces which adjacency direction can extend it,
which halves the branching factor compared to generic longest-path search.

These searches are the reference the heuristic engine is checked against, so
they favor obvious correctness over cleverness. Every path query is answered
by one walker, `_antipaths`. It searches up to a length cap and stops at the
first path that reaches the cap, unless it is asked for every tie; the
longest-path query caps at n - 1, the fixed-length queries at k. At each node
it bounds what the path can still gain by the unvisited vertices that
alternating walks from the endpoint reach through unvisited vertices
(reachability in the split bipartite graph B(D)). A subtree is cut when that
bound cannot beat the best length found so far, or, when every tie is asked
for, only when it cannot even match it. The cut subtrees hold no path that
would be recorded, so answers and their order are those of the full walk.
Every cycle query reads one walk, `_anticycles`, which records the first
cycle of each even length and cuts a subtree when no length still missing
fits in the vertices still available.

Exhaustive checks enumerate labeled graphs by base-3 code. Every lemma they
check is invariant under relabeling, so `isomorphism_classes` maps each code
to its isomorphism class, and the searches run once per class representative.

Determinism contract: starts are tried in increasing vertex order and
candidates in increasing bit order, so the returned witness is the
lexicographically least vertex sequence among those of maximum length. A
cycle witness starts at its least vertex s and is the least of its length
under the key (s, whether the first arc enters s, the rest of the sequence).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from .graphs import OrientedGraph, enumerate_pairs
from .witnesses import (
    AnticycleWitness,
    AntipathWitness,
    validate_antipath,
    validate_anticycle,
)

# labeled enumeration visits 3^(n choose 2) graphs: 59,049 at n=5, 14.3M at n=6
ENUMERATION_CAP = 5


class CapExceededError(ValueError):
    """Enumeration request beyond ENUMERATION_CAP vertices."""


def _reaches(
    out_m: list[int], in_m: list[int], first: int, first_by_out: bool, free: int, need: int
) -> bool:
    """Whether alternating walks reach at least need vertices beyond their end.

    first holds the vertices one arc from the walks' end, fewer than need of
    them, entered by an out-arc of the end when first_by_out, else by an
    in-arc; every later vertex must be in free. This is reachability in the split bipartite graph
    B(D), where arc u -> v becomes edge u+ v-: one frontier holds the vertices
    whose next arc leaves them, the other those whose next arc enters them.
    The search stops as soon as need vertices are reached.
    """
    seen_out, seen_in = (0, first) if first_by_out else (first, 0)
    front_out, front_in = seen_out, seen_in
    while True:
        new_in = 0
        while front_out:
            low = front_out & -front_out
            front_out ^= low
            new_in |= out_m[low.bit_length() - 1]
        new_out = 0
        while front_in:
            low = front_in & -front_in
            front_in ^= low
            new_out |= in_m[low.bit_length() - 1]
        front_in = new_in & free & ~seen_in
        front_out = new_out & free & ~seen_out
        if not (front_in or front_out):
            return False
        seen_in |= front_in
        seen_out |= front_out
        if (seen_out | seen_in).bit_count() >= need:
            return True


def _antipaths(
    g: OrientedGraph, cap: int, start_forward: bool | None = None, ties: bool = False
) -> tuple[int, list[tuple[int, ...]]]:
    """(best_len, seqs): the longest alternating paths of length at most cap.

    Sequences are visited in lexicographic order. Without ties, seqs holds
    only the first sequence of maximum length and the walk stops at the first
    one of length cap; with ties, seqs holds every sequence of maximum length,
    in order. start_forward, when given, pins the direction of the first arc.
    An arcless graph gives (0, []).
    """
    out_m, in_m = g.adjacency_masks()
    best_len = 0
    found: list[tuple[int, ...]] = []
    seq = [0] * (cap + 1)

    def place(bit: int, depth: int, visited: int, forward_next: bool) -> bool:
        # puts the vertex of bit at seq[depth] and walks on; True stops the walk
        nonlocal best_len, found
        w = bit.bit_length() - 1
        seq[depth] = w
        if depth > best_len:
            best_len = depth
            found = [tuple(seq[: depth + 1])]
            if depth == cap and not ties:
                return True
        elif ties and depth == best_len:
            found.append(tuple(seq[: depth + 1]))
        if depth == cap:
            return False
        visited |= bit
        cand = (out_m[w] if forward_next else in_m[w]) & ~visited
        # a path through here beats best_len (with ties: matches it) only if
        # need more vertices are reachable. Each candidate is one of them, so
        # the BFS runs only when they are too few, and not for a single
        # candidate, whose own check one level down is at least as tight.
        if cand & (cand - 1):
            need = best_len - depth + (not ties)
            if cand.bit_count() < need and not _reaches(
                out_m, in_m, cand, forward_next, ~visited, need
            ):
                return False
        while cand:
            low = cand & -cand
            cand ^= low
            if place(low, depth + 1, visited, not forward_next):
                return True
        return False

    for v0 in range(g.n):
        seq[0] = v0
        if start_forward is None:
            cand = out_m[v0] | in_m[v0]
        else:
            cand = out_m[v0] if start_forward else in_m[v0]
        while cand:
            bit = cand & -cand
            cand ^= bit
            if place(bit, 1, 1 << v0, not out_m[v0] & bit):
                return best_len, found
    return best_len, found


def longest_antipath(g: OrientedGraph) -> AntipathWitness | None:
    """A maximum-length alternating path, or None iff the graph is arcless."""
    _, seqs = _antipaths(g, g.n - 1)
    return validate_antipath(g, seqs[0]) if seqs else None


def all_longest_antipaths(g: OrientedGraph) -> tuple[int, list[tuple[int, ...]]]:
    """Every maximum-length traversal, as raw sequences.

    Each path appears once per traversal direction (twice in total).
    The walk cuts a subtree only when its reachability bound falls short of
    the best length, never when it could still tie it, so no tie is lost.
    Meant for small graphs: the tie set itself can be exponential in n.
    Returns (0, []) for an arcless graph.
    """
    return _antipaths(g, g.n - 1, ties=True)


def contains_antipath_of_length(
    g: OrientedGraph, k: int, start_forward: bool | None = None
) -> AntipathWitness | None:
    """A witness of exact length k, or None if no such antipath exists.

    For even k the two shapes are genuinely different; pass start_forward to
    pin one (True: first arc leaves the first vertex, so both endpoints emit).
    With start_forward omitted, both first-arc directions are tried, so a None
    answer means neither shape is present.
    """
    if k < 1:
        raise ValueError(f"length must be >= 1, got {k}")
    if k > g.n - 1:
        return None
    length, seqs = _antipaths(g, k, start_forward)
    return validate_antipath(g, seqs[0]) if length == k else None


def longest_anticycle(g: OrientedGraph) -> AnticycleWitness | None:
    """A maximum-length alternating cycle, or None if there is none.

    Cycles are canonicalized by starting at their smallest vertex; of the
    longest ones, the least in the determinism contract's order is returned.
    """
    found = _anticycles(g)
    return validate_anticycle(g, found[max(found)]) if found else None


def has_anticycle_of_length(g: OrientedGraph, length: int) -> AnticycleWitness | None:
    """A witness of exactly this length, or None."""
    if length < 4 or length % 2 != 0:
        raise ValueError(f"anticycle length must be even and >= 4, got {length}")
    if length > g.n:
        return None
    seq = _anticycles(g).get(length)
    return validate_anticycle(g, seq) if seq else None


def anticycle_lengths(g: OrientedGraph) -> set[int]:
    """All lengths c for which g contains an alternating cycle of length c."""
    return set(_anticycles(g))


def _anticycles(g: OrientedGraph) -> dict[int, tuple[int, ...]]:
    """{c: the first cycle of length c the walk meets}, for every length c of g.

    Sequences are walked in the order of the module's determinism contract. A
    subtree is cut when no missing length fits in the vertices left above the
    start, so the walk ends once every even length up to n is found.
    """
    n = g.n
    out_m, in_m = g.adjacency_masks()
    # bit c is set while no cycle of even length c >= 4 has been found
    missing = sum(1 << c for c in range(4, n + 1, 2))
    found: dict[int, tuple[int, ...]] = {}
    seq = [0] * n

    def extend(u: int, depth: int, visited: int, source_now: bool, above: int) -> None:
        # depth = vertices placed; u = seq[depth-1]; source_now = role of u
        nonlocal missing
        start = seq[0]
        # close the cycle: needs a missing length and the wrap arc
        if missing >> depth & 1:
            closed = g.has_arc(u, start) if source_now else g.has_arc(start, u)
            if closed:
                missing ^= 1 << depth
                found[depth] = tuple(seq[:depth])
        remaining = (above & ~visited).bit_count()
        if not missing >> (depth + 1) & ((1 << remaining) - 1):
            return
        cand = (out_m[u] if source_now else in_m[u]) & ~visited & above
        while cand:
            bit = cand & -cand
            cand ^= bit
            w = bit.bit_length() - 1
            seq[depth] = w
            extend(w, depth + 1, visited | bit, not source_now, above)

    # a cycle needs 3 vertices above its start
    for s in range(n - 3):
        above = (1 << n) - (2 << s)  # the vertices above s
        seq[0] = s
        extend(s, 1, 1 << s, True, above)
        extend(s, 1, 1 << s, False, above)
    return found


def count_oriented_graphs(n: int) -> int:
    """3^(n choose 2): each unordered pair is absent, forward, or backward."""
    return 3 ** (n * (n - 1) // 2)


def graph_from_code(n: int, code: int) -> OrientedGraph:
    """Decode an enumeration index into its labeled oriented graph.

    The code is read in base 3, one trit per unordered pair in lexicographic
    order: 0 no arc, 1 arc low -> high, 2 arc high -> low.
    """
    arcs = []
    t = code
    for u, v in enumerate_pairs(n):
        t, r = divmod(t, 3)
        if r == 1:
            arcs.append((u, v))
        elif r == 2:
            arcs.append((v, u))
    return OrientedGraph.from_arcs(n, arcs)


def _check_cap(n: int) -> None:
    if n > ENUMERATION_CAP:
        raise CapExceededError(f"n={n} exceeds enumeration cap {ENUMERATION_CAP}")


def enumerate_oriented_graphs(n: int) -> Iterator[OrientedGraph]:
    """All labeled oriented graphs on n vertices, exactly once each.

    Every labeled copy is yielded, 3^(n choose 2) graphs, which is desk-scale
    for n <= ENUMERATION_CAP; `isomorphism_classes` groups them by class.
    Larger n raises CapExceededError.
    """
    _check_cap(n)
    for code in range(count_oriented_graphs(n)):
        yield graph_from_code(n, code)


def isomorphism_classes(n: int) -> tuple[list[int], list[int]]:
    """(class_of, reps): the isomorphism classes of the codes of graph_from_code.

    class_of[code] is the class index of every code, and reps[c] is the least
    code in class c, so classes are numbered in increasing order of their
    representatives. Codes are walked in increasing order; each one not yet
    classed opens a class and marks the code of each of its n! relabelings.
    A relabeling moves every trit to the image pair, and swaps trits 1 and 2
    when the permutation reverses the pair's order. Like
    enumerate_oriented_graphs, it raises CapExceededError for n above
    ENUMERATION_CAP.
    """
    _check_cap(n)
    pairs = list(enumerate_pairs(n))
    unit = {pair: 3**i for i, pair in enumerate(pairs)}
    # weights[p][3 * i + t]: what trit t of pair i adds to the image code
    # under permutation p
    weights = []
    for perm in itertools.permutations(range(n)):
        w: list[int] = []
        for u, v in pairs:
            a, b = perm[u], perm[v]
            if a < b:
                w += (0, unit[a, b], 2 * unit[a, b])
            else:
                w += (0, 2 * unit[b, a], unit[b, a])
        weights.append(w)
    class_of = [-1] * count_oriented_graphs(n)
    reps: list[int] = []
    for code in range(len(class_of)):
        if class_of[code] >= 0:
            continue
        digits = []  # 3 * i + t for every nonzero trit t of pair i
        t = code
        for i in range(len(pairs)):
            t, r = divmod(t, 3)
            if r:
                digits.append(3 * i + r)
        c = len(reps)
        for w in weights:
            class_of[sum([w[d] for d in digits])] = c
        reps.append(code)
    return class_of, reps

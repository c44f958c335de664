import itertools
import math
import random

import pytest
from hypothesis import example, given, settings

from antipaths import (
    CapExceededError,
    OrientedGraph,
    anticycle_lengths,
    contains_antipath_of_length,
    count_oriented_graphs,
    cycle_blowup,
    enumerate_oriented_graphs,
    graph_from_code,
    graph_hash,
    has_anticycle_of_length,
    longest_antipath,
    longest_anticycle,
    all_longest_antipaths,
    random_oriented_graph,
    relabel,
    validate_antipath,
    validate_anticycle,
)

from antipaths import oracle
from antipaths.oracle import ENUMERATION_CAP, isomorphism_classes

from graphgen import (
    brute_antipaths,
    brute_first_anticycles,
    brute_longest_antipath_len,
    graph_from_trits,
    oriented_graphs,
)


def test_single_arc_longest_is_one():
    g = OrientedGraph.from_arcs(2, [(0, 1)])
    w = longest_antipath(g)
    assert w is not None and w.length == 1


def test_directed_cycles_have_no_length_two_antipath():
    # every vertex has one in and one out, so no two arcs can alternate
    assert longest_antipath(cycle_blowup(3, 1)).length == 1
    assert longest_antipath(cycle_blowup(4, 1)).length == 1


def test_blowup_longest_is_three():
    w = longest_antipath(cycle_blowup(3, 2))
    assert w.length == 3
    assert w.vertices == (0, 2, 1, 3)  # lexicographically least witness


@pytest.mark.parametrize("b", range(2, 11))
def test_blowup_longest_is_one_short_of_twice_the_blob(b, monkeypatch):
    # the tightness construction. The reachability bound keeps the walk near
    # 7b^2 nodes, one bound evaluation each at most; unpruned, b=6 takes 12M
    # nodes and b=7 minutes, so a bound that stops pruning fails here fast.
    evaluations = 0
    reaches = oracle._reaches

    def counted(*args):
        nonlocal evaluations
        evaluations += 1
        assert evaluations <= 20 * b * b, "the bound no longer prunes the blow-up"
        return reaches(*args)

    monkeypatch.setattr(oracle, "_reaches", counted)
    g = cycle_blowup(3, b)
    w = longest_antipath(g)
    assert w.length == 2 * b - 1
    assert validate_antipath(g, w.vertices).length == 2 * b - 1


def test_arcless_graph_has_no_antipath():
    assert longest_antipath(OrientedGraph(4)) is None


def _least(witnesses, start_forward=None):
    """The first vertex sequence of the requested shape in a sorted witness list."""
    return next(
        (w.vertices for w in witnesses if start_forward in (None, w.start_forward)), None
    )


@given(oriented_graphs(max_n=6))
def test_longest_matches_brute_force(g):
    m = brute_longest_antipath_len(g)
    w = longest_antipath(g)
    # the lexicographically least sequence of maximum length; None iff arcless
    expected = _least(brute_antipaths(g, m)) if m else None
    assert (None if w is None else w.vertices) == expected


@given(oriented_graphs(max_n=6))
@settings(max_examples=60)
def test_contains_matches_brute_force(g):
    for k in range(1, g.n + 1):
        witnesses = brute_antipaths(g, k)
        for flag in (None, True, False):
            wit = contains_antipath_of_length(g, k, flag)
            # the witness is the least length-k sequence of the requested shape
            assert (None if wit is None else wit.vertices) == _least(witnesses, flag)


@given(oriented_graphs(max_n=6))
@settings(max_examples=60)
def test_all_longest_matches_brute_force(g):
    m = brute_longest_antipath_len(g)
    ties = [w.vertices for w in brute_antipaths(g, m)] if m else []
    assert all_longest_antipaths(g) == (m, sorted(ties))


def _near_extremal(seed):
    """cycle_blowup(3, 2), or cycle_blowup(3, 3) less one vertex, with 1-3 arcs
    flipped or deleted: the graphs on which the reachability bound prunes most."""
    rng = random.Random(seed)
    if seed % 4:
        n, arcs = 6, cycle_blowup(3, 2).arcs()
    else:
        gone = rng.randrange(9)
        n = 8
        arcs = [
            (u - (u > gone), v - (v > gone))
            for u, v in cycle_blowup(3, 3).arcs()
            if gone not in (u, v)
        ]
    for u, v in rng.sample(arcs, rng.randint(1, 3)):
        arcs.remove((u, v))
        if rng.random() < 0.5:
            arcs.append((v, u))
    return OrientedGraph.from_arcs(n, arcs)


@pytest.mark.parametrize("seed", range(16))
def test_near_extremal_matches_brute_force(seed):
    g = _near_extremal(seed)
    by_len = {k: brute_antipaths(g, k) for k in range(1, g.n)}
    m = max(k for k, ws in by_len.items() if ws)
    assert longest_antipath(g).vertices == _least(by_len[m])
    assert all_longest_antipaths(g) == (m, [w.vertices for w in by_len[m]])
    for k, witnesses in by_len.items():
        for flag in (None, True, False):
            wit = contains_antipath_of_length(g, k, flag)
            assert (None if wit is None else wit.vertices) == _least(witnesses, flag)


def test_contains_blowup_examples():
    g = cycle_blowup(3, 2)
    assert contains_antipath_of_length(g, 4) is None
    w = contains_antipath_of_length(g, 3)
    assert w is not None and w.length == 3


def test_contains_length_one_returns_least_arc():
    g = OrientedGraph.from_arcs(4, [(3, 2), (1, 0)])
    w = contains_antipath_of_length(g, 1)
    assert w.vertices == (0, 1)  # traversed from the smaller endpoint


def test_longest_anticycle_fixture():
    g = OrientedGraph.from_arcs(4, [(0, 1), (2, 1), (2, 3), (0, 3)])
    w = longest_anticycle(g)
    assert w is not None and w.length == 4
    assert longest_anticycle(OrientedGraph(5)) is None


def test_blowup_anticycle_is_four():
    g = cycle_blowup(3, 2)
    w = longest_anticycle(g)
    assert w.length == 4
    assert anticycle_lengths(g) == {4}
    assert has_anticycle_of_length(g, 6) is None


@given(oriented_graphs(max_n=6))
@settings(max_examples=60)
# random draws rarely hold a 6-anticycle: K_{3,3} oriented one way has lengths
# {4, 6}, and the alternating hexagon only 6
@example(OrientedGraph.from_arcs(6, [(u, v) for u in range(3) for v in range(3, 6)]))
@example(OrientedGraph.from_arcs(6, [(0, 1), (2, 1), (2, 3), (4, 3), (4, 5), (0, 5)]))
def test_anticycle_matches_brute_force(g):
    _check_anticycles(g)


def test_anticycle_witnesses_on_fixed_corpus():
    # every labeled graph on at most 4 vertices, then random ones on 5..8
    for n in range(5):
        for trits in itertools.product(range(3), repeat=n * (n - 1) // 2):
            _check_anticycles(graph_from_trits(n, list(trits)))
    for s in range(150):
        _check_anticycles(random_oriented_graph(5 + s % 4, 0.5, s))


def _check_anticycles(g):
    # witnesses are the least cycles in the order of brute_first_anticycles
    first = brute_first_anticycles(g)
    w = longest_anticycle(g)
    got = 0 if w is None else w.length
    assert got == max(first, default=0)
    if w is not None:
        validate_anticycle(g, w.vertices)
        assert w.vertices == first[got]
    # the cycle_promotion check of every exhaustive record reads these lengths
    assert anticycle_lengths(g) == set(first)
    for c in range(4, g.n + 1, 2):
        wit = has_anticycle_of_length(g, c)
        assert (wit is not None) == (c in first)
        if wit is not None:
            assert wit.length == c
            validate_anticycle(g, wit.vertices)
            assert wit.vertices == first[c]


@pytest.mark.parametrize("length", [-4, 0, 2, 3, 5])
def test_has_anticycle_of_length_rejects_bad_lengths(length):
    g = cycle_blowup(3, 2)
    with pytest.raises(ValueError):
        has_anticycle_of_length(g, length)


def test_has_anticycle_of_length_above_n_skips_the_walk(monkeypatch):
    # no cycle is longer than the vertex count, so the query answers at once
    def no_walk(g):
        raise AssertionError("walked for a length above n")

    monkeypatch.setattr(oracle, "_anticycles", no_walk)
    g = cycle_blowup(3, 2)
    assert has_anticycle_of_length(g, 8) is None
    assert has_anticycle_of_length(g, 100) is None
    with pytest.raises(ValueError):
        has_anticycle_of_length(g, 7)


def test_enumeration_counts():
    assert count_oriented_graphs(2) == 3
    assert count_oriented_graphs(4) == 729
    assert count_oriented_graphs(5) == 59049
    graphs = list(enumerate_oriented_graphs(2))
    assert len(graphs) == 3
    assert len({graph_hash(g) for g in graphs}) == 3


def test_enumeration_is_exhaustive_and_distinct_n3():
    hashes = {graph_hash(g) for g in enumerate_oriented_graphs(3)}
    assert len(hashes) == 27


def test_enumeration_cap():
    with pytest.raises(CapExceededError):
        next(enumerate_oriented_graphs(ENUMERATION_CAP + 1))
    with pytest.raises(CapExceededError):
        isomorphism_classes(ENUMERATION_CAP + 1)


# unlabeled oriented graphs on n = 0..5 vertices (OEIS A001174)
A001174 = [1, 1, 2, 7, 42, 582]


def _burnside_count(n):
    """Isomorphism classes of oriented graphs on n vertices, by Burnside's lemma.

    The count is the mean, over vertex permutations, of the labeled graphs
    each one fixes. A cycle of the induced action on unordered pairs fixes
    all three choices (no arc, either direction), or only "no arc" when going
    once round it brings the pair back reversed.
    """
    fixed_total = 0
    for perm in itertools.permutations(range(n)):
        fixed = 1
        seen = set()
        for pair in itertools.combinations(range(n), 2):
            if pair in seen:
                continue
            u, v = pair
            while True:
                seen.add((min(u, v), max(u, v)))
                u, v = perm[u], perm[v]
                if {u, v} == set(pair):
                    break
            fixed *= 3 if (u, v) == pair else 1
        fixed_total += fixed
    assert fixed_total % math.factorial(n) == 0
    return fixed_total // math.factorial(n)


@pytest.mark.parametrize("n", range(ENUMERATION_CAP + 1))
def test_isomorphism_classes_match_burnside_count(n):
    class_of, reps = isomorphism_classes(n)
    assert len(reps) == _burnside_count(n) == A001174[n]
    assert len(class_of) == count_oriented_graphs(n)
    # classes are numbered in order of first appearance, each by its least code
    first = {}
    for code, c in enumerate(class_of):
        first.setdefault(c, code)
    assert list(first.items()) == list(enumerate(reps))


@pytest.mark.parametrize("n", range(5))
def test_every_code_relabels_its_representative(n):
    class_of, reps = isomorphism_classes(n)
    perms = list(itertools.permutations(range(n)))
    for code, c in enumerate(class_of):
        g = graph_from_code(n, code)
        rep = graph_from_code(n, reps[c])
        assert any(relabel(rep, perm) == g for perm in perms)


def test_graph_from_code_roundtrip_spotcheck():
    # code 1 sets the first pair (0,1) forward; code 2 backward
    assert graph_from_code(3, 1).arcs() == [(0, 1)]
    assert graph_from_code(3, 2).arcs() == [(1, 0)]


def test_longest_invariant_under_relabeling_and_reversal():
    rng = random.Random(1)
    for seed in range(30):
        g = random_oriented_graph(7, 0.5, seed)
        base = longest_antipath(g)
        base_len = 0 if base is None else base.length
        perm = list(range(7))
        rng.shuffle(perm)
        for h in (relabel(g, perm), g.reverse()):
            w = longest_antipath(h)
            assert (0 if w is None else w.length) == base_len


def test_adding_arcs_never_shortens_longest():
    rng = random.Random(2)
    for seed in range(40):
        g = random_oriented_graph(6, 0.3, seed)
        before = longest_antipath(g)
        before_len = 0 if before is None else before.length
        free = [
            (u, v)
            for u in range(6)
            for v in range(6)
            if u != v and not g.has_arc(u, v) and not g.has_arc(v, u)
        ]
        if not free:
            continue
        u, v = free[rng.randrange(len(free))]
        g.add_arc(u, v)
        after = longest_antipath(g)
        assert after is not None and after.length >= before_len


def test_all_longest_returns_every_traversal():
    g = cycle_blowup(3, 2)
    m, traversals = all_longest_antipaths(g)
    assert m == 3
    assert (0, 2, 1, 3) in traversals
    # every path appears under both traversal directions
    assert all(tuple(reversed(t)) in traversals for t in traversals)
    for t in traversals:
        assert validate_antipath(g, t).length == 3


def test_all_longest_on_arcless():
    assert all_longest_antipaths(OrientedGraph(3)) == (0, [])

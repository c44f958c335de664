import math

import pytest

import graphgen
from antipaths import (
    AttemptsExhaustedError,
    OrientedGraph,
    constructions,
    contains_antipath_of_length,
    cycle_blowup,
    integer_threshold,
    longest_antipath,
    random_oriented_graph,
    random_with_min_pd,
    threshold,
)
from antipaths.graphs import graph_hash


def test_blowup_shape_and_degrees():
    g = cycle_blowup(3, 2)
    assert g.n == 6 and g.arc_count == 12
    p = g.degree_profile()
    assert p.min_semidegree == 2 and p.min_pseudo_semidegree == 2
    assert all(d == 2 for d in p.in_degrees + p.out_degrees)


def test_blowup_blob_one_is_directed_cycle():
    g = cycle_blowup(4, 1)
    assert g.arcs() == [(0, 1), (1, 2), (2, 3), (3, 0)]


def test_blowup_parameter_bounds():
    with pytest.raises(ValueError):
        cycle_blowup(2, 1)
    with pytest.raises(ValueError):
        cycle_blowup(3, 0)


@pytest.mark.parametrize(
    "ell,b,expected", [(3, 1, 1), (4, 1, 1), (3, 2, 3), (3, 3, 5), (3, 4, 7)]
)
def test_blowup_longest_lengths(ell, b, expected):
    # the family stops one arc short of twice the blob size
    assert longest_antipath(cycle_blowup(ell, b)).length == expected


@pytest.mark.parametrize("k", [4, 5, 6])
def test_blowup_family_misses_target_length(k):
    # even k: blob k/2 reaches exactly k-1; odd k uses blob floor(k/2)
    g = cycle_blowup(3, k // 2)
    assert contains_antipath_of_length(g, k) is None


@pytest.mark.parametrize("k,expected", [(4, 2.0), (7, 4.0), (12, 7.0)])
def test_threshold_values(k, expected):
    assert threshold(k) == expected


def test_threshold_domain():
    with pytest.raises(ValueError):
        threshold(3)
    with pytest.raises(ValueError):
        integer_threshold(3)


def test_threshold_identities():
    for k in range(4, 200):
        t = threshold(k)
        assert t < k - 1
        assert math.isclose(t - k / 2, (math.sqrt(k - 3) - 1) / 2)


@pytest.mark.parametrize("k,d", [(4, 3), (5, 3), (7, 5), (12, 8), (103, 57)])
def test_integer_threshold_values(k, d):
    assert integer_threshold(k) == d


def test_integer_threshold_is_smallest_integer_above():
    for k in range(4, 300):
        d = integer_threshold(k)
        assert d > threshold(k)
        assert d - 1 <= threshold(k)


def test_random_graph_extremes():
    assert random_oriented_graph(6, 0.0, 1).arc_count == 0
    t = random_oriented_graph(3, 1.0, 1)
    assert t.arc_count == 3  # a tournament orients every pair


def test_random_graph_determinism():
    a = random_oriented_graph(10, 0.4, 123)
    b = random_oriented_graph(10, 0.4, 123)
    assert a == b and graph_hash(a) == graph_hash(b)
    c = random_oriented_graph(10, 0.4, 124)
    assert graph_hash(c) != graph_hash(a)


def test_random_graph_probability_domain():
    with pytest.raises(ValueError):
        random_oriented_graph(5, 1.5, 0)


def test_min_pd_postcondition():
    g = random_with_min_pd(9, 3, 0)
    assert g.degree_profile().min_pseudo_semidegree >= 3


def test_min_pd_preconditions():
    with pytest.raises(ValueError):
        random_with_min_pd(4, 2, 0)
    with pytest.raises(ValueError):
        random_with_min_pd(9, 0, 0)


def test_min_pd_hundred_seeds_vary():
    counts = set()
    for seed in range(100):
        g = random_with_min_pd(10, 3, seed)
        assert g.degree_profile().min_pseudo_semidegree >= 3
        counts.add(g.arc_count)
    assert len(counts) >= 2  # the sampler does not collapse to one graph


def test_min_pd_determinism():
    assert random_with_min_pd(10, 3, 77) == random_with_min_pd(10, 3, 77)


def test_min_pd_attempt_budget(monkeypatch):
    monkeypatch.setattr(constructions, "MAX_ATTEMPTS", 0)
    with pytest.raises(AttemptsExhaustedError):
        random_with_min_pd(9, 3, 0)


def _outcome(make, *args):
    """The masks and arc count of make(*args), or the exhaustion message."""
    try:
        g = make(*args)
    except AttemptsExhaustedError as exc:
        return str(exc)
    out, in_ = g.adjacency_masks()
    return out.copy(), in_.copy(), g.arc_count


def _transpose(out: list[int]) -> list[int]:
    in_ = [0] * len(out)
    for u, mask in enumerate(out):
        for v in range(len(out)):
            if mask >> v & 1:
                in_[v] |= 1 << u
    return in_


def _check_against_reference(make, reference, *args):
    got = _outcome(make, *args)
    assert got == _outcome(reference, *args), args
    if not isinstance(got, str):
        out, in_, _ = got
        assert in_ == _transpose(out), args
    return got


def test_min_pd_matches_reference_generator():
    # n = 2d+1 exhausts on many seeds, so the grid covers both outcomes
    outcomes = set()
    for d in range(1, 7):
        for n in (2 * d + 1, 2 * d + 2, 2 * d + 3, 3 * d, 2 * d + 8):
            for seed in range(40):
                got = _check_against_reference(
                    random_with_min_pd, graphgen.ref_random_with_min_pd, n, d, seed)
                outcomes.add(isinstance(got, str))
    assert outcomes == {False, True}


def test_random_graph_matches_reference_generator():
    for n in (0, 1, 2, 5, 9, 14):
        for p in (0.0, 0.3, 0.77, 1.0):
            for seed in range(20):
                _check_against_reference(
                    random_oriented_graph, graphgen.ref_random_oriented_graph, n, p, seed)


def _count_calls(monkeypatch, module, name) -> list[tuple]:
    """Wrap module.name so that each call's arguments are recorded."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_min_pd_attempt_loop_calls_the_module_generator(monkeypatch):
    # an arcless draw repairs trivially, so only the arc-count check rejects it
    calls = []

    def arcless(n, p, seed):
        calls.append(p)
        return OrientedGraph(n)

    monkeypatch.setattr(constructions, "random_oriented_graph", arcless)
    with pytest.raises(AttemptsExhaustedError, match="in 64 attempts"):
        random_with_min_pd(9, 3, 0)
    assert len(calls) == 64


def test_min_pd_attempts_match_reference(monkeypatch):
    calls = _count_calls(monkeypatch, constructions, "random_oriented_graph")
    ref_calls = _count_calls(monkeypatch, graphgen, "ref_random_oriented_graph")
    g = random_with_min_pd(9, 3, 2)  # 34 attempts
    assert g == graphgen.ref_random_with_min_pd(9, 3, 2)
    assert len(calls) > 1 and calls == ref_calls

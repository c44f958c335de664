import pytest
from hypothesis import given

from antipaths import (
    AntiparallelArcError,
    DuplicateArcError,
    EdgeListParseError,
    OrientedGraph,
    SelfLoopError,
    cycle_blowup,
    format_edge_list,
    graph_hash,
    parse_edge_list,
    random_oriented_graph,
    relabel,
    to_dot,
)

from graphgen import oriented_graphs


def test_new_graph_empty_and_isolated():
    g = OrientedGraph(0)
    assert g.n == 0 and g.arc_count == 0
    g3 = OrientedGraph(3)
    assert g3.n == 3 and g3.arc_count == 0
    assert g3.arcs() == []


def test_add_arc_and_queries():
    g = OrientedGraph(2)
    g.add_arc(0, 1)
    assert g.has_arc(0, 1) and not g.has_arc(1, 0)
    assert g.out_neighbors(0) == {1}
    assert g.in_neighbors(1) == {0}
    assert g.arcs() == [(0, 1)]


def test_add_arc_errors():
    g = OrientedGraph(3)
    g.add_arc(0, 1)
    with pytest.raises(AntiparallelArcError):
        g.add_arc(1, 0)
    with pytest.raises(DuplicateArcError):
        g.add_arc(0, 1)
    with pytest.raises(SelfLoopError):
        g.add_arc(2, 2)
    with pytest.raises(ValueError):
        g.add_arc(0, 3)


def test_has_arc_is_false_out_of_range():
    g = OrientedGraph.from_arcs(3, [(0, 1), (2, 1)])
    for u, v in [(0, -1), (-1, 1), (0, 3), (3, 1), (-1, -1), (0, 10**6), (10**6, 0)]:
        assert not g.has_arc(u, v)
    assert not OrientedGraph(0).has_arc(0, 0)


def test_degree_profile_single_arc():
    g = OrientedGraph.from_arcs(2, [(0, 1)])
    p = g.degree_profile()
    assert p.out_degrees[0] == 1 and p.in_degrees[0] == 0
    assert p.min_semidegree == 0
    assert p.min_pseudo_semidegree == 1


def test_degree_profile_blowup():
    p = cycle_blowup(3, 2).degree_profile()
    assert p.in_degrees == (2,) * 6 and p.out_degrees == (2,) * 6
    assert p.min_semidegree == 2 and p.min_pseudo_semidegree == 2


def test_degree_profile_arcless():
    p = OrientedGraph(5).degree_profile()
    assert p.min_semidegree == 0 and p.min_pseudo_semidegree == 0


def test_reverse_single_arc():
    g = OrientedGraph.from_arcs(2, [(0, 1)]).reverse()
    assert g.arcs() == [(1, 0)]


def test_reverse_involution_and_profile():
    g = cycle_blowup(3, 2)
    r = g.reverse()
    assert r.reverse() == g
    assert r.degree_profile() == g.degree_profile()


def test_reverse_preserves_degree_stats_on_random_graphs():
    for seed in range(100):
        g = random_oriented_graph(8, 0.4, seed)
        p, q = g.degree_profile(), g.reverse().degree_profile()
        assert q.in_degrees == p.out_degrees and q.out_degrees == p.in_degrees
        assert q.min_semidegree == p.min_semidegree
        assert q.min_pseudo_semidegree == p.min_pseudo_semidegree


@given(oriented_graphs())
def test_degree_sums_and_orientation_bound(g):
    p = g.degree_profile()
    assert sum(p.in_degrees) == sum(p.out_degrees) == g.arc_count
    assert g.arc_count <= g.n * (g.n - 1) // 2


@given(oriented_graphs())
def test_pseudo_floor_dominates_semidegree(g):
    p = g.degree_profile()
    assert p.min_pseudo_semidegree >= p.min_semidegree
    if g.arc_count and all(i > 0 and o > 0 for i, o in zip(p.in_degrees, p.out_degrees)):
        assert p.min_pseudo_semidegree == p.min_semidegree


def test_profile_is_insertion_order_independent():
    arcs = [(0, 1), (2, 1), (2, 3), (0, 3), (4, 0)]
    a = OrientedGraph.from_arcs(5, arcs)
    b = OrientedGraph.from_arcs(5, list(reversed(arcs)))
    assert a == b and a.degree_profile() == b.degree_profile()
    # removing an arc is modeled as a rebuild; the profile must match a
    # from-scratch computation on the smaller arc set
    for drop in range(len(arcs)):
        kept = [x for i, x in enumerate(arcs) if i != drop]
        assert OrientedGraph.from_arcs(5, kept).degree_profile() == \
            OrientedGraph.from_arcs(5, sorted(kept)).degree_profile()


def test_edge_list_roundtrip():
    g = cycle_blowup(3, 2)
    text = format_edge_list(g)
    assert text.startswith("6 12\n") and text.endswith("\n")
    assert parse_edge_list(text) == g


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 1),
        ("2\n", 1),
        ("2 1\n1 x\n", 2),
        ("2 2\n0 1\n", 3),
        ("2 1\n0 1\n1 0 extra\n", 3),
        ("2 2\n0 1\n1 0\n", 3),  # antiparallel pair reported on its line
        ("2 1\n0 5\n", 2),
    ],
)
def test_edge_list_parse_errors(text, line):
    with pytest.raises(EdgeListParseError) as err:
        parse_edge_list(text)
    assert err.value.line == line


def test_dot_export_lists_every_arc():
    g = OrientedGraph.from_arcs(3, [(0, 1), (2, 1)])
    dot = to_dot(g, highlight=[(0, 1)])
    assert "digraph" in dot
    assert "0 -> 1 [color=red, penwidth=2.0];" in dot
    assert "2 -> 1;" in dot
    assert "  2;" in dot  # isolated-safe node statements


def test_relabel_permutes_arcs():
    g = OrientedGraph.from_arcs(3, [(0, 1), (2, 1)])
    h = relabel(g, [2, 0, 1])
    assert h.arcs() == [(1, 0), (2, 0)]
    with pytest.raises(ValueError):
        relabel(g, [0, 0, 1])


def test_graph_hash_stable_and_discriminating():
    g = cycle_blowup(3, 2)
    assert graph_hash(g) == graph_hash(parse_edge_list(format_edge_list(g)))
    assert len(graph_hash(g)) == 16
    other = OrientedGraph.from_arcs(6, g.arcs()[:-1])
    assert graph_hash(other) != graph_hash(g)

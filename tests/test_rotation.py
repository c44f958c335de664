import random

import pytest

import antipaths.rotation as rotation
from antipaths import (
    EvenLengthPathError,
    OrientedGraph,
    all_longest_antipaths,
    audit_maximality,
    build_state,
    contains_antipath_of_length,
    cycle_blowup,
    endpoint_chord_exists,
    enumerate_oriented_graphs,
    improve,
    longest_antipath,
    random_oriented_graph,
    validate_antipath,
)

from graphgen import oriented_graphs  # noqa: F401  (re-exported for hypothesis users)


def chord_host():
    return OrientedGraph.from_arcs(4, [(0, 1), (2, 1), (2, 3), (0, 3)])


def state_on(g, seq):
    return build_state(g, validate_antipath(g, seq))


def rotations_of(st):
    return list(rotation._rotations(st.host, st.path.vertices))


def swaps_of(st):
    return rotation._swap_successors(st.host, st.path.vertices)


def chord_closure(st):
    """Every sequence the two chord reversals reach from st's path, depth first.

    A chord from the first vertex to position 2i+1 reverses the prefix up to
    position 2i; a chord from position 2i to the last vertex reverses the
    suffix after it.
    """
    g = st.host
    seen = {st.path.vertices}
    stack = [st.path.vertices]
    while stack:
        cur = stack.pop()
        m = len(cur) - 1
        reached = [
            cur[2 * i :: -1] + cur[2 * i + 1 :]
            for i in range(1, (m - 1) // 2 + 1)
            if g.has_arc(cur[0], cur[2 * i + 1])
        ] + [
            cur[: 2 * i + 1] + cur[: 2 * i : -1]
            for i in range((m - 1) // 2)
            if g.has_arc(cur[2 * i], cur[m])
        ]
        for nxt in reached:
            if nxt not in seen:
                assert validate_antipath(g, nxt).start_forward  # forward normal form kept
                seen.add(nxt)
                stack.append(nxt)
    return seen


def opening_path(m, i, flavor):
    """The planted opening's fixture path, inserted pair, and the longer path
    the audit builds for it."""
    g, seq, v, w = planted_opening_fixture(m, i, flavor)
    chord = "before-pivot" if flavor == "before" else "onto-pivot"
    report = audit_maximality(state_on(g, seq), m + 1, g.degree_profile().min_pseudo_semidegree)
    (hit,) = [o for o in report.extension_openings if (o.v, o.w, o.pivot, o.chord) == (v, w, i, chord)]
    return g, seq, v, w, hit.longer_path


def path_arcs_for(seq):
    """Arcs making seq an alternating path with a forward first arc."""
    out = []
    for j in range(len(seq) - 1):
        out.append((seq[j], seq[j + 1]) if j % 2 == 0 else (seq[j + 1], seq[j]))
    return out


def planted_opening_fixture(m, i, flavor):
    """A host whose [0..m] path admits exactly the planted two-vertex insertion.

    Path vertices 0..m, inserted candidates v = m+1 and w = m+2. flavor
    "before" plants the chord into position 2i-1, "onto" the chord onto the
    pivot 2i.
    """
    v, w = m + 1, m + 2
    seq = tuple(range(m + 1))
    g = OrientedGraph(m + 3)
    for a, b in path_arcs_for(seq):
        g.add_arc(a, b)
    g.add_arc(v, seq[1])
    g.add_arc(w, seq[1])
    g.add_arc(v, seq[2 * i])
    g.add_arc(w, seq[2 * i + 1])
    if flavor == "before":
        if 2 * i - 1 != 1:  # the candidate arc into position 1 already exists
            g.add_arc(w, seq[2 * i - 1])
    else:
        g.add_arc(w, seq[2 * i])
    return g, seq, v, w


# ---------------------------------------------------------------------------
# state construction


def test_build_state_positions():
    st = state_on(chord_host(), [0, 1, 2, 3])
    assert st.path.vertices == (0, 1, 2, 3) and st.path.start_forward
    assert st.path.length == 3
    assert st.head_candidates == {0}


def test_build_state_head_candidates():
    g = OrientedGraph.from_arcs(5, [(0, 1), (2, 1), (2, 3), (4, 1)])
    st = state_on(g, [0, 1, 2, 3])
    assert st.head_candidates == {0, 4}


def test_build_state_on_blowup_longest():
    g = cycle_blowup(3, 2)
    st = build_state(g, longest_antipath(g))
    assert st.path.length == 3
    reached = rotations_of(st)
    assert {s[1] for s in reached} == {2, 3} and {s[-2] for s in reached} == {0, 1}
    assert len(reached) == 4


def test_build_state_rejects_even_length():
    g = OrientedGraph.from_arcs(3, [(0, 1), (2, 1)])
    with pytest.raises(EvenLengthPathError):
        state_on(g, [0, 1, 2])


def test_build_state_normalizes_backward_first_arc():
    st = state_on(chord_host(), [3, 2, 1, 0])
    assert st.path.vertices == (0, 1, 2, 3)
    assert st.path.start_forward


# ---------------------------------------------------------------------------
# rotations


def test_rotate_start_formula():
    # the chord (0, 3) reverses the prefix up to position 2
    st = state_on(chord_host(), [0, 1, 2, 3])
    assert rotations_of(st)[1] == (2, 1, 0, 3)


def test_rotate_end_formula():
    # the chord (0, 3) also reverses the suffix after position 0
    st = state_on(chord_host(), [0, 1, 2, 3])
    assert rotations_of(st)[2] == (0, 3, 2, 1)


def test_rotations_preserve_vertex_set_and_sides():
    st = state_on(chord_host(), [0, 1, 2, 3])
    for s in rotations_of(st):
        assert set(s) == set(st.path.vertices)
        # arcs still run from the original even-position set to the odd one
        assert set(s[0::2]) == set(st.path.vertices[0::2])
        assert validate_antipath(st.host, s).start_forward


# ---------------------------------------------------------------------------
# closure


def test_closure_with_no_chords_is_trivial():
    g = OrientedGraph.from_arcs(4, [(0, 1), (2, 1), (2, 3)])
    st = state_on(g, [0, 1, 2, 3])
    assert rotations_of(st) == [(0, 1, 2, 3)]


def test_closure_on_chord_host():
    st = state_on(chord_host(), [0, 1, 2, 3])
    reached = rotations_of(st)
    assert {s[1] for s in reached} == {1, 3} and {s[-2] for s in reached} == {0, 2}
    assert len(reached) == 4


def test_closure_cap_truncates_and_reports(monkeypatch):
    st = state_on(chord_host(), [0, 1, 2, 3])
    monkeypatch.setattr(rotation, "ROTATION_CAP", 2)
    reached = rotations_of(st)
    assert len(reached) == 2
    assert reached[0] == st.path.vertices
    assert set(reached) < chord_closure(st)


def odd_longest_states():
    """States on the odd longest traversals of every labeled graph on n <= 4
    vertices, then on the longest path of a seeded random sample."""
    for n in range(2, 5):
        for g in enumerate_oriented_graphs(n):
            m, traversals = all_longest_antipaths(g)
            if m % 2 == 1:
                for t in traversals:
                    yield build_state(g, validate_antipath(g, t))
    rng = random.Random(5)
    for _ in range(150):
        g = random_oriented_graph(rng.randrange(5, 9), rng.uniform(0.3, 0.8), rng.randrange(10**6))
        w = longest_antipath(g)
        if w is not None and w.length % 2 == 1:
            yield build_state(g, w)


def chord_in(st, seqs):
    g = st.host
    first, last = st.path.vertices[0], st.path.vertices[-1]
    return any(g.has_arc(first, s[-2]) or g.has_arc(s[1], last) for s in seqs)


def test_rotations_match_public_closure():
    checked = 0
    for st in odd_longest_states():
        reached = rotations_of(st)
        assert reached[0] == st.path.vertices
        assert len(set(reached)) == len(reached)
        assert set(reached) == chord_closure(st)
        for s in reached:
            assert set(s[0::2]) == set(st.path.vertices[0::2])
            assert set(s[1::2]) == set(st.path.vertices[1::2])
        assert endpoint_chord_exists(st) == chord_in(st, reached)
        checked += 1
    assert checked > 1000


def test_endpoint_chord_under_truncation(monkeypatch):
    states = list(odd_longest_states())
    full = [endpoint_chord_exists(st) for st in states]
    monkeypatch.setattr(rotation, "ROTATION_CAP", 1)
    capped = [endpoint_chord_exists(st) for st in states]
    for st, answer in zip(states, capped):
        assert rotations_of(st) == [st.path.vertices]
        assert answer == chord_in(st, [st.path.vertices])
    assert full != capped  # some answers need a rotation to show the chord


def test_endpoint_chord_cases():
    # chord from an achievable second vertex into the tail
    g = OrientedGraph.from_arcs(4, [(0, 1), (2, 1), (2, 3), (1, 3)])
    assert endpoint_chord_exists(state_on(g, [0, 1, 2, 3]))
    # no chord at all
    g2 = OrientedGraph.from_arcs(4, [(0, 1), (2, 1), (2, 3)])
    assert not endpoint_chord_exists(state_on(g2, [0, 1, 2, 3]))
    # degree floor exactly half the target length: the conclusion can fail
    g3 = cycle_blowup(3, 2)
    assert not endpoint_chord_exists(build_state(g3, longest_antipath(g3)))


# ---------------------------------------------------------------------------
# endpoint swaps


def test_tail_push_swap():
    g = OrientedGraph.from_arcs(5, [(0, 1), (2, 1), (2, 3), (1, 3), (1, 4)])
    st = state_on(g, [0, 1, 2, 3])
    assert (2, 3, 1, 4) in swaps_of(st)


def test_head_replacement_swap():
    g = OrientedGraph.from_arcs(5, [(0, 1), (2, 1), (2, 3), (4, 1)])
    st = state_on(g, [0, 1, 2, 3])
    assert swaps_of(st) == [(4, 1, 2, 3)]


def test_no_tail_chord_no_tail_pushes():
    g = OrientedGraph.from_arcs(5, [(0, 1), (2, 1), (2, 3), (1, 4)])
    st = state_on(g, [0, 1, 2, 3])
    # 1 -> 4 exists but the chord (1, 3) is missing, so no tail push appears
    assert all(s[-2] != 1 for s in swaps_of(st))


def test_swaps_keep_length_and_validate():
    g = OrientedGraph.from_arcs(5, [(0, 1), (2, 1), (2, 3), (1, 3), (1, 4), (4, 3)])
    st = state_on(g, [0, 1, 2, 3])
    for s in swaps_of(st):
        out = validate_antipath(g, s)
        assert out.length == st.path.length
        assert out.start_forward


# ---------------------------------------------------------------------------
# two-vertex insertions


def test_odd_chords_extension():
    g, seq, v, w, out = opening_path(3, 1, "before")
    assert out.length == 4
    assert out.vertices == (2, 4, 1, 5, 3)
    assert set(out.vertices) == set(seq[1:]) | {v, w}


def test_pivot_chord_extension():
    g, seq, v, w, out = opening_path(3, 1, "onto")
    assert out.length == 4
    assert out.vertices == (1, 4, 2, 5, 3)
    assert set(out.vertices) == set(seq[1:]) | {v, w}


def test_extensions_on_longer_paths():
    for m, i, flavor in [(5, 1, "before"), (5, 2, "onto"), (7, 3, "before"), (9, 2, "onto")]:
        g, seq, v, w, out = opening_path(m, i, flavor)
        assert out.length == m + 1
        assert set(out.vertices) == set(seq[1:]) | {v, w}


# ---------------------------------------------------------------------------
# improvement heuristic


def test_improve_reaches_oracle_on_blowup():
    g = cycle_blowup(3, 2)
    seed_path = validate_antipath(g, [0, 2])
    out = improve(g, seed_path)
    assert out.length == 3


def test_improve_keeps_optimal_path():
    g = cycle_blowup(3, 2)
    best = longest_antipath(g)
    assert improve(g, best).length == best.length


def test_improve_never_beats_oracle_and_is_idempotent():
    for seed in range(500):
        g = random_oriented_graph(6, 0.45, seed)
        if g.arc_count == 0:
            continue
        seed_path = validate_antipath(g, g.arcs()[0])
        improved = improve(g, seed_path)
        validate_antipath(g, improved.vertices)
        oracle_best = longest_antipath(g)
        assert improved.length <= oracle_best.length
        again = improve(g, improved)
        assert again.length == improved.length


def test_improve_uses_insertions_when_endpoints_are_stuck():
    g, seq, v, w = planted_opening_fixture(3, 1, "before")
    out = improve(g, validate_antipath(g, seq))
    assert out.length >= 4


def test_improve_reaches_growth_through_rotation():
    # [0,1,2,3] cannot extend, swap, or insert; rotating on the chord (0, 3)
    # exposes vertex 2 as an endpoint, whose off-path arc to 4 then extends
    g = OrientedGraph.from_arcs(5, [(0, 1), (2, 1), (2, 3), (0, 3), (2, 4)])
    out = improve(g, validate_antipath(g, [0, 1, 2, 3]))
    assert out.length == 4
    assert out.vertices == (4, 2, 1, 0, 3)


# ---------------------------------------------------------------------------
# audit


def test_audit_flags_planted_openings():
    for flavor, chord in (("before", "before-pivot"), ("onto", "onto-pivot")):
        g, seq, v, w = planted_opening_fixture(5, 2, flavor)
        st = state_on(g, seq)
        report = audit_maximality(st, 6, g.degree_profile().min_pseudo_semidegree)
        hits = [o for o in report.extension_openings if o.chord == chord]
        assert hits, f"no {chord} opening reported"
        for o in hits:
            validate_antipath(g, o.longer_path.vertices)
            assert o.longer_path.length == st.path.length + 1
        # an opening certifies the input was not maximal; the oracle agrees
        assert longest_antipath(g).length > st.path.length


def test_audit_clean_on_oracle_longest_over_all_n4_graphs():
    checked = 0
    for g in enumerate_oriented_graphs(4):
        w = longest_antipath(g)
        if w is None or w.length % 2 == 0:
            continue
        st = build_state(g, w)
        report = audit_maximality(st, 4, g.degree_profile().min_pseudo_semidegree)
        assert not report.extension_openings
        assert report.head_fanout["confined"]
        assert report.head_fanout["lower_ok"]
        if len(st.head_candidates) >= 2:
            assert not report.window_overloads
        checked += 1
    assert checked > 100


def test_audit_json_shape():
    g, seq, v, w = planted_opening_fixture(3, 1, "onto")
    st = state_on(g, seq)
    d = audit_maximality(st, 4, g.degree_profile().min_pseudo_semidegree).to_json_dict()
    # at pivot 1 the before-chord coincides with head membership, so both fire
    chords = {o["chord"] for o in d["extension_openings"]}
    assert chords == {"onto-pivot", "before-pivot"}
    assert all("longer_path" in o for o in d["extension_openings"])
    assert set(d["head_fanout"]) == {
        "size", "arcs_into_path", "confined", "lower_bound",
        "lower_ok", "upper_bound", "upper_ok",
    }
    assert d["consistent"] is False


def test_audit_on_boundary_blowup_reports_feedback_not_openings():
    g = cycle_blowup(3, 2)
    st = build_state(g, longest_antipath(g))
    report = audit_maximality(st, 4, g.degree_profile().min_pseudo_semidegree)
    assert not report.extension_openings
    # at the exact degree boundary the cycle-closing arcs legitimately exist
    assert report.last_vertex_feedback
    assert report.head_fanout["lower_ok"]


def test_randomized_move_soundness():
    rng = random.Random(9)
    for _ in range(300):
        g = random_oriented_graph(rng.randrange(4, 8), rng.uniform(0.2, 0.8), rng.randrange(10**6))
        if g.arc_count == 0:
            continue
        w = longest_antipath(g)
        if w.length % 2 == 0:
            continue
        st = build_state(g, w)
        pd = g.degree_profile().min_pseudo_semidegree
        assert not audit_maximality(st, 4, pd).extension_openings
        for s in swaps_of(st):
            assert validate_antipath(g, s).length == st.path.length
        k = st.path.length
        probe = contains_antipath_of_length(g, k + 1)
        assert probe is None  # the oracle agrees nothing longer exists

"""Path-surgery moves on longest alternating paths, and the maximality audit.

All machinery here operates on an odd-length alternating path written so that
its first arc leaves the first vertex. In that normal form the vertices at
even positions all emit and the vertices at odd positions all absorb, so every
path arc runs from the even side to the odd side. One private enumerator per
move yields the sequences it reaches, and each keeps that form:

  * rotations reorder the traversal using a chord from an endpoint, keeping
    the vertex set fixed;
  * endpoint swaps exchange one endpoint for an off-path neighbor of the
    second vertex, keeping the length fixed;
  * the two-vertex insertions splice a pair of head candidates into the path
    around an even "pivot" position, lengthening it by exactly one arc.

Two campaigns read these enumerators: `improve` chains them into a
lengthening heuristic, and `audit_maximality` runs the insertion enumerator
and several arc-counting bounds on a path asserted to be longest. On a
genuinely longest path no lengthening move can exist; anything the audit
finds is reported as data (with the explicit longer path it constructs), not
raised, because a violation only means the input path was not maximal.
`endpoint_chord_exists` walks the rotations for the chord the theorem's
proof needs.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass

from .graphs import OrientedGraph
from .witnesses import AntipathWitness, validate_antipath

# most sequences one rotation BFS visits (the start included)
ROTATION_CAP = 1_000_000


class EvenLengthPathError(ValueError):
    """The rotation machinery is defined only for odd-length paths."""


@dataclass(frozen=True)
class RotationState:
    """A validated path in forward normal form, with its head candidates.

    head_candidates are the in-neighbors of the second vertex lying outside
    the path's tail (positions 2..m); each of them can replace the first
    vertex.
    """

    host: OrientedGraph
    path: AntipathWitness
    head_candidates: frozenset[int]


def _head_candidates(g: OrientedGraph, seq: tuple[int, ...]) -> list[int]:
    return sorted(g.in_neighbors(seq[1]) - set(seq[2:]))


def build_state(g: OrientedGraph, path: AntipathWitness) -> RotationState:
    """Validate, normalize to a forward first arc, and find the head candidates.

    The witness is revalidated against the host (directions are never taken
    on trust) and reversed if its first arc points backward; for odd lengths
    the reversal always yields the forward form. Even lengths are rejected.
    """
    wit = validate_antipath(g, path.vertices)
    if wit.length % 2 == 0:
        raise EvenLengthPathError(f"length {wit.length} is even")
    if not wit.start_forward:
        wit = wit.reversed_()
    seq = wit.vertices
    return RotationState(
        host=g,
        path=wit,
        head_candidates=frozenset(_head_candidates(g, seq)),
    )


# ---------------------------------------------------------------------------
# rotations


def _rotate_start_seq(seq: tuple[int, ...], i: int) -> tuple[int, ...]:
    # chord (first, seq[2i+1]): reverse the prefix up to position 2i
    return tuple(reversed(seq[: 2 * i + 1])) + seq[2 * i + 1 :]


def _rotate_end_seq(seq: tuple[int, ...], i: int) -> tuple[int, ...]:
    # chord (seq[2i], last): reverse the suffix after position 2i
    return seq[: 2 * i + 1] + tuple(reversed(seq[2 * i + 1 :]))


def _rotations(g: OrientedGraph, seq: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """seq, then each new sequence the two rotations reach, breadth first.

    Sequences are deduplicated, and the walk stops after ROTATION_CAP of
    them. It is lazy: a caller that stops early never builds the rest.
    """
    yield seq
    seen = {seq}
    queue = deque([seq])
    while queue:
        cur = queue.popleft()
        m = len(cur) - 1
        first, last = cur[0], cur[m]
        succ = [
            _rotate_start_seq(cur, i)
            for i in range(1, (m - 1) // 2 + 1)
            if g.has_arc(first, cur[2 * i + 1])
        ] + [
            _rotate_end_seq(cur, i)
            for i in range((m - 1) // 2)
            if g.has_arc(cur[2 * i], last)
        ]
        for nxt in succ:
            if nxt in seen:
                continue
            if len(seen) >= ROTATION_CAP:
                return
            seen.add(nxt)
            queue.append(nxt)
            yield nxt


def endpoint_chord_exists(st: RotationState) -> bool:
    """Is there an arc from the first vertex to the penultimate vertex of
    some rotation of the path, or from the second vertex of some rotation to
    the last vertex? The rotations are walked only until one is found.

    On a longest path this must hold whenever the positive-degree floor
    strictly exceeds half the target length; at exact equality there are
    counterexamples (the 3-cycle blow-up), so callers should require the
    strict hypothesis.
    """
    g = st.host
    first = st.path.vertices[0]
    last = st.path.vertices[-1]
    return any(
        g.has_arc(first, s[-2]) or g.has_arc(s[1], last) for s in _rotations(g, st.path.vertices)
    )


# ---------------------------------------------------------------------------
# endpoint swaps (same length, one endpoint exchanged)


def _swap_successors(g: OrientedGraph, seq: tuple[int, ...]) -> list[tuple[int, ...]]:
    m = len(seq) - 1
    v1, vm = seq[1], seq[m]
    on_path = set(seq)
    succ = []
    # tail push: with the chord (v1, last) present, v1 can become penultimate
    # and any off-path out-neighbor w of v1 the new tail
    if g.has_arc(v1, vm):
        for w in sorted(g.out_neighbors(v1) - on_path):
            succ.append(seq[2:] + (v1, w))
    # head replacement: any off-path in-neighbor of v1 can be the new head
    for w in sorted(g.in_neighbors(v1) - on_path):
        succ.append((w,) + seq[1:])
    return succ


# ---------------------------------------------------------------------------
# two-vertex insertions (length + 1)


def _insertions(
    g: OrientedGraph, seq: tuple[int, ...], head: list[int]
) -> Iterator[tuple[int, int, int]]:
    """(v, w, i) with arcs (v, seq[2i]) and (w, seq[2i+1]): the two arcs both
    insertions share. Ordered by i, then v, then w, as head is."""
    m = len(seq) - 1
    for i in range(1, (m - 1) // 2 + 1):
        pivot, after = seq[2 * i], seq[2 * i + 1]
        for v in head:
            if not g.has_arc(v, pivot):
                continue
            for w in head:
                if w != v and g.has_arc(w, after):
                    yield v, w, i


def _pivot_chord_seq(seq: tuple[int, ...], v: int, w: int, i: int) -> tuple[int, ...]:
    # seq[2i-1] ... seq[1]  v  seq[2i]  w  seq[2i+1] ... seq[m]
    return tuple(reversed(seq[1 : 2 * i])) + (v, seq[2 * i], w) + seq[2 * i + 1 :]


def _odd_chords_seq(seq: tuple[int, ...], v: int, w: int, i: int) -> tuple[int, ...]:
    # seq[2i]  v  seq[1] ... seq[2i-1]  w  seq[2i+1] ... seq[m]
    return (seq[2 * i], v) + seq[1 : 2 * i] + (w,) + seq[2 * i + 1 :]


# ---------------------------------------------------------------------------
# heuristic improvement loop


def _endpoint_extension(g: OrientedGraph, wit: AntipathWitness) -> AntipathWitness | None:
    """Grow the path by one vertex at either end; lexicographically least win."""
    seq = wit.vertices
    m = wit.length
    on_path = set(seq)
    first, last = seq[0], seq[m]
    first_emits = wit.start_forward
    # arc directions alternate, so the last arc's direction is set by parity
    last_absorbs = wit.start_forward == (m % 2 == 1)
    candidates: list[tuple[int, ...]] = []
    pool = g.out_neighbors(first) if first_emits else g.in_neighbors(first)
    candidates.extend((w,) + seq for w in pool - on_path)
    pool = g.in_neighbors(last) if last_absorbs else g.out_neighbors(last)
    candidates.extend(seq + (w,) for w in pool - on_path)
    if not candidates:
        return None
    return validate_antipath(g, min(candidates))


def _forward_seq_moves(g: OrientedGraph, seq: tuple[int, ...]) -> AntipathWitness | None:
    """Swap-then-extend and both insertions, on one forward-first sequence."""
    for swapped in _swap_successors(g, seq):
        ext = _endpoint_extension(g, AntipathWitness(swapped, True))
        if ext is not None:
            return ext
    head = _head_candidates(g, seq)
    for v, w, i in _insertions(g, seq, head):
        if g.has_arc(w, seq[2 * i]):
            return validate_antipath(g, _pivot_chord_seq(seq, v, w, i))
    for v, w, i in _insertions(g, seq, head):
        if g.has_arc(w, seq[2 * i - 1]):
            return validate_antipath(g, _odd_chords_seq(seq, v, w, i))
    return None


def _lengthening_move(g: OrientedGraph, wit: AntipathWitness) -> AntipathWitness | None:
    """One lengthening step, cheapest move first.

    Order: direct endpoint extension; then, on the path and on each path its
    rotations reach (breadth first), an endpoint extension, endpoint swaps
    each followed by an extension attempt, the pivot-chord insertion and the
    odd-chords insertion. Returns None when the path cannot be lengthened by
    any of these moves.
    """
    ext = _endpoint_extension(g, wit)
    if ext is not None:
        return ext
    if wit.length % 2 == 0:
        return None
    seq = wit.vertices if wit.start_forward else tuple(reversed(wit.vertices))
    for cur in _rotations(g, seq):
        # the first sequence is seq itself: wit, the same path, did not extend
        if cur is not seq:
            ext = _endpoint_extension(g, AntipathWitness(cur, True))
            if ext is not None:
                return ext
        ext = _forward_seq_moves(g, cur)
        if ext is not None:
            return ext
    return None


def improve(g: OrientedGraph, path: AntipathWitness) -> AntipathWitness:
    """Apply lengthening moves until none fires; never shortens.

    This is a heuristic, not a decision procedure: the exact search remains
    the ground truth it is checked against. Deterministic: all candidate
    enumeration is ordered, ties go to the lexicographically least sequence.
    """
    current = validate_antipath(g, path.vertices)
    while True:
        longer = _lengthening_move(g, current)
        if longer is None:
            return current
        current = longer


# ---------------------------------------------------------------------------
# maximality audit


@dataclass(frozen=True)
class ExtensionOpening:
    """A two-vertex insertion whose preconditions all hold.

    pivot is the index i of the insertion, not a vertex: the pivot vertex is
    path[2i] (the audit JSON field "pivot" holds the same index). On a longest
    path no opening can exist, since firing it yields the recorded longer
    path.
    """

    v: int
    w: int
    pivot: int
    chord: str  # "onto-pivot" or "before-pivot"
    longer_path: AntipathWitness


@dataclass(frozen=True)
class AuditReport:
    """Structural facts about one path asserted to be longest.

    Violations are data, not errors: a non-maximal input legitimately
    produces openings, and graphs below the degree hypothesis legitimately
    overload the counting bounds.
    """

    k: int
    path: AntipathWitness
    head_candidates: tuple[int, ...]
    extension_openings: tuple[ExtensionOpening, ...]
    window_overloads: tuple[dict, ...]
    last_vertex_feedback: tuple[int, ...]
    head_fanout: dict

    @property
    def consistent(self) -> bool:
        return (
            not self.extension_openings
            and not self.window_overloads
            and not self.last_vertex_feedback
            and self.head_fanout["upper_ok"]
            and self.head_fanout["lower_ok"] is not False
        )

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "path": self.path.serialize(),
            "head_candidates": list(self.head_candidates),
            "extension_openings": [
                {
                    "v": o.v,
                    "w": o.w,
                    "pivot": o.pivot,
                    "chord": o.chord,
                    "longer_path": o.longer_path.serialize(),
                }
                for o in self.extension_openings
            ],
            "window_overloads": list(self.window_overloads),
            "last_vertex_feedback": list(self.last_vertex_feedback),
            "head_fanout": self.head_fanout,
            "consistent": self.consistent,
        }


def audit_maximality(st: RotationState, k: int, pd: int) -> AuditReport:
    """Check every consequence of maximality this engine knows about.

    (1) No pair of head candidates may satisfy an insertion's preconditions;
        each opening found is reported together with the longer path the
        corresponding insertion builds.
    (2) Arcs from the head candidates into each aligned window of four path
        positions are counted: at most 2|H|+1 per window, and at most 2|H|
        into the first window (no arc may enter the first vertex at all).
    (3) No arc from a head candidate to the last vertex (it would close an
        alternating cycle one longer than the path).
    (4) Fan-out count: with every out-neighbor of the head candidates inside
        the path (true for longest paths), the candidates send at least
        pd * |H| arcs into it (pd: the host's minimum pseudo-semidegree, as
        the caller computed it), yet the window bounds cap the total at
        (k/2)|H| + (k-4)/4. Both sides are reported; above the degree
        threshold they are contradictory, which is exactly why such graphs
        cannot avoid length-k paths.
    """
    g = st.host
    seq = st.path.vertices
    m = st.path.length
    head = sorted(st.head_candidates)
    hsize = len(head)

    openings: list[ExtensionOpening] = []
    for v, w, i in _insertions(g, seq, head):
        if g.has_arc(w, seq[2 * i - 1]):
            longer = validate_antipath(g, _odd_chords_seq(seq, v, w, i))
            openings.append(ExtensionOpening(v, w, i, "before-pivot", longer))
        if g.has_arc(w, seq[2 * i]):
            longer = validate_antipath(g, _pivot_chord_seq(seq, v, w, i))
            openings.append(ExtensionOpening(v, w, i, "onto-pivot", longer))

    overloads: list[dict] = []
    for i in range((m - 3) // 4 + 1):
        window = seq[4 * i : 4 * i + 4]
        count = sum(1 for f in head for q in window if g.has_arc(f, q))
        bound = 2 * hsize if i == 0 else 2 * hsize + 1
        if count > bound:
            overloads.append({"window_start": 4 * i, "count": count, "bound": bound})

    feedback = tuple(f for f in head if g.has_arc(f, seq[m]))

    on_path = set(seq)
    arcs_in = sum(1 for f in head for q in on_path if g.has_arc(f, q))
    confined = all(g.out_neighbors(f) <= on_path for f in head)
    lower = pd * hsize
    upper_ok = 4 * arcs_in <= 2 * k * hsize + k - 4
    fanout = {
        "size": hsize,
        "arcs_into_path": arcs_in,
        "confined": confined,
        "lower_bound": lower,
        "lower_ok": (arcs_in >= lower) if confined else None,
        "upper_bound": (2 * k * hsize + k - 4) / 4,
        "upper_ok": upper_ok,
    }

    return AuditReport(
        k=k,
        path=st.path,
        head_candidates=tuple(head),
        extension_openings=tuple(openings),
        window_overloads=tuple(overloads),
        last_vertex_feedback=feedback,
        head_fanout=fanout,
    )

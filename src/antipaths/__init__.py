"""Alternating-path machinery for oriented graphs.

Core pieces: the oriented-graph type with its two degree statistics, witness
validation for alternating paths and cycles, an exact backtracking oracle,
the rotation/insertion move engine (public through `build_state`, `improve`,
`audit_maximality` and `endpoint_chord_exists`), extremal and random
constructions, and a campaign harness behind the `antipaths` CLI.
"""

from .constructions import (
    AttemptsExhaustedError,
    cycle_blowup,
    integer_threshold,
    random_oriented_graph,
    random_with_min_pd,
    threshold,
)
from .graphs import (
    AntiparallelArcError,
    DegreeProfile,
    DuplicateArcError,
    EdgeListParseError,
    GraphError,
    OrientedGraph,
    SelfLoopError,
    format_edge_list,
    graph_hash,
    parse_edge_list,
    read_edge_list,
    relabel,
    to_dot,
)
from .oracle import (
    CapExceededError,
    all_longest_antipaths,
    anticycle_lengths,
    contains_antipath_of_length,
    count_oriented_graphs,
    enumerate_oriented_graphs,
    graph_from_code,
    has_anticycle_of_length,
    longest_antipath,
    longest_anticycle,
)
from .rotation import (
    AuditReport,
    EvenLengthPathError,
    ExtensionOpening,
    RotationState,
    audit_maximality,
    build_state,
    endpoint_chord_exists,
    improve,
)
from .witnesses import (
    AlternationBrokenError,
    AnticycleWitness,
    AntipathWitness,
    NotAdjacentError,
    RepeatedVertexError,
    WitnessError,
    WrapAlternationBrokenError,
    antipath_shapes,
    validate_anticycle,
    validate_antipath,
    witness_arcs,
)

__version__ = "0.1.0"

"""Layer spans recorded from outside the package.

The tracer wraps each public layer function at every name it is bound to
(the defining module, every `antipaths.*` module that imported it by name,
and the package namespace), records one span per call, and puts the
original objects back when it is closed. Nothing inside `src/` knows about
it. Spans live in flat arrays while the run lasts and are written out once,
when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array

# (span name, defining module, attribute path). A dotted path names a method.
# The trial workers are private, but they are the unit a record comes from, so
# each gets the shared span name "harness.trial".
TARGETS = (
    ("graphs.adjacency_masks", "antipaths.graphs", "OrientedGraph.adjacency_masks"),
    ("graphs.degree_profile", "antipaths.graphs", "OrientedGraph.degree_profile"),
    ("graphs.graph_hash", "antipaths.graphs", "graph_hash"),
    ("oracle.graph_from_code", "antipaths.oracle", "graph_from_code"),
    ("oracle.longest_antipath", "antipaths.oracle", "longest_antipath"),
    ("oracle.all_longest_antipaths", "antipaths.oracle", "all_longest_antipaths"),
    ("oracle.anticycle_lengths", "antipaths.oracle", "anticycle_lengths"),
    ("oracle.contains_antipath_of_length", "antipaths.oracle", "contains_antipath_of_length"),
    ("constructions.random_with_min_pd", "antipaths.constructions", "random_with_min_pd"),
    ("constructions.random_oriented_graph", "antipaths.constructions", "random_oriented_graph"),
    ("witnesses.validate_antipath", "antipaths.witnesses", "validate_antipath"),
    ("rotation.build_state", "antipaths.rotation", "build_state"),
    ("rotation.audit_maximality", "antipaths.rotation", "audit_maximality"),
    ("harness.trial", "antipaths.harness", "_verify_trial"),
    ("harness.trial", "antipaths.harness", "_exhaustive_trial"),
    ("harness.trial", "antipaths.harness", "_audit_trial"),
    ("harness.trial", "antipaths.harness", "_tightness_record"),
    ("harness.serialize", "antipaths.harness", "serialize_records"),
)


class Tracer:
    """Spans of one traced pass; `install` wraps, `close` restores."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.closure_states = 0
        self.closures_truncated = 0
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn, on_result=None):
        nid = self._name_id(name)
        names, parents, starts, ends, open_ = (
            self.name, self.parent, self.start, self.end, self._open)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _on_state(self, state) -> None:
        self.closure_states += getattr(state, "closure_size", 0)
        self.closures_truncated += bool(getattr(state, "closure_truncated", False))

    # -- wrapping ---------------------------------------------------------

    def install(self) -> "Tracer":
        for name, module_name, attr in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name and module else module
            original = getattr(owner, leaf, None) if owner is not None else None
            if not isinstance(original, types.FunctionType):  # gone, or not a plain function
                self.missing.append(f"{module_name}.{attr}")
                continue
            hook = self._on_state if name == "rotation.build_state" else None
            wrapper = self._wrap(name, original, hook)
            if owner_name:
                self._patch(owner, leaf, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "antipaths" and not mod_name.startswith("antipaths."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        return self

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def close(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- reading ----------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: calls and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, so self times over all spans add up to the root spans.
        Also returns the root-span total and every trial duration.
        """
        count = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0.0] * count
        roots = 0.0
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
            else:
                roots += dur[i]
        per_name = {name: [0, 0.0] for name in self.names}
        trial_id = self._name_ids.get("harness.trial")
        trials = []
        for i in range(count):
            row = per_name[self.names[self.name[i]]]
            row[0] += 1
            row[1] += dur[i] - child[i]
            if self.name[i] == trial_id:
                trials.append(dur[i])
        return {"per_name": per_name, "roots_s": roots, "trial_s": trials}

    def write(self, path: str) -> None:
        """All spans as CSV: id, parent id, name, start and end in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,name,start_s,end_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.parent[i]},{self.names[self.name[i]]},"
                         f"{self.start[i]!r},{self.end[i]!r}\n")

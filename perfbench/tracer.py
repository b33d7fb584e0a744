"""Span tracing from outside the program.

The package imports its collaborators by name (``from .x import y``), so a
function is wrapped where it is *looked up*: in the namespace of each
consuming module, e.g. ``variety.det`` and ``rationalmaps.det`` for
``exactmath.det``.  Every call of a wrapped name records one span: name,
start, end and the index of the enclosing span.  Spans are kept in flat
arrays while the run goes on and written out when it ends.
"""

from __future__ import annotations

import gzip
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field

# (consuming module, attribute, span name).  The span name says which
# module defines the function; the first two fields say where it is
# patched.  Targets absent from the program are skipped, so a later
# version that drops a call site still traces the rest.
TARGETS = (
    ("variety", "det", "exactmath.det"),
    ("rationalmaps", "det", "exactmath.det"),
    ("forge", "integer_sqrt", "exactmath.integer_sqrt"),
    ("rationalmaps", "interpolate", "exactmath.interpolate"),
    ("variety", "bracket_cofactors", "variety.bracket_cofactors"),
    ("rationalmaps", "bracket_cofactors", "variety.bracket_cofactors"),
    ("rationalmaps", "on_quadric_variety", "variety.on_quadric_variety"),
    ("rationalmaps", "on_certificate_variety", "variety.on_certificate_variety"),
    ("forge", "parametrize_quadric", "rationalmaps.parametrize_quadric"),
    ("forge", "parametrize_plane", "rationalmaps.parametrize_plane"),
    ("forge", "quadric_to_certificate_raw", "rationalmaps.quadric_to_certificate_raw"),
    ("rationalmaps", "quadric_to_certificate_raw", "rationalmaps.quadric_to_certificate_raw"),
    ("forge", "quadric_to_certificate", "rationalmaps.quadric_to_certificate"),
    ("forge", "classify_trivial", "forge.classify_trivial"),
    ("cli", "construct_witness", "forge.construct_witness"),
    ("cli", "verify_witness", "forge.verify_witness"),
    ("cli", "brute_force_search", "forge.brute_force_search"),
    ("cli", "twist_points", "twist.twist_points"),
    ("cli", "witness_document", "cli.witness_document"),
    ("cli", "parse_witness_document", "cli.parse_witness_document"),
    ("cli", "main", "cli.main"),
)


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.nones = array("q")  # per name: calls that returned None
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.nones.append(0)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        clock = time.perf_counter_ns
        stack = self._stack
        name_id, parent, start, end, nones = (
            self.name_id, self.parent, self.start, self.end, self.nones
        )

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if result is None:
                nones[nid] += 1
            return result

        return traced

    @contextmanager
    def patched(self, modules: dict):
        """Wrap every target present in ``modules`` (name -> module object)
        and put the original objects back on exit, also after an error."""
        saved = []
        try:
            for mod_name, attr, span in TARGETS:
                mod = modules.get(mod_name)
                if mod is None or not hasattr(mod, attr):
                    continue
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(span, original))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def __len__(self) -> int:
        return len(self.start)

    def write_tsv(self, path) -> None:
        """Gzipped, one line per span: id, parent id (-1 for a root), name,
        start and end in ns relative to the first span."""
        base = self.start[0] if len(self.start) else 0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.name_id[i]]}\t"
                    f"{self.start[i] - base}\t{self.end[i] - base}\n"
                )


@dataclass
class SpanStats:
    calls: int = 0
    total_ns: int = 0
    # time not covered by child spans of *other* modules, i.e. the time
    # the module spent in its own code (including its own helpers)
    self_ns: int = 0
    nones: int = 0
    # for each tagged caller: time of this name's spans whose nearest
    # tagged ancestor is that caller
    under_ns: dict = field(default_factory=dict)


def _module(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def aggregate(tracer: Tracer, caller_tags: dict[str, str]) -> dict[str, SpanStats]:
    """Per-name totals, module self time, and time under tagged callers.

    ``caller_tags`` maps a span name to a tag; every span is attributed to
    the tag of its nearest enclosing tagged span (if any).
    """
    n = len(tracer)
    names, name_id, parent = tracer.names, tracer.name_id, tracer.parent
    start, end = tracer.start, tracer.end
    module_of = [_module(s) for s in names]
    tags = [None, *sorted(set(caller_tags.values()))]
    tag_of = [tags.index(caller_tags[s]) if s in caller_tags else 0 for s in names]
    foreign_child = array("q", bytes(8 * n))
    nearest_tag = array("b", bytes(n))  # index into tags, 0 for none
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        pid = name_id[p]
        if module_of[name_id[i]] != module_of[pid]:
            foreign_child[p] += end[i] - start[i]
        # parents precede children, so the parent's tag is already known
        nearest_tag[i] = tag_of[pid] or nearest_tag[p]

    stats = {name: SpanStats(nones=tracer.nones[k]) for k, name in enumerate(names)}
    for i in range(n):
        s = stats[names[name_id[i]]]
        dur = end[i] - start[i]
        s.calls += 1
        s.total_ns += dur
        s.self_ns += dur - foreign_child[i]
        if nearest_tag[i]:
            tag = tags[nearest_tag[i]]
            s.under_ns[tag] = s.under_ns.get(tag, 0) + dur
    return stats

"""Spans recorded from outside the program, around every public tricolor call.

:class:`Tracer` wraps each public function of the package modules, plus
``Graph.canonical_hash`` and the ``ColoringCertificate`` JSON methods, in
every module namespace that holds a reference to it.  Each call appends one
span (name, start, end, parent) to in-memory arrays; nothing is aggregated
or written while spans are being recorded.  :func:`summarize` turns the
spans into self time, busy time, call counts and hit counts.

Self time of a span is its duration minus the durations of its direct
children.  Busy time of a layer counts only its outermost spans, so a layer
calling itself is not counted twice.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import types
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("graph", "patterns", "cutsets", "recognition", "coloring", "pipeline", "cli", "generators")


class Tracer:
    """In-memory span recorder; install it with :meth:`installed`."""

    def __init__(self, extra_modules=(), extra_functions=()) -> None:
        """``extra_modules`` are scanned for tricolor functions imported by
        name; ``extra_functions`` are (owner, attribute, span name) triples
        for calls outside the package, such as the JSON codec."""
        self.extra_modules = tuple(extra_modules)
        self.extra_functions = tuple(extra_functions)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.hit = array("b")
        self._stack = [-1]
        self._patches = None

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of benchmark code."""
        idx = self._open(self._intern(name))
        try:
            yield idx
        finally:
            self._close(idx)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.hit.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """``fn`` recording a span per call, flagged as a hit when it
        returns something other than None or False."""
        nid = self._intern(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if result is not None and result is not False:
                self.hit[idx] = 1
            return result

        return functools.wraps(fn)(traced)

    @contextmanager
    def installed(self):
        """Wrap every public tricolor function for the duration of the block."""
        if self._patches is None:
            self._patches = _plan_patches(self, self.extra_modules) + [
                (owner, attr, getattr(owner, attr), self.wrap(name, getattr(owner, attr)))
                for owner, attr, name in self.extra_functions]
        patches = self._patches
        for owner, attr, _, new in patches:
            setattr(owner, attr, new)
        try:
            yield self
        finally:
            for owner, attr, old, _ in reversed(patches):
                setattr(owner, attr, old)

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([self.names[self.name_id[i]], self.start[i],
                                     self.end[i], self.parent[i]]))
                fh.write("\n")


def _plan_patches(tracer: Tracer, extra_modules):
    """(owner, attribute, original, wrapper) for every reference to patch.

    Modules import functions by name (``pipeline`` holds its own reference to
    ``find_clique_cutset``), so every tricolor namespace is scanned for
    references to each wrapped function, not only the defining module.
    """
    import tricolor
    from tricolor.graph import Graph
    from tricolor.pipeline import ColoringCertificate

    modules = [m for name, m in sorted(sys.modules.items())
               if name == "tricolor" or name.startswith("tricolor.")]
    modules.extend(extra_modules)
    wrapped = {}
    for layer in LAYERS:
        mod = getattr(tricolor, layer)
        for attr, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                wrapped[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
    patches = []
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                patches.append((mod, attr, obj, wrapped[id(obj)][1]))
    hash_fn = Graph.__dict__["canonical_hash"]
    patches.append((Graph, "canonical_hash", hash_fn,
                    tracer.wrap("graph.canonical_hash", hash_fn)))
    to_json = ColoringCertificate.__dict__["to_json"]
    patches.append((ColoringCertificate, "to_json", to_json,
                    tracer.wrap("pipeline.ColoringCertificate.to_json", to_json)))
    from_json = ColoringCertificate.__dict__["from_json"]
    patches.append((ColoringCertificate, "from_json", from_json, classmethod(
        tracer.wrap("pipeline.ColoringCertificate.from_json", from_json.__func__))))
    return patches


class Summary:
    """Per-name totals over a set of root spans.

    ``self_s[name]``, ``calls[name]`` and ``hits[name]`` sum over all spans
    below the chosen roots; ``item_self[root][name]`` keeps self time per
    root span, for fitting growth against input size; ``layer_busy[layer]`` is the time at
    least one span of that layer was open; ``root_busy`` and ``root_self``
    are the roots' own duration and unattributed time.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.hits: dict[str, int] = defaultdict(int)
        self.item_self: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.layer_busy: dict[str, float] = defaultdict(float)
        self.root_busy = 0.0
        self.root_self = 0.0


def summarize(tracer: Tracer, roots) -> Summary:
    """Aggregate the spans below the given root span indices.

    Roots are spans the benchmark opened around one operation on one input;
    their own self time is the part of the operation no wrapped call covers.
    """
    roots = set(roots)
    names, nid, parent = tracer.names, tracer.name_id, tracer.parent
    start, end = tracer.start, tracer.end
    count = len(start)
    child_sum = [0.0] * count
    for i in range(count):
        p = parent[i]
        if p >= 0:
            child_sum[p] += end[i] - start[i]
    out = Summary()
    root_of = [-1] * count
    open_layers: list = [None] * count  # layers with a span open at or above each span
    layer_of = [n.split(".", 1)[0] for n in names]
    for i in range(count):
        p = parent[i]
        if i in roots:
            root_of[i] = i
            above = frozenset()
        elif p >= 0 and root_of[p] >= 0:
            root_of[i] = root_of[p]
            above = open_layers[p]
        else:
            continue
        dur = end[i] - start[i]
        self_time = dur - child_sum[i]
        if i in roots:
            out.root_busy += dur
            out.root_self += self_time
            open_layers[i] = above
            continue
        name = names[nid[i]]
        layer = layer_of[nid[i]]
        out.self_s[name] += self_time
        out.calls[name] += 1
        out.hits[name] += tracer.hit[i]
        out.item_self[root_of[i]][name] += self_time
        if layer not in above:
            out.layer_busy[layer] += dur
            above = above | {layer}
        open_layers[i] = above
    return out

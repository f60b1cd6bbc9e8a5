"""Core graph representation and degree-peeling primitives.

Everything downstream works on :class:`Graph`: an immutable simple undirected
graph with stable integer vertex ids.  Stability matters: induced subgraphs
keep the parent's ids, so colorings computed on pieces can be merged without
translation tables, and a peel is recorded as its removal order alone: the
neighbours a vertex had when it was removed are read back off the graph.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

from .errors import MalformedInputError

__all__ = [
    "Graph",
    "build_graph",
    "induced_subgraph",
    "peel_low_degree",
    "connected_components",
    "is_connected",
]

# A peeled vertex keeps at most this many neighbors, so replaying the peel
# in reverse always finds one of three colors free.
PEEL_DEGREE = 2


class Graph:
    """Immutable simple undirected graph.

    Invariants: no self-loops, no parallel edges, symmetric adjacency, and
    ``m`` equals half the degree sum.  Instances are safe to share across
    threads; all construction goes through :func:`build_graph`,
    :func:`induced_subgraph`, :meth:`from_adjacency` or
    :func:`~tricolor.recognition.reconstruct_line_graph_root`, which builds
    a line graph's root from its one-to-one vertex-to-edge map.
    """

    __slots__ = ("_adj", "_vertices", "m")

    def __init__(self, adj: Dict[int, Tuple[int, ...]], m: int):
        # Private: callers use the factory functions below.
        self._adj = adj
        self._vertices = tuple(sorted(adj))
        self.m = m

    @classmethod
    def from_adjacency(cls, adj: Dict[int, Iterable[int]]) -> "Graph":
        """Build from an id -> neighbor-iterable mapping (validated)."""
        clean: Dict[int, Tuple[int, ...]] = {}
        deg_sum = 0
        for v, nbrs in adj.items():
            ns = tuple(sorted(set(nbrs)))
            if v in ns:
                raise MalformedInputError(f"self-loop at vertex {v}")
            clean[v] = ns
            deg_sum += len(ns)
        for v, ns in clean.items():
            for u in ns:
                if u not in clean or not _sorted_contains(clean[u], v):
                    raise MalformedInputError(f"asymmetric adjacency {v}-{u}")
        if deg_sum % 2:
            raise MalformedInputError("odd degree sum")
        return cls(clean, deg_sum // 2)

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def vertices(self) -> Tuple[int, ...]:
        return self._vertices

    def neighbors(self, v: int) -> Tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        if u not in self._adj:
            return False
        return _sorted_contains(self._adj[u], v)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Yield edges as (u, v) with u < v, in sorted order."""
        for u in self._vertices:
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def min_degree(self) -> int:
        return min((len(ns) for ns in self._adj.values()), default=0)

    def max_degree(self) -> int:
        return max((len(ns) for ns in self._adj.values()), default=0)

    def canonical_hash(self) -> str:
        """SHA-256 of ``json.dumps({"vertices": [...], "edges": [[u, v], ...]},
        separators=(",", ":"))``, edges in ``edges()`` order; the text is written directly.
        """
        edges = ",".join([f"[{u},{v}]" for u in self._vertices for v in self._adj[u] if u < v])
        payload = '{"vertices":[%s],"edges":[%s]}' % (",".join(map(str, self._vertices)), edges)
        return hashlib.sha256(payload.encode()).hexdigest()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self._vertices, self.m))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _sorted_contains(seq: Sequence[int], x: int) -> bool:
    i = bisect_left(seq, x)
    return i < len(seq) and seq[i] == x


def build_graph(edge_list: Iterable[Tuple[int, int]], n: int) -> Graph:
    """Build a Graph on vertex ids ``0..n-1`` from an edge list.

    Duplicate edges are collapsed silently; self-loops and out-of-range ids
    are rejected.
    """
    if n < 0:
        raise MalformedInputError(f"negative vertex count {n}")
    adj: List[List[int]] = [[] for _ in range(n)]
    for u, v in edge_list:
        if u == v:
            raise MalformedInputError(f"self-loop at vertex {u}")
        if not (0 <= u < n) or not (0 <= v < n):
            raise MalformedInputError(f"edge ({u},{v}) out of range [0,{n})")
        adj[u].append(v)
        adj[v].append(u)
    final = {v: tuple(sorted(set(ns))) for v, ns in enumerate(adj)}
    return Graph(final, sum(map(len, final.values())) // 2)


def json_int(value: object, what: str) -> int:
    """``value`` if it is a JSON integer (not a bool or float), else ValueError."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def induced_subgraph(g: Graph, s: Iterable[int]) -> Graph:
    """Induced subgraph on vertex set ``s``; original ids are preserved.

    Each kept vertex scans the shorter of its neighbour list and the kept set.
    A Graph is immutable, so the whole vertex set gives back g itself.
    """
    keep = set(s)
    if len(keep) == g.n and keep.issuperset(g.vertices):
        return g
    kept = sorted(keep)
    adj: Dict[int, Tuple[int, ...]] = {}
    deg_sum = 0
    for v in kept:
        if not g.has_vertex(v):
            raise MalformedInputError(f"vertex {v} not in graph")
        ns = g.neighbors(v)
        if len(ns) <= len(kept):
            ns = tuple(u for u in ns if u in keep)
        else:
            ns = tuple(u for u in kept if _sorted_contains(ns, u))
        adj[v] = ns
        deg_sum += len(ns)
    return Graph(adj, deg_sum // 2)


def peel_low_degree(g: Graph, bound: int = PEEL_DEGREE) -> Tuple[Graph, Tuple[int, ...]]:
    """Remove vertices of degree <= ``bound`` until none remain.

    Returns the residual and the removal order; with bound 1 the residual
    is the 2-core.  The lowest eligible id goes first, so the order is
    deterministic.  A vertex's neighbours at removal time are its
    neighbours in ``g`` outside the vertices removed before it, which is all
    the reverse color-replay needs.  Degrees only fall, so a vertex enters
    the heap once: at the start or when its degree first drops to the bound.
    """
    adj = g._adj
    deg = {v: len(ns) for v, ns in adj.items()}
    heap = [v for v, d in deg.items() if d <= bound]
    heapify(heap)
    order: List[int] = []
    while heap:
        v = heappop(heap)
        order.append(v)
        del deg[v]  # deg keeps the vertices not yet removed
        for u in adj[v]:
            if u in deg:
                d = deg[u] - 1
                deg[u] = d
                if d == bound:
                    heappush(heap, u)
    return (induced_subgraph(g, deg) if deg else Graph({}, 0)), tuple(order)


def connected_components(g: Graph, without: Iterable[int] = ()) -> List[Tuple[int, ...]]:
    """Partition of the vertices outside ``without`` into maximal connected sets.

    The search skips the vertices of ``without``, so g - without is never
    built.  Each component is sorted by id, and the list is sorted by smallest
    member: a search starts only at the smallest vertex not yet reached.
    """
    seen: Set[int] = set(without)
    comps: List[Tuple[int, ...]] = []
    for start in g.vertices:
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        comp = [start]
        while stack:
            v = stack.pop()
            for u in g.neighbors(v):
                if u not in seen:
                    seen.add(u)
                    comp.append(u)
                    stack.append(u)
        comps.append(tuple(sorted(comp)))
    return comps


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) <= 1

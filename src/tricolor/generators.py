"""Seeded generators for class members and planted non-members.

Membership strategy per kind:

* series-parallel outputs are triangle-free by construction (series splits,
  parallel four-cycles, pendants), which together with K4-minor-freeness
  puts them in the class outright;
* line graphs of subdivided cubic graphs are checked against the pattern
  oracles before being emitted;
* glued composites are members by construction once the polynomial
  oracles pass: an induced K4 subdivision has no clique cutset, so it cannot
  straddle a one-vertex or one-edge glue of two members; only a diamond or
  a bowtie can, and candidates with either are rejected and redrawn.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ContractViolationError, GenerationError
from .graph import Graph, build_graph, is_connected
from .patterns import (
    DEFAULT_EXACT_BUDGET,
    find_diamond_or_bowtie,
    verify_membership,
)

__all__ = [
    "gen_series_parallel",
    "gen_line_of_subdivided_cubic",
    "gen_glue",
    "gen_nonmember",
    "random_cubic_graph",
    "subdivide",
    "line_graph",
]

CUBIC_TRIES = 2000
GLUE_TRIES = 64


def gen_series_parallel(seed: int, n: int) -> Graph:
    """Random triangle-free series-parallel graph on n vertices.

    Grown from a single edge by three moves: subdivide a random edge, attach
    a parallel two-vertex path across a random edge (a four-cycle, never a
    triangle), or hang a pendant vertex.  All three preserve both
    K4-minor-freeness and triangle-freeness, so the output is always a class
    member.
    """
    if n < 1:
        raise ContractViolationError("series-parallel generator needs n >= 1")
    if n == 1:
        return build_graph([], 1)
    rng = random.Random(seed)
    edges: List[Tuple[int, int]] = [(0, 1)]
    count = 2
    while count < n:
        room = n - count
        roll = rng.random()
        if roll < 0.45 and room >= 2:
            u, v = edges[rng.randrange(len(edges))]
            w, x = count, count + 1
            edges.extend([(u, w), (w, x), (x, v)])
            count += 2
        elif roll < 0.85:
            idx = rng.randrange(len(edges))
            u, v = edges[idx]
            w = count
            edges[idx] = (u, w)
            edges.append((w, v))
            count += 1
        else:
            u = rng.randrange(count)
            edges.append((u, count))
            count += 1
    return build_graph(edges, n)


def random_cubic_graph(seed: int, k: int) -> Graph:
    """Random simple connected 3-regular graph on k vertices (k even, >= 4)."""
    if k < 4 or k % 2:
        raise ContractViolationError("cubic graphs need an even order of at least 4")
    rng = random.Random(seed)
    stubs = [v for v in range(k) for _ in range(3)]
    for _ in range(CUBIC_TRIES):
        rng.shuffle(stubs)
        pairs = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
        edge_set = {(min(u, v), max(u, v)) for u, v in pairs}
        if any(u == v for u, v in pairs) or len(edge_set) != len(pairs):
            continue
        g = build_graph(sorted(edge_set), k)
        if is_connected(g):
            return g
    raise GenerationError(f"no simple connected cubic graph found for seed {seed}, k={k}")


def subdivide(g: Graph, double_edge: Optional[Tuple[int, int]] = None) -> Graph:
    """Subdivide every edge once; the chosen edge, if any, twice."""
    double = None
    if double_edge is not None:
        double = (min(double_edge), max(double_edge))
        if not g.has_edge(*double):
            raise ContractViolationError(f"edge {double} not in graph")
    edges: List[Tuple[int, int]] = []
    nxt = (max(g.vertices) + 1) if g.n else 0
    for u, v in g.edges():
        if (u, v) == double:
            a, b = nxt, nxt + 1
            nxt += 2
            edges.extend([(u, a), (a, b), (b, v)])
        else:
            a = nxt
            nxt += 1
            edges.extend([(u, a), (a, v)])
    return build_graph(edges, nxt)


def line_graph(h: Graph) -> Graph:
    """Line graph of h, with vertices numbered by h's sorted edge list."""
    h_edges = list(h.edges())
    index = {e: i for i, e in enumerate(h_edges)}
    incident: Dict[int, List[int]] = {v: [] for v in h.vertices}
    for e, i in index.items():
        incident[e[0]].append(i)
        incident[e[1]].append(i)
    edges = set()
    for ids in incident.values():
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                a, b = ids[i], ids[j]
                edges.add((min(a, b), max(a, b)))
    return build_graph(sorted(edges), len(h_edges))


def gen_line_of_subdivided_cubic(
    seed: int,
    base: Graph,
    double_one_edge: bool = False,
    budget: int = DEFAULT_EXACT_BUDGET,
) -> Graph:
    """Line graph of the base cubic graph with every edge subdivided.

    One random edge is subdivided twice when requested.  The output is
    checked before being emitted: by :func:`verify_membership` when it fits
    the budget, else by the polynomial oracles alone.
    """
    if any(base.degree(v) != 3 for v in base.vertices) or not is_connected(base):
        raise ContractViolationError("base graph must be connected and cubic")
    rng = random.Random(seed)
    double = None
    if double_one_edge:
        base_edges = list(base.edges())
        double = base_edges[rng.randrange(len(base_edges))]
    out = line_graph(subdivide(base, double))
    if out.n <= budget:
        report = verify_membership(out, budget=budget)
        if report.verdict != "member":
            raise GenerationError(f"oracle rejected generated line graph: {report.verdict}")
    elif find_diamond_or_bowtie(out) is not None:
        raise GenerationError("line-graph construction produced a forbidden pattern")
    return out


def gen_glue(seed: int, parts: Sequence[Graph], mode: str = "vertex") -> Graph:
    """Identify a random vertex (or edge) across two member graphs.

    Candidate glues are rejected while the polynomial oracles find a diamond
    or a bowtie (gluing inside triangles creates them).  A candidate with
    neither is a member: the glue is a clique cutset, which no induced K4
    subdivision has, so no subdivision oracle runs.
    """
    if len(parts) != 2:
        raise ContractViolationError("glue expects exactly two parts")
    if mode not in ("vertex", "edge"):
        raise ContractViolationError(f"unknown glue mode {mode!r}")
    g1, g2 = parts
    if not g1.m or not g2.m:
        # A vertex glue keeps only edge endpoints, so edgeless parts would vanish.
        raise ContractViolationError("glue needs edges on both sides")
    e1 = list(g1.edges())
    off = max(g1.vertices) + 1
    e2 = [(u + off, v + off) for u, v in g2.edges()]
    rng = random.Random(seed)
    for _ in range(GLUE_TRIES):
        if mode == "vertex":
            v1 = g1.vertices[rng.randrange(g1.n)]
            v2 = g2.vertices[rng.randrange(g2.n)] + off
            ident = {v2: v1}
        else:
            a1, b1 = e1[rng.randrange(len(e1))]
            a2, b2 = e2[rng.randrange(len(e2))]
            if rng.random() < 0.5:
                a2, b2 = b2, a2
            ident = {a2: a1, b2: b1}
        merged = []
        for u, v in e1 + e2:
            u, v = ident.get(u, u), ident.get(v, v)
            if u != v:
                merged.append((u, v))
        used = sorted({x for e in merged for x in e})
        pack = {x: i for i, x in enumerate(used)}
        candidate = build_graph([(pack[u], pack[v]) for u, v in merged], len(used))
        if find_diamond_or_bowtie(candidate) is None:
            return candidate
    raise GenerationError(f"glue rejected {GLUE_TRIES} times for seed {seed}")


_PATTERNS: Dict[str, Tuple[int, List[Tuple[int, int]]]] = {
    "diamond": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
    "bowtie": (5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]),
}


def gen_nonmember(seed: int, kind: str, size: Optional[int] = None) -> Graph:
    """Plant a forbidden pattern inside random pendant-tree padding.

    Padding attaches each new vertex to a single random existing one, so it
    never adds triangles and the planted pattern stays induced.
    """
    rng = random.Random(seed)
    if kind in _PATTERNS:
        base_n, edges = _PATTERNS[kind]
        edges = list(edges)
    elif kind == "isk4":
        k4 = build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 4)
        sub = subdivide(k4)
        base_n, edges = sub.n, list(sub.edges())
    else:
        raise ContractViolationError(f"unknown non-member kind {kind!r}")
    total = size if size is not None else base_n + rng.randrange(3, 9)
    if total < base_n:
        raise ContractViolationError(f"size {total} below pattern order {base_n}")
    for v in range(base_n, total):
        edges.append((rng.randrange(v), v))
    return build_graph(edges, total)

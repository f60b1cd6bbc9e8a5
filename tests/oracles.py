"""Brute-force reference oracles, kept independent of the library's own paths.

Everything here favors obviousness over speed: plain subset enumeration,
backtracking, and networkx isomorphism checks.  These establish the expected
values that the fast implementations are tested against.
"""

from collections import Counter
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Set, Tuple

import networkx as nx

from tricolor import (
    ContractViolationError,
    Graph,
    Proper2Cutset,
    RootGraph,
    build_graph,
    connected_components,
    induced_subgraph,
    is_connected,
)


def to_nx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(g.vertices)
    out.add_edges_from(g.edges())
    return out


def find_induced_copy(g: Graph, pattern: Graph) -> Optional[Tuple[int, ...]]:
    """Least vertex subset whose induced subgraph is isomorphic to pattern."""
    target = to_nx(pattern)
    for subset in sorted(combinations(g.vertices, pattern.n)):
        sub = induced_subgraph(g, subset)
        if sub.m != pattern.m:
            continue
        if nx.is_isomorphic(to_nx(sub), target):
            return tuple(subset)
    return None


def is_subdivision_of_k4(h: Graph) -> bool:
    """Contract degree-2 vertices in a multigraph until stuck; compare to K4."""
    if h.n == 0 or h.m != h.n + 2:
        return False
    if not nx.is_connected(to_nx(h)):
        return False
    adj: Dict[int, Counter] = {v: Counter() for v in h.vertices}
    for u, v in h.edges():
        adj[u][v] += 1
        adj[v][u] += 1
    while True:
        degree2 = [
            v for v in adj if sum(adj[v].values()) == 2 and len(adj[v]) == 2
        ]
        if not degree2:
            break
        v = degree2[0]
        x, y = list(adj[v])
        del adj[x][v]
        del adj[y][v]
        del adj[v]
        adj[x][y] += 1
        adj[y][x] += 1
    return len(adj) == 4 and all(
        sum(c.values()) == 3 and len(c) == 3 for c in adj.values()
    )


def brute_isk4(g: Graph) -> Optional[Tuple[int, ...]]:
    """Least subset inducing a subdivision of K4, by full subset enumeration."""
    verts = list(g.vertices)
    best = None
    for r in range(4, len(verts) + 1):
        for subset in combinations(verts, r):
            if is_subdivision_of_k4(induced_subgraph(g, subset)):
                cand = tuple(subset)
                if best is None or cand < best:
                    best = cand
    return best


def has_k4_minor(g: Graph) -> bool:
    """Topological search: four corners joined by internally disjoint paths.

    Valid for K4 because its maximum degree is three, so minor and
    topological containment coincide.
    """
    verts = list(g.vertices)
    if len(verts) < 4:
        return False
    for corners in combinations(verts, 4):
        corner_set = set(corners)
        pool = [v for v in verts if v not in corner_set]
        pairs = list(combinations(corners, 2))

        def place(idx: int, used: Set[int]) -> bool:
            if idx == len(pairs):
                return True
            a, b = pairs[idx]
            if g.has_edge(a, b) and place(idx + 1, used):
                return True

            def dfs(cur: int, internal: Set[int]) -> bool:
                for nxt in g.neighbors(cur):
                    if nxt == b and internal:
                        if place(idx + 1, used | internal):
                            return True
                    elif nxt in pool and nxt not in internal and nxt not in used:
                        if dfs(nxt, internal | {nxt}):
                            return True
                return False

            return dfs(a, set())

        if place(0, set()):
            return True
    return False


def edge_coloring_search(
    h: Graph,
    marked: Optional[Tuple[Tuple[int, int], Tuple[int, int]]] = None,
    want_equal: Optional[bool] = None,
) -> Optional[Dict[Tuple[int, int], int]]:
    """Backtracking proper 3-edge-coloring, optionally pinning two edges'
    colors equal or unequal."""
    edges = list(h.edges())
    idx = {e: i for i, e in enumerate(edges)}
    at_vertex: Dict[int, List[int]] = {v: [] for v in h.vertices}
    for e, i in idx.items():
        at_vertex[e[0]].append(i)
        at_vertex[e[1]].append(i)
    colors: List[Optional[int]] = [None] * len(edges)
    m1 = idx[tuple(sorted(marked[0]))] if marked else None
    m2 = idx[tuple(sorted(marked[1]))] if marked else None

    def ok(i: int, c: int) -> bool:
        u, v = edges[i]
        for j in at_vertex[u] + at_vertex[v]:
            if j != i and colors[j] == c:
                return False
        if marked and {i} <= {m1, m2}:
            other = m2 if i == m1 else m1
            if colors[other] is not None:
                if want_equal and colors[other] != c:
                    return False
                if not want_equal and colors[other] == c:
                    return False
        return True

    def bt(i: int) -> bool:
        if i == len(edges):
            return True
        for c in range(3):
            if ok(i, c):
                colors[i] = c
                if bt(i + 1):
                    return True
                colors[i] = None
        return False

    if bt(0):
        return {e: colors[i] for e, i in idx.items()}
    return None


def edge_color_sparse_reference(h: Graph) -> Dict[Tuple[int, int], int]:
    """The two-pass sparse edge coloring, recomputing free colors edge by edge.

    Same choices as :func:`tricolor.edge_color_sparse`: hub edges in id
    order, each the least color free at both ends or else alpha after an
    alpha/beta swap on the two-colored path from the non-hub end, then
    every other edge greedily.  The input must be sparse and subcubic.
    """
    colors: Dict[Tuple[int, int], int] = {}

    def key(u: int, v: int) -> Tuple[int, int]:
        return (u, v) if u < v else (v, u)

    def free(v: int) -> List[int]:
        taken = {colors.get(key(v, x)) for x in h.neighbors(v)}
        return [c for c in (0, 1, 2) if c not in taken]

    for u in h.vertices:
        if h.degree(u) != 3:
            continue
        for w in h.neighbors(u):
            free_u, free_w = free(u), free(w)
            common = [c for c in free_u if c in free_w]
            if not common:
                alpha, beta = free_u[0], free_w[0]
                start = next(key(w, x) for x in h.neighbors(w)
                             if colors.get(key(w, x)) == alpha)
                comp, stack = {start}, [start]
                while stack:
                    for x in stack.pop():
                        for y in h.neighbors(x):
                            e = key(x, y)
                            if e not in comp and colors.get(e) in (alpha, beta):
                                comp.add(e)
                                stack.append(e)
                for e in comp:
                    colors[e] = beta if colors[e] == alpha else alpha
                common = [alpha]
            colors[key(u, w)] = common[0]
    for u, w in h.edges():
        if (u, w) not in colors:
            colors[(u, w)] = min(set(free(u)) & set(free(w)))
    return colors


def brute_chromatic(g: Graph) -> int:
    """Chromatic number by increasing-k backtracking on vertices."""
    if g.n == 0:
        return 0
    if g.m == 0:
        return 1
    verts = list(g.vertices)

    def colorable(k: int) -> bool:
        assigned: Dict[int, int] = {}

        def bt(i: int) -> bool:
            if i == len(verts):
                return True
            v = verts[i]
            used = {assigned[u] for u in g.neighbors(v) if u in assigned}
            for c in range(min(k, i + 1)):
                if c not in used:
                    assigned[v] = c
                    if bt(i + 1):
                        return True
                    del assigned[v]
            return False

        return bt(0)

    k = 2
    while not colorable(k):
        k += 1
    return k


def is_bipartite(g: Graph) -> bool:
    return nx.is_bipartite(to_nx(g))


def complete_bipartite_sides(
    g: Graph,
) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """(A, B) with the first vertex in A and every A-B pair an edge, none inside.

    Tries every B among the other vertices.  At most one B fits: an edgeless
    graph needs B empty, and otherwise every vertex has a neighbor, which
    fixes its side.
    """
    if not g.n:
        return (), ()
    first, rest = g.vertices[0], g.vertices[1:]
    for k in range(len(rest) + 1):
        for side_b in combinations(rest, k):
            side_a = tuple(v for v in g.vertices if v not in side_b)
            across = {(min(u, v), max(u, v)) for u in side_a for v in side_b}
            if set(g.edges()) == across:
                assert first in side_a
                return side_a, side_b
    return None


def has_triangle(g: Graph) -> bool:
    return any(
        True
        for u, v in g.edges()
        for w in g.neighbors(u)
        if w != v and g.has_edge(v, w)
    )


def triangle_pairs_reference(g: Graph):
    """Every pair of triangles at one vertex, by testing each pair of its neighbours."""
    for c in g.vertices:
        tris = [(x, y) for x, y in combinations(g.neighbors(c), 2) if g.has_edge(x, y)]
        for t1, t2 in combinations(tris, 2):
            yield c, t1, t2


def replay_removals(g: Graph, residual: Graph, order: Sequence[int]) -> Graph:
    """Invert a peel of an induced subgraph of g: add ``order`` back in reverse.

    Each replayed vertex gets its edges in g to the vertices already present,
    and there must be at most two of them, as when the peel removed it.
    """
    adj: Dict[int, Set[int]] = {v: set(residual.neighbors(v)) for v in residual.vertices}
    for v in reversed(order):
        if v in adj:
            raise ContractViolationError(f"vertex {v} already present during replay")
        adj[v] = {u for u in g.neighbors(v) if u in adj}
        if len(adj[v]) > 2:
            raise ContractViolationError(
                f"replayed vertex {v} has {len(adj[v])} neighbors present"
            )
        for u in adj[v]:
            adj[u].add(v)
    return Graph.from_adjacency(adj)


def reference_peel(g: Graph, bound: int = 2) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Degree-<=bound peel that recomputes the eligible set at every step.

    Each step removes the least vertex with at most ``bound`` neighbours
    left.  Returns the residual's vertices and the removal order.
    """
    alive = set(g.vertices)
    order: List[int] = []
    while True:
        eligible = [v for v in alive if sum(u in alive for u in g.neighbors(v)) <= bound]
        if not eligible:
            return tuple(sorted(alive)), tuple(order)
        v = min(eligible)
        alive.remove(v)
        order.append(v)


def _all_cliques(g: Graph):
    """Every nonempty clique, in lexicographic order of the sorted tuple."""
    verts = g.vertices

    def extend(clique: Tuple[int, ...], candidates: Sequence[int]):
        yield clique
        for i, v in enumerate(candidates):
            nxt = [u for u in candidates[i + 1:] if g.has_edge(u, v)]
            yield from extend(clique + (v,), nxt)

    for i, v in enumerate(verts):
        later = [u for u in verts[i + 1:] if g.has_edge(u, v)]
        yield from extend((v,), later)


def find_clique_cutset_bruteforce(
    g: Graph,
) -> Optional[Tuple[Tuple[int, ...], List[Tuple[int, ...]]]]:
    """Try every clique as a cutset, smallest-lex first."""
    if not is_connected(g):
        raise ContractViolationError("find_clique_cutset requires a connected graph")
    for clique in sorted(_all_cliques(g), key=lambda c: (len(c), c)):
        if len(clique) >= g.n - 1:
            continue
        comps = connected_components(g, clique)
        if len(comps) >= 2:
            return clique, comps
    return None


def clique_atoms_bruteforce(g: Graph) -> List[Tuple[int, ...]]:
    """The atoms of a connected graph, sorted, by splitting until nothing splits.

    Each piece with a clique cutset K (under ``find_clique_cutset_bruteforce``)
    becomes K plus each component of the piece - K.  An atom has no clique
    cutset, so it survives whole inside one final piece; the maximal final
    pieces are therefore exactly the atoms.
    """
    todo = [tuple(g.vertices)]
    final: List[Set[int]] = []
    while todo:
        piece = todo.pop()
        found = find_clique_cutset_bruteforce(induced_subgraph(g, piece))
        if found is None:
            final.append(set(piece))
            continue
        cutset, comps = found
        todo += [tuple(sorted(set(c) | set(cutset))) for c in comps]
    return sorted({tuple(sorted(p)) for p in final if not any(p < q for q in final)})


def _side_is_ab_path(g: Graph, side: Set[int], a: int, b: int) -> bool:
    """Does side + {a, b} induce a path whose two ends are a and b?

    Inside side + {a, b}, a and b need exactly one neighbor and each side
    vertex exactly two.  A path plus a disjoint cycle has the same counts, so
    the walk from a must also reach every vertex.
    """
    inside = side | {a, b}
    nbrs = {v: [u for u in g.neighbors(v) if u in inside] for v in inside}
    if len(nbrs[a]) != 1 or len(nbrs[b]) != 1 or any(len(nbrs[v]) != 2 for v in side):
        return False
    prev, v, length = a, nbrs[a][0], 2
    while v != b:
        prev, v = v, nbrs[v][1] if nbrs[v][0] == prev else nbrs[v][0]
        length += 1
    return length == len(inside)


def _best_partition(
    g: Graph, a: int, b: int, comps: List[Tuple[int, ...]]
) -> Optional[Tuple[int, List[Tuple[int, ...]], List[Tuple[int, ...]]]]:
    """Smallest valid small side for the pair (a, b), or None.

    A side is invalid only when it is empty or one component forming a bare
    a-b path with the pair.  A valid side of three or more components stays
    valid, and shrinks, when its largest component moves to the other side.
    So some minimum side is one component or two, and a minimum pair lies
    among the three smallest.  Candidates are keyed by (size, component indices).
    """
    c = len(comps)
    bad = [_side_is_ab_path(g, set(comp), a, b) for comp in comps]
    n_bad = sum(bad)

    def side_ok(count: int, count_bad: int) -> bool:
        return count >= 2 or (count == 1 and count_bad == 0)

    smallest = sorted(sorted(range(c), key=lambda i: len(comps[i]))[:3])
    valid = [
        (sum(len(comps[i]) for i in xs), xs)
        for xs in [(i,) for i in range(c)] + list(combinations(smallest, 2))
        if side_ok(len(xs), sum(bad[i] for i in xs))
        and side_ok(c - len(xs), n_bad - sum(bad[i] for i in xs))
    ]
    if not valid:
        return None
    size, xs = min(valid)
    return size, [comps[i] for i in xs], [comps[i] for i in range(c) if i not in xs]


def proper_2_cutset_pair_scan(g: Graph) -> Optional[Proper2Cutset]:
    """The proper-2-cutset search by one component search per nonadjacent pair.

    Returns the cutset whose small side is minimum over all proper
    2-cutsets (ties broken lexicographically on the pair, then on the
    component indices of the side), or None.  Component grouping is solved
    exactly per pair, since only a single-component side can collapse into
    an a-b path.
    """
    before = len(connected_components(g))
    best: Optional[Tuple[int, Tuple[int, int], List, List]] = None
    for a, b in combinations(g.vertices, 2):
        if g.has_edge(a, b):
            continue
        comps = connected_components(g, {a, b})
        if len(comps) <= before:
            continue
        found = _best_partition(g, a, b, comps)
        if found is None:
            continue
        size, x_comps, y_comps = found
        if best is None or size < best[0]:
            best = (size, (a, b), x_comps, y_comps)
    if best is None:
        return None
    _, pair, x_comps, y_comps = best
    side_x, side_y = (tuple(sorted(v for c in cs for v in c)) for cs in (x_comps, y_comps))
    return Proper2Cutset(pair, side_x, side_y)


def reference_line_graph_root(g: Graph) -> Optional[RootGraph]:
    """The line-graph root rebuild that re-checks what it builds.

    The same cliques and ids as ``reconstruct_line_graph_root``, but an
    isolated vertex is its own case, and the root is kept only if
    ``RootGraph.is_sparse`` and ``RootGraph.validate`` both pass on it.
    """
    if g.n == 0 or g.max_degree() > 4 or not is_connected(g):
        return None
    if g.n == 1:
        return RootGraph(build_graph([(0, 1)], 2), {g.vertices[0]: (0, 1)})
    cliques: Set[Tuple[int, ...]] = set()
    for u in g.vertices:
        for v in g.neighbors(u):
            if v > u:
                common = [w for w in g.neighbors(u) if g.has_edge(v, w)]
                if len(common) > 1:
                    return None
                cliques.add(tuple(sorted([u, v, *common])))
    covering: Dict[int, List[int]] = {v: [] for v in g.vertices}
    for idx, clique in enumerate(sorted(cliques)):
        for v in clique:
            covering[v].append(idx)
    if any(len(idxs) > 2 for idxs in covering.values()):
        return None
    vertex_to_edge: Dict[int, Tuple[int, int]] = {}
    next_id = len(cliques)
    for v in g.vertices:
        idxs = covering[v]
        if len(idxs) == 2:
            vertex_to_edge[v] = (idxs[0], idxs[1])
        else:
            vertex_to_edge[v] = (idxs[0], next_id)
            next_id += 1
    root = RootGraph(build_graph(vertex_to_edge.values(), next_id), vertex_to_edge)
    if not root.is_sparse() or not root.validate(g):
        return None
    return root

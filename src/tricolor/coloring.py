"""Color-producing machinery.

Vertex side: an exact chromatic oracle (DSATUR-ordered branch and bound) and
the merge/replay steps that recombine piece colorings across clique cutsets,
proper 2-cutsets and degree peels.

Edge side: a constructive proper 3-edge-coloring for sparse max-degree-3
graphs, and the paired colorings (one agreeing, one disagreeing on two marked
edges) obtained from it by alternating-path color swaps.  Swaps always run on
the root graph, never on its line graph.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import BudgetExceededError, ContractViolationError, PipelineError
from .graph import Graph, RemovalLog, is_connected
from .recognition import (
    BRANCH_COMPLETE_BIPARTITE,
    BRANCH_LINE_OF_SPARSE,
    BasicVerdict,
    reconstruct_line_graph_root,
)

logger = logging.getLogger(__name__)

__all__ = [
    "VertexColoring",
    "EdgeColoring",
    "DualColorings",
    "chi_exact",
    "edge_color_sparse",
    "dual_edge_colorings",
    "color_basic",
    "dual_colorings_for_side",
    "merge_at_clique",
    "merge_at_proper2",
    "add_back_peeled",
]

PALETTE = (0, 1, 2)
FALLBACK_NODE_BUDGET = 3 ** 20

ROUTE_CYCLE = "cycle"
ROUTE_LINE_ROOT = "line_root"
ROUTE_FALLBACK = "fallback"


def _ekey(u: int, v: int) -> Tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class VertexColoring:
    """Total map from a vertex set to colors 0..k-1."""

    colors: Dict[int, int]
    k: int = 3

    def __getitem__(self, v: int) -> int:
        return self.colors[v]

    def palette_size(self) -> int:
        return len(set(self.colors.values()))

    def is_proper(self, g: Graph) -> bool:
        if set(self.colors) != set(g.vertices):
            return False
        if any(c < 0 or c >= self.k for c in self.colors.values()):
            return False
        return all(self.colors[u] != self.colors[v] for u, v in g.edges())

    def to_json(self) -> Dict[str, int]:
        return {str(v): c for v, c in sorted(self.colors.items())}


@dataclass(frozen=True)
class EdgeColoring:
    """Map from (u, v) keys with u < v to colors 0..k-1."""

    colors: Dict[Tuple[int, int], int]
    k: int = 3

    def __getitem__(self, edge: Tuple[int, int]) -> int:
        return self.colors[_ekey(*edge)]

    def is_proper(self, h: Graph) -> bool:
        if set(self.colors) != set(h.edges()):
            return False
        if any(c < 0 or c >= self.k for c in self.colors.values()):
            return False
        for v in h.vertices:
            at_v = [self.colors[_ekey(v, u)] for u in h.neighbors(v)]
            if len(at_v) != len(set(at_v)):
                return False
        return True


@dataclass(frozen=True)
class DualColorings:
    """Two proper colorings of one graph: equal and unequal on a marked pair."""

    same: VertexColoring
    diff: VertexColoring
    pair: Tuple[int, int]
    route: str = ROUTE_FALLBACK

    def validate(self, tx: Graph) -> bool:
        a, b = self.pair
        return (
            self.same.is_proper(tx)
            and self.diff.is_proper(tx)
            and self.same[a] == self.same[b]
            and self.diff[a] != self.diff[b]
        )


# ---------------------------------------------------------------------------
# Exact chromatic number


def _greedy_clique(g: Graph) -> List[int]:
    if g.n == 0:
        return []
    best: List[int] = []
    for seed in sorted(g.vertices, key=lambda v: -g.degree(v))[:8]:
        clique = [seed]
        for v in sorted(g.neighbors(seed), key=lambda v: -g.degree(v)):
            if all(g.has_edge(v, u) for u in clique):
                clique.append(v)
        if len(clique) > len(best):
            best = clique
    return best


def _k_colorable(g: Graph, k: int) -> Optional[Dict[int, int]]:
    """Backtracking k-coloring with DSATUR branching and palette symmetry cut."""
    n = g.n
    colors: Dict[int, int] = {}

    def pick() -> int:
        best_v, best_key = -1, (-1, -1, 0)
        for v in g.vertices:
            if v in colors:
                continue
            sat = len({colors[u] for u in g.neighbors(v) if u in colors})
            key = (sat, g.degree(v), -v)
            if key > best_key:
                best_key, best_v = key, v
        return best_v

    def bt() -> bool:
        if len(colors) == n:
            return True
        v = pick()
        used_nb = {colors[u] for u in g.neighbors(v) if u in colors}
        limit = min(k, max(colors.values(), default=-1) + 2)
        for c in range(limit):
            if c in used_nb:
                continue
            colors[v] = c
            if bt():
                return True
            del colors[v]
        return False

    return dict(colors) if bt() else None


def chi_exact(g: Graph, kmax: Optional[int] = None, budget: int = 20) -> Tuple[int, VertexColoring]:
    """Exact chromatic number with a validating witness.

    Branch and bound: a greedy clique gives the lower bound, then
    k-colorability is decided for increasing k by DSATUR-ordered
    backtracking.  Refuses graphs larger than the budget.
    """
    if g.n > budget:
        raise BudgetExceededError(f"chi_exact budget is n <= {budget}, got n = {g.n}")
    if g.n == 0:
        return 0, VertexColoring({}, 0)
    if g.m == 0:
        return 1, VertexColoring({v: 0 for v in g.vertices}, 1)
    lb = max(2, len(_greedy_clique(g)))
    cap = g.n if kmax is None else min(kmax, g.n)
    for k in range(lb, cap + 1):
        witness = _k_colorable(g, k)
        if witness is not None:
            return k, VertexColoring(witness, k)
    raise BudgetExceededError(f"no coloring with at most {cap} colors")


# ---------------------------------------------------------------------------
# Edge coloring of sparse max-degree-3 graphs


def _check_sparse_deg3(h: Graph) -> None:
    if h.max_degree() > 3:
        raise ContractViolationError("edge coloring requires maximum degree <= 3")
    for u, v in h.edges():
        if h.degree(u) > 2 and h.degree(v) > 2:
            raise ContractViolationError(
                f"edge ({u},{v}) has two endpoints of degree 3: graph is not sparse"
            )


def _segments(h: Graph) -> Tuple[List[List[int]], List[List[int]]]:
    """Split the edge set into maximal degree-2 chains and pure cycles.

    A segment is a vertex path whose interior vertices all have degree 2 and
    whose endpoints do not (degree 1 or 3); a component that is entirely
    degree 2 comes back as a closed walk with path[0] == path[-1].
    """
    visited: Set[Tuple[int, int]] = set()
    segments: List[List[int]] = []
    cycles: List[List[int]] = []
    for s in h.vertices:
        if h.degree(s) == 2:
            continue
        for t in h.neighbors(s):
            if _ekey(s, t) in visited:
                continue
            path = [s, t]
            visited.add(_ekey(s, t))
            while h.degree(path[-1]) == 2:
                prev, cur = path[-2], path[-1]
                nxt = next(u for u in h.neighbors(cur) if u != prev)
                visited.add(_ekey(cur, nxt))
                path.append(nxt)
            segments.append(path)
    for v in h.vertices:
        if h.degree(v) != 2:
            continue
        fresh = [u for u in h.neighbors(v) if _ekey(v, u) not in visited]
        if not fresh:
            continue
        path = [v, fresh[0]]
        visited.add(_ekey(v, fresh[0]))
        while path[-1] != v:
            prev, cur = path[-2], path[-1]
            nxt = next(u for u in h.neighbors(cur) if u != prev)
            visited.add(_ekey(cur, nxt))
            path.append(nxt)
        cycles.append(path)
    return segments, cycles


def _two_slot_coloring(pairs: List[Tuple[int, int, int]]) -> Dict[Tuple[int, int], int]:
    """Proper 3-edge-coloring of the bipartite link structure.

    ``pairs`` lists (segment id, end vertex 0, end vertex 1) for the length-2
    chains joining two degree-3 vertices.  Each chain becomes two edges of a
    bipartite graph (end, middle), (middle, other end); a proper 3-edge
    coloring of that graph assigns the chain's two end colors so that they
    differ and all ends at a degree-3 vertex are pairwise distinct.  Bipartite
    graphs of maximum degree three are always 3-edge-colorable; coloring is
    incremental with an alternating-path swap when the two endpoints have no
    free color in common (the swap can never reach the opposite endpoint in a
    bipartite graph, by parity).
    """
    used: Dict[object, Dict[int, Tuple[object, Tuple[int, int]]]] = {}
    color_of: Dict[Tuple[int, int], int] = {}

    def node_used(node) -> Dict[int, Tuple[object, Tuple[int, int]]]:
        return used.setdefault(node, {})

    def assign(u, v, eid, c: int) -> None:
        node_used(u)[c] = (v, eid)
        node_used(v)[c] = (u, eid)
        color_of[eid] = c

    def flip_from(node, alpha: int, beta: int) -> None:
        # Walk first, then flip: the start node lacks beta, so its
        # alpha/beta component is a path starting there.
        chain: List[Tuple[object, object, Tuple[int, int], int]] = []
        cur, want = node, alpha
        while want in node_used(cur):
            other, eid = node_used(cur)[want]
            chain.append((cur, other, eid, want))
            cur, want = other, beta if want == alpha else alpha
        for u_, v_, eid, old in chain:
            del used[u_][old]
            del used[v_][old]
        for u_, v_, eid, old in chain:
            new = beta if old == alpha else alpha
            color_of[eid] = new
            node_used(u_)[new] = (v_, eid)
            node_used(v_)[new] = (u_, eid)

    wait: List[Tuple[object, object, Tuple[int, int]]] = []
    for sid, end0, end1 in pairs:
        mid = ("mid", sid)
        wait.append((end0, mid, (sid, 0)))
        wait.append((mid, end1, (sid, 1)))
    for u, v, eid in wait:
        free_u = [c for c in PALETTE if c not in node_used(u)]
        free_v = [c for c in PALETTE if c not in node_used(v)]
        common = sorted(set(free_u) & set(free_v))
        if common:
            assign(u, v, eid, common[0])
            continue
        alpha, beta = free_u[0], free_v[0]
        # v lacks alpha; flipping the alpha/beta path from v frees alpha at v
        # without touching u (u has no alpha edge and sits on the other side).
        flip_from(v, alpha, beta)
        assign(u, v, eid, alpha)
    return color_of


def _fill_open_path(path: List[int], first: Optional[int], last: Optional[int],
                    out: Dict[Tuple[int, int], int]) -> None:
    """Color a chain's edges given optional pinned first/last edge colors."""
    if first is None and last is not None:
        # Walk from the pinned end so the greedy pass starts constrained.
        _fill_open_path(path[::-1], last, None, out)
        return
    k = len(path) - 1
    cols: List[Optional[int]] = [None] * k
    cols[0] = first if first is not None else 0
    if k == 1:
        if last is not None and first is not None and first != last:
            raise ContractViolationError("single edge pinned to two colors")
        if first is None and last is not None:
            cols[0] = last
        out[_ekey(path[0], path[1])] = cols[0]
        return
    if last is not None:
        cols[k - 1] = last
    for i in range(1, k - 1 if last is not None else k):
        avoid = {cols[i - 1]}
        if last is not None and i == k - 2:
            avoid.add(cols[k - 1])
        cols[i] = min(c for c in PALETTE if c not in avoid)
    if last is not None and k >= 2:
        if cols[k - 2] == cols[k - 1]:
            raise ContractViolationError("pinned path coloring failed")
    for i in range(k):
        out[_ekey(path[i], path[i + 1])] = cols[i]


def edge_color_sparse(h: Graph) -> EdgeColoring:
    """Proper 3-edge-coloring of a sparse graph with maximum degree <= 3.

    The edges split into chains between degree-3 vertices (plus leaf chains
    and pure cycles).  Chains of two edges between degree-3 vertices carry
    the only global constraints; they are solved exactly on the bipartite
    link structure, after which every degree-3 vertex hands leftover colors
    to its remaining chain ends and each chain interior is filled greedily
    with one step of lookahead.  Always succeeds on this class.
    """
    _check_sparse_deg3(h)
    segments, cycles = _segments(h)
    # Global constraint core: two-edge chains between two degree-3 vertices.
    k2_ids = [
        i for i, p in enumerate(segments)
        if len(p) == 3 and h.degree(p[0]) == 3 and h.degree(p[-1]) == 3
    ]
    slot_colors = _two_slot_coloring([(i, segments[i][0], segments[i][-1]) for i in k2_ids])
    # slots[(v, segment, end)] = pinned color of that chain-end edge at v.
    slots: Dict[Tuple[int, int, int], int] = {}
    for i in k2_ids:
        p = segments[i]
        slots[(p[0], i, 0)] = slot_colors[(i, 0)]
        slots[(p[-1], i, 1)] = slot_colors[(i, 1)]
    # Hand leftover colors to the unpinned ends at each degree-3 vertex.
    ends_at: Dict[int, List[Tuple[int, int]]] = {}
    for i, p in enumerate(segments):
        if h.degree(p[0]) == 3:
            ends_at.setdefault(p[0], []).append((i, 0))
        if h.degree(p[-1]) == 3:
            ends_at.setdefault(p[-1], []).append((i, 1))
    for v, ends in ends_at.items():
        taken = {slots[(v, i, e)] for i, e in ends if (v, i, e) in slots}
        leftovers = [c for c in PALETTE if c not in taken]
        for i, e in sorted(ends):
            if (v, i, e) not in slots:
                slots[(v, i, e)] = leftovers.pop(0)
    out: Dict[Tuple[int, int], int] = {}
    for i, p in enumerate(segments):
        first = slots.get((p[0], i, 0))
        last = slots.get((p[-1], i, 1))
        _fill_open_path(p, first, last, out)
    for p in cycles:
        k = len(p) - 1
        for j in range(k):
            c = j % 2
            if j == k - 1 and k % 2 == 1:
                c = 2
            out[_ekey(p[j], p[j + 1])] = c
    coloring = EdgeColoring(out, 3)
    if not coloring.is_proper(h):
        raise ContractViolationError("edge coloring postcondition failed")
    return coloring


# ---------------------------------------------------------------------------
# Paired edge colorings via alternating-path swaps


def _color_component(h: Graph, colors: Dict[Tuple[int, int], int],
                     start: Tuple[int, int], pair: Tuple[int, int]) -> Set[Tuple[int, int]]:
    """Edges reachable from start within the two given color classes."""
    a, b = pair
    comp: Set[Tuple[int, int]] = {start}
    stack = [start]
    while stack:
        u, v = stack.pop()
        for x in (u, v):
            for y in h.neighbors(x):
                e = _ekey(x, y)
                if e not in comp and colors[e] in (a, b):
                    comp.add(e)
                    stack.append(e)
    return comp


def _swap(colors: Dict[Tuple[int, int], int], comp: Iterable[Tuple[int, int]],
          pair: Tuple[int, int]) -> Dict[Tuple[int, int], int]:
    a, b = pair
    out = dict(colors)
    for e in comp:
        if out[e] == a:
            out[e] = b
        elif out[e] == b:
            out[e] = a
    return out


def _doubled_chain(h: Graph, e1: Tuple[int, int], e2: Tuple[int, int]) -> Tuple[int, int]:
    """Validate the doubled-edge shape and return the middle edge (y, z).

    Required shape: degrees in {2, 3}, no edge joining two degree-3 vertices,
    exactly one edge joining two degree-2 vertices, and e1, e2 are the two
    disjoint edges flanking it.
    """
    if not is_connected(h):
        raise ContractViolationError("doubled-chain coloring requires a connected graph")
    degs = {v: h.degree(v) for v in h.vertices}
    if any(d not in (2, 3) for d in degs.values()):
        raise ContractViolationError("degrees other than 2 and 3 present")
    mids = [(u, v) for u, v in h.edges() if degs[u] == 2 and degs[v] == 2]
    if len(mids) != 1:
        raise ContractViolationError(
            f"expected exactly one degree-2/degree-2 edge, found {len(mids)}"
        )
    if any(degs[u] == 3 and degs[v] == 3 for u, v in h.edges()):
        raise ContractViolationError("graph is not sparse")
    y, z = mids[0]
    e1, e2 = _ekey(*e1), _ekey(*e2)
    flank_y = _ekey(y, next(u for u in h.neighbors(y) if u != z))
    flank_z = _ekey(z, next(u for u in h.neighbors(z) if u != y))
    if {e1, e2} != {flank_y, flank_z}:
        raise ContractViolationError("marked edges do not flank the doubled chain")
    if set(e1) & set(e2):
        raise ContractViolationError("marked edges must be disjoint")
    return mids[0]


def dual_edge_colorings(h: Graph, e1: Tuple[int, int], e2: Tuple[int, int]
                        ) -> Tuple[EdgeColoring, EdgeColoring]:
    """Two proper 3-edge-colorings: c1 equal and c2 unequal on e1, e2.

    h must be a cubic graph with one edge subdivided twice and every other
    edge subdivided once; e1 and e2 are the two disjoint edges on the doubled
    chain.  Starting from any proper coloring, the companion coloring is
    produced by color swaps on alternating-path components, using the fact
    that degree-3 and degree-2 vertices strictly alternate along two-colored
    paths here, which forces the relevant component to miss the far edge.
    """
    e1, e2 = _ekey(*e1), _ekey(*e2)
    mid = _ekey(*_doubled_chain(h, e1, e2))
    base = edge_color_sparse(h)
    phi = dict(base.colors)
    c_e1, c_e2, c_mid = phi[e1], phi[e2], phi[mid]
    third = next(c for c in PALETTE if c not in (c_e1, c_mid))
    if c_e1 == c_e2:
        comp = _color_component(h, phi, e1, (c_e1, third))
        flipped = _swap(phi, comp, (c_e1, third))
        same, diff = phi, flipped
    else:
        comp = _color_component(h, phi, e1, (c_e1, c_e2))
        if e2 not in comp:
            same = _swap(phi, comp, (c_e1, c_e2))
            diff = phi
        else:
            # Shift e1 out of the way, then pull e2 onto its color: first swap
            # the (c_e1, c_mid) component through e1, then the (c_mid, c_e2)
            # component through e2; parity keeps the two swaps disjoint.
            step = _swap(phi, _color_component(h, phi, e1, (c_e1, c_mid)), (c_e1, c_mid))
            comp2 = _color_component(h, step, e2, (c_mid, c_e2))
            if e1 in comp2:
                raise ContractViolationError("alternating-path swap invariant failed")
            same = _swap(step, comp2, (c_mid, c_e2))
            diff = phi
    c_same, c_diff = EdgeColoring(same, 3), EdgeColoring(diff, 3)
    if not (c_same.is_proper(h) and c_diff.is_proper(h)):
        raise ContractViolationError("swap produced an improper coloring")
    if c_same[e1] != c_same[e2] or c_diff[e1] == c_diff[e2]:
        raise ContractViolationError("swap did not achieve the marked-edge constraints")
    return c_same, c_diff


# ---------------------------------------------------------------------------
# Leaf coloring and recombination


def color_basic(g: Graph, verdict: BasicVerdict) -> VertexColoring:
    """Color a classified leaf: two colors by parts, or a pulled-back edge coloring."""
    if verdict.branch == BRANCH_COMPLETE_BIPARTITE:
        part_a, part_b = verdict.bipartition
        colors = {v: 0 for v in part_a}
        colors.update({v: 1 for v in part_b})
        out = VertexColoring(colors, 3)
    elif verdict.branch == BRANCH_LINE_OF_SPARSE:
        root = verdict.root
        ec = edge_color_sparse(root.h)
        out = VertexColoring(
            {v: ec[edge] for v, edge in root.vertex_to_edge.items()}, 3
        )
    else:
        raise ContractViolationError(f"cannot color branch {verdict.branch!r} directly")
    if not out.is_proper(g):
        raise ContractViolationError("leaf coloring postcondition failed")
    return out


def _cycle_duals(tx: Graph, a: int, b: int) -> DualColorings:
    """Direct construction when the side plus the pair induces one cycle."""
    arcs: List[List[int]] = []
    used: Set[int] = set()
    for start in tx.neighbors(a):
        if start in used:
            continue
        path = [a, start]
        used.add(start)
        while path[-1] != b:
            prev, cur = path[-2], path[-1]
            nxt = next(u for u in tx.neighbors(cur) if u != prev)
            path.append(nxt)
            used.add(nxt)
        arcs.append(path)
    same: Dict[int, int] = {a: 0, b: 0}
    diff: Dict[int, int] = {a: 0, b: 1}
    for path in arcs:
        interior = path[1:-1]
        for idx, v in enumerate(interior):
            same[v] = 1 if idx % 2 == 0 else 2
        prev = diff[a]
        for idx, v in enumerate(interior):
            avoid = {prev}
            if idx == len(interior) - 1:
                avoid.add(diff[b])
            diff[v] = min(c for c in PALETTE if c not in avoid)
            prev = diff[v]
    return DualColorings(VertexColoring(same, 3), VertexColoring(diff, 3), (a, b), ROUTE_CYCLE)


def _line_root_duals(tx: Graph, a: int, b: int, u: int) -> Optional[DualColorings]:
    """Constructive route through the root graph of the side plus a helper vertex.

    The helper vertex u (joined to a and b) makes the side the line graph of
    a doubled-chain root exactly when the decomposition theory says it must:
    u maps to the middle edge of the doubled chain and a, b map to its two
    flanking edges, so the paired edge colorings pull back to the wanted
    vertex colorings with u dropped.
    """
    adj = {v: set(tx.neighbors(v)) for v in tx.vertices}
    adj[u] = {a, b}
    adj[a].add(u)
    adj[b].add(u)
    gp = Graph.from_adjacency(adj)
    root = reconstruct_line_graph_root(gp)
    if root is None:
        return None
    h, vmap = root.h, root.vertex_to_edge
    e_mid, e1, e2 = vmap[u], vmap[a], vmap[b]
    try:
        mid = _doubled_chain(h, e1, e2)
    except ContractViolationError:
        return None
    if _ekey(*mid) != _ekey(*e_mid):
        return None
    c_same, c_diff = dual_edge_colorings(h, e1, e2)
    same = {v: c_same[vmap[v]] for v in tx.vertices}
    diff = {v: c_diff[vmap[v]] for v in tx.vertices}
    return DualColorings(
        VertexColoring(same, 3), VertexColoring(diff, 3), (a, b), ROUTE_LINE_ROOT
    )


def _constrained_search(tx: Graph, a: int, b: int, same: bool,
                        node_budget: int, deadline: Optional[float]) -> Optional[Dict[int, int]]:
    """Backtracking 3-coloring with the pair pinned equal or unequal.

    Iterative: the search goes one level per vertex of the side, which can
    exceed the interpreter's recursion limit.
    """
    order = [a, b]
    seen = {a, b}
    queue = [a, b]
    while queue:
        v = queue.pop(0)
        for nb in tx.neighbors(v):
            if nb not in seen:
                seen.add(nb)
                order.append(nb)
                queue.append(nb)
    for v in tx.vertices:
        if v not in seen:
            order.append(v)
            seen.add(v)
    colors: Dict[int, int] = {a: 0, b: 0 if same else 1}
    if tx.has_edge(a, b):
        raise ContractViolationError("pair must be nonadjacent")
    rest = order[2:]
    # options[i] holds the untried colors of rest[i]; rest[:len(options)]
    # are colored, each with the color last taken from its list.
    options: List[List[int]] = []
    steps = 0
    while True:
        steps += 1
        if steps > node_budget:
            raise BudgetExceededError("fallback search budget exhausted")
        if deadline is not None and steps % 4096 == 0 and time.monotonic() > deadline:
            raise BudgetExceededError("fallback search deadline exceeded")
        if len(options) == len(rest):
            return colors
        v = rest[len(options)]
        used = {colors[u] for u in tx.neighbors(v) if u in colors}
        options.append([c for c in PALETTE if c not in used])
        while not options[-1]:
            options.pop()
            colors.pop(rest[len(options)], None)
            if not options:
                return None
        colors[rest[len(options) - 1]] = options[-1].pop(0)


def dual_colorings_for_side(
    tx: Graph,
    a: int,
    b: int,
    node_budget: int = FALLBACK_NODE_BUDGET,
    deadline_s: Optional[float] = None,
) -> DualColorings:
    """Produce an agreeing and a disagreeing 3-coloring of a cutset side.

    Constructive routes, tried in order: the side plus the pair is a single
    cycle; the side plus a helper vertex is the line graph of a
    doubled-chain root, which covers the 6-vertex prism minus a matching
    edge (its completion is the line graph of a theta with paths of lengths
    2, 2 and 3).  If none applies, an exhaustive constrained search runs as
    a logged fallback; its failure means the input was not a class member
    (or exposes a bug), and is reported with the offending side serialized.
    """
    if tx.has_edge(a, b):
        raise ContractViolationError("cutset pair must be nonadjacent")
    if not tx.has_vertex(a) or not tx.has_vertex(b):
        raise ContractViolationError("cutset pair must belong to the side graph")
    if is_connected(tx) and all(tx.degree(v) == 2 for v in tx.vertices):
        duals = _cycle_duals(tx, a, b)
        if duals.validate(tx):
            return duals
        raise ContractViolationError("cycle-route coloring failed validation")
    helper = max(tx.vertices) + 1
    duals = _line_root_duals(tx, a, b, helper)
    if duals is not None:
        if not duals.validate(tx):
            raise ContractViolationError("root-route coloring failed validation")
        return duals
    logger.warning(
        "dual coloring fell back to exhaustive search on side with n=%d (classification miss)",
        tx.n,
    )
    deadline = time.monotonic() + deadline_s if deadline_s is not None else None
    same = _constrained_search(tx, a, b, True, node_budget, deadline)
    diff = _constrained_search(tx, a, b, False, node_budget, deadline)
    if same is None or diff is None:
        raise PipelineError(
            "no valid paired colorings exist for the extracted side",
            payload={
                "side": {"vertices": list(tx.vertices), "edges": [list(e) for e in tx.edges()]},
                "pair": [a, b],
                "missing": "same" if same is None else "diff",
            },
        )
    return DualColorings(
        VertexColoring(same, 3), VertexColoring(diff, 3), (a, b), ROUTE_FALLBACK
    )


# ---------------------------------------------------------------------------
# Recombination


def _extend_permutation(partial: Dict[int, int], k: int = 3) -> Dict[int, int]:
    remaining_src = [c for c in range(k) if c not in partial]
    remaining_dst = [c for c in range(k) if c not in partial.values()]
    perm = dict(partial)
    for s, d in zip(remaining_src, remaining_dst):
        perm[s] = d
    return perm


def merge_at_clique(
    pieces: Sequence[Tuple[Graph, VertexColoring]], cutset: Sequence[int]
) -> VertexColoring:
    """Union piece colorings after palette-permuting each to agree on a clique.

    The cutset's colors are pairwise distinct inside every piece (it is a
    clique), so a palette permutation aligning any piece with the first
    always exists; the union is proper because pieces only meet in the
    cutset.
    """
    cutset = tuple(sorted(cutset))
    if len(cutset) > 3:
        raise ContractViolationError("clique cutsets larger than 3 are out of class")
    if not pieces:
        raise ContractViolationError("nothing to merge")
    for g, coloring in pieces:
        for v in cutset:
            if not g.has_vertex(v):
                raise ContractViolationError(f"piece disagrees on cutset membership: {v}")
        if not all(g.has_edge(u, v) for u, v in combinations(cutset, 2)):
            raise ContractViolationError("cutset is not a clique in some piece")
        if any(c > 2 for c in coloring.colors.values()):
            raise ContractViolationError("merge expects palettes within three colors")
    target = {v: pieces[0][1][v] for v in cutset}
    merged: Dict[int, int] = {}
    for g, coloring in pieces:
        partial = {coloring[v]: target[v] for v in cutset}
        if len(partial) != len(set(partial.values())):
            raise ContractViolationError("cutset colors collide across pieces")
        perm = _extend_permutation(partial)
        for v, c in coloring.colors.items():
            merged[v] = perm[c]
    return VertexColoring(merged, 3)


def merge_at_proper2(dual: DualColorings, ty_coloring: VertexColoring,
                     a: int, b: int) -> VertexColoring:
    """Pick the matching half of the pair and align it with the other side.

    Uses the agreeing coloring when the other side colors a and b alike and
    the disagreeing one otherwise; a palette permutation then makes the two
    colorings coincide on {a, b}, and the union is proper since the sides
    share no edges.
    """
    if (a, b) != tuple(dual.pair) and (b, a) != tuple(dual.pair):
        raise ContractViolationError("pair mismatch between dual colorings and merge")
    ta, tb = ty_coloring[a], ty_coloring[b]
    chosen = dual.same if ta == tb else dual.diff
    partial = {chosen[a]: ta, chosen[b]: tb}
    if len(set(partial)) != len(set(partial.values())):
        raise ContractViolationError("inconsistent pair colors")
    perm = _extend_permutation(partial)
    merged = dict(ty_coloring.colors)
    for v, c in chosen.colors.items():
        merged[v] = perm[c]
    return VertexColoring(merged, 3)


def add_back_peeled(coloring: VertexColoring, log: RemovalLog) -> VertexColoring:
    """Replay a peel in reverse, giving each vertex the least free color.

    Every logged vertex had at most two neighbors when removed, so a color in
    {0, 1, 2} is always free.
    """
    work = dict(coloring.colors)
    for v, nbrs in reversed(log.entries):
        if len(nbrs) > 2:
            raise ContractViolationError(
                f"vertex {v} had {len(nbrs)} neighbors at removal time"
            )
        try:
            taken = {work[u] for u in nbrs}
        except KeyError as exc:
            raise ContractViolationError(
                f"neighbor of {v} not colored before replay"
            ) from exc
        work[v] = min(c for c in PALETTE if c not in taken)
    return VertexColoring(work, 3)

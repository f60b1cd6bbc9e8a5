"""Color-producing machinery.

Leaves are colored constructively: by their bipartition, or by a proper
3-edge-coloring of a sparse max-degree-3 root graph.  The paired colorings
of a proper-2-cutset side (one agreeing, one disagreeing on two marked
edges) come from that edge coloring by Kempe-chain swaps, all through one
in-place :func:`_swap`, always on the root graph, never on its line graph.

Exhaustive search has two jobs, the exact chromatic oracle and the paired
coloring fallback, and both run the one iterative :func:`_backtrack`.  The
merge/replay steps recombine piece colorings across clique cutsets (cut
vertices included), proper 2-cutsets and degree peels.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import BudgetExceededError, ContractViolationError, PipelineError
from .graph import Graph, is_connected
from .recognition import (
    BRANCH_COMPLETE_BIPARTITE,
    BRANCH_LINE_OF_SPARSE,
    BasicVerdict,
    is_sparse_subcubic,
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
SEARCH_STEP_BUDGET = 3 ** 20

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
        colors, adj = self.colors, g._adj
        if colors.keys() != adj.keys() or not set(colors.values()) <= set(range(self.k)):
            return False
        for u, ns in adj.items():
            cu = colors[u]
            for v in ns:
                if v > u and colors[v] == cu:
                    return False
        return True

    def to_json(self) -> Dict[str, int]:
        return {str(v): c for v, c in self.colors.items()}


@dataclass(frozen=True)
class EdgeColoring:
    """Map from (u, v) keys with u < v to colors in ``PALETTE``."""

    colors: Dict[Tuple[int, int], int]

    def __getitem__(self, edge: Tuple[int, int]) -> int:
        return self.colors[_ekey(*edge)]

    def is_proper(self, h: Graph) -> bool:
        """Keyed by exactly E(h), colors in ``PALETTE``, distinct at each vertex.

        With m keys, a key found for every edge of h leaves no other key.
        """
        colors = self.colors
        if len(colors) != h.m:
            return False
        for v, ns in h._adj.items():
            at_v = set()
            for u in ns:
                c = colors.get((v, u) if v < u else (u, v))
                if c not in PALETTE or c in at_v:
                    return False
                at_v.add(c)
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


def _backtrack(g: Graph, k: int, colors: Dict[int, int],
               pick: Callable[[Dict[int, int]], int]) -> Optional[Dict[int, int]]:
    """Extend the precolored ``colors`` to a proper k-coloring of g, or None.

    ``pick(colors)`` names the next vertex to color.  Its colors are tried
    in ascending order, at most one beyond the largest in use: a larger one
    would rerun, with two unused colors renamed, the branch of its lower
    twin, which has already failed, so the cut never changes the first
    coloring found.  Iterative, one frame per colored vertex.  Past
    ``SEARCH_STEP_BUDGET`` steps it raises ``BudgetExceededError``.
    """
    colors = dict(colors)
    top = max(colors.values(), default=-1)
    # Each frame: a vertex, its untried colors, the largest color in use before it.
    frames: List[Tuple[int, List[int], int]] = []
    for _ in range(SEARCH_STEP_BUDGET):
        if len(colors) == g.n:
            return colors
        v = pick(colors)
        used = {colors[u] for u in g.neighbors(v) if u in colors}
        frames.append((v, [c for c in range(min(k, top + 2)) if c not in used], top))
        while not frames[-1][1]:
            frames.pop()
            if not frames:
                return None
            del colors[frames[-1][0]]
        v, options, top = frames[-1]
        colors[v] = options.pop(0)
        top = max(top, colors[v])
    raise BudgetExceededError(f"backtracking search exceeded {SEARCH_STEP_BUDGET} steps")


def _dsatur(g: Graph, colors: Dict[int, int]) -> int:
    """The uncolored vertex with the most neighbour colors, then degree, then lowest id."""
    best_v, best_key = -1, (-1, -1, 0)
    for v in g.vertices:
        if v in colors:
            continue
        sat = len({colors[u] for u in g.neighbors(v) if u in colors})
        key = (sat, g.degree(v), -v)
        if key > best_key:
            best_key, best_v = key, v
    return best_v


def chi_exact(g: Graph, budget: int = 20) -> Tuple[int, VertexColoring]:
    """Exact chromatic number with a validating witness.

    k-colorability is decided for increasing k from 2 by :func:`_backtrack`
    with DSATUR branching; every k below the chromatic number fails, so
    the witness is the search's first coloring at k = chi.  Refuses graphs
    with more than ``budget`` vertices, and a search past
    ``SEARCH_STEP_BUDGET`` steps.
    """
    if g.n > budget:
        raise BudgetExceededError(f"chi_exact budget is n <= {budget}, got n = {g.n}")
    if g.n == 0:
        return 0, VertexColoring({}, 0)
    if g.m == 0:
        return 1, VertexColoring({v: 0 for v in g.vertices}, 1)
    k = 2
    # Every graph is n-colorable, so the loop ends by k = n.
    while (witness := _backtrack(g, k, {}, lambda colors: _dsatur(g, colors))) is None:
        k += 1
    return k, VertexColoring(witness, k)


# ---------------------------------------------------------------------------
# Edge coloring of sparse max-degree-3 graphs


def edge_color_sparse(h: Graph) -> EdgeColoring:
    """Proper 3-edge-coloring of a sparse graph with maximum degree <= 3.

    Two passes over the edges.  Hubs (degree-3 vertices) are pairwise
    nonadjacent, so the edges at hubs form a bipartite graph of maximum
    degree 3, colored first in Koenig's way: give (u, w) a color free at
    both ends, or else, with alpha free at the hub u and beta free at w,
    :func:`_swap` alpha and beta on the two-colored component through w's
    alpha-edge and give (u, w) alpha.  That component is a path starting at
    w (w has degree <= 2 and lacks beta).  Every colored edge has exactly
    one hub end, so the path enters each hub on it by an alpha-edge and
    never reaches u, which has none.  Every remaining edge joins two
    vertices of degree <= 2, so at most two colored edges touch it and a
    color is always free.  Always succeeds on this class; any other graph
    fails :func:`~tricolor.recognition.is_sparse_subcubic` and is refused.
    Each vertex keeps the set of colors on its edges: painting an edge adds
    its color at both ends, and a swap recomputes the sets of its
    component's vertices.
    """
    if not is_sparse_subcubic(h):
        raise ContractViolationError("edge coloring requires a sparse subcubic graph")
    adj = h._adj
    colors: Dict[Tuple[int, int], int] = {}
    used: Dict[int, Set[int]] = {v: set() for v in adj}
    for u in h.vertices:
        nu = adj[u]
        if len(nu) != 3:
            continue
        used_u = used[u]
        for w in nu:
            used_w = used[w]
            for c in PALETTE:
                if c not in used_u and c not in used_w:
                    break
            else:
                alpha = next(c for c in PALETTE if c not in used_u)
                beta = next(c for c in PALETTE if c not in used_w)
                x = next(x for x in adj[w] if colors.get((w, x) if w < x else (x, w)) == alpha)
                start = (w, x) if w < x else (x, w)
                comp = _color_component(h, colors, start, (alpha, beta))
                _swap(colors, comp, (alpha, beta))
                for x in {x for e in comp for x in e}:
                    used[x] = {colors.get((x, y) if x < y else (y, x)) for y in adj[x]} - {None}
                used_u, used_w = used[u], used[w]
                c = alpha
            colors[(u, w) if u < w else (w, u)] = c
            used_u.add(c)
            used_w.add(c)
    for u in h.vertices:
        nu = adj[u]
        if len(nu) == 3:
            continue
        used_u = used[u]
        # The edges left are those between two non-hubs, each met once from its smaller end.
        for w in nu:
            if w > u and len(adj[w]) != 3:
                used_w = used[w]
                for c in PALETTE:
                    if c not in used_u and c not in used_w:
                        break
                colors[(u, w)] = c
                used_u.add(c)
                used_w.add(c)
    coloring = EdgeColoring(colors)
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
                if e not in comp and colors.get(e) in (a, b):
                    comp.add(e)
                    stack.append(e)
    return comp


def _swap(colors: Dict[Tuple[int, int], int], comp: Iterable[Tuple[int, int]],
          pair: Tuple[int, int]) -> None:
    """Exchange the two colors of ``pair`` on ``comp``, in place; comp has no other color."""
    a, b = pair
    for e in comp:
        colors[e] = b if colors[e] == a else a


def _doubled_chain(h: Graph, e1: Tuple[int, int], e2: Tuple[int, int]) -> Tuple[int, int]:
    """Validate the doubled-chain shape and return the middle edge (y, z).

    Required shape: connected, sparse, degrees in {2, 3}, exactly one edge
    joining two degree-2 vertices, and e1, e2 are the two disjoint edges
    flanking it.
    """
    if not is_connected(h) or not is_sparse_subcubic(h) or h.min_degree() < 2:
        raise ContractViolationError(
            "doubled-chain coloring requires a connected sparse graph with degrees 2 and 3"
        )
    mids = [(u, v) for u, v in h.edges() if h.degree(u) == 2 and h.degree(v) == 2]
    if len(mids) != 1:
        raise ContractViolationError(
            f"expected exactly one degree-2/degree-2 edge, found {len(mids)}"
        )
    y, z = mids[0]
    flank_y = _ekey(y, next(u for u in h.neighbors(y) if u != z))
    flank_z = _ekey(z, next(u for u in h.neighbors(z) if u != y))
    if {_ekey(*e1), _ekey(*e2)} != {flank_y, flank_z}:
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
    return _dual_edge_colorings_at(h, e1, e2, _doubled_chain(h, e1, e2))


def _dual_edge_colorings_at(h: Graph, e1: Tuple[int, int], e2: Tuple[int, int],
                            mid: Tuple[int, int]) -> Tuple[EdgeColoring, EdgeColoring]:
    """:func:`dual_edge_colorings` on a checked doubled chain with middle edge mid."""
    phi = edge_color_sparse(h).colors
    c_e1, c_e2, c_mid = phi[e1], phi[e2], phi[mid]
    # One half is phi itself; the other is a copy changed by swaps.
    changed = dict(phi)
    if c_e1 == c_e2:
        third = next(c for c in PALETTE if c not in (c_e1, c_mid))
        _swap(changed, _color_component(h, phi, e1, (c_e1, third)), (c_e1, third))
        same, diff = phi, changed
    else:
        comp = _color_component(h, phi, e1, (c_e1, c_e2))
        if e2 not in comp:
            _swap(changed, comp, (c_e1, c_e2))
        else:
            # Shift e1 out of the way, then pull e2 onto its color: first swap
            # the (c_e1, c_mid) component through e1, then the (c_mid, c_e2)
            # component through e2; parity keeps the two swaps disjoint.
            _swap(changed, _color_component(h, phi, e1, (c_e1, c_mid)), (c_e1, c_mid))
            comp2 = _color_component(h, changed, e2, (c_mid, c_e2))
            if e1 in comp2:
                raise ContractViolationError("alternating-path swap invariant failed")
            _swap(changed, comp2, (c_mid, c_e2))
        same, diff = changed, phi
    c_same, c_diff = EdgeColoring(same), EdgeColoring(diff)
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


def _line_root_duals(tx: Graph, a: int, b: int, u: int) -> Optional[DualColorings]:
    """Constructive route through the root graph of the side plus a helper vertex.

    The helper vertex u (joined to a and b) makes the side the line graph of
    a doubled-chain root exactly when the decomposition theory says it must:
    u maps to the middle edge of the doubled chain and a, b map to its two
    flanking edges, so the paired edge colorings pull back to the wanted
    vertex colorings with u dropped.  The helper's cliques are the plain
    edges {u, a} and {u, b}, so its root edge joins two vertices of degree
    2 and is the one middle edge :func:`_doubled_chain` admits.
    """
    adj = {v: set(tx.neighbors(v)) for v in tx.vertices}
    adj[u] = {a, b}
    adj[a].add(u)
    adj[b].add(u)
    root = reconstruct_line_graph_root(Graph.from_adjacency(adj))
    if root is None:
        return None
    h, vmap = root.h, root.vertex_to_edge
    e1, e2 = _ekey(*vmap[a]), _ekey(*vmap[b])
    try:
        mid = _doubled_chain(h, e1, e2)
    except ContractViolationError:
        return None
    # Past the shape check, a violation is a failure and not a route miss.
    c_same, c_diff = _dual_edge_colorings_at(h, e1, e2, mid)
    same = {v: c_same[vmap[v]] for v in tx.vertices}
    diff = {v: c_diff[vmap[v]] for v in tx.vertices}
    return DualColorings(
        VertexColoring(same, 3), VertexColoring(diff, 3), (a, b), ROUTE_LINE_ROOT
    )


def _constrained_search(tx: Graph, a: int, b: int, same: bool) -> Optional[Dict[int, int]]:
    """A 3-coloring of tx with a, b colored alike (``same``) or not, or None.

    :func:`_backtrack` with the pair precolored, coloring the other vertices
    in breadth-first order from the pair.
    """
    order = [a, b]
    seen = {a, b}
    for v in order:
        for nb in tx.neighbors(v):
            if nb not in seen:
                seen.add(nb)
                order.append(nb)
    order += [v for v in tx.vertices if v not in seen]
    return _backtrack(tx, 3, {a: 0, b: 0 if same else 1}, lambda colors: order[len(colors)])


def dual_colorings_for_side(tx: Graph, a: int, b: int) -> DualColorings:
    """Produce an agreeing and a disagreeing 3-coloring of a cutset side.

    Constructive route: the side plus a helper vertex is the line graph of
    a doubled-chain root, which covers the 6-vertex prism minus a matching
    edge (its completion is the line graph of a theta with paths of lengths
    2, 2 and 3); Kempe-chain swaps on the root's edge coloring give both
    halves.  Otherwise :func:`_backtrack` runs twice, with the pair pinned
    alike and apart, as a logged fallback; its failure means the input was
    not a class member (or exposes a bug), and is reported with the
    offending side serialized.  Past ``SEARCH_STEP_BUDGET`` steps the search
    raises ``BudgetExceededError``.
    """
    if tx.has_edge(a, b):
        raise ContractViolationError("cutset pair must be nonadjacent")
    if not tx.has_vertex(a) or not tx.has_vertex(b):
        raise ContractViolationError("cutset pair must belong to the side graph")
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
    same = _constrained_search(tx, a, b, True)
    diff = _constrained_search(tx, a, b, False)
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


def _align(coloring: VertexColoring, target: Dict[int, int]) -> Dict[int, int]:
    """``coloring`` with its palette permuted to agree with ``target``.

    The piece must use colors 0-2, and its colors on target's vertices must
    map one to one onto target's colors; unused colors go to unused colors
    in ascending order.
    """
    if any(c not in PALETTE for c in coloring.colors.values()):
        raise ContractViolationError("merge expects palettes within three colors")
    pairs = {(coloring[v], t) for v, t in target.items()}
    if not len(pairs) == len({c for c, _ in pairs}) == len({t for _, t in pairs}):
        raise ContractViolationError("piece colors on shared vertices do not match one to one")
    perm = dict(pairs)
    unused = [c for c in PALETTE if c not in perm.values()]
    perm.update(zip([c for c in PALETTE if c not in perm], unused))
    return {v: perm[c] for v, c in coloring.colors.items()}


def merge_at_clique(g: Graph, pieces: Sequence[VertexColoring]) -> VertexColoring:
    """Union piece colorings, each palette-permuted to agree with those before it.

    Where a piece meets the union of the pieces before it must be a clique
    of the host graph g with at most three vertices.  Its colors there are
    then pairwise distinct in the piece and in the union, so a palette
    permutation aligns the two (a piece that breaks this raises).  The union
    is proper when pieces are joined only through those cliques, as at a
    clique cutset, a cut vertex or a component split.
    """
    if not pieces:
        raise ContractViolationError("nothing to merge")
    merged: Dict[int, int] = {}
    for coloring in pieces:
        shared = [v for v in coloring.colors if v in merged]
        if len(shared) > 3:
            raise ContractViolationError("clique cutsets larger than 3 are out of class")
        if not all(g.has_edge(u, v) for u, v in combinations(shared, 2)):
            raise ContractViolationError(f"pieces meet outside a clique: {sorted(shared)}")
        merged.update(_align(coloring, {v: merged[v] for v in shared}))
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
    merged = dict(ty_coloring.colors)
    merged.update(_align(chosen, {a: ta, b: tb}))
    return VertexColoring(merged, 3)


def add_back_peeled(g: Graph, coloring: VertexColoring,
                    order: Sequence[int]) -> VertexColoring:
    """Replay a peel in reverse, giving each vertex the least free color.

    ``order`` is the removal order of a peel of g itself, and ``coloring``
    covers that peel's residual.  The colored neighbours of each replayed
    vertex in g are then exactly its neighbours when it was removed, at
    most two, so a color is free.
    """
    work = dict(coloring.colors)
    get = work.get
    for v in reversed(order):
        taken = tuple(map(get, g.neighbors(v)))
        for c in PALETTE:
            if c not in taken:
                work[v] = c
                break
        else:
            raise ContractViolationError(f"no color free for replayed vertex {v}")
    return VertexColoring(work, 3)

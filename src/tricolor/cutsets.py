"""Clique-cutset and proper-2-cutset machinery.

Cut vertices, the one-vertex clique cutsets, come out of one iterative
Hopcroft-Tarjan pass that lists every block at once.  The clique cutset
search runs a minimal-triangulation pass (MCS-M) and scans the elimination
order: any later-neighbor set that is a clique in the input and disconnects
it is a clique minimal separator.  A graph with a clique cutset always
exposes one this way, because a clique minimal separator is parallel to
every other minimal separator and therefore survives into every minimal
triangulation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .errors import ContractViolationError
from .graph import Graph, connected_components, is_connected

__all__ = [
    "Proper2Cutset",
    "biconnected_blocks",
    "find_clique_cutset",
    "find_proper_2_cutset",
]


# ---------------------------------------------------------------------------
# Blocks and cut vertices


def biconnected_blocks(g: Graph) -> List[Tuple[int, ...]]:
    """The blocks of g, each sorted, in an order that grows each component.

    A block is a maximal connected subgraph without a cut vertex of its own:
    a bridge or a 2-connected piece.  Isolated vertices lie in no block.
    Within each component, every block after the first meets the union of
    the blocks before it in exactly one vertex, a cut vertex of g.  One
    depth-first search from each component's smallest vertex (Hopcroft and
    Tarjan, CACM 1973) with explicit stacks, so no recursion grows with n.
    A block closes when the search backs out of it; reversing that order
    lists each block after the one holding its top vertex.
    """
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    blocks: List[Tuple[int, ...]] = []
    for root in g.vertices:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        opened: List[int] = [root]  # visited vertices whose block is still open
        frames = [(root, iter(g.neighbors(root)))]
        closed: List[Tuple[int, ...]] = []
        while frames:
            v, nbrs = frames[-1]
            for u in nbrs:
                if u not in index:
                    index[u] = low[u] = len(index)
                    opened.append(u)
                    frames.append((u, iter(g.neighbors(u))))
                    break
                low[v] = min(low[v], index[u])
            else:
                frames.pop()
                if not frames:
                    continue
                top = frames[-1][0]
                low[top] = min(low[top], low[v])
                if low[v] >= index[top]:
                    # v's subtree hangs off top: close the block above v.
                    block = [top]
                    while block[-1] != v:
                        block.append(opened.pop())
                    closed.append(tuple(sorted(block)))
        blocks.extend(reversed(closed))
    return blocks


# ---------------------------------------------------------------------------
# Minimal elimination ordering (MCS-M) and clique cutset search


def _mcs_m(g: Graph) -> Tuple[List[int], Dict[int, Set[int]]]:
    """Maximum cardinality search for a minimal triangulation.

    Returns the elimination order (first-eliminated first) and, per vertex,
    its neighbors in the fill graph that come later in that order.  A vertex
    y joins the reachable set of the currently numbered vertex z when some
    path z..y runs entirely through unnumbered vertices of weight strictly
    below w(y); the minimax path weight is computed Dijkstra-style.
    """
    vertices = list(g.vertices)
    n = len(vertices)
    weight = {v: 0 for v in vertices}
    number: Dict[int, int] = {}
    fill: Dict[int, Set[int]] = {v: set(g.neighbors(v)) for v in vertices}
    unnumbered = set(vertices)
    for num in range(n, 0, -1):
        z = max(unnumbered, key=lambda v: (weight[v], -v))
        unnumbered.discard(z)
        number[z] = num
        # dist[y]: minimal over z..y paths of the largest internal weight.
        dist: Dict[int, int] = {}
        pq: List[Tuple[int, int]] = []
        for u in g.neighbors(z):
            if u in unnumbered:
                dist[u] = -1
                heapq.heappush(pq, (-1, u))
        while pq:
            d, u = heapq.heappop(pq)
            if d > dist[u]:
                continue
            through = max(d, weight[u])
            for x in g.neighbors(u):
                if x in unnumbered and through < dist.get(x, n + 1):
                    dist[x] = through
                    heapq.heappush(pq, (through, x))
        reached = [y for y, d in dist.items() if d < weight[y]]
        for y in reached:
            weight[y] += 1
            fill[z].add(y)
            fill[y].add(z)
    order = sorted(vertices, key=lambda v: number[v])
    madj = {v: {u for u in fill[v] if number[u] > number[v]} for v in vertices}
    return order, madj


def _is_clique(g: Graph, vs: Sequence[int]) -> bool:
    return all(g.has_edge(u, v) for u, v in combinations(vs, 2))


def find_clique_cutset(g: Graph) -> Optional[Tuple[Tuple[int, ...], List[Tuple[int, ...]]]]:
    """Some clique cutset of a connected graph with its component partition.

    Returns (K, components of g - K) or None when no clique cutset exists.
    Deterministic: candidates are scanned in elimination order.
    """
    if not is_connected(g):
        raise ContractViolationError("find_clique_cutset requires a connected graph")
    if g.n <= 2:
        return None
    order, madj = _mcs_m(g)
    for v in order:
        sep = madj[v]
        if not sep or len(sep) >= g.n - 1:
            continue
        if not _is_clique(g, sorted(sep)):
            continue
        comps = connected_components(g, sep)
        if len(comps) >= 2:
            return tuple(sorted(sep)), comps
    return None


# ---------------------------------------------------------------------------
# Proper 2-cutsets


@dataclass(frozen=True)
class Proper2Cutset:
    """A nonadjacent pair whose removal splits the rest into two honest sides.

    Honest means: both sides nonempty, no edges between them, and neither
    side together with the pair induces a bare a-b path.
    """

    pair: Tuple[int, int]
    side_x: Tuple[int, ...]
    side_y: Tuple[int, ...]

    def validate(self, g: Graph) -> bool:
        a, b = self.pair
        x, y = set(self.side_x), set(self.side_y)
        if g.has_edge(a, b) or not x or not y:
            return False
        if x & y or (x | y | {a, b}) != set(g.vertices) or {a, b} & (x | y):
            return False
        if any(g.has_edge(u, v) for u in x for v in y):
            return False
        if len(connected_components(g, {a, b})) <= len(connected_components(g)):
            return False
        return not _side_is_ab_path(g, x, a, b) and not _side_is_ab_path(g, y, a, b)

    def to_json(self) -> Dict:
        return {
            "pair": list(self.pair),
            "side_x": list(self.side_x),
            "side_y": list(self.side_y),
        }


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


def find_proper_2_cutset(g: Graph) -> Optional[Proper2Cutset]:
    """Scan nonadjacent pairs for a proper 2-cutset.

    Returns the cutset whose small side is minimum over all proper
    2-cutsets (ties broken lexicographically on the pair), or None.
    Component grouping is solved exactly per pair, since only a
    single-component side can collapse into an a-b path.
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
    # x_comps is a minimum over every valid side, so side_x is never the larger.
    _, pair, x_comps, y_comps = best
    side_x, side_y = (tuple(sorted(v for c in cs for v in c)) for cs in (x_comps, y_comps))
    return Proper2Cutset(pair, side_x, side_y)

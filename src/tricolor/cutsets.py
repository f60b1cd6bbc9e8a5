"""Clique-cutset and proper-2-cutset machinery.

Cut vertices and proper 2-cutsets are both read off the low points of one
iterative depth-first search, ``_dfs`` (Hopcroft and Tarjan, CACM 1973).
One search of g lists every block at once.  The proper-2-cutset search runs
one search of g - a per vertex a; its low points and subtree totals list
the components of g - {a, b} for every later b, with sizes, in O(1) each,
so the whole search is O(n (n + m)).  A component forms a bare a-b path
with the pair exactly when all its vertices have degree 2 and one of them
is adjacent to a.

The clique split runs one minimal-triangulation pass (MCS-M) and reads
every atom (a maximal connected piece with no clique cutset of its own) off
its elimination order (Berry, Pogorelcnik and Simonet, Algorithms 3, 2010).
The generators' later fill neighbors are the minimal separators of the
triangulation, among them every clique minimal separator of g.  Walking the
order, each generator whose separator is a clique of g that still cuts what
remains sheds the component holding it as an atom.
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
    "clique_atoms",
    "find_clique_cutset",
    "find_proper_2_cutset",
]


# ---------------------------------------------------------------------------
# Depth-first search, blocks and cut vertices


def _dfs(adj: Sequence[Sequence[int]], skip: int = -1):
    """Iterative depth-first search of every vertex but ``skip``.

    ``adj`` lists each position's neighbors; roots are tried in ascending
    order.  A vertex is entered from the last vertex to push it, the deepest
    one still waiting to reach it, so the tree is a depth-first tree.
    Returns the preorder and per vertex its preorder number, parent (-1 at
    a root), root and own low point: the least preorder number among itself
    and its earlier-numbered neighbors, which are its ancestors.  ``skip``
    is numbered n, so it is never entered and never lowers a low point.
    """
    n = len(adj)
    pre = [-1] * n
    if skip >= 0:
        pre[skip] = n
    low = [n] * n
    parent = [-1] * n
    top = [-1] * n
    order: List[int] = []
    for r in range(n):
        if pre[r] >= 0:
            continue
        stack = [r]
        while stack:
            v = stack.pop()
            if pre[v] >= 0:
                continue
            lo = pre[v] = len(order)
            top[v] = r
            order.append(v)
            for u in adj[v]:
                if pre[u] < 0:
                    parent[u] = v
                    stack.append(u)
                elif pre[u] < lo:
                    lo = pre[u]
            low[v] = lo
    return order, pre, parent, top, low


def biconnected_blocks(g: Graph) -> List[Tuple[int, ...]]:
    """The blocks of g, each sorted, in an order that grows each component.

    A block is a maximal connected subgraph without a cut vertex of its own:
    a bridge or a 2-connected piece.  Isolated vertices lie in no block.
    Within each component, every block after the first meets the union of
    the blocks before it in exactly one vertex, a cut vertex of g.  A child
    v whose low point does not reach above its parent p closes the block of
    p and what is left of v's subtree.  Blocks are listed in reverse of the
    order the search backs out of v: by component, then by the end of v's
    subtree in preorder, descending, then by v's preorder number.
    """
    vs = g.vertices
    pos = {v: i for i, v in enumerate(vs)}
    # The stack pops the last push first: push neighbors descending.
    adj = [[pos[u] for u in reversed(g.neighbors(v))] for v in vs]
    order, pre, parent, top, low = _dfs(adj)
    size = [1] * len(vs)
    left: List[int] = []  # swept vertices not yet in a block, latest on top
    closed: List[Tuple[Tuple[int, int, int], Tuple[int, ...]]] = []
    for v in reversed(order):
        p = parent[v]
        if p < 0:
            continue
        left.append(v)
        end = pre[v] + size[v]
        size[p] += size[v]
        low[p] = min(low[p], low[v])
        if low[v] < pre[p]:
            continue
        # What is left of v's subtree sits on top of ``left``, in preorder.
        block = [vs[p]]
        while left and pre[left[-1]] < end:
            block.append(vs[left.pop()])
        closed.append(((top[v], -end, pre[v]), tuple(sorted(block))))
    closed.sort()
    return [block for _, block in closed]


# ---------------------------------------------------------------------------
# Minimal elimination ordering (MCS-M) and clique atoms


def _mcs_m(g: Graph) -> Tuple[List[int], Dict[int, Set[int]], Set[int]]:
    """Maximum cardinality search for a minimal triangulation.

    Returns the elimination order (first-eliminated first), per vertex its
    later neighbors in the fill graph, and the generators: vertices numbered
    with a weight no larger than that of the vertex numbered before them.  A
    vertex y joins the reachable set of the currently numbered vertex z when
    some path z..y runs entirely through unnumbered vertices of weight
    strictly below w(y); the minimax path weight is computed Dijkstra-style.
    The fill neighbors of y numbered before it are exactly the vertices z
    whose numbering reached y, so each is recorded then.
    """
    vertices = list(g.vertices)
    n = len(vertices)
    weight = {v: 0 for v in vertices}
    madj: Dict[int, Set[int]] = {v: set() for v in vertices}
    unnumbered = set(vertices)
    picks: List[int] = []
    levels: List[int] = []  # the weight of each pick when it was numbered
    for _ in range(n):
        z = max(unnumbered, key=lambda v: (weight[v], -v))
        unnumbered.discard(z)
        picks.append(z)
        levels.append(weight[z])
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
        for y, d in dist.items():
            if d < weight[y]:
                weight[y] += 1
                madj[y].add(z)
    generators = {picks[i] for i in range(1, n) if levels[i] <= levels[i - 1]}
    picks.reverse()
    return picks, madj, generators


def _is_clique(g: Graph, vs: Sequence[int]) -> bool:
    return all(g.has_edge(u, v) for u, v in combinations(vs, 2))


def clique_atoms(g: Graph) -> List[Tuple[int, ...]]:
    """The atoms of a connected graph, each sorted, last-found first.

    Every atom after the first meets the union of the atoms before it in a
    clique of g, the separator it was split off at, so the atoms are in the
    order ``merge_at_clique`` needs.  One MCS-M pass; no recursion.
    """
    if not is_connected(g):
        raise ContractViolationError("clique_atoms requires a connected graph")
    order, madj, generators = _mcs_m(g)
    left = set(g.vertices)
    atoms: List[Tuple[int, ...]] = []
    for x in order:
        sep = madj[x]
        if x not in generators or not sep | {x} <= left or not _is_clique(g, sorted(sep)):
            continue
        # Strip the component of (what is left) - sep that holds x off the rest.
        rest = left - sep - {x}
        todo = [x]
        while todo:
            for u in g.neighbors(todo.pop()):
                if u in rest:
                    rest.remove(u)
                    todo.append(u)
        if rest:
            atoms.append(tuple(sorted(left - rest)))
            left = rest | sep
    return [tuple(sorted(left))] + atoms[::-1]


def find_clique_cutset(g: Graph) -> Optional[Tuple[Tuple[int, ...], List[Tuple[int, ...]]]]:
    """Some clique cutset of a connected graph with its component partition.

    Returns (K, components of g - K) or None when no clique cutset exists.
    K is where the second atom of ``clique_atoms`` meets the first.
    """
    atoms = clique_atoms(g)
    if len(atoms) < 2:
        return None
    cutset = tuple(sorted(set(atoms[0]) & set(atoms[1])))
    return cutset, connected_components(g, cutset)


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
    sizes: Sequence[int], bad: Sequence[bool]
) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """Smallest valid small side over components of the given sizes, or None.

    Components come in the order of their smallest vertex; ``bad`` marks the
    ones forming a bare a-b path with the pair.  A side is invalid only when
    it is empty or one bad component.  A valid side of three or more
    components stays valid, and shrinks, when its largest component moves to
    the other side.  So some minimum side is one component or two, and a
    minimum pair lies among the three smallest.  Returns the side's size and
    component indices, the least (size, indices) among the candidates.
    """
    c = len(sizes)
    n_bad = sum(bad)

    def side_ok(count: int, count_bad: int) -> bool:
        return count >= 2 or (count == 1 and count_bad == 0)

    smallest = sorted(sorted(range(c), key=sizes.__getitem__)[:3])
    valid = [
        (sum(sizes[i] for i in xs), xs)
        for xs in [(i,) for i in range(c)] + list(combinations(smallest, 2))
        if side_ok(len(xs), sum(bad[i] for i in xs))
        and side_ok(c - len(xs), n_bad - sum(bad[i] for i in xs))
    ]
    return min(valid) if valid else None


def find_proper_2_cutset(g: Graph) -> Optional[Proper2Cutset]:
    """The proper 2-cutset with the minimum small side, or None.

    Ties are broken lexicographically on the pair, then on the component
    indices of the side.  For each vertex a, one depth-first search of g - a
    (``_dfs``) and one backward sweep give every vertex its preorder number,
    low point and subtree totals: size, smallest vertex, degree-2 vertices
    and neighbors of a.  For every later vertex b not adjacent to a, the
    components of g - {a, b} are then the other components of g - a, the
    subtrees of b's children whose low point does not reach above b (all of
    them when b is a root), and what is left of b's component when b is not
    its root.  Since each component's neighbors lie in it or the pair, it
    forms a bare a-b path exactly when all its vertices have degree 2 in g
    and one of them touches a.  So each pair costs O(1) per component, and
    the search O(n (n + m)) in all; vertex sets are built for the winner
    only.
    """
    vs = g.vertices
    n = len(vs)
    pos = {v: i for i, v in enumerate(vs)}
    adj = [[pos[u] for u in g.neighbors(v)] for v in vs]
    deg2 = [int(len(ns) == 2) for ns in adj]
    before = len(connected_components(g))
    best: Optional[Tuple[int, Tuple[int, int], Tuple[int, ...]]] = None
    for a in range(n):
        touches_a = [0] * n
        for u in adj[a]:
            touches_a[u] = 1
        order, pre, parent, top, low = _dfs(adj, a)
        # Descendants follow their ancestors in preorder, so one backward
        # sweep folds every subtree into its parent.
        size = [1] * n
        small = list(range(n))
        two = deg2[:]
        near = touches_a[:]
        cut: List[List[int]] = [[] for _ in range(n)]
        for v in reversed(order):
            lo = low[v]
            p = parent[v]
            if p < 0:
                continue
            if lo >= pre[p]:
                cut[p].append(v)
            elif lo < low[p]:
                low[p] = lo
            if small[v] < small[p]:
                small[p] = small[v]
            size[p] += size[v]
            two[p] += two[v]
            near[p] += near[v]
        whole = [(r, size[r], two[r] == size[r] and near[r] == 1) for r in order if parent[r] < 0]
        for b in range(a + 1, n):
            kids = cut[b]
            if touches_a[b] or len(whole) + len(kids) - (parent[b] < 0) <= before:
                continue
            comps = [c for c in whole if c[0] != top[b]]
            comps += [(small[c], size[c], two[c] == size[c] and near[c] == 1) for c in kids]
            if parent[b] >= 0:
                # The rest of b's component holds its root, its least vertex;
                # b itself is not adjacent to a.
                r = top[b]
                rest = (size[r] - 1 - sum(size[c] for c in kids),
                        two[r] - deg2[b] - sum(two[c] for c in kids),
                        near[r] - sum(near[c] for c in kids))
                comps.append((r, rest[0], rest[1] == rest[0] and rest[2] == 1))
            if best is not None and min(c[1] for c in comps) >= best[0]:
                continue
            if len(comps) == 2 and (comps[0][2] or comps[1][2]):
                continue  # the one split has a bare path for a side
            comps.sort()
            found = _best_partition([c[1] for c in comps], [c[2] for c in comps])
            if found is not None and (best is None or found[0] < best[0]):
                best = (found[0], (a, b), found[1])
    if best is None:
        return None
    # The side is a minimum over every valid side, so side_x is never the larger.
    _, (a, b), xs = best
    comps = connected_components(g, (vs[a], vs[b]))
    side_x = tuple(sorted(v for i in xs for v in comps[i]))
    side_y = tuple(sorted(v for i, c in enumerate(comps) if i not in xs for v in c))
    return Proper2Cutset((vs[a], vs[b]), side_x, side_y)

"""Classification of decomposition leaves.

A basic graph (connected, no clique cutset, minimum degree >= 3) in the
target class is a complete bipartite graph, the line graph of a sparse
max-degree-3 graph, or has a proper 2-cutset.  The classifier tries those
branches in order, in two halves: :func:`classify_direct` tries the two
branches that are colored directly, which need no cutset search and hold
for some graphs with clique cutsets too, and :func:`classify_residue` looks
for a proper 2-cutset.  The decomposition calls the halves on either side
of its cutset searches; its residuals have minimum degree >= 3, hence a K4
minor, so only :func:`classify_basic`, which runs both on raw inputs too,
falls back to series-parallel.  No forbidden-pattern oracle runs here: the
root rebuild rejects a diamond from the common neighbours it lists to
build its cliques, and decides from those cliques alone, with no pass over
the root it builds, that the root exists and is sparse.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Set, Tuple

from .cutsets import Proper2Cutset, find_proper_2_cutset
from .graph import Graph, is_connected

__all__ = [
    "BasicVerdict",
    "RootGraph",
    "is_complete_bipartite",
    "is_series_parallel",
    "is_sparse_subcubic",
    "reconstruct_line_graph_root",
    "classify_basic",
    "classify_direct",
    "classify_residue",
    "BRANCH_COMPLETE_BIPARTITE",
    "BRANCH_LINE_OF_SPARSE",
    "BRANCH_PROPER_2_CUTSET",
    "BRANCH_SERIES_PARALLEL",
    "BRANCH_UNCLASSIFIED",
]

BRANCH_COMPLETE_BIPARTITE = "complete_bipartite"
BRANCH_LINE_OF_SPARSE = "line_of_sparse"
BRANCH_PROPER_2_CUTSET = "proper_2_cutset"
BRANCH_SERIES_PARALLEL = "series_parallel"
BRANCH_UNCLASSIFIED = "unclassified"


def is_sparse_subcubic(h: Graph) -> bool:
    """Maximum degree <= 3, and every edge has an endpoint of degree <= 2.

    Equivalently, every vertex of degree 3 (a hub) has only neighbours of
    degree at most 2, so the test reads each hub's neighbours, not each edge.
    """
    adj = h._adj
    for ns in adj.values():
        if len(ns) > 2:
            if len(ns) > 3:
                return False
            for w in ns:
                if len(adj[w]) > 2:
                    return False
    return True


@dataclass(frozen=True)
class RootGraph:
    """A root graph H with the vertex-of-G to edge-of-H correspondence."""

    h: Graph
    vertex_to_edge: Dict[int, Tuple[int, int]]

    def validate(self, g: Graph) -> bool:
        """Exact check that g is the line graph of h under the stored map.

        Two H-edges are adjacent in L(H) iff they share an endpoint, so it
        suffices that the map is a bijection onto E(H), that every pair of
        H-edges sharing an endpoint is an edge of g, and that the counts
        match.
        """
        edges_h = set(self.h.edges())
        mapped = set(self.vertex_to_edge.values())
        if set(self.vertex_to_edge) != set(g.vertices):
            return False
        if mapped != edges_h or len(self.vertex_to_edge) != len(edges_h):
            return False
        incident: Dict[int, List[int]] = {v: [] for v in self.h.vertices}
        for gv, (u, w) in self.vertex_to_edge.items():
            incident[u].append(gv)
            incident[w].append(gv)
        shared_pairs = 0
        for gvs in incident.values():
            for a, b in combinations(gvs, 2):
                if not g.has_edge(a, b):
                    return False
                shared_pairs += 1
        return shared_pairs == g.m

    def is_sparse(self) -> bool:
        """:func:`is_sparse_subcubic` of h."""
        return is_sparse_subcubic(self.h)

    def to_json(self) -> Dict:
        return {
            "root_n": self.h.n,
            "root_edges": [list(e) for e in self.h.edges()],
            "vertex_to_edge": {str(v): list(e) for v, e in sorted(self.vertex_to_edge.items())},
        }


@dataclass(frozen=True)
class BasicVerdict:
    branch: str
    bipartition: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None
    root: Optional[RootGraph] = None
    cutset: Optional[Proper2Cutset] = None

    def to_json(self) -> Dict:
        out: Dict = {"branch": self.branch}
        if self.bipartition is not None:
            out["bipartition"] = [list(self.bipartition[0]), list(self.bipartition[1])]
        if self.root is not None:
            out["root"] = self.root.to_json()
        if self.cutset is not None:
            out["cutset"] = self.cutset.to_json()
        return out


def is_complete_bipartite(g: Graph) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Bipartition witness if g is complete bipartite, else None.

    The side without the first vertex can only be its neighbors.  With no
    edge inside a side, every pair across is an edge exactly when m is the
    product of the side sizes.  An edgeless graph is one side.
    """
    part_b = g.neighbors(g.vertices[0]) if g.n else ()
    in_b = set(part_b)
    part_a = tuple(v for v in g.vertices if v not in in_b)
    if g.m != len(part_a) * len(part_b) or any((u in in_b) == (v in in_b) for u, v in g.edges()):
        return None
    return part_a, part_b


def is_series_parallel(g: Graph) -> bool:
    """True iff g has no K4 minor.

    Reduction worklist on neighbor sets: delete vertices of degree <= 1 and
    suppress a degree-2 vertex by joining its two neighbors.  The set
    adjacency collapses the parallel edge a suppression can create, and no
    loop can form because the two neighbors are distinct.  A graph that
    gets stuck has minimum degree >= 3 and therefore a K4 minor; a graph
    that melts away completely has none, and both rules preserve the
    K4-minor status in both directions.
    """
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    pending = set(adj)
    while pending:
        v = pending.pop()
        if v not in adj or len(adj[v]) > 2:
            continue
        nbrs = adj.pop(v)
        for u in nbrs:
            adj[u].discard(v)
            pending.add(u)
        if len(nbrs) == 2:
            x, y = nbrs
            adj[x].add(y)
            adj[y].add(x)
    return not adj


def reconstruct_line_graph_root(g: Graph) -> Optional[RootGraph]:
    """Rebuild a sparse subcubic H with g = L(H), or None.

    The common neighbours of each edge are listed once.  Two of them are
    either nonadjacent, a diamond, or adjacent, a K4 whose clique would give
    H a vertex of degree four; either way g has no such root.  Otherwise the
    edge lies in exactly one maximal clique, itself plus at most one common
    neighbour, so the listed cliques partition E(g).  If no vertex lies in
    three (Krausz), v maps to the H-edge between its cliques, padded with
    fresh pendants, so an isolated vertex is (0, 1).  The map is one to one
    onto E(H), as two vertices with the same two cliques would have their
    edge in both, and v ~ w iff their H-edges meet: g = L(H), so nothing is
    left to validate.  A clique's H-vertex has the clique's size as degree
    and a pendant has 1, so H is subcubic, and sparse unless an H-edge joins
    two triangles, that is, some vertex lies in two.  None then too, or if g
    is empty or disconnected; a maximum degree above 4 rules out H first.
    """
    if g.n == 0 or g.max_degree() > 4 or not is_connected(g):
        return None
    adj = g._adj
    # Each edge u < v is listed once, and a triangle u < v < w once, from
    # its edge (u, v), so the cliques come out distinct and as sorted tuples.
    cliques: List[Tuple[int, ...]] = []
    for u, nu in adj.items():
        nset = set(nu)
        for v in nu:
            if v > u:
                common = nset.intersection(adj[v])
                if not common:
                    cliques.append((u, v))
                elif len(common) > 1:
                    return None
                else:
                    (w,) = common
                    if w > v:
                        cliques.append((u, v, w))
    covering: Dict[int, List[int]] = {v: [] for v in g.vertices}
    in_triangle: Set[int] = set()
    cliques.sort()
    for idx, clique in enumerate(cliques):
        for v in clique:
            covering[v].append(idx)
        if len(clique) == 3:
            if not in_triangle.isdisjoint(clique):
                return None
            in_triangle.update(clique)
    if any(len(idxs) > 2 for idxs in covering.values()):
        return None
    # Clique ids are listed ascending and pendant ids come after them all,
    # so every pair of ends is already (smaller, larger).
    next_id = len(cliques)
    for ends in covering.values():
        while len(ends) < 2:
            ends.append(next_id)
            next_id += 1
    vertex_to_edge = {v: (ends[0], ends[1]) for v, ends in covering.items()}
    # The map is one to one onto E(H), so H's adjacency needs no dedupe.
    hadj: List[List[int]] = [[] for _ in range(next_id)]
    for a, b in vertex_to_edge.values():
        hadj[a].append(b)
        hadj[b].append(a)
    for ns in hadj:
        ns.sort()
    return RootGraph(Graph(dict(enumerate(map(tuple, hadj))), g.n), vertex_to_edge)


def classify_direct(g: Graph) -> Optional[BasicVerdict]:
    """The complete-bipartite or line-of-sparse verdict of g, or None.

    Both branches are colored directly, so their verdicts stand whether or
    not g has a clique cutset.  Neither test searches for a cutset; each
    costs at most about m times the maximum degree.
    """
    bip = is_complete_bipartite(g)
    if bip is not None:
        return BasicVerdict(BRANCH_COMPLETE_BIPARTITE, bipartition=bip)
    root = reconstruct_line_graph_root(g)
    if root is not None:
        return BasicVerdict(BRANCH_LINE_OF_SPARSE, root=root)
    return None


def classify_residue(g: Graph) -> BasicVerdict:
    """Proper-2-cutset verdict of a graph :func:`classify_direct` rejected, or unclassified."""
    cutset = find_proper_2_cutset(g)
    if cutset is not None:
        return BasicVerdict(BRANCH_PROPER_2_CUTSET, cutset=cutset)
    return BasicVerdict(BRANCH_UNCLASSIFIED)


def classify_basic(g: Graph) -> BasicVerdict:
    """Sort a graph into the class's constructive branches.

    Intended for basic graphs (connected, no clique cutset, min degree >= 3)
    but total on any input: cheap checks run first, and the series-parallel
    branch catches raw inputs that the decomposition would normally consume.
    """
    verdict = classify_direct(g) or classify_residue(g)
    if verdict.branch == BRANCH_UNCLASSIFIED and is_series_parallel(g):
        return BasicVerdict(BRANCH_SERIES_PARALLEL)
    return verdict

"""Seeded inputs, the three user-level operations, and their correctness gate.

A workload is a list of :class:`Item` built from the benchmark seed alone.
``color`` items carry DIMACS text and are colored and then verified, the way
``tricolor color`` and ``tricolor verify`` handle a file; ``recognize``
items carry graphs, each with its expected branch, the way ``tricolor recognize``
sorts one.

Why each workload exists (the layer it loads, and what it bypasses):

* ``peel_sp``: series-parallel members up to n = 50 000 peel away entirely,
  so graph build, peel, peel replay, hashing and certificate JSON carry the
  cost while MCS-M and the proper-2-cutset search stay idle.  It is the only
  workload with large memory and I/O.  Its ``recognize`` half classifies
  desk-scale members of the same family (n <= 32), since the proper-2-cutset
  search is quadratic in n and meant for such inputs.
* ``line_leaf``: one basic leaf per input, L(S(H)) for a random cubic H and
  S its once-subdivision; MCS-M finds no cutset and dominates ``color``.
  The sweep stops at n = 768, where one input takes about half a second, so
  that a run can average over several random H.  A doubled edge would leave a degree-2 vertex whose peel cascades through
  the whole graph, so those inputs would never reach MCS-M and are left out.
* ``cut_chain``: path-like chains of K3,3 and line-graph pieces glued at cut
  vertices; MCS-M reruns once per split, with many subgraph builds and
  clique merges.  A chain, not a balanced tree, keeps that rerun visible.
  ``recognize`` classifies the pieces of each chain: the leaves it splits into.
* ``p2_split``: the proper-2-cutset search.  ``recognize`` runs on desk-scale
  series-parallel members; ``color`` runs on necklaces, t gadgets (a prism
  minus one matching edge) sharing one nonadjacent pair {a, b}.  Necklaces
  are structure-compatible non-members (the pair lies in t triangles, a
  bowtie for t >= 2): no basic member in the proper-2-cutset branch is
  known (see ``p2_member_search.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from json import dumps, loads
from typing import Callable, Dict, List, Optional, Tuple

from tricolor import cli, generators, patterns, pipeline, recognition
from tricolor.graph import Graph, build_graph, is_connected

SEED_STRIDE = 1_000_003

# Sweeps as (size, copies).  Several random inputs share a size where the
# cost of one input depends on its random structure, so that a run averages
# over structures and runs with different seeds agree.
PEEL_SP_SIZES = ((12_500, 1), (25_000, 1), (50_000, 4))
PEEL_SP_RECOGNIZE_SIZES = ((16, 4), (24, 4), (32, 8))
LINE_LEAF_CUBIC_ORDERS = ((64, 2), (128, 2), (256, 10))  # n = 3k: 192 .. 768
CUT_CHAIN_SIZES = ((100, 2), (200, 4), (300, 12))
# Piece sequence of every chain: K3,3 or L(S(H)) with H cubic of order k.
CUT_CHAIN_PATTERN = (None, 4, None, 6)
P2_RECOGNIZE_SIZES = ((40, 2), (55, 2), (70, 8))
P2_NECKLACE_GADGETS = ((4, 1), (6, 1), (8, 1), (10, 6))  # n = 4t + 2: 18 .. 42


class SetupError(Exception):
    """A generated input failed its membership or structure assertion."""


@dataclass
class Item:
    """One input: a graph to color (then verify), or graphs to recognize.

    A recognize item classifies its ``cases`` one after another, each with
    its expected branch; ``n`` counts the vertices of all of them.
    """

    op: str  # "color" or "recognize"
    label: str
    graph: Optional[Graph] = None
    text: Optional[str] = None  # DIMACS of ``graph``
    cases: Tuple[Tuple[Graph, str], ...] = ()

    @property
    def n(self) -> int:
        return self.graph.n if self.op == "color" else sum(g.n for g, _ in self.cases)


def _sweep(sizes):
    return [size for size, copies in sizes for _ in range(copies)]


def _color_item(label: str, g: Graph) -> Item:
    return Item("color", label, graph=g, text=cli.write_dimacs(g))


def _recognize_item(label: str, g: Graph, expect: str) -> Item:
    return Item("recognize", label, cases=((g, expect),))


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise SetupError(what)


def _polynomial_member_check(g: Graph, label: str) -> None:
    _require(patterns.find_diamond(g) is None, f"{label}: diamond")
    _require(patterns.find_bowtie(g) is None, f"{label}: bowtie")


def _exact_isk4_free(g: Graph, label: str) -> None:
    _require(patterns.find_isk4(g, budget=g.n) is None, f"{label}: induced K4 subdivision")


# ---------------------------------------------------------------------------
# Builders


def build_peel_sp(rng: random.Random) -> List[Item]:
    items = []
    for n in _sweep(PEEL_SP_SIZES):
        g = generators.gen_series_parallel(rng.randrange(2**31), n)
        _polynomial_member_check(g, f"sp-{n}")
        items.append(_color_item(f"sp-{n}", g))
    for n in _sweep(PEEL_SP_RECOGNIZE_SIZES):
        g = generators.gen_series_parallel(rng.randrange(2**31), n)
        _polynomial_member_check(g, f"sp-{n}")
        items.append(_recognize_item(f"sp-{n}", g, recognition.BRANCH_PROPER_2_CUTSET))
    return items


def build_line_leaf(rng: random.Random) -> List[Item]:
    items = []
    for k in _sweep(LINE_LEAF_CUBIC_ORDERS):
        s = rng.randrange(2**31)
        # The generator itself rejects diamonds and bowties.
        g = generators.gen_line_of_subdivided_cubic(s, generators.random_cubic_graph(s, k))
        items.append(_color_item(f"line-{g.n}", g))
        items.append(_recognize_item(f"line-{g.n}", g, recognition.BRANCH_LINE_OF_SPARSE))
    return items


K33 = build_graph([(a, b) for a in range(3) for b in range(3, 6)], 6)


def _triangles(g: Graph) -> List[Tuple[int, int, int]]:
    return [(u, v, w) for u, v in g.edges() for w in g.neighbors(v) if w > v and g.has_edge(u, w)]


def chain(rng: random.Random, target: int) -> Tuple[Graph, List[Tuple[Tuple, Graph]]]:
    """Glue pieces in a path, each sharing one cut vertex with the next.

    Pieces follow CUT_CHAIN_PATTERN, so n depends on the target alone; the
    seed picks each cubic H and the glued vertices.  A glued vertex never
    lies in a triangle on both sides (that would be a bowtie); every vertex
    of a line-graph piece lies in a triangle, so the pattern never puts two
    line-graph pieces next to each other.

    Returns the chain and its pieces, each with an isomorphism-class key:
    (k, triangles of H), exact because K4 is the only cubic graph of order 4
    and K3,3 (no triangle) and the prism (two) the only ones of order 6.
    """
    edges: List[Tuple[int, int]] = []
    pieces = []
    n = 0
    prev_out: Optional[int] = None
    prev_in_triangle = False
    step = 0
    while n < target:
        k = CUT_CHAIN_PATTERN[step % len(CUT_CHAIN_PATTERN)]
        step += 1
        if k is None:
            piece, key = K33, ("K33",)
        else:
            s = rng.randrange(2**31)
            h = generators.random_cubic_graph(s, k)
            piece = generators.gen_line_of_subdivided_cubic(s, h, budget=0)
            key = (k, len(_triangles(h)))
        pieces.append((key, piece))
        tri = {v for t in _triangles(piece) for v in t}
        verts = list(piece.vertices)
        v_in = rng.choice(verts)
        _require(not (prev_in_triangle and v_in in tri), "glue of two triangle vertices")
        ids = {}
        for v in verts:
            if v == v_in and prev_out is not None:
                ids[v] = prev_out
            else:
                ids[v] = n
                n += 1
        edges.extend((ids[u], ids[v]) for u, v in piece.edges())
        v_out = rng.choice([v for v in verts if v != v_in])
        prev_out, prev_in_triangle = ids[v_out], v_out in tri
    return build_graph(edges, n), pieces


def build_cut_chain(rng: random.Random) -> List[Item]:
    items = []
    recognize = []
    checked = set()
    for target in _sweep(CUT_CHAIN_SIZES):
        g, pieces = chain(rng, target)
        _polynomial_member_check(g, f"chain-{g.n}")
        # A K4 subdivision is 2-connected, so it cannot straddle a cut
        # vertex: checking one piece per isomorphism class covers the chain.
        for key, piece in pieces:
            if key not in checked:
                _exact_isk4_free(piece, f"piece-{piece.n}")
                checked.add(key)
        items.append(_color_item(f"chain-{g.n}", g))
        # Recognizing a chain classifies its pieces: the leaves its
        # decomposition finds.
        cases = tuple((piece, recognition.BRANCH_COMPLETE_BIPARTITE if piece is K33
                       else recognition.BRANCH_LINE_OF_SPARSE) for _, piece in pieces)
        recognize.append(Item("recognize", f"pieces-{g.n}", cases=cases))
    return items + recognize


GADGET = build_graph([(0, 1), (0, 2), (1, 2), (5, 3), (5, 4), (3, 4), (1, 3), (2, 4)], 6)


def necklace(rng: random.Random, t: int) -> Graph:
    """t copies of GADGET sharing the pair {0, 5}, vertices randomly relabeled.

    GADGET is a prism (triangles 0-1-2 and 5-3-4) minus the matching edge
    0-5; the pair has degree 2 in each copy, so it has degree 2t overall.
    """
    n = 2 + 4 * t
    label = list(range(n))
    rng.shuffle(label)
    edges = []
    for i in range(t):
        ids = {0: 0, 5: 1, 1: 2 + 4 * i, 2: 3 + 4 * i, 3: 4 + 4 * i, 4: 5 + 4 * i}
        edges.extend((label[ids[u]], label[ids[v]]) for u, v in GADGET.edges())
    return build_graph(edges, n)


def build_p2_split(rng: random.Random) -> List[Item]:
    items = []
    _exact_isk4_free(GADGET, "gadget")
    for t in _sweep(P2_NECKLACE_GADGETS):
        g = necklace(rng, t)
        label = f"necklace-{g.n}"
        _require(is_connected(g) and g.min_degree() >= 3, f"{label}: not basic")
        _require(patterns.find_diamond(g) is None, f"{label}: diamond")
        items.append(_color_item(label, g))
    for n in _sweep(P2_RECOGNIZE_SIZES):
        g = generators.gen_series_parallel(rng.randrange(2**31), n)
        _polynomial_member_check(g, f"sp-{n}")
        items.append(_recognize_item(f"sp-{n}", g, recognition.BRANCH_PROPER_2_CUTSET))
    return items


WORKLOADS: Dict[str, Callable[[random.Random], List[Item]]] = {
    "peel_sp": build_peel_sp,
    "line_leaf": build_line_leaf,
    "cut_chain": build_cut_chain,
    "p2_split": build_p2_split,
}


def setup(workload: str, seed: int) -> List[Item]:
    """Generate, check and serialize the inputs of one workload."""
    index = list(WORKLOADS).index(workload)
    return WORKLOADS[workload](random.Random(seed * SEED_STRIDE + index))


# ---------------------------------------------------------------------------
# Operations (timed) and their checks (untimed)


def op_color(item: Item):
    g = cli.parse_dimacs(item.text)
    cert = pipeline.color_class_member(g, jobs=1)
    return g, cert, dumps(cert.to_json())


def op_verify(g: Graph, cert_text: str) -> bool:
    cert = pipeline.ColoringCertificate.from_json(loads(cert_text))
    return pipeline.verify_certificate(g, cert)


def op_recognize(item: Item):
    return [recognition.classify_basic(g) for g, _ in item.cases]


def check_color(item: Item, cert_text: str) -> List[str]:
    """Re-check the certificate against the generated graph, independently."""
    problems = []
    data = loads(cert_text)
    colors = {int(v): c for v, c in data["coloring"].items()}
    if set(colors) != set(item.graph.vertices):
        problems.append("coloring does not cover exactly the vertex set")
    elif any(colors[u] == colors[v] for u, v in item.graph.edges()):
        problems.append("coloring is not proper")
    if not set(colors.values()) <= {0, 1, 2} or data["palette"] > 3:
        problems.append(f"palette exceeds 3 (claims {data['palette']})")
    if data["n"] != item.n:
        problems.append(f"certificate n={data['n']}")
    return problems


def check_recognize(item: Item, verdicts) -> List[str]:
    return [problem for (g, expect), verdict in zip(item.cases, verdicts)
            for problem in _check_verdict(g, expect, verdict)]


def _check_verdict(g: Graph, expect: str, verdict) -> List[str]:
    """Re-check the witness that comes with the expected branch."""
    if verdict.branch != expect:
        return [f"n={g.n}: branch {verdict.branch}, expected {expect}"]
    if expect == recognition.BRANCH_PROPER_2_CUTSET:
        if verdict.cutset is None or not verdict.cutset.validate(g):
            return [f"n={g.n}: proper 2-cutset fails Proper2Cutset.validate"]
    elif expect == recognition.BRANCH_LINE_OF_SPARSE:
        if verdict.root is None or not verdict.root.validate(g) or not verdict.root.is_sparse():
            return [f"n={g.n}: root graph fails validation"]
    elif expect == recognition.BRANCH_COMPLETE_BIPARTITE:
        a, b = (set(p) for p in verdict.bipartition)
        complete = g.m == len(a) * len(b) and all((u in a) != (v in a) for u, v in g.edges())
        if a & b or a | b != set(g.vertices) or not complete:
            return [f"n={g.n}: bipartition is not a complete bipartite split"]
    return []

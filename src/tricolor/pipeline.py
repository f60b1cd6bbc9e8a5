"""End-to-end orchestration: decompose, classify, color, recombine, certify.

:func:`decompose` builds one tree.  Every node peels its subgraph, then
stops or tries the branches that are colored directly (complete bipartite,
line graph of a sparse graph), which reject a disconnected residual.  Only
a residual they reject is split into all its blocks, or else into all its
clique atoms (one MCS-M pass, run on 2-connected residues alone), and is
classified last.  A residual with a proper 2-cutset keeps the minimal small
side and hands the other side plus the pair to its one child, which goes
through the same steps.  Coloring is one bottom-up fold over that tree,
and the result ships as a certificate that re-validates offline.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .coloring import (
    ROUTE_FALLBACK,
    VertexColoring,
    add_back_peeled,
    color_basic,
    dual_colorings_for_side,
    merge_at_clique,
    merge_at_proper2,
)
from .cutsets import biconnected_blocks, clique_atoms
from .errors import ContractViolationError, PipelineError
from .graph import Graph, induced_subgraph, json_int, peel_low_degree
from .recognition import (
    BRANCH_COMPLETE_BIPARTITE,
    BRANCH_LINE_OF_SPARSE,
    BRANCH_PROPER_2_CUTSET,
    BasicVerdict,
    classify_direct,
    classify_residue,
)

__all__ = [
    "ColoringCertificate",
    "DecompositionTree",
    "TreeNode",
    "color_class_member",
    "decompose",
    "verify_certificate",
]

CERTIFICATE_FORMAT = "tricolor.certificate/2"
_CERTIFICATE_KEYS = {"format", "graph_hash", "n", "m", "coloring", "palette", "leaves",
                     "fallback_count"}
TREE_FORMAT = "tricolor.tree/5"


# ---------------------------------------------------------------------------
# Decomposition tree


@dataclass(frozen=True)
class TreeNode:
    """One node of the decomposition tree: ``graph``, an induced subgraph of the input.

    ``removed`` lists the vertices of the degree-<=2 peel of ``graph`` in
    removal order; the fold reads this node's graph alone.  ``cutset`` is
    the vertices in two or more children of a ``blocks`` or ``atoms`` node,
    the pair of a proper 2-cutset, and None at leaves.  The children of a
    ``blocks`` (``atoms``) node are the blocks (clique atoms) of its
    residual, each meeting the union of the earlier ones of its component
    in one cut vertex (a clique); blocks of different components share no
    vertex.  ``verdict`` classifies the residual of ``basic`` and
    ``proper_2_cutset`` nodes; a ``proper_2_cutset`` node's one child is
    ``side_y`` plus the pair.  A ``basic`` residual in the complete-bipartite
    or line-of-sparse branch may still have a clique cutset: those branches
    are colored without one.
    """

    node_id: int
    layer: int
    graph: Graph
    removed: Tuple[int, ...]
    cutset: Optional[Tuple[int, ...]]
    children: Tuple[int, ...]
    kind: str  # "empty" | "blocks" | "atoms" | "basic" | "proper_2_cutset"
    verdict: Optional[BasicVerdict]


@dataclass(frozen=True)
class DecompositionTree:
    nodes: Tuple[TreeNode, ...]
    layers: int

    @property
    def root(self) -> TreeNode:
        return self.nodes[0]

    def residual_vertices(self, node: TreeNode) -> Tuple[int, ...]:
        removed = set(node.removed)
        return tuple(v for v in node.graph.vertices if v not in removed)

    def to_json(self) -> Dict:
        return {
            "format": TREE_FORMAT,
            "n": self.root.graph.n,
            "m": self.root.graph.m,
            "layers": self.layers,
            "nodes": [
                {
                    "id": nd.node_id,
                    "layer": nd.layer,
                    "vertices": list(nd.graph.vertices),
                    "removed": list(nd.removed),
                    "cutset": list(nd.cutset) if nd.cutset is not None else None,
                    "children": list(nd.children),
                    "kind": nd.kind,
                    "branch": nd.verdict.branch if nd.verdict is not None else None,
                }
                for nd in self.nodes
            ],
        }


def _split(
    residual: Graph,
) -> Tuple[str, Optional[Tuple[int, ...]], List[Tuple[int, ...]], Optional[BasicVerdict]]:
    """Kind, cutset, child vertex sets and verdict; blocks and atoms share one path."""
    if residual.n == 0:
        return "empty", None, [], None
    verdict = classify_direct(residual)
    if verdict is not None:
        return "basic", None, [], verdict
    for kind, pieces in (("blocks", biconnected_blocks), ("atoms", clique_atoms)):
        parts = pieces(residual)
        if len(parts) > 1:
            counts = Counter(v for part in parts for v in part)
            return kind, tuple(sorted(v for v, k in counts.items() if k > 1)), parts, None
    verdict = classify_residue(residual)
    if verdict.branch == BRANCH_PROPER_2_CUTSET:
        pair = verdict.cutset.pair
        return "proper_2_cutset", pair, [verdict.cutset.side_y + pair], verdict
    return "basic", None, [], verdict


def decompose(g: Graph) -> DecompositionTree:
    """Decompose by degree-<=2 peels, cut vertices, clique atoms and proper 2-cutsets.

    Each node peels its subgraph to fixpoint.  An empty residual ends the
    branch.  A connected one that is complete bipartite or the line graph
    of a sparse graph is a ``basic`` leaf, clique cutsets or not.  Otherwise
    a residual with a cut vertex or more than one component splits into all
    its blocks at once (each component of a residual, of minimum degree 3,
    holds a block), and a 2-connected one with a clique cutset into all its
    clique atoms at once, read off one MCS-M pass.  What remains is
    classified: in the proper-2-cutset branch the node keeps the minimal
    small side and its child is the other side plus the pair, any other
    verdict makes a leaf.
    No residual is tested for a branch twice.  The root's graph is g itself,
    and children sit one layer deeper and get larger ids than their parent.
    Fully peeled leaves are kept: the replay needs their removal orders.
    The walk uses an explicit stack, so its depth does not grow with n.
    """
    nodes: List[Optional[TreeNode]] = []
    stack: List[Tuple[Graph, int, int]] = []

    def open_node(sub: Graph, layer: int) -> int:
        node_id = len(nodes)
        nodes.append(None)
        stack.append((sub, layer, node_id))
        return node_id

    open_node(g, 1)
    while stack:
        sub, layer, node_id = stack.pop()
        residual, order = peel_low_degree(sub)
        kind, cutset, parts, verdict = _split(residual)
        child_ids = tuple(
            open_node(induced_subgraph(residual, part), layer + 1) for part in parts
        )
        nodes[node_id] = TreeNode(node_id, layer, sub, order, cutset, child_ids, kind, verdict)
    layers = max(nd.layer for nd in nodes)
    return DecompositionTree(tuple(nodes), layers)


# ---------------------------------------------------------------------------
# Certificate


@dataclass(frozen=True)
class ColoringCertificate:
    """Machine-checkable record of one pipeline run.

    ``verify_certificate`` re-checks every field except ``leaf_verdicts`` and
    ``fallback_count``, which only report how the run went.
    """

    graph_hash: str
    n: int
    m: int
    coloring: VertexColoring
    palette: int
    leaf_verdicts: Tuple[Dict, ...]
    fallback_count: int

    def to_json(self) -> Dict:
        return {
            "format": CERTIFICATE_FORMAT,
            "graph_hash": self.graph_hash,
            "n": self.n,
            "m": self.m,
            "coloring": self.coloring.to_json(),
            "palette": self.palette,
            "leaves": list(self.leaf_verdicts),
            "fallback_count": self.fallback_count,
        }

    @classmethod
    def from_json(cls, data: Dict) -> "ColoringCertificate":
        """ValueError unless ``data`` has the shape ``schemas/certificate.json`` gives."""
        if not isinstance(data, dict):
            raise ValueError("certificate must be a JSON object")
        if data.get("format") != CERTIFICATE_FORMAT:
            raise ValueError(f"unsupported certificate format {data.get('format')!r}")
        if data.keys() != _CERTIFICATE_KEYS:
            raise ValueError(f"certificate keys must be {sorted(_CERTIFICATE_KEYS)}")
        graph_hash, leaves, raw = data["graph_hash"], data["leaves"], data["coloring"]
        if not (isinstance(graph_hash, str) and len(graph_hash) == 64
                and set(graph_hash) <= set("0123456789abcdef")):
            raise ValueError("certificate graph_hash must be 64 lowercase hex digits")
        n, m, palette, fallbacks = (json_int(data[key], f"certificate {key}")
                                    for key in ("n", "m", "palette", "fallback_count"))
        if min(n, m, palette, fallbacks) < 0 or palette > 3:
            raise ValueError("certificate n, m, fallback_count must be >= 0 and palette 0..3")
        if not isinstance(leaves, list) or not all(
                isinstance(leaf, dict) and leaf.keys() == {"size", "branch"}
                and type(leaf["size"]) is int and leaf["size"] > 0
                and isinstance(leaf["branch"], str) for leaf in leaves):
            raise ValueError("certificate leaves must be {size >= 1, branch} objects")
        if not isinstance(raw, dict):
            raise ValueError("certificate coloring must be a JSON object")
        vertices, values = list(map(int, raw)), list(raw.values())
        if (list(map(str, vertices)) != list(raw) or min(vertices, default=0) < 0
                or set(map(type, values)) - {int} or set(values) - {0, 1, 2}):
            raise ValueError("certificate coloring must map ids str(v), v >= 0, to colors 0..2")
        return cls(graph_hash, n, m, VertexColoring(dict(zip(vertices, values)), 3), palette,
                   tuple(leaves), fallbacks)


def _serialize_graph(g: Graph) -> Dict:
    return {"vertices": list(g.vertices), "edges": [list(e) for e in g.edges()]}


def _color_graph(tree: DecompositionTree) -> Tuple[VertexColoring, int]:
    """Fold the tree bottom-up; returns the coloring and the fallback count.

    Children have larger ids than their parent, so reversed id order visits
    every child before its parent.  Each node is folded on its own graph.
    """
    fallbacks = 0
    folded: Dict[int, VertexColoring] = {}
    for node in reversed(tree.nodes):
        if node.kind == "empty":
            residual_coloring = VertexColoring({}, 3)
        elif node.kind == "basic":
            leaf = induced_subgraph(node.graph, tree.residual_vertices(node))
            if node.verdict.branch not in (BRANCH_COMPLETE_BIPARTITE, BRANCH_LINE_OF_SPARSE):
                raise PipelineError(
                    f"basic leaf fits no structure branch (verdict: {node.verdict.branch})",
                    payload={"leaf": _serialize_graph(leaf), "verdict": node.verdict.branch},
                )
            residual_coloring = color_basic(leaf, node.verdict)
        elif node.kind == "proper_2_cutset":
            cs = node.verdict.cutset
            a, b = cs.pair
            dual = dual_colorings_for_side(induced_subgraph(node.graph, cs.side_x + cs.pair), a, b)
            if dual.route == ROUTE_FALLBACK:
                fallbacks += 1
            (child_id,) = node.children
            residual_coloring = merge_at_proper2(dual, folded.pop(child_id), a, b)
        else:
            # blocks or atoms: children in order, each aligned where it
            # meets the earlier ones.
            pieces = [folded.pop(child_id) for child_id in node.children]
            residual_coloring = merge_at_clique(node.graph, pieces)
        folded[node.node_id] = add_back_peeled(node.graph, residual_coloring, node.removed)
    return folded[tree.root.node_id], fallbacks


def color_class_member(g: Graph, jobs: int = 1) -> ColoringCertificate:
    """Produce a verified 3-coloring certificate for a class member.

    The pipeline runs structure-directed and aborts with a serialized
    witness of the offending subgraph when an assumption fails, rather than
    ever emitting a wrong coloring.  It runs no forbidden-pattern oracle; to
    refuse non-members, run ``tricolor membership`` first.  The pipeline is
    serial; ``jobs`` must be 1.
    """
    if jobs != 1:
        raise ValueError(f"jobs must be 1, got {jobs}")
    try:
        tree = decompose(g)
        coloring, fallbacks = _color_graph(tree)
    except ContractViolationError as exc:
        # A non-member can push an internal step outside its contract (for
        # example a clique cutset wider than the palette); surface that as a
        # structured failure rather than a leaked precondition error.
        raise PipelineError(
            f"structural assumption violated: {exc}",
            payload={"verdict": "structure", "graph": _serialize_graph(g)},
        ) from exc
    if not coloring.is_proper(g):
        raise PipelineError(
            "pipeline produced an improper coloring",
            payload={"graph": _serialize_graph(g)},
        )
    return ColoringCertificate(
        graph_hash=g.canonical_hash(),
        n=g.n,
        m=g.m,
        coloring=coloring,
        palette=coloring.palette_size(),
        leaf_verdicts=tuple(
            {"size": nd.graph.n - len(nd.removed), "branch": nd.verdict.branch}
            for nd in tree.nodes if nd.verdict is not None
        ),
        fallback_count=fallbacks,
    )


def verify_certificate(g: Graph, cert: ColoringCertificate) -> bool:
    """Recompute everything the certificate claims; true iff it all holds.

    The run report (``leaf_verdicts``, ``fallback_count``) claims nothing
    about the graph and is not checked.
    """
    if cert.graph_hash != g.canonical_hash():
        return False
    if cert.n != g.n or cert.m != g.m:
        return False
    if not cert.coloring.is_proper(g):
        return False
    actual_palette = cert.coloring.palette_size()
    return cert.palette == actual_palette and actual_palette <= 3

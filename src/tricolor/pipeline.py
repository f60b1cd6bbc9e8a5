"""End-to-end orchestration: decompose, classify, color, recombine, certify.

The driver peels and splits on clique cutsets first.  Every basic leaf is
then classified; leaves with a proper 2-cutset shed their minimal small side
repeatedly, each side receiving its paired colorings, until the residue is
directly colorable.  Colorings are recombined in exactly the reverse order:
proper-2-cutset sides last-extracted first, then clique merges and peel
replays up the tree.  The result ships as a certificate that re-validates
offline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .coloring import (
    ROUTE_FALLBACK,
    DualColorings,
    VertexColoring,
    add_back_peeled,
    color_basic,
    dual_colorings_for_side,
    merge_at_clique,
    merge_at_proper2,
)
from .cutsets import build_clique_tree, find_clique_cutset
from .errors import ContractViolationError, PipelineError
from .graph import Graph, induced_subgraph, is_connected
from .patterns import VERDICT_NONMEMBER, verify_membership
from .recognition import (
    BRANCH_COMPLETE_BIPARTITE,
    BRANCH_LINE_OF_SPARSE,
    BRANCH_PROPER_2_CUTSET,
    classify_basic,
)

__all__ = ["ColoringCertificate", "PipelineStats", "color_class_member", "verify_certificate"]

CERTIFICATE_FORMAT = "tricolor.certificate/2"


@dataclass
class PipelineStats:
    """Run report: one entry per basic leaf, and the fallback count."""

    leaf_verdicts: List[Dict] = field(default_factory=list)
    fallback_count: int = 0


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
        if not isinstance(data, dict):
            raise ValueError("certificate must be a JSON object")
        if data.get("format") != CERTIFICATE_FORMAT:
            raise ValueError(f"unsupported certificate format {data.get('format')!r}")
        if not isinstance(data["coloring"], dict):
            raise ValueError("certificate coloring must be a JSON object")
        coloring = VertexColoring({int(v): int(c) for v, c in data["coloring"].items()}, 3)
        return cls(
            graph_hash=data["graph_hash"],
            n=int(data["n"]),
            m=int(data["m"]),
            coloring=coloring,
            palette=int(data["palette"]),
            leaf_verdicts=tuple(data["leaves"]),
            fallback_count=int(data["fallback_count"]),
        )


def _serialize_graph(g: Graph) -> Dict:
    return {"vertices": list(g.vertices), "edges": [list(e) for e in g.edges()]}


def _color_basic_leaf(leaf: Graph, stats: PipelineStats) -> VertexColoring:
    """Color one basic leaf, shedding proper-2-cutset sides while they last.

    Extracted sides stack up with their paired colorings and are merged back
    in reverse extraction order.  The residue after an extraction can lose
    basicness (the cutset pair may drop below degree 3, or a clique cutset
    may appear); it then goes through the full pipeline recursively rather
    than through another extraction, which keeps every step inside its
    guarantees.
    """
    chain: List[DualColorings] = []
    cur = leaf
    known_basic = True
    coloring: Optional[VertexColoring] = None
    while True:
        if not known_basic:
            basic = (
                is_connected(cur)
                and cur.min_degree() >= 3
                and find_clique_cutset(cur) is None
            )
            if not basic:
                coloring = _color_graph(cur, stats)
                break
        verdict = classify_basic(cur)
        if not chain:  # the leaf itself, not a residue
            stats.leaf_verdicts.append({"size": cur.n, "branch": verdict.branch})
        if verdict.branch in (BRANCH_COMPLETE_BIPARTITE, BRANCH_LINE_OF_SPARSE):
            coloring = color_basic(cur, verdict)
            break
        if verdict.branch == BRANCH_PROPER_2_CUTSET:
            cs = verdict.cutset
            a, b = cs.pair
            tx = induced_subgraph(cur, set(cs.side_x) | {a, b})
            ty = induced_subgraph(cur, set(cs.side_y) | {a, b})
            dual = dual_colorings_for_side(tx, a, b)
            if dual.route == ROUTE_FALLBACK:
                stats.fallback_count += 1
            chain.append(dual)
            cur = ty
            known_basic = False
            continue
        raise PipelineError(
            f"basic leaf fits no structure branch (verdict: {verdict.branch})",
            payload={"leaf": _serialize_graph(cur), "verdict": verdict.branch},
        )
    for dual in reversed(chain):
        coloring = merge_at_proper2(dual, coloring, *dual.pair)
    return coloring


def _color_graph(g: Graph, stats: PipelineStats) -> VertexColoring:
    tree = build_clique_tree(g)
    leaf_colorings = {
        node.node_id: _color_basic_leaf(induced_subgraph(g, tree.residual_vertices(node)), stats)
        for node in tree.nodes if node.kind == "basic"
    }

    # Bottom-up fold over an explicit post-order (children have larger ids
    # than their parent, so reversed id order visits children first).
    folded: Dict[int, VertexColoring] = {}
    for node in reversed(tree.nodes):
        if node.kind == "empty":
            residual_coloring = VertexColoring({}, 3)
        elif node.kind == "basic":
            residual_coloring = leaf_colorings[node.node_id]
        else:
            pieces = []
            for child_id in node.children:
                child = tree.nodes[child_id]
                child_graph = induced_subgraph(g, child.vertices)
                pieces.append((child_graph, folded.pop(child_id)))
            residual_coloring = merge_at_clique(pieces, node.cutset or ())
        folded[node.node_id] = add_back_peeled(residual_coloring, node.removed)
    return folded[tree.root.node_id]


def color_class_member(
    g: Graph,
    jobs: int = 1,
    verify_membership_first: bool = False,
    membership_budget: Optional[int] = None,
) -> ColoringCertificate:
    """Produce a verified 3-coloring certificate for a class member.

    The pipeline runs structure-directed and aborts with a serialized
    witness of the offending subgraph when an assumption fails, rather than
    ever emitting a wrong coloring.  Membership checking is off by default
    (the forbidden-subdivision oracle is expensive); enable it to reject
    non-members up front within the oracle budget.  The pipeline is serial;
    ``jobs`` must be 1.
    """
    if jobs != 1:
        raise ValueError(f"jobs must be 1, got {jobs}")
    if verify_membership_first:
        kwargs = {} if membership_budget is None else {"budget": membership_budget}
        report = verify_membership(g, **kwargs)
        if report.verdict == VERDICT_NONMEMBER:
            raise PipelineError(
                "input is not a class member",
                payload={"verdict": report.verdict, "witness": report.witness.to_json()},
            )
    stats = PipelineStats()
    try:
        coloring = _color_graph(g, stats)
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
        leaf_verdicts=tuple(stats.leaf_verdicts),
        fallback_count=stats.fallback_count,
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

"""Decomposition-based proper 3-coloring for a hereditary graph class.

The supported class excludes three induced patterns: K4 minus an edge, two
triangles sharing a vertex, and every subdivision of K4.  Members decompose
along degree peels, cut vertices, clique cutsets and proper 2-cutsets into
pieces that are complete bipartite or line graphs of sparse max-degree-3
graphs; coloring those pieces and replaying the decomposition in reverse
yields a verified proper 3-coloring.
"""

from .coloring import (
    DualColorings,
    EdgeColoring,
    VertexColoring,
    add_back_peeled,
    chi_exact,
    color_basic,
    dual_colorings_for_side,
    dual_edge_colorings,
    edge_color_sparse,
    merge_at_clique,
    merge_at_proper2,
)
from .cutsets import (
    Proper2Cutset,
    biconnected_blocks,
    find_clique_cutset,
    find_proper_2_cutset,
)
from .errors import (
    BudgetExceededError,
    ContractViolationError,
    GenerationError,
    MalformedInputError,
    PipelineError,
    TricolorError,
)
from .generators import (
    gen_glue,
    gen_line_of_subdivided_cubic,
    gen_nonmember,
    gen_series_parallel,
    line_graph,
    random_cubic_graph,
    subdivide,
)
from .graph import (
    Graph,
    build_graph,
    connected_components,
    induced_subgraph,
    is_connected,
    peel_low_degree,
)
from .patterns import (
    MembershipReport,
    PatternWitness,
    find_bowtie,
    find_diamond,
    find_isk4,
    verify_membership,
)
from .pipeline import (
    ColoringCertificate,
    DecompositionTree,
    color_class_member,
    decompose,
    verify_certificate,
)
from .recognition import (
    BasicVerdict,
    RootGraph,
    classify_basic,
    classify_direct,
    classify_residue,
    is_complete_bipartite,
    is_series_parallel,
    reconstruct_line_graph_root,
)

__version__ = "0.1.0"

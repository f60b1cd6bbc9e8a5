import hashlib
import inspect
import json
import sys
from importlib import resources

import jsonschema
import pytest

from common import (
    complete_bipartite,
    k33_edge_tree,
    k33_line_chain,
    complete_graph,
    necklace,
    cycle_graph,
    flower,
    order7_on_prism,
    order7_with_k33_side,
    petersen_graph,
    prism_graph,
)
from tricolor import (
    Graph,
    PipelineError,
    build_graph,
    classify_basic,
    color_class_member,
    gen_glue,
    gen_series_parallel,
    line_graph,
    random_cubic_graph,
    subdivide,
    verify_certificate,
)
from tricolor import cutsets, pipeline, recognition
from tricolor.pipeline import ColoringCertificate


class TestColorClassMember:
    def test_prism(self):
        cert = color_class_member(prism_graph())
        assert cert.palette <= 3
        assert cert.leaf_verdicts == ({"size": 6, "branch": "line_of_sparse"},)
        assert verify_certificate(prism_graph(), cert)

    def test_k33_two_colors(self):
        cert = color_class_member(complete_bipartite(3, 3))
        assert cert.palette == 2
        assert cert.leaf_verdicts[0]["branch"] == "complete_bipartite"
        assert verify_certificate(complete_bipartite(3, 3), cert)

    def test_sp_200_fully_peeled(self):
        g = gen_series_parallel(9, 200)
        cert = color_class_member(g)
        assert cert.palette <= 3
        assert cert.leaf_verdicts == ()
        assert verify_certificate(g, cert)

    def test_k24_end_to_end(self):
        g = complete_bipartite(2, 4)
        cert = color_class_member(g)
        assert cert.palette <= 3
        assert verify_certificate(g, cert)

    def test_line_of_subdivided_cubic(self):
        g = line_graph(subdivide(complete_graph(4)))
        cert = color_class_member(g)
        assert cert.palette == 3
        assert cert.leaf_verdicts[0]["branch"] == "line_of_sparse"
        assert cert.fallback_count == 0
        assert verify_certificate(g, cert)

    def test_basic_leaf_builds_no_copy_of_the_input(self, monkeypatch):
        # Nothing peels and the input is one leaf, so neither the peel nor
        # the fold needs a graph on all of g's vertices but g itself.
        g = line_graph(subdivide(random_cubic_graph(3, 64)))
        assert g.min_degree() == 3
        sizes = []
        plain = Graph.__init__

        def counted(self, adj, m):
            sizes.append(len(adj))
            plain(self, adj, m)

        monkeypatch.setattr(Graph, "__init__", counted)
        cert = color_class_member(g)
        monkeypatch.undo()
        assert cert.leaf_verdicts == ({"size": g.n, "branch": "line_of_sparse"},)
        assert sizes.count(g.n) == 0

    def test_deterministic(self):
        g = gen_glue(4, [prism_graph(), cycle_graph(5)], "vertex")
        c1 = color_class_member(g)
        c2 = color_class_member(g)
        assert c1.to_json() == c2.to_json()

    def test_two_sibling_leaves_and_serial_jobs(self):
        # Two prisms joined by a 3-edge path: the path interior peels away
        # and the residual splits into two sibling prism leaves, each colored
        # on its own.  The pipeline is serial: any jobs value but 1 is refused.
        edges = list(prism_graph().edges())
        edges += [(u + 6, v + 6) for u, v in prism_graph().edges()]
        edges += [(0, 12), (12, 13), (13, 6)]
        g = build_graph(edges, 14)
        from tricolor import verify_membership

        assert verify_membership(g).verdict == "member"
        cert = color_class_member(g, jobs=1)
        assert len(cert.leaf_verdicts) == 2
        assert {leaf["branch"] for leaf in cert.leaf_verdicts} == {"line_of_sparse"}
        assert verify_certificate(g, cert)
        with pytest.raises(ValueError):
            color_class_member(g, jobs=4)

    def test_disconnected_input(self):
        g = build_graph(
            list(prism_graph().edges())
            + [(u + 6, v + 6) for u, v in cycle_graph(5).edges()],
            11,
        )
        cert = color_class_member(g)
        assert cert.palette <= 3 and verify_certificate(g, cert)

    def test_disconnected_residual_is_one_blocks_node(self):
        # K3,3 beside a prism: the peel removes nothing, and the residual's
        # two components are its two blocks, sharing no vertex.
        g = build_graph(
            list(complete_bipartite(3, 3).edges())
            + [(u + 6, v + 6) for u, v in prism_graph().edges()],
            12,
        )
        tree = pipeline.decompose(g)
        assert (tree.root.kind, tree.root.cutset) == ("blocks", ())
        assert [tree.nodes[c].graph.vertices for c in tree.root.children] == [
            tuple(range(6)), tuple(range(6, 12))]
        schema = resources.files("tricolor").joinpath("schemas/tree.json").read_text()
        jsonschema.validate(tree.to_json(), json.loads(schema))
        cert = color_class_member(g)
        assert {leaf["branch"] for leaf in cert.leaf_verdicts} == {
            "complete_bipartite", "line_of_sparse"}
        assert verify_certificate(g, cert)

    def test_empty_and_singleton(self):
        for g in (build_graph([], 0), build_graph([], 1)):
            cert = color_class_member(g)
            assert verify_certificate(g, cert)

    def test_k4_fails_loudly(self):
        with pytest.raises(PipelineError) as err:
            color_class_member(complete_graph(4))
        assert err.value.payload["verdict"] == "unclassified"
        assert err.value.payload["leaf"]["vertices"] == [0, 1, 2, 3]

    def test_no_series_parallel_test_in_the_pipeline(self, monkeypatch):
        # Every residual has minimum degree >= 3, hence a K4 minor.
        calls = []
        plain = recognition.is_series_parallel
        monkeypatch.setattr(recognition, "is_series_parallel",
                            lambda g: calls.append(g.n) or plain(g))
        for g in (necklace(4, 3), prism_graph()):
            assert verify_certificate(g, color_class_member(g))
        with pytest.raises(PipelineError) as err:
            color_class_member(petersen_graph())
        assert err.value.payload["verdict"] == "unclassified"
        assert calls == []

    def test_petersen_fails_loudly(self):
        with pytest.raises(PipelineError):
            color_class_member(petersen_graph())


class TestHighDegreeCutVertex:
    """The flower's vertex 0 has degree 2k and lies in all k blocks."""

    @staticmethod
    def _neighbour_entries_iterated(monkeypatch, g):
        count = [0]

        class Counted(tuple):
            def __iter__(self):
                count[0] += len(self)
                return super().__iter__()

        plain = Graph.neighbors
        monkeypatch.setattr(Graph, "neighbors", lambda self, v: Counted(plain(self, v)))
        pipeline._color_graph(pipeline.decompose(g))
        monkeypatch.undo()
        return count[0]

    def test_decompose_and_fold_read_linear_work(self, monkeypatch):
        # Reading vertex 0's whole list once per block would grow 16-fold.
        small = self._neighbour_entries_iterated(monkeypatch, flower(250))
        big = self._neighbour_entries_iterated(monkeypatch, flower(1000))
        assert big <= 4.5 * small

    def test_large_flower_colors(self):
        g = flower(8000)
        assert g.n == 48001
        assert verify_certificate(g, color_class_member(g))


class TestClassifyBeforeCutsetSearch:
    """Direct branches and the block split leave MCS-M nothing to do."""

    @pytest.fixture
    def no_clique_cutset_search(self, monkeypatch):
        def refuse(g):
            raise AssertionError(f"clique cutset search ran on n={g.n}")

        monkeypatch.setattr(pipeline, "clique_atoms", refuse)

    def test_chain_splits_at_every_cut_vertex(self, no_clique_cutset_search):
        g = k33_line_chain(150)
        assert g.n == 1201
        assert pipeline.decompose(g).layers == 2
        cert = color_class_member(g)
        assert len(cert.leaf_verdicts) == 150
        assert verify_certificate(g, cert)

    def test_line_leaf_is_classified_first(self, no_clique_cutset_search):
        g = line_graph(subdivide(random_cubic_graph(5, 256)))
        assert g.n == 768
        cert = color_class_member(g)
        assert cert.leaf_verdicts == ({"size": 768, "branch": "line_of_sparse"},)
        assert verify_certificate(g, cert)


class TestAtomsNode:
    def test_edge_tree_is_one_flat_atoms_node(self, monkeypatch):
        # 400 K3,3 copies glued at edges: one MCS-M pass lists every copy.
        g = k33_edge_tree(7, 400)
        assert g.n == 1602
        runs = []
        mcs_m = cutsets._mcs_m
        monkeypatch.setattr(cutsets, "_mcs_m", lambda h: runs.append(h.n) or mcs_m(h))
        t = pipeline.decompose(g)
        assert runs == [1602]
        assert t.layers == 2
        assert t.root.kind == "atoms" and len(t.root.children) == 400
        assert {t.nodes[c].verdict.branch for c in t.root.children} == {"complete_bipartite"}
        assert verify_certificate(g, color_class_member(g))


def _refuse_pattern_oracles(monkeypatch):
    """Make every public function of tricolor.patterns raise, wherever it is bound."""
    from tricolor import patterns

    public = {
        fn: name for name, fn in vars(patterns).items()
        if inspect.isfunction(fn) and fn.__module__ == patterns.__name__
        and not name.startswith("_")
    }

    def refusing(name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"pattern oracle {name} ran")
        return refuse

    for mod_name, module in list(sys.modules.items()):
        if mod_name != "tricolor" and not mod_name.startswith("tricolor."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in public:
                monkeypatch.setattr(module, attr, refusing(public[value]))
    assert "find_diamond" in public.values()


class TestCoreRunsNoOracle:
    """The decomposition and coloring never call a forbidden-pattern oracle."""

    def test_members_and_machinery_inputs(self, monkeypatch):
        machinery = TestProper2CutsetMachinery
        colorable = [
            gen_series_parallel(9, 200),
            line_graph(subdivide(random_cubic_graph(5, 64))),
            k33_line_chain(5),
            order7_with_k33_side(),
            machinery.doubled_k33(),
            order7_on_prism(),
            machinery._nested_gadgets(10),
        ]
        failing = [machinery.impossible_side(), machinery.big_clique_cutset()]
        _refuse_pattern_oracles(monkeypatch)
        for g in colorable:
            assert verify_certificate(g, color_class_member(g))
            classify_basic(g)
        for g in failing:
            with pytest.raises(PipelineError):
                color_class_member(g)
            classify_basic(g)


class TestProper2CutsetMachinery:
    """End-to-end coverage of the extraction loop.

    Genuine class members essentially never present a basic leaf in the
    proper-2-cutset branch (their leaves peel away or are line graphs), so
    these tests use structure-compatible non-members: the pipeline runs
    structure-directed and its output, when it produces one, is still a
    verified proper coloring.
    """

    def test_extraction_then_bipartite_residue(self):
        g = order7_with_k33_side()
        assert g.min_degree() >= 3
        cert = color_class_member(g)
        assert cert.palette <= 3
        assert verify_certificate(g, cert)
        assert classify_basic(g).cutset.pair == (0, 3)
        # The residue {0, 3, 6, 7, 8, 9} is a K33 leaf of its own.
        assert cert.leaf_verdicts == (
            {"size": 10, "branch": "proper_2_cutset"},
            {"size": 6, "branch": "complete_bipartite"},
        )
        assert cert.fallback_count == 0

    @staticmethod
    def doubled_k33():
        # Two K33s sharing the nonadjacent pair (0, 1).
        return build_graph([(a, b) for a in (0, 1, 2) for b in (3, 4, 5)]
                           + [(a, b) for a in (0, 1, 6) for b in (7, 8, 9)], 10)

    def test_doubled_k33_exercises_fallback(self):
        # The extracted side is a K33, which none of the constructive routes
        # covers, so the logged exhaustive fallback runs and the merge still
        # comes out proper.
        g = self.doubled_k33()
        cert = color_class_member(g)
        assert verify_certificate(g, cert)
        assert cert.fallback_count == 1
        assert classify_basic(g).cutset.pair == (0, 1)

    def test_nonbasic_residue_recurses(self):
        # After shedding the 6-vertex side at (0, 3), the residue is a prism
        # with two pendant attachments: no longer basic, so its tree node
        # peels them before reaching a line-graph leaf.
        g = order7_on_prism()
        assert g.min_degree() >= 3
        cert = color_class_member(g)
        assert verify_certificate(g, cert)
        assert classify_basic(g).cutset.pair == (0, 3)
        assert cert.fallback_count == 0
        # The second leaf is the residue's, a child of the cutset node.
        branches = [leaf["branch"] for leaf in cert.leaf_verdicts]
        assert branches == ["proper_2_cutset", "line_of_sparse"]

    @staticmethod
    def _nested_gadgets(k):
        # Level i holds ids 6i..6i+5.  Levels 0..k-1 are the prism minus the
        # matching edge (0, 3), joined by 0->1 and 3->5 of the next level;
        # level k is a whole prism.  Each level hangs off a proper 2-cutset
        # of the level after it.
        gadget = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (1, 4), (2, 5)]
        edges = []
        for level in range(k + 1):
            o = 6 * level
            edges += [(o + u, o + v) for u, v in gadget]
            if level < k:
                edges += [(o, o + 7), (o + 3, o + 11)]
            else:
                edges.append((o, o + 3))
        return build_graph(edges, 6 * (k + 1))

    def test_nested_gadgets_without_deep_recursion(self):
        # Every extraction leaves a residue with another proper 2-cutset;
        # the stack depth must not grow with the number of levels.
        g = self._nested_gadgets(10)
        assert g.n == 66
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 40)
        try:
            cert = color_class_member(g)
        finally:
            sys.setrecursionlimit(old)
        assert verify_certificate(g, cert)
        assert len(cert.leaf_verdicts) == 11
        assert cert.fallback_count == 0

    @staticmethod
    def impossible_side():
        # The minimal side is a diamond whose nonadjacent pair is forced
        # onto one color.
        edges = [
            (0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (1, 4), (2, 5),
            (0, 6), (3, 7), (6, 8), (6, 9), (7, 8), (7, 9), (8, 9),
        ]
        return build_graph(edges, 10)

    def test_impossible_side_fails_loudly(self):
        # The disagreeing half cannot exist, so the pipeline reports the
        # offending side.
        g = self.impossible_side()
        assert g.min_degree() >= 3
        with pytest.raises(PipelineError) as err:
            color_class_member(g)
        assert err.value.payload["missing"] == "diff"
        assert err.value.payload["pair"] == [6, 7]

    def test_direct_impossible_side(self):
        from tricolor import dual_colorings_for_side
        from common import diamond_graph

        with pytest.raises(PipelineError) as err:
            dual_colorings_for_side(diamond_graph(), 2, 3)
        assert err.value.payload["missing"] == "diff"

    @staticmethod
    def big_clique_cutset():
        # K5 sharing a K4 with another K5.
        edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        edges += [(u, v) for u in range(1, 5) for v in [5] if True]
        return build_graph(edges, 6)

    def test_big_clique_cutset_reported_structurally(self):
        # The clique merge cannot align palettes of width four, and the
        # failure surfaces as a pipeline error rather than a leaked
        # precondition.
        with pytest.raises(PipelineError):
            color_class_member(self.big_clique_cutset())


class TestFuzzIntegrity:
    def test_never_emits_invalid_certificate(self, rng):
        """On arbitrary inputs the pipeline either raises or proves its work."""
        from tricolor import BudgetExceededError
        from conftest import random_graph

        produced = failed = 0
        for _ in range(250):
            g = random_graph(rng, rng.randrange(0, 14), rng.choice([0.15, 0.3, 0.5, 0.8]))
            try:
                cert = color_class_member(g)
            except (PipelineError, BudgetExceededError):
                failed += 1
                continue
            produced += 1
            assert verify_certificate(g, cert)
            assert cert.palette <= 3
        assert produced > 0 and failed > 0

    def test_members_always_succeed(self, rng):
        for seed in range(40):
            g = gen_series_parallel(seed + 5000, rng.randrange(4, 40))
            cert = color_class_member(g)
            assert verify_certificate(g, cert)


class TestCertificate:
    def test_round_trip_json(self):
        cert = color_class_member(prism_graph())
        doc = json.loads(json.dumps(cert.to_json()))
        loaded = ColoringCertificate.from_json(doc)
        assert verify_certificate(prism_graph(), loaded)

    def test_tampered_color_detected(self):
        g = prism_graph()
        cert = color_class_member(g)
        doc = cert.to_json()
        doc["coloring"]["0"] = doc["coloring"]["1"]
        assert not verify_certificate(g, ColoringCertificate.from_json(doc))

    def test_wrong_graph_detected(self):
        cert = color_class_member(prism_graph())
        other = cycle_graph(6)
        assert not verify_certificate(other, cert)

    def test_palette_mismatch_detected(self):
        g = prism_graph()
        doc = color_class_member(g).to_json()
        doc["palette"] = 2
        assert not verify_certificate(g, ColoringCertificate.from_json(doc))

    def test_unknown_format_rejected(self):
        doc = color_class_member(prism_graph()).to_json()
        doc["format"] = "bogus/9"
        with pytest.raises(ValueError):
            ColoringCertificate.from_json(doc)

    def test_claims_only_what_verify_checks(self):
        doc = color_class_member(prism_graph()).to_json()
        assert doc["format"] == "tricolor.certificate/2"
        assert set(doc) == {"format", "graph_hash", "n", "m", "coloring", "palette",
                            "leaves", "fallback_count"}
        doc["format"] = "tricolor.certificate/1"
        with pytest.raises(ValueError):
            ColoringCertificate.from_json(doc)


class TestGoldenOutputs:
    """Pinned SHA-256 of the certificate and the tree of one input per family.

    Any change to the coloring, the decomposition, the graph hash or the JSON
    layout shows here; a pure speed-up must leave every digest as it is.
    """

    CASES = {
        "series_parallel": (
            lambda: gen_series_parallel(11, 2000),
            "4f5e0680017ab8f811f2ff244288dc959d40308df0d98c22b63a6ed8f7bebe92",
            "576b44e71d3460c84c73f4f55f454d75b239ae7ab5913130859b07cacf596490",
        ),
        "line_of_subdivided_cubic": (
            lambda: line_graph(subdivide(random_cubic_graph(11, 40))),
            "637889efed997db1c1594c27efcb649905d044e908141a38cd51d7f4f3acc29f",
            "385feb1b8c3292dc0561f51b6638a5cbd24c9f42868ba5d2af92dfb5b205a961",
        ),
        "k33_line_chain": (
            lambda: k33_line_chain(24),
            "9f9dbd811fc0e678c35d82a4925fa5e21f95001b231969558d14849d84d29294",
            "d66dbf2dc0915f7e08ce79c80213ede386b98df803a1c7229de7ddaba627034e",
        ),
        "necklace": (
            lambda: necklace(11, 8),
            "64ae3f1b83a2d77e09992c4aba564fb1c6f55ef17b82d1ebc099cabe2d9f43de",
            "bdbc7cd0b2056effab4671d6e9457ff0dbcde543f3d9c536a439b9c3a7c85f02",
        ),
    }

    @staticmethod
    def _digest(doc) -> str:
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()

    @pytest.mark.parametrize("family", sorted(CASES))
    def test_certificate_and_tree_digests(self, family):
        make, cert_digest, tree_digest = self.CASES[family]
        g = make()
        assert self._digest(color_class_member(g).to_json()) == cert_digest
        assert self._digest(pipeline.decompose(g).to_json()) == tree_digest

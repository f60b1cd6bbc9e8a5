import networkx as nx

import oracles
from common import (
    bowtie_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    flower,
    k33_line_chain,
    necklace,
    path_graph,
    petersen_graph,
    prism_graph,
)
from conftest import random_graph
from tricolor import (
    Graph,
    build_graph,
    classify_basic,
    color_class_member,
    decompose,
    find_clique_cutset,
    find_diamond,
    is_connected,
    gen_series_parallel,
    induced_subgraph,
    is_complete_bipartite,
    is_series_parallel,
    line_graph,
    random_cubic_graph,
    reconstruct_line_graph_root,
    subdivide,
)
from tricolor import coloring, recognition


class TestCompleteBipartite:
    def test_k33(self):
        assert is_complete_bipartite(complete_bipartite(3, 3)) == ((0, 1, 2), (3, 4, 5))

    def test_c6_bipartite_but_not_complete(self):
        assert is_complete_bipartite(cycle_graph(6)) is None

    def test_triangle(self):
        assert is_complete_bipartite(complete_graph(3)) is None

    def test_star(self):
        assert is_complete_bipartite(complete_bipartite(1, 4)) is not None

    def test_two_components_rejected(self):
        g = build_graph([(0, 1), (2, 3)], 4)
        assert is_complete_bipartite(g) is None

    def test_empty_and_edgeless(self):
        assert is_complete_bipartite(build_graph([], 0)) == ((), ())
        assert is_complete_bipartite(build_graph([], 3)) == ((0, 1, 2), ())

    def test_matches_enumeration(self, rng):
        hits = 0
        for _ in range(3000):
            n = rng.randrange(0, 9)
            kind = rng.randrange(4)
            if kind == 0:
                g = random_graph(rng, n, rng.choice([0.0, 0.3, 0.6]))
            else:
                # Complete bipartite, then perhaps an edge flipped, an
                # isolated vertex added or a second piece beside it.
                a = rng.randrange(0, n + 1)
                edges = {(u, v) for u in range(a) for v in range(a, n)}
                if kind == 2 and n >= 2:
                    edges ^= {tuple(sorted(rng.sample(range(n), 2)))}
                if kind == 3:
                    edges |= {(n, n + 1)} if rng.random() < 0.5 else set()
                    n += 2
                perm = rng.sample(range(n), n)
                g = build_graph([(perm[u], perm[v]) for u, v in edges], n)
            expected = oracles.complete_bipartite_sides(g)
            assert is_complete_bipartite(g) == expected, (g.n, list(g.edges()))
            hits += expected is not None
        assert 500 < hits < 2500


class TestSeriesParallel:
    def test_k4_false(self):
        assert not is_series_parallel(complete_graph(4))

    def test_trees_true(self):
        assert is_series_parallel(path_graph(6))
        assert is_series_parallel(build_graph([(0, 1), (0, 2), (0, 3)], 4))

    def test_k23_true(self):
        # Suppressing the three middles leaves a triple edge that collapses.
        assert is_series_parallel(complete_bipartite(2, 3))

    def test_prism_false(self):
        assert not is_series_parallel(prism_graph())

    def test_generated_sp_graphs(self):
        for seed in range(10):
            assert is_series_parallel(gen_series_parallel(seed, 30))

    def test_agrees_with_k4_minor_oracle(self, rng):
        checked = 0
        while checked < 300:
            g = random_graph(rng, rng.randrange(1, 11), rng.choice([0.2, 0.3, 0.45]))
            checked += 1
            assert is_series_parallel(g) == (not oracles.has_k4_minor(g))


class TestRootReconstruction:
    def test_prism_root_is_k23(self):
        root = reconstruct_line_graph_root(prism_graph())
        assert root is not None
        assert root.h.n == 5 and root.h.m == 6
        assert sorted(root.h.degree(v) for v in root.h.vertices) == [2, 2, 2, 3, 3]
        assert root.validate(prism_graph())
        # Independent check: the line graph of K23 is the prism.
        k23 = complete_bipartite(2, 3)
        rebuilt = line_graph(k23)
        assert oracles.to_nx(rebuilt).number_of_edges() == 9
        import networkx as nx

        assert nx.is_isomorphic(oracles.to_nx(rebuilt), oracles.to_nx(prism_graph()))

    def test_triangle_root_is_claw(self):
        root = reconstruct_line_graph_root(complete_graph(3))
        assert root.h.n == 4
        assert sorted(root.h.degree(v) for v in root.h.vertices) == [1, 1, 1, 3]
        assert root.validate(complete_graph(3))

    def test_c5_root_is_c5(self):
        root = reconstruct_line_graph_root(cycle_graph(5))
        assert root.h.n == 5 and root.h.m == 5
        assert all(root.h.degree(v) == 2 for v in root.h.vertices)
        assert root.validate(cycle_graph(5))

    def test_k1_root_is_single_edge(self):
        root = reconstruct_line_graph_root(build_graph([], 1))
        assert root.h.n == 2 and root.h.m == 1

    def test_petersen_not_line_graph(self):
        assert reconstruct_line_graph_root(petersen_graph()) is None

    def test_k4_rejected_for_degree(self):
        # K4 = L(star on four leaves), whose hub exceeds degree three.
        assert reconstruct_line_graph_root(complete_graph(4)) is None

    def test_high_degree_rejected_in_linear_work(self, monkeypatch):
        # Listing common neighbours at the flower's vertex 0, of degree 2k,
        # would make about 4k^2 has_edge calls.
        def has_edge_calls(g):
            count = [0]
            plain = Graph.has_edge

            def counted(self, u, v):
                count[0] += 1
                return plain(self, u, v)

            monkeypatch.setattr(Graph, "has_edge", counted)
            assert reconstruct_line_graph_root(g) is None
            monkeypatch.undo()
            return count[0]

        assert has_edge_calls(flower(1000)) <= 4.5 * has_edge_calls(flower(250))

    def test_diamond_precondition(self):
        # Diamond, disconnected and empty inputs have no root: None, not an error.
        g = build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)], 4)
        assert reconstruct_line_graph_root(g) is None
        assert reconstruct_line_graph_root(build_graph([(0, 1), (2, 3)], 4)) is None
        assert reconstruct_line_graph_root(build_graph([], 0)) is None

    def test_line_graphs_of_subdivided_cubics_roundtrip(self):
        for base in (complete_graph(4), complete_bipartite(3, 3), prism_graph()):
            h = subdivide(base)
            g = line_graph(h)
            root = reconstruct_line_graph_root(g)
            assert root is not None
            assert root.validate(g)
            assert root.is_sparse() and root.h.max_degree() <= 3


class TestIsSparseSubcubic:
    def test_matches_definition_on_random_graphs(self, rng):
        outcomes = []
        for _ in range(5000):
            g = random_graph(rng, rng.randrange(1, 13), rng.choice([0.1, 0.2, 0.3, 0.45]))
            expected = g.max_degree() <= 3 and all(
                g.degree(u) <= 2 or g.degree(v) <= 2 for u, v in g.edges()
            )
            assert recognition.is_sparse_subcubic(g) == expected, sorted(g.edges())
            outcomes.append(expected)
        assert min(outcomes.count(True), outcomes.count(False)) >= 1000

    def test_fixed_cases(self):
        # A degree-4 vertex all of whose edges end at a leaf; two adjacent hubs.
        assert not recognition.is_sparse_subcubic(complete_bipartite(1, 4))
        assert not recognition.is_sparse_subcubic(
            build_graph([(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)], 6)
        )
        assert recognition.is_sparse_subcubic(complete_bipartite(1, 3))
        assert recognition.is_sparse_subcubic(subdivide(complete_graph(4)))


def _random_subcubic(rng):
    k = rng.randrange(2, 11)
    deg = [0] * k
    edges = set()
    for _ in range(rng.randrange(1, 2 * k)):
        u, v = sorted(rng.sample(range(k), 2))
        if deg[u] < 3 and deg[v] < 3 and (u, v) not in edges:
            edges.add((u, v))
            deg[u] += 1
            deg[v] += 1
    return build_graph(sorted(edges), k)


def _is_sparse_subcubic(h):
    return max((d for _, d in h.degree()), default=0) <= 3 and all(
        h.degree(u) <= 2 or h.degree(v) <= 2 for u, v in h.edges()
    )


class TestRootAgainstOracles:
    def test_random_graphs_and_perturbed_line_graphs(self, rng):
        """The rebuild against find_diamond and networkx's inverse line graph.

        A diamond means no root; a root validates and its line graph is
        isomorphic to g; and a connected diamond-free g gets a root exactly
        when networkx finds it to be the line graph of a sparse graph of
        maximum degree three (by Whitney's theorem that root is unique up
        to isomorphism, apart from the triangle, whose roots are both
        sparse and subcubic).
        """
        cases = [
            random_graph(rng, rng.randrange(1, 15), rng.choice([0.15, 0.25, 0.4, 0.6]))
            for _ in range(2000)
        ]
        for _ in range(400):
            g = line_graph(_random_subcubic(rng))
            if not 1 <= g.n <= 14:
                continue
            cases.append(g)
            non_edges = [
                (u, v) for u in g.vertices for v in g.vertices if u < v and not g.has_edge(u, v)
            ]
            if non_edges:
                cases.append(build_graph(list(g.edges()) + [rng.choice(non_edges)], g.n))
        rooted = diamonds = 0
        for g in cases:
            root = reconstruct_line_graph_root(g)
            has_diamond = find_diamond(g) is not None
            if has_diamond:
                diamonds += 1
                assert root is None
            if root is not None:
                rooted += 1
                assert root.validate(g)
                assert nx.is_isomorphic(oracles.to_nx(line_graph(root.h)), oracles.to_nx(g))
            if g.n and is_connected(g) and not has_diamond:
                try:
                    expected = _is_sparse_subcubic(nx.inverse_line_graph(oracles.to_nx(g)))
                except nx.NetworkXError:
                    expected = False
                assert (root is not None) == expected, sorted(g.edges())
        assert rooted >= 300 and diamonds >= 500


def _root_key(root):
    if root is None:
        return None
    h = root.h
    return h.n, h.m, h.vertices, list(h.edges()), root.vertex_to_edge


def _with_helper(g, a, b):
    """g plus a new vertex joined to a and b, as the paired side coloring builds it."""
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    helper = max(g.vertices) + 1
    adj[helper] = {a, b}
    adj[a].add(helper)
    adj[b].add(helper)
    return Graph.from_adjacency(adj)


class TestRootRebuildAgainstReference:
    """The rebuild decides from g's cliques what the reference re-checks on the root."""

    def assert_matches(self, g):
        root = reconstruct_line_graph_root(g)
        assert _root_key(root) == _root_key(oracles.reference_line_graph_root(g)), sorted(g.edges())
        if root is not None:
            assert root.validate(g) and root.is_sparse()
            # The root built in place is the one build_graph makes of its edges.
            assert root.h == build_graph(root.vertex_to_edge.values(), root.h.n)
        return root

    def test_random_graphs(self, rng):
        rooted = 0
        for _ in range(20000):
            g = random_graph(rng, rng.randrange(1, 13), rng.choice([0.1, 0.2, 0.3, 0.45, 0.6]))
            rooted += self.assert_matches(g) is not None
        assert rooted >= 2000

    def test_line_graphs_of_subdivided_cubics(self):
        for seed in range(6):
            for k in (4, 6, 8, 12):
                base = random_cubic_graph(seed, k)
                for double in (None, next(iter(base.edges()))):
                    assert self.assert_matches(line_graph(subdivide(base, double))) is not None

    def test_decomposition_pieces(self):
        # Every graph a tree node holds: the chain's K3,3 and L(S(K4)) blocks
        # and the chain itself, and each necklace side with its helper vertex.
        for g in (k33_line_chain(6), complete_bipartite(3, 3),
                  line_graph(subdivide(complete_graph(4)))):
            for node in decompose(g).nodes:
                self.assert_matches(node.graph)
        sides = 0
        for seed, t in ((0, 2), (1, 3), (2, 4)):
            for node in decompose(necklace(seed, t)).nodes:
                self.assert_matches(node.graph)
                if node.kind == "proper_2_cutset":
                    cs = node.verdict.cutset
                    side = induced_subgraph(node.graph, cs.side_x + cs.pair)
                    assert self.assert_matches(_with_helper(side, *cs.pair)) is not None
                    sides += 1
        assert sides >= 3

    def test_a_vertex_in_two_triangles_has_no_sparse_root(self):
        # Both are line graphs whose every vertex lies in at most two
        # cliques; only the triangle count at one vertex refuses them.
        assert reconstruct_line_graph_root(bowtie_graph()) is None
        base = random_cubic_graph(1, 8)
        s = subdivide(base)
        # A new root edge between the subdivision vertices of two disjoint
        # base edges makes both ends degree 3.
        (a, b), (c, d) = next((e, f) for e in base.edges() for f in base.edges()
                              if not set(e) & set(f))
        mid = {frozenset(s.neighbors(x)): x for x in s.vertices if x >= base.n}
        root_edges = list(s.edges()) + [(mid[frozenset((a, b))], mid[frozenset((c, d))])]
        g = line_graph(build_graph(root_edges, s.n))
        assert find_diamond(g) is None and g.max_degree() <= 4
        assert reconstruct_line_graph_root(g) is None
        assert oracles.reference_line_graph_root(g) is None

    def test_one_sparseness_pass_per_line_leaf(self, monkeypatch):
        calls = [0]
        plain = recognition.is_sparse_subcubic

        def counted(h):
            calls[0] += 1
            return plain(h)

        monkeypatch.setattr(recognition, "is_sparse_subcubic", counted)
        monkeypatch.setattr(coloring, "is_sparse_subcubic", counted)
        for g in (line_graph(subdivide(random_cubic_graph(3, 32))), k33_line_chain(8)):
            calls[0] = 0
            cert = color_class_member(g)
            leaves = sum(v["branch"] == "line_of_sparse" for v in cert.leaf_verdicts)
            assert leaves >= 1 and calls[0] == leaves


class TestClassifyBasic:
    def test_k33(self):
        assert classify_basic(complete_bipartite(3, 3)).branch == "complete_bipartite"

    def test_prism(self):
        verdict = classify_basic(prism_graph())
        assert verdict.branch == "line_of_sparse"
        assert verdict.root.h.n == 5

    def test_line_of_subdivided_cubic_leaf(self):
        g = line_graph(subdivide(complete_graph(4)))
        assert g.min_degree() == 3
        assert find_clique_cutset(g) is None
        verdict = classify_basic(g)
        assert verdict.branch == "line_of_sparse"
        assert verdict.root.validate(g)

    def test_paths_classify_as_line_graphs(self):
        # A path is the line graph of a longer path, and that branch is
        # checked before the series-parallel fallthrough.
        assert classify_basic(path_graph(5)).branch == "line_of_sparse"

    def test_sp_fallthrough_for_raw_inputs(self):
        from common import diamond_graph

        # The diamond dodges every earlier branch: it is not complete
        # bipartite, the line-graph route skips diamond-containing inputs,
        # and no vertex pair disconnects it.
        assert classify_basic(diamond_graph()).branch == "series_parallel"

    def test_petersen_unclassified(self):
        assert classify_basic(petersen_graph()).branch == "unclassified"

    def test_k24_proper_2_cutset(self):
        verdict = classify_basic(complete_bipartite(2, 4))
        # K24 is complete bipartite, so that branch wins first.
        assert verdict.branch == "complete_bipartite"

    def test_proper_2_cutset_branch(self):
        # A graph that is neither complete bipartite nor a line graph but
        # carries a proper 2-cutset: four internally disjoint 0-1 paths.
        from common import theta_graph

        g = theta_graph(3, 3, 3, 3)
        verdict = classify_basic(g)
        assert verdict.branch == "proper_2_cutset"
        assert verdict.cutset.validate(g)

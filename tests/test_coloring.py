import inspect
import itertools
import sys

import pytest

import oracles
from common import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    diamond_graph,
    path_graph,
    petersen_graph,
    prism_graph,
    prism_minus_matching_edge,
)
from conftest import random_graph
from tricolor import (
    BudgetExceededError,
    ContractViolationError,
    DualColorings,
    EdgeColoring,
    PipelineError,
    add_back_peeled,
    build_graph,
    chi_exact,
    classify_basic,
    color_basic,
    dual_colorings_for_side,
    dual_edge_colorings,
    edge_color_sparse,
    induced_subgraph,
    line_graph,
    merge_at_clique,
    merge_at_proper2,
    peel_low_degree,
    subdivide,
    VertexColoring,
)
from tricolor.coloring import ROUTE_FALLBACK, ROUTE_LINE_ROOT


def doubled_instance(base, edge):
    """Subdivide `edge` twice and all others once; return (h, e1, e2)."""
    h = subdivide(base, double_edge=edge)
    mid = next((u, v) for u, v in h.edges() if h.degree(u) == 2 and h.degree(v) == 2)
    y, z = mid
    e1 = (y, next(u for u in h.neighbors(y) if u != z))
    e2 = (z, next(u for u in h.neighbors(z) if u != y))
    return h, e1, e2


class TestChiExact:
    def test_c5(self):
        chi, witness = chi_exact(cycle_graph(5))
        assert chi == 3 and witness.is_proper(cycle_graph(5))

    def test_k33(self):
        chi, witness = chi_exact(complete_bipartite(3, 3))
        assert chi == 2 and witness.is_proper(complete_bipartite(3, 3))

    def test_petersen(self):
        chi, witness = chi_exact(petersen_graph())
        assert chi == 3
        assert witness.is_proper(petersen_graph())
        # Independent floor: an odd cycle rules out two colors.
        assert not oracles.is_bipartite(petersen_graph())

    def test_empty_and_edgeless(self):
        assert chi_exact(build_graph([], 0))[0] == 0
        assert chi_exact(build_graph([], 4))[0] == 1

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            chi_exact(cycle_graph(25))

    def test_matches_bruteforce(self, rng):
        for _ in range(40):
            g = random_graph(rng, rng.randrange(1, 9), rng.choice([0.3, 0.5, 0.7]))
            chi, witness = chi_exact(g)
            assert chi == oracles.brute_chromatic(g)
            assert witness.is_proper(g)
            assert witness.palette_size() == chi

    def test_long_path_without_deep_recursion(self):
        # The backtracking goes one level per vertex; its depth must not
        # depend on the interpreter's recursion limit.
        g = path_graph(300)
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 40)
        try:
            chi, witness = chi_exact(g, budget=300)
        finally:
            sys.setrecursionlimit(old)
        assert chi == 2 and witness.is_proper(g)


class TestEdgeColorSparse:
    def test_k23(self):
        h = complete_bipartite(2, 3)
        ec = edge_color_sparse(h)
        assert ec.is_proper(h)
        for v in (0, 1):
            assert {ec[(v, u)] for u in h.neighbors(v)} == {0, 1, 2}

    def test_c6_uses_at_most_three(self):
        ec = edge_color_sparse(cycle_graph(6))
        assert ec.is_proper(cycle_graph(6))
        assert len(set(ec.colors.values())) <= 3

    def test_odd_cycle(self):
        ec = edge_color_sparse(cycle_graph(5))
        assert ec.is_proper(cycle_graph(5))

    def test_subdivided_k4(self):
        h = subdivide(complete_graph(4))
        assert h.n == 10 and h.m == 12
        ec = edge_color_sparse(h)
        assert ec.is_proper(h)
        # An exhaustive search agrees a 3-edge-coloring exists.
        assert oracles.edge_coloring_search(h) is not None

    def test_is_proper_refuses_each_fault(self):
        h = subdivide(complete_graph(4))
        good = edge_color_sparse(h).colors
        assert EdgeColoring(good).is_proper(h)
        first = next(iter(good))
        non_edge = next((u, v) for u in h.vertices for v in h.vertices
                        if u < v and not h.has_edge(u, v))
        x = next(x for x in h.vertices if h.degree(x) == 2)
        e_a, e_b = ((x, y) if x < y else (y, x) for y in h.neighbors(x))
        missing = {e: c for e, c in good.items() if e != first}
        faults = [
            missing,
            {**missing, non_edge: good[first]},
            {**missing, first[::-1]: good[first]},
            {**good, first: 3},
            {**good, e_b: good[e_a]},
            {**good, non_edge: 0},
        ]
        for colors in faults:
            assert not EdgeColoring(colors).is_proper(h), colors
        assert [len(colors) - h.m for colors in faults] == [-1, 0, 0, 0, 0, 1]

    def test_k4_not_sparse(self):
        with pytest.raises(ContractViolationError):
            edge_color_sparse(complete_graph(4))

    def test_max_degree_rejected(self):
        with pytest.raises(ContractViolationError):
            edge_color_sparse(complete_bipartite(1, 4))

    def test_paths_and_forests(self):
        h = build_graph([(0, 1), (1, 2), (3, 4)], 5)
        assert edge_color_sparse(h).is_proper(h)

    def test_subdivided_cubics(self):
        from common import cube_graph

        for base in (complete_graph(4), complete_bipartite(3, 3), prism_graph(),
                     cube_graph(), petersen_graph()):
            h = subdivide(base)
            assert edge_color_sparse(h).is_proper(h)

    def test_doubled_chains_everywhere(self):
        base = complete_bipartite(3, 3)
        for edge in base.edges():
            h = subdivide(base, double_edge=edge)
            assert edge_color_sparse(h).is_proper(h)

    def test_mixed_sparse_shapes(self, rng):
        # Random sparse graphs: subdivide every edge of a random graph with
        # max degree <= 3, then sprinkle pendant paths.
        for _ in range(20):
            base = random_graph(rng, rng.randrange(2, 8), 0.4)
            if base.max_degree() > 3:
                continue
            h = subdivide(base)
            assert edge_color_sparse(h).is_proper(h)

    def test_fuzz_varied_segment_structure(self, rng):
        """Sparse graphs with one-, two- and longer chains, loops, leaves."""
        checked = 0
        while checked < 150:
            n = rng.randrange(2, 9)
            base = random_graph(rng, n, rng.choice([0.3, 0.5]))
            if base.max_degree() > 3:
                continue
            # Re-expand each edge into a chain of random length; chains of
            # length one are kept only when an endpoint has low degree.
            edges = []
            nxt = n
            for u, v in base.edges():
                hops = rng.choice([1, 1, 2, 3])
                if hops == 1 and base.degree(u) == 3 and base.degree(v) == 3:
                    hops = 2
                prev = u
                for _ in range(hops - 1):
                    edges.append((prev, nxt))
                    prev = nxt
                    nxt += 1
                edges.append((prev, v))
            from tricolor import build_graph as bg

            h = bg(edges, nxt) if edges else bg([], n)
            ec = edge_color_sparse(h)
            assert ec.is_proper(h)
            assert ec.colors == oracles.edge_color_sparse_reference(h)
            checked += 1

    def test_matches_reference_on_line_roots(self, monkeypatch):
        from tricolor import coloring, random_cubic_graph, reconstruct_line_graph_root

        swaps = []
        plain = coloring._swap

        def counted(*args):
            swaps.append(args)
            plain(*args)

        monkeypatch.setattr(coloring, "_swap", counted)
        for seed in range(20):
            g = line_graph(subdivide(random_cubic_graph(seed, 8 + 2 * seed)))
            h = reconstruct_line_graph_root(g).h
            assert edge_color_sparse(h).colors == oracles.edge_color_sparse_reference(h)
        # The swap branch ran, so the colour sets were refreshed after it.
        assert swaps


class TestDualEdgeColorings:
    def test_smallest_instance(self):
        base = complete_graph(4)
        h, e1, e2 = doubled_instance(base, (0, 1))
        assert h.n == 11 and h.m == 13
        c_same, c_diff = dual_edge_colorings(h, e1, e2)
        assert c_same.is_proper(h) and c_diff.is_proper(h)
        assert c_same[e1] == c_same[e2]
        assert c_diff[e1] != c_diff[e2]
        # Exhaustive confirmation that both constraint types are achievable.
        assert oracles.edge_coloring_search(h, (e1, e2), want_equal=True) is not None
        assert oracles.edge_coloring_search(h, (e1, e2), want_equal=False) is not None

    def test_k33_instance(self):
        h, e1, e2 = doubled_instance(complete_bipartite(3, 3), (0, 3))
        c_same, c_diff = dual_edge_colorings(h, e1, e2)
        assert c_same[e1] == c_same[e2] and c_diff[e1] != c_diff[e2]

    def test_every_doubled_edge_of_small_cubics(self):
        for base in (complete_graph(4), complete_bipartite(3, 3), prism_graph()):
            for edge in base.edges():
                h, e1, e2 = doubled_instance(base, edge)
                c_same, c_diff = dual_edge_colorings(h, e1, e2)
                assert c_same.is_proper(h) and c_diff.is_proper(h)
                assert c_same[e1] == c_same[e2] and c_diff[e1] != c_diff[e2]

    def test_parallel_edge_base(self):
        # Root of the order-7 shape: two hubs joined by chains of interior
        # sizes 1, 1 and 2 (the base is a cubic multigraph with a triple
        # edge, subdivided once per edge plus one extra).
        h = build_graph([(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 5), (5, 1)], 6)
        c_same, c_diff = dual_edge_colorings(h, (0, 4), (5, 1))
        assert c_same[(0, 4)] == c_same[(5, 1)]
        assert c_diff[(0, 4)] != c_diff[(5, 1)]

    def test_plain_subdivision_rejected(self):
        h = subdivide(complete_graph(4))
        e1 = next(iter(h.edges()))
        with pytest.raises(ContractViolationError):
            dual_edge_colorings(h, e1, e1)

    def test_wrong_marked_edges_rejected(self):
        h, e1, e2 = doubled_instance(complete_graph(4), (0, 1))
        other = next(e for e in h.edges() if e not in (e1, e2))
        with pytest.raises(ContractViolationError):
            dual_edge_colorings(h, e1, other)


class TestColorBasic:
    def test_k33_two_colors(self):
        g = complete_bipartite(3, 3)
        coloring = color_basic(g, classify_basic(g))
        assert coloring.is_proper(g)
        assert coloring.palette_size() == 2

    def test_prism_triangles_rainbow(self):
        g = prism_graph()
        coloring = color_basic(g, classify_basic(g))
        assert coloring.is_proper(g)
        assert {coloring[0], coloring[1], coloring[2]} == {0, 1, 2}
        assert {coloring[3], coloring[4], coloring[5]} == {0, 1, 2}

    def test_c5_via_root(self):
        g = cycle_graph(5)
        verdict = classify_basic(g)
        assert verdict.branch == "line_of_sparse"
        coloring = color_basic(g, verdict)
        assert coloring.is_proper(g)
        assert coloring.palette_size() == 3

    def test_wrong_branch_rejected(self):
        verdict = classify_basic(diamond_graph())
        assert verdict.branch == "series_parallel"
        with pytest.raises(ContractViolationError):
            color_basic(diamond_graph(), verdict)


def all_proper_colorings(g, k=3):
    verts = list(g.vertices)
    for combo in itertools.product(range(k), repeat=len(verts)):
        assignment = dict(zip(verts, combo))
        if all(assignment[u] != assignment[v] for u, v in g.edges()):
            yield assignment


class TestDualColoringsForSide:
    def test_theta_side(self):
        # Side = path a-x-b plus path a-y-z-b; with the helper vertex it
        # makes a theta.  a=0, b=1.
        tx = build_graph([(0, 2), (2, 1), (0, 3), (3, 4), (4, 1)], 5)
        duals = dual_colorings_for_side(tx, 0, 1)
        assert duals.validate(tx)
        assert duals.route == ROUTE_FALLBACK
        # Exhaustive scan over 3^5 assignments confirms both targets exist.
        seen_same = seen_diff = False
        for assignment in all_proper_colorings(tx):
            seen_same |= assignment[0] == assignment[1]
            seen_diff |= assignment[0] != assignment[1]
        assert seen_same and seen_diff

    def test_c4_side(self):
        tx = cycle_graph(4)
        duals = dual_colorings_for_side(tx, 0, 2)
        assert duals.validate(tx)
        assert duals.route == ROUTE_FALLBACK

    def test_order7_instance(self):
        tx = prism_minus_matching_edge()
        duals = dual_colorings_for_side(tx, 0, 3)
        assert duals.validate(tx)
        # Side plus helper is the line graph of a theta with paths 2, 2, 3.
        assert duals.route == ROUTE_LINE_ROOT

    def test_line_root_side(self):
        h = subdivide(complete_graph(4), double_edge=(0, 1))
        g = line_graph(h)
        u = next(v for v in g.vertices if g.degree(v) == 2)
        a, b = g.neighbors(u)
        tx = induced_subgraph(g, [v for v in g.vertices if v != u])
        duals = dual_colorings_for_side(tx, a, b)
        assert duals.validate(tx)
        assert duals.route == ROUTE_LINE_ROOT

    def test_line_root_side_checks_doubled_chain_once(self, monkeypatch):
        from tricolor import coloring

        calls = []
        checked = coloring._doubled_chain
        monkeypatch.setattr(coloring, "_doubled_chain",
                            lambda *args: calls.append(args) or checked(*args))
        duals = dual_colorings_for_side(prism_minus_matching_edge(), 0, 3)
        assert duals.route == ROUTE_LINE_ROOT
        assert len(calls) == 1

    def test_swap_invariant_failure_is_not_a_route_miss(self, monkeypatch):
        from tricolor import coloring

        def broken(*args):
            raise ContractViolationError("alternating-path swap invariant failed")

        monkeypatch.setattr(coloring, "_dual_edge_colorings_at", broken)
        with pytest.raises(ContractViolationError, match="swap invariant"):
            dual_colorings_for_side(prism_minus_matching_edge(), 0, 3)

    def test_fallback_on_path_side(self):
        tx = path_graph(3)  # helper vertex closes a 4-cycle: no doubled chain
        duals = dual_colorings_for_side(tx, 0, 2)
        assert duals.validate(tx)
        assert duals.route == ROUTE_FALLBACK

    def test_adjacent_pair_rejected(self):
        with pytest.raises(ContractViolationError):
            dual_colorings_for_side(path_graph(3), 0, 1)

    def test_long_fallback_side(self):
        # A 3000-edge path from a to b plus a K33 with a, b and w on one
        # side: no constructive route applies, and the fallback search runs
        # 3005 vertices deep without recursing.
        a, b, w = 0, 3000, 3001
        edges = [(i, i + 1) for i in range(3000)]
        edges += [(x, y) for x in (a, b, w) for y in (3002, 3003, 3004)]
        tx = build_graph(edges, 3005)
        duals = dual_colorings_for_side(tx, a, b)
        assert duals.route == ROUTE_FALLBACK
        assert duals.same.is_proper(tx) and duals.diff.is_proper(tx)
        assert duals.validate(tx)

    def test_fallback_search_matches_exact_oracle(self, rng):
        # Pinning a = b is coloring g with b merged into a; pinning a != b is
        # coloring g plus the edge ab.  The brute-force oracle decides both
        # without the backtracking search the fallback shares with chi_exact.
        from tricolor.coloring import _constrained_search

        for _ in range(150):
            n = rng.randrange(4, 14)
            g = random_graph(rng, n, rng.choice([0.3, 0.4, 0.5]))
            pairs = [(u, v) for u, v in itertools.combinations(range(n), 2)
                     if not g.has_edge(u, v)]
            if not pairs:
                continue
            a, b = rng.choice(pairs)
            merged = build_graph({tuple(sorted((a if x == b else x for x in e)))
                                  for e in g.edges()}, n)
            joined = build_graph(list(g.edges()) + [(a, b)], n)
            for same, pinned in ((True, merged), (False, joined)):
                found = _constrained_search(g, a, b, same)
                assert (found is not None) == (oracles.brute_chromatic(pinned) <= 3)
                if found is not None:
                    assert all(found[u] != found[v] for u, v in g.edges())
                    assert (found[a] == found[b]) == same

    def test_impossible_side_reported(self):
        # In the diamond every proper 3-coloring gives the nonadjacent pair
        # one shared color, so the disagreeing half cannot exist.
        tx = diamond_graph()
        with pytest.raises(PipelineError) as err:
            dual_colorings_for_side(tx, 2, 3)
        assert err.value.payload["missing"] == "diff"
        assert err.value.payload["side"]["vertices"] == [0, 1, 2, 3]


class TestMergeAtClique:
    def test_two_triangles_sharing_vertex(self):
        g = build_graph([(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)], 5)
        c1 = VertexColoring({0: 0, 1: 1, 2: 2})
        c2 = VertexColoring({2: 0, 3: 1, 4: 2})
        merged = merge_at_clique(g, [c1, c2])
        assert merged.is_proper(g)

    def test_restriction_is_palette_permutation(self, rng):
        for _ in range(20):
            # Two random pieces glued on a shared edge.
            base = random_graph(rng, 6, 0.6)
            if not base.has_edge(0, 1):
                continue
            piece1 = induced_subgraph(base, {0, 1, 2, 3})
            piece2 = induced_subgraph(base, {0, 1, 4, 5})
            (chi1, col1), (chi2, col2) = chi_exact(piece1), chi_exact(piece2)
            if max(chi1, chi2) > 3:
                continue
            merged = merge_at_clique(base, [col1, col2])
            for piece, col in ((piece1, col1), (piece2, col2)):
                mapping = {}
                for v in piece.vertices:
                    mapping.setdefault(col[v], set()).add(merged[v])
                assert all(len(vals) == 1 for vals in mapping.values())

    def test_three_pieces_on_a_vertex(self):
        pieces = []
        union_edges = []
        for i in range(3):
            a, b = 1 + 2 * i, 2 + 2 * i
            union_edges += [(0, a), (0, b), (a, b)]
            pieces.append(VertexColoring({0: i % 3, a: (i + 1) % 3, b: (i + 2) % 3}))
        g = build_graph(union_edges, 7)
        merged = merge_at_clique(g, pieces)
        assert merged.is_proper(g)

    def test_oversized_cutset_rejected(self):
        # Two pieces meeting in four vertices, even of a clique, are out of class.
        g = complete_graph(5)
        col = VertexColoring({0: 0, 1: 1, 2: 2, 3: 0})
        with pytest.raises(ContractViolationError, match="larger than 3"):
            merge_at_clique(g, [col, VertexColoring({**col.colors, 4: 1})])

    def test_pieces_meeting_outside_a_clique_rejected(self):
        # The pieces 0-1-2 and 2-3-0 of the 4-cycle meet in the nonadjacent
        # pair {0, 2}, which is checked on the host graph.
        g = cycle_graph(4)
        with pytest.raises(ContractViolationError, match="outside a clique"):
            merge_at_clique(g, [VertexColoring({0: 0, 1: 1, 2: 0}),
                                VertexColoring({2: 0, 3: 1, 0: 2})])

    def test_piece_coloring_cutset_alike_rejected(self):
        # The second piece gives both cutset vertices color 0, so no palette
        # permutation aligns it with the first piece.
        g = build_graph([(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)], 4)
        with pytest.raises(ContractViolationError):
            merge_at_clique(g, [VertexColoring({0: 0, 1: 1, 2: 2}),
                                VertexColoring({0: 0, 1: 0, 3: 1})])

    def test_order_of_blocks_aligns_each_at_its_cut_vertex(self):
        # A path of three triangles: the third block meets the first two only
        # in vertex 4, so it is aligned there alone.
        g = build_graph([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4),
                         (4, 5), (5, 6), (4, 6)], 7)
        pieces = [VertexColoring({0: 0, 1: 1, 2: 2}), VertexColoring({2: 0, 3: 1, 4: 2}),
                  VertexColoring({4: 0, 5: 1, 6: 2})]
        assert merge_at_clique(g, pieces).is_proper(g)


class TestMergeAtProper2:
    def _setup(self):
        tx = cycle_graph(4)
        duals = dual_colorings_for_side(tx, 0, 2)
        return duals

    def test_same_branch(self):
        duals = self._setup()
        ty = VertexColoring({0: 1, 2: 1, 7: 0, 8: 2})
        merged = merge_at_proper2(duals, ty, 0, 2)
        assert merged[0] == 1 and merged[2] == 1
        assert merged[7] == 0 and merged[8] == 2
        assert merged[1] != merged[0] and merged[3] != merged[0]

    def test_diff_branch(self):
        duals = self._setup()
        ty = VertexColoring({0: 2, 2: 0, 7: 1})
        merged = merge_at_proper2(duals, ty, 0, 2)
        assert merged[0] == 2 and merged[2] == 0
        assert merged[1] not in (merged[0], merged[2])

    def test_pair_mismatch_rejected(self):
        duals = self._setup()
        with pytest.raises(ContractViolationError):
            merge_at_proper2(duals, VertexColoring({0: 0, 1: 1}), 0, 1)

    def test_diff_half_coloring_pair_alike_rejected(self):
        duals = self._setup()
        broken = DualColorings(duals.same, VertexColoring({0: 1, 1: 0, 2: 1, 3: 2}),
                               duals.pair)
        with pytest.raises(ContractViolationError):
            merge_at_proper2(broken, VertexColoring({0: 0, 2: 1, 7: 2}), 0, 2)

    def test_fourth_color_rejected(self):
        duals = self._setup()
        broken = DualColorings(duals.same, VertexColoring({0: 0, 1: 3, 2: 1, 3: 3}, 4),
                               duals.pair)
        with pytest.raises(ContractViolationError):
            merge_at_proper2(broken, VertexColoring({0: 0, 2: 1, 7: 2}), 0, 2)


class TestAddBackPeeled:
    def test_pendant_gets_least_free(self):
        g = path_graph(2)
        residual, order = peel_low_degree(g)
        coloring = add_back_peeled(g, VertexColoring({}), order)
        assert coloring.is_proper(g)
        # Replayed last-removed-first: 1 takes 0, then 0 avoids it.
        assert coloring.colors == {1: 0, 0: 1}

    def test_degree_two_neighbors_zero_one(self):
        # Hand-built order on the path 0-1-2: vertex 1 was removed with
        # neighbors 0 and 2, both colored.
        coloring = add_back_peeled(path_graph(3), VertexColoring({0: 0, 2: 1}), (1,))
        assert coloring[1] == 2

    def test_full_tree(self):
        tree = build_graph([(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (5, 6)], 7)
        residual, order = peel_low_degree(tree)
        assert residual.n == 0
        coloring = add_back_peeled(tree, VertexColoring({}), order)
        assert coloring.is_proper(tree)
        assert coloring.palette_size() <= 3

    def test_three_neighbors_rejected(self):
        # Vertex 9 is adjacent to vertices colored 0, 1 and 2: no color is free.
        star = build_graph([(9, 0), (9, 1), (9, 2)], 10)
        with pytest.raises(ContractViolationError):
            add_back_peeled(star, VertexColoring({0: 0, 1: 1, 2: 2}), (9,))

    def test_extends_any_proper_residual_coloring(self, rng):
        """Replaying a peel on top of any proper 3-coloring stays proper."""
        checked = 0
        while checked < 60:
            g = random_graph(rng, rng.randrange(1, 13), rng.choice([0.2, 0.35]))
            residual, order = peel_low_degree(g)
            if residual.n > 10:
                continue
            chi, witness = chi_exact(residual)
            if chi > 3:
                continue  # residual needs more than three colors
            full = add_back_peeled(g, witness, order)
            assert full.is_proper(g)
            checked += 1


class TestDualSideRoutes:
    def test_cycle_route_all_pairs(self):
        from itertools import combinations

        for n in range(4, 13):
            tx = cycle_graph(n)
            for a, b in combinations(range(n), 2):
                if tx.has_edge(a, b):
                    continue
                duals = dual_colorings_for_side(tx, a, b)
                assert duals.route == ROUTE_FALLBACK
                assert duals.validate(tx)

    def test_order7_route_under_relabeling(self, rng):
        base = prism_minus_matching_edge()
        for _ in range(12):
            perm = list(range(6))
            rng.shuffle(perm)
            relabeled = build_graph(
                [(perm[u], perm[v]) for u, v in base.edges()], 6
            )
            duals = dual_colorings_for_side(relabeled, perm[0], perm[3])
            assert duals.route == ROUTE_LINE_ROOT
            assert duals.validate(relabeled)

    def test_line_root_route_over_cubic_bases(self):
        from common import cube_graph

        for base in (complete_graph(4), complete_bipartite(3, 3), cube_graph()):
            for edge in list(base.edges())[:3]:
                h = subdivide(base, double_edge=edge)
                g = line_graph(h)
                u = next(v for v in g.vertices if g.degree(v) == 2)
                a, b = g.neighbors(u)
                tx = induced_subgraph(g, [v for v in g.vertices if v != u])
                duals = dual_colorings_for_side(tx, a, b)
                assert duals.route == "line_root"
                assert duals.validate(tx)

import hashlib
import json
import random

import pytest
from hypothesis import given, settings

from common import complete_bipartite, path_graph, prism_graph
from conftest import graphs, random_graph
from oracles import reference_peel, replay_removals
from tricolor import (
    MalformedInputError,
    build_graph,
    connected_components,
    induced_subgraph,
    is_connected,
    peel_low_degree,
)

PRISM_HASH = "58f9c1372a9af31e942d84f7e6d1b743807dc2ee774ddcdc693320fc9f7f88a2"


class TestBuildGraph:
    def test_k1(self):
        g = build_graph([], 1)
        assert g.n == 1 and g.m == 0

    def test_triangle(self):
        g = build_graph([(0, 1), (1, 2), (2, 0)], 3)
        assert g.n == 3 and g.m == 3
        assert all(g.degree(v) == 2 for v in g.vertices)

    def test_prism(self):
        g = prism_graph()
        assert g.n == 6 and g.m == 9
        assert all(g.degree(v) == 3 for v in g.vertices)

    def test_duplicate_edges_collapse(self):
        g = build_graph([(0, 1), (1, 0), (0, 1)], 2)
        assert g.m == 1

    def test_self_loop_rejected(self):
        with pytest.raises(MalformedInputError):
            build_graph([(0, 0)], 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(MalformedInputError):
            build_graph([(0, 5)], 3)

    def test_edges_sorted(self):
        g = build_graph([(2, 1), (1, 0)], 3)
        assert list(g.edges()) == [(0, 1), (1, 2)]


class TestInducedSubgraph:
    def test_prism_triangle(self):
        sub = induced_subgraph(prism_graph(), {0, 1, 2})
        assert sub.n == 3 and sub.m == 3

    def test_empty_set(self):
        sub = induced_subgraph(prism_graph(), set())
        assert sub.n == 0 and sub.m == 0

    def test_k33_four_vertices_two_per_side(self):
        k33 = complete_bipartite(3, 3)
        subset = (0, 1, 3, 4)
        # Expected edges computed by filtering K33's edge list to the subset.
        expected = {
            (u, v) for u, v in k33.edges() if u in subset and v in subset
        }
        assert expected == {(0, 3), (0, 4), (1, 3), (1, 4)}
        sub = induced_subgraph(k33, subset)
        assert set(sub.edges()) == expected
        assert all(sub.degree(v) == 2 for v in subset)  # a 4-cycle

    def test_ids_preserved(self):
        sub = induced_subgraph(prism_graph(), {3, 4, 5})
        assert sub.vertices == (3, 4, 5)

    def test_unknown_vertex_rejected(self):
        with pytest.raises(MalformedInputError):
            induced_subgraph(prism_graph(), {0, 99})

    @given(graphs())
    def test_full_set_is_identity(self, g):
        assert induced_subgraph(g, g.vertices) == g

    def test_full_set_returns_the_same_object(self):
        g = prism_graph()
        assert induced_subgraph(g, g.vertices) is g
        assert induced_subgraph(g, reversed(g.vertices)) is g

    def test_proper_subset_builds_a_new_graph(self):
        g = prism_graph()
        sub = induced_subgraph(g, g.vertices[1:])
        assert sub is not g and sub.vertices == g.vertices[1:]

    def test_foreign_id_rejected_when_the_count_matches(self):
        g = prism_graph()
        with pytest.raises(MalformedInputError):
            induced_subgraph(g, (*g.vertices[:-1], 99))


class TestPeel:
    def test_tree_peels_away(self):
        tree = build_graph([(0, 1), (1, 2), (1, 3), (3, 4)], 5)
        residual, order = peel_low_degree(tree)
        assert residual.n == 0
        assert len(order) == 5

    def test_prism_untouched(self):
        residual, order = peel_low_degree(prism_graph())
        assert residual == prism_graph()
        assert order == ()

    def test_c5_with_pendant(self):
        g = build_graph([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)], 6)
        residual, order = peel_low_degree(g)
        assert residual.n == 0
        assert len(order) == 6
        # Lowest eligible id first: 1 goes before 0 becomes eligible.
        assert order == (1, 0, 2, 3, 4, 5)

    def test_neighbors_recorded_at_removal_time(self):
        # The order alone records them: a vertex's neighbours at removal
        # time are its neighbours in g not removed before it.
        g = path_graph(3)
        _, order = peel_low_degree(g)
        assert order == (0, 1, 2)
        at_removal = [
            tuple(u for u in g.neighbors(v) if u not in order[:i])
            for i, v in enumerate(order)
        ]
        assert at_removal == [(1,), (2,), ()]

    @given(graphs())
    @settings(max_examples=60)
    def test_replay_reconstructs(self, g):
        residual, order = peel_low_degree(g)
        assert replay_removals(g, residual, order) == g

    @given(graphs())
    @settings(max_examples=60)
    def test_confluence_against_randomized_order(self, g):
        """Any removal order reaching the fixpoint leaves the same residual."""
        residual, _ = peel_low_degree(g)

        rng = random.Random(g.m * 31 + g.n)
        alive = {v: set(g.neighbors(v)) for v in g.vertices}
        while True:
            eligible = [v for v, ns in alive.items() if len(ns) <= 2]
            if not eligible:
                break
            v = rng.choice(eligible)
            for u in alive[v]:
                alive[u].discard(v)
            del alive[v]
        assert set(alive) == set(residual.vertices)

    def test_matches_reference_peel(self, rng):
        # Random graphs of mixed density, half of them with a hub of degree
        # >= 20 whose degree falls step by step until it peels or stays.
        hub_peeled = hub_kept = 0
        for i in range(300):
            n = rng.randrange(1, 45)
            p = rng.choice([0.0, 0.02, 0.05, 0.1, 0.2])
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            hub = i % 2 and n > 21
            if hub:
                edges += [(0, v) for v in rng.sample(range(1, n), rng.randrange(20, n))]
            g = build_graph(edges, n)
            residual, order = peel_low_degree(g)
            kept, reference_order = reference_peel(g)
            assert residual == induced_subgraph(g, kept)
            assert order == reference_order
            if hub:
                hub_peeled += 0 not in kept
                hub_kept += 0 in kept
        assert hub_peeled >= 20 and hub_kept >= 20

    @pytest.mark.parametrize("bound", [1, 2])
    def test_matches_reference_peel_on_gapped_ids(self, rng, bound):
        # The peel runs on induced subgraphs, whose ids have gaps; a
        # fully peeled graph gives back the empty graph.
        emptied = 0
        for _ in range(150):
            n = rng.randrange(1, 40)
            g = random_graph(rng, n, rng.choice([0.05, 0.1, 0.2, 0.35]))
            g = induced_subgraph(g, rng.sample(g.vertices, rng.randrange(1, n + 1)))
            residual, order = peel_low_degree(g, bound)
            kept, reference_order = reference_peel(g, bound)
            assert order == reference_order
            expected = induced_subgraph(g, kept)
            assert residual == expected and residual.m == expected.m
            emptied += residual.n == 0
        assert emptied >= 20

    def test_residual_min_degree(self, rng):
        for _ in range(20):
            g = random_graph(rng, rng.randrange(1, 12), 0.3)
            residual, _ = peel_low_degree(g)
            assert residual.n == 0 or residual.min_degree() >= 3


class TestCanonicalHash:
    def test_matches_documented_definition(self, rng):
        for _ in range(40):
            n = rng.randrange(0, 30)
            g = random_graph(rng, n, rng.choice([0.0, 0.1, 0.3]))
            if n and rng.random() < 0.5:
                g = induced_subgraph(g, rng.sample(g.vertices, rng.randrange(1, n + 1)))
            payload = json.dumps(
                {"vertices": list(g.vertices), "edges": [[u, v] for u, v in g.edges()]},
                separators=(",", ":"),
            )
            assert g.canonical_hash() == hashlib.sha256(payload.encode()).hexdigest()

    def test_pinned_value(self):
        assert prism_graph().canonical_hash() == PRISM_HASH


class TestComponents:
    def test_two_triangles(self):
        g = build_graph([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], 6)
        assert connected_components(g) == [(0, 1, 2), (3, 4, 5)]

    def test_prism_connected(self):
        assert connected_components(prism_graph()) == [(0, 1, 2, 3, 4, 5)]
        assert is_connected(prism_graph())

    def test_empty_graph(self):
        assert connected_components(build_graph([], 0)) == []

    def test_isolated_vertices_sorted_by_smallest_member(self):
        g = build_graph([(1, 2)], 4)
        assert connected_components(g) == [(0,), (1, 2), (3,)]

    def test_without_matches_induced_subgraph(self):
        rng = random.Random(20261018)
        for _ in range(60):
            n = rng.randrange(1, 14)
            g = random_graph(rng, n, rng.choice([0.1, 0.2, 0.35]))
            q = rng.choice([0.1, 0.3, 0.6])
            blocked = {v for v in g.vertices if rng.random() < q}
            rest = induced_subgraph(g, [v for v in g.vertices if v not in blocked])
            assert connected_components(g, blocked) == connected_components(rest)
            assert connected_components(g, sorted(blocked)) == connected_components(rest)
        g = prism_graph()
        assert connected_components(g, set(g.vertices)) == []
        assert connected_components(g, {0, 3}) == [(1, 2, 4, 5)]

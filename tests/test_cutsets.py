import inspect
import random
import sys
from itertools import combinations

import networkx as nx
import pytest

from common import (
    bowtie_graph,
    bridged_cubic,
    complete_bipartite,
    cycle_graph,
    k33_edge_tree,
    k33_line_chain,
    order7_on_prism,
    path_graph,
    prism_graph,
    prism_minus_matching_edge,
    theta_graph,
)
from conftest import random_graph
from oracles import (
    clique_atoms_bruteforce,
    find_clique_cutset_bruteforce,
    proper_2_cutset_pair_scan,
    replay_removals,
)
from tricolor import (
    ContractViolationError,
    Proper2Cutset,
    biconnected_blocks,
    build_graph,
    connected_components,
    decompose,
    find_clique_cutset,
    find_proper_2_cutset,
    gen_series_parallel,
    induced_subgraph,
    is_connected,
    line_graph,
    subdivide,
    verify_membership,
)
from tricolor.cutsets import clique_atoms


def fixed_graphs_with_cut_vertices():
    """A chain of blocks, and a line-of-sparse leaf with a bridge inside."""
    return [k33_line_chain(5), line_graph(subdivide(bridged_cubic()))]


def assert_valid_cutset(g, found):
    cutset, comps = found
    for u, v in combinations(cutset, 2):
        assert g.has_edge(u, v)
    blocked = set(cutset)
    remaining = [v for v in g.vertices if v not in blocked]
    assert sorted(v for c in comps for v in c) == sorted(remaining)
    assert len(comps) >= 2
    for c in comps:
        assert is_connected(induced_subgraph(g, c))
    for c1, c2 in combinations(comps, 2):
        assert not any(g.has_edge(u, v) for u in c1 for v in c2)


def clique_meets(g, pieces):
    """Where each piece meets the earlier ones, each a nonempty clique of g, united."""
    meets = set()
    for i in range(1, len(pieces)):
        meet = set(pieces[i]) & set().union(*pieces[:i])
        assert meet and all(g.has_edge(u, v) for u, v in combinations(meet, 2))
        meets |= meet
    return meets


class TestFindCliqueCutset:
    def test_path_cut_vertex(self):
        found = find_clique_cutset(path_graph(3))
        assert found == ((1,), [(0,), (2,)])

    def test_bowtie_center(self):
        found = find_clique_cutset(bowtie_graph())
        assert found is not None
        assert_valid_cutset(bowtie_graph(), found)
        # The smallest-lex oracle pins down the center cut vertex.
        assert find_clique_cutset_bruteforce(bowtie_graph())[0] == (2,)

    def test_c5_absent(self):
        assert find_clique_cutset(cycle_graph(5)) is None

    def test_prism_absent(self):
        assert find_clique_cutset(prism_graph()) is None

    def test_disconnected_rejected(self):
        g = build_graph([(0, 1), (2, 3)], 4)
        with pytest.raises(ContractViolationError):
            find_clique_cutset(g)

    def test_agrees_with_bruteforce(self, rng):
        checked = 0
        while checked < 300:
            g = random_graph(rng, rng.randrange(3, 14), rng.choice([0.2, 0.3, 0.45, 0.6]))
            if not is_connected(g):
                continue
            checked += 1
            fast = find_clique_cutset(g)
            ref = find_clique_cutset_bruteforce(g)
            assert (fast is None) == (ref is None), sorted(g.edges())
            if fast is not None:
                assert_valid_cutset(g, fast)


class TestCliqueAtoms:
    def test_path_splits_at_every_edge(self):
        assert clique_atoms(path_graph(4)) == [(0, 1), (1, 2), (2, 3)]

    def test_disconnected_rejected(self):
        with pytest.raises(ContractViolationError):
            clique_atoms(build_graph([(0, 1), (2, 3)], 4))

    def test_matches_bruteforce(self, rng):
        checked = split = 0
        while checked < 2000:
            g = random_graph(rng, rng.randrange(3, 12), rng.choice([0.2, 0.3, 0.45, 0.6]))
            if not is_connected(g):
                continue
            checked += 1
            atoms = clique_atoms(g)
            assert sorted(atoms) == clique_atoms_bruteforce(g), sorted(g.edges())
            split += len(atoms) > 1
            clique_meets(g, atoms)
        assert split >= 1000


class TestBuildCliqueTree:
    """The decomposition tree of ``decompose``: peels, splits and leaves."""

    def test_tree_fully_peeled(self):
        t = decompose(build_graph([(0, 1), (1, 2), (1, 3), (3, 4)], 5))
        assert len(t.nodes) == 1
        assert t.root.kind == "empty"
        assert len(t.root.removed) == 5
        assert [nd for nd in t.nodes if nd.kind == "basic"] == []

    def test_prism_single_basic_leaf(self):
        t = decompose(prism_graph())
        assert len(t.nodes) == 1
        assert t.root.kind == "basic"
        assert t.root.verdict.branch == "line_of_sparse"
        assert len(t.root.removed) == 0

    def test_glued_long_prisms_split_at_shared_vertex(self):
        # Two prisms with one matching edge subdivided, identified at the
        # subdivision vertex: the only vertex outside all triangles.  The
        # class oracle accepts the composite, the root splits into its two
        # blocks at the cut vertex, and both sides then peel away entirely.
        edges = [
            (0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
            (0, 3), (1, 4), (2, 6), (6, 5),
            (7, 8), (8, 9), (9, 7), (10, 11), (11, 12), (12, 10),
            (7, 10), (8, 11), (9, 6), (6, 12),
        ]
        g = build_graph(edges, 13)
        assert verify_membership(g).verdict == "member"
        # The shared vertex alone is a clique cutset; so are edges through it.
        assert find_clique_cutset_bruteforce(g)[0] == (6,)
        t = decompose(g)
        assert t.root.kind == "blocks"
        assert t.root.cutset == (6,)
        assert len(t.root.children) == 2
        for child_id in t.root.children:
            assert t.nodes[child_id].kind == "empty"

    def test_proper_2_cutset_node_keeps_small_side(self):
        # The residue's node peels the two pendant attachments 0 and 3.
        t = decompose(order7_on_prism())
        assert t.root.kind == "proper_2_cutset"
        assert t.root.cutset == (0, 3)
        assert t.root.verdict.cutset.side_x == (1, 2, 4, 5)
        (child_id,) = t.root.children
        child = t.nodes[child_id]
        assert child.graph.vertices == (0, 3, 6, 7, 8, 9, 10, 11)
        assert child.removed == (0, 3)
        assert child.kind == "basic" and child.verdict.branch == "line_of_sparse"
        assert child.layer == 2 and t.layers == 2

    def test_chain_splits_into_all_blocks_at_once(self):
        g = k33_line_chain(5)
        t = decompose(g)
        assert t.root.kind == "blocks" and t.layers == 2
        assert [t.nodes[c].graph.vertices[0] for c in t.root.children] == [0, 5, 16, 21, 32]
        assert [t.nodes[c].verdict.branch for c in t.root.children] == [
            "complete_bipartite", "line_of_sparse"] * 2 + ["complete_bipartite"]

    def test_line_of_sparse_leaf_keeps_its_bridge(self):
        # L(S(H)) for a cubic H with a bridge: the bridge of H becomes a
        # bridge of the leaf, but the leaf is colored from its root graph.
        g = line_graph(subdivide(bridged_cubic()))
        assert find_clique_cutset(g) is not None
        t = decompose(g)
        assert len(t.nodes) == 1
        assert t.root.kind == "basic" and t.root.verdict.branch == "line_of_sparse"

    def test_unit_prisms_glued_at_vertex_are_not_members(self):
        # Every unit-prism vertex lies in a triangle, so identifying any two
        # vertices creates a bowtie.
        edges = list(prism_graph().edges())
        relabel = {0: 0, 1: 6, 2: 7, 3: 8, 4: 9, 5: 10}
        edges += [(relabel[u], relabel[v]) for u, v in prism_graph().edges()]
        g = build_graph(edges, 11)
        rep = verify_membership(g)
        assert rep.verdict == "nonmember" and rep.witness.kind == "bowtie"

    def test_children_cover_and_intersect_in_cutset(self, rng):
        graphs = [order7_on_prism(), k33_edge_tree(5, 12)] + fixed_graphs_with_cut_vertices()
        graphs += [random_graph(rng, rng.randrange(2, 12), 0.3) for _ in range(25)]
        for g in graphs:
            t = decompose(g)
            for node in t.nodes:
                if not node.children:
                    continue
                residual = set(t.residual_vertices(node))
                child_sets = [set(t.nodes[c].graph.vertices) for c in node.children]
                if node.kind == "proper_2_cutset":
                    # One child: the residual minus the small side.
                    cs = node.verdict.cutset
                    assert cs.pair == node.cutset
                    assert cs.validate(induced_subgraph(g, residual))
                    assert child_sets == [residual - set(cs.side_x)]
                    continue
                assert set().union(*child_sets) == residual
                if node.kind == "blocks":
                    # Each block meets the earlier ones in exactly one cut vertex.
                    tops = set()
                    for i in range(1, len(child_sets)):
                        (top,) = child_sets[i] & set().union(*child_sets[:i])
                        tops.add(top)
                    assert tops == set(node.cutset)
                    continue
                if node.kind == "atoms":
                    assert clique_meets(g, child_sets) == set(node.cutset)
                    continue
                for s1, s2 in combinations(child_sets, 2):
                    assert s1 & s2 == set(node.cutset)

    def test_leaves_are_basic_or_empty(self, rng):
        graphs = fixed_graphs_with_cut_vertices()
        graphs += [random_graph(rng, rng.randrange(2, 12), 0.35) for _ in range(25)]
        for g in graphs:
            t = decompose(g)
            for node in [nd for nd in t.nodes if not nd.children]:
                sub = induced_subgraph(g, t.residual_vertices(node))
                if node.kind == "empty":
                    assert sub.n == 0
                else:
                    assert node.kind == "basic"
                    assert node.verdict.branch != "proper_2_cutset"
                    assert sub.min_degree() >= 3
                    # Only the branches colored directly keep clique cutsets.
                    if node.verdict.branch not in ("complete_bipartite", "line_of_sparse"):
                        assert find_clique_cutset(sub) is None

    def test_reassembly_reproduces_graph(self, rng):
        graphs = [order7_on_prism()] + fixed_graphs_with_cut_vertices()
        graphs += [random_graph(rng, rng.randrange(2, 12), 0.3) for _ in range(25)]
        for g in graphs:
            t = decompose(g)

            def rebuild(node):
                residual = set()
                for child_id in node.children:
                    residual |= set(rebuild(t.nodes[child_id]).vertices)
                if node.kind == "proper_2_cutset":
                    residual |= set(node.verdict.cutset.side_x)
                if not node.children:
                    residual = set(t.residual_vertices(node))
                sub = induced_subgraph(g, residual)
                rebuilt = replay_removals(g, sub, node.removed)
                assert rebuilt == node.graph
                return rebuilt

            assert rebuild(t.root) == g
            assert t.root.graph is g

    def test_json_shape(self):
        doc = decompose(prism_graph()).to_json()
        assert doc["format"] == "tricolor.tree/5"
        assert doc["nodes"][0]["kind"] == "basic"
        assert doc["nodes"][0]["branch"] == "line_of_sparse"


class TestBiconnectedBlocks:
    @staticmethod
    def assert_grows_each_component(g, blocks):
        reached = {}
        for block in blocks:
            (comp,) = {i for i, c in enumerate(connected_components(g)) if block[0] in c}
            if comp in reached:
                assert len(reached[comp] & set(block)) == 1
                reached[comp] |= set(block)
            else:
                reached[comp] = set(block)

    def test_matches_networkx(self, rng):
        for _ in range(300):
            n = rng.randrange(1, 41)
            g = random_graph(rng, n, rng.choice([2.0, 3.0, 5.0]) / n)
            blocks = biconnected_blocks(g)
            h = nx.Graph(list(g.edges()))
            h.add_nodes_from(g.vertices)
            assert sorted(blocks) == sorted(
                tuple(sorted(b)) for b in nx.biconnected_components(h)
            )
            self.assert_grows_each_component(g, blocks)

    def test_chain_order(self):
        blocks = biconnected_blocks(k33_line_chain(5))
        assert [b[0] for b in blocks] == [0, 5, 16, 21, 32]
        self.assert_grows_each_component(k33_line_chain(5), blocks)

    def test_each_block_follows_the_one_above_it(self):
        # Blocks come in reverse of the order the search leaves them, so the
        # pendant edge at 1 comes before the one at 2 that is reached first.
        g = build_graph([(0, 1), (1, 2), (0, 2), (1, 3), (2, 4)], 5)
        assert biconnected_blocks(g) == [(0, 1, 2), (1, 3), (2, 4)]

    def test_long_inputs_without_deep_recursion(self):
        n = 10_000
        path = path_graph(n)
        triangles = build_graph(
            [e for i in range(0, n - 2, 2) for e in ((i, i + 1), (i + 1, i + 2), (i, i + 2))],
            n - 1,
        )
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 40)
        try:
            path_blocks = biconnected_blocks(path)
            triangle_blocks = biconnected_blocks(triangles)
        finally:
            sys.setrecursionlimit(old)
        assert path_blocks == [(i, i + 1) for i in range(n - 1)]
        assert triangle_blocks == [(i, i + 1, i + 2) for i in range(0, n - 2, 2)]


def brute_force_proper_2_cutsets(g):
    """All (pair, partition) combos satisfying the definition, by enumeration."""
    out = []
    before = len(connected_components(g))
    for a, b in combinations(g.vertices, 2):
        if g.has_edge(a, b):
            continue
        rest = [v for v in g.vertices if v not in (a, b)]
        comps = connected_components(induced_subgraph(g, rest))
        if len(comps) <= before:
            continue
        for bits in range(1, 2 ** len(comps) - 1):
            xs = [comps[i] for i in range(len(comps)) if bits >> i & 1]
            ys = [comps[i] for i in range(len(comps)) if not bits >> i & 1]
            sx = tuple(sorted(v for c in xs for v in c))
            sy = tuple(sorted(v for c in ys for v in c))
            if len(sx) > len(sy):
                continue
            cand = Proper2Cutset((a, b), sx, sy)
            if cand.validate(g):
                out.append(cand)
    return out


class TestProper2Cutset:
    def test_k24_splits_into_two_squares(self):
        g = complete_bipartite(2, 4)
        cs = find_proper_2_cutset(g)
        assert cs.pair == (0, 1)
        assert len(cs.side_x) == 2 and len(cs.side_y) == 2
        assert cs.validate(g)
        for side in (cs.side_x, cs.side_y):
            sub = induced_subgraph(g, set(side) | {0, 1})
            assert sub.m == 4 and all(sub.degree(v) == 2 for v in sub.vertices)

    def test_theta_three_paths_absent(self):
        g = theta_graph(3, 3, 3)
        assert find_proper_2_cutset(g) is None
        assert brute_force_proper_2_cutsets(g) == []

    def test_four_paths_present(self):
        g = theta_graph(3, 3, 3, 3)
        cs = find_proper_2_cutset(g)
        assert cs is not None and cs.pair == (0, 1)
        assert len(cs.side_x) == 4  # two of the four 2-vertex path interiors

    def test_c6_absent(self):
        assert find_proper_2_cutset(cycle_graph(6)) is None

    def test_prism_absent(self):
        assert find_proper_2_cutset(prism_graph()) is None

    def test_two_bare_paths_beat_one_component(self):
        # G - {0, 1} leaves the bare paths 0-2-1 and 0-3-1 and a triangle;
        # the two one-vertex paths together are the minimum side.
        g = build_graph([(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 5), (5, 6),
                         (6, 4), (5, 1)], 7)
        cs = find_proper_2_cutset(g)
        assert cs.pair == (0, 1)
        assert cs.side_x == (2, 3) and cs.side_y == (4, 5, 6)
        assert cs.validate(g)

    def test_path_plus_disjoint_triangle_is_not_a_bare_path(self):
        # {2, 3, 4, 5} + {0, 1} has a path's degrees: 0-2-1 and the triangle.
        g = build_graph([(0, 2), (2, 1), (3, 4), (4, 5), (5, 3), (0, 6), (1, 6),
                         (6, 7), (7, 0)], 8)
        cs = Proper2Cutset((0, 1), (2, 3, 4, 5), (6, 7))
        assert cs.validate(g)
        assert not Proper2Cutset((0, 1), (2,), (3, 4, 5, 6, 7)).validate(g)

    def test_matches_bruteforce_minimum(self, rng):
        checked = 0
        while checked < 140:
            g = random_graph(rng, rng.randrange(4, 11), rng.choice([0.25, 0.3, 0.45]))
            if not is_connected(g):
                continue
            checked += 1
            mine = find_proper_2_cutset(g)
            ref = brute_force_proper_2_cutsets(g)
            if mine is None:
                assert ref == []
                continue
            assert mine.validate(g)
            best = min(len(c.side_x) for c in ref)
            assert len(mine.side_x) == best
            best_pair = min(c.pair for c in ref if len(c.side_x) == best)
            assert mine.pair == best_pair

    def test_matches_pair_scan_on_random_graphs(self, rng):
        disconnected = 0
        for _ in range(1200):
            n = rng.randrange(0, 13)
            g = random_graph(rng, n, rng.choice([0.1, 0.2, 0.3, 0.45, 0.6]))
            if rng.random() < 0.3 and n:
                # Gaps in the vertex ids.
                g = induced_subgraph(g, rng.sample(g.vertices, rng.randrange(1, n + 1)))
            disconnected += not is_connected(g)
            assert find_proper_2_cutset(g) == proper_2_cutset_pair_scan(g)
        assert disconnected >= 300

    def test_matches_pair_scan_on_series_parallel_graphs(self):
        found = 0
        for n in range(4, 61, 4):
            for seed in range(3):
                g = gen_series_parallel(seed, n)
                mine = find_proper_2_cutset(g)
                assert mine == proper_2_cutset_pair_scan(g)
                found += mine is not None
        assert found >= 30

    def test_matches_pair_scan_on_necklaces(self):
        # t prisms minus a matching edge share their freed apexes as the pair.
        rng = random.Random(11)
        gadget = prism_minus_matching_edge()
        for t in range(1, 6):
            n = 2 + 4 * t
            label = list(range(n))
            rng.shuffle(label)
            edges = []
            for i in range(t):
                ids = {0: 0, 3: 1, 1: 2 + 4 * i, 2: 3 + 4 * i, 4: 4 + 4 * i, 5: 5 + 4 * i}
                edges += [(label[ids[u]], label[ids[v]]) for u, v in gadget.edges()]
            g = build_graph(edges, n)
            mine = find_proper_2_cutset(g)
            assert mine == proper_2_cutset_pair_scan(g)
            if t >= 2:
                assert sorted(mine.pair) == sorted((label[0], label[1]))
                assert len(mine.side_x) == 4

    @pytest.mark.parametrize("edges, n, expected", [
        # G - {0, 1} is the bare path 0-2-1 and the square 3-4-5-6, so the
        # only split at {0, 1} has a bare path for a side.
        ([(0, 2), (2, 1), (0, 3), (3, 4), (4, 5), (5, 6), (6, 3), (5, 1)], 7, None),
        # The path 2-3 has both ends on 0: degree 2 throughout, yet no a-b path.
        ([(0, 2), (2, 3), (3, 0), (0, 4), (4, 1), (1, 5), (5, 0)], 6,
         ((0, 1), (2, 3), (4, 5))),
        # 0 is a cut vertex of g: two squares 0-2-1-3 and 0-4-5-6.
        ([(0, 2), (2, 1), (1, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)], 7,
         ((0, 1), (2, 3), (4, 5, 6))),
        # Isolated vertices 4 and 5 beside the square 0-1-2-3.
        ([(0, 1), (1, 2), (2, 3), (3, 0)], 6, ((0, 2), (4,), (1, 3, 5))),
    ])
    def test_matches_pair_scan_on_hand_built_cases(self, edges, n, expected):
        g = build_graph(edges, n)
        mine = find_proper_2_cutset(g)
        assert mine == proper_2_cutset_pair_scan(g)
        assert mine == (expected and Proper2Cutset(*expected))
        assert mine is None or mine.validate(g)

    def test_long_cycle_without_deep_recursion(self):
        g = cycle_graph(500)
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 40)
        try:
            found = find_proper_2_cutset(g)
        finally:
            sys.setrecursionlimit(old)
        assert found is None

import random
import sys
from itertools import combinations

import networkx as nx
import pytest

import oracles
from common import (
    bowtie_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    diamond_graph,
    prism_graph,
    star,
    wheel,
)
from conftest import random_graph
from tricolor import (
    BudgetExceededError,
    Graph,
    PatternWitness,
    build_graph,
    find_bowtie,
    find_diamond,
    find_isk4,
    gen_series_parallel,
    induced_subgraph,
    line_graph,
    random_cubic_graph,
    subdivide,
    verify_membership,
)
from tricolor import patterns
from tricolor.patterns import is_k4_subdivision


class TestFindDiamond:
    def test_diamond_itself(self):
        w = find_diamond(diamond_graph())
        assert w is not None and w.vertices == (0, 1, 2, 3)
        assert w.validate(diamond_graph())

    def test_c6_absent(self):
        assert find_diamond(cycle_graph(6)) is None

    def test_k4_absent(self):
        # K4 contains K4, not an induced diamond.
        assert find_diamond(complete_graph(4)) is None

    def test_k5_finds_none(self):
        assert find_diamond(complete_graph(5)) is None

    def test_lex_least(self, rng):
        for _ in range(40):
            g = random_graph(rng, 8, 0.45)
            mine = find_diamond(g)
            ref = oracles.find_induced_copy(g, diamond_graph())
            assert (mine.vertices if mine else None) == ref


class TestFindBowtie:
    def test_bowtie_itself(self):
        w = find_bowtie(bowtie_graph())
        assert w is not None and len(w.vertices) == 5
        assert w.validate(bowtie_graph())

    def test_prism_absent_exhaustive(self):
        prism = prism_graph()
        assert find_bowtie(prism) is None
        # Independent confirmation: no 5-subset induces a bowtie.
        for subset in combinations(prism.vertices, 5):
            sub = induced_subgraph(prism, subset)
            assert not (sub.m == 6 and sorted(sub.degree(v) for v in subset) == [2, 2, 2, 2, 4])

    def test_k33_absent(self):
        assert find_bowtie(complete_bipartite(3, 3)) is None

    def test_agrees_with_oracle(self, rng):
        for _ in range(30):
            g = random_graph(rng, 8, 0.4)
            mine = find_bowtie(g)
            ref = oracles.find_induced_copy(g, bowtie_graph())
            assert (mine.vertices if mine else None) == ref


def dense_graphs():
    """Seeded graphs with n <= 9 and p in [0.3, 0.8]: diamonds, bowties and K4s mix."""
    rng = random.Random(4242)
    for _ in range(150):
        yield random_graph(rng, rng.randrange(4, 10), rng.uniform(0.3, 0.8))


class TestTrianglePairs:
    def test_detectors_agree_with_oracle_on_dense_graphs(self):
        found = {"diamond": 0, "bowtie": 0}
        for g in dense_graphs():
            for kind, find, pattern in (("diamond", find_diamond, diamond_graph()),
                                        ("bowtie", find_bowtie, bowtie_graph())):
                mine = find(g)
                ref = oracles.find_induced_copy(g, pattern)
                assert (mine.vertices if mine else None) == ref
                found[kind] += ref is not None
        assert min(found.values()) >= 20

    def test_empty_exactly_without_diamond_bowtie_and_k4(self):
        outcomes = set()
        for g in dense_graphs():
            free = all(oracles.find_induced_copy(g, pattern) is None
                       for pattern in (diamond_graph(), bowtie_graph(), complete_graph(4)))
            assert (next(patterns._triangle_pairs(g), None) is None) == free
            outcomes.add(free)
        assert outcomes == {True, False}

    def test_k4_pairs_match_neither_filter(self):
        assert len(list(patterns._triangle_pairs(complete_graph(4)))) == 4 * 3
        assert find_diamond(complete_graph(4)) is None
        assert find_bowtie(complete_graph(4)) is None


def enumeration_graphs():
    """Seeded random graphs, hubs, and generated members, for the enumeration differential."""
    rng = random.Random(2718)
    for _ in range(600):
        yield random_graph(rng, rng.randrange(3, 15), rng.uniform(0.1, 0.9))
    for k in (1, 2, 3, 4, 11, 40):
        yield star(k)
        yield complete_bipartite(2, k)
        yield complete_bipartite(3, k)
    for k in (3, 4, 5, 9):
        yield wheel(k)
    yield complete_graph(5)
    for seed in range(3):
        yield gen_series_parallel(seed, 2000)
    for seed, k in ((1, 8), (2, 16), (3, 32)):
        yield line_graph(subdivide(random_cubic_graph(seed, k)))


class TestTrianglePairsDifferential:
    """The shorter-list scan yields what testing every neighbour pair yields, in order."""

    def test_same_sequence_as_pair_test(self):
        for g in enumeration_graphs():
            assert list(patterns._triangle_pairs(g)) == list(oracles.triangle_pairs_reference(g))

    def test_same_witnesses_and_reports(self, monkeypatch):
        def answers():
            return [(find_diamond(g), find_bowtie(g),
                     verify_membership(g).to_json() if g.n <= 14 else None)
                    for g in enumeration_graphs()]

        mine = answers()
        monkeypatch.setattr(patterns, "_triangle_pairs", oracles.triangle_pairs_reference)
        monkeypatch.setattr(patterns, "find_diamond_or_bowtie",
                            lambda g: find_diamond(g) or find_bowtie(g))
        assert mine == answers()
        verdicts = {report["verdict"] for _, _, report in mine if report}
        assert verdicts == {"member", "nonmember"}


class TestTrianglePairsWork:
    """A hub of degree k costs the detectors work linear in k."""

    @staticmethod
    def _work(monkeypatch, g):
        """Neighbour entries iterated plus adjacency tests, over both detectors."""
        count = [0]

        class Counted(tuple):
            def __iter__(self):
                count[0] += len(self)
                return super().__iter__()

        def counted(fn):
            def call(*args):
                count[0] += 1
                return fn(*args)
            return call

        plain = Graph.neighbors
        monkeypatch.setattr(Graph, "neighbors", lambda self, v: Counted(plain(self, v)))
        monkeypatch.setattr(Graph, "has_edge", counted(Graph.has_edge))
        monkeypatch.setattr(patterns, "_sorted_contains", counted(patterns._sorted_contains))
        assert find_diamond(g) is None and find_bowtie(g) is None
        monkeypatch.undo()
        return count[0]

    @pytest.mark.parametrize("family", [star, lambda k: complete_bipartite(2, k),
                                        lambda k: complete_bipartite(3, k)],
                             ids=["star", "K2,k", "K3,k"])
    def test_hub_work_grows_linearly(self, monkeypatch, family):
        # Testing every pair of the hub's neighbours would grow 16-fold.
        small = self._work(monkeypatch, family(1000))
        big = self._work(monkeypatch, family(4000))
        assert big <= 4.5 * small

    def test_large_star_is_an_exact_member(self):
        rep = verify_membership(star(100_000))
        assert rep.verdict == "member" and rep.mode == "exact"


class TestFindIsk4:
    def test_k4_is_its_own_subdivision(self):
        w = find_isk4(complete_graph(4))
        assert w.vertices == (0, 1, 2, 3)
        assert w.corners == (0, 1, 2, 3)

    def test_prism_absent_exact(self):
        assert find_isk4(prism_graph()) is None
        assert oracles.brute_isk4(prism_graph()) is None

    def test_subdivided_k4_full_witness(self):
        g = subdivide(complete_graph(4))
        assert g.n == 10 and g.m == 12
        w = find_isk4(g)
        assert w.vertices == tuple(range(10))
        assert set(w.corners) == {0, 1, 2, 3}
        assert len(w.paths) == 6
        assert w.validate(g)

    def test_agrees_with_subset_oracle(self):
        rng = random.Random(1729)
        checked = 0
        for _ in range(220):
            n = rng.randrange(4, 13)
            g = random_graph(rng, n, rng.choice([0.2, 0.3, 0.45]))
            mine = find_isk4(g, budget=12)
            ref = oracles.brute_isk4(g)
            assert (mine.vertices if mine else None) == ref
            checked += 1
        assert checked >= 200

    def test_cut_exact_search_raises_or_agrees(self, monkeypatch):
        # A search cut after it recorded a witness may hold one that is not
        # the least, so exact mode raises instead of returning it.
        rng = random.Random(15)
        graphs = [random_graph(rng, 10, rng.choice([0.3, 0.4, 0.5])) for _ in range(60)]
        full = [find_isk4(g, budget=10) for g in graphs]
        monkeypatch.setattr(patterns, "EXACT_MAX_STEPS", 37)
        raised = 0
        for g, want in zip(graphs, full):
            try:
                assert find_isk4(g, budget=10) == want
            except BudgetExceededError:
                raised += 1
        assert 0 < raised < len(graphs)

    def test_bounded_mode_finds_planted_pattern(self):
        sub = subdivide(complete_graph(4))
        edges = list(sub.edges())
        # Pad beyond the budget with a 30-cycle joined by one edge, which the
        # 2-core keeps (pendants would be trimmed back to an exact search).
        edges += [(v, v + 1) for v in range(10, 39)] + [(39, 10), (0, 10)]
        g = build_graph(edges, 40)
        assert verify_membership(g, budget=12).mode == "bounded"
        result = find_isk4(g, budget=12)
        assert result != "unknown" and result is not None
        assert result.validate(g)

    def test_bounded_mode_unknown_on_clean_graph(self):
        g = cycle_graph(30)
        assert find_isk4(g, budget=12) == "unknown"


class TestPredicates:
    def test_k4_subdivision_matches_oracle(self):
        rng = random.Random(2718)
        positives = 0
        for _ in range(600):
            n = rng.randrange(4, 11)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            m = min(len(pairs), n + rng.randrange(4))
            g = build_graph(rng.sample(pairs, m), n)
            expected = oracles.is_subdivision_of_k4(g)
            assert is_k4_subdivision(g) == expected
            positives += expected
        assert positives >= 20

    def test_k4_subdivision_named_cases(self):
        plus_cycle = build_graph(list(subdivide(complete_graph(4)).edges())
                                 + [(10, 11), (11, 12), (10, 12)], 13)
        # Corner 0 carries the chain 0-4-5-0; corners 2 and 3 are joined twice.
        own_loop = build_graph([(0, 4), (4, 5), (0, 5), (0, 1), (1, 2), (1, 3),
                                (2, 3), (2, 6), (3, 6)], 7)
        # Corners 0, 1 and corners 2, 3 are each joined by two chains.
        doubled = build_graph([(0, 1), (0, 4), (1, 4), (2, 3), (2, 5), (3, 5),
                               (0, 2), (1, 3)], 6)
        for g in (plus_cycle, own_loop, doubled):
            assert g.m == g.n + 2
            assert not is_k4_subdivision(g)
            assert not oracles.is_subdivision_of_k4(g)
        assert is_k4_subdivision(subdivide(complete_graph(4)))

    def test_witness_validate_matches_isomorphism(self, rng):
        patterns = (("diamond", diamond_graph()), ("bowtie", bowtie_graph()))
        found = {"diamond": 0, "bowtie": 0}
        for p in (0.4, 0.5, 0.6, 0.7):
            g = random_graph(rng, 8, p)
            subsets = [s for k in (4, 5, 6) for s in combinations(g.vertices, k)]
            for kind, pattern in patterns:
                target = oracles.to_nx(pattern)
                for subset in subsets:
                    expected = nx.is_isomorphic(
                        oracles.to_nx(induced_subgraph(g, subset)), target)
                    assert PatternWitness(kind, subset).validate(g) == expected
                    found[kind] += expected
        assert min(found.values()) > 0


class TestMembership:
    def test_c7_member(self):
        assert verify_membership(cycle_graph(7)).verdict == "member"

    def test_bowtie_nonmember_with_witness(self):
        rep = verify_membership(bowtie_graph())
        assert rep.verdict == "nonmember"
        assert rep.witness.kind == "bowtie"
        assert rep.witness.validate(bowtie_graph())

    def test_subdivided_k4_nonmember(self):
        g = subdivide(complete_graph(4))
        rep = verify_membership(g)
        assert rep.verdict == "nonmember" and rep.witness.kind == "isk4"

    def test_one_peel_per_query(self, monkeypatch):
        calls = []
        plain = patterns.peel_low_degree

        def counted(*args):
            calls.append(args)
            return plain(*args)

        monkeypatch.setattr(patterns, "peel_low_degree", counted)
        rep = verify_membership(cycle_graph(30))
        assert rep.verdict == "unknown" and rep.mode == "bounded"
        assert len(calls) == 1

    def test_unknown_beyond_budget(self):
        rep = verify_membership(cycle_graph(30), budget=12)
        assert rep.verdict == "unknown"
        assert rep.mode == "bounded"

    def test_hereditary_on_random_members(self, rng):
        """Membership is closed under induced subgraphs."""
        members = [gen_series_parallel(s, 10 + s % 7) for s in range(8)]
        members.append(prism_graph())
        for g in members:
            assert verify_membership(g).verdict == "member"
            for _ in range(6):
                k = rng.randrange(1, g.n + 1)
                subset = rng.sample(list(g.vertices), k)
                sub = induced_subgraph(g, subset)
                assert verify_membership(sub).verdict == "member"

    def test_witnesses_revalidate(self, rng):
        for _ in range(25):
            g = random_graph(rng, 9, 0.4)
            rep = verify_membership(g)
            if rep.witness is not None:
                assert rep.witness.validate(g)

    def test_long_path_exact_without_deep_recursion(self):
        # A 200-cycle in exact mode (a path would have an empty 2-core): the
        # subset search grows induced paths about 200 levels deep, which must not
        # depend on the interpreter's recursion limit.
        g = cycle_graph(200)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(150)
        try:
            rep = verify_membership(g, budget=200)
        finally:
            sys.setrecursionlimit(limit)
        assert rep.verdict == "member" and rep.mode == "exact"

import random

import pytest

import oracles
from common import complete_bipartite, cycle_graph, prism_graph
from tricolor import (
    ContractViolationError,
    GenerationError,
    build_graph,
    gen_glue,
    gen_line_of_subdivided_cubic,
    gen_nonmember,
    gen_series_parallel,
    is_connected,
    is_series_parallel,
    line_graph,
    random_cubic_graph,
    subdivide,
    verify_membership,
)


class TestSeriesParallel:
    def test_n1_is_k1(self):
        g = gen_series_parallel(0, 1)
        assert g.n == 1 and g.m == 0

    def test_seed_deterministic(self):
        assert gen_series_parallel(7, 30) == gen_series_parallel(7, 30)
        assert gen_series_parallel(7, 30) != gen_series_parallel(8, 30)

    def test_self_check(self):
        g = gen_series_parallel(7, 12)
        assert g.n == 12
        assert is_series_parallel(g)

    def test_triangle_free_members(self):
        for seed in range(15):
            g = gen_series_parallel(seed, 5 + seed)
            assert not oracles.has_triangle(g)
            assert verify_membership(g).verdict == "member"

    def test_large_output_is_sp(self):
        g = gen_series_parallel(9, 200)
        assert g.n == 200
        assert is_series_parallel(g)


class TestLineOfSubdividedCubic:
    def test_k4_base(self):
        base = build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 4)
        g = gen_line_of_subdivided_cubic(0, base)
        assert g.n == 12
        assert all(g.degree(v) == 3 for v in g.vertices)
        assert verify_membership(g).verdict == "member"

    def test_k33_base(self):
        base = build_graph([(a, b) for a in range(3) for b in range(3, 6)], 6)
        g = gen_line_of_subdivided_cubic(1, base)
        assert g.n == 18
        assert verify_membership(g).verdict == "member"

    def test_doubled_edge_variant(self):
        base = build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 4)
        g = gen_line_of_subdivided_cubic(3, base, double_one_edge=True)
        assert g.n == 13
        assert sum(1 for v in g.vertices if g.degree(v) == 2) == 1
        assert verify_membership(g).verdict == "member"

    def test_non_cubic_base_rejected(self):
        with pytest.raises(ContractViolationError):
            gen_line_of_subdivided_cubic(0, cycle_graph(5))


class TestRandomCubic:
    def test_basic_properties(self):
        for k in (4, 6, 8, 10):
            g = random_cubic_graph(k, k)
            assert g.n == k
            assert all(g.degree(v) == 3 for v in g.vertices)
            assert is_connected(g)

    def test_deterministic(self):
        assert random_cubic_graph(5, 8) == random_cubic_graph(5, 8)

    def test_odd_order_rejected(self):
        with pytest.raises(ContractViolationError):
            random_cubic_graph(0, 7)


class TestGlue:
    def test_two_unit_prisms_rejected(self):
        with pytest.raises(GenerationError):
            gen_glue(11, [prism_graph(), prism_graph()], "vertex")

    def test_prism_to_c5_accepted(self):
        g = gen_glue(11, [prism_graph(), cycle_graph(5)], "vertex")
        assert g.n == 10
        assert verify_membership(g).verdict == "member"

    def test_two_c5_edge_glued(self):
        g = gen_glue(3, [cycle_graph(5), cycle_graph(5)], "edge")
        assert g.n == 8 and g.m == 9
        assert verify_membership(g).verdict == "member"

    def test_deterministic(self):
        a = gen_glue(5, [cycle_graph(5), gen_series_parallel(1, 7)], "vertex")
        b = gen_glue(5, [cycle_graph(5), gen_series_parallel(1, 7)], "vertex")
        assert a == b

    def test_bad_mode(self):
        with pytest.raises(ContractViolationError):
            gen_glue(0, [cycle_graph(5), cycle_graph(5)], "hyper")

    def test_small_glues_are_members_under_the_exact_oracle(self):
        # gen_glue runs only the polynomial detectors; the exact oracle
        # (n <= its budget of 22) confirms that no K4 subdivision slips by.
        glued = 0
        for seed in range(1, 1000):
            if glued == 300:
                break
            rng = random.Random(seed)

            def member():
                return rng.choice([
                    gen_series_parallel(rng.randrange(10**6), rng.randrange(3, 10)),
                    cycle_graph(rng.randrange(3, 8)),
                    prism_graph(),
                    complete_bipartite(2, 3),
                    complete_bipartite(3, 3),
                ])

            parts = [member(), member()]
            if parts[0].n + parts[1].n > 19:
                continue
            try:
                g = gen_glue(seed, parts, rng.choice(["vertex", "edge"]))
            except GenerationError:
                continue
            assert g.n <= 18
            assert verify_membership(g).verdict == "member", (seed, sorted(g.edges()))
            glued += 1
        assert glued == 300


class TestNonMember:
    @pytest.mark.parametrize("kind,expected", [
        ("diamond", "diamond"),
        ("bowtie", "bowtie"),
        ("isk4", "isk4"),
    ])
    def test_planted_pattern_found(self, kind, expected):
        for seed in range(6):
            g = gen_nonmember(seed, kind)
            report = verify_membership(g)
            assert report.verdict == "nonmember"
            assert report.witness.kind == expected
            assert report.witness.validate(g)

    def test_requested_size(self):
        g = gen_nonmember(2, "diamond", size=17)
        assert g.n == 17

    def test_size_below_pattern_rejected(self):
        with pytest.raises(ContractViolationError):
            gen_nonmember(0, "isk4", size=5)

    def test_unknown_kind(self):
        with pytest.raises(ContractViolationError):
            gen_nonmember(0, "pentagon")


class TestHelpers:
    def test_subdivide_counts(self):
        k4 = build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 4)
        s = subdivide(k4)
        assert (s.n, s.m) == (10, 12)
        d = subdivide(k4, double_edge=(0, 1))
        assert (d.n, d.m) == (11, 13)

    def test_line_graph_of_k23_is_prism(self):
        import networkx as nx

        k23 = build_graph([(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)], 5)
        lg = line_graph(k23)
        assert nx.is_isomorphic(oracles.to_nx(lg), oracles.to_nx(prism_graph()))

"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The member corpus is built once per session and every entry is
oracle-verified: the polynomial detectors always run exactly, the
subdivision oracle runs exactly up to its budget, and the few members above
it carry a construction proof (triangle-free series-parallel composition)
plus an exact run at a raised budget.
"""

import itertools
import random
import time

import pytest

import oracles
from common import (
    complete_bipartite,
    complete_graph,
    cube_graph,
    cycle_graph,
    petersen_graph,
    prism_graph,
    prism_minus_matching_edge,
)
from tricolor import (
    GenerationError,
    build_graph,
    chi_exact,
    color_class_member,
    dual_colorings_for_side,
    dual_edge_colorings,
    find_bowtie,
    find_diamond,
    find_isk4,
    gen_glue,
    gen_nonmember,
    gen_series_parallel,
    induced_subgraph,
    is_series_parallel,
    line_graph,
    random_cubic_graph,
    subdivide,
    verify_certificate,
    verify_membership,
)
from tricolor.coloring import ROUTE_FALLBACK


def report(criterion: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion}: {verdict}{suffix}")
    assert ok, f"{criterion} failed{suffix}"


def verified_member(kind: str, g) -> bool:
    if find_diamond(g) is not None or find_bowtie(g) is not None:
        return False
    if g.n <= 22:
        return find_isk4(g, budget=22) is None
    if kind == "sp":
        # Construction proof: no K4 minor means no induced K4 subdivision,
        # and triangle-freeness was enforced by the generator's moves.
        return is_series_parallel(g) and not oracles.has_triangle(g)
    return find_isk4(g, budget=g.n) is None


def doubled_instance(base, edge):
    h = subdivide(base, double_edge=edge)
    mid = next((u, v) for u, v in h.edges() if h.degree(u) == 2 and h.degree(v) == 2)
    y, z = mid
    e1 = (y, next(u for u in h.neighbors(y) if u != z))
    e2 = (z, next(u for u in h.neighbors(z) if u != y))
    return h, e1, e2


@pytest.fixture(scope="session")
def member_corpus():
    members = []
    # Series-parallel spread over the size range.
    for seed in range(380):
        n = 5 + seed % 20  # 5..24
        members.append(("sp", gen_series_parallel(seed, n)))
    # Line graphs of once-subdivided cubic graphs (n = 3k or 3k + 1 <= 24).
    named = [complete_graph(4), complete_bipartite(3, 3), prism_graph(), cube_graph()]
    line_count = 0
    for i, base in enumerate(named):
        for doubled in (False, True):
            if 3 * base.m + doubled > 24:
                continue
            g = gen_line_of_subdivided(base, i, doubled)
            members.append(("line", g))
            line_count += 1
    for seed in range(14):
        order = (4, 6)[seed % 2]
        base = random_cubic_graph(seed + 100, order)
        members.append(("line", gen_line_of_subdivided(base, seed, seed % 3 == 0)))
    # Glued composites.
    glue_seed = 0
    glued = 0
    while glued < 120 and glue_seed < 400:
        glue_seed += 1
        rng = random.Random(glue_seed)
        pool = [
            gen_series_parallel(glue_seed, rng.randrange(5, 11)),
            rng.choice([
                cycle_graph(rng.randrange(4, 8)),
                prism_graph(),
                gen_series_parallel(glue_seed + 1000, rng.randrange(5, 10)),
            ]),
        ]
        mode = "vertex" if glue_seed % 2 == 0 else "edge"
        try:
            g = gen_glue(glue_seed, pool, mode)
        except GenerationError:
            continue
        if g.n <= 22:
            members.append(("glue", g))
            glued += 1
    assert len(members) >= 500
    for kind, g in members:
        assert g.n <= 24
        assert verified_member(kind, g), (kind, g.n, sorted(g.edges()))
    return members


def gen_line_of_subdivided(base, seed, doubled):
    from tricolor import gen_line_of_subdivided_cubic

    return gen_line_of_subdivided_cubic(seed, base, double_one_edge=doubled, budget=0)


@pytest.fixture(scope="session")
def cubic_corpus():
    from common import pentagonal_prism, wagner_graph

    graphs = [
        complete_graph(4),
        complete_bipartite(3, 3),
        prism_graph(),
        cube_graph(),
        petersen_graph(),
        wagner_graph(),
        pentagonal_prism(),
    ]
    for seed in range(12):
        order = (6, 8, 10)[seed % 3]
        graphs.append(random_cubic_graph(seed + 500, order))
    assert len(graphs) >= 15
    return graphs


class TestAcceptance:
    def test_criterion_1_three_colorability(self, member_corpus):
        start = time.monotonic()
        failures = 0
        for kind, g in member_corpus:
            cert = color_class_member(g)
            if cert.palette > 3 or not verify_certificate(g, cert):
                failures += 1
        elapsed = time.monotonic() - start
        report(
            "1 three-colorability",
            failures == 0 and elapsed < 120,
            f"{len(member_corpus)} members, {failures} failures, {elapsed:.1f}s",
        )

    def test_criterion_2_exactness(self, member_corpus):
        start = time.monotonic()
        small = [g for _, g in member_corpus if g.n <= 18]
        assert len(small) >= 100
        mismatches = 0
        for g in small:
            chi, witness = chi_exact(g, budget=18)
            if g.m == 0:
                expected = 1 if g.n else 0
            elif oracles.is_bipartite(g):
                expected = 2
            else:
                expected = 3
            if chi > 3 or chi != expected or not witness.is_proper(g):
                mismatches += 1
        elapsed = time.monotonic() - start
        report(
            "2 chromatic exactness",
            mismatches == 0 and elapsed < 300,
            f"{len(small)} members, {mismatches} mismatches, {elapsed:.1f}s",
        )

    def test_criterion_3_structure_coverage(self, member_corpus, cubic_corpus):
        allowed = {"complete_bipartite", "line_of_sparse", "proper_2_cutset"}
        unclassified = 0
        for _, g in member_corpus:
            cert = color_class_member(g)
            for leaf in cert.leaf_verdicts:
                if leaf["branch"] not in allowed:
                    unclassified += 1
        # Constructive-route corpus: sides cut from line graphs of doubled
        # subdivided cubics, plus the order-7 instance.
        fallbacks = 0
        for i, base in enumerate(cubic_corpus):
            h, _, _ = doubled_instance(base, next(iter(base.edges())))
            g = line_graph(h)
            u = next(v for v in g.vertices if g.degree(v) == 2)
            a, b = g.neighbors(u)
            tx = induced_subgraph(g, [v for v in g.vertices if v != u])
            duals = dual_colorings_for_side(tx, a, b)
            if duals.route == ROUTE_FALLBACK or not duals.validate(tx):
                fallbacks += 1
        order7 = dual_colorings_for_side(prism_minus_matching_edge(), 0, 3)
        if order7.route == ROUTE_FALLBACK or not order7.validate(prism_minus_matching_edge()):
            fallbacks += 1
        report(
            "3 structure coverage",
            unclassified == 0 and fallbacks == 0,
            f"unclassified={unclassified}, constructive-route fallbacks={fallbacks}",
        )

    def test_criterion_4_paired_edge_colorings(self, cubic_corpus):
        start = time.monotonic()
        failures = 0
        instances = 0
        for base in cubic_corpus:
            for edge in base.edges():
                h, e1, e2 = doubled_instance(base, edge)
                c_same, c_diff = dual_edge_colorings(h, e1, e2)
                instances += 1
                ok = (
                    c_same.is_proper(h)
                    and c_diff.is_proper(h)
                    and c_same[e1] == c_same[e2]
                    and c_diff[e1] != c_diff[e2]
                )
                if h.m <= 14:
                    ok = ok and (
                        oracles.edge_coloring_search(h, (e1, e2), want_equal=True)
                        is not None
                    )
                    ok = ok and (
                        oracles.edge_coloring_search(h, (e1, e2), want_equal=False)
                        is not None
                    )
                if not ok:
                    failures += 1
        elapsed = time.monotonic() - start
        report(
            "4 paired edge colorings",
            failures == 0 and elapsed < 600 and len(cubic_corpus) >= 15,
            f"{instances} doubled-edge instances, {failures} failures, {elapsed:.1f}s",
        )

    def test_criterion_5_order_seven(self):
        start = time.monotonic()
        tx = prism_minus_matching_edge()
        a, b = 0, 3
        helper = 6
        adj = {v: set(tx.neighbors(v)) for v in tx.vertices}
        adj[helper] = {a, b}
        adj[a].add(helper)
        adj[b].add(helper)
        order7 = build_graph(
            [(u, v) for u in adj for v in adj[u] if u < v], 7
        )
        seen_same = seen_diff = False
        verts = list(order7.vertices)
        for combo in itertools.product(range(3), repeat=7):
            assignment = dict(zip(verts, combo))
            if any(assignment[u] == assignment[v] for u, v in order7.edges()):
                continue
            if assignment[a] == assignment[b]:
                seen_same = True
            else:
                seen_diff = True
            if seen_same and seen_diff:
                break
        duals = dual_colorings_for_side(tx, a, b)
        elapsed = time.monotonic() - start
        report(
            "5 order-seven case",
            seen_same and seen_diff and duals.validate(tx) and elapsed < 1.0,
            f"{elapsed * 1000:.0f}ms",
        )

    def test_criterion_6_negative_suite(self):
        failures = 0
        count = 0
        for seed in range(35):
            for kind in ("diamond", "bowtie", "isk4"):
                g = gen_nonmember(seed, kind)
                count += 1
                rep = verify_membership(g)
                if rep.verdict != "nonmember" or not rep.witness.validate(g):
                    failures += 1
        report(
            "6 negative suite",
            count >= 100 and failures == 0,
            f"{count} planted non-members, {failures} false verdicts",
        )

    def test_criterion_7_decomposition_scaling(self):
        sizes = [1000, 10_000, 100_000]
        times = {}
        graphs = {}
        for n in sizes:
            graphs[n] = gen_series_parallel(1234, n)
            best = float("inf")
            for _ in range(2):
                t0 = time.monotonic()
                cert = color_class_member(graphs[n])
                best = min(best, time.monotonic() - t0)
                assert cert.palette <= 3
            times[n] = best
        ok = times[100_000] < 30.0
        detail = ", ".join(f"n={n}: {times[n]:.2f}s" for n in sizes)
        for small, big in zip(sizes, sizes[1:]):
            nm_ratio = (big * graphs[big].m) / (small * graphs[small].m)
            time_ratio = times[big] / max(times[small], 1e-9)
            if time_ratio > 2 * nm_ratio:
                ok = False
                detail += f"; ratio {time_ratio:.1f} exceeds 2x nm bound {2 * nm_ratio:.1f}"
        report("7 decomposition scaling", ok, detail)

    def test_criterion_8_hereditary(self, member_corpus):
        rng = random.Random(99)
        small = [g for _, g in member_corpus if g.n <= 22]
        picked = small[:50]
        assert len(picked) == 50
        failures = 0
        for g in picked:
            for _ in range(10):
                k = rng.randrange(1, g.n + 1)
                subset = rng.sample(list(g.vertices), k)
                sub = induced_subgraph(g, subset)
                if verify_membership(sub, budget=22).verdict != "member":
                    failures += 1
        report("8 hereditary membership", failures == 0, f"{failures} violations")

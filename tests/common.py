"""Small named graphs used across the test modules."""

import random

from tricolor import Graph, build_graph, line_graph, subdivide


def path_graph(k: int) -> Graph:
    return build_graph([(i, i + 1) for i in range(k - 1)], k)


def cycle_graph(k: int) -> Graph:
    return build_graph([(i, (i + 1) % k) for i in range(k)], k)


def complete_graph(k: int) -> Graph:
    return build_graph([(i, j) for i in range(k) for j in range(i + 1, k)], k)


def complete_bipartite(a: int, b: int) -> Graph:
    return build_graph([(i, a + j) for i in range(a) for j in range(b)], a + b)


def star(k: int) -> Graph:
    """Centre 0 joined to the k leaves 1..k."""
    return build_graph([(0, i) for i in range(1, k + 1)], k + 1)


def wheel(k: int) -> Graph:
    """Hub 0 joined to every vertex of the k-cycle 1..k."""
    rim = [(i, i % k + 1) for i in range(1, k + 1)]
    return build_graph(rim + [(0, i) for i in range(1, k + 1)], k + 1)


def prism_graph() -> Graph:
    # Two triangles 0-1-2 and 3-4-5 joined by the matching 0-3, 1-4, 2-5.
    return build_graph(
        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)], 6
    )


def diamond_graph() -> Graph:
    return build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)], 4)


def bowtie_graph() -> Graph:
    return build_graph([(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)], 5)


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]
    return build_graph(outer + spokes + inner, 10)


def cube_graph() -> Graph:
    edges = []
    for v in range(8):
        for bit in (1, 2, 4):
            u = v ^ bit
            if u > v:
                edges.append((v, u))
    return build_graph(edges, 8)


def wagner_graph() -> Graph:
    """The cubic Moebius-Kantor ladder on 8 vertices."""
    edges = [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)]
    return build_graph(edges, 8)


def pentagonal_prism() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return build_graph(edges, 10)


def theta_graph(*path_lengths: int) -> Graph:
    """Two hub vertices 0, 1 joined by internally disjoint paths."""
    edges = []
    nxt = 2
    for length in path_lengths:
        assert length >= 2, "paths must have length at least 2"
        prev = 0
        for _ in range(length - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
    return build_graph(edges, nxt)


def prism_minus_matching_edge() -> Graph:
    """The 6-vertex shape with two triangles and two of three matching edges.

    Vertices 0 and 3 are the apexes freed by the missing matching edge.
    """
    return build_graph(
        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (1, 4), (2, 5)], 6
    )


def order7_with_k33_side() -> Graph:
    """Prism minus a matching edge sharing its apex pair with a K33.

    The shape sits on 0..5 with apexes 0 and 3; the K33 has sides
    {0, 3, 6} and {7, 8, 9}, so {0, 3} is a proper 2-cutset.
    """
    return build_graph(
        [
            (0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (1, 4), (2, 5),
            (0, 7), (0, 8), (0, 9), (3, 7), (3, 8), (3, 9),
            (6, 7), (6, 8), (6, 9),
        ],
        10,
    )


def order7_on_prism() -> Graph:
    """Prism minus a matching edge on 0..5, hung off a prism on 6..11.

    The apexes 0 and 3 attach to 6 and 10, so {0, 3} is a proper 2-cutset
    whose residue, the prism with two pendant attachments, is not basic.
    """
    return build_graph(
        [
            (0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (1, 4), (2, 5),
            (6, 7), (7, 8), (8, 6), (9, 10), (10, 11), (11, 9),
            (6, 9), (7, 10), (8, 11),
            (0, 6), (3, 10),
        ],
        12,
    )


def k33_line_chain(pieces: int) -> Graph:
    """K3,3 and L(S(K4)) pieces in turn, each sharing one cut vertex with the next.

    A piece is glued at its smallest vertex to the previous piece's largest.
    Every glued vertex lies in a triangle on one side at most (K3,3 has
    none), so no bowtie forms, and the chain is a member because its blocks
    are: n = 1 + 5 * (K3,3 pieces) + 11 * (L(S(K4)) pieces).
    """
    shapes = (complete_bipartite(3, 3), line_graph(subdivide(complete_graph(4))))
    edges = []
    n = 1  # vertex 0 is the first piece's glue vertex
    last = 0
    for i in range(pieces):
        piece = shapes[i % 2]
        ids = {v: last if v == 0 else n + v - 1 for v in piece.vertices}
        n += piece.n - 1
        edges += [(ids[u], ids[v]) for u, v in piece.edges()]
        last = ids[piece.n - 1]
    return build_graph(edges, n)


def k33_edge_tree(seed: int, copies: int) -> Graph:
    """A tree of K3,3 copies, each glued at one of its edges to a random earlier edge.

    Edge sums of bipartite graphs stay bipartite, hence triangle-free, so no
    diamond or bowtie forms, and a clique sum creates no induced K4
    subdivision: the tree is a member, n = 4 * copies + 2.  Its atoms are
    the copies, met one edge at a time.
    """
    rng = random.Random(seed)
    edges = [(a, b) for a in range(3) for b in range(3, 6)]
    n = 6
    for _ in range(copies - 1):
        u, v = rng.choice(edges)
        side_u, side_v = (u, n, n + 1), (v, n + 2, n + 3)
        edges += [(a, b) for a in side_u for b in side_v if (a, b) != (u, v)]
        n += 4
    return build_graph(edges, n)


def bridged_cubic() -> Graph:
    """The 10-vertex cubic graph with a bridge.

    Two copies of K4, each with one edge subdivided (vertices 4 and 9), and
    the bridge 4-9 between the subdivision vertices.
    """
    edges = []
    for base in (0, 5):
        a, b, c, d, mid = base, base + 1, base + 2, base + 3, base + 4
        edges += [(a, c), (a, d), (b, c), (b, d), (c, d), (a, mid), (mid, b)]
    return build_graph(edges + [(4, 9)], 10)


def flower(k: int) -> Graph:
    """k copies of K3,3, each with one edge subdivided by the shared vertex 0.

    Copy i has sides {b, b+1, b+2} and {b+3, b+4, b+5}, b = 6i + 1, and its
    edge b-(b+3) is replaced by the path b-0-(b+3): n = 6k + 1, and vertex 0
    has degree 2k and lies in all k blocks.  Not a member (a copy without
    vertex 0 is K3,3 minus an edge, an induced K4 subdivision), but every
    block peels away completely, so the pipeline colors it.
    """
    edges = []
    for i in range(k):
        b = 6 * i + 1
        edges += [(a, c) for a in range(b, b + 3) for c in range(b + 3, b + 6)
                  if (a, c) != (b, b + 3)]
        edges += [(b, 0), (0, b + 3)]
    return build_graph(edges, 6 * k + 1)


def necklace(seed: int, t: int) -> Graph:
    """t copies of ``prism_minus_matching_edge`` sharing its apex pair, relabeled.

    Each vertex of the pair lies in t triangles, so for t >= 2 a necklace
    holds a bowtie and is no member; its residue splits at the pair, a
    proper 2-cutset.
    """
    rng = random.Random(seed)
    gadget = prism_minus_matching_edge()
    n = 2 + 4 * t
    label = list(range(n))
    rng.shuffle(label)
    edges = []
    for i in range(t):
        ids = {0: 0, 3: 1, 1: 2 + 4 * i, 2: 3 + 4 * i, 4: 4 + 4 * i, 5: 5 + 4 * i}
        edges += [(label[ids[u]], label[ids[v]]) for u, v in gadget.edges()]
    return build_graph(edges, n)

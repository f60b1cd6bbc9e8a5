"""Search for class members whose basic leaf lands in the proper-2-cutset branch.

Covers every graph of the networkx atlas (n <= 7) and seeded random graphs
with every degree 3 or 4 at n = 8..11.  A graph counts as a basic member when it is
connected, has minimum degree >= 3, has no clique cutset, and the exact
membership oracle (diamond, bowtie, induced K4 subdivision) accepts it.  Basic
members are tallied by the branch ``classify_basic`` gives them.

Run from the repository root:

    python3 perfbench/p2_member_search.py --seed 0 --samples 25000
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import networkx as nx  # noqa: E402

from tricolor.cutsets import find_clique_cutset  # noqa: E402
from tricolor.graph import build_graph, is_connected  # noqa: E402
from tricolor.patterns import find_bowtie, find_diamond, verify_membership  # noqa: E402
from tricolor.recognition import classify_basic  # noqa: E402


def classify_candidate(g):
    """The first filter g fails, or the branch of a basic class member.

    Filters run cheapest first: ``not_basic`` (disconnected, a vertex of
    degree < 3, or a clique cutset), ``diamond_or_bowtie``, ``isk4`` (the
    exact induced-K4-subdivision oracle found one).
    """
    if g.n < 4 or g.min_degree() < 3 or not is_connected(g) or find_clique_cutset(g) is not None:
        return "not_basic"
    if find_diamond(g) is not None or find_bowtie(g) is not None:
        return "diamond_or_bowtie"
    if verify_membership(g, budget=g.n).verdict != "member":
        return "isk4"
    return "member:" + classify_basic(g).branch


def random_min_degree_3(rng: random.Random, n: int):
    """Random simple graph on n vertices with every degree 3 or 4.

    Members are sparse, so degrees stay near the minimum: every vertex gets
    three stubs, a random number of vertices a fourth (keeping the stub count
    even), and the stubs are paired uniformly until no loop or parallel edge
    remains.
    """
    while True:
        extra = rng.randrange(0, n + 1)
        if (3 * n + extra) % 2:
            extra += 1 if extra < n else -1
        stubs = [v for v in range(n) for _ in range(3)] + rng.sample(range(n), extra)
        rng.shuffle(stubs)
        pairs = {(min(u, v), max(u, v)) for u, v in zip(stubs[::2], stubs[1::2])}
        if len(pairs) == len(stubs) // 2 and all(u != v for u, v in pairs):
            return build_graph(sorted(pairs), n)


def search(seed: int, samples: int):
    found = []
    atlas = Counter()
    for h in nx.graph_atlas_g()[1:]:
        mapping = {v: i for i, v in enumerate(sorted(h.nodes))}
        g = build_graph([(mapping[u], mapping[v]) for u, v in h.edges], h.number_of_nodes())
        outcome = classify_candidate(g)
        atlas[outcome] += 1
        if outcome == "member:proper_2_cutset":
            found.append({"source": "atlas", "n": g.n, "edges": [list(e) for e in g.edges()]})
    rng = random.Random(seed)
    randoms = {}
    for n in range(8, 12):
        tally = Counter()
        for _ in range(samples):
            g = random_min_degree_3(rng, n)
            outcome = classify_candidate(g)
            tally[outcome] += 1
            if outcome == "member:proper_2_cutset":
                found.append({"source": "random", "n": n, "edges": [list(e) for e in g.edges()]})
        randoms[n] = dict(tally)
    return {"seed": seed, "samples_per_n": samples, "atlas": dict(atlas),
            "random": randoms, "proper_2_cutset_members": found}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=25000, help="random graphs drawn per n")
    args = parser.parse_args(argv)
    print(json.dumps(search(args.seed, args.samples), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

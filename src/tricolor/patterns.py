"""Detection oracles for the forbidden configurations and class membership.

The hereditary class handled by this package excludes three induced patterns:
the diamond (K4 minus an edge), the bowtie (two triangles sharing exactly one
vertex), and any subdivision of K4.  Diamond and bowtie detection is
polynomial.  No polynomial algorithm is known for detecting an induced K4
subdivision, so that oracle searches only the 2-core (an induced K4
subdivision has minimum degree 2), exactly when the 2-core fits a size budget
and beyond it by a bounded search in a fixed shuffled order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import BudgetExceededError
from .graph import Graph, _sorted_contains, induced_subgraph, peel_low_degree

__all__ = [
    "PatternWitness",
    "MembershipReport",
    "find_diamond",
    "find_bowtie",
    "find_diamond_or_bowtie",
    "find_isk4",
    "verify_membership",
    "is_k4_subdivision",
    "DEFAULT_EXACT_BUDGET",
]

DEFAULT_EXACT_BUDGET = 22
EXACT_MAX_STEPS = 20_000_000
BOUNDED_MAX_STEPS = 200_000

VERDICT_MEMBER = "member"
VERDICT_NONMEMBER = "nonmember"
VERDICT_UNKNOWN = "unknown"


@dataclass(frozen=True)
class PatternWitness:
    """A vertex set realizing a forbidden pattern, re-checkable on demand."""

    kind: str  # diamond | bowtie | isk4
    vertices: Tuple[int, ...]
    corners: Tuple[int, ...] = ()  # isk4 only: the four degree-3 vertices
    paths: Tuple[Tuple[int, ...], ...] = ()  # isk4 only: six corner-to-corner paths

    def validate(self, g: Graph) -> bool:
        """Independently re-check that the witness induces the claimed pattern."""
        sub = induced_subgraph(g, self.vertices)
        if self.kind == "diamond":
            return sub.n == 4 and find_diamond(sub) is not None
        if self.kind == "bowtie":
            return sub.n == 5 and find_bowtie(sub) is not None
        if self.kind == "isk4":
            return is_k4_subdivision(sub)
        return False

    def to_json(self) -> Dict:
        out: Dict = {"kind": self.kind, "vertices": list(self.vertices)}
        if self.kind == "isk4":
            out["corners"] = list(self.corners)
            out["paths"] = [list(p) for p in self.paths]
        return out


@dataclass(frozen=True)
class MembershipReport:
    """Verdict of class membership with the search mode that produced it."""

    verdict: str  # member | nonmember | unknown
    witness: Optional[PatternWitness] = None
    mode: str = "exact"  # exact | bounded
    budget: int = DEFAULT_EXACT_BUDGET
    notes: Tuple[str, ...] = field(default=())

    def to_json(self) -> Dict:
        return {
            "verdict": self.verdict,
            "mode": self.mode,
            "budget": self.budget,
            "witness": self.witness.to_json() if self.witness else None,
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# Structure predicates on small induced subgraphs


def _corner_paths(sub: Graph) -> Optional[Tuple[Tuple[int, ...], Tuple[Tuple[int, ...], ...]]]:
    """The four corners and six corner-to-corner paths of a K4 subdivision.

    Returns None unless exactly four vertices have degree 3 and the rest
    degree 2, the chains of degree-2 vertices join all six corner pairs (a
    chain looping back to its own corner leaves at most five joined), and
    they cover every edge with m = n + 2.  Corners are sorted; each path runs
    from its smaller corner, in the order the corners and then their
    neighbors come.
    """
    corners = tuple(sorted(v for v in sub.vertices if sub.degree(v) == 3))
    if len(corners) != 4:
        return None
    if any(sub.degree(v) != 2 for v in sub.vertices if v not in corners):
        return None
    paths: List[Tuple[int, ...]] = []
    for c in corners:
        for first in sub.neighbors(c):
            path = [c, first]
            while path[-1] not in corners:
                path.append(next(u for u in sub.neighbors(path[-1]) if u != path[-2]))
            if c < path[-1]:
                paths.append(tuple(path))
    if {(p[0], p[-1]) for p in paths} != set(combinations(corners, 2)):
        return None
    # Every edge lies on exactly one corner-to-corner chain.
    if sum(len(p) - 1 for p in paths) != sub.m or sub.m != sub.n + 2:
        return None
    return corners, tuple(paths)


def is_k4_subdivision(sub: Graph) -> bool:
    """True iff the graph is a subdivision of K4 (see :func:`_corner_paths`)."""
    return _corner_paths(sub) is not None


# ---------------------------------------------------------------------------
# Polynomial detectors


def _triangle_pairs(g: Graph) -> Iterator[Tuple[int, Tuple[int, int], Tuple[int, int]]]:
    """Every pair of triangles at one vertex c, as (c, (x1, y1), (x2, y2)).

    Two triangles at c span a diamond, a bowtie or a K4, and each of the
    three has two triangles at some vertex, so g has none of them exactly
    when this yields nothing.  The triangles at c come in the order of
    ``combinations(N(c), 2)``: for each neighbour x, the common neighbours
    y > x are read off N(x) against a set of N(c) when N(x) is no longer
    than N(c), else off the rest of N(c) by bisecting N(x).  A vertex of
    degree below 3 has at most one triangle and is skipped.  The listing
    costs O(sum over edges xc of min(deg x, deg c) * log n) plus the pairs
    yielded: linear on stars and K(a, k), not the sum of squared degrees
    that testing every neighbour pair costs.
    """
    nbrs = g.neighbors
    for c in g.vertices:
        nc = nbrs(c)
        d = len(nc)
        if d < 3:
            continue
        in_nc = set(nc)
        tris = []
        for i, x in enumerate(nc, 1):
            nb = nbrs(x)
            if len(nb) > d:
                tris += [(x, y) for y in nc[i:] if _sorted_contains(nb, y)]
            elif not in_nc.isdisjoint(nb):
                tris += [(x, y) for y in nb if y > x and y in in_nc]
        for t1, t2 in combinations(tris, 2):
            yield c, t1, t2


def _least(kind: str, candidates: Iterable[Tuple[int, ...]]) -> Optional[PatternWitness]:
    best = min(candidates, default=None)
    return None if best is None else PatternWitness(kind, best)


def find_diamond(g: Graph) -> Optional[PatternWitness]:
    """Lexicographically least induced diamond: two triangles sharing a wing, tips apart."""
    return _least("diamond", (tuple(sorted({c, *t1, *t2})) for c, t1, t2 in _triangle_pairs(g)
                              if len(tips := {*t1} ^ {*t2}) == 2 and not g.has_edge(*tips)))


def find_bowtie(g: Graph) -> Optional[PatternWitness]:
    """Lexicographically least induced bowtie: two triangles with disjoint, unjoined wings."""
    return _least("bowtie", (tuple(sorted((c, *t1, *t2))) for c, t1, t2 in _triangle_pairs(g)
                             if not {*t1} & {*t2}
                             and not any(g.has_edge(a, b) for a in t1 for b in t2)))


def find_diamond_or_bowtie(g: Graph) -> Optional[PatternWitness]:
    """``find_diamond(g) or find_bowtie(g)``, in one pass when no vertex lies in two triangles.

    Both filters find nothing when :func:`_triangle_pairs` yields nothing,
    so they run only when it yields a pair.
    """
    if next(_triangle_pairs(g), None) is None:
        return None
    return find_diamond(g) or find_bowtie(g)


# ---------------------------------------------------------------------------
# Induced-K4-subdivision search


def _search(g: Graph, order: Sequence[int],
            max_steps: int) -> Tuple[Optional[Tuple[int, ...]], bool]:
    """Enumerate connected induced subgraphs with degree-profile pruning.

    Subsets are grouped by their minimum vertex, taken in ``order``, and each
    is visited once, in depth-first pre-order (a vertex enters the extension
    list only when its first subset neighbor joins).  A branch is dropped as
    soon as some vertex reaches induced degree 4 or a fifth vertex reaches
    degree 3; both are monotone under growth, so the pruning is sound.
    Returns the least witness of the first root that has one, or None, and
    whether ``max_steps`` visits (a root is one) cut the search short; a cut
    search's witness need not be the least.  The stack is explicit because
    the depth grows with n, past the recursion limit.  A frame is [subset,
    induced degrees, extension list, banned set, next extension index], the
    index -1 until the subset itself is visited.
    """
    steps = 0
    for root in order:
        best: Optional[Tuple[int, ...]] = None
        ext = [u for u in g.neighbors(root) if u > root]
        stack = [[[root], {root: 0}, ext, {root, *ext}, -1]]
        while stack:
            frame = stack[-1]
            subset, deg, extension, banned, i = frame
            if i < 0:
                steps += 1
                if steps > max_steps:
                    return best, True
                if sum(1 for d in deg.values() if d == 3) == 4 and all(
                    d in (2, 3) for d in deg.values()
                ) and is_k4_subdivision(induced_subgraph(g, subset)):
                    cand = tuple(sorted(subset))
                    if best is None or cand < best:
                        best = cand
                i = 0
            if i == len(extension):
                stack.pop()
                continue
            frame[4] = i + 1
            v = extension[i]
            new_deg = dict(deg)
            ok = True
            add = 0
            for u in g.neighbors(v):
                if u in new_deg:
                    new_deg[u] += 1
                    if new_deg[u] > 3:
                        ok = False
                        break
                    add += 1
            if not ok:
                continue
            new_deg[v] = add
            if sum(1 for d in new_deg.values() if d >= 3) > 4:
                continue
            fresh = [u for u in g.neighbors(v) if u > root and u not in banned]
            stack.append([subset + [v], new_deg, extension[i + 1:] + fresh,
                          banned | set(fresh), -1])
        if best is not None:
            return best, False
    return None, False


def find_isk4(g: Graph, budget: int = DEFAULT_EXACT_BUDGET):
    """Search the 2-core of g for an induced subdivision of K4.

    Exact mode (2-core size <= budget) runs :func:`_search` over ascending
    roots, so the first root with a witness holds the least one; it returns
    that witness or None, and raises if cut after ``EXACT_MAX_STEPS`` steps.
    Beyond the budget the roots are shuffled by ``random.Random(0)``, the
    search stops after ``BOUNDED_MAX_STEPS`` steps, and without a witness the
    result is the string ``"unknown"``.  K4 itself counts (the trivial
    subdivision).
    """
    found, mode = _isk4_search(g, budget)
    return VERDICT_UNKNOWN if found is None and mode == "bounded" else found


def _isk4_search(g: Graph, budget: int) -> Tuple[Optional[PatternWitness], str]:
    """The witness :func:`find_isk4` finds in g's 2-core, or None, and the mode it searched in."""
    core = peel_low_degree(g, 1)[0]
    exact = core.n <= budget
    order = list(core.vertices)
    if not exact:
        random.Random(0).shuffle(order)
    found, cut = _search(core, order, EXACT_MAX_STEPS if exact else BOUNDED_MAX_STEPS)
    if exact and cut:
        raise BudgetExceededError(
            f"exact isk4 enumeration exceeded {EXACT_MAX_STEPS} steps on n={core.n}"
        )
    mode = "exact" if exact else "bounded"
    if found is None:
        return None, mode
    return PatternWitness("isk4", found, *_corner_paths(induced_subgraph(core, found))), mode


def verify_membership(g: Graph, budget: int = DEFAULT_EXACT_BUDGET) -> MembershipReport:
    """Run all three forbidden-pattern oracles and combine the verdicts.

    ``member`` requires every pattern to be excluded in exact mode, which for
    the K4-subdivision oracle means a 2-core of at most ``budget`` vertices.
    """
    w, mode = find_diamond_or_bowtie(g), "exact"
    if w is None:
        w, mode = _isk4_search(g, budget)
    if w is not None:
        return MembershipReport(VERDICT_NONMEMBER, w, mode=mode, budget=budget)
    if mode == "exact":
        return MembershipReport(VERDICT_MEMBER, None, mode=mode, budget=budget)
    return MembershipReport(
        VERDICT_UNKNOWN,
        None,
        mode=mode,
        budget=budget,
        notes=("graph exceeds the exact search budget; no pattern found within bounds",),
    )

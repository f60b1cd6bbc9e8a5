"""Detection oracles for the forbidden configurations and class membership.

The hereditary class handled by this package excludes three induced patterns:
the diamond (K4 minus an edge), the bowtie (two triangles sharing exactly one
vertex), and any subdivision of K4.  Diamond and bowtie detection is
polynomial.  No polynomial algorithm is known for detecting an induced K4
subdivision, so that oracle is exact only up to a size budget and degrades to
a seeded bounded search beyond it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, List, Optional, Set, Tuple

from .errors import BudgetExceededError
from .graph import Graph, induced_subgraph

__all__ = [
    "PatternWitness",
    "MembershipReport",
    "find_diamond",
    "find_bowtie",
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
            return _induces_diamond(sub)
        if self.kind == "bowtie":
            return _induces_bowtie(sub)
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


def _induces_diamond(sub: Graph) -> bool:
    if sub.n != 4 or sub.m != 5:
        return False
    return sorted(sub.degree(v) for v in sub.vertices) == [2, 2, 3, 3]


def _induces_bowtie(sub: Graph) -> bool:
    if sub.n != 5 or sub.m != 6:
        return False
    degs = sorted(sub.degree(v) for v in sub.vertices)
    if degs != [2, 2, 2, 2, 4]:
        return False
    center = next(v for v in sub.vertices if sub.degree(v) == 4)
    wings = [v for v in sub.vertices if v != center]
    # The four wings must split into two adjacent pairs.
    adj_pairs = [(a, b) for a, b in combinations(wings, 2) if sub.has_edge(a, b)]
    return len(adj_pairs) == 2 and len({v for p in adj_pairs for v in p}) == 4


def is_k4_subdivision(sub: Graph) -> bool:
    """True iff the graph is a subdivision of K4.

    Checks the degree profile (exactly four degree-3 vertices, the rest
    degree 2), connectivity, and that suppressing the degree-2 chains yields
    a simple K4 on the four corners.
    """
    if sub.n < 4:
        return False
    corners = [v for v in sub.vertices if sub.degree(v) == 3]
    if len(corners) != 4:
        return False
    if any(sub.degree(v) != 2 for v in sub.vertices if v not in corners):
        return False
    corner_set = set(corners)
    pairs: Set[Tuple[int, int]] = set()
    edges_walked = 0
    for c in corners:
        for first in sub.neighbors(c):
            prev, cur = c, first
            length = 1
            while cur not in corner_set:
                nxt = next(u for u in sub.neighbors(cur) if u != prev)
                prev, cur = cur, nxt
                length += 1
            if cur == c:
                return False  # a chain looping back to its own corner
            if c < cur:
                pairs.add((c, cur))
                edges_walked += length
    if pairs != set(combinations(sorted(corners), 2)):
        return False
    # Every edge lies on exactly one corner-to-corner chain.
    return edges_walked == sub.m and sub.m == sub.n + 2


# ---------------------------------------------------------------------------
# Polynomial detectors


def find_diamond(g: Graph) -> Optional[PatternWitness]:
    """Lexicographically least 4-set inducing K4 minus an edge, or None.

    Every induced diamond is found from its unique axis edge: the two
    degree-3 vertices are adjacent and share two nonadjacent neighbors.
    """
    best: Optional[Tuple[int, ...]] = None
    for u, v in g.edges():
        common = [w for w in g.neighbors(u) if g.has_edge(v, w)]
        for w1, w2 in combinations(common, 2):
            if not g.has_edge(w1, w2):
                cand = tuple(sorted((u, v, w1, w2)))
                if best is None or cand < best:
                    best = cand
    if best is None:
        return None
    return PatternWitness("diamond", best)


def find_bowtie(g: Graph) -> Optional[PatternWitness]:
    """Lexicographically least 5-set inducing two triangles sharing a vertex."""
    best: Optional[Tuple[int, ...]] = None
    for c in g.vertices:
        nbrs = g.neighbors(c)
        tri_pairs = [(x, y) for x, y in combinations(nbrs, 2) if g.has_edge(x, y)]
        for (x1, y1), (x2, y2) in combinations(tri_pairs, 2):
            wings = {x1, y1, x2, y2}
            if len(wings) != 4:
                continue
            cross = [
                (a, b)
                for a in (x1, y1)
                for b in (x2, y2)
                if g.has_edge(a, b)
            ]
            if cross:
                continue
            cand = tuple(sorted((c, x1, y1, x2, y2)))
            if best is None or cand < best:
                best = cand
    if best is None:
        return None
    return PatternWitness("bowtie", best)


# ---------------------------------------------------------------------------
# Induced-K4-subdivision search


def _witness_paths(sub: Graph) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, ...], ...]]:
    corners = tuple(sorted(v for v in sub.vertices if sub.degree(v) == 3))
    corner_set = set(corners)
    paths: List[Tuple[int, ...]] = []
    seen_pairs: Set[Tuple[int, int]] = set()
    for c in corners:
        for first in sub.neighbors(c):
            prev, cur = c, first
            path = [c, first]
            while cur not in corner_set:
                nxt = next(u for u in sub.neighbors(cur) if u != prev)
                prev, cur = cur, nxt
                path.append(cur)
            key = (min(c, cur), max(c, cur))
            if key not in seen_pairs:
                seen_pairs.add(key)
                paths.append(tuple(path))
    return corners, tuple(paths)


class _SubsetSearch:
    """Enumerate connected induced subgraphs with degree-profile pruning.

    Standard rooted enumeration: subsets are grouped by their minimum vertex
    and each is visited exactly once (a vertex may enter the extension list
    only when its first subset neighbor joins).  A branch is abandoned as
    soon as some vertex reaches induced degree 4 or a fifth vertex reaches
    induced degree 3; both conditions are monotone under growth, so the
    pruning is sound.  Grouping by minimum vertex lets the caller stop at
    the first root that yields any witness and still report the
    lexicographically least one.
    """

    def __init__(self, g: Graph, max_steps: int, rng: Optional[random.Random] = None):
        self.g = g
        self.max_steps = max_steps
        self.steps = 0
        self.rng = rng
        self.exhausted = False
        self.best: Optional[Tuple[int, ...]] = None

    def run(self) -> Optional[Tuple[int, ...]]:
        order = list(self.g.vertices)
        if self.rng is not None:
            self.rng.shuffle(order)
        for root in order:
            self.best = None
            try:
                self._grow(root)
            except _StepLimit:
                self.exhausted = True
                return self.best
            if self.best is not None:
                # Roots are scanned in ascending order (exact mode), so any
                # witness rooted here beats every later root's witness.
                return self.best
        return None

    def _grow(self, root: int) -> None:
        """Visit every subset rooted at ``root`` in depth-first pre-order.

        The stack is explicit because the depth grows with n, past the
        interpreter's recursion limit.  A frame is [subset, induced degrees,
        extension list, banned set, index of the next extension to try].
        """
        ext = [u for u in self.g.neighbors(root) if u > root]
        stack = [self._visit([root], {root: 0}, ext, {root, *ext})]
        while stack:
            frame = stack[-1]
            subset, deg, extension, banned, i = frame
            if i == len(extension):
                stack.pop()
                continue
            frame[4] = i + 1
            v = extension[i]
            new_deg = dict(deg)
            ok = True
            add = 0
            for u in self.g.neighbors(v):
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
            fresh = [
                u for u in self.g.neighbors(v)
                if u > root and u not in banned
            ]
            stack.append(self._visit(subset + [v], new_deg, extension[i + 1:] + fresh,
                                     banned | set(fresh)))

    def _visit(self, subset: List[int], deg: Dict[int, int],
               extension: List[int], banned: Set[int]) -> List:
        """Count one step, record a witness if ``subset`` is one, return its frame."""
        self.steps += 1
        if self.steps > self.max_steps:
            raise _StepLimit()
        if sum(1 for d in deg.values() if d == 3) == 4 and all(
            d in (2, 3) for d in deg.values()
        ):
            sub = induced_subgraph(self.g, subset)
            if is_k4_subdivision(sub):
                cand = tuple(sorted(subset))
                if self.best is None or cand < self.best:
                    self.best = cand
        return [subset, deg, extension, banned, 0]


class _StepLimit(Exception):
    pass


def find_isk4(g: Graph, budget: int = DEFAULT_EXACT_BUDGET, seed: int = 0):
    """Search for an induced subdivision of K4.

    Exact mode (n <= budget) enumerates connected induced subgraphs whose
    degree profile can still become four 3s and the rest 2s; it returns the
    lexicographically least witness or None, and raises after
    ``EXACT_MAX_STEPS`` steps without one.  Beyond the budget a seeded search
    of ``BOUNDED_MAX_STEPS`` steps runs instead and the result may be the
    string ``"unknown"``.  K4 itself counts (the trivial subdivision).
    """
    exact = g.n <= budget
    if exact:
        search = _SubsetSearch(g, EXACT_MAX_STEPS)
    else:
        search = _SubsetSearch(g, BOUNDED_MAX_STEPS, rng=random.Random(seed))
    found = search.run()
    if found is None:
        if not exact:
            return VERDICT_UNKNOWN
        if search.exhausted:
            raise BudgetExceededError(
                f"exact isk4 enumeration exceeded {EXACT_MAX_STEPS} steps on n={g.n}"
            )
        return None
    corners, paths = _witness_paths(induced_subgraph(g, found))
    return PatternWitness("isk4", found, corners, paths)


def verify_membership(g: Graph, budget: int = DEFAULT_EXACT_BUDGET,
                      seed: int = 0) -> MembershipReport:
    """Run all three forbidden-pattern oracles and combine the verdicts.

    ``member`` requires every pattern to be excluded in exact mode, which for
    the K4-subdivision oracle means n <= budget.
    """
    w = find_diamond(g)
    if w is not None:
        return MembershipReport(VERDICT_NONMEMBER, w, mode="exact", budget=budget)
    w = find_bowtie(g)
    if w is not None:
        return MembershipReport(VERDICT_NONMEMBER, w, mode="exact", budget=budget)
    exact = g.n <= budget
    result = find_isk4(g, budget=budget, seed=seed)
    if isinstance(result, PatternWitness):
        return MembershipReport(
            VERDICT_NONMEMBER, result, mode="exact" if exact else "bounded", budget=budget
        )
    if exact:
        return MembershipReport(VERDICT_MEMBER, None, mode="exact", budget=budget)
    return MembershipReport(
        VERDICT_UNKNOWN,
        None,
        mode="bounded",
        budget=budget,
        notes=("graph exceeds the exact search budget; no pattern found within bounds",),
    )

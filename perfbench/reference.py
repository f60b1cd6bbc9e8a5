"""A fixed pure-Python loop that times the machine rather than the program.

The machines this benchmark runs on share their cores: the same operation
ran up to 1.5 times slower from one minute to the next on a 2-core VM, while
its ratio to this loop stayed within about 5%.  Every timed operation is
therefore bracketed by two runs of :meth:`Reference.measure`, and its time
is reported scaled to a nominal speed: ``seconds * NOMINAL_S / reference``,
with ``reference`` the mean of the two bracketing runs.  The loop is
benchmark code (graph search over tuples, sets and lists, like the
program's own inner loops), so no change to tricolor moves it.
"""

from __future__ import annotations

import random
from time import perf_counter

# About one run of the loop on an unloaded core of the 2-core VM the
# baselines in README.md were taken on.
NOMINAL_S = 0.003


class Reference:
    def __init__(self) -> None:
        rng = random.Random(20240229)
        n = 2000
        adj = {v: set() for v in range(n)}
        for _ in range(3000):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        self._adj = {v: tuple(sorted(ns)) for v, ns in adj.items()}
        self.samples: list[float] = []

    def measure(self) -> float:
        """Seconds for one fixed batch of depth-first searches."""
        adj = self._adj
        t0 = perf_counter()
        for src in range(0, 40, 8):
            seen = {src}
            stack = [src]
            while stack:
                for u in adj[stack.pop()]:
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
        seconds = perf_counter() - t0
        self.samples.append(seconds)
        return seconds

    @staticmethod
    def scale(seconds: float, reference: float) -> float:
        """``seconds`` at nominal machine speed, given the loop's time then."""
        return seconds * NOMINAL_S / reference

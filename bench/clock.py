"""Timing against a reference computation, for a shared host.

On a 2-core shared host, the same catbound operation took from 1.1 to 1.6 s
within one minute, and process CPU time moved with it: other tenants slow
the core down rather than take it away.  A fixed computation timed *during*
the operation slows down with it.  ``Sampler`` runs ``reference`` from a
SIGALRM handler every ``INTERVAL`` seconds while an operation runs, and keeps
its time out of the operation's.  An operation's time divided by the median
reference time while it ran is its cost in *reference units* (``ref``), from
which the host's momentary speed mostly cancels.  Sampled this way, the
spread of one operation's repeated times fell from about 18% to about 7%.
"""

from __future__ import annotations

import signal
from time import perf_counter, process_time

INTERVAL = 0.05


def reference(n: int = 1200) -> int:
    """Fixed allocation-heavy pure-Python work (about 2 ms), independent of
    catbound, so a faster catbound lowers reference-unit figures in
    proportion: a pseudo-random tree, its adjacency lists and three BFS."""
    x = 12345
    parent = [0] * n
    for v in range(1, n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        parent[v] = x % v
    edges = sorted((parent[v], v) for v in range(1, n))
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    total = 0
    for src in (0, n // 2, n - 1):
        dist = [-1] * n
        dist[src] = 0
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if dist[w] < 0:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        total += sum(dist)
    return total


class Sampler:
    """Samples ``reference`` while active (``with sampler:``).

    ``wall()`` and ``cpu()`` are clocks that leave out the time spent
    sampling, so intervals measured with them are the program's own.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (wall, CPU) seconds
        self._stolen_wall = 0.0
        self._stolen_cpu = 0.0
        self._busy = False
        self._previous = None

    def sample(self, *_signal_args) -> None:
        if self._busy:  # a late signal while sampling
            return
        self._busy = True
        w0, c0 = perf_counter(), process_time()
        reference()
        wall, cpu = perf_counter() - w0, process_time() - c0
        self.samples.append((wall, cpu))
        self._stolen_wall += wall
        self._stolen_cpu += cpu
        self._busy = False

    def wall(self) -> float:
        return perf_counter() - self._stolen_wall

    def cpu(self) -> float:
        return process_time() - self._stolen_cpu

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

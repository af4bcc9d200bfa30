"""Speed probe: a fixed piece of work, timed next to the operations, that
scales their times to one reference CPU speed.

On a shared virtual machine the CPU the benchmark runs on slows down by
1.2-1.6 times in spells of seconds to minutes (a fixed loop, timed every
20 ms on a 2-CPU Xeon VM, read 1.46 times its fastest for 15 s on end).
The spells show in CPU time as much as in wall time, so they are not time
stolen by the hypervisor but a slower core. No estimator inside a run
removes a spell that covers the whole run. The probe does: it runs the
same work every time, so its time measures the machine's speed at that
moment, and an operation's time times `REF_S` / (the probe's time around
it) is what the operation would have taken at the reference speed.

The probe is a small multi-commodity flow LP solved by scipy's HiGHS, the
same kind of sparse network LP the edge LP is. Timed next to the
operations of a 2-CPU VM, it tracked the slow spells on every workload,
the pure-Python MWU solves included, better than interpreted Python code
did: the pass-to-pass spread of scaled pass times fell from 0.07 to 0.03
(exact) and from 0.17 to 0.04 (approx), against 0.08 and 0.04 with a
pure-Python probe. It is the benchmark's own code and never calls pflow,
so a change to pflow moves the operations' times but never the probe's.
"""

import time

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

# the probe's time at the reference speed: its typical fast time on the
# 2-CPU Intel Xeon VM (2.1 GHz) the benchmark was written on; it only sets
# the scale of the reported seconds
REF_S = 0.0065

# nodes, undirected edges and commodities of the probe's flow LP
_NODES, _EDGES, _COMMODITIES = 16, 40, 6


def _flow_lp(rng):
    """Maximise the total flow of a few commodities on a random graph with
    shared edge capacities: conservation rows per commodity and node, one
    capacity row per edge."""
    edges: set[tuple[int, int]] = set()
    while len(edges) < _EDGES:
        u, v = (int(x) for x in rng.integers(0, _NODES, 2))
        if u != v and (v, u) not in edges:
            edges.add((u, v))
    arcs = sorted(edges) + [(v, u) for u, v in sorted(edges)]
    pairs = []
    while len(pairs) < _COMMODITIES:
        s, t = (int(x) for x in rng.integers(0, _NODES, 2))
        if s != t:
            pairs.append((s, t))
    m, k = len(arcs), len(pairs)
    n_vars = m * k + k  # arc flows per commodity, then each commodity's value
    rows, cols, vals = [], [], []
    for j, (s, t) in enumerate(pairs):
        for a, (x, y) in enumerate(arcs):
            rows += [j * _NODES + x, j * _NODES + y]
            cols += [j * m + a, j * m + a]
            vals += [1.0, -1.0]
        rows += [j * _NODES + s, j * _NODES + t]
        cols += [m * k + j, m * k + j]
        vals += [-1.0, 1.0]
    a_eq = sp.csr_matrix((vals, (rows, cols)), shape=(k * _NODES, n_vars))
    rows, cols = [], []
    for e in range(_EDGES):
        for j in range(k):
            rows += [e, e]
            cols += [j * m + e, j * m + e + _EDGES]
    a_ub = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(_EDGES, n_vars))
    c = np.zeros(n_vars)
    c[m * k:] = -1.0
    return dict(c=c, A_ub=a_ub, b_ub=rng.random(_EDGES) * 3 + 0.5,
                A_eq=a_eq, b_eq=np.zeros(k * _NODES), bounds=(0, None),
                method="highs")


class Probe:
    """Call it to time one probe; the first calls happen at construction,
    so that scipy's lazy imports and caches are warm."""

    def __init__(self):
        self._lp = _flow_lp(np.random.default_rng(20180225))
        for _ in range(3):
            self()

    def __call__(self) -> float:
        t0 = time.perf_counter()
        res = linprog(**self._lp)
        dt = time.perf_counter() - t0
        if res.status != 0:
            raise RuntimeError(f"speed probe LP failed: {res.message}")
        return dt


def scale(probe_before: float, probe_after: float) -> float:
    """The factor that takes a time measured between two probes to the
    reference speed. The faster probe stands for the machine: a probe that
    an interrupt happened to hit must not make the operation look fast."""
    return REF_S / min(probe_before, probe_after)

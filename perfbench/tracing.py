"""Per-layer tracing for the benchmark's traced run.

The tracer wraps pflow's public functions at the module attribute where
each caller looks them up, so no file of the program changes. Every call
becomes a span (name, start, end, parent, operation id) kept in memory and
written out when the run ends. A layer's self time is its spans' duration
minus the time of their direct child spans. A target that no longer exists
is reported as absent, so a refactor of pflow's internals does not stop
the run; the metrics that depend on it are then reported as absent too.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

# (module, attribute, span name)
TARGETS = (
    ("pflow", "parse_instance_text", "instance_io.parse"),
    ("pflow", "solution_document", "instance_io.emit"),
    ("pflow", "validate_instance", "model.validate"),
    ("pflow.purchase", "validate_instance", "model.validate"),
    ("pflow", "verify_walk_solution", "model.verify"),
    ("pflow", "solve_edge_lp", "lp.solve_edge_lp"),
    ("pflow.harness", "solve_edge_lp", "lp.solve_edge_lp"),
    ("pflow.lp", "build_edge_lp", "lp.build"),
    ("pflow.lp", "solve_lp", "lp.solve"),
    ("pflow.naive", "solve_lp", "lp.solve"),
    ("pflow.purchase", "solve_lp", "lp.solve"),
    ("pflow.lp", "linprog", "lp.backend"),
    ("scipy.optimize._linprog_highs", "_highs_wrapper", "lp.highs"),
    ("pflow.lp", "extract_edge_solution", "lp.extract"),
    ("pflow", "decompose", "decompose"),
    ("pflow", "mwu_solve", "mwu.solve"),
    ("pflow.mwu", "shortest_processing_2walk", "mwu.oracle"),
    ("pflow.harness", "naive_solve", "naive.solve"),
    ("pflow", "round_budgeted_purchase", "purchase.round_budgeted"),
    ("pflow", "round_min_purchase", "purchase.round_min"),
    ("pflow", "greedy_budgeted_single_source", "purchase.greedy"),
    ("pflow", "solve_purchase_lp", "purchase.solve_lp"),
    ("pflow.purchase", "solve_purchase_lp", "purchase.solve_lp"),
    ("pflow.purchase", "build_purchase_lp", "purchase.build"),
    ("pflow", "compare_runs", "harness.sweep"),
    ("pflow", "gen_random_instance", "generators"),
    ("pflow", "gen_random_purchase", "generators"),
)


def _lp_shape(args, kwargs, res) -> dict:
    c = args[0] if args else kwargs["c"]
    rows = nnz = 0
    for key in ("A_ub", "A_eq"):
        a = kwargs.get(key)
        if a is not None:
            rows += a.shape[0]
            nnz += a.nnz
    return {"rows": rows, "cols": len(c), "nnz": nnz, "nit": int(res.nit)}


def _sum_meta(res, key):
    val = res.meta[key]
    return sum(val) if isinstance(val, (list, tuple)) else val


# what each span records about its call; a missing field marks the
# metrics built on it absent instead of stopping the run
RECORDERS = {
    "instance_io.parse": lambda a, k, r: {"bytes": len(a[0])},
    "model.verify": lambda a, k, r: {"reject": int(not r)},
    "lp.backend": _lp_shape,
    "decompose": lambda a, k, r: {
        "walks": len(r.entries),
        "cancelled": _sum_meta(r, "cancelled_cycles"),
        "extractions": _sum_meta(r, "extractions")},
    "mwu.solve": lambda a, k, r: {"iterations": r.meta["iterations"],
                                  "bound": r.meta["iteration_bound"]},
    "naive.solve": lambda a, k, r: {"processed": r.objective,
                                    "routed": r.meta["routed"]},
    "purchase.round_budgeted": lambda a, k, r: {"pool": r.meta.get("pool_size", 0)},
    "harness.sweep": lambda a, k, r: {"solver_s": sum(x.wall_time for x in r)},
}

NAME, START, END, PARENT, OP, ATTRS = range(6)


class Tracer:
    """Records spans for wrapped calls and for the benchmark's own spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, op=None):
        """A span of the benchmark's own, e.g. one whole operation."""
        if op is not None:
            self.op = op
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        record = RECORDERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                res = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if record is not None:
                try:
                    self.spans[idx][ATTRS] = record(args, kwargs, res)
                except (AttributeError, KeyError, IndexError, TypeError):
                    self.spans[idx][ATTRS] = {}
            return res
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        for mod_name, attr, name in TARGETS:
            try:
                module = importlib.import_module(mod_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))
        try:
            yield self
        finally:
            while self._saved:
                module, attr, fn = self._saved.pop()
                setattr(module, attr, fn)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\top\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s[NAME]}\t{s[START]!r}\t{s[END]!r}\t"
                         f"{s[PARENT]}\t{_op_label(s[OP])}\n")


def _op_label(op) -> str:
    return "/".join(str(x) for x in op) if isinstance(op, tuple) else str(op)


# --- per-layer metrics --------------------------------------------------------

class _Missing(Exception):
    """A metric's input was not recorded; the metric is reported absent."""


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    All spans come from one thread and nest strictly, so children never
    overlap and their durations add up to the time they cover.
    """
    own = [s[END] - s[START] for s in spans]
    out = list(own)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            out[s[PARENT]] -= own[i]
    return out


class _Pass:
    """The spans of one traced pass, with lookups the metrics share."""

    def __init__(self, spans: list[list], purchase_ops: set):
        self.spans = spans
        self.dur = [s[END] - s[START] for s in spans]
        self.self = self_times(spans)
        self.purchase_ops = purchase_ops
        self.by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            self.by_name.setdefault(s[NAME], []).append(i)
        self.found = 0   # spans that the current metric's lookups matched

    def ids(self, name, purchase=False, under=None):
        """Spans named `name`; only those of purchase operations if
        `purchase`, only those below a span named `under` if given."""
        out = self.by_name.get(name, [])
        if purchase:
            out = [i for i in out if self.spans[i][OP] in self.purchase_ops]
        if under is not None:
            out = [i for i in out if self._has_ancestor(i, under)]
        self.found += len(out)
        return out

    def _has_ancestor(self, i, name) -> bool:
        p = self.spans[i][PARENT]
        while p >= 0:
            if self.spans[p][NAME] == name:
                return True
            p = self.spans[p][PARENT]
        return False

    def total(self, name, **kw) -> float:
        return sum(self.dur[i] for i in self.ids(name, **kw))

    def own(self, name) -> float:
        return sum(self.self[i] for i in self.ids(name))

    def count(self, name, **kw) -> int:
        return len(self.ids(name, **kw))

    def attr(self, name, key) -> float:
        total = 0
        for i in self.ids(name):
            attrs = self.spans[i][ATTRS]
            if not attrs or key not in attrs:
                raise _Missing(f"{name}.{key}")
            total += attrs[key]
        return total


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# name -> (unit, function of a _Pass)
LAYER_METRICS = {
    "instance_io.parse_s": ("s", lambda p: p.total("instance_io.parse")),
    "instance_io.emit_s": ("s", lambda p: p.total("instance_io.emit")),
    "instance_io.bytes_in": ("bytes", lambda p: p.attr("instance_io.parse", "bytes")),
    "model.validate_s": ("s", lambda p: p.total("model.validate")),
    "model.verify_s": ("s", lambda p: p.total("model.verify")),
    "model.verify_rejects": ("count", lambda p: p.attr("model.verify", "reject")),
    "lp.build_s": ("s", lambda p: p.total("lp.build")),
    "lp.solve_s": ("s", lambda p: p.total("lp.solve")),
    "lp.extract_s": ("s", lambda p: p.total("lp.extract")),
    "lp.backend_s": ("s", lambda p: p.total("lp.backend")),
    "lp.backend_calls": ("count", lambda p: p.count("lp.backend")),
    "lp.highs_s": ("s", lambda p: p.total("lp.highs")),
    "lp.wrapper_s": ("s", lambda p: p.own("lp.solve")),
    "lp.rows": ("count", lambda p: p.attr("lp.backend", "rows")),
    "lp.cols": ("count", lambda p: p.attr("lp.backend", "cols")),
    "lp.nnz": ("count", lambda p: p.attr("lp.backend", "nnz")),
    "lp.iterations": ("count", lambda p: p.attr("lp.backend", "nit")),
    "decompose.s": ("s", lambda p: p.total("decompose")),
    "decompose.walks": ("count", lambda p: p.attr("decompose", "walks")),
    "decompose.cancelled_cycles": ("count", lambda p: p.attr("decompose", "cancelled")),
    "decompose.extractions": ("count", lambda p: p.attr("decompose", "extractions")),
    "mwu.solve_s": ("s", lambda p: p.total("mwu.solve")),
    "mwu.oracle_s": ("s", lambda p: p.total("mwu.oracle")),
    "mwu.bookkeeping_s": ("s", lambda p: p.own("mwu.solve")),
    "mwu.oracle_calls": ("count", lambda p: p.count("mwu.oracle")),
    "mwu.iterations": ("count", lambda p: p.attr("mwu.solve", "iterations")),
    "mwu.iter_ratio": ("ratio", lambda p: _ratio(p.attr("mwu.solve", "iterations"),
                                                 p.attr("mwu.solve", "bound"))),
    "mwu.calls_per_iter": ("ratio", lambda p: _ratio(p.count("mwu.oracle"),
                                                     p.attr("mwu.solve", "iterations"))),
    "naive.solve_s": ("s", lambda p: p.total("naive.solve")),
    "naive.lp_s": ("s", lambda p: p.total("lp.solve", under="naive.solve")),
    "naive.processed_over_routed": ("ratio", lambda p: _ratio(
        p.attr("naive.solve", "processed"), p.attr("naive.solve", "routed"))),
    "purchase.op_s": ("s", lambda p: p.total("op", purchase=True)),
    "purchase.lp_calls": ("count", lambda p: p.count("lp.solve", purchase=True)),
    "purchase.lp_s": ("s", lambda p: p.total("lp.solve", purchase=True)),
    "purchase.build_s": ("s", lambda p: p.total("purchase.build")),
    "purchase.backend_s": ("s", lambda p: p.total("lp.backend", purchase=True)),
    "purchase.overhead_per_lp_ms": ("ms", lambda p: 1e3 * _ratio(
        p.total("lp.solve", purchase=True) - p.total("lp.backend", purchase=True),
        p.count("lp.solve", purchase=True))),
    "purchase.rounding_s": ("s", lambda p: p.total("op", purchase=True)
                            - p.total("lp.solve", purchase=True)
                            - p.total("purchase.build")
                            - sum(p.total(n, purchase=True) for n in (
                                "instance_io.parse", "instance_io.emit",
                                "model.validate"))),
    "purchase.pool_size": ("count", lambda p: p.attr("purchase.round_budgeted", "pool")),
    "harness.sweep_s": ("s", lambda p: p.total("harness.sweep")),
    "harness.solver_s": ("s", lambda p: p.attr("harness.sweep", "solver_s")),
    "harness.overhead_s": ("s", lambda p: p.total("harness.sweep")
                           - p.attr("harness.sweep", "solver_s")),
}

def layer_metrics(spans: list[list], purchase_ops: set) -> tuple[dict, list[str]]:
    """Per-layer metrics of one pass, and the names that were not measured:
    no span they read ran on this workload, or a target or field is gone."""
    p = _Pass(spans, purchase_ops)
    values, absent = {}, []
    for name, (_, fn) in LAYER_METRICS.items():
        p.found = 0
        try:
            values[name] = float(fn(p))
            if not p.found:
                raise _Missing(name)
        except _Missing:
            values[name] = 0.0
            absent.append(name)
    return values, absent


def pass_spans(spans: list[list], pass_idx: int) -> list[list]:
    """The spans of one pass, with parent links re-indexed into the slice."""
    index = {}
    out = []
    for i, s in enumerate(spans):
        op = s[OP]
        if isinstance(op, tuple) and op[0] == pass_idx:
            index[i] = len(out)
            out.append(list(s))
    for s in out:
        s[PARENT] = index.get(s[PARENT], -1)
    return out

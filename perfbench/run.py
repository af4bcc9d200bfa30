"""Seeded benchmark for the pflow solver stack.

    python3 perfbench/run.py --workload exact --seed 7 --seconds 10 --trace 0

Runs one workload (exact, approx, purchase or sweep; see README.md) in this
process on one thread, against the pflow sources in ../src. With --trace 0
it prints the end-to-end metrics; with --trace 1 it wraps pflow's layers and
prints the per-layer metrics. Either way every output is checked, the
results go to perfbench/results/, and the last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The
end-to-end times are scaled to a reference CPU speed by a speed probe run
between the operations (speed.py), so that a shared machine's slow spells
do not show in them.

Exit codes: 0 with a result (even if some operation failed; see "correct"),
2 when the program or the benchmark's declaration cannot be loaded, 3 when
a generated workload or its reference differs from the recorded one.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

# one thread per run: BLAS and OpenMP pools are pinned before numpy loads
THREAD_PINS = {key: "1" for key in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PINS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
RECORDED = os.path.join(HERE, "reference.json")
SETUP_REPEATS = 5
# a pass probes the machine's speed after the first operation that ends
# this long after the last probe (see speed.py)
PROBE_GAP_S = 0.05
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); "
                "sys.path.insert(0, sys.argv[1]); "
                "import numpy, scipy.optimize, pflow; "
                "t = time.perf_counter() - t; "
                "sys.path.insert(0, sys.argv[2]); import speed; "
                "print(t * speed.REF_S / speed.Probe()())")
REFERENCE_CHILD = ("import json, sys; sys.path.insert(0, sys.argv[1]); import run; "
                   "print(json.dumps(run.references(sys.argv[2], int(sys.argv[3]))))")


class BenchAbort(Exception):
    """The run cannot produce a trustworthy result; no result is printed."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def load_program():
    """Import pflow from this checkout's sources, never from elsewhere."""
    if not os.path.isdir(os.path.join(SRC, "pflow")):
        raise BenchAbort(2, f"no pflow sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import numpy  # noqa: F401  (timed as part of the set-up)
    import scipy.optimize  # noqa: F401
    import pflow
    if not os.path.abspath(pflow.__file__).startswith(SRC + os.sep):
        raise BenchAbort(2, f"pflow was imported from {pflow.__file__}")
    return pflow


def load_declaration() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchAbort(2, f"cannot read {path}: {exc}") from exc


def import_samples(in_process: float) -> list[float]:
    """Import time of numpy, scipy and pflow, here and in fresh interpreters,
    each scaled to the reference speed by a probe right after it."""
    out = [in_process]
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC, HERE],
                              capture_output=True, text=True, timeout=120,
                              check=True, cwd=ROOT)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def git_commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # not a clone; never report an enclosing repo's
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "pass_cpus": sorted(os.sched_getaffinity(0)),  # passes round robin
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "thread_pins": dict(THREAD_PINS),
    }


def fingerprint(ops) -> str:
    return hashlib.sha256("".join(op.fingerprint for op in ops).encode()).hexdigest()


def references(workload: str, seed: int) -> dict:
    """The fingerprint of the workload's instances and each operation's
    reference, as stored in reference.json."""
    load_program()
    import workloads
    ops = workloads.generate(workload, seed)
    return {"fingerprint": fingerprint(ops),
            "references": [workloads.reference(op) for op in ops]}


def references_in_child(workload: str, seed: int) -> dict:
    """`references`, computed in a child process, so that the solves it
    takes count neither in the timed passes nor in this process's peak
    memory."""
    proc = subprocess.run([sys.executable, "-c", REFERENCE_CHILD, HERE,
                           workload, str(seed)],
                          capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchAbort(2, "computing the references failed:\n" + proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_recorded(workload: str, seed: int, ops, refs=None) -> None:
    """Compare against the references recorded for pinned seeds."""
    import workloads
    with open(RECORDED, encoding="utf-8") as fh:
        entry = json.load(fh).get(workload, {}).get(str(seed))
    if entry is None:
        return
    if entry["fingerprint"] != fingerprint(ops):
        raise BenchAbort(3, f"FINGERPRINT MISMATCH: workload {workload} seed "
                            f"{seed} no longer generates the recorded "
                            f"instances; the generators or the workload changed")
    if refs is None:
        return
    for k, (got, want) in enumerate(zip(refs, entry["references"])):
        if not workloads.same_reference(got, want):
            raise BenchAbort(3, f"REFERENCE DRIFT: workload {workload} seed "
                                f"{seed} op {k}: computed {got}, recorded {want}")


median = statistics.median


@dataclass
class Pass:
    """One timed pass: its wall time as measured, each operation's time and
    checked items at the reference speed, and the probe times."""

    wall: float
    op_times: list
    items: list
    probes: list


def run_pass(ops, refs, pass_idx, probe, tracer=None) -> Pass:
    """Time every operation once and check each output off the clock.

    An output is checked and dropped before the next operation starts, so
    that the outputs of a pass do not pile up in memory and slow the
    garbage collector down for the operations after them. The speed probe
    runs before the first operation and then after each operation that
    ends at least PROBE_GAP_S after the last probe; the operations between
    two probes are scaled to the reference speed by those two probes.
    """
    from checks import check
    from speed import scale
    from workloads import run_op

    def probed() -> float:
        if tracer is None:
            return probe()
        with tracer.span("probe", op=("probe", pass_idx)):
            return probe()

    raw, items, scales, pending = [], [], [1.0] * len(ops), []
    t_pass = time.perf_counter()
    probes = [probed()]
    last = time.perf_counter()
    for i, (op, ref) in enumerate(zip(ops, refs)):
        out = err = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = run_op(op)
            else:
                with tracer.span("op", op=(pass_idx, i)):
                    out = run_op(op)
        except Exception as exc:  # a failing operation must not end the run
            err = exc
        dt = time.perf_counter() - t0
        raw.append(dt)
        items.append(check(op, ref, out, err, dt))
        pending.append(i)
        if time.perf_counter() - last >= PROBE_GAP_S or i == len(ops) - 1:
            probes.append(probed())
            last = time.perf_counter()
            for j in pending:
                scales[j] = scale(probes[-2], probes[-1])
            pending = []
    wall = time.perf_counter() - t_pass
    for op_items, f in zip(items, scales):
        for it in op_items:
            it.latency *= f
    return Pass(wall, [t * f for t, f in zip(raw, scales)], items, probes)


def pass_time(passes: list[Pass]) -> float:
    """Time of one pass at the reference speed: the sum over operations of
    each operation's typical time over the passes (see `typical`)."""
    return sum(typical(ts) for ts in zip(*(p.op_times for p in passes)))


def typical(times) -> float:
    """A repeated operation's time: the median of its repetitions, each
    already scaled to the reference speed.

    The scaling takes out the machine's slow spells, and what remains is
    noise on either side, which the median of the passes sits in the middle
    of. The fastest repetition would sit lower the more passes a run
    makes, and a slow machine makes fewer.
    """
    return median(times)


def on_cpu(cpus: list[int], k: int) -> None:
    """Run the k-th pass on the next allowed CPU, round robin.

    On a virtual machine each CPU is slowed by its own neighbours: two
    probe loops pinned one to each of a 2-CPU machine's CPUs saw one run
    1.3-1.6 times slower for 20 s while the other stayed at full speed.
    Spreading the passes over the CPUs keeps one slow CPU from setting
    every repetition of an operation.
    """
    os.sched_setaffinity(0, {cpus[k % len(cpus)]})


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and its
    rank as a percentage; the maximum when there are ten samples or fewer."""
    xs = sorted(latencies)
    j = len(xs) - 11 if len(xs) > 10 else len(xs) - 1
    return xs[j], 100.0 * (j + 1) / len(xs)


def end_to_end(passes, setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics of the timed passes, and their sample counts."""
    flat = [[it for op_items in p.items for it in op_items] for p in passes]
    if len({len(f) for f in flat}) == 1:
        # one latency per item, over the passes
        lat = [typical([f[k].latency for f in flat]) for k in range(len(flat[0]))]
    else:
        lat = [it.latency for f in flat for it in f]
    every = [it for f in flat for it in f]
    failed = sum(1 for it in every if it.problem)
    quality = [it.quality for it in every if it.quality is not None]
    op_tail, pct = tail(lat)
    metrics = {
        "setup_s": setup_s,
        "wall_s": pass_time(passes),
        "op_p50_s": median(lat),
        "op_tail_s": op_tail,
        "ok_rate": 1.0 - failed / len(every),
        "quality_min": min(quality) if quality else 0.0,
        "quality_mean": sum(quality) / len(quality) if quality else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {"attempted": len(every), "failed": failed,
              "fail_rate": failed / len(every), "op_samples": len(lat),
              "op_tail_percentile": pct, "passes": len(passes),
              "quality_samples": len(quality)}
    return metrics, counts


def failures(ops, passes) -> list[dict]:
    out = []
    for p, one in enumerate(passes):
        for i, op_items in enumerate(one.items):
            for it in op_items:
                if it.problem:
                    out.append({"pass": p, "op": i, "kind": ops[i].kind,
                                "fingerprint": ops[i].fingerprint[:16],
                                "problem": it.problem})
    return out


def main(argv=None) -> int:

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("exact", "approx", "purchase", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    t0 = time.perf_counter()
    load_program()
    import_in_process = time.perf_counter() - t0
    decl = load_declaration()
    import speed
    import tracing
    import workloads
    probe = speed.Probe()
    import_in_process *= speed.REF_S / probe()

    tracer = tracing.Tracer() if args.trace else None

    # references: before set-up and outside this process, so that they
    # count neither in setup_s nor in the timed passes or peak_rss_mb
    computed = references_in_child(args.workload, args.seed)
    refs = computed["references"]

    # set-up: generate and serialise the instances, several times
    gen_times, generated = [], []
    for r in range(SETUP_REPEATS):
        before = probe()
        t0 = time.perf_counter()
        if tracer is None:
            ops = workloads.generate(args.workload, args.seed)
        else:
            with tracer.installed(), tracer.span("setup", op=("setup", r)):
                ops = workloads.generate(args.workload, args.seed)
        dt = time.perf_counter() - t0
        gen_times.append(dt * speed.scale(before, probe()))
        generated.append(fingerprint(ops))
    if len(set(generated) | {computed["fingerprint"]}) != 1:
        raise BenchAbort(3, "generation is not deterministic for one seed")
    setup_s = median(import_samples(import_in_process)) + median(gen_times)
    check_recorded(args.workload, args.seed, ops, refs)
    os.makedirs(RESULTS, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    with open(os.path.join(RESULTS, f"reference-{stem}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"fingerprint": fingerprint(ops),
                   "ops": [{"kind": op.kind, "fingerprint": op.fingerprint,
                            "reference": ref} for op, ref in zip(ops, refs)]},
                  fh, indent=1)

    # timed passes, at least one, until --seconds have gone by; the
    # benchmark's own objects are frozen out of the garbage collector's way
    gc.collect()
    gc.freeze()
    passes, traced = [], []
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    try:
        if tracer is not None:
            # untraced and traced passes alternate on one CPU, so that both
            # see the same machine and their difference is the tracing
            # overhead
            while True:
                on_cpu(cpus, len(passes))
                passes.append(run_pass(ops, refs, len(passes) + len(traced), probe))
                with tracer.installed():
                    traced.append(run_pass(ops, refs, len(passes) + len(traced),
                                           probe, tracer))
                if time.perf_counter() - start >= args.seconds:
                    break
        else:
            while True:
                on_cpu(cpus, len(passes))
                passes.append(run_pass(ops, refs, len(passes), probe))
                if time.perf_counter() - start >= args.seconds:
                    break
    finally:
        os.sched_setaffinity(0, cpus)

    # end-to-end figures come from untraced passes; every pass is checked
    e2e, counts = end_to_end(passes, setup_s)
    if traced:
        counts = end_to_end(passes + traced, setup_s)[1]
    env = environment(args)
    if tracer is None:
        declared = decl["end_to_end"]
        values = e2e
        absent = []
    else:
        declared = decl["per_layer"]
        values, absent = layer_values(tracer, ops, passes, traced)
        tracer.write(os.path.join(RESULTS, f"spans-{stem}.tsv"))
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    result = {"correct": counts["failed"] == 0, "attempted": counts["attempted"],
              "failed": counts["failed"], "metrics": metrics}
    record = {"environment": env, "result": result, "counts": counts,
              "end_to_end": e2e, "absent": absent,
              "pass_walls_s": [p.wall for p in passes + traced],
              "probes_s": [p.probes for p in passes + traced],
              "probe_ref_s": speed.REF_S,
              "failures": failures(ops, passes + traced), "declaration": decl}
    path = os.path.join(RESULTS, f"{stem}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"pflow benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace}")
    print("environment: " + " ".join(
        f"{k}={v}" for k, v in env.items() if k != "thread_pins")
        + " threads=" + ",".join(f"{k}={v}" for k, v in THREAD_PINS.items()))
    print(f"operations: {counts['attempted']} attempted, {counts['failed']} "
          f"failed, fail_rate {counts['fail_rate']:.6g} over "
          f"{counts['passes']} passes; op_tail_s is p"
          f"{counts['op_tail_percentile']:.1f} of {counts['op_samples']} samples")
    for m in declared:
        mark = "  (absent)" if m["name"] in absent else ""
        print(f"  {m['name']:<30} {values[m['name']]:.6g} {m['unit']}{mark}")
    for f in record["failures"][:20]:
        print(f"FAILED pass {f['pass']} op {f['op']} ({f['kind']}): {f['problem']}")
    print(f"results: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


def layer_values(tracer, ops, untraced, traced) -> tuple[dict, list[str]]:
    """Per-layer metrics: the median over traced passes of each metric."""
    import tracing
    per_pass, absent = [], set(tracer.absent)
    # pass ids are numbers; set-up and speed-probe spans are labelled apart
    traced_ids = sorted({s[tracing.OP][0] for s in tracer.spans
                         if isinstance(s[tracing.OP], tuple)
                         and isinstance(s[tracing.OP][0], int)})
    sizes = []
    for p in traced_ids:
        spans = tracing.pass_spans(tracer.spans, p)
        purchase_ops = {(p, i) for i, op in enumerate(ops)
                        if op.kind in ("budgeted", "min", "greedy")}
        values, missing = tracing.layer_metrics(spans, purchase_ops)
        per_pass.append(values)
        sizes.append(len(spans))
        absent.update(missing)
    out = {name: median([v[name] for v in per_pass]) for name in per_pass[0]}
    setup = [s for s in tracer.spans if isinstance(s[tracing.OP], tuple)
             and s[tracing.OP][0] == "setup"]
    out["generators.s"] = sum(s[tracing.END] - s[tracing.START] for s in setup
                              if s[tracing.NAME] == "generators") / SETUP_REPEATS
    out["trace.overhead_s"] = pass_time(traced) - pass_time(untraced)
    out["trace.spans"] = median(sizes)
    return out, sorted(absent)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchAbort as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        sys.exit(exc.code)

"""Tests of the benchmark itself: python3 -m pytest -q perfbench/tests"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

run.load_program()

import pflow  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from checks import check  # noqa: E402

# counts that must repeat exactly, and the workload that exercises each
DETERMINISTIC = {
    "exact": ("lp.iterations", "decompose.walks"),
    "approx": ("mwu.oracle_calls", "mwu.iterations"),
    "purchase": ("purchase.lp_calls", "lp.iterations"),
}


def _run(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=cwd)
    return proc


@pytest.mark.parametrize("workload", sorted(DETERMINISTIC))
def test_counts_repeat_across_traced_runs(workload):
    results = []
    for _ in range(2):
        proc = _run(workload, 5, 1)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    first, second = results
    assert first["correct"] and second["correct"]
    for name in DETERMINISTIC[workload]:
        assert first["metrics"][name]["value"] > 0, name
        assert first["metrics"][name] == second["metrics"][name], name


def _steady():
    """A speed probe that always reads the reference speed."""
    return speed.REF_S


def _walk_after_sink():
    """s->a->t->b->t processed at b: after the flow first reached t."""
    net = pflow.FlowNetwork("satb", [("s", "a", 1.0), ("a", "t", 1.0),
                                     ("t", "b", 1.0), ("b", "t", 1.0)],
                            {"b": 1.0})
    demands = [pflow.Demand("s", "t")]
    sol = pflow.WalkFlowSolution(
        [pflow.WalkEntry(0, ("s", "a", "t", "b", "t"), 1.0, {"b": 1.0})])
    inst = pflow.ParsedInstance(net, demands)
    return inst, sol


def test_walk_processed_after_sink_fails_its_operation(monkeypatch):
    inst, sol = _walk_after_sink()
    report = pflow.verify_walk_solution(inst.net, inst.demands, sol)
    assert report.ok  # the program's verifier lets it through
    out = workloads.Output(inst, sol, report, pflow.solution_document(sol))
    op = workloads.Op("exact", pflow.instance_text(inst))
    ref = {"status": "ok", "value": 1.0}

    items = check(op, ref, out, None, 0.1)
    assert len(items) == 1 and "processing at b" in items[0].problem

    monkeypatch.setattr(workloads, "run_op", lambda op: out)
    one = run.run_pass([op, op], [ref, ref], 0, _steady)
    metrics, counts = run.end_to_end([one], 0.5)
    assert counts["attempted"] == 2 and counts["failed"] == 2
    assert metrics["ok_rate"] == 0.0


def test_raising_operation_counts_as_failed(monkeypatch):
    def boom(op):
        raise pflow.ResourceLimitError("simulated")
    monkeypatch.setattr(workloads, "run_op", boom)
    op = workloads.Op("exact", "")
    one = run.run_pass([op], [{"status": "ok", "value": 1.0}], 0, _steady)
    assert "ResourceLimitError" in one.items[0][0].problem


def test_times_are_scaled_by_the_probes_around_them(monkeypatch):
    clock = iter([0.0, 0.0, 0.0])  # the pass starts, probes, starts the op
    monkeypatch.setattr(run.time, "perf_counter", lambda: next(clock, 1.0))
    def infeasible(op):
        raise pflow.InfeasibleError("expected")
    monkeypatch.setattr(workloads, "run_op", infeasible)
    readings = [2 * speed.REF_S, 4 * speed.REF_S]
    probes = iter(readings)
    op = workloads.Op("exact", "")
    one = run.run_pass([op], [{"status": "infeasible"}], 0, lambda: next(probes))
    # the operation took 1 s while the faster probe read twice REF_S
    assert one.op_times == [0.5] and one.probes == readings
    assert one.items[0][0].latency == 0.5 and one.items[0][0].problem is None


def test_recorded_fingerprint_mismatch_aborts(tmp_path, monkeypatch):
    ops = workloads.generate("purchase", 3)
    path = tmp_path / "reference.json"
    path.write_text(json.dumps({"purchase": {"3": {
        "fingerprint": "0" * 64, "references": []}}}))
    monkeypatch.setattr(run, "RECORDED", str(path))
    with pytest.raises(run.BenchAbort) as exc:
        run.check_recorded("purchase", 3, ops)
    assert exc.value.code == 3


def test_recorded_seeds_still_generate_the_same_instances():
    with open(run.RECORDED, encoding="utf-8") as fh:
        recorded = json.load(fh)
    assert recorded, "no pinned seeds recorded"
    for name, seeds in recorded.items():
        for seed in seeds:
            ops = workloads.generate(name, int(seed))
            run.check_recorded(name, int(seed), ops)


def test_tail_keeps_ten_samples_above():
    xs = [float(i) for i in range(1, 41)]
    value, pct = run.tail(xs)
    assert value == 30.0 and sum(x > value for x in xs) == 10
    assert pct == 75.0


def test_no_result_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("exact", 1, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

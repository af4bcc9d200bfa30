"""Sweep harness: grids, distributions, record rows, CSV shape."""

import dataclasses
import math

import pytest

import pflow.harness
import pflow.lp
import pflow.naive
from pflow.generators import gen_random_instance
from pflow.harness import (CSV_HEADER, KNOWN_ALGS, RunRecord, SweepSpec,
                           compare_runs, half_subset, run_solver, write_csv)
from pflow.decompose import decompose
from pflow.lp import master_walks, solve_edge_lp
from pflow.model import (Demand, FlowNetwork, ResourceLimitError, StructuralError,
                         verify_edge_solution, verify_walk_solution)
from pflow.mwu import MWUConfig
from pflow.naive import naive_solve
from ratios import objective_ratio, ratio_series


def test_grid_endpoints():
    assert SweepSpec(lo=0.0, hi=2.0, step=0.5).grid() == \
        [0.0, 0.5, 1.0, 1.5, 2.0]
    assert SweepSpec(lo=1.0, hi=1.0, step=0.3).grid() == [1.0]


def test_grid_float_accumulation_hits_top():
    g = SweepSpec(lo=0.0, hi=1.0, step=0.1).grid()
    assert len(g) == 11
    assert g[-1] == 1.0


@pytest.mark.parametrize("kwargs", [
    dict(lo=2.0, hi=1.0, step=0.5),
    dict(lo=0.0, hi=1.0, step=0.0),
    dict(lo=0.0, hi=1.0, step=-1.0),
    dict(lo=0.0, hi=1.0, step=0.5, dist="most"),
    dict(lo=0.0, hi=1.0, step=0.5, repetitions=0),
    dict(lo=math.nan, hi=1.0, step=0.5),
    # a capacity grid point must be a valid node capacity: finite, >= 0
    dict(lo=0.0, hi=math.inf, step=1.0),
    dict(lo=-math.inf, hi=0.0, step=1.0),
    dict(lo=-1.0, hi=0.0, step=1.0),
    dict(lo=0.0, hi=1.0, step=math.inf),
    dict(lo=0.0, hi=1.0, step=math.nan),
    # compare_runs counts repetitions with range()
    dict(lo=0.0, hi=1.0, step=0.5, repetitions=1.5),
    dict(lo=0.0, hi=1.0, step=0.5, repetitions=2.0),
])
def test_spec_validation(kwargs):
    # construction alone must raise: grid() would never end on some of these
    with pytest.raises(StructuralError):
        SweepSpec(**kwargs)


@pytest.mark.parametrize("lo,hi,step", [(0.0, 5.0, 1e-300), (0.0, 5.0, 1e-9),
                                        (0.0, 10_000.0, 1.0)])
def test_spec_rejects_a_grid_too_fine_to_build(lo, hi, step):
    # construction alone: grid() would never end, or fill memory, on the first two
    with pytest.raises(StructuralError, match="more than 10000 grid points"):
        SweepSpec(lo=lo, hi=hi, step=step)


def test_spec_accepts_a_grid_of_the_largest_size():
    # floor((hi - lo)/step) + 1 points, here 10,000, is what the cap counts
    assert pflow.harness.MAX_GRID_POINTS == 10_000
    SweepSpec(lo=0.0, hi=9_999.0, step=1.0)
    SweepSpec(lo=1.0, hi=10_000.0, step=1.0)


def test_half_subset_deterministic(naive_gap):
    net, _ = naive_gap
    sub = half_subset(net, seed=7)
    assert sub == half_subset(net, seed=7)
    assert len(sub) == 2
    assert set(sub) <= set(net.nodes)


def test_compare_runs_gap_family(naive_gap):
    net, demands = naive_gap
    sweep = SweepSpec(lo=0.0, hi=2.0, step=1.0, dist="all", seed=3)
    recs = compare_runs(net, demands, sweep, algorithms=("lp", "naive"))
    assert len(recs) == 6
    assert all(isinstance(r, RunRecord) for r in recs)
    by_key = {(r.instance, r.algorithm): r for r in recs}
    for c in (0.0, 1.0, 2.0):
        lp = by_key[(f"cap={c:g}/all", "lp")]
        nv = by_key[(f"cap={c:g}/all", "naive")]
        assert lp.feasible and nv.feasible
        assert nv.objective <= lp.objective + 1e-9
        assert lp.wall_time >= 0.0 and lp.iterations >= 0
    assert abs(by_key[("cap=0/all", "lp")].objective) < 1e-9

    ratios = ratio_series(recs, num_alg="naive", den_alg="lp")
    assert ratios["cap=0/all"] == 1.0          # 0/0 counts as parity
    assert all(v <= 1.0 + 1e-9 for v in ratios.values())


def test_half_distribution(naive_gap):
    net, demands = naive_gap
    recs = compare_runs(net, demands,
                        SweepSpec(lo=2.0, hi=2.0, step=1.0, dist="half",
                                  seed=3),
                        algorithms=("lp",))
    assert recs[0].instance == "cap=2/half"
    assert recs[0].feasible


def test_repetition_tags(naive_gap):
    net, demands = naive_gap
    recs = compare_runs(net, demands,
                        SweepSpec(lo=2.0, hi=2.0, step=1.0, repetitions=2),
                        algorithms=("mwu",), epsilon=0.3)
    assert [r.instance for r in recs] == ["cap=2/all/r1", "cap=2/all/r2"]
    assert all(r.feasible and r.iterations > 0 for r in recs)


def test_unknown_algorithm_rejected(naive_gap):
    net, demands = naive_gap
    sweep = SweepSpec(lo=0.0, hi=1.0, step=1.0)
    with pytest.raises(StructuralError):
        compare_runs(net, demands, sweep, algorithms=("lp", "simplex2000"))


@pytest.mark.parametrize("epsilon", [1.5, 0.0])
def test_bad_mwu_epsilon_rejected_before_any_solve(naive_gap, monkeypatch, epsilon):
    # as an unknown algorithm does: no row is written, lp included, and a
    # sweep without mwu never reads epsilon
    net, demands = naive_gap
    sweep = SweepSpec(lo=0.0, hi=1.0, step=1.0)
    solved = []
    monkeypatch.setattr(pflow.harness, "WalkMaster",
                        lambda *args: solved.append(args) or None)
    with pytest.raises(ValueError, match="epsilon must lie strictly between 0 and 1"):
        compare_runs(net, demands, sweep, algorithms=("lp", "mwu"), epsilon=epsilon)
    assert solved == []
    monkeypatch.undo()
    recs = compare_runs(net, demands, sweep, algorithms=("lp",), epsilon=epsilon)
    assert [r.feasible for r in recs] == [True, True]


def test_every_mwu_record_runs_under_one_config(naive_gap, monkeypatch):
    net, demands = naive_gap
    configs = []
    real = pflow.harness.mwu_solve

    def keeping(net, demands, config):
        configs.append(config)
        return real(net, demands, config)

    monkeypatch.setattr(pflow.harness, "mwu_solve", keeping)
    recs = compare_runs(net, demands, SweepSpec(lo=0.0, hi=2.0, step=1.0, repetitions=2),
                        algorithms=("mwu",), epsilon=0.3)
    assert len(recs) == len(configs) == 6 and all(r.feasible for r in recs)
    assert configs[0] == MWUConfig(epsilon=0.3)
    assert all(c is configs[0] for c in configs)


def test_solver_failure_becomes_row(naive_gap):
    net, _ = naive_gap
    recs = compare_runs(net, [Demand("s", "zz", math.inf)],
                        SweepSpec(lo=1.0, hi=1.0, step=1.0),
                        algorithms=("mwu",))
    assert len(recs) == 1
    r = recs[0]
    assert not r.feasible
    assert r.error is not None
    assert math.isnan(r.objective)


def _sweep_cases():
    """Seeded random instances, each with both distributions, two reps. The
    directed ones are denser, so that they too carry processed flow."""
    for seed in range(4):
        directed = seed % 2 == 0
        inst = gen_random_instance(8, 0.45 if directed else 0.35, n_demands=3,
                                   seed=seed, directed=directed)
        for dist in ("all", "half"):
            yield inst.net, inst.demands, SweepSpec(
                lo=0.0, hi=3.0, step=1.5, dist=dist, seed=seed, repetitions=2)


def _point_network(net, spec, instance):
    """The network of the grid point a record id such as cap=1.5/half/r2 names."""
    c = float(instance.split("/")[0].removeprefix("cap="))
    half = set(half_subset(net, spec.seed))
    return net.with_node_capacity({v: c if spec.dist == "all" or v in half else 0.0
                                   for v in net.nodes})


def test_naive_records_match_a_fresh_solve_per_point():
    for net, demands, spec in _sweep_cases():
        recs = compare_runs(net, demands, spec, algorithms=("lp", "naive"))
        naive = [r for r in recs if r.algorithm == "naive"]
        assert len(naive) == 2 * len(spec.grid())
        for r in naive:
            fresh = naive_solve(_point_network(net, spec, r.instance), demands)
            assert r.feasible and r.error is None
            assert r.objective == fresh.objective, r.instance
            assert r.iterations == fresh.meta["lp_iterations"]


def test_naive_routing_lp_solved_once_per_sweep(monkeypatch):
    # phase 1 ignores node capacity, so no grid point or repetition after
    # the first needs another path master
    calls = []
    real = pflow.naive.solve_walk_master

    def counting(net, demands, **kwargs):
        calls.append(kwargs)
        return real(net, demands, **kwargs)

    monkeypatch.setattr(pflow.naive, "solve_walk_master", counting)
    for net, demands, spec in _sweep_cases():
        calls.clear()
        recs = compare_runs(net, demands, spec, algorithms=("lp", "naive"))
        assert all(r.feasible for r in recs)
        assert calls == [{"paths": True}]


def test_failed_routing_fails_every_naive_record(monkeypatch):
    def unbounded(net, demands, **kwargs):
        raise ResourceLimitError("walk master ended unbounded")

    monkeypatch.setattr(pflow.naive, "solve_walk_master", unbounded)
    for net, demands, spec in _sweep_cases():
        recs = compare_runs(net, demands, spec, algorithms=("lp", "naive"))
        naive = [r for r in recs if r.algorithm == "naive"]
        assert len(naive) == 2 * len(spec.grid())
        for r in naive:
            assert not r.feasible and math.isnan(r.objective)
            assert r.error == "ResourceLimitError: walk master ended unbounded"
        assert all(r.feasible for r in recs if r.algorithm == "lp")


def _lp_records(recs):
    """lp records by grid point, each a list of its repetitions."""
    points: dict[str, list[RunRecord]] = {}
    for r in recs:
        if r.algorithm == "lp":
            points.setdefault(r.instance.rsplit("/", 1)[0], []).append(r)
    return points


def _single_run(net, demands, spec, algorithms):
    """(objective, iterations) of each record of the same sweep run once, by
    record id without its /r<n>."""
    once = dataclasses.replace(spec, repetitions=1)
    return {(r.instance, r.algorithm): (r.objective, r.iterations)
            for r in compare_runs(net, demands, once, algorithms=algorithms)}


def test_lp_records_match_a_fresh_solve_per_point():
    for net, demands, spec in _sweep_cases():
        recs = compare_runs(net, demands, spec, algorithms=("lp", "naive"))
        points = _lp_records(recs)
        once = _single_run(net, demands, spec, ("lp", "naive"))
        assert len(points) == len(spec.grid())
        for k, (point, reps) in enumerate(points.items()):
            edges, _ = solve_edge_lp(_point_network(net, spec, point), demands)
            fresh = run_solver("lp", _point_network(net, spec, point), demands, 0.1)
            assert [r.instance for r in reps] == [f"{point}/r1", f"{point}/r2"]
            for r in reps:
                assert r.feasible and r.error is None
                assert r.objective == pytest.approx(edges.objective, rel=1e-9, abs=1e-9)
                # each repetition replays the sweep as a run without repetitions
                assert (r.objective, r.iterations) == once[point, "lp"], r.instance
                if k == 0:  # the first point solves cold: the same walks
                    assert (r.objective, r.iterations) == (fresh.objective,
                                                           fresh.meta["lp_iterations"])


def test_warm_started_sweep_takes_fewer_iterations(monkeypatch):
    # the sweep's one master, re-solved at each grid point from the previous
    # point's basis, prices far fewer demands than fresh masters, each of
    # which spends SEED_ROUNDS pricing calls on its multiplicative-weights
    # seed before HiGHS sees it; and it takes fewer simplex iterations than
    # fresh masters, seeded or started empty (25 against 111 and 179 here;
    # a point whose new capacities leave the last basis primal infeasible
    # re-solves by dual simplex)
    calls = 0  # demands priced
    real = pflow.lp._WalkGraph.price

    def counting(graph, price, closed):
        nonlocal calls
        calls += len(graph.sources)
        return real(graph, price, closed)

    monkeypatch.setattr(pflow.lp._WalkGraph, "price", counting)
    inst = gen_random_instance(12, 0.32, n_demands=6, seed=1, directed=False)
    spec = SweepSpec(lo=0.0, hi=5.0, step=0.5, dist="half", seed=1)
    recs = compare_runs(inst.net, inst.demands, spec, algorithms=("lp",))
    assert all(r.feasible for r in recs)
    warm, warm_calls, calls = sum(r.iterations for r in recs), calls, 0
    seeded = sum(solve_edge_lp(_point_network(inst.net, spec, r.instance),
                               inst.demands)[1].iterations for r in recs)
    assert 0 < warm_calls < calls / 2
    monkeypatch.setattr(pflow.lp, "SEED_ROUNDS", 0)
    empty = sum(solve_edge_lp(_point_network(inst.net, spec, r.instance),
                              inst.demands)[1].iterations for r in recs)
    assert 0 < warm < seeded < empty


def test_every_repetition_of_a_point_starts_where_its_first_did():
    # each of three repetitions replays the grid on its own walk master, so
    # every record equals the one-repetition sweep's in objective and
    # iterations, record for record; records stay point by point, each
    # point's repetitions in order, and each repetition's master gives its
    # HiGHS object back to the pool
    inst = gen_random_instance(12, 0.32, n_demands=6, seed=1, directed=False)
    spec = SweepSpec(lo=0.0, hi=5.0, step=0.5, dist="half", seed=1, repetitions=3)
    once = _single_run(inst.net, inst.demands, spec, ("lp", "naive"))
    pooled = len(pflow.lp._POOL)
    recs = compare_runs(inst.net, inst.demands, spec, algorithms=("lp", "naive"))
    assert len(pflow.lp._POOL) >= max(pooled, 1)
    assert [(r.instance, r.algorithm) for r in recs] == [
        (f"{point}/r{j}", alg) for point in dict.fromkeys(p for p, _ in once)
        for j in (1, 2, 3) for alg in ("lp", "naive")]
    for r in recs:
        assert r.feasible
        assert (r.objective, r.iterations) == once[r.instance.rsplit("/", 1)[0],
                                                   r.algorithm], r.instance
    points = _lp_records(recs)
    assert len(points) == len(spec.grid())
    assert sum(reps[0].iterations for reps in points.values()) > 0


def test_warm_started_solutions_verify(monkeypatch):
    solved = []
    real = pflow.lp.WalkMaster.solve

    def keeping(master, net):
        out = real(master, net)
        solved.append((net, master.demands, out))
        return out

    monkeypatch.setattr(pflow.lp.WalkMaster, "solve", keeping)
    for net, demands, spec in _sweep_cases():
        compare_runs(net, demands, spec, algorithms=("lp",))
    assert len(solved) == 8 * 2 * 3  # sweeps x repetitions x grid points
    for net, demands, (res, cols, meta) in solved:
        sol = pflow.lp._edge_solution(net, demands, cols, res.x.tolist(), meta)
        rep = verify_edge_solution(net, demands, sol)
        assert rep.ok, rep.problems
        rep = verify_walk_solution(net, demands, master_walks(net, demands, res, cols, meta))
        assert rep.ok, rep.problems
        rep = verify_walk_solution(net, demands, decompose(sol, net, demands))
        assert rep.ok, rep.problems


def test_iteration_limit_at_one_point_fails_only_its_records(monkeypatch):
    # the second grid point's re-solve, in each repetition, gets no simplex
    # iterations; later points re-solve from what the failed point left and
    # still solve right
    calls = 0
    real = pflow.lp.WalkMaster.solve

    def limited(master, net):
        nonlocal calls
        calls += 1
        if calls not in (2, 2 + len(spec.grid())):
            return real(master, net)
        with monkeypatch.context() as m:
            m.setattr(pflow.lp, "MAXITER", 0)
            return real(master, net)

    monkeypatch.setattr(pflow.lp.WalkMaster, "solve", limited)
    failed = 0
    for net, demands, spec in _sweep_cases():
        calls = 0
        recs = compare_runs(net, demands, spec, algorithms=("lp",))
        failed_point = f"cap={spec.grid()[1]:g}/{spec.dist}"
        for point, reps in _lp_records(recs).items():
            # a master whose pricing finds no walk at all solves nothing, so
            # no iteration limit can fail it; every case here has a walk there
            if point == failed_point and pflow.lp.solve_walk_master(
                    _point_network(net, spec, point), demands)[0].iterations > 0:
                failed += 1
                for r in reps:
                    assert not r.feasible and math.isnan(r.objective)
                    assert r.error == ("ResourceLimitError: "
                                       "simplex iteration limit 0 exhausted")
                continue
            fresh, _ = solve_edge_lp(_point_network(net, spec, point), demands)
            for r in reps:
                assert r.feasible
                assert r.objective == pytest.approx(fresh.objective, rel=1e-9, abs=1e-9)
    assert failed == 8


def test_objective_ratio_conventions():
    assert objective_ratio(0.0, 0.0) == 1.0
    assert objective_ratio(3.0, 0.0) == math.inf
    assert objective_ratio(1.0, 2.0) == 0.5


def test_csv_shape(tmp_path, naive_gap):
    net, demands = naive_gap
    sweep = SweepSpec(lo=0.0, hi=2.0, step=1.0, dist="all", seed=3)
    recs = compare_runs(net, demands, sweep, algorithms=("lp", "naive"))
    recs += compare_runs(net, [Demand("s", "zz", math.inf)],
                         SweepSpec(lo=1.0, hi=1.0, step=1.0),
                         algorithms=("mwu",))
    out = tmp_path / "sweep.csv"
    write_csv(recs, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[0] == "instance,algorithm,objective,wall_time,iterations,feasible,error"
    assert len(lines) == 1 + len(recs)
    assert lines[1].startswith("cap=0/all,lp,")
    last = lines[-1].split(",")
    assert last[2] == ""        # nan objective -> empty field
    assert last[5] == "0"
    assert last[6] != ""


def test_known_algs():
    assert KNOWN_ALGS == ("lp", "mwu", "naive")

"""Random families and the combinatorial reduction gadgets."""

import math
from itertools import combinations

import pytest

from pflow.generators import (gen_random_instance, gen_random_purchase,
                              gen_reduction_instance)
from pflow.instance_io import instance_text
from pflow.model import InfeasibleError, validate_instance
from pflow.purchase import round_budgeted_purchase, solve_purchase_lp


class TestRandomInstance:
    def test_deterministic_per_seed(self):
        a = gen_random_instance(6, 0.4, (1, 5), (0, 5), 2, seed=7)
        b = gen_random_instance(6, 0.4, (1, 5), (0, 5), 2, seed=7)
        assert instance_text(a) == instance_text(b)
        c = gen_random_instance(6, 0.4, (1, 5), (0, 5), 2, seed=8)
        assert instance_text(c) != instance_text(a)

    def test_full_density(self):
        full = gen_random_instance(5, 1.0, (1, 5), (0, 5), 0, seed=1)
        assert full.net.n_arcs == 5 * 4
        assert len(full.demands) == 0

    def test_zero_density_demands_still_routable(self):
        sparse = gen_random_instance(6, 0.0, (1, 5), (0, 5), 3, seed=3)
        assert len(sparse.demands) == 3
        for d in sparse.demands:
            assert (d.source, d.sink) in sparse.net.arc_index

    def test_undirected(self):
        und = gen_random_instance(5, 0.5, (1, 5), (0, 5), 1, seed=2,
                                  directed=False)
        assert not und.net.directed
        assert und.net.n_arcs == 2 * und.net.edge_count


    @pytest.mark.parametrize("kwargs, fragment", [
        ({"amounts": (0, 0)}, "amount range 0:0"),
        ({"amounts": (3, 2)}, "amount range 3:2"),
        ({"node_cap": (-3, -1)}, "node capacity range -3:-1"),
        ({"edge_cap": (-2, -1)}, "edge capacity range -2:-1"),
        ({"edge_cap": (5, 1)}, "edge capacity range 5:1"),
    ])
    def test_rejects_ranges_that_make_invalid_instances(self, kwargs, fragment):
        # each would make an amount or capacity `validate_instance` rejects,
        # or an empty range
        with pytest.raises(ValueError, match=fragment):
            gen_random_instance(6, 0.4, n_demands=2, seed=1, **kwargs)

    def test_range_edges_make_valid_instances(self):
        inst = gen_random_instance(6, 0.4, (0, 0), (0, 0), 2, seed=1, amounts=(1, 1))
        assert validate_instance(inst.net, inst.demands).ok
        assert {d.amount for d in inst.demands} == {1.0}


class TestRandomPurchase:
    def test_candidates_prefer_interior_nodes(self):
        pr = gen_random_purchase(6, 0.5, n_candidates=3, n_demands=2,
                                 seed=4, budget=3.0)
        cand = pr.purchase().candidates()
        ends = {d.source for d in pr.demands} | {d.sink for d in pr.demands}
        inner = [v for v in pr.net.nodes if v not in ends]
        assert len(cand) == 3
        assert len(set(cand) & ends) == max(0, 3 - len(inner))
        assert all(math.isfinite(d.amount) for d in pr.demands)

    def test_deterministic_per_seed(self):
        a = gen_random_purchase(6, 0.5, n_candidates=3, n_demands=2,
                                seed=4, budget=3.0)
        b = gen_random_purchase(6, 0.5, n_candidates=3, n_demands=2,
                                seed=4, budget=3.0)
        assert instance_text(a) == instance_text(b)

    def test_single_source(self):
        pr = gen_random_purchase(6, 0.6, n_candidates=2, n_demands=3,
                                 seed=9, budget=2.0, directed=False,
                                 single_source=True)
        assert len({d.source for d in pr.demands}) == 1


def brute_min_cost(inst):
    """Cheapest fully-serving subset by exhaustive pinning."""
    names = inst.candidates()
    for r in range(len(names) + 1):
        for sub in combinations(names, r):
            fix = {v: (1.0 if v in sub else 0.0) for v in names}
            try:
                solve_purchase_lp(inst, "min", fix=fix)
            except InfeasibleError:
                continue
            return sum(inst.price(v) for v in sub)
    return None


class TestReductionGadgets:
    def test_setcover_two_sets_needed(self):
        pu = gen_reduction_instance(
            "setcover", {"sets": [[1, 2], [2, 3]], "universe": [1, 2, 3]})
        inst = pu.purchase()
        assert inst.candidates() == ["set0", "set1"]
        assert brute_min_cost(inst) == 2.0

    def test_maxkcover_best_single_set(self):
        mk = gen_reduction_instance(
            "maxkcover",
            {"sets": [[1, 2], [2, 3]], "universe": [1, 2, 3], "k": 1}
        ).purchase()
        assert mk.budget == 1.0
        best = 0.0
        for v in mk.candidates():
            fix = {u: (1.0 if u == v else 0.0) for u in mk.candidates()}
            s, _ = solve_purchase_lp(mk, "budgeted", budget_cap=None, fix=fix)
            best = max(best, s.objective)
        assert best == pytest.approx(2.0, abs=1e-6)
        r = round_budgeted_purchase(mk, rng_seed=6)
        assert r.value == pytest.approx(2.0, abs=1e-6)
        assert r.cost <= 1.0

    def test_bisection_k4_all_splits_equal(self):
        # K4 is edge-transitive: every balanced split cuts 4 edges, so
        # every purchasable pair lands on 3*|V|/2 + 4 = 10.
        k4 = [("1", "2"), ("1", "3"), ("1", "4"),
              ("2", "3"), ("2", "4"), ("3", "4")]
        bi = gen_reduction_instance("bisection", {"edges": k4}).purchase()
        assert bi.budget == 2.0
        assert len(bi.net.nodes) == 8
        assert len(bi.demands) == 16
        assert all(d.amount == 3.0 for d in bi.demands)
        us = bi.candidates()
        assert us == [f"u_{i}" for i in ("1", "2", "3", "4")]
        for pair in combinations(us, 2):
            fix = {u: (1.0 if u in pair else 0.0) for u in us}
            s, _ = solve_purchase_lp(bi, "budgeted", budget_cap=None, fix=fix)
            assert s.objective == pytest.approx(10.0, abs=1e-6)

    @pytest.mark.parametrize("kind,spec,fragment", [
        ("setcover", {"sets": [[1, 9]], "universe": [1, 2]},
         "outside the universe"),
        ("bisection", {"edges": [("a", "b")]}, "3-regular"),
        ("vertexcover", {"edges": [("a", "a")]}, "self-loop"),
        ("nope", {}, "unknown reduction"),
    ])
    def test_rejects_malformed_specs(self, kind, spec, fragment):
        with pytest.raises(Exception, match=fragment):
            gen_reduction_instance(kind, spec)

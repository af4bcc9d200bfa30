"""Command-line drive of every subcommand through main(), no subprocesses."""

import csv
import json
import math

import pytest

import pflow.cli
import pflow.harness as harness
import pflow.lp
import pflow.purchase as purchase
from pflow.cli import main
from pflow.instance_io import parse_instance, parse_instance_text, parse_solution
from pflow.lp import LPResult
from pflow.model import ResourceLimitError, verify_walk_solution

LINE = """\
graph directed
node s cap=0
node a cap=3
node t cap=0
edge s a cap=10
edge a t cap=10
demand s t
"""

PUR = """\
graph directed
node s cap=0
node a cap=0 potential=10 cost=5
node t cap=0
edge s a cap=10
edge a t cap=10
demand s t amount=4
"""


@pytest.fixture
def line_pf(tmp_path):
    p = tmp_path / "line.pf"
    p.write_text(LINE)
    return p


@pytest.fixture
def pur_pf(tmp_path):
    p = tmp_path / "pur.pf"
    p.write_text(PUR)
    return p


def run(*args):
    return main([str(a) for a in args])


class TestSolve:
    def test_lp(self, line_pf, tmp_path):
        out = tmp_path / "lp.json"
        assert run("solve", "--alg", "lp", "--input", line_pf, "-o", out) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "walks"
        assert doc["objective"] == pytest.approx(3.0, abs=1e-9)
        assert doc["meta"]["algorithm"] == "lp"
        assert doc["edge_loads"]["s->a"] == doc["edge_loads"]["a->t"]
        for walk in doc["walks"]:
            assert set(walk) == {"demand", "nodes", "flow", "processing"}

    def test_mwu(self, line_pf, tmp_path):
        out = tmp_path / "mwu.json"
        assert run("solve", "--alg", "mwu", "--epsilon", "0.1",
                   "--input", line_pf, "-o", out) == 0
        doc = json.loads(out.read_text())
        assert doc["objective"] >= 0.9 * 3.0 - 1e-9
        assert doc["meta"]["algorithm"] == "mwu"
        assert doc["meta"]["epsilon"] == 0.1

    def test_naive(self, line_pf, tmp_path):
        out = tmp_path / "naive.json"
        assert run("solve", "--alg", "naive", "--input", line_pf,
                   "-o", out) == 0
        doc = json.loads(out.read_text())
        assert doc["objective"] == pytest.approx(3.0, abs=1e-9)

    def test_emit_lp_writes_mps(self, line_pf, tmp_path):
        out = tmp_path / "lp.json"
        mps = tmp_path / "model.mps"
        assert run("solve", "--alg", "lp", "--input", line_pf,
                   "--emit-lp", mps, "-o", out) == 0
        assert "ROWS" in mps.read_text()

    def test_csv_format(self, line_pf, tmp_path):
        out = tmp_path / "naive.csv"
        assert run("solve", "--alg", "naive", "--input", line_pf,
                   "--format", "csv", "-o", out) == 0
        assert out.read_text().startswith("demand,flow,nodes,processing")

    def test_csv_quotes_a_node_name_with_a_comma(self, tmp_path):
        # the parser takes any token as a node name, a,b too
        src = tmp_path / "comma.pf"
        src.write_text(LINE.replace("node a ", "node a,b ").replace("s a ", "s a,b ")
                       .replace("edge a ", "edge a,b "))
        out = tmp_path / "naive.csv"
        assert run("solve", "--alg", "naive", "--input", src,
                   "--format", "csv", "-o", out) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["demand", "flow", "nodes", "processing"],
                        ["0", "3.0", "s a,b t", "a,b:3.0"]]

    @pytest.mark.parametrize("objective", ["maxflow", "congestion"])
    def test_lp_writes_the_masters_walks(self, objective, tmp_path, monkeypatch):
        # the walks are the master's columns, not a decomposition of the
        # edge flows they sum to: they verify, and deliver what the
        # edge-flows document of the same solve delivers
        def refuse(*a, **k):
            raise AssertionError("solve --alg lp decomposed its edge flows")
        monkeypatch.setattr(pflow.cli, "decompose", refuse)
        inst = tmp_path / "inst.pf"
        assert run("gen", "--kind", "random", "--nodes", 6, "--density", 0.5,
                   "--demands", 3, "--seed", 3, "--amount", "5:9",
                   "--node-cap", "1:2", "-o", inst) == 0
        walks, edges = tmp_path / "walks.json", tmp_path / "edges.json"
        for fmt, out in (("document", walks), ("edge-flows", edges)):
            assert run("solve", "--alg", "lp", "--objective", objective, "--format", fmt,
                       "--input", inst, "-o", out) == 0
        parsed = parse_instance(inst)
        rep = verify_walk_solution(parsed.net, parsed.demands, parse_solution(walks))
        assert rep.ok, rep.problems
        got, want = (json.loads(p.read_text())["objective"] for p in (walks, edges))
        assert got > 0 and got == pytest.approx(want, rel=1e-9, abs=0)

    @pytest.mark.parametrize("value", ["-inf", "nan"])
    def test_edge_flows_embed_a_non_finite_node_cost(self, tmp_path, value):
        src = tmp_path / "cost.pf"
        src.write_text(LINE.replace("node a cap=3", f"node a cap=3 cost={value}"))
        edges = tmp_path / "edges.json"
        assert run("solve", "--alg", "lp", "--format", "edge-flows",
                   "--input", src, "-o", edges) == 0
        embedded = parse_instance_text(json.loads(edges.read_text())["instance"])
        assert repr(embedded.cost["a"]) == value

    def test_congestion_objective(self, tmp_path):
        src = tmp_path / "cong.pf"
        src.write_text(LINE.replace("demand s t", "demand s t amount=2"))
        out = tmp_path / "cong.json"
        assert run("solve", "--alg", "lp", "--objective", "congestion",
                   "--input", src, "-o", out) == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["objective_kind"] == "min-max-congestion"

    def test_congestion_infeasible_without_processing(self, tmp_path):
        src = tmp_path / "hard.pf"
        src.write_text(LINE.replace("node a cap=3", "node a cap=0")
                           .replace("demand s t", "demand s t amount=5"))
        assert run("solve", "--alg", "lp", "--objective", "congestion",
                   "--input", src, "-o", tmp_path / "x.json") == 3

    @pytest.mark.parametrize("args", [
        ("--alg", "mwu", "--objective", "congestion"),
        ("--alg", "naive", "--format", "edge-flows"),
    ])
    def test_lp_only_flags_rejected(self, line_pf, tmp_path, args):
        assert run("solve", *args, "--input", line_pf,
                   "-o", tmp_path / "x.json") == 2

    def test_missing_input(self, tmp_path):
        assert run("solve", "--alg", "lp", "--input", tmp_path / "nope.pf",
                   "-o", tmp_path / "x.json") == 2

    def test_malformed_instance(self, tmp_path):
        bad = tmp_path / "bad.pf"
        bad.write_text("graph directed\nedge a b cap=1\n")
        assert run("solve", "--alg", "lp", "--input", bad,
                   "-o", tmp_path / "x.json") == 2

    @pytest.mark.parametrize("nodes", [("s", "a->b", "a", "b", "t"),
                                       ("s", "a", "b->t", "a->b", "t")])
    def test_node_name_with_an_arrow_rejected(self, nodes, tmp_path, capsys):
        # documents key an arc as tail->head: with these names, the edge-flows
        # document named an arc a->b->t that decompose could not find, or gave
        # the arcs a->(b->t) and (a->b)->t one key, one flow overwriting the other
        lines = ["graph directed", *(f"node {v} cap=1" for v in nodes)]
        lines += [f"edge {u} {v} cap=1" for u, v in zip(nodes, nodes[1:])]
        src, out = tmp_path / "arrow.pf", tmp_path / "edges.json"
        src.write_text("\n".join(lines + ["demand s t"]) + "\n")
        assert run("solve", "--alg", "lp", "--format", "edge-flows", "--input", src,
                   "-o", out) == 2
        assert "contains '->'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("alg", ["lp", "naive", "mwu"])
    @pytest.mark.parametrize("line", ["edge s a cap=10", "node a cap=3"])
    def test_infinite_capacity_rejected(self, tmp_path, capsys, alg, line):
        src = tmp_path / "inf.pf"
        src.write_text(LINE.replace(line, line.split("=")[0] + "=inf"))
        assert run("solve", "--alg", alg, "--input", src,
                   "-o", tmp_path / "x.json") == 2
        assert "non-finite" in capsys.readouterr().err

    def test_resource_limit_maps_to_4(self, line_pf, tmp_path, monkeypatch):
        def blow_up(*a, **k):
            raise ResourceLimitError("walk budget exhausted")
        monkeypatch.setattr(harness, "solve_walk_master", blow_up)
        assert run("solve", "--alg", "lp", "--input", line_pf,
                   "-o", tmp_path / "x.json") == 4

    def test_exhausted_simplex_budget_exits_4(self, line_pf, tmp_path, monkeypatch,
                                              capsys):
        # the real path: the walk master's first solve gets no iteration
        monkeypatch.setattr(pflow.lp, "MAXITER", 0)
        out = tmp_path / "x.json"
        assert run("solve", "--alg", "lp", "--input", line_pf, "-o", out) == 4
        assert "simplex iteration limit 0 exhausted" in capsys.readouterr().err
        assert not out.exists()

    def test_exhausted_congestion_budget_exits_4(self, tmp_path, monkeypatch, capsys):
        # the min-max master shares the same budget
        src = tmp_path / "cong.pf"
        src.write_text(LINE.replace("demand s t", "demand s t amount=2"))
        monkeypatch.setattr(pflow.lp, "MAXITER", 0)
        out = tmp_path / "x.json"
        assert run("solve", "--alg", "lp", "--objective", "congestion",
                   "--input", src, "-o", out) == 4
        assert "simplex iteration limit 0 exhausted" in capsys.readouterr().err
        assert not out.exists()


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


# each malformation of a seed-3 solution document, and the message decompose
# exits 2 with
_MALFORMED = {
    "no_unprocessed": (lambda d: _without(d, "unprocessed"),
                       "the document has no 'unprocessed'"),
    "flow_object": (lambda d: {**d, "flow": {"a": 1}},
                    "solution value an object at the document's flow is not an array"),
    "top_level_array": (lambda d: [d],
                        "solution value an array at the top level is not an object"),
    "flow_map_array": (lambda d: {**d, "flow": [[1], *d["flow"][1:]]},
                       "solution value an array at flow 0 is not an object"),
    "instance_number": (lambda d: {**d, "instance": 3},
                        "solution value 3 at the document's instance is not a string"),
    "no_objective": (lambda d: _without(d, "objective"), "the document has no 'objective'"),
    "walk_processing_list": (
        lambda d: {**d, "walks": [{**d["walks"][0], "processing": [1]}, *d["walks"][1:]]},
        "solution value an array at walk 0's processing is not an object"),
}


class TestDecompose:
    def test_round_trip(self, line_pf, tmp_path):
        edges = tmp_path / "edges.json"
        assert run("solve", "--alg", "lp", "--format", "edge-flows",
                   "--input", line_pf, "-o", edges) == 0
        assert json.loads(edges.read_text())["kind"] == "edge-flows"
        out = tmp_path / "dec.json"
        assert run("decompose", "--input", edges, "-o", out) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "walks"
        assert doc["objective"] == pytest.approx(3.0, abs=1e-9)

    # each corruption of the seed-3 document breaks a different part of
    # feasibility: conservation, the processing balance, edge capacity
    @pytest.mark.parametrize("corrupt", [
        "intact", "flow_is_unprocessed", "unprocessed_x3", "flow_x5"])
    def test_edge_flows_verified_before_decompose(self, corrupt, tmp_path, capsys):
        inst = tmp_path / "inst.pf"
        assert run("gen", "--kind", "random", "--nodes", 6, "--density", 0.5,
                   "--demands", 2, "--seed", 3, "-o", inst) == 0
        edges = tmp_path / "edges.json"
        assert run("solve", "--alg", "lp", "--format", "edge-flows",
                   "--input", inst, "-o", edges) == 0
        doc = json.loads(edges.read_text())
        for i, (f, w) in enumerate(zip(doc["flow"], doc["unprocessed"])):
            if corrupt == "flow_is_unprocessed":
                doc["flow"][i] = dict(w)
            elif corrupt == "unprocessed_x3":
                doc["unprocessed"][i] = {a: 3 * x for a, x in w.items()}
            elif corrupt == "flow_x5":
                doc["flow"][i] = {a: 5 * x for a, x in f.items()}
        edges.write_text(json.dumps(doc))
        code = run("decompose", "--input", edges, "-o", tmp_path / "w.json")
        if corrupt == "intact":
            assert code == 0
        else:
            assert code == 2
            assert capsys.readouterr().err.startswith("error: ")

    def test_edge_flows_with_nan_exit_2(self, tmp_path, capsys):
        # json reads NaN, and every other check of the verifier passes it
        inst = tmp_path / "inst.pf"
        assert run("gen", "--kind", "random", "--nodes", 6, "--density", 0.5,
                   "--demands", 2, "--seed", 3, "-o", inst) == 0
        edges = tmp_path / "edges.json"
        assert run("solve", "--alg", "lp", "--format", "edge-flows",
                   "--input", inst, "-o", edges) == 0
        good = edges.read_text()
        doc = json.loads(good)
        doc["flow"] = [{a: math.nan for a in f} for f in doc["flow"]]
        doc["unprocessed"] = [{a: math.nan for a in w} for w in doc["unprocessed"]]
        doc["processing"] = [{v: math.nan for v in p} for p in doc["processing"]]
        edges.write_text(json.dumps(doc))
        assert "NaN" in edges.read_text()
        assert run("decompose", "--input", edges, "-o", tmp_path / "w.json") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-finite" in err
        # null, which pflow writes for any non-finite number, and a string are
        # no numbers at all, as a flow or as a processing value
        for bad in (None, "2"):
            for part in ("flow", "processing"):
                doc = json.loads(good)
                values = next(m for m in doc[part] if m)
                values[next(iter(values))] = bad
                edges.write_text(json.dumps(doc))
                assert run("decompose", "--input", edges, "-o", tmp_path / "w.json") == 2, \
                    (bad, part)
                err = capsys.readouterr().err
                assert err.startswith("error: ") and "is not a number" in err, (bad, part)

    @pytest.mark.parametrize("malform", list(_MALFORMED))
    def test_malformed_document_exits_2(self, malform, tmp_path, capsys):
        inst = tmp_path / "inst.pf"
        assert run("gen", "--kind", "random", "--nodes", 6, "--density", 0.5,
                   "--demands", 2, "--seed", 3, "-o", inst) == 0
        doc = tmp_path / "doc.json"
        fmt = [] if malform.startswith("walk") else ["--format", "edge-flows"]
        assert run("solve", "--alg", "lp", *fmt, "--input", inst, "-o", doc) == 0
        malformed, message = _MALFORMED[malform]
        doc.write_text(json.dumps(malformed(json.loads(doc.read_text()))))
        assert run("decompose", "--input", doc, "-o", tmp_path / "w.json") == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @staticmethod
    def _congestion_edges(seed, tmp_path):
        inst = tmp_path / "inst.pf"
        assert run("gen", "--kind", "random", "--nodes", 6, "--density", 0.5,
                   "--demands", 3, "--seed", seed, "--amount", "5:9",
                   "--node-cap", "1:2", "-o", inst) == 0
        edges = tmp_path / "edges.json"
        assert run("solve", "--alg", "lp", "--objective", "congestion",
                   "--format", "edge-flows", "--input", inst, "-o", edges) == 0
        return edges

    # these seeds need congestion 4.5, 2.22 and 9.0: loads above the hard
    # capacities, checked against capacity x the reported congestion
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_congestion_round_trip(self, seed, tmp_path):
        edges = self._congestion_edges(seed, tmp_path)
        doc = json.loads(edges.read_text())
        assert doc["meta"]["congestion"] > 2
        out = tmp_path / "dec.json"
        assert run("decompose", "--input", edges, "-o", out) == 0
        walks = json.loads(out.read_text())
        assert walks["objective"] == pytest.approx(doc["objective"], rel=1e-9)
        assert walks["meta"]["congestion"] == doc["meta"]["congestion"]

    @pytest.mark.parametrize("tamper", ["lowered", "missing"])
    def test_congestion_document_must_cover_its_loads(self, tamper, tmp_path, capsys):
        edges = self._congestion_edges(3, tmp_path)
        doc = json.loads(edges.read_text())
        if tamper == "lowered":
            doc["meta"]["congestion"] *= 0.9  # below the real peak ratio
        else:
            del doc["meta"]["congestion"]
        edges.write_text(json.dumps(doc))
        assert run("decompose", "--input", edges, "-o", tmp_path / "w.json") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "exceeds capacity" in err

    def test_walk_document_rejected(self, line_pf, tmp_path, capsys):
        walks = tmp_path / "walks.json"
        run("solve", "--alg", "lp", "--input", line_pf, "-o", walks)
        assert run("decompose", "--input", walks,
                   "-o", tmp_path / "x.json") == 2
        assert "edge-flows" in capsys.readouterr().err


class TestPurchase:
    def test_min_buys_only_candidate(self, pur_pf, tmp_path):
        out = tmp_path / "min.json"
        assert run("purchase", "--mode", "min", "--input", pur_pf,
                   "--delta", "0.2", "--seed", "1", "-o", out) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "purchase"
        assert doc["purchased"] == ["a"]
        assert doc["cost"] == pytest.approx(5.0, abs=1e-9)
        assert doc["served"]["0"] >= 0.8 - 1e-9

    def test_budget_flag_injects_budget(self, pur_pf, tmp_path):
        out = tmp_path / "bud.json"
        assert run("purchase", "--mode", "budget", "--budget", "5",
                   "--input", pur_pf, "--seed", "3", "-o", out) == 0
        doc = json.loads(out.read_text())
        assert doc["purchased"] == ["a"]
        assert doc["cost"] <= 5.0
        assert doc["objective"] == pytest.approx(4.0, abs=1e-6)

    def test_budget_mode_needs_budget(self, pur_pf, tmp_path):
        assert run("purchase", "--mode", "budget", "--input", pur_pf,
                   "-o", tmp_path / "x.json") == 2

    def test_nothing_for_sale(self, line_pf, tmp_path):
        assert run("purchase", "--mode", "min", "--input", line_pf,
                   "-o", tmp_path / "x.json") == 2

    def test_no_candidate_with_potential_is_infeasible(self, tmp_path):
        # every node is for sale at zero potential, so the relaxation has no
        # columns and its demand row cannot hold
        src = tmp_path / "nopot.pf"
        src.write_text(PUR.replace("potential=10", "potential=0"))
        assert run("purchase", "--mode", "min", "--input", src,
                   "-o", tmp_path / "x.json") == 3

    @pytest.mark.parametrize("mode", ["min", "budget"])
    def test_infinite_potential_rejected(self, mode, tmp_path, capsys):
        src = tmp_path / "infpot.pf"
        src.write_text(PUR.replace("potential=10", "potential=inf"))
        assert run("purchase", "--mode", mode, "--budget", "5", "--input", src,
                   "-o", tmp_path / "x.json") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: node a: ") and "potential inf" in err

    @pytest.mark.parametrize("edit,fragment", [
        (lambda text: text.replace("potential=10", "potential=10 potential=2"),
         "line 3: duplicate attribute 'potential'"),
        (lambda text: text + "budget 1\nbudget 50\n", "line 9: duplicate budget"),
    ], ids=["attribute", "budget"])
    def test_repeated_value_rejected(self, edit, fragment, tmp_path, capsys):
        # a value given twice is an error, not an override by the last one
        src = tmp_path / "twice.pf"
        src.write_text(edit(PUR))
        assert run("purchase", "--mode", "budget", "--budget", "5", "--input", src,
                   "-o", tmp_path / "x.json") == 2
        assert fragment in capsys.readouterr().err

    def test_infinite_budget_rejected(self, pur_pf, tmp_path, capsys):
        assert run("purchase", "--mode", "budget", "--budget", "inf",
                   "--input", pur_pf, "-o", tmp_path / "x.json") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "budget inf" in err

    def test_unservable_demand_is_infeasible(self, tmp_path):
        src = tmp_path / "nopay.pf"
        src.write_text(PUR.replace("potential=10", "potential=1")
                          .replace("amount=4", "amount=5"))
        assert run("purchase", "--mode", "min", "--input", src,
                   "-o", tmp_path / "x.json") == 3

    @pytest.mark.parametrize("mode", ["min", "budget"])
    def test_unbounded_purchase_lp_is_a_resource_limit(self, mode, pur_pf,
                                                        tmp_path, capsys,
                                                        monkeypatch):
        monkeypatch.setattr(purchase, "solve_lp",
                            lambda model: LPResult("unbounded", None, math.inf))
        assert run("purchase", "--mode", mode, "--budget", "5", "--input",
                   pur_pf, "-o", tmp_path / "x.json") == 4
        assert "purchase LP ended unbounded" in capsys.readouterr().err


# gen arguments that exit 2, with the start of the error each reports
_BAD_SPECS = {
    ("--kind", "bisection", "--edges", "1-2 2-3"): "bisection input must be 3-regular",
    ("--kind", "maxkcover", "--sets", "a b"): "gen --kind maxkcover needs --k",
    ("--kind", "random"): "gen --kind random needs --nodes",
    ("--kind", "random", "--nodes", "5", "--edge-cap", "5"): "expected LO:HI, got '5'",
    ("--kind", "random", "--nodes", "5", "--edge-cap", "a:b"):
        "expected integers in LO:HI, got 'a:b'",
    ("--kind", "vertexcover", "--edges", "ab"): "expected U-V edge token, got 'ab'",
    ("--kind", "setcover", "--sets", ";"): "no sets given",
    ("--kind", "setcover"): "gen --kind setcover needs --sets",
    ("--kind", "vertexcover"): "gen --kind vertexcover needs --edges",
}

# compare --sweep grids that exit 2, likewise
_BAD_GRIDS = {
    "-1:0:1": "bad capacity range [-1.0, 0.0]",
    "0:1:inf": "step must be positive and finite, got inf",
    "0:5": "expected LO:HI:STEP, got '0:5'",
    "a:b:c": "non-numeric sweep bound in 'a:b:c'",
}


class TestGen:
    def test_random_solves(self, tmp_path):
        pf = tmp_path / "rand.pf"
        assert run("gen", "--kind", "random", "--nodes", "6",
                   "--density", "0.5", "--seed", "7", "-o", pf) == 0
        assert run("solve", "--alg", "lp", "--input", pf,
                   "-o", tmp_path / "rand.json") == 0

    def test_setcover(self, tmp_path):
        pf = tmp_path / "sc.pf"
        assert run("gen", "--kind", "setcover", "--sets", "a b;b c",
                   "-o", pf) == 0
        assert "potential=" in pf.read_text()
        assert run("purchase", "--mode", "min", "--input", pf,
                   "--seed", "5", "-o", tmp_path / "sc.json") == 0

    def test_maxkcover_budget_line(self, tmp_path):
        pf = tmp_path / "mk.pf"
        assert run("gen", "--kind", "maxkcover", "--sets", "a b;b c",
                   "--k", "1", "-o", pf) == 0
        assert any(line.startswith("budget 1")
                   for line in pf.read_text().splitlines())

    def test_graph_gadgets(self, tmp_path):
        assert run("gen", "--kind", "vertexcover", "--edges", "a-b b-c c-a",
                   "-o", tmp_path / "vc.pf") == 0
        assert run("gen", "--kind", "bisection",
                   "--edges", "1-2 1-3 1-4 2-3 2-4 3-4",
                   "-o", tmp_path / "bi.pf") == 0

    @pytest.mark.parametrize("args", list(_BAD_SPECS))
    def test_bad_specs(self, tmp_path, capsys, args):
        assert run("gen", *args, "-o", tmp_path / "x.pf") == 2
        assert f"error: {_BAD_SPECS[args]}" in capsys.readouterr().err
        assert not (tmp_path / "x.pf").exists()

    @pytest.mark.parametrize("flag", ["--amount=0:0", "--node-cap=-3:-1", "--edge-cap=-2:-1",
                                      "--edge-cap=5:1"])
    def test_random_ranges_that_solve_would_reject(self, tmp_path, capsys, flag):
        # an amount below 1 or a negative capacity would be written and then
        # refused by `pflow solve`; a reversed range is named, not passed to
        # `random` to fail there
        out = tmp_path / "x.pf"
        assert run("gen", "--kind", "random", "--nodes", "5", flag, "-o", out) == 2
        assert f"range {flag.split('=')[1]}" in capsys.readouterr().err
        assert not out.exists()


class TestCompare:
    def test_sweep_csv(self, line_pf, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run("compare", "--input", line_pf, "--sweep", "0:3:1",
                   "--dist", "all", "--algs", "lp,naive", "-o", out) == 0
        assert "8 runs, 0 failed" in capsys.readouterr().err
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 8
        assert {r["algorithm"] for r in rows} == {"lp", "naive"}
        assert all(r["feasible"] == "1" for r in rows)
        by = {(r["instance"], r["algorithm"]): float(r["objective"])
              for r in rows}
        assert by[("cap=3/all", "lp")] == 3.0
        assert by[("cap=0/all", "lp")] == 0.0

    def test_backwards_sweep_rejected(self, line_pf, tmp_path):
        assert run("compare", "--input", line_pf, "--sweep", "3:0:1",
                   "-o", tmp_path / "x.csv") == 2

    @pytest.mark.parametrize("sweep", list(_BAD_GRIDS))
    def test_invalid_capacity_grid_rejected(self, line_pf, tmp_path, capsys, sweep):
        # a negative capacity, an infinite step, two bounds alone or bounds
        # that are no numbers exit 2 before any solve
        assert run("compare", "--input", line_pf, f"--sweep={sweep}",
                   "-o", tmp_path / "x.csv") == 2
        assert f"error: {_BAD_GRIDS[sweep]}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_bad_mwu_epsilon_exits_2(self, line_pf, tmp_path, capsys):
        # as `pflow solve --alg mwu --epsilon 1.5` does, before any solve
        # and without a CSV, rather than a row of errors and exit 0
        out = tmp_path / "x.csv"
        assert run("compare", "--input", line_pf, "--sweep", "0:3:1", "--epsilon", "1.5",
                   "--algs", "lp,mwu", "-o", out) == 2
        assert "epsilon must lie strictly between 0 and 1" in capsys.readouterr().err
        assert not out.exists()
        assert run("solve", "--alg", "mwu", "--epsilon", "1.5", "--input", line_pf,
                   "-o", tmp_path / "x.json") == 2

    def test_unknown_alg_rejected(self, line_pf, tmp_path, capsys):
        assert run("compare", "--input", line_pf, "--sweep", "0:3:1",
                   "--algs", "lp,zz", "-o", tmp_path / "x.csv") == 2
        # and a list that names none
        assert run("compare", "--input", line_pf, "--sweep", "0:3:1",
                   "--algs", ",", "-o", tmp_path / "x.csv") == 2
        assert "--algs must name at least one algorithm" in capsys.readouterr().err

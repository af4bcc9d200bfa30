"""Instance text format and solution documents."""

import ast
import json
import math
import re
from pathlib import Path

import pytest

from pflow import generators, instance_io
from pflow.generators import gen_random_purchase
from pflow.instance_io import (InstanceFormatError, emit_edge_solution,
                               emit_instance, emit_solution, instance_text,
                               parse_instance, parse_instance_text,
                               parse_solution, solution_document)
from pflow.lp import solve_edge_lp
from pflow.model import Demand, StructuralError, WalkEntry, WalkFlowSolution

LINE_TEXT = """\
# line-shaped, one relay
graph directed
node s cap=0
node a cap=3 cost=2 potential=7
node t cap=0
edge s a cap=10
edge a t cap=10
demand s t
demand s t amount=4
budget 9
"""


def test_parse_fields():
    inst = parse_instance_text(LINE_TEXT)
    assert inst.net.directed
    assert list(inst.net.nodes) == ["s", "a", "t"]
    assert inst.net.node_capacity["a"] == 3.0
    assert inst.cost == {"a": 2.0}
    assert inst.potential == {"a": 7.0}
    assert inst.demands[0].amount == math.inf
    assert inst.demands[1].amount == 4.0
    assert inst.budget == 9.0


def test_text_round_trip_is_fixed_point():
    inst = parse_instance_text(LINE_TEXT)
    text2 = instance_text(inst)
    inst2 = parse_instance_text(text2)
    assert instance_text(inst2) == text2
    assert inst2.net.nodes == inst.net.nodes
    assert [(d.source, d.sink, d.amount) for d in inst2.demands] == \
           [(d.source, d.sink, d.amount) for d in inst.demands]
    assert inst2.budget == 9.0 and inst2.cost == inst.cost


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_node_attributes_round_trip(value):
    # validate_instance reads neither cost= nor potential=, so the instance
    # an edge-flows document embeds may hold any number the parser reads
    inst = parse_instance_text(LINE_TEXT.replace("cost=2 potential=7",
                                                 f"cost={value} potential={value}"))
    text = instance_text(inst)
    back = parse_instance_text(text)
    assert instance_text(back) == text
    assert repr(back.cost["a"]) == repr(back.potential["a"]) == value


def test_purchase_fields_round_trip():
    # disjoint ranges, so a potential read as a cost shows
    inst = gen_random_purchase(9, 0.4, potential_cap=(1, 6), cost_range=(10, 19),
                               n_candidates=4, budget=3.5, seed=4)
    back = parse_instance_text(instance_text(inst)).purchase()
    assert back.potential == inst.potential and len(back.potential) == 4
    assert back.cost == inst.cost and min(back.cost.values()) >= 10
    assert max(back.potential.values()) <= 6 and back.budget == 3.5


@pytest.mark.parametrize("module", [instance_io, generators])
def test_instance_modules_import_no_solver(module):
    # instances are data: the purchase solvers import them, not the reverse
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        assert not any("purchase" in name.split(".") for name in names), \
            ast.unparse(node)


def test_file_round_trip(tmp_path):
    inst = parse_instance_text(LINE_TEXT)
    p = tmp_path / "i.pflow"
    emit_instance(inst, p)
    assert parse_instance(p).net.n_arcs == inst.net.n_arcs


def test_undirected_pairing_survives():
    und = parse_instance_text("graph undirected\nnode a cap=0\nnode b cap=0\n"
                              "edge a b cap=5\n")
    assert und.net.n_arcs == 2 and len(und.net.groups) == 1
    und2 = parse_instance_text(instance_text(und))
    assert und2.net.n_arcs == 2 and len(und2.net.groups) == 1


@pytest.mark.parametrize("bad,fragment", [
    ("", "line 1"),
    ("node a cap=1", "must start with"),
    ("graph directed\ngraph directed", "duplicate graph"),
    ("graph directed\nnode a", "needs a name and cap"),
    ("graph directed\nnode a cap=1\nnode a cap=2", "duplicate node"),
    ("graph directed\nnode a cap=x", "bad cap"),
    ("graph directed\nnode a cap=1 weird=2", "unknown attribute"),
    ("graph directed\nnode a cap=1\nedge a b cap=1", "unknown node"),
    ("graph directed\nnode a cap=1\nnode b cap=1\n"
     "edge a b cap=1\nedge a b cap=2", "duplicate edge"),
    ("graph undirected\nnode a cap=1\nnode b cap=1\n"
     "edge a b cap=1\nedge b a cap=2", "duplicate edge"),
    ("graph directed\nfrob a b", "unknown directive"),
    ("graph directed\nnode a cap=1\nbudget", "budget needs one number"),
    ("graph directed\nnode a cap=1 cap=7", "line 2: duplicate attribute 'cap'"),
    ("graph directed\nnode a cap=1 potential=2 cost=1 potential=9",
     "line 2: duplicate attribute 'potential'"),
    ("graph directed\nnode a cap=1\nbudget 1\nbudget 50", "line 4: duplicate budget"),
    ("graph directed\nnode a cap=1\ndemand a", "demand needs"),
    # solution documents key an arc as tail->head
    ("graph directed\nnode s cap=0\nnode a->b cap=1", "line 3: node name 'a->b' contains '->'"),
    ("graph directed\nnode -> cap=1", "line 2: node name '->'"),
])
def test_format_errors(bad, fragment):
    with pytest.raises(InstanceFormatError, match=fragment):
        parse_instance_text(bad)


def test_walk_document_shape():
    wsol = WalkFlowSolution([WalkEntry(0, ("s", "a", "t"), 3.0, {"a": 3.0})],
                            meta={"algorithm": "lp"})
    doc = solution_document(wsol)
    assert doc["kind"] == "walks"
    assert doc["objective"] == 3.0
    assert doc["edge_loads"] == {"s->a": 3.0, "a->t": 3.0}
    assert doc["node_loads"] == {"a": 3.0}
    assert doc["meta"]["algorithm"] == "lp"
    assert doc["meta"]["epsilon"] is None


def test_walk_document_round_trip(tmp_path):
    wsol = WalkFlowSolution([WalkEntry(0, ("s", "a", "t"), 3.0, {"a": 3.0})],
                            meta={"algorithm": "lp"})
    p = tmp_path / "w.json"
    emit_solution(wsol, p)
    back = parse_solution(p)
    assert isinstance(back, WalkFlowSolution)
    assert back.entries == wsol.entries
    # null, written for a non-finite number, and a string are no flow or
    # processing value
    for bad in (None, "3"):
        for key in ("flow", "processing"):
            doc = json.loads(p.read_text())
            walk = doc["walks"][0]
            if key == "flow":
                walk["flow"] = bad
            else:
                walk["processing"]["a"] = bad
            q = tmp_path / "bad.json"
            q.write_text(json.dumps(doc))
            with pytest.raises(StructuralError, match="is not a number"):
                parse_solution(q)
    # a demand is a non-negative integer and a walk a list of node names
    for key, bad, message in [
            ("demand", "0", 'value "0" at walk 0\'s demand is not an integer'),
            ("demand", 0.0, "value 0.0 at walk 0's demand is not an integer"),
            ("demand", True, "value true at walk 0's demand is not an integer"),
            ("demand", -1, "walk 0's demand -1 is not a demand index"),
            ("nodes", "s a t", 'value "s a t" at walk 0\'s nodes is not an array'),
            ("nodes", ["s", 1, "t"], "value 1 at walk 0's nodes is not a string"),
            ("processing", [3.0], "value an array at walk 0's processing is not an object")]:
        doc = json.loads(p.read_text())
        doc["walks"][0][key] = bad
        q = tmp_path / "bad.json"
        q.write_text(json.dumps(doc))
        with pytest.raises(StructuralError, match=re.escape(message)):
            parse_solution(q)


def test_walk_csv(tmp_path):
    wsol = WalkFlowSolution([WalkEntry(0, ("s", "a", "t"), 3.0, {"a": 3.0})])
    p = tmp_path / "w.csv"
    emit_solution(wsol, p, format="csv")
    lines = p.read_text().splitlines()
    assert lines[0] == "demand,flow,nodes,processing"
    assert lines[1] == "0,3.0,s a t,a:3.0"


def test_empty_solution_document():
    doc = solution_document(WalkFlowSolution([]))
    assert doc["objective"] == 0.0 and doc["walks"] == []


def test_edge_flows_round_trip(tmp_path):
    inst = parse_instance_text(
        "graph directed\nnode s cap=0\nnode a cap=3\nnode t cap=0\n"
        "edge s a cap=10\nedge a t cap=10\ndemand s t\n")
    esol, _ = solve_edge_lp(inst.net, inst.demands)
    p = tmp_path / "e.json"
    emit_edge_solution(esol, inst, p)
    esol2, inst2 = parse_solution(p)
    assert esol2.objective == pytest.approx(esol.objective, abs=1e-12)
    assert inst2.net.nodes == inst.net.nodes
    for i in range(len(inst.demands)):
        nz = {a: v for a, v in esol.flow[i].items() if v != 0.0}
        assert esol2.flow[i] == nz
    raw = json.loads(p.read_text())
    assert raw["kind"] == "edge-flows"
    assert "graph directed" in raw["instance"]


def test_json_never_carries_inf(tmp_path):
    inst = parse_instance_text(
        "graph directed\nnode s cap=0\nnode a cap=3\nnode t cap=0\n"
        "edge s a cap=10\nedge a t cap=10\ndemand s t\n")
    esol, _ = solve_edge_lp(inst.net, inst.demands)
    esol.meta["weird"] = math.inf
    p = tmp_path / "e.json"
    emit_edge_solution(esol, inst, p)
    assert json.loads(p.read_text())["meta"]["weird"] is None


def test_purchase_document(tmp_path):
    from pflow.generators import gen_reduction_instance
    from pflow.purchase import round_min_purchase, solve_purchase_lp

    pu = gen_reduction_instance(
        "setcover", {"sets": [[1, 2], [2, 3]], "universe": [1, 2, 3]})
    lp_sol, _ = solve_purchase_lp(pu.purchase(), "min")
    rp = round_min_purchase(pu.purchase(), lp_sol, delta=0.2, rng_seed=5)
    doc = solution_document(rp, net=pu.net)
    assert doc["kind"] == "purchase"
    assert set(doc["purchased"]) <= {"set0", "set1"}

    p = tmp_path / "p.json"
    emit_solution(rp, p, net=pu.net)
    assert parse_solution(p)["kind"] == "purchase"

    c = tmp_path / "p.csv"
    emit_solution(rp, c, format="csv")
    assert c.read_text().startswith("demand,served_fraction")

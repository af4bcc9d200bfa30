"""Line-oriented instance files and structured solution documents.

Instance format, one directive per line, `#` starts a comment:

    graph directed|undirected
    node NAME cap=FLOAT [cost=FLOAT] [potential=FLOAT]
    edge U V cap=FLOAT
    demand S T [amount=FLOAT]     # omitted amount = uncapped
    budget FLOAT                  # budgeted purchase only

Nodes must be declared before edges or demands mention them. A node name
may not contain `->`, which solution documents put between an arc's ends:
with it, two arcs could share one key. An attribute given twice on one
line, or a second graph or budget directive, is an error, not an override.
Solutions are emitted as JSON documents, with null for any non-finite
number. Read back, a walk or edge-flows document of another shape is
invalid input (StructuralError): a field missing or of the wrong JSON type,
a flow or processing value that is not a number (null included), or a
walk's demand that is not a non-negative integer.
"""

from __future__ import annotations

import csv
import json
import math

from .model import (Demand, EdgeFlowSolution, FlowNetwork, ParsedInstance,
                    PurchaseSolution, StructuralError, WalkEntry,
                    WalkFlowSolution)


class InstanceFormatError(ValueError):
    """Malformed instance text; message carries the 1-based line number."""


def _num(token: str, ln: int, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise InstanceFormatError(f"line {ln}: bad {what} {token!r}") from None


def _kv(tokens: list[str], ln: int, allowed: tuple) -> dict[str, float]:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise InstanceFormatError(f"line {ln}: expected key=value, got {tok!r}")
        key, _, val = tok.partition("=")
        if key not in allowed:
            raise InstanceFormatError(f"line {ln}: unknown attribute {key!r}")
        if key in out:
            raise InstanceFormatError(f"line {ln}: duplicate attribute {key!r}")
        out[key] = _num(val, ln, key)
    return out


def parse_instance_text(text: str) -> ParsedInstance:
    directed = None
    order: list[str] = []
    caps: dict[str, float] = {}
    cost: dict[str, float] = {}
    potential: dict[str, float] = {}
    edges: list[tuple[str, str, float]] = []
    seen_pairs: set[tuple[str, str]] = set()
    demands: list[Demand] = []
    budget = None

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if directed is None:
            if kind != "graph" or len(tokens) != 2 or \
                    tokens[1] not in ("directed", "undirected"):
                raise InstanceFormatError(
                    f"line {ln}: file must start with 'graph directed|undirected'")
            directed = tokens[1] == "directed"
            continue
        if kind == "graph":
            raise InstanceFormatError(f"line {ln}: duplicate graph directive")
        if kind == "node":
            if len(tokens) < 3:
                raise InstanceFormatError(f"line {ln}: node needs a name and cap=")
            name = tokens[1]
            if name in caps:
                raise InstanceFormatError(f"line {ln}: duplicate node {name!r}")
            if "->" in name:
                raise InstanceFormatError(f"line {ln}: node name {name!r} contains '->', "
                                          f"which solution documents use to key an arc")
            attrs = _kv(tokens[2:], ln, ("cap", "cost", "potential"))
            if "cap" not in attrs:
                raise InstanceFormatError(f"line {ln}: node {name!r} missing cap=")
            order.append(name)
            caps[name] = attrs["cap"]
            if "cost" in attrs:
                cost[name] = attrs["cost"]
            if "potential" in attrs:
                potential[name] = attrs["potential"]
        elif kind == "edge":
            if len(tokens) != 4:
                raise InstanceFormatError(f"line {ln}: edge needs U V cap=F")
            u, v = tokens[1], tokens[2]
            for w in (u, v):
                if w not in caps:
                    raise InstanceFormatError(f"line {ln}: unknown node {w!r}")
            attrs = _kv(tokens[3:], ln, ("cap",))
            if "cap" not in attrs:
                raise InstanceFormatError(f"line {ln}: edge missing cap=")
            pairs = [(u, v)] if directed else [(u, v), (v, u)]
            for p in pairs:
                if p in seen_pairs:
                    raise InstanceFormatError(f"line {ln}: duplicate edge {u} {v}")
                seen_pairs.add(p)
            edges.append((u, v, attrs["cap"]))
        elif kind == "demand":
            if len(tokens) not in (3, 4):
                raise InstanceFormatError(f"line {ln}: demand needs S T [amount=F]")
            s, t = tokens[1], tokens[2]
            for w in (s, t):
                if w not in caps:
                    raise InstanceFormatError(f"line {ln}: unknown node {w!r}")
            amount = math.inf
            if len(tokens) == 4:
                attrs = _kv(tokens[3:], ln, ("amount",))
                amount = attrs.get("amount", math.inf)
            demands.append(Demand(s, t, amount))
        elif kind == "budget":
            if len(tokens) != 2:
                raise InstanceFormatError(f"line {ln}: budget needs one number")
            if budget is not None:
                raise InstanceFormatError(f"line {ln}: duplicate budget directive")
            budget = _num(tokens[1], ln, "budget")
        else:
            raise InstanceFormatError(f"line {ln}: unknown directive {kind!r}")

    if directed is None:
        raise InstanceFormatError("line 1: empty instance, expected graph directive")
    net = FlowNetwork(order, edges, caps, directed=directed)
    return ParsedInstance(net, demands, potential, cost, budget)


def parse_instance(path: str) -> ParsedInstance:
    with open(path, encoding="utf-8") as fh:
        return parse_instance_text(fh.read())


def _fmt(x: float) -> str:
    """A number as instance text writes it; a non-finite one as inf, -inf or
    nan, which parse_instance_text reads back."""
    if math.isfinite(x) and x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def instance_text(inst: ParsedInstance) -> str:
    net = inst.net
    lines = [f"graph {'directed' if net.directed else 'undirected'}"]
    for v in net.nodes:
        parts = [f"node {v} cap={_fmt(net.node_capacity[v])}"]
        if v in inst.cost:
            parts.append(f"cost={_fmt(inst.cost[v])}")
        if v in inst.potential:
            parts.append(f"potential={_fmt(inst.potential[v])}")
        lines.append(" ".join(parts))
    lines += [f"edge {u} {v} cap={_fmt(cap)}" for u, v, cap in net.edges]
    for d in inst.demands:
        if math.isfinite(d.amount):
            lines.append(f"demand {d.source} {d.sink} amount={_fmt(d.amount)}")
        else:
            lines.append(f"demand {d.source} {d.sink}")
    if inst.budget is not None:
        lines.append(f"budget {_fmt(inst.budget)}")
    return "\n".join(lines) + "\n"


def emit_instance(inst: ParsedInstance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_text(inst))


# --- solution documents -----------------------------------------------------

def _sanitize(obj):
    """JSON has no inf/nan; map them to null recursively."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    return obj


def _base_meta(meta: dict) -> dict:
    out = {"algorithm": None, "epsilon": None, "seed": None}
    out.update(meta)
    return _sanitize(out)


def _walk_edge_loads(sol: WalkFlowSolution) -> dict[str, float]:
    loads: dict[str, float] = {}
    for e in sol.entries:
        for u, v in zip(e.nodes, e.nodes[1:]):
            key = f"{u}->{v}"
            loads[key] = loads.get(key, 0.0) + e.flow
    return loads


def solution_document(sol, net: FlowNetwork | None = None) -> dict:
    if isinstance(sol, WalkFlowSolution):
        return {
            "kind": "walks",
            "objective": sol.objective,
            "walks": [{"demand": e.demand, "nodes": list(e.nodes),
                       "flow": e.flow, "processing": dict(e.processing)}
                      for e in sol.entries],
            "edge_loads": _walk_edge_loads(sol),
            "node_loads": sol.node_loads(),
            "meta": _base_meta(sol.meta),
        }
    if isinstance(sol, PurchaseSolution):
        def arc_key(a: int) -> str:
            if net is None:
                return f"arc{a}"
            arc = net.arcs[a]
            return f"{arc.tail}->{arc.head}"

        edge_loads: dict[str, float] = {}
        for fm in sol.flows.flow:
            for a, val in fm.items():
                key = arc_key(a)
                edge_loads[key] = edge_loads.get(key, 0.0) + val
        return {
            "kind": "purchase",
            "objective": sol.value,
            "purchased": sorted(sol.purchased),
            "cost": sol.cost,
            "served": {str(i): f for i, f in sol.served.items()},
            "edge_loads": edge_loads,
            "node_loads": sol.flows.node_loads(),
            "meta": _base_meta(sol.meta),
        }
    raise TypeError(f"cannot emit {type(sol).__name__}")


def emit_solution(sol, path: str, format: str = "document",
                  net: FlowNetwork | None = None) -> None:
    if format == "document":
        doc = solution_document(sol, net)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, allow_nan=False)
            fh.write("\n")
        return
    if format != "csv":
        raise ValueError(f"unknown solution format {format!r}")
    if isinstance(sol, WalkFlowSolution):
        rows = [["demand", "flow", "nodes", "processing"]]
        rows += [[e.demand, e.flow, " ".join(e.nodes),
                  " ".join(f"{v}:{amt}" for v, amt in sorted(e.processing.items()))]
                 for e in sol.entries]
    elif isinstance(sol, PurchaseSolution):
        rows = [["demand", "served_fraction"]]
        rows += [[i, sol.served[i]] for i in sorted(sol.served)]
    else:
        raise TypeError(f"cannot emit {type(sol).__name__}")
    # csv quotes a field that holds a comma, such as a node named a,b
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def emit_edge_solution(sol: EdgeFlowSolution, inst: ParsedInstance,
                       path: str) -> None:
    """Arc-level flows plus the instance itself, so decomposition can run
    later without hunting for the original file."""
    net = inst.net

    def arcmap(m: dict[int, float]) -> dict[str, float]:
        return {f"{net.arcs[a].tail}->{net.arcs[a].head}": v
                for a, v in m.items() if v != 0.0}

    doc = {
        "kind": "edge-flows",
        "objective": sol.objective,
        "instance": instance_text(inst),
        "flow": [arcmap(m) for m in sol.flow],
        "unprocessed": [arcmap(m) for m in sol.unprocessed],
        "processing": [dict(m) for m in sol.processing],
        "meta": _base_meta(sol.meta),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_sanitize(doc), fh, indent=2, allow_nan=False)
        fh.write("\n")


# the JSON names of the types a solution document's values are checked for
_JSON = {(int, float): "a number", int: "an integer", str: "a string",
         list: "an array", dict: "an object"}


def _value(val, where: str, kind=(int, float)):
    """`val` if it is a `kind` and not a bool, else StructuralError."""
    if isinstance(val, bool) or not isinstance(val, kind):
        shown = _JSON[type(val)] if isinstance(val, (list, dict)) else json.dumps(val)
        raise StructuralError(f"solution value {shown} at {where} is not {_JSON[kind]}")
    return val


def _field(doc: dict, key: str, where: str, kind=(int, float)):
    """`doc[key]`, checked by `_value`; StructuralError if it is absent."""
    if key not in doc:
        raise StructuralError(f"{where} has no {key!r}")
    return _value(doc[key], f"{where}'s {key}", kind)


def _walk_entry(k: int, w) -> WalkEntry:
    where = f"walk {k}"
    w = _value(w, where, dict)
    demand = _field(w, "demand", where, int)
    if demand < 0:
        raise StructuralError(f"{where}'s demand {demand} is not a demand index")
    nodes = [_value(v, f"{where}'s nodes", str) for v in _field(w, "nodes", where, list)]
    return WalkEntry(demand, tuple(nodes), _field(w, "flow", where),
                     {v: _value(x, v) for v, x in _field(w, "processing", where, dict).items()})


def parse_solution(path: str):
    """Read a solution document back.

    Returns a WalkFlowSolution for walk documents, an (EdgeFlowSolution,
    ParsedInstance) pair for edge-flow documents, and the raw dict for
    purchase documents (which are terminal artifacts, not solver inputs).
    A walk or edge-flows document of another shape is invalid input, as
    the module docstring says (StructuralError); the verifiers check the
    rest, a demand index past the last demand included.
    """
    with open(path, encoding="utf-8") as fh:
        doc = _value(json.load(fh), "the top level", dict)
    kind = doc.get("kind")
    if kind == "walks":
        walks = _value(doc.get("walks", []), "walks", list)
        return WalkFlowSolution([_walk_entry(k, w) for k, w in enumerate(walks)],
                                meta=_value(doc.get("meta", {}), "meta", dict))
    if kind == "edge-flows":
        inst = parse_instance_text(_field(doc, "instance", "the document", str))
        net = inst.net

        def unmap(m: dict[str, float]) -> dict[int, float]:
            out = {}
            for key, val in m.items():
                u, _, v = key.partition("->")
                if (u, v) not in net.arc_index:
                    raise StructuralError(f"solution uses missing arc {key}")
                out[net.arc_index[(u, v)]] = _value(val, key)
            return out

        def maps(key: str) -> list[dict]:
            return [_value(m, f"{key} {i}", dict)
                    for i, m in enumerate(_field(doc, key, "the document", list))]

        sol = EdgeFlowSolution([unmap(m) for m in maps("flow")],
                               [unmap(m) for m in maps("unprocessed")],
                               [{v: _value(x, v) for v, x in m.items()}
                                for m in maps("processing")],
                               _field(doc, "objective", "the document"),
                               meta=_value(doc.get("meta", {}), "meta", dict))
        return sol, inst
    if kind == "purchase":
        return doc
    raise StructuralError(f"unknown solution document kind {kind!r}")

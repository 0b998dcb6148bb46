"""Spans and counts around the public functions of each probdatalog layer.

The tracer wraps a function at the name its caller looks up (for example
`probdatalog.reasoner.instantiate_node`, not the definition in
`derivations`), so the program itself is unchanged and an untraced pass
runs the original functions.  Spans (name, start, end, parent span,
pass) are kept in memory and written out once, at the end of the run.  Counts are read from what a wrapped call received or
returned, right after its span closes, so no result outlives its pass.
A name that no longer exists, or a result whose shape changed, makes the
metrics that need it missing instead of failing the run.
"""

from __future__ import annotations

import importlib
import time
from array import array
from typing import Callable, Dict, List, Tuple

Counts = Dict[str, float]

# span name -> (module, attribute) where the caller looks the function up
SPANS: Dict[str, Tuple[str, str]] = {
    "cli.main": ("probdatalog.cli", "main"),
    "parser.parse_program": ("probdatalog.cli", "parse_program"),
    "model.normalize": ("probdatalog.cli", "normalize"),
    "reasoner.run_pr": ("probdatalog.cli", "run_pr"),
    "reasoner.run_pcor": ("probdatalog.cli", "run_pcor"),
    "graph.inductive_step": ("probdatalog.reasoner", "inductive_step"),
    "derivations.instantiate_node": ("probdatalog.reasoner", "instantiate_node"),
    "derivations.is_redundant": ("probdatalog.reasoner", "is_redundant"),
    "derivations.is_hereditarily_redundant": (
        "probdatalog.reasoner", "is_hereditarily_redundant",
    ),
    "lineage.collect_lineage": ("probdatalog.cli", "collect_lineage"),
    "wmc.probability": ("probdatalog.cli", "probability"),
}
# Counted without a span: a clause-set union is far too frequent for one.
OR_CALLS = ("lineage.Dnf.or_", "probdatalog.lineage", "Dnf", "or_")

REASON = ("reasoner.run_pr", "reasoner.run_pcor")
REDUNDANCY = ("derivations.is_redundant", "derivations.is_hereditarily_redundant")


def _reasoning(args, result) -> Counts:
    created = len(result.graph.nodes)
    live = sum(1 for _ in result.graph.live_nodes())
    return {
        "graph.nodes_created": created,
        "graph.nodes_live": live,
        "derivations.entries_stored": result.stats.total("entries_stored"),
        "derivations.or_entries": result.stats.total("or_entries"),
        "reasoner.rounds": result.stats.rounds_executed,
    }


def _instantiation(args, result) -> Counts:
    return {
        "derivations.substitutions": result.substitutions,
        "derivations.entries_allocated": result.allocated,
    }


def _lineage(args, answers) -> Counts:
    return {
        "lineage.answers": len(answers),
        "lineage.clauses": sum(len(a.lineage.clauses) for a in answers),
    }


def _wmc(args, _) -> Counts:
    return {
        "wmc.max_vars": len(args[0].variables),
        "wmc.max_clauses": len(args[0].clauses),
    }


REASONING_COUNTS = (
    "graph.nodes_created", "graph.nodes_live", "derivations.entries_stored",
    "derivations.or_entries", "reasoner.rounds",
)
# span name -> (counts it yields, reader of the call's arguments and result)
OBSERVE: Dict[str, Tuple[Tuple[str, ...], Callable]] = {
    "reasoner.run_pr": (REASONING_COUNTS, _reasoning),
    "reasoner.run_pcor": (REASONING_COUNTS, _reasoning),
    "derivations.instantiate_node": (
        ("derivations.substitutions", "derivations.entries_allocated"),
        _instantiation,
    ),
    "lineage.collect_lineage": (("lineage.answers", "lineage.clauses"), _lineage),
    "wmc.probability": (("wmc.max_vars", "wmc.max_clauses"), _wmc),
}
MAXED = {"wmc.max_vars", "wmc.max_clauses"}

# per_layer metric -> unit
UNITS: Dict[str, str] = {
    "graph.grow_s": "s",
    "graph.nodes_created": "count",
    "graph.nodes_live": "count",
    "graph.live_ratio": "ratio",
    "derivations.instantiate_s": "s",
    "derivations.instantiate_calls": "count",
    "derivations.substitutions": "count",
    "derivations.entries_allocated": "count",
    "derivations.entries_stored": "count",
    "derivations.stored_ratio": "ratio",
    "derivations.redundancy_s": "s",
    "derivations.redundancy_calls": "count",
    "derivations.or_entries": "count",
    "reasoner.reason_s": "s",
    "reasoner.self_s": "s",
    "reasoner.rounds": "count",
    "lineage.collect_s": "s",
    "lineage.or_calls": "count",
    "lineage.answers": "count",
    "lineage.clauses": "count",
    "wmc.probability_s": "s",
    "wmc.calls": "count",
    "wmc.max_vars": "count",
    "wmc.max_clauses": "count",
    "parser.parse_s": "s",
    "model.normalize_s": "s",
    "cli.self_s": "s",
}


class Tracer:
    """Installs the wrappers around one traced pass at a time.

    Span columns live in flat arrays; a run traces hundreds of thousands
    of calls, which as tuples would cost over a hundred bytes each."""

    def __init__(self) -> None:
        self.names = list(SPANS)
        self.name = array("b")  # index into self.names
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")  # span index, -1 for a pass's root span
        self.pass_id = array("q")
        self.missing: set = set()  # span names that could not be wrapped
        self.counts: Dict[int, Counts] = {}  # pass id -> counts
        self._ranges: Dict[int, range] = {}  # pass id -> its span indices
        self._unreadable: set = set()  # counts whose source changed shape
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._pass = -1
        self._first = 0

    def install(self, pass_id: int) -> None:
        self._pass, self._first = pass_id, len(self.name)
        counts = self.counts.setdefault(pass_id, {})
        for name, (module, attr) in SPANS.items():
            self._patch(name, importlib.import_module(module), attr,
                        lambda n, fn: self._span(n, fn, pass_id, counts))
        name, module, cls, attr = OR_CALLS
        counts[name] = 0
        owner = getattr(importlib.import_module(module), cls, None)
        self._patch(name, owner, attr, lambda n, fn: _counted(n, fn, counts))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()
        self._ranges[self._pass] = range(self._first, len(self.name))

    def _patch(self, name: str, owner, attr: str, wrap) -> None:
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            self.missing.add(name)
            return
        self._patches.append((owner, attr, fn))
        setattr(owner, attr, wrap(name, fn))

    def _span(self, name: str, fn: Callable, pass_id: int, counts: Counts) -> Callable:
        code = self.names.index(name)
        names, starts, ends, parents, passes = (
            self.name, self.start, self.end, self.parent, self.pass_id
        )
        stack, unreadable = self._stack, self._unreadable
        yields, observe = OBSERVE.get(name, ((), None))

        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(code)
            parents.append(stack[-1] if stack else -1)
            passes.append(pass_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if observe is not None:
                try:
                    seen = observe(args, out)
                except (AttributeError, TypeError, KeyError, IndexError):
                    unreadable.update(yields)
                else:
                    for k, v in seen.items():
                        old = counts.get(k, 0)
                        counts[k] = max(old, v) if k in MAXED else old + v
            return out

        return wrapper

    def pass_metrics(self, pass_id: int) -> Dict[str, float]:
        """Per-layer metrics of one traced pass; missing ones left out."""
        spans = self._ranges[pass_id]
        covered: Dict[int, float] = {}
        total: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        for i in spans:
            name, dt, parent = self.names[self.name[i]], self.end[i] - self.start[i], self.parent[i]
            total[name] = total.get(name, 0.0) + dt
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                covered[parent] = covered.get(parent, 0.0) + dt

        def self_time(names) -> float:
            return sum(self.end[i] - self.start[i] - covered.get(i, 0.0)
                       for i in spans if self.names[self.name[i]] in names)

        m: Dict[str, float] = {}

        def timed(metric: str, names, value) -> None:
            if not all(n in self.missing for n in names):
                m[metric] = value

        for metric, names in (
            ("graph.grow_s", ("graph.inductive_step",)),
            ("derivations.instantiate_s", ("derivations.instantiate_node",)),
            ("derivations.redundancy_s", REDUNDANCY),
            ("reasoner.reason_s", REASON),
            ("lineage.collect_s", ("lineage.collect_lineage",)),
            ("wmc.probability_s", ("wmc.probability",)),
            ("parser.parse_s", ("parser.parse_program",)),
            ("model.normalize_s", ("model.normalize",)),
        ):
            timed(metric, names, sum(total.get(n, 0.0) for n in names))
        for metric, names in (
            ("derivations.instantiate_calls", ("derivations.instantiate_node",)),
            ("derivations.redundancy_calls", REDUNDANCY),
            ("wmc.calls", ("wmc.probability",)),
        ):
            timed(metric, names, sum(calls.get(n, 0) for n in names))
        timed("reasoner.self_s", REASON, self_time(REASON))
        timed("cli.self_s", ("cli.main",), self_time(("cli.main",)))

        counts = self.counts.get(pass_id, {})
        for metric, value in counts.items():
            if metric in UNITS and metric not in self._unreadable:
                m[metric] = value
        if OR_CALLS[0] in counts and OR_CALLS[0] not in self.missing:
            m["lineage.or_calls"] = counts[OR_CALLS[0]]
        if "graph.nodes_live" in m and m.get("graph.nodes_created"):
            m["graph.live_ratio"] = m["graph.nodes_live"] / m["graph.nodes_created"]
        if "derivations.entries_stored" in m and m.get("derivations.entries_allocated"):
            m["derivations.stored_ratio"] = (
                m["derivations.entries_stored"] / m["derivations.entries_allocated"]
            )
        return m

    def write(self, path: str) -> None:
        """All spans as tab-separated rows, one per wrapped call."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tpass\tname\tstart\tend\n")
            for i, code in enumerate(self.name):
                fh.write(f"{i}\t{self.parent[i]}\t{self.pass_id[i]}\t{self.names[code]}"
                         f"\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n")


def _counted(name: str, fn: Callable, counts: Counts) -> Callable:
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper

"""Command-line front end.

Subcommands: `run` (graph-based reasoning), `oracle` (reference fixpoint
engine), `gen` (benchmark program generators), `compare` (cross-engine
probability check).  Reports are emitted as JSON or text; errors are always
machine-readable JSON on stdout.

Exit codes: 0 ok, 1 parse/input error, 2 resource limit, 3 wmc budget,
4 compare mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional

from .lineage import (
    FALSE,
    Answer,
    Dnf,
    IncompleteReasoningError,
    LineageTooLargeError,
    UnknownPredicateError,
    collect_lineage,
    round_bound_snapshot,
)
from .model import Atom, Program, match_atom, normalize
from .parser import ParseError, parse_atom, parse_program
from .reasoner import CollapseMode, ReasonerOptions, run_pcor, run_pr
from .tcp import TcpRoundLimitError, tcp_fixpoint, tcp_initial, tcp_step
from .generate import chain_program, powerlaw_program
from .wmc import (
    TooManyVariablesError,
    WmcBudgetError,
    brute_force_probability,
    probability,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_RESOURCE = 2
EXIT_WMC = 3
EXIT_MISMATCH = 4

COMPARE_TOLERANCE = 1e-9


class CliError(Exception):
    def __init__(self, kind: str, message: str, code: int, extra: Optional[dict] = None):
        super().__init__(message)
        self.kind = kind
        self.message = message
        self.code = code
        self.extra = extra or {}


def _load_program(path: str) -> Program:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise CliError("io", f"cannot read {path}: {e}", EXIT_PARSE)
    try:
        return parse_program(text)
    except ParseError as e:
        raise CliError("parse", f"{path}: {e}", EXIT_PARSE)


def _resolve_queries(prog: Program, query_arg: Optional[str]) -> List[Atom]:
    if query_arg:
        try:
            return [parse_atom(query_arg)]
        except ParseError as e:
            raise CliError("parse", f"bad query atom: {e}", EXIT_PARSE)
    if prog.queries:
        return list(prog.queries)
    raise CliError(
        "parse", "no --query given and the program declares no query(...)", EXIT_PARSE
    )


def _prob_fn(solver: str):
    return probability if solver == "exact" else brute_force_probability


def _compute_probability(dnf: Dnf, weights, solver: str) -> float:
    try:
        return _prob_fn(solver)(dnf, weights)
    except (WmcBudgetError, TooManyVariablesError) as e:
        raise CliError("wmc", str(e), EXIT_WMC)
    except RecursionError as e:
        raise CliError("wmc", f"lineage too deep for the solver: {e}", EXIT_WMC)


def _reason(prog: Program, args) -> tuple:
    try:
        opts = ReasonerOptions(
            collapse=CollapseMode(args.collapse),
            threshold=args.threshold,
            max_depth=args.max_depth,
            max_entries=args.max_entries,
        )
    except ValueError as e:
        raise CliError("usage", str(e), EXIT_PARSE)
    engine = "pr" if opts.collapse is CollapseMode.OFF else "pcor"
    runner = run_pr if engine == "pr" else run_pcor
    t0 = time.perf_counter()
    try:
        result = runner(prog, opts)
    except RecursionError as e:
        raise CliError("resource", f"derivations too deep for reasoning: {e}", EXIT_RESOURCE)
    reason_ms = (time.perf_counter() - t0) * 1000.0
    return engine, result, reason_ms


def _reasoner_stats(result, reason_ms: float, lineage_ms: float, prob_ms: float) -> dict:
    return {
        "rounds": result.stats.rounds_executed,
        "nodes": sum(1 for _ in result.graph.live_nodes()),
        "entries": result.stats.total("entries_stored"),
        "or_entries": result.stats.total("or_entries"),
        "instantiations": result.stats.total("instantiations"),
        "time_ms": {
            "reason": reason_ms,
            "lineage": lineage_ms,
            "prob": prob_ms,
        },
    }


def _collect_answers(result, prog: Program, queries: List[Atom]) -> List[Answer]:
    answers: Dict[Atom, Answer] = {}
    try:
        for q in queries:
            for ans in collect_lineage(result, prog, q):
                answers.setdefault(ans.fact, ans)
    except (LineageTooLargeError, IncompleteReasoningError) as e:
        raise CliError("resource", str(e), EXIT_RESOURCE)
    except RecursionError as e:
        raise CliError("resource", f"derivations too deep for lineage: {e}", EXIT_RESOURCE)
    except UnknownPredicateError as e:
        raise CliError("parse", str(e), EXIT_PARSE)
    return sorted(answers.values(), key=lambda a: a.fact.sort_key())


def cmd_run(args) -> tuple:
    prog = normalize(_load_program(args.program))
    queries = _resolve_queries(prog, args.query)
    engine, result, reason_ms = _reason(prog, args)
    if args.dump_graph:
        print(result.graph.dump(), file=sys.stderr)
    if result.truncated:
        raise CliError(
            "resource",
            f"reasoning truncated by resource limit ({result.stop_reason})",
            EXIT_RESOURCE,
            extra={"stats": _reasoner_stats(result, reason_ms, 0.0, 0.0)},
        )

    t0 = time.perf_counter()
    answers = _collect_answers(result, prog, queries)
    lineage_ms = (time.perf_counter() - t0) * 1000.0

    fact_var = {f.fact: f.var for f in prog.facts}
    bounds: Dict[Atom, List[float]] = {}
    if args.bounds:
        memo: dict = {}
        snaps = [
            round_bound_snapshot(result, k, memo)
            for k in range(1, result.rounds + 1)
        ]
        for ans in answers:
            seq = []
            for snap in snaps:
                dnf = snap.get(ans.fact, FALSE)
                if ans.fact in fact_var:
                    dnf = dnf | Dnf.single(fact_var[ans.fact])
                seq.append(_compute_probability(dnf, prog.weights, args.solver))
            bounds[ans.fact] = seq

    t0 = time.perf_counter()
    answers = [
        Answer(a.fact, a.lineage, _compute_probability(a.lineage, prog.weights, args.solver))
        for a in answers
    ]
    prob_ms = (time.perf_counter() - t0) * 1000.0

    payload = {
        "engine": engine,
        "answers": [
            _answer_json(a, prog, bounds.get(a.fact)) for a in answers
        ],
        "stats": _reasoner_stats(result, reason_ms, lineage_ms, prob_ms),
        "truncated": result.truncated,
    }
    return payload, EXIT_OK


def _answer_json(ans: Answer, prog: Program, bounds: Optional[List[float]]) -> dict:
    out = {
        "fact": str(ans.fact),
        "probability": ans.probability,
        "lineage": ans.lineage.to_json(prog.var_names),
    }
    if bounds is not None:
        out["bounds"] = bounds
    return out


def cmd_oracle(args) -> tuple:
    prog = normalize(_load_program(args.program))
    queries = _resolve_queries(prog, args.query)
    mode = "naive" if args.engine == "tcp" else "delta"
    max_rounds = args.max_depth or 64

    t0 = time.perf_counter()
    history = []
    inst = tcp_initial(prog)
    try:
        for _ in range(max_rounds):
            inst = tcp_step(inst, prog, mode)
            history.append(inst)
            if not inst.updated:
                break
        else:
            raise TcpRoundLimitError(f"no fixpoint within {max_rounds} rounds")
    except TcpRoundLimitError as e:
        raise CliError("resource", str(e), EXIT_RESOURCE)
    reason_ms = (time.perf_counter() - t0) * 1000.0

    instances = sorted(
        (
            a
            for a in inst.formulas
            if any(match_atom(q, a, {}) is not None for q in queries)
        ),
        key=Atom.sort_key,
    )
    t0 = time.perf_counter()
    answers = []
    bound_seqs: Dict[Atom, List[float]] = {}
    for a in instances:
        p = _compute_probability(inst.formulas[a], prog.weights, args.solver)
        answers.append(Answer(a, inst.formulas[a], p))
        if args.bounds:
            bound_seqs[a] = [
                _compute_probability(h.formulas.get(a, FALSE), prog.weights, args.solver)
                for h in history
            ]
    prob_ms = (time.perf_counter() - t0) * 1000.0

    payload = {
        "engine": args.engine,
        "answers": [
            _answer_json(a, prog, bound_seqs.get(a.fact)) for a in answers
        ],
        "stats": {
            "rounds": inst.round,
            "nodes": 0,
            "entries": 0,
            "or_entries": 0,
            "instantiations": inst.instantiations,
            "time_ms": {"reason": reason_ms, "lineage": 0.0, "prob": prob_ms},
        },
        "truncated": False,
    }
    return payload, EXIT_OK


def cmd_gen(args) -> tuple:
    try:
        if args.kind == "powerlaw":
            text = powerlaw_program(args.nodes, args.seed)
        else:
            text = chain_program(args.nodes, args.seed)
    except ValueError as e:
        raise CliError("usage", str(e), EXIT_PARSE)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        return None, EXIT_OK
    return text, EXIT_OK


def cmd_compare(args) -> tuple:
    prog = normalize(_load_program(args.program))
    queries = _resolve_queries(prog, args.query)
    times: Dict[str, float] = {}
    probs: Dict[str, Dict[str, float]] = {}

    for engine in ("pr", "pcor", "tcp"):
        t0 = time.perf_counter()
        if engine == "tcp":
            try:
                inst = tcp_fixpoint(prog, "naive", max_rounds=args.max_depth or 64)
            except TcpRoundLimitError as e:
                raise CliError("resource", str(e), EXIT_RESOURCE)
            answers = [
                Answer(a, inst.formulas[a])
                for a in sorted(inst.formulas, key=Atom.sort_key)
                if any(match_atom(q, a, {}) is not None for q in queries)
            ]
        else:
            try:
                opts = ReasonerOptions(
                    collapse=CollapseMode.OFF if engine == "pr" else CollapseMode.ON,
                    threshold=args.threshold,
                    max_depth=args.max_depth,
                    max_entries=args.max_entries,
                )
            except ValueError as e:
                raise CliError("usage", str(e), EXIT_PARSE)
            runner = run_pr if engine == "pr" else run_pcor
            result = runner(prog, opts)
            if result.truncated:
                raise CliError(
                    "resource", f"{engine}: reasoning truncated", EXIT_RESOURCE
                )
            answers = _collect_answers(result, prog, queries)
        probs[engine] = {
            str(a.fact): _compute_probability(a.lineage, prog.weights, args.solver)
            for a in answers
        }
        times[engine] = (time.perf_counter() - t0) * 1000.0

    all_facts = sorted(set().union(*[set(p) for p in probs.values()]))
    rows = []
    max_delta = 0.0
    mismatch = False
    for fact in all_facts:
        values = {}
        for engine in ("pr", "pcor", "tcp"):
            if fact not in probs[engine]:
                mismatch = True
                values[engine] = None
            else:
                values[engine] = probs[engine][fact]
        present = [v for v in values.values() if v is not None]
        delta = max(present) - min(present) if present else 0.0
        max_delta = max(max_delta, delta)
        rows.append({"fact": fact, **values, "delta": delta})
    if max_delta > COMPARE_TOLERANCE:
        mismatch = True

    payload = {
        "engine": "compare",
        "answers": rows,
        "max_delta": max_delta,
        "mismatch": mismatch,
        "time_ms": times,
    }
    return payload, EXIT_MISMATCH if mismatch else EXIT_OK


# ---------------------------------------------------------------------------
# Output rendering
# ---------------------------------------------------------------------------

def _render_text(payload: dict, args) -> str:
    lines = [f"engine: {payload['engine']}"]
    if payload["engine"] == "compare":
        for row in payload["answers"]:
            cells = [row["fact"]] + [
                "-" if row[e] is None else f"{row[e]:.12g}" for e in ("pr", "pcor", "tcp")
            ]
            lines.append("\t".join(cells))
        lines.append(f"max_delta: {payload['max_delta']:.3e}")
        lines.append(f"mismatch: {payload['mismatch']}")
        return "\n".join(lines)
    for ans in payload["answers"]:
        clause_text = " | ".join(
            "&".join(c) if c else "true" for c in ans["lineage"]
        ) or "false"
        row = f"{ans['fact']}\t{ans['probability']:.12g}\t{clause_text}"
        lines.append(row)
        if "bounds" in ans:
            seq = ", ".join(f"{b:.12g}" for b in ans["bounds"])
            lines.append(f"  bounds: [{seq}]")
    if getattr(args, "stats", False):
        lines.append(f"stats: {json.dumps(payload['stats'], sort_keys=True)}")
        lines.append(f"truncated: {payload['truncated']}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probdatalog",
        description="Exact probabilistic Datalog reasoning over tuple-independent facts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--program", required=True, help="program file")
        p.add_argument("--query", help="query atom, e.g. 'p(a,X)'")
        p.add_argument("--collapse", choices=["auto", "on", "off"], default="auto")
        p.add_argument("--threshold", type=int, default=10)
        p.add_argument("--max-depth", type=int, default=None)
        p.add_argument("--max-entries", type=int, default=None)
        p.add_argument("--solver", choices=["exact", "bruteforce"], default="exact")
        p.add_argument("--bounds", action="store_true", help="per-round probability bounds")
        p.add_argument("--stats", action="store_true")
        p.add_argument("--output", choices=["json", "text"], default="text")

    p_run = sub.add_parser("run", help="reason with the graph-based engine")
    common(p_run)
    p_run.add_argument("--dump-graph", action="store_true", help="debug: adjacency list on stderr")
    p_run.set_defaults(func=cmd_run)

    p_oracle = sub.add_parser("oracle", help="reason with the reference fixpoint engine")
    common(p_oracle)
    p_oracle.add_argument("--engine", choices=["tcp", "delta-tcp"], default="tcp")
    p_oracle.set_defaults(func=cmd_oracle)

    p_gen = sub.add_parser("gen", help="generate a benchmark program")
    p_gen.add_argument("--kind", choices=["powerlaw", "chain"], required=True)
    p_gen.add_argument("--nodes", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", help="output path (default stdout)")
    p_gen.set_defaults(func=cmd_gen)

    p_cmp = sub.add_parser("compare", help="run pr, pcor, and tcp; check probability deltas")
    common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, code = args.func(args)
    except CliError as e:
        report = {"error": {"type": e.kind, "message": e.message}}
        report.update(e.extra)
        print(json.dumps(report))
        return e.code
    if payload is None:
        return code
    if isinstance(payload, str):
        sys.stdout.write(payload)
        return code
    if args.output == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(_render_text(payload, args))
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

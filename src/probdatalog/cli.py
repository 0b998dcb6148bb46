"""Command-line front end.

Subcommands: `run` (graph-based reasoning), `oracle` (reference fixpoint
engine), `gen` (benchmark program generators), `compare` (cross-engine
probability and lineage check).  `run`, `oracle` and `compare` share one
answer pipeline, `_answers`: reason with one engine, read once the (round,
lineage) changes of the atoms that match a query (`collect_lineage`, or
`round_bounds` for bounds; the reference engine records them), take each
atom's last change as its answer, and solve the answers and bounds.  Each
subcommand accepts only the flags it reads.  Reports are emitted as JSON or
text; errors, argument errors included, are always machine-readable JSON on
stdout, and a query on a predicate the program does not mention is an input
error for every engine.

Exit codes: 0 ok, 1 parse/input error, 2 resource limit, 3 wmc budget,
4 compare mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time
from typing import Dict, List, Optional

from .lineage import (
    FALSE,
    Dnf,
    LineageTooLargeError,
    Matcher,
    QueryArityError,
    UnknownPredicateError,
    answers_of,
    check_query,
    collect_lineage,
    round_bounds,
)
from .model import Atom, Program, normalize
from .parser import ParseError, parse_atom, parse_program
from .reasoner import CollapseMode, ReasonerOptions, run_pcor, run_pr
from .tcp import TcpRoundLimitError, tcp_fixpoint
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

TCP_MODES = {"tcp": "naive", "delta-tcp": "delta"}


class CliError(Exception):
    def __init__(self, kind: str, message: str, code: int, extra: Optional[dict] = None):
        super().__init__(message)
        self.kind = kind
        self.message = message
        self.code = code
        self.extra = extra or {}


def _load(args) -> tuple:
    """The normalized program and the query atoms to answer."""
    try:
        with open(args.program, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise CliError("io", f"cannot read {args.program}: {e}", EXIT_PARSE)
    try:
        prog = normalize(parse_program(text))
    except ParseError as e:
        raise CliError("parse", f"{args.program}: {e}", EXIT_PARSE)
    return prog, _resolve_queries(prog, args.query)


def _resolve_queries(prog: Program, query_arg: Optional[str]) -> List[Atom]:
    if query_arg:
        try:
            queries = [parse_atom(query_arg)]
        except ParseError as e:
            raise CliError("parse", f"bad query atom: {e}", EXIT_PARSE)
    elif prog.queries:
        queries = list(prog.queries)
    else:
        raise CliError(
            "parse", "no --query given and the program declares no query(...)", EXIT_PARSE
        )
    try:
        for query in queries:
            check_query(prog, query)
    except (UnknownPredicateError, QueryArityError) as e:
        raise CliError("parse", str(e), EXIT_PARSE)
    return queries


def _ms(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0


def _compute_probability(dnf: Dnf, weights, solver: str) -> float:
    prob_fn = probability if solver == "exact" else brute_force_probability
    try:
        return prob_fn(dnf, weights)
    except (WmcBudgetError, TooManyVariablesError) as e:
        raise CliError("wmc", str(e), EXIT_WMC)


def _options(args, collapse: str) -> ReasonerOptions:
    """The limit flags as reasoner options, whose checks hold for every
    engine.  Limits a subcommand has no flag for keep their defaults."""
    limits = {
        name: getattr(args, name)
        for name in ("threshold", "max_depth", "max_entries")
        if hasattr(args, name)
    }
    try:
        return ReasonerOptions(collapse=CollapseMode(collapse), **limits)
    except ValueError as e:
        raise CliError("usage", str(e), EXIT_PARSE)


def _answers(
    engine: str, prog: Program, queries: List[Atom], args, collapse: str = "off"
) -> dict:
    """The report of `queries` answered by one engine: `pr` or `pcor` (the
    graph reasoner, pcor collapsing as `collapse` says) or the reference
    engine `tcp` or `delta-tcp`.  Each answer has its probability, and its
    per-round bounds when `args.bounds` asks for them."""
    want_bounds = getattr(args, "bounds", False)
    opts = _options(args, collapse)
    t0 = time.perf_counter()
    if engine in TCP_MODES:
        try:
            inst = tcp_fixpoint(prog, TCP_MODES[engine], opts.max_depth)
        except (TcpRoundLimitError, LineageTooLargeError) as e:
            raise CliError("resource", str(e), EXIT_RESOURCE)
        reason_ms = _ms(t0)
        stats = {"rounds": inst.round, "nodes": 0, "entries": 0, "or_entries": 0,
                 "instantiations": inst.instantiations}
        rounds = max(inst.round - 1, 1)  # the last changed nothing
    else:
        try:
            result = (run_pr if engine == "pr" else run_pcor)(prog, opts)
        except RecursionError as e:
            raise CliError("resource", f"derivations too deep for reasoning: {e}", EXIT_RESOURCE)
        reason_ms = _ms(t0)
        stats = {
            "rounds": result.stats.rounds_executed,
            "nodes": sum(1 for _ in result.graph.live_nodes()),
            "entries": result.stats.total("entries_stored"),
            "or_entries": result.stats.total("or_entries"),
            "instantiations": result.stats.total("instantiations"),
        }
        if getattr(args, "dump_graph", False):
            print(result.graph.dump(), file=sys.stderr)
        if result.truncated:
            stats["time_ms"] = {"reason": reason_ms, "lineage": 0.0, "prob": 0.0}
            message = f"reasoning truncated by resource limit ({result.stop_reason})"
            raise CliError("resource", message, EXIT_RESOURCE, extra={"stats": stats})
        # At depth 0 round 1 stored nothing, but the facts hold on into it,
        # so every answer gets a bound, as from the reference engine.
        rounds = max(result.rounds, 1)

    # One read of the changes of the atoms that match a query; an answer is
    # its atom's last change.
    t0 = time.perf_counter()
    try:
        if engine in TCP_MODES:
            matches = Matcher(queries)
            changes = {a: c for a, c in inst.changes.items() if matches[a]}
        elif want_bounds:
            changes = round_bounds(result, queries)
        else:  # every store read as one group: each answer its atom's one change
            changes, answers = {}, collect_lineage(result, prog, *queries)
    except LineageTooLargeError as e:
        raise CliError("resource", str(e), EXIT_RESOURCE)
    except RecursionError as e:
        raise CliError("resource", f"derivations too deep for lineage: {e}", EXIT_RESOURCE)
    if engine in TCP_MODES or want_bounds:
        answers = answers_of(changes)
    lineage_ms = _ms(t0)

    t0 = time.perf_counter()
    solved: Dict[Dnf, float] = {}  # this call's solves, one per distinct lineage

    def prob(dnf: Dnf) -> float:
        if dnf not in solved:
            solved[dnf] = _compute_probability(dnf, prog.weights, args.solver)
        return solved[dnf]

    def per_round(fact: Atom) -> List[float]:
        # Rounds 1 to `rounds`: a lineage holds until the next change, FALSE
        # until the first, and it is solved once, if some round shows it.
        out: List[float] = []
        lineage = FALSE
        for k, change in [*changes[fact], (rounds + 1, None)]:
            if k - 1 > len(out):
                out += [prob(lineage)] * (k - 1 - len(out))
            lineage = change
        return out

    bounds = {a.fact: per_round(a.fact) for a in answers if want_bounds}
    rows = [{"fact": str(a.fact), "probability": prob(a.lineage)} for a in answers]
    stats["time_ms"] = {"reason": reason_ms, "lineage": lineage_ms, "prob": _ms(t0)}
    for row, a in zip(rows, answers):
        row["lineage"] = a.lineage.to_json(prog.var_names)
        if want_bounds:
            row["bounds"] = bounds[a.fact]
    return {"engine": engine, "answers": rows, "stats": stats, "truncated": False}


def cmd_run(args) -> tuple:
    prog, queries = _load(args)
    engine = "pr" if args.collapse == "off" else "pcor"
    return _answers(engine, prog, queries, args, args.collapse), EXIT_OK


def cmd_oracle(args) -> tuple:
    prog, queries = _load(args)
    return _answers(args.engine, prog, queries, args), EXIT_OK


def cmd_gen(args) -> tuple:
    try:
        if args.kind == "powerlaw":
            text = powerlaw_program(args.nodes, args.seed)
        else:
            text = chain_program(args.nodes, args.seed)
    except ValueError as e:
        raise CliError("usage", str(e), EXIT_PARSE)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise CliError("io", f"cannot write {args.out}: {e}", EXIT_PARSE)
        return None, EXIT_OK
    return text, EXIT_OK


def cmd_compare(args) -> tuple:
    prog, queries = _load(args)
    times: Dict[str, float] = {}
    found: Dict[str, Dict[str, dict]] = {}  # each engine's answer row per fact
    for engine, collapse in (("pr", "off"), ("pcor", "on"), ("tcp", "off")):
        t0 = time.perf_counter()
        rows = _answers(engine, prog, queries, args, collapse)["answers"]
        found[engine] = {row["fact"]: row for row in rows}
        times[engine] = _ms(t0)

    rows, lineage_mismatch = [], []
    for fact in sorted(set().union(*found.values())):
        values = {e: a[fact]["probability"] if fact in a else None for e, a in found.items()}
        present = [v for v in values.values() if v is not None]
        rows.append({"fact": fact, **values, "delta": max(present) - min(present)})
        # Absorption-normalized DNFs are canonical, so equal lineage is an
        # exact check, with no solver and no tolerance.
        lineages = [a[fact]["lineage"] for a in found.values() if fact in a]
        if any(lineage != lineages[0] for lineage in lineages):
            lineage_mismatch.append(fact)
    max_delta = max((row["delta"] for row in rows), default=0.0)
    # An engine that misses an answer has fewer facts than the union.
    mismatch = max_delta > COMPARE_TOLERANCE or bool(lineage_mismatch) or any(
        len(a) < len(rows) for a in found.values()
    )
    payload = {
        "engine": "compare",
        "answers": rows,
        "max_delta": max_delta,
        "lineage_mismatch": lineage_mismatch,
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
        if payload["lineage_mismatch"]:
            lines.append(f"lineage_mismatch: {', '.join(payload['lineage_mismatch'])}")
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
    if args.stats:
        lines.append(f"stats: {json.dumps(payload['stats'], sort_keys=True)}")
        lines.append(f"truncated: {payload['truncated']}")
    return "\n".join(lines)


# The flags of the answering subcommands; each lists the ones it reads.
FLAGS = {
    "--program": dict(required=True, help="program file"),
    "--query": dict(help="query atom, e.g. 'p(a,X)'"),
    "--collapse": dict(choices=["auto", "on", "off"], default="auto"),
    "--threshold": dict(type=int, default=10),
    "--max-depth": dict(type=int, default=None),
    "--max-entries": dict(type=int, default=None),
    "--solver": dict(choices=["exact", "bruteforce"], default="exact"),
    "--bounds": dict(action="store_true", help="per-round probability bounds"),
    "--stats": dict(action="store_true"),
    "--output": dict(choices=["json", "text"], default="text"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # JSON, like every other failure, not exit 2
        raise CliError("usage", f"{self.prog}: {message}", EXIT_PARSE)


@functools.cache  # one parser per process, built by the first `main` call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="probdatalog",
        description="Exact probabilistic Datalog reasoning over tuple-independent facts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, func, summary, flags):
        p = sub.add_parser(name, help=summary)
        for flag in flags.split():
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(func=func)
        return p

    p_run = subcommand(
        "run", cmd_run, "reason with the graph-based engine",
        "--program --query --collapse --threshold --max-depth --max-entries"
        " --solver --bounds --stats --output",
    )
    p_run.add_argument("--dump-graph", action="store_true", help="debug: adjacency list on stderr")

    p_oracle = subcommand(
        "oracle", cmd_oracle, "reason with the reference fixpoint engine",
        "--program --query --max-depth --solver --bounds --stats --output",
    )
    p_oracle.add_argument("--engine", choices=list(TCP_MODES), default="tcp")

    p_gen = sub.add_parser("gen", help="generate a benchmark program")
    p_gen.add_argument("--kind", choices=["powerlaw", "chain"], required=True)
    p_gen.add_argument("--nodes", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", help="output path (default stdout)")
    p_gen.set_defaults(func=cmd_gen)

    subcommand(
        "compare", cmd_compare, "run pr, pcor, and tcp; check probability deltas and lineage",
        "--program --query --max-depth --max-entries --solver --output",
    )
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        try:
            payload, code = args.func(args)
        except MemoryError:  # what the failed run held is free once unwound
            raise CliError("resource", "out of memory", EXIT_RESOURCE) from None
    except CliError as e:
        text = json.dumps({"error": {"type": e.kind, "message": e.message}, **e.extra}) + "\n"
        code = e.code
    else:
        if payload is None or isinstance(payload, str):
            text = payload or ""
        elif args.output == "json":
            text = json.dumps(payload, sort_keys=True) + "\n"
        else:
            text = _render_text(payload, args) + "\n"
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout, as `| head` does: an io error.  Python
        # flushes stdout again at exit, so its descriptor, if it has one (an
        # in-process stream may not), is pointed at devnull first.
        with contextlib.suppress(AttributeError, OSError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PARSE
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

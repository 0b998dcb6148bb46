import errno
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from conftest import RUNNING_EXAMPLE, collapse_example, reason, snapshots
from corpus import random_program_text
from oracles import exact_probability, explanation_map, path_probability
from probdatalog import (
    FALSE,
    Dnf,
    ReasonerOptions,
    chain_program,
    cli,
    collect_lineage,
    lineage,
    normalize,
    parse_atom,
    parse_program,
    probability,
    round_bounds,
    run_pcor,
    run_pr,
    tcp_fixpoint,
)
from test_wmc import reliability_text


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--output", "json")
    return code, json.loads(out)


@pytest.fixture
def running_file(tmp_path):
    path = tmp_path / "reach.pl"
    path.write_text(RUNNING_EXAMPLE)
    return str(path)


@pytest.fixture
def collapse_file(tmp_path):
    path = tmp_path / "collapse.pl"
    path.write_text(collapse_example(1000))
    return str(path)


# Cycles through a, b and c: `p(X,X)` asks for the nodes on one.
REPEATED_VARIABLE = (
    "0.5::e(a,b).\n0.6::e(b,a).\n0.7::e(b,c).\n0.8::e(c,c).\n"
    "p(X,Y) :- e(X,Y).\np(X,Y) :- p(X,Z), e(Z,Y).\n"
)


class TestRepeatedQueryVariable:
    """A query variable that occurs twice binds both positions to one
    constant, on every engine."""

    @pytest.fixture
    def expected(self):
        # brute force: every subset of the facts and its least model
        prog = normalize(parse_program(REPEATED_VARIABLE))
        probs = {
            f"p({x},{y})": float(exact_probability(dnf.clauses, prog.weights))
            for (pred, (x, y)), dnf in explanation_map(prog).items()
            if pred == "p" and x == y
        }
        assert sorted(probs) == ["p(a,a)", "p(b,b)", "p(c,c)"]
        return probs

    @pytest.fixture
    def program_file(self, tmp_path):
        path = tmp_path / "cycles.pl"
        path.write_text(REPEATED_VARIABLE)
        return str(path)

    def test_collect_lineage(self, expected):
        prog = normalize(parse_program(REPEATED_VARIABLE))
        answers = collect_lineage(reason(prog), prog, parse_atom("p(X,X)"))
        assert [str(a.fact) for a in answers] == sorted(expected)
        for a in answers:
            p = probability(a.lineage, prog.weights)
            assert p == pytest.approx(expected[str(a.fact)], abs=1e-12)

    @pytest.mark.parametrize(
        "command",
        [("run",), ("oracle", "--engine", "tcp"), ("oracle", "--engine", "delta-tcp")],
        ids=["run", "tcp", "delta-tcp"],
    )
    def test_run_and_oracle(self, capsys, expected, program_file, command):
        code, report = run_json(capsys, *command, "--program", program_file, "--query", "p(X,X)")
        assert code == 0
        assert [a["fact"] for a in report["answers"]] == sorted(expected)
        for a in report["answers"]:
            assert a["probability"] == pytest.approx(expected[a["fact"]], abs=1e-12)

    def test_compare(self, capsys, expected, program_file):
        code, report = run_json(capsys, "compare", "--program", program_file, "--query", "p(X,X)")
        assert code == 0
        assert [row["fact"] for row in report["answers"]] == sorted(expected)
        for row in report["answers"]:
            assert [row[e] for e in ("pr", "pcor", "tcp")] == pytest.approx(
                [expected[row["fact"]]] * 3, abs=1e-12
            )


# A random program on which the graph engine joined every derivation of
# r(X,Y,W) with itself, until normalize dropped the repeated body atom.
REPEATED_BODY_ATOM = (
    "0.826::e(a,a).\n0.623::e(a,b).\n0.591::e(b,a).\n0.843::e(b,b).\n"
    "0.891::e(c,b).\n0.385::e(c,c).\n0.809::f(a).\n0.196::f(b).\n0.528::f(c).\n"
    "0.777::g(a,a,c).\n0.783::g(a,b,b).\n0.384::g(b,a,c).\n0.619::g(b,b,a).\n"
    "0.252::g(b,b,b).\n0.228::g(b,c,b).\n0.411::g(c,a,b).\n0.258::g(c,c,c).\n"
    "p(W,W) :- f(W).\nq(X) :- f(X).\nr(Z,X,X) :- g(b,Z,X).\nz :- e(Z,Y), f(Y).\n"
    "0.62::r(b,X,a) :- r(X,a,a), e(Y,X).\nr(W,X,Y) :- r(X,Y,W), r(X,Y,W), z.\n"
    "z :- e(Y,W), f(W), e(Y,Y).\n0.83::r(X,Y,Y) :- p(X,Y).\n"
    "query(p(X,Y)).\nquery(q(X)).\nquery(r(X,Y,Z)).\nquery(z).\n"
)


class TestRepeatedBodyAtom:
    # Over 3x the entries reasoning allocates (1,790 with collapse auto,
    # 26,468 off), so a regression fails within a second instead of hanging.
    @pytest.mark.parametrize("collapse, cap", [("auto", "20000"), ("off", "100000")])
    def test_run_equals_the_reference_engine(self, capsys, tmp_path, collapse, cap):
        path = tmp_path / "repeated.pl"
        path.write_text(REPEATED_BODY_ATOM)
        code, run = run_json(capsys, "run", "--program", str(path), "--collapse", collapse,
                             "--max-entries", cap, "--bounds")
        assert code == 0
        code, oracle = run_json(capsys, "oracle", "--program", str(path),
                                "--engine", "delta-tcp", "--bounds")
        assert code == 0
        assert len(run["answers"]) == 22
        assert run["answers"] == oracle["answers"]


# Two query directives that share the answer p(a,c).
OVERLAPPING_QUERIES = (
    "0.5::e(a,b).\n0.6::e(b,c).\n0.7::e(a,c).\n0.4::e(c,a).\n0.3::e(b,a).\n"
    "p(X,Y) :- e(X,Y).\np(X,Y) :- p(X,Z), e(Z,Y).\n"
    "query(p(a,X)).\nquery(p(X,c)).\n"
)


class TestOverlappingQueries:
    """An atom that matches two queries is one answer, on every engine, and
    the stores are read once for both queries."""

    @pytest.fixture
    def expected(self):
        # brute force: every subset of the facts and its least model
        prog = normalize(parse_program(OVERLAPPING_QUERIES))
        probs = {
            f"p({x},{y})": float(exact_probability(dnf.clauses, prog.weights))
            for (pred, (x, y)), dnf in explanation_map(prog).items()
            if pred == "p" and (x == "a" or y == "c")
        }
        assert sorted(probs) == ["p(a,a)", "p(a,b)", "p(a,c)", "p(b,c)", "p(c,c)"]
        return probs

    @pytest.fixture
    def program_file(self, tmp_path):
        path = tmp_path / "overlap.pl"
        path.write_text(OVERLAPPING_QUERIES)
        return str(path)

    def test_collect_lineage(self, expected):
        prog = normalize(parse_program(OVERLAPPING_QUERIES))
        answers = collect_lineage(reason(prog), prog, *prog.queries)
        assert [str(a.fact) for a in answers] == sorted(expected)

    @pytest.mark.parametrize("bounds", [(), ("--bounds",)], ids=["plain", "bounds"])
    def test_every_engine_gives_each_answer_once(self, capsys, expected, program_file, bounds):
        reports = [
            run_json(capsys, *command, "--program", program_file, *bounds)
            for command in [("run", "--collapse", c) for c in ("off", "on", "auto")]
            + [("oracle", "--engine", e) for e in ("tcp", "delta-tcp")]
        ]
        assert all(code == 0 for code, _ in reports)
        for _, report in reports:
            assert [a["fact"] for a in report["answers"]] == sorted(expected)
            for a in report["answers"]:
                assert a["probability"] == pytest.approx(expected[a["fact"]], abs=1e-12)
                if bounds:
                    assert a["bounds"][-1] == a["probability"]
        if bounds:  # one reference map per round, so both engines' bounds agree
            first = reports[0][1]["answers"]
            for _, report in reports[1:]:
                for a, b in zip(report["answers"], first):
                    assert a["bounds"] == pytest.approx(b["bounds"], abs=1e-12)

    def test_compare(self, capsys, expected, program_file):
        code, report = run_json(capsys, "compare", "--program", program_file)
        assert code == 0 and not report["mismatch"]
        assert [row["fact"] for row in report["answers"]] == sorted(expected)

    @pytest.mark.parametrize("text, bounds", [
        (chain_program(9, 0), ("--bounds",)),
        (OVERLAPPING_QUERIES, ()),
        (OVERLAPPING_QUERIES, ("--bounds",)),
    ], ids=["chain9-bounds", "overlap", "overlap-bounds"])
    def test_each_answer_entry_is_gathered_once(self, capsys, monkeypatch, tmp_path, text, bounds):
        # A work count: one read gives both the answers and their bounds,
        # and an entry whose root matches two queries is read once.
        path = tmp_path / "program.pl"
        path.write_text(text)
        results, gathered = [], Counter()
        gather = lineage._gather

        def counted(found, *args):
            gathered.update(map(id, found))
            return gather(found, *args)

        def kept(prog, opts):
            results.append(run_pr(prog, opts))
            return results[-1]

        monkeypatch.setattr(lineage, "_gather", counted)
        monkeypatch.setattr(cli, "run_pr", kept)
        code, report = run_json(
            capsys, "run", "--collapse", "off", "--program", str(path), *bounds
        )
        assert code == 0 and report["answers"]
        (result,) = results
        facts = {a["fact"] for a in report["answers"]}
        entries = [
            e
            for store in [result.facts, *result.stores.values()]
            for root, found in store.by_root.items()
            if str(root) in facts
            for e in found
        ]
        assert gathered == Counter(map(id, entries))


class TestRun:
    def test_probability_of_the_running_query(self, capsys, running_file):
        code, report = run_json(
            capsys, "run", "--program", running_file, "--query", "p(a,b)"
        )
        assert code == 0
        assert report["engine"] == "pr" or report["engine"] == "pcor"
        (ans,) = report["answers"]
        assert ans["fact"] == "p(a,b)"
        assert ans["probability"] == pytest.approx(0.625, abs=1e-12)
        assert ans["lineage"] == [["e(a,b)"], ["e(a,c)", "e(c,b)"]]
        assert not report["truncated"]

    def test_file_queries_are_used_when_flag_absent(self, capsys, running_file):
        code, report = run_json(capsys, "run", "--program", running_file)
        assert code == 0
        assert [a["fact"] for a in report["answers"]] == ["p(a,b)"]

    def test_schema_keys_are_stable(self, capsys, running_file):
        _, report = run_json(
            capsys, "run", "--program", running_file, "--query", "p(a,b)"
        )
        assert set(report) == {"engine", "answers", "stats", "truncated"}
        assert set(report["stats"]) == {
            "rounds",
            "nodes",
            "entries",
            "or_entries",
            "instantiations",
            "time_ms",
        }
        assert set(report["stats"]["time_ms"]) == {"reason", "lineage", "prob"}

    def test_dump_graph_lists_live_nodes_on_stderr(self, capsys, running_file):
        code, plain = run_cli(capsys, "run", "--program", running_file)
        assert code == 0
        code = cli.main(["run", "--program", running_file, "--dump-graph"])
        dumped = capsys.readouterr()
        assert code == 0
        assert dumped.out == plain
        result = reason(normalize(parse_program(RUNNING_EXAMPLE)), "auto")
        expected = [
            f"v{n.id} rule={n.rule.id} depth={n.depth} "
            f"parents=[{','.join(map(str, n.parents))}]"
            for n in result.graph.live_nodes()
        ]
        assert len(expected) > 1
        assert dumped.err.splitlines() == expected

    def test_bounds_sequence(self, capsys, running_file):
        code, report = run_json(
            capsys,
            "run",
            "--program",
            running_file,
            "--query",
            "p(a,b)",
            "--bounds",
        )
        (ans,) = report["answers"]
        assert ans["bounds"] == [
            pytest.approx(0.5, abs=1e-12),
            pytest.approx(0.625, abs=1e-12),
        ]

    def test_collapse_flag_changes_stored_entries(self, capsys, collapse_file):
        # over 10x what either run needs: 4,000 entries, 4 rounds
        bounds = ("--max-entries", "40000", "--max-depth", "40")
        _, off = run_json(
            capsys,
            "run",
            "--program",
            collapse_file,
            "--query",
            "r(a,b1)",
            "--collapse",
            "off",
            "--stats",
            *bounds,
        )
        _, on = run_json(
            capsys,
            "run",
            "--program",
            collapse_file,
            "--query",
            "r(a,b1)",
            "--collapse",
            "on",
            "--stats",
            *bounds,
        )
        # 1000 q-derivations + 1 s-alias + 1000 t-trees + 999 loop trees
        assert off["stats"]["entries"] == 3000
        # the collapsing node stores a single OR entry instead of 1000, and
        # only one loop derivation is built on top of it instead of 999
        assert on["stats"]["entries"] == 1003
        assert on["stats"]["or_entries"] == 1
        assert off["answers"][0]["probability"] == pytest.approx(
            on["answers"][0]["probability"], abs=1e-9
        )

    def test_solver_bruteforce_matches_exact(self, capsys, running_file):
        _, exact = run_json(
            capsys, "run", "--program", running_file, "--query", "p(X,Y)"
        )
        _, brute = run_json(
            capsys,
            "run",
            "--program",
            running_file,
            "--query",
            "p(X,Y)",
            "--solver",
            "bruteforce",
        )
        for a, b in zip(exact["answers"], brute["answers"]):
            assert a["probability"] == pytest.approx(b["probability"], abs=1e-9)

    def test_text_and_json_probabilities_agree_to_12_digits(
        self, capsys, running_file
    ):
        _, report = run_json(
            capsys, "run", "--program", running_file, "--query", "p(X,Y)"
        )
        code, text = run_cli(
            capsys, "run", "--program", running_file, "--query", "p(X,Y)"
        )
        assert code == 0
        printed = {}
        for line in text.splitlines()[1:]:
            fact, prob, _ = line.split("\t")
            printed[fact] = prob
        for ans in report["answers"]:
            assert printed[ans["fact"]] == f"{ans['probability']:.12g}"

    def test_text_output_with_bounds_and_stats(self, capsys, running_file):
        code, text = run_cli(
            capsys, "run", "--program", running_file, "--bounds", "--stats",
            "--output", "text",
        )
        assert code == 0
        *head, stats, truncated = text.splitlines()
        assert head == [
            "engine: pcor",
            "p(a,b)\t0.625\te(a,b) | e(a,c)&e(c,b)",
            "  bounds: [0.5, 0.625]",
        ]
        assert stats.startswith("stats: ")
        report = json.loads(stats[len("stats: "):])
        assert report["entries"] == 8 and report["rounds"] == 3
        assert truncated == "truncated: False"

    def test_json_output_is_deterministic(self, capsys, running_file):
        _, r1 = run_json(capsys, "run", "--program", running_file, "--query", "p(X,Y)")
        _, r2 = run_json(capsys, "run", "--program", running_file, "--query", "p(X,Y)")
        r1["stats"].pop("time_ms")
        r2["stats"].pop("time_ms")
        assert r1 == r2


class TestBoundsSolves:
    """`--bounds` solves each distinct lineage once, and `time_ms.prob`
    covers every solve, the bounds' included."""

    @pytest.mark.parametrize("command", [
        ("run", "--collapse", "off"), ("run", "--collapse", "on"),
        ("oracle", "--engine", "tcp"), ("oracle", "--engine", "delta-tcp"),
    ], ids=["run-off", "run-on", "tcp", "delta-tcp"])
    def test_each_distinct_lineage_is_solved_once(self, capsys, monkeypatch, tmp_path, command):
        path = tmp_path / "reliability.pl"
        path.write_text(reliability_text(3, 5, 0))
        solved = []

        def counted(dnf, weights):
            solved.append(dnf)
            return probability(dnf, weights)

        monkeypatch.setattr(cli, "probability", counted)
        code, report = run_json(
            capsys, *command, "--program", str(path), "--query", "p(s,t)", "--bounds"
        )
        assert code == 0
        (ans,) = report["answers"]
        assert len(solved) == len(set(solved))
        assert [len(d.clauses) for d in solved].count(125) == 1
        assert ans["bounds"][-1] == ans["probability"]

    def test_prob_time_covers_the_bounds(self, capsys, monkeypatch, running_file):
        # p(a,b) gains its second derivation in round 2: two lineages
        pause = 0.05
        solved = []

        def slow(dnf, weights):
            solved.append(dnf)
            time.sleep(pause)
            return probability(dnf, weights)

        monkeypatch.setattr(cli, "probability", slow)
        _, report = run_json(
            capsys, "run", "--program", running_file, "--query", "p(a,b)", "--bounds",
            "--stats",
        )
        assert len(set(solved)) == 2
        assert report["stats"]["time_ms"]["prob"] >= 1000 * pause * len(set(solved))


    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("command", [
        ("run", "--collapse", "off"), ("run", "--collapse", "on"),
        ("oracle", "--engine", "tcp"), ("oracle", "--engine", "delta-tcp"),
    ], ids=["run-off", "run-on", "tcp", "delta-tcp"])
    def test_bounds_equal_a_solve_of_every_snapshot(self, capsys, tmp_path, command, seed):
        # the reference for solving each run of one lineage once
        text = random_program_text(seed)
        path = tmp_path / "corpus.pl"
        path.write_text(text)
        prog = normalize(parse_program(text))
        if command[0] == "oracle":
            inst = tcp_fixpoint(prog, cli.TCP_MODES[command[2]])
            # the last round changed nothing, and the bounds end before it
            history = snapshots(inst.changes, max(inst.round - 1, 1))[1:]
        else:
            on = ReasonerOptions(collapse="on")
            result = run_pr(prog) if command[2] == "off" else run_pcor(prog, on)
            history = snapshots(round_bounds(result), max(result.rounds, 1))[1:]
        code, report = run_json(capsys, *command, "--program", str(path), "--bounds")
        assert code == 0 and report["answers"]
        for ans in report["answers"]:
            fact = parse_atom(ans["fact"])
            expected = [probability(snap.get(fact, FALSE), prog.weights) for snap in history]
            assert ans["bounds"] == pytest.approx(expected, abs=1e-12)

    def test_bounds_solve_work_grows_with_lineage_changes(self, capsys, monkeypatch, tmp_path):
        # A work count, not a time: on a 300-edge path each of the 301
        # answers has 301 bounds but only two lineages, none and its own.
        # Looking every bound up by its lineage would hash about 180,000
        # lineages; a bound is solved again only where the lineage changes.
        path = tmp_path / "path.pl"
        path.write_text(
            "r(n0).\n"
            + "".join(f"0.9::e(n{i},n{i + 1}).\n" for i in range(300))
            + "r(X) :- r(Y), e(Y,X).\n"
        )
        hashes, dnf_hash = [0], Dnf.__hash__

        def counted(dnf):
            hashes[0] += 1
            return dnf_hash(dnf)

        monkeypatch.setattr(Dnf, "__hash__", counted)
        _, report = run_json(
            capsys, "run", "--program", str(path), "--query", "r(X)", "--bounds"
        )
        answers = report["answers"]
        assert len(answers) == 301
        assert all(len(a["bounds"]) == 301 for a in answers)
        assert all(a["bounds"][-1] == a["probability"] for a in answers)
        assert hashes[0] <= 10 * len(answers)


class TestErrors:
    def test_closed_stdout_exits_1_without_a_traceback(self, capsys, monkeypatch, running_file):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert cli.main(["oracle", "--program", running_file, "--output", "json"]) == 1
        assert capsys.readouterr().err == ""

    def test_pipe_without_reader_exits_1_quietly(self):
        # Python flushes stdout again at exit; that flush must not fail too.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from probdatalog.cli import main; sys.exit(main())",
                 "gen", "--kind", "chain", "--nodes", "4"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)},
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b"")

    def test_out_of_memory_exits_2_without_a_traceback(self, tmp_path):
        # chain 20 with default flags needs far more than this address space
        program = tmp_path / "chain20.pl"
        program.write_text(chain_program(20, 0))
        limit = 128 * 2**20
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from probdatalog.cli import main; sys.exit(main())",
             "run", "--program", str(program)],
            capture_output=True,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)},
            timeout=120,
        )
        assert proc.returncode == 2
        assert json.loads(proc.stdout) == {"error": {"type": "resource", "message": "out of memory"}}
        assert b"Traceback" not in proc.stderr

    def test_parse_error_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.pl"
        bad.write_text("p(X,Y :- e(X,Y).")
        code, out = run_cli(capsys, "run", "--program", str(bad), "--query", "p(a,b)")
        assert code == 1
        assert json.loads(out)["error"]["type"] == "parse"

    @pytest.mark.parametrize(
        "text", ["0.5::query(a).", "0.5::query(X) :- e(X).", "p :- query, e(a).", "query(X) :- e(X)."]
    )
    def test_reserved_query_predicate_exits_1(self, capsys, tmp_path, text):
        bad = tmp_path / "bad.pl"
        bad.write_text(f"e(a).\n{text}\n")
        code, out = run_cli(capsys, "run", "--program", str(bad), "--query", "e(a)")
        assert code == 1
        error = json.loads(out)["error"]
        assert error["type"] == "parse"
        assert "line 2, column" in error["message"] and "'query' is reserved" in error["message"]

    def test_missing_file_exits_1(self, capsys):
        code, out = run_cli(capsys, "run", "--program", "/nonexistent.pl", "--query", "p(a,b)")
        assert code == 1
        assert "error" in json.loads(out)

    @pytest.mark.parametrize("command", ["run", "oracle", "compare"])
    @pytest.mark.parametrize(
        "content, kind",
        [
            (b"\xff\xfe\x00", "io"),
            (b"0.5::e(a,b).\n0.7::e(a,b).\np(X) :- e(X,Y).\n", "parse"),
        ],
        ids=["not-utf8", "repeated-fact"],
    )
    def test_unreadable_program_exits_1(self, capsys, tmp_path, command, content, kind):
        path = tmp_path / "bad.pl"
        path.write_bytes(content)
        code, out = run_cli(
            capsys, command, "--program", str(path), "--query", "p(a)", "--output", "json"
        )
        assert code == 1
        assert json.loads(out)["error"]["type"] == kind
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            "run --max-depth 0",
            "run --max-depth -3",
            "run --max-entries -1",
            "oracle --max-depth 0",
            "oracle --max-depth -3",
            "compare --max-depth 0",
            "compare --max-entries -1",
        ],
    )
    def test_limit_out_of_range_is_a_usage_error(self, capsys, running_file, argv):
        command, *flags = argv.split()
        code = cli.main([command, "--program", running_file, *flags, "--output", "json"])
        captured = capsys.readouterr()
        error = json.loads(captured.out)["error"]
        assert code == 1
        assert error["type"] == "usage"
        if "--max-depth" in flags:  # the flag's name, whichever engine runs
            assert "max_depth" in error["message"]
        assert "Traceback" not in captured.err

    def test_resource_limit_exits_2_with_stats(self, capsys, running_file):
        code, out = run_cli(
            capsys,
            "run",
            "--program",
            running_file,
            "--query",
            "p(a,b)",
            "--max-depth",
            "1",
        )
        assert code == 2
        report = json.loads(out)
        assert report["error"]["type"] == "resource"
        assert report["stats"]["rounds"] == 1

    def test_wmc_limit_exits_3(self, capsys, tmp_path):
        path = tmp_path / "wide.pl"
        path.write_text(collapse_example(30))
        code, out = run_cli(
            capsys,
            "run",
            "--program",
            str(path),
            "--query",
            "r(a,b1)",
            "--solver",
            "bruteforce",
            # over 10x what reasoning needs: 64 entries, 4 rounds
            "--max-entries",
            "1000",
            "--max-depth",
            "40",
        )
        assert code == 3
        assert json.loads(out)["error"]["type"] == "wmc"

    def test_oversized_lineage_exits_2(self, capsys, monkeypatch, collapse_file):
        def capped(result, prog, query):
            with mock.patch.object(lineage, "DEFAULT_CLAUSE_CAP", 999):
                return collect_lineage(result, prog, query)

        monkeypatch.setattr(cli, "collect_lineage", capped)
        code, out = run_cli(
            capsys, "run", "--program", collapse_file, "--query", "t(a)",
            "--collapse", "off",
        )
        assert code == 2
        assert json.loads(out)["error"]["type"] == "resource"

    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_oversized_round_bound_exits_2(self, capsys, tmp_path, command):
        # t's lineage has n clauses after round 2 but one, x, at the end, so
        # under a cap of n - 1 only a per-round read raises.
        n = 5
        path = tmp_path / "absorbed.pl"
        path.write_text(
            "0.5::x.\n" + "".join(f"0.4::y(c{i}).\n" for i in range(n))
            + "u(Y) :- x, y(Y).\nt :- u(Y).\n"
            + "s1 :- x.\ns2 :- s1.\ns3 :- s2.\nt :- s3.\nquery(t).\n"
        )
        with mock.patch.object(lineage, "DEFAULT_CLAUSE_CAP", n - 1):
            code, out = run_cli(capsys, command, "--program", str(path), "--bounds")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "resource"
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("oracle", "--engine", "tcp"), ("oracle", "--engine", "delta-tcp"), ("compare",),
    ])
    def test_oversized_reference_formula_exits_2(self, capsys, monkeypatch, tmp_path, argv):
        # t(a)'s formula has 12 clauses.  Only the reference engine runs under
        # the lowered cap, so `compare` gets past both graph engines first.
        def capped(*args):
            with mock.patch.object(lineage, "DEFAULT_CLAUSE_CAP", 11):
                return tcp_fixpoint(*args)

        monkeypatch.setattr(cli, "tcp_fixpoint", capped)
        path = tmp_path / "collapse12.pl"
        path.write_text(collapse_example(12))
        code, out = run_cli(capsys, *argv, "--program", str(path), "--query", "t(a)")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "resource"

    def test_deep_lineage_collection_exits_2(self, capsys, monkeypatch, running_file):
        def too_deep(result, prog, query):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "collect_lineage", too_deep)
        code, out = run_cli(capsys, "run", "--program", running_file)
        assert code == 2
        assert json.loads(out)["error"]["type"] == "resource"

    @pytest.mark.parametrize(
        "command",
        [pytest.param(["run", "--collapse", c], id=c) for c in ("off", "on", "auto")]
        + [pytest.param(["compare"], id="compare")],
    )
    def test_deep_reasoning_exits_2(self, capsys, monkeypatch, running_file, command):
        def too_deep(prog, opts):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "run_pr", too_deep)
        monkeypatch.setattr(cli, "run_pcor", too_deep)
        code = cli.main([*command, "--program", running_file])
        captured = capsys.readouterr()
        assert code == 2
        error = json.loads(captured.out)["error"]
        assert error["type"] == "resource"
        assert "too deep" in error["message"]
        assert "Traceback" not in captured.out + captured.err

    def test_solver_needs_no_recursion_depth(self):
        # The solver keeps its search on a stack, so a path DNF whose Shannon
        # expansion nests 1,000 levels deep solves under a limit of 200 frames
        rng = random.Random(4)
        n = 1000
        path = Dnf.from_clauses([[i, i + 1] for i in range(n)])
        # dyadic weights up to 0.1 keep the rational reference fast
        weights = [rng.randrange(1, 103) / 1024 for _ in range(n + 1)]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            got = cli._compute_probability(path, dict(enumerate(weights)), "exact")
        finally:
            sys.setrecursionlimit(limit)
        expected = float(path_probability(weights))
        assert 0.1 < expected < 0.99
        assert abs(got - expected) <= 1e-12 * expected

    def test_a_long_plain_path_needs_no_recursion_depth(self, capsys, tmp_path):
        # Each derivation's clause is set when it is built, so reading the
        # one clause of a 1,200-round derivation nests no calls
        for n in (600, 1200):
            path = tmp_path / f"path{n}.pl"
            path.write_text(
                "r(n0).\n"
                + "".join(f"0.9::e(n{i},n{i + 1}).\n" for i in range(n))
                + "r(X) :- r(Y), e(Y,X).\n"
            )
            limit = sys.getrecursionlimit()
            sys.setrecursionlimit(1000)  # Python's default
            try:
                code, report = run_json(
                    capsys, "run", "--program", str(path), "--query", f"r(n{n})"
                )
            finally:
                sys.setrecursionlimit(limit)
            assert code == 0
            (ans,) = report["answers"]
            expected = float(Fraction(0.9) ** n)  # the weight as parsed, exactly
            # one clause: the n edges and the certain fact r(n0)
            assert len(ans["lineage"]) == 1 and len(ans["lineage"][0]) == n + 1
            assert abs(ans["probability"] - expected) <= 1e-12 * expected

    def test_malformed_query_atom_exits_1(self, capsys, running_file):
        code, out = run_json(capsys, "run", "--program", running_file, "--query", "p(a,")
        assert code == 1
        assert out["error"]["type"] == "parse"
        assert out["error"]["message"].startswith("bad query atom: ")

    def test_no_query_anywhere_exits_1(self, capsys, tmp_path):
        path = tmp_path / "noquery.pl"
        path.write_text(RUNNING_EXAMPLE.replace("query(p(a,b)).\n", ""))
        code, out = run_json(capsys, "run", "--program", str(path))
        assert code == 1
        assert out["error"] == {
            "type": "parse",
            "message": "no --query given and the program declares no query(...)",
        }

    def test_unknown_query_predicate_exits_1(self, capsys, running_file):
        code, out = run_cli(
            capsys, "run", "--program", running_file, "--query", "zz(a)"
        )
        assert code == 1

    @pytest.mark.parametrize("command", ["oracle", "compare"])
    def test_unknown_query_predicate_exits_1_on_every_engine(
        self, capsys, running_file, command
    ):
        code, out = run_cli(
            capsys, command, "--program", running_file, "--query", "zz(a)"
        )
        assert code == 1
        assert json.loads(out)["error"]["type"] == "parse"

    @pytest.mark.parametrize("command", ["run", "oracle", "compare"])
    @pytest.mark.parametrize("flag", [(), ("--query", "zz(a)")], ids=["file", "flag"])
    def test_query_on_a_predicate_only_the_query_names_exits_1(
        self, capsys, tmp_path, command, flag
    ):
        path = tmp_path / "zz.pl"
        path.write_text("query(zz(a)).\n0.5::e(a,b).\np(X,Y) :- e(X,Y).\n")
        code, out = run_json(capsys, command, "--program", str(path), *flag)
        assert code == 1
        assert out["error"] == {"type": "parse", "message": "unknown predicate zz"}

    @pytest.mark.parametrize("command", ["run", "oracle", "compare"])
    def test_query_with_another_arity_exits_1(self, capsys, running_file, command):
        code, out = run_json(
            capsys, command, "--program", running_file, "--query", "p(X)"
        )
        assert code == 1
        assert out["error"] == {
            "type": "parse", "message": "query p(X): predicate arity is 2"
        }

    def test_invalid_engine_name_is_a_usage_error(self, capsys, running_file):
        code, out = run_cli(
            capsys, "oracle", "--program", running_file, "--engine", "bogus"
        )
        assert code == 1
        assert json.loads(out)["error"]["type"] == "usage"
        assert "bogus" in json.loads(out)["error"]["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            "oracle --collapse on",
            "oracle --threshold 5",
            "oracle --max-entries 100",
            "compare --collapse on",
            "compare --threshold 5",
            "compare --bounds",
            "compare --stats",
        ],
    )
    def test_flag_the_subcommand_does_not_read_is_a_usage_error(
        self, capsys, running_file, argv
    ):
        command, *flags = argv.split()
        code = cli.main([command, "--program", running_file, *flags])
        captured = capsys.readouterr()
        assert (code, captured.err) == (1, "")
        error = json.loads(captured.out)["error"]
        assert error["type"] == "usage"
        assert flags[0] in error["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            "run --program {} --max-depth abc",
            "compare --program {} --max-entries 1.5",
            "run --program {} --collapse maybe",
            "oracle",  # no --program
            "",  # no subcommand
        ],
    )
    def test_malformed_arguments_are_a_usage_error(self, capsys, running_file, argv):
        code = cli.main(argv.format(running_file).split())
        captured = capsys.readouterr()
        assert (code, captured.err) == (1, "")
        assert json.loads(captured.out)["error"]["type"] == "usage"

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["run", "--help"])
        assert err.value.code == 0
        assert capsys.readouterr().out.startswith("usage: probdatalog run")


class TestOracle:
    def test_same_answers_as_run(self, capsys, running_file):
        _, run_report = run_json(
            capsys, "run", "--program", running_file, "--query", "p(X,Y)"
        )
        code, oracle_report = run_json(
            capsys,
            "oracle",
            "--program",
            running_file,
            "--query",
            "p(X,Y)",
            "--engine",
            "tcp",
        )
        assert code == 0
        assert oracle_report["engine"] == "tcp"
        run_probs = {a["fact"]: a["probability"] for a in run_report["answers"]}
        oracle_probs = {a["fact"]: a["probability"] for a in oracle_report["answers"]}
        assert run_probs.keys() == oracle_probs.keys()
        for fact, p in run_probs.items():
            assert p == pytest.approx(oracle_probs[fact], abs=1e-9)

    def test_delta_engine_same_probabilities_fewer_instantiations(
        self, capsys, running_file
    ):
        _, naive = run_json(
            capsys, "oracle", "--program", running_file, "--query", "p(X,Y)"
        )
        _, delta = run_json(
            capsys,
            "oracle",
            "--program",
            running_file,
            "--query",
            "p(X,Y)",
            "--engine",
            "delta-tcp",
        )
        assert delta["engine"] == "delta-tcp"
        for a, b in zip(naive["answers"], delta["answers"]):
            assert a["fact"] == b["fact"]
            assert a["probability"] == pytest.approx(b["probability"], abs=1e-12)
        assert delta["stats"]["instantiations"] < naive["stats"]["instantiations"]

    @pytest.mark.parametrize(
        "rules", ["", "p(X) :- e(X,X).\n"], ids=["no-rules", "rule-never-fires"]
    )
    @pytest.mark.parametrize("engine", ["tcp", "delta-tcp"])
    def test_bounds_when_no_rule_fires_match_run(self, capsys, tmp_path, rules, engine):
        path = tmp_path / "facts.pl"
        path.write_text("0.5::e(a,b).\n0.25::e(a,c).\n" + rules + "query(e(a,X)).\n")
        _, run_report = run_json(capsys, "run", "--program", str(path), "--bounds")
        code, oracle_report = run_json(
            capsys, "oracle", "--program", str(path), "--bounds", "--engine", engine
        )
        assert code == 0
        assert run_report["answers"] == oracle_report["answers"]
        assert [a["bounds"] for a in run_report["answers"]] == [[0.5], [0.25]]

    def test_oracle_bounds_are_monotone(self, capsys, running_file):
        _, report = run_json(
            capsys,
            "oracle",
            "--program",
            running_file,
            "--query",
            "p(a,b)",
            "--bounds",
        )
        (ans,) = report["answers"]
        seq = ans["bounds"]
        assert all(lo <= hi + 1e-12 for lo, hi in zip(seq, seq[1:]))
        assert seq[-1] == pytest.approx(ans["probability"], abs=1e-12)


    def test_round_limit_exits_2(self, capsys, running_file):
        # the running example reaches its fixpoint in round 3
        code, out = run_json(capsys, "oracle", "--program", running_file, "--max-depth", "1")
        assert code == 2
        assert out["error"] == {"type": "resource", "message": "no fixpoint within 1 rounds"}

    def test_a_path_of_more_than_64_rounds_needs_no_max_depth(self, capsys, tmp_path):
        # 100 edges: TcP's fixpoint is round 102, with no round limit unless
        # --max-depth sets one, as for `run`.  Its bounds end at round 101,
        # the last that changed something, as `run`'s do.
        path = tmp_path / "path.pl"
        path.write_text(
            "r(n0).\n"
            + "".join(f"0.9::e(n{i},n{i + 1}).\n" for i in range(100))
            + "r(X) :- r(Y), e(Y,X).\n"
        )
        args = ("--program", str(path), "--query", "r(X)")
        _, run_report = run_json(capsys, "run", *args, "--bounds")
        assert len(run_report["answers"]) == 101
        for engine in ("tcp", "delta-tcp"):
            code, report = run_json(capsys, "oracle", *args, "--bounds", "--engine", engine)
            assert code == 0
            assert report["answers"] == run_report["answers"]
            assert all(a["bounds"][-1] == a["probability"] for a in report["answers"])
        code, report = run_json(capsys, "compare", *args)
        assert code == 0 and not report["mismatch"]
        assert [row["tcp"] for row in report["answers"]] == [
            row["pr"] for row in report["answers"]
        ]


class TestGen:
    def test_same_seed_is_byte_identical(self, capsys):
        _, first = run_cli(capsys, "gen", "--kind", "powerlaw", "--nodes", "10", "--seed", "7")
        _, second = run_cli(capsys, "gen", "--kind", "powerlaw", "--nodes", "10", "--seed", "7")
        assert first == second

    def test_powerlaw_output_parses_and_respects_edge_bound(self, capsys):
        code, text = run_cli(
            capsys, "gen", "--kind", "powerlaw", "--nodes", "10", "--seed", "7"
        )
        assert code == 0
        prog = parse_program(text)
        directed = [f for f in prog.facts if f.fact.predicate.text == "e"]
        assert len(directed) % 2 == 0
        assert len(directed) // 2 <= 20
        assert all(0.0 < f.prob <= 1.0 for f in directed)
        assert prog.queries

    def test_gen_writes_file(self, capsys, tmp_path):
        out = tmp_path / "g.pl"
        code, _ = run_cli(
            capsys, "gen", "--kind", "chain", "--nodes", "5", "--seed", "1",
            "--out", str(out),
        )
        assert code == 0
        assert out.exists()

    def test_unwritable_out_path_is_an_io_error(self, capsys, tmp_path):
        out = tmp_path / "missing" / "g.pl"
        code, text = run_cli(
            capsys, "gen", "--kind", "chain", "--nodes", "5", "--out", str(out)
        )
        assert code == 1
        assert json.loads(text)["error"]["type"] == "io"
        assert "Traceback" not in capsys.readouterr().err

    def test_chain_end_to_end_probability_is_edge_product(self, capsys, tmp_path):
        out = tmp_path / "chain.pl"
        run_cli(capsys, "gen", "--kind", "chain", "--nodes", "5", "--seed", "3", "--out", str(out))
        prog = parse_program(out.read_text())
        expected = math.prod(f.prob for f in prog.facts)
        code, report = run_json(
            capsys, "run", "--program", str(out), "--query", "p(a,e)"
        )
        assert code == 0
        assert report["answers"][0]["probability"] == pytest.approx(expected, abs=1e-12)

    def test_invalid_node_count(self, capsys):
        code, out = run_cli(capsys, "gen", "--kind", "chain", "--nodes", "1")
        assert code == 1
        assert "error" in json.loads(out)


class TestCompare:
    def test_running_example_has_zero_deltas(self, capsys, running_file):
        code, report = run_json(
            capsys, "compare", "--program", running_file, "--query", "p(X,Y)"
        )
        assert code == 0
        assert not report["mismatch"]
        assert report["lineage_mismatch"] == []
        assert report["max_delta"] <= 1e-9

    def test_text_output_lists_each_engine(self, capsys, running_file):
        code, text = run_cli(capsys, "compare", "--program", running_file, "--output", "text")
        assert code == 0
        assert text.splitlines() == [
            "engine: compare",
            "p(a,b)\t0.625\t0.625\t0.625",
            "max_delta: 0.000e+00",
            "mismatch: False",
        ]

    def test_generated_corpus_file_has_tiny_deltas(self, capsys, tmp_path):
        out = tmp_path / "graph.pl"
        run_cli(capsys, "gen", "--kind", "powerlaw", "--nodes", "12", "--seed", "4", "--out", str(out))
        # over 10x what reasoning needs: 94 entries, 4 rounds
        code, report = run_json(
            capsys, "compare", "--program", str(out), "--max-entries", "1000", "--max-depth", "40"
        )
        assert code == 0
        assert report["max_delta"] <= 1e-9

    def test_corrupted_probabilities_exit_4(self, capsys, running_file, monkeypatch):
        real = cli.tcp_fixpoint

        def corrupt(prog, mode="naive", max_rounds=None):
            inst = real(prog, mode, max_rounds)
            victim = next(a for a in inst.changes if a.predicate.text == "p")
            inst.changes[victim] = [(inst.round, cli.Dnf.from_clauses([]))]
            return inst

        monkeypatch.setattr(cli, "tcp_fixpoint", corrupt)
        code, report = run_json(
            capsys, "compare", "--program", running_file, "--query", "p(X,Y)"
        )
        assert code == 4
        assert report["mismatch"]

    def test_lineage_difference_alone_exits_4(self, capsys, running_file, monkeypatch):
        real = cli._answers
        victims = []

        def relabel(engine, *args, **kwargs):
            report = real(engine, *args, **kwargs)
            if engine == "tcp":  # one lineage changes, its probability does not
                row = report["answers"][0]
                row["lineage"] = [*row["lineage"], ["e(a,b)", "e(b,c)", "e(c,b)"]]
                victims.append(row["fact"])
            return report

        monkeypatch.setattr(cli, "_answers", relabel)
        code, report = run_json(
            capsys, "compare", "--program", running_file, "--query", "p(X,Y)"
        )
        assert code == 4
        assert report["mismatch"] and report["max_delta"] == 0.0
        assert report["lineage_mismatch"] == victims[:1]
        code, text = run_cli(capsys, "compare", "--program", running_file, "--query", "p(X,Y)")
        assert code == 4
        assert f"lineage_mismatch: {victims[0]}" in text.splitlines()

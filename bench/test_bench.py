"""Tests of the benchmark itself: the verifier must catch wrong passes, the
structural oracles must agree with possible-world enumeration, and every
workload must run end to end at a tiny size.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics

import pytest

import run

run.use_checkout_source()

from probdatalog import (  # noqa: E402
    brute_force_probability,
    cli,
    normalize,
    parse_program,
    tcp_fixpoint,
)

import harness  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from verify import Reference  # noqa: E402
from workloads import WORKLOADS, make  # noqa: E402

TINY = {
    "chain": {"nodes": 4},
    "powerlaw": {"nodes": 12},
    "fanin": {"n": 6},
    "reliability": {"layers": 2, "width": 2},
}


def program_file(tmp_path, workload):
    path = tmp_path / f"{workload.name}.pl"
    harness.write_program(workload, path)
    return path


def run_once(path, workload) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["run", "--program", str(path), "--output", "json",
                         *workload.cli_args]) == 0
    return buf.getvalue()


@pytest.fixture
def fanin(tmp_path):
    workload = make("fanin", 3, TINY["fanin"])
    return workload, run_once(program_file(tmp_path, workload), workload)


def test_a_correct_pass_has_no_problems(fanin):
    workload, text = fanin
    assert harness.check_output(Reference(workload), 0, text) == []


def test_a_perturbed_probability_is_caught(fanin):
    workload, text = fanin
    payload = json.loads(text)
    payload["answers"][0]["probability"] += 1e-7
    problems = harness.check_output(Reference(workload), 0, json.dumps(payload))
    assert len(problems) == 1 and "probability" in problems[0]


def test_a_perturbed_lineage_clause_is_caught(fanin):
    workload, text = fanin
    payload = json.loads(text)
    widest = max(payload["answers"], key=lambda a: len(a["lineage"]))
    widest["lineage"][-1] = widest["lineage"][-1][:1]  # drop a conjunct
    problems = harness.check_output(Reference(workload), 0, json.dumps(payload))
    assert any("lineage" in p for p in problems)


def test_missing_answers_and_bad_exit_codes_are_caught(fanin):
    workload, text = fanin
    payload = json.loads(text)
    dropped = payload["answers"].pop()
    problems = harness.check_output(Reference(workload), 0, json.dumps(payload))
    assert problems == [f"missing answer {dropped['fact']}"]
    assert harness.check_output(Reference(workload), 2, text)


def test_perturbed_passes_count_as_failed(tmp_path, monkeypatch):
    workload = make("fanin", 3, TINY["fanin"])
    path = program_file(tmp_path, workload)
    real_main = cli.main

    def off_by_a_little(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = real_main(argv)
        payload = json.loads(buf.getvalue())
        payload["answers"][-1]["probability"] *= 1 + 1e-6
        print(json.dumps(payload))
        return code

    monkeypatch.setattr(cli, "main", off_by_a_little)
    result = harness.measure(workload, path, 0, trace=False, min_passes=3)
    assert result["attempted"] == 3 and result["failed"] == 3


def test_a_crashing_pass_counts_as_failed(tmp_path, monkeypatch):
    workload = make("chain", 0, TINY["chain"])
    path = program_file(tmp_path, workload)

    def crash(argv):
        raise RecursionError("deep")

    monkeypatch.setattr(cli, "main", crash)
    result = harness.measure(workload, path, 0, trace=False, min_passes=2)
    assert result["failed"] == 2
    assert result["problems"] == ["raised RecursionError: deep"] * 2


def test_fanin_closed_form_matches_enumeration():
    workload = make("fanin", 5, {"n": 12})
    prog = normalize(parse_program(workload.text))
    inst = tcp_fixpoint(prog, "delta")
    by_name = {str(a): d for a, d in inst.formulas.items()}
    for fact, p in workload.exact.items():
        assert p == pytest.approx(
            brute_force_probability(by_name[fact], prog.weights), abs=1e-12
        )


@pytest.mark.parametrize("layers,width", [(2, 2), (3, 2), (2, 3)])
def test_layered_reliability_matches_enumeration(layers, width):
    workload = make("reliability", 7, {"layers": layers, "width": width})
    prog = normalize(parse_program(workload.text))
    inst = tcp_fixpoint(prog, "delta")
    dnf = next(d for a, d in inst.formulas.items() if str(a) == "p(s,t)")
    assert workload.exact["p(s,t)"] == pytest.approx(
        brute_force_probability(dnf, prog.weights), abs=1e-12
    )


def test_workloads_are_a_function_of_the_seed():
    for name in WORKLOADS:
        assert make(name, 4, TINY[name]) == make(name, 4, TINY[name])
        assert make(name, 4, TINY[name]).text != make(name, 5, TINY[name]).text


def test_tail_has_ten_passes_beyond_it():
    times = [float(t) for t in range(40)]
    value, percentile = harness.tail(times)
    assert sum(t > value for t in times) == 10
    assert percentile == 75.0


def test_end_to_end_times_are_rescaled_to_the_reference_machine():
    # a machine half as fast as the reference one: every time doubles
    slow = 2 * reference.REFERENCE_S
    base = [0.1 * (1 + i % 4) for i in range(20)]
    run = {"plain": [2 * t for t in base], "refs": [slow] * 21,
           "setup": [0.6] * 7, "setup_refs": [slow] * 7, "peak_rss_mb": 30.0}
    metrics = harness.end_to_end(run)
    assert metrics["solve_s"] == pytest.approx(statistics.median(base))
    assert metrics["solve_tail_s"] == pytest.approx(harness.tail(base)[0])
    assert metrics["setup_s"] == pytest.approx(0.3)
    assert metrics["peak_rss_mb"] == 30.0


def test_a_pass_is_rescaled_by_the_loops_just_around_it():
    refs = [0.02, 0.02, 0.06, 0.04, 0.04]
    scaled = harness.rescaled([1.0] * 4, refs)
    assert scaled == pytest.approx(
        [reference.REFERENCE_S / r for r in (0.02, 0.04, 0.05, 0.04)]
    )


def test_a_setup_sample_is_ended_by_the_child():
    # the child prints its end time on the shared monotonic clock and the
    # time of its own reference loop
    seconds, ref = harness.setup_once("chain", 0)
    assert 0 < seconds < 60 and 0 < ref < 60


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_runs_untraced_and_traced(tmp_path, name):
    workload = make(name, 1, TINY[name])
    path = program_file(tmp_path, workload)
    plain = harness.measure(workload, path, 0, trace=False, min_passes=2)
    assert (plain["attempted"], plain["failed"]) == (2, 0)
    assert len(plain["refs"]) == len(plain["plain"]) + 1 == 3
    traced = harness.measure(workload, path, 0, trace=True, min_passes=4)
    assert traced["failed"] == 0
    metrics, missing = harness.per_layer(traced)
    assert missing == []
    assert set(metrics) == set(harness.PER_LAYER_UNITS)
    # spans nest: every layer's time fits inside the traced pass
    assert metrics["reasoner.reason_s"] <= metrics["trace.solve_s"]
    assert metrics["cli.self_s"] >= 0 and metrics["reasoner.self_s"] >= 0


def test_a_vanished_function_makes_its_metrics_missing(tmp_path, monkeypatch):
    workload = make("chain", 2, TINY["chain"])
    path = program_file(tmp_path, workload)
    monkeypatch.setitem(tracing.SPANS, "graph.inductive_step",
                        ("probdatalog.reasoner", "no_such_function"))
    monkeypatch.setattr(tracing, "OR_CALLS",
                        ("lineage.Dnf.or_", "probdatalog.lineage", "NoSuchClass", "or_"))
    traced = harness.measure(workload, path, 0, trace=True, min_passes=4)
    metrics, missing = harness.per_layer(traced)
    assert traced["failed"] == 0
    assert missing == ["graph.grow_s", "lineage.or_calls"]
    assert "derivations.instantiate_s" in metrics

"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion.  The randomized corpora are seeded, so every run checks the same
instances.
"""

import itertools
import random
import time

from conftest import MAX_DEPTH, MAX_ENTRIES, RUNNING_EXAMPLE, collapse_example, snapshots
from corpus import random_tiny_program_text
from oracles import atom_key, explanation_map, truth_table_equal
from probdatalog import (
    CollapseMode,
    Dnf,
    ReasonerOptions,
    brute_force_probability,
    collect_lineage,
    normalize,
    parse_atom,
    parse_program,
    powerlaw_program,
    probability,
    round_bounds,
    run_pcor,
    run_pr,
    tcp_fixpoint,
    tcp_initial,
    tcp_step,
)

PASS = "[acceptance] criterion {}: PASS  {}"


def running_program():
    return normalize(parse_program(RUNNING_EXAMPLE))


def at_fixpoint(result):
    """`result`, once its run is known to have reached the fixpoint; the
    assert names the stop reason alone, as a result's repr is too long."""
    stop_reason = result.stop_reason
    assert stop_reason == "fixpoint"
    return result


def test_criterion_1_running_example_end_to_end():
    t0 = time.perf_counter()
    prog = running_program()
    result = run_pr(prog)
    (ans,) = collect_lineage(result, prog, parse_atom("p(a,b)"))
    expected = Dnf.from_clauses(
        [
            [next(f.var for f in prog.facts if str(f.fact) == "e(a,b)")],
            [
                next(f.var for f in prog.facts if str(f.fact) == "e(a,c)"),
                next(f.var for f in prog.facts if str(f.fact) == "e(c,b)"),
            ],
        ]
    )
    assert truth_table_equal(ans.lineage, expected)
    exact = probability(ans.lineage, prog.weights)
    brute = brute_force_probability(ans.lineage, prog.weights)
    assert abs(exact - 0.625) <= 1e-12
    assert abs(brute - 0.625) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(PASS.format(1, f"p(a,b) = 0.625 exactly, lineage as published ({elapsed:.2f}s)"))


def test_criterion_2_fixpoint_round_table():
    t0 = time.perf_counter()
    prog = running_program()
    v = {str(f.fact): f.var for f in prog.facts}
    expected_rounds = {
        1: {
            "p(a,b)": [[v["e(a,b)"]]],
            "p(b,c)": [[v["e(b,c)"]]],
            "p(a,c)": [[v["e(a,c)"]]],
            "p(c,b)": [[v["e(c,b)"]]],
        },
        2: {
            "p(a,b)": [[v["e(a,b)"]], [v["e(a,c)"], v["e(c,b)"]]],
            "p(a,c)": [[v["e(a,c)"]], [v["e(a,b)"], v["e(b,c)"]]],
            "p(b,b)": [[v["e(b,c)"], v["e(c,b)"]]],
            "p(b,c)": [[v["e(b,c)"]]],
        },
    }
    inst = tcp_initial(prog)
    per_round = {}
    for k in (1, 2, 3):
        inst = tcp_step(inst, prog)
        per_round[k] = dict(inst.formulas)
    for k, atoms in expected_rounds.items():
        for name, clauses in atoms.items():
            assert truth_table_equal(
                per_round[k][parse_atom(name)], Dnf.from_clauses(clauses)
            ), (k, name)
    for name in ("p(a,b)", "p(a,c)", "p(b,b)", "p(b,c)"):
        assert truth_table_equal(
            per_round[3][parse_atom(name)], per_round[2][parse_atom(name)]
        )
    assert tcp_fixpoint(prog).round == 3
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(PASS.format(2, f"rounds 1-3 formulas match, fixpoint at round 3 ({elapsed:.2f}s)"))


# Shared corpus for criteria 3-5.  Criterion 3 compares the engines with
# every redundancy check disabled, and unfiltered derivation enumeration
# grows double-exponentially with the fixpoint round, so the corpus stays
# at the small end of the allowed envelope; the programs still mix
# recursion, mixed-body rules, and probabilistic rules.
CORPUS_SEEDS = range(110)


def corpus_program(seed):
    return normalize(parse_program(random_tiny_program_text(seed)))


def test_criterion_3_per_round_equivalence_with_reference_engine():
    t0 = time.perf_counter()
    checked_programs = 0
    for seed in CORPUS_SEEDS:
        prog = corpus_program(seed)
        rounds = tcp_fixpoint(prog).round
        unfiltered = run_pr(
            prog,
            ReasonerOptions(
                max_depth=rounds, redundancy_filter=False, max_entries=2_000_000
            ),
        )
        # every requested round must have run in full (the run may also stop
        # by itself when no further rule instantiations exist)
        assert unfiltered.stop_reason in ("max_depth", "fixpoint"), seed
        inst = tcp_initial(prog)
        snaps = snapshots(round_bounds(unfiltered), max(unfiltered.rounds, 1))
        for k in range(1, rounds + 1):
            inst = tcp_step(inst, prog)
            snapshot = snaps[min(k, len(snaps) - 1)]  # the last holds on
            assert set(snapshot) == set(inst.formulas), (seed, k)
            for a, formula in snapshot.items():
                assert truth_table_equal(formula, inst.formulas[a]), (seed, k, a)
        checked_programs += 1
    elapsed = time.perf_counter() - t0
    assert checked_programs >= 100
    assert elapsed < 120.0
    print(PASS.format(3, f"{checked_programs} programs, all rounds truth-table equal ({elapsed:.1f}s)"))


def engine_probabilities(prog):
    """Final answer probabilities from all five engines."""
    out = {}
    # over 10x the most a corpus program needs: 108 entries, 5 rounds
    bounded = dict(max_entries=MAX_ENTRIES, max_depth=MAX_DEPTH)
    for name, runner, mode in (
        ("pr", run_pr, CollapseMode.OFF),
        ("pcor-on", run_pcor, CollapseMode.ON),
        ("pcor-auto", run_pcor, CollapseMode.AUTO),
    ):
        result = at_fixpoint(runner(prog, ReasonerOptions(collapse=mode, **bounded)))
        snap = snapshots(round_bounds(result), result.rounds)[result.rounds]
        out[name] = {a: probability(f, prog.weights) for a, f in snap.items()}
    for name, mode in (("tcp", "naive"), ("delta-tcp", "delta")):
        inst = tcp_fixpoint(prog, mode)
        out[name] = {a: probability(f, prog.weights) for a, f in inst.formulas.items()}
    return out


def test_criterion_4_engine_agreement_on_corpus():
    t0 = time.perf_counter()
    for seed in CORPUS_SEEDS:
        prog = corpus_program(seed)
        engines = engine_probabilities(prog)
        names = list(engines)
        atoms = set(engines[names[0]])
        for name in names[1:]:
            assert set(engines[name]) == atoms, (seed, name)
        for a in atoms:
            values = [engines[name][a] for name in names]
            assert max(values) - min(values) <= 1e-9, (seed, a, values)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(
        PASS.format(
            4, f"5 engines agree pairwise (<=1e-9) on {len(CORPUS_SEEDS)} programs ({elapsed:.1f}s)"
        )
    )


def test_criterion_5_anytime_bounds_are_monotone_and_reach_the_exact_value():
    t0 = time.perf_counter()
    programs = [running_program()] + [corpus_program(seed) for seed in CORPUS_SEEDS]
    for prog in programs:
        result = run_pr(prog)
        snaps = snapshots(round_bounds(result), result.rounds)[1:]
        if not snaps:
            continue
        final = snaps[-1]
        for a, final_formula in final.items():
            exact = brute_force_probability(final_formula, prog.weights)
            prev = 0.0
            for snap in snaps:
                p = probability(snap.get(a, Dnf.from_clauses([])), prog.weights)
                assert p + 1e-12 >= prev
                prev = p
            assert abs(prev - exact) <= 1e-12
    elapsed = time.perf_counter() - t0
    print(PASS.format(5, f"bounds nondecreasing, terminal value exact ({elapsed:.1f}s)"))


def test_criterion_6_collapsing_effectiveness():
    t0 = time.perf_counter()
    prog = normalize(parse_program(collapse_example(1000)))
    t_atom, r_atom = parse_atom("t(a)"), parse_atom("r(a,b1)")
    # over 10x the most either run needs: 4,000 entries, 4 rounds
    bounded = dict(max_entries=40_000, max_depth=40)

    off = at_fixpoint(run_pr(prog, ReasonerOptions(**bounded)))
    t_node_off = next(s for s in off.stores.values() if t_atom in s.by_root)
    assert len(t_node_off.by_root[t_atom]) == 1000
    r_node_off = next(
        s for s in off.stores.values() if r_atom in s.by_root and s.owner != t_node_off.owner and len(s.by_root) == 1
    )
    assert len(r_node_off.by_root[r_atom]) == 999

    on = at_fixpoint(run_pcor(prog, ReasonerOptions(collapse=CollapseMode.ON, **bounded)))
    t_node_on = next(s for s in on.stores.values() if t_atom in s.by_root)
    assert len(t_node_on.by_root[t_atom]) == 1
    r_node_on = next(
        s for s in on.stores.values() if r_atom in s.by_root and len(s.by_root) == 1
    )
    assert len(r_node_on.by_root[r_atom]) == 1

    p_off = probability(
        collect_lineage(off, prog, r_atom)[0].lineage, prog.weights
    )
    p_on = probability(
        collect_lineage(on, prog, r_atom)[0].lineage, prog.weights
    )
    assert abs(p_off - p_on) <= 1e-9
    assert on.stats.total("entries_allocated") < off.stats.total("entries_allocated")
    elapsed = time.perf_counter() - t0
    print(
        PASS.format(
            6,
            f"1000/999 stored entries without collapsing vs 1/1 with; "
            f"probabilities agree ({elapsed:.1f}s)",
        )
    )


def test_criterion_7_redundancy_and_termination():
    t0 = time.perf_counter()
    prog = running_program()
    # over 10x what the run needs: 20 entries, 3 rounds
    result = at_fixpoint(run_pr(prog, ReasonerOptions(max_entries=200, max_depth=30)))
    assert result.stats.rounds_executed == 3
    assert {n.id for n in result.graph.nodes if n.removed} == {2, 3, 4}

    # over 10x the most any of these runs needs: 16,812 entries, 6 rounds
    for nodes, seed in itertools.product(range(10, 21), range(10)):
        gen = normalize(parse_program(powerlaw_program(nodes, seed)))
        for runner in (
            lambda: run_pr(gen, ReasonerOptions(max_depth=64, max_entries=200_000)),
            lambda: run_pcor(
                gen,
                ReasonerOptions(
                    collapse=CollapseMode.ON, max_depth=64, max_entries=200_000
                ),
            ),
        ):
            r = runner()
            assert not r.truncated, (nodes, seed)
            assert r.stats.rounds_executed < 64
    elapsed = time.perf_counter() - t0
    print(
        PASS.format(
            7,
            f"3-round termination on the worked example; both engines terminate "
            f"on 110 generated graphs ({elapsed:.1f}s)",
        )
    )


def test_criterion_8_exact_solver_matches_possible_world_enumeration():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    checked = 0
    while checked < 1000:
        n = rng.randint(1, 20)
        clauses = [
            frozenset(rng.sample(range(n), rng.randint(1, min(n, 5))))
            for _ in range(rng.randint(1, 64))
        ]
        d = Dnf.from_clauses(clauses)
        w = {i: rng.uniform(0.05, 0.95) for i in range(n)}
        assert abs(probability(d, w) - brute_force_probability(d, w)) <= 1e-9
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(PASS.format(8, f"{checked} random DNFs within 1e-9 ({elapsed:.1f}s)"))


def test_criterion_9_minimal_explanation_conformance():
    t0 = time.perf_counter()
    checked_programs = 0
    checked_atoms = 0
    for seed in range(50):
        prog = normalize(parse_program(random_tiny_program_text(seed)))
        assert len(prog.facts) <= 8
        expected = explanation_map(prog)
        result = run_pr(prog)
        snap = snapshots(round_bounds(result), result.rounds)[result.rounds]
        assert {atom_key(a) for a in snap} == set(expected), seed
        for a, formula in snap.items():
            assert truth_table_equal(formula, expected[atom_key(a)]), (seed, a)
            checked_atoms += 1
        checked_programs += 1
    elapsed = time.perf_counter() - t0
    assert checked_programs >= 50
    print(
        PASS.format(
            9,
            f"{checked_programs} tiny programs, {checked_atoms} atoms match the "
            f"subset-enumeration oracle ({elapsed:.1f}s)",
        )
    )

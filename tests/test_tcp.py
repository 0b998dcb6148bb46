import pytest

from conftest import snapshots
from corpus import random_program_text
from probdatalog import (
    Dnf,
    TcpRoundLimitError,
    normalize,
    parse_atom,
    parse_program,
    tcp_fixpoint,
)


def var_of(prog, name):
    return next(f.var for f in prog.facts if str(f.fact) == name)


def dnf(prog, *clauses):
    return Dnf.from_clauses(
        [[var_of(prog, name) for name in clause] for clause in clauses]
    )


class TestRunningExampleRounds:
    """The first three rounds of the reference engine on the reachability
    program, matching the worked per-round formula table.  The formulas
    after round k are each atom's last change at or before k."""

    def test_round_one(self, running_prog):
        inst = tcp_fixpoint(running_prog)
        after = snapshots(inst.changes, inst.round)[1]
        for x, y in (("a", "b"), ("b", "c"), ("a", "c"), ("c", "b")):
            assert after[parse_atom(f"p({x},{y})")] == dnf(
                running_prog, [f"e({x},{y})"]
            )

    def test_round_two(self, running_prog):
        inst = tcp_fixpoint(running_prog)
        after = snapshots(inst.changes, inst.round)[2]
        p = running_prog
        assert after[parse_atom("p(a,b)")] == dnf(
            p, ["e(a,c)", "e(c,b)"], ["e(a,b)"]
        )
        assert after[parse_atom("p(a,c)")] == dnf(
            p, ["e(a,b)", "e(b,c)"], ["e(a,c)"]
        )
        assert after[parse_atom("p(b,b)")] == dnf(p, ["e(b,c)", "e(c,b)"])
        assert after[parse_atom("p(b,c)")] == dnf(p, ["e(b,c)"])

    def test_round_three_reaches_the_fixpoint(self, running_prog):
        inst = tcp_fixpoint(running_prog)
        assert inst.round == 3
        _, _, second, third = snapshots(inst.changes, 3)
        assert third == second
        assert all(k < 3 for history in inst.changes.values() for k, _ in history)

    def test_changes_list_each_round_that_changed_a_formula(self, running_prog):
        inst = tcp_fixpoint(running_prog)
        assert {str(a): [k for k, _ in history] for a, history in inst.changes.items()} == {
            "e(a,b)": [0], "e(b,c)": [0], "e(a,c)": [0], "e(c,b)": [0],
            "p(a,b)": [1, 2], "p(a,c)": [1, 2], "p(b,c)": [1], "p(c,b)": [1],
            "p(b,b)": [2], "p(c,c)": [2],
        }
        assert all(history[-1][1] == inst.formulas[a] for a, history in inst.changes.items())

    def test_fixpoint_round_number(self, running_prog):
        inst = tcp_fixpoint(running_prog)
        assert inst.round == 3
        assert inst.formulas[parse_atom("p(a,b)")] == dnf(
            running_prog, ["e(a,c)", "e(c,b)"], ["e(a,b)"]
        )


class TestFixpoint:
    def test_facts_only_program_keeps_initial_formulas(self):
        prog = normalize(parse_program("0.5::e(a,b).\n0.2::e(b,c)."))
        inst = tcp_fixpoint(prog)
        assert inst.round == 1
        assert inst.changes == {f.fact: [(0, Dnf.single(f.var))] for f in prog.facts}

    def test_round_limit_raises(self, running_prog):
        with pytest.raises(TcpRoundLimitError):
            tcp_fixpoint(running_prog, max_rounds=1)

    @pytest.mark.parametrize("mode", ["naive", "delta"])
    def test_round_limit_boundary(self, running_prog, mode):
        # The running example detects its fixpoint in round 3: a limit of 3
        # rounds lets that round run, a limit of 2 stops before it.
        assert tcp_fixpoint(running_prog, mode, 3).round == 3
        with pytest.raises(TcpRoundLimitError):
            tcp_fixpoint(running_prog, mode, 2)

    def test_round_limit_below_one_rejected(self, running_prog):
        with pytest.raises(ValueError):
            tcp_fixpoint(running_prog, max_rounds=0)

    def test_unknown_mode_rejected(self, running_prog):
        with pytest.raises(ValueError):
            tcp_fixpoint(running_prog, mode="eager")

    def test_naive_and_delta_agree_on_corpus(self):
        for seed in range(25):
            prog = normalize(parse_program(random_program_text(seed)))
            naive = tcp_fixpoint(prog, "naive")
            delta = tcp_fixpoint(prog, "delta")
            assert naive.formulas == delta.formulas, seed
            assert naive.round == delta.round, seed
            assert delta.instantiations <= naive.instantiations, seed

    def test_delta_skips_stale_instantiations(self, running_prog):
        naive = tcp_fixpoint(running_prog, "naive")
        delta = tcp_fixpoint(running_prog, "delta")
        assert delta.instantiations < naive.instantiations


class TestFormulasEquivalent:
    def test_equal_normal_forms_short_circuit(self):
        a = Dnf.from_clauses([[0], [1, 2]])
        assert a == Dnf.from_clauses([[0], [1, 2]])

    def test_truth_table_branch(self):
        a = Dnf.from_clauses([[0], [1]])
        b = Dnf.from_clauses([[0], [2]])
        assert a != b

    def test_probabilistic_branch_detects_difference(self):
        # 25 variables force the sampling fallback
        a = Dnf.from_clauses([[i] for i in range(25)])
        b = Dnf.from_clauses([[i] for i in range(24)] + [[0, 24]])
        assert a != b

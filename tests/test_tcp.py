import pytest

from corpus import random_program_text
from probdatalog import (
    Dnf,
    TcpRoundLimitError,
    normalize,
    parse_atom,
    parse_program,
    tcp_fixpoint,
    tcp_initial,
    tcp_step,
)


def var_of(prog, name):
    return next(f.var for f in prog.facts if str(f.fact) == name)


def dnf(prog, *clauses):
    return Dnf.from_clauses(
        [[var_of(prog, name) for name in clause] for clause in clauses]
    )


class TestRunningExampleRounds:
    """The first three rounds of the reference engine on the reachability
    program, matching the worked per-round formula table."""

    def test_round_one(self, running_prog):
        inst = tcp_step(tcp_initial(running_prog), running_prog)
        assert inst.round == 1
        for x, y in (("a", "b"), ("b", "c"), ("a", "c"), ("c", "b")):
            assert inst.formulas[parse_atom(f"p({x},{y})")] == dnf(
                running_prog, [f"e({x},{y})"]
            )

    def test_round_two(self, running_prog):
        inst = tcp_step(tcp_initial(running_prog), running_prog)
        inst = tcp_step(inst, running_prog)
        p = running_prog
        assert inst.formulas[parse_atom("p(a,b)")] == dnf(
            p, ["e(a,c)", "e(c,b)"], ["e(a,b)"]
        )
        assert inst.formulas[parse_atom("p(a,c)")] == dnf(
            p, ["e(a,b)", "e(b,c)"], ["e(a,c)"]
        )
        assert inst.formulas[parse_atom("p(b,b)")] == dnf(p, ["e(b,c)", "e(c,b)"])
        assert inst.formulas[parse_atom("p(b,c)")] == dnf(p, ["e(b,c)"])

    def test_round_three_reaches_the_fixpoint(self, running_prog):
        inst = tcp_initial(running_prog)
        for _ in range(2):
            inst = tcp_step(inst, running_prog)
        second = dict(inst.formulas)
        inst = tcp_step(inst, running_prog)
        assert inst.round == 3
        assert not inst.updated
        assert inst.formulas == second

    def test_changes_list_each_round_that_changed_a_formula(self, running_prog):
        inst = tcp_fixpoint(running_prog)
        assert {str(a): [k for k, _ in history] for a, history in inst.changes.items()} == {
            "e(a,b)": [0], "e(b,c)": [0], "e(a,c)": [0], "e(c,b)": [0],
            "p(a,b)": [1, 2], "p(a,c)": [1, 2], "p(b,c)": [1], "p(c,b)": [1],
            "p(b,b)": [2], "p(c,c)": [2],
        }
        assert all(history[-1][1] == inst.formulas[a] for a, history in inst.changes.items())

    @pytest.mark.parametrize("mode", ["naive", "delta"])
    def test_step_leaves_its_input_as_it_was(self, running_prog, mode):
        inst = tcp_step(tcp_initial(running_prog), running_prog, mode)
        before = (dict(inst.formulas), {a: list(h) for a, h in inst.changes.items()})
        tcp_step(inst, running_prog, mode)
        assert (inst.formulas, inst.changes) == before

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
        assert inst.formulas == tcp_initial(prog).formulas

    def test_round_limit_raises(self, running_prog):
        with pytest.raises(TcpRoundLimitError):
            tcp_fixpoint(running_prog, max_rounds=1)

    def test_round_limit_below_one_rejected(self, running_prog):
        with pytest.raises(ValueError):
            tcp_fixpoint(running_prog, max_rounds=0)

    def test_unknown_mode_rejected(self, running_prog):
        with pytest.raises(ValueError):
            tcp_step(tcp_initial(running_prog), running_prog, mode="eager")

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

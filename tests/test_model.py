import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import random_program_text
from probdatalog import (
    Atom,
    ParseError,
    Rule,
    RuleKind,
    atom,
    desugar_rule_probability,
    normalize,
    parse_atom,
    parse_program,
    serialize,
    tcp_fixpoint,
)
from probdatalog.model import SymbolKind, constant, predicate, variable
from probdatalog.wmc import truth_table_equal


class TestSymbols:
    def test_interning_is_bijective(self):
        assert constant("a") is constant("a")
        assert variable("X") is variable("X")
        assert predicate("p") is predicate("p")
        assert constant("a").id != constant("b").id

    def test_kinds_are_separate_namespaces(self):
        # the same text may name a constant and a predicate
        assert constant("e") is not predicate("e")
        assert constant("e").kind is SymbolKind.CONSTANT

    def test_atom_helpers(self):
        a = atom("p", "a", "X")
        assert a.args[0].kind is SymbolKind.CONSTANT
        assert a.args[1].kind is SymbolKind.VARIABLE
        assert not a.is_ground
        assert atom("p", "a", "b").is_ground
        assert str(atom("t")) == "t"

    def test_separately_built_atoms_are_interchangeable(self):
        built, parsed = atom("p", "a", "b"), parse_atom("p(a,b)")
        assert built is not parsed
        assert built == parsed and hash(built) == hash(parsed)
        table = {built: 1}
        table[parsed] = 2
        assert table == {atom("p", "a", "b"): 2}

    def test_constant_and_variable_with_same_text_differ(self):
        as_constant = Atom(predicate("p"), (constant("X"),))
        as_variable = Atom(predicate("p"), (variable("X"),))
        assert as_constant != as_variable
        assert len({as_constant, as_variable}) == 2


class TestParser:
    def test_probabilistic_fact(self):
        prog = parse_program("0.3::e(a,b).")
        (f,) = prog.facts
        assert str(f.fact) == "e(a,b)"
        assert f.prob == 0.3
        assert f.var == 0

    def test_plain_fact_gets_probability_one(self):
        prog = parse_program("e(a,b).")
        assert prog.facts[0].prob == 1.0

    def test_rule(self):
        prog = parse_program("p(X,Y) :- e(X,Y).")
        (r,) = prog.rules
        assert str(r.head) == "p(X,Y)"
        assert [str(a) for a in r.body] == ["e(X,Y)"]

    def test_query_directive(self):
        prog = parse_program("query(p(a,Y)).")
        assert [str(q) for q in prog.queries] == ["p(a,Y)"]

    def test_comments_and_blank_lines(self):
        prog = parse_program("% intro\n\n0.5::e(a,b). % trailing\n")
        assert len(prog.facts) == 1

    def test_nullary_atoms(self):
        prog = parse_program("f.\nt :- f.")
        assert prog.facts[0].fact.arity == 0
        assert prog.rules[0].head.arity == 0

    def test_arity_mismatch_is_an_error(self):
        with pytest.raises(ParseError) as err:
            parse_program("q(a,b,c).\np(X) :- q(X,Y), r(Y).")
        assert "arity" in str(err.value)
        assert err.value.line == 2

    def test_probability_out_of_range(self):
        with pytest.raises(ParseError, match="outside"):
            parse_program("1.5::e(a,b).")
        with pytest.raises(ParseError, match="outside"):
            parse_program("0::e(a,b).")

    def test_non_ground_fact_rejected(self):
        with pytest.raises(ParseError, match="ground"):
            parse_program("0.5::e(a,X).")

    def test_unsafe_rule_rejected(self):
        with pytest.raises(ParseError, match="head variable"):
            parse_program("p(X,W) :- e(X,Y).")

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_program("p(X,Y) :- e(X Y).")
        assert err.value.line == 1
        assert err.value.col > 0

    def test_rule_probability_desugars_to_dummy_fact(self):
        prog = parse_program("0.8::t(X) :- r(X,Y).\nr(a,b).")
        (rule,) = prog.rules
        assert rule.body[-1].arity == 0
        dummy = prog.facts[0]
        assert dummy.fact == rule.body[-1]
        assert dummy.prob == 0.8

    def test_parse_atom(self):
        q = parse_atom("p(a,X)")
        assert not q.is_ground
        with pytest.raises(ParseError):
            parse_atom("p(a,")

    def test_round_trip_fixed(self, running_text):
        prog = parse_program(running_text)
        assert parse_program(serialize(prog)) == prog

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_corpus(self, seed):
        prog = parse_program(random_program_text(seed))
        assert parse_program(serialize(prog)) == prog


class TestDesugar:
    def test_direct_desugaring(self):
        rule = Rule(0, atom("t", "X"), (atom("r", "X", "Y"),))
        new_rule, fact = desugar_rule_probability(rule, 0.8, taken_names={"t", "r"})
        assert new_rule.body[-1] == fact.fact
        assert fact.prob == 0.8
        assert fact.fact.arity == 0

    def test_probability_one_is_neutral(self):
        rule = Rule(0, atom("t", "X"), (atom("r", "X", "Y"),))
        _, fact = desugar_rule_probability(rule, 1.0)
        assert fact.prob == 1.0

    def test_two_rules_get_distinct_dummies(self):
        prog = parse_program("0.8::t(X) :- r(X,Y).\n0.7::v(X) :- r(X,Y).\nr(a,b).")
        d0, d1 = prog.facts[0], prog.facts[1]
        assert d0.fact.predicate is not d1.fact.predicate
        assert d0.var != d1.var

    def test_out_of_range_probability(self):
        rule = Rule(0, atom("t", "X"), (atom("r", "X", "Y"),))
        with pytest.raises(ValueError):
            desugar_rule_probability(rule, 0.0)


class TestNormalize:
    def test_running_example_only_gains_kind_tags(self, running_text):
        prog = parse_program(running_text)
        norm = normalize(prog)
        assert [r.kind for r in norm.rules] == [RuleKind.BASE, RuleKind.NONBASE]
        assert [str(r) for r in norm.rules] == [str(r) for r in prog.rules]

    def test_mixed_body_gets_database_alias(self):
        # lineage must be unchanged: same oracle formulas on both programs
        text = "0.5::e(a,b).\n0.5::e(b,b).\np(X,Y) :- e(X,Y).\nt(X) :- p(X,Y), e(X,Y)."
        prog = parse_program(text)
        norm = normalize(prog)
        rewritten = next(r for r in norm.rules if r.head.predicate.text == "t")
        assert [a.predicate.text for a in rewritten.body] == ["p", "e__d"]
        alias = next(r for r in norm.rules if r.head.predicate.text == "e__d")
        assert alias.kind is RuleKind.BASE
        raw = tcp_fixpoint(prog).formulas
        cooked = tcp_fixpoint(norm).formulas
        for a, f in raw.items():
            assert truth_table_equal(f, cooked[a])

    def test_no_rules_means_no_change(self):
        prog = parse_program("0.5::e(a,b).")
        assert normalize(prog) == prog

    def test_facts_for_derived_predicate_are_split_off(self):
        text = "0.5::t(a).\n0.5::e(a,b).\nt(X) :- e(X,X)."
        norm = normalize(parse_program(text))
        assert norm.is_normalized()
        moved = [f for f in norm.facts if f.fact.predicate.text == "t__f"]
        assert len(moved) == 1
        assert moved[0].var == 0  # fact variable is preserved
        bridge = next(r for r in norm.rules if r.body[0].predicate.text == "t__f")
        assert bridge.head.predicate.text == "t"
        assert bridge.kind is RuleKind.BASE

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_idempotent_and_partitions_predicates(self, seed):
        prog = parse_program(random_program_text(seed))
        norm = normalize(prog)
        assert norm.is_normalized()
        assert normalize(norm) == norm
        for rule in norm.rules:
            body_derived = [a.predicate in norm.head_predicates for a in rule.body]
            if rule.kind is RuleKind.BASE:
                assert not any(body_derived)
            else:
                assert all(body_derived)

    @given(st.integers(min_value=0, max_value=2_000))
    @settings(max_examples=15, deadline=None)
    def test_oracle_formulas_survive_normalization(self, seed):
        prog = parse_program(random_program_text(seed))
        raw = tcp_fixpoint(prog).formulas
        cooked = tcp_fixpoint(normalize(prog)).formulas
        original_preds = {f.fact.predicate for f in prog.facts} | {
            r.head.predicate for r in prog.rules
        }
        for a, f in raw.items():
            if a.predicate in original_preds:
                assert truth_table_equal(f, cooked[a])


def test_program_weights_and_names(running_prog):
    assert set(running_prog.weights.values()) == {0.5}
    assert running_prog.var_names[0] == "e(a,b)"

import gc
import json
import random
import re
import time
from dataclasses import FrozenInstanceError

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
    cli,
    desugar_rule_probability,
    normalize,
    parse_atom,
    parse_program,
    run_pr,
    serialize,
    tcp_fixpoint,
)
from probdatalog import model
from probdatalog.model import (
    SymbolKind,
    constant,
    groundings,
    predicate,
    variable,
)
from oracles import truth_table_equal


class TestSymbols:
    def test_interning_is_bijective(self):
        assert constant("a") is constant("a")
        assert variable("X") is variable("X")
        assert predicate("p") is predicate("p")
        assert constant("a") is not constant("b")

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
        assert built is parsed
        assert built == parsed and hash(built) == hash(parsed)
        table = {built: 1}
        table[parsed] = 2
        assert table == {atom("p", "a", "b"): 2}

    def test_constant_and_variable_with_same_text_differ(self):
        as_constant = Atom(predicate("p"), (constant("X"),))
        as_variable = Atom(predicate("p"), (variable("X"),))
        assert as_constant != as_variable
        assert len({as_constant, as_variable}) == 2


class TestAtomInterning:
    def test_equal_atoms_are_one_object(self):
        prog = parse_program("0.5::e(a,b).\np(X,Y) :- e(X,Y).\n")
        (fact,), (rule,) = prog.facts, prog.rules
        ((head, chosen),) = groundings(rule, [[fact.fact]])
        assert fact.fact is atom("e", "a", "b") is parse_atom("e(a,b)") is chosen[0]
        assert head is atom("p", "a", "b") is parse_atom("p(a,b)")
        assert rule.head is atom("p", "X", "Y") is parse_atom("p(X,Y)")
        with pytest.raises(FrozenInstanceError):
            head.args = ()

    def test_atoms_leave_the_table_with_their_last_reference(self):
        prog = normalize(parse_program(random_program_text(3)))
        gc.collect()
        before = len(model._ATOMS)
        result = run_pr(prog)
        assert len(model._ATOMS) > before  # the derived atoms
        del result
        gc.collect()
        assert len(model._ATOMS) == before


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

    # `query` names no predicate: (text, line, column of the offending token)
    @pytest.mark.parametrize(
        "text, line, col",
        [
            ("0.5::query(a).", 1, 6),
            ("0.5::query(X) :- e(X).", 1, 6),
            ("p :- query, e(a).", 1, 6),
            ("query(X) :- e(X).", 1, 1),
            ("e(a).\nquery(a) :- e(a).", 2, 1),
            ("query.", 1, 1),
            ("query :- e(a).", 1, 1),
            ("e(a).\nquery(X) :- e(X), query(X).", 2, 1),
            ("query(query(a)).", 1, 7),
        ],
    )
    def test_query_is_reserved(self, text, line, col):
        with pytest.raises(ParseError) as err:
            parse_program(text)
        assert (err.value.line, err.value.col, err.value.message) == (
            line, col, "'query' is reserved for the query directive"
        )

    def test_query_directive_and_constant_still_parse(self):
        prog = parse_program("e(query).\nquery(a).\nquery(e(query)).")
        assert [str(q) for q in prog.queries] == ["a", "e(query)"]
        with pytest.raises(ParseError, match="reserved"):
            parse_atom("query(a)")

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

    def test_repeated_fact_rejected(self):
        # one fact is one variable with one probability
        with pytest.raises(ParseError, match=r"e\(a,b\) is already given on line 1") as err:
            parse_program("0.5::e(a,b).\n0.7::e(a,b).\np(X) :- e(X,Y).")
        assert err.value.line == 2
        with pytest.raises(ParseError, match="line 2"):
            parse_program("e(a,b).\n0.5::e(a,b).\ne(b,a).")

    def test_probabilistic_rules_parse_in_linear_time(self):
        # one fresh auxiliary name per rule; 4,000 rules took about 1 s when
        # each name copied the set of taken names, so 20,000 took about 25 s
        text = "".join(f"0.5::t{i}(X) :- e(X).\n" for i in range(20_000)) + "e(a).\n"
        t0 = time.perf_counter()
        prog = parse_program(text)
        assert time.perf_counter() - t0 < 10.0
        assert len(prog.rules) == 20_000
        assert len({r.body[-1].predicate for r in prog.rules}) == 20_000

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

    # (text, line, column, message) of malformed programs.  An unexpected
    # character anywhere in a line is reported before an earlier grammar
    # error, the end of a line is one column past its last character, and
    # `\d` matches non-ASCII digits.
    @pytest.mark.parametrize(
        "text, line, col, message",
        [
            ("p(X Y) :- e(X;Y).", 1, 14, "unexpected character ';'"),
            ("\u0663::e(a).", 1, 1, "probability 3.0 outside (0,1]"),
            ("e(a)", 1, 5, "expected ':-' or '.' but found ''"),
            ("e(a). e(b).", 1, 7, "expected EOF but found 'e'"),
            ("query(p(a)", 1, 11, "expected RPAR but found ''"),
            ("query p(a).", 1, 7, "expected LPAR but found 'p'"),
            ("query(p(a)).x", 1, 13, "expected EOF but found 'x'"),
            ("query(e(a,b)) x", 1, 15, "expected DOT but found 'x'"),
            ("0.5:e(a).", 1, 4, "unexpected character ':'"),
            ("0.5 e(a).", 1, 5, "expected PROB but found 'e'"),
            ("p(a,", 1, 5, "expected term but found ''"),
            ("p(a b).", 1, 5, "expected ',' or ')' but found 'b'"),
            ("P(a).", 1, 1, "expected IDENT but found 'P'"),
            ("p(X) :- e(X) e(Y).", 1, 14, "expected ',' or '.' but found 'e'"),
            ("p(a).5", 1, 5, "expected ':-' or '.' but found '.5'"),
            ("p(_x).", 1, 3, "unexpected character '_'"),
            ("p(\u00e9).", 1, 3, "unexpected character '\u00e9'"),
            ("0.5::p(X) :- e(X) % no dot", 1, 19, "expected ',' or '.' but found ''"),
            ("p(a\nq(b;", 1, 4, "expected ',' or ')' but found ''"),
            ("  1.5::e(a).", 1, 3, "probability 1.5 outside (0,1]"),
            ("e(a).\n\te(a,b).", 2, 2, "predicate e/2 conflicts with earlier arity 1"),
            ("e(a).\n0.5::e(a).", 2, 1, "fact e(a) is already given on line 1"),
        ],
    )
    def test_error_positions(self, text, line, col, message):
        with pytest.raises(ParseError) as err:
            parse_program(text)
        assert (err.value.line, err.value.col, err.value.message) == (line, col, message)

    @pytest.mark.parametrize(
        "text, col, message",
        [("p(a) x", 6, "expected EOF but found 'x'"), ("", 1, "expected IDENT but found ''")],
    )
    def test_atom_error_positions(self, text, col, message):
        with pytest.raises(ParseError) as err:
            parse_atom(text)
        assert (err.value.line, err.value.col, err.value.message) == (1, col, message)

    @given(st.integers(min_value=0, max_value=10_000), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_whitespace_between_tokens_is_ignored(self, seed, rng):
        text = random_program_text(seed)
        spaces = [" ", "\t", "  ", "\u00a0", "\u3000"]
        spaced = []
        for line in text.splitlines():
            # every piece is a whole token: the separators, and the words between them
            pieces = [t for t in re.split(r"(::|:-|[(),]|\.$)", line) if t]
            spaced.append("".join(rng.choice(["", *spaces]) + t for t in pieces) + rng.choice(spaces))
        assert parse_program("\n".join(spaced)) == parse_program(text)


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

    def test_repeated_database_predicate_gets_one_alias(self, tmp_path, capsys):
        text = (
            "0.5::e(a,b).\n0.6::e(b,a).\np(X,Y) :- e(X,Y).\n"
            "q(X) :- p(X,Y), e(Y,X), e(X,Y).\n"
        )
        norm = normalize(parse_program(text))
        rewritten = next(r for r in norm.rules if r.head.predicate.text == "q")
        assert [a.predicate.text for a in rewritten.body] == ["p", "e__d", "e__d"]
        assert [r.head.predicate.text for r in norm.rules].count("e__d") == 1
        # each engine: q(a) and q(b) both need e(a,b) and e(b,a), 0.5 * 0.6
        path = tmp_path / "q.pl"
        path.write_text(text)
        code = cli.main(["compare", "--program", str(path), "--query", "q(X)", "--output", "json"])
        rows = json.loads(capsys.readouterr().out)["answers"]
        assert code == 0
        assert [row["fact"] for row in rows] == ["q(a)", "q(b)"]
        for row in rows:
            assert [row[e] for e in ("pr", "pcor", "tcp")] == pytest.approx([0.3] * 3, abs=1e-12)

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

    def test_fresh_names_avoid_query_predicates(self):
        text = "0.5::t(a).\n0.5::e(a,b).\nt(X) :- e(X,X).\nquery(t__f(X))."
        prog = parse_program(text)
        assert "t__f" not in {p.text for p in prog.predicates}
        norm = normalize(prog)
        assert [f.fact.predicate.text for f in norm.facts if f.var == 0] == ["t__f2"]

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


def nested_loop_join(body, candidates):
    """Reference join: every candidate of every position, matched by hand."""

    def match(pattern, fact, subst):
        if pattern.predicate is not fact.predicate:
            return None
        if len(pattern.args) != len(fact.args):
            return None
        out = dict(subst)
        for t, c in zip(pattern.args, fact.args):
            if t.kind is SymbolKind.VARIABLE:
                if out.setdefault(t, c) is not c:
                    return None
            elif t is not c:
                return None
        return out

    def rec(i, subst, chosen):
        if i == len(body):
            yield subst, chosen
            return
        for fact in candidates[i]:
            ext = match(body[i], fact, subst)
            if ext is not None:
                yield from rec(i + 1, ext, chosen + (fact,))

    return list(rec(0, {}, ()))


def random_facts(rng, pattern, consts, count):
    return [
        Atom(pattern.predicate, tuple(constant(rng.choice(consts)) for _ in pattern.args))
        for _ in range(count)
    ]


def substitute(a, subst):
    return Atom(a.predicate, tuple(subst.get(t, t) for t in a.args))


def assert_same_join(body, candidates):
    """Same ground heads and chosen facts, in the same order, as the
    reference; returns the substitutions, read back from the heads."""
    variables = list(dict.fromkeys(
        t for a in body for t in a.args if t.kind is SymbolKind.VARIABLE
    ))
    # every body variable, by first occurrence, and a constant
    rule = Rule(0, Atom(predicate("h"), (*variables, constant("k"))), tuple(body))
    expected = nested_loop_join(body, candidates)
    actual = list(groundings(rule, candidates))
    assert [head for head, _ in actual] == [
        substitute(rule.head, subst) for subst, _ in expected
    ], (body, candidates)
    for (_, chosen), (subst, ref_chosen) in zip(actual, expected):
        # the very candidate objects, each the body atom under subst
        assert len(chosen) == len(ref_chosen)
        assert all(a is b for a, b in zip(chosen, ref_chosen))
        assert chosen == tuple(substitute(a, subst) for a in body)
    return [dict(zip(variables, head.args)) for head, _ in actual]


class TestJoin:
    @pytest.mark.parametrize("seed", range(40))
    def test_corpus_rule_bodies_match_the_nested_loop(self, seed):
        prog = normalize(parse_program(random_program_text(seed)))
        rng = random.Random(seed)
        consts = ["a", "b", "c", "d"]
        for rule in prog.rules:
            for _ in range(5):
                candidates = []
                for pattern in rule.body:
                    facts = random_facts(rng, pattern, consts, rng.randint(0, 12))
                    facts += [parse_atom("zz(a)"), Atom(pattern.predicate, ())]
                    rng.shuffle(facts)
                    candidates.append(facts)
                assert_same_join(rule.body, candidates)

    def test_constants_inside_patterns(self):
        rng = random.Random(1)
        consts = ["a", "b", "c"]
        body = (atom("e", "a", "X"), atom("e", "X", "Y"), atom("f", "Y", "b"))
        for _ in range(30):
            candidates = [random_facts(rng, a, consts, 8) for a in body]
            assert_same_join(body, candidates)
        found = assert_same_join(
            body,
            [[parse_atom("e(a,b)"), parse_atom("e(c,b)")],
             [parse_atom("e(b,c)"), parse_atom("e(b,a)")],
             [parse_atom("f(c,b)"), parse_atom("f(a,c)")]],
        )
        assert found == [{variable("X"): constant("b"), variable("Y"): constant("c")}]

    def test_repeated_variable(self):
        rng = random.Random(2)
        consts = ["a", "b"]
        bodies = [
            (atom("p", "X", "X"),),
            (atom("p", "X", "Y"), atom("p", "Y", "Y")),
            (atom("p", "X", "X", "Y"), atom("q", "Y", "X")),
        ]
        for body in bodies:
            for _ in range(30):
                candidates = [random_facts(rng, a, consts, 6) for a in body]
                assert_same_join(body, candidates)
        found = assert_same_join(
            (atom("p", "X", "X"),),
            [[parse_atom("p(a,b)"), parse_atom("p(b,b)"), parse_atom("p(a,a)")]],
        )
        assert [s[variable("X")].text for s in found] == ["b", "a"]

    def test_nullary_atoms(self):
        aux, t = Atom(predicate("aux")), Atom(predicate("t"))
        body = (atom("p", "X"), aux, atom("q", "X"))
        candidates = [
            [parse_atom("p(a)"), parse_atom("p(b)")],
            [aux, t, Atom(predicate("aux"), (constant("a"),))],
            [parse_atom("q(b)"), parse_atom("q(a)")],
        ]
        found = assert_same_join(body, candidates)
        assert [s[variable("X")].text for s in found] == ["a", "b"]
        assert assert_same_join((aux,), [[t, aux, aux]]) == [{}, {}]
        assert assert_same_join((aux, t), [[aux], []]) == []

    def test_candidates_of_another_predicate_or_arity(self):
        body = (atom("e", "X", "Y"), atom("e", "Y", "Z"))
        mixed = [
            parse_atom("e(a,b)"),
            parse_atom("f(b,c)"),
            Atom(predicate("e"), (constant("b"),)),
            Atom(predicate("e"), (constant("b"), constant("c"), constant("d"))),
            parse_atom("e(b,c)"),
            Atom(predicate("e")),
        ]
        found = assert_same_join(body, [mixed, mixed])
        assert found == [
            {variable("X"): constant("a"), variable("Y"): constant("b"),
             variable("Z"): constant("c")}
        ]

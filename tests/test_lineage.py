import gc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import MAX_DEPTH, MAX_ENTRIES, RUNNING_EXAMPLE, collapse_example, reason
from corpus import corpus
from oracles import (
    atom_key,
    condition,
    evaluate,
    evaluate_all,
    explanation_map,
    has_or,
    truth_table_equal,
    unfolded_dnf,
)
from probdatalog import (
    FALSE,
    TRUE,
    Dnf,
    LineageTooLargeError,
    QueryArityError,
    ReasonerOptions,
    UnknownPredicateError,
    collapse,
    collect_lineage,
    normalize,
    parse_atom,
    parse_program,
    phi,
    round_bounds,
    run_pcor,
    run_pr,
    tcp_initial,
)
from probdatalog.derivations import DerivationEntry, Label, Leaf
from probdatalog.lineage import _absorb
from probdatalog.model import Atom, atom, match_atom, variable

clauses_strategy = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=7), min_size=0, max_size=4),
    min_size=0,
    max_size=10,
)


class TestDnf:
    def test_true_false_forms(self):
        assert FALSE.is_false and not FALSE.is_true
        assert TRUE.is_true and not TRUE.is_false
        assert Dnf.from_clauses([]) == FALSE
        assert Dnf.from_clauses([[]]) == TRUE

    def test_absorption(self):
        d = Dnf.from_clauses([[1], [1, 2], [2, 3]])
        assert d.sorted_clauses() == [(1,), (2, 3)]

    def test_operators(self):
        a, b = Dnf.single(1), Dnf.single(2)
        assert (a | b).sorted_clauses() == [(1,), (2,)]
        assert (a & b).sorted_clauses() == [(1, 2)]
        assert (a | TRUE) == TRUE
        assert (a & FALSE) == FALSE

    def test_evaluate_and_condition(self):
        d = Dnf.from_clauses([[1, 2], [3]])
        assert evaluate(d, {1, 2})
        assert not evaluate(d, {1})
        assert condition(d, 3, True) == TRUE
        assert condition(d, 3, False) == Dnf.from_clauses([[1, 2]])

    def test_json_form_is_sorted(self):
        names = {0: "e(a,b)", 1: "e(a,c)", 2: "e(c,b)"}
        d = Dnf.from_clauses([[2, 1], [0]])
        assert d.to_json(names) == [["e(a,b)"], ["e(a,c)", "e(c,b)"]]

    def test_clause_cap(self):
        left = Dnf.from_clauses([[i] for i in range(40)])
        right = Dnf.from_clauses([[100 + i] for i in range(40)])
        with pytest.raises(LineageTooLargeError):
            left.and_(right, max_clauses=1000)

    @given(clauses_strategy)
    @settings(max_examples=200, deadline=None)
    def test_absorption_preserves_the_function(self, clauses):
        normalized = Dnf.from_clauses(clauses)
        variables = sorted({v for c in clauses for v in c} | normalized.variables)
        n = len(variables)
        pos = {v: i for i, v in enumerate(variables)}
        for m in range(1 << n):
            world = {v for v in variables if m >> pos[v] & 1}
            raw = any(set(c) <= world for c in clauses)
            assert evaluate(normalized, world) == raw

    @given(clauses_strategy, st.booleans(), st.booleans())
    @example([frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})], False, False)
    @example([frozenset({1}), frozenset(), frozenset({1})], False, False)
    @example([frozenset({i}) for i in range(5)] + [frozenset({0, 4})], True, True)
    @settings(max_examples=300, deadline=None)
    def test_absorb_keeps_exactly_the_minimal_clauses(self, clauses, shared, repeated):
        if shared:  # one variable in every clause
            clauses = [c | {8} for c in clauses]
        if repeated:
            clauses = clauses + clauses[::2]
        unique = set(clauses)
        assert _absorb(clauses) == {c for c in unique if not any(k < c for k in unique)}

    @given(clauses_strategy, clauses_strategy)
    @settings(max_examples=150, deadline=None)
    def test_or_and_match_truth_tables(self, ca, cb):
        a, b = Dnf.from_clauses(ca), Dnf.from_clauses(cb)
        variables = sorted(a.variables | b.variables)
        ta, tb = evaluate_all(a, variables), evaluate_all(b, variables)
        assert np.array_equal(evaluate_all(a | b, variables), ta | tb)
        assert np.array_equal(evaluate_all(a & b, variables), ta & tb)


    @given(clauses_strategy, clauses_strategy)
    @settings(max_examples=150, deadline=None)
    def test_and_is_the_absorbed_product(self, ca, cb):
        a, b = Dnf.from_clauses(ca), Dnf.from_clauses(cb)
        product = Dnf.from_clauses(x | y for x in a.clauses for y in b.clauses)
        assert a & b == product
        assert a.and_(b, max_clauses=len(a.clauses) * len(b.clauses)) == product


class TestPhi:
    def test_and_entry_absorbs_like_a_fold(self):
        root = atom("p")

        def either(*vs):
            return collapse([DerivationEntry(root, Label.AND, (Leaf(v),), 0) for v in vs])

        children = (either(0, 1), either(0, 1), Leaf(4), either(2, 3))
        top = DerivationEntry(root, Label.AND, children, 0)
        fold = TRUE
        for child in children:
            fold = fold & phi(child)
        assert phi(top) == fold
        assert fold.sorted_clauses() == [(0, 2, 4), (0, 3, 4), (1, 2, 4), (1, 3, 4)]
        # the fold's largest step is 2 x 2 once (0|1) & (0|1) is absorbed
        assert phi(top, max_clauses=4) == fold
        with pytest.raises(LineageTooLargeError):
            phi(top, max_clauses=3)

    def test_leaf_conjunction(self):
        e = DerivationEntry(atom("p", "a", "b"), Label.AND, (Leaf(2), Leaf(3)), 0)
        assert phi(e).sorted_clauses() == [(2, 3)]

    def test_or_entry_is_union(self):
        root = atom("p", "a", "b")
        t1 = DerivationEntry(root, Label.AND, (Leaf(0),), 0)
        t7 = DerivationEntry(root, Label.AND, (Leaf(2), Leaf(3)), 0)
        assert phi(collapse([t1, t7])).sorted_clauses() == [(0,), (2, 3)]

    def test_absorption_inside_phi(self):
        root = atom("p", "a", "b")
        t1 = DerivationEntry(root, Label.AND, (Leaf(0),), 0)
        t2 = DerivationEntry(root, Label.AND, (Leaf(0), Leaf(1)), 0)
        assert phi(collapse([t1, t2])).sorted_clauses() == [(0,)]

    def test_phi_of_collapsed_equals_union_of_constituents(self):
        from conftest import collapse_example

        prog = normalize(parse_program(collapse_example(4)))
        result = run_pr(prog)
        entries = next(
            es
            for s in result.stores.values()
            for root, es in s.by_root.items()
            if len(es) > 1
        )
        merged = collapse(entries)
        expected = phi(entries[0])
        for e in entries[1:]:
            expected = expected | phi(e)
        assert phi(merged) == expected

    def test_entry_with_an_or_below_has_no_clause_and_recurses(self):
        root = atom("p")
        plain = DerivationEntry(root, Label.AND, (Leaf(1), Leaf(2)), 0)
        alts = collapse([DerivationEntry(root, Label.AND, (Leaf(0),), 0), plain])
        top = DerivationEntry(root, Label.AND, (alts, Leaf(3)), 0)
        memo = {}
        assert phi(top, memo=memo) == unfolded_dnf(top)
        assert phi(top).sorted_clauses() == [(0, 3), (1, 2, 3)]
        assert top._clause is None and alts._clause is None
        assert plain._clause == frozenset({1, 2})
        # the recursion memoizes the entries above the OR entry, not plain ones
        assert set(memo) == {id(top), id(alts)}

    def test_equal_clauses_are_one_object(self):
        # unfiltered, the cycle b -> c -> b derives p(a,b) again and again
        # from the same facts, so one node builds equal clauses
        prog = normalize(parse_program(RUNNING_EXAMPLE))
        result = run_pr(prog, ReasonerOptions(redundancy_filter=False, max_depth=4))
        repeats = 0
        for store in result.stores.values():
            clauses = [e._clause for e in store.entries]
            assert len(set(map(id, clauses))) == len(set(clauses))
            repeats += len(clauses) - len(set(clauses))
        assert repeats

    @pytest.mark.parametrize("mode", ["off", "on"])
    def test_plain_entry_clause_is_its_unfolded_lineage(self, mode):
        checked = 0
        for text in AGGREGATION_PROGRAMS[:10] + [collapse_example(4)]:
            prog = normalize(parse_program(text))
            result = reason(prog, mode)
            for store in result.stores.values():
                for e in store.entries:
                    if has_or(e):
                        assert e._clause is None
                    else:
                        assert Dnf(frozenset({e._clause})) == unfolded_dnf(e)
                        checked += 1
                    assert phi(e) == unfolded_dnf(e)
        assert checked

    @pytest.mark.parametrize("mode", ["on", "auto"])
    def test_lineage_leaves_no_reference_cycles(self, mode):
        # two-terminal reachability over a 3x5 layered DAG, where collapsing
        # puts OR entries below p(s,t); a closure that calls itself would
        # leave a cycle holding its memo after every call
        layers = [["s"], *([f"v{k}_{j}" for j in range(5)] for k in range(3)), ["t"]]
        edges = [(u, v) for above, below in zip(layers, layers[1:]) for u in above for v in below]
        prog = normalize(parse_program(
            "".join(f"0.5::e({u},{v}).\n" for u, v in edges)
            + "p(X,Y) :- e(X,Y).\np(X,Y) :- p(X,Z), e(Z,Y).\n"
        ))
        result = reason(prog, mode)
        query = parse_atom("p(s,t)")
        (entry, *_) = [
            e for s in result.stores.values() for e in s.by_root.get(query, ()) if has_or(e)
        ]
        gc.collect()
        gc.disable()
        try:
            collect_lineage(result, prog, query)
            after_collect = gc.collect()
            phi(entry)
            after_phi = gc.collect()
        finally:
            gc.enable()
        assert (after_collect, after_phi) == (0, 0)

    def test_clause_guard_raises_structured_error(self):
        root = atom("big")
        alts = [
            collapse(
                [DerivationEntry(root, Label.AND, (Leaf(i * 40 + j),), 0) for j in range(40)]
            )
            for i in range(3)
        ]
        top = DerivationEntry(root, Label.AND, tuple(alts), 0)
        with pytest.raises(LineageTooLargeError):
            phi(top, max_clauses=1000)


class TestCollectLineage:
    def test_running_example_lineage(self, running_prog):
        result = run_pr(running_prog)
        (ans,) = collect_lineage(result, running_prog, parse_atom("p(a,b)"))
        assert ans.lineage.to_json(running_prog.var_names) == [
            ["e(a,b)"],
            ["e(a,c)", "e(c,b)"],
        ]

    def test_open_query_enumerates_model_instances(self, running_prog):
        result = run_pr(running_prog)
        answers = collect_lineage(result, running_prog, parse_atom("p(X,Y)"))
        # the five worked-example atoms plus p(c,c), which the rules entail
        assert [str(a.fact) for a in answers] == [
            "p(a,b)",
            "p(a,c)",
            "p(b,b)",
            "p(b,c)",
            "p(c,b)",
            "p(c,c)",
        ]

    def test_partially_bound_query(self, running_prog):
        result = run_pr(running_prog)
        answers = collect_lineage(result, running_prog, parse_atom("p(a,Y)"))
        assert [str(a.fact) for a in answers] == ["p(a,b)", "p(a,c)"]

    def test_database_fact_contributes_its_own_variable(self, running_prog):
        result = run_pr(running_prog)
        (ans,) = collect_lineage(result, running_prog, parse_atom("e(a,b)"))
        assert ans.lineage == Dnf.single(0)

    @pytest.mark.parametrize(
        "rules", ["", "p(X,Y) :- e(X,Y).\np(X,Y) :- p(X,Z), p(Z,Y).\n"],
        ids=["no-rules", "reachability"],
    )
    def test_database_is_the_depth_zero_store(self, rules):
        prog = normalize(parse_program("0.5::e(a,b).\n0.25::e(b,c).\n0.5::f(a).\n" + rules))
        result = run_pr(prog)
        assert round_bounds(result)[0] == tcp_initial(prog).formulas
        answers = collect_lineage(result, prog, parse_atom("e(X,Y)"))
        assert [(str(a.fact), a.lineage) for a in answers] == [
            ("e(a,b)", Dnf.single(0)),
            ("e(b,c)", Dnf.single(1)),
        ]

    def test_unknown_predicate(self, running_prog):
        result = run_pr(running_prog)
        with pytest.raises(UnknownPredicateError):
            collect_lineage(result, running_prog, parse_atom("nosuch(X)"))

    def test_query_with_another_arity(self, running_prog):
        result = run_pr(running_prog)
        with pytest.raises(ValueError, match=r"^query p\(X\): predicate arity is 2$") as err:
            collect_lineage(result, running_prog, parse_atom("p(X)"))
        assert err.type is QueryArityError

    def test_underivable_predicate_yields_no_answers(self):
        prog = normalize(
            parse_program("0.5::e(a,b).\np(X,Y) :- e(X,Y).\nu(X) :- p(X,X).")
        )
        result = run_pr(prog)
        assert collect_lineage(result, prog, parse_atom("u(X)")) == []

    def test_underivable_ground_query_yields_no_answers(self, running_prog):
        result = run_pr(running_prog)
        assert collect_lineage(result, running_prog, parse_atom("p(b,a)")) == []

    def test_certain_facts_participate_in_lineage(self):
        from probdatalog import probability

        prog = normalize(
            parse_program("e(a,b).\n0.5::e(b,c).\np(X,Y) :- e(X,Y).\np(X,Y) :- p(X,Z), p(Z,Y).")
        )
        result = run_pr(prog)
        (ans,) = collect_lineage(result, prog, parse_atom("p(a,c)"))
        # the certain fact keeps its variable in the clause ...
        assert ans.lineage.to_json(prog.var_names) == [["e(a,b)", "e(b,c)"]]
        # ... and the solver conditions it away
        assert probability(ans.lineage, prog.weights) == pytest.approx(0.5, abs=1e-15)


class TestExplanationOracle:
    @pytest.mark.parametrize(
        "text",
        [
            "0.5::e(a,b).\n0.5::e(b,c).\n0.5::e(a,c).\np(X,Y) :- e(X,Y).\n"
            "p(X,Y) :- p(X,Z), p(Z,Y).",
            "0.6::e(a,b).\n0.4::e(b,a).\np(X,Y) :- e(X,Y).\n"
            "p(X,Y) :- p(X,Z), p(Z,Y).\nt(X) :- p(X,X).",
            "0.5::q(a,b1).\n0.5::q(a,b2).\n0.5::s(a,b1).\nr(X,Y) :- q(X,Y).\n"
            "t(X) :- r(X,Y).\nr(X,Y) :- t(X), s(X,Y).",
        ],
    )
    def test_lineage_matches_minimal_explanations(self, text):
        prog = normalize(parse_program(text))
        result = run_pr(prog)
        expected = explanation_map(prog)
        checked = 0
        for rule in prog.rules:
            head = rule.head
            pattern = parse_atom(
                head.predicate.text
                + ("(" + ",".join(f"V{i}" for i in range(head.arity)) + ")" if head.arity else "")
            )
            for ans in collect_lineage(result, prog, pattern):
                assert truth_table_equal(ans.lineage, expected[atom_key(ans.fact)])
                checked += 1
        assert checked


def fold_collect(result, prog, query, memo):
    """Reference: every answer's lineage as a pairwise `or_` fold of its
    entries' unfolded lineage, scanning every store once per answer."""
    fact_var = {f.fact: f.var for f in prog.facts}
    instances = {a for a in fact_var if match_atom(query, a, {}) is not None}
    for store in result.stores.values():
        instances.update(r for r in store.by_root if match_atom(query, r, {}) is not None)
    out = {}
    for inst in instances:
        dnf = Dnf.single(fact_var[inst]) if inst in fact_var else FALSE
        for store in result.stores.values():
            for e in store.by_root.get(inst, ()):
                dnf = dnf.or_(unfolded_dnf(e, memo))
        out[inst] = dnf
    return out


def fold_snapshot(result, prog, k, memo):
    out = {f.fact: Dnf.single(f.var) for f in prog.facts}
    for node_id, store in result.stores.items():
        if result.graph.node(node_id).depth > k:
            continue
        for root, entries in store.by_root.items():
            acc = out.get(root, FALSE)
            for e in entries:
                acc = acc.or_(unfolded_dnf(e, memo))
            out[root] = acc
    return out


def open_queries(prog):
    arity = {r.head.predicate: r.head.arity for r in prog.rules}
    arity.update((f.fact.predicate, f.fact.arity) for f in prog.facts)
    return [
        Atom(p, tuple(variable(f"X{i}") for i in range(n)))
        for p, n in sorted(arity.items(), key=lambda kv: kv[0].text)
    ]


AGGREGATION_PROGRAMS = corpus(25, seed=3) + [collapse_example(30)]


def check_one_pass(result, prog):
    """`collect_lineage` (at a fixpoint) and every round's snapshot equal
    their `or_` folds over the unfolded lineage."""
    memo = {}
    if result.stop_reason == "fixpoint":
        for query in open_queries(prog):
            answers = collect_lineage(result, prog, query)
            assert [a.fact for a in answers] == sorted(
                (a.fact for a in answers), key=Atom.sort_key
            )
            assert {a.fact: a.lineage for a in answers} == fold_collect(
                result, prog, query, memo
            )
    for k, snap in enumerate(round_bounds(result)):
        assert snap == fold_snapshot(result, prog, k, memo)


class TestOnePassAggregation:
    @pytest.mark.parametrize("text", AGGREGATION_PROGRAMS)
    @pytest.mark.parametrize("runner", [run_pr, run_pcor])
    def test_matches_or_fold(self, text, runner):
        prog = normalize(parse_program(text))
        # over 10x the most a run needs: 500 entries, 7 rounds; run_pr
        # overrides the collapse mode with `off`
        result = runner(prog, ReasonerOptions(
            collapse="auto", max_entries=MAX_ENTRIES, max_depth=MAX_DEPTH
        ))
        stop_reason = result.stop_reason  # a result's repr is too long to render
        assert stop_reason == "fixpoint"
        check_one_pass(result, prog)

    @pytest.mark.parametrize("text", AGGREGATION_PROGRAMS)
    @pytest.mark.parametrize("runner, options", [
        (run_pcor, dict(collapse="on", max_entries=MAX_ENTRIES, max_depth=MAX_DEPTH)),
        # an unfiltered run stops at its depth bound; in 4 rounds the runs
        # allocate at most 4,466 entries (corpus program 9, collapse off)
        (run_pr, dict(redundancy_filter=False, max_depth=4, max_entries=50_000)),
        (run_pcor, dict(collapse="on", redundancy_filter=False, max_depth=4, max_entries=50_000)),
    ], ids=["on", "unfiltered-off", "unfiltered-on"])
    def test_matches_or_fold_in_every_mode(self, text, runner, options):
        prog = normalize(parse_program(text))
        result = runner(prog, ReasonerOptions(**options))
        stop_reason = result.stop_reason
        assert stop_reason == "fixpoint" or (
            stop_reason == "max_depth" and "redundancy_filter" in options
        )
        check_one_pass(result, prog)

    def test_clause_cap_applies_to_the_absorbed_set(self):
        text = "0.5::a.\n" + "".join(f"0.5::b(c{i}).\n" for i in range(5))
        prog = normalize(parse_program(text + "t :- a.\nt :- a, b(X).\n"))
        # six clauses are gathered; `a` absorbs the five `a & b(i)`
        (ans,) = collect_lineage(run_pr(prog), prog, parse_atom("t"), max_clauses=1)
        assert ans.lineage.to_json(prog.var_names) == [["a"]]

        n = 12
        prog = normalize(parse_program(collapse_example(n)))
        result = run_pr(prog)
        (ans,) = collect_lineage(result, prog, parse_atom("t(a)"), max_clauses=n)
        assert len(ans.lineage.clauses) == n
        with pytest.raises(LineageTooLargeError):
            collect_lineage(result, prog, parse_atom("t(a)"), max_clauses=n - 1)

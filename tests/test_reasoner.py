from collections import Counter

import pytest

from conftest import collapse_example, path_program, reason
from corpus import random_program_text
from probdatalog import (
    CollapseMode,
    IncompleteReasoningError,
    ReasonerOptions,
    chain_program,
    collect_lineage,
    normalize,
    parse_atom,
    parse_program,
    probability,
    reasoner,
    round_bounds,
    run_pcor,
    run_pr,
)
from oracles import has_or
from probdatalog import graph
from probdatalog.lineage import Dnf
from probdatalog.model import RuleKind


def lineage_json(result, prog, query):
    return {
        str(a.fact): a.lineage.to_json(prog.var_names)
        for a in collect_lineage(result, prog, parse_atom(query))
    }


class TestRunPr:
    def test_running_example_terminates_in_three_rounds(self, running_prog):
        result = reason(running_prog)
        assert result.stats.rounds_executed == 3
        assert result.rounds == 2
        assert not result.truncated
        live = {n.id for n in result.graph.live_nodes()}
        assert live == {0, 1}
        removed = {n.id for n in result.graph.nodes if n.removed}
        assert removed == {2, 3, 4}
        sizes = result.live_store_sizes()
        assert sizes[0] == 4
        # the second node holds the three compositions listed in the worked
        # example plus p(c,c), which the same join rules force
        assert sizes[1] == 4

    def test_facts_only_program(self):
        prog = normalize(parse_program("0.5::e(a,b).\n0.7::e(b,c)."))
        result = reason(prog)
        assert result.rounds == 0
        assert list(result.graph.live_nodes()) == []
        assert not result.truncated

    def test_collapse_example_small(self):
        prog = normalize(parse_program(collapse_example(3)))
        result = reason(prog)
        assert not result.truncated
        t_atom, r_atom = parse_atom("t(a)"), parse_atom("r(a,b1)")
        t_counts = [len(s.by_root.get(t_atom, ())) for s in result.stores.values()]
        r_counts = [len(s.by_root.get(r_atom, ())) for s in result.stores.values()]
        assert max(t_counts) == 3  # one stored tree per q-fact
        assert sorted(c for c in r_counts if c) == [1, 2]  # base fact + N-1 loops

    def test_requires_normalized_program(self):
        prog = parse_program("0.5::e(a,b).\np(X,Y) :- e(X,Y).")
        with pytest.raises(ValueError):
            run_pr(prog)


class TestRunPcor:
    def test_collapse_on_stores_single_entries(self):
        prog = normalize(parse_program(collapse_example(50)))
        result = reason(prog, "on")
        sizes = result.live_store_sizes()
        t_atom, r_atom = parse_atom("t(a)"), parse_atom("r(a,b1)")
        t_node = next(
            s for s in result.stores.values() if t_atom in s.by_root
        )
        assert len(t_node.by_root[t_atom]) == 1
        assert has_or(t_node.by_root[t_atom][0])
        r_node = next(
            s
            for s in result.stores.values()
            if r_atom in s.by_root and s.owner != 0
        )
        assert len(r_node.by_root[r_atom]) == 1

    def test_collapse_off_is_rejected(self, running_prog):
        with pytest.raises(ValueError):
            run_pcor(running_prog, ReasonerOptions(collapse=CollapseMode.OFF))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(threshold=1), "threshold must be >= 2"),
            (dict(max_depth=0), "max_depth must be >= 1"),
            (dict(max_entries=-1), "max_entries must be >= 0"),
            (dict(redundancy_filter=False), "requires max_depth"),
            (dict(collapse="sometimes"), "is not a valid CollapseMode"),
        ],
        ids=["threshold", "max_depth", "max_entries", "unfiltered", "collapse"],
    )
    def test_invalid_options_are_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ReasonerOptions(**kwargs)

    def test_auto_below_threshold_behaves_like_plain(self, running_prog):
        plain = reason(running_prog)
        auto = reason(running_prog, "auto")
        assert plain.live_store_sizes() == auto.live_store_sizes()
        assert auto.stats.total("or_entries") == 0
        assert plain.stats.rounds_executed == auto.stats.rounds_executed

    def test_same_termination_round_as_plain_on_cyclic_graph(self):
        lines = []
        for u, v in [("c", "l1"), ("c", "l2"), ("c", "l3")]:
            lines += [f"0.5::e({u},{v}).", f"0.5::e({v},{u})."]
        lines += ["p(X,Y) :- e(X,Y).", "p(X,Y) :- p(X,Z), p(Z,Y)."]
        prog = normalize(parse_program("\n".join(lines)))
        plain = reason(prog)
        collapsed = reason(prog, "on")
        assert not plain.truncated and not collapsed.truncated
        assert plain.stats.rounds_executed == collapsed.stats.rounds_executed

    def test_collapsed_lineage_matches_plain(self):
        prog = normalize(parse_program(collapse_example(6)))
        plain = reason(prog)
        collapsed = reason(prog, "on")
        for query in ("r(X,Y)", "t(X)"):
            assert lineage_json(plain, prog, query) == lineage_json(
                collapsed, prog, query
            )


class TestResourceGuards:
    def test_max_depth_truncates(self, running_prog):
        result = run_pr(running_prog, ReasonerOptions(max_depth=1))
        assert result.truncated
        assert result.stats.rounds_executed == 1
        with pytest.raises(IncompleteReasoningError):
            collect_lineage(result, running_prog, parse_atom("p(a,b)"))

    def test_max_depth_reaching_fixpoint_is_not_truncated(self, running_prog):
        result = run_pr(running_prog, ReasonerOptions(max_depth=10))
        assert not result.truncated

    def test_max_entries_truncates(self, running_prog):
        result = run_pr(running_prog, ReasonerOptions(max_entries=2))
        assert result.truncated
        assert result.stats.per_round

    def test_entry_budget_counts_or_entries(self):
        # instantiate_node's budget covers AND entries only; the check after
        # the store loop is what stops a run on the OR entries collapsing
        # allocates.  Without it this run stores 8 entries in 3 rounds.
        prog = normalize(parse_program(collapse_example(6)))
        result = run_pcor(prog, ReasonerOptions(collapse="on", max_entries=13))
        assert result.stop_reason == "max_entries"
        assert sum(result.live_store_sizes().values()) == 7
        assert result.stats.rounds_executed == 2

    @pytest.mark.parametrize(
        "text",
        [chain_program(8, 0)] + [random_program_text(seed) for seed in range(40)],
        ids=["chain8"] + [f"corpus{seed}" for seed in range(40)],
    )
    def test_entry_budget_bounds_the_node_count(self, text):
        # Every non-base node has a grounding, and each grounding allocates
        # an entry, so max_entries caps the nodes created too.  On a
        # truncated run the growth join's budget check keeps that so.
        prog = normalize(parse_program(text))

        def nonbase(result):
            return sum(1 for n in result.graph.nodes if n.rule.kind is RuleKind.NONBASE)

        for mode in CollapseMode:
            for cap in (1, 5, 20, 100, 500):
                opts = ReasonerOptions(collapse=mode, max_entries=cap)
                assert nonbase(reasoner._run(prog, opts)) <= cap
            result = reason(prog, mode)
            assert nonbase(result) <= result.stats.total("entries_allocated")

    def test_entry_budget_bounds_the_growth_join(self, monkeypatch):
        # One q node would join 700 r facts with 700 s facts; the round's
        # groundings are charged as the join yields them, so the run stops
        # after 1,000 of the 490,000 instead of building them all.
        n, left = 700, 1000
        text = "\n".join(
            [f"0.5::a(c{i}).\n0.5::b(c{i})." for i in range(n)]
            + ["r(X) :- a(X).", "s(X) :- b(X).", "q(X,Y) :- r(X), s(Y)."]
        )
        yielded, groundings = 0, graph.groundings

        def counted(rule, candidates):
            nonlocal yielded
            for found in groundings(rule, candidates):
                yielded += 1
                yield found

        monkeypatch.setattr(graph, "groundings", counted)
        prog = normalize(parse_program(text))
        result = run_pr(prog, ReasonerOptions(max_entries=2 * n + left))
        assert result.stop_reason == "max_entries"
        assert result.stats.rounds_executed == 2
        assert len(result.graph.nodes) == 2  # no node of the partial round
        assert yielded <= left + 1

    def test_snapshots_survive_truncation(self, running_prog):
        result = run_pr(running_prog, ReasonerOptions(max_depth=1))
        snap = round_bounds(result)[1]
        assert snap[parse_atom("p(a,b)")] == Dnf.single(0)


class TestSnapshots:
    def test_round_one_lineage(self, running_prog):
        result = reason(running_prog)
        snap = round_bounds(result)[1]
        assert snap[parse_atom("p(a,b)")].to_json(running_prog.var_names) == [["e(a,b)"]]

    def test_round_two_lineage(self, running_prog):
        result = reason(running_prog)
        snap = round_bounds(result)[2]
        assert snap[parse_atom("p(a,b)")].to_json(running_prog.var_names) == [
            ["e(a,b)"],
            ["e(a,c)", "e(c,b)"],
        ]

    def test_final_snapshot_equals_collected_lineage(self, running_prog):
        result = reason(running_prog)
        snap = round_bounds(result)[result.rounds]
        for ans in collect_lineage(result, running_prog, parse_atom("p(X,Y)")):
            assert snap[ans.fact] == ans.lineage

    @pytest.mark.parametrize("mode", ["off", "on", "auto"])
    def test_snapshot_of_some_atoms_is_the_full_one_restricted(self, mode):
        # what `run --bounds` reads: the answers' entries, every round
        for seed in range(40):
            prog = normalize(parse_program(random_program_text(seed)))
            result = reason(prog, mode)
            wanted = {a.fact for a in collect_lineage(result, prog, parse_atom("p(a,X)"))}
            wanted.add(parse_atom("p(z,z)"))  # in no store
            assert round_bounds(result, wanted) == [
                {a: d for a, d in full.items() if a in wanted} for full in round_bounds(result)
            ]

    def test_bounds_read_each_store_once(self):
        # A work count, not a time: a snapshot per round that scanned the
        # stores would read each of them 302 times here.
        prog = path_program(300)
        result = run_pr(prog, ReasonerOptions(max_depth=400))
        assert result.stop_reason == "fixpoint" and result.rounds == 301
        reads = Counter()

        def counted(name):
            def method(self, *args):
                reads[id(self)] += 1
                return getattr(dict, name)(self, *args)
            return method

        read = type("Read", (dict,), {
            name: counted(name)
            for name in ("__iter__", "__getitem__", "get", "items", "keys", "values")
        })
        for store in [result.facts, *result.stores.values()]:
            store.by_root = read(store.by_root)
        answers = {a.fact for a in collect_lineage(result, prog, parse_atom("r(X)"))}
        reads.clear()
        bounds = round_bounds(result, answers)
        assert len(bounds) == 302 and len(bounds[-1]) == 301
        assert len(reads) == len(result.stores) + 1
        assert set(reads.values()) == {1}

    def test_snapshot_probabilities_are_monotone(self):
        for seed in range(6):
            prog = normalize(parse_program(random_program_text(seed)))
            result = reason(prog)
            snaps = round_bounds(result)[1:]
            atoms = set().union(*(set(s) for s in snaps)) if snaps else set()
            for a in atoms:
                probs = [
                    probability(s.get(a, Dnf.from_clauses([])), prog.weights)
                    for s in snaps
                ]
                for lo, hi in zip(probs, probs[1:]):
                    assert lo <= hi + 1e-12


def test_deterministic_stats_and_lineage(running_prog):
    r1, r2 = reason(running_prog), reason(running_prog)
    assert [vars(a).copy() for a in r1.stats.per_round] == [
        vars(a).copy() for a in r2.stats.per_round
    ]
    assert lineage_json(r1, running_prog, "p(X,Y)") == lineage_json(
        r2, running_prog, "p(X,Y)"
    )

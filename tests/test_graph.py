import weakref
from collections import Counter
from dataclasses import replace

import pytest

from conftest import (
    RUNNING_EXAMPLE,
    FilingIndex,
    collapse_example,
    grow_round_one,
    path_program,
    reason,
    root_index,
)
from corpus import corpus
from oracles import grow_unpruned, k_compatible, node_groundings
from probdatalog import (
    CollapseMode,
    ReasonerOptions,
    chain_program,
    collect_lineage,
    inductive_step,
    instantiate_node,
    normalize,
    parse_atom,
    parse_program,
    powerlaw_program,
    reasoner,
    run_pr,
    run_pcor,
)
from probdatalog.derivations import FactIndex, NodeStore
from probdatalog.graph import EgNode, ExecutionGraph, RootIndex
from probdatalog.model import Atom, RuleKind


def running_index(g, prog, k):
    """The root index round k of a plain run finds, fed afresh."""
    result = run_pr(prog)
    roots = {v: s.by_root for v, s in result.stores.items()}
    return root_index(g, {None: result.facts.by_root, **roots}, k)


def build_running_graph(prog, depth):
    g = grow_round_one(prog)
    for k in range(2, depth + 1):
        inductive_step(g, prog.rules, k, running_index(g, prog, k))
    return g


class TestRoundOne:
    """Round 1 is a growth round over the database, the depth-0 store."""

    def test_running_example_has_one_base_node(self, running_prog):
        g = ExecutionGraph()
        added = inductive_step(g, running_prog.rules, 1, running_index(g, running_prog, 1))
        assert [(n.id, n.rule.id, n.depth, n.parents) for n, _ in added] == [(0, 0, 1, ())]
        assert g.depth() == 1
        # the base rule's groundings: one per e fact, in lexicographic order
        assert [str(head) for head, _ in added[0][1]] == [
            "p(a,b)", "p(a,c)", "p(b,c)", "p(c,b)",
        ]

    def test_collapse_example_base_nodes(self):
        text = (
            "0.5::q(a,b1).\n0.5::s(a,b1).\n"
            "r(X,Y) :- q(X,Y).\nt(X) :- r(X,Y).\nr(X,Y) :- t(X), s(X,Y)."
        )
        g = grow_round_one(normalize(parse_program(text)))
        labels = [n.rule.head.predicate.text for n in g.live_nodes()]
        # among the three authored rules only the q-bodied one is base; the
        # other depth-1 node belongs to the alias rule normalize introduced
        assert labels.count("r") == 1
        assert sorted(labels) == ["r", "s__d"]

    def test_empty_rule_set(self, running_prog):
        g = grow_round_one(replace(running_prog, rules=()))
        assert g.depth() == 0
        assert list(g.live_nodes()) == []

    def test_base_rule_without_facts_makes_no_node(self):
        plain = RUNNING_EXAMPLE
        extra = plain + "p(X,Y) :- f(X,Y).\n"
        prog, extended = (normalize(parse_program(t)) for t in (plain, extra))
        g = grow_round_one(extended)
        assert [n.rule.id for n in g.nodes] == [0]
        query = parse_atom("p(X,Y)")
        for run in (run_pr, run_pcor):
            a, b = run(prog), run(extended)
            assert [(n.rule.id, n.parents, n.removed) for n in b.graph.nodes] == [
                (n.rule.id, n.parents, n.removed) for n in a.graph.nodes
            ]
            assert collect_lineage(b, extended, query) == collect_lineage(a, prog, query)

    def test_round_one_truncation_adds_no_node(self, running_prog):
        # four e facts, four groundings: the growth join stops before any
        # node is added, as in a partial later round
        result = run_pr(running_prog, ReasonerOptions(max_entries=2))
        assert result.stop_reason == "max_entries"
        assert result.stats.rounds_executed == 1
        assert result.graph.nodes == [] and result.stores == {}

    def test_later_rounds_add_no_base_node(self, running_prog):
        g = build_running_graph(running_prog, 3)
        assert [n.id for n in g.nodes if n.rule.kind is RuleKind.BASE] == [0]


class TestKCompatible:
    def test_round_two_tuple(self, running_prog):
        g = grow_round_one(running_prog)
        r2 = running_prog.rules[1]
        assert k_compatible(g, r2, 2) == [(0, 0)]

    def test_round_three_tuples(self, running_prog):
        g = build_running_graph(running_prog, 2)
        r2 = running_prog.rules[1]
        assert k_compatible(g, r2, 3) == [(0, 1), (1, 0), (1, 1)]

    def test_no_matching_nodes(self, running_prog):
        prog = normalize(
            parse_program("0.5::e(a,b).\n0.5::f(a).\np(X,Y) :- e(X,Y).\nt(X) :- t(X), p(X,X).")
        )
        # t is derived but nothing ever produces it at depth 1
        g = grow_round_one(prog)
        t_rule = next(r for r in prog.rules if r.head.predicate.text == "t")
        assert k_compatible(g, t_rule, 2) == []


class TestInductiveStep:
    def test_round_two_adds_one_node(self, running_prog):
        g = grow_round_one(running_prog)
        added = inductive_step(g, running_prog.rules, 2, running_index(g, running_prog, 2))
        assert [(n.id, n.parents, n.depth) for n, _ in added] == [(1, (0, 0), 2)]

    def test_round_three_adds_three_nodes(self, running_prog):
        g = build_running_graph(running_prog, 2)
        added = inductive_step(g, running_prog.rules, 3, running_index(g, running_prog, 3))
        assert [(n.id, n.parents) for n, _ in added] == [
            (2, (0, 1)),
            (3, (1, 0)),
            (4, (1, 1)),
        ]
        assert all(n.depth == 3 for n, _ in added)

    def test_no_compatible_tuples_leaves_graph_unchanged(self, running_prog):
        g = grow_round_one(running_prog)
        before = len(g.nodes)
        # depth 3 needs a depth-2 parent, none exists yet
        assert inductive_step(g, running_prog.rules, 3, running_index(g, running_prog, 3)) == []
        assert len(g.nodes) == before
        assert g.depth() == 1

    def test_edges_respect_predicate_matching(self, running_prog):
        g = build_running_graph(running_prog, 3)
        for n in g.live_nodes():
            for pos, parent in enumerate(n.parents):
                assert (
                    g.node(parent).rule.head.predicate
                    is n.rule.body[pos].predicate
                )

    def test_fresh_nodes_have_a_parent_at_previous_depth(self, running_prog):
        g = build_running_graph(running_prog, 3)
        for n in g.live_nodes():
            if n.rule.kind is RuleKind.NONBASE:
                assert any(g.node(p).depth == n.depth - 1 for p in n.parents)

    def test_construction_is_deterministic(self, running_prog):
        g1 = build_running_graph(running_prog, 3)
        g2 = build_running_graph(running_prog, 3)
        assert g1.dump() == g2.dump()


class TestRemoveNode:
    def test_depth_reverts_when_last_deep_node_goes(self, running_prog):
        g = build_running_graph(running_prog, 2)
        assert g.depth() == 2
        g.remove_node(1)
        assert g.depth() == 1

    def test_removing_all_round_three_nodes(self, running_prog):
        g = build_running_graph(running_prog, 3)
        for nid in (2, 3, 4):
            g.remove_node(nid)
        assert g.depth() == 2

    def test_removed_nodes_leave_enumeration(self, running_prog):
        g = build_running_graph(running_prog, 2)
        g.remove_node(1)
        r2 = running_prog.rules[1]
        assert k_compatible(g, r2, 3) == []

    def test_double_removal_is_an_error(self, running_prog):
        g = grow_round_one(running_prog)
        g.remove_node(0)
        with pytest.raises(KeyError):
            g.remove_node(0)

    def test_unknown_id_is_an_error(self, running_prog):
        g = grow_round_one(running_prog)
        with pytest.raises(KeyError):
            g.remove_node(99)


GROWTH_PROGRAMS = (
    [(f"corpus{i}", text) for i, text in enumerate(corpus(40))]
    + [
        (f"powerlaw{n}_{seed}", powerlaw_program(n, seed))
        for n in range(10, 15)
        for seed in range(3)
    ]
    + [("chain7", chain_program(7, 0))]
)


def live_signature(result):
    return sorted(
        (
            n.rule.id,
            n.depth,
            len(result.stores[n.id]),
            sorted(map(Atom.sort_key, result.stores[n.id].by_root)),
        )
        for n in result.graph.live_nodes()
    )


class TestJoinDrivenGrowth:
    def test_running_example_keeps_its_node_ids(self, running_prog):
        result = run_pr(running_prog)
        assert [(n.id, n.parents) for n in result.graph.nodes] == [
            (0, ()), (1, (0, 0)), (2, (0, 1)), (3, (1, 0)), (4, (1, 1)),
        ]

    @pytest.mark.parametrize("mode", list(CollapseMode))
    @pytest.mark.parametrize("name,text", GROWTH_PROGRAMS, ids=[n for n, _ in GROWTH_PROGRAMS])
    def test_matches_k_compatible_tuples_that_instantiate(
        self, monkeypatch, name, text, mode
    ):
        prog = normalize(parse_program(text))
        facts = FactIndex(prog.facts)
        # A run that fails to terminate fails here, before the reference
        # checks below, whose cost per round grows with the nodes squared.
        reason(prog, mode)

        def checked_step(g, rules, k, index, budget):
            rules = list(rules)
            stores = {i: NodeStore(i, by_root=r) for i, r in index.roots.items()}
            expected = [
                (r.id, parents)
                for r in rules
                for parents in k_compatible(g, r, k)
                if node_groundings(EgNode(-1, r, k, parents), facts, stores)
            ]
            added = inductive_step(g, rules, k, index, budget)
            assert [(n.rule.id, n.parents) for n, _ in added] == expected, k
            return added

        def unpruned_step(g, rules, k, index, budget):
            stores = {i: NodeStore(i, by_root=r) for i, r in index.roots.items()}
            return [
                (v, node_groundings(v, facts, stores))
                for v in grow_unpruned(g, rules, k)
            ]

        monkeypatch.setattr(reasoner, "RootIndex", FilingIndex)
        monkeypatch.setattr(reasoner, "inductive_step", checked_step)
        pruned = reason(prog, mode)
        monkeypatch.setattr(reasoner, "inductive_step", unpruned_step)
        unpruned = reason(prog, mode)
        assert pruned.stats.rounds_executed == unpruned.stats.rounds_executed
        assert pruned.rounds == unpruned.rounds
        assert pruned.stop_reason == unpruned.stop_reason
        assert live_signature(pruned) == live_signature(unpruned)
        assert len(pruned.graph.nodes) <= len(unpruned.graph.nodes)

    @pytest.mark.parametrize("mode", list(CollapseMode))
    @pytest.mark.parametrize("name,text", GROWTH_PROGRAMS, ids=[n for n, _ in GROWTH_PROGRAMS])
    def test_each_node_gets_the_groundings_of_its_own_join(
        self, monkeypatch, name, text, mode
    ):
        # the same head facts and chosen root facts, in the same order, as
        # joining the node's body against its own sources' sorted root facts
        checked = []

        def checked_instantiate(node, groundings, facts, stores, budget, redundant):
            groundings = list(groundings)
            assert groundings == node_groundings(node, facts, stores), node.id
            checked.append(node.id)
            return instantiate_node(node, groundings, facts, stores, budget, redundant)

        monkeypatch.setattr(reasoner, "instantiate_node", checked_instantiate)
        result = reason(normalize(parse_program(text)), mode)
        assert checked == [n.id for n in result.graph.nodes]  # base nodes too

    def test_chain_creates_only_live_nodes(self):
        result = run_pr(normalize(parse_program(chain_program(7, 0))))
        assert len(result.graph.nodes) == 65
        assert all(not n.removed for n in result.graph.nodes)


class TestCarriedRootIndex:
    """A run carries its root index from round to round; at every round it
    gives the nodes and groundings of an index fed afresh."""

    @pytest.mark.parametrize("mode", list(CollapseMode))
    @pytest.mark.parametrize(
        "text",
        [RUNNING_EXAMPLE, collapse_example(3), chain_program(5, 0), powerlaw_program(12, 1)],
        ids=["running", "collapse3", "chain5", "powerlaw12"],
    )
    def test_each_round_matches_a_fresh_index(self, monkeypatch, text, mode):
        steps = []

        def step_like_fresh(g, rules, k, index, budget):
            rules = list(rules)
            fresh = ExecutionGraph([replace(n) for n in g.nodes])
            expected = inductive_step(fresh, rules, k, root_index(g, index.roots, k), budget)
            added = inductive_step(g, rules, k, index, budget)
            assert [(n.id, n.rule.id, n.parents, gs) for n, gs in added] == [
                (n.id, n.rule.id, n.parents, gs) for n, gs in expected
            ], k
            steps.append(k)
            return added

        monkeypatch.setattr(reasoner, "RootIndex", FilingIndex)
        monkeypatch.setattr(reasoner, "inductive_step", step_like_fresh)
        result = reason(normalize(parse_program(text)), mode)
        assert steps == list(range(1, result.stats.rounds_executed + 1))

    def test_no_index_outlives_the_run(self, monkeypatch, running_prog):
        made = []

        class Watched(RootIndex):
            def __init__(self):
                super().__init__()
                made.append(weakref.ref(self))

        monkeypatch.setattr(reasoner, "RootIndex", Watched)
        result = run_pr(running_prog)
        assert result.stats.rounds_executed == 3
        assert len(made) == 1 and made[0]() is None

    def test_each_sort_key_is_computed_a_bounded_number_of_times(self, monkeypatch):
        # A work count, not a time: re-sorting every view each round would
        # compute each edge's key once per round, about 300 times here.
        prog = path_program(300)
        calls, sort_key = Counter(), Atom.sort_key

        def counted(atom):
            calls[atom] += 1
            return sort_key(atom)

        monkeypatch.setattr(Atom, "sort_key", counted)
        result = run_pr(prog)
        assert result.rounds == 301
        roots = {a for s in result.stores.values() for a in s.by_root}
        assert len(roots) == 601 and roots <= calls.keys()
        # once, when growth indexes it: the database is filed like a store
        assert max(calls.values()) == 1

import random

import pytest

from conftest import RUNNING_EXAMPLE, collapse_example, grow_round_one, reason, root_index
from corpus import corpus, random_tiny_program_text
from oracles import has_or, node_groundings, root_only_redundant, unfold
from probdatalog import (
    ReasonerOptions,
    chain_program,
    collapse,
    inductive_step,
    instantiate_node,
    is_hereditarily_redundant,
    normalize,
    parse_atom,
    parse_program,
    powerlaw_program,
    reasoner,
    run_pr,
    should_collapse,
)
from probdatalog.derivations import (
    DerivationEntry,
    FactIndex,
    Label,
    Leaf,
    NodeStore,
    _atom_cone,
)
from probdatalog.graph import ExecutionGraph, RootIndex
from probdatalog.model import atom


def run_rounds(prog, depth, filter_redundant=True):
    """Drive instantiate_node round by round, mirroring the plain loop."""
    g = ExecutionGraph()
    facts = FactIndex(prog.facts)
    stores = {}
    index = RootIndex()
    index.add(None, facts.by_root)
    for k in range(1, depth + 1):
        grown = inductive_step(g, prog.rules, k, index)
        redundant = is_hereditarily_redundant if filter_redundant else None
        for v, found in grown:
            store = NodeStore(v.id)
            stores[v.id] = store
            inst = instantiate_node(v, found, facts, stores, redundant=redundant)
            for entries in inst.by_root.values():
                for e in entries:
                    store.add(e)
            if not store.entries:
                g.remove_node(v.id)
            index.add(v.id, store.by_root)
    return g, stores


def tree_signature(x):
    """Materialized shape of an unfolded derivation, for multiset compares."""
    if isinstance(x, Leaf):
        return ("leaf", x.var)
    return (str(x.root), x.label.value, tuple(tree_signature(c) for c in x.children))


def root_map(g, stores, k):
    """The root index round k finds over `stores`, fed afresh."""
    return root_index(g, {v: store.by_root for v, store in stores.items()}, k)


def repeats_on_a_path(x, above=frozenset()) -> bool:
    """True iff some root-to-leaf path of a plain tree repeats a fact."""
    if isinstance(x, Leaf):
        return False
    if x.root in above:
        return True
    return any(repeats_on_a_path(c, above | {x.root}) for c in x.children)


def redundant(e) -> bool:
    """The check on an AND entry, by its root and children."""
    return is_hereditarily_redundant(e.root, e.children)


def count_atom(x, target) -> int:
    if isinstance(x, Leaf):
        return 0
    return int(x.root == target) + sum(count_atom(c, target) for c in x.children)


class TestInstantiateNode:
    def test_base_node_joins_database_facts(self, running_prog):
        g = grow_round_one(running_prog)
        facts = FactIndex(running_prog.facts)
        v = g.node(0)
        result = instantiate_node(v, node_groundings(v, facts, {}), facts, {})
        roots = {str(r) for r in result.by_root}
        assert roots == {"p(a,b)", "p(b,c)", "p(a,c)", "p(c,b)"}
        assert all(
            len(es) == 1 and isinstance(es[0].children[0], Leaf)
            for es in result.by_root.values()
        )
        assert result.substitutions == 4

    def test_depth_two_node_composes_parent_roots(self, running_prog):
        g, stores = run_rounds(running_prog, 1)
        ((v2, found),) = inductive_step(g, running_prog.rules, 2, root_map(g, stores, 2))
        result = instantiate_node(v2, found, FactIndex(running_prog.facts), stores)
        # joins: (a,b)+(b,c), (a,c)+(c,b), (b,c)+(c,b), (c,b)+(b,c)
        assert {str(r) for r in result.by_root} == {
            "p(a,c)",
            "p(a,b)",
            "p(b,b)",
            "p(c,c)",
        }
        for es in result.by_root.values():
            for e in es:
                assert e.label is Label.AND
                assert all(isinstance(c, DerivationEntry) for c in e.children)

    def test_empty_parent_store_yields_nothing(self, running_prog):
        g, stores = run_rounds(running_prog, 1)
        stores[0] = NodeStore(0)  # pretend the parent stored nothing
        assert inductive_step(g, running_prog.rules, 2, root_map(g, stores, 2)) == []
        assert len(g.nodes) == 1  # no node to instantiate

    def test_cartesian_product_over_parent_entries(self):
        prog = normalize(parse_program(collapse_example(3)))
        result = run_pr(prog)
        t_store = next(
            s
            for s in result.stores.values()
            if any(str(r) == "t(a)" for r in s.by_root)
        )
        assert len(t_store.by_root[parse_atom("t(a)")]) == 3


class TestRedundancy:
    def test_depth_two_derivation_is_not_redundant(self, running_prog):
        _, stores = run_rounds(running_prog, 2)
        (entry,) = stores[1].by_root[parse_atom("p(a,b)")]
        assert not redundant(entry)

    def test_round_three_candidates_all_redundant(self, running_prog):
        g, stores = run_rounds(running_prog, 2)
        facts = FactIndex(running_prog.facts)
        candidates = []
        for v, found in inductive_step(g, running_prog.rules, 3, root_map(g, stores, 3)):
            result = instantiate_node(v, found, facts, stores)
            candidates += [e for es in result.by_root.values() for e in es]
        assert candidates
        assert all(redundant(e) for e in candidates)
        # cross-check against the materialized definition
        for e in candidates:
            trees = list(unfold(e))
            assert all(count_atom(t, e.root) > 1 for t in trees)

    def test_collapsed_entry_with_one_clean_unfolding_is_kept(self):
        # one alternative repeats the root, the others do not
        prog = normalize(parse_program(collapse_example(4)))
        result = reason(prog, "on")
        r_atom = parse_atom("r(a,b1)")
        entry = next(
            e
            for s in result.stores.values()
            for e in s.by_root.get(r_atom, ())
            if has_or(e)
        )
        trees = list(unfold(entry))
        assert any(count_atom(t, r_atom) > 1 for t in trees)
        assert any(count_atom(t, r_atom) == 1 for t in trees)
        assert not redundant(entry)

    def test_redundancy_matches_brute_force_on_random_dags(self):
        # DAGs grown the way stores grow: a candidate joins the pool only
        # when brute force finds an unfolding of it that repeats no fact,
        # and an OR entry replaces same-root pool entries, as collapsing does
        rng = random.Random(7)
        preds = [atom(f"d{i}") for i in range(6)]
        checked = rejected = walked = 0
        for _ in range(600):
            pool = [DerivationEntry(p, Label.AND, (Leaf(i),), 0) for i, p in enumerate(preds[:3])]
            for _ in range(rng.randint(2, 30)):
                same = [e for e in pool if e.root == pool[-1].root]
                if rng.random() < 0.3 and len(same) > 1:
                    pool = [e for e in pool if e.root != same[0].root] + [collapse(same)]
                    continue
                k = rng.randint(1, min(3, len(pool)))
                children = tuple(rng.choice(pool) for _ in range(k))
                if rng.random() < 0.5:
                    children += (Leaf(rng.randrange(4)),)
                candidate = DerivationEntry(rng.choice(preds), Label.AND, children, 0)
                trees = list(unfold(candidate))
                if len(trees) > 200:
                    continue
                brute = all(repeats_on_a_path(t) for t in trees)
                assert is_hereditarily_redundant(candidate.root, children) == brute
                checked += 1
                rejected += brute
                walked += reaches_the_walk(candidate)
                if not brute:
                    pool.append(candidate)
        assert (checked, rejected, walked) == (8342, 3810, 1579)

    def test_hereditary_check_is_strictly_stronger(self):
        # the candidate r :- b repeats r on one unfolding and b on the other,
        # through an OR entry whose stored holder b has one clean unfolding
        r, b, c = atom("r"), atom("b"), atom("c")
        r_leaf = DerivationEntry(r, Label.AND, (Leaf(0),), 0)
        b_leaf = DerivationEntry(b, Label.AND, (Leaf(1),), 0)
        c1 = DerivationEntry(c, Label.AND, (r_leaf,), 0)
        c2 = DerivationEntry(c, Label.AND, (b_leaf,), 0)
        a1 = DerivationEntry(b, Label.AND, (collapse([c1, c2]),), 0)
        assert not redundant_by_unfolding(a1)  # within the precondition
        top = DerivationEntry(r, Label.AND, (a1,), 0)
        assert not root_only_redundant(top)
        assert redundant_by_unfolding(top)
        assert is_hereditarily_redundant(r, (a1,))
        # on entries whose unfoldings are path-distinct the notions agree
        clean = DerivationEntry(atom("a"), Label.AND, (Leaf(0), Leaf(1)), 0)
        assert not root_only_redundant(clean)
        assert not redundant(clean)

    @pytest.mark.parametrize(
        "text", [RUNNING_EXAMPLE, *corpus(40)], ids=["running", *map(str, range(40))]
    )
    def test_root_only_rule_agrees_on_plain_candidates(self, text):
        # the reason plain runs may use the hereditary check, and reject a
        # candidate before building it by the root-in-cone test: on entries
        # built from plain stores both give the paper's root-only answer
        def both(e):
            out = root_only_redundant(e)
            assert redundant(e) == out
            return out

        verdicts = stored_as_rebuilt(reason(normalize(parse_program(text))), "off", both)
        assert verdicts


def redundant_by_unfolding(e) -> bool:
    """The definition, materialized: every unfolding repeats a fact."""
    return all(repeats_on_a_path(t) for t in unfold(e))


def cone(x) -> set:
    if isinstance(x, Leaf):
        return set()
    return {x.root}.union(*(cone(c) for c in x.children))


def shape(e):
    """An entry by root, label and children: another node's entries by
    identity, since a rebuilt candidate shares them, its own by shape."""
    return (e.root, e.label, tuple(
        c if isinstance(c, Leaf) else shape(c) if c.home == e.home else id(c)
        for c in e.children
    ))


def stored_as_rebuilt(result, mode, redundant):
    """Rebuild every node's candidates in full from its groundings against
    the stores it was instantiated on, keep those that `redundant` does not
    reject, collapse each root's kept ones as the run did, and check that
    the node stored exactly those, in order.  Along the way, check that an
    entry's clause is None exactly when an OR entry lies in its DAG, and
    that a store's entries are its non-empty root buckets in order.  Returns
    each candidate with its verdict, the ones the run rejected before
    building them included."""
    verdicts = []
    threshold = ReasonerOptions().threshold
    for node in result.graph.nodes:
        store = result.stores[node.id]
        buckets = list(store.by_root.items())
        assert all(entries for _, entries in buckets)
        assert all(e.root == root for root, entries in buckets for e in entries)
        assert store.entries == [e for _, entries in buckets for e in entries]
        assert len(store) == len(store.entries)
        for e in store.entries:
            assert _atom_cone(e) == cone(e)
            assert (e._clause is None) == has_or(e)
        found = node_groundings(node, result.facts, result.stores)
        inst = instantiate_node(node, found, result.facts, result.stores)
        by_root = inst.by_root
        collapsing = mode == "on" or (
            mode == "auto" and by_root and should_collapse(by_root, threshold, inst.allocated)
        )
        stored = []
        for entries in by_root.values():
            kept = []
            for e in entries:
                assert _atom_cone(e) == cone(e)
                assert (e._clause is None) == has_or(e)
                out = redundant(e)
                verdicts.append((e, out))
                if not out:
                    kept.append(e)
            stored += [collapse(kept)] if collapsing and len(kept) > 1 else kept
        assert [shape(e) for e in result.stores[node.id].entries] == [
            shape(e) for e in stored
        ], (mode, node.id)
    return verdicts


def reaches_the_walk(e) -> bool:
    """True iff checking `e` meets a child whose DAG has an OR entry and
    whose cone holds e's root: the OR-free rule does not decide that
    child, so the memoized walk runs."""
    return e.label is Label.AND and any(
        has_or(c) and e.root in cone(c) for c in e.children
    )


class TestRedundancyCases:
    """`is_hereditarily_redundant` decides a candidate by the OR-free rule
    or by a memoized walk, and leans on the precondition that every stored
    entry is clean; each must give the answer of the definition."""

    # Under `auto` too, collapse_example(12) feeds stores holding OR
    # entries to later nodes, and reachability over the complete digraph
    # on four nodes collapses nodes with redundant candidates.
    COMPLETE_4 = "".join(
        f"0.5::e({x},{y}).\n" for x in "abcd" for y in "abcd" if x != y
    ) + "p(X,Y) :- e(X,Y).\np(X,Y) :- p(X,Z), e(Z,Y).\n"
    PROGRAMS = [
        RUNNING_EXAMPLE, collapse_example(4), collapse_example(12), COMPLETE_4,
        *corpus(40), *(random_tiny_program_text(seed) for seed in range(40)),
    ]

    @pytest.mark.parametrize("mode", ["off", "on", "auto"])
    def test_every_candidate_verdict_matches_its_unfoldings(self, mode):
        def against_definition(e):
            out = redundant_by_unfolding(e)
            assert redundant(e) == out, (str(e.root), mode)
            return out

        verdicts = []
        for text in self.PROGRAMS:
            prog = normalize(parse_program(text))
            # twice in one process: a cone cached in one run is never read
            # by the next, whose entries are all fresh
            first, second = (reason(prog, mode) for _ in range(2))
            assert first.live_store_sizes() == second.live_store_sizes()
            verdicts += stored_as_rebuilt(first, mode, against_definition)
        checked = [out for _, out in verdicts]
        assert any(checked) and not all(checked)
        if mode == "on":
            assert any(reaches_the_walk(e) for e, _ in verdicts)

    @pytest.mark.parametrize("mode", ["off", "on", "auto"])
    def test_each_node_is_instantiated_once(self, monkeypatch, mode):
        calls = []

        def counted(*args, **kwargs):
            calls.append(instantiate_node(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(reasoner, "instantiate_node", counted)
        result = reason(normalize(parse_program(self.COMPLETE_4)), mode)
        assert len(calls) == len(result.graph.nodes)
        assert sum(c.substitutions for c in calls) == result.stats.total("instantiations")

    @pytest.mark.parametrize("mode", ["off", "on", "auto"])
    def test_every_stored_entry_has_a_clean_unfolding(self, mode):
        # the check's precondition: a stored entry, OR entries included,
        # has an unfolding that repeats no fact
        for text in self.PROGRAMS:
            result = reason(normalize(parse_program(text)), mode)
            for store in result.stores.values():
                for e in store.entries:
                    assert not redundant_by_unfolding(e), (str(e.root), mode)

    @pytest.mark.parametrize("mode", ["off", "on", "auto"])
    def test_nothing_built_is_discarded(self, monkeypatch, mode):
        # each AND entry a node builds is stored, or is an alternative of the
        # OR entry its root's entries collapse into
        built = {}

        def recorded(node, *args):
            inst = instantiate_node(node, *args)
            built[node.id] = [e for es in inst.by_root.values() for e in es]
            return inst

        monkeypatch.setattr(reasoner, "instantiate_node", recorded)
        for text in self.PROGRAMS:
            built.clear()
            result = reason(normalize(parse_program(text)), mode)
            for node_id, entries in built.items():
                assert list(map(id, entries)) == list(map(id, kept(result.stores[node_id])))

    def test_collapsed_powerlaw_builds_few_entries(self, monkeypatch):
        built = {Label.AND: 0, Label.OR: 0}
        post_init = DerivationEntry.__post_init__

        def counted(self, clauses):
            built[self.label] += 1
            post_init(self, clauses)

        monkeypatch.setattr(DerivationEntry, "__post_init__", counted)
        result = reason(normalize(parse_program(powerlaw_program(100, 0))), "on")
        assert result.stats.total("entries_stored") == 444
        assert result.stats.total("entries_allocated") == 3956
        stored = [e for s in result.stores.values() for e in s.entries]
        plain = [e for e in stored if e.label is Label.AND]
        alternatives = sum(len(e.children) for e in stored if e.label is Label.OR)
        # 602 AND entries when a check after building discarded 114 of them
        assert (built[Label.AND], len(plain), alternatives) == (488, 402, 86)
        assert built[Label.OR] == len(stored) - len(plain) == 42

    def test_or_entry_seen_under_two_ancestor_sets(self):
        # the same OR entry is clean below one ancestor and not below two
        b, c, d = atom("b"), atom("c"), atom("d")
        c_leaf = DerivationEntry(c, Label.AND, (Leaf(0),), 0)
        d_leaf = DerivationEntry(d, Label.AND, (Leaf(1),), 0)
        or_b = collapse([
            DerivationEntry(b, Label.AND, (c_leaf,), 0),
            DerivationEntry(b, Label.AND, (d_leaf,), 0),
        ])
        via_d = DerivationEntry(d, Label.AND, (or_b,), 0)  # keeps the c branch
        assert not redundant_by_unfolding(via_d)
        cases = [
            (c, (or_b,), False),  # keeps the d branch
            (c, (or_b, via_d), True),  # below via_d, c and d both repeat
            (c, (or_b.children[0],), True),  # one unfolding, c repeats
        ]
        for root, children, expected in cases:
            assert is_hereditarily_redundant(root, children) is expected
            candidate = DerivationEntry(root, Label.AND, children, 0)
            assert redundant_by_unfolding(candidate) is expected


def kept(store):
    """A store's AND entries and the alternatives of its OR entries, in order."""
    return [a for e in store.entries for a in (e.children if e.label is Label.OR else (e,))]


def test_entry_repr_does_not_grow_with_its_dag():
    # pytest renders the repr of what a failing assert names
    result = reason(normalize(parse_program(chain_program(8, 0))))
    top = max(
        (e for s in result.stores.values() for e in s.entries),
        key=lambda e: len(cone(e)),
    )
    assert len(cone(top)) == 13  # facts in the DAG below; its tree is larger
    assert len(repr(top)) < 200


class TestCollapseUnfold:
    def test_collapse_builds_or_entry(self):
        a = atom("t", "a")
        e1 = DerivationEntry(a, Label.AND, (Leaf(0),), 0)
        e2 = DerivationEntry(a, Label.AND, (Leaf(1),), 0)
        merged = collapse([e1, e2])
        assert merged.label is Label.OR
        assert merged.children == (e1, e2)

    def test_identical_structure_children_are_not_deduplicated(self):
        a = atom("t", "a")
        e1 = DerivationEntry(a, Label.AND, (Leaf(0),), 0)
        e2 = DerivationEntry(a, Label.AND, (Leaf(0),), 0)
        assert len(collapse([e1, e2]).children) == 2

    def test_collapse_rejects_short_input(self):
        a = atom("t", "a")
        e1 = DerivationEntry(a, Label.AND, (Leaf(0),), 0)
        with pytest.raises(ValueError):
            collapse([e1])
        with pytest.raises(ValueError):
            collapse([])

    def test_collapse_rejects_mixed_roots(self):
        e1 = DerivationEntry(atom("t", "a"), Label.AND, (Leaf(0),), 0)
        e2 = DerivationEntry(atom("t", "b"), Label.AND, (Leaf(1),), 0)
        with pytest.raises(ValueError):
            collapse([e1, e2])

    def test_pure_and_entry_unfolds_to_itself(self):
        e = DerivationEntry(atom("t", "a"), Label.AND, (Leaf(0), Leaf(1)), 0)
        assert list(unfold(e)) == [e]

    def test_or_entry_unfolds_to_alternatives(self):
        a = atom("t", "a")
        alts = [DerivationEntry(a, Label.AND, (Leaf(i),), 0) for i in range(5)]
        assert list(unfold(collapse(alts))) == alts

    def test_and_above_or_takes_cartesian_product(self):
        # the collapsed alternatives pair up with the plain second child
        a, r = atom("t", "a"), atom("r", "a", "b1")
        alts = [DerivationEntry(a, Label.AND, (Leaf(i),), 0) for i in range(4)]
        top = DerivationEntry(r, Label.AND, (collapse(alts), Leaf(9)), 0)
        trees = list(unfold(top))
        assert len(trees) == 4
        for t, alt in zip(trees, alts):
            assert tree_signature(t) == (
                "r(a,b1)",
                "and",
                (tree_signature(alt), ("leaf", 9)),
            )

    def test_collapse_then_unfold_is_lossless(self):
        rng = random.Random(3)
        a = atom("t", "a")
        pool = [DerivationEntry(a, Label.AND, (Leaf(rng.randrange(6)),), 0) for _ in range(6)]
        nested = [
            DerivationEntry(a, Label.AND, (collapse(pool[:2]), Leaf(7)), 0),
            DerivationEntry(a, Label.AND, (Leaf(8),), 0),
            pool[3],
        ]
        merged = collapse(nested)
        direct = sorted(tree_signature(t) for t in unfold(merged))
        union = sorted(tree_signature(t) for e in nested for t in unfold(e))
        assert direct == union


class TestShouldCollapse:
    def test_average_at_threshold(self):
        a, b = atom("x"), atom("y")
        mk = lambda n: [DerivationEntry(a, Label.AND, (Leaf(i),), 0) for i in range(n)]
        assert should_collapse({a: mk(12), b: mk(10)}, 10, 22)  # average 11
        assert not should_collapse({a: mk(1)}, 10, 1)
        assert should_collapse({a: mk(1000)}, 10, 1000)
        # the count includes candidates rejected before they were built
        assert should_collapse({a: mk(1)}, 10, 10)

    def test_empty_map_is_an_error(self):
        with pytest.raises(ValueError):
            should_collapse({}, 10, 0)

"""Execution graphs: acyclic rule-labeled digraphs that drive reasoning.

Each node is labeled with a rule.  Base-rule nodes have no parents and
depth 1; a non-base node has exactly one parent per body atom (canonical
form) and an edge `u ->_j v` requires the head predicate of u's rule to
equal the j-th body predicate of v's rule.  Nodes are only ever appended,
and removal is a tombstone so references into a node's store stay valid.

The graph grows join-driven: the reasoner hands `inductive_step` the root
facts each stored node holds, and a depth-k node is created only for a
parent tuple whose root facts ground the rule body at least once.  Those
tuples come from a semi-naive hash join (`model.join`) over the root facts,
so a node that could store nothing is never created, rather than created,
instantiated and tombstoned.  The join is the round's only one: each new
node comes with its groundings, the head fact and the root fact chosen at
each body position, which instantiation turns into entries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence

from .model import Atom, EntryBudgetError, Rule, RuleKind, Symbol, join, substitute

# The head fact and the root fact chosen at each body position.
Grounding = tuple[Atom, tuple[Atom, ...]]


@dataclass(eq=False)
class EgNode:
    id: int
    rule: Rule
    depth: int
    parents: tuple[int, ...] = ()  # one parent node id per body position
    removed: bool = False


@dataclass
class ExecutionGraph:
    nodes: List[EgNode] = field(default_factory=list)

    def node(self, node_id: int) -> EgNode:
        return self.nodes[node_id]

    def live_nodes(self) -> Iterator[EgNode]:
        return (n for n in self.nodes if not n.removed)

    def depth(self) -> int:
        return max((n.depth for n in self.live_nodes()), default=0)

    def add_node(self, rule: Rule, parents: tuple[int, ...]) -> EgNode:
        depth = 1 + max((self.nodes[p].depth for p in parents), default=0)
        node = EgNode(len(self.nodes), rule, depth, parents)
        self.nodes.append(node)
        return node

    def remove_node(self, node_id: int) -> None:
        if not 0 <= node_id < len(self.nodes):
            raise KeyError(f"unknown node id {node_id}")
        node = self.nodes[node_id]
        if node.removed:
            raise KeyError(f"node {node_id} already removed")
        node.removed = True

    def dump(self) -> str:
        """Debug adjacency list: node id, rule id, depth, parents."""
        lines = []
        for n in self.live_nodes():
            parents = ",".join(str(p) for p in n.parents)
            lines.append(f"v{n.id} rule={n.rule.id} depth={n.depth} parents=[{parents}]")
        return "\n".join(lines)


def base_step(rules: Sequence[Rule]) -> ExecutionGraph:
    """Depth-1 graph with one node per base rule and no edges."""
    g = ExecutionGraph()
    for r in rules:
        if r.kind is RuleKind.BASE:
            g.add_node(r, ())
    return g


def groundings(rule: Rule, candidates: Sequence[Iterable[Atom]]) -> Iterator[Grounding]:
    """The groundings of `rule`'s body against per-position candidate facts,
    in the join's order."""
    for subst, chosen in join(rule.body, candidates):
        yield substitute(rule.head, subst), chosen


_BELOW, _AT, _ANY = 0, 1, 2  # depth below k - 1, exactly k - 1, below k


class _RootIndex:
    """Root fact -> ids of the live nodes below depth k that hold it, per
    head predicate and depth class.  A view is built on first use, with its
    facts in lexicographic order, and shared by every rule of the round."""

    def __init__(
        self, g: ExecutionGraph, roots: Mapping[int, Iterable[Atom]], k: int
    ):
        self._holders: Dict[Symbol, List[tuple[int, int, Iterable[Atom]]]] = {}
        for n in g.live_nodes():
            if n.depth < k and n.id in roots:
                depth_class = _AT if n.depth == k - 1 else _BELOW
                self._holders.setdefault(n.rule.head.predicate, []).append(
                    (n.id, depth_class, roots[n.id])
                )
        self._views: Dict[tuple[Symbol, int], Dict[Atom, List[int]]] = {}

    def view(self, pred: Symbol, depth_class: int) -> Dict[Atom, List[int]]:
        key = (pred, depth_class)
        view = self._views.get(key)
        if view is None:
            view = {}
            for node_id, c, node_roots in self._holders.get(pred, ()):
                if depth_class == _ANY or c == depth_class:
                    for a in node_roots:
                        view.setdefault(a, []).append(node_id)
            view = self._views[key] = dict(
                sorted(view.items(), key=lambda item: item[0].sort_key())
            )
        return view


def _joinable(
    rule: Rule, index: _RootIndex
) -> Iterator[tuple[tuple[int, ...], Grounding]]:
    """Each grounding of a depth-k node for `rule` (head predicates matching
    the body, every parent below depth k, some parent at k - 1), with the
    parent tuple whose root facts it chose.

    Semi-naive split: with position j drawn from depth k - 1, earlier
    positions from below k - 1 and later ones from below k, every tuple
    with a parent at depth k - 1 is found for exactly one j.  So all
    groundings of one tuple come from one join over sorted views, in the
    lexicographic order of their chosen facts.
    """
    for j in range(len(rule.body)):
        split = [
            index.view(a.predicate, _BELOW if i < j else _AT if i == j else _ANY)
            for i, a in enumerate(rule.body)
        ]
        if not all(split):
            continue
        for grounding in groundings(rule, split):
            for parents in itertools.product(*(
                s[a] for s, a in zip(split, grounding[1])
            )):
                yield parents, grounding


def inductive_step(
    g: ExecutionGraph,
    rules: Iterable[Rule],
    k: int,
    roots: Mapping[int, Iterable[Atom]],
    budget: float = float("inf"),
) -> List[tuple[EgNode, List[Grounding]]]:
    """Extend the graph to depth k; returns the freshly added nodes, each
    with its groundings.

    `roots` holds the root facts of each live node's store by node id.  A
    fresh node is added per non-base rule and parent tuple whose parents'
    root facts ground the rule body at least once, rule by rule and each
    rule's tuples in lexicographic order, so no node is created only to be
    tombstoned for storing nothing.  The tuples are found by one semi-naive
    hash join per rule over an index of root facts to the nodes holding
    them, built once per round.

    Each grounding allocates at least one entry when instantiated, so more
    groundings than `budget` raise `EntryBudgetError` before any node is
    added.  Existing nodes and edges are never altered, and tombstoned
    nodes are never re-created since they are excluded from enumeration.
    """
    index = _RootIndex(g, roots, k)
    found: List[tuple[Rule, tuple[int, ...], List[Grounding]]] = []
    count = 0
    for r in rules:
        if r.kind is not RuleKind.NONBASE:
            continue
        by_parents: Dict[tuple[int, ...], List[Grounding]] = {}
        for parents, grounding in _joinable(r, index):
            count += 1
            if count > budget:
                raise EntryBudgetError(f"entry budget exceeded while growing depth {k}")
            by_parents.setdefault(parents, []).append(grounding)
        found += [(r, p, gs) for p, gs in sorted(by_parents.items())]
    added = [(g.add_node(r, parents), gs) for r, parents, gs in found]
    assert all(node.depth == k for node, _ in added)
    return added

"""Execution graphs: acyclic rule-labeled digraphs that drive reasoning.

Each node is labeled with a rule.  Base-rule nodes have no parents and
depth 1; a non-base node has exactly one parent per body atom (canonical
form) and an edge `u ->_j v` requires the head predicate of u's rule to
equal the j-th body predicate of v's rule.  Nodes are only ever appended,
and removal is a tombstone so references into a node's store stay valid.

The graph grows join-driven: a depth-k node is created only for a parent
tuple whose stored root facts ground the rule body at least once.  Those
tuples come from a semi-naive hash join (`model.join`) over the run's
`RootIndex`, which round k extends by the depth-(k-1) nodes' roots alone.
So no node without a grounding is created; one whose every candidate is
redundant still is, and is tombstoned after instantiation.  The join is
the round's only one: each new node comes with its groundings, the head
fact and the root fact chosen at each body position, which instantiation
turns into entries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Sequence

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


class _View(dict):
    """Root fact -> ids of the nodes holding it, in lexicographic order of
    the facts; `probes` keeps the hash indexes `join` built over it."""


class RootIndex:
    """Root fact -> ids of the stored nodes holding it, per head predicate
    and depth class, carried by a run.  Round k's `_AT` nodes are those
    filed since round k - 1, and its `_ANY` views are round k + 1's `_BELOW`
    views.  A view is merged from its parts on first use, by sort keys
    computed once per fact, and shared by every rule of the round; while
    unchanged it keeps its probes.
    """

    def __init__(self):
        self._keys: Dict[Atom, tuple] = {}
        self._parts: Dict[tuple[Symbol, int], List[Dict[Atom, List[int]]]] = {}
        self._filed: Dict[Symbol, Dict[Atom, List[int]]] = {}  # the next _AT nodes

    def add(self, node: EgNode, roots: Iterable[Atom]) -> None:
        """File a stored node's root facts for the round after its own."""
        pred = node.rule.head.predicate
        for a in roots:
            self._filed.setdefault(pred, {}).setdefault(a, []).append(node.id)
            if a not in self._keys:
                self._keys[a] = a.sort_key()

    def advance(self) -> None:
        """Start a round: the nodes filed since the last one are its `_AT` nodes."""
        old = self._parts
        self._parts = {
            (p, _BELOW): old.get((p, _ANY)) or old.get((p, _BELOW), []) + old.get((p, _AT), [])
            for p, _ in old
        }
        for p, part in self._filed.items():
            self._parts[p, _AT] = [part]
        self._filed = {}

    def view(self, pred: Symbol, depth_class: int) -> _View:
        if depth_class == _ANY and (pred, _ANY) not in self._parts:
            self._parts[pred, _ANY] = [self.view(pred, _BELOW), self.view(pred, _AT)]
        parts = [part for part in self._parts.get((pred, depth_class), ()) if part]
        if len(parts) != 1 or not isinstance(parts[0], _View):
            merged = dict(parts[0]) if parts else {}
            for part in parts[1:]:
                for a, ids in part.items():
                    merged[a] = merged[a] + ids if a in merged else ids
            order = sorted(merged, key=self._keys.__getitem__)  # merges sorted runs
            parts = [_View(zip(order, map(merged.__getitem__, order)))]
            parts[0].probes = {}
        self._parts[pred, depth_class] = parts
        return parts[0]


def _joinable(
    rule: Rule, index: RootIndex
) -> Iterator[tuple[tuple[int, ...], Grounding]]:
    """Each grounding of a depth-k node for `rule` (head predicates matching
    the body, every parent below depth k, some parent at k - 1), with the
    parent tuple whose root facts it chose.

    Semi-naive split: with position j drawn from depth k - 1, earlier
    positions from below k - 1 and later ones from below k, every tuple
    with a parent at depth k - 1 is found for exactly one j.  So all
    groundings of one tuple come from one join over sorted views, in the
    lexicographic order of their chosen facts.  A split whose depth-(k-1)
    view is empty is skipped before its other views are built.
    """
    for j in range(len(rule.body)):
        if not index.view(rule.body[j].predicate, _AT):
            continue
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
    index: RootIndex,
    budget: float = float("inf"),
) -> List[tuple[EgNode, List[Grounding]]]:
    """Extend the graph to depth k; returns the freshly added nodes, each
    with its groundings.

    `index` holds the root facts of every stored node below depth k, the
    depth-(k-1) ones filed since round k - 1.  A fresh node is added per
    non-base rule and parent tuple whose parents' root facts ground the
    rule body at least once, rule by rule and each rule's tuples in
    lexicographic order; the tuples come from one semi-naive hash join per
    rule over the index.  A node whose groundings all give redundant
    candidates is still added, and the reasoner tombstones it.

    Each grounding allocates at least one entry when instantiated, so more
    groundings than `budget` raise `EntryBudgetError` before any node is
    added.  Existing nodes and edges are never altered, and tombstoned
    nodes are never re-created since they are excluded from enumeration.
    """
    index.advance()
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

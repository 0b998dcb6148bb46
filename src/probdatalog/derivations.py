"""Derivation storage with structure sharing, collapsing, and redundancy.

A stored derivation is a DAG entry: an AND entry records one rule
instantiation and points at one child per body atom, an entry of the store
that atom joined against; an OR entry merges several same-root entries
into one alternative.  The database is the depth-0 store, whose one entry
per fact is that fact's variable as a leaf.  Entries are never
materialized into full trees during reasoning; redundancy and formula
extraction walk the shared structure instead.

Graph growth hands each node its groundings, so instantiation joins
nothing.  An entry's DAG never changes, so an entry caches in slots its
cone of facts, OR-freeness, own redundancy verdict and lineage clause, and
a store whether all its entries are OR-free: on such stores instantiation
rejects redundant candidates unbuilt, yet `allocated` counts them all.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

from .graph import EgNode, Grounding
from .model import Atom, EntryBudgetError, ProbFact, RuleKind


class Label(Enum):
    AND = "and"
    OR = "or"


@dataclass(frozen=True)
class Leaf:
    """A database fact at the fringe of a derivation, by variable id."""

    var: int


@dataclass(eq=False, slots=True)
class DerivationEntry:
    root: Atom
    label: Label
    # repr=False: a child's repr spells out its whole unfolded tree
    children: tuple["Child", ...] = field(repr=False)
    home: int  # owning execution-graph node
    _cone: frozenset = field(init=False, repr=False)
    _or_free: bool = field(init=False, repr=False)
    _verdict: bool = field(init=False, repr=False)
    _clause: Optional[frozenset] = field(init=False, repr=False)


Child = Union[Leaf, DerivationEntry]


@dataclass
class NodeStore:
    """Stored (non-redundant) derivations of one execution-graph node."""

    owner: int
    entries: List[DerivationEntry] = field(default_factory=list)
    by_root: Dict[Atom, List[DerivationEntry]] = field(default_factory=dict)

    def add(self, entry: DerivationEntry) -> None:
        self.entries.append(entry)
        self.by_root.setdefault(entry.root, []).append(entry)

    @cached_property
    def or_free(self) -> bool:
        """No entry has an OR entry in its DAG.  Pruning reads it once the
        store is complete, and then each entry's cone, which this caches."""
        return all([_atom_cone(e) and e._or_free for e in self.entries])

    def __len__(self) -> int:
        return len(self.entries)


class FactIndex:
    """The database as the depth-0 store: `by_root` maps each fact to its
    one leaf, as a node store maps a root fact to its entries, and
    `by_pred` lists the facts of each predicate in lexicographic order."""

    def __init__(self, facts: Iterable[ProbFact]):
        self.by_root: Dict[Atom, List[Leaf]] = {}
        self.by_pred: Dict[object, List[Atom]] = {}
        for f in facts:
            self.by_root[f.fact] = [Leaf(f.var)]
            self.by_pred.setdefault(f.fact.predicate, []).append(f.fact)
        for atoms in self.by_pred.values():
            atoms.sort(key=Atom.sort_key)


@dataclass
class InstantiationResult:
    by_root: Dict[Atom, List[DerivationEntry]]
    substitutions: int = 0
    allocated: int = 0


def instantiate_node(
    node: EgNode,
    groundings: Iterable[Grounding],
    facts: FactIndex,
    stores: Mapping[int, NodeStore],
    budget: float = float("inf"),
    prune: bool = False,
) -> InstantiationResult:
    """Candidate derivations of one node from its groundings, by root fact.

    The i-th chosen fact of a grounding is a root fact of a store: the
    database's for a base-rule node, the i-th parent's otherwise.  Each
    grounding yields one AND entry per element of the Cartesian product of
    the chosen facts' entry lists, so a base-rule grounding yields exactly
    one entry, with leaf children.

    With `prune`, for a caller that keeps only non-redundant candidates
    and does not collapse this node, a non-base node on OR-free parent
    stores builds only candidates whose root lies in no child's cone, with
    their verdict cached: a stored plain child repeats no fact on any
    path, so that is `is_hereditarily_redundant`.  `allocated` counts every
    candidate, built or rejected, so pruning never moves a budget trip.
    """
    out: Dict[Atom, List[DerivationEntry]] = {}
    result = InstantiationResult(out)
    if node.rule.kind is RuleKind.BASE:
        sources = [facts] * len(node.rule.body)
    else:
        sources = [stores[p] for p in node.parents]
    prune = prune and node.rule.kind is RuleKind.NONBASE and all(
        s.or_free for s in sources
    )
    for root, chosen in groundings:
        result.substitutions += 1
        entry_lists = [s.by_root[f] for f, s in zip(chosen, sources)]
        bucket = out.setdefault(root, [])
        for combo in itertools.product(*entry_lists):
            result.allocated += 1
            if result.allocated > budget:
                raise EntryBudgetError(
                    f"entry budget exceeded while instantiating node {node.id}"
                )
            if not prune:
                bucket.append(DerivationEntry(root, Label.AND, combo, node.id))
                continue
            for c in combo:
                if root in c._cone:
                    break
            else:
                entry = DerivationEntry(root, Label.AND, combo, node.id)
                entry._verdict = True  # no path repeats a fact
                bucket.append(entry)
    return result


# ---------------------------------------------------------------------------
# Redundancy
# ---------------------------------------------------------------------------

# One shared empty set: `frozenset()` builds a new object on every call.
EMPTY: frozenset = frozenset()


def _atom_cone(x: Child) -> frozenset[Atom]:
    """Facts occurring anywhere in an entry's DAG (cached, with `_or_free`)."""
    if isinstance(x, Leaf):
        return EMPTY
    cached = getattr(x, "_cone", None)
    if cached is None:
        cached = frozenset({x.root}).union(*(_atom_cone(c) for c in x.children))
        x._cone = cached
        x._or_free = x.label is Label.AND and all(
            getattr(c, "_or_free", True) for c in x.children
        )
    return cached


def is_hereditarily_redundant(entry: DerivationEntry) -> bool:
    """True iff in every unfolding of `entry` some fact repeats along a
    root-to-leaf path.  An unfolding keeps one alternative of each OR entry.

    Such a derivation is subsumed: replacing the repeated fact's subtree by
    its inner occurrence yields a smaller derivation with a subsuming
    clause.  The paper's rule looks only for the entry's own root fact.  On
    plain stores the two agree: a stored plain entry passed this check, so
    no path inside it repeats a fact, and a candidate built on such entries
    can repeat only its own root.  A collapsed OR entry, though, may carry
    alternatives that repeat some inner fact; the root-only rule never
    rejects derivations built on those, and collapsed reasoning would keep
    deriving them and lose termination parity with plain reasoning.

    A subtree x is decided by the ancestors in its cone: with none, by its
    own verdict, cached on the entry; with some and an OR-free DAG, it has
    one unfolding, which repeats them; otherwise by a memoized walk.
    """
    memo: Dict[tuple, bool] = {}

    def ok(x: Child, ancestors: frozenset[Atom]) -> bool:
        if isinstance(x, Leaf):
            return True
        relevant = ancestors and ancestors & _atom_cone(x)
        if relevant and x._or_free:
            return False
        key = (id(x), relevant)
        cached = memo.get(key) if relevant else getattr(x, "_verdict", None)
        if cached is not None:
            return cached
        if x.root in relevant:
            res = False
        elif x.label is Label.AND:
            below = relevant | {x.root}
            res = all(ok(c, below) for c in x.children)
        else:
            # OR alternatives share the entry's root; the unfolding keeps
            # exactly one of them, so ancestors are not extended here.
            res = any(ok(c, relevant) for c in x.children)
        if relevant:
            memo[key] = res
        else:
            x._verdict = res
        return res

    return not ok(entry, EMPTY)


# ---------------------------------------------------------------------------
# Collapse
# ---------------------------------------------------------------------------

def collapse(trees: Sequence[DerivationEntry]) -> DerivationEntry:
    """Merge several same-root derivations into one OR entry."""
    if len(trees) <= 1:
        raise ValueError("collapse requires more than one derivation")
    root = trees[0].root
    if any(t.root != root for t in trees):
        raise ValueError("collapse requires a common root fact")
    return DerivationEntry(root, Label.OR, tuple(trees), trees[0].home)


def should_collapse(
    trees_by_root: Mapping[Atom, Sequence[DerivationEntry]],
    threshold: int,
    total: Optional[int] = None,
) -> bool:
    """Collapse a node's derivations when the average per-root count
    reaches the threshold.  `total` counts them when the lists hold only
    those that were built."""
    if not trees_by_root:
        raise ValueError("empty derivation map")
    if total is None:
        total = sum(len(v) for v in trees_by_root.values())
    return total / len(trees_by_root) >= threshold

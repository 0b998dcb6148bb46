"""Derivation storage with structure sharing, collapsing, and redundancy.

A stored derivation is a DAG entry: an AND entry records one rule
instantiation and points at one child per body atom, an entry of the store
that atom joined against; an OR entry merges several same-root entries
into one alternative.  The database is the depth-0 store, whose one entry
per fact is that fact's variable as a leaf.  Entries are never
materialized into full trees during reasoning; redundancy and formula
extraction walk the shared structure instead.

Graph growth hands each node its groundings, so instantiation joins
nothing.  An entry sets its lineage clause when built, None iff an OR
entry lies in its DAG, so OR-freeness is read from the clause; it caches
its cone when first read, and a leaf answers both alike.  Redundancy is
decided once per candidate, from its root and children, before the
candidate is built; `allocated` counts rejected candidates too.
"""

from __future__ import annotations

import itertools
from dataclasses import InitVar, dataclass, field
from enum import Enum
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from .graph import EgNode, Grounding
from .model import Atom, EntryBudgetError, ProbFact, RuleKind


class Label(Enum):
    AND = "and"
    OR = "or"


# One shared empty set: `frozenset()` builds a new object on every call.
EMPTY: frozenset = frozenset()


@dataclass(frozen=True)
class Leaf:
    """A database fact at the fringe of a derivation, by variable id.  It
    answers like an entry: no fact in its cone, one clause."""

    var: int
    _clause: frozenset = field(init=False, repr=False, compare=False)
    _cone = EMPTY

    def __post_init__(self):
        object.__setattr__(self, "_clause", frozenset((self.var,)))


@dataclass(eq=False, slots=True)
class DerivationEntry:
    """One stored derivation.  Its clause is set when built, None with an
    OR in its DAG; `clauses` makes equal clauses one object."""

    root: Atom
    label: Label
    # repr=False: a child's repr spells out its whole unfolded tree
    children: tuple["Child", ...] = field(repr=False)
    home: int  # owning execution-graph node
    clauses: InitVar[Optional[dict]] = None
    _cone: Optional[frozenset] = field(default=None, init=False, repr=False)
    _clause: Optional[frozenset] = field(init=False, repr=False)

    def __post_init__(self, clauses):
        parts = [c._clause for c in self.children]
        clause = EMPTY.union(*parts) if self.label is Label.AND and None not in parts else None
        self._clause = clause if clauses is None else clauses.setdefault(clause, clause)


Child = Union[Leaf, DerivationEntry]


@dataclass
class NodeStore:
    """Stored (non-redundant) derivations of one execution-graph node."""

    owner: int
    by_root: Dict[Atom, List[DerivationEntry]] = field(default_factory=dict)

    def add(self, entry: DerivationEntry) -> None:
        self.by_root.setdefault(entry.root, []).append(entry)

    @property
    def entries(self) -> List[DerivationEntry]:
        return [e for bucket in self.by_root.values() for e in bucket]

    def __len__(self) -> int:
        return sum(map(len, self.by_root.values()))


class FactIndex:
    """The database as the depth-0 store: `by_root` maps each fact to its
    one leaf, as a node store maps a root fact to its entries."""

    def __init__(self, facts: Iterable[ProbFact]):
        self.by_root: Dict[Atom, List[Leaf]] = {f.fact: [Leaf(f.var)] for f in facts}


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
    redundant: Optional[Callable[[Atom, tuple], bool]] = None,
) -> InstantiationResult:
    """Candidate derivations of one node from its groundings, by root fact.

    The i-th chosen fact of a grounding is a root fact of a store: the
    database's for a base-rule node, the i-th parent's otherwise.  Each
    grounding yields one AND candidate per element of the Cartesian
    product of the chosen facts' entry lists, so a base-rule grounding
    yields exactly one, with leaf children.

    A candidate is built unless `redundant(root, children)` holds; with
    `redundant` None every candidate is built.  `allocated` counts every
    candidate, built or rejected, so the check never moves a budget trip.
    Equal clauses built here are one object.
    """
    out: Dict[Atom, List[DerivationEntry]] = {}
    result = InstantiationResult(out)
    if node.rule.kind is RuleKind.BASE:
        sources = [facts] * len(node.rule.body)
    else:
        sources = [stores[p] for p in node.parents]
    clauses: dict = {}
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
            if redundant is None or not redundant(root, combo):
                bucket.append(DerivationEntry(root, Label.AND, combo, node.id, clauses))
    return result


# ---------------------------------------------------------------------------
# Redundancy
# ---------------------------------------------------------------------------

def _atom_cone(x: Child) -> frozenset[Atom]:
    """Facts occurring anywhere in an entry's DAG (cached)."""
    cached = x._cone
    if cached is None:
        cached = x._cone = frozenset({x.root}).union(*(_atom_cone(c) for c in x.children))
    return cached


def is_hereditarily_redundant(root: Atom, children: Sequence[Child]) -> bool:
    """True iff in every unfolding of the AND candidate `root :- children`
    (one alternative kept for each OR entry) some fact repeats along a
    root-to-leaf path.  Replacing the repeated fact's subtree by its inner
    occurrence then yields a smaller derivation with a subsuming clause.

    Precondition: every child is stored, so it has an unfolding that
    repeats no fact, and a child whose cone lacks `root` keeps one below
    the candidate.  A child whose cone holds `root` makes the candidate
    redundant when it is OR-free, since its one unfolding repeats the root,
    or when a walk finds no unfolding of it clean below the root.  On plain
    stores this is the paper's rule, which looks only for the root; on
    collapsed ones that rule would keep derivations built on alternatives
    that repeat an inner fact, and lose termination parity with plain runs.
    """
    for c in children:
        if root in _atom_cone(c):
            if c._clause is not None or not _clean(c, frozenset((root,)), {}):
                return True
    return False


def _clean(x: Child, ancestors: frozenset[Atom], memo: Dict[tuple, bool]) -> bool:
    """True iff some unfolding of stored subtree `x` repeats no fact on a
    path, `ancestors` (the facts above it) included.  Only entries with an
    OR entry in their DAG and an ancestor in their cone are walked."""
    relevant = ancestors & _atom_cone(x)
    if not relevant:
        return True  # the precondition
    if x._clause is not None:
        return False  # its one unfolding repeats the ancestor
    key = (id(x), relevant)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if x.root in relevant:
        res = False
    elif x.label is Label.AND:
        below = relevant | {x.root}
        res = all(_clean(c, below, memo) for c in x.children)
    else:
        # OR alternatives share the entry's root; the unfolding keeps
        # exactly one of them, so ancestors are not extended here.
        res = any(_clean(c, relevant, memo) for c in x.children)
    memo[key] = res
    return res


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
    total: int,
) -> bool:
    """Collapse a node's derivations when the average per-root count,
    `total` over the roots, reaches the threshold.  `total` counts every
    candidate, the ones rejected before they were built included."""
    if not trees_by_root:
        raise ValueError("empty derivation map")
    return total / len(trees_by_root) >= threshold

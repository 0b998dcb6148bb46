"""DNF lineage: canonical clause sets, formula extraction, lineage collection.

The lineage of a derived fact is a monotone DNF over fact variables: a set
of clauses, each clause a set of variable ids.  Clause sets are kept
absorption-normalized (no clause contains another), which for monotone
formulas is a canonical form: two normalized DNFs denote the same Boolean
function exactly when they are equal.

Hence an atom's lineage is built by gathering the clauses of all its stored
entries, found through a root -> entries index made in one scan of the
stores, and absorbing them once, not re-absorbing after every `or_`.  The
database is the depth-0 store, so a fact's lineage is its own variable by
the same path, as in the reference engine's initial map.  An entry with no
OR below it is one clause, set on it when it was built; `phi` unfolds the
rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Collection, Dict, FrozenSet, Iterable, List, Optional

from .derivations import EMPTY, Child, Label
from .model import Atom, Program, match_atom

if TYPE_CHECKING:  # pragma: no cover
    from .reasoner import ReasoningResult

Clause = FrozenSet[int]

DEFAULT_CLAUSE_CAP = 1_000_000


class LineageTooLargeError(RuntimeError):
    """Raised when a DNF would exceed the configured clause cap."""


class UnknownPredicateError(ValueError):
    pass


class QueryArityError(ValueError):
    """Raised when a query's arity is not its predicate's in the program."""


class IncompleteReasoningError(RuntimeError):
    """Raised when lineage is requested from a truncated reasoning result."""


def _absorb(clauses: Iterable[Clause]) -> frozenset[Clause]:
    """Drop every clause that is a superset of another clause.  A kept clause
    is filed under its lowest variable, which its supersets hold too."""
    unique = set(clauses)
    if len(unique) < 2 or EMPTY in unique:
        return frozenset({EMPTY}) if EMPTY in unique else frozenset(unique)
    kept: List[Clause] = []
    by_low: Dict[int, List[Clause]] = {}
    for c in sorted(unique, key=len):
        if not any(k <= c for v in c if v in by_low for k in by_low[v]):
            kept.append(c)
            by_low.setdefault(min(c), []).append(c)
    return frozenset(kept)


def _disjoin(disjuncts: Iterable[Collection[Clause]], max_clauses: Optional[int]) -> "Dnf":
    """Disjunction of clause sets with one absorption.  Gathered clauses are
    absorbed early only past the cap, and only an absorbed set above it raises."""
    gathered: List[Clause] = []
    for clauses in disjuncts:
        gathered.extend(clauses)
        if max_clauses is not None and len(gathered) > max_clauses:
            gathered = list(_absorb(gathered))
            if len(gathered) > max_clauses:
                raise LineageTooLargeError(
                    f"lineage too large ({len(gathered)} > {max_clauses} disjuncts)"
                )
    return Dnf(_absorb(gathered))


def _conjoin(dnfs: Iterable["Dnf"], max_clauses: Optional[int]) -> "Dnf":
    """Conjunction with one absorption, raising where a fold of `and_` would."""
    factors = [d for d in dnfs if EMPTY not in d.clauses]
    if len(factors) < 2:
        return factors[0] if factors else TRUE
    if max_clauses != 0 and all(len(d.clauses) == 1 for d in factors):
        return Dnf(frozenset([EMPTY.union(*[c for d in factors for c in d.clauses])]))
    out, *rest = [d.clauses for d in factors]
    for f in rest:
        if max_clauses is not None and len(out) * len(f) > max_clauses:
            out = _absorb(out)
            if (n := len(out) * len(f)) > max_clauses:
                raise LineageTooLargeError(f"lineage too large ({n} > {max_clauses} disjuncts)")
        out = {a | b for a in out for b in f}
    return Dnf(frozenset(out) if isinstance(out, frozenset) or len(out) < 2 else _absorb(out))


@dataclass(frozen=True)
class Dnf:
    """Absorption-normalized monotone DNF.

    The empty clause set denotes FALSE; a set containing the empty clause
    denotes TRUE.  Build instances through `from_clauses` or the operators,
    which maintain normalization.
    """

    clauses: frozenset[Clause]

    @staticmethod
    def from_clauses(clauses: Iterable[Iterable[int]]) -> "Dnf":
        return Dnf(_absorb(frozenset(c) for c in clauses))

    @staticmethod
    def single(var: int) -> "Dnf":
        return Dnf(frozenset({frozenset({var})}))

    @property
    def is_false(self) -> bool:
        return not self.clauses

    @property
    def is_true(self) -> bool:
        return EMPTY in self.clauses

    @cached_property
    def variables(self) -> frozenset[int]:
        return frozenset(v for c in self.clauses for v in c)

    def or_(self, other: "Dnf", max_clauses: Optional[int] = None) -> "Dnf":
        if self.is_true or other.is_false:
            return self
        if other.is_true or self.is_false:
            return other
        return _disjoin((self.clauses, other.clauses), max_clauses)

    def and_(self, other: "Dnf", max_clauses: Optional[int] = None) -> "Dnf":
        return _conjoin((self, other), max_clauses)

    def __or__(self, other: "Dnf") -> "Dnf":
        return self.or_(other)

    def __and__(self, other: "Dnf") -> "Dnf":
        return self.and_(other)

    def sorted_clauses(self) -> list[tuple[int, ...]]:
        return sorted(tuple(sorted(c)) for c in self.clauses)

    def to_json(self, names: Dict[int, str]) -> list[list[str]]:
        """Clause list of fact-name lists, both levels sorted."""
        return sorted(sorted(names[v] for v in c) for c in self.clauses)

    def __str__(self) -> str:
        if self.is_false:
            return "false"
        if self.is_true:
            return "true"
        return " | ".join(
            "&".join(str(v) for v in c) for c in self.sorted_clauses()
        )


TRUE = Dnf(frozenset({EMPTY}))
FALSE = Dnf(frozenset())


# ---------------------------------------------------------------------------
# Formula extraction from stored derivations
# ---------------------------------------------------------------------------

def phi(
    entry: Child,
    max_clauses: Optional[int] = DEFAULT_CLAUSE_CAP,
    memo: Optional[Dict[int, Dnf]] = None,
) -> Dnf:
    """DNF of a stored derivation: leaves conjoin along AND entries and the
    alternatives of OR entries disjoin.

    Equals the disjunction, over every unfolded plain tree, of the
    conjunction of that tree's leaves; an OR-free derivation is its clause.
    Entries form a shared DAG, so results are memoized per entry; pass
    `memo` to share across calls.
    """
    return _phi(entry, max_clauses, {} if memo is None else memo)


def _phi(node: Child, max_clauses: Optional[int], memo: Dict[int, Dnf]) -> Dnf:
    # Module level: a closure that called itself would be a reference cycle.
    if node._clause is not None:
        return Dnf(frozenset((node._clause,)))
    cached = memo.get(id(node))
    if cached is not None:
        return cached
    if node.label is Label.AND:
        out = _conjoin((_phi(c, max_clauses, memo) for c in node.children), max_clauses)
    else:
        out = _disjoin((_phi(c, max_clauses, memo).clauses for c in node.children), max_clauses)
    memo[id(node)] = out
    return out


@dataclass(frozen=True)
class Answer:
    fact: Atom
    lineage: Dnf
    probability: Optional[float] = None


def _entries_by_root(result: "ReasoningResult") -> Dict[Atom, List[Child]]:
    """Stored entries of every atom held by the database, the depth-0
    store, or by a node."""
    index: Dict[Atom, List[Child]] = {
        fact: list(leaves) for fact, leaves in result.facts.by_root.items()
    }
    for store in result.stores.values():
        for root, entries in store.by_root.items():
            index.setdefault(root, []).extend(entries)
    return index


def _gather(entries: List[Child], max_clauses: Optional[int], memo: Dict[int, Dnf]) -> Dnf:
    """One atom's lineage: each plain entry's clause, `phi` only for an
    entry with an OR below it, absorbed once."""
    return _disjoin(
        ((c,) if (c := e._clause) is not None else phi(e, max_clauses, memo).clauses
         for e in entries),
        max_clauses,
    )


def round_bounds(
    result: "ReasoningResult", atoms: Optional[Collection[Atom]] = None
) -> List[Dict[Atom, Dnf]]:
    """Lineage of every atom, or of `atoms` only, restricted to rounds <= k,
    for k from 0 to the final round (to 1 if that is 0), as in the
    reference engine's map after round k, database facts included.  Round
    k populates the depth-k nodes, so from one read of the stores, snapshot
    k takes snapshot k - 1 and gathers again only the atoms stored at depth
    k.  Probabilities of successive snapshots are nondecreasing and reach
    the exact value at the final round.
    """
    found: Dict[Atom, Dict[int, List[Child]]] = {
        fact: {0: leaves} for fact, leaves in result.facts.by_root.items()
        if atoms is None or fact in atoms
    }
    for node_id, store in result.stores.items():
        depth = result.graph.node(node_id).depth
        for root, entries in store.by_root.items():
            if atoms is None or root in atoms:
                found.setdefault(root, {}).setdefault(depth, []).extend(entries)
    fresh: Dict[int, List[Atom]] = {}  # depth -> the atoms stored there
    for root, by_depth in found.items():
        for d in by_depth:
            fresh.setdefault(d, []).append(root)
    memo: Dict[int, Dnf] = {}
    snaps: List[Dict[Atom, Dnf]] = [{}]
    for k in range(max(result.rounds, 1) + 1):
        snaps.append(dict(snaps[-1]))
        for root in fresh.get(k, ()):
            entries = [e for d, es in found[root].items() if d <= k for e in es]
            snaps[-1][root] = _gather(entries, DEFAULT_CLAUSE_CAP, memo)
    return snaps[1:]


def check_query(prog: Program, query: Atom) -> None:
    """Raise unless the query's predicate is in the program, with its arity."""
    arity = prog.predicates.get(query.predicate)
    if arity is None:
        raise UnknownPredicateError(f"unknown predicate {query.predicate.text}")
    if arity != query.arity:
        raise QueryArityError(f"query {query}: predicate arity is {arity}")


def collect_lineage(
    result: "ReasoningResult",
    prog: Program,
    query: Atom,
    max_clauses: Optional[int] = DEFAULT_CLAUSE_CAP,
) -> List[Answer]:
    """Answers for `query` with their DNF lineage.

    Ground instances of the query predicate present in the computed model,
    database facts included, are enumerated.
    """
    if result.truncated:
        raise IncompleteReasoningError(
            "reasoning was truncated by a resource limit; lineage would be partial"
        )
    check_query(prog, query)
    index = _entries_by_root(result)
    memo: Dict[int, Dnf] = {}
    return [
        Answer(inst, _gather(index[inst], max_clauses, memo))
        for inst in sorted(
            (a for a in index if match_atom(query, a, {}) is not None), key=Atom.sort_key
        )
    ]

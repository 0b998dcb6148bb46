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

Per-round bounds take the form both engines share, `Changes`: each atom's
list of (round, lineage) changes, rounds ascending, no two consecutive
lineages equal.  An atom's lineage after round k is its last change at or
before k, FALSE before its first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Collection, Dict, FrozenSet, Iterable, List, Optional, Tuple

from .derivations import EMPTY, Child, Label
from .model import Atom, Program, match_atom

if TYPE_CHECKING:  # pragma: no cover
    from .reasoner import ReasoningResult

Clause = FrozenSet[int]

# The one cap on every DNF operation of both engines, read where it is checked.
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


def _disjoin(disjuncts: Iterable[Collection[Clause]]) -> "Dnf":
    """Disjunction of clause sets with one absorption.  Gathered clauses are
    absorbed early only past the cap, and only an absorbed set above it raises."""
    cap = DEFAULT_CLAUSE_CAP
    gathered: List[Clause] = []
    for clauses in disjuncts:
        gathered.extend(clauses)
        if len(gathered) > cap:
            gathered = list(_absorb(gathered))
            if len(gathered) > cap:
                raise LineageTooLargeError(
                    f"lineage too large ({len(gathered)} > {cap} disjuncts)"
                )
    return Dnf(_absorb(gathered))


def _conjoin(dnfs: Iterable["Dnf"]) -> "Dnf":
    """Conjunction with one absorption, raising where a fold of `and_` would."""
    factors = [d for d in dnfs if EMPTY not in d.clauses]
    if len(factors) < 2:
        return factors[0] if factors else TRUE
    if all(len(d.clauses) == 1 for d in factors):
        return Dnf(frozenset([EMPTY.union(*[c for d in factors for c in d.clauses])]))
    cap = DEFAULT_CLAUSE_CAP
    out, *rest = [d.clauses for d in factors]
    for f in rest:
        if len(out) * len(f) > cap:
            out = _absorb(out)
            if (n := len(out) * len(f)) > cap:
                raise LineageTooLargeError(f"lineage too large ({n} > {cap} disjuncts)")
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

    @property
    def variables(self) -> frozenset[int]:
        # not cached: per-round bounds keep thousands of formulas alive
        return EMPTY.union(*self.clauses)

    def or_(self, other: "Dnf") -> "Dnf":
        if self.is_true or other.is_false:
            return self
        if other.is_true or self.is_false:
            return other
        return _disjoin((self.clauses, other.clauses))

    def and_(self, other: "Dnf") -> "Dnf":
        return _conjoin((self, other))

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

def phi(entry: Child, memo: Optional[Dict[int, Dnf]] = None) -> Dnf:
    """DNF of a stored derivation: leaves conjoin along AND entries and the
    alternatives of OR entries disjoin.

    Equals the disjunction, over every unfolded plain tree, of the
    conjunction of that tree's leaves; an OR-free derivation is its clause.
    Entries form a shared DAG, so results are memoized per entry; pass
    `memo` to share across calls.
    """
    # Module level: a closure that called itself would be a reference cycle.
    if entry._clause is not None:
        return Dnf(frozenset((entry._clause,)))
    if memo is None:
        memo = {}
    cached = memo.get(id(entry))
    if cached is not None:
        return cached
    if entry.label is Label.AND:
        out = _conjoin(phi(c, memo) for c in entry.children)
    else:
        out = _disjoin(phi(c, memo).clauses for c in entry.children)
    memo[id(entry)] = out
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


def _gather(entries: List[Child], memo: Dict[int, Dnf], prior: Dnf = FALSE) -> Dnf:
    """One atom's lineage, or `prior` extended by it: each plain entry's
    clause, `phi` only for an entry with an OR below it, absorbed once."""
    return _disjoin(chain(
        (prior.clauses,),
        ((c,) if (c := e._clause) is not None else phi(e, memo).clauses for e in entries),
    ))


Changes = Dict[Atom, List[Tuple[int, Dnf]]]


def round_bounds(result: "ReasoningResult", atoms: Optional[Collection[Atom]] = None) -> Changes:
    """The `Changes` of every atom, or of `atoms` only, facts at round 0,
    each as in the reference engine's map after its round.  Round k
    populates the depth-k nodes, so from one read of the stores, an atom
    stored at depth k extends its last lineage by those entries for round
    k (absorption is canonical), and a lineage is kept only where it
    differs from the atom's last.  Probabilities along a list never
    decrease, and the last is the exact value.
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
    changes: Changes = {}  # in order of first round
    for k in sorted(fresh):
        for root in fresh[k]:
            history = changes.setdefault(root, [])
            lineage = _gather(found[root][k], memo, history[-1][1] if history else FALSE)
            if not history or history[-1][1] != lineage:
                history.append((k, lineage))
    return changes


def check_query(prog: Program, query: Atom) -> None:
    """Raise unless the query's predicate is in the program, with its arity."""
    arity = prog.predicates.get(query.predicate)
    if arity is None:
        raise UnknownPredicateError(f"unknown predicate {query.predicate.text}")
    if arity != query.arity:
        raise QueryArityError(f"query {query}: predicate arity is {arity}")


def collect_lineage(result: "ReasoningResult", prog: Program, query: Atom) -> List[Answer]:
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
        Answer(inst, _gather(index[inst], memo))
        for inst in sorted(
            (a for a in index if match_atom(query, a, {}) is not None), key=Atom.sort_key
        )
    ]

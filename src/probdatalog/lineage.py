"""DNF lineage: canonical clause sets, formula extraction, lineage collection.

The lineage of a derived fact is a monotone DNF over fact variables: a set
of clauses, each clause a set of variable ids.  Clause sets are kept
absorption-normalized (no clause contains another), which for monotone
formulas is a canonical form: two normalized DNFs denote the same Boolean
function exactly when they are equal.

Hence an atom's lineage is built by gathering the clauses of its stored
entries and absorbing them once, not re-absorbing after every `or_`.  One
routine reads the stores once, in (round, stores) groups, each atom
extending its last lineage by its entries in a group: answers read every
store as one group, per-round bounds one group per depth.  The database is
the depth-0 store, so a fact's lineage is its own variable by the same
path, as in the reference engine's initial map.  An entry with no OR below
it is one clause, set on it when it was built; `phi` unfolds the rest.
A `Matcher` decides once per distinct atom whether it is read, so several
queries take one read, and an atom that matches two is one answer.

Both engines' lineage takes one form, `Changes`: each atom's list of
(round, lineage) changes, rounds ascending, no two consecutive lineages
equal.  An atom's lineage after round k is its last change at or before
k, FALSE before its first; at the fixpoint, its last change is its answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, groupby
from typing import TYPE_CHECKING, Collection, Dict, Iterable, List, Optional, Tuple, Union

from .derivations import EMPTY, Child, FactIndex, Label, NodeStore
from .model import Atom, Program, Symbol, match_atom

if TYPE_CHECKING:  # pragma: no cover
    from .reasoner import ReasoningResult

Clause = frozenset[int]

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
    return Dnf(_absorb(out))


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


def _gather(entries: List[Child], memo: Dict[int, Dnf], prior: Dnf) -> Dnf:
    """`prior` extended by one atom's entries: each plain entry's clause,
    `phi` only for an entry with an OR below it, absorbed once."""
    return _disjoin(chain(
        (prior.clauses,),
        ((c,) if (c := e._clause) is not None else phi(e, memo).clauses for e in entries),
    ))


Changes = Dict[Atom, List[Tuple[int, Dnf]]]


class Matcher(dict):
    """Atom -> whether it is a ground instance of one of `queries`, decided
    on its first lookup by the queries on its predicate, and kept."""

    def __init__(self, queries: Iterable[Atom]):
        self.by_predicate: Dict[Symbol, List[Atom]] = {}
        for q in queries:
            self.by_predicate.setdefault(q.predicate, []).append(q)

    def __missing__(self, atom: Atom) -> bool:
        hit = False
        for q in self.by_predicate.get(atom.predicate, ()):
            hit = hit or match_atom(q, atom, {}) is not None
        self[atom] = hit
        return hit


def answers_of(changes: Changes) -> List[Answer]:
    """Each atom's last lineage, atoms in sort order: at a fixpoint, its answer."""
    return [Answer(a, changes[a][-1][1]) for a in sorted(changes, key=Atom.sort_key)]


def _changes(
    groups: Iterable[Tuple[int, Iterable[Union[FactIndex, NodeStore]]]],
    wanted: Optional[Matcher],
) -> Changes:
    """The `Changes` of every atom, or of the `wanted` ones only, from
    (round, stores) groups in round order.  Each atom stored in a group
    extends its last lineage by its entries there (absorption is canonical),
    and the result is kept only where it differs from that last lineage."""
    memo: Dict[int, Dnf] = {}
    changes: Changes = {}  # in order of first round
    for k, stores in groups:
        found: Dict[Atom, List[Child]] = {}
        for store in stores:
            for root, entries in store.by_root.items():
                if wanted is None or wanted[root]:
                    found.setdefault(root, []).extend(entries)
        for root, entries in found.items():
            history = changes.setdefault(root, [])
            lineage = _gather(entries, memo, history[-1][1] if history else FALSE)
            if not history or history[-1][1] != lineage:
                history.append((k, lineage))
    return changes


def round_bounds(result: "ReasoningResult", queries: Optional[Iterable[Atom]] = None) -> Changes:
    """The `Changes` of every atom, or of the ground instances of `queries`
    only, facts at round 0, each as in the reference engine's map after its
    round.  Round k fills the depth-k nodes, and node ids ascend with depth,
    so the stores read in order, grouped by depth, give every round.
    Probabilities along a list never decrease, and the last is exact."""
    by_depth = groupby(result.stores.items(), lambda item: result.graph.node(item[0]).depth)
    return _changes(
        chain([(0, [result.facts])], ((k, [s for _, s in group]) for k, group in by_depth)),
        None if queries is None else Matcher(queries),
    )


def check_query(prog: Program, query: Atom) -> None:
    """Raise unless the query's predicate is in the program, with its arity."""
    arity = prog.predicates.get(query.predicate)
    if arity is None:
        raise UnknownPredicateError(f"unknown predicate {query.predicate.text}")
    if arity != query.arity:
        raise QueryArityError(f"query {query}: predicate arity is {arity}")


def collect_lineage(result: "ReasoningResult", prog: Program, *queries: Atom) -> List[Answer]:
    """Answers for `queries`, each ground instance once, with their DNF
    lineage: every store, the database included, read once as one group,
    restricted to the atoms that match a query."""
    if result.truncated:
        raise IncompleteReasoningError(
            "reasoning was truncated by a resource limit; lineage would be partial"
        )
    for query in queries:
        check_query(prog, query)
    stores = [result.facts, *result.stores.values()]
    return answers_of(_changes([(0, stores)], Matcher(queries)))

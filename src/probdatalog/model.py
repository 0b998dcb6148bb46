"""Domain types for probabilistic logic programs.

A program is a set of Datalog rules evaluated over a tuple-independent
probabilistic database: every ground fact is an independent Bernoulli
variable that is true with its annotated probability.  Rules may carry a
probability themselves, which is desugared into an auxiliary nullary fact
appended to the rule body.

Symbols (constants, predicates, variables) are interned process-wide and
compare by identity, and an atom hashes once, when built, so equality and
hashing reduce to pointer and integer comparisons (Filliâtre & Conchon).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import Callable, Collection, Iterator, Mapping, Optional, Sequence


class SymbolKind(Enum):
    CONSTANT = "constant"
    PREDICATE = "predicate"
    VARIABLE = "variable"


@dataclass(frozen=True, eq=False)
class Symbol:
    """Interned symbol; build through `constant`, `variable` or `predicate`."""

    kind: SymbolKind
    text: str

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"{self.kind.value[:5]}:{self.text}"


def _interner(kind: SymbolKind) -> Callable[[str], Symbol]:
    """The intern function of one kind, over its own table: same text, same
    Symbol object.  No lookup hashes the kind (`Enum.__hash__` is Python code)."""
    table: dict[str, Symbol] = {}

    def intern(text: str) -> Symbol:
        sym = table.get(text)
        if sym is None:
            sym = table[text] = Symbol(kind, text)
        return sym

    return intern


constant = _interner(SymbolKind.CONSTANT)
variable = _interner(SymbolKind.VARIABLE)
predicate = _interner(SymbolKind.PREDICATE)


@dataclass(frozen=True, eq=False, slots=True)
class Atom:
    """A predicate applied to constant/variable arguments; nullary allowed."""

    predicate: Symbol
    args: tuple[Symbol, ...] = ()
    _hash: int = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.predicate, self.args)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Atom)
            and self._hash == other._hash
            and self.predicate is other.predicate
            and self.args == other.args
        )

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def is_ground(self) -> bool:
        return all(a.kind is SymbolKind.CONSTANT for a in self.args)

    def sort_key(self) -> tuple:
        return (self.predicate.text,) + tuple(a.text for a in self.args)

    def __str__(self) -> str:
        if not self.args:
            return self.predicate.text
        return f"{self.predicate.text}({','.join(a.text for a in self.args)})"

    __repr__ = __str__


def atom(pred: str, *args: str) -> Atom:
    """Convenience constructor: uppercase-initial arguments are variables."""
    return Atom(
        predicate(pred),
        tuple(variable(a) if a[:1].isupper() else constant(a) for a in args),
    )


class RuleKind(Enum):
    BASE = "base"          # body references database predicates only
    NONBASE = "nonbase"    # body references derived predicates only


@dataclass(frozen=True)
class Rule:
    id: int
    head: Atom
    body: tuple[Atom, ...]
    kind: Optional[RuleKind] = None  # assigned by normalize()

    def __str__(self) -> str:
        return f"{self.head} :- {', '.join(str(a) for a in self.body)}"


@dataclass(frozen=True)
class ProbFact:
    """A ground fact with probability in (0, 1] and a unique variable id."""

    fact: Atom
    prob: float
    var: int


@dataclass(frozen=True)
class Program:
    rules: tuple[Rule, ...]
    facts: tuple[ProbFact, ...]
    queries: tuple[Atom, ...] = ()

    @cached_property
    def fact_predicates(self) -> frozenset[Symbol]:
        return frozenset(f.fact.predicate for f in self.facts)

    @cached_property
    def head_predicates(self) -> frozenset[Symbol]:
        return frozenset(r.head.predicate for r in self.rules)

    @cached_property
    def predicates(self) -> dict[Symbol, int]:
        """The arity of each predicate of facts and rules; a query alone
        does not add one."""
        atoms = [f.fact for f in self.facts]
        atoms += [a for r in self.rules for a in (r.head, *r.body)]
        return {a.predicate: a.arity for a in atoms}

    @cached_property
    def weights(self) -> dict[int, float]:
        """Fact-variable id -> probability of the fact being true."""
        return {f.var: f.prob for f in self.facts}

    @cached_property
    def var_names(self) -> dict[int, str]:
        return {f.var: str(f.fact) for f in self.facts}

    def is_normalized(self) -> bool:
        if self.fact_predicates & self.head_predicates:
            return False
        return all(r.kind is not None for r in self.rules)


# ---------------------------------------------------------------------------
# Substitutions and joins
# ---------------------------------------------------------------------------

Substitution = dict  # variable Symbol -> constant Symbol


def substitute(a: Atom, subst: Mapping[Symbol, Symbol]) -> Atom:
    if not a.args:
        return a
    return Atom(
        a.predicate,
        tuple(subst.get(t, t) if t.kind is SymbolKind.VARIABLE else t for t in a.args),
    )


def match_atom(
    pattern: Atom, fact: Atom, subst: Mapping[Symbol, Symbol]
) -> Optional[Substitution]:
    """Extend `subst` so that pattern[subst] == fact, or return None."""
    if pattern.predicate is not fact.predicate or len(pattern.args) != len(fact.args):
        return None
    out = dict(subst)
    for t, c in zip(pattern.args, fact.args):
        if t.kind is SymbolKind.VARIABLE:
            bound = out.get(t)
            if bound is None:
                out[t] = c
            elif bound is not c:
                return None
        elif t is not c:
            return None
    return out


class EntryBudgetError(RuntimeError):
    """Raised when reasoning would exceed its entry allocation budget."""


def join(
    body: Sequence[Atom], candidates: Sequence[Collection[Atom]]
) -> Iterator[tuple[Substitution, tuple[Atom, ...]]]:
    """Enumerate substitutions grounding `body` against per-position facts.

    Each substitution comes with the candidate fact it chose per position,
    which equals that body atom under the substitution.  Substitutions come
    out in lexicographic order of the chosen candidate facts, so iteration
    is deterministic when the candidate lists are sorted.

    The join is a hash join.  A position's candidates are hashed, when it is
    first probed, on the argument positions its pattern binds already: by a
    constant, or by a variable of an earlier body atom.  A probe is then one
    dict lookup, whose bucket keeps the candidates' order, followed by
    `match_atom`, which still checks repeated variables.  A position with
    nothing bound iterates its candidates as they are.  Candidates with a
    `probes` dict keep their hash indexes there, for later joins to reuse.
    """
    bound_at: list[tuple[int, ...]] = []
    seen: set[Symbol] = set()
    for a in body:
        bound_at.append(tuple(
            p for p, t in enumerate(a.args)
            if t.kind is not SymbolKind.VARIABLE or t in seen
        ))
        seen.update(t for t in a.args if t.kind is SymbolKind.VARIABLE)
    indexes: list[Optional[dict]] = [None] * len(body)

    def probe(i: int, subst: Substitution) -> Collection[Atom]:
        positions = bound_at[i]
        if not positions:
            return candidates[i]
        pattern = body[i]
        index = indexes[i]
        if index is None:
            kept = getattr(candidates[i], "probes", {})
            shape = (pattern.predicate, len(pattern.args), positions)
            index = indexes[i] = kept.get(shape)
            if index is None:
                index = indexes[i] = kept[shape] = {}
                for fact in candidates[i]:
                    if (
                        fact.predicate is pattern.predicate
                        and len(fact.args) == len(pattern.args)
                    ):
                        key = tuple(fact.args[p] for p in positions)
                        index.setdefault(key, []).append(fact)
        args = pattern.args
        return index.get(tuple(subst.get(args[p], args[p]) for p in positions), ())

    if body:
        yield from _extend(body, probe, 0, {}, ())
    else:
        yield {}, ()


def _extend(
    body: Sequence[Atom],
    probe: Callable[[int, Substitution], Collection[Atom]],
    i: int,
    subst: Substitution,
    chosen: tuple[Atom, ...],
) -> Iterator[tuple[Substitution, tuple[Atom, ...]]]:
    # Module level, not a closure that calls itself: such a closure is a
    # reference cycle, and would keep the join's hash indexes alive until
    # the cyclic garbage collector runs.
    pattern = body[i]
    last = i == len(body) - 1
    for fact in probe(i, subst):
        ext = match_atom(pattern, fact, subst)
        if ext is None:
            continue
        if last:
            yield ext, chosen + (fact,)
        else:
            yield from _extend(body, probe, i + 1, ext, chosen + (fact,))


def check_safety(head: Atom, body: Sequence[Atom]) -> Optional[Symbol]:
    """Return an unsafe head variable (one missing from the body), if any."""
    body_vars = {
        t for a in body for t in a.args if t.kind is SymbolKind.VARIABLE
    }
    for t in head.args:
        if t.kind is SymbolKind.VARIABLE and t not in body_vars:
            return t
    return None


# ---------------------------------------------------------------------------
# Rule-probability desugaring
# ---------------------------------------------------------------------------

def fresh_predicate_name(base: str, taken: Collection[str]) -> str:
    if base not in taken:
        return base
    for i in itertools.count(2):
        cand = f"{base}{i}"
        if cand not in taken:
            return cand
    raise AssertionError("unreachable")


def desugar_rule_probability(
    rule: Rule,
    prob: float,
    *,
    taken_names: Collection[str] = (),
    aux_index: int = 0,
    var: int = 0,
) -> tuple[Rule, ProbFact]:
    """Turn a probability-annotated rule into a plain rule plus a dummy fact.

    A fresh nullary atom is appended to the rule body and returned as a
    probabilistic fact carrying the rule's probability.  Distinct annotated
    rules must receive distinct auxiliary predicates (pass `taken_names`).
    """
    if not 0.0 < prob <= 1.0:
        raise ValueError(f"rule probability {prob} outside (0,1]")
    name = fresh_predicate_name(f"aux__{aux_index}", taken_names)
    dummy = Atom(predicate(name))
    new_rule = replace(rule, body=rule.body + (dummy,))
    return new_rule, ProbFact(dummy, prob, var)


# ---------------------------------------------------------------------------
# Normalization into base / non-base form
# ---------------------------------------------------------------------------

def normalize(prog: Program) -> Program:
    """Rewrite a program so every rule is base or non-base.

    Post conditions:
      * database predicates (those carrying facts) and derived predicates
        (those in rule heads) are disjoint;
      * base rules reference only database predicates in their bodies,
        non-base rules only derived ones.

    Two rewrites achieve this.  A predicate straddling facts and rule heads
    has its facts moved to a fresh database predicate `p__f`, bridged by a
    base rule `p(...) :- p__f(...)`.  A database predicate `p` occurring in
    a body next to derived predicates is replaced there by a fresh derived
    alias `p__d`, defined by the base rule `p__d(...) :- p(...)`.

    The rewrite is total, deterministic, and idempotent.
    """
    taken = {p.text for p in prog.predicates} | {q.predicate.text for q in prog.queries}
    rules = list(prog.rules)
    facts = list(prog.facts)
    rule_ids = itertools.count(max((r.id for r in rules), default=-1) + 1)

    def bridge(pred: Symbol, suffix: str, arity: int, new_is_head: bool) -> Rule:
        """The base rule copying `pred` into a fresh predicate named after
        it, or back when `new_is_head` is false."""
        name = fresh_predicate_name(f"{pred.text}{suffix}", taken)
        taken.add(name)
        args = tuple(variable(f"X{i}") for i in range(arity))
        new, old = Atom(predicate(name), args), Atom(pred, args)
        head, body = (new, old) if new_is_head else (old, new)
        return Rule(next(rule_ids), head, (body,), RuleKind.BASE)

    # Step 1: split predicates that have both facts and defining rules.
    for pred in sorted(prog.fact_predicates & prog.head_predicates, key=lambda p: p.text):
        arity = next(f.fact.arity for f in facts if f.fact.predicate is pred)
        rules.append(bridge(pred, "__f", arity, new_is_head=False))
        src = rules[-1].body[0].predicate
        facts = [
            replace(f, fact=Atom(src, f.fact.args)) if f.fact.predicate is pred else f
            for f in facts
        ]

    # Step 2: classify bodies; alias database predicates in mixed bodies.
    derived = {r.head.predicate for r in rules}
    aliases: dict[Symbol, Rule] = {}

    def alias(a: Atom) -> Atom:
        if a.predicate in derived:
            return a
        if a.predicate not in aliases:
            aliases[a.predicate] = bridge(a.predicate, "__d", a.arity, new_is_head=True)
        return Atom(aliases[a.predicate].head.predicate, a.args)

    out_rules = [
        replace(rule, body=tuple(map(alias, rule.body)), kind=RuleKind.NONBASE)
        if any(a.predicate in derived for a in rule.body)
        else replace(rule, kind=RuleKind.BASE)
        for rule in rules
    ]
    out = Program(tuple(out_rules) + tuple(aliases.values()), tuple(facts), prog.queries)
    assert out.is_normalized()
    return out

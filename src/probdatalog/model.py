"""Domain types for probabilistic logic programs.

A program is a set of Datalog rules evaluated over a tuple-independent
probabilistic database: every ground fact is an independent Bernoulli
variable that is true with its annotated probability.  Rules may carry a
probability themselves, which is desugared into an auxiliary nullary fact
appended to the rule body.

Symbols (constants, predicates, variables) and atoms are hash-consed
(Filliâtre & Conchon): equal content makes one object, so equality and
hashing are the identity defaults, pointer comparisons in C.  A symbol
lives as long as the process, an atom only while something references it.
A rule's body is compiled once into a nested-loop hash join, `groundings`,
which both engines use.
"""

from __future__ import annotations

import itertools
import weakref
from collections import namedtuple
from dataclasses import FrozenInstanceError, dataclass, replace
from enum import Enum
from functools import cached_property
from operator import itemgetter
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


_ATOMS: dict[tuple, weakref.KeyedRef] = {}  # (predicate, args) -> the live atom


def _forget(ref: weakref.KeyedRef) -> None:
    if _ATOMS.get(ref.key) is ref:  # a newer atom may hold the key already
        del _ATOMS[ref.key]


class Atom:
    """A predicate applied to constant/variable arguments; nullary allowed.

    `Atom(predicate, args)` returns the one live atom with that content, so
    atoms compare and hash by identity.  Atoms are immutable."""

    __slots__ = ("predicate", "args", "__weakref__")
    predicate: Symbol
    args: tuple[Symbol, ...]

    def __new__(cls, predicate: Symbol, args: tuple[Symbol, ...] = ()) -> "Atom":
        ref = _ATOMS.get((predicate, args))
        if ref is None or (a := ref()) is None:
            a = object.__new__(cls)
            object.__setattr__(a, "predicate", predicate)
            object.__setattr__(a, "args", args)
            _ATOMS[predicate, args] = weakref.KeyedRef(a, _forget, (predicate, args))
        return a

    def __setattr__(self, name, *_):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

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

    @cached_property
    def plan(self) -> tuple:
        """The rule compiled for `groundings`, once."""
        return _compile(self)

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
# Matching and joins
# ---------------------------------------------------------------------------

def match_atom(
    pattern: Atom, fact: Atom, subst: Mapping[Symbol, Symbol]
) -> Optional[dict[Symbol, Symbol]]:
    """Extend `subst`, variable -> constant, so that pattern[subst] == fact,
    or return None."""
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


# A ground head and the fact chosen at each body position.
Grounding = tuple[Atom, tuple[Atom, ...]]


def _getter(idx: Sequence[int], as_tuple: bool = False) -> Callable:
    """Items `idx` of a sequence as a tuple, one item bare unless `as_tuple`."""
    if len(idx) == 1 and as_tuple:
        (i,) = idx
        return lambda xs: (xs[i],)
    return itemgetter(*idx) if idx else lambda _: ()


# One body atom of a compiled rule: candidates are hashed on the arguments at
# `positions`, `key` reads a probe's key from the slots, `first` copies the
# variables first bound here to slots `lo` to `hi`, and each (p, q) of
# `checks` asks argument p to repeat argument q.
_Step = namedtuple("_Step", "predicate arity positions key first lo hi checks")


def _compile(rule: Rule) -> tuple:
    """Steps, initial slots, head predicate and head getter.  The body
    variables' slots, by first occurrence, start empty; others hold a term."""
    terms = [t for a in rule.body for t in a.args]
    variables = dict.fromkeys(t for t in terms if t.kind is SymbolKind.VARIABLE)
    slot = {t: i for i, t in enumerate(dict.fromkeys([*variables, *terms, *rule.head.args]))}
    steps, bound = [], set()
    for a in rule.body:
        positions, first, checks = [], [], []
        for p, t in enumerate(a.args):
            if t.kind is not SymbolKind.VARIABLE or t in bound:
                positions.append(p)
            elif a.args.index(t) < p:
                checks.append((p, a.args.index(t)))
            else:
                first.append(p)
        lo = slot[a.args[first[0]]] if first else 0
        key = _getter([slot[a.args[p]] for p in positions])
        steps.append(_Step(a.predicate, len(a.args), tuple(positions), key,
                           _getter(first, True), lo, lo + len(first), tuple(checks)))
        bound.update(a.args)
    slots = [None] * len(variables) + list(slot)[len(variables):]
    return steps, slots, rule.head.predicate, _getter([slot[t] for t in rule.head.args], True)


def _index(candidates: Collection[Atom], step: _Step) -> dict:
    """The candidates of the step's predicate and arity, in their order,
    by key.  A `probes` dict on `candidates` keeps it under that shape."""
    probes = getattr(candidates, "probes", {})
    shape = (step.predicate, step.arity, step.positions)
    index = probes.get(shape)
    if index is None:
        index, key = probes.setdefault(shape, {}), _getter(step.positions)
        for fact in candidates:
            if fact.predicate is step.predicate and len(fact.args) == step.arity:
                index.setdefault(key(fact.args), []).append(fact)
    return index


def groundings(rule: Rule, candidates: Sequence[Collection[Atom]]) -> Iterator[Grounding]:
    """Each ground head of `rule` over per-position candidate facts, with
    the candidate chosen at each position, in the nested loop's order; a
    rule with no body, which no program has, has none.

    The loop is a hash join compiled once per rule (`Rule.plan`): a probe
    is one dict lookup on the arguments bound already, by a constant or an
    earlier body atom, and its bucket keeps the candidates' order.
    Candidates with a `probes` dict keep their hash indexes there, for
    later joins to reuse.
    """
    steps, slots, pred, head = rule.plan
    if not (steps and all(candidates)):
        return
    vals = list(slots)
    indexes = [_index(c, s) for c, s in zip(candidates, steps)]
    last = len(steps) - 1
    chosen: list = [None] * len(steps)
    its = [iter(indexes[0].get(steps[0].key(vals), ()))] + chosen[1:]
    i = 0
    while i >= 0:
        _, _, _, _, first, lo, hi, checks = steps[i]
        for fact in its[i]:
            args = fact.args
            if checks and any(args[p] is not args[q] for p, q in checks):
                continue
            vals[lo:hi] = first(args)
            chosen[i] = fact
            if i == last:
                yield Atom(pred, head(vals)), tuple(chosen)
            else:  # on to the next position; this one resumes after it
                i += 1
                its[i] = iter(indexes[i].get(steps[i].key(vals), ()))
                break
        else:
            i -= 1


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

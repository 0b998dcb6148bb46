"""Independent brute-force oracles used to cross-check the engines.

Everything here deliberately avoids the package's join/instantiation
machinery: the least-model evaluator is a naive ground fixpoint with its
own matcher, and explanations are enumerated over all fact subsets.
"""

from fractions import Fraction
from itertools import combinations

from probdatalog import Atom, Dnf, Program
from probdatalog.model import SymbolKind


def _match(pattern: Atom, fact: Atom, binding: dict):
    if pattern.predicate.text != fact.predicate.text:
        return None
    if len(pattern.args) != len(fact.args):
        return None
    out = dict(binding)
    for term, const in zip(pattern.args, fact.args):
        if term.kind is SymbolKind.VARIABLE:
            if term.text in out:
                if out[term.text] != const.text:
                    return None
            else:
                out[term.text] = const.text
        elif term.text != const.text:
            return None
    return out


def _ground(atom: Atom, binding: dict) -> tuple:
    parts = []
    for term in atom.args:
        parts.append(binding[term.text] if term.kind is SymbolKind.VARIABLE else term.text)
    return (atom.predicate.text, tuple(parts))


def _as_key(atom: Atom) -> tuple:
    return (atom.predicate.text, tuple(a.text for a in atom.args))


def _match_key(pattern: Atom, key: tuple, binding: dict):
    pred, args = key
    if pattern.predicate.text != pred or len(pattern.args) != len(args):
        return None
    out = dict(binding)
    for term, const in zip(pattern.args, args):
        if term.kind is SymbolKind.VARIABLE:
            if term.text in out:
                if out[term.text] != const:
                    return None
            else:
                out[term.text] = const
        elif term.text != const:
            return None
    return out


def least_model(rules, base_atoms) -> frozenset:
    """Naive bottom-up fixpoint; atoms are (predicate, args) text keys."""
    model = {_as_key(a) for a in base_atoms}

    def matches(atoms, body, i, binding):
        if i == len(body):
            yield binding
            return
        for fact in atoms:
            ext = _match_key(body[i], fact, binding)
            if ext is not None:
                yield from matches(atoms, body, i + 1, ext)

    changed = True
    while changed:
        changed = False
        snapshot = list(model)
        for rule in rules:
            for binding in matches(snapshot, rule.body, 0, {}):
                head = _ground(rule.head, binding)
                if head not in model:
                    model.add(head)
                    changed = True
    return frozenset(model)


def explanation_map(prog: Program) -> dict:
    """Minimal-explanation DNF for every atom derivable from the program.

    Enumerates every subset of the program's facts once, computes its least
    model, and lets absorption reduce the entailing subsets per atom to the
    minimal ones.  Keys are (predicate, args) text tuples.
    """
    facts = list(prog.facts)
    clauses: dict = {}
    for r in range(len(facts) + 1):
        for combo in combinations(facts, r):
            world = frozenset(f.var for f in combo)
            for key in least_model(prog.rules, [f.fact for f in combo]):
                clauses.setdefault(key, []).append(world)
    return {key: Dnf.from_clauses(cs) for key, cs in clauses.items()}


def explanation_dnf(prog: Program, alpha: Atom) -> Dnf:
    """Disjunction of the minimal fact subsets entailing `alpha`."""
    return explanation_map(prog).get(_as_key(alpha), Dnf.from_clauses([]))


def model_atoms(prog: Program) -> frozenset:
    """Least model of the program with every fact assumed present."""
    return least_model(prog.rules, [f.fact for f in prog.facts])


def atom_key(atom: Atom) -> tuple:
    return _as_key(atom)


def exact_probability(clauses, weights) -> Fraction:
    """Pr[DNF] as an exact rational: the summed weight of every possible
    world over the formula's variables that satisfies some clause.

    Each float weight converts to `Fraction` without rounding, so the result
    is the exact value the floating-point solvers approximate.
    """
    clauses = [frozenset(c) for c in clauses]
    variables = sorted(set().union(*clauses))

    def worlds(i: int, world: frozenset, weight: Fraction) -> Fraction:
        if i == len(variables):
            return weight if any(c <= world for c in clauses) else Fraction(0)
        v = variables[i]
        p = Fraction(weights[v])
        return worlds(i + 1, world | {v}, weight * p) + worlds(
            i + 1, world, weight * (1 - p)
        )

    return worlds(0, frozenset(), Fraction(1))

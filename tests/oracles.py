"""Independent brute-force oracles and reference definitions used to
cross-check the engines.

The least-model evaluator is a naive ground fixpoint with its own matcher,
and explanations are enumerated over all fact subsets; both avoid the
package's join/instantiation machinery.  The rest are the literal
definitions the package computes more cleverly: k-compatible parent tuples
and the unpruned graph growth built on them, the per-node join that grounds
a node's body against its sources' root facts, the unfoldings of a collapsed
derivation, the lineage of a stored derivation, the paper's root-only
redundancy rule, the probability of a path DNF, DNF evaluation and
conditioning, truth tables, and the variable-disjoint components of a
clause set.
"""

from fractions import Fraction
from itertools import combinations, product
from typing import Iterator, List

from probdatalog import FALSE, TRUE, Atom, Dnf, Program, TooManyVariablesError
from probdatalog.derivations import DerivationEntry, Label, Leaf
from probdatalog.graph import EgNode, ExecutionGraph
from probdatalog.model import Rule, RuleKind, SymbolKind, groundings


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


def path_probability(weights) -> Fraction:
    """Pr[x0 x1 or x1 x2 or ... or x(n-1) xn] exactly, for the weights of
    x0..xn: one minus the two-state transfer-matrix recursion for Pr[no two
    consecutive variables true]."""
    p0 = Fraction(weights[0])
    last_false, last_true = 1 - p0, p0
    for v in range(1, len(weights)):
        p = Fraction(weights[v])
        last_false, last_true = (last_false + last_true) * (1 - p), last_false * p
    return 1 - last_false - last_true


# ---------------------------------------------------------------------------
# Reference definitions
# ---------------------------------------------------------------------------

def k_compatible(g: ExecutionGraph, rule: Rule, k: int) -> List[tuple]:
    """Parent tuples eligible to feed a fresh depth-k node for `rule`.

    Per body position the head predicate must match, every parent must be
    shallower than k, and at least one parent must sit at depth k - 1.
    Tuples come out in lexicographic node-id order.  A base rule's body
    reads the database, at depth 0, so its one tuple is the empty one, at
    depth 1.
    """
    if rule.kind is RuleKind.BASE:
        return [()] if k == 1 else []
    per_position: List[List[EgNode]] = []
    for a in rule.body:
        cands = [
            n
            for n in g.live_nodes()
            if n.depth < k and n.rule.head.predicate is a.predicate
        ]
        if not cands:
            return []
        per_position.append(cands)
    return [
        tuple(n.id for n in combo)
        for combo in product(*per_position)
        if any(n.depth == k - 1 for n in combo)
    ]


def grow_unpruned(g: ExecutionGraph, rules, k: int) -> List[EgNode]:
    """Extend `g` to depth k with a node for every k-compatible tuple of
    every rule, whether or not its parents' facts join."""
    return [g.add_node(r, parents) for r in rules for parents in k_compatible(g, r, k)]


def node_groundings(node: EgNode, facts, stores) -> List[tuple]:
    """The groundings of one node, (head fact, chosen root facts), from its
    own join: the i-th body atom against the sorted root facts of the
    database for a base node, of the i-th parent's store otherwise."""
    rule = node.rule
    if rule.kind is RuleKind.BASE:
        sources = [facts] * len(rule.body)
    else:
        sources = [stores[p] for p in node.parents]
    candidates = [sorted(s.by_root, key=Atom.sort_key) for s in sources]
    return list(groundings(rule, candidates))


def has_or(x, memo=None) -> bool:
    """True iff an OR entry occurs in the DAG of `x` (memoized per call)."""
    if isinstance(x, Leaf):
        return False
    memo = {} if memo is None else memo
    if id(x) not in memo:
        memo[id(x)] = x.label is Label.OR or any(has_or(c, memo) for c in x.children)
    return memo[id(x)]


def unfold(entry) -> Iterator:
    """Plain-AND derivations encoded by an entry, lazily.

    An entry without OR labels unfolds to itself; an OR entry to the
    concatenation of its children's unfoldings; an AND entry above an OR
    to the Cartesian product of its children's unfoldings, re-rooted under
    the entry's own root fact.
    """
    if not has_or(entry):
        yield entry
        return
    if entry.label is Label.OR:
        for child in entry.children:
            yield from unfold(child)
        return
    for combo in product(*(tuple(unfold(c)) for c in entry.children)):
        yield DerivationEntry(entry.root, Label.AND, combo, entry.home)


def unfolded_dnf(x, memo=None) -> Dnf:
    """Lineage of a stored derivation by its definition, never through an
    entry's cached clause: a leaf is its variable, an AND entry the `and_`
    of its children's lineage, an OR entry their `or_` (memoized per call)."""
    if isinstance(x, Leaf):
        return Dnf.single(x.var)
    memo = {} if memo is None else memo
    if id(x) not in memo:
        out = TRUE if x.label is Label.AND else FALSE
        for c in x.children:
            d = unfolded_dnf(c, memo)
            out = out.and_(d) if x.label is Label.AND else out.or_(d)
        memo[id(x)] = out
    return memo[id(x)]


def root_only_redundant(entry: DerivationEntry) -> bool:
    """The paper's rule: true iff every unfolding of `entry` repeats its
    root fact internally.

    avoid(x) decides whether some unfolding of subtree x is free of the
    root fact, conjoining over AND children and disjoining over OR
    alternatives, with memoization over the shared DAG.
    """
    target = entry.root
    memo: dict = {}

    def avoid(x) -> bool:
        if isinstance(x, Leaf):
            return True
        cached = memo.get(id(x))
        if cached is not None:
            return cached
        if x.root == target:
            res = False
        elif x.label is Label.AND:
            res = all(avoid(c) for c in x.children)
        else:
            res = any(avoid(c) for c in x.children)
        memo[id(x)] = res
        return res

    def root_clear(x: DerivationEntry) -> bool:
        # Occurrence of the root fact AT the root is allowed; an OR entry
        # is clear when some alternative is.
        if x.label is Label.AND:
            return all(avoid(c) for c in x.children)
        return any(root_clear(c) for c in x.children)

    return not root_clear(entry)


def condition(d: Dnf, var: int, value: bool) -> Dnf:
    """Restrict the formula by fixing one (positive) variable."""
    if value:
        return Dnf.from_clauses(c - {var} if var in c else c for c in d.clauses)
    return Dnf(frozenset(c for c in d.clauses if var not in c))


def evaluate(d: Dnf, true_vars) -> bool:
    """Value of `d` in the world where exactly `true_vars` are true."""
    return any(c <= true_vars for c in d.clauses)


def evaluate_all(d: Dnf, variables: List[int]):
    """Truth table of `d` over an explicit variable order (bit i = variables[i])."""
    import numpy as np

    n = len(variables)
    if n > 26:
        raise TooManyVariablesError(f"{n} variables is too many for a truth table")
    extra = d.variables - set(variables)
    if extra:
        raise ValueError(f"formula mentions variables outside the order: {sorted(extra)}")
    bit = {v: i for i, v in enumerate(variables)}
    worlds = np.arange(1 << n, dtype=np.uint64)
    sat = np.zeros(len(worlds), dtype=bool)
    for c in d.clauses:
        m = np.uint64(sum(1 << bit[v] for v in c))
        sat |= (worlds & m) == m
    return sat


def truth_table_equal(a: Dnf, b: Dnf, max_vars: int = 20) -> bool:
    """Exact Boolean-function equality by full truth-table comparison."""
    variables = sorted(a.variables | b.variables)
    if len(variables) > max_vars:
        raise TooManyVariablesError(
            f"{len(variables)} variables exceed the {max_vars} truth-table limit"
        )
    return bool((evaluate_all(a, variables) == evaluate_all(b, variables)).all())


def mask_components(masks) -> List[tuple]:
    """Variable-disjoint groups of clause bitmasks by union-find over bit
    positions: groups in order of their smallest mask, ascending within."""
    parent = {}

    def find(p: int) -> int:
        while parent.setdefault(p, p) != p:
            p = parent[p]
        return p

    for m in masks:
        positions = [p for p in range(m.bit_length()) if m >> p & 1]
        for p in positions[1:]:
            parent[find(p)] = find(positions[0])
    groups = {}
    for m in sorted(masks):
        groups.setdefault(find(m.bit_length() - 1), []).append(m)
    return [tuple(g) for g in groups.values()]

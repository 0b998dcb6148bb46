"""Exact probability of monotone DNF lineage under tuple independence.

`probability` is a knowledge-compilation style solver: it conditions away
certain variables, splits variable-disjoint components, and otherwise
Shannon-expands on the most frequent variable, memoizing residual clause
sets.  `brute_force_probability` enumerates possible worlds literally and
serves as the independent oracle.  Only the possible-world enumerators
import numpy, which costs about 14 MB and a tenth of a second, so a process
that uses the exact solver alone never loads it.
"""

from __future__ import annotations

import math
from collections import Counter, OrderedDict
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Mapping

from .lineage import Dnf, _absorb

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

Clause = FrozenSet[int]

DEFAULT_STEP_BUDGET = 2_000_000
DEFAULT_MEMO_CAP = 1_000_000
BRUTE_FORCE_MAX_VARS = 25
_CHUNK = 1 << 20


class WmcBudgetError(RuntimeError):
    """Raised when the solver exceeds its recursion budget."""


class UnweightedVariableError(ValueError):
    pass


class TooManyVariablesError(ValueError):
    pass


def _check_weights(d: Dnf, weights: Mapping[int, float]) -> None:
    missing = [v for v in d.variables if v not in weights]
    if missing:
        raise UnweightedVariableError(f"no weight for variables {sorted(missing)}")


def _condition_true(clauses: frozenset[Clause], var: int) -> frozenset[Clause]:
    return _absorb(c - {var} if var in c else c for c in clauses)


def _condition_false(clauses: frozenset[Clause], var: int) -> frozenset[Clause]:
    return frozenset(c for c in clauses if var not in c)


def _components(clauses: frozenset[Clause]) -> List[frozenset[Clause]]:
    """Partition clauses into variable-disjoint groups."""
    parent: Dict[int, int] = {}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for c in clauses:
        it = iter(c)
        first = next(it)
        parent.setdefault(first, first)
        r = find(first)
        for v in it:
            parent.setdefault(v, v)
            rv = find(v)
            if rv != r:
                parent[rv] = r
    groups: Dict[int, List[Clause]] = {}
    for c in clauses:
        groups.setdefault(find(next(iter(c))), []).append(c)
    return [frozenset(g) for _, g in sorted(groups.items())]


def probability(
    d: Dnf,
    weights: Mapping[int, float],
    max_steps: int = DEFAULT_STEP_BUDGET,
    memo_cap: int = DEFAULT_MEMO_CAP,
) -> float:
    """Exact Pr[d] when each variable is independently true with its weight."""
    _check_weights(d, weights)
    memo: OrderedDict[frozenset[Clause], float] = OrderedDict()
    steps = 0

    def pr(clauses: frozenset[Clause]) -> float:
        nonlocal steps
        if not clauses:
            return 0.0
        if frozenset() in clauses:
            return 1.0
        cached = memo.get(clauses)
        if cached is not None:
            memo.move_to_end(clauses)
            return cached
        steps += 1
        if steps > max_steps:
            raise WmcBudgetError(f"wmc budget exceeded ({max_steps} expansions)")

        comps = _components(clauses)
        if len(comps) > 1:
            # 1 - prod(1 - p) in log space keeps relative accuracy for small p
            ps = [pr(comp) for comp in comps]
            if max(ps) >= 1.0:
                out = 1.0
            else:
                out = -math.expm1(sum(math.log1p(-p) for p in ps))
        else:
            counts = Counter(v for c in clauses for v in c)
            x = max(counts, key=lambda v: (counts[v], -v))
            w = weights[x]
            if w >= 1.0:
                out = pr(_condition_true(clauses, x))
            else:
                out = w * pr(_condition_true(clauses, x)) + (1.0 - w) * pr(
                    _condition_false(clauses, x)
                )
        if len(memo) >= memo_cap:
            memo.popitem(last=False)
        memo[clauses] = out
        return out

    return min(max(pr(d.clauses), 0.0), 1.0)


def brute_force_probability(
    d: Dnf,
    weights: Mapping[int, float],
    max_vars: int = BRUTE_FORCE_MAX_VARS,
) -> float:
    """Sum of the weights of all possible worlds satisfying `d`.

    Worlds range over the variables occurring in `d`; facts outside the
    formula marginalize out.  Enumeration is vectorized over world bitmasks
    and chunked to bound memory.
    """
    import numpy as np

    _check_weights(d, weights)
    variables = sorted(d.variables)
    n = len(variables)
    if n > max_vars:
        raise TooManyVariablesError(f"{n} variables exceed the {max_vars} limit")
    bit = {v: i for i, v in enumerate(variables)}
    masks = [
        np.uint64(sum(1 << bit[v] for v in c)) for c in d.clauses
    ]
    probs = [weights[v] for v in variables]

    total = 0.0
    for start in range(0, 1 << n, _CHUNK):
        end = min(start + _CHUNK, 1 << n)
        worlds = np.arange(start, end, dtype=np.uint64)
        sat = np.zeros(len(worlds), dtype=bool)
        for m in masks:
            sat |= (worlds & m) == m
        if not sat.any():
            continue
        weight = np.ones(len(worlds), dtype=np.float64)
        for i, p in enumerate(probs):
            on = (worlds >> np.uint64(i)) & np.uint64(1)
            weight *= np.where(on == 1, p, 1.0 - p)
        total += float(weight[sat].sum())
    return total


def evaluate_all(d: Dnf, variables: List[int]) -> np.ndarray:
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

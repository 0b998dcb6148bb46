"""Exact probability of monotone DNF lineage under tuple independence.

`probability` is a knowledge-compilation style solver: it conditions away
certain variables, splits variable-disjoint components, and otherwise
Shannon-expands on the most frequent variable, memoizing residual
formulas.  A clause is an int bitmask over the variables renumbered in id
order, and a residual formula is the ascending tuple of its distinct
masks, so the tuple is its own memo key.  Setting x true needs only cross
absorption: a shortened clause c - {x} may swallow a clause that never
held x.  Components come from a sweep in mask order, or, if its runs
overlap, from closures grown from the smallest clause left.  The memo is
released on return.  `brute_force_probability` enumerates possible worlds
literally as the independent oracle; only it imports numpy (about 14 MB).
"""

from __future__ import annotations

import math
from collections import Counter
from functools import reduce
from itertools import chain
from operator import or_
from typing import Dict, List, Mapping, Tuple

from .lineage import Dnf

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


class _Bits(dict):  # clause mask -> its bit positions, ascending, filled on lookup
    def __missing__(self, mask: int) -> Tuple[int, ...]:
        out, rest = [], mask
        while rest:
            out.append((rest & -rest).bit_length() - 1)
            rest &= rest - 1
        self[mask] = bits = tuple(out)
        return bits


def _components(clauses: Tuple[int, ...]) -> List[Tuple[int, ...]]:
    """Variable-disjoint groups of ascending clause masks: runs of clauses
    that touch their run so far, or, if runs overlap, closures grown from the
    smallest clause left.  Groups come in order of their smallest mask."""
    starts, reach, cur = [0], [], clauses[0]
    for i, m in enumerate(clauses):
        if not m & cur:
            starts.append(i)
            reach.append(cur)
            cur = 0
        cur |= m
    reach.append(cur)
    if reduce(or_, reach) == sum(reach):  # the runs share no bit
        return [clauses[a:b] for a, b in zip(starts, starts[1:] + [None])]
    groups, rest = [], clauses
    while rest:
        cur, grown = 0, rest[0]
        while grown != cur:
            cur = grown
            group = [m for m in rest if m & cur]
            grown = reduce(or_, group)
        groups.append(tuple(group))
        rest = [m for m in rest if not m & cur]
    return groups


def probability(
    d: Dnf,
    weights: Mapping[int, float],
    max_steps: int = DEFAULT_STEP_BUDGET,
) -> float:
    """Exact Pr[d] when each variable is independently true with its weight."""
    _check_weights(d, weights)
    bit = {v: 1 << i for i, v in enumerate(sorted(d.variables))}
    w = {bit[v]: weights[v] for v in d.variables}
    bits = _Bits()
    memo: Dict[Tuple[int, ...], float] = {}  # stops growing at DEFAULT_MEMO_CAP
    steps = 0

    def pr(clauses: Tuple[int, ...]) -> float:  # distinct masks, ascending
        nonlocal steps
        if not clauses:
            return 0.0
        if clauses[0] == 0:
            return 1.0
        cached = memo.get(clauses)
        if cached is not None:
            return cached
        steps += 1
        if steps > max_steps:
            raise WmcBudgetError(f"wmc budget exceeded ({max_steps} expansions)")

        comps = _components(clauses) if len(clauses) > 1 else ()
        if len(comps) > 1:
            # 1 - prod(1 - p) in log space keeps relative accuracy for small p
            ps = [pr(comp) for comp in comps]
            out = 1.0 if max(ps) >= 1.0 else -math.expm1(math.fsum(math.log1p(-p) for p in ps))
        else:
            if len(clauses) == 1:  # every count is 1, so branch on the lowest bit
                b = (m := clauses[0]) & -m
                true, without = (m ^ b,), ()
            else:
                counts = Counter(chain.from_iterable(map(bits.__getitem__, clauses)))
                top = max(counts.values())
                b = 1 << min([p for p, n in counts.items() if n == top])
                without = tuple([m for m in clauses if not m & b])
                shortened = [m ^ b for m in clauses if m & b]  # still ascending
                # only a shortened clause can swallow, and only an unshortened one
                kept, union = without, reduce(or_, without, 0)
                for r in [r for r in shortened if not r & ~union]:
                    kept = [u for u in kept if u & r != r]
                true = tuple(sorted(shortened + list(kept)))  # a merge of two runs
            if w[b] >= 1.0:
                out = pr(true)
            else:
                out = w[b] * pr(true) + (1.0 - w[b]) * pr(without)
        if len(memo) < DEFAULT_MEMO_CAP:
            memo[clauses] = out
        return out

    try:
        return min(max(pr(tuple(sorted({sum(bit[v] for v in c) for c in d.clauses}))), 0.0), 1.0)
    finally:
        del pr  # pr refers to itself; breaking that cycle frees the memo now


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


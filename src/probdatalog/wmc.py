"""Exact probability of monotone DNF lineage under tuple independence.

`probability` evaluates closed forms first, as a d-tree does (Olteanu,
Huang & Koch, ICDE 2010): one clause is the product of its weights,
multiplied highest variable first, and variable-disjoint clauses combine
as 1 - prod(1 - p) in log space.  Any other formula goes to a search that
conditions away certain variables, splits variable-disjoint components,
and otherwise Shannon-expands on the most frequent variable, memoizing
residual formulas; a residual or component of one clause is again a
product.  A clause is an int bitmask over the variables renumbered in id
order, and a residual formula is the ascending tuple of its distinct
masks, so the tuple is its own memo key.  Setting x true needs only cross
absorption: a shortened clause c - {x} may swallow a clause that never
held x.  Components are the connected runs of a sweep in mask order,
merged while they share a variable; a component is connected, so it is
not split again.  The search runs on a stack of frames and a stack of
values, so no call recurses and the recursion limit does not bound it; a
path-shaped DNF still costs time quadratic in its length.
The memo is released on return.  `brute_force_probability` enumerates
possible worlds literally as the independent oracle; only it imports
numpy (about 14 MB).
"""

from __future__ import annotations

import math
from collections import _count_elements  # the C counter behind Counter.update
from functools import reduce
from itertools import chain
from operator import or_
from typing import Dict, Iterable, List, Mapping, Tuple

from .lineage import Dnf

DEFAULT_STEP_BUDGET = 2_000_000
DEFAULT_MEMO_CAP = 1_000_000
BRUTE_FORCE_MAX_VARS = 25
_CHUNK = 1 << 20
_SPLIT, _SOLVE, _OR, _SHANNON = range(4)  # the kinds of solver frames


class WmcBudgetError(RuntimeError):
    """Raised when the solver exceeds its expansion budget."""


class UnweightedVariableError(ValueError):
    pass


class TooManyVariablesError(ValueError):
    pass


def _check_weights(variables: Iterable[int], weights: Mapping[int, float]) -> None:
    missing = [v for v in variables if v not in weights]
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
    """Variable-disjoint groups of ascending clause masks, by smallest mask:
    a sweep in mask order cuts runs, each clause touching its run so far, so
    a run is connected, and the runs merge while their unions share a bit."""
    starts, reach, cur = [0], [], clauses[0]
    for i, m in enumerate(clauses):
        if not m & cur:
            starts.append(i)
            reach.append(cur)
            cur = 0
        cur |= m
    reach.append(cur)
    runs = [clauses[a:b] for a, b in zip(starts, starts[1:] + [None])]
    if reduce(or_, reach) == sum(reach):  # the runs share no bit
        return runs
    groups: List[Tuple[int, List[int]]] = []  # (union, clauses), disjoint
    for u, run in zip(reach, runs):
        part = list(run)
        for v, p in groups:
            if v & u:
                u |= v
                part += p
        groups = [g for g in groups if not g[0] & u] + [(u, part)]
    return [clauses] if len(groups) == 1 else sorted(tuple(sorted(p)) for _, p in groups)


def _independent_or(ps: List[float]) -> float:
    """Pr of a disjunction of independent parts: 1 - prod(1 - p) in log
    space, which keeps relative accuracy for small p."""
    return 1.0 if max(ps) >= 1.0 else -math.expm1(math.fsum(math.log1p(-p) for p in ps))


def probability(
    d: Dnf,
    weights: Mapping[int, float],
    max_steps: int = DEFAULT_STEP_BUDGET,
) -> float:
    """Exact Pr[d] when each variable is independently true with its weight."""
    variables = d.variables
    _check_weights(variables, weights)
    # A weight of 1 or more is certain, so every product may take it as 1.
    if d.clauses and len(variables) == sum(map(len, d.clauses)):  # disjoint
        ps = [
            math.prod([min(weights[v], 1.0) for v in sorted(c, reverse=True)], start=1.0)
            for c in d.clauses
        ]
        return min(max(ps[0] if len(ps) == 1 else _independent_or(ps), 0.0), 1.0)
    order = sorted(variables)
    bit = {v: 1 << i for i, v in enumerate(order)}
    w = [min(weights[v], 1.0) for v in order]  # by bit position
    bits = _Bits()
    memo: Dict[Tuple[int, ...], float] = {}  # stops growing at DEFAULT_MEMO_CAP
    steps = 0
    vals: List[float] = []  # the values of the residuals solved so far
    # Frames: (_SPLIT or _SOLVE, residual, None) asks for Pr[residual], whose
    # components are not yet known or are known to be one; (_OR, residual, n)
    # and (_SHANNON, residual, weight) combine the values of its last parts.
    todo: list = [(_SPLIT, tuple(sorted({sum(bit[v] for v in c) for c in d.clauses})), None)]
    while todo:
        kind, clauses, arg = todo.pop()
        if kind == _OR or kind == _SHANNON:  # its parts are solved
            if kind == _OR:
                out = _independent_or(vals[-arg:])
                del vals[-arg:]
            else:
                out = vals.pop()
                if arg < 1.0:  # out is Pr[without]; Pr[true] lies below it
                    out = arg * vals.pop() + (1.0 - arg) * out
            if len(memo) < DEFAULT_MEMO_CAP:
                memo[clauses] = out
            vals.append(out)
        elif not clauses:
            vals.append(0.0)
        elif len(clauses) == 1 or clauses[0] == 0:  # a conjunction, or true
            # highest variable first, the nesting Shannon expansion gave
            vals.append(math.prod([w[i] for i in reversed(bits[clauses[0]])], start=1.0))
        elif (cached := memo.get(clauses)) is not None:
            vals.append(cached)
        else:
            steps += 1
            if steps > max_steps:
                raise WmcBudgetError(f"wmc budget exceeded ({max_steps} expansions)")
            comps = _components(clauses) if kind == _SPLIT else ()
            if len(comps) > 1:
                todo.append((_OR, clauses, len(comps)))
                todo.extend([(_SOLVE, comp, None) for comp in reversed(comps)])
            else:
                counts: Dict[int, int] = {}
                _count_elements(counts, chain(*map(bits.__getitem__, clauses)))
                top = max(counts.values())
                pos = min([i for i, n in counts.items() if n == top])
                b = 1 << pos
                without = tuple([m for m in clauses if not m & b])
                shortened = [m ^ b for m in clauses if m & b]  # still ascending
                # only a shortened clause can swallow, and only an unshortened one
                kept, outside = without, ~reduce(or_, without, 0)
                for r in [r for r in shortened if not r & outside]:
                    kept = [u for u in kept if u & r != r]
                shortened += kept  # now the true branch, a merge of two runs
                shortened.sort()
                todo.append((_SHANNON, clauses, w[pos]))
                if w[pos] < 1.0:
                    todo.append((_SPLIT, without, None))
                todo.append((_SPLIT, tuple(shortened), None))  # solved first
    return min(max(vals[0], 0.0), 1.0)


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

    variables = sorted(d.variables)
    _check_weights(variables, weights)
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


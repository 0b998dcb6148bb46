"""Reachability benchmark generators; byte-identical output per seed."""

from __future__ import annotations

import random
import string

REACHABILITY_RULES = (
    "p(X,Y) :- e(X,Y).",
    "p(X,Y) :- p(X,Z), p(Z,Y).",
)


def _prob(rng: random.Random) -> float:
    # 1 - random() lies in (0, 1]; keep it printable and nonzero after rounding.
    return max(round(1.0 - rng.random(), 6), 1e-6)


_MAX_COMPONENT_NODES = 4
_MAX_COMPONENT_EDGES = 4


def powerlaw_program(nodes: int, seed: int) -> str:
    """Reachability program over a random power-law graph.

    Degrees follow a discrete Pareto tail with alpha = 2.5, stubs are
    matched into at most 2 * nodes undirected edges (no self loops or
    duplicates), and every undirected edge becomes a pair of directed facts
    with independent random probabilities in (0, 1].

    Connected components are capped at 4 nodes / 4 edges.  The cap is what
    keeps full materialization feasible: both directions of every edge are
    asserted, so the number of distinct non-redundant derivations grows
    combinatorially with component size, and already a 5-node path or a K4
    blows past millions of stored derivations when nothing is collapsed.
    """
    if nodes < 2:
        raise ValueError("powerlaw graphs need at least 2 nodes")
    rng = random.Random(seed)
    degrees = [
        max(1, min(nodes - 1, int(rng.paretovariate(2.5)))) for _ in range(nodes)
    ]
    stubs = [i for i, d in enumerate(degrees) for _ in range(d)]
    rng.shuffle(stubs)

    parent = list(range(nodes))
    comp_nodes = [1] * nodes
    comp_edges = [0] * nodes

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges: list[tuple[int, int]] = []
    seen = set()
    for i in range(0, len(stubs) - 1, 2):
        u, v = stubs[i], stubs[i + 1]
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen:
            continue
        ru, rv = find(u), find(v)
        if ru == rv:
            if comp_edges[ru] + 1 > _MAX_COMPONENT_EDGES:
                continue
            comp_edges[ru] += 1
        else:
            if (
                comp_nodes[ru] + comp_nodes[rv] > _MAX_COMPONENT_NODES
                or comp_edges[ru] + comp_edges[rv] + 1 > _MAX_COMPONENT_EDGES
            ):
                continue
            parent[rv] = ru
            comp_nodes[ru] += comp_nodes[rv]
            comp_edges[ru] += comp_edges[rv] + 1
        seen.add(key)
        edges.append(key)
        if len(edges) >= 2 * nodes:
            break
    if not edges:
        edges.append((0, 1))

    name = [f"n{i}" for i in range(nodes)]
    lines = [f"% powerlaw graph: nodes={nodes} seed={seed}"]
    for u, v in sorted(edges):
        lines.append(f"{_prob(rng)}::e({name[u]},{name[v]}).")
        lines.append(f"{_prob(rng)}::e({name[v]},{name[u]}).")
    lines.extend(REACHABILITY_RULES)
    lines.append("query(p(X,Y)).")
    return "\n".join(lines) + "\n"


def chain_program(nodes: int, seed: int) -> str:
    """Linear chain; the end-to-end path probability is the product of the
    edge probabilities (a single explanation)."""
    if nodes < 2:
        raise ValueError("chains need at least 2 nodes")
    rng = random.Random(seed)
    if nodes <= len(string.ascii_lowercase):
        name = list(string.ascii_lowercase[:nodes])
    else:
        name = [f"n{i}" for i in range(nodes)]
    lines = [f"% chain: nodes={nodes} seed={seed}"]
    for i in range(nodes - 1):
        lines.append(f"{_prob(rng)}::e({name[i]},{name[i + 1]}).")
    lines.extend(REACHABILITY_RULES)
    lines.append(f"query(p({name[0]},{name[-1]})).")
    return "\n".join(lines) + "\n"

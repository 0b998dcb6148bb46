"""Seeded workload generators for the benchmark.

Each generator turns a seed (and a size, which only the tests shrink) into
the text of one probdatalog program, the extra `probdatalog run` flags the
workload uses, and exact answer probabilities derived from the workload's
own structure for every answer whose lineage is too wide for the
brute-force oracle.  The program under test receives only the text.

Why these four workloads, and which layer each one loads, is set out in
README.md next to this file.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from probdatalog.generate import chain_program, powerlaw_program

POWERLAW_GRAPH_SEED = 0
REACHABILITY_RULES = (
    "p(X,Y) :- e(X,Y).",
    "p(X,Y) :- p(X,Z), e(Z,Y).",
)


@dataclass(frozen=True)
class Workload:
    name: str
    params: Dict[str, object]
    text: str
    cli_args: Tuple[str, ...] = ()
    # answer fact -> probability computed from the generator's structure,
    # never from the solver; needed where brute force is out of reach
    exact: Dict[str, float] = field(default_factory=dict)


def _prob(rng: random.Random) -> float:
    # Six printed digits parse back to the very same float.
    return round(rng.uniform(0.05, 0.95), 6)


def chain(seed: int, nodes: int = 7) -> Workload:
    return Workload("chain", {"nodes": nodes}, chain_program(nodes, seed))


def powerlaw(seed: int, nodes: int = 100) -> Workload:
    """The graph of `powerlaw_program(nodes, 0)`, with every edge
    probability redrawn from `seed`.

    The graph stays fixed because its shape sets the work: at 200 nodes,
    graph seeds 0-9 make from 4,465 to 7,340 substitutions, a spread that
    would swamp the changes the benchmark has to resolve.
    """
    rng = random.Random(seed)
    text = re.sub(
        r"^[0-9.e-]+::",
        lambda _: f"{_prob(rng)}::",
        powerlaw_program(nodes, POWERLAW_GRAPH_SEED),
        flags=re.MULTILINE,
    )
    return Workload(
        "powerlaw", {"nodes": nodes, "graph_seed": POWERLAW_GRAPH_SEED}, text
    )


def fanin(seed: int, n: int = 250) -> Workload:
    """The collapse example: q(a,b_i) for i = 1..n, s(a,b1), and a loop
    r -> t -> r through s, reasoned without collapsing."""
    rng = random.Random(seed)
    q = [_prob(rng) for _ in range(n)]
    s = _prob(rng)
    lines = [f"{p}::q(a,b{i})." for i, p in enumerate(q, start=1)]
    lines.append(f"{s}::s(a,b1).")
    lines += [
        "r(X,Y) :- q(X,Y).",
        "t(X) :- r(X,Y).",
        "r(X,Y) :- t(X), s(X,Y).",
        "query(r(a,X)).",
        "query(t(X)).",
    ]
    # t(a) = q_1 | ... | q_n and r(a,b1) = q_1 | (s & (q_2 | ... | q_n));
    # every other r(a,b_i) is the single fact q_i.
    none_rest = math.prod(1.0 - p for p in q[1:])
    exact = {
        "t(a)": 1.0 - (1.0 - q[0]) * none_rest,
        "r(a,b1)": 1.0 - (1.0 - q[0]) * (1.0 - s * (1.0 - none_rest)),
    }
    return Workload(
        "fanin", {"n": n, "collapse": "off"}, "\n".join(lines) + "\n",
        ("--collapse", "off"), exact,
    )


def reliability(seed: int, layers: int = 3, width: int = 5) -> Workload:
    """Two-terminal reliability p(s,t) over a layered DAG: s feeds every
    node of layer 1, consecutive layers are fully connected, and every node
    of the last layer feeds t."""
    rng = random.Random(seed)
    names = [[f"v{k}_{j}" for j in range(width)] for k in range(layers)]
    src = [_prob(rng) for _ in range(width)]
    mids = [
        [[_prob(rng) for _ in range(width)] for _ in range(width)]
        for _ in range(layers - 1)
    ]
    sink = [_prob(rng) for _ in range(width)]
    lines = [f"{p}::e(s,{v})." for p, v in zip(src, names[0])]
    for k, m in enumerate(mids):
        for i in range(width):
            for j in range(width):
                lines.append(f"{m[i][j]}::e({names[k][i]},{names[k + 1][j]}).")
    lines += [f"{p}::e({v},t)." for p, v in zip(sink, names[-1])]
    lines += [*REACHABILITY_RULES, "query(p(s,t))."]
    return Workload(
        "reliability", {"layers": layers, "width": width},
        "\n".join(lines) + "\n", (),
        {"p(s,t)": layered_reliability(src, mids, sink)},
    )


def layered_reliability(
    src: List[float], mids: List[List[List[float]]], sink: List[float]
) -> float:
    """Pr[t reachable from s], by a recursion over the reached set of each
    layer.  Given the reached set S of one layer, node j of the next layer
    is reached with probability 1 - prod_{i in S} (1 - p_ij), independently
    across j, because the edges between two layers appear in no other
    layer's step."""
    width = len(src)

    def spread(reach: List[float]) -> Dict[int, float]:
        out = {}
        for mask in range(1 << width):
            w = 1.0
            for j, r in enumerate(reach):
                w *= r if mask >> j & 1 else 1.0 - r
            out[mask] = w
        return out

    def reach_from(mask: int, edge: List[float]) -> float:
        miss = 1.0
        for i, p in enumerate(edge):
            if mask >> i & 1:
                miss *= 1.0 - p
        return 1.0 - miss

    dist = spread(src)
    for m in mids:
        nxt = dict.fromkeys(range(1 << width), 0.0)
        for mask, w in dist.items():
            reach = [reach_from(mask, [row[j] for row in m]) for j in range(width)]
            for to, v in spread(reach).items():
                nxt[to] += w * v
        dist = nxt
    return sum(w * reach_from(mask, sink) for mask, w in dist.items())


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    "chain": chain,
    "powerlaw": powerlaw,
    "fanin": fanin,
    "reliability": reliability,
}


def make(name: str, seed: int, size: Optional[dict] = None) -> Workload:
    return WORKLOADS[name](seed, **(size or {}))

"""Round-based reasoning loops that populate an execution graph.

Each round extends the graph by one depth level, with a node only for
parents whose stored root facts join the rule body (in round 1 the
database's, filed as the depth-0 store before the loop starts), builds
from the groundings that join found the non-redundant candidate
derivations of every fresh node, optionally collapses each root's
candidates into one OR entry, and removes nodes that stored nothing.  The
loop stops when a round stores nothing: the graph depth has then stopped
growing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, List, Optional

from .derivations import (
    FactIndex,
    NodeStore,
    collapse,
    instantiate_node,
    is_hereditarily_redundant,
    should_collapse,
)
from .graph import ExecutionGraph, RootIndex, inductive_step
from .model import EntryBudgetError, Program


class CollapseMode(Enum):
    OFF = "off"
    ON = "on"
    AUTO = "auto"


@dataclass
class ReasonerOptions:
    collapse: CollapseMode = CollapseMode.OFF
    threshold: int = 10
    max_depth: Optional[int] = None
    # Caps graph nodes as well as entries: growth is join-driven, so every
    # node had a grounding, and each grounding counts a candidate, built or
    # not.  It also bounds the groundings the growth join keeps for a round,
    # so a round cut short by it adds no node, round 1 included.
    max_entries: Optional[int] = None
    # Disabling the redundancy filter turns the loop into the unfiltered
    # variant used to cross-check per-round lineage against the fixpoint
    # reference engine; it never terminates on its own, so pair it with
    # max_depth.
    redundancy_filter: bool = True

    def __post_init__(self):
        if isinstance(self.collapse, str):
            self.collapse = CollapseMode(self.collapse)
        if self.threshold < 2:
            raise ValueError("collapse threshold must be >= 2")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.max_entries is not None and self.max_entries < 0:
            raise ValueError("max_entries must be >= 0")
        if not self.redundancy_filter and self.max_depth is None:
            raise ValueError("redundancy_filter=False requires max_depth")


@dataclass
class RoundStats:
    round: int
    entries_stored: int = 0
    or_entries: int = 0
    entries_allocated: int = 0
    instantiations: int = 0


@dataclass
class ReasonerStats:
    per_round: List[RoundStats] = field(default_factory=list)

    @property
    def rounds_executed(self) -> int:
        return len(self.per_round)

    def total(self, attr: str) -> int:
        return sum(getattr(r, attr) for r in self.per_round)


@dataclass
class ReasoningResult:
    graph: ExecutionGraph
    facts: FactIndex  # the depth-0 store
    stores: Dict[int, NodeStore]
    rounds: int  # final graph depth
    truncated: bool
    stats: ReasonerStats
    # "fixpoint" on natural termination, else the limit that stopped the
    # run: "max_depth" (all requested rounds completed) or "max_entries"
    # (the last round is partial)
    stop_reason: str = "fixpoint"

    def live_store_sizes(self) -> Dict[int, int]:
        return {
            n.id: len(self.stores[n.id])
            for n in self.graph.live_nodes()
            if n.id in self.stores
        }


def _run(prog: Program, opts: ReasonerOptions) -> ReasoningResult:
    if not prog.is_normalized():
        raise ValueError("program must be normalized before reasoning")
    facts = FactIndex(prog.facts)
    rules = sorted(prog.rules, key=lambda r: r.id)
    g = ExecutionGraph()
    stores: Dict[int, NodeStore] = {}
    index = RootIndex()  # the root facts graph growth joins, round by round
    index.add(None, facts.by_root)  # the database, the depth-0 store, first
    stats = ReasonerStats()
    stop_reason = "fixpoint"
    allocated_total = 0
    cap = float("inf") if opts.max_entries is None else opts.max_entries
    k = 0

    while True:
        k += 1
        rs = RoundStats(round=k)
        try:
            for v, found in inductive_step(g, rules, k, index, cap - allocated_total):
                inst = instantiate_node(
                    v, found, facts, stores, cap - allocated_total,
                    is_hereditarily_redundant if opts.redundancy_filter else None,
                )
                allocated_total += inst.allocated
                rs.entries_allocated += inst.allocated
                rs.instantiations += inst.substitutions
                collapsing = opts.collapse is CollapseMode.ON or (
                    opts.collapse is CollapseMode.AUTO
                    and inst.by_root
                    and should_collapse(inst.by_root, opts.threshold, inst.allocated)
                )

                store = NodeStore(v.id)
                for entries in inst.by_root.values():
                    if collapsing and len(entries) > 1:
                        # its alternatives are clean, so the OR entry is too
                        entries = [collapse(entries)]
                        rs.or_entries += 1
                        rs.entries_allocated += 1
                        allocated_total += 1
                    for e in entries:
                        store.add(e)
                rs.entries_stored += len(store)
                if not store.by_root:
                    g.remove_node(v.id)
                if allocated_total > cap:
                    raise EntryBudgetError("entry budget exceeded")
                stores[v.id] = store
                index.add(v.id, store.by_root)
        except EntryBudgetError:
            stop_reason = "max_entries"

        stats.per_round.append(rs)
        # round k adds and removes only depth-k nodes
        if stop_reason != "fixpoint" or rs.entries_stored == 0:
            break
        if opts.max_depth is not None and k >= opts.max_depth:
            stop_reason = "max_depth"
            break

    return ReasoningResult(
        graph=g,
        facts=facts,
        stores=stores,
        rounds=g.depth(),
        truncated=stop_reason != "fixpoint",
        stats=stats,
        stop_reason=stop_reason,
    )


def run_pr(prog: Program, opts: Optional[ReasonerOptions] = None) -> ReasoningResult:
    """Reason without collapsing: every non-redundant derivation is stored
    individually."""
    opts = replace(opts, collapse=CollapseMode.OFF) if opts else ReasonerOptions()
    return _run(prog, opts)


def run_pcor(prog: Program, opts: Optional[ReasonerOptions] = None) -> ReasoningResult:
    """Reason with same-root derivations collapsed into OR entries, always
    (`on`) or when a node's average per-root count reaches the threshold
    (`auto`)."""
    if opts is None:
        opts = ReasonerOptions(collapse=CollapseMode.AUTO)
    if opts.collapse is CollapseMode.OFF:
        raise ValueError("run_pcor requires collapse mode 'on' or 'auto'")
    return _run(prog, opts)

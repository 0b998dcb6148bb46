"""Reference fixpoint engine: per-atom lineage formulas computed round by round.

Each round grounds every rule over the atoms derived so far, by the
compiled join graph growth uses too (`model.groundings`), conjoins the
body formulas of each instantiation, aggregates the results per head atom,
and disjoins them into the atom's formula.  The run reaches its fixpoint in
the round whose formulas are all logically equivalent to the previous
round's.  `delta` mode restricts each round to instantiations that involve
at least one atom updated in the previous round (semi-naive evaluation) and
yields an equivalent fixpoint with fewer rule instantiations.

Every run terminates.  A formula only grows: a round that changes it makes
it a strictly larger monotone Boolean function of the program's finitely
many fact variables.  The ground atoms are finitely many too, so after
finitely many changing rounds a round changes nothing.

This engine is deliberately simple; it serves as the correctness oracle for
the graph-based reasoner and is exposed through the CLI for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .lineage import FALSE, TRUE, Changes, Dnf
from .model import Atom, Program, Symbol, groundings


class TcpRoundLimitError(RuntimeError):
    pass


@dataclass
class TcpInstance:
    """Map from ground atom to its lineage formula after `round` rounds.

    `updated` holds the atoms whose formula changed (as a Boolean function)
    in the most recent round; the fixpoint is reached when it is empty.
    `changes` lists each atom's (round, formula) changes, the facts' at
    round 0, in the bounds representation that `lineage.round_bounds`
    returns too; an atom's last change is its entry in `formulas`.
    """

    formulas: Dict[Atom, Dnf]
    round: int
    instantiations: int
    updated: frozenset[Atom]
    changes: Changes


def tcp_initial(prog: Program) -> TcpInstance:
    formulas = {f.fact: Dnf.single(f.var) for f in prog.facts}
    return TcpInstance(
        formulas, 0, 0, frozenset(formulas), {a: [(0, d)] for a, d in formulas.items()}
    )


def tcp_step(inst: TcpInstance, prog: Program, mode: str = "naive") -> TcpInstance:
    """One derive/aggregate/update round; returns the next instance and
    leaves `inst` as it was."""
    if mode not in ("naive", "delta"):
        raise ValueError(f"unknown mode {mode!r}")
    by_pred: Dict[Symbol, List[Atom]] = {}  # each predicate's atoms
    for a in inst.formulas:
        by_pred.setdefault(a.predicate, []).append(a)
    delta: Dict[Atom, Dnf] = {}
    count = 0
    for rule in sorted(prog.rules, key=lambda r: r.id):
        atoms_per_pos = [by_pred.get(a.predicate, []) for a in rule.body]
        # Semi-naive split in delta mode: position j takes updated atoms,
        # earlier positions only non-updated ones, so every instantiation
        # with at least one updated atom is enumerated exactly once.
        splits = [atoms_per_pos] if mode == "naive" else (
            [atoms if i > j else [a for a in atoms if (a in inst.updated) == (i == j)]
             for i, atoms in enumerate(atoms_per_pos)]
            for j in range(len(rule.body))
        )
        for candidate_lists in splits:
            for head, matched in groundings(rule, candidate_lists):
                count += 1
                formula = TRUE
                for a in matched:
                    formula = formula & inst.formulas[a]
                delta[head] = delta.get(head, FALSE) | formula

    k = inst.round + 1
    formulas, changes = dict(inst.formulas), dict(inst.changes)
    changed = set()
    for head, mu in delta.items():
        old = formulas.get(head, FALSE)
        new = old | mu
        # Normalized monotone DNFs are canonical, so logical equivalence
        # reduces to equality here.
        if new != old:
            changed.add(head)
            formulas[head] = new
            changes[head] = [*changes.get(head, ()), (k, new)]
    return TcpInstance(formulas, k, inst.instantiations + count, frozenset(changed), changes)


def tcp_fixpoint(
    prog: Program, mode: str = "naive", max_rounds: Optional[int] = None
) -> TcpInstance:
    """Iterate rounds until no formula changes.  With `max_rounds`, raise
    `TcpRoundLimitError` if that many rounds do not reach the fixpoint;
    without it, the run ends all the same (see the module docstring).

    `round` names the round that detected the fixpoint, and `changes` holds
    every change up to it, from which per-round probability bounds are read.
    """
    if max_rounds is not None and max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    inst = tcp_initial(prog)
    while max_rounds is None or inst.round < max_rounds:
        inst = tcp_step(inst, prog, mode)
        if not inst.updated:
            return inst
    raise TcpRoundLimitError(f"no fixpoint within {max_rounds} rounds")


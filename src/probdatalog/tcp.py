"""Reference fixpoint engine: per-atom lineage formulas computed round by round.

Each round grounds every rule over the atoms derived so far, by the
compiled join graph growth uses too (`model.groundings`), conjoins the
body formulas of each instantiation, aggregates the results per head atom,
and disjoins them into the atom's formula.  The run reaches its fixpoint in
the round whose formulas are all logically equivalent to the previous
round's.  `delta` mode restricts each round to instantiations that involve
at least one atom updated in the previous round (semi-naive evaluation,
Bancilhon & Ramakrishnan 1986) and yields an equivalent fixpoint with fewer
rule instantiations.

One state, extended in place, serves every round: each atom's list of
(round, formula) changes, the last being its formula, and each predicate's
atoms.  Round 0's update records the facts.  Each later round grounds every
rule before it records a change, so it reads only the round before's formulas.

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
    """The fixpoint: `round` names the round that detected it,
    `instantiations` counts the rule instantiations of all rounds, and
    `changes` lists each atom's (round, formula) changes up to it, the
    facts' at round 0, in the bounds representation that
    `lineage.round_bounds` returns too.  An atom's formula after round k is
    its last change at or before k."""

    round: int
    instantiations: int
    changes: Changes

    @property
    def formulas(self) -> Dict[Atom, Dnf]:
        """Each atom's formula at the fixpoint: its last change."""
        return {a: history[-1][1] for a, history in self.changes.items()}


def tcp_fixpoint(
    prog: Program, mode: str = "naive", max_rounds: Optional[int] = None
) -> TcpInstance:
    """Iterate derive/aggregate/update rounds until no formula changes.
    With `max_rounds`, raise `TcpRoundLimitError` if that many rounds do not
    reach the fixpoint; without it, the run ends all the same (see the
    module docstring)."""
    if max_rounds is not None and max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    if mode not in ("naive", "delta"):
        raise ValueError(f"unknown mode {mode!r}")
    changes: Changes = {}
    by_pred: Dict[Symbol, List[Atom]] = {}  # each predicate's atoms
    rules = sorted(prog.rules, key=lambda r: r.id)
    delta: Dict[Atom, Dnf] = {f.fact: Dnf.single(f.var) for f in prog.facts}  # round 0: the facts
    k = count = 0
    while True:
        updated = set()
        for head, mu in delta.items():
            history = changes.get(head)
            old = history[-1][1] if history else FALSE
            new = old | mu
            # Normalized monotone DNFs are canonical, so logical equivalence
            # reduces to equality here.
            if new != old:
                updated.add(head)
                if history is None:
                    history = changes[head] = []
                    by_pred.setdefault(head.predicate, []).append(head)
                history.append((k, new))
        if k and not updated:  # a round past round 0 changed nothing
            return TcpInstance(k, count, changes)
        if k == max_rounds:
            raise TcpRoundLimitError(f"no fixpoint within {max_rounds} rounds")
        k += 1
        delta = {}
        for rule in rules:
            atoms_per_pos = [by_pred.get(a.predicate, []) for a in rule.body]
            # Semi-naive split in delta mode: position j takes updated atoms,
            # earlier positions only non-updated ones, so every instantiation
            # with at least one updated atom is enumerated exactly once.
            splits = [atoms_per_pos] if mode == "naive" else (
                [atoms if i > j else [a for a in atoms if (a in updated) == (i == j)]
                 for i, atoms in enumerate(atoms_per_pos)]
                for j in range(len(rule.body))
            )
            for candidate_lists in splits:
                for head, matched in groundings(rule, candidate_lists):
                    count += 1
                    formula = TRUE
                    for a in matched:
                        formula = formula & changes[a][-1][1]
                    delta[head] = delta.get(head, FALSE) | formula

"""Independent check of every benchmark pass.

The reference is the delta-mode fixpoint engine (`tcp_fixpoint`), run once
per benchmark run and outside every timed region.  A pass is correct when
it reports exactly the reference's answer set, each with the reference's
lineage, and each probability within `TOLERANCE` of an oracle that shares
no code with the exact solver: possible-world enumeration when the lineage
has at most `BRUTE_FORCE_MAX_VARS` variables, otherwise the value the
workload derives from its own structure.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from probdatalog import (
    brute_force_probability,
    normalize,
    parse_program,
    tcp_fixpoint,
)
from probdatalog.model import match_atom

from workloads import Workload

TOLERANCE = 1e-9
BRUTE_FORCE_MAX_VARS = 25

Lineage = List[List[str]]


def canonical(lineage: Lineage) -> Lineage:
    return sorted(sorted(clause) for clause in lineage)


class Reference:
    """Expected answers of one workload: fact -> (lineage, probability)."""

    def __init__(self, workload: Workload):
        prog = normalize(parse_program(workload.text))
        inst = tcp_fixpoint(prog, "delta")
        self.answers: Dict[str, Tuple[Lineage, float]] = {}
        for atom, dnf in inst.formulas.items():
            if not any(match_atom(q, atom, {}) is not None for q in prog.queries):
                continue
            fact = str(atom)
            if len(dnf.variables) <= BRUTE_FORCE_MAX_VARS:
                p = brute_force_probability(dnf, prog.weights, BRUTE_FORCE_MAX_VARS)
            elif fact in workload.exact:
                p = workload.exact[fact]
            else:
                raise ValueError(f"{workload.name}: no independent oracle for {fact}")
            self.answers[fact] = (canonical(dnf.to_json(prog.var_names)), p)

    def problems(self, payload: dict) -> List[str]:
        """Every way a `probdatalog run --output json` payload differs from
        the reference; empty when the pass is correct."""
        seen = set()
        out = []
        for ans in payload.get("answers", ()):
            fact = ans["fact"]
            seen.add(fact)
            if fact not in self.answers:
                out.append(f"unexpected answer {fact}")
                continue
            lineage, p = self.answers[fact]
            if canonical(ans["lineage"]) != lineage:
                out.append(f"{fact}: lineage differs from the reference engine")
            if not abs(ans["probability"] - p) <= TOLERANCE:
                out.append(f"{fact}: probability {ans['probability']!r} != {p!r}")
        out += [f"missing answer {f}" for f in sorted(self.answers.keys() - seen)]
        return out

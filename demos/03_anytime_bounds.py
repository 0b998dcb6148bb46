# Anytime lower bounds from round snapshots.
#
# The lineage stored after k rounds covers every derivation of depth <= k,
# so its probability is a lower bound on the true answer probability that
# grows monotonically and reaches the exact value at the final round.
# A snapshot equals the reference engine's map after round k, so the table
# lists the database facts too; each holds by its own variable, so its row
# is its probability from round 1 on.
# Bounds tighten whenever an extra explanation arrives at a deeper round,
# so the showcase graph offers a direct edge, a two-hop detour, and a
# three-hop detour between the same endpoints.

import sys

from probdatalog import (
    ReasonerOptions,
    normalize,
    parse_program,
    probability,
    round_bounds,
    run_pr,
)

PROGRAM = """
0.30::e(a,b).
0.70::e(a,c).
0.70::e(c,b).
0.80::e(a,d).
0.80::e(d,f).
0.80::e(f,b).
p(X,Y) :- e(X,Y).
p(X,Y) :- p(X,Z), p(Z,Y).
"""

prog = normalize(parse_program(PROGRAM))
# about 10x what the showcase needs (11 entries, 4 rounds)
result = run_pr(prog, ReasonerOptions(max_entries=110, max_depth=40))
if result.stop_reason != "fixpoint":
    sys.exit(f"reasoning stopped early: {result.stop_reason}")
print(f"reasoning ran {result.stats.rounds_executed} rounds\n")

snaps = round_bounds(result)[1:]
final = snaps[-1]

print(f"{'atom':8} " + " ".join(f"round {k}" for k in range(1, len(snaps) + 1)))
for atom in sorted(final, key=str):
    bounds = []
    for snap in snaps:
        if atom in snap:
            bounds.append(probability(snap[atom], prog.weights))
        else:
            bounds.append(0.0)  # not derived yet: the bound is trivial
    cells = " ".join(f"{b:7.4f}" for b in bounds)
    print(f"{str(atom):8} {cells}")

print()
print("each row is nondecreasing; the last column is the exact probability;")
print("an e(...) row is a database fact, constant from round 1 on;")
print("p(a,b) collects its direct edge, then the 2-hop detour, then the 3-hop one")

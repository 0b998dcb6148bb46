# Reachability over an uncertain graph, end to end.
#
# Four directed edges, each present with probability 0.5, and the usual
# two-rule transitive closure.  We materialize every derivation inside an
# execution graph, read off the DNF lineage of each reachable pair, and
# compute exact probabilities by weighted model counting.

import sys

from probdatalog import (
    ReasonerOptions,
    collect_lineage,
    normalize,
    parse_atom,
    parse_program,
    probability,
    run_pr,
    tcp_fixpoint,
)

PROGRAM = """
0.5::e(a,b).
0.5::e(b,c).
0.5::e(a,c).
0.5::e(c,b).
p(X,Y) :- e(X,Y).
p(X,Y) :- p(X,Z), p(Z,Y).
"""

prog = normalize(parse_program(PROGRAM))
# about 10x what the example needs (20 entries, 3 rounds)
result = run_pr(prog, ReasonerOptions(max_entries=200, max_depth=30))
if result.stop_reason != "fixpoint":
    sys.exit(f"reasoning stopped early: {result.stop_reason}")

print(f"reasoning took {result.stats.rounds_executed} rounds; "
      f"the graph settled at depth {result.rounds}")
print("execution graph (live nodes):")
print(result.graph.dump())
print()

# Each live node stores its non-redundant derivations, shared by reference.
for node_id, size in result.live_store_sizes().items():
    print(f"node v{node_id} stores {size} derivations")
print()

# Lineage and probability for every reachable pair.
print(f"{'atom':10} {'probability':>12}   lineage")
for ans in collect_lineage(result, prog, parse_atom("p(X,Y)")):
    p = probability(ans.lineage, prog.weights)
    clauses = " | ".join(
        "&".join(c) for c in ans.lineage.to_json(prog.var_names)
    )
    print(f"{str(ans.fact):10} {p:12.6f}   {clauses}")
print()

# The round-based reference engine computes the same model independently.
reference = tcp_fixpoint(prog)
print(f"reference engine fixpoint after round {reference.round}")
for ans in collect_lineage(result, prog, parse_atom("p(X,Y)")):
    ref = probability(reference.formulas[ans.fact], prog.weights)
    assert abs(probability(ans.lineage, prog.weights) - ref) < 1e-12
print("reference engine agrees on every answer")

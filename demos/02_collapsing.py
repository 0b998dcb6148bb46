# Collapsing same-root derivations.
#
# N facts q(a,b1..bN) all derive t(a), and a loop rule builds r(a,b1) back
# out of t(a).  Stored individually, that is N derivations of t(a) and
# N-1 of r(a,b1); collapsed, a single OR entry stands in for each set, and
# downstream rule instantiations see one derivation instead of a thousand.

import sys
import time

from probdatalog import (
    CollapseMode,
    ReasonerOptions,
    collect_lineage,
    normalize,
    parse_atom,
    parse_program,
    probability,
    run_pcor,
    run_pr,
)

N = 1000
lines = [f"0.5::q(a,b{i})." for i in range(1, N + 1)]
lines += [
    "0.5::s(a,b1).",
    "r(X,Y) :- q(X,Y).",
    "t(X) :- r(X,Y).",
    "r(X,Y) :- t(X), s(X,Y).",
]
prog = normalize(parse_program("\n".join(lines)))

t_atom, r_atom = parse_atom("t(a)"), parse_atom("r(a,b1)")
# about 10x what individual storage needs (4,000 entries, 4 rounds)
bounds = dict(max_entries=40_000, max_depth=40)

for label, runner in (
    ("individual storage", lambda: run_pr(prog, ReasonerOptions(**bounds))),
    (
        "collapsed storage",
        lambda: run_pcor(prog, ReasonerOptions(collapse=CollapseMode.ON, **bounds)),
    ),
):
    t0 = time.perf_counter()
    result = runner()
    dt = time.perf_counter() - t0
    if result.stop_reason != "fixpoint":
        sys.exit(f"{label}: reasoning stopped early: {result.stop_reason}")
    t_count = max(
        len(s.by_root.get(t_atom, ())) for s in result.stores.values()
    )
    r_count = max(
        len(s.by_root.get(r_atom, ()))
        for s in result.stores.values()
        if s.owner != 0  # skip the base node that derives r from q directly
    )
    allocated = result.stats.total("entries_allocated")
    lineage = collect_lineage(result, prog, r_atom)[0].lineage
    p = probability(lineage, prog.weights)
    print(f"{label}:")
    print(f"  stored derivations of t(a): {t_count}")
    print(f"  stored loop derivations of r(a,b1): {r_count}")
    print(f"  derivation entries allocated in total: {allocated}")
    print(f"  Pr[r(a,b1)] = {p:.12g}   ({dt * 1000:.0f} ms)")
    print()

print("identical probabilities either way; the OR entry encodes the same")
print("alternatives that the thousand individual derivations spell out")

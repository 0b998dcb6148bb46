import pytest

from probdatalog import ReasonerOptions, normalize, parse_program, reasoner
from probdatalog.graph import RootIndex

RUNNING_EXAMPLE = """\
0.5::e(a,b).
0.5::e(b,c).
0.5::e(a,c).
0.5::e(c,b).
p(X,Y) :- e(X,Y).
p(X,Y) :- p(X,Z), p(Z,Y).
query(p(a,b)).
"""


def collapse_example(n: int) -> str:
    """One fact q(a,b_i) per i plus s(a,b1); r/t rules with a loop through t."""
    lines = [f"0.5::q(a,b{i})." for i in range(1, n + 1)]
    lines.append("0.5::s(a,b1).")
    lines += [
        "r(X,Y) :- q(X,Y).",
        "t(X) :- r(X,Y).",
        "r(X,Y) :- t(X), s(X,Y).",
    ]
    return "\n".join(lines) + "\n"


def path_program(n):
    """Reachability along a path of n edges: n + 1 rounds, one node each."""
    return normalize(parse_program(
        "r(n0).\n"
        + "".join(f"0.9::e(n{i},n{i + 1}).\n" for i in range(n))
        + "r(X) :- r(Y), e(Y,X).\n"
    ))


# Bounds for the tests' corpus-driven and collapsed reasoning runs: over 10x
# the most any of them needs, 1,573 entries (corpus seed 17, collapse on)
# and 8 rounds (chain 8).  A run that fails to terminate may add one node a
# round, so the round bound is what makes it fail within seconds instead of
# hanging the suite.
MAX_ENTRIES = 20_000
MAX_DEPTH = 80


def reason(prog, mode="off"):
    """Reason within the bounds, failing unless the run reaches its fixpoint."""
    opts = ReasonerOptions(collapse=mode, max_entries=MAX_ENTRIES, max_depth=MAX_DEPTH)
    result = reasoner._run(prog, opts)
    # A failing assert renders what it names, and a result's repr spells out
    # every entry's unfolded tree, so name the stop reason alone.
    stop_reason = result.stop_reason
    assert stop_reason == "fixpoint"
    return result


class FilingIndex(RootIndex):
    """A root index that also keeps the root facts filed for each node id."""

    def __init__(self):
        super().__init__()
        self.roots = {}

    def add(self, node, roots):
        self.roots[node.id] = roots
        super().add(node, roots)


def root_index(g, roots, k):
    """A root index fed afresh for round k: `roots` maps node ids to root
    facts, and the live nodes of `g` below depth k - 1 are filed a round
    before those at depth k - 1."""
    index = RootIndex()
    stored = [n for n in g.live_nodes() if n.id in roots and n.depth < k]
    for n in stored:
        if n.depth < k - 1:
            index.add(n, roots[n.id])
    index.advance()
    for n in stored:
        if n.depth == k - 1:
            index.add(n, roots[n.id])
    return index


@pytest.fixture
def running_text():
    return RUNNING_EXAMPLE


@pytest.fixture
def running_prog():
    return normalize(parse_program(RUNNING_EXAMPLE))

import pytest

from probdatalog import ReasonerOptions, normalize, parse_program, reasoner

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


@pytest.fixture
def running_text():
    return RUNNING_EXAMPLE


@pytest.fixture
def running_prog():
    return normalize(parse_program(RUNNING_EXAMPLE))

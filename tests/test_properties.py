"""Cross-cutting invariants on the randomized corpus."""

from conftest import MAX_ENTRIES, reason
from corpus import random_program_text
from probdatalog import (
    CollapseMode,
    ReasonerOptions,
    normalize,
    parse_program,
    probability,
    round_bounds,
    run_pr,
    tcp_fixpoint,
)
from probdatalog.derivations import Leaf

SEEDS = range(40)


def programs():
    for seed in SEEDS:
        yield seed, normalize(parse_program(random_program_text(seed)))


def test_termination_cap_is_never_reached():
    for seed, prog in programs():
        result = run_pr(prog, ReasonerOptions(max_depth=64, max_entries=MAX_ENTRIES))
        stop_reason = result.stop_reason  # a result's repr is too long to render
        assert stop_reason == "fixpoint", seed
        assert result.stats.rounds_executed < 64, seed


def test_plain_and_collapsed_terminate_in_the_same_round():
    for seed, prog in programs():
        plain = reason(prog)
        for mode in (CollapseMode.ON, CollapseMode.AUTO):
            collapsed = reason(prog, mode)
            assert (
                collapsed.stats.rounds_executed == plain.stats.rounds_executed
            ), (seed, mode)


def test_engines_agree_on_denser_corpus():
    for seed, prog in programs():
        plain = reason(prog)
        collapsed = reason(prog, CollapseMode.ON)
        reference = tcp_fixpoint(prog).formulas
        snap = round_bounds(plain)[plain.rounds]
        snap_c = round_bounds(collapsed)[collapsed.rounds]
        assert set(snap) == set(reference) == set(snap_c), seed
        for a in snap:
            values = [
                probability(snap[a], prog.weights),
                probability(snap_c[a], prog.weights),
                probability(reference[a], prog.weights),
            ]
            assert max(values) - min(values) <= 1e-9, (seed, a)


def test_child_references_are_acyclic():
    def height(entry, path):
        if isinstance(entry, Leaf):
            return 0
        assert id(entry) not in path
        path = path | {id(entry)}
        return 1 + max((height(c, path) for c in entry.children), default=0)

    for seed in list(SEEDS)[:10]:
        prog = normalize(parse_program(random_program_text(seed)))
        result = reason(prog, CollapseMode.ON)
        for store in result.stores.values():
            for entry in store.entries:
                assert height(entry, frozenset()) >= 1

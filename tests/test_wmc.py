import gc
import hashlib
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import collapse_example, reason
from corpus import corpus
from oracles import condition, exact_probability, mask_components, truth_table_equal
from probdatalog import (
    FALSE,
    TRUE,
    Dnf,
    TooManyVariablesError,
    UnweightedVariableError,
    WmcBudgetError,
    brute_force_probability,
    chain_program,
    collect_lineage,
    normalize,
    parse_atom,
    parse_program,
    powerlaw_program,
    probability,
    run_pr,
)
from probdatalog.wmc import _components

clauses_strategy = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=9), min_size=1, max_size=4),
    min_size=1,
    max_size=12,
)
weights_strategy = st.lists(
    st.floats(min_value=0.05, max_value=1.0), min_size=10, max_size=10
)


def weight_map(values):
    return {i: v for i, v in enumerate(values)}


class TestBruteForce:
    def test_single_variable(self):
        assert brute_force_probability(Dnf.single(0), {0: 0.3}) == pytest.approx(0.3)

    def test_conjunction_multiplies(self):
        d = Dnf.from_clauses([[0, 1]])
        assert brute_force_probability(d, {0: 0.5, 1: 0.5}) == pytest.approx(0.25)

    def test_running_example_value(self):
        # two explanations over three relevant facts, eight worlds
        d = Dnf.from_clauses([[0], [1, 2]])
        w = {0: 0.5, 1: 0.5, 2: 0.5}
        assert brute_force_probability(d, w) == pytest.approx(0.625, abs=1e-15)

    def test_true_and_false(self):
        assert brute_force_probability(FALSE, {}) == 0.0
        assert brute_force_probability(TRUE, {}) == 1.0

    def test_too_many_variables(self):
        d = Dnf.from_clauses([[i] for i in range(26)])
        with pytest.raises(TooManyVariablesError):
            brute_force_probability(d, {i: 0.5 for i in range(26)})

    def test_missing_weight(self):
        with pytest.raises(UnweightedVariableError):
            brute_force_probability(Dnf.single(3), {0: 0.5})


class TestExactSolver:
    def test_frozen_values(self):
        assert probability(Dnf.from_clauses([[0], [1, 2]]), {0: 0.5, 1: 0.5, 2: 0.5}) == (
            pytest.approx(0.625, abs=1e-15)
        )
        # independent union: 1 - 0.7 * 0.6
        assert probability(Dnf.from_clauses([[0], [1]]), {0: 0.3, 1: 0.4}) == (
            pytest.approx(0.58, abs=1e-15)
        )

    def test_true_and_false(self):
        assert probability(FALSE, {}) == 0.0
        assert probability(TRUE, {}) == 1.0

    def test_missing_weight(self):
        with pytest.raises(UnweightedVariableError):
            probability(Dnf.single(3), {0: 0.5})

    def test_budget_error_is_structured(self):
        rng = random.Random(0)
        clauses = [frozenset(rng.sample(range(30), 4)) for _ in range(40)]
        d = Dnf.from_clauses(clauses)
        with pytest.raises(WmcBudgetError):
            probability(d, {i: 0.5 for i in range(30)}, max_steps=5)

    @given(clauses_strategy, weights_strategy)
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, clauses, weights):
        d = Dnf.from_clauses(clauses)
        w = weight_map(weights)
        assert probability(d, w) == pytest.approx(
            brute_force_probability(d, w), abs=1e-9
        )

    @given(
        clauses_strategy,
        st.frozensets(st.integers(min_value=0, max_value=9), min_size=1, max_size=3),
        weights_strategy,
    )
    @settings(max_examples=200, deadline=None)
    def test_adding_a_clause_never_decreases(self, clauses, extra, weights):
        w = weight_map(weights)
        base = Dnf.from_clauses(clauses)
        grown = base | Dnf.from_clauses([extra])
        assert probability(grown, w) >= probability(base, w) - 1e-12

    @given(clauses_strategy, weights_strategy)
    @settings(max_examples=150, deadline=None)
    def test_weight_one_behaves_as_true(self, clauses, weights):
        d = Dnf.from_clauses(clauses)
        w = weight_map(weights)
        if not d.variables:
            return
        pivot = min(d.variables)
        w[pivot] = 1.0
        assert probability(d, w) == pytest.approx(
            probability(condition(d, pivot, True), w), abs=1e-12
        )

    @given(clauses_strategy, weights_strategy, st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_variable_permutation_invariance(self, clauses, weights, rng):
        d = Dnf.from_clauses(clauses)
        w = {v: weights[v] for v in d.variables}
        perm = list(range(10, 20))
        rng.shuffle(perm)
        mapping = {v: perm[v] for v in range(10)}
        permuted = Dnf.from_clauses(
            [{mapping[v] for v in c} for c in d.clauses]
        )
        pw = {mapping[v]: weight for v, weight in w.items()}
        assert probability(permuted, pw) == pytest.approx(
            probability(d, w), abs=1e-12
        )

    def test_component_decomposition_is_exact(self):
        # two independent blocks and a singleton; closed form by hand
        d = Dnf.from_clauses([[0, 1], [1, 2], [3, 4], [5]])
        w = {i: 0.5 for i in range(6)}
        block_a = brute_force_probability(Dnf.from_clauses([[0, 1], [1, 2]]), w)
        block_b = 0.25
        expected = 1 - (1 - block_a) * (1 - block_b) * (1 - 0.5)
        assert probability(d, w) == pytest.approx(expected, abs=1e-12)
        assert brute_force_probability(d, w) == pytest.approx(expected, abs=1e-12)

    def test_small_components_keep_relative_accuracy(self):
        # 1 - (1 - p)(1 - q) cancels to 0.0 in floating point here
        d = Dnf.from_clauses([range(10), range(10, 20)])
        w = {i: 0.01 for i in range(20)}
        clause = Fraction(0.01) ** 10
        expected = float(1 - (1 - clause) ** 2)
        assert abs(probability(d, w) - expected) <= 1e-9 * expected

    def test_component_product_is_the_same_on_every_python(self):
        # p(n29,n29) of the powerlaw benchmark at seed 2: three independent
        # clauses, whose log-space sum Python 3.12's compensated `sum` and
        # 3.10/3.11's plain one round differently; `math.fsum` is exact
        d = Dnf.from_clauses([[30, 31], [50, 51], [52, 53]])
        w = {
            30: 0.342629, 31: 0.173028, 50: 0.491013,
            51: 0.882349, 52: 0.500757, 53: 0.798372,
        }
        assert probability(d, w) == 0.6799949788185017


def reliability_text(layers: int, width: int, seed: int) -> str:
    """Two-terminal reachability p(s,t) over a layered DAG: s feeds every
    node of the first layer, consecutive layers are fully connected and
    every node of the last layer feeds t."""
    rng = random.Random(seed)
    names = [[f"v{k}_{j}" for j in range(width)] for k in range(layers)]
    edges = [("s", v) for v in names[0]]
    for k in range(layers - 1):
        edges += [(a, b) for a in names[k] for b in names[k + 1]]
    edges += [(v, "t") for v in names[-1]]
    lines = [f"{round(rng.uniform(0.05, 0.95), 6)}::e({a},{b})." for a, b in edges]
    lines += ["p(X,Y) :- e(X,Y).", "p(X,Y) :- p(X,Z), e(Z,Y)."]
    return "\n".join(lines) + "\n"


def program_lineage(text: str, query: str):
    prog = normalize(parse_program(text))
    answers = collect_lineage(run_pr(prog), prog, parse_atom(query))
    return answers[0].lineage, prog.weights


def random_dnf_40():
    rng = random.Random(0)
    clauses = [frozenset(rng.sample(range(30), 4)) for _ in range(40)]
    return Dnf.from_clauses(clauses), {i: 0.5 for i in range(30)}


PINNED_DNFS = {
    # 125 clauses over 60 variables
    "reliability 3x5": lambda: program_lineage(reliability_text(3, 5, 100), "p(s,t)"),
    # 216 clauses over 84 variables; residuals of several hundred literals
    "reliability 3x6": lambda: program_lineage(reliability_text(3, 6, 1), "p(s,t)"),
    "random 40-clause": random_dnf_40,
    "corpus u(a)": lambda: program_lineage(corpus(40)[10], "u(a)"),
}


class TestSearchTree:
    """The smallest step budget that succeeds is the number of Shannon and
    component expansions, so pinning it pins the search tree: the branching
    variable, the component split and the memo keys."""

    @pytest.mark.parametrize(
        "name, expansions",
        [
            ("reliability 3x5", 6899),
            ("reliability 3x6", 32310),
            ("random 40-clause", 5410),
            ("corpus u(a)", 7),
        ],
    )
    def test_expansion_count_is_pinned(self, name, expansions):
        d, weights = PINNED_DNFS[name]()
        probability(d, weights, max_steps=expansions)
        with pytest.raises(WmcBudgetError):
            probability(d, weights, max_steps=expansions - 1)

    def test_path_matches_transfer_matrix(self):
        # Pr[some two consecutive variables are both true], against the
        # two-state recursion for Pr[no two consecutive variables true]
        rng = random.Random(4)
        n = 400
        d = Dnf.from_clauses([[i, i + 1] for i in range(n)])
        w = {v: rng.uniform(0.0, 0.1) for v in range(n + 1)}
        p0 = Fraction(w[0])
        last_false, last_true = 1 - p0, p0
        for v in range(1, n + 1):
            p = Fraction(w[v])
            last_false, last_true = (last_false + last_true) * (1 - p), last_false * p
        expected = float(1 - last_false - last_true)
        assert 0.1 < expected < 0.9
        assert abs(probability(d, w) - expected) <= 1e-12 * expected


def random_dnf_bits(seed: int, count: int) -> str:
    """`float.hex` of Pr for `count` random DNFs of up to 16 variables, with
    weights of 0, 1, below 1e-6 and anywhere in between, one per line."""
    rng = random.Random(seed)
    lines = []
    for _ in range(count):
        n = rng.randint(1, 16)
        d = Dnf.from_clauses(
            rng.sample(range(n), rng.randint(1, min(n, 5))) for _ in range(rng.randint(1, 14))
        )
        w = {v: rng.choice([0.0, 1.0, rng.uniform(0, 1e-6), rng.random()]) for v in range(n)}
        lines.append(probability(d, w).hex())
    return "\n".join(lines)


class TestBitIdentity:
    """Probabilities to the last bit, recorded from the recursive solver
    that preceded the closed forms and the explicit stack.  Per program:
    the answer count, one value spelled out and the SHA-256 of the sorted
    `"<fact> <float.hex>\\n"` lines."""

    @pytest.mark.parametrize(
        "text, collapse, queries, count, digest, sample",
        [
            pytest.param(
                chain_program(7, 0), "auto", ["p(X,Y)"], 21,
                "42079f9036d722a630046883055a307da7311ca49796639c8ba6aa6a289ef4e8",
                ("p(a,g)", "0x1.343146c1f8a98p-8"),
                id="chain 7",
            ),
            pytest.param(
                powerlaw_program(100, 0), "auto", ["p(X,Y)"], 246,
                "0d6e3b12dcbb9943bc0f3c5b79b81a613af840cd3993e1a0c2012af36ad88b02",
                ("p(n29,n29)", "0x1.9d09f9658bee0p-2"),
                id="powerlaw 100",
            ),
            pytest.param(
                collapse_example(250), "off", ["r(X,Y)", "t(X)"], 251,
                "d749dcadc15784945559b64c9e7a10496aee59150dbf7c366bf4c02daf3d3a21",
                ("r(a,b1)", "0x1.8000000000000p-1"),
                id="fanin 250",
            ),
            pytest.param(
                reliability_text(3, 5, 100), "auto", ["p(X,Y)"], 106,
                "5cf937817a7953017d40b8e19d6e9c7bd01b8f10b8d5b9ca9a33c0c97054d119",
                ("p(s,t)", "0x1.f65f4771e1bbdp-1"),
                id="reliability 3x5",
            ),
        ],
    )
    def test_every_answer_is_bit_identical(self, text, collapse, queries, count, digest, sample):
        prog = normalize(parse_program(text))
        result = reason(prog, collapse)
        bits = {
            str(a.fact): probability(a.lineage, prog.weights).hex()
            for q in queries
            for a in collect_lineage(result, prog, parse_atom(q))
        }
        lines = "".join(f"{fact} {h}\n" for fact, h in sorted(bits.items()))
        assert len(bits) == count
        assert bits[sample[0]] == sample[1]
        assert hashlib.sha256(lines.encode()).hexdigest() == digest

    def test_wide_reliability_is_bit_identical(self):
        d, weights = PINNED_DNFS["reliability 3x6"]()
        assert probability(d, weights).hex() == "0x1.fa3e312d0bea0p-1"

    def test_random_dnfs_are_bit_identical(self):
        digest = hashlib.sha256(random_dnf_bits(1, 2000).encode()).hexdigest()
        assert digest == "a5260b29ff6b8e19445040174541e176324cb40aea90edd48049a2fc79b37332"


class TestKernel:
    """The solver's clause-set kernel: the component split and the memory
    its memo holds."""

    @given(
        st.lists(
            st.frozensets(st.integers(min_value=0, max_value=9), min_size=1, max_size=3),
            min_size=1,
            max_size=12,
        )
    )
    @example([{0}])  # a single clause
    @example([{0}, {1, 2}, {3}])  # runs that share no bit
    @example([{0}, {1}, {0, 1}])  # runs joined only by a later clause
    @example([{0, 2}, {1}, {2, 3}, {4}, {1, 5}])  # overlapping runs, two groups
    @example([{1}, {0, 2}, {1, 2}])  # overlapping runs, one group
    @example([{0}, {1}, {2}, {0, 3}, {1, 3}, {2, 3}])  # three runs joined by a later run
    @settings(max_examples=300, deadline=None)
    def test_components_match_union_find(self, clauses):
        masks = tuple(sorted({sum(1 << v for v in c) for c in clauses}))
        groups = mask_components(masks)
        assert [tuple(g) for g in _components(masks)] == groups
        if len(groups) == 1:  # a connected residual comes back whole
            assert _components(masks) == [masks]

    def test_memo_is_compact_and_released_on_return(self):
        d, weights = PINNED_DNFS["reliability 3x5"]()
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            probability(d, weights)
            _, peak = tracemalloc.get_traced_memory()
            # The call leaves no reference cycle for the collector to find.
            # A full collection also empties CPython's tuple free lists,
            # which tracemalloc counts as live.
            assert gc.collect() == 0
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert peak <= 4_000_000
        assert after <= 100_000


small_clauses = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=11), min_size=1, max_size=4),
    min_size=1,
    max_size=10,
)
small_weights = st.lists(
    st.floats(min_value=1e-4, max_value=1.0), min_size=12, max_size=12
)


class TestRelativeAccuracy:
    @given(small_clauses, small_weights)
    @settings(max_examples=100, deadline=None)
    def test_matches_exact_rational_oracle(self, clauses, weights):
        d = Dnf.from_clauses(clauses)
        w = weight_map(weights)
        expected = exact_probability(d.clauses, w)
        assert abs(Fraction(probability(d, w)) - expected) <= Fraction(1e-9) * expected


class TestTruthTables:
    def test_equal_and_unequal(self):
        a = Dnf.from_clauses([[0], [1, 2]])
        b = Dnf.from_clauses([[0], [2, 1]])
        c = Dnf.from_clauses([[0], [1]])
        assert truth_table_equal(a, b)
        assert not truth_table_equal(a, c)

    def test_var_limit(self):
        a = Dnf.from_clauses([[i] for i in range(21)])
        with pytest.raises(TooManyVariablesError):
            truth_table_equal(a, a)

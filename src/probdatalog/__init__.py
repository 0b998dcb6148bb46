"""Exact probabilistic Datalog reasoning over tuple-independent databases.

The engine materializes derivations inside an execution graph with shared
structure, optionally collapsing same-root derivations, collects DNF
lineage per query answer, and computes exact probabilities by weighted
model counting.  A round-based fixpoint engine over per-atom formulas
serves as an independent reference implementation.
"""

from .derivations import (
    DerivationEntry,
    FactIndex,
    Label,
    Leaf,
    NodeStore,
    collapse,
    instantiate_node,
    is_hereditarily_redundant,
    should_collapse,
)
from .graph import EgNode, ExecutionGraph, base_step, inductive_step
from .lineage import (
    FALSE,
    TRUE,
    Answer,
    Dnf,
    IncompleteReasoningError,
    LineageTooLargeError,
    QueryArityError,
    UnknownPredicateError,
    collect_lineage,
    phi,
    round_bounds,
)
from .model import (
    Atom,
    EntryBudgetError,
    ProbFact,
    Program,
    Rule,
    RuleKind,
    Symbol,
    SymbolKind,
    atom,
    constant,
    desugar_rule_probability,
    normalize,
    predicate,
    variable,
)
from .parser import ParseError, parse_atom, parse_program, serialize
from .reasoner import (
    CollapseMode,
    ReasonerOptions,
    ReasoningResult,
    run_pcor,
    run_pr,
)
from .tcp import (
    TcpInstance,
    TcpRoundLimitError,
    tcp_fixpoint,
    tcp_initial,
    tcp_step,
)
from .wmc import (
    TooManyVariablesError,
    UnweightedVariableError,
    WmcBudgetError,
    brute_force_probability,
    probability,
)
from .generate import chain_program, powerlaw_program

__version__ = "0.1.0"

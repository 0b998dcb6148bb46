"""Text format for probabilistic logic programs.

One clause per line, `%` starts a comment:

    0.3::e(a,b).              % probabilistic fact
    e(b,c).                   % certain fact (probability 1)
    p(X,Y) :- e(X,Y).         % rule
    0.8::t(X) :- p(X,Y).      % probabilistic rule (desugared to a dummy fact)
    query(p(a,Y)).            % query directive

Constants and predicates are lowercase identifiers, variables start with an
uppercase letter.  `query` is reserved for the query directive.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .model import (
    Atom,
    ProbFact,
    Program,
    Rule,
    check_safety,
    constant,
    desugar_rule_probability,
    predicate,
    variable,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col

    def __str__(self) -> str:
        return f"line {self.line}, column {self.col}: {self.message}"


_TOKEN_RE = re.compile(
    r"""(?P<WS>\s+)
      | (?P<FLOAT>\d+\.\d+(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
      | (?P<IDENT>[a-z][A-Za-z0-9_]*)
      | (?P<VAR>[A-Z][A-Za-z0-9_]*)
      | (?P<PROB>::)
      | (?P<ARROW>:-)
      | (?P<LPAR>\()
      | (?P<RPAR>\))
      | (?P<COMMA>,)
      | (?P<DOT>\.)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Tok:
    type: str
    value: str
    col: int


def _tokenize(text: str, line: int) -> list[_Tok]:
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos + 1)
        if m.lastgroup != "WS":
            toks.append(_Tok(m.lastgroup, m.group(), pos + 1))
        pos = m.end()
    toks.append(_Tok("EOF", "", len(text) + 1))
    return toks


class _Clause:
    """Raw parse of one line, before program-level checks."""

    def __init__(self, kind, line, col, prob=None, head=None, body=None):
        self.kind = kind  # "fact" | "rule" | "query"
        self.line = line
        self.col = col
        self.prob = prob
        self.head = head
        self.body = body or ()


class _LineParser:
    def __init__(self, toks: list[_Tok], line: int):
        self.toks = toks
        self.line = line
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, type_: str) -> _Tok:
        tok = self.next()
        if tok.type != type_:
            raise ParseError(
                f"expected {type_} but found {tok.value!r}", self.line, tok.col
            )
        return tok

    def atom(self) -> Atom:
        tok = self.expect("IDENT")
        pred = tok.value
        args: list = []
        if self.peek().type == "LPAR":
            self.next()
            while True:
                term = self.next()
                if term.type == "IDENT":
                    args.append(constant(term.value))
                elif term.type == "VAR":
                    args.append(variable(term.value))
                else:
                    raise ParseError(
                        f"expected term but found {term.value!r}", self.line, term.col
                    )
                sep = self.next()
                if sep.type == "RPAR":
                    break
                if sep.type != "COMMA":
                    raise ParseError(
                        f"expected ',' or ')' but found {sep.value!r}",
                        self.line,
                        sep.col,
                    )
        return Atom(predicate(pred), tuple(args))

    def clause(self) -> _Clause:
        start = self.peek()
        prob = None
        if start.type == "FLOAT":
            self.next()
            prob = float(start.value)
            self.expect("PROB")
        if (
            prob is None
            and self.peek().type == "IDENT"
            and self.peek().value == "query"
        ):
            self.next()
            self.expect("LPAR")
            q = self.atom()
            self.expect("RPAR")
            self.expect("DOT")
            self.expect("EOF")
            return _Clause("query", self.line, start.col, head=q)
        head = self.atom()
        tok = self.next()
        if tok.type == "DOT":
            self.expect("EOF")
            return _Clause("fact", self.line, start.col, prob=prob, head=head)
        if tok.type != "ARROW":
            raise ParseError(
                f"expected ':-' or '.' but found {tok.value!r}", self.line, tok.col
            )
        body = [self.atom()]
        while True:
            tok = self.next()
            if tok.type == "DOT":
                break
            if tok.type != "COMMA":
                raise ParseError(
                    f"expected ',' or '.' but found {tok.value!r}", self.line, tok.col
                )
            body.append(self.atom())
        self.expect("EOF")
        return _Clause("rule", self.line, start.col, prob=prob, head=head, body=tuple(body))


def parse_atom(text: str) -> Atom:
    """Parse a single atom, e.g. a query passed on the command line."""
    p = _LineParser(_tokenize(text, 1), 1)
    a = p.atom()
    p.expect("EOF")
    return a


def parse_program(text: str) -> Program:
    clauses: list[_Clause] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0]
        if not line.strip():
            continue
        parser = _LineParser(_tokenize(line, lineno), lineno)
        clauses.append(parser.clause())

    # Arity is fixed per predicate across the whole program.
    arities: dict[str, int] = {}

    def check_arity(a: Atom, clause: _Clause) -> None:
        seen = arities.setdefault(a.predicate.text, a.arity)
        if seen != a.arity:
            raise ParseError(
                f"predicate {a.predicate.text}/{a.arity} conflicts with "
                f"earlier arity {seen}",
                clause.line,
                clause.col,
            )

    taken_names = set()
    for c in clauses:
        if c.head is not None:
            taken_names.add(c.head.predicate.text)
        for a in c.body:
            taken_names.add(a.predicate.text)

    rules: list[Rule] = []
    facts: list[ProbFact] = []
    queries: list[Atom] = []
    fact_lines: dict[Atom, int] = {}  # one variable, one probability per fact
    aux_count = 0

    for c in clauses:
        if c.kind == "query":
            check_arity(c.head, c)
            queries.append(c.head)
            continue
        if c.prob is not None and not 0.0 < c.prob <= 1.0:
            raise ParseError(
                f"probability {c.prob} outside (0,1]", c.line, c.col
            )
        if c.kind == "fact":
            check_arity(c.head, c)
            if not c.head.is_ground:
                raise ParseError(
                    f"fact {c.head} is not ground", c.line, c.col
                )
            first = fact_lines.setdefault(c.head, c.line)
            if first != c.line:
                raise ParseError(f"fact {c.head} is already given on line {first}", c.line, c.col)
            prob = 1.0 if c.prob is None else c.prob
            facts.append(ProbFact(c.head, prob, len(facts)))
            continue
        # rule
        check_arity(c.head, c)
        for a in c.body:
            check_arity(a, c)
        unsafe = check_safety(c.head, c.body)
        if unsafe is not None:
            raise ParseError(
                f"head variable {unsafe.text} does not occur in the body",
                c.line,
                c.col,
            )
        rule = Rule(len(rules), c.head, c.body)
        if c.prob is not None:
            rule, dummy = desugar_rule_probability(
                rule,
                c.prob,
                taken_names=taken_names,
                aux_index=aux_count,
                var=len(facts),
            )
            taken_names.add(dummy.fact.predicate.text)
            aux_count += 1
            facts.append(dummy)
        rules.append(rule)

    return Program(tuple(rules), tuple(facts), tuple(queries))


def serialize(prog: Program) -> str:
    """Render a program in the clause format; round-trips structurally."""
    lines = []
    for f in prog.facts:
        if f.prob == 1.0:
            lines.append(f"{f.fact}.")
        else:
            lines.append(f"{f.prob!r}::{f.fact}.")
    for r in prog.rules:
        lines.append(f"{r}.")
    for q in prog.queries:
        lines.append(f"query({q}).")
    return "\n".join(lines) + "\n"

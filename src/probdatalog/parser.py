"""Text format for probabilistic logic programs.

One clause per line, `%` starts a comment:

    0.3::e(a,b).              % probabilistic fact
    e(b,c).                   % certain fact (probability 1)
    p(X,Y) :- e(X,Y).         % rule
    0.8::t(X) :- p(X,Y).      % probabilistic rule (desugared to a dummy fact)
    query(p(a,Y)).            % query directive

Constants and predicates are lowercase identifiers, variables start with an
uppercase letter.  `query` is reserved for the query directive.

One `re.findall` of `_TOKEN_RE` splits a line into token strings.  It skips
whitespace, and a character no token starts with becomes a token of its own,
which no clause accepts.  A recursive descent reads the list by index and
tells tokens apart by their text or, for terms, by their first character
(`_TERM`).  No column is kept while parsing: a line that fails is
scanned again, and the error names the first unexpected character anywhere
in it, else the token the parser stopped at, by the column it starts in (one
past the line's end for the end).  Errors about the program as a whole are
raised once every line has parsed, at the column of the clause's first token.
"""

from __future__ import annotations

import re
from string import ascii_lowercase, ascii_uppercase
from typing import Optional

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
    r"""\d+\.\d+(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?  # FLOAT
      | [a-z][A-Za-z0-9_]*   # IDENT
      | [A-Z][A-Za-z0-9_]*   # VAR
      | ::|:-|[(),.]         # PROB ARROW LPAR RPAR COMMA DOT
      | \S                   # a character no token starts with
    """,
    re.VERBOSE,
)

_TERM = {**dict.fromkeys(ascii_lowercase, constant), **dict.fromkeys(ascii_uppercase, variable)}


def _is_float(tok: str) -> bool:
    # `\d` matches every decimal digit, not only ASCII ones, as `str.isdecimal` does.
    return tok[:1].isdecimal() or (tok[:1] == "." and tok != ".")


def _is_bad(tok: str) -> bool:
    """`tok` is a character no token starts with."""
    return len(tok) == 1 and tok not in "(),." and tok not in _TERM and not tok.isdecimal()


class _Unexpected(Exception):
    """args: (index of the token, what the grammar expects there or None
    where a predicate is named `query`)."""


def _read(rule, line: str, lineno: int):
    """`rule` applied to the tokens of `line` and a final "", its end."""
    toks = _TOKEN_RE.findall(line)
    toks.append("")
    try:
        return rule(toks)
    except _Unexpected as e:
        index, expected = e.args
    matches = list(_TOKEN_RE.finditer(line))
    for m in matches:
        if _is_bad(m.group()):
            raise ParseError(f"unexpected character {m.group()!r}", lineno, m.start() + 1)
    found, col = "", len(line) + 1
    if index < len(matches):
        found, col = matches[index].group(), matches[index].start() + 1
    if expected is None:
        raise ParseError("'query' is reserved for the query directive", lineno, col)
    raise ParseError(f"expected {expected} but found {found!r}", lineno, col)


def _atom(toks: list[str], i: int) -> tuple[Atom, int]:
    """The atom at token `i`, and the index of the token after it."""
    name = toks[i]
    if _TERM.get(name[:1]) is not constant:
        raise _Unexpected(i, "IDENT")
    if name == "query":
        raise _Unexpected(i, None)
    if toks[i + 1] != "(":
        return Atom(predicate(name)), i + 1
    args = []
    i += 2
    while True:
        make = _TERM.get(toks[i][:1])
        if make is None:
            raise _Unexpected(i, "term")
        args.append(make(toks[i]))
        if toks[i + 1] == ")":
            return Atom(predicate(name), tuple(args)), i + 2
        if toks[i + 1] != ",":
            raise _Unexpected(i + 1, "',' or ')'")
        i += 2


def _end(toks: list[str], i: int) -> None:
    """Token `i` is a `.` that ends the line."""
    if toks[i] != ".":
        raise _Unexpected(i, "DOT")
    if toks[i + 1]:
        raise _Unexpected(i + 1, "EOF")


def _clause(toks: list[str]) -> tuple:
    """(kind, probability or None, head, body), kind "fact", "rule" or "query"."""
    prob = None
    i = 0
    if _is_float(toks[0]):
        prob = float(toks[0])
        if toks[1] != "::":
            raise _Unexpected(1, "PROB")
        i = 2
    elif toks[0] == "query":
        try:
            if toks[1] != "(":
                raise _Unexpected(1, "LPAR")
            head, i = _atom(toks, 2)
            if toks[i] != ")":
                raise _Unexpected(i, "RPAR")
            _end(toks, i + 1)
            return "query", None, head, ()
        except _Unexpected as e:
            error = e
        try:  # a line that reads as a fact or rule about `query` misuses it
            _clause(["q" if t == "query" else t for t in toks])
        except _Unexpected:
            raise error from None
        raise _Unexpected(0, None)
    head, i = _atom(toks, i)
    if toks[i] == ".":
        _end(toks, i)
        return "fact", prob, head, ()
    if toks[i] != ":-":
        raise _Unexpected(i, "':-' or '.'")
    body = []
    while True:
        a, i = _atom(toks, i + 1)
        body.append(a)
        if toks[i] == ".":
            _end(toks, i)
            return "rule", prob, head, tuple(body)
        if toks[i] != ",":
            raise _Unexpected(i, "',' or '.'")


def _whole_atom(toks: list[str]) -> Atom:
    a, i = _atom(toks, 0)
    if toks[i]:
        raise _Unexpected(i, "EOF")
    return a


def parse_atom(text: str) -> Atom:
    """Parse a single atom, e.g. a query passed on the command line."""
    return _read(_whole_atom, text, 1)


def _problem(kind, prob, head, body, lineno, arities, fact_lines) -> Optional[str]:
    """What is wrong with a clause given the clauses before it, if anything:
    a predicate has one arity, and a fact is ground and given once (one
    variable, one probability)."""
    if prob is not None and not 0.0 < prob <= 1.0:
        return f"probability {prob} outside (0,1]"
    for a in (head, *body):
        seen = arities.setdefault(a.predicate, a.arity)
        if seen != a.arity:
            return f"predicate {a.predicate.text}/{a.arity} conflicts with earlier arity {seen}"
    if kind == "fact":
        if not head.is_ground:
            return f"fact {head} is not ground"
        first = fact_lines.setdefault(head, lineno)
        if first != lineno:
            return f"fact {head} is already given on line {first}"
    elif kind == "rule":
        unsafe = check_safety(head, body)
        if unsafe is not None:
            return f"head variable {unsafe.text} does not occur in the body"
    return None


def parse_program(text: str) -> Program:
    clauses = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0]
        if line.strip():
            clauses.append((lineno, line, *_read(_clause, line, lineno)))

    arities: dict = {}
    fact_lines: dict[Atom, int] = {}
    rules: list[Rule] = []
    facts: list[ProbFact] = []
    queries: list[Atom] = []
    # Dummy predicates are named apart from each other and from every
    # predicate of the program, later clauses' too.
    taken_names = {a.predicate.text for c in clauses for a in (c[4], *c[5])}
    aux_count = 0
    for lineno, line, kind, prob, head, body in clauses:
        problem = _problem(kind, prob, head, body, lineno, arities, fact_lines)
        if problem is not None:
            raise ParseError(problem, lineno, _TOKEN_RE.search(line).start() + 1)
        if kind == "query":
            queries.append(head)
        elif kind == "fact":
            facts.append(ProbFact(head, 1.0 if prob is None else prob, len(facts)))
        else:
            rule = Rule(len(rules), head, body)
            if prob is not None:
                rule, dummy = desugar_rule_probability(
                    rule,
                    prob,
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

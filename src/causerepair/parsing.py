"""Parsers for the three input grammars.

Instance files (``%`` starts a comment anywhere):

    @endogenous            % section directive; this one is the default
    R(a4,a3). S(a4).
    @exogenous
    S(a2).
    R(2;a3,a3).            % tuple id before a semicolon (null-based mode)

Program files:

    q :- S(X), R(X,Y), S(Y).          % named query (bare head = boolean)
    ans(X) :- P(X).                   % open query, head lists free variables
    :- A(X1,X2,Y), A(X1,X3,Z), Y != Z.  % headless rule = denial constraint

Priority files:

    Journal("TKDE",30,"XML") > Author("John","TKDE").

Variables start with an uppercase letter; constants are lowercase
identifiers, integers, or double-quoted strings.  The bare token ``null``
is the reserved null value.  Integers are ASCII digits with an optional
leading ``-``; any other digit that is not part of an identifier is an
unexpected character.

All four grammars (with ``--atoms`` fact lists) share one scanner: a
single regular expression that skips blanks and comments and yields
``(kind, text, offset)`` tokens.  Line and column are worked out from
the offset only when an error is reported.
"""

from __future__ import annotations

import re

from .errors import ParseError, SemanticError
from .queries import (
    Atom,
    ConjunctiveQuery,
    DenialConstraint,
    DenialConstraintSet,
    UnionQuery,
    Var,
)
from .relational import ENDOGENOUS, EXOGENOUS, Fact, Instance

# Token kinds are the group names, except that a mark (PUNCT) is its own
# kind, as in ``accept(",")``.  Order matters: a mark before a
# number (``:-5``), an ASCII digit before a word.  WORD catches words
# that start with any other word character; ``_tokenize`` checks that
# it is a letter.  EOF matches at the end, BAD anything else.  STRING is
# unrolled (no nested alternation) so that an unterminated string fails
# in linear time.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|%[^\n]*)*"
    r"(?:(?P<PUNCT>:-|!=|[(),;.>])"
    r"|(?P<IDENT>[a-z_]\w*)"
    r"|(?P<VARIDENT>[A-Z]\w*)"
    r"|(?P<INT>-?[0-9]+)"
    r'|(?P<STRING>"[^"\\\n]*(?:\\.[^"\\\n]*)*")'
    r"|(?P<DIRECTIVE>@\w*)"
    r"|(?P<WORD>\w+)"
    r"|(?P<EOF>\Z)"
    r"|(?P<BAD>.))",
    re.DOTALL,
)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def _position(source: str, offset: int) -> tuple[int, int]:
    """Line and column (both from 1) of an offset into ``source``."""
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        offset = m.start(kind)
        text = m[kind]
        if kind == "PUNCT":
            kind = text
        elif kind == "STRING":
            text = _ESCAPE.sub(r"\1", text[1:-1])
        elif kind == "DIRECTIVE":
            text = text[1:]
        elif kind == "WORD":
            if not text[0].isalpha():
                raise ParseError(f"unexpected character {text[0]!r}", *_position(source, offset))
            kind = "VARIDENT" if text[0].isupper() else "IDENT"
        elif kind == "EOF":
            break  # after a trailing blank or comment, a second empty match follows
        elif kind == "BAD":
            message = "unterminated string" if text == '"' else f"unexpected character {text!r}"
            raise ParseError(message, *_position(source, offset))
        tokens.append((kind, text, offset))
    tokens.append(("EOF", "", offset))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    @property
    def current(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, kind: str) -> tuple[str, str, int] | None:
        tok = self.tokens[self.pos]
        if tok[0] == kind:
            self.pos += 1
            return tok
        return None

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.accept(kind)
        if tok is None:
            raise self.unexpected(repr(kind.lower()))
        return tok

    def error(self, tok: tuple[str, str, int], message: str) -> ParseError:
        return ParseError(message, *_position(self.source, tok[2]))

    def unexpected(self, want: str) -> ParseError:
        tok = self.current
        return self.error(tok, f"expected {want}, found {tok[1] or 'end of input'!r}")

    def at_end(self) -> bool:
        return self.current[0] == "EOF"

    # -- shared pieces ------------------------------------------------

    def constant(self) -> str:
        tok = self.current
        if tok[0] in ("IDENT", "INT", "STRING"):
            self.pos += 1
            return tok[1]
        raise self.unexpected("a constant")

    def term(self):
        if self.current[0] == "VARIDENT":
            return Var(self.advance()[1])
        return self.constant()

    def predicate_name(self) -> str:
        """Predicate names may start upper- or lowercase; the following
        parenthesis is what identifies them."""
        tok = self.accept("IDENT") or self.accept("VARIDENT")
        if tok is None:
            raise self.unexpected("a predicate name")
        return tok[1]

    def fact_literal(self, default_tag: str = ENDOGENOUS) -> Fact:
        name = self.predicate_name()
        self.expect("(")
        fact_id = None
        tokens, pos = self.tokens, self.pos
        if tokens[pos][0] == "INT" and tokens[pos + 1][0] == ";":
            self.pos += 2
            fact_id = int(tokens[pos][1])
            if fact_id <= 0:
                raise SemanticError(f"tuple ids must be positive, got {fact_id}")
        args = []
        if not self.accept(")"):
            args.append(self.constant())
            while self.accept(","):
                args.append(self.constant())
            self.expect(")")
        return Fact(name, tuple(args), default_tag, fact_id)


# ---------------------------------------------------------------------------
# Instance files


def parse_instance(source: str) -> Instance:
    parser = _Parser(source)
    tokens, fact_literal, expect = parser.tokens, parser.fact_literal, parser.expect
    tag = ENDOGENOUS
    arities: dict[str, int] = {}
    facts: list[Fact] = []
    tags: dict[tuple, str] = {}
    ids_seen: dict[int, Fact] = {}
    while True:
        tok = tokens[parser.pos]
        if tok[0] == "EOF":
            break
        if tok[0] == "DIRECTIVE":
            parser.pos += 1
            if tok[1] == "endogenous":
                tag = ENDOGENOUS
            elif tok[1] == "exogenous":
                tag = EXOGENOUS
            else:
                raise parser.error(tok, f"unknown directive @{tok[1]}")
            continue
        f = fact_literal(tag)
        expect(".")
        pred, args, fact_id = f.pred, f.args, f.fact_id
        seen_arity = arities.setdefault(pred, len(args))
        if seen_arity != len(args):
            raise SemanticError(
                f"predicate {pred} used with arity {seen_arity} and {len(args)}"
            )
        if fact_id is not None:
            clash = ids_seen.get(fact_id)
            if clash is not None and clash != f:
                raise SemanticError(f"duplicate tuple id {fact_id}")
            ids_seen[fact_id] = f
        if tags.setdefault((pred, args), tag) != tag:
            raise SemanticError(f"fact {f} declared both endogenous and exogenous")
        facts.append(f)
    return Instance(frozenset(facts))


# ---------------------------------------------------------------------------
# Program files


def parse_program(source: str) -> tuple[dict[str, UnionQuery], DenialConstraintSet]:
    """Parse rules into named union queries and denial constraints."""
    parser = _Parser(source)
    heads: dict[str, list[ConjunctiveQuery]] = {}
    constraints: list[DenialConstraint] = []
    while not parser.at_end():
        head_name = None
        head_vars: tuple[str, ...] = ()
        if parser.current[0] in ("IDENT", "VARIDENT"):
            head_name = parser.advance()[1]
            if parser.accept("("):
                names = [parser.expect("VARIDENT")[1]]
                while parser.accept(","):
                    names.append(parser.expect("VARIDENT")[1])
                parser.expect(")")
                head_vars = tuple(names)
        parser.expect(":-")
        cq = _parse_body(parser, head_vars)
        parser.expect(".")
        if head_name is None:
            constraints.append(DenialConstraint(cq))
        else:
            bucket = heads.setdefault(head_name, [])
            if bucket and bucket[0].free_vars != cq.free_vars:
                raise SemanticError(
                    f"rules for {head_name} disagree on the free-variable list"
                )
            bucket.append(cq)
    queries = {name: UnionQuery(tuple(cqs)) for name, cqs in heads.items()}
    return queries, DenialConstraintSet(tuple(constraints))


def _parse_body(parser: _Parser, head_vars: tuple[str, ...]) -> ConjunctiveQuery:
    atoms: list[Atom] = []
    inequalities: list[tuple] = []
    while True:
        is_atom = parser.current[0] in ("IDENT", "VARIDENT") and (
            parser.tokens[parser.pos + 1][0] == "("
        )
        if is_atom:
            name = parser.advance()[1]
            parser.expect("(")
            terms = []
            if not parser.accept(")"):
                terms.append(parser.term())
                while parser.accept(","):
                    terms.append(parser.term())
                parser.expect(")")
            atoms.append(Atom(name, tuple(terms)))
        else:
            left = parser.term()
            parser.expect("!=")
            right = parser.term()
            inequalities.append((left, right))
        if not parser.accept(","):
            break
    if not atoms:
        line, _ = _position(parser.source, parser.current[2])
        raise SemanticError(f"rule body near line {line} has no positive atom")
    cq = ConjunctiveQuery(tuple(atoms), tuple(inequalities), head_vars)
    unsafe = cq.safety_violations()
    if unsafe:
        raise SemanticError(
            "unsafe rule: variable(s) "
            + ", ".join(sorted(set(unsafe)))
            + " do not occur in a positive atom"
        )
    return cq


def single_query(source: str, name: str | None = None) -> UnionQuery:
    """Parse a program expected to define exactly one (or the named) query."""
    queries, _ = parse_program(source)
    if name is not None:
        if name not in queries:
            raise SemanticError(f"no query named {name} in the program")
        return queries[name]
    if len(queries) != 1:
        raise SemanticError(
            f"expected exactly one named query, found {len(queries)}"
        )
    return next(iter(queries.values()))


def constraint_set(source: str) -> DenialConstraintSet:
    """Parse a program expected to declare at least one denial constraint."""
    _, sigma = parse_program(source)
    if not sigma.constraints:
        raise SemanticError("the program declares no denial constraints")
    return sigma


# ---------------------------------------------------------------------------
# Priority files and command-line fact literals


def parse_fact(text: str) -> Fact:
    parser = _Parser(text)
    f = parser.fact_literal()
    parser.accept(".")
    if not parser.at_end():
        raise parser.error(parser.current, f"trailing input {parser.current[1]!r}")
    return f


def parse_fact_list(text: str) -> list[Fact]:
    """Semicolon-separated fact literals, e.g. ``P(a,b); R(b,c)``."""
    stripped = text.strip()
    if not stripped:
        return []
    parser = _Parser(stripped)
    facts = [parser.fact_literal()]
    while parser.accept(";"):
        facts.append(parser.fact_literal())
    if not parser.at_end():
        raise parser.error(parser.current, f"trailing input {parser.current[1]!r}")
    return facts


def parse_priorities(source: str) -> list[tuple[Fact, Fact]]:
    parser = _Parser(source)
    pairs = []
    while not parser.at_end():
        stronger = parser.fact_literal()
        parser.expect(">")
        weaker = parser.fact_literal()
        parser.expect(".")
        pairs.append((stronger, weaker))
    return pairs

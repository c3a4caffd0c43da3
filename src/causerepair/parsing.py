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

Instance files are read one item at a time, each a directive or a whole
fact, by one regular expression (``_ITEM``) anchored where the previous
item ended.  It accepts plain facts only: names that start with an ASCII
letter or underscore, integers of ASCII digits, blanks between tokens,
and no comment inside.  A plain argument list (bare constants with no
blanks, then the closing parenthesis) has a group of its own and is split
on its commas; any other list is read by a second pattern (``_ARGUMENT``)
that unescapes strings.  At the first item it does not accept, or at a
fact whose tuple id the grammar rejects (``_tuple_id``), the token
grammar takes over for the rest of the text, with the tag and the facts
read so far.

The token grammar is the one definition of all four grammars (with
``--atoms`` fact lists): a scanner, one regular expression that skips
blanks and comments and yields ``(kind, text, offset)`` tokens, and a
recursive-descent parser over them.  Offsets are absolute, so an error
found after the hand-over has the line and column, and the wording, of
one found by the grammar alone; line and column are worked out from the
offset only when an error is reported.

The parsers check grammar only: an instance file's facts meet the
instance invariants once all are read, in the pass that groups and keys
them (``relational.checked_instance``), and a typed fact is checked when
an instance resolves it.
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
from .relational import ENDOGENOUS, EXOGENOUS, Fact, Instance, checked_instance

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

# Each section directive of an instance file, and the tag it sets.
_DIRECTIVES = {"endogenous": ENDOGENOUS, "exogenous": EXOGENOUS}

# One instance-file item, anchored at the end of the previous one: the
# blanks and comments before it, then a directive, a plain fact or the
# end of the text.  Each repetition of the comment loop starts at a ``%``
# and a comment matches only up to the end of its line, so a failed match
# backs off in linear time; no group matching then tells the end of the
# text.  The plain argument list is tried before any other list.
_BLANKS = r"[ \t\r\n]*"
_STRING = r'"[^"\\\n]*(?:\\.[^"\\\n]*)*"'
_BARE = r"(?:[a-z_]\w*|-?[0-9]+)"
_CONSTANT = rf"(?:{_BARE}|{_STRING})"
_ITEM = re.compile(
    rf"{_BLANKS}(?:%[^\n]*(?![^\n]){_BLANKS})*"
    rf"(?:@({'|'.join(_DIRECTIVES)})(?!\w)"
    rf"|([A-Za-z_]\w*){_BLANKS}\({_BLANKS}"
    rf"(?:(-?[0-9]+){_BLANKS};{_BLANKS})?"
    rf"(?:({_BARE}(?:,{_BARE})*)\)"
    rf"|((?:{_CONSTANT}(?:{_BLANKS},{_BLANKS}{_CONSTANT})*)?){_BLANKS}\)){_BLANKS}\."
    r"|\Z)",
    re.DOTALL,
)
# The constants of a fact the item pattern has accepted.
_ARGUMENT = re.compile(rf"{_STRING}|[^ \t\r\n,]+", re.DOTALL)


def _position(source: str, offset: int) -> tuple[int, int]:
    """Line and column (both from 1) of an offset into ``source``."""
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


def _tokenize(source: str, start: int = 0) -> list[tuple[str, str, int]]:
    """The tokens of ``source`` from offset ``start`` on, ending in EOF."""
    tokens = []
    for m in _TOKEN.finditer(source, start):
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


def _tuple_id(text: str) -> int:
    """The value of a tuple id's digits; ids are positive, and their
    digits few enough for ``int`` to convert."""
    try:
        value = int(text)
    except ValueError:  # more digits than int() converts
        raise SemanticError(f"tuple id of {len(text.lstrip('-'))} digits is too long") from None
    if value <= 0:
        raise SemanticError(f"tuple ids must be positive, got {value}")
    return value


class _Parser:
    def __init__(self, source: str, start: int = 0):
        self.source = source
        self.tokens = _tokenize(source, start)
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

    def listed(self, item, empty: bool = True) -> tuple:
        """Comma-separated ``item``s up to and including the closing
        parenthesis; none only where ``empty`` allows."""
        if empty and self.accept(")"):
            return ()
        items = [item()]
        while self.accept(","):
            items.append(item())
        self.expect(")")
        return tuple(items)

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
            fact_id = _tuple_id(tokens[pos][1])
        return Fact(name, self.listed(self.constant), default_tag, fact_id)


# ---------------------------------------------------------------------------
# Instance files


def parse_instance(source: str) -> Instance:
    """Parse an instance file; a grammar error is reported before the
    first broken instance invariant (``relational.checked_instance``).

    Plain items are read one per match of ``_ITEM``; from the first
    other item on, the token grammar reads the rest, so every error it
    reports has the position and wording of a grammar-only parse."""
    tag = ENDOGENOUS
    facts: list[Fact] = []
    match, pos = _ITEM.match, 0
    while m := match(source, pos):
        directive, name, fact_id, plain, args = m.groups()
        if name is not None:
            if fact_id is not None:
                try:
                    fact_id = _tuple_id(fact_id)
                except SemanticError:
                    break  # reported by the grammar, after any scanner error
            if plain is not None:
                constants = plain.split(",")
            else:
                constants = _ARGUMENT.findall(args)
                if '"' in args:
                    constants = [_ESCAPE.sub(r"\1", a[1:-1]) if a[0] == '"' else a for a in constants]
            facts.append(Fact(name, tuple(constants), tag, fact_id))
        elif directive is not None:
            tag = _DIRECTIVES[directive]
        else:
            return checked_instance(facts)
        pos = m.end()
    parser = _Parser(source, pos)
    tokens, fact_literal, expect = parser.tokens, parser.fact_literal, parser.expect
    while True:
        tok = tokens[parser.pos]
        if tok[0] == "EOF":
            return checked_instance(facts)
        if tok[0] == "DIRECTIVE":
            parser.pos += 1
            tag = _DIRECTIVES.get(tok[1])
            if tag is None:
                raise parser.error(tok, f"unknown directive @{tok[1]}")
            continue
        facts.append(fact_literal(tag))
        expect(".")


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
                head_vars = parser.listed(lambda: parser.expect("VARIDENT")[1], empty=False)
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
            atoms.append(Atom(name, parser.listed(parser.term)))
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


def single_query(source: str) -> UnionQuery:
    """Parse a program expected to define exactly one query."""
    queries, _ = parse_program(source)
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
    """Semicolon-separated fact literals, e.g. ``P(a,b); R(b,c)``; none
    when the text holds only blanks and comments."""
    parser = _Parser(text)
    if parser.at_end():
        return []
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

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
is the reserved null value.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT VARIANT INT STRING PUNCT DIRECTIVE EOF
    text: str
    line: int
    column: int


_PUNCT = (":-", "!=", "(", ")", ",", ";", ".", ">")


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and source[i] != "\n":
                i += 1
                col += 1
            continue
        start_line, start_col = line, col
        if ch == '"':
            i += 1
            col += 1
            buf = []
            while i < n and source[i] != '"':
                if source[i] == "\\" and i + 1 < n:
                    buf.append(source[i + 1])
                    i += 2
                    col += 2
                    continue
                if source[i] == "\n":
                    raise ParseError("unterminated string", start_line, start_col)
                buf.append(source[i])
                i += 1
                col += 1
            if i >= n:
                raise ParseError("unterminated string", start_line, start_col)
            i += 1
            col += 1
            tokens.append(_Token("STRING", "".join(buf), start_line, start_col))
            continue
        if ch == "@":
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i + 1 : j]
            tokens.append(_Token("DIRECTIVE", word, start_line, start_col))
            col += j - i
            i = j
            continue
        two = source[i : i + 2]
        if two in _PUNCT:
            # one character long when the input ends with a mark
            tokens.append(_Token("PUNCT", two, start_line, start_col))
            i += len(two)
            col += len(two)
            continue
        if ch in _PUNCT:
            tokens.append(_Token("PUNCT", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and source[i + 1].isdigit()):
            j = i + 1
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(_Token("INT", source[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            kind = "VARIDENT" if word[0].isupper() else "IDENT"
            tokens.append(_Token(kind, word, start_line, start_col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", start_line, start_col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, kind: str, text: str | None = None) -> _Token | None:
        tok = self.current
        if tok.kind == kind and (text is None or tok.text == text):
            return self.advance()
        return None

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.accept(kind, text)
        if tok is None:
            want = text if text is not None else kind.lower()
            raise ParseError(
                f"expected {want!r}, found {self.current.text or 'end of input'!r}",
                self.current.line,
                self.current.column,
            )
        return tok

    def at_end(self) -> bool:
        return self.current.kind == "EOF"

    # -- shared pieces ------------------------------------------------

    def constant(self) -> str:
        tok = self.current
        if tok.kind in ("IDENT", "INT", "STRING"):
            return self.advance().text
        raise ParseError(
            f"expected a constant, found {tok.text or 'end of input'!r}",
            tok.line,
            tok.column,
        )

    def term(self):
        if self.current.kind == "VARIDENT":
            return Var(self.advance().text)
        return self.constant()

    def predicate_name(self) -> _Token:
        """Predicate names may start upper- or lowercase; the following
        parenthesis is what identifies them."""
        tok = self.accept("IDENT") or self.accept("VARIDENT")
        if tok is None:
            raise ParseError(
                f"expected a predicate name, found {self.current.text or 'end of input'!r}",
                self.current.line,
                self.current.column,
            )
        return tok

    def fact_literal(self, default_tag: str = ENDOGENOUS) -> Fact:
        name = self.predicate_name()
        self.expect("PUNCT", "(")
        fact_id = None
        if (
            self.current.kind == "INT"
            and self.tokens[self.pos + 1].kind == "PUNCT"
            and self.tokens[self.pos + 1].text == ";"
        ):
            id_tok = self.advance()
            self.advance()  # ';'
            fact_id = int(id_tok.text)
            if fact_id <= 0:
                raise SemanticError(f"tuple ids must be positive, got {fact_id}")
        args = []
        if not self.accept("PUNCT", ")"):
            args.append(self.constant())
            while self.accept("PUNCT", ","):
                args.append(self.constant())
            self.expect("PUNCT", ")")
        return Fact(name.text, tuple(args), default_tag, fact_id)


# ---------------------------------------------------------------------------
# Instance files


def parse_instance(source: str) -> Instance:
    parser = _Parser(source)
    tag = ENDOGENOUS
    arities: dict[str, int] = {}
    facts: list[Fact] = []
    tags: dict[tuple, str] = {}
    ids_seen: dict[int, Fact] = {}
    while not parser.at_end():
        directive = parser.accept("DIRECTIVE")
        if directive is not None:
            if directive.text == "endogenous":
                tag = ENDOGENOUS
            elif directive.text == "exogenous":
                tag = EXOGENOUS
            else:
                raise ParseError(
                    f"unknown directive @{directive.text}",
                    directive.line,
                    directive.column,
                )
            continue
        f = parser.fact_literal(tag)
        parser.expect("PUNCT", ".")
        seen_arity = arities.setdefault(f.pred, f.arity)
        if seen_arity != f.arity:
            raise SemanticError(
                f"predicate {f.pred} used with arity {seen_arity} and {f.arity}"
            )
        if f.fact_id is not None:
            clash = ids_seen.get(f.fact_id)
            if clash is not None and clash != f:
                raise SemanticError(f"duplicate tuple id {f.fact_id}")
            ids_seen[f.fact_id] = f
        if tags.setdefault(f.atom, f.tag) != f.tag:
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
        if parser.current.kind in ("IDENT", "VARIDENT"):
            head_tok = parser.advance()
            head_name = head_tok.text
            if parser.accept("PUNCT", "("):
                names = [parser.expect("VARIDENT").text]
                while parser.accept("PUNCT", ","):
                    names.append(parser.expect("VARIDENT").text)
                parser.expect("PUNCT", ")")
                head_vars = tuple(names)
        parser.expect("PUNCT", ":-")
        cq = _parse_body(parser, head_vars)
        parser.expect("PUNCT", ".")
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
        is_atom = parser.current.kind in ("IDENT", "VARIDENT") and (
            parser.tokens[parser.pos + 1].kind == "PUNCT"
            and parser.tokens[parser.pos + 1].text == "("
        )
        if is_atom:
            name = parser.advance()
            parser.expect("PUNCT", "(")
            terms = []
            if not parser.accept("PUNCT", ")"):
                terms.append(parser.term())
                while parser.accept("PUNCT", ","):
                    terms.append(parser.term())
                parser.expect("PUNCT", ")")
            atoms.append(Atom(name.text, tuple(terms)))
        else:
            left = parser.term()
            parser.expect("PUNCT", "!=")
            right = parser.term()
            inequalities.append((left, right))
        if not parser.accept("PUNCT", ","):
            break
    if not atoms:
        tok = parser.current
        raise SemanticError(
            f"rule body near line {tok.line} has no positive atom"
        )
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
    parser.accept("PUNCT", ".")
    if not parser.at_end():
        tok = parser.current
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return f


def parse_fact_list(text: str) -> list[Fact]:
    """Semicolon-separated fact literals, e.g. ``P(a,b); R(b,c)``."""
    stripped = text.strip()
    if not stripped:
        return []
    parser = _Parser(stripped)
    facts = [parser.fact_literal()]
    while parser.accept("PUNCT", ";"):
        facts.append(parser.fact_literal())
    if not parser.at_end():
        tok = parser.current
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return facts


def parse_priorities(source: str) -> list[tuple[Fact, Fact]]:
    parser = _Parser(source)
    pairs = []
    while not parser.at_end():
        stronger = parser.fact_literal()
        parser.expect("PUNCT", ">")
        weaker = parser.fact_literal()
        parser.expect("PUNCT", ".")
        pairs.append((stronger, weaker))
    return pairs

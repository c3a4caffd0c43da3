import collections
import copy
import importlib
import json
import os
import pickle
import pkgutil
import random
import re
import string
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import causerepair
from causerepair import parsing
from causerepair.causality import CauseReport
from causerepair.diagnosis import DiagnosisProblem
from causerepair.errors import ParseError, SemanticError
from causerepair.hitting import HittingSolution
from causerepair.parsing import parse_instance
from causerepair.preferences import AttrChange
from causerepair.queries import (
    Atom,
    ConjunctiveQuery,
    DenialConstraint,
    DenialConstraintSet,
    UnionQuery,
    Var,
)
from causerepair.relational import (
    ENDOGENOUS,
    EXOGENOUS,
    Fact,
    Instance,
    Record,
    check_wellformed,
    fact,
    fact_key,
    format_fact,
    serialize_instance,
    violations,
)

from conftest import load_instance


def test_parse_six_fact_instance():
    d = load_instance("ex1.facts")
    assert len(d) == 6
    assert len(d.endogenous) == 6
    assert not d.exogenous


def test_parse_four_fact_instance():
    d = load_instance("ex4.facts")
    assert len(d) == 4
    assert d.schema == {"P": 1, "Q": 2, "R": 2}


def test_parse_empty_source():
    assert parse_instance("") == Instance(frozenset())
    assert parse_instance("% nothing but a comment\n") == Instance(frozenset())


def test_parse_sections_assign_tags():
    d = load_instance("ex13.facts")
    assert {str(f) for f in d.exogenous} == {"R(a3,a3)", "S(a2)"}
    assert len(d.endogenous) == 4


def test_parse_ids_and_quotes():
    d = parse_instance('R(2;a3,"odd value").\n')
    (f,) = d.facts
    assert f.fact_id == 2
    assert f.args == ("a3", "odd value")


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_instance("R(a4,a3)")  # missing final dot
    with pytest.raises(ParseError):
        parse_instance("R(a4, X).")  # variables are not constants
    with pytest.raises(SemanticError):
        parse_instance("R(a). R(a,b).")  # arity conflict
    with pytest.raises(SemanticError, match=r"^id 2 used by both R\(2;a,b\) and S\(2;c\)$"):
        parse_instance("R(2;a,b). S(2;c).")  # duplicate id
    # the wording reads right when the two facts print alike
    with pytest.raises(SemanticError, match=r"^atom P\(a\) is both endogenous and exogenous$"):
        parse_instance("@endogenous\nP(a).\n@exogenous\nP(a).")  # tag clash
    with pytest.raises(SemanticError):
        parse_instance("R(a,b).\n@exogenous\nR(1;a,b).")  # tag clash across ids
    with pytest.raises(ParseError):
        parse_instance("R(a). R(a,b). S(")  # the grammar is checked first
    assert len(parse_instance("R(1;a). R(1;a).")) == 1  # a repeated fact is one fact
    # the end of input sits one column past the last character
    with pytest.raises(ParseError, match="line 1, column 5:"):
        parse_instance("R(a)")
    with pytest.raises(ParseError, match="line 1, column 12:"):
        parse_instance("R(a) % note")


def test_fact_identity_ignores_tag():
    assert fact("R", "a", tag=ENDOGENOUS) == fact("R", "a", tag=EXOGENOUS)
    assert fact("R", "a") != fact("R", "a", fact_id=1)


@pytest.mark.parametrize("f", [
    fact("R", "a4", "a3"),
    fact("R", "a", 'say "hi"', tag=EXOGENOUS, fact_id=2),
    Fact("P", (), EXOGENOUS),
    Fact("S", ("null",), fact_id=7),
], ids=str)
def test_fact_contract(f):
    identity = (f.pred, f.args, f.fact_id)
    assert hash(f) == hash(identity)  # as its identity's tuple hashes: sets keep their order
    other_tag = EXOGENOUS if f.tag == ENDOGENOUS else ENDOGENOUS
    assert f == Fact(f.pred, f.args, other_tag, f.fact_id)
    assert not f != Fact(f.pred, f.args, other_tag, f.fact_id)
    assert f != Fact(f.pred, f.args + ("x",), f.tag, f.fact_id)
    assert f != Fact(f.pred, f.args, f.tag, 99)
    assert f != identity and f != (f.pred, f.args) and f != Atom(f.pred, f.args)
    assert identity != f and Atom(f.pred, f.args) != f
    assert f.__eq__(identity) is NotImplemented
    assert f.with_args(("b",)) == Fact(f.pred, ("b",), f.tag, f.fact_id)
    assert f.with_args(("b",)).tag == f.tag
    for again in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert again == f and hash(again) == hash(identity) and again.tag == f.tag
        assert {again} == {f} and str(again) == str(f)
    assert fact(f.pred, *f.args, tag=f.tag, fact_id=f.fact_id) == f


def test_fact_text_forms():
    assert str(fact("R", "a4", "a3")) == "R(a4,a3)"
    assert repr(fact("R", "a4", "a3")) == "Fact[R(a4,a3)]"
    assert str(Fact("R", ("a", 'say "hi"'), fact_id=2)) == 'R(2;a,"say \\"hi\\"")'
    assert repr(Fact("P", (), EXOGENOUS)) == "Fact[P()]"


def test_fact_pickles_across_processes():
    # string hashes differ between processes: the hash is computed again
    code = "import pickle, sys; from causerepair.relational import fact; " \
           "sys.stdout.buffer.write(pickle.dumps({fact('R', 'a', 'b', fact_id=3)}))"
    env = dict(os.environ, PYTHONHASHSEED="5", PYTHONPATH=str(Path(causerepair.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
    assert out.returncode == 0, out.stderr
    (f,) = loaded = pickle.loads(out.stdout)
    assert fact("R", "a", "b", fact_id=3) in loaded and hash(f) == hash(("R", ("a", "b"), 3))


_F, _G = fact("R", "a", "b", fact_id=1), fact("R", "a", "c")
_CQ = ConjunctiveQuery((Atom("R", (Var("X"), "b")),), ((Var("X"), "c"),))
_CQ2 = ConjunctiveQuery((Atom("R", (Var("X"), "c")),))
# Each record but ``Fact`` (above): its fields in constructor order, and
# for each field another value.  Every ``Record`` subclass in the package
# must have a case (``test_every_record_has_a_contract_case``);
# ``AttrChange``, which writes the same rule out, has one too.
_RECORDS = [
    (Var, ("X",), ("Y",)),
    (Atom, ("R", (Var("X"), "b")), ("S", (Var("Y"), "b"))),
    (ConjunctiveQuery, (_CQ.atoms, _CQ.inequalities, ()), (_CQ2.atoms, (), ("X",))),
    (UnionQuery, ((_CQ,),), ((_CQ2,),)),
    (DenialConstraint, (_CQ,), (_CQ2,)),
    (DenialConstraintSet, ((DenialConstraint(_CQ),),), ((),)),
    (Instance, (frozenset({_F}),), (frozenset({_G}),)),
    (HittingSolution, ([_F], ({frozenset({_F}): [0]},), 5), ([_G], ({},), 6)),
    (CauseReport, (_F, True, Fraction(1, 2), (frozenset({_F}),)), (_G, False, Fraction(1, 3), ())),
    (DiagnosisProblem, (Instance(frozenset({_F})), UnionQuery((_CQ,)), (frozenset({_F}),)),
     (Instance(frozenset({_G})), UnionQuery((_CQ2,)), ())),
    (AttrChange, ("R", 1, 2), ("S", 2, 1)),
]


@pytest.mark.parametrize("cls, fields, others", _RECORDS, ids=[cls.__name__ for cls, _, _ in _RECORDS])
def test_record_contract(cls, fields, others):
    r = cls(*fields)
    assert tuple(getattr(r, name) for name in cls.__slots__ if name not in ("__dict__", "_hash")) == fields
    try:
        want = hash(fields)
    except TypeError:  # a list or dict field, as in ``HittingSolution``
        with pytest.raises(TypeError):
            hash(r)
    else:  # as the fields' tuple hashes: sets and dicts keep their order
        assert hash(r) == want and hash(cls(*fields)) == want
    assert r == cls(*fields) and not r != cls(*fields)
    twin = type("Twin", (cls,), {"__slots__": ()})(*fields)  # another class, the same fields
    assert r != twin and twin != r and r.__eq__(twin) is NotImplemented
    assert r != fields and r.__eq__(fields) is NotImplemented
    for i, other in enumerate(others):  # each field takes part
        assert r != cls(*fields[:i], other, *fields[i + 1:]), i


def test_every_record_has_a_contract_case():
    for module in pkgutil.iter_modules(causerepair.__path__):
        importlib.import_module(f"causerepair.{module.name}")
    found, stack = set(), [Record]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub.__module__.startswith("causerepair."):  # not a test's ``Twin``
                found.add(sub)
    assert found and found <= {cls for cls, _, _ in _RECORDS}


def test_cached_properties_are_no_fields():
    # a cached property's value lives in ``__dict__``, which ``Record`` skips
    d, fresh = Instance(frozenset({_F, _G})), Instance(frozenset({_F, _G}))
    assert d.sorted_facts and d.relations and vars(d) and not vars(fresh)
    parsed = parse_instance("R(1;a,b).\nR(a,c).\n")  # its cache is filled as it is built
    for other in (d, parsed):
        assert other == fresh and fresh == other and hash(other) == hash(fresh) == hash((fresh.facts,))
    q, fresh_q = (ConjunctiveQuery(_CQ.atoms, _CQ.inequalities) for _ in range(2))
    assert q._start and "_start" in vars(q) and not vars(fresh_q)
    assert q == fresh_q and fresh_q == q and hash(q) == hash(fresh_q) == hash((q.atoms, q.inequalities, ()))


def test_attr_change_pickles_across_processes():
    # string hashes differ between processes: the hash is computed again
    code = "import pickle, sys; from causerepair.preferences import AttrChange; " \
           "sys.stdout.buffer.write(pickle.dumps({AttrChange('R', 3, 2)}))"
    env = dict(os.environ, PYTHONHASHSEED="5", PYTHONPATH=str(Path(causerepair.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
    assert out.returncode == 0, out.stderr
    (c,) = loaded = pickle.loads(out.stdout)
    assert AttrChange("R", 3, 2) in loaded and hash(c) == hash(("R", 3, 2))


def delta(d: Instance, d_prime: Instance) -> frozenset[Fact]:
    """Symmetric difference of two instances, compared atom by atom.

    Tags and tuple ids do not contribute to identity here.  The same atom
    carrying different tags in the two instances is an error, since the
    difference of a labelled set with itself would be ambiguous.
    """
    left = {f.atom: f for f in d.facts}
    right = {f.atom: f for f in d_prime.facts}
    for atom in left.keys() & right.keys():
        if left[atom].tag != right[atom].tag:
            raise SemanticError(
                f"atom {format_fact(left[atom])} is {left[atom].tag} in one "
                f"instance and {right[atom].tag} in the other"
            )
    diff_atoms = left.keys() ^ right.keys()
    return frozenset(left.get(a) or right[a] for a in diff_atoms)


def test_delta_examples():
    d = load_instance("ex1.facts")
    smaller = d.without([f for f in d if str(f) == "S(a3)"])
    assert {str(f) for f in delta(d, smaller)} == {"S(a3)"}
    assert delta(d, d) == frozenset()
    d4 = load_instance("ex4.facts")
    kept = Instance(frozenset(f for f in d4 if f.pred == "P"))
    assert {str(f) for f in delta(d4, kept)} == {"Q(a,b)", "R(a,c)"}


def test_delta_is_symmetric():
    d = load_instance("ex4.facts")
    smaller = Instance(frozenset(list(d.facts)[:2]))
    assert delta(d, smaller) == delta(smaller, d)


def test_delta_rejects_tag_conflicts():
    left = Instance(frozenset({fact("P", "a", tag=ENDOGENOUS)}))
    right = Instance(frozenset({fact("P", "a", tag=EXOGENOUS)}))
    with pytest.raises(SemanticError):
        delta(left, right)


def test_wellformed_fixture_and_violations():
    assert check_wellformed(load_instance("ex1.facts")) == []
    broken = Instance(frozenset({fact("R", "a"), fact("R", "a", "b")}))
    assert any("arity" in msg for msg in check_wellformed(broken))
    dup = Instance(
        frozenset({fact("R", "a", fact_id=2), fact("S", "b", fact_id=2)})
    )
    assert any("id 2" in msg for msg in check_wellformed(dup))


def test_wellformed_reports_tag_clash():
    clash = Instance(
        frozenset({fact("R", "a", "b"), fact("R", "a", "b", tag=EXOGENOUS, fact_id=1)})
    )
    assert any("both" in msg for msg in check_wellformed(clash))
    assert check_wellformed(load_instance("ex13.facts")) == []


@pytest.mark.parametrize(
    "name", ["ex1.facts", "ex13.facts", "ex14.facts", "ex16.facts"]
)
def test_serialize_roundtrip_is_fixpoint(name):
    d = load_instance(name)
    text = serialize_instance(d)
    again = parse_instance(text)
    assert again == d
    assert serialize_instance(again) == text


def test_canonical_order_is_stable():
    d = load_instance("ex1.facts")
    assert [str(f) for f in d] == sorted(str(f) for f in d)


# ---------------------------------------------------------------------------
# The regex scanner against the old character-by-character lexer


@pytest.mark.parametrize(
    "text, column, char",
    [("R(²;a).", 3, "²"), ("R(٣;a).", 3, "٣"), ("R(²).", 3, "²"), ("R(a,-٣).", 5, "-")],
)
def test_non_ascii_digits_are_unexpected_characters(text, column, char):
    with pytest.raises(ParseError, match=f"line 1, column {column}: unexpected character '{char}'"):
        parse_instance(text)


def test_non_ascii_digits_continue_identifiers():
    (f,) = parse_instance("R(a²,é٣).").facts
    assert f.args == ("a²", "é٣")


def test_position_after_escaped_newline_in_string():
    # the '?' sits on the third line: the string spans the escaped newline
    with pytest.raises(ParseError, match="line 3, column 5: unexpected character '[?]'"):
        parse_instance('R(a).\n"x\\\nyz" ?')
    (f,) = parse_instance('R("x\\\nyz").').facts
    assert f.args == ("x\nyz",)


@pytest.mark.parametrize(
    "text, line, column",
    [("  P(a,", 1, 7), ("\n\n  P(a) Q", 3, 8), ("% c\n P(a);\n\t)", 3, 2)],
)
def test_fact_list_errors_point_into_the_text_as_given(text, line, column):
    with pytest.raises(ParseError, match=f"line {line}, column {column}:"):
        parsing.parse_fact_list(text)


def test_fact_list_of_blanks_and_comments_is_empty():
    assert parsing.parse_fact_list("") == []
    assert parsing.parse_fact_list(" \n\t% no atoms here\n") == []
    assert parsing.parse_fact_list("  P(a) ; Q(b) % two\n") == [fact("P", "a"), fact("Q", "b")]


_OLD_PUNCT = (":-", "!=", "(", ")", ",", ";", ".", ">")


def old_tokenize(source: str) -> list[tuple[str, str, int, int]]:
    """The character-by-character lexer that ``parsing._tokenize``
    replaced, returning (kind, text, line, column); the reference for the
    scanner.  It also takes non-ASCII digits for integer digits and does
    not move to a new line after an escaped newline in a string; the
    random texts below leave both out."""
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
            tokens.append(("STRING", "".join(buf), start_line, start_col))
            continue
        if ch == "@":
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i + 1 : j]
            tokens.append(("DIRECTIVE", word, start_line, start_col))
            col += j - i
            i = j
            continue
        two = source[i : i + 2]
        if two in _OLD_PUNCT:
            tokens.append(("PUNCT", two, start_line, start_col))
            i += len(two)
            col += len(two)
            continue
        if ch in _OLD_PUNCT:
            tokens.append(("PUNCT", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and source[i + 1].isdigit()):
            j = i + 1
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(("INT", source[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            kind = "VARIDENT" if word[0].isupper() else "IDENT"
            tokens.append((kind, word, start_line, start_col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", start_line, start_col)
    tokens.append(("EOF", "", line, col))
    return tokens


def _scanned(source: str) -> list[tuple[str, str, int, int]]:
    """The scanner's tokens in the old lexer's shape."""
    return [
        ("PUNCT" if kind in _OLD_PUNCT else kind, text, *parsing._position(source, offset))
        for kind, text, offset in parsing._tokenize(source)
    ]


_WORD_CHARS = string.ascii_letters + string.digits + "_éǅ"
_STRING_CHARS = string.ascii_letters + " %,).:;(@!-" + "é"


def _random_piece(rng: random.Random, wild: bool) -> str:
    roll = rng.random() * (1.0 if wild else 0.95)
    if roll < 0.32:
        return "".join(rng.choice(_WORD_CHARS) for _ in range(rng.randint(1, 4)))
    if roll < 0.54:
        return rng.choice(_OLD_PUNCT)
    if roll < 0.70:
        return rng.choice((" ", "  ", "\t", "\r", "\n", "\r\n"))
    if roll < 0.75:
        return rng.choice(("@endogenous", "@exogenous", "@", "@x_1", "@é"))
    if roll < 0.80:
        return "%" + "".join(rng.choice(_STRING_CHARS + '"\\') for _ in range(rng.randint(0, 6)))
    if roll < 0.90:
        body = "".join(
            rng.choice((rng.choice(_STRING_CHARS), '\\"', "\\\\", "\t"))
            for _ in range(rng.randint(0, 5))
        )
        return f'"{body}"'
    if roll < 0.95:
        return "-" + rng.choice(string.digits)
    return rng.choice(string.punctuation + ":!-")  # often an error, or a lone quote


def test_scanner_agrees_with_the_old_lexer():
    rng = random.Random(20261018)
    compared = failed = 0
    for _ in range(2000):
        wild = rng.random() < 0.5  # half the texts draw no stray punctuation
        source = "".join(_random_piece(rng, wild) for _ in range(rng.randint(0, 40)))
        source = source.replace("\\\n", "\\ \n")  # no escaped newlines
        try:
            expected = old_tokenize(source)
        except ParseError as exc:
            with pytest.raises(ParseError) as err:
                parsing._tokenize(source)
            assert str(err.value) == str(exc), source
            failed += 1
            continue
        assert _scanned(source) == expected, source
        compared += 1
    assert compared > 1000 and failed > 250  # both outcomes are exercised


def grammar_only(source: str) -> set:
    """An instance file read by the token grammar alone, from offset 0:
    the reference for ``parse_instance``, which reads plain items with one
    pattern and hands the rest over to that grammar."""
    parser = parsing._Parser(source)
    tag, facts = ENDOGENOUS, []
    while not parser.at_end():
        tok = parser.current
        if tok[0] == "DIRECTIVE":
            parser.advance()
            if tok[1] not in (ENDOGENOUS, EXOGENOUS):
                raise parser.error(tok, f"unknown directive @{tok[1]}")
            tag = tok[1]
            continue
        facts.append(parser.fact_literal(tag))
        parser.expect(".")
    for problem in violations(facts):
        raise SemanticError(problem)
    return {(f, f.tag) for f in facts}


_PRED_ARITY = (("R", 2), ("S", 1), ("A", 2), ("_p", 1), ("Ré", 1), ("Q", 0))
_PLAIN_CONSTANTS = ("a", "b_1", "x9", "_", "0", "-3", "42", "007", "null")
_QUOTED = (r'"a\"b"', r'"back\\slash"', '"a,b"', '"x)"', '"50%"', '"é"', '""', r'"\q"')
_ODD_CONSTANTS = ("é", "aé", "a²", "²", "X", "Aa", "1a", "-", "--1")
_IDS = tuple(map(str, range(1, 30))) + ("007", "0", "-3", "-0")


def _blank(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.6:
        return ""
    if roll < 0.95:
        return rng.choice((" ", "  ", "\t", "\n", "\r\n"))
    return rng.choice((" % inside\n", "%\n", "% R(a).\n"))  # a comment inside a fact


def _random_fact_text(rng: random.Random) -> str:
    pred, arity = rng.choice(_PRED_ARITY)
    if rng.random() < 0.05:
        arity = rng.randint(0, 3)  # an arity conflict, most of the time
    args = []
    for _ in range(arity):
        roll = rng.random()
        pool = _PLAIN_CONSTANTS if roll < 0.75 else _QUOTED if roll < 0.95 else _ODD_CONSTANTS
        args.append(rng.choice(pool))
    parts = [pred, "("]
    if rng.random() < 0.4:
        parts += [rng.choice(_IDS), _blank(rng), ";"]
    for i, a in enumerate(args):
        parts += [_blank(rng), a, _blank(rng)] + ([","] if i < len(args) - 1 else [])
    parts += [")", _blank(rng), "."]
    return "".join(parts)


def _garbled(rng: random.Random, text: str) -> str:
    cut = rng.randrange(len(text) + 1)
    if rng.random() < 0.5:
        return text[:cut]  # truncated
    return text[:cut] + rng.choice('.,;()"@%$X1 é') + text[cut:]


def _random_instance_text(rng: random.Random) -> str:
    items = []
    for _ in range(rng.randint(0, 12)):
        roll = rng.random()
        if roll < 0.75:
            items.append(_random_fact_text(rng))
        elif roll < 0.87:
            items.append(rng.choice(("@endogenous", "@exogenous", "@exogenous\n")))
        elif roll < 0.90:
            items.append(rng.choice(("@other", "@endogenousX", "@", "@é")))
        else:
            items.append("% between " + rng.choice(("facts", "R(a).", '"', "")) + "\n")
    if items and rng.random() < 0.2:
        i = rng.randrange(len(items))
        items[i] = _garbled(rng, items[i])
    return "".join(item + rng.choice(("", " ", "\n", "\n\n", "  % after\n")) for item in items)


def test_instance_fast_path_agrees_with_the_grammar(monkeypatch):
    rng = random.Random(20261019)
    handed_over = []  # offsets the grammar took over at
    tokenize = parsing._tokenize
    monkeypatch.setattr(
        parsing, "_tokenize", lambda source, start=0: handed_over.append(start) or tokenize(source, start)
    )
    parsed = failed = 0
    # the two argument groups of ``_ITEM``: a plain list, and one with blanks
    fixed = ["R(a,b).S(1;x).A(-3,_y9)", "R( a , b ).S(1; x ,-3).R(a,b ).", "R(a,b) .S(\"q\",b)."]
    assert [parsing._ITEM.match(text).group(4, 5) for text in fixed] == [
        ("a,b", None), (None, "a , b"), ("a,b", None)
    ]
    for source in fixed + [_random_instance_text(rng) for _ in range(2500)]:
        try:
            expected = grammar_only(source)
        except (ParseError, SemanticError) as exc:
            with pytest.raises(type(exc)) as err:
                parse_instance(source)
            assert str(err.value) == str(exc), source
            failed += 1
            continue
        assert {(f, f.tag) for f in parse_instance(source).facts} == expected, source
        parsed += 1
    assert parsed > 1000 and failed > 1000  # both outcomes are exercised
    # the grammar took over mid-text, after items the pattern read
    assert sum(start > 0 for start in handed_over) > 500


def _plain_instance_text(rng: random.Random) -> str:
    """The shapes the benchmark writes: chain facts, keyed facts with
    tuple ids, one per line, plus directives, blanks and comments."""
    lines = ["% generated", "@endogenous"]
    for i in range(1, 200):
        c = f"c{i // 50}_"  # no atom in two sections
        j, k = rng.randrange(50), rng.randrange(50)
        lines.append(rng.choice((f"R({c}{j},{c}{k}).", f"S({c}{j}).", f"A({i};k{c}{j},v{k}).")))
        if i % 50 == 0:
            lines.append(rng.choice(("@exogenous", "@endogenous", "", "  % a comment")))
    lines.append('T( 700 ; "a,b" , -3 , x ) .  T(800;"say \\"hi\\"",0,y).')
    return "\n".join(lines) + "\n"


def test_plain_instances_never_reach_the_token_grammar(monkeypatch):
    def refuse(source, start=0):
        raise AssertionError(f"the token grammar was called at offset {start}")

    monkeypatch.setattr(parsing, "_tokenize", refuse)
    rng = random.Random(3)
    for _ in range(5):
        d = parse_instance(_plain_instance_text(rng))
        assert len(d) > 100
    assert ("T", ("a,b", "-3", "x")) in parse_instance(_plain_instance_text(rng)).by_atom
    with pytest.raises(AssertionError, match="offset 7$"):  # the end of the item before
        parse_instance("R(a,b).\n\nR(a %\n,b).")


@pytest.mark.parametrize("source, message", [
    (" " * 200_000 + "$", "unexpected character '$'"),
    ("% a comment\n" * 50_000 + "$", "unexpected character '$'"),
    ("R(" + "a," * 100_000, "expected a constant, found 'end of input'"),
    ("R(" + "a," * 100_000 + " ", "expected a constant, found 'end of input'"),
], ids=["blanks", "comments", "open-list", "open-list-blank"])
def test_instance_scan_backs_off_in_linear_time(source, message):
    start = time.perf_counter()
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_instance(source)
    assert time.perf_counter() - start < 5


def test_tuple_id_beyond_int_parsing_is_a_semantic_error():
    huge = "9" * 5000
    for source in (f"R({huge};a).", f"S(b). R(-{huge};a).", f"S(b).\n%\nR( {huge} ; a )."):
        with pytest.raises(SemanticError, match=r"^tuple id of 5000 digits is too long$"):
            parse_instance(source)
    with pytest.raises(SemanticError, match=r"^tuple id of 5000 digits is too long$"):
        parsing.parse_fact(f"R({huge};a)")
    assert parse_instance(f"R({'0' * 4000}7;a).") == parse_instance("R(7;a).")


# ---------------------------------------------------------------------------
# Serialized instances keep their tags


_AWKWARD = ('say "hi"', "back\\slash", "50%", "a,b", "x)", "end.", "two words", "Capital", "")


def _random_tagged_instance(rng: random.Random) -> Instance:
    by_atom = {}
    next_id = 1
    for _ in range(rng.randint(1, 12)):
        pred, arity = rng.choice((("P", 1), ("R", 2), ("T", 3)))
        args = tuple(
            rng.choice(_AWKWARD) if rng.random() < 0.4 else rng.choice(("a", "b", "null", "-4", "7"))
            for _ in range(arity)
        )
        fact_id = None
        if rng.random() < 0.4:
            fact_id, next_id = next_id, next_id + 1
        tag = rng.choice((ENDOGENOUS, EXOGENOUS))
        by_atom.setdefault((pred, args), Fact(pred, args, tag, fact_id))
    return Instance(frozenset(by_atom.values()))


def test_serialize_roundtrip_keeps_tags_randomized():
    rng = random.Random(7)
    tags_seen = set()
    for _ in range(200):
        d = _random_tagged_instance(rng)
        text = serialize_instance(d)
        again = parse_instance(text)
        assert {(f, f.tag) for f in again.facts} == {(f, f.tag) for f in d.facts}, text
        assert serialize_instance(again) == text
        tags_seen |= {f.tag for f in d.facts}
    assert tags_seen == {ENDOGENOUS, EXOGENOUS}


# ---------------------------------------------------------------------------
# One statement of the invariants, one tuple-id-aware lookup


def _random_clashing_instance(rng: random.Random) -> Instance:
    """Facts over few atoms: repeated under several ids, under both tags,
    and with arity conflicts such as R(a), R(a,z) and R(b)."""
    facts = []
    for _ in range(rng.randint(1, 10)):
        pred = rng.choice("PR")
        args = tuple(rng.choice("abz") for _ in range(rng.randint(0, 2)))
        fact_id = rng.choice((None, None, 1, 2, 3, 4))
        facts.append(Fact(pred, args, rng.choice((ENDOGENOUS, EXOGENOUS)), fact_id))
    return Instance(frozenset(facts))


def _sorted_schema(d: Instance) -> dict:
    """``Instance.schema`` as it was defined over the sorted facts."""
    out = {}
    for f in d.sorted_facts:
        out.setdefault(f.pred, f.arity)
    return out


def _sorted_by_atom(d: Instance) -> dict:
    """``Instance.by_atom`` as it was defined over the sorted facts."""
    out = {}
    for f in d.sorted_facts:
        out.setdefault(f.atom, f)
    return out


def _scanned_relations(d: Instance) -> dict:
    """``Instance.relations`` as a scan of every fact per relation."""
    keys = dict.fromkeys((f.pred, f.arity) for f in d.facts)
    return {key: [f for f in d.facts if (f.pred, f.arity) == key] for key in keys}


def compare_lookups(count: int = 800) -> dict:
    """Check the grouped ``relations``, ``schema``, ``by_atom`` and
    ``find`` of instances built from seeded facts (not parsed) against
    the sorted definitions; count what was covered."""
    rng = random.Random(20261018)
    covered = {"repeated_atom": 0, "tag_clash": 0, "arity_clash": 0, "longer_first": 0}
    for _ in range(count):
        d = _random_clashing_instance(rng)
        relations = _scanned_relations(d)
        assert list(d.relations.items()) == list(relations.items()), d
        assert d.schema == _sorted_schema(d), d
        least = {}
        for pred, arity in relations:  # a clash whose first fact is not the shortest
            least[pred] = min(least.get(pred, arity), arity)
        covered["longer_first"] += any(d.schema[p] > arity for p, arity in least.items())
        expected = _sorted_by_atom(d)
        assert d.by_atom.keys() == expected.keys(), d
        assert all(d.by_atom[atom] is f for atom, f in expected.items()), d
        for pred, args in [*expected, ("R", ("a",)), ("P", ())]:
            assert d.find(pred, args) is expected.get((pred, args)), d
        for f in d.facts:
            assert d.find(f.pred, f.args, f.fact_id) is f, d
            assert d.find(f.pred, f.args, 9) is None, d
        atoms = [f.atom for f in d.facts]
        covered["repeated_atom"] += len(set(atoms)) < len(atoms)
        covered["tag_clash"] += any("is both" in m for m in check_wellformed(d))
        covered["arity_clash"] += any("arity" in m for m in check_wellformed(d))
    return covered


def _in_process(check: str, hash_seed: str) -> dict:
    """What ``check`` of this module returns in a process of its own."""
    paths = [str(Path(causerepair.__file__).parent.parent), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(paths))
    code = f"import json, test_relational; print(json.dumps(test_relational.{check}()))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_one_pass_lookups_match_the_sorted_definitions():
    # frozenset iteration order follows string hashing, so the first
    # fact in canonical order must win in every process
    first, second = _in_process("compare_lookups", "1"), _in_process("compare_lookups", "2")
    assert first == second
    assert min(first.values()) > 50, first


def test_typed_lookup_matches_a_scan_of_every_fact():
    rng = random.Random(11)
    typed = 0
    for _ in range(1500):
        d = _random_clashing_instance(rng)
        first = _sorted_by_atom(d)
        for pred, args in [*first, ("R", ("a",)), ("P", ())]:
            for fact_id in (None, 1, 2, 3, 4, 9):
                if fact_id is None:
                    expected = first.get((pred, args))
                else:
                    expected = next(
                        (f for f in d.facts if f.atom == (pred, args) and f.fact_id == fact_id), None
                    )
                    typed += expected is not None and expected is not first[pred, args]
                assert d.find(pred, args, fact_id) is expected, (d, pred, args, fact_id)
    assert typed > 500  # ids other than the atom's first are looked up


def test_tuple_id_names_one_fact():
    d = parse_instance("R(1;a,b). R(2;a,b). R(a,c). S(3;a).")
    assert str(d.resolve(fact("R", "a", "b", fact_id=2))) == "R(2;a,b)"
    assert str(d.resolve(fact("R", "a", "b"))) == "R(1;a,b)"
    assert str(d.resolve(fact("R", "a", "c"))) == "R(a,c)"
    for absent in (fact("R", "a", "b", fact_id=3), fact("R", "a", "c", fact_id=1)):
        assert d.find(absent.pred, absent.args, absent.fact_id) is None
        with pytest.raises(SemanticError, match="is not in the instance"):
            d.resolve(absent)


def _file_text(facts) -> str:
    return "".join(f"@{f.tag}\n{f}.\n" for f in facts)


def test_parse_raises_what_check_wellformed_reports():
    rng = random.Random(7)
    planted = set()
    for _ in range(500):
        d = _random_clashing_instance(rng)
        problems = check_wellformed(d)
        shuffled = list(d.sorted_facts)
        rng.shuffle(shuffled)
        # the sorted file names check_wellformed's first problem; any file
        # names the first problem in its own order
        for facts, first in ((d.sorted_facts, problems[:1]), (shuffled, list(violations(shuffled))[:1])):
            text = _file_text(facts)
            if not problems:
                again = parse_instance(text)
                assert {(f, f.tag) for f in again.facts} == {(f, f.tag) for f in d.facts}
                continue
            with pytest.raises(SemanticError) as err:
                parse_instance(text)
            assert [str(err.value)] == first, text
            planted.add(first[0].split()[0])
    assert planted == {"predicate", "atom", "id"}


# ---------------------------------------------------------------------------
# A parsed instance is checked, grouped and keyed in one pass


def test_parse_drops_repeats_by_identity():
    d = parse_instance("R(2;a). R(1;a). R(2;a).")
    assert sorted(map(str, d.facts)) == ["R(1;a)", "R(2;a)"]
    assert [str(f) for f in d.relations["R", 1]] == ["R(2;a)", "R(1;a)"]
    assert str(d.by_atom["R", ("a",)]) == "R(1;a)"
    assert str(d.find("R", ("a",), 2)) == "R(2;a)"
    d = parse_instance("R(a). R(1;a). R(a). R(1;a). S(b). S(b).")
    assert [str(f) for f in d.relations["R", 1]] == ["R(a)", "R(1;a)"]
    assert [str(f) for f in d.relations["S", 1]] == ["S(b)"]
    assert str(d.by_atom["R", ("a",)]) == "R(a)" and len(d) == 3
    with pytest.raises(SemanticError, match=r"^atom R\(a\) is both endogenous and exogenous$"):
        parse_instance("R(a). @exogenous R(a).")  # a repeat under the other tag


def _random_file_facts(rng: random.Random) -> list[Fact]:
    """Facts in the order a file might list them: few atoms, some under
    several ids, facts repeated, and now and then an atom under the other
    tag, a predicate under another arity or an id on two facts."""
    facts, tags, arities = [], {}, {}
    for _ in range(rng.randint(1, 14)):
        if facts and rng.random() < 0.3:
            f = rng.choice(facts)
        else:
            pred = rng.choice("PRS")
            arity = arities.setdefault(pred, rng.randint(0, 2))
            if rng.random() < 0.03:
                arity = (arity + 1) % 3
            args = tuple(rng.choice("abz") for _ in range(arity))
            f = Fact(pred, args, fact_id=rng.choice((None, None, *range(1, 13))))
        tag = tags.setdefault(f.atom, rng.choice((ENDOGENOUS, EXOGENOUS, ENDOGENOUS)))
        if rng.random() < 0.03:
            tag = EXOGENOUS if tag == ENDOGENOUS else ENDOGENOUS
        facts.append(Fact(f.pred, f.args, tag, f.fact_id))
    return facts


def compare_parsed(count: int = 1500) -> dict:
    """Parse seeded files and check each instance's one-pass lookups
    against their definitions over its facts, its relations against the
    file's order, and its error against the first problem in that order;
    count what was covered."""
    rng = random.Random(20261019)
    covered = dict.fromkeys(
        ("valid", "repeat", "repeat_behind_first", "exogenous", "atom", "predicate", "id"), 0
    )
    for _ in range(count):
        listed = _random_file_facts(rng)
        text = _file_text(listed)
        problems = list(violations(listed))
        if problems:
            with pytest.raises(SemanticError) as err:
                parse_instance(text)
            assert str(err.value) == problems[0], text
            covered[problems[0].split()[0]] += 1
            continue
        d = parse_instance(text)
        assert {(f, f.tag) for f in d.facts} == {(f, f.tag) for f in listed}, text
        assert {"relations", "by_atom", "schema"} <= vars(d).keys()  # made by the parse
        plain = Instance(d.facts)  # the same facts, every lookup made on demand
        assert {k: collections.Counter(v) for k, v in d.relations.items()} == {
            k: collections.Counter(v) for k, v in plain.relations.items()
        }, text
        once = list(dict.fromkeys(listed))  # each fact at its first line
        for key, relation in d.relations.items():
            assert relation == [f for f in once if (f.pred, f.arity) == key], text
            assert all(f in d for f in relation)
        assert d.by_atom.keys() == plain.by_atom.keys(), text
        assert all(d.by_atom[atom] is f for atom, f in plain.by_atom.items()), text
        assert d.schema == plain.schema == _sorted_schema(d), text
        assert d.exogenous == plain.exogenous and d.endogenous == plain.endogenous, text
        covered["valid"] += 1
        covered["exogenous"] += bool(d.exogenous)
        covered["repeat"] += len(once) < len(listed)
        covered["repeat_behind_first"] += any(  # as in R(2;a). R(1;a). R(2;a).
            f in listed[:i] and any(g.atom == f.atom and fact_key(g) < fact_key(f) for g in listed[:i])
            for i, f in enumerate(listed)
        )
    return covered


def test_parsed_lookups_match_their_definitions():
    # the file order, not string hashing, orders each relation
    first, second = _in_process("compare_parsed", "1"), _in_process("compare_parsed", "2")
    assert first == second
    assert min(first.values()) > 40, first

import random
import string

import pytest

from causerepair import parsing
from causerepair.errors import ParseError, SemanticError
from causerepair.parsing import parse_instance
from causerepair.relational import (
    ENDOGENOUS,
    EXOGENOUS,
    Fact,
    Instance,
    check_wellformed,
    delta,
    fact,
    serialize_instance,
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
    with pytest.raises(SemanticError):
        parse_instance("R(2;a,b). S(2;c).")  # duplicate id
    with pytest.raises(SemanticError):
        parse_instance("@endogenous\nP(a).\n@exogenous\nP(a).")  # tag clash
    with pytest.raises(SemanticError):
        parse_instance("R(a,b).\n@exogenous\nR(1;a,b).")  # tag clash across ids
    # the end of input sits one column past the last character
    with pytest.raises(ParseError, match="line 1, column 5:"):
        parse_instance("R(a)")
    with pytest.raises(ParseError, match="line 1, column 12:"):
        parse_instance("R(a) % note")


def test_fact_identity_ignores_tag():
    assert fact("R", "a", tag=ENDOGENOUS) == fact("R", "a", tag=EXOGENOUS)
    assert fact("R", "a") != fact("R", "a", fact_id=1)


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

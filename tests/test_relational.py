import pytest

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

import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from causerepair import hitting
from causerepair.errors import SemanticError
from causerepair.oracle import oracle_repairs
from causerepair.parsing import parse_fact, parse_instance
from causerepair.queries import dc_of_query
from causerepair.repairs import (
    causes_via_repairs,
    consistent_answer,
    is_repair,
    repair_responsibility,
    repairs,
    repairs_via_causes,
)
from causerepair.relational import Fact, Instance

from conftest import (
    load_constraints,
    load_instance,
    load_query,
    random_boolean_query,
    random_instance,
)


def _kept(reps):
    return {frozenset(str(f) for f in r.kept.facts) for r in reps}


def _removed(reps):
    return {frozenset(str(f) for f in r.removed) for r in reps}


D1 = frozenset({"R(a4,a3)", "R(a2,a1)", "R(a3,a3)", "S(a4)", "S(a2)"})
D2 = frozenset({"R(a2,a1)", "S(a4)", "S(a2)", "S(a3)"})
D3 = frozenset({"R(a4,a3)", "R(a2,a1)", "S(a2)", "S(a3)"})


def test_subset_repairs_chain_example(chain_instance):
    sigma = load_constraints("ex2.dlq")
    assert _kept(repairs(chain_instance, sigma, "s")) == {D1, D2, D3}


def test_cardinality_repair_chain_example(chain_instance):
    sigma = load_constraints("ex2.dlq")
    assert _kept(repairs(chain_instance, sigma, "c")) == {D1}


def test_consistent_instance_repairs_to_itself():
    d = parse_instance("S(a1). R(a1,a2).")
    sigma = load_constraints("ex2.dlq")
    (only,) = repairs(d, sigma, "s")
    assert only.kept == d and only.removed == frozenset()


def test_is_repair_examples(chain_instance):
    sigma = load_constraints("ex2.dlq")
    d2 = Instance(frozenset(f for f in chain_instance if str(f) in D2))
    assert is_repair(chain_instance, sigma, d2, "s") is True
    assert is_repair(chain_instance, sigma, d2, "c") is False
    d = parse_instance("S(a1).")
    assert is_repair(d, sigma, d, "s") is True
    # consistent, but S(a2) can be put back
    not_maximal = Instance(frozenset(f for f in chain_instance if str(f) in D1 - {"S(a2)"}))
    assert is_repair(chain_instance, sigma, not_maximal, "s") is False
    assert is_repair(chain_instance, sigma, not_maximal, "c") is False


def test_is_repair_rejects_non_subinstance(chain_instance):
    sigma = load_constraints("ex2.dlq")
    with pytest.raises(SemanticError):
        is_repair(chain_instance, sigma, parse_instance("S(zzz)."), "s")


def test_causes_via_repairs_chain_example(chain_instance, chain_query):
    diff_s, diff_c = causes_via_repairs(
        chain_instance, chain_query, parse_fact("R(a4,a3)")
    )
    assert [{str(f) for f in s} for s in diff_s] == [{"R(a4,a3)", "R(a3,a3)"}]
    assert diff_c == ()
    assert repair_responsibility(diff_s) == Fraction(1, 2)

    diff_s, diff_c = causes_via_repairs(chain_instance, chain_query, parse_fact("S(a3)"))
    assert [{str(f) for f in s} for s in diff_s] == [{"S(a3)"}]
    assert [{str(f) for f in s} for s in diff_c] == [{"S(a3)"}]

    diff_s, diff_c = causes_via_repairs(
        chain_instance, chain_query, parse_fact("R(a3,a3)")
    )
    assert {frozenset(str(f) for f in s) for s in diff_s} == {
        frozenset({"R(a4,a3)", "R(a3,a3)"}),
        frozenset({"R(a3,a3)", "S(a4)"}),
    }
    assert diff_c == ()

    diff_s, diff_c = causes_via_repairs(chain_instance, chain_query, parse_fact("S(a2)"))
    assert diff_s == () and diff_c == ()
    assert repair_responsibility(diff_s) == 0


def test_causes_via_repairs_respects_partition():
    d13 = load_instance("ex13.facts")
    q = load_query("ex1.dlq")
    with pytest.raises(SemanticError):
        causes_via_repairs(d13, q, parse_fact("S(a2)"))
    # R(a3,a3) is exogenous, so deletion sets touching it never qualify
    diff_s, _ = causes_via_repairs(d13, q, parse_fact("R(a4,a3)"))
    assert diff_s == ()


def test_repairs_via_causes_union_example():
    d4 = load_instance("ex4.facts")
    sigma = load_constraints("ex4.dlq")
    via_causes = repairs_via_causes(d4, sigma, "s")
    assert _kept(via_causes) == {
        frozenset({"P(a)", "P(e)"}),
        frozenset({"P(e)", "Q(a,b)", "R(a,c)"}),
    }
    assert _kept(repairs_via_causes(d4, sigma, "c")) == {
        frozenset({"P(e)", "Q(a,b)", "R(a,c)"})
    }


def test_repairs_via_causes_matches_direct_enumeration(chain_instance):
    for name in ("ex2.dlq", "ex4.dlq"):
        sigma = load_constraints(name)
        base = chain_instance if name == "ex2.dlq" else load_instance("ex4.facts")
        for semantics in ("s", "c"):
            assert _kept(repairs_via_causes(base, sigma, semantics)) == _kept(
                repairs(base, sigma, semantics)
            )


def test_repairs_via_causes_consistent_instance():
    d = parse_instance("P(a,b).")
    sigma = load_constraints("cqa2.dlq")
    (only,) = repairs_via_causes(d, sigma, "s")
    assert only.kept == d


def _count_calls(monkeypatch, name):
    """Count calls to a ``hitting`` function, wherever the package binds it."""
    original = getattr(hitting, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("causerepair") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_repairs_via_causes_builds_one_family(chain_instance, monkeypatch):
    sigma = load_constraints("ex2.dlq")
    builds = _count_calls(monkeypatch, "support_sets")
    enumerations = _count_calls(monkeypatch, "enumerate_minimal_hitting_sets")
    for semantics in ("s", "c"):
        builds.clear()
        enumerations.clear()
        assert len(repairs_via_causes(chain_instance, sigma, semantics)) >= 1
        assert len(builds) == 1 and len(enumerations) == 1


def test_repair_engines_agree_with_oracle_randomized():
    rng = random.Random(2015)
    inconsistent = 0
    while inconsistent < 30:  # most random constraints hold; count the rest
        drawn = random_instance(rng, max_facts=6)
        d = Instance(frozenset(Fact(f.pred, f.args) for f in drawn.facts))
        sigma = dc_of_query(random_boolean_query(rng))
        subsets = [
            Instance(frozenset(c))
            for size in range(len(d) + 1)
            for c in combinations(d.sorted_facts, size)
        ]
        inconsistent += d.facts not in oracle_repairs(d, sigma, "s")
        for semantics in ("s", "c"):
            expected = set(oracle_repairs(d, sigma, semantics))
            assert {r.kept.facts for r in repairs(d, sigma, semantics)} == expected
            assert {
                r.kept.facts for r in repairs_via_causes(d, sigma, semantics)
            } == expected
            assert {
                s.facts for s in subsets if is_repair(d, sigma, s, semantics)
            } == expected


def test_repairs_via_causes_rejects_exogenous():
    d13 = load_instance("ex13.facts")
    with pytest.raises(SemanticError):
        repairs_via_causes(d13, load_constraints("ex2.dlq"), "s")


def test_consistent_answer_projection_example():
    d4 = load_instance("ex4.facts")
    sigma = load_constraints("ex4.dlq")
    for semantics in ("s", "c"):
        assert consistent_answer(d4, sigma, [parse_fact("P(e)")], semantics) is True
        assert consistent_answer(d4, sigma, [parse_fact("P(a)")], semantics) is False


def test_consistent_answer_ground_atoms_example():
    d = load_instance("cqa2.facts")
    sigma = load_constraints("cqa2.dlq")
    for semantics in ("s", "c"):
        assert consistent_answer(d, sigma, [parse_fact("R(a,d)")], semantics) is True
        assert consistent_answer(d, sigma, [parse_fact("P(a,b)")], semantics) is False
        assert consistent_answer(d, sigma, [parse_fact("R(b,c)")], semantics) is False
    # conjunctions fail as soon as one conjunct does
    assert (
        consistent_answer(d, sigma, [parse_fact("R(a,d)"), parse_fact("P(a,b)")], "s")
        is False
    )


def test_consistent_answer_requires_known_predicate():
    d = load_instance("cqa2.facts")
    sigma = load_constraints("cqa2.dlq")
    with pytest.raises(SemanticError):
        consistent_answer(d, sigma, [parse_fact("Zzz(a)")], "s")
    assert consistent_answer(d, sigma, [parse_fact("R(z,z)")], "s") is False


def test_consistent_answer_agrees_with_repair_scan():
    d = load_instance("cqa2.facts")
    sigma = load_constraints("cqa2.dlq")
    for semantics in ("s", "c"):
        reps = repairs(d, sigma, semantics)
        for f in d:
            definitional = all(f in r.kept.facts for r in reps)
            assert consistent_answer(d, sigma, [f], semantics) == definitional

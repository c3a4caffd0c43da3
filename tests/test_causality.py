from fractions import Fraction

import random

import pytest
from hypothesis import given, settings

from causerepair import hitting
from causerepair.causality import (
    actual_causes,
    check_minimal_contingency,
    contingency_sets,
    explain,
    most_responsible_causes,
    rdp_decide,
    responsibilities,
    responsibility,
)
from causerepair.errors import SemanticError
from causerepair.hitting import endogenous_support_sets, support_sets
from causerepair.oracle import oracle_causes_and_responsibility
from causerepair.parsing import parse_fact, parse_instance, parse_program, single_query
from causerepair.queries import UnionQuery, violation_view
from causerepair.relational import Instance, fact_key
from causerepair.repairs import consistent_answer

from conftest import (
    explain_pool,
    load_constraints,
    load_instance,
    load_query,
    random_boolean_query,
    random_instance,
    seeded_chain,
    seeded_keyed,
)
from test_propositions import _instances_and_queries


def _gammas(sets):
    return [sorted(str(f) for f in g) for g in sets]


def test_actual_causes_chain_example(chain_instance, chain_query):
    causes = actual_causes(chain_instance, chain_query)
    assert {str(f) for f in causes} == {"S(a3)", "R(a4,a3)", "R(a3,a3)", "S(a4)"}


def test_counterfactual_pair_example():
    d = load_instance("ex1b.facts")
    q = load_query("ex1.dlq")
    causes = actual_causes(d, q)
    assert {str(f) for f in causes} == {"S(a3)", "S(a4)"}
    for name in ("S(a3)", "S(a4)"):
        assert responsibility(d, q, parse_fact(name)) == 1


def test_no_causes_when_query_false(chain_query):
    assert actual_causes(parse_instance("S(a9)."), chain_query) == frozenset()


def test_contingency_sets_union_example():
    d4 = load_instance("ex4.facts")
    view = violation_view(load_constraints("ex4.dlq"))
    assert _gammas(contingency_sets(d4, view, parse_fact("Q(a,b)"))) == [["R(a,c)"]]
    assert _gammas(contingency_sets(d4, view, parse_fact("P(a)"))) == [[]]
    assert _gammas(contingency_sets(d4, view, parse_fact("R(a,c)"))) == [["Q(a,b)"]]


def test_contingency_sets_scaling_instance():
    d = parse_instance(
        " ".join(f"R({i},0). R({i},1)." for i in (1, 2, 3)) + " S(0). S(1)."
    )
    _, sigma = parse_program(":- R(X,Y), R(X,Z), S(Y), S(Z), Y != Z.\n")
    view = violation_view(sigma)
    found = contingency_sets(d, view, parse_fact("R(1,0)"))
    assert len(found) == 4  # one element from each of {R(2,·)} and {R(3,·)}
    assert frozenset({parse_fact("R(2,0)"), parse_fact("R(3,0)")}) in {
        frozenset(g) for g in found
    }
    for gamma in found:
        assert len(gamma) == 2


def test_contingency_sets_require_endogenous_member():
    d6 = load_instance("ex6.facts")
    view = violation_view(load_constraints("ex4.dlq"))
    with pytest.raises(SemanticError):
        contingency_sets(d6, view, parse_fact("Q(a,b)"))  # exogenous
    with pytest.raises(SemanticError):
        contingency_sets(d6, view, parse_fact("P(zzz)"))  # absent


def test_responsibility_chain_example(chain_instance, chain_query):
    expected = {
        "S(a3)": Fraction(1),
        "R(a4,a3)": Fraction(1, 2),
        "R(a3,a3)": Fraction(1, 2),
        "S(a4)": Fraction(1, 2),
        "S(a2)": Fraction(0),
        "R(a2,a1)": Fraction(0),
    }
    for name, value in expected.items():
        assert responsibility(chain_instance, chain_query, parse_fact(name)) == value


def test_responsibilities_agree_with_oracle_randomized():
    # one support family scores every cause; mrc and explain read the same values
    rng = random.Random(31)
    for _ in range(80):
        d = random_instance(rng)
        q = random_boolean_query(rng)
        scores = responsibilities(d, q)
        expected = {
            t: rho for t, rho in oracle_causes_and_responsibility(d, q).items() if rho > 0
        }
        assert scores == expected
        top, value = most_responsible_causes(d, q)
        best = max(expected.values(), default=Fraction(0))
        assert value == best
        assert top == {t for t, rho in expected.items() if rho == best}
        for t in d.endogenous:
            rho = expected.get(t, Fraction(0))
            assert explain(d, q, t).responsibility == rho
            for k in range(1, 5):
                assert rdp_decide(d, q, t, Fraction(1, k)) == (rho > Fraction(1, k))



def test_responsibilities_agree_with_single_responsibility_randomized():
    # responsibilities shares each component's minimum across causes;
    # responsibility searches for one cause alone
    rng = random.Random(17)
    for _ in range(200):
        d = random_instance(rng, max_facts=14)
        q = random_boolean_query(rng)
        scores = responsibilities(d, q)
        assert list(scores) == sorted(actual_causes(d, q), key=fact_key)
        for t, rho in scores.items():
            assert responsibility(d, q, t) == rho


def test_rdp_decide_thresholds(chain_instance, chain_query):
    t = parse_fact("R(a4,a3)")
    assert rdp_decide(chain_instance, chain_query, t, Fraction(1, 3)) is True
    assert rdp_decide(chain_instance, chain_query, t, Fraction(1, 2)) is False
    assert rdp_decide(chain_instance, chain_query, t, Fraction(0)) is True
    assert rdp_decide(chain_instance, chain_query, parse_fact("S(a2)"), Fraction(0)) is False


def test_rdp_decide_needs_true_query(chain_query):
    assert rdp_decide(parse_instance("S(a9)."), chain_query, parse_fact("S(a9)"), Fraction(0)) is False


def test_rdp_decide_answers_absent_and_exogenous_tuples_before_any_join(chain_query, monkeypatch):
    def no_join(*args):
        raise AssertionError("joined")

    monkeypatch.setattr(hitting, "support_sets", no_join)
    d = load_instance("ex13.facts")
    for t in ("S(a9)", "S(a2)", "R(a3,a3)"):  # absent, exogenous, exogenous
        for v in (Fraction(0), Fraction(1, 2)):
            assert rdp_decide(d, chain_query, parse_fact(t), v) is False
    with pytest.raises(AssertionError, match="joined"):  # an endogenous tuple joins
        rdp_decide(d, chain_query, parse_fact("S(a3)"), Fraction(0))
    with pytest.raises(SemanticError):  # the threshold is still checked first
        rdp_decide(d, chain_query, parse_fact("S(a9)"), Fraction(2, 3))


def test_rdp_decide_rejects_bad_threshold(chain_instance, chain_query):
    with pytest.raises(SemanticError):
        rdp_decide(chain_instance, chain_query, parse_fact("S(a3)"), Fraction(2, 3))


def test_most_responsible_causes_examples():
    d4 = load_instance("ex4.facts")
    view = violation_view(load_constraints("ex4.dlq"))
    top, value = most_responsible_causes(d4, view)
    assert ({str(f) for f in top}, value) == ({"P(a)"}, Fraction(1))
    d8 = load_instance("ex8.facts")
    top8, value8 = most_responsible_causes(d8, load_query("ex8.dlq"))
    assert ({str(f) for f in top8}, value8) == ({"P(a)"}, Fraction(1))
    empty_top, zero = most_responsible_causes(parse_instance("P(z)."), load_query("ex8.dlq"))
    assert (empty_top, zero) == (frozenset(), Fraction(0))


def _mrc_by_responsibilities(d, q):
    """The most responsible causes as the largest of every cause's exact
    responsibility, kept as the reference."""
    scores = responsibilities(d, q)
    best = max(scores.values(), default=Fraction(0))
    return frozenset(t for t, rho in scores.items() if rho == best), best


def _assert_mrc_within_the_minimum(d, q):
    """``most_responsible_causes`` equals the reference, and searches each
    forced rest below its component's minimum only; the number of rests
    searched."""
    expected = _mrc_by_responsibilities(d, q)
    forced_rest, rests = hitting._forced_rest, []

    def bounded(edges, t, most=None, floor=0):
        least = hitting._least(edges).bit_count()  # edges: t's component
        assert most is not None and most <= least - 1, (most, least)
        rests.append(t)
        return forced_rest(edges, t, most, floor)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hitting, "_forced_rest", bounded)
        assert most_responsible_causes(d, q) == expected
    return len(rests)


@settings(max_examples=150)
@given(_instances_and_queries(max_facts=4, images=6))
def test_most_responsible_causes_are_the_largest_responsibilities(drawn):
    d, cq = drawn
    _assert_mrc_within_the_minimum(d, UnionQuery((cq,)))


def test_most_responsible_causes_are_the_largest_responsibilities_on_a_dense_chain():
    d = seeded_chain(100, 40)
    assert _assert_mrc_within_the_minimum(d, single_query("q :- S(X), R(X,Y), S(Y).")) > 0


def _counting(monkeypatch, *names):
    """Count the calls of the named ``hitting`` functions, by name."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(hitting, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(hitting, name, counted)
    return counts


def test_kernel_and_search_calls_stay_within_their_budget(monkeypatch):
    # counts repeat exactly, so they guard the kernel's gains.  Before the
    # flat kernel, on this instance, ``responsibilities`` made 104
    # ``_reduced`` and 79 ``_search`` calls, and ``most_responsible_causes``
    # 105 and 80, finding the family's minimum twice; it now makes 104 and 79
    d, q = seeded_chain(100, 40), single_query("q :- S(X), R(X,Y), S(Y).")
    counts = _counting(monkeypatch, "_reduced", "_search")
    responsibilities(d, q)
    assert counts["_reduced"] <= 104 and counts["_search"] <= 79, counts
    counts.update(_reduced=0, _search=0)
    most_responsible_causes(d, q)
    assert counts["_reduced"] <= 104 and counts["_search"] <= 79, counts


def test_the_family_minimum_is_found_once_per_mrc_and_cardinality_cqa(monkeypatch):
    # a whole-family ``_least`` runs on the family's masks as they are;
    # the forced rests run on smaller families
    chain = single_query("q :- S(X), R(X,Y), S(Y).")
    sigma = load_constraints("cqa2.dlq")
    cases = [(d, chain, endogenous_support_sets(d, chain)) for d in explain_pool()[:4]]
    cases += [(d, sigma, support_sets(d, violation_view(sigma)))
              for d in (load_instance("cqa2.facts"), seeded_keyed((2, 3, 2), 30))]
    least, whole = hitting._least, []

    def spied(masks, most=None):
        whole[-1] += list(masks) == family
        return least(masks, most)

    monkeypatch.setattr(hitting, "_least", spied)
    for d, question, edges in cases:
        family = hitting._table(edges)[1]
        whole.append(0)
        if question is chain:
            most_responsible_causes(d, question)
        else:
            consistent_answer(d, question, sorted(d.facts, key=fact_key)[:2], "c")
    assert whole == [1] * len(cases)


def test_check_minimal_contingency_examples(chain_instance, chain_query):
    check = lambda t, gamma: check_minimal_contingency(
        chain_instance, chain_query, parse_fact(t), frozenset(map(parse_fact, gamma))
    )
    assert check("S(a3)", []) is True
    assert check("R(a4,a3)", ["R(a3,a3)"]) is True
    assert check("R(a4,a3)", ["R(a3,a3)", "S(a2)"]) is False  # not minimal
    assert check("R(a4,a3)", []) is False  # not yet a contingency
    assert check("S(a2)", ["R(a3,a3)"]) is False  # not a cause at all


def test_check_minimal_contingency_preconditions(chain_instance, chain_query):
    with pytest.raises(SemanticError):
        check_minimal_contingency(
            chain_instance,
            chain_query,
            parse_fact("S(a3)"),
            frozenset({parse_fact("S(a3)")}),
        )
    d13 = load_instance("ex13.facts")
    with pytest.raises(SemanticError):
        check_minimal_contingency(
            d13, chain_query, parse_fact("S(a2)"), frozenset()
        )  # exogenous


def test_contingencies_validate_via_membership_check(chain_instance, chain_query):
    for t in actual_causes(chain_instance, chain_query):
        for gamma in contingency_sets(chain_instance, chain_query, t):
            assert check_minimal_contingency(chain_instance, chain_query, t, gamma)


def test_cause_iff_positive_responsibility(chain_instance, chain_query):
    causes = actual_causes(chain_instance, chain_query)
    for t in chain_instance.endogenous:
        rho = responsibility(chain_instance, chain_query, t)
        assert (t in causes) == (rho > 0)
        assert rdp_decide(chain_instance, chain_query, t, Fraction(0)) == (rho > 0)


def test_consistency_criterion_all_endogenous(chain_instance, chain_query):
    # with no exogenous facts, causes exist exactly when the query holds
    assert actual_causes(chain_instance, chain_query)
    consistent = chain_instance.without(
        [f for f in chain_instance if str(f) in ("S(a3)",)]
    )
    assert actual_causes(consistent, chain_query) == frozenset()


def test_explain_bundles_everything(chain_instance, chain_query):
    report = explain(chain_instance, chain_query, parse_fact("R(a4,a3)"))
    assert report.is_cause
    assert report.responsibility == Fraction(1, 2)
    assert _gammas(report.minimal_contingencies) == [["R(a3,a3)"]]

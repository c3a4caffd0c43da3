import json
import random
from fractions import Fraction

import pytest

from causerepair import hitting
from causerepair.causality import contingency_sets, responsibility
from causerepair.cli import execute
from causerepair.diagnosis import (
    DiagnosisProblem,
    build_problem,
    diagnoses,
    render_theory,
)
from causerepair.errors import CapExceededError, SemanticError
from causerepair.hitting import endogenous_support_sets, enumerate_minimal_hitting_sets
from causerepair.parsing import parse_fact, parse_instance, single_query
from causerepair.queries import violation_view
from causerepair.relational import Instance
from causerepair.repairs import repairs

from conftest import (
    data_path,
    load_constraints,
    load_instance,
    load_query,
    random_boolean_query,
    random_instance,
    seeded_chain,
    smallest,
)
from test_propositions import contingencies_read_off, repairs_from_diagnoses


def _sets(solution):
    return {frozenset(str(f) for f in d) for d in solution.sets}


def test_build_problem_conflict_set():
    d = load_instance("ex1b.facts")
    m = build_problem(d, load_query("ex1.dlq"))
    assert [sorted(str(f) for f in e) for e in m.conflicts] == [["S(a3)", "S(a4)"]]
    assert not m.unexplainable


def test_build_problem_union_conflicts():
    d4 = load_instance("ex4.facts")
    m = build_problem(d4, violation_view(load_constraints("ex4.dlq")))
    assert [sorted(str(f) for f in e) for e in m.conflicts] == [
        ["P(a)", "Q(a,b)"],
        ["P(a)", "R(a,c)"],
    ]


def test_build_problem_requires_observation():
    with pytest.raises(SemanticError):
        build_problem(parse_instance("S(a9)."), load_query("ex1.dlq"))


def test_minimal_diagnoses_pair():
    d = load_instance("ex1b.facts")
    m = build_problem(d, load_query("ex1.dlq"))
    assert _sets(diagnoses(m, "s")) == {frozenset({"S(a3)"}), frozenset({"S(a4)"})}


def test_minimal_diagnoses_all_endogenous_variant():
    d = load_instance("ex12.facts")
    m = build_problem(d, load_query("ex1.dlq"))
    assert _sets(diagnoses(m, "s")) == {
        frozenset({"S(a3)"}),
        frozenset({"S(a4)"}),
        frozenset({"R(a4,a3)"}),
    }


def test_diagnoses_empty_conflicts_has_empty_diagnosis():
    problem = DiagnosisProblem(parse_instance("P(a)."), load_query("ex1.dlq"), ())
    assert _sets(diagnoses(problem, "s")) == {frozenset()}


def test_unexplainable_observation_has_no_diagnosis():
    d = parse_instance("@exogenous\nS(a3). R(a3,a3).\n@endogenous\nS(a9).")
    q = load_query("ex1.dlq")
    m = build_problem(d, q)
    assert m.unexplainable
    assert diagnoses(m, "s").sets == ()


def test_diagnoses_containing_and_kinds(chain_instance, chain_query):
    m = build_problem(chain_instance, chain_query)
    t = chain_instance.find("R", ("a4", "a3"))
    containing = diagnoses(m, "s", containing=t)
    assert _sets(containing) == {frozenset({"R(a4,a3)", "R(a3,a3)"})}
    smallest = diagnoses(m, "c", containing=t).sets
    # the smallest diagnosis through t fixes the responsibility of t
    assert {len(d) for d in smallest} == {2}
    assert responsibility(chain_instance, chain_query, t) == Fraction(1, 2)
    global_smallest = diagnoses(m, "c")
    assert _sets(global_smallest) == {frozenset({"S(a3)"})}


def test_diagnoses_containing_build_only_the_sets_through_it():
    # chain n=50 has 447,795 minimal diagnoses, above the default cap, but
    # the smallest through R(a0,a39) are a product of few sets per component
    d = seeded_chain(50, 50)
    m = build_problem(d, single_query("q :- S(X), R(X,Y), S(Y)."))
    t = d.find("R", ("a0", "a39"))
    found = diagnoses(m, "c", containing=t).sets
    # here the smallest through t are as small as any diagnosis
    assert found == tuple(x for x in diagnoses(m, "c").sets if t in x)
    assert len(found) == 33
    with pytest.raises(CapExceededError):  # the kept product is counted
        diagnoses(m, "s", containing=t).sets


def test_sets_containing_a_fact_equal_the_filtered_enumeration_randomized():
    # the reference enumerates every minimal hitting set, then filters
    rng = random.Random(12)
    compared = nonempty = 0
    for _ in range(600):
        d, q = random_instance(rng), random_boolean_query(rng)
        if not endogenous_support_sets(d, q):
            continue
        m = build_problem(d, q)
        everything = enumerate_minimal_hitting_sets(m.conflicts).sets
        for t in d.endogenous:
            through = [s for s in everything if t in s]
            assert list(diagnoses(m, "s", t).sets) == through
            assert list(diagnoses(m, "c", t).sets) == smallest(through)
            # the conflicts are the endogenous support sets
            assert contingency_sets(d, q, t) == contingencies_read_off(everything, t)
            compared += 1
            nonempty += bool(through)
    assert compared > 400 and nonempty > 150


def test_a_fact_on_no_edge_is_answered_before_any_search(monkeypatch):
    # R(a2,a1) joins no S(a1): it lies on no support set of the chain query
    def no_search(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(hitting, "_search", no_search)
    d, q = load_instance("ex1.facts"), load_query("ex1.dlq")
    t = parse_fact("R(a2,a1)")
    assert contingency_sets(d, q, t) == ()
    for kind in ("s", "c"):
        assert diagnoses(build_problem(d, q), kind, containing=t).sets == ()
    argv = ["diagnose", "-i", str(data_path("ex1.facts")), "-q", str(data_path("ex1.dlq"))]
    code, out, err = execute(argv + ["--containing", "R(a2,a1)", "--json"])
    assert code == 0 and err == "" and json.loads(out)["result"]["diagnoses"] == []


# one component, {T(t),X(x)}, {X(x),Y(yi)} and {Y(yi),Z(zi)} for i < 4, joined
# by exogenous facts: 17 minimal hitting sets, one of them through T(t)
_FORK = ("T(t). X(x). " + " ".join(f"Y(y{i}). Z(z{i})." for i in range(4)) + "\n@exogenous\nN(t,x). "
         + " ".join(f"L(x,y{i}). M(y{i},z{i})." for i in range(4)) + "\n")
_FORK_QUERY = "q :- T(A), N(A,B), X(B).\nq :- X(A), L(A,B), Y(B).\nq :- Y(A), M(A,B), Z(B).\n"


def test_the_cap_counts_only_the_sets_through_the_fact(tmp_path):
    d, q, t = parse_instance(_FORK), single_query(_FORK_QUERY), parse_fact("T(t)")
    m = build_problem(d, q)
    assert len(enumerate_minimal_hitting_sets(m.conflicts).sets) == 17
    with pytest.raises(CapExceededError):
        diagnoses(m, "s", cap=5)
    (gamma,) = contingency_sets(d, q, t, cap=5)
    assert {str(f) for f in gamma} == {"Y(y0)", "Y(y1)", "Y(y2)", "Y(y3)"}
    for kind in ("s", "c"):
        assert diagnoses(m, kind, t, cap=1).sets == (gamma | {t},)
    inst, dlq = tmp_path / "fork.facts", tmp_path / "fork.dlq"
    inst.write_text(_FORK)
    dlq.write_text(_FORK_QUERY)
    argv = ["diagnose", "-i", str(inst), "-q", str(dlq), "--containing", "T(t)", "--max-enum", "5", "--json"]
    for kind in ("s", "c"):
        code, out, err = execute(argv + ["--kind", kind])
        assert code == 0 and err == ""
        assert json.loads(out)["result"]["diagnoses"] == [["T(t)", "Y(y0)", "Y(y1)", "Y(y2)", "Y(y3)"]]


def test_diagnoses_containing_rejects_exogenous():
    d = load_instance("ex1b.facts")
    m = build_problem(d, load_query("ex1.dlq"))
    with pytest.raises(SemanticError):
        diagnoses(m, "s", containing=parse_fact("R(a4,a3)"))


def test_repairs_from_diagnoses_triple():
    d = load_instance("ex12.facts")
    m = build_problem(d, load_query("ex1.dlq"))
    reps = repairs_from_diagnoses(m, "s")
    assert {frozenset(str(f) for f in r.facts) for r in reps} == {
        frozenset({"S(a3)", "R(a4,a3)"}),
        frozenset({"S(a4)", "R(a4,a3)"}),
        frozenset({"S(a3)", "S(a4)"}),
    }


def test_repairs_from_diagnoses_matches_repair_engine():
    for name, cname in (("ex12.facts", "ex2.dlq"), ("ex4.facts", "ex4.dlq")):
        d = load_instance(name)
        sigma = load_constraints(cname)
        m = build_problem(d, violation_view(sigma))
        for kind in ("s", "c"):
            via_diag = {r.facts for r in repairs_from_diagnoses(m, kind)}
            direct = {d.without(s).facts for s in repairs(d, sigma, kind).sets}
            assert via_diag == direct


def test_repairs_from_diagnoses_rejects_exogenous():
    d = load_instance("ex1b.facts")
    m = build_problem(d, load_query("ex1.dlq"))
    with pytest.raises(SemanticError):
        repairs_from_diagnoses(m, "s")


# ---------------------------------------------------------------------------
# Theory rendering


def test_rendered_theory_structure():
    d = load_instance("ex1b.facts")
    m = build_problem(d, load_query("ex1.dlq"))
    text = render_theory(m)
    lines = text.splitlines()
    assert "forall X Y (S(X) & R(X,Y) & S(Y) -> Ab_S(X) | Ab_R(X,Y) | Ab_S(Y))" in lines
    assert "forall x1 x2 (Ab_R(x1,x2) -> End_R(x1,x2))" in lines
    assert "forall x1 (End_S(x1) -> S(x1))" in lines
    assert "~(a3 = a4)" in lines
    assert "exists X Y (S(X) & R(X,Y) & S(Y))" in lines
    assert "forall x1 (Ab_S(x1) -> false)" in lines
    # exogenous-only predicate: empty endogenous completion
    assert "forall x1 x2 (End_R(x1,x2) <-> false)" in lines


def test_rendered_theory_one_ab_predicate_per_schema_predicate():
    d = load_instance("ex12.facts")
    m = build_problem(d, load_query("ex1.dlq"))
    lines = render_theory(m).splitlines()
    schema_preds = set(d.schema)
    ab_preds = set()
    for line in lines:
        for token in line.replace("(", " ").split():
            if token.startswith("Ab_"):
                ab_preds.add(token[3:])
    assert ab_preds == schema_preds
    # one default emptiness sentence per predicate
    defaults = [l for l in lines if "-> false)" in l and "Ab_" in l]
    assert len(defaults) == len(schema_preds)


def test_rendered_theory_empty_instance():
    problem = DiagnosisProblem(Instance(frozenset()), load_query("ex1.dlq"), ())
    lines = render_theory(problem).splitlines()
    assert "forall x1 (S(x1) <-> false)" in lines
    assert "forall x1 x2 (R(x1,x2) <-> false)" in lines


def test_rendered_theory_nullary_predicates():
    query = single_query("q :- P(), S(X), Q().\n")
    m = DiagnosisProblem(parse_instance("P(). S(a3)."), query, ())
    lines = render_theory(m).splitlines()
    assert {"(P <-> true)", "(End_P <-> true)", "(Q <-> false)", "(Ab_P -> End_P)"} <= set(lines)
    assert "forall X (P & S(X) & Q -> Ab_P | Ab_S(X) | Ab_Q)" in lines
    assert "exists X (P & S(X) & Q)" in lines


def test_rendered_theory_is_deterministic():
    d = load_instance("ex12.facts")
    m = build_problem(d, load_query("ex1.dlq"))
    assert render_theory(m) == render_theory(m)

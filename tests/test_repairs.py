import json
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from causerepair import hitting, oracle, queries, relational
from causerepair.causality import actual_causes, most_responsible_causes, responsibility
from causerepair.cli import execute
from causerepair.diagnosis import build_problem, diagnoses
from causerepair.errors import CapExceededError, SemanticError
from causerepair.hitting import support_sets
from causerepair.oracle import oracle_repairs
from causerepair.parsing import (
    constraint_set,
    parse_fact,
    parse_instance,
    parse_priorities,
    single_query,
)
from causerepair.queries import dc_of_query, is_consistent, iter_matches, violation_view
from causerepair.repairs import consistent_answer, is_repair, repairs
from causerepair.relational import ENDOGENOUS, EXOGENOUS, Fact, Instance, fact, fact_key, set_key

from conftest import (
    DATA,
    load_constraints,
    load_instance,
    load_query,
    random_boolean_query,
    random_instance,
    seeded_chain,
    seeded_cqa,
    seeded_keyed,
)
from test_propositions import causes_via_repairs, repair_responsibility, repairs_via_causes


def _kept(d, removed):
    """The names of the facts of each repair ``d.without(s)``."""
    return {frozenset(str(f) for f in d.without(s).facts) for s in removed}


D1 = frozenset({"R(a4,a3)", "R(a2,a1)", "R(a3,a3)", "S(a4)", "S(a2)"})
D2 = frozenset({"R(a2,a1)", "S(a4)", "S(a2)", "S(a3)"})
D3 = frozenset({"R(a4,a3)", "R(a2,a1)", "S(a2)", "S(a3)"})


def test_subset_repairs_chain_example(chain_instance):
    sigma = load_constraints("ex2.dlq")
    assert _kept(chain_instance, repairs(chain_instance, sigma, "s").sets) == {D1, D2, D3}


def test_cardinality_repair_chain_example(chain_instance):
    sigma = load_constraints("ex2.dlq")
    assert _kept(chain_instance, repairs(chain_instance, sigma, "c").sets) == {D1}


def test_consistent_instance_repairs_to_itself():
    d = parse_instance("S(a1). R(a1,a2).")
    sigma = load_constraints("ex2.dlq")
    (only,) = repairs(d, sigma, "s").sets
    assert only == frozenset() and d.without(only) == d


def test_repairs_keep_their_instance_less_what_they_remove():
    d = parse_instance("A(1;k,a). A(2;k,b). A(3;j,a). A(4;j,b). A(5;j,c). A(6;m,a).")
    sigma = constraint_set(":- A(X,Y), A(X,Z), Y != Z.\n")
    priority = parse_priorities("A(1;k,a) > A(2;k,b).\n")
    for found in (repairs(d, sigma, "s"), repairs(d, sigma, "c"), repairs(d, sigma, "endo"),
                  repairs(d, sigma, "go", priority=priority)):
        assert found.sets
        for s in found.sets:
            kept = d.without(s)
            assert s <= d.facts and kept.facts == d.facts - s and is_consistent(kept, sigma)


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


CHAIN_QUERY = "q :- S(X), R(X,Y), S(Y).\n"


def test_causes_via_repairs_minimum_deleting_an_exogenous_fact():
    # the one global minimum {S(a)} deletes an exogenous fact; the four
    # endogenous deletion sets have two facts each
    d = parse_instance("@exogenous S(a). @endogenous R(a,b). R(a,c). S(b). S(c).")
    q = single_query(CHAIN_QUERY)
    t = parse_fact("R(a,b)")
    top, value = most_responsible_causes(d, q)
    assert t in top and value == Fraction(1, 2)
    diff_s, diff_c = causes_via_repairs(d, q, t)
    assert [{str(f) for f in s} for s in diff_c] == [
        {"R(a,b)", "R(a,c)"},
        {"R(a,b)", "S(c)"},
    ]
    assert diff_s == diff_c


def _deletion_sets_through(d, q, t):
    """``causes_via_repairs`` as it was: every minimal deletion set
    enumerated, and those within the endogenous facts that hold ``t`` kept."""
    found = hitting.enumerate_minimal_hitting_sets(hitting.support_sets(d, q)).sets
    endogenous = [s for s in found if s <= d.endogenous]
    least = min(map(len, endogenous), default=0)
    through = sorted((s for s in endogenous if t in s), key=lambda s: (len(s), set_key(s)))
    return tuple(through), tuple(s for s in through if len(s) == least)


def _chain_atoms(rng):
    atoms = set()
    for _ in range(rng.randint(2, 6)):
        atoms.add(("R", (rng.choice("abcd"), rng.choice("abcd"))))
        atoms.add(("S", (rng.choice("abcd"),)))
    return atoms


def _keyed_atoms(rng):
    return {("A", (rng.choice("kmn"), rng.choice("abcd"))) for _ in range(rng.randint(3, 12))}


def test_causes_via_repairs_agree_with_causes_randomized():
    cases = [
        (CHAIN_QUERY, _chain_atoms),
        (CHAIN_QUERY + "q :- R(X,Y), R(Y,X), X != Y.\n", _chain_atoms),
        ("q :- A(X,Y), A(X,Z), Y != Z.\n", _keyed_atoms),
    ]
    for query, atoms in cases:
        rng = random.Random(733)
        q = single_query(query)
        checked = 0
        for _ in range(80):
            d = Instance(frozenset(
                Fact(pred, args, EXOGENOUS if rng.random() < 0.3 else ENDOGENOUS)
                for pred, args in sorted(atoms(rng))
            ))
            top, _ = most_responsible_causes(d, q)
            for t in d.endogenous:
                diff_s, diff_c = causes_via_repairs(d, q, t)
                assert (diff_s, diff_c) == _deletion_sets_through(d, q, t)
                assert bool(diff_c) == (t in top)
                assert repair_responsibility(diff_s) == responsibility(d, q, t)
                checked += 1
        assert checked >= 300, query


def test_causes_via_repairs_cap_counts_the_sets_through_t():
    # two key groups of three values: 3 x 3 = 9 repairs, 2 x 3 = 6 of them
    # delete A(k,a)
    d = parse_instance("A(k,a). A(k,b). A(k,c). A(m,a). A(m,b). A(m,c).")
    q = single_query("q :- A(X,Y), A(X,Z), Y != Z.\n")
    t = parse_fact("A(k,a)")
    diff_s, diff_c = causes_via_repairs(d, q, t, cap=6)
    assert len(diff_s) == len(diff_c) == 6
    assert all(len(s) == 4 and t in s for s in diff_s)
    with pytest.raises(CapExceededError):
        causes_via_repairs(d, q, t, cap=5)


def test_cap_counts_the_cardinality_repairs_kept(tmp_path):
    # three disjoint copies of one chain conflict, each with 5 minimal
    # deletion sets and one smallest, {S(a)}: 125 S-repairs, one C-repair
    text = "".join(
        f"S(a{i}). R(a{i},b{i}). R(a{i},c{i}). S(b{i}). S(c{i}).\n" for i in range(3)
    )
    facts, dc = tmp_path / "three.facts", tmp_path / "chain.dlq"
    facts.write_text(text, encoding="utf-8")
    dc.write_text(":- S(X), R(X,Y), S(Y).\n", encoding="utf-8")
    d, sigma = parse_instance(text), constraint_set(dc.read_text())
    assert len(repairs(d, sigma, "s").sets) == 125
    with pytest.raises(CapExceededError):
        repairs(d, sigma, "s", cap=10).sets
    (only,) = repairs(d, sigma, "c", cap=10).sets
    assert {str(f) for f in only} == {"S(a0)", "S(a1)", "S(a2)"}
    argv = ["repairs", "-i", str(facts), "-c", str(dc), "--max-enum", "10", "--json"]
    code, out, err = execute(argv + ["--semantics", "c"])
    assert code == 0 and err == "" and out.count('"removed"') == 1
    code, out, _ = execute(argv + ["--semantics", "s"])
    assert code == 3 and out == ""


def test_cap_counts_the_product_of_the_components():
    # three disjoint two-fact conflicts: 8 repairs under either semantics
    d = parse_instance("A(1,a). A(1,b). A(2,a). A(2,b). A(3,a). A(3,b).")
    sigma = constraint_set(":- A(X,Y), A(X,Z), Y != Z.\n")
    for semantics in ("s", "c"):
        assert len(repairs(d, sigma, semantics, cap=8).sets) == 8
        with pytest.raises(CapExceededError):
            repairs(d, sigma, semantics, cap=7).sets


def test_repairs_via_causes_union_example():
    d4 = load_instance("ex4.facts")
    sigma = load_constraints("ex4.dlq")
    via_causes = repairs_via_causes(d4, sigma, "s")
    assert _kept(d4, via_causes) == {
        frozenset({"P(a)", "P(e)"}),
        frozenset({"P(e)", "Q(a,b)", "R(a,c)"}),
    }
    assert _kept(d4, repairs_via_causes(d4, sigma, "c")) == {
        frozenset({"P(e)", "Q(a,b)", "R(a,c)"})
    }


def test_repairs_via_causes_matches_direct_enumeration(chain_instance):
    for name in ("ex2.dlq", "ex4.dlq"):
        sigma = load_constraints(name)
        base = chain_instance if name == "ex2.dlq" else load_instance("ex4.facts")
        for semantics in ("s", "c"):
            assert _kept(base, repairs_via_causes(base, sigma, semantics)) == _kept(
                base, repairs(base, sigma, semantics).sets
            )


def test_repairs_via_causes_consistent_instance():
    d = parse_instance("P(a,b).")
    sigma = load_constraints("cqa2.dlq")
    (only,) = repairs_via_causes(d, sigma, "s")
    assert d.without(only) == d


def _count_calls(monkeypatch, name):
    """Count calls to a ``hitting`` function, wherever the package binds it
    (the references of ``test_propositions`` read it off ``hitting``)."""
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
            assert {d.without(s).facts for s in repairs(d, sigma, semantics).sets} == expected
            assert {
                d.without(s).facts for s in repairs_via_causes(d, sigma, semantics)
            } == expected
            assert {
                s.facts for s in subsets if is_repair(d, sigma, s, semantics)
            } == expected


@pytest.mark.parametrize("semantics", ["go", "null", "zz", ""])
def test_oracle_repairs_rejects_other_semantics(semantics, monkeypatch):
    def no_scan(*args):
        raise AssertionError("scanned")

    monkeypatch.setattr(oracle, "eval_boolean", no_scan)
    wide = parse_instance(" ".join(f"S(a{i})." for i in range(16)))  # above the bound
    for d in (load_instance("ex1.facts"), wide):
        with pytest.raises(SemanticError, match="unknown repair semantics"):
            oracle_repairs(d, load_constraints("ex2.dlq"), semantics)


@pytest.mark.parametrize("semantics", ["endo", "go", "null"])
def test_only_the_repair_engine_takes_the_endogenous_and_global_optimal_semantics(semantics):
    d, sigma = load_instance("ex1.facts"), load_constraints("ex2.dlq")
    problem = build_problem(d, violation_view(sigma))
    checks = [
        lambda: is_repair(d, sigma, d, semantics),
        lambda: consistent_answer(d, sigma, [parse_fact("S(a3)")], semantics),
        lambda: diagnoses(problem, semantics),
    ]
    if semantics == "null":  # null repairs change values: ``null_repairs``
        checks.append(lambda: repairs(d, sigma, semantics))
    for check in checks:
        with pytest.raises(SemanticError, match="unknown repair semantics"):
            check()


def test_global_optimal_repairs_and_they_only_take_a_priority():
    d, sigma = load_instance("ex1.facts"), load_constraints("ex2.dlq")
    with pytest.raises(SemanticError, match="global-optimal repairs need a priority"):
        repairs(d, sigma, "go")
    priority = []  # the empty priority, not none
    for semantics in ("s", "c", "endo", "null"):
        with pytest.raises(SemanticError, match="applies to global-optimal repairs only"):
            repairs(d, sigma, semantics, priority=priority)


def test_oracle_and_engines_refuse_an_empty_constraint_set():
    d, empty = load_instance("ex1.facts"), queries.DenialConstraintSet(())
    for semantics in ("s", "endo"):
        for run in (oracle_repairs, repairs):
            with pytest.raises(SemanticError, match="violation view of an empty constraint set"):
                run(d, empty, semantics)


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
        removed = repairs(d, sigma, semantics).sets
        for f in d:
            definitional = all(f in d.without(s).facts for s in removed)
            assert consistent_answer(d, sigma, [f], semantics) == definitional


# ---------------------------------------------------------------------------
# Subset CQA from the minimal violations through the asked atoms


def actual_causes_answer(d, sigma, atoms) -> bool:
    """The whole-family criterion: no asked atom is absent or an actual
    cause for the violation view.  The reference for ``consistent_answer``
    under subset semantics."""
    excluded = actual_causes(d, violation_view(sigma))
    resolved = [d.find(a.pred, a.args, a.fact_id) for a in atoms]
    return all(t is not None and t not in excluded for t in resolved)


def test_subset_cqa_agrees_with_the_actual_causes_randomized():
    answers, nested = Counter(), 0
    for seed in range(1500):
        d, sigma, lists = seeded_cqa(seed, max_facts=14)
        for atoms in lists:
            expected = actual_causes_answer(d, sigma, atoms)
            assert consistent_answer(d, sigma, atoms, "s") is expected, (str(d), str(sigma), atoms)
            answers[expected] += 1
        family = support_sets(d, violation_view(sigma))
        nested += any(e not in family for e in _images(d, sigma))
    assert min(answers.values()) > 1500
    assert nested > 100  # some witnesses are not minimal support sets


def _images(d, sigma):
    return {frozenset(used) for dc in sigma for used, _ in iter_matches(d.facts, dc.body)}


def test_subset_cqa_agrees_with_oracle_randomized():
    answers = Counter()
    for seed in range(400):
        d, sigma, lists = seeded_cqa(seed, max_facts=8)
        kept = oracle_repairs(d, sigma, "s")
        for atoms in lists:
            resolved = [d.find(a.pred, a.args, a.fact_id) for a in atoms]
            expected = all(t is not None and all(t in r for r in kept) for t in resolved)
            assert consistent_answer(d, sigma, atoms, "s") is expected, (str(d), str(sigma), atoms)
            answers[expected] += 1
    assert min(answers.values()) > 400


def _cqa_shaped(tmp_path):
    """About a thousand facts shaped like the cqa-large benchmark: chain
    facts and a keyed ``A`` with some two-valued keys."""
    chain = seeded_chain(300, 600)
    keyed = seeded_keyed((2,) * 40, 400)
    d = Instance(chain.facts | keyed.facts)
    (tmp_path / "d.facts").write_text(str(d))
    (tmp_path / "dc.dlq").write_text(_CQA_DCS)
    return d


_CQA_DCS = ":- S(X), R(X,Y), S(Y).\n:- A(X,Y), A(X,Z), Y != Z.\n"


def _replace_everywhere(monkeypatch, fn, replacement):
    """Put ``replacement`` in place of every package module's binding of ``fn``."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("causerepair") and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, replacement)


def _refuse_everywhere(monkeypatch, fn):
    """Make every package module's binding of ``fn`` raise when called."""
    def refuse(*args, **kwargs):
        raise AssertionError(f"{fn.__name__} was called")

    _replace_everywhere(monkeypatch, fn, refuse)


def test_subset_cqa_walks_only_through_the_asked_atoms(tmp_path, monkeypatch):
    d = _cqa_shaped(tmp_path)
    assert 900 < len(d) < 1100
    # no support family, no whole witness set and no hitting-set search
    for fn in (hitting.support_sets, queries.witnesses, hitting._reduced, hitting._search):
        _refuse_everywhere(monkeypatch, fn)
    calls = 0
    extend = queries._extend

    def counting(*args):
        nonlocal calls
        calls += 1
        return extend(*args)

    monkeypatch.setattr(queries, "_extend", counting)
    conflicting = sorted(set().union(*_images(d, constraint_set(_CQA_DCS))), key=fact_key)
    calm = sorted(d.facts - set(conflicting), key=fact_key)
    asked = conflicting[::25] + calm[::50] + [fact("A", "k400", "v0"), fact("S", "zz")]
    answers = Counter()
    for t in asked:
        calls = 0
        code, out, err = execute(["cqa", "-i", str(tmp_path / "d.facts"), "-c", str(tmp_path / "dc.dlq"),
                                  "--atoms", str(t), "--semantics", "s", "--json"])
        assert code == 0, err
        verdict = json.loads(out)["result"]["consistent"]
        assert verdict is (t in calm), t
        assert calls <= (50 if t in d.facts else 0), (t, calls)
        answers[verdict] += 1
    assert answers[True] >= 10 and answers[False] >= 10


class _Refused:
    """A stand-in for a cached property of ``Instance``: reading it raises,
    unless the instance already holds the value."""

    def __init__(self, name: str):
        self.name = name

    def __get__(self, instance, owner=None):
        raise AssertionError(f"Instance.{self.name} was made after the parse")


def test_subset_cqa_makes_no_whole_instance_pass(tmp_path, monkeypatch):
    d = _cqa_shaped(tmp_path)
    conflicting = sorted(set().union(*_images(d, constraint_set(_CQA_DCS))), key=fact_key)
    calm = sorted(d.facts - set(conflicting), key=fact_key)
    asked = conflicting[::40] + calm[::80] + [fact("A", "k400", "v0")]
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("causerepair"):
            if getattr(module, "violations", None) is relational.violations:
                def refuse(facts):
                    raise AssertionError("the facts were checked again")
                monkeypatch.setattr(module, "violations", refuse)
            group = getattr(module, "group_relations", None)
            if group is relational.group_relations:
                def few_only(facts, group=group):  # loose facts, as eval_boolean groups
                    facts = list(facts)
                    assert len(facts) <= 10, "a whole instance was grouped again"
                    return group(facts)
                monkeypatch.setattr(module, "group_relations", few_only)
    for name in ("relations", "by_atom", "schema", "exogenous"):
        monkeypatch.setattr(Instance, name, _Refused(name))
    sigma = constraint_set(_CQA_DCS)
    parsed = parse_instance((tmp_path / "d.facts").read_text())
    for t in asked:
        assert consistent_answer(parsed, sigma, [t]) is (t in calm), t
    code, out, err = execute(["cqa", "-i", str(tmp_path / "d.facts"), "-c", str(tmp_path / "dc.dlq"),
                              "--atoms", f"{calm[0]}; {calm[-1]}", "--semantics", "s", "--json"])
    assert code == 0 and json.loads(out)["result"]["consistent"] is True, err


# ---------------------------------------------------------------------------
# Cardinality CQA through the asked atoms


def test_cardinality_cqa_agrees_with_the_oracle_and_the_responsibilities_randomized():
    answers = Counter()
    for seed in range(400):
        d, sigma, lists = seeded_cqa(seed, max_facts=8)
        kept = oracle_repairs(d, sigma, "c")
        top, _ = most_responsible_causes(d, violation_view(sigma))
        for atoms in lists:
            resolved = [d.find(a.pred, a.args, a.fact_id) for a in atoms]
            expected = all(t is not None and all(t in r for r in kept) for t in resolved)
            assert expected is all(t is not None and t not in top for t in resolved)
            assert consistent_answer(d, sigma, atoms, "c") is expected, (str(d), str(sigma), atoms)
            answers[expected] += 1
    assert min(answers.values()) > 400


def test_cardinality_cqa_answers_an_absent_atom_before_any_join(monkeypatch):
    d, sigma = load_instance("cqa2.facts"), load_constraints("cqa2.dlq")
    for fn in (hitting.support_sets, queries.witnesses):
        _refuse_everywhere(monkeypatch, fn)
    assert consistent_answer(d, sigma, [parse_fact("R(z,z)")], "c") is False
    assert consistent_answer(d, sigma, [parse_fact("R(a,d)"), parse_fact("R(z,z)")], "c") is False


def test_cardinality_cqa_asks_about_the_given_atoms_only(monkeypatch):
    # an atom fails when it lies in some minimum hitting set of the
    # violations, decided for the asked atoms at once within the minimum:
    # no other fact's responsibility is needed
    keyed = seeded_keyed((2, 3, 2), 30)
    mixed = Instance(keyed.facts | seeded_chain(12, 10).facts)
    cases = [(load_instance("cqa2.facts"), load_constraints("cqa2.dlq")),
             (keyed, constraint_set(_CQA_DCS)), (mixed, constraint_set(_CQA_DCS))]
    expected = []
    for d, sigma in cases:
        top, _ = most_responsible_causes(d, violation_view(sigma))  # the whole-family criterion
        facts = sorted(d.facts, key=fact_key)
        asked = [[t] for t in facts] + [list(pair) for pair in zip(facts, facts[1:])]
        expected.append((d, sigma, asked, [not any(t in top for t in atoms) for atoms in asked]))
    assert {answer for *_, answers in expected for answer in answers} == {True, False}
    golden = (DATA / "golden" / "cqa_ground.json").read_bytes()
    monkeypatch.chdir(DATA)
    minimum_members, forced_rest = hitting.minimum_members, hitting._forced_rest
    calls, rests = [], []  # each call's asked vertices as a mask; each rest's vertex

    def spied(edges, key=fact_key, *, among=None):
        assert among is not None
        vertices, asked = hitting._table(edges, key)[0], set(among)
        calls.append(sum(1 << i for i, v in enumerate(vertices) if v in asked))
        return minimum_members(edges, key, among=among)

    def rest(edges, t, most, floor):
        assert t & calls[-1] == t, "a forced rest of an atom not asked about"
        # asked within the minimum: no rest at or above its component's
        assert most < hitting._least(edges).bit_count(), most  # edges: t's component
        rests.append(t)
        return forced_rest(edges, t, most, floor)

    _replace_everywhere(monkeypatch, minimum_members, spied)
    _refuse_everywhere(monkeypatch, hitting.forced_minima)
    monkeypatch.setattr(hitting, "_forced_rest", rest)
    code, out, err = execute(["cqa", "-i", "cqa2.facts", "-c", "cqa2.dlq",
                              "--atoms", "R(a,d)", "--semantics", "c", "--json"])
    assert (code, err) == (0, "") and out.encode() == golden
    assert len(calls) == 1
    for d, sigma, asked, answers in expected:
        for atoms, answer in zip(asked, answers):
            calls.clear()
            assert consistent_answer(d, sigma, atoms, "c") is answer
            assert len(calls) == 1  # one question for all the asked atoms
    assert rests

import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from causerepair import preferences
from causerepair.causality import (
    actual_causes,
    check_minimal_contingency,
    responsibility,
)
from causerepair.cli import execute
from causerepair.errors import SemanticError
from causerepair.hitting import support_sets
from causerepair.parsing import (
    constraint_set,
    parse_fact,
    parse_instance,
    parse_priorities,
    parse_program,
    single_query,
)
from causerepair.preferences import (
    AttrChange,
    _kill_sets,
    attr_key,
    change_applier,
    check_preference_contingency,
    null_causes,
    null_repairs,
    preferred_causes,
)
from causerepair.queries import dc_of_query, is_consistent, violation_view
from causerepair.relational import ENDOGENOUS, EXOGENOUS, NULL, Fact, Instance, fact, fact_key
from causerepair.repairs import repairs

from conftest import (
    data_path,
    keyed_preferences,
    load_constraints,
    load_instance,
    load_query,
    random_boolean_query,
    random_instance,
    seeded_keyed,
)
from test_propositions import endogenous_encoding


def _removed(solution):
    return {frozenset(str(f) for f in s) for s in solution.sets}


def _load_prio(name):
    return parse_priorities(data_path(name).read_text())


# ---------------------------------------------------------------------------
# Priority validation, inside the engines that take a priority


def _priority_engines(d, sigma):
    """Each engine that takes priority pairs, on ``sigma`` or its violation
    view, with the relation its pairs must lie in."""
    q = violation_view(sigma)
    return [
        (lambda pairs: repairs(d, sigma, "go", priority=pairs), "mutually conflicting"),
        (lambda pairs: preferred_causes(d, q, pairs), "jointly contributing"),
        (lambda pairs: check_preference_contingency(
            d, q, pairs, sorted(d.facts, key=fact_key)[0], frozenset()), "jointly contributing"),
    ]


def test_priority_validation_accepts_fixture():
    d = load_instance("ex14.facts")
    sigma = load_constraints("ex14.dlq")
    pairs = _load_prio("ex14a.prio")
    assert len(pairs) == 2
    assert repairs(d, sigma, "go", priority=pairs).sets
    assert preferred_causes(d, violation_view(sigma), pairs)


def test_priority_validation_rejects_cycles():
    d = load_instance("ex14.facts")
    sigma = load_constraints("ex14.dlq")
    pairs = _load_prio("ex14b.prio")
    cycle = pairs + [(pairs[0][1], pairs[0][0])]
    for run, _ in _priority_engines(d, sigma):
        with pytest.raises(SemanticError, match="cycle"):
            run(cycle)


def test_priority_validation_long_chains_and_self_pairs():
    # 1,500 pairs nest deeper than the interpreter's recursion limit
    d = parse_instance(" ".join(f"P(a{i})." for i in range(1501)))
    sigma = constraint_set(":- P(X), Q(X).\n")
    chain = [(fact("P", f"a{i}"), fact("P", f"a{i + 1}")) for i in range(1500)]
    closed = chain + [(fact("P", "a1500"), fact("P", "a0"))]
    for run, relation in _priority_engines(d, sigma):
        # acyclic, so validation gets as far as the conflict check
        with pytest.raises(SemanticError, match=f"not {relation}"):
            run(chain)
        with pytest.raises(SemanticError, match="cycle"):
            run(closed)
        with pytest.raises(SemanticError, match="cycle"):
            run([(fact("P", "a0"), fact("P", "a0"))])


def test_priority_validation_rejects_non_conflicting_pairs():
    d = load_instance("ex14.facts")
    sigma = load_constraints("ex14.dlq")
    bogus = [(parse_fact('Author("Tom","TKDE")'), parse_fact('Author("John","TKDE")'))]
    for run, relation in _priority_engines(d, sigma):
        with pytest.raises(SemanticError, match=f'^Author\\("Tom","TKDE"\\) and .* are not {relation}$'):
            run(bogus)


def test_priority_validation_rejects_unknown_facts():
    d = load_instance("ex14.facts")
    sigma = load_constraints("ex14.dlq")
    for run, _ in _priority_engines(d, sigma):
        with pytest.raises(SemanticError, match="not in the instance"):
            run([(parse_fact("Zzz(a)"), parse_fact("Zzz(b)"))])


# ---------------------------------------------------------------------------
# Global-optimal repairs


def test_global_optimal_total_priorities_single_repair():
    d = load_instance("ex14.facts")
    sigma = load_constraints("ex14.dlq")
    pairs = _load_prio("ex14a.prio")
    assert _removed(repairs(d, sigma, "go", priority=pairs)) == {
        frozenset({'Author("John","TKDE")', 'Author("John","TODS")'})
    }


def test_global_optimal_partial_priorities_two_repairs():
    d = load_instance("ex14.facts")
    sigma = load_constraints("ex14.dlq")
    pairs = _load_prio("ex14b.prio")
    assert _removed(repairs(d, sigma, "go", priority=pairs)) == {
        frozenset({'Author("John","TKDE")', 'Author("John","TODS")'}),
        frozenset({'Author("John","TKDE")', 'Journal("TODS",32,"XML")'}),
    }


def test_empty_priority_keeps_all_subset_repairs():
    d = load_instance("ex14.facts")
    sigma = load_constraints("ex14.dlq")
    assert _removed(repairs(d, sigma, "go", priority=[])) == _removed(
        repairs(d, sigma, "s")
    )


def _improves_reference(d, candidate, over, priority):
    """Global improvement between the repairs of ``d`` that delete
    ``candidate`` and ``over``, read off their kept facts; ``priority`` is
    a set of (stronger, weaker) pairs."""
    kept, other = d.without(candidate).facts, d.without(over).facts
    lost, gained = other - kept, kept - other
    return candidate != over and all(
        any((g, t) in priority for g in gained) for t in lost
    )


def _global_optimal_reference(d, sigma, priority):
    """Every subset repair's deletion set compared with every other under
    the pairs."""
    base = repairs(d, sigma, "s").sets
    return [r for r in base if not any(_improves_reference(d, o, r, priority) for o in base)]


def _preferred_causes_reference(d, q, pairs):
    """Causes read off the endogenous global-optimal repairs under the
    inverted pairs (preferring a cause is preferring to delete it)."""
    scores = {}
    for r in _global_optimal_reference(d, dc_of_query(q), {(b, a) for a, b in pairs}):
        if r <= d.endogenous:
            for t in r:
                scores[t] = min(scores.get(t, len(r)), len(r))
    return [(t, Fraction(1, scores[t])) for t in sorted(scores, key=fact_key)]


def _random_case(rng, keyed):
    """A chain or keyed instance, its constraint and the constraint's query,
    with about a fifth of the facts exogenous."""
    if keyed:
        atoms = {
            ("A", (k, v))
            for k in "123456"[: rng.randint(2, 5)]
            for v in rng.sample("abc", rng.choice((1, 2, 2, 3)))
        }
        body = "A(X,Y), A(X,Z), Y != Z."
    else:
        atoms = set()
        for _ in range(rng.randint(3, 8)):
            atoms.add(("R", (rng.choice("abcde"), rng.choice("abcde"))))
            atoms.add(("S", (rng.choice("abcde"),)))
        body = "S(X), R(X,Y), S(Y)."
    d = Instance(frozenset(
        Fact(pred, args, EXOGENOUS if rng.random() < 0.2 else ENDOGENOUS)
        for pred, args in sorted(atoms)
    ))
    return d, constraint_set(f":- {body}\n"), single_query(f"q :- {body}\n")


def _random_acyclic_pairs(rng, d, edges):
    """Pairs inside single edges, each from a higher to a lower random rank."""
    rank = {f: i for i, f in enumerate(rng.sample(d.sorted_facts, len(d)))}
    drawn = {}  # each pair drawn once, in a hash-independent order
    for e in edges:
        members = sorted(e, key=fact_key)
        for a in members:
            for b in members:
                if rank[a] < rank[b] and (a, b) not in drawn:
                    drawn[a, b] = rng.random() < 0.5
    return [pair for pair, chosen in drawn.items() if chosen]


@pytest.mark.parametrize("keyed", [False, True], ids=["chain", "keyed"])
def test_global_optimal_repairs_and_preferred_causes_match_all_pairs_randomized(keyed):
    rng = random.Random(2012 + keyed)
    pruned = 0
    for _ in range(150):
        d, sigma, q = _random_case(rng, keyed)
        edges = support_sets(d, violation_view(sigma))
        priority = _random_acyclic_pairs(rng, d, edges)
        expected = _global_optimal_reference(d, sigma, set(priority))
        assert list(repairs(d, sigma, "go", priority=priority).sets) == expected
        pruned += len(expected) < len(repairs(d, sigma, "s").sets)
        pairs = _random_acyclic_pairs(rng, d, support_sets(d, q))
        assert list(preferred_causes(d, q, pairs)) == _preferred_causes_reference(d, q, set(pairs))
    assert pruned >= 100  # the priorities rule out some subset repair


# ---------------------------------------------------------------------------
# Preferred causes


def test_preferred_causes_fixture():
    d = load_instance("ex14.facts")
    q = load_query("ex15.dlq")
    found = preferred_causes(d, q, _load_prio("ex15.prio"))
    assert {(str(t), rho) for t, rho in found} == {
        ('Author("John","TKDE")', Fraction(1, 2)),
        ('Author("John","TODS")', Fraction(1, 2)),
        ('Journal("TODS",32,"XML")', Fraction(1, 2)),
    }


def test_preferred_causes_need_a_boolean_query():
    d = load_instance("ex1.facts")
    q = single_query("q :- S(X), R(X,Y), S(Y).\n")
    # the query's own disjuncts are those of its denial constraints' view
    assert violation_view(dc_of_query(q)).disjuncts == q.disjuncts
    open_q = single_query("q(X) :- S(X), R(X,Y), S(Y).\n")
    for run in (preferred_causes, lambda *args: check_preference_contingency(
            *args, parse_fact("S(a3)"), frozenset())):
        with pytest.raises(SemanticError, match="boolean queries"):
            run(d, open_q, [])


def test_empty_causal_priority_reduces_to_actual_causes():
    d = load_instance("ex14.facts")
    q = load_query("ex15.dlq")
    found = dict(preferred_causes(d, q, []))
    expected = {
        t: responsibility(d, q, t) for t in actual_causes(d, q)
    }
    assert found == expected


def test_preferred_causes_are_actual_causes_randomized():
    rng = random.Random(4242)
    checked = 0
    for _ in range(40):
        d = random_instance(rng, max_facts=6)
        q = random_boolean_query(rng)
        try:
            causes = actual_causes(d, q)
        except Exception:
            continue
        found = dict(preferred_causes(d, q, []))
        assert set(found) == set(causes)
        for t, rho in found.items():
            assert rho == responsibility(d, q, t)
        checked += 1
    assert checked >= 30


def test_check_preference_contingency_fixture():
    d = load_instance("ex14.facts")
    q = load_query("ex15.dlq")
    pairs = _load_prio("ex15.prio")
    t = parse_fact('Author("John","TKDE")')
    gamma = frozenset({parse_fact('Author("John","TODS")')})
    assert check_preference_contingency(d, q, pairs, t, gamma) is True
    padded = gamma | {parse_fact('Author("Tom","TKDE")')}
    assert check_preference_contingency(d, q, pairs, t, padded) is False


def test_check_preference_contingency_empty_priority_matches_unrestricted():
    rng = random.Random(11)
    pairs = []  # the empty causal priority
    rounds = 0
    for _ in range(25):
        d = random_instance(rng, max_facts=5)
        q = random_boolean_query(rng)
        endo = sorted(d.endogenous, key=str)
        if not endo:
            continue
        t = rng.choice(endo)
        others = [f for f in endo if f != t]
        for size in range(min(2, len(others)) + 1):
            for gamma in combinations(others, size):
                gamma = frozenset(gamma)
                assert check_preference_contingency(
                    d, q, pairs, t, gamma
                ) == check_minimal_contingency(d, q, t, gamma)
                rounds += 1
    assert rounds > 50


KEY_QUERY = "q :- A(X,Y), A(X,Z), Y != Z.\n"


def test_check_preference_contingency_refuses_what_the_plain_check_refuses():
    q = single_query(KEY_QUERY)
    plain = parse_instance("A(k,a). A(k,b). A(j,c). A(j,d).")
    exogenous_t = parse_instance("@exogenous A(k,a). @endogenous A(k,b). A(j,c). A(j,d).")
    exogenous_gamma = parse_instance("@exogenous A(j,c). @endogenous A(k,a). A(k,b). A(j,d).")
    t, c = parse_fact("A(k,a)"), parse_fact("A(j,c)")
    cases = [
        (plain, {t, c}, "A(k,a) cannot belong to its own contingency set"),
        (exogenous_t, {c}, "A(k,a) is exogenous"),
        (exogenous_t, {t}, "A(k,a) is exogenous"),  # t is resolved before gamma is checked
        (exogenous_gamma, {c}, "A(j,c) is exogenous"),
        (exogenous_gamma, {t, c}, "A(j,c) is exogenous"),  # gamma is resolved before t is sought
        (plain, {parse_fact("A(z,z)")}, "A(z,z) is not in the instance"),
    ]
    for d, gamma, message in cases:
        engines = [
            lambda: check_minimal_contingency(d, q, t, frozenset(gamma)),
            lambda: check_preference_contingency(d, q, [], t, frozenset(gamma)),  # no priority pair
        ]
        for engine in engines:
            with pytest.raises(SemanticError) as raised:
                engine()
            assert str(raised.value).startswith(message), (message, str(raised.value))


@pytest.mark.parametrize("k", [10, 20, 40, 200])
def test_preferred_causes_keyed_scaling_reference(k):
    # from 2x40 on there are more global-optimal repairs than the default cap
    d, _, pairs, causes = keyed_preferences(k)
    q = single_query(KEY_QUERY)
    assert list(preferred_causes(d, q, pairs)) == [(t, Fraction(1, k)) for t in causes]


def test_check_preference_contingency_keyed_2x40():
    d, groups, pairs, _ = keyed_preferences(40)
    q = single_query(KEY_QUERY)
    member = [g[0] if i % 2 == 0 else g[1] for i, g in enumerate(groups)]
    t, gamma = member[0], frozenset(member[1:])
    assert check_preference_contingency(d, q, pairs, t, gamma) is True
    # deleting a preferred group's second fact instead is improved upon
    swapped = gamma - {groups[2][0]} | {groups[2][1]}
    assert check_preference_contingency(d, q, pairs, t, swapped) is False
    assert check_preference_contingency(d, q, pairs, t, gamma - {groups[1][1]}) is False


# ---------------------------------------------------------------------------
# Endogenous repairs


def test_endogenous_repairs_fixture():
    d13 = load_instance("ex13.facts")
    sigma = load_constraints("ex2.dlq")
    assert _removed(repairs(d13, sigma, "endo")) == {frozenset({"S(a3)"})}


def test_endogenous_repairs_all_endogenous_equals_subset_repairs(chain_instance):
    sigma = load_constraints("ex2.dlq")
    assert _removed(repairs(chain_instance, sigma, "endo")) == _removed(
        repairs(chain_instance, sigma, "s")
    )


def test_endogenous_repairs_can_be_empty():
    d = parse_instance("@exogenous\nP(a). Q(a,b).\n@endogenous\nS(z).")
    _, sigma = parse_program(":- P(X), Q(X,Y).\n")
    assert repairs(d, sigma, "endo").sets == ()


def test_endogenous_repairs_consistent_instance():
    d = parse_instance("@exogenous\nP(a).\n")
    _, sigma = parse_program(":- P(X), Q(X,Y).\n")
    (only,) = repairs(d, sigma, "endo").sets
    assert d.without(only) == d


def test_endogenous_repairs_keep_all_exogenous_and_are_maximal():
    d13 = load_instance("ex13.facts")
    sigma = load_constraints("ex2.dlq")
    for removed in repairs(d13, sigma, "endo").sets:
        kept = d13.without(removed)
        assert d13.exogenous <= kept.facts
        assert is_consistent(kept, sigma)
        for f in removed:
            assert not is_consistent(Instance(kept.facts | {f}), sigma)


def test_endogenous_encoding_fixture():
    d13 = load_instance("ex13.facts")
    sigma = load_constraints("ex2.dlq")
    extended, guarded, priority = endogenous_encoding(d13, sigma)
    go = repairs(extended, guarded, "go", priority=priority)
    go_removed = _removed(go)
    guard_only = frozenset({"guard(on)"})
    assert guard_only in go_removed
    direct = _removed(repairs(d13, sigma, "endo"))
    assert go_removed - {guard_only} == direct


def test_endogenous_encoding_randomized():
    rng = random.Random(555)
    rounds = 0
    for _ in range(30):
        d = random_instance(rng, max_facts=6)
        q = random_boolean_query(rng)
        sigma = dc_of_query(q)
        if is_consistent(d, sigma):
            continue
        extended, guarded, priority = endogenous_encoding(d, sigma)
        go_removed = _removed(repairs(extended, guarded, "go", priority=priority))
        guard_only = frozenset({"guard(on)"})
        assert guard_only in go_removed
        assert go_removed - {guard_only} == _removed(repairs(d, sigma, "endo"))
        rounds += 1
    assert rounds >= 10


# ---------------------------------------------------------------------------
# Null-based repairs and causes


def _diffs(solution):
    return {frozenset(str(c) for c in s) for s in solution.sets}


def _repaired(d, v):
    """The null repair that ``v``, a change applier's map, gives of ``d``."""
    return Instance(d.facts.difference(v).union(v.values()))


PUBLISHED_DIFFS = {
    frozenset({"S[5;1]"}),
    frozenset({"R[2;1]", "R[3;2]"}),
    frozenset({"R[2;1]", "S[6;1]"}),
    frozenset({"R[2;2]", "R[3;2]"}),
    frozenset({"R[2;2]", "R[3;1]"}),
    frozenset({"R[2;2]", "S[6;1]"}),
}
EXTRA_DIFF = frozenset({"R[2;1]", "R[3;1]"})


def test_null_repairs_fixture_with_brute_force_certification():
    """The engine finds seven minimal change sets; a definitional scan over
    all position subsets confirms every one of them, including the
    symmetric variant {R[2;1],R[3;1]} that golden listings often omit."""
    d16 = load_instance("ex16.facts")
    sigma = load_constraints("ex2.dlq")
    reps = null_repairs(d16, sigma)
    assert _diffs(reps) == PUBLISHED_DIFFS | {EXTRA_DIFF}

    positions = [
        AttrChange(f.pred, f.fact_id, i + 1) for f in d16 for i in range(f.arity)
    ]
    apply = change_applier(d16)
    consistent_sets = [
        frozenset(combo)
        for size in range(len(positions) + 1)
        for combo in combinations(positions, size)
        if is_consistent(_repaired(d16, apply(combo)), sigma)
    ]
    minimal = {
        s for s in consistent_sets if not any(t < s for t in consistent_sets)
    }
    assert {frozenset(str(c) for c in s) for s in minimal} == _diffs(reps)


def _rebuilt_with_changes(d, changes):
    """Nulling as it was: every fact of ``d`` rebuilt into a new set."""
    by_id = {}
    for c in changes:
        by_id.setdefault((c.pred, c.fact_id), set()).add(c.position - 1)
    updated = []
    for f in d.facts:
        hit = by_id.get((f.pred, f.fact_id))
        if hit:
            args = tuple(NULL if i in hit else a for i, a in enumerate(f.args))
            updated.append(f.with_args(args))
        else:
            updated.append(f)
    return Instance(frozenset(updated))


def test_apply_changes_equals_full_rebuild_randomized():
    rng = random.Random(17)
    unchanged = changed = 0
    for _ in range(300):
        facts = []
        for i in range(1, rng.randint(1, 12) + 1):
            pred, arity = rng.choice([("R", 2), ("S", 1), ("T", 3)])
            args = tuple(rng.choice(["a", "b", NULL]) for _ in range(arity))
            tag = EXOGENOUS if rng.random() < 0.3 else ENDOGENOUS
            # outside the parser facts may share an id; a change names the
            # predicate and the id, so it nulls the position in each fact
            # of that predicate with that id
            facts.append(Fact(pred, args, tag, i if rng.random() < 0.8 else rng.randint(1, i)))
        d = Instance(frozenset(facts))
        changes = frozenset(
            AttrChange(f.pred, f.fact_id, rng.randint(1, f.arity))
            for f in rng.choices(facts, k=rng.randint(0, 4))
        )
        v, want = change_applier(d)(changes), _rebuilt_with_changes(d, changes)
        got = _repaired(d, v)
        assert got == want
        assert {(f, f.tag) for f in got.facts} == {(f, f.tag) for f in want.facts}
        # the changed facts are named without a scan, as the scans name them
        assert set(v) == {f for f in d.facts for c in changes if (f.pred, f.fact_id) == (c.pred, c.fact_id)}
        nulled = set(v.values()) - d.facts
        assert nulled == want.facts - d.facts
        assert v.keys() - v.values() == d.facts - want.facts
        unchanged += any(f.fact_id == c.fact_id and f.args[c.position - 1:c.position] == (NULL,)
                         for c in changes for f in d.facts)
        changed += bool(nulled)
    assert min(unchanged, changed) > 30  # some positions were null already


def test_null_repairs_build_each_nulled_fact_once(tmp_path, monkeypatch):
    # four two-fact key conflicts: each repair nulls one of the four
    # positions of each pair, 4^4 repairs from 16 distinct nulled facts,
    # each built once for the whole report
    (tmp_path / "d.facts").write_text(" ".join(f"A({2 * k + v + 1};k{k},v{v})." for k in range(4) for v in range(2)))
    (tmp_path / "key.dlq").write_text(":- A(X,Y), A(X,Z), Y != Z.\n")
    monkeypatch.chdir(tmp_path)
    builds = []
    nulled = preferences._nulled

    def counting(f, positions):
        builds.append((f, frozenset(positions)))
        return nulled(f, positions)

    monkeypatch.setattr(preferences, "_nulled", counting)
    code, out, err = execute(["repairs", "-i", "d.facts", "-c", "key.dlq", "--semantics", "null", "--json"])
    assert (code, err) == (0, "")
    found = json.loads(out)["result"]["repairs"]
    # each repair keeps the four facts it does not change and has four nulled ones
    assert len(found) == 256
    assert all(len(r["facts"]) == 8 and sum("null" in f for f in r["facts"]) == 4 == len(r["diff"]) for r in found)
    assert len(builds) == len(set(builds)) == 16


def test_changes_and_tuple_causes_go_by_predicate_and_id():
    # outside the parser two predicates may share a tuple id: a change to
    # R[1;2] leaves S(1;...) alone, and each is a tuple-level cause
    r, s = Fact("R", ("a", "b"), fact_id=1), Fact("S", ("b", "d"), fact_id=1)
    d = Instance(frozenset({r, s}))
    v = change_applier(d)(frozenset({AttrChange("R", 1, 2)}))
    assert v == {r: Fact("R", ("a", NULL), fact_id=1)}
    assert _repaired(d, v).facts == {Fact("R", ("a", NULL), fact_id=1), s}
    attr, tuples = null_causes(d, single_query("q :- R(X,Y), S(Y,Z).\n"))
    assert [(str(c), rho) for c, rho in attr] == [("R[1;2]", 1), ("S[1;1]", 1)]
    assert tuples == ((r, Fraction(1)), (s, Fraction(1)))


def test_a_fact_nulled_across_two_conflict_components():
    # A(1)'s first position joins B(2), its second B(3): two components,
    # and a change set that takes A's position from both nulls it once, at both
    d = parse_instance("A(1;k,v). B(2;k). B(3;v).")
    _, sigma = parse_program(":- A(X,Y), B(X).\n:- A(X,Y), B(Y).\n")
    solution = null_repairs(d, sigma)
    assert len(solution.parts) == 2
    assert _diffs(solution) == {
        frozenset({"A[1;1]", "A[1;2]"}),
        frozenset({"A[1;1]", "B[3;1]"}),
        frozenset({"B[2;1]", "A[1;2]"}),
        frozenset({"B[2;1]", "B[3;1]"}),
    }
    a = Fact("A", ("k", "v"), fact_id=1)
    v = change_applier(d)(frozenset({AttrChange("A", 1, 1), AttrChange("A", 1, 2)}))
    assert v == {a: Fact("A", (NULL, NULL), fact_id=1)}
    assert _repaired(d, v).facts == d.facts - {a} | {Fact("A", (NULL, NULL), fact_id=1)}


def test_null_repair_published_diff_values():
    d16 = load_instance("ex16.facts")
    sigma = load_constraints("ex2.dlq")
    diffs = _diffs(null_repairs(d16, sigma))
    assert frozenset({"R[2;1]", "R[3;2]"}) in diffs
    assert frozenset({"R[2;1]", "S[6;1]"}) in diffs


def test_null_repair_results_are_consistent_and_diffs_antichain():
    d16 = load_instance("ex16.facts")
    sigma = load_constraints("ex2.dlq")
    diffs = null_repairs(d16, sigma).sets
    apply = change_applier(d16)
    for s in diffs:
        repaired = _repaired(d16, apply(s))
        assert is_consistent(repaired, sigma)
        assert len(repaired) == len(d16)  # no deletions, ever
    for a in diffs:
        for b in diffs:
            assert not (a < b)


def test_null_repairs_consistent_instance():
    d = parse_instance("S(1;a1).")
    sigma = load_constraints("ex2.dlq")
    (only,) = null_repairs(d, sigma).sets
    assert only == frozenset() and change_applier(d)(only) == {}


def test_null_repairs_require_ids():
    d = parse_instance("S(a3). R(a3,a3).")
    with pytest.raises(SemanticError):
        null_repairs(d, load_constraints("ex2.dlq"))


def test_null_repairs_unrepairable_single_atom_constraint():
    d = parse_instance("P(1;a).")
    _, sigma = parse_program(":- P(X).\n")
    assert null_repairs(d, sigma).sets == ()


def test_null_causes_fixture():
    d16 = load_instance("ex16.facts")
    q = load_query("ex1.dlq")
    attr, tuples = null_causes(d16, q)
    attr_map = {str(a): rho for a, rho in attr}
    assert attr_map["R[2;1]"] == Fraction(1, 2)
    tuple_map = {str(t): rho for t, rho in tuples}
    assert tuple_map["R(2;a3,a3)"] == Fraction(1, 2)
    assert tuple_map["S(5;a3)"] == Fraction(1)


def test_null_attr_responsibility_never_exceeds_tuple_responsibility():
    d16 = load_instance("ex16.facts")
    q = load_query("ex1.dlq")
    attr, tuples = null_causes(d16, q)
    tuple_map = {t.fact_id: rho for t, rho in tuples}
    for change, rho in attr:
        assert rho <= tuple_map[change.fact_id]


def _null_causes_by_enumeration(d, q):
    """``null_causes`` as it was: every null repair enumerated, and the
    smallest change set kept per position and per tuple."""
    attr_best, tuple_best = {}, {}
    for s in null_repairs(d, dc_of_query(q)).sets:
        size = len(s)
        for c in s:
            attr_best[c] = min(size, attr_best.get(c, size))
            tuple_best[c.fact_id] = min(size, tuple_best.get(c.fact_id, size))
    by_id = {f.fact_id: f for f in d.facts}
    attr = tuple((c, Fraction(1, attr_best[c])) for c in sorted(attr_best, key=attr_key))
    return attr, tuple((by_id[i], Fraction(1, tuple_best[i])) for i in sorted(tuple_best))


NULL_QUERIES = (
    "q :- S(X), R(X,Y), S(Y).\n",
    # kill sets nest: each S(X),R(X,Y) image's lies inside a chain image's
    "q :- S(X), R(X,Y).\nq :- S(X), R(X,Y), S(Y).\n",
    "q :- R(X,a), S(X).\nq :- R(X,Y), R(Y,X), X != Y.\n",
)


def _chain_with_ids(rng):
    atoms = set()
    for _ in range(rng.randint(1, 5)):
        atoms.add(("R", (rng.choice("abc"), rng.choice("abc"))))
        atoms.add(("S", (rng.choice("abc"),)))
    return Instance(frozenset(
        Fact(pred, args, fact_id=i) for i, (pred, args) in enumerate(sorted(atoms), 1)
    ))


def _keyed_with_ids(rng):
    atoms = {("A", (f"k{rng.randrange(3)}", f"v{rng.randrange(4)}")) for _ in range(rng.randint(1, 7))}
    return Instance(frozenset(
        Fact(pred, args, fact_id=i) for i, (pred, args) in enumerate(sorted(atoms), 1)
    ))


def test_null_causes_equal_the_enumerated_repairs_randomized():
    rng = random.Random(29)
    key_query = single_query("q :- A(X,Y), A(X,Z), Y != Z.\n")
    queries = [single_query(text) for text in NULL_QUERIES]
    caused = 0
    for _ in range(150):
        cases = [(_keyed_with_ids(rng), key_query)]
        cases += [(_chain_with_ids(rng), q) for q in queries]
        for d, q in cases:
            got = null_causes(d, q)
            assert got == _null_causes_by_enumeration(d, q)
            caused += bool(got[0])
    assert caused > 300


def test_null_causes_keyed_scaling_reference():
    # 30 disjoint key conflicts with 4^30 null repairs: each nulls one of
    # the four positions of every conflict, so each position and tuple
    # there has responsibility 1/30 and nothing else is a cause
    d = seeded_keyed((2,) * 30, 50)
    attr, tuples = null_causes(d, single_query("q :- A(X,Y), A(X,Z), Y != Z.\n"))
    conflicting = {f for f in d.facts if sum(g.args[0] == f.args[0] for g in d.facts) == 2}
    assert len(conflicting) == 60
    assert {rho for _, rho in attr} == {rho for _, rho in tuples} == {Fraction(1, 30)}
    assert {t for t, _ in tuples} == conflicting
    assert len(attr) == 4 * 30


def test_null_causes_unrepairable_single_atom_constraint():
    d = parse_instance("P(1;a). S(2;b).")
    assert null_causes(d, single_query("q :- P(X).\n")) == ((), ())
    mixed = single_query("q :- P(X).\nq :- S(X), P(X).\n")
    assert null_causes(d, mixed) == ((), ())


def test_null_causes_require_ids():
    d = parse_instance("S(a3). R(3;a3,a3).")
    with pytest.raises(SemanticError, match="no tuple id"):
        null_causes(d, load_query("ex1.dlq"))


def test_kill_sets_follow_query_atom_order():
    # the join binds S(a) first; the kill set must still name S's position
    d = parse_instance("R(1;b,c). S(2;a).")
    sigma = constraint_set(":- R(X,Y), S(a).\n")
    assert _kill_sets(d, sigma) == [frozenset({AttrChange("S", 2, 1)})]

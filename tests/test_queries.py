import random
from collections import Counter

import pytest
from hypothesis import given, settings

from causerepair import queries
from causerepair.errors import ParseError, SemanticError
from causerepair.parsing import parse_instance, parse_program, single_query
from causerepair.queries import (
    Atom,
    ConjunctiveQuery,
    UnionQuery,
    Var,
    _extend,
    _inequalities_hold,
    answer_dc,
    dc_of_query,
    eval_answers,
    eval_boolean,
    iter_matches,
    violation_view,
    witnesses,
)
from causerepair.relational import NULL, Fact, Instance, fact, fact_key

from conftest import (
    conjunctive_queries,
    load_constraints,
    load_instance,
    load_query,
    random_boolean_query,
    random_instance,
    small_instances,
)


def test_parse_boolean_query():
    q = load_query("ex1.dlq")
    assert q.is_boolean
    (cq,) = q.disjuncts
    assert len(cq.atoms) == 3
    assert [a.pred for a in cq.atoms] == ["S", "R", "S"]


def test_parse_constraint():
    sigma = load_constraints("cqa2.dlq")
    (dc,) = sigma.constraints
    assert [a.pred for a in dc.body.atoms] == ["P", "R"]


def test_parse_fd_style_constraint():
    _, sigma = parse_program(":- A(X1,X2,Y), A(X1,X3,Z), Y != Z.\n")
    (dc,) = sigma.constraints
    assert len(dc.body.inequalities) == 1
    assert len(dc.body.atoms) == 2


def test_parse_union_merges_heads():
    q = load_query("ex4v.dlq")
    assert len(q.disjuncts) == 2


def test_parse_open_query_head():
    queries, _ = parse_program("ans(X) :- P(X), R(X,Y).\n")
    assert queries["ans"].free_vars == ("X",)


def test_unsafe_rule_rejected():
    with pytest.raises(SemanticError):
        parse_program(":- P(X), Y != Z.\n")
    with pytest.raises(SemanticError):
        parse_program("ans(X) :- P(Y).\n")


def test_mixed_free_variable_lists_rejected():
    with pytest.raises(SemanticError):
        parse_program("ans(X) :- P(X).\nans(X,Y) :- Q(X,Y).\n")


def test_syntax_error_carries_location():
    with pytest.raises(ParseError) as err:
        parse_program("q :- S(X), , R(X,Y).\n")
    assert "line 1" in str(err.value)


def test_eval_boolean_examples():
    assert eval_boolean(load_instance("ex1.facts"), load_query("ex1.dlq"))
    assert not eval_boolean(Instance(frozenset()), load_query("ex1.dlq"))
    d4 = load_instance("ex4.facts")
    assert eval_boolean(d4, violation_view(load_constraints("ex4.dlq")))


def test_eval_answers_examples():
    queries, _ = parse_program("ans(X) :- P(X).\n")
    d4 = load_instance("ex4.facts")
    assert eval_answers(d4, queries["ans"]) == {("a",), ("e",)}
    assert eval_answers(Instance(frozenset()), queries["ans"]) == frozenset()
    queries, _ = parse_program("ans(X,Y,Z) :- R(X,Y), S(Y,Z).\n")
    d = parse_instance("R(a,b). S(b,c).")
    assert eval_answers(d, queries["ans"]) == {("a", "b", "c")}


def test_boolean_answers_are_empty_or_unit():
    q = load_query("ex1.dlq")
    assert eval_answers(load_instance("ex1.facts"), q) == {()}
    assert eval_answers(Instance(frozenset()), q) == frozenset()


def test_missing_predicate_is_empty_relation():
    q = single_query("q :- Missing(X).\n")
    assert not eval_boolean(load_instance("ex1.facts"), q)


def test_dc_of_query_examples():
    sigma = dc_of_query(load_query("ex1.dlq"))
    assert len(sigma) == 1
    assert [a.pred for a in sigma.constraints[0].body.atoms] == ["S", "R", "S"]
    sigma4 = dc_of_query(load_query("ex4v.dlq"))
    assert len(sigma4) == 2
    single = dc_of_query(single_query("q :- P(X).\n"))
    assert len(single) == 1


def test_dc_of_query_rejects_free_variables():
    queries, _ = parse_program("ans(X) :- P(X).\n")
    with pytest.raises(SemanticError):
        dc_of_query(queries["ans"])


def test_duality_roundtrip():
    q = load_query("ex1.dlq")
    assert violation_view(dc_of_query(q)) == q
    sigma = load_constraints("ex4.dlq")
    assert dc_of_query(violation_view(sigma)) == sigma


def test_fd_violation_view_is_evaluable():
    _, sigma = parse_program(":- A(X1,X2,Y), A(X1,X3,Z), Y != Z.\n")
    view = violation_view(sigma)
    # two rows sharing the key but differing in the last attribute violate
    violating = parse_instance("A(k,u,v1). A(k,w,v2).")
    clean = parse_instance("A(k,u,v1). A(k2,w,v2).")
    assert eval_boolean(violating, view)
    assert not eval_boolean(clean, view)


def test_answer_dc_examples():
    queries, _ = parse_program("ans(X) :- R(X,Y), S(Y,Z).\n")
    sigma = answer_dc(queries["ans"], ("a",))
    (dc,) = sigma.constraints
    assert dc.body.atoms[0].terms[0] == "a"
    assert isinstance(dc.body.atoms[0].terms[1], Var)
    q = load_query("ex1.dlq")
    assert answer_dc(q, ()) == dc_of_query(q)
    with pytest.raises(SemanticError):
        answer_dc(queries["ans"], ("a", "b"))


def test_answer_dc_cause_of_open_answer():
    # the answer <e> to "which x has P(x)" is caused exactly by P(e)
    from causerepair.causality import actual_causes

    queries, _ = parse_program("ans(X) :- P(X).\n")
    d4 = load_instance("ex4.facts")
    sigma = answer_dc(queries["ans"], ("e",))
    causes = actual_causes(d4, violation_view(sigma))
    assert {str(f) for f in causes} == {"P(e)"}


def test_null_never_joins():
    q = load_query("ex1.dlq")
    d = parse_instance("S(null). R(null,a3). S(a3).")
    assert not eval_boolean(d, q)


def test_null_binds_single_occurrence():
    q = single_query("q :- S(X).\n")
    assert eval_boolean(parse_instance("S(null)."), q)


def test_null_fails_comparisons():
    q = single_query("q :- S(X), P(Y), X != Y.\n")
    assert not eval_boolean(parse_instance("S(null). P(null)."), q)
    assert not eval_boolean(parse_instance("S(null). P(a)."), q)
    assert eval_boolean(parse_instance("S(b). P(a)."), q)


def test_query_constant_null_matches_nothing():
    q = single_query("q :- S(null).\n")
    assert not eval_boolean(parse_instance("S(null)."), q)


def test_monotonicity_on_random_instances():
    rng = random.Random(20240811)
    for _ in range(60):
        d = random_instance(rng)
        q = random_boolean_query(rng)
        smaller = Instance(
            frozenset(f for f in d.facts if rng.random() < 0.6)
        )
        if eval_boolean(smaller, q):
            assert eval_boolean(d, q)


def test_duality_iff_violation_on_random_instances():
    rng = random.Random(7)
    for _ in range(40):
        d = random_instance(rng)
        q = random_boolean_query(rng)
        sigma = dc_of_query(q)
        assert eval_boolean(d, violation_view(sigma)) == eval_boolean(d, q)


# ---------------------------------------------------------------------------
# The indexed join against plain nested loops


def nested_loop_matches(facts, cq):
    """The unindexed evaluator: each atom scans its whole predicate, in
    query order.  The reference for ``iter_matches``."""
    index = {}
    for f in facts:
        index.setdefault(f.pred, []).append(f)

    def walk(pos, binding, used):
        if pos == len(cq.atoms):
            if _inequalities_hold(cq, binding):
                yield tuple(used), binding
            return
        atom = cq.atoms[pos]
        for f in index.get(atom.pred, ()):
            if f.arity != len(atom.terms):
                continue
            extended = _extend(binding, tuple(enumerate(atom.terms)), f.args)
            if extended is None:
                continue
            used.append(f)
            yield from walk(pos + 1, extended, used)
            used.pop()

    yield from walk(0, {}, [])


def _canonical(matches) -> Counter:
    return Counter(
        (tuple(fact_key(f) for f in used), tuple(sorted(binding.items())))
        for used, binding in matches
    )


# R is used at two arities; null is an ordinary constant of the domain
_JOIN_PREDS = (("P", 1), ("R", 1), ("R", 2), ("S", 2), ("T", 3))
_JOIN_CONSTANTS = ("a", "b", "c", NULL)


def _random_join_instance(rng: random.Random) -> Instance:
    facts = set()
    for _ in range(rng.randint(4, 30)):
        pred, arity = rng.choice(_JOIN_PREDS)
        args = tuple(rng.choice(_JOIN_CONSTANTS) for _ in range(arity))
        fact_id = len(facts) + 1 if rng.random() < 0.3 else None
        facts.add(Fact(pred, args, fact_id=fact_id))
    return Instance(frozenset(facts))


def _random_join_query(rng: random.Random) -> ConjunctiveQuery:
    atoms = []
    for _ in range(rng.randint(1, 3)):
        pred, arity = rng.choice(_JOIN_PREDS)
        terms = tuple(
            Var(rng.choice("XYZ")) if rng.random() < 0.75 else rng.choice(_JOIN_CONSTANTS)
            for _ in range(arity)
        )
        atoms.append(Atom(pred, terms))
    variables = sorted({t.name for a in atoms for t in a.terms if isinstance(t, Var)})
    inequalities = ()
    if variables and rng.random() < 0.4:
        left = rng.choice(variables)
        right = rng.choice([Var(v) for v in variables if v != left] + list(_JOIN_CONSTANTS))
        inequalities = ((Var(left), right),)
    return ConjunctiveQuery(tuple(atoms), inequalities)


def test_indexed_join_agrees_with_nested_loops():
    rng = random.Random(20261018)
    nonempty = 0
    for _ in range(1000):
        d = _random_join_instance(rng)
        cq = _random_join_query(rng)
        expected = _canonical(nested_loop_matches(d.facts, cq))
        assert _canonical(iter_matches(d.facts, cq)) == expected, (str(d), str(cq))
        nonempty += bool(expected)
    assert nonempty > 250  # the comparison is not vacuous


def _chain_instance(rng: random.Random, n: int) -> Instance:
    """n draws of R(a_j,a_k) and S(a_m) over a domain of n constants."""
    facts = set()
    for _ in range(n):
        j, k, m = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        facts.add(fact("R", f"a{j}", f"a{k}"))
        facts.add(fact("S", f"a{m}"))
    return Instance(frozenset(facts))


def test_join_work_is_linear_on_a_chain_instance(monkeypatch):
    d = _chain_instance(random.Random(0), 1000)
    assert len(d) > 1500
    calls = 0

    def counting_extend(*args):
        nonlocal calls
        calls += 1
        return _extend(*args)

    monkeypatch.setattr(queries, "_extend", counting_extend)
    (cq,) = single_query("q :- S(X), R(X,Y), S(Y).\n").disjuncts
    images = witnesses(d.facts, cq)
    s_values = {f.args[0] for f in d.facts if f.pred == "S"}
    assert images == {
        frozenset({fact("S", f.args[0]), f, fact("S", f.args[1])})
        for f in d.facts
        if f.pred == "R" and f.args[0] in s_values and f.args[1] in s_values
    }
    assert calls <= 2 * len(d)


def test_matches_come_in_query_atom_order():
    (cq,) = single_query("q :- R(X,Y), S(a).\n").disjuncts
    assert [step.atom for step in _join_order(cq)] == [1, 0]  # S(a) is bound first
    d = parse_instance("R(b,c). S(a).")
    ((used, binding),) = iter_matches(d.facts, cq)
    assert used == (fact("R", "b", "c"), fact("S", "a"))
    assert binding == {"X": "b", "Y": "c"}


@pytest.mark.parametrize("query, instance, expected", [
    ("q :- S(X), R(X,Y).", "S(null). R(null,b).", False),
    ("q :- R(X,Y), S(null).", "R(a,b). S(null).", False),
    ("q :- R(X,X).", "R(null,null).", False),
    ("q :- R(X,Y).", "R(null,b).", True),
])
def test_null_lookups_at_every_join_step(query, instance, expected):
    assert eval_boolean(parse_instance(instance), single_query(query + "\n")) is expected


# ---------------------------------------------------------------------------
# Join orders built step by step against the quadratic rule


def max_rule_order(cq, first=None):
    """The old rule, rescanning every remaining atom per step: the atom
    with the most bound positions next, ties in query order (``first``, if
    given, goes first).  The reference for plain and seeded join
    orders: (atom, key positions) per step, and how many steps broke a tie."""
    bound: set[str] = set()

    def is_bound(t) -> bool:
        return not isinstance(t, Var) or t.name in bound

    remaining = list(range(len(cq.atoms)))
    steps, ties = [], 0
    while remaining:
        counts = [sum(map(is_bound, cq.atoms[i].terms)) for i in remaining]
        ties += counts.count(max(counts)) > 1
        if first is not None and not steps:
            best = first
        else:
            best = max(remaining, key=lambda i: sum(map(is_bound, cq.atoms[i].terms)))
        remaining.remove(best)
        terms = cq.atoms[best].terms
        steps.append((best, tuple(p for p, t in enumerate(terms) if is_bound(t))))
        bound.update(t.name for t in terms if isinstance(t, Var))
    return steps, ties


def _random_order_body(rng: random.Random) -> ConjunctiveQuery:
    """Up to 12 atoms of arity 0-4 over few variables and constants, so
    repeated variables and ties in the bound counts are common."""
    atoms = []
    for _ in range(rng.randint(1, 12)):
        terms = tuple(
            Var(rng.choice("UVWXYZ"[:rng.randint(1, 6)])) if rng.random() < 0.7 else rng.choice("ab")
            for _ in range(rng.randint(0, 4))
        )
        atoms.append(Atom(rng.choice("PQR"), terms))
    return ConjunctiveQuery(tuple(atoms))


def _join_order(cq, first=None):
    """Every step of the join order that starts at ``first`` (None: the
    plain order), each built as a walk builds it."""
    order = cq._order(first)
    return [queries._step(order, depth) for depth in range(len(cq.atoms))]


def test_join_orders_agree_with_the_max_rule():
    rng = random.Random(1507)
    ties = repeated = constants = 0
    for _ in range(5000):
        cq = _random_order_body(rng)
        expected, tied = max_rule_order(cq)
        assert [(s.atom, s.key_positions) for s in _join_order(cq)] == expected, str(cq)
        first = rng.randrange(len(cq.atoms))
        seeded = [(s.atom, s.key_positions) for s in _join_order(cq, first)]
        assert seeded == max_rule_order(cq, first)[0], (str(cq), first)
        ties += tied > 0
        repeated += any(len(set(a.terms)) < len(a.terms) for a in cq.atoms)
        constants += any(not isinstance(t, Var) for a in cq.atoms for t in a.terms)
    assert min(ties, repeated, constants) > 1000  # the comparison is not vacuous


def test_join_order_steps_carry_the_unbound_terms():
    (cq,) = single_query("q :- R(X,X,a), S(X,Y), R(Y,Z,Z).\n").disjuncts
    assert [tuple(s) for s in _join_order(cq)] == [
        (0, ("R", 3), (2,), ("a",), ((0, Var("X")), (1, Var("X")))),
        (1, ("S", 2), (0,), (Var("X"),), ((1, Var("Y")),)),
        (2, ("R", 3), (0,), (Var("Y"),), ((1, Var("Z")), (2, Var("Z")))),
    ]


def test_long_bodies_order_in_linear_time():
    n = 20000
    cq = ConjunctiveQuery(tuple(Atom("R", (Var(f"X{i}"), Var(f"X{i + 1}"))) for i in range(n)))
    order = [s.atom for s in _join_order(cq)]  # quadratic: 2 * 10^8 term checks
    assert order == list(range(n))


# ---------------------------------------------------------------------------
# Seeded walks


def test_seeded_walks_find_each_match_through_a_fact_once():
    rng = random.Random(20150701)
    through = 0
    for _ in range(600):
        d = _random_join_instance(rng)
        cq = _random_join_query(rng)
        matches = list(nested_loop_matches(d.facts, cq))
        for t in d.sorted_facts:
            expected = _canonical(m for m in matches if t in m[0])
            seeded = [m for i in range(len(cq.atoms)) for m in iter_matches(d.facts, cq, (t, i))]
            assert _canonical(seeded) == expected, (str(d), str(cq), str(t))
            through += bool(expected)
    assert through > 500


@settings(max_examples=300)
@given(small_instances(), conjunctive_queries())
def test_each_seed_walks_the_matches_that_first_map_to_it(d, cq):
    matches = list(nested_loop_matches(d.facts, cq))
    for t in d.sorted_facts:
        for i in range(len(cq.atoms)):
            expected = _canonical(m for m in matches if m[0][i] == t and t not in m[0][:i])
            assert _canonical(iter_matches(d.facts, cq, (t, i))) == expected, (str(d), str(cq), str(t), i)


@pytest.mark.parametrize("body, seed", [
    ("R(X,a), S(X,Y)", fact("S", "a", "a")),  # another relation
    ("R(X,a), S(X,Y)", fact("R", "a")),  # another arity
    ("R(X,a), S(X,Y)", fact("R", "a", "b")),  # another constant
    ("R(X,null), S(X,Y)", fact("R", "a", NULL)),  # the constant null matches nothing
    ("R(X,X), S(X,Y)", fact("R", "a", "b")),  # a repeated variable
])
def test_a_seed_that_does_not_fit_its_atom_walks_nothing(body, seed):
    (cq,) = single_query(f"q :- {body}.\n").disjuncts
    facts = [fact("R", "a"), fact("R", "a", "a"), fact("R", "a", "b"), fact("R", "a", NULL),
             fact("S", "a", "a"), fact("S", "a", "b")]
    index = queries._Index(facts)
    assert list(iter_matches(index, cq, (seed, 0))) == []
    assert index.tables == {}  # the seed's step builds no table, and no later step runs


def test_seeded_walks_share_one_index_and_build_the_steps_they_reach():
    n = 1500
    cq = ConjunctiveQuery(tuple(Atom("R", (Var(f"X{i}"), Var(f"X{i + 1}"))) for i in range(n)))
    d = parse_instance("R(a,b). R(b,c). R(c,a).")
    index = queries._Index(d.facts)
    t = fact("R", "a", "b")
    # from atom 900, atom 897 would take t again, which only walks from
    # atom 0, 1 or 2 may do
    assert list(iter_matches(index, cq, (t, 900))) == []
    assert [s.atom for s in cq._order(900)[0]] == [900, 899, 898, 897]
    ((used, _),) = iter_matches(index, cq, (t, 0))
    assert used[:4] == (t, fact("R", "b", "c"), fact("R", "c", "a"), t)
    assert len(cq._order(0)[0]) == n
    # one table per bound position, whatever the steps and walks using it
    assert set(index.tables) == {(("R", 2), (0,)), (("R", 2), (1,))}
    assert list(iter_matches(index, cq, (fact("S", "a"), 0))) == []


def test_query_checks_the_parser_cannot_reach():
    # the parser builds no empty union, and ``eval_boolean`` is for boolean queries
    with pytest.raises(SemanticError, match="at least one disjunct"):
        UnionQuery(())
    (cq,) = single_query("ans(X) :- S(X).\n").disjuncts
    with pytest.raises(SemanticError, match="without free variables"):
        eval_boolean(parse_instance("S(a)."), UnionQuery((cq,)))

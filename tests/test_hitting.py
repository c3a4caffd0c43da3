import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causerepair
from causerepair import hitting
from causerepair.causality import most_responsible_causes
from causerepair.errors import BoundExceededError, CapExceededError
from causerepair.hitting import (
    HittingSolution,
    antichain,
    endogenous_part,
    endogenous_support_sets,
    enumerate_minimal_hitting_sets,
    forced_minima,
    minimal_sets,
    minimum_members,
    minimum_size,
    support_sets,
)
from causerepair.oracle import oracle_hitting
from causerepair.parsing import constraint_set, parse_instance, parse_program, single_query
from causerepair.preferences import AttrChange, _kill_family, attr_key
from causerepair.queries import _Index, dc_of_query, violation_view, witnesses
from causerepair.relational import Fact, Instance, fact, fact_key, set_key

from conftest import (
    CQA_DC,
    containing,
    load_constraints,
    load_instance,
    load_query,
    explain_pool,
    mask_families,
    random_boolean_query,
    random_instance,
    seeded_chain,
    seeded_keyed,
    small_instances,
    smallest,
)


def _names(family):
    return [sorted(str(f) for f in e) for e in family]


def _through(edges, t):
    """The least size of a minimal hitting set holding ``t``."""
    return forced_minima(edges, among=[t])[t]


def _below(edges, t, k):
    """Whether that size is below ``k``: asked within ``most=k - 1``."""
    return forced_minima(edges, among=[t], most=k - 1)[t] is not None


def test_support_sets_union_example():
    d4 = load_instance("ex4.facts")
    view = violation_view(load_constraints("ex4.dlq"))
    assert _names(support_sets(d4, view)) == [
        ["P(a)", "Q(a,b)"],
        ["P(a)", "R(a,c)"],
    ]


def test_support_sets_empty_when_query_false():
    d = parse_instance("P(a).")
    assert len(support_sets(d, load_query("ex1.dlq"))) == 0


def test_support_sets_self_join_example():
    d8 = load_instance("ex8.facts")
    q8 = load_query("ex8.dlq")
    assert _names(support_sets(d8, q8)) == [
        ["P(a)", "P(c)", "R(a,c)"],
        ["P(a)", "R(a,a)"],
    ]


def test_endogenous_support_sets_example():
    d6 = load_instance("ex6.facts")
    view = violation_view(load_constraints("ex4.dlq"))
    assert _names(endogenous_support_sets(d6, view)) == [["P(a)"]]


def test_endogenous_support_sets_all_endogenous():
    d4 = load_instance("ex4.facts")
    view = violation_view(load_constraints("ex4.dlq"))
    assert endogenous_support_sets(d4, view) == support_sets(d4, view)


def test_all_endogenous_family_is_minimized_once(monkeypatch):
    # the endogenous restriction of an all-endogenous family is the
    # identity, so the support family is not minimized a second time
    d4 = load_instance("ex4.facts")
    view = violation_view(load_constraints("ex4.dlq"))
    calls = []

    def counted(sets):
        calls.append(1)
        return minimal_sets(sets)

    monkeypatch.setattr(hitting, "minimal_sets", counted)
    assert len(endogenous_support_sets(d4, view)) == 2
    assert len(calls) == 1


def test_fully_exogenous_support_collapses_family():
    d = parse_instance("@exogenous\nP(a). Q(a,b).\n@endogenous\nP(b).")
    view = violation_view(load_constraints("ex4.dlq"))
    # the witness {P(a),Q(a,b)} has no endogenous part: its empty edge
    # absorbs every other, and nothing hits it, so nothing is a cause
    assert endogenous_support_sets(d, view) == (frozenset(),)
    # which is the plain restriction
    assert endogenous_part(support_sets(d, view), d.endogenous) == (frozenset(),)
    assert enumerate_minimal_hitting_sets((frozenset(),)).sets == ()


def test_enumerate_example_seven():
    d4 = load_instance("ex4.facts")
    view = violation_view(load_constraints("ex4.dlq"))
    solution = enumerate_minimal_hitting_sets(endogenous_support_sets(d4, view))
    assert _names(solution.sets) == [["P(a)"], ["Q(a,b)", "R(a,c)"]]


def test_enumerate_empty_family_yields_empty_set():
    solution = enumerate_minimal_hitting_sets(())
    assert solution.sets == (frozenset(),)


def test_enumerate_scaling_instance_n2():
    src = "R(1,0). R(1,1). R(2,0). R(2,1). S(0). S(1)."
    d = parse_instance(src)
    _, sigma = parse_program(":- R(X,Y), R(X,Z), S(Y), S(Z), Y != Z.\n")
    edges = endogenous_support_sets(d, violation_view(sigma))
    solution = enumerate_minimal_hitting_sets(edges)
    assert len(solution.sets) == 6
    brute, _, _ = oracle_hitting(d.endogenous, edges)
    assert set(solution.sets) == set(brute)


def test_enumeration_cap():
    d = parse_instance(
        " ".join(f"R({i},0). R({i},1)." for i in range(1, 5)) + " S(0). S(1)."
    )
    _, sigma = parse_program(":- R(X,Y), R(X,Z), S(Y), S(Z), Y != Z.\n")
    edges = endogenous_support_sets(d, violation_view(sigma))
    with pytest.raises(CapExceededError):
        enumerate_minimal_hitting_sets(edges, cap=3)
    # the cap counts the sets found, not intermediate partial solutions:
    # the 4-cycle a-b-d-c has exactly the two covers {a,d} and {b,c}
    a, b, c, d = (fact("V", x) for x in "abcd")
    cycle = antichain([frozenset(p) for p in ((a, b), (a, c), (b, d), (c, d))])
    covers = enumerate_minimal_hitting_sets(cycle, cap=2).sets
    assert set(covers) == {frozenset({a, d}), frozenset({b, c})}
    with pytest.raises(CapExceededError):
        enumerate_minimal_hitting_sets(cycle, cap=1)


def test_hitting_sets_deeper_than_the_recursion_limit():
    # the search keeps its own stack: one set may have thousands of members
    n = sys.getrecursionlimit() + 100
    edges = tuple(frozenset({fact("V", str(i))}) for i in range(n))
    assert enumerate_minimal_hitting_sets(edges).sets == (frozenset().union(*edges),)
    assert minimum_size(edges) == n
    assert _through(edges, fact("V", "0")) == n


def _sets_bit_by_bit(solution):
    """``HittingSolution.sets`` built mask by mask, kept as the reference:
    every product member's mask summed, its vertex indexes sorted, then a
    frozenset per member."""
    if prod(map(len, solution.parts)) > solution.cap:
        raise CapExceededError(solution.cap)
    bit = {v: 1 << i for i, v in enumerate(solution.vertices)}
    masks = product(*([sum(bit[v] for v in s) for s in part] for part in solution.parts))
    sets = sorted([v.bit_length() - 1 for v in hitting._bits(sum(c))] for c in masks)
    return tuple(frozenset([solution.vertices[i] for i in s]) for s in sets)


def _assert_sets_as_built_bit_by_bit(edges):
    solution = enumerate_minimal_hitting_sets(edges)
    everything = _sets_bit_by_bit(solution)
    assert solution.sets == everything
    least = enumerate_minimal_hitting_sets(edges, smallest=True)
    assert least.sets == _sets_bit_by_bit(least) == _sets_bit_by_bit(solution.kept(smallest))
    for t in solution.vertices + [fact("S", "absent")]:
        through = enumerate_minimal_hitting_sets(edges, through=t)
        assert through.sets == _sets_bit_by_bit(through) == _sets_bit_by_bit(containing(solution, t))
    # any one-to-one ``at`` renumbers before the sorts: here a decreasing
    # dict, which reverses each member's numbers and reorders the members
    at = {i: 2 * (len(solution.vertices) - i) for i in range(len(solution.vertices))}
    position = {v: i for i, v in enumerate(solution.vertices)}
    assert solution.indexes(at) == sorted(sorted(at[position[v]] for v in s) for s in everything)
    # the cap counts the product before any member is built
    n = len(everything)
    assert HittingSolution(solution.vertices, solution.parts, n).sets == everything
    if n:  # else an empty edge's component has no set, and others may have some
        assert enumerate_minimal_hitting_sets(edges, cap=n).sets == everything
        with pytest.raises(CapExceededError):
            HittingSolution(solution.vertices, solution.parts, n - 1).sets
        with pytest.raises(CapExceededError):
            enumerate_minimal_hitting_sets(edges, cap=n - 1).sets


@settings(max_examples=200)
@given(mask_families())
def test_sets_equal_the_bit_by_bit_product_on_block_families(masks):
    # several components, now and then an empty edge
    edges = [frozenset(_VERTEX[v.bit_length() - 1] for v in hitting._bits(e)) for e in masks]
    _assert_sets_as_built_bit_by_bit(edges)


@settings(max_examples=200)
@given(mask_families())
def test_kept_sets_are_the_filtered_enumeration_on_mask_families(masks):
    # through every vertex, one absent vertex and none, each with and
    # without smallest: the reference filters the whole enumeration
    edges = [frozenset(_VERTEX[v.bit_length() - 1] for v in hitting._bits(e)) for e in masks]
    solution = enumerate_minimal_hitting_sets(edges)
    everything = list(solution.sets)
    for t in [None, fact("S", "absent")] + solution.vertices:
        through = everything if t is None else [s for s in everything if t in s]
        for least in (False, True):
            found = enumerate_minimal_hitting_sets(edges, through=t, smallest=least).sets
            assert found == tuple(smallest(through) if least else through), (t, least)


@st.composite
def _fact_families(draw):
    """Edges over the facts of a small instance: tuple ids, shared ones
    among them, so facts with one atom differ by their id alone."""
    facts = sorted(draw(small_instances(8)).facts, key=fact_key)
    if not facts:
        return []
    edge = st.lists(st.sampled_from(facts), min_size=1, max_size=3, unique=True)
    return [frozenset(e) for e in draw(st.lists(edge, max_size=6))]


@settings(max_examples=200)
@given(_fact_families())
def test_sets_equal_the_bit_by_bit_product_on_fact_families(edges):
    _assert_sets_as_built_bit_by_bit(edges)


def _set_key_order(sets, key):
    """The enumeration's order before it sorted vertex indexes: each set's
    sorted member keys, compared as lists."""
    return tuple(sorted(sets, key=lambda s: sorted(key(x) for x in s)))


@pytest.mark.parametrize("key", [fact_key, attr_key], ids=["fact_key", "attr_key"])
def test_enumeration_order_is_the_set_key_order_randomized(key):
    rng = random.Random(23)
    for _ in range(300):
        if key is fact_key:
            pool = {
                Fact(rng.choice("AB"), (rng.choice("ab"), rng.choice("ab")), fact_id=i)
                for i in rng.choices([None, 1, 2, 3, 12], k=rng.randint(1, 10))
            }
        else:
            pool = {
                AttrChange(rng.choice("AB"), rng.randint(1, 12), rng.randint(1, 2))
                for _ in range(rng.randint(1, 10))
            }
        pool = sorted(pool, key=key)  # set order follows string hashing
        rng.shuffle(pool)
        edges = [
            frozenset(rng.sample(pool, rng.randint(1, min(3, len(pool)))))
            for _ in range(rng.randint(1, 7))
        ]
        found = enumerate_minimal_hitting_sets(edges, key=key).sets
        assert found == _set_key_order(found, key)
        assert found and all(e & s for s in found for e in edges)


def _minimal_sets_reference(sets):
    """``minimal_sets`` without its index: each set tested against every
    kept one."""
    result = []
    for s in sorted(dict.fromkeys(sets), key=len):
        if not any(r <= s for r in result):
            result.append(s)
    return result


def test_minimal_sets_equal_the_plain_filter_on_random_families():
    rng = random.Random(0)
    vertices = [fact("P", f"a{i}") for i in range(8)]
    for trial in range(300):
        family = [frozenset(rng.sample(vertices, rng.randint(0, 4))) for _ in range(rng.randint(0, 25))]
        if trial % 3 == 0:
            family.insert(rng.randint(0, len(family)), frozenset())
        kept = minimal_sets(family)
        assert kept == _minimal_sets_reference(family)
        assert (kept == [frozenset()]) == (frozenset() in family)  # the empty set absorbs all


def test_minimal_sets_equal_the_plain_filter_on_a_large_violation_family():
    # the cqa-large family scaled up: 2,906 violations, in canonical order,
    # 500 unions of two of them and 100 proper subsets, which absorb the
    # ones they come from
    d = Instance(seeded_chain(6000, 12000).facts | seeded_keyed((2,) * 2000, 20000).facts)
    index = _Index(d)
    images = sorted((e for cq in violation_view(constraint_set(CQA_DC)).disjuncts for e in witnesses(index, cq)),
                    key=set_key)
    rng = random.Random(0)
    family = (images + [rng.choice(images) | rng.choice(images) for _ in range(500)]
              + [e - {min(e, key=fact_key)} for e in rng.sample(images, 100)])
    rng.shuffle(family)
    kept = minimal_sets(family)
    assert (len(images), len(kept)) == (2906, 2906)
    assert kept == _minimal_sets_reference(family)


def test_antichain_keeps_minimal_sets_in_canonical_order():
    a, b, c = fact("P", "a"), fact("P", "b"), fact("P", "c")
    family = [frozenset({c}), frozenset({a, b}), frozenset({a, c}), frozenset({a})]
    assert antichain(family) == (frozenset({a}), frozenset({c}))


def test_minimum_with_forced_element_example_seven():
    d4 = load_instance("ex4.facts")
    view = violation_view(load_constraints("ex4.dlq"))
    edges = endogenous_support_sets(d4, view)
    assert _through(edges, d4.find("P", ("a",))) == 1


def test_minimum_with_forced_element_self_join():
    d8 = load_instance("ex8.facts")
    edges = endogenous_support_sets(d8, load_query("ex8.dlq"))
    assert _through(edges, d8.find("R", ("a", "a"))) == 2


def test_budget_one_is_always_no():
    d4 = load_instance("ex4.facts")
    view = violation_view(load_constraints("ex4.dlq"))
    edges = endogenous_support_sets(d4, view)
    assert _below(edges, d4.find("P", ("a",)), 1) is False
    assert _below(edges, d4.find("P", ("a",)), 2) is True


def test_global_minimum_without_forced_element():
    d4 = load_instance("ex4.facts")
    edges = endogenous_support_sets(d4, violation_view(load_constraints("ex4.dlq")))
    assert minimum_size(edges) == 1


def test_forced_element_on_no_edge():
    a, b, c = fact("P", "a"), fact("P", "b"), fact("P", "c")
    edges = (frozenset({a, b}),)
    assert _through(edges, c) is None
    assert _below(edges, c, 5) is False


def test_forced_element_must_be_irredundant():
    # star family: {t,a}, {a,b}, {a,c}.  The smallest hitting set through t
    # is {t,a}, but there t is dead weight; the smallest where t matters is
    # {t,b,c}.  Deletion semantics needs the latter.
    t, a, b, c = (fact("V", x) for x in ("t", "a", "b", "c"))
    edges = antichain([frozenset({t, a}), frozenset({a, b}), frozenset({a, c})])
    assert _through(edges, t) == 3
    _, _, per_element = oracle_hitting({t, a, b, c}, edges)
    assert per_element[t] == 3


def test_oracle_hitting_refuses_a_universe_above_its_bound():
    universe = [fact("V", f"v{i}") for i in range(21)]
    edges = [frozenset(universe[:2])]
    assert oracle_hitting(universe[:20], edges)[1] == 1
    with pytest.raises(BoundExceededError, match="universe of 21 exceeds bound 20"):
        oracle_hitting(universe, edges)


def _assert_agrees_with_oracle(universe, edges):
    """Enumeration, every minimum, forced minimum and budget decision,
    checked against the oracle and against each other: minima drop
    vertices and edges, split components and prune by packings, while
    enumeration does none of that."""
    enumerated = enumerate_minimal_hitting_sets(edges).sets
    brute_sets, brute_min, per_element = oracle_hitting(universe, edges)
    assert set(enumerated) == set(brute_sets)
    smallest = min((len(s) for s in enumerated), default=None)
    assert minimum_size(edges) == brute_min == smallest
    for u in universe:
        through = min((len(s) for s in enumerated if u in s), default=None)
        assert _through(edges, u) == per_element[u] == through
        for k in range(1, 7):
            expected = through is not None and through < k
            assert _below(edges, u, k) is expected
            assert forced_minima(edges, among=[u], most=k - 1) == {u: through if expected else None}
    on_edges = {v for e in edges for v in e}
    assert forced_minima(edges) == {u: per_element[u] for u in on_edges}


def test_oracle_agreement_on_random_frameworks():
    rng = random.Random(99)
    for _ in range(60):
        universe = [fact("U", str(i)) for i in range(rng.randint(1, 10))]
        drawn = set()
        for _ in range(rng.randint(0, 8)):
            size = rng.randint(1, min(3, len(universe)))
            drawn.add(frozenset(rng.sample(universe, size)))
        # the solvers need no antichain: a raw family has the same answers
        for edges in (tuple(drawn), antichain(drawn)):
            _assert_agrees_with_oracle(universe, edges)


def _block_family(rng):
    """A random family over two to four vertex-disjoint blocks.  Each
    block holds chain-shaped edges {S(x), R(x,y), S(y)}, whose R vertex
    lies on one edge only and so is dominated by S(x), plus raw draws
    over its vertices that may contain an earlier edge."""
    edges = []
    for b in range(rng.randint(2, 4)):
        names = [f"{b}{i}" for i in range(rng.randint(1, 3))]
        block = []
        for _ in range(rng.randint(1, 2)):
            x, y = rng.choice(names), rng.choice(names)
            block.append(frozenset({fact("S", x), fact("R", x, y), fact("S", y)}))
        universe = sorted({v for e in block for v in e}, key=str)
        for _ in range(rng.randint(0, 2)):
            block.append(frozenset(rng.sample(universe, rng.randint(1, min(3, len(universe))))))
        edges += block
    if rng.random() < 0.05:
        edges.append(frozenset())
    return edges


def test_split_reduced_search_agrees_with_oracle_on_block_families():
    rng = random.Random(7)
    checked = 0
    while checked < 40:
        edges = _block_family(rng)
        universe = {v for e in edges for v in e}
        if len(universe) <= 12:
            _assert_agrees_with_oracle(universe, edges)
            checked += 1


def test_sets_containing_a_vertex_are_the_filtered_enumeration_on_block_families():
    # several components, dominated vertices, now and then an empty edge
    rng = random.Random(8)
    shapes = set()
    for _ in range(200):
        edges = _block_family(rng)
        everything = enumerate_minimal_hitting_sets(edges).sets
        for t in sorted({v for e in edges for v in e}, key=fact_key) + [fact("S", "absent")]:
            through = [s for s in everything if t in s]
            assert enumerate_minimal_hitting_sets(edges, through=t).sets == tuple(through)
            least = enumerate_minimal_hitting_sets(edges, through=t, smallest=True)
            assert least.sets == tuple(smallest(through))
            shapes.add((bool(through), len(hitting._components(hitting._table(edges)[1]))))
    assert {(True, 2), (True, 4), (False, 2), (False, 4)} <= shapes


def test_the_smallest_search_visits_only_the_kept_sets(monkeypatch):
    # a spy on each enumeration search: under smallest, ``found`` sees each
    # kept set once (all of one size, through the asked vertex if any) and
    # no other; without it, sets of other sizes are seen too
    visits = []  # per enumeration search: its bound, vertex and the masks found
    search = hitting._search

    def spied(masks, found, most=None, through=0):
        if found.__qualname__ == "enumerate_minimal_hitting_sets.<locals>.add":
            seen = []
            visits.append((most, through, seen))
            found = lambda chosen, found=found: seen.append(chosen) or found(chosen)
        search(masks, found, most, through)

    monkeypatch.setattr(hitting, "_search", spied)
    rng = random.Random(9)
    families = [_block_family(rng) for _ in range(60)]
    families.append(support_sets(seeded_chain(40, 40), single_query("q :- S(X), R(X,Y), S(Y).")))
    sizes_without = set()
    for edges in families:
        for t in [None] + sorted({v for e in edges for v in e}, key=fact_key)[:6]:
            visits.clear()
            solution = enumerate_minimal_hitting_sets(edges, through=t, smallest=True)
            assert sum(len(seen) for _, _, seen in visits) == sum(map(len, solution.parts))
            for most, through, seen in visits:
                assert {c.bit_count() for c in seen} <= {most}
                assert all(c & through == through for c in seen)
            visits.clear()
            enumerate_minimal_hitting_sets(edges, through=t)
            sizes_without |= {len({c.bit_count() for c in seen}) for _, _, seen in visits}
    assert max(sizes_without) > 1


def test_cardinality_sets_are_the_smallest_of_the_enumeration_on_chain_60():
    # 76,383 C-sets; the reference keeps the smallest of each component's
    # minimal sets, all of them enumerated
    edges = support_sets(seeded_chain(60, 60), single_query("q :- S(X), R(X,Y), S(Y)."))
    least = enumerate_minimal_hitting_sets(edges, smallest=True)
    assert least.parts == enumerate_minimal_hitting_sets(edges).kept(smallest).parts
    assert prod(map(len, least.parts)) == 76_383


def _generator_reduced(masks):
    """The kernel as first written, kept as the reference for the flat
    loops of ``hitting._reduced``: a generator of bits per edge, and
    ``any`` over one for each subset and each domination test."""
    taken = 0
    while True:
        kept = []
        lowest = {}  # vertex -> kept edges it is lowest on
        for e in sorted(set(masks), key=int.bit_count):  # units come first
            if e & taken:
                continue
            if not e & (e - 1):  # no vertex or one
                if not e:
                    return None
                taken |= e
            elif not any(k & e == k for v in hitting._bits(e) for k in lowest.get(v, ())):
                kept.append(e)
                lowest.setdefault(e & -e, []).append(e)
        common = {}  # vertex -> the vertices on all its edges
        for e in kept:
            for v in hitting._bits(e):
                common[v] = common.get(v, e) & e
        dropped = 0
        for v, others in common.items():
            others &= ~v
            if others & (v - 1) or any(not common[u] & v for u in hitting._bits(others)):
                dropped |= v
        if not dropped:
            return taken, kept
        masks = [e & ~dropped for e in kept]


def _assert_kernel_is_the_reference(masks, most=None):
    """The same taken vertices and the same edges left, in the same order;
    ``None`` past ``most`` taken vertices."""
    expected = _generator_reduced(masks)
    if expected is not None and most is not None and expected[0].bit_count() > most:
        expected = None
    assert hitting._reduced(masks, most) == expected, (masks, most)


@settings(max_examples=300)
@given(mask_families())
def test_the_flat_kernel_is_the_generator_kernel(masks):
    for most in (None, *range(-1, len(masks) + 1)):
        _assert_kernel_is_the_reference(masks, most)


def test_the_flat_kernel_is_the_generator_kernel_on_recorded_inputs(monkeypatch):
    # every kernel input of forced_minima on a dense chain and on the
    # families of the benchmark's explain-small pool, with its bound
    q, reduced, inputs = single_query("q :- S(X), R(X,Y), S(Y)."), hitting._reduced, []

    def recorded(masks, most=None):
        inputs.append((list(masks), most))
        return reduced(masks, most)

    monkeypatch.setattr(hitting, "_reduced", recorded)
    for d in [seeded_chain(100, 40), *explain_pool()]:
        forced_minima(endogenous_support_sets(d, q))
    monkeypatch.undo()
    assert len(inputs) > 200
    for masks, most in inputs:
        _assert_kernel_is_the_reference(masks, most)
        _assert_kernel_is_the_reference(masks)


def _by_rounds_reduced(masks):
    """The reduction before the unit-edge rule, kept as the reference:
    whole rounds of edge minimality and then vertex domination until
    nothing drops; unit and empty edges stay in the family."""
    while True:
        kept = []
        lowest = {}
        for e in sorted(set(masks), key=int.bit_count):
            if not any(k & e == k for v in hitting._bits(e) for k in lowest.get(v, ())):
                kept.append(e)
                lowest.setdefault(e & -e, []).append(e)
        on, common = {}, {}
        for i, e in enumerate(kept):
            for v in hitting._bits(e):
                on[v] = on.get(v, 0) | 1 << i
                common[v] = common.get(v, e) & e
        dropped = 0
        for v, others in common.items():
            others &= ~v
            if others & (v - 1) or any(on[u] != on[v] for u in hitting._bits(others)):
                dropped |= v
        if not dropped:
            return kept
        masks = [e & ~dropped for e in kept]


def _by_rounds_least(masks, most=None):
    """The reference minimum size: every component of the reduced family
    searched, its unit edges among them."""
    total = 0
    best = None

    def found(chosen):
        nonlocal best
        best = chosen.bit_count()
        return best - 1

    for _, edges in hitting._components(_by_rounds_reduced(masks)):
        best = None
        hitting._search(edges, found, None if most is None else most - total)
        if best is None:
            return None
        total += best
    return total


def _by_rounds_forced_minima(edges, key=fact_key):
    """The reference ``forced_minima``: each vertex's forced rest searched
    on its own, over every witness edge, with no bound shared."""
    vertices, masks = hitting._table(edges, key)
    parts = hitting._components(masks)
    minima = [_by_rounds_least(group) for _, group in parts]
    if None in minima:
        return dict.fromkeys(vertices)
    sizes = {}
    for (part, group), least in zip(parts, minima):
        for t in hitting._bits(part):
            rest = [e for e in group if not e & t]
            best = None
            for w in group:
                if w & t:
                    limit = None if best is None else best - 1
                    if limit is not None and limit < least - 1:
                        break
                    size = _by_rounds_least([e & ~w for e in rest], limit)
                    if size is not None:
                        best = size
            sizes[t] = None if best is None else 1 + best + sum(minima) - least
    return {v: sizes[1 << i] for i, v in enumerate(vertices)}


_VERTEX = [fact("V", str(i)) for i in range(12)]


@settings(max_examples=300)
@given(mask_families())
def test_kernel_and_forced_minima_agree_with_the_oracle(masks):
    edges = [frozenset(_VERTEX[v.bit_length() - 1] for v in hitting._bits(e)) for e in masks]
    universe = {v for e in edges for v in e}
    _, least, per_element = oracle_hitting(universe, edges)
    kernel, found = hitting._reduced(masks), hitting._least(masks)
    assert (kernel is None) == (found is None) == (least is None) == (0 in masks)
    if kernel is not None:
        # the taken vertices lie on no edge left, and joined with a
        # minimum of the edges left they hit the family at its minimum
        taken, left = kernel
        rest = hitting._least(left)
        assert not taken & rest and not any(e & taken for e in left)
        for chosen in (found, taken | rest):
            assert all(e & chosen for e in masks)
            assert chosen.bit_count() == least
    assert minimum_size(edges) == least
    assert forced_minima(edges) == {u: per_element[u] for u in sorted(universe, key=fact_key)}
    # a vertex lies in some minimum hitting set iff its least minimal one is a minimum
    assert minimum_members(edges) == (least, [u for u in sorted(universe, key=fact_key)
                                              if least is not None and per_element[u] == least])
    for u in universe:
        # every budget up to two past the size, where the answer turns
        size = per_element[u]
        for k in range(-1, (size or 0) + 3):
            assert _below(edges, u, k) is (size is not None and size < k)
    # every vertex at once, each size kept only within the bound
    for most in range(-2, len(masks) + 1):
        assert forced_minima(edges, most=most) == {
            u: None if size is None or size > most else size for u, size in per_element.items()}


def test_an_empty_family_fits_no_negative_budget():
    assert hitting._least([], -1) is None
    assert hitting._least([], 0) == 0
    assert hitting._least([0b1, 0b10], 1) is None
    assert hitting._least([0b1, 0b10], 2) == 0b11


def test_unit_edges_over_the_budget_answer_before_any_search(monkeypatch):
    # t's component is a star through a: with a forbidden, the b's are each
    # alone on an edge.  Beside it sit an odd cycle, which only a search
    # covers (three vertices), and three unit edges.  Through t the size is
    # 1 + 3 + 3 + 3; below a budget of 5 the unit edges alone exceed it
    t, a = fact("V", "t"), fact("V", "a")
    star = [frozenset({t, a})] + [frozenset({a, fact("V", f"b{i}")}) for i in range(3)]
    ring = [fact("V", f"x{i}") for i in range(5)]
    cycle = [frozenset({ring[i], ring[(i + 1) % 5]}) for i in range(5)]
    units = [frozenset({fact("V", f"c{i}")}) for i in range(3)]
    edges = star + cycle + units
    _, _, per_element = oracle_hitting({v for e in edges for v in e}, edges)
    assert per_element[t] == _through(edges, t) == 10
    for k in range(-1, 13):
        assert _below(edges, t, k) is (10 < k)

    def no_search(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(hitting, "_search", no_search)
    for k in range(-1, 5):
        assert _below(edges, t, k) is False
    # the star and the unit edges alone take no search at any budget
    for k in range(-1, 9):
        assert _below(star + units, t, k) is (7 < k)


def _nodes(call):
    """The result of ``call()`` and the number of search nodes it opened:
    each open node is one run of the generator ``branches``."""
    consts = hitting._search.__code__.co_consts
    node = next(c for c in consts if getattr(c, "co_name", "") == "branches")
    frames = set()

    def count(frame, event, arg):
        if event == "call" and frame.f_code is node:
            frames.add(frame)

    sys.setprofile(count)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return result, len(frames)


def _keyed_instance(values, conflicts, keys=50):
    # one A(k,v) per key, but ``values`` of them for ``conflicts`` keys
    rng = random.Random(0)
    conflicted = set(rng.sample(range(keys), conflicts))
    return Instance(frozenset(
        fact("A", f"k{k}", f"v{v}")
        for k in range(keys)
        for v in rng.sample(range(1000), values if k in conflicted else 1)
    ))


@pytest.mark.parametrize("instance, query, edges, causes, value, most", [
    # sparse chains: the kernel takes every vertex, and nothing is searched
    (seeded_chain(60, 60), "q :- S(X), R(X,Y), S(Y).", 32, 52, 18, 0),
    (seeded_chain(134, 134), "q :- S(X), R(X,Y), S(Y).", 55, 49, 26, 0),
    (seeded_chain(200, 200), "q :- S(X), R(X,Y), S(Y).", 97, 82, 42, 75),
    # a dense chain keeps components of up to 69 edges: the packing bound
    (seeded_chain(100, 40), "q :- S(X), R(X,Y), S(Y).", 77, 34, 20, 8_000),
    # twelve key groups of four, each a K4 that needs three deletions
    (_keyed_instance(4, 12), "q :- A(X,Y), A(X,Z), Y != Z.", 72, 48, 36, 120),
], ids=["chain-60", "chain-134", "chain-200", "dense-chain-100", "keyed-4x12"])
def test_most_responsible_causes_work_stays_bounded(instance, query, edges, causes, value, most):
    # a search over the whole family without reduction, split or bound
    # does not finish these in minutes; node counts are deterministic
    q = single_query(query)
    assert len(support_sets(instance, q)) == edges
    (top, rho), nodes = _nodes(lambda: most_responsible_causes(instance, q))
    assert (len(top), rho) == (causes, Fraction(1, value))
    assert nodes <= most


_COUNT_SEARCH_NODES = """
import sys

from causerepair import hitting
from causerepair.causality import responsibilities
from causerepair.parsing import parse_instance, single_query

# each open search node is one run of the generator ``branches``: keep
# every frame that runs its code object, and count them
consts = hitting._search.__code__.co_consts
node = next(c for c in consts if getattr(c, "co_name", "") == "branches")
frames = set()


def count(frame, event, arg):
    if event == "call" and frame.f_code is node:
        frames.add(frame)


d = parse_instance(sys.stdin.read())
q = single_query("q :- S(X), R(X,Y), S(Y).")
sys.setprofile(count)
responsibilities(d, q)
sys.setprofile(None)
print(len(frames))
"""


def _search_nodes(hash_seed: str, facts: str) -> int:
    package_root = str(Path(causerepair.__file__).parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=package_root)
    out = subprocess.run(
        [sys.executable, "-c", _COUNT_SEARCH_NODES], input=facts,
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return int(out.stdout)


def test_branching_order_ignores_string_hashing():
    # vertices are ordered by degree and fact key, edges canonically, so
    # the search visits the same nodes in every process; the dense chain
    # still branches after the kernel
    facts = str(seeded_chain(100, 40))
    first, second = _search_nodes("1", facts), _search_nodes("2", facts)
    assert first == second > 0


_CHAIN = "q :- S(X), R(X,Y), S(Y)."
_KEY = "q :- A(X,Y), A(X,Z), Y != Z."


@pytest.mark.parametrize("instance, query, null", [
    *((seeded_chain(n, n), _CHAIN, False) for n in (60, 80, 100, 134, 160, 200)),
    (seeded_chain(100, 40), _CHAIN, False),
    (_keyed_instance(4, 12), _KEY, False),
    # the kill sets that null causes read their sizes from, under attr_key
    *((seeded_keyed((2,) * k, max(50, 2 * k)), _KEY, True) for k in (1, 3, 8, 20)),
], ids=[*(f"chain-{n}" for n in (60, 80, 100, 134, 160, 200)), "dense-chain-100", "keyed-4x12",
        *(f"null-2x{k}" for k in (1, 3, 8, 20))])
def test_forced_minima_equal_the_round_based_reduction(instance, query, null):
    # beyond the oracle's bound: the kernel and the shared bounds give the
    # sizes that whole reductions per vertex and witness edge give
    q = single_query(query)
    if null:
        edges, key = _kill_family(instance, dc_of_query(q)), attr_key
    else:
        edges, key = endogenous_support_sets(instance, q), fact_key
    _, masks = hitting._table(edges, key)
    expected = _by_rounds_forced_minima(edges, key)
    assert forced_minima(edges, key) == expected
    least = hitting._least(masks)
    assert least.bit_count() == _by_rounds_least(masks)
    assert all(e & least for e in masks)
    if not null:
        for t in list(expected)[::7]:
            assert _through(edges, t) == expected[t]


def _maximum_matching(pairs):
    """A maximum matching of a bipartite graph given as (left, right)
    pairs, by augmenting paths (Kuhn), as ``{right: its left mate}``."""
    adjacent = {}
    for x, y in sorted(pairs, key=str):
        adjacent.setdefault(x, []).append(y)
    mate = {}

    def augment(x, seen):
        for y in adjacent[x]:
            if y not in seen:
                seen.add(y)
                if y not in mate or augment(mate[y], seen):
                    mate[y] = x
                    return True
        return False

    for x in adjacent:
        augment(x, set())
    return mate


def _koenig_cover(pairs, mate):
    """König's vertex cover from a maximum matching: the left vertices not
    reached, and the right ones reached, by the alternating paths from the
    unmatched left vertices."""
    adjacent = {}
    for x, y in pairs:
        adjacent.setdefault(x, []).append(y)
    matched = set(mate.values())
    stack = [x for x in adjacent if x not in matched]
    left, right = set(stack), set()
    while stack:
        for y in adjacent[stack.pop()]:
            if y not in right:
                right.add(y)
                if mate[y] not in left:  # matched, else the path augments
                    left.add(mate[y])
                    stack.append(mate[y])
    return (set(adjacent) - left) | right


@pytest.mark.parametrize("seed", range(12))
def test_minimum_size_is_a_maximum_matching_on_bipartite_graphs(seed):
    # past the oracle's 20-vertex bound: on a bipartite graph a minimum
    # vertex cover is as large as a maximum matching (König), every vertex
    # of König's cover lies in a minimum hitting set, and a vertex lies in
    # one iff the graph without it has a matching one smaller
    rng = random.Random(seed)
    n = rng.randint(15, 25)
    left, right = [fact("L", str(i)) for i in range(n)], [fact("R", str(i)) for i in range(n)]
    pairs = {(rng.choice(left), rng.choice(right)) for _ in range(rng.randint(2 * n, 4 * n))}
    edges = [frozenset(p) for p in pairs]
    mate = _maximum_matching(pairs)
    cover = _koenig_cover(pairs, mate)
    assert len(cover) == len(mate) and all(e & cover for e in edges)
    m = minimum_size(edges)
    assert m == len(mate)
    sizes = forced_minima(edges, most=m)
    assert {v: sizes[v] for v in cover} == dict.fromkeys(cover, m)
    assert sizes == {
        v: m if len(_maximum_matching({p for p in pairs if v not in p})) == m - 1 else None
        for v in sorted({v for e in edges for v in e}, key=fact_key)}


def test_hitting_vertex_cover_duality():
    # the hypergraph view and the hitting view are one object: minimal
    # vertex covers (complements of maximal independent sets) coincide
    # with the enumerated minimal hitting sets
    d8 = load_instance("ex8.facts")
    edges = endogenous_support_sets(d8, load_query("ex8.dlq"))
    covers = set(enumerate_minimal_hitting_sets(edges).sets)
    vertices = sorted(d8.endogenous, key=str)
    from itertools import combinations

    all_covers = []
    for size in range(len(vertices) + 1):
        for combo in combinations(vertices, size):
            s = frozenset(combo)
            if all(e & s for e in edges):
                all_covers.append(s)
    minimal_covers = {
        s for s in all_covers if not any(t < s for t in all_covers)
    }
    assert covers == minimal_covers
    assert _names(sorted(covers, key=lambda s: sorted(str(f) for f in s))) == [
        ["P(a)"],
        ["P(c)", "R(a,a)"],
        ["R(a,a)", "R(a,c)"],
    ]

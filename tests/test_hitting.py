import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import causerepair
from causerepair import hitting
from causerepair.causality import most_responsible_causes
from causerepair.errors import CapExceededError
from causerepair.hitting import (
    antichain,
    endogenous_part,
    endogenous_support_sets,
    enumerate_minimal_hitting_sets,
    forced_minima,
    minimal_sets,
    minimum_hitting_set_containing,
    support_sets,
)
from causerepair.oracle import oracle_hitting
from causerepair.parsing import parse_instance, parse_program, single_query
from causerepair.preferences import AttrChange, attr_key
from causerepair.queries import violation_view
from causerepair.relational import Fact, Instance, fact, fact_key
from causerepair.repairs import _smallest

from conftest import (
    load_constraints,
    load_instance,
    load_query,
    random_boolean_query,
    random_instance,
    seeded_chain,
)


def _names(family):
    return [sorted(str(f) for f in e) for e in family]


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
    assert minimum_hitting_set_containing(edges) == n
    assert minimum_hitting_set_containing(edges, fact("V", "0")) == n


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


def test_antichain_keeps_minimal_sets_in_canonical_order():
    a, b, c = fact("P", "a"), fact("P", "b"), fact("P", "c")
    family = [frozenset({c}), frozenset({a, b}), frozenset({a, c}), frozenset({a})]
    assert antichain(family) == (frozenset({a}), frozenset({c}))


def test_minimum_with_forced_element_example_seven():
    d4 = load_instance("ex4.facts")
    view = violation_view(load_constraints("ex4.dlq"))
    edges = endogenous_support_sets(d4, view)
    assert minimum_hitting_set_containing(edges, d4.find("P", ("a",))) == 1


def test_minimum_with_forced_element_self_join():
    d8 = load_instance("ex8.facts")
    edges = endogenous_support_sets(d8, load_query("ex8.dlq"))
    assert minimum_hitting_set_containing(edges, d8.find("R", ("a", "a"))) == 2


def test_budget_one_is_always_no():
    d4 = load_instance("ex4.facts")
    view = violation_view(load_constraints("ex4.dlq"))
    edges = endogenous_support_sets(d4, view)
    assert minimum_hitting_set_containing(edges, d4.find("P", ("a",)), budget=1) is False
    assert minimum_hitting_set_containing(edges, d4.find("P", ("a",)), budget=2) is True


def test_global_minimum_without_forced_element():
    d4 = load_instance("ex4.facts")
    edges = endogenous_support_sets(d4, violation_view(load_constraints("ex4.dlq")))
    assert minimum_hitting_set_containing(edges) == 1


def test_forced_element_on_no_edge():
    a, b, c = fact("P", "a"), fact("P", "b"), fact("P", "c")
    edges = (frozenset({a, b}),)
    assert minimum_hitting_set_containing(edges, c) is None
    assert minimum_hitting_set_containing(edges, c, budget=5) is False


def test_forced_element_must_be_irredundant():
    # star family: {t,a}, {a,b}, {a,c}.  The smallest hitting set through t
    # is {t,a}, but there t is dead weight; the smallest where t matters is
    # {t,b,c}.  Deletion semantics needs the latter.
    t, a, b, c = (fact("V", x) for x in ("t", "a", "b", "c"))
    edges = antichain([frozenset({t, a}), frozenset({a, b}), frozenset({a, c})])
    assert minimum_hitting_set_containing(edges, t) == 3
    _, _, per_element = oracle_hitting({t, a, b, c}, edges)
    assert per_element[t] == 3


def _assert_agrees_with_oracle(universe, edges):
    """Enumeration, every minimum, forced minimum and budget decision,
    checked against the oracle and against each other: minima drop
    vertices and edges, split components and prune by packings, while
    enumeration does none of that."""
    enumerated = enumerate_minimal_hitting_sets(edges).sets
    brute_sets, brute_min, per_element = oracle_hitting(universe, edges)
    assert set(enumerated) == set(brute_sets)
    smallest = min((len(s) for s in enumerated), default=None)
    assert minimum_hitting_set_containing(edges) == brute_min == smallest
    for u in universe:
        through = min((len(s) for s in enumerated if u in s), default=None)
        assert minimum_hitting_set_containing(edges, u) == per_element[u] == through
        for k in range(1, 7):
            expected = through is not None and through < k
            assert minimum_hitting_set_containing(edges, u, budget=k) is expected
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
        solution = enumerate_minimal_hitting_sets(edges)
        everything = solution.sets
        for t in sorted({v for e in edges for v in e}, key=fact_key) + [fact("S", "absent")]:
            through = [s for s in everything if t in s]
            assert solution.containing(t).sets == tuple(through)
            assert solution.containing(t).kept(_smallest).sets == tuple(_smallest(through))
            shapes.add((bool(through), len(hitting._components(hitting._table(edges)[1]))))
    assert {(True, 2), (True, 4), (False, 2), (False, 4)} <= shapes


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
    # sparse chains: dropping dominated vertices leaves small components
    (seeded_chain(60, 60), "q :- S(X), R(X,Y), S(Y).", 32, 52, 18, 1_000),
    (seeded_chain(134, 134), "q :- S(X), R(X,Y), S(Y).", 55, 49, 26, 5_000),
    # a dense chain keeps components of up to 69 edges: the packing bound
    (seeded_chain(100, 40), "q :- S(X), R(X,Y), S(Y).", 77, 34, 20, 15_000),
    # twelve key groups of four, each a K4 that needs three deletions
    (_keyed_instance(4, 12), "q :- A(X,Y), A(X,Z), Y != Z.", 72, 48, 36, 600),
], ids=["chain-60", "chain-134", "dense-chain-100", "keyed-4x12"])
def test_most_responsible_causes_work_stays_bounded(instance, query, edges, causes, value, most):
    # a search over the whole family without reduction, split or bound
    # does not finish these in minutes; node counts are deterministic
    q = single_query(query)
    assert len(support_sets(instance, q)) == edges
    (top, rho), nodes = _nodes(lambda: most_responsible_causes(instance, q))
    assert (len(top), rho) == (causes, Fraction(1, value))
    assert 0 < nodes <= most


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


d = parse_instance(
    "R(a0,a0). R(a0,a1). R(a2,a6). R(a4,a3). R(a5,a2). R(a5,a7). R(a6,a2). "
    "R(a7,a5). S(a0). S(a1). S(a2). S(a4). S(a5). S(a6)."
)
q = single_query("q :- S(X), R(X,Y), S(Y).")
sys.setprofile(count)
responsibilities(d, q)
sys.setprofile(None)
print(len(frames))
"""


def _search_nodes(hash_seed: str) -> int:
    package_root = str(Path(causerepair.__file__).parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=package_root)
    out = subprocess.run(
        [sys.executable, "-c", _COUNT_SEARCH_NODES],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return int(out.stdout)


def test_branching_order_ignores_string_hashing():
    # vertices are ordered by degree and fact key, edges canonically, so
    # the search visits the same nodes in every process
    first, second = _search_nodes("1"), _search_nodes("2")
    assert first == second > 0


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

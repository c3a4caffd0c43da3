"""Shared fixture loading, the report comparison, the randomized instance
generators and the one ``hypothesis`` profile of the tier-1 suite."""

import random
from itertools import zip_longest
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from causerepair.hitting import HittingSolution, support_sets
from causerepair.parsing import (
    constraint_set,
    parse_instance,
    single_query,
)
from causerepair.queries import (
    Atom,
    ConjunctiveQuery,
    DenialConstraint,
    DenialConstraintSet,
    UnionQuery,
    Var,
)
from causerepair.relational import ENDOGENOUS, EXOGENOUS, NULL, Fact, Instance, fact, fact_key

DATA = Path(__file__).parent / "data"

# every hypothesis test draws the same examples in every run, keeps no
# example database and has no deadline; each sets its own max_examples
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


def data_path(name: str) -> Path:
    return DATA / name


def load_instance(name: str) -> Instance:
    return parse_instance(data_path(name).read_text())


def load_query(name: str) -> UnionQuery:
    return single_query(data_path(name).read_text())


def load_constraints(name: str):
    return constraint_set(data_path(name).read_text())


def assert_same(written: str, expected: str):
    """Byte equality of two reports, failing on their first different line
    (pytest's diff of two long reports takes minutes to show)."""
    if written != expected:
        pairs = zip_longest(written.split("\n"), expected.split("\n"))
        line, (got, want) = next((i, p) for i, p in enumerate(pairs, 1) if p[0] != p[1])
        pytest.fail(f"line {line} differs: {got!r} != {want!r}")


# ---------------------------------------------------------------------------
# References for ``smallest`` and ``through``: filters of a whole enumeration


def smallest(sets: list) -> list:
    """The members of least size."""
    least = min(map(len, sets), default=0)
    return [s for s in sets if len(s) == least]


def containing(solution: HittingSolution, t) -> HittingSolution:
    """The sets of ``solution`` that hold ``t``: in ``t``'s component
    those that hold it, elsewhere all; none when no set holds ``t``."""
    through = [{s: i for s, i in part.items() if t in s} for part in solution.parts]
    if not any(through):
        return HittingSolution(solution.vertices, ({},), solution.cap)
    parts = tuple(own or part for own, part in zip(through, solution.parts))
    return HittingSolution(solution.vertices, parts, solution.cap)


@pytest.fixture
def chain_instance() -> Instance:
    return load_instance("ex1.facts")


@pytest.fixture
def chain_query() -> UnionQuery:
    return load_query("ex1.dlq")


# ---------------------------------------------------------------------------
# Random instances and queries for the oracle-equivalence suites

_PREDS = (("P", 1), ("S", 1), ("R", 2), ("Q", 2))
_CONSTANTS = ("a", "b", "c", "d")
_VARS = ("X", "Y", "Z")


def random_instance(rng: random.Random, max_facts: int = 8) -> Instance:
    n = rng.randint(1, max_facts)
    facts = set()
    while len(facts) < n:
        pred, arity = rng.choice(_PREDS)
        args = tuple(rng.choice(_CONSTANTS) for _ in range(arity))
        tag = ENDOGENOUS if rng.random() < 0.7 else EXOGENOUS
        facts.add(Fact(pred, args, tag))
    # identity ignores tags, so rebuild through a dict to drop tag clashes
    by_atom = {}
    for f in facts:
        by_atom[(f.pred, f.args)] = f
    return Instance(frozenset(by_atom.values()))


def random_boolean_query(rng: random.Random) -> UnionQuery:
    disjuncts = []
    for _ in range(rng.randint(1, 2)):
        atoms = []
        for _ in range(rng.randint(1, 3)):
            pred, arity = rng.choice(_PREDS)
            terms = tuple(
                Var(rng.choice(_VARS)) if rng.random() < 0.65 else rng.choice(_CONSTANTS)
                for _ in range(arity)
            )
            atoms.append(Atom(pred, terms))
        variables = sorted({t.name for a in atoms for t in a.terms if isinstance(t, Var)})
        inequalities = ()
        if len(variables) >= 2 and rng.random() < 0.25:
            left, right = rng.sample(variables, 2)
            inequalities = ((Var(left), Var(right)),)
        disjuncts.append(ConjunctiveQuery(tuple(atoms), inequalities, ()))
    return UnionQuery(tuple(disjuncts))


def seeded_chain(n: int, domain: int, seed: int = 0) -> Instance:
    """The benchmark's chain generator, by default at seed 0: ``n`` draws
    of ``R(a_j,a_k)`` and ``S(a_m)`` over ``domain`` constants."""
    rng = random.Random(seed)
    facts = set()
    for _ in range(n):
        j, k, m = (rng.randrange(domain) for _ in range(3))
        facts |= {fact("R", f"a{j}", f"a{k}"), fact("S", f"a{m}")}
    return Instance(frozenset(facts))


def explain_pool() -> list[Instance]:
    """The instances of the benchmark's ``explain-small`` pool: the first
    12 generator seeds whose chain instance, ``24 + seed % 5`` draws over
    as many constants, has 5 to 16 support sets under the chain query."""
    q, pool, seed = single_query("q :- S(X), R(X,Y), S(Y)."), [], 0
    while len(pool) < 12:
        d = seeded_chain(24 + seed % 5, 24 + seed % 5, seed)
        if 5 <= len(support_sets(d, q)) <= 16:
            pool.append(d)
        seed += 1
    return pool


def seeded_keyed(shape, n_keys: int) -> Instance:
    """The benchmark's keyed generator at seed 0, with tuple ids: one
    ``A(k,v)`` fact per key, and as many values as ``shape`` gives for
    each of ``len(shape)`` sampled keys."""
    rng = random.Random(0)
    conflicted = dict(zip(rng.sample(range(n_keys), len(shape)), shape))
    facts = []
    for k in range(n_keys):
        for v in rng.sample(range(1000), conflicted.get(k, 1)):
            facts.append(fact("A", f"k{k}", f"v{v}", fact_id=len(facts) + 1))
    return Instance(frozenset(facts))


CQA_DC = ":- S(X), R(X,Y), S(Y).\n:- A(X,Y), A(X,Z), Y != Z.\n"


def thousand_facts() -> Instance:
    """An instance shaped as the benchmark's ``cqa-large`` ones, violating
    ``CQA_DC``: 992 facts, 250 chain draws over 500 constants and 500 keys,
    50 of them with two values."""
    return Instance(seeded_chain(250, 500).facts | seeded_keyed((2,) * 50, 500).facts)


def keyed_preferences(k: int):
    """The benchmark's keyed instance with ``k`` two-valued conflicts over
    ``max(50, 2k)`` keys, its conflict groups in the generator's order,
    the causal priority pairs of the first fact over the second in every
    other group, and the preferred causes in canonical order: each
    preferred group's first fact and both facts of every other group.
    Every global-optimal deletion set takes one fact per group, so each
    cause has responsibility 1/k."""
    d = seeded_keyed((2,) * k, max(50, 2 * k))
    by_key = {}
    for f in sorted(d.facts, key=lambda f: f.fact_id):
        by_key.setdefault(f.args[0], []).append(f)
    groups = [g for g in by_key.values() if len(g) == 2]
    causes = [f for i, g in enumerate(groups) for f in (g if i % 2 else g[:1])]
    return d, groups, [tuple(g) for g in groups[::2]], sorted(causes, key=fact_key)


# ---------------------------------------------------------------------------
# Random inputs for the subset-CQA suites

_CQA_PREDS = (("S", 1), ("P", 1), ("R", 2))
_CQA_CONSTANTS = ("a", "b", "c")
_CHAIN_BODY = ConjunctiveQuery((
    Atom("S", (Var("X"),)), Atom("R", (Var("X"), Var("Y"))), Atom("S", (Var("Y"),)),
))
_S_BODY = ConjunctiveQuery((Atom("S", (Var("X"),)),))


def _cqa_body(rng: random.Random) -> ConjunctiveQuery:
    """One to three atoms over few predicates (so self-joins are common),
    with constants (null among them) and inequalities."""
    atoms = []
    for _ in range(rng.randint(1, 3)):
        pred, arity = rng.choice(_CQA_PREDS)
        terms = tuple(
            Var(rng.choice("XYZ")) if rng.random() < 0.7 else rng.choice(_CQA_CONSTANTS + (NULL,))
            for _ in range(arity)
        )
        atoms.append(Atom(pred, terms))
    variables = sorted({t.name for a in atoms for t in a.terms if isinstance(t, Var)})
    inequalities = ()
    if variables and rng.random() < 0.4:
        left = rng.choice(variables)
        right = rng.choice([Var(v) for v in variables if v != left] + list(_CQA_CONSTANTS))
        inequalities = ((Var(left), right),)
    return ConjunctiveQuery(tuple(atoms), inequalities)


def seeded_cqa(seed, max_facts: int = 10):
    """An all-endogenous instance, a denial constraint set and lists of
    ground atoms to ask about, drawn from ``seed``.

    Facts hold ``a``, ``b``, ``c`` and null, and an atom may come twice,
    under two tuple ids or with and without one.  Constraint bodies have
    constants, inequalities and self-joins; a quarter of the sets are the
    chain constraint beside ``:- S(X).``, whose images nest, so some
    witnesses through an atom are not minimal.  A list holds one to three
    atoms: facts of the instance, with or without their ids, atoms that
    may be absent, and facts under an id they do not carry."""
    rng = random.Random(seed)
    facts: set[Fact] = set()
    n = rng.randint(1, max_facts)
    while len(facts) < n:
        pred, arity = rng.choice(_CQA_PREDS)
        args = tuple(rng.choice(_CQA_CONSTANTS + (NULL,)) for _ in range(arity))
        ids = rng.choice([(None,), (None,), (len(facts) + 1,), (len(facts) + 1, len(facts) + 2)])
        facts.update(Fact(pred, args, fact_id=i) for i in ids[:n - len(facts)])
    if rng.random() < 0.25:
        bodies = [_CHAIN_BODY, _S_BODY] + [_cqa_body(rng) for _ in range(rng.randint(0, 1))]
    else:
        bodies = [_cqa_body(rng) for _ in range(rng.randint(1, 2))]
    sigma = DenialConstraintSet(tuple(DenialConstraint(b) for b in bodies))
    present = sorted(facts, key=lambda f: (f.pred, f.args, f.fact_id or 0))
    lists = []
    for _ in range(3):
        atoms = []
        for _ in range(rng.randint(1, 3)):
            f = rng.choice(present)
            kind = rng.random()
            if kind < 0.5:
                atoms.append(f)
            elif kind < 0.7:
                atoms.append(Fact(f.pred, f.args))
            elif kind < 0.9:
                g = rng.choice(present)  # of a predicate in the schema
                atoms.append(Fact(g.pred, tuple(rng.choice(_CQA_CONSTANTS) for _ in g.args)))
            else:
                atoms.append(Fact(f.pred, f.args, fact_id=99))
        lists.append(atoms)
    return Instance(frozenset(facts)), sigma, lists


# ---------------------------------------------------------------------------
# Hypothesis strategies for the join suites

# R at two arities; null is an ordinary constant of the domain
_HYP_RELATIONS = (("P", 1), ("R", 1), ("R", 2), ("S", 2))
_HYP_CONSTANTS = ("a", "b", NULL)


@st.composite
def _facts(draw) -> Fact:
    pred, arity = draw(st.sampled_from(_HYP_RELATIONS))
    args = tuple(draw(st.sampled_from(_HYP_CONSTANTS)) for _ in range(arity))
    tag = draw(st.sampled_from((ENDOGENOUS, EXOGENOUS)))
    return Fact(pred, args, tag, draw(st.none() | st.integers(1, 3)))


def small_instances(max_facts: int = 10):
    """Instances built in code, as no parser would accept them: tuple ids
    on some facts (shared between facts), null among the constants, both
    tags, and ``R`` at arities 1 and 2."""
    return st.lists(_facts(), max_size=max_facts).map(lambda facts: Instance(frozenset(facts)))


@st.composite
def conjunctive_queries(draw, max_atoms: int = 3) -> ConjunctiveQuery:
    """Bodies over the relations of ``small_instances``: constants (null
    among them), variables repeated within and across atoms, and
    inequalities between variables or against a constant."""
    terms = st.sampled_from("XYZ").map(Var) | st.sampled_from(_HYP_CONSTANTS)
    atoms = []
    for _ in range(draw(st.integers(1, max_atoms))):
        pred, arity = draw(st.sampled_from(_HYP_RELATIONS))
        atoms.append(Atom(pred, tuple(draw(terms) for _ in range(arity))))
    variables = sorted({t.name for a in atoms for t in a.terms if isinstance(t, Var)})
    inequalities = ()
    if variables:
        left = st.sampled_from(variables).map(Var)
        right = left | st.sampled_from(_HYP_CONSTANTS)
        inequalities = tuple(draw(st.lists(st.tuples(left, right), max_size=2)))
    return ConjunctiveQuery(tuple(atoms), inequalities)


# ---------------------------------------------------------------------------
# Hypothesis strategies for the hitting suites


@st.composite
def mask_families(draw, blocks: int = 3, width: int = 4):
    """Edge masks over up to ``blocks`` vertex-disjoint blocks of
    ``width`` vertices (bit ``block * width + i``), so a family splits
    into several components.  A block may start with the cycle through
    its vertices, which no reduction rule shrinks; its other edges hold
    one to three of its vertices, mostly two, so unit edges, nested and
    repeated edges and twins are common.  Now and then a family also
    holds the empty edge."""
    edges = []
    for block in range(draw(st.integers(1, blocks))):
        bit = [1 << (block * width + i) for i in range(width)]
        if draw(st.booleans()):
            edges += [bit[i] | bit[i - 1] for i in range(width)]
        for _ in range(draw(st.integers(0, 6))):
            size = draw(st.sampled_from((2, 3, 2, 1)))
            vertices = st.lists(st.sampled_from(bit), min_size=size, max_size=size, unique=True)
            edges.append(sum(draw(vertices)))
    if draw(st.integers(0, 9)) == 5:
        edges.insert(draw(st.integers(0, len(edges))), 0)
    return edges

"""Queries, denial constraints, and their evaluation.

The query language is unions of conjunctive queries with optional
inequality literals.  A denial constraint is the negation of a boolean
conjunctive query; ``dc_of_query`` and ``violation_view`` convert between
the two representations and are inverse to each other.

Null semantics: the reserved constant ``null`` never satisfies a join
(matching a repeated variable, or a constant in an atom pattern), and any
inequality with a null operand evaluates to false.  A variable occurring
exactly once may still bind null, so a fact with null attributes keeps
witnessing patterns that do not constrain those positions.

Evaluation is an indexed nested-loop join.  The facts are grouped by
predicate and arity once per collection (``_Index``; an instance's
grouping is ``Instance.relations``, which a parsed instance has from its
parse), and each join step looks its candidates up in a hash index on
its bound positions, built on the first lookup and kept in the same
object, so several joins over one instance share every index.  A lookup
through a null value finds nothing, which is the null rule above.

The join order puts next the atom with the most positions bound by
constants or by earlier atoms, ties in query order.  One generator
(``_steps``) yields an order's steps from one start state per body
(bound counts, one heap of every atom by count, and each variable's
atoms), at a logarithmic cost per raised count.  An order is the list of
the steps built so far and that generator, kept on the query per first
atom; a walk builds only the steps it reaches (``_step``), and the next
walk finds them built.  A step (``_JoinStep``) and a start state
(``_Start``) are ``collections.namedtuple``s, so importing the package
loads no ``typing``.

A walk may be seeded with a fact ``t`` and an atom ``i``: atom ``i`` is
its first step and ``t`` that step's only candidate, checked against the
step's relation and constant key like any table's facts, and the atoms
before ``i`` may not take ``t``.  A match through ``t`` is then walked
once, from its first atom that maps to ``t``, over the seeds at every
atom (the rule of ``hitting._search``, which keeps a vertex out of its
later siblings' subtrees).  Seeded walks find the witnesses through one
fact without joining the rest of the instance.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import cached_property
from heapq import heapify, heappop, heappush
from operator import itemgetter

from .errors import SemanticError
from .relational import NULL, Fact, Instance, Record, group_relations, is_null


class Var(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return f"Var({self.name})"


class Atom(Record):
    __slots__ = ("pred", "terms")

    def __init__(self, pred: str, terms: tuple):  # terms: of Var | str
        self.pred = pred
        self.terms = terms

    def __str__(self) -> str:
        return f"{self.pred}({','.join(_term_str(t) for t in self.terms)})"


def _term_str(t) -> str:
    return t.name if isinstance(t, Var) else t


class ConjunctiveQuery(Record):
    """A conjunction of atoms with optional inequalities and free variables."""

    __slots__ = ("atoms", "inequalities", "free_vars", "__dict__")

    def __init__(self, atoms: tuple[Atom, ...], inequalities: tuple[tuple, ...] = (),
                 free_vars: tuple[str, ...] = ()):
        self.atoms = atoms
        self.inequalities = inequalities
        self.free_vars = free_vars

    def variables(self) -> set[str]:
        return {t.name for a in self.atoms for t in a.terms if isinstance(t, Var)}

    @cached_property
    def _start(self) -> "_Start":
        """What every join order of the body starts from."""
        occurs: dict[str, list[int]] = {}
        for i, atom in enumerate(self.atoms):
            for t in atom.terms:
                if isinstance(t, Var):
                    occurs.setdefault(t.name, []).append(i)
        counts = tuple(sum(not isinstance(t, Var) for t in a.terms) for a in self.atoms)
        heap = [(-count, i) for i, count in enumerate(counts)]
        heapify(heap)
        relations = frozenset((a.pred, len(a.terms)) for a in self.atoms)
        return _Start(counts, heap, occurs, relations, {})

    def _order(self, first: int | None) -> "tuple[list[_JoinStep], Iterator[_JoinStep]]":
        """The join order that starts at atom ``first`` (None: the plain
        order): the steps walks have needed so far, and their generator."""
        orders = self._start.orders
        order = orders.get(first)
        if order is None:
            order = orders[first] = ([], _steps(self.atoms, self._start, first))
        return order

    def safety_violations(self) -> list[str]:
        """Variables used in inequalities or the head but not in any atom."""
        positive = self.variables()
        bad = []
        for left, right in self.inequalities:
            for t in (left, right):
                if isinstance(t, Var) and t.name not in positive:
                    bad.append(t.name)
        bad.extend(v for v in self.free_vars if v not in positive)
        return bad

    def __str__(self) -> str:
        parts = [str(a) for a in self.atoms]
        parts.extend(f"{_term_str(l)} != {_term_str(r)}" for l, r in self.inequalities)
        return ", ".join(parts)


class UnionQuery(Record):
    """A union of conjunctive queries sharing one free-variable list."""

    __slots__ = ("disjuncts",)

    def __init__(self, disjuncts: tuple[ConjunctiveQuery, ...]):
        if not disjuncts:
            raise SemanticError("a union query needs at least one disjunct")
        if len({cq.free_vars for cq in disjuncts}) > 1:
            raise SemanticError("disjuncts carry different free-variable lists")
        self.disjuncts = disjuncts

    @property
    def free_vars(self) -> tuple[str, ...]:
        return self.disjuncts[0].free_vars

    @property
    def is_boolean(self) -> bool:
        return not self.free_vars


class DenialConstraint(Record):
    __slots__ = ("body",)

    def __init__(self, body: ConjunctiveQuery):
        if body.free_vars:
            raise SemanticError("a denial constraint body has no free variables")
        self.body = body

    def __str__(self) -> str:
        return f":- {self.body}."


class DenialConstraintSet(Record):
    __slots__ = ("constraints",)

    def __init__(self, constraints: tuple[DenialConstraint, ...]):
        self.constraints = constraints

    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self):
        return iter(self.constraints)


# ---------------------------------------------------------------------------
# Evaluation


def _extend(binding: dict, pattern: tuple, args: tuple[str, ...]) -> dict | None:
    """Unify the (position, term) pairs of an atom pattern against one
    fact's arguments; None if it fails."""
    new = None
    for position, term in pattern:
        value = args[position]
        if isinstance(term, Var):
            bound = binding.get(term.name) if new is None else new.get(term.name)
            if bound is None:
                if new is None:
                    new = dict(binding)
                new[term.name] = value
            elif bound != value or is_null(value):
                return None  # joins never succeed through null
        else:
            if is_null(term) or term != value:
                return None
    return binding if new is None else new


def _inequalities_hold(cq: ConjunctiveQuery, binding: dict) -> bool:
    for left, right in cq.inequalities:
        lv = binding[left.name] if isinstance(left, Var) else left
        rv = binding[right.name] if isinstance(right, Var) else right
        if is_null(lv) or is_null(rv) or lv == rv:
            return False
    return True


_JoinStep = namedtuple("_JoinStep", (
    "atom",  # the atom's position in the query
    "relation",  # its predicate and arity
    "key_positions",  # positions bound when the step runs
    "key_terms",  # the terms at those positions
    "rest",  # (position, term) at the others: first and repeated occurrences
))

_Start = namedtuple("_Start", (
    "counts",  # per atom, its positions bound by constants
    "heap",  # (-count, atom) of every atom, heapified: most first, ties in query order
    "occurs",  # variable -> the atom of each of its occurrences
    "relations",  # the (predicate, arity) pairs of the atoms
    "orders",  # first atom (None: none) -> the order as built so far
))


def _steps(atoms: tuple[Atom, ...], start: _Start, first: int | None) -> Iterator[_JoinStep]:
    """The steps of the join order that starts at atom ``first`` (None:
    the plain order), one at a time.

    One heap holds every atom by its bound count, copied from the start
    state; a raised count is pushed anew, and the entries of taken atoms
    (count None) and stale counts are dropped when they come up.  So the
    order is the one ``max(remaining, ...)`` would pick, at a logarithmic
    cost per raised count instead of a scan of every remaining atom."""
    bound: set[str] = set()
    counts: list = list(start.counts)  # per atom, its bound count so far
    heap = start.heap.copy()  # (-count, atom), stale entries included
    i = first
    for _ in atoms:
        while i is None:
            count, i = heappop(heap)
            if -count != counts[i]:
                i = None
        atom = atoms[i]
        key = tuple(p for p, t in enumerate(atom.terms) if not isinstance(t, Var) or t.name in bound)
        yield _JoinStep(
            i, (atom.pred, len(atom.terms)), key, tuple(atom.terms[p] for p in key),
            tuple((p, t) for p, t in enumerate(atom.terms) if p not in key),
        )
        counts[i] = None
        for t in atom.terms:
            if isinstance(t, Var) and t.name not in bound:
                bound.add(t.name)
                for other in start.occurs[t.name]:
                    if counts[other] is not None:
                        counts[other] += 1
                        heappush(heap, (-counts[other], other))
        i = None


def _step(order: tuple[list[_JoinStep], Iterator[_JoinStep]], depth: int) -> _JoinStep:
    """Step ``depth`` of a join order, built when a walk first reaches it."""
    steps, rest = order
    if depth == len(steps):
        steps.append(next(rest))
    return steps[depth]


def _hash_index(positions: tuple[int, ...], relation: list[Fact]) -> dict[tuple, list[Fact]]:
    """The relation's facts by their values at ``positions``."""
    if not positions:
        return {(): relation}
    p = positions[0]
    keys = ([(f.args[p],) for f in relation] if len(positions) == 1
            else map(itemgetter(*positions), [f.args for f in relation]))
    out: dict[tuple, list[Fact]] = {}
    for key, f in zip(keys, relation):
        facts = out.get(key)
        if facts is None:
            out[key] = [f]
        else:
            facts.append(f)
    return out


class _Index:
    """One collection of facts, grouped by predicate and arity (an
    instance's ``relations``), with a hash index per (relation, bound
    positions) built on its first lookup, keyed by a one-tuple or an
    ``itemgetter``.  Every join over the same facts can share it."""

    __slots__ = ("relations", "tables")

    def __init__(self, facts: "Instance | Iterable[Fact]"):
        self.relations = facts.relations if isinstance(facts, Instance) else group_relations(facts)
        self.tables: dict[tuple, dict[tuple, list[Fact]]] = {}

    def table(self, step: _JoinStep) -> dict[tuple, list[Fact]]:
        table = self.tables.get((step.relation, step.key_positions))
        if table is None:
            table = _hash_index(step.key_positions, self.relations[step.relation])
            self.tables[step.relation, step.key_positions] = table
        return table


def _index_of(facts: "Instance | Iterable[Fact] | _Index") -> _Index:
    return facts if isinstance(facts, _Index) else _Index(facts)


def _step_extensions(index: _Index, order: tuple, tables: list, depth: int,
          binding: dict, used: list, seed):
    """``binding`` extended through join step ``depth`` by each fact in
    turn, the fact recorded in ``used`` while its extension is out.  A
    module-level generator, so the tables it caches form no reference cycle."""
    step = _step(order, depth)
    key = tuple([binding[t.name] if isinstance(t, Var) else t for t in step.key_terms])
    if NULL in key:
        return  # joins never pass through null; the constant null matches nothing
    if seed is not None and step.atom == seed[1]:
        # the seed's own step, the first: no table, the seed its only candidate
        t = seed[0]
        fits = ((t.pred, len(t.args)) == step.relation
                and tuple([t.args[p] for p in step.key_positions]) == key)
        candidates = (t,) if fits else ()
    else:
        table = tables[depth]
        if table is None:
            table = tables[depth] = index.table(step)
        candidates = table.get(key, ())
        if seed is not None and step.atom < seed[1]:
            # an earlier atom may not take the seed: matches through it
            # there are walked from that atom
            candidates = [f for f in candidates if f != seed[0]]
    for f in candidates:
        extended = _extend(binding, step.rest, f.args)
        if extended is not None:
            used[step.atom] = f
            yield extended


def iter_matches(
    facts: "Iterable[Fact] | _Index", cq: ConjunctiveQuery, seed: tuple[Fact, int] | None = None
) -> Iterator[tuple[tuple[Fact, ...], dict]]:
    """Yield (facts-per-atom, binding) for every satisfying assignment.

    The facts come in query atom order, whatever the join order.  With a
    seed ``(t, i)``, only the assignments that map atom ``i`` to ``t`` and
    no earlier atom to ``t``: over every ``i``, each assignment through
    ``t`` comes once."""
    index = _index_of(facts)
    if not index.relations.keys() >= cq._start.relations:
        return  # an atom without candidate facts matches nothing
    order = cq._order(None if seed is None else seed[1])
    # depth first on a stack of the open join steps, not by recursion: a
    # body may have thousands of atoms
    tables, used = [None] * len(cq.atoms), [None] * len(cq.atoms)
    stack = [iter(({},))]  # stack[i]: the bindings through the first i steps
    while stack:
        binding = next(stack[-1], None)
        if binding is None:
            stack.pop()
        elif len(stack) <= len(cq.atoms):
            stack.append(_step_extensions(index, order, tables, len(stack) - 1, binding, used, seed))
        elif _inequalities_hold(cq, binding):
            yield tuple(used), binding


def witnesses(facts: "Iterable[Fact] | _Index", cq: ConjunctiveQuery) -> set[frozenset[Fact]]:
    """All homomorphic images of the query's atoms, as fact sets."""
    return {frozenset(used) for used, _ in iter_matches(facts, cq)}


def eval_boolean(d: "Instance | Iterable[Fact]", q: UnionQuery) -> bool:
    if not q.is_boolean:
        raise SemanticError("boolean evaluation needs a query without free variables")
    index = _index_of(d)
    return any(
        next(iter_matches(index, cq), None) is not None for cq in q.disjuncts
    )


def eval_answers(d: "Instance | Iterable[Fact]", q: UnionQuery) -> frozenset[tuple[str, ...]]:
    index = _index_of(d)
    answers = set()
    for cq in q.disjuncts:
        for _, binding in iter_matches(index, cq):
            answers.add(tuple(binding[v] for v in cq.free_vars))
    return frozenset(answers)


# ---------------------------------------------------------------------------
# Query / constraint duality


def dc_of_query(q: UnionQuery) -> DenialConstraintSet:
    """One denial constraint per disjunct of a boolean query."""
    if not q.is_boolean:
        raise SemanticError("only boolean queries induce denial constraints")
    return DenialConstraintSet(tuple(DenialConstraint(cq) for cq in q.disjuncts))


def violation_view(sigma: DenialConstraintSet) -> UnionQuery:
    """The boolean query that is true exactly on instances violating sigma."""
    if not sigma.constraints:
        raise SemanticError("violation view of an empty constraint set")
    return UnionQuery(tuple(dc.body for dc in sigma.constraints))


def answer_dc(q: UnionQuery, answer: tuple[str, ...]) -> DenialConstraintSet:
    """Instantiate an open query with one answer and negate it.

    This is the entry point for cause analysis of a specific answer: the
    constants are substituted for the free variables in every disjunct
    and the result is handed to ``dc_of_query``.
    """
    if len(answer) != len(q.free_vars):
        raise SemanticError(
            f"answer arity {len(answer)} does not match the "
            f"{len(q.free_vars)} free variables"
        )
    mapping = dict(zip(q.free_vars, answer))

    def subst_term(t):
        if isinstance(t, Var) and t.name in mapping:
            return mapping[t.name]
        return t

    closed = []
    for cq in q.disjuncts:
        atoms = tuple(
            Atom(a.pred, tuple(subst_term(t) for t in a.terms)) for a in cq.atoms
        )
        ineqs = tuple(
            (subst_term(l), subst_term(r)) for l, r in cq.inequalities
        )
        closed.append(ConjunctiveQuery(atoms, ineqs, ()))
    return dc_of_query(UnionQuery(tuple(closed)))


def is_consistent(d: Instance, sigma: DenialConstraintSet) -> bool:
    if not sigma.constraints:
        return True
    return not eval_boolean(d, violation_view(sigma))


def _maximal_deletion(d: Instance, removed: frozenset[Fact], q: UnionQuery) -> bool:
    """Whether deleting ``removed`` from ``d`` falsifies ``q`` while putting
    back any single deleted fact makes it true again (truth is monotone,
    so single facts decide maximality)."""
    kept = d.facts - removed
    return not eval_boolean(kept, q) and all(eval_boolean(kept | {f}, q) for f in removed)

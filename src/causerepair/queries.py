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

Evaluation is an indexed nested-loop join.  Each conjunctive query fixes
its join order once (``ConjunctiveQuery.join_order``): next comes the atom
with the most positions bound by constants or by earlier atoms, ties in
query order.  Each call groups the facts by predicate and arity, and each
join step looks its candidates up in a hash index on its bound positions,
built on the step's first lookup.  A lookup through a null value finds
nothing, which is the null rule above, unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

from .errors import SemanticError
from .relational import NULL, Fact, Instance, is_null


@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self) -> str:
        return f"Var({self.name})"


@dataclass(frozen=True)
class Atom:
    pred: str
    terms: tuple  # of Var | str

    def __str__(self) -> str:
        return f"{self.pred}({','.join(_term_str(t) for t in self.terms)})"


def _term_str(t) -> str:
    return t.name if isinstance(t, Var) else t


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A conjunction of atoms with optional inequalities and free variables."""

    atoms: tuple[Atom, ...]
    inequalities: tuple[tuple, ...] = ()
    free_vars: tuple[str, ...] = ()

    def variables(self) -> set[str]:
        return {t.name for a in self.atoms for t in a.terms if isinstance(t, Var)}

    @cached_property
    def join_order(self) -> tuple["_JoinStep", ...]:
        """The atoms in evaluation order: most bound positions first, ties
        in query order.  Computed once per query, not per evaluation."""
        bound: set[str] = set()

        def is_bound(t) -> bool:
            return not isinstance(t, Var) or t.name in bound

        remaining = list(range(len(self.atoms)))
        steps = []
        while remaining:
            best = max(remaining, key=lambda i: sum(map(is_bound, self.atoms[i].terms)))
            remaining.remove(best)
            atom = self.atoms[best]
            key = tuple(p for p, t in enumerate(atom.terms) if is_bound(t))
            steps.append(_JoinStep(
                best, (atom.pred, len(atom.terms)), key, tuple(atom.terms[p] for p in key),
                tuple((p, t) for p, t in enumerate(atom.terms) if p not in key),
            ))
            bound.update(t.name for t in atom.terms if isinstance(t, Var))
        return tuple(steps)

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


@dataclass(frozen=True)
class UnionQuery:
    """A union of conjunctive queries sharing one free-variable list."""

    disjuncts: tuple[ConjunctiveQuery, ...]

    @property
    def free_vars(self) -> tuple[str, ...]:
        return self.disjuncts[0].free_vars

    @property
    def is_boolean(self) -> bool:
        return not self.free_vars

    def __post_init__(self):
        if not self.disjuncts:
            raise SemanticError("a union query needs at least one disjunct")
        lists = {cq.free_vars for cq in self.disjuncts}
        if len(lists) > 1:
            raise SemanticError("disjuncts carry different free-variable lists")


@dataclass(frozen=True)
class DenialConstraint:
    body: ConjunctiveQuery

    def __post_init__(self):
        if self.body.free_vars:
            raise SemanticError("a denial constraint body has no free variables")

    def __str__(self) -> str:
        return f":- {self.body}."


@dataclass(frozen=True)
class DenialConstraintSet:
    constraints: tuple[DenialConstraint, ...]

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


class _JoinStep(NamedTuple):
    atom: int  # the atom's position in the query
    relation: tuple[str, int]  # its predicate and arity
    key_positions: tuple[int, ...]  # positions bound when the step runs
    key_terms: tuple  # the terms at those positions
    rest: tuple  # (position, term) at the others: first and repeated occurrences


def _hash_index(positions: tuple[int, ...], relation: list[Fact]) -> dict[tuple, list[Fact]]:
    """The relation's facts by their values at ``positions``."""
    if not positions:
        return {(): relation}
    out: dict[tuple, list[Fact]] = {}
    for f in relation:
        args = f.args
        out.setdefault(tuple([args[p] for p in positions]), []).append(f)
    return out


def _step_extensions(cq: ConjunctiveQuery, relations: dict, indexes: list, depth: int,
          binding: dict, used: list):
    """``binding`` extended through join step ``depth`` by each fact in
    turn, the fact recorded in ``used`` while its extension is out.  A
    module-level generator, so the indexes it fills form no reference cycle."""
    step = cq.join_order[depth]
    key = tuple([binding[t.name] if isinstance(t, Var) else t for t in step.key_terms])
    if NULL in key:
        return  # joins never pass through null; the constant null matches nothing
    index = indexes[depth]
    if index is None:
        index = indexes[depth] = _hash_index(step.key_positions, relations[step.relation])
    for f in index.get(key, ()):
        extended = _extend(binding, step.rest, f.args)
        if extended is not None:
            used[step.atom] = f
            yield extended


def iter_matches(
    facts: Iterable[Fact], cq: ConjunctiveQuery
) -> Iterator[tuple[tuple[Fact, ...], dict]]:
    """Yield (facts-per-atom, binding) for every satisfying assignment.

    The facts come in query atom order, whatever the join order."""
    relations: dict[tuple[str, int], list[Fact]] = {s.relation: [] for s in cq.join_order}
    for f in facts:
        relation = relations.get((f.pred, len(f.args)))
        if relation is not None:
            relation.append(f)
    if not all(relations.values()):
        return  # an atom without candidate facts matches nothing
    # depth first on a stack of the open join steps, not by recursion: a
    # body may have thousands of atoms
    indexes, used = [None] * len(cq.atoms), [None] * len(cq.atoms)
    stack = [iter(({},))]  # stack[i]: the bindings through the first i steps
    while stack:
        binding = next(stack[-1], None)
        if binding is None:
            stack.pop()
        elif len(stack) <= len(cq.join_order):
            stack.append(_step_extensions(cq, relations, indexes, len(stack) - 1, binding, used))
        elif _inequalities_hold(cq, binding):
            yield tuple(used), binding


def witnesses(facts: Iterable[Fact], cq: ConjunctiveQuery) -> set[frozenset[Fact]]:
    """All homomorphic images of the query's atoms, as fact sets."""
    return {frozenset(used) for used, _ in iter_matches(facts, cq)}


def eval_boolean(d: "Instance | Iterable[Fact]", q: UnionQuery) -> bool:
    if not q.is_boolean:
        raise SemanticError("boolean evaluation needs a query without free variables")
    facts = d.facts if isinstance(d, Instance) else d
    return any(
        next(iter_matches(facts, cq), None) is not None for cq in q.disjuncts
    )


def eval_answers(d: "Instance | Iterable[Fact]", q: UnionQuery) -> frozenset[tuple[str, ...]]:
    facts = d.facts if isinstance(d, Instance) else d
    answers = set()
    for cq in q.disjuncts:
        for _, binding in iter_matches(facts, cq):
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

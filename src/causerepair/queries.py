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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import SemanticError
from .relational import Fact, Instance, is_null


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


def _index(facts: Iterable[Fact]) -> dict[str, list[Fact]]:
    out: dict[str, list[Fact]] = {}
    for f in facts:
        out.setdefault(f.pred, []).append(f)
    return out


def _extend(binding: dict, terms: tuple, args: tuple[str, ...]) -> dict | None:
    """Unify one atom pattern against one fact; None if it fails."""
    new = None
    for term, value in zip(terms, args):
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


def iter_matches(
    facts: Iterable[Fact], cq: ConjunctiveQuery
) -> Iterator[tuple[tuple[Fact, ...], dict]]:
    """Yield (facts-per-atom, binding) for every satisfying assignment."""
    index = _index(facts)

    def walk(pos: int, binding: dict, used: list[Fact]):
        if pos == len(cq.atoms):
            if _inequalities_hold(cq, binding):
                yield tuple(used), binding
            return
        atom = cq.atoms[pos]
        for f in index.get(atom.pred, ()):
            if f.arity != len(atom.terms):
                continue
            extended = _extend(binding, atom.terms, f.args)
            if extended is None:
                continue
            used.append(f)
            yield from walk(pos + 1, extended, used)
            used.pop()

    yield from walk(0, {}, [])


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

"""Deletion repairs for denial constraints, and consistent answers.

Under denial constraints a repair deletes a minimal hitting set of one
conflict family, and ``repairs`` names each deletion semantics by two
choices: the family (the violation witnesses, or under 'endo' their
endogenous parts) and what each conflict component keeps of its minimal
hitting sets (all under 's' and 'endo', the smallest under 'c', those a
priority leaves unimproved under 'go'; Staworko, Chomicki and
Marcinkowski, AMAI 2012).  Under 'c' the search visits the smallest
sets only, so the cap counts C-repairs; 'go' chooses among the sets
found.  A priority is checked on the family it selects from.
``repairs`` returns the hitting solution itself: each of its ``sets``
is one repair's deletion set ``s``, and the repair is ``d.without(s)``.
Null repairs live in ``preferences``.

Consistent-answer checks use the cause-based criterion directly, with no
repair enumeration.  Under subset semantics an atom is in every repair
iff it lies on no minimal violation (no edge of the conflict hypergraph;
Chomicki and Marcinkowski, Inf. Comput. 2005).  A minimal violation
through ``t`` is a witness through ``t`` from which no single fact can be
dropped with the violation view still true, so the check walks the
witnesses through the asked atoms only (seeded joins, ``queries``) and
decides each one with at most one boolean evaluation per fact of it.
Under cardinality semantics an atom is in every repair iff it lies in no
minimum hitting set of the conflict family: iff the least minimal hitting
set through it is larger than the minimum, which one ``minimum_members``
call, which finds the minimum once, settles for the asked atoms only.
"""

from __future__ import annotations

from typing import Iterable

from .errors import SemanticError
from .hitting import (
    HittingSolution,
    endogenous_support_sets,
    enumerate_minimal_hitting_sets,
    minimum_members,
    minimum_size,
    support_sets,
)
from .queries import (
    DenialConstraintSet,
    UnionQuery,
    _Index,
    _maximal_deletion,
    eval_boolean,
    iter_matches,
    violation_view,
)
from .preferences import _acyclic, _unimproved
from .relational import Fact, Instance

SUBSET = "s"
CARDINALITY = "c"
ENDOGENOUS_ONLY = "endo"
GLOBAL_OPTIMAL = "go"


def _cardinality(semantics: str) -> bool:
    """Whether ``semantics`` is 'c', not 's'; any other is an error."""
    if semantics not in (SUBSET, CARDINALITY):
        raise SemanticError(f"unknown repair semantics {semantics!r}")
    return semantics == CARDINALITY


def repairs(
    d: Instance,
    sigma: DenialConstraintSet,
    semantics: str = SUBSET,
    cap: int | None = None,
    priority: Iterable[tuple[Fact, Fact]] | None = None,
) -> HittingSolution:
    """The repairs under subset ('s'), cardinality ('c'), endogenous
    ('endo') or global-optimal ('go') semantics, the last under
    ``priority``: ``(stronger, weaker)`` fact pairs as
    ``parsing.parse_priorities`` reads them (``[]``, the empty priority,
    keeps every subset repair).  Its facts must be in ``d``, its pairs
    acyclic and each on one violation witness, checked on the family the
    deletion sets are then read off, as the product of what each
    conflict component keeps.  Each ``s`` in the solution's ``sets`` is
    one repair's deletion set, in canonical order, and ``d.without(s)``
    is the repair.

    An endogenous repair deletes endogenous facts only, so a violation
    witness of exogenous facts alone leaves none; other semantics always
    leave one.  Each pair of ``priority`` lies inside one conflict edge,
    so a repair has a global improvement iff its part in some conflict
    component has one among that component's minimal deletion sets, each
    of which extends to a subset repair.
    """
    if semantics == GLOBAL_OPTIMAL:
        if priority is None:
            raise SemanticError("global-optimal repairs need a priority")
        pairs = _acyclic(d, priority)
    elif priority is not None:
        raise SemanticError("a priority applies to global-optimal repairs only")
    smallest = semantics not in (GLOBAL_OPTIMAL, ENDOGENOUS_ONLY) and _cardinality(semantics)
    family = endogenous_support_sets if semantics == ENDOGENOUS_ONLY else support_sets
    edges = family(d, violation_view(sigma))
    solution = enumerate_minimal_hitting_sets(edges, cap, smallest=smallest)
    if semantics == GLOBAL_OPTIMAL:
        return solution.kept(_unimproved(pairs, edges, "mutually conflicting"))
    return solution


def is_repair(
    d: Instance, sigma: DenialConstraintSet, candidate: Instance, semantics: str
) -> bool:
    """Repair checking without enumeration.

    Subset semantics is the polynomial check: the candidate is consistent
    and restoring any single deleted fact breaks consistency.  Cardinality
    semantics additionally compares the deletion count with the global
    minimum from the branching solver.
    """
    cardinality = _cardinality(semantics)
    if not candidate.facts <= d.facts:
        raise SemanticError("candidate repair is not a sub-instance")
    view = violation_view(sigma)
    removed = d.facts - candidate.facts
    if not _maximal_deletion(d, removed, view):
        return False
    return not cardinality or len(removed) == minimum_size(support_sets(d, view))


def consistent_answer(
    d: Instance,
    sigma: DenialConstraintSet,
    ground_atoms: Iterable[Fact],
    semantics: str = SUBSET,
) -> bool:
    """Certainty of a conjunction of ground atoms across all repairs.

    Uses the cause-side criterion: under subset semantics an atom is in
    every repair iff it is not an actual cause for the violation view;
    under cardinality semantics, iff it is not a most responsible cause.
    An atom absent from ``d`` is in no repair, and answers false before any
    join.  Under subset semantics an atom is a cause iff some witness
    through it is minimal: no single fact can be dropped from it with the
    view still true on the rest.  Only the witnesses through the asked
    atoms are walked, on one shared index, never the whole support family.
    Under cardinality semantics the support family is built once, with
    its minimum ``m``, and an asked atom fails when some minimal hitting
    set through it has ``m`` members, asked for all of them at once; no
    other fact's responsibility is computed.
    """
    cardinality = _cardinality(semantics)
    if d.exogenous:
        raise SemanticError("consistent answers assume all facts endogenous")
    atoms = list(ground_atoms)
    for a in atoms:
        if a.pred not in d.schema:
            raise SemanticError(f"predicate {a.pred} is not in the schema")
    view = violation_view(sigma)
    resolved = [d.find(a.pred, a.args, a.fact_id) for a in atoms]
    if any(t is None for t in resolved):
        return False
    if cardinality:
        return not minimum_members(support_sets(d, view), among=resolved)[1]
    index, verdicts = _Index(d), {}
    return not any(_on_minimal_violation(index, view, t, verdicts) for t in resolved)


def _on_minimal_violation(index: _Index, view: UnionQuery, t: Fact, verdicts: dict) -> bool:
    """Whether some witness through ``t``, of any disjunct, is a minimal
    support set of ``view``: no single fact can be dropped from it with
    the view still true on the rest (truth is monotone).  ``verdicts``
    keeps each image's answer across calls."""
    for cq in view.disjuncts:
        for i in range(len(cq.atoms)):
            for used, _ in iter_matches(index, cq, (t, i)):
                image = frozenset(used)
                minimal = verdicts.get(image)
                if minimal is None:
                    minimal = verdicts[image] = not any(
                        eval_boolean(image - {f}, view) for f in image
                    )
                if minimal:
                    return True
    return False

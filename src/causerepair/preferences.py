"""Priorities, preferred causes, and null-based repairs with their causes.

Deletion repairs of every semantics, global-optimal and endogenous ones
included, come from ``repairs.repairs``; what lives here refines them:

* Priorities: a priority is a list of ``(stronger, weaker)`` fact pairs
  as ``parsing.parse_priorities`` reads them, checked by each engine that
  takes one on the family it then searches (``_acyclic``, ``_unimproved``).
  ``_unimproved`` is what global-optimal repairs keep of each conflict
  component.  Preferred causes invert a priority on jointly-contributing
  facts and read causes off each component's unimproved deletion sets.

* Null-based repairs replace attribute values by the non-joining null
  instead of deleting tuples.  A violation witness dies exactly when one
  of its constrained positions (a join variable, an inequality variable,
  or a constant match) is nulled, so minimal change sets are once more
  minimal hitting sets, over attribute positions instead of facts:
  ``null_repairs`` returns that ``HittingSolution``, and
  ``change_applier`` turns a change set into the facts it changes and
  their nulled versions.  Null causes read each position's least change
  set off that family directly, without enumerating the repairs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from graphlib import CycleError, TopologicalSorter
from typing import Iterable

from .causality import _contingency_target
from .errors import SemanticError
from .hitting import (
    HittingSolution,
    antichain,
    enumerate_minimal_hitting_sets,
    forced_minima,
    support_sets,
)
from .queries import (
    ConjunctiveQuery,
    DenialConstraintSet,
    UnionQuery,
    Var,
    _Index,
    dc_of_query,
    iter_matches,
)
from .relational import NULL, Fact, Instance, fact_key


class AttrChange:
    """One attribute position nulled in a tuple, rendered ``R[id;pos]``;
    like ``Fact``, it hashes once, when it is built."""

    __slots__ = ("pred", "fact_id", "position", "_hash")

    def __init__(self, pred: str, fact_id: int, position: int):  # position: 1-based
        self.pred = pred
        self.fact_id = fact_id
        self.position = position
        self._hash = hash((pred, fact_id, position))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.pred == other.pred and self.fact_id == other.fact_id and self.position == other.position

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt, not restored: string hashes differ between processes
        return (AttrChange, (self.pred, self.fact_id, self.position))

    def __str__(self) -> str:
        return f"{self.pred}[{self.fact_id};{self.position}]"


def attr_key(c: AttrChange) -> tuple:
    return (c.pred, c.fact_id, c.position)


# ---------------------------------------------------------------------------
# Priorities


def _acyclic(d: Instance, pairs: Iterable[tuple[Fact, Fact]]) -> list[tuple[Fact, Fact]]:
    """The ``(stronger, weaker)`` pairs resolved in ``d``, checked to be
    acyclic (a self-pair is a cycle)."""
    resolved = [(d.resolve(strong), d.resolve(weak)) for strong, weak in pairs]
    graph: dict[Fact, set[Fact]] = {}
    for a, b in resolved:
        graph.setdefault(a, set()).add(b)
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        raise SemanticError("priority relation contains a cycle") from exc
    return resolved


def _unimproved(pairs: list[tuple[Fact, Fact]], edges, relation: str, inverted: bool = False):
    """What a priority keeps of each conflict component's deletion sets:
    those that no other of them globally improves (a higher-priority fact
    kept outweighs each fact lost).  Each pair must lie on one of the
    ``edges``, or its facts are not ``relation``; ``inverted`` reads a
    pair ``(a, b)`` as ``b`` over ``a``."""
    for a, b in pairs:
        if not any(a in e and b in e for e in edges):
            raise SemanticError(f"{a} and {b} are not {relation}")
    ranked = {(b, a) if inverted else (a, b) for a, b in pairs}

    def improves(candidate: frozenset, over: frozenset) -> bool:
        lost, gained = candidate - over, over - candidate
        return candidate != over and all(any((g, t) in ranked for g in gained) for t in lost)

    return lambda deletions: [p for p in deletions if not any(improves(o, p) for o in deletions)]


# ---------------------------------------------------------------------------
# Preferred causes


def _preferred_parts(d: Instance, q: UnionQuery, pairs: Iterable[tuple[Fact, Fact]], cap) -> list:
    """Per conflict component of ``q``'s constraints, the endogenous parts
    of the global-optimal deletion sets under the inverted priority
    (preferring a cause is preferring to delete it); an endogenous
    global-optimal deletion set joins one part from each.  Each pair must
    lie on one support set, its facts jointly contributing."""
    pairs = _acyclic(d, pairs)
    edges = support_sets(d, q)
    keep = _unimproved(pairs, edges, "jointly contributing", inverted=True)
    solution = enumerate_minimal_hitting_sets(edges, cap).kept(keep)
    return [[s for s in part if s <= d.endogenous] for part in solution.parts]


def preferred_causes(
    d: Instance,
    q: UnionQuery,
    pairs: Iterable[tuple[Fact, Fact]],
    cap: int | None = None,
) -> tuple[tuple[Fact, Fraction], ...]:
    """Causes surviving the causal priority ``pairs``, ``(stronger,
    weaker)`` as ``parsing.parse_priorities`` reads them, with their
    restricted responsibilities.

    A fact is a preferred cause when some endogenous global-optimal
    deletion set removes it, and its responsibility minimizes over those
    sets only: its component's smallest part holding it plus every other
    component's smallest part.  No deletion set is built.
    """
    parts = _preferred_parts(d, q, pairs, cap)
    if not all(parts):
        return ()  # no global-optimal deletion set is endogenous
    least = [min(map(len, part)) for part in parts]
    total = sum(least)
    # the smallest set holding a fact is the last to name it
    scores = {t: total - own + len(s) for part, own in zip(parts, least)
              for s in sorted(part, key=len, reverse=True) for t in s}
    return tuple((t, Fraction(1, scores[t])) for t in sorted(scores, key=fact_key))


def check_preference_contingency(
    d: Instance,
    q: UnionQuery,
    pairs: Iterable[tuple[Fact, Fact]],
    t: Fact,
    gamma: frozenset[Fact],
    cap: int | None = None,
) -> bool:
    """Membership test for preference-restricted minimal contingency sets
    under the causal priority ``pairs``, as for ``preferred_causes``.

    ``{t} ∪ gamma`` must be an endogenous global-optimal deletion set:
    each component holds exactly one of its parts inside it, and those
    parts join to all of it.  Unlike the unrestricted variant there is no
    polynomial shortcut here.
    """
    target = _contingency_target(d, t, gamma)
    joined = set()
    for part in _preferred_parts(d, q, pairs, cap):
        inside = [s for s in part if s <= target]
        if len(inside) != 1:
            return False
        joined |= inside[0]
    return joined == target


# ---------------------------------------------------------------------------
# Null-based repairs and causes


def _constrained_positions(cq: ConjunctiveQuery) -> list[set[int]]:
    """Per atom, the argument positions whose value the match depends on.

    A position matters when it holds a constant, a variable with more
    than one occurrence (a join), or a variable tested by an inequality;
    nulling any such position kills the match, nulling others does not.
    """
    occurs = cq._start.occurs  # each variable's occurrences
    tested = {t.name for pair in cq.inequalities for t in pair if isinstance(t, Var)}
    return [
        {i for i, term in enumerate(atom.terms)
         if not isinstance(term, Var) or len(occurs[term.name]) > 1 or term.name in tested}
        for atom in cq.atoms
    ]


def _kill_sets(d: Instance, sigma: DenialConstraintSet) -> list[frozenset[AttrChange]]:
    """For every violation witness, the positions whose nulling destroys it."""
    kill, index = [], _Index(d)
    for dc in sigma:
        constrained = _constrained_positions(dc.body)
        for used, _ in iter_matches(index, dc.body):
            kill.append(frozenset(
                AttrChange(f.pred, f.fact_id, i + 1)
                for f, positions in zip(used, constrained) for i in positions
            ))
    return kill


def change_applier(d: Instance):
    """A function from a change set to ``v``, each fact of ``d`` that it
    changes mapped to its nulled version; the null repair of ``d`` that
    nulls those positions is
    ``Instance(d.facts.difference(v).union(v.values()))``.  ``d``'s facts
    are keyed by predicate and tuple id once, and each fact is nulled at
    each set of positions once, here."""
    holding: dict[tuple[str, int], list[Fact]] = {}
    for f in d.facts:
        holding.setdefault((f.pred, f.fact_id), []).append(f)
    version = cache(_nulled)

    def apply(changes: Iterable[AttrChange]) -> dict[Fact, Fact]:
        positions: dict[Fact, set[int]] = {}
        for c in changes:
            for f in holding.get((c.pred, c.fact_id), ()):
                positions.setdefault(f, set()).add(c.position - 1)
        return {f: version(f, frozenset(at)) for f, at in positions.items()}

    return apply


def _nulled(f: Fact, positions) -> Fact:
    """``f`` with null at the (0-based) ``positions``."""
    return f.with_args(tuple(NULL if i in positions else a for i, a in enumerate(f.args)))


def _kill_family(d: Instance, sigma: DenialConstraintSet) -> tuple[frozenset[AttrChange], ...]:
    """The subset-minimal kill sets, in ``attr_key`` order; every fact
    needs a tuple id so changes can be reported as ``R[id;pos]``."""
    for f in d.facts:
        if f.fact_id is None:
            raise SemanticError(f"{f} has no tuple id; null-based mode needs ids")
    return antichain(_kill_sets(d, sigma), key=attr_key)


def null_repairs(d: Instance, sigma: DenialConstraintSet, cap: int | None = None) -> HittingSolution:
    """Consistency restoration by nulling a subset-minimal set of positions:
    the minimal hitting sets of the kill sets.  Each ``s`` in the
    solution's ``sets`` is one repair's change set, in canonical order;
    with ``v = change_applier(d)(s)``, the repair is
    ``Instance(d.facts.difference(v).union(v.values()))``.

    Facts are never deleted.  Some constraints (e.g. a single atom with
    no joins) cannot be repaired this way, in which case the family is
    empty.
    """
    return enumerate_minimal_hitting_sets(_kill_family(d, sigma), cap, key=attr_key)


def null_causes(d: Instance, q: UnionQuery) -> tuple[
    tuple[tuple[AttrChange, Fraction], ...], tuple[tuple[Fact, Fraction], ...]
]:
    """Attribute-level and tuple-level causes under null-based repairs.

    A position is a cause when some null repair nulls it, and its
    responsibility is the inverse of the smallest such repair's change
    set: the least subset-minimal hitting set of the kill sets that holds
    it (``forced_minima``), so no repair is enumerated.  A tuple is a
    cause when one of its positions is, with the greatest responsibility
    among them.
    """
    sizes = forced_minima(_kill_family(d, dc_of_query(q)), key=attr_key)
    attr = tuple((c, Fraction(1, n)) for c, n in sizes.items() if n is not None)
    tuple_best: dict[tuple[int, str], Fraction] = {}  # by tuple id, then predicate
    for c, rho in attr:
        tuple_best[c.fact_id, c.pred] = max(rho, tuple_best.get((c.fact_id, c.pred), rho))
    by_key = {(f.fact_id, f.pred): f for f in d.facts}
    return attr, tuple((by_key[key], tuple_best[key]) for key in sorted(tuple_best))

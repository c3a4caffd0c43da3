"""Minimal support sets and hitting-set solvers.

The central reduction: the family of subset-minimal sub-instances that
make a boolean query true doubles as a hypergraph whose vertices are
facts.  Hitting sets of that hypergraph are exactly the deletion sets
that falsify the query, so minimal hitting sets encode repairs,
contingency sets, and diagnoses all at once.

A family is a plain tuple of frozensets, an antichain in canonical order
(``antichain``).  ``support_sets`` builds the one for a query;
``endogenous_part`` restricts it to the endogenous facts, where an edge
with no endogenous fact turns into the empty edge, which nothing hits.
Each entry point builds its family once and hands it to the solvers by
value.

Two solvers operate on a family:

* ``enumerate_minimal_hitting_sets`` computes the full transversal
  hypergraph by the classic multiply-and-minimize scheme (process one
  edge at a time, extend each partial solution, prune non-minimal sets).
  The family can be exponential, so enumeration is capped.

* ``minimum_hitting_set_containing`` answers minimum-cardinality
  questions without enumeration, by a bounded-depth branching search:
  pick the first unhit edge, branch on its at most ``d`` vertices.  One
  iterative-deepening loop (``_smallest``) tries depths ``k = 0, 1, ...``
  and stops at the first that succeeds.  Each depth is a search tree of
  depth ``k`` and branching factor ``d``, so every question is
  fixed-parameter tractable in ``k``; a budget only caps the depth.
  Each edge's vertices are sorted once per call, so the branching order,
  and with it the run time, is the same in every process.  The minimum
  is a size: no witness set is built.

When an element ``t`` is forced, the relevant quantity is the minimum
size of an *irredundant* hitting set containing ``t`` (one in which some
edge is hit by ``t`` alone).  Plain "minimum hitting set containing t"
would overshoot on star-shaped families where every small hitting set
makes ``t`` redundant, and irredundance is what deletion semantics needs:
a deletion set whose every member matters.  The search realizes this by
choosing a witness edge for ``t``, forbidding that edge's other vertices,
and solving the remaining (t-free) edges; the families of all witness
edges are searched together, one depth at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import CapExceededError, SemanticError
from .queries import UnionQuery, witnesses
from .relational import Fact, Instance, fact_key, set_key

DEFAULT_CAP = 100_000


def minimal_sets(sets: Iterable[frozenset]) -> list[frozenset]:
    """Subset-minimal members of a family (its antichain), smallest first;
    members of equal size keep their input order."""
    result: list[frozenset] = []
    for s in sorted(dict.fromkeys(sets), key=len):
        if not any(r <= s for r in result):
            result.append(s)
    return result


def _canonical_family(sets: Iterable[frozenset], key: Callable) -> tuple[frozenset, ...]:
    return tuple(sorted(sets, key=lambda s: set_key(s, key)))


def antichain(sets: Iterable[frozenset], key=fact_key) -> tuple[frozenset, ...]:
    """The subset-minimal members of a family, in canonical order."""
    return _canonical_family(minimal_sets(sets), key)


@dataclass(frozen=True)
class HittingSolution:
    sets: tuple[frozenset, ...]


# ---------------------------------------------------------------------------
# Support sets


def support_sets(d: Instance, q: UnionQuery) -> tuple[frozenset[Fact], ...]:
    """All subset-minimal sub-instances satisfying some disjunct of ``q``.

    The family is empty exactly when ``q`` is false on ``d``.
    """
    if not q.is_boolean:
        raise SemanticError("support sets are defined for boolean queries")
    images: set[frozenset[Fact]] = set()
    for cq in q.disjuncts:
        images |= witnesses(d.facts, cq)
    return antichain(images)


def endogenous_part(
    family: Iterable[frozenset[Fact]], endogenous: frozenset[Fact]
) -> tuple[frozenset[Fact], ...]:
    """Endogenous restriction of a support family.

    A support set made purely of exogenous facts restricts to the empty
    edge, which absorbs every other edge: the result is then ``(∅,)``,
    a family with no hitting set at all.
    """
    return antichain(e & endogenous for e in family)


def endogenous_support_sets(d: Instance, q: UnionQuery) -> tuple[frozenset[Fact], ...]:
    """Endogenous restrictions of the support sets, as seen by causes.

    If any support set is witnessed entirely by exogenous facts, the query
    cannot be falsified through endogenous deletions at all, so the family
    collapses to the empty one (no causes, no contingencies).
    """
    part = endogenous_part(support_sets(d, q), d.endogenous)
    return () if frozenset() in part else part


# ---------------------------------------------------------------------------
# Enumeration of all minimal hitting sets


def enumerate_minimal_hitting_sets(
    edges: Iterable[frozenset], cap: int | None = None, key=fact_key
) -> HittingSolution:
    """All subset-minimal hitting sets, in canonical order under ``key``.

    Raises ``CapExceededError`` once the working family outgrows ``cap``;
    exponential families exist even for single fixed constraints.
    """
    cap = DEFAULT_CAP if cap is None else cap
    solutions: list[frozenset] = [frozenset()]
    for edge in edges:
        if not edge:
            return HittingSolution(())
        extended: set[frozenset] = set()
        for s in solutions:
            if s & edge:
                extended.add(s)
            else:
                for v in edge:
                    extended.add(s | {v})
        solutions = minimal_sets(extended)
        if len(solutions) > cap:
            raise CapExceededError(cap)
    return HittingSolution(_canonical_family(solutions, key))


# ---------------------------------------------------------------------------
# Bounded branching for minimum hitting sets


def _branch(edges, limit, acc) -> bool:
    """Deterministic DFS: can ``acc`` be extended by at most ``limit``
    vertices to hit every edge?  ``edges`` pairs each edge with its
    vertices in branching order."""
    for edge, vertices in edges:
        if not (edge & acc):
            break
    else:
        return True
    if limit <= 0:
        return False
    return any(_branch(edges, limit - 1, acc | {v}) for v in vertices)


def _smallest(families, limit: int) -> int | None:
    """The least ``k <= limit`` such that some family has a hitting set of
    size ``k``, by iterative deepening; ``None`` if there is none.  Edges
    must all be non-empty."""
    ordered = [[(e, sorted(e, key=fact_key)) for e in edges] for edges in families]
    for k in range(limit + 1):
        if any(_branch(edges, k, frozenset()) for edges in ordered):
            return k
    return None


def _shrunken_rest(edges, witness_edge, t):
    """Edges not containing ``t``, with the witness edge's other vertices
    removed (they are forbidden, so ``t`` stays irredundant).  Antichains
    guarantee no edge is swallowed whole."""
    blocked = witness_edge - {t}
    rest = []
    for e in edges:
        if t in e:
            continue
        shrunk = e - blocked
        if not shrunk:
            raise AssertionError("antichain violated: edge absorbed by witness")
        rest.append(shrunk)
    return minimal_sets(rest)


def minimum_hitting_set_containing(
    edges: Iterable[frozenset],
    t=None,
    budget: int | None = None,
):
    """Minimum-cardinality hitting-set sizes with an optional forced element.

    Without ``t``: the size of a minimum hitting set, ``None`` if an edge
    is empty.

    With ``t``: the minimum size of a hitting set in which ``t`` is
    irredundant (equivalently, of a subset-minimal hitting set containing
    ``t``); ``None`` if ``t`` lies on no edge.

    With ``t`` and ``budget``: decision mode, answering only whether that
    size is strictly below ``budget``; the search never goes deeper than
    ``budget - 2`` vertices beyond ``t``, branching on at most the edge
    bound at each level.  ``budget`` is read only together with ``t``.
    """
    edges = list(edges)
    if any(not e for e in edges):
        # an empty edge cannot be hit
        return False if budget is not None else None
    if t is None:
        return _smallest([edges], len(edges))  # one vertex per edge suffices
    rests = [_shrunken_rest(edges, e, t) for e in edges if t in e]
    if not rests:
        return False if budget is not None else None
    if budget is not None:
        return budget > 1 and _smallest(rests, budget - 2) is not None
    return 1 + _smallest(rests, max(map(len, rests)))

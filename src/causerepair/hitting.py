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

Every solver is one search, ``_search``, over the subset-minimal hitting
sets of a family (MMCS, Murakami and Uno).  It branches on the vertices
of the first unhit edge, those on the most edges first; it adds a vertex
only while each chosen vertex still hits some edge alone (a critical
edge), so each set it reaches is minimal; and it keeps each vertex out
of its later siblings' subtrees, so it reaches each set once.  A bound
caps the set size and each set found may lower it:
``enumerate_minimal_hitting_sets`` keeps no bound and collects every set,
up to a cap on their number; ``minimum_hitting_set_containing`` lowers
the bound below each set found (branch and bound), so the last set found
is a minimum.  Edges and vertices are bitmasks (``int.bit_count`` needs
Python 3.10) and ``key`` fixes the order, so the search, and its run
time, is the same in every process.  An empty edge has no vertex to
branch on, so a family holding one has no hitting set; no family need
be an antichain.

When an element ``t`` is forced, the relevant quantity is the minimum
size of an *irredundant* hitting set containing ``t`` (one in which some
edge is hit by ``t`` alone).  Plain "minimum hitting set containing t"
would overshoot on star-shaped families where every small hitting set
makes ``t`` redundant, and irredundance is what deletion semantics needs:
a deletion set whose every member matters.  The search realizes this by
choosing a witness edge for ``t``, forbidding that edge's other vertices,
and solving the remaining (t-free) edges; the families of all witness
edges share one bound.
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
# The search


def _search(edges, found, most, key=fact_key) -> None:
    """Visit every subset-minimal hitting set of ``edges`` with at most
    ``most`` members once, calling ``found`` on it; ``found`` returns the
    new bound, ``None`` for none."""
    edges = list(edges)
    on: dict = {}  # vertex -> mask of the edges it lies on
    for i, e in enumerate(edges):
        for v in e:
            on[v] = on.get(v, 0) | 1 << i
    bit = {v: 1 << j for j, v in enumerate(on)}
    rows = [sorted(e, key=lambda v: (-on[v].bit_count(), key(v))) for e in edges]
    rows = [[(v, bit[v], on[v]) for v in row] for row in rows]
    chosen: list = []
    bound = len(edges) if most is None else most

    def branches(uncovered, banned, crit):
        # crit[i]: the edges that chosen[i] alone hits
        for v, b, mask in rows[(uncovered & -uncovered).bit_length() - 1]:
            if len(chosen) >= bound:
                return
            if not b & banned:
                kept = [c & ~mask for c in crit]
                if all(kept):
                    chosen.append(v)
                    yield uncovered & ~mask, banned, kept + [uncovered & mask]
                    chosen.pop()
            banned |= b

    # a stack of open nodes, not recursion: sets may be thousands deep
    stack = [iter([((1 << len(edges)) - 1, 0, [])])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
        elif node[0]:
            stack.append(branches(*node))
        elif (bound := found(frozenset(chosen))) is None:
            bound = len(edges)  # a minimal set needs one edge per member


def enumerate_minimal_hitting_sets(
    edges: Iterable[frozenset], cap: int | None = None, key=fact_key
) -> HittingSolution:
    """All subset-minimal hitting sets, in canonical order under ``key``.

    Raises ``CapExceededError`` as soon as more than ``cap`` sets are
    found; exponential families exist even for single fixed constraints.
    """
    cap = DEFAULT_CAP if cap is None else cap
    sets: list[frozenset] = []

    def found(s):
        sets.append(s)
        if len(sets) > cap:
            raise CapExceededError(cap)

    _search(edges, found, None, key)
    return HittingSolution(_canonical_family(sets, key))


def _smallest(families, most: int | None) -> int | None:
    """The least size of a subset-minimal hitting set of any of the
    families, if one has at most ``most`` members; ``None`` otherwise.
    One bound, lowered by every set found, serves all the families."""
    best = None

    def found(s):
        nonlocal best
        best = len(s)
        return best - 1

    for edges in families:
        _search(edges, found, most if best is None else best - 1)
    return best


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
    ``t``); ``None`` if there is none, as when ``t`` lies on no edge.

    With ``t`` and ``budget``: decision mode, answering only whether that
    size is strictly below ``budget``; the search never goes deeper than
    ``budget - 2`` vertices beyond ``t``.  ``budget`` is read only
    together with ``t``.
    """
    edges = list(edges)
    if t is None:
        return _smallest([edges], None)
    # t alone hits its witness edge w: w's other vertices are forbidden
    rests = [[e - (w - {t}) for e in edges if t not in e] for w in edges if t in w]
    if budget is not None:
        return budget > 1 and _smallest(rests, budget - 2) is not None
    rest = _smallest(rests, None)
    return None if rest is None else 1 + rest

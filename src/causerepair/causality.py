"""Actual causes, contingency sets, and responsibilities.

An endogenous fact ``t`` is an actual cause for a true boolean query when
some set of endogenous facts can be removed so that the query stays true
but removing ``t`` as well falsifies it.  The smallest such contingency
set fixes the responsibility ``1/(1+|gamma|)``; non-causes get 0.

Everything here runs through the hitting-set view: causes are the facts
on some edge of the endogenous support family, minimal contingency sets
are minimal hitting sets with ``t`` stripped out, and responsibility
questions become minimum-hitting-set questions, answered from the
family's kernel and a bounded branching search of what is left, never by
enumeration (``hitting.forced_minima``).  ``responsibilities`` asks for
every cause at once, so each component's minimum is found once and
shared, and each minimal set found bounds the other causes on it.
``most_responsible_causes`` is decided within the minimum: a cause is
most responsible iff some minimum hitting set holds it, so no forced
rest is searched at or above its component's minimum.

Each function that builds a ``Fraction`` imports it, so ``fractions``
loads on first use: a run that asks for no responsibility never loads it.
"""

from __future__ import annotations

from .errors import SemanticError
from .hitting import (
    endogenous_support_sets,
    enumerate_minimal_hitting_sets,
    forced_minima,
    minimum_members,
)
from .queries import UnionQuery, _maximal_deletion
from .relational import Fact, Instance, Record, set_key


class CauseReport(Record):
    """Everything known about one fact's causal status for one query."""

    __slots__ = ("fact", "is_cause", "responsibility", "minimal_contingencies")

    def __init__(self, fact: Fact, is_cause: bool, responsibility: Fraction,
                 minimal_contingencies: tuple[frozenset[Fact], ...]):
        self.fact = fact
        self.is_cause = is_cause
        self.responsibility = responsibility
        self.minimal_contingencies = minimal_contingencies


def _require_endogenous(d: Instance, t: Fact) -> Fact:
    resolved = d.resolve(t)
    if not resolved.is_endogenous:
        raise SemanticError(f"{t} is exogenous; only endogenous facts can be causes")
    return resolved


def actual_causes(d: Instance, q: UnionQuery) -> frozenset[Fact]:
    """All actual causes: the union of the endogenous support edges."""
    return frozenset(f for edge in endogenous_support_sets(d, q) for f in edge)


def contingency_sets(
    d: Instance, q: UnionQuery, t: Fact, cap: int | None = None
) -> tuple[frozenset[Fact], ...]:
    """All subset-minimal contingency sets for ``t``.

    These are exactly ``H - {t}`` for the minimal hitting sets ``H`` of the
    endogenous support family that contain ``t``; only those are searched
    for, and the cap counts them.  They come smallest first.  A fact on
    no edge has none, and no search.
    """
    t = _require_endogenous(d, t)
    through = enumerate_minimal_hitting_sets(endogenous_support_sets(d, q), cap, through=t).sets
    return tuple(sorted((s - {t} for s in through), key=lambda s: (len(s), set_key(s))))


def responsibility(d: Instance, q: UnionQuery, t: Fact) -> Fraction:
    """Exact responsibility of ``t``, without enumerating contingency sets."""
    from fractions import Fraction
    t = _require_endogenous(d, t)
    size = forced_minima(endogenous_support_sets(d, q), among=[t])[t]
    return Fraction(0) if size is None else Fraction(1, size)


def responsibilities(d: Instance, q: UnionQuery) -> dict[Fact, Fraction]:
    """Every actual cause with its exact responsibility, in canonical order.

    One support family serves all causes; facts that are not causes are
    left out (their responsibility is 0).  Each connected component's
    minimum hitting set is found once; a cause's contingency size is
    then its least forced rest within its own component plus the other
    components' minima, with bounds shared between the causes.
    """
    from fractions import Fraction
    sizes = forced_minima(endogenous_support_sets(d, q))
    return {t: Fraction(1, size) for t, size in sizes.items()}


def rdp_decide(d: Instance, q: UnionQuery, t: Fact, v: Fraction) -> bool:
    """Decide whether ``t``'s responsibility strictly exceeds ``v``.

    ``v`` must be 0 or 1/k.  For positive thresholds the forced minimum
    is asked within ``most=k - 1``: the search never adds more than
    ``k - 2`` facts beyond ``t``, so a responsibility at or below ``v``
    is never computed exactly; facts that are absent or exogenous fail
    before any join.
    """
    from fractions import Fraction
    v = Fraction(v)
    if v < 0 or (v > 0 and v.numerator != 1):
        raise SemanticError(f"threshold must be 0 or 1/k, got {v}")
    resolved = d.find(t.pred, t.args, t.fact_id)
    if resolved is None or not resolved.is_endogenous:
        return False
    edges = endogenous_support_sets(d, q)
    if v == 0:
        return any(resolved in edge for edge in edges)
    return forced_minima(edges, among=[resolved], most=v.denominator - 1)[resolved] is not None


def most_responsible_causes(
    d: Instance, q: UnionQuery
) -> tuple[frozenset[Fact], Fraction]:
    """The causes of maximal responsibility, with the shared value.

    A minimum hitting set is subset-minimal, so the most responsible
    causes are the facts in some minimum hitting set, and the top value
    is one over the minimum: each is decided within the minimum, and no
    other cause's exact responsibility is computed.
    """
    from fractions import Fraction
    least, top = minimum_members(endogenous_support_sets(d, q))
    return (frozenset(top), Fraction(1, least)) if top else (frozenset(), Fraction(0))


def _contingency_target(d: Instance, t: Fact, gamma) -> frozenset[Fact]:
    """``gamma | {t}`` resolved as endogenous facts of ``d``, ``t`` not in ``gamma``."""
    t = _require_endogenous(d, t)
    gamma = frozenset(_require_endogenous(d, g) for g in gamma)
    if t in gamma:
        raise SemanticError(f"{t} cannot belong to its own contingency set")
    return gamma | {t}


def check_minimal_contingency(
    d: Instance, q: UnionQuery, t: Fact, gamma: frozenset[Fact]
) -> bool:
    """Decide membership of ``gamma`` among ``t``'s minimal contingency sets.

    No enumeration: this is the polynomial-time repair check in disguise.
    ``gamma`` is a minimal contingency set for ``t`` exactly when removing
    ``gamma`` and ``t`` yields a maximal consistent sub-instance, i.e. the
    query is false afterwards and putting any removed fact back revives it.
    """
    return _maximal_deletion(d, _contingency_target(d, t, gamma), q)


def explain(d: Instance, q: UnionQuery, t: Fact, cap: int | None = None) -> CauseReport:
    """Assemble the full per-fact verdict.

    The responsibility is read off the smallest minimal contingency set
    (they come smallest first), so the support family is built once.
    """
    from fractions import Fraction
    resolved = _require_endogenous(d, t)
    contingencies = contingency_sets(d, q, resolved, cap)
    rho = Fraction(1, 1 + len(contingencies[0])) if contingencies else Fraction(0)
    return CauseReport(resolved, bool(contingencies), rho, contingencies)

"""Brute-force reference implementations, for tests and cross-validation.

Everything here applies the definitions literally by scanning subsets.
The only machinery shared with the optimized modules is query evaluation;
no hitting-set code, no minimization tricks.  That evaluation is the
indexed join of ``queries.iter_matches``, itself checked against a plain
nested-loop evaluator in ``tests/test_queries.py``.  Each scan first tabulates
the query on every relevant subset (pure repeated evaluation, nothing
clever), then reads the definitions off the table.  The bounds guard
against accidental exponential blowups.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import BoundExceededError, SemanticError
from .queries import DenialConstraintSet, UnionQuery, eval_boolean, violation_view
from .relational import Fact, Instance, fact_key

BOUND = 14  # facts scanned by the instance oracles
HITTING_BOUND = 20  # vertices scanned by ``oracle_hitting``


def _deletion_truth_table(d: Instance, q: UnionQuery, deletable) -> dict:
    """Truth of ``q`` on ``d`` minus every subset of ``deletable``."""
    table = {}
    for size in range(len(deletable) + 1):
        for combo in combinations(deletable, size):
            removed = frozenset(combo)
            table[removed] = eval_boolean(d.facts - removed, q)
    return table


def oracle_causes_and_responsibility(d: Instance, q: UnionQuery) -> dict[Fact, Fraction]:
    """Responsibility of every endogenous fact, by scanning contingency sets.

    For each fact the candidate contingency sets are scanned smallest
    first; the first set whose removal keeps the query true while the
    additional removal of the fact falsifies it settles the value.
    """
    endo = sorted(d.endogenous, key=fact_key)
    if len(endo) > BOUND:
        raise BoundExceededError(f"{len(endo)} endogenous facts exceed bound {BOUND}")
    truth = _deletion_truth_table(d, q, endo)
    out: dict[Fact, Fraction] = {}
    for t in endo:
        others = [f for f in endo if f != t]
        value = Fraction(0)
        for size in range(len(others) + 1):
            found = False
            for combo in combinations(others, size):
                gamma = frozenset(combo)
                if truth[gamma] and not truth[gamma | {t}]:
                    found = True
                    break
            if found:
                value = Fraction(1, size + 1)
                break
        out[t] = value
    return out


def oracle_repairs(
    d: Instance, sigma: DenialConstraintSet, semantics: str = "s"
) -> tuple[frozenset[Fact], ...]:
    """Repairs by filtering all subsets for consistency and maximality.

    Semantics 's' keeps the maximal consistent subsets, 'c' the maximum-
    cardinality ones, and 'endo' the subsets preserving every exogenous
    fact that are maximal among those.  Any other semantics, or an empty
    constraint set, is a ``SemanticError``.
    """
    if semantics not in ("s", "c", "endo"):
        raise SemanticError(f"unknown repair semantics {semantics!r}")
    facts = sorted(d.facts, key=fact_key)
    if len(facts) > BOUND:
        raise BoundExceededError(f"{len(facts)} facts exceed bound {BOUND}")
    violated = _deletion_truth_table(d, violation_view(sigma), facts)
    required = d.exogenous if semantics == "endo" else frozenset()
    consistent: list[frozenset[Fact]] = []
    for removed, bad in violated.items():
        if bad:
            continue
        kept = d.facts - removed
        if required <= kept:
            consistent.append(kept)
    if semantics == "c":
        biggest = max(len(s) for s in consistent)
        chosen = [s for s in consistent if len(s) == biggest]
    else:
        chosen = [
            s
            for s in consistent
            if all(f in s or violated[d.facts - s - {f}] for f in facts)
        ]
    return tuple(sorted(chosen, key=lambda s: sorted(fact_key(f) for f in s)))


def oracle_hitting(universe, edges) -> tuple[tuple[frozenset, ...], int | None, dict]:
    """Exhaustive transversal scan of a family of edges over a universe.

    Returns the minimal hitting sets, the global minimum size (None when
    no hitting set exists), and for every universe element the smallest
    minimal hitting set containing it (None when there is none).
    """
    universe = sorted(universe, key=fact_key)
    if len(universe) > HITTING_BOUND:
        raise BoundExceededError(f"universe of {len(universe)} exceeds bound {HITTING_BOUND}")
    edges = list(edges)

    def hits(subset: frozenset) -> bool:
        return all(e & subset for e in edges)

    minimal: list[frozenset] = []
    for size in range(len(universe) + 1):
        for subset in combinations(universe, size):
            s = frozenset(subset)
            if hits(s) and all(not hits(s - {v}) for v in s):
                minimal.append(s)
    global_min = min((len(s) for s in minimal), default=None)
    per_element = {
        u: min((len(s) for s in minimal if u in s), default=None) for u in universe
    }
    ordered = tuple(sorted(minimal, key=lambda s: sorted(fact_key(f) for f in s)))
    return ordered, global_min, per_element

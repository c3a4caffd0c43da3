"""Consistency-based diagnosis of an unexpectedly true query.

The system description says the database behaves normally, i.e. the
negation of the query holds whenever no involved tuple is abnormal; the
observation is that the query is true.  Restoring consistency means
declaring a set of endogenous facts abnormal, and the minimal such sets
are exactly the minimal hitting sets of the conflict family, which here
coincides with the endogenous support sets of the query.

``render_theory`` materializes the first-order theory itself (predicate
completions, unique names, the abnormality-qualified constraint as a
disjunctive positive rule, the inclusion axioms tying abnormality to
endogenousness, the observation, and the no-abnormality defaults); all
reasoning, however, goes through the conflict-set identification.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .causality import _require_endogenous
from .errors import SemanticError
from .hitting import (
    endogenous_part,
    enumerate_minimal_hitting_sets,
    minimal_hitting_sets_containing,
    support_sets,
)
from .queries import ConjunctiveQuery, UnionQuery, Var
from .relational import Fact, Instance, format_constant
from .repairs import SUBSET, Repair, _pick


@dataclass(frozen=True)
class DiagnosisProblem:
    instance: Instance
    query: UnionQuery
    conflicts: tuple[frozenset[Fact], ...]
    # Set when some support set is purely exogenous: the observation then
    # stays derivable no matter which endogenous facts turn abnormal, so
    # no diagnosis exists even though the conflict family is empty.
    unexplainable: bool = False


@dataclass(frozen=True)
class Diagnosis:
    abnormal: frozenset[Fact]


def build_problem(d: Instance, q: UnionQuery) -> DiagnosisProblem:
    """Set up the diagnosis problem for the observation that ``q`` holds."""
    if not q.is_boolean:
        raise SemanticError("diagnosis problems are built from boolean queries")
    family = support_sets(d, q)
    if not family:
        raise SemanticError("the query is false: there is nothing to explain")
    conflicts = endogenous_part(family, d.endogenous)
    if frozenset() in conflicts:
        return DiagnosisProblem(d, q, (), unexplainable=True)
    return DiagnosisProblem(d, q, conflicts)


def diagnoses(
    m: DiagnosisProblem,
    kind: str = SUBSET,
    containing: Fact | None = None,
    cap: int | None = None,
) -> tuple[Diagnosis, ...]:
    """Minimal diagnoses, optionally restricted to those containing a fact.

    Kind 's' returns all subset-minimal diagnoses; kind 'c' the minimum-
    cardinality ones (within the restricted family when ``containing`` is
    given, matching the responsibility correspondence).
    """
    keep = _pick(kind)
    if m.unexplainable:
        return ()
    if containing is None:
        found = enumerate_minimal_hitting_sets(m.conflicts, cap, keep=keep).sets
    else:
        target = _require_endogenous(m.instance, containing)
        found = minimal_hitting_sets_containing(m.conflicts, target, cap, keep)
    return tuple(map(Diagnosis, found))


def repairs_from_diagnoses(
    m: DiagnosisProblem, kind: str = SUBSET, cap: int | None = None
) -> tuple[Repair, ...]:
    """Each minimal diagnosis, removed from the instance, is a repair
    (in the canonical order of the diagnoses)."""
    if m.instance.exogenous:
        raise SemanticError("repairs from diagnoses assume all facts endogenous")
    return tuple(
        Repair(m.instance.without(diag.abnormal), diag.abnormal)
        for diag in diagnoses(m, kind, cap=cap)
    )


# ---------------------------------------------------------------------------
# Theory rendering


def _fresh_vars(arity: int) -> list[str]:
    return [f"x{i}" for i in range(1, arity + 1)]


def _head(pred: str, variables: list[str]) -> str:
    return f"{pred}({','.join(variables)})" if variables else pred


def _completion(pred: str, arity: int, rows: list[tuple[str, ...]]) -> str:
    variables = _fresh_vars(arity)
    if rows:
        clauses = []
        for row in rows:
            eqs = [f"{v} = {format_constant(c)}" for v, c in zip(variables, row)]
            clauses.append("(" + " & ".join(eqs) + ")" if len(eqs) > 1 else eqs[0])
        body = " | ".join(clauses)
    else:
        body = "false"
    return f"forall {' '.join(variables)} ({_head(pred, variables)} <-> {body})"


def _term_text(t) -> str:
    return t.name if isinstance(t, Var) else format_constant(t)


def _disjunctive_rule(cq: ConjunctiveQuery) -> str:
    variables = sorted(cq.variables())
    body_parts = [
        f"{a.pred}({','.join(_term_text(t) for t in a.terms)})" for a in cq.atoms
    ]
    body_parts.extend(
        f"~({_term_text(l)} = {_term_text(r)})" for l, r in cq.inequalities
    )
    head_parts = [
        f"Ab_{a.pred}({','.join(_term_text(t) for t in a.terms)})" for a in cq.atoms
    ]
    quantifier = f"forall {' '.join(variables)} " if variables else ""
    return f"{quantifier}({' & '.join(body_parts)} -> {' | '.join(head_parts)})"


def _observation(q: UnionQuery) -> str:
    parts = []
    for cq in q.disjuncts:
        variables = sorted(cq.variables())
        conj = [
            f"{a.pred}({','.join(_term_text(t) for t in a.terms)})" for a in cq.atoms
        ]
        conj.extend(f"~({_term_text(l)} = {_term_text(r)})" for l, r in cq.inequalities)
        inner = " & ".join(conj)
        parts.append(
            f"exists {' '.join(variables)} ({inner})" if variables else f"({inner})"
        )
    return " | ".join(parts)


def render_theory(m: DiagnosisProblem) -> str:
    """The first-order theory of the problem, one sentence per line.

    Connectives are rendered in ASCII (``forall``, ``exists``, ``->``,
    ``<->``, ``&``, ``|``, ``~``, ``=``, and the constant ``false``), in a
    stable order: completions, unique names, the qualified constraints,
    the inclusion axioms, the observation, then the defaults.
    """
    d = m.instance
    schema = dict(d.schema)
    for cq in m.query.disjuncts:
        for a in cq.atoms:
            schema.setdefault(a.pred, len(a.terms))
    lines = []
    for pred in sorted(schema):
        arity = schema[pred]
        rows = sorted(f.args for f in d.facts if f.pred == pred)
        lines.append(_completion(pred, arity, rows))
        endo_rows = sorted(f.args for f in d.endogenous if f.pred == pred)
        lines.append(_completion(f"End_{pred}", arity, endo_rows))
    constants = sorted({c for f in d.facts for c in f.args})
    for a, b in combinations(constants, 2):
        lines.append(f"~({format_constant(a)} = {format_constant(b)})")
    for cq in m.query.disjuncts:
        lines.append(_disjunctive_rule(cq))
    for pred in sorted(schema):
        variables = _fresh_vars(schema[pred])
        quant = f"forall {' '.join(variables)} " if variables else ""
        lines.append(
            f"{quant}({_head(f'Ab_{pred}', variables)} -> {_head(f'End_{pred}', variables)})"
        )
        lines.append(
            f"{quant}({_head(f'End_{pred}', variables)} -> {_head(pred, variables)})"
        )
    lines.append(_observation(m.query))
    for pred in sorted(schema):
        variables = _fresh_vars(schema[pred])
        quant = f"forall {' '.join(variables)} " if variables else ""
        lines.append(f"{quant}({_head(f'Ab_{pred}', variables)} -> false)")
    return "\n".join(lines) + "\n"

"""Consistency-based diagnosis of an unexpectedly true query.

The system description says the database behaves normally, i.e. the
negation of the query holds whenever no involved tuple is abnormal; the
observation is that the query is true.  Restoring consistency means
declaring a set of endogenous facts abnormal, and the minimal such sets
are exactly the minimal hitting sets of the conflict family, which here
coincides with the endogenous support sets of the query: ``diagnoses``
returns that hitting solution, and its ``sets`` are the diagnoses.

``render_theory`` materializes the first-order theory itself (predicate
completions, unique names, the abnormality-qualified constraint as a
disjunctive positive rule, the inclusion axioms tying abnormality to
endogenousness, the observation, and the no-abnormality defaults); all
reasoning, however, goes through the conflict-set identification.
"""

from __future__ import annotations

from itertools import combinations

from .causality import _require_endogenous
from .errors import SemanticError
from .hitting import HittingSolution, endogenous_support_sets, enumerate_minimal_hitting_sets
from .queries import ConjunctiveQuery, UnionQuery, Var
from .relational import Fact, Instance, Record, format_constant
from .repairs import SUBSET, _cardinality


class DiagnosisProblem(Record):
    """An observation ``query`` on ``instance`` and its conflict family,
    the endogenous support sets (``hitting.endogenous_support_sets``)."""

    __slots__ = ("instance", "query", "conflicts")

    def __init__(self, instance: Instance, query: UnionQuery, conflicts: tuple[frozenset[Fact], ...]):
        self.instance = instance
        self.query = query
        self.conflicts = conflicts

    @property
    def unexplainable(self) -> bool:
        """Whether some support set is purely exogenous: its conflict is
        empty, and the observation stays derivable whichever endogenous
        facts turn abnormal, so no diagnosis exists."""
        return frozenset() in self.conflicts


def build_problem(d: Instance, q: UnionQuery) -> DiagnosisProblem:
    """Set up the diagnosis problem for the observation that ``q`` holds."""
    if not q.is_boolean:
        raise SemanticError("diagnosis problems are built from boolean queries")
    conflicts = endogenous_support_sets(d, q)
    if not conflicts:
        raise SemanticError("the query is false: there is nothing to explain")
    return DiagnosisProblem(d, q, conflicts)


def diagnoses(
    m: DiagnosisProblem,
    kind: str = SUBSET,
    containing: Fact | None = None,
    cap: int | None = None,
) -> HittingSolution:
    """Minimal diagnoses, each the set of facts it declares abnormal, as
    the product of what each conflict component keeps of its minimal
    hitting sets, optionally restricted to those containing a fact; the
    solution's ``sets`` lists them in canonical order.

    Kind 's' keeps all subset-minimal diagnoses; kind 'c' the minimum-
    cardinality ones (within the restricted family when ``containing`` is
    given, matching the responsibility correspondence).  Only the kept
    diagnoses are searched for, and the cap counts them; none are, when
    ``containing`` lies on no conflict.
    """
    smallest = _cardinality(kind)
    if containing is not None:
        containing = _require_endogenous(m.instance, containing)
    return enumerate_minimal_hitting_sets(m.conflicts, cap, through=containing, smallest=smallest)


# ---------------------------------------------------------------------------
# Theory rendering


def _head(pred: str, variables: list[str]) -> str:
    return f"{pred}({','.join(variables)})" if variables else pred


def _quantified(quantifier: str, variables: list[str], body: str) -> str:
    """``body`` in parentheses, under ``quantifier`` over ``variables`` if any."""
    return f"{quantifier} {' '.join(variables)} ({body})" if variables else f"({body})"


def _completion(pred: str, variables: list[str], rows: list[tuple[str, ...]]) -> str:
    clauses = []
    for row in rows:
        eqs = [f"{v} = {format_constant(c)}" for v, c in zip(variables, row)]
        conjunction = " & ".join(eqs) or "true"  # a nullary fact's row is empty
        clauses.append(f"({conjunction})" if len(eqs) > 1 else conjunction)
    body = " | ".join(clauses) or "false"
    return _quantified("forall", variables, f"{_head(pred, variables)} <-> {body}")


def _term_text(t) -> str:
    return t.name if isinstance(t, Var) else format_constant(t)


def _literals(cq: ConjunctiveQuery, prefix: str) -> list[str]:
    """The query's atoms as text, each predicate behind ``prefix``, then
    its inequalities."""
    atoms = [_head(prefix + a.pred, list(map(_term_text, a.terms))) for a in cq.atoms]
    return atoms + [f"~({_term_text(l)} = {_term_text(r)})" for l, r in cq.inequalities]


def _disjunctive_rule(cq: ConjunctiveQuery) -> str:
    abnormal = _literals(cq, "Ab_")[:len(cq.atoms)]  # the atoms, not the inequalities
    body = f"{' & '.join(_literals(cq, ''))} -> {' | '.join(abnormal)}"
    return _quantified("forall", sorted(cq.variables()), body)


def _observation(q: UnionQuery) -> str:
    return " | ".join(
        _quantified("exists", sorted(cq.variables()), " & ".join(_literals(cq, "")))
        for cq in q.disjuncts
    )


def render_theory(m: DiagnosisProblem) -> str:
    """The first-order theory of the problem, one sentence per line.

    Connectives are rendered in ASCII (``forall``, ``exists``, ``->``,
    ``<->``, ``&``, ``|``, ``~``, ``=``, and the constants ``true`` and
    ``false``), in a stable order: completions, unique names, the
    qualified constraints, the inclusion axioms, the observation, then
    the defaults.
    """
    d = m.instance
    schema = dict(d.schema)
    for cq in m.query.disjuncts:
        for a in cq.atoms:
            schema.setdefault(a.pred, len(a.terms))
    completions, inclusions, defaults = [], [], []
    for pred in sorted(schema):
        variables = [f"x{i}" for i in range(1, schema[pred] + 1)]
        ab, end = _head(f"Ab_{pred}", variables), _head(f"End_{pred}", variables)
        for name, facts in ((pred, d.facts), (f"End_{pred}", d.endogenous)):
            rows = sorted(f.args for f in facts if f.pred == pred)
            completions.append(_completion(name, variables, rows))
        inclusions.append(_quantified("forall", variables, f"{ab} -> {end}"))
        inclusions.append(_quantified("forall", variables, f"{end} -> {_head(pred, variables)}"))
        defaults.append(_quantified("forall", variables, f"{ab} -> false"))
    constants = sorted({c for f in d.facts for c in f.args})
    unique_names = [f"~({format_constant(a)} = {format_constant(b)})"
                    for a, b in combinations(constants, 2)]
    rules = [_disjunctive_rule(cq) for cq in m.query.disjuncts]
    lines = completions + unique_names + rules + inclusions + [_observation(m.query)] + defaults
    return "\n".join(lines) + "\n"

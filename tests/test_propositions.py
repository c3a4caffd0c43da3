"""The paper's bridges between causes, repairs and diagnoses, as checked
propositions.

The bridges run in both directions: deletion sets of repairs avoiding a
fact recover that fact's causal status and responsibility, and repairs can
be reassembled from causes paired with their minimal contingency sets.
The minimal diagnoses, removed from the instance, are its repairs, and the
endogenous repairs are both the global-optimal repairs of a guarded
encoding and, where the instance violates the constraints, the minimal
diagnoses of its violation view.  Each function below composes the engines
to state one of these propositions, and is the reference it is checked by:
against the engine that computes the same notion directly, and against the
brute-force oracle, on the ``hypothesis`` instances and queries of
``conftest``, within the oracle's bound.  No library code calls them.
Their example tests live beside the engines they are compared with, in
``test_repairs``, ``test_diagnosis`` and ``test_preferences``.

Beyond the oracle's bound, key constraints have closed forms: a key
group of ``m`` facts is a clique whose repairs keep one fact each, so the
repairs, causes, responsibilities and certain answers of a keyed
instance follow from its group sizes alone.
"""

from fractions import Fraction
from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

from causerepair import hitting
from causerepair.causality import (
    _require_endogenous,
    actual_causes,
    contingency_sets,
    most_responsible_causes,
    responsibilities,
    responsibility,
)
from causerepair.diagnosis import DiagnosisProblem, build_problem, diagnoses
from causerepair.errors import SemanticError
from causerepair.oracle import oracle_causes_and_responsibility, oracle_repairs
from causerepair.parsing import constraint_set, single_query
from causerepair.queries import (
    Atom,
    ConjunctiveQuery,
    DenialConstraint,
    DenialConstraintSet,
    UnionQuery,
    Var,
    eval_boolean,
    violation_view,
)
from causerepair.relational import ENDOGENOUS, EXOGENOUS, Fact, Instance, fact_key, set_key
from causerepair.repairs import SUBSET, _cardinality, consistent_answer, repairs

from conftest import conjunctive_queries, seeded_keyed, small_instances

# ---------------------------------------------------------------------------
# The references: each composes the engines into one proposition


def causes_via_repairs(
    d: Instance, q: UnionQuery, t: Fact, cap: int | None = None
) -> tuple[tuple[frozenset[Fact], ...], tuple[frozenset[Fact], ...]]:
    """Deletion-set families for repairs that drop ``t`` endogenously.

    The deletion sets within the endogenous facts are the minimal hitting
    sets of the endogenous support sets.  Returns those that hold ``t``,
    smallest first (the cap counts these), and those of them whose size
    is the least of all: the least through ``t``, if no hitting set is
    smaller.  ``t`` is an actual cause iff the first family is
    non-empty, a most responsible cause iff the second is, and its
    responsibility is the inverse of the smallest member of the first.
    """
    resolved = _require_endogenous(d, t)
    edges = hitting.endogenous_support_sets(d, q)
    through = hitting.enumerate_minimal_hitting_sets(edges, cap, through=resolved).sets  # in set_key order
    least = hitting.enumerate_minimal_hitting_sets(edges, cap, through=resolved, smallest=True).sets
    least = least if least and len(least[0]) == hitting.minimum_size(edges) else ()
    return tuple(sorted(through, key=len)), least


def repair_responsibility(diff_s: tuple[frozenset[Fact], ...]) -> Fraction:
    """Responsibility read off a subset-repair difference family."""
    if not diff_s:
        return Fraction(0)
    return Fraction(1, min(len(s) for s in diff_s))


def contingencies_read_off(transversal, t: Fact) -> tuple[frozenset[Fact], ...]:
    """``t``'s minimal contingency sets read off the minimal hitting sets
    of its family, smallest first."""
    picked = [s - {t} for s in transversal if t in s]
    return tuple(sorted(picked, key=lambda s: (len(s), set_key(s))))


def repairs_via_causes(
    d: Instance,
    sigma: DenialConstraintSet,
    semantics: str = SUBSET,
    cap: int | None = None,
) -> tuple[frozenset[Fact], ...]:
    """Reassemble the deletion sets of repairs from causes and their
    minimal contingency sets, in canonical order.

    Requires a fully endogenous instance.  One support family and one
    enumeration of its minimal hitting sets (under 'c', the smallest of
    each component) serve every cause; distinct cause/contingency pairs
    may collapse to one repair, so the result is deduplicated, and it
    must coincide with ``repairs`` on the same inputs.  A consistent
    instance has no causes and repairs to itself.
    """
    if d.exogenous:
        raise SemanticError("repairs-from-causes requires all facts endogenous")
    edges = hitting.endogenous_support_sets(d, violation_view(sigma))
    transversal = hitting.enumerate_minimal_hitting_sets(edges, cap, smallest=_cardinality(semantics)).sets
    causes = {f for edge in edges for f in edge}
    assembled = {gamma | {t} for t in causes for gamma in contingencies_read_off(transversal, t)}
    return tuple(sorted(assembled, key=set_key)) if edges else (frozenset(),)


def repairs_from_diagnoses(
    m: DiagnosisProblem, kind: str = SUBSET, cap: int | None = None
) -> tuple[Instance, ...]:
    """Each minimal diagnosis, removed from the instance, is a repair
    (in the canonical order of the diagnoses)."""
    if m.instance.exogenous:
        raise SemanticError("repairs from diagnoses assume all facts endogenous")
    return tuple(m.instance.without(abnormal) for abnormal in diagnoses(m, kind, cap=cap).sets)


def endogenous_encoding(
    d: Instance, sigma: DenialConstraintSet
) -> tuple[Instance, DenialConstraintSet, frozenset[tuple[Fact, Fact]]]:
    """Priority formulation of endogenous repairs.

    Adds an endogenous guard fact, conjoins it to every constraint, and
    prefers each exogenous fact over every conflicting endogenous one.
    The global-optimal repairs of the transformed problem are then the
    endogenous repairs (each still holding the guard) together with the
    guard-only deletion.
    """
    guard_pred = "guard"
    while guard_pred in d.schema:
        guard_pred += "_"
    guard = Fact(guard_pred, ("on",), ENDOGENOUS)
    extended = Instance(d.facts | {guard})
    guarded = DenialConstraintSet(
        tuple(
            DenialConstraint(
                ConjunctiveQuery(
                    (Atom(guard_pred, ("on",)),) + dc.body.atoms,
                    dc.body.inequalities,
                )
            )
            for dc in sigma
        )
    )
    conflicts = hitting.support_sets(extended, violation_view(guarded))
    pairs = set()
    for c in conflicts:
        for x in c:
            if x.is_endogenous:
                continue
            for e in c:
                if e.is_endogenous:
                    pairs.add((x, e))
    return extended, guarded, frozenset(pairs)


# ---------------------------------------------------------------------------
# Each proposition against its engine and the oracle


@st.composite
def _instances_and_queries(draw, max_facts: int = 2, images: int = 4):
    """A ``small_instances`` instance and a ``conjunctive_queries`` body of
    two or three atoms, plus one to ``images`` images of the body under
    bindings of its variables to ``a`` or ``b``.  Images share the fact
    of an atom they have in common, which is mostly endogenous, with or
    without an id, so witnesses overlap and responsibilities differ.  The
    body holds on about half the draws, and the instance stays within
    the oracle's bound of 14 facts."""
    d = draw(small_instances(max_facts))
    cq = draw(conjunctive_queries().filter(lambda cq: len(cq.atoms) > 1))
    made: dict[tuple, Fact] = {}
    for _ in range(draw(st.integers(1, images))):
        binding = {v: draw(st.sampled_from("ab")) for v in sorted(cq.variables())}
        for atom in cq.atoms:
            args = tuple(binding[t.name] if isinstance(t, Var) else t for t in atom.terms)
            if (atom.pred, args) not in made:
                tag = draw(st.sampled_from((ENDOGENOUS, ENDOGENOUS, ENDOGENOUS, EXOGENOUS)))
                made[atom.pred, args] = Fact(atom.pred, args, tag, draw(st.none() | st.integers(1, 3)))
    return Instance(d.facts | frozenset(made.values())), cq


def _all_endogenous(d: Instance) -> Instance:
    return Instance(frozenset(Fact(f.pred, f.args, ENDOGENOUS, f.fact_id) for f in d))


def _kept(d: Instance, removed) -> set:
    """The facts of each repair ``d.without(s)``."""
    return {d.without(s).facts for s in removed}


@settings(max_examples=100)
@given(_instances_and_queries())
def test_causes_and_responsibility_are_read_off_the_repairs(drawn):
    d, cq = drawn
    q = UnionQuery((cq,))
    expected = oracle_causes_and_responsibility(d, q)
    best = max(expected.values(), default=Fraction(0))
    top, _ = most_responsible_causes(d, q)
    for t in d.endogenous:
        diff_s, diff_c = causes_via_repairs(d, q, t)
        rho = repair_responsibility(diff_s)
        assert rho == responsibility(d, q, t) == expected[t]
        assert {s - {t} for s in diff_s} == set(contingency_sets(d, q, t))
        assert bool(diff_c) == (t in top) == (0 < rho == best)


@settings(max_examples=100)
@given(_instances_and_queries())
def test_repairs_are_reassembled_from_causes_and_contingencies(drawn):
    d, cq = _all_endogenous(drawn[0]), drawn[1]
    sigma = DenialConstraintSet((DenialConstraint(cq),))
    for semantics in ("s", "c"):
        via_causes = _kept(d, repairs_via_causes(d, sigma, semantics))
        assert via_causes == _kept(d, repairs(d, sigma, semantics).sets)
        assert via_causes == set(oracle_repairs(d, sigma, semantics))


@settings(max_examples=100)
@given(_instances_and_queries())
def test_repairs_are_the_minimal_diagnoses_removed(drawn):
    d, cq = _all_endogenous(drawn[0]), drawn[1]
    sigma = DenialConstraintSet((DenialConstraint(cq),))
    view = violation_view(sigma)
    if not eval_boolean(d.facts, view):
        return  # a consistent instance poses no diagnosis problem
    m = build_problem(d, view)
    for kind in ("s", "c"):
        via_diagnoses = repairs_from_diagnoses(m, kind)
        assert [d.facts - r.facts for r in via_diagnoses] == list(diagnoses(m, kind).sets)
        kept = {r.facts for r in via_diagnoses}
        assert kept == _kept(d, repairs(d, sigma, kind).sets)
        assert kept == set(oracle_repairs(d, sigma, kind))


@settings(max_examples=100)
@given(_instances_and_queries())
def test_endogenous_repairs_are_the_global_optimal_repairs_of_the_encoding(drawn):
    d, cq = drawn
    sigma = DenialConstraintSet((DenialConstraint(cq),))
    extended, guarded, priority = endogenous_encoding(d, sigma)
    (guard,) = extended.facts - d.facts
    go_removed = set(repairs(extended, guarded, "go", priority=priority).sets)
    guard_only = frozenset({guard})
    assert (guard_only in go_removed) == eval_boolean(d.facts, violation_view(sigma))
    endogenous = set(repairs(d, sigma, "endo").sets)
    assert go_removed - {guard_only} == endogenous
    assert {d.facts - s for s in endogenous} == set(oracle_repairs(d, sigma, "endo"))


@settings(max_examples=100)
@given(_instances_and_queries())
def test_endogenous_repairs_are_the_minimal_diagnoses_of_the_violation_view(drawn):
    d, cq = drawn  # with exogenous facts, unlike the diagnosis bridge above
    sigma = DenialConstraintSet((DenialConstraint(cq),))
    view = violation_view(sigma)
    if not eval_boolean(d.facts, view):
        return  # a consistent instance poses no diagnosis problem
    removed = repairs(d, sigma, "endo").sets
    assert removed == diagnoses(build_problem(d, view), "s").sets
    assert {d.facts - s for s in removed} == set(oracle_repairs(d, sigma, "endo"))


# ---------------------------------------------------------------------------
# Closed forms for key constraints, beyond the oracle's bound

KEY_DC = ":- A(X,Y), A(X,Z), Y != Z.\n"


def _groups(d: Instance) -> list[list[Fact]]:
    """The facts of each key, for the keys holding more than one."""
    by_key: dict[str, list[Fact]] = {}
    for f in d:
        by_key.setdefault(f.args[0], []).append(f)
    return [g for g in by_key.values() if len(g) > 1]


def test_key_constraints_follow_their_group_sizes():
    for shape, n_keys, facts, count in (((3, 4, 5), 30, 39, 60), ((2,) * 12, 40, 52, 4096)):
        d = seeded_keyed(shape, n_keys)
        sigma, q = constraint_set(KEY_DC), single_query("q" + KEY_DC)
        groups = _groups(d)
        assert len(d) == facts and sorted(map(len, groups)) == sorted(shape)
        conflicted = frozenset(f for g in groups for f in g)
        # a repair keeps one fact of each group: the product of the sizes
        s_repairs = repairs(d, sigma, "s").sets
        assert len(s_repairs) == prod(shape) == count
        assert all(len(s) == len(conflicted) - len(groups) for s in s_repairs)
        assert repairs(d, sigma, "c").sets == s_repairs
        # keeping t and one other fact of its group, and one fact of every
        # other group, leaves a single violation through t
        rho = Fraction(1, sum(len(g) - 1 for g in groups))
        assert actual_causes(d, q) == conflicted
        assert responsibilities(d, q) == {t: rho for t in conflicted}
        assert most_responsible_causes(d, q) == (conflicted, rho)
        for t in sorted(d, key=fact_key):
            assert responsibility(d, q, t) == (rho if t in conflicted else 0)
            assert consistent_answer(d, sigma, [t], "c") is (t not in conflicted)

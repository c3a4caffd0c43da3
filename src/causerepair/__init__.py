"""Causes, repairs, and diagnoses for query answers over relational data.

Given a database split into endogenous and exogenous facts and a boolean
query that is (perhaps unexpectedly) true, this package computes the
facts that actually cause the answer, their minimal contingency sets and
exact rational responsibilities, the deletion repairs of the database
under the matching denial constraints (``repairs``: subset, cardinality,
endogenous-only and global-optimal semantics), and the equivalent
consistency-based diagnoses (``diagnoses``), each a ``HittingSolution``
whose ``sets`` are the sets deleted (a repair is ``d.without(s)``) or
declared abnormal; preferred causes and null-based repairs refine the
picture, the latter (``null_repairs``) a ``HittingSolution`` too, whose
``sets`` are the positions nulled (``change_applier`` applies one).  A
priority is a list of ``(stronger, weaker)`` fact pairs
(``parse_priorities``), checked by the engine that takes it.  A
brute-force oracle scans the definitions of causes and responsibility,
of subset, cardinality and endogenous repairs, and of minimal hitting
sets, for cross-validation (it has no global-optimal, null-based or
preferred scans), and a CLI exposes the lot.
"""

from .causality import (
    CauseReport,
    actual_causes,
    check_minimal_contingency,
    contingency_sets,
    explain,
    most_responsible_causes,
    rdp_decide,
    responsibilities,
    responsibility,
)
from .diagnosis import (
    DiagnosisProblem,
    build_problem,
    diagnoses,
    render_theory,
)
from .errors import (
    BoundExceededError,
    CapExceededError,
    CauseRepairError,
    ParseError,
    SemanticError,
)
from .hitting import (
    HittingSolution,
    antichain,
    endogenous_part,
    endogenous_support_sets,
    enumerate_minimal_hitting_sets,
    forced_minima,
    minimum_members,
    minimum_size,
    support_sets,
)
from .parsing import (
    parse_fact,
    parse_instance,
    parse_priorities,
    parse_program,
)
from .preferences import (
    AttrChange,
    change_applier,
    check_preference_contingency,
    null_causes,
    null_repairs,
    preferred_causes,
)
from .queries import (
    Atom,
    ConjunctiveQuery,
    DenialConstraint,
    DenialConstraintSet,
    UnionQuery,
    Var,
    answer_dc,
    dc_of_query,
    eval_answers,
    eval_boolean,
    is_consistent,
    violation_view,
)
from .relational import (
    ENDOGENOUS,
    EXOGENOUS,
    NULL,
    Fact,
    Instance,
    check_wellformed,
    fact,
    serialize_instance,
    violations,
)
from .repairs import (
    consistent_answer,
    is_repair,
    repairs,
)

__all__ = [name for name in dir() if not name.startswith("_")]

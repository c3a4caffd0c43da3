"""Causes, repairs, and diagnoses for query answers over relational data.

Given a database split into endogenous and exogenous facts and a boolean
query that is (perhaps unexpectedly) true, this package computes the
facts that actually cause the answer, their minimal contingency sets and
exact rational responsibilities, the subset/cardinality repairs of the
database under the matching denial constraints, and the equivalent
consistency-based diagnoses; prioritized, endogenous-only, and null-based
variants refine the picture.  A brute-force oracle mirrors every engine
for cross-validation, and a CLI exposes the lot.
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
    Diagnosis,
    DiagnosisProblem,
    build_problem,
    diagnoses,
    render_theory,
    repairs_from_diagnoses,
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
    minimum_hitting_set_containing,
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
    CausalPriorityRelation,
    NullRepair,
    PriorityRelation,
    check_preference_contingency,
    endogenous_encoding,
    endogenous_repairs,
    global_optimal_repairs,
    null_causes,
    null_repairs,
    preferred_causes,
    validate_causal_priority,
    validate_priority,
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
    delta,
    fact,
    serialize_instance,
    violations,
)
from .repairs import (
    Repair,
    causes_via_repairs,
    consistent_answer,
    is_repair,
    repairs,
    repairs_via_causes,
)

__all__ = [name for name in dir() if not name.startswith("_")]

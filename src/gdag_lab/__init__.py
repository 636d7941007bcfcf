"""gdag-lab: generalised Bayesian networks — d-separation, classical
model evaluation, theory-independent inequalities, C = I classification,
GDAG enumeration, and entropic cones."""

from .graph import GDag, GraphError, NodeKind, parse_gdag
from .dsep import (
    CISet,
    CIStatement,
    DsepWitness,
    ci_subset,
    d_separated,
    d_separated_via_partition,
    observable_ci_set,
)
from .models import (
    ClassicalGmcModel,
    ConditionalDistribution,
    Distribution,
    IndependenceReport,
    Kernel,
    ModelError,
    conditional_mutual_information,
    entropy,
    is_conditionally_independent,
    mutual_information,
    observed_from_classical_gmc,
    satisfies_I,
)
from .inequalities import (
    instrumental_value,
    triangle_gpt_feasible,
    triangle_monogamy_margin,
)
from .classify import (
    AddEdgeParentSubset,
    AddEdgeUnobservedPath,
    Certificate,
    RemoveEdge,
    RemoveIsolatedUnobserved,
    TransformError,
    apply_reduction,
    apply_transformation,
    applicable_reductions,
    reduce,
    sufficient_condition_holds,
)
from .enumeration import (
    CensusReport,
    canonical_key,
    classification_census,
    enumerate_gdags,
    isomorphic,
)
from .cones import (
    Cone,
    ConeError,
    LinIneq,
    derive_classical_cone,
    derive_independence_cone,
    elemental_inequalities,
    implied_by,
)
from .linprog import nonneg_combination

__version__ = "0.1.0"

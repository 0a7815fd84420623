"""Single-server retrieval with toggleable request privacy under
Markov-correlated requests: scheme synthesis, rate bounds, an exact LP
oracle, identity audits, and protocol simulation."""

from .model import (EPS, CapacityError, ConditionalLaw, MarkovModel, OrderStats,
                    PrivacyPattern, entropy_bits, mutual_information_bits, order_stats,
                    step_law, tau_of)
from .scheme import (InternalConsistencyError, QueryDistribution,
                     build_query_distribution, policy_n2, policy_n2_table,
                     project_to_sets)
from .bounds import (HorizonRow, RateBound, bounds_over_horizon, exact_rate_n2,
                     inner_bound_first_off_step, outer_bound_2,
                     restricted_lp_singleton_optimum)
from .lp import IterationLimitError, LpProblem, LpSolution, build_lp, solve
from .verify import (AuditReport, audit_distribution, conditional_query_mi,
                     markov_privacy_extension_check)
from .sim import (ChiSquareAudit, ServerState, SimulationResult,
                  empirical_privacy_audit, enumerate_steps, simulate)

__all__ = [
    "EPS", "CapacityError", "ConditionalLaw", "MarkovModel", "OrderStats",
    "PrivacyPattern", "order_stats", "step_law", "tau_of",
    "InternalConsistencyError", "QueryDistribution",
    "build_query_distribution", "policy_n2", "policy_n2_table",
    "project_to_sets",
    "HorizonRow", "RateBound", "bounds_over_horizon", "exact_rate_n2",
    "inner_bound_first_off_step", "outer_bound_2",
    "restricted_lp_singleton_optimum",
    "IterationLimitError", "LpProblem", "LpSolution", "build_lp", "solve",
    "AuditReport", "audit_distribution", "conditional_query_mi",
    "markov_privacy_extension_check", "entropy_bits", "mutual_information_bits",
    "ChiSquareAudit", "ServerState", "SimulationResult",
    "empirical_privacy_audit", "enumerate_steps", "simulate",
]

__version__ = "0.1.0"

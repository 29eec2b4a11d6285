"""Exact finite-horizon stochastic control, forward ADP schemes, and certified
curvature-based performance bounds for them.

The pipeline: solve small control problems exactly by backward induction, run
approximate-dynamic-programming schemes against them, recast each scheme as
the greedy strategy of a surrogate objective over policy strings, and certify
the scheme's fraction-of-optimal performance from the surrogate's curvatures.
"""

from .common import (
    BudgetExceededError,
    GuaranteeViolationError,
    ModelFormatError,
    UndefinedCurvatureError,
)
from .generators import (
    STRING_KINDS,
    GeneratedInstanceSpec,
    generate_mdp_instances,
    generate_string_instances,
    instance_rng,
    random_base_policy,
    random_theta,
)
from .mdp import (
    MdpModel,
    backward_values,
    bellman_solve,
    enumerate_noise_paths,
    evaluate_policy_exact,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    simulate_policy_mc,
)
from .schemes import (
    EvtgApproximator,
    adp_forward,
    exact_evtg_w,
    linear_q_w,
    make_scheme,
    myopic_w,
    rollout_w,
    scheme_policy,
)
from .stringopt import (
    GreedyTrace,
    StringObjective,
    asymptotic_curvature_bound,
    check_diminishing_return,
    check_prefix_monotone,
    curvature_bound,
    forward_curvature_sigma,
    greedy_guarantee_report,
    greedy_string,
    optimal_string_bruteforce,
    total_curvature_eta,
)
from .surrogate import (
    adp_bound_report,
    bound_report_to_dict,
    check_adp_pdao_identity,
    check_path_greedy,
    check_pdao_gps_equivalence,
    check_stagewise_selection,
    check_surrogate_monotonicity,
    induced_stage_policies,
    policy_ground_set,
    policy_string_objective,
)

__version__ = "0.1.0"

"""smoothflow: smoothing gradient method and flow for composite objectives.

Minimize F = f + h where f is smooth and h is convex but pointy, by
descending a mu-smoothed surrogate while driving mu to zero. The
package provides certified smooth approximations, the discrete method
and its continuous-time flow, Lyapunov monitors, analytical convergence
bounds, timeline-discretization bounds and a seeded experiment harness.
"""

__version__ = "0.1.0"

from .approx import (
    AffineTerm,
    CertificationReport,
    SmoothApprox,
    SmoothingParams,
    affine_sum,
    certify,
    huber_l2_approx,
    l1_residual,
    log_sum_exp_max_approx,
    sqrt_l2_approx,
)
from .problem import (
    CompositeProblem,
    GradEvalCounter,
    SmoothPart,
    lipschitz_at,
    quadratic_least_squares,
    smoothed_grad,
    smoothed_value,
)
from .schedule import (
    ConstantMu,
    ContinuousDriven,
    ExpDecay,
    ExponentialMu,
    LinearMu,
    PowerDecay,
    ReciprocalMu,
    ScheduleState,
    advance,
    eta_lower_bound,
    initial_state,
    step_size,
    sum_divergence_equivalent,
)
from .solver import (
    IterationRecord,
    Trajectory,
    bound_discrete,
    closed_form_bound_nonstrongly,
    lyapunov_discrete,
    run_sgm,
)
from .flow import (
    FlowSample,
    bound_continuous,
    integrate_euler,
    integrate_rk45,
    lyapunov_continuous,
)
from .analysis import (
    RateFit,
    TimelineBounds,
    discrete_bound_series,
    fit_rate,
    timeline_bounds_exponential,
    timeline_bounds_power,
    timeline_table,
)
from .rng import Xoshiro256pp

__all__ = [
    "AffineTerm",
    "CertificationReport",
    "CompositeProblem",
    "ConstantMu",
    "ContinuousDriven",
    "ExpDecay",
    "ExponentialMu",
    "FlowSample",
    "GradEvalCounter",
    "IterationRecord",
    "LinearMu",
    "PowerDecay",
    "RateFit",
    "ReciprocalMu",
    "ScheduleState",
    "SmoothApprox",
    "SmoothPart",
    "SmoothingParams",
    "TimelineBounds",
    "Trajectory",
    "Xoshiro256pp",
    "advance",
    "affine_sum",
    "bound_continuous",
    "bound_discrete",
    "certify",
    "closed_form_bound_nonstrongly",
    "discrete_bound_series",
    "eta_lower_bound",
    "fit_rate",
    "huber_l2_approx",
    "initial_state",
    "integrate_euler",
    "integrate_rk45",
    "l1_residual",
    "lipschitz_at",
    "log_sum_exp_max_approx",
    "lyapunov_continuous",
    "lyapunov_discrete",
    "quadratic_least_squares",
    "run_sgm",
    "smoothed_grad",
    "smoothed_value",
    "sqrt_l2_approx",
    "step_size",
    "sum_divergence_equivalent",
    "timeline_bounds_exponential",
    "timeline_bounds_power",
    "timeline_table",
]

"""Volterra integral equations driven by rough signals.

Twisted increment calculus, dyadic sewing maps, Laplace kernel measures,
exact rough lifts of piecewise-linear drivers (including sampled
fractional Brownian motion), and interval-patching Picard solvers for
convolutional Young and rough Volterra equations.
"""

from .algebra import (
    TimeGrid,
    delta_tilde,
    twist,
    lbeta_norm,
    estimate_holder_exponent,
)
from .expkernels import e0, exp_int, ramp_int
from .laplace import (
    KernelMeasure,
    QuadratureError,
    build_quadrature,
    phi_eval,
    kernel_from_spec,
)
from .sewing import (
    SewingResult,
    NotSewableError,
    compensated_sum_tilde,
    lambda_tilde_dyadic,
    c_mu,
    sewing_bound_check,
)
from .lift import (
    DriverPath,
    RoughLift,
    sample_fbm,
    deterministic_driver,
    wiener_cov_x1,
)
from .sigma import SigmaField, sigma_catalog
from .solver import (
    SolverConfig,
    Solution,
    SolverFailure,
    young_integral,
    solve_young,
    solve_rough,
    solve_rough_ode,
)

__version__ = "0.1.0"

"""stpanto: calculus on generalized Fibonacci polynomials.

Truncated (s,t)-series with the divided-difference derivative, deformed
exponentials, the pantograph function E(a,b;x,u) and the partial Theta
function, Jackson-type integration on geometric node sets, symbolic-power
composition, and four solver families for first-order linear proportional
difference equations, each solution verified by substitution residuals.

Quick start:

>>> from stpanto import golden_pair, st_number
>>> p = golden_pair(3, -2)        # phi = 2, phi' = 1, q = 1/2, exact backend
>>> [int(st_number(p, n)) for n in range(5)]
[0, 1, 3, 7, 15]
"""

from .errors import (
    BackendMismatch,
    ConvergenceFailure,
    DegenerateDiscriminant,
    DegenerateQ,
    DegenerateRatio,
    DegenerateStNumber,
    DegreeOverflow,
    DivergentProduct,
    ExpressionSyntaxError,
    HypothesisViolated,
    IndexOutOfRange,
    InvalidBernoulliOrder,
    NonInvertibleSeries,
    NonQPeriodicInitial,
    NonzeroConstantTerm,
    ParamsMismatch,
    QOutOfRange,
    ResonantParameters,
    StConvergenceError,
    StError,
    StHypothesisError,
    StInputError,
    ZeroDelay,
    ZeroDenominator,
    ZeroParameter,
    ZeroPoint,
)
from .stnum import (
    Params,
    binet,
    golden_pair,
    q_factorial,
    q_number,
    q_pochhammer,
    q_pochhammer_inf,
    st_factorial,
    st_fibonomial,
    st_number,
    st_number_range,
    st_number_raw,
)
from .stseries import (
    DEFAULT_ORDER,
    QPeriodic,
    Series,
    compose_ab,
    compose_deformed,
    q_derive_at,
    scale,
    sq_int,
    st_antiderive,
    st_derive,
    st_derive_at,
    symbolic_power,
    symbolic_powers,
)
from .stfun import (
    PantographSpec,
    deformed_exp,
    deformed_exp_at,
    oplus_delay_pow,
    oplus_golden_pow,
    pantograph,
    pantograph_at,
    partial_theta,
    partial_theta_series,
    product_exp,
    psi_theta,
)
from .stquad import (
    QInterval,
    check_by_parts,
    check_ftc,
    pantograph_antiderivative_at,
    pantograph_antiderivative_series,
    pq_integral,
    st_integral,
    theta_antiderivative_at,
)
from .stsolve import (
    LinearProblem,
    ResidualInfo,
    SolutionReport,
    bernoulli_reconstruct,
    bernoulli_transform,
    integrating_factor,
    integration_factor_value,
    operator_identity_residual,
    residual,
    series_linear_closed_form,
    solve_integration_factor,
    solve_operator,
    solve_series_linear,
    solve_special_rhs,
)
from .expr import format_series, parse_expression

__version__ = "0.1.0"

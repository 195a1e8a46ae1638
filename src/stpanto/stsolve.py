"""Solvers for first-order linear proportional difference equations, plus
the Bernoulli transformation.  Four families:

* series-linear:      D y = alpha (a y(x) + b y(u x)) + beta(x), y(0) = a0,
                      solved by the coefficient recurrence
                      c_{n+1} = (a + b u^n) alpha c_n / {n+1} + b_n / {n+1};
* integration-factor: D y + alpha(x) R(x) y(phi' x) = beta(x) where
                      R = (a E[A] + b E[u A]) / E[A](phi .) and A is the
                      antiderivative of alpha, solved by multiplying through
                      by the composed pantograph factor E[a,b; A(x), u]
                      (or the phi-delay variant with phi and phi' swapped);
* operator:           D y = a beta y + gamma T_u y + delta E(a,b; alpha x, u),
                      solved through the shift identity
                      (D - a beta - gamma T_u) E(a,b; beta x, u)
                          = (b beta - gamma) E(a,b; u beta x, u);
* bernoulli:          the nonlinear proportional equations linearized by the
                      infinite-product substitution z, with y recovered by
                      product inversion (1/z when the order is 2).

Every solver returns a SolutionReport whose residuals are recomputed from
the returned solution at report time by substitution into the equation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ._stable import DEFAULT_TOL, delay_factors, weights
from .errors import (
    ConvergenceFailure,
    DegenerateStNumber,
    HypothesisViolated,
    InvalidBernoulliOrder,
    ResonantParameters,
    StInputError,
    ZeroDelay,
    ZeroDenominator,
)
from .stnum import Params, st_number, st_number_range
from .stseries import (
    DEFAULT_ORDER,
    QPeriodic,
    Series,
    compose_ab,
    scale,
    st_antiderive,
    st_derive,
    st_derive_at,
)
from .stfun import PantographSpec, pantograph
from .stquad import QInterval, st_integral

PHI_PRIME_DELAY = "phi-prime-delay"
PHI_DELAY = "phi-delay"

FAMILIES = ("series-linear", "integration-factor", "operator",
            "bernoulli", "u-bernoulli")


def _as_series(value, params: Params, order: int) -> Series:
    if isinstance(value, Series):
        return value.padded(order).truncated(order)
    if isinstance(value, (list, tuple)):
        return Series(params, value).padded(order).truncated(order)
    return Series.constant(params, value, order)


@dataclass
class LinearProblem:
    """One first-order proportional difference equation.

    ``alpha`` is the coefficient in front of the delayed unknown (a scalar
    or a Series), ``beta`` the forcing, ``spec`` the pantograph triple of
    the integration factor or of the delayed combination a y + b y(ux).
    ``initial`` is y(0) for series solvers, or a QPeriodic datum for the
    numeric integration-factor path with eta > 0.
    """

    family: str
    params: Params
    spec: PantographSpec
    alpha: object = None
    beta: object = 0
    initial: object = 0
    eta: object = 0
    n_bernoulli: object = None
    delay_side: str = PHI_PRIME_DELAY
    # operator-family coefficients
    alpha_coef: object = None
    beta_coef: object = None
    gamma: object = None
    delta: object = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise StInputError(f"unknown family {self.family!r}")
        if self.delay_side not in (PHI_PRIME_DELAY, PHI_DELAY):
            raise StInputError(f"unknown delay side {self.delay_side!r}")
        if self.family == "operator":
            missing = [n for n in ("alpha_coef", "beta_coef", "gamma", "delta")
                       if getattr(self, n) is None]
            if missing:
                raise StInputError(f"operator family needs {', '.join(missing)}")
        elif self.family in ("bernoulli", "u-bernoulli"):
            if self.n_bernoulli is None:
                raise StInputError(f"{self.family} needs the order n")
            if self.alpha is None:
                raise StInputError(f"{self.family} needs alpha")
        elif self.alpha is None:
            raise StInputError(f"{self.family} needs alpha")

    # -- constructors --------------------------------------------------

    @classmethod
    def series_linear(cls, params, spec, alpha, beta, a0) -> "LinearProblem":
        return cls("series-linear", params, spec, alpha=alpha, beta=beta, initial=a0)

    @classmethod
    def integration_factor(cls, params, spec, alpha, beta, initial=0, eta=0,
                           delay_side=PHI_PRIME_DELAY) -> "LinearProblem":
        return cls("integration-factor", params, spec, alpha=alpha, beta=beta,
                   initial=initial, eta=eta, delay_side=delay_side)

    @classmethod
    def exp_factor(cls, params, u, alpha, beta, initial=0, eta=0,
                   delay_side=PHI_PRIME_DELAY) -> "LinearProblem":
        """Corollary wrapper: integration factor exp[A(x), u]."""
        return cls.integration_factor(params, PantographSpec(0, 1, u),
                                      alpha, beta, initial, eta, delay_side)

    @classmethod
    def classical_factor(cls, params, alpha, beta, initial=0, eta=0,
                         delay_side=PHI_PRIME_DELAY) -> "LinearProblem":
        """Corollary wrapper for the plain equation
        D y + alpha(x) y(phi' x) = beta(x): factor Exp[A(x)] = exp[A(x), phi].

        On the phi-delay side the interchanged factor is Exp'[A] = exp[A, phi'].
        Either way the equation's ratio collapses to alpha(x) alone when A is
        linear (constant alpha), which covers the worked cases."""
        u = params.phi if delay_side == PHI_PRIME_DELAY else params.phi_prime
        return cls.exp_factor(params, u, alpha, beta, initial, eta, delay_side)

    @classmethod
    def theta_factor(cls, params, alpha, beta, initial=0, eta=0,
                     delay_side=PHI_PRIME_DELAY) -> "LinearProblem":
        """Corollary wrapper: factor Theta0[(1-q) A(x), 1/phi] via the
        specialization E(1, -q; z, q)."""
        return cls.integration_factor(params, PantographSpec(1, -params.q, params.q),
                                      alpha, beta, initial, eta, delay_side)

    @classmethod
    def operator_form(cls, params, spec, alpha_coef, beta_coef, gamma, delta,
                      c=0) -> "LinearProblem":
        return cls("operator", params, spec, initial=c, alpha_coef=alpha_coef,
                   beta_coef=beta_coef, gamma=gamma, delta=delta)

    @classmethod
    def bernoulli(cls, params, spec, alpha, beta, n, delay_side=PHI_DELAY) -> "LinearProblem":
        """D_{phi^{n-1},phi'^{n-1}} y + alpha y(phi^{n-1} x) = beta * (product RHS).

        ``alpha`` is the full coefficient of the delayed term (any E-ratio
        already folded in by the caller)."""
        return cls("bernoulli", params, spec, alpha=alpha, beta=beta,
                   n_bernoulli=n, delay_side=delay_side)

    @classmethod
    def u_bernoulli(cls, params, u, alpha, beta, n, delay_side=PHI_DELAY) -> "LinearProblem":
        return cls("u-bernoulli", params, PantographSpec(0, 1, u), alpha=alpha,
                   beta=beta, n_bernoulli=n, delay_side=delay_side)


@dataclass
class ResidualInfo:
    coeff_max: object
    points: list = field(default_factory=list)
    order: int = 0


@dataclass
class SolutionReport:
    """A solver's answer together with the problem it solves, so that a
    caller can recompute residuals without rebuilding the problem."""

    problem: LinearProblem
    solution: Series | None
    closed_form: dict | None
    residual_coeff_max: object
    residual_points: list
    order: int
    diagnostics: dict = field(default_factory=dict)

    @classmethod
    def build(cls, problem: LinearProblem, solution: Series, closed_form=None,
              sample_points=(), diagnostics=None) -> "SolutionReport":
        info = residual(problem, solution, sample_points)
        return cls(problem, solution, closed_form, info.coeff_max, info.points,
                   solution.order, diagnostics or {})


# -- series-linear family ---------------------------------------------------


def solve_series_linear(problem: LinearProblem, N: int = DEFAULT_ORDER) -> SolutionReport:
    """Coefficient recurrence for D y = alpha (a y + b y(ux)) + beta, y(0) = a0."""
    if problem.family != "series-linear":
        raise StInputError(f"expected series-linear, got {problem.family}")
    p = problem.params
    a, b, u = p.wrap(problem.spec.a), p.wrap(problem.spec.b), p.wrap(problem.spec.u)
    alpha = p.wrap(problem.alpha)
    beta = _as_series(problem.beta, p, N)
    nums = st_number_range(p, N + 1)
    coeffs = [p.wrap(problem.initial)]
    for n, f in zip(range(N), delay_factors(a, b, u)):
        coeffs.append(f / nums[n + 1] * alpha * coeffs[n] + beta.coeffs[n] / nums[n + 1])
    y = Series(p, coeffs)
    closed = {"tag": "a0*E(a,b;alpha*x,u) + particular",
              "parameters": {"a0": p.to_str(coeffs[0]), "alpha": p.to_str(alpha),
                             "a": p.to_str(a), "b": p.to_str(b), "u": p.to_str(u)}}
    return SolutionReport.build(problem, y, closed)


def series_linear_closed_form(problem: LinearProblem, N: int = DEFAULT_ORDER) -> Series:
    """The explicit solution sum

    y = a0 E(a,b; alpha x, u)
        + sum_{n>=1} (sum_{k<n} {k}! alpha^{n-k-1} b_k / (a(+)b)^{k+1})
          (a(+)b)^n x^n / {n}!,

    well defined only when no prefix product (a(+)b)^{k+1} vanishes."""
    p = problem.params
    a, b, u = p.wrap(problem.spec.a), p.wrap(problem.spec.b), p.wrap(problem.spec.u)
    alpha = p.wrap(problem.alpha)
    beta = _as_series(problem.beta, p, N)
    oplus = weights(delay_factors(a, b, u), N, p.one())
    if any(w == 0 for w in oplus[1:]):
        raise ZeroDenominator("a prefix product (a(+)b)^{k+1} vanishes; "
                              "use the recurrence solver")
    homog = scale(pantograph(p, problem.spec, N), alpha) * p.wrap(problem.initial)
    nums = st_number_range(p, N)
    coeffs, fact, inner = [p.zero()], p.one(), p.zero()
    for n in range(1, N + 1):
        # inner_n = sum_{k=0}^{n-1} {k}! alpha^{n-1-k} b_k / (a(+)b)^{k+1}, fact = {n-1}!
        inner = inner * alpha + fact * beta.coeffs[n - 1] / oplus[n]
        fact *= nums[n]
        coeffs.append(inner * oplus[n] / fact)
    return homog + Series(p, coeffs)


def solve_special_rhs(params: Params, spec: PantographSpec, beta_amplitude, a0,
                      N: int = DEFAULT_ORDER) -> SolutionReport:
    """The phi'-coefficient theorem: for

        D y = phi'(a y + b y(ux)) + beta (a E(a,b; phi x, u) + b E(a,b; phi u x, u))

    the solution is y = a0 E(a,b; phi' x, u) + beta x (a E(a,b;x,u) + b E(a,b;ux,u))."""
    p = params
    a, b, u = p.wrap(spec.a), p.wrap(spec.b), p.wrap(spec.u)
    beta = p.wrap(beta_amplitude)
    e = pantograph(p, spec, N)
    x = Series.monomial(p, 1, order=N)
    y = scale(e, p.phi_prime) * p.wrap(a0) + x * (e * a + scale(e, u) * b) * beta
    forcing = (scale(e, p.phi) * a + scale(e, p.phi * u) * b) * beta
    problem = LinearProblem.series_linear(p, spec, p.phi_prime, forcing, a0)
    closed = {"tag": "c*E(a,b;phi'*x,u) + beta*x*(a*E(a,b;x,u) + b*E(a,b;u*x,u))",
              "parameters": {"c": p.to_str(p.wrap(a0)), "beta": p.to_str(beta)}}
    return SolutionReport.build(problem, y, closed)


# -- operator family ---------------------------------------------------------


def operator_identity_residual(params: Params, spec: PantographSpec, beta, gamma,
                               N: int = DEFAULT_ORDER) -> Series:
    """(D - a*beta - gamma T_u) E(a,b; beta x, u) - (b*beta - gamma) E(a,b; u beta x, u)."""
    p = params
    a, b, u = p.wrap(spec.a), p.wrap(spec.b), p.wrap(spec.u)
    beta, gamma = p.wrap(beta), p.wrap(gamma)
    e = scale(pantograph(p, spec, N), beta)
    lhs = st_derive(e) - (e * (a * beta) + scale(e, u) * gamma).truncated(N - 1)
    rhs = scale(e, u) * (b * beta - gamma)
    return lhs - rhs.truncated(N - 1)


def solve_operator(params: Params, spec: PantographSpec, alpha_coef, beta_coef,
                   gamma, delta, c=0, N: int = DEFAULT_ORDER) -> SolutionReport:
    """Solve D y = a*beta y + gamma T_u y + delta E(a,b; alpha x, u) as

        y = c E(a*beta, gamma; x, u) + (u delta/(b alpha - u gamma)) E(a,b; alpha x/u, u).

    The shift identity produces the particular term only when beta = alpha/u
    (the substitution the method's derivation makes); with delta != 0 and
    beta != alpha/u the displayed formula does not solve the equation, so
    that combination is rejected.
    """
    p = params
    a, b, u = p.wrap(spec.a), p.wrap(spec.b), p.wrap(spec.u)
    alpha, beta = p.wrap(alpha_coef), p.wrap(beta_coef)
    gamma, delta = p.wrap(gamma), p.wrap(delta)
    if u == 0:
        raise ZeroDelay("the operator method needs u != 0")
    denom = b * alpha - u * gamma
    if denom == 0:
        raise ResonantParameters("b*alpha - u*gamma = 0: no particular solution "
                                 "of pantograph type")
    if delta != 0 and a != 0 and beta != alpha / u:
        raise HypothesisViolated(
            "the operator method needs beta = alpha/u when delta != 0; "
            "use the series-linear solver for the general case")
    ident = operator_identity_residual(p, spec, alpha / u, gamma, N)
    homog = pantograph(p, PantographSpec(a * beta, gamma, u), N) * p.wrap(c)
    particular = scale(pantograph(p, spec, N), alpha / u) * (u * delta / denom)
    y = homog + particular
    problem = LinearProblem.operator_form(p, spec, alpha, beta, gamma, delta, c)
    closed = {"tag": "c*E(a*beta,gamma;x,u) + u*delta/(b*alpha-u*gamma)*E(a,b;alpha*x/u,u)",
              "parameters": {"c": p.to_str(p.wrap(c)),
                             "factor": p.to_str(u * delta / denom)}}
    diags = {"operator_identity_max": ident.max_abs_coeff()}
    return SolutionReport.build(problem, y, closed, diagnostics=diags)


# -- integration-factor family -----------------------------------------------


def integrating_factor(params: Params, spec: PantographSpec, alpha: Series,
                       N: int = DEFAULT_ORDER) -> tuple[Series, Series]:
    """From the coefficient alpha, build A = antiderivative(alpha) and return

        (E[a,b; A(x), u],  a E[a,b; A(x), u] + b E[a,b; u A(x), u]).

    The first is the integration factor (constant term 1, so invertible);
    the second is the composed derivative coefficient (D E)(a,b;.,u) [] A.
    """
    alpha = _as_series(alpha, params, max(N - 1, 0))
    big_a = st_antiderive(alpha).truncated(N)
    ones = [1] * (N + 1)
    factor = compose_ab(ones, spec, big_a)
    a, b = params.wrap(spec.a), params.wrap(spec.b)
    numerator = factor * a + compose_ab(ones, spec, big_a * params.wrap(spec.u)) * b
    return factor, numerator


def _delay_scales(problem: LinearProblem):
    p = problem.params
    if problem.delay_side == PHI_PRIME_DELAY:
        return p.phi, p.phi_prime     # factor scaled by phi, unknown delayed by phi'
    return p.phi_prime, p.phi


def solve_integration_factor(problem: LinearProblem, N: int = DEFAULT_ORDER,
                             points: Sequence = (), tol: float = DEFAULT_TOL) -> SolutionReport:
    """Series mode of the general theorem (eta = 0, scalar initial value):

        y = (1/E[a,b;A(x),u]) (antiderivative(beta(x) E[a,b;A(phi x),u]) + xi),

    with phi and phi' interchanged on the phi-delay side.  For eta > 0 or a
    non-constant q-periodic datum, the solution exists pointwise only; use
    ``integration_factor_value`` (this routine then reports point values at
    ``points`` and carries no series)."""
    if problem.family != "integration-factor":
        raise StInputError(f"expected integration-factor, got {problem.family}")
    p = problem.params
    numeric = _wants_numeric(problem)
    if numeric:
        if not points:
            raise StInputError("numeric mode (eta > 0 or q-periodic datum) needs "
                               "evaluation points")
        values = [(x, integration_factor_value(problem, x, N, tol)) for x in points]
        ratio = _integration_factor_ratio(problem, N)
        _, unknown_scale = _delay_scales(problem)
        beta_eval = _beta_eval(problem, N)

        def y(r):
            return integration_factor_value(problem, r, N, tol)

        res_points = [(x, abs(st_derive_at(y, x, p) + ratio.eval(x) * y(unknown_scale * x)
                              - beta_eval(x))) for x in map(p.wrap, points)]
        return SolutionReport(problem, None, None, None, res_points, N,
                              {"mode": "numeric", "values": values})

    factor, _ = integrating_factor(p, problem.spec, problem.alpha, N)
    factor_scale, _ = _delay_scales(problem)
    beta = _as_series(problem.beta, p, N)
    xi = problem.initial.evaluate(1) if isinstance(problem.initial, QPeriodic) \
        else p.wrap(problem.initial)
    integrand = beta * scale(factor, factor_scale)
    y = (st_antiderive(integrand).truncated(N) + xi) / factor
    closed = {"tag": "(antiderivative(beta*E[a,b;A(delay x),u]) + xi)/E[a,b;A(x),u]",
              "parameters": {"xi": p.to_str(xi), "delay_side": problem.delay_side}}
    return SolutionReport.build(problem, y, closed)


def _wants_numeric(problem: LinearProblem) -> bool:
    eta_positive = problem.params.wrap(problem.eta) != 0
    nonconstant = isinstance(problem.initial, QPeriodic) and not problem.initial.is_constant
    return eta_positive or nonconstant


def integration_factor_value(problem: LinearProblem, x, N: int = DEFAULT_ORDER,
                             tol: float = DEFAULT_TOL):
    """Pointwise solution value

        y(x) = (1/E[A(x)]) (int_eta^x beta(r) E[A(delay r)] d r + G(log_q x)),

    with the integral taken as a Jackson sum over [eta, x]_q."""
    p = problem.params
    factor, _ = integrating_factor(p, problem.spec, problem.alpha, N)
    factor_scale, _ = _delay_scales(problem)
    factor_delayed = scale(factor, factor_scale)
    beta_eval = _beta_eval(problem, N)

    if isinstance(problem.initial, QPeriodic):
        g = problem.initial
        g.check_periodicity()
    else:
        g = QPeriodic.constant(p, problem.initial)
    gval = g.evaluate(x)

    integral = st_integral(lambda r: beta_eval(r) * factor_delayed.eval(r),
                           QInterval(problem.eta, x, p), tol)
    return (integral + gval) / factor.eval(x)


def _beta_eval(problem: LinearProblem, N: int) -> Callable:
    """The forcing as a function: a callable (a Series is one) as given."""
    beta = problem.beta
    return beta if callable(beta) else _as_series(beta, problem.params, N).eval


def _integration_factor_ratio(problem: LinearProblem, N: int) -> Series:
    """The coefficient series alpha*R = alpha (D E)[A] / E[A(delay x)]."""
    p = problem.params
    factor, numerator = integrating_factor(p, problem.spec, problem.alpha, N)
    factor_scale, _ = _delay_scales(problem)
    alpha = _as_series(problem.alpha, p, N)
    return alpha * numerator / scale(factor, factor_scale)


# -- Bernoulli family ---------------------------------------------------------


def _st_number_general(params: Params, n):
    """{n} for possibly non-integer n, via phi powers (float backend)."""
    if isinstance(n, int) or (hasattr(n, "denominator") and n.denominator == 1):
        return st_number(params, int(n))
    num = params.power(params.phi, n) - params.power(params.phi_prime, n)
    return num / (params.phi - params.phi_prime)


def bernoulli_transform(problem: LinearProblem) -> LinearProblem:
    """Convert a (u-)Bernoulli problem into the linear problem satisfied by
    the infinite-product substitution z.

    The z-equation is -(1/{n-1}) D z + alpha z(delay' x) = beta with the
    delay side flipped; rescaling by -{n-1} gives a problem in the
    integration-factor family (plain Bernoulli) or the series-linear family
    (u-deformed, alpha scalar).  The rescaled coefficient -{n-1} alpha is
    re-integrated by those solvers, so the equation is integrating-factor
    solvable exactly when the composed ratio degenerates (linear A with the
    matching corollary spec, as in every worked case of the theory).
    """
    n = problem.n_bernoulli
    if n in (0, 1):
        raise InvalidBernoulliOrder("the Bernoulli order n must avoid 0 and 1")
    p = problem.params
    scale_num = _st_number_general(p, n - 1)
    if scale_num == 0:
        raise DegenerateStNumber(f"{{n-1}} = 0 at n = {n}")
    flipped = PHI_PRIME_DELAY if problem.delay_side == PHI_DELAY else PHI_DELAY
    factor = -scale_num

    def rescale(v):
        if isinstance(v, Series):
            return v * factor
        if callable(v):
            return lambda x: factor * v(x)
        return factor * p.wrap(v)

    if problem.family == "u-bernoulli":
        u = p.wrap(problem.spec.u)
        delay = (p.phi_prime if flipped == PHI_PRIME_DELAY else p.phi) * u
        return LinearProblem.series_linear(
            p, PantographSpec(0, 1, delay),
            alpha=scale_num * p.wrap(problem.alpha),
            beta=rescale(problem.beta), a0=1)
    if problem.family != "bernoulli":
        raise StInputError(f"expected a Bernoulli family, got {problem.family}")
    return LinearProblem.integration_factor(
        p, problem.spec, alpha=rescale(problem.alpha), beta=rescale(problem.beta),
        initial=problem.initial, eta=problem.eta, delay_side=flipped)


def bernoulli_reconstruct(z, n, params: Params, y_anchor=None,
                          tol: float = 1e-12, max_factors: int = 500) -> Callable:
    """Recover y from the substitution z.

    n = 2: y = 1/z exactly.  Otherwise y(x) = y_anchor *
    prod_i z(q^{i(n-1)+1} x / phi^{n-2}) / z(q^{i(n-1)} x / phi^{n-2}),
    truncated once the factor is within tol of 1; the anchor is y(0) for
    (0 < |q| < 1, n > 1) or (|q| > 1, n < 1), and a caller-supplied y(inf)
    otherwise (never inferred)."""
    def safe_z(x):
        v = z(x)
        if v == 0:
            raise ZeroDenominator(f"z vanishes at a product node x = {x}")
        return v

    if n == 2:
        return lambda x: 1 / safe_z(x)
    if y_anchor is None:
        raise StInputError("reconstruction with n != 2 needs the anchor value")
    p = params
    integer_n = isinstance(n, int) or (hasattr(n, "denominator") and n.denominator == 1)
    if not integer_n and p.q < 0:
        raise StInputError("non-integer order with q < 0 puts the product nodes "
                           "on complex rays; not supported")
    anchor = p.wrap(y_anchor)
    shift = p.power(p.phi, n - 2) if not isinstance(n, int) else p.phi ** (n - 2)

    def y(x):
        x = p.wrap(x)
        if x == 0:
            return anchor
        acc = anchor
        for i in range(max_factors):
            e = i * (n - 1)
            lo = p.power(p.q, e) if not isinstance(e, int) else p.q ** e
            node = lo * x / shift
            fac = safe_z(p.q * node) / safe_z(node)
            acc *= fac
            if abs(fac - 1) < tol:
                return acc
        raise ConvergenceFailure(f"product factors did not settle within {max_factors}")

    return y


# -- substitution residuals ---------------------------------------------------


def residual(problem: LinearProblem, y, sample_points: Sequence = ()) -> ResidualInfo:
    """Substitution residual of y in the problem's equation.

    Coefficient level: LHS - RHS assembled as a Series, max |coefficient|
    reported up to order N-1.  Point level: the divided-difference form at
    each sample point.  Bernoulli problems (nonlinear) report points only,
    with y a callable, in the telescoped n = 2 form; u-bernoulli problems
    are checked on their transformed linear z-equation, so pass z as y.
    """
    p = problem.params
    fam = problem.family

    if fam == "bernoulli":
        return _bernoulli_residual(problem, y, sample_points)

    if fam == "u-bernoulli":
        transformed = bernoulli_transform(problem)
        return residual(transformed, y, sample_points)

    if fam == "series-linear":
        a, b, u = (p.wrap(problem.spec.a), p.wrap(problem.spec.b), p.wrap(problem.spec.u))
        alpha = p.wrap(problem.alpha)
        beta = _as_series(problem.beta, p, y.order)

        def lhs_series():
            return st_derive(y) - ((y * a + scale(y, u) * b) * alpha + beta).truncated(y.order - 1)

        def point(x):
            return (st_derive_at(y.eval, x, p)
                    - alpha * (a * y.eval(x) + b * y.eval(u * x)) - beta.eval(x))

    elif fam == "operator":
        a, b, u = (p.wrap(problem.spec.a), p.wrap(problem.spec.b), p.wrap(problem.spec.u))
        ab, g, d = p.wrap(problem.beta_coef), p.wrap(problem.gamma), p.wrap(problem.delta)
        al = p.wrap(problem.alpha_coef)
        forcing = scale(pantograph(p, problem.spec, y.order), al) * d

        def lhs_series():
            rhs = y * (a * ab) + scale(y, u) * g + forcing
            return st_derive(y) - rhs.truncated(y.order - 1)

        def point(x):
            rhs = (a * ab * y.eval(x) + g * y.eval(u * x) + forcing.eval(x))
            return st_derive_at(y.eval, x, p) - rhs

    elif fam == "integration-factor":
        ratio = _integration_factor_ratio(problem, y.order)
        _, unknown_scale = _delay_scales(problem)
        beta = _as_series(problem.beta, p, y.order)

        def lhs_series():
            return (st_derive(y)
                    + (ratio * scale(y, unknown_scale) - beta).truncated(y.order - 1))

        def point(x):
            return (st_derive_at(y.eval, x, p)
                    + ratio.eval(x) * y.eval(unknown_scale * x) - beta.eval(x))

    else:
        raise StInputError(f"no residual form for family {fam!r}")

    series_res = lhs_series()
    points = [(p.wrap(x), abs(point(p.wrap(x)))) for x in sample_points]
    return ResidualInfo(series_res.max_abs_coeff(), points, series_res.order)


def _bernoulli_residual(problem: LinearProblem, y, sample_points) -> ResidualInfo:
    p = problem.params
    n = problem.n_bernoulli
    if n != 2:
        raise StInputError("point residuals for Bernoulli problems are only "
                           "implemented for order n = 2")
    # y, alpha and beta are callables (a Series is one); alpha, beta may be constants
    aval, bval = (v if callable(v) else (lambda _x, _c=p.wrap(v): _c)
                  for v in (problem.alpha, problem.beta))
    delayed, other = ((p.phi, p.phi_prime) if problem.delay_side == PHI_DELAY
                      else (p.phi_prime, p.phi))
    points = []
    for x in sample_points:
        x = p.wrap(x)
        r = (st_derive_at(y, x, p) + aval(x) * y(delayed * x)
             - bval(x) * y(p.phi * x) * y(p.phi_prime * x))
        points.append((x, abs(r)))
    return ResidualInfo(None, points, 0)

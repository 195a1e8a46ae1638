"""Solvers for first-order linear proportional difference equations, plus
the Bernoulli transformation.  Every linear solution is checked against
D y = alpha(x) (a y(x) + b y(u x)) + beta(x).  Three families:

* series-linear:      that equation with y(0) = a0, solved by the
                      coefficient recurrence
                      c_{n+1} = (a + b u^n) alpha c_n / {n+1} + b_n / {n+1},
                      or in closed form by the phi'-coefficient theorem and
                      the operator (shift-identity) method;
* integration-factor: D y + alpha(x) R(x) y(phi' x) = beta(x) where
                      R = (a E[A] + b E[u A]) / E[A](phi .) and A is the
                      antiderivative of alpha, solved by multiplying through
                      by the composed pantograph factor E[a,b; A(x), u]
                      (or the phi-delay variant with phi and phi' swapped);
* bernoulli:          the nonlinear proportional equations linearized by the
                      infinite-product substitution z, with y recovered by
                      product inversion (1/z when the order is 2).

Every solver returns a SolutionReport whose coefficient residual is computed
by substitution into the equation when it is first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import count, islice
from typing import Callable, Sequence

from ._stable import DEFAULT_TOL, factors, powers, stable_product, weights
from .errors import (
    DegenerateStNumber,
    HypothesisViolated,
    InvalidBernoulliOrder,
    ResonantParameters,
    StInputError,
    ZeroDelay,
    ZeroDenominator,
)
from .stnum import Params, binet, nonnegative, st_divisors, st_number, st_number_range
from .stseries import (
    DEFAULT_ORDER,
    QPeriodic,
    Series,
    _composition,
    scale,
    st_antiderive,
    st_derive,
    st_derive_at,
    symbolic_powers,
)
from .stfun import PantographSpec, pantograph
from .stquad import QInterval

PHI_PRIME_DELAY = "phi-prime-delay"
PHI_DELAY = "phi-delay"

FAMILIES = ("series-linear", "integration-factor", "bernoulli", "u-bernoulli")
RECONSTRUCT_CAP = 500


def _as_series(value, params: Params, order: int) -> Series:
    if isinstance(value, Series):
        return value.padded(order).truncated(order)
    return Series.constant(params, value, order)


@dataclass
class LinearProblem:
    """One first-order proportional difference equation.

    ``alpha`` is the coefficient in front of the delayed unknown (a scalar
    or a Series), ``beta`` the forcing, ``spec`` the pantograph triple of
    the integration factor or of the delayed combination a y + b y(ux).
    ``initial`` is y(0) for series solvers, or a QPeriodic datum for the
    numeric integration-factor path with eta > 0.

    What depends on the problem alone (the integration factor at an order,
    say) is built once and kept on the problem (``cached``), so a solve, its
    residuals and every point value share one build.  The memo lives and
    dies with the problem: change no field once it has been solved.
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
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise StInputError(f"unknown family {self.family!r}")
        if self.delay_side not in (PHI_PRIME_DELAY, PHI_DELAY):
            raise StInputError(f"unknown delay side {self.delay_side!r}")
        if self.family in ("bernoulli", "u-bernoulli") and self.n_bernoulli is None:
            raise StInputError(f"{self.family} needs the order n")
        if self.alpha is None:
            raise StInputError(f"{self.family} needs alpha")

    def cached(self, key, build: Callable):
        """``build()``, computed the first time ``key`` is asked for."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

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
        linear (constant alpha = c), which covers the worked cases; the factor
        is then exp(c x, u), the deformed exponential rescaled by c, built with
        no composition (see ``integrating_factor``)."""
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
    def bernoulli(cls, params, spec, alpha, beta, n, delay_side=PHI_DELAY,
                  initial=0) -> "LinearProblem":
        """D_{phi^{n-1},phi'^{n-1}} y + alpha y(phi^{n-1} x) = beta * (product RHS).

        ``alpha`` is the full coefficient of the delayed term (any E-ratio
        already folded in by the caller); ``initial`` is z(0) of the
        substitution, which ``bernoulli_transform`` hands on."""
        return cls("bernoulli", params, spec, alpha=alpha, beta=beta, initial=initial,
                   n_bernoulli=n, delay_side=delay_side)

    @classmethod
    def u_bernoulli(cls, params, u, alpha, beta, n, delay_side=PHI_DELAY) -> "LinearProblem":
        return cls("u-bernoulli", params, PantographSpec(0, 1, u), alpha=alpha,
                   beta=beta, n_bernoulli=n, delay_side=delay_side)


@dataclass
class ResidualInfo:
    coeff_max: object
    points: list = field(default_factory=list)


@dataclass
class SolutionReport:
    """A solver's answer together with the problem it solves, so that a
    caller can recompute residuals without rebuilding the problem.  Numeric
    mode, which has no series, fills ``values`` and ``residual_points``
    with (x, value) pairs instead.  ``diagnostics`` holds scalars only."""

    problem: LinearProblem
    solution: Series | None
    closed_form: dict | None
    order: int
    residual_points: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    values: list = field(default_factory=list)

    @cached_property
    def residual_coeff_max(self):
        """Max |coefficient| of the substitution residual, computed when first read."""
        if self.solution is None:
            return None
        return residual(self.problem, self.solution).coeff_max


# -- series-linear family ---------------------------------------------------


def solve_series_linear(problem: LinearProblem, N: int = DEFAULT_ORDER) -> SolutionReport:
    """Coefficient recurrence for D y = alpha (a y + b y(ux)) + beta, y(0) = a0."""
    if problem.family != "series-linear":
        raise StInputError(f"expected series-linear, got {problem.family}")
    nonnegative(N, "order N")
    p = problem.params
    a, b, u = p.wrap(problem.spec.a), p.wrap(problem.spec.b), p.wrap(problem.spec.u)
    alpha = p.wrap(problem.alpha)
    beta = _as_series(problem.beta, p, N)
    nums = st_divisors(p, N)
    coeffs = [p.wrap(problem.initial)]
    for n, f in zip(range(N), factors(((a, 1), (b, u)))):
        coeffs.append(f / nums[n + 1] * alpha * coeffs[n] + beta.coeffs[n] / nums[n + 1])
    y = Series(p, coeffs)
    closed = {"tag": "a0*E(a,b;alpha*x,u) + particular",
              "parameters": {"a0": p.to_str(coeffs[0]), "alpha": p.to_str(alpha),
                             "a": p.to_str(a), "b": p.to_str(b), "u": p.to_str(u)}}
    return SolutionReport(problem, y, closed, N)


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
    oplus = weights(factors(((a, 1), (b, u))), N, p.one())
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
    return SolutionReport(problem, y, closed, y.order)


# -- operator method ---------------------------------------------------------


def operator_identity_residual(params: Params, spec: PantographSpec, beta, gamma,
                               N: int = DEFAULT_ORDER, e: Series | None = None) -> Series:
    """(D - a*beta - gamma T_u) E(a,b; beta x, u) - (b*beta - gamma) E(a,b; u beta x, u).
    ``e`` is E(a,b; x, u) at order N if the caller has built it."""
    p = params
    a, b, u = p.wrap(spec.a), p.wrap(spec.b), p.wrap(spec.u)
    beta, gamma = p.wrap(beta), p.wrap(gamma)
    e = scale(pantograph(p, spec, N) if e is None else e, beta)
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
    that combination is rejected.  The report carries the series-linear
    problem solved: spec (a beta, gamma, u), alpha = 1, the forcing
    delta E(a,b; alpha x, u) as a Series and the initial value y(0).
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
    e = pantograph(p, spec, N)
    ident = operator_identity_residual(p, spec, alpha / u, gamma, N, e)
    shifted = PantographSpec(a * beta, gamma, u)
    y = pantograph(p, shifted, N) * p.wrap(c) + scale(e, alpha / u) * (u * delta / denom)
    problem = LinearProblem.series_linear(p, shifted, 1, scale(e, alpha) * delta, y._head())
    closed = {"tag": "c*E(a*beta,gamma;x,u) + u*delta/(b*alpha-u*gamma)*E(a,b;alpha*x/u,u)",
              "parameters": {"c": p.to_str(p.wrap(c)),
                             "factor": p.to_str(u * delta / denom)}}
    diags = {"operator_identity_max": ident.max_abs_coeff()}
    return SolutionReport(problem, y, closed, y.order, diagnostics=diags)


# -- integration-factor family -----------------------------------------------


def integrating_factor(params: Params, spec: PantographSpec, alpha: Series,
                       N: int = DEFAULT_ORDER) -> tuple[Series, Series]:
    """From the coefficient alpha, build A = antiderivative(alpha) and return

        (E[a,b; A(x), u],  a E[a,b; A(x), u] + b E[a,b; u A(x), u]).

    The first is the integration factor (constant term 1, so invertible);
    the second is the composed derivative coefficient (D E)(a,b;.,u) [] A.

    A constant alpha = c gives A = c x and (c x)^[k] = c^k x^k, so no
    composition is needed: E[A] is the pantograph series E(a,b; x, u)
    rescaled by c, and E[u A] the same series rescaled by c u.  Otherwise
    one symbolic-power table of A serves both compositions, because
    (u A)^[k] = u^k A^[k] moves u into the coefficients: E[u A] composes
    g_k = u^k with A.  The solvers build this once per problem and order
    (``LinearProblem.cached``).
    """
    alpha = _as_series(alpha, params, max(N - 1, 0))
    a, b, u = params.wrap(spec.a), params.wrap(spec.b), params.wrap(spec.u)
    if all(c == 0 for c in alpha.coeffs[1:]):
        e, c = pantograph(params, spec, N), alpha.coeffs[0]
        factor = scale(e, c)
        return factor, factor * a + scale(e, c * u) * b
    table = symbolic_powers(st_antiderive(alpha).truncated(N), N)
    factor = _composition([1] * (N + 1), ((a, 1), (b, u)), table)
    delayed = _composition(list(islice(powers(u), N + 1)), ((a, 1), (b, u)), table)
    return factor, factor * a + delayed * b


def _factor(problem: LinearProblem, N: int) -> tuple[Series, Series]:
    """The problem's (factor, numerator) at order N, built once per problem."""
    return problem.cached(("factor", N), lambda: integrating_factor(
        problem.params, problem.spec, problem.alpha, N))


def _delay_scales(problem: LinearProblem):
    p = problem.params
    if problem.delay_side == PHI_PRIME_DELAY:
        return p.phi, p.phi_prime     # factor scaled by phi, unknown delayed by phi'
    return p.phi_prime, p.phi


def solve_integration_factor(problem: LinearProblem, N: int = DEFAULT_ORDER,
                             points: Sequence = ()) -> SolutionReport:
    """Series mode of the general theorem (eta = 0, scalar initial value):

        y = (1/E[a,b;A(x),u]) (antiderivative(beta(x) E[a,b;A(phi x),u]) + xi),

    with phi and phi' interchanged on the phi-delay side.  For eta > 0 or a
    non-constant q-periodic datum, the solution exists pointwise only; use
    ``integration_factor_value`` (this routine then reports point values at
    ``points`` and carries no series)."""
    if problem.family != "integration-factor":
        raise StInputError(f"expected integration-factor, got {problem.family}")
    p = problem.params
    if _wants_numeric(problem):
        if not points:
            raise StInputError("numeric mode (eta > 0 or q-periodic datum) needs "
                               "evaluation points")

        y = partial(integration_factor_value, problem, N=N)
        return SolutionReport(problem, None, None, N, residual(problem, y, points, N).points,
                              diagnostics={"mode": "numeric"}, values=[(x, y(x)) for x in points])

    factor, _ = _factor(problem, N)
    factor_scale, _ = _delay_scales(problem)
    beta = _as_series(problem.beta, p, N)
    xi = problem.initial.evaluate(1) if isinstance(problem.initial, QPeriodic) \
        else p.wrap(problem.initial)
    integrand = beta * scale(factor, factor_scale)
    y = (st_antiderive(integrand).truncated(N) + xi) / factor
    closed = {"tag": "(antiderivative(beta*E[a,b;A(delay x),u]) + xi)/E[a,b;A(x),u]",
              "parameters": {"xi": p.to_str(xi), "delay_side": problem.delay_side}}
    return SolutionReport(problem, y, closed, y.order)


def _wants_numeric(problem: LinearProblem) -> bool:
    eta_positive = problem.params.wrap(problem.eta) != 0
    nonconstant = isinstance(problem.initial, QPeriodic) and not problem.initial.is_constant
    return eta_positive or nonconstant


def integration_factor_value(problem: LinearProblem, x, N: int = DEFAULT_ORDER):
    """Pointwise solution value

        y(x) = (1/E[A(x)]) (int_eta^x beta(r) E[A(delay r)] d r + G(log_q x)).

    The integrand is a polynomial, so its Jackson integral over [eta, x]_q is
    F(x) - F(eta), F its antiderivative, built once per problem."""
    factor, big_f, big_f_eta, g = problem.cached(
        ("pointwise", N), lambda: _pointwise_parts(problem, N))
    gval = g.evaluate(x)
    QInterval(problem.eta, x, problem.params)  # the domain of the integral: 0 < |q| < 1
    return (big_f.eval(x) - big_f_eta + gval) / factor.eval(x)


def _pointwise_parts(problem: LinearProblem, N: int) -> tuple:
    """What every point value y(x) shares: the factor, the antiderivative F
    of beta(r) E[A(delay r)] and F(eta), and the q-periodic datum (whose
    periodicity is checked here, once)."""
    p = problem.params
    factor, _ = _factor(problem, N)
    factor_scale, _ = _delay_scales(problem)
    # pad both to the product's degree: Series.__mul__ truncates at the smaller order
    integrand = (_as_series(problem.beta, p, N).padded(2 * N)
                 * scale(factor, factor_scale).padded(2 * N))
    big_f = st_antiderive(integrand)
    if isinstance(problem.initial, QPeriodic):
        g = problem.initial
        g.check_periodicity()
    else:
        g = QPeriodic.constant(p, problem.initial)
    return factor, big_f, big_f.eval(problem.eta), g


# -- Bernoulli family ---------------------------------------------------------


def bernoulli_transform(problem: LinearProblem) -> LinearProblem:
    """Convert a (u-)Bernoulli problem into the linear problem satisfied by
    the infinite-product substitution z.

    The z-equation is -(1/{n-1}) D z + alpha z(delay' x) = beta with the
    delay side flipped; rescaling by -{n-1} gives a problem in the
    integration-factor family (plain Bernoulli) or the series-linear family
    (u-deformed, alpha scalar).  The rescaled coefficient -{n-1} alpha is
    re-integrated by those solvers, so the equation is integrating-factor
    solvable exactly when the composed ratio degenerates (linear A with the
    matching corollary spec, as in every worked case of the theory).  A
    constant alpha keeps A linear after the rescaling, so the factor of the
    z-problem is a rescaled pantograph series, built with no composition.
    """
    if problem.family not in ("bernoulli", "u-bernoulli"):
        raise StInputError(f"expected a Bernoulli family, got {problem.family}")
    n = problem.n_bernoulli
    if n in (0, 1):
        raise InvalidBernoulliOrder("the Bernoulli order n must avoid 0 and 1")
    p = problem.params
    integer_n = isinstance(n, int) or (hasattr(n, "denominator") and n.denominator == 1)
    scale_num = st_number(p, int(n) - 1) if integer_n and n >= 1 else binet(p, n - 1)
    if scale_num == 0:
        raise DegenerateStNumber(f"{{n-1}} = 0 at n = {n}")
    flipped = PHI_PRIME_DELAY if problem.delay_side == PHI_DELAY else PHI_DELAY
    factor = -scale_num

    def rescale(v):
        return v * factor if isinstance(v, Series) else factor * p.wrap(v)

    if problem.family == "u-bernoulli":
        u = p.wrap(problem.spec.u)
        delay = (p.phi_prime if flipped == PHI_PRIME_DELAY else p.phi) * u
        return LinearProblem.series_linear(
            p, PantographSpec(0, 1, delay),
            alpha=scale_num * p.wrap(problem.alpha),
            beta=rescale(problem.beta), a0=1)
    return LinearProblem.integration_factor(
        p, problem.spec, alpha=rescale(problem.alpha), beta=rescale(problem.beta),
        initial=problem.initial, eta=problem.eta, delay_side=flipped)


def bernoulli_reconstruct(z, n, params: Params, y_anchor=None,
                          tol: float = DEFAULT_TOL) -> Callable:
    """Recover y from the substitution z.

    n = 2: y = 1/z exactly.  Otherwise y(x) = y_anchor *
    prod_i z(q^{i(n-1)+1} x / phi^{n-2}) / z(q^{i(n-1)} x / phi^{n-2}),
    stopped by ``stable_product`` (three factors within tol of 1) and given
    up after RECONSTRUCT_CAP factors, each of which evaluates z twice.  The
    anchor is y(0) for (0 < |q| < 1, n > 1) or (|q| > 1, n < 1), and a
    caller-supplied y(inf) otherwise (never inferred)."""
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
    if not integer_n and p.wrap(p.q) < 0:  # a complex q is refused
        raise StInputError("non-integer order with q < 0 puts the product nodes "
                           "on complex rays; not supported")
    anchor = p.wrap(y_anchor)
    shift = p.power(p.phi, n - 2)

    def y(x):
        x = p.wrap(x)
        if x == 0:
            return anchor
        nodes = (p.power(p.q, i * (n - 1)) * x / shift for i in count())
        factors = (safe_z(p.q * node) / safe_z(node) for node in nodes)
        return anchor * stable_product(factors, tol, RECONSTRUCT_CAP,
                                       what="product reconstruction")[0]

    return y


# -- substitution residuals ---------------------------------------------------


def residual(problem: LinearProblem, y, sample_points: Sequence = (),
             order: int | None = None) -> ResidualInfo:
    """Substitution residual of y in the problem's equation.

    Linear problems are checked as D y = alpha(x) (a y(x) + b y(u x)) + beta(x):
    series-linear problems as given, integration-factor problems with
    alpha -> -alpha R, (a, b) = (0, 1) and u the delay of the unknown.  A
    term whose weight is zero is not evaluated.  Coefficient level (y a
    Series): LHS - RHS assembled as a Series, max |coefficient| reported up
    to order N-1.  Point level (any callable y): the divided-difference form
    at each sample point, with alpha R the ratio of the order-N
    polynomials alpha (D E)[A] and E[A](delay x) at the point; a plain
    callable has no series order, so ``order`` gives the one alpha, beta and
    the factor are expanded to.  Bernoulli problems (nonlinear) report
    points only, with y a callable, in the telescoped n = 2 form;
    u-bernoulli problems are checked on their transformed linear
    z-equation, so pass z as y.
    """
    p = problem.params
    if problem.family == "bernoulli":
        return _bernoulli_residual(problem, y, sample_points)
    if problem.family == "u-bernoulli":
        return residual(bernoulli_transform(problem), y, sample_points, order)

    is_series = isinstance(y, Series)
    if is_series:
        order = y.order
    elif order is None:
        raise StInputError("a residual of a plain callable needs the series order")
    if problem.family == "series-linear":
        a, b, u = p.wrap(problem.spec.a), p.wrap(problem.spec.b), p.wrap(problem.spec.u)
        alpha = p.wrap(problem.alpha)
        alpha_at = lambda _x: alpha
    else:
        # alpha R = alpha (D E)[A] / E[A(delay x)], moved to the right-hand side
        factor, numerator = _factor(problem, order)
        factor_scale, u = _delay_scales(problem)
        given, a, b = _as_series(problem.alpha, p, order), p.zero(), p.one()

        def alpha_at(x):
            # From the order-N polynomials y is built from, at x, and one
            # division: no quotient series, so no radius to fall outside of.
            return -(given.eval(x) * numerator.eval(x) / factor.eval(factor_scale * x))
        if is_series:
            # the coefficient residual takes alpha R as a quotient series
            alpha = -(given * numerator / scale(factor, factor_scale))
    beta = _as_series(problem.beta, p, order)

    def linear(at_x, at_ux, zero):
        # a y(x) + b y(u x) at one level; a zero weight skips its (costly) term
        return sum((w * f() for w, f in ((a, at_x), (b, at_ux)) if w != 0), zero)

    def point(x):
        lin = linear(lambda: y(x), lambda: y(u * x), p.zero())
        return st_derive_at(y, x, p) - alpha_at(x) * lin - beta(x)

    points = [(x, abs(point(x))) for x in map(p.wrap, sample_points)]
    if not is_series:
        return ResidualInfo(None, points)
    lin = linear(lambda: y, lambda: scale(y, u), Series.zero(p, order))
    series_res = st_derive(y) - (alpha * lin + beta).truncated(order - 1)
    return ResidualInfo(series_res.max_abs_coeff(), points)


def _bernoulli_residual(problem: LinearProblem, y, sample_points) -> ResidualInfo:
    p = problem.params
    n = problem.n_bernoulli
    if n != 2:
        raise StInputError("point residuals for Bernoulli problems are only "
                           "implemented for order n = 2")
    # y, alpha and beta are callables (a Series is one); alpha, beta may be constants
    aval, bval = (v if callable(v) else (lambda _x, _c=p.wrap(v): _c)
                  for v in (problem.alpha, problem.beta))
    _, delayed = _delay_scales(problem)
    points = []
    for x in sample_points:
        x = p.wrap(x)
        r = (st_derive_at(y, x, p) + aval(x) * y(delayed * x)
             - bval(x) * y(p.phi * x) * y(p.phi_prime * x))
        points.append((x, abs(r)))
    return ResidualInfo(None, points)

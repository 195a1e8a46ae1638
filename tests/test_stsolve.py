import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpanto import stsolve
from stpanto.errors import (
    BackendMismatch,
    ConvergenceFailure,
    DegenerateStNumber,
    HypothesisViolated,
    InvalidBernoulliOrder,
    NonQPeriodicInitial,
    ResonantParameters,
    StInputError,
    ZeroDelay,
    ZeroDenominator,
)
from stpanto.stnum import golden_pair, st_factorial, st_number
from stpanto.stseries import (
    QPeriodic,
    Series,
    compose_ab,
    compose_deformed,
    scale,
    st_antiderive,
    st_derive,
    symbolic_powers,
)
from stpanto.expr import parse_expression
from stpanto.stfun import PantographSpec, deformed_exp, pantograph
from stpanto.stquad import QInterval, st_integral
from stpanto.stsolve import (
    LinearProblem,
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

P32 = golden_pair(3, -2)

small_fraction = st.fractions(min_value=-2, max_value=2, max_denominator=6)


def exp_prime_series(params, N):
    # Exp'(x) = exp(x, phi'); also 1/Exp(x) = Exp'(-x)
    return deformed_exp(params, params.phi_prime, N)


class TestSeriesLinear:
    def test_homogeneous_exponential(self):
        prob = LinearProblem.series_linear(P32, PantographSpec(0, 1, 1), 1, 0, 1)
        rep = solve_series_linear(prob, 8)
        assert rep.solution.coeffs[:4] == [1, 1, F(1, 3), F(1, 21)]
        assert rep.residual_coeff_max == 0

    def test_affine_forcing_closed_form(self):
        # beta = delta + eps x.  The displayed closed form drops the term
        # -eps x/(alpha (a + b u)); with it restored the form matches the
        # recurrence exactly.
        a, b, u, alpha = F(1), F(1, 2), F(1, 3), F(2)
        delta, eps, a0 = F(3), F(5), F(1)
        spec = PantographSpec(a, b, u)
        prob = LinearProblem.series_linear(P32, spec, alpha, Series(P32, [delta, eps]), a0)
        rep = solve_series_linear(prob, 20)
        o1 = a + b
        o2 = (a + b) * (a + b * u)
        cconst = a0 + delta / (alpha * o1) + eps / (alpha ** 2 * o2)
        e_at_alpha = scale(pantograph(P32, spec, 20), alpha)
        expected = e_at_alpha * cconst - Series.constant(
            P32, delta / (alpha * o1) + eps / (alpha ** 2 * o2), 20)
        expected = expected - Series.monomial(P32, 1, coeff=eps / (alpha * (a + b * u)), order=20)
        assert rep.solution == expected
        assert rep.residual_coeff_max == 0

    def test_monomial_forcing_closed_form(self):
        # beta = x^m: y = c E + {m}!/(alpha^{m+1} (a(+)b)^{m+1}) (E - partial sum)
        a, b, u, alpha, a0, m = F(1), F(1, 2), F(1, 3), F(2), F(1), 2
        spec = PantographSpec(a, b, u)
        N = 20
        prob = LinearProblem.series_linear(
            P32, spec, alpha, Series.monomial(P32, m, order=N), a0)
        rep = solve_series_linear(prob, N)
        e_at_alpha = scale(pantograph(P32, spec, N), alpha)
        partial = Series(P32, [
            math.prod((a + b * u ** k for k in range(n)), start=F(1))
            * alpha ** n / st_factorial(P32, n)
            if n <= m else F(0) for n in range(N + 1)])
        oplus = math.prod((a + b * u ** k for k in range(m + 1)), start=F(1))
        pref = st_factorial(P32, m) / (alpha ** (m + 1) * oplus)
        expected = e_at_alpha * a0 + (e_at_alpha - partial) * pref
        assert rep.solution == expected
        assert rep.residual_coeff_max == 0

    @settings(max_examples=20)
    @given(small_fraction, small_fraction, small_fraction,
           st.lists(small_fraction, min_size=1, max_size=5))
    def test_recurrence_matches_closed_form(self, a, b, u, beta):
        alpha = F(3, 2)
        if any(a + b * u ** k == 0 for k in range(16)):
            return
        spec = PantographSpec(a, b, u)
        prob = LinearProblem.series_linear(P32, spec, alpha, Series(P32, beta), F(2))
        rep = solve_series_linear(prob, 16)
        assert rep.solution == series_linear_closed_form(prob, 16)
        assert rep.residual_coeff_max == 0

    def test_u_corollary_weights(self):
        # a = 0, b = 1: homogeneous solution is the deformed exponential
        u, alpha = F(1, 2), F(2, 3)
        prob = LinearProblem.series_linear(P32, PantographSpec(0, 1, u), alpha, 0, 1)
        rep = solve_series_linear(prob, 16)
        assert rep.solution == scale(deformed_exp(P32, u, 16), alpha)

    def test_point_residuals(self):
        prob = LinearProblem.series_linear(P32, PantographSpec(0, 1, 1), 1, 0, 1)
        rep = solve_series_linear(prob, 24)
        info = residual(prob, rep.solution, sample_points=[F(1, 10), F(1, 5)])
        for _, r in info.points:
            assert r < F(1, 10 ** 12)


class TestSpecialRhs:
    def test_homogeneous_when_beta_zero(self):
        spec = PantographSpec(F(1, 2), F(1, 3), F(2, 5))
        rep = solve_special_rhs(P32, spec, 0, F(3), 14)
        assert rep.solution == scale(pantograph(P32, spec, 14), P32.phi_prime) * 3
        assert rep.residual_coeff_max == 0

    def test_report_carries_its_problem(self):
        # the solver builds the theorem's forcing once and hands it back
        spec = PantographSpec(F(1, 2), F(1, 3), F(2, 5))
        rep = solve_special_rhs(P32, spec, F(3), F(2), 12)
        e = pantograph(P32, spec, 12)
        forcing = (scale(e, P32.phi) * spec.a + scale(e, P32.phi * spec.u) * spec.b) * 3
        assert rep.problem.family == "series-linear"
        assert rep.problem.alpha == P32.phi_prime and rep.problem.beta == forcing
        assert residual(rep.problem, rep.solution).coeff_max == 0

    def test_deformed_exp_corollary(self):
        # spec (0, 1, u): y = c exp(phi' x, u) + beta x exp(u x, u)
        u, beta, c = F(1, 3), F(2), F(1)
        rep = solve_special_rhs(P32, PantographSpec(0, 1, u), beta, c, 16)
        e = deformed_exp(P32, u, 16)
        expected = scale(e, P32.phi_prime) * c + \
            Series.monomial(P32, 1, order=16) * scale(e, u) * beta
        assert rep.solution == expected
        assert rep.residual_coeff_max == 0

    def test_theta_corollary(self):
        # spec (1, -q, q): c Theta0((1-q) phi' x, 1/phi) + beta x (E(x) - q E(qx))
        q = P32.q
        spec = PantographSpec(1, -q, q)
        beta, c = F(3), F(2)
        rep = solve_special_rhs(P32, spec, beta, c, 16)
        e = pantograph(P32, spec, 16)
        expected = scale(e, P32.phi_prime) * c + \
            Series.monomial(P32, 1, order=16) * (e - scale(e, q) * q) * beta
        assert rep.solution == expected
        assert rep.residual_coeff_max == 0


class TestOperator:
    def test_homogeneous_when_delta_zero(self):
        spec = PantographSpec(F(1), F(1, 2), F(1, 3))
        rep = solve_operator(P32, spec, 1, F(2), F(1, 5), 0, c=F(3), N=12)
        expected = pantograph(P32, PantographSpec(F(2), F(1, 5), F(1, 3)), 12) * 3
        assert rep.solution == expected
        assert rep.residual_coeff_max == 0

    @settings(max_examples=20)
    @given(small_fraction, small_fraction, small_fraction, small_fraction, small_fraction)
    def test_shift_identity(self, a, b, u, beta, gamma):
        # (D - a beta - gamma T_u) E(a,b;beta x,u) = (b beta - gamma) E(a,b;u beta x,u)
        res = operator_identity_residual(P32, PantographSpec(a, b, u), beta, gamma, 16)
        assert res.max_abs_coeff() == 0

    def test_full_fixture(self):
        # beta must equal alpha/u for the particular term to close (the
        # method substitutes beta = alpha/u); with u = 1/2, alpha = 1 that
        # means beta = 2.
        spec = PantographSpec(1, 1, F(1, 2))
        rep = solve_operator(P32, spec, 1, 2, F(1, 3), 1, c=0, N=16)
        assert rep.residual_coeff_max == 0
        assert rep.diagnostics["operator_identity_max"] == 0
        expected = scale(pantograph(P32, spec, 16), 2) * F(3, 5)
        assert rep.solution == expected

    @pytest.mark.parametrize("spec, coefs, c", [
        (PantographSpec(1, 1, F(1, 2)), (1, 2, F(1, 3), 1), 0),
        (PantographSpec(0, F(1, 2), F(1, 3)), (2, 5, 0, 3), 1),
        (PantographSpec(2, F(-1, 2), F(-1, 3)), (1, -3, F(1, 4), 2), F(1, 2)),
    ])
    def test_report_is_a_series_linear_problem(self, spec, coefs, c):
        # the shift-identity closed form equals the coefficient recurrence
        # of the same equation
        N = 14
        rep = solve_operator(P32, spec, *coefs, c=c, N=N)
        assert rep.problem.family == "series-linear"
        assert solve_series_linear(rep.problem, N).solution == rep.solution
        assert residual(rep.problem, rep.solution).coeff_max == 0

    def test_rejects_inconsistent_beta(self):
        with pytest.raises(HypothesisViolated):
            solve_operator(P32, PantographSpec(1, 1, F(1, 2)), 1, 1, F(1, 3), 1)

    def test_resonance(self):
        # b alpha - u gamma = 0
        with pytest.raises(ResonantParameters):
            solve_operator(P32, PantographSpec(1, 1, F(1, 2)), 1, 2, 2, 1)

    def test_zero_delay(self):
        with pytest.raises(ZeroDelay):
            solve_operator(P32, PantographSpec(1, 1, 0), 1, 1, F(1, 3), 1)


class TestIntegratingFactor:
    def test_zero_alpha_gives_unit_factor(self):
        factor, numer = integrating_factor(P32, PantographSpec(0, 1, F(1, 2)),
                                           Series.zero(P32, 11), 12)
        assert factor == Series.one(P32, 12)

    def test_monomial_factor(self):
        # alpha = {n} x^{n-1} integrates to A = x^n; the exp-corollary factor
        # is exp[x^n, u], cross-built from symbolic powers
        n, u, N = 2, F(1, 2), 14
        alpha = Series.monomial(P32, n - 1, coeff=st_number(P32, n), order=N - 1)
        factor, numer = integrating_factor(P32, PantographSpec(0, 1, u), alpha, N)
        ones = [1] * (N + 1)
        expected = compose_deformed(ones, u, Series.monomial(P32, n, order=N))
        assert factor == expected
        # numerator is exp[u A, u] for the (0,1,u) spec
        assert numer == compose_deformed(ones, u, Series.monomial(P32, n, coeff=u, order=N))

    def test_product_rule_expansion(self):
        # D(E[A] y) = E[A](phi .) D y + alpha (a E[A] + b E[u A]) y(phi' .)
        spec = PantographSpec(F(1, 2), F(1, 3), F(2, 5))
        alpha = Series(P32, [F(1), F(-1, 2), F(1, 4), 0, F(2), 0, 0, 0, 0, 0, 0, F(1, 7)])
        y = Series(P32, [F(2), F(1, 3), 0, F(-1), F(1, 5), F(3), 0, F(1, 2), 0, 0, F(1), 0])
        N = 12
        factor, numer = integrating_factor(P32, spec, alpha, N)
        lhs = st_derive(factor * y)
        rhs = scale(factor, P32.phi) * st_derive(y) + \
            alpha.padded(N) * numer * scale(y, P32.phi_prime)
        assert lhs == rhs.truncated(lhs.order)


def composition_route(params, spec, alpha, N):
    """The factor as two full compositions, on A and on u A: the route
    integrating_factor took before its constant-alpha and shared-table
    paths, kept as their oracle.  ``alpha`` has order max(N - 1, 0)."""
    big_a = st_antiderive(alpha).truncated(N)
    ones = [1] * (N + 1)
    factor = compose_ab(ones, spec, big_a)
    delayed = compose_ab(ones, spec, big_a * params.wrap(spec.u))
    return factor, factor * params.wrap(spec.a) + delayed * params.wrap(spec.b)


ROUTE_SPECS = [(0, 1, F(2, 5)), (0, 1, F(-3, 2)), (1, -1, F(2, 5)), (2, -2, F(-1, 3)),
               (F(1, 2), F(1, 3), F(-2, 5)), (F(3, 2), F(-1, 2), F(3, 2))]
ROUTE_ALPHAS = {"constant": [F(-3, 2)], "general": [F(1), F(-1, 2), F(2, 3), 0, F(1, 5)]}


def route_alpha(params, kind, N):
    coeffs = ROUTE_ALPHAS[kind][:max(N, 1)]
    return Series(params, coeffs).padded(max(N - 1, 0))


class TestFactorRoutes:
    """The constant-alpha closed form and the shared power table against
    the two-composition route."""

    @pytest.mark.parametrize("pair", [(3, -2), (4, -3), (2, 3)])
    @pytest.mark.parametrize("N", [0, 1, 8, 24])
    @pytest.mark.parametrize("kind", ["constant", "general"])
    def test_rational_routes_agree_exactly(self, pair, N, kind):
        p = golden_pair(*pair)
        for a, b, u in ROUTE_SPECS:
            spec = PantographSpec(a, b, u)
            alpha = route_alpha(p, kind, N)
            got = integrating_factor(p, spec, alpha, N)
            want = composition_route(p, spec, alpha, N)
            assert got[0].coeffs == want[0].coeffs and got[1].coeffs == want[1].coeffs

    @pytest.mark.parametrize("precision", [30, 50])
    @pytest.mark.parametrize("kind", ["constant", "general"])
    def test_float_routes_agree(self, precision, kind):
        tol = 10.0 ** (3 - precision)
        for pair in [(1, 1), (3, -2)]:
            p = golden_pair(*pair, backend="float", precision=precision)
            for N in (0, 1, 8, 24):
                for a, b, u in ROUTE_SPECS:
                    spec = PantographSpec(*(p.wrap(v) for v in (a, b, u)))
                    alpha = route_alpha(p, kind, N)
                    got = integrating_factor(p, spec, alpha, N)
                    want = composition_route(p, spec, alpha, N)
                    for g, w in zip(got, want):
                        assert g.order == w.order == N
                        assert all(abs(x - y) <= tol * abs(y)
                                   for x, y in zip(g.coeffs, w.coeffs))

    @pytest.mark.parametrize("kind, tables", [("constant", 0), ("general", 1)])
    def test_one_power_table_at_most(self, monkeypatch, kind, tables):
        built = []
        monkeypatch.setattr(stsolve, "symbolic_powers",
                            lambda f, k: built.append(k) or symbolic_powers(f, k))
        integrating_factor(P32, PantographSpec(1, F(1, 2), F(1, 3)),
                           route_alpha(P32, kind, 12), 12)
        assert built == [12] * tables


class TestSolveIntegrationFactor:
    def test_exp_factor_example(self):
        # D y + {n} x^{n-1} (exp[u x^n,u]/exp[A(phi x),u]) y(phi' x) = beta
        # with beta = x^{n-1} exp[u x^n,u]/exp[A(phi x),u]:
        # y = (exp[x^n,u] - 1)/({n} exp[x^n,u]) + xi/exp[x^n,u], n = 2.
        # (The displayed equation drops the factor {n} from alpha and the
        # factor-ratio from beta; this is the corrected pair the displayed
        # solution actually solves.)
        n, u, N, xi = 2, F(1, 2), 20, F(3)
        alpha = Series.monomial(P32, n - 1, coeff=st_number(P32, n), order=N)
        ones = [1] * (N + 1)
        exp_xn = compose_deformed(ones, u, Series.monomial(P32, n, order=N))
        exp_uxn = compose_deformed(ones, u, Series.monomial(P32, n, coeff=u, order=N))
        beta = Series.monomial(P32, n - 1, order=N) * exp_uxn / scale(exp_xn, P32.phi)
        prob = LinearProblem.exp_factor(P32, u, alpha, beta, initial=xi)
        rep = solve_integration_factor(prob, N)
        expected = (exp_xn - 1) / (exp_xn * st_number(P32, n)) + \
            Series.constant(P32, xi, N) / exp_xn
        assert rep.solution == expected
        assert rep.residual_coeff_max == 0

    def exam2_particular(self, m, N):
        coeffs = [F(0)] * (N + 1)
        for k in range(m + 1):
            expo = -m * (k + 1) + math.comb(k + 1, 2)
            coeffs[m - k] = (P32.phi_prime ** expo
                             * st_factorial(P32, m) / st_factorial(P32, m - k))
        return Series(P32, coeffs)

    def test_exam2(self):
        # D y - y(phi' x) = x^m, m = 2: particular part
        # -sum_k phi'^(-m(k+1)+C(k+1,2)) {m}!/{m-k}! x^{m-k}
        m, N = 2, 16
        sigma = self.exam2_particular(m, N)
        w0 = -sigma.coeffs[0]  # value of the closed-form antiderivative at 0
        prob = LinearProblem.classical_factor(
            P32, -1, Series.monomial(P32, m, order=N), initial=w0)
        rep = solve_integration_factor(prob, N)
        assert rep.solution == -sigma
        assert rep.residual_coeff_max == 0
        # with xi = 0 the homogeneous part G Exp'(x) appears, G = -w0
        rep0 = solve_integration_factor(
            LinearProblem.classical_factor(P32, -1, Series.monomial(P32, m, order=N)), N)
        assert rep0.solution == -sigma - exp_prime_series(P32, N) * w0
        assert rep0.residual_coeff_max == 0

    def test_exponential_rhs_example(self):
        # D y + y(phi' x) = amp Exp'(beta x):
        # y = amp phi'/(phi' + beta) Exp'(beta x / phi') + G/Exp(x)
        amp, beta_val, N = F(2), F(1, 3), 18
        forcing = scale(exp_prime_series(P32, N), beta_val) * amp
        prob = LinearProblem.classical_factor(P32, 1, forcing, initial=0)
        rep = solve_integration_factor(prob, N)
        pref = amp * P32.phi_prime / (P32.phi_prime + beta_val)
        particular = scale(exp_prime_series(P32, N), beta_val / P32.phi_prime) * pref
        # 1/Exp(x) = Exp'(-x); xi = 0 leaves G = -pref
        homog = scale(exp_prime_series(P32, N), -1) * (-pref)
        assert rep.solution == particular + homog
        assert rep.residual_coeff_max == 0

    def test_monomial_times_exp_rhs_example(self):
        # D y + y(phi' x) = amp x^m Exp'(-phi x):
        # y = amp x^{m+1}/({m+1} Exp(x)) + xi/Exp(x)
        amp, m, N = F(3), 2, 18
        forcing = Series.monomial(P32, m, order=N) * \
            scale(exp_prime_series(P32, N), -P32.phi) * amp
        prob = LinearProblem.classical_factor(P32, 1, forcing, initial=0)
        rep = solve_integration_factor(prob, N)
        inv_exp = scale(exp_prime_series(P32, N), -1)
        expected = Series.monomial(P32, m + 1, order=N) * inv_exp * \
            (amp / st_number(P32, m + 1))
        assert rep.solution == expected
        assert rep.residual_coeff_max == 0

    def test_phi_delay_interchange(self):
        # the interchanged theorem solves D y + alpha y(phi x) = beta
        N = 24
        beta = Series(P32, [F(1), F(1, 2), F(-1, 3)] + [F(0)] * (N - 2))
        prob = LinearProblem.classical_factor(P32, F(1, 2), beta, initial=F(1),
                                              delay_side="phi-delay")
        rep = solve_integration_factor(prob, N)
        assert rep.residual_coeff_max == 0
        # point residuals carry the order-N truncation tail only
        info = residual(prob, rep.solution, sample_points=[F(1, 4), F(2, 5)])
        for _, r in info.points:
            assert r < F(1, 10 ** 10)

    def test_cross_agreement_with_series_linear(self):
        # D y = alpha y(phi' x) + beta both ways, order 16
        alpha, a0, N = F(2, 3), F(5, 7), 16
        beta = Series(P32, [F(1), F(-2), F(1, 5), F(3)] + [F(0)] * (N - 3))
        sl = LinearProblem.series_linear(
            P32, PantographSpec(0, 1, P32.phi_prime), alpha, beta, a0)
        via_recurrence = solve_series_linear(sl, N).solution
        ifp = LinearProblem.classical_factor(P32, -alpha, beta, initial=a0)
        via_factor = solve_integration_factor(ifp, N).solution
        assert via_recurrence == via_factor

    def test_cross_agreement_phi_delay(self):
        alpha, a0, N = F(-1, 2), F(1), 16
        beta = Series(P32, [F(2), F(1)] + [F(0)] * (N - 1))
        sl = LinearProblem.series_linear(
            P32, PantographSpec(0, 1, P32.phi), alpha, beta, a0)
        via_recurrence = solve_series_linear(sl, N).solution
        ifp = LinearProblem.classical_factor(P32, -alpha, beta, initial=a0,
                                             delay_side="phi-delay")
        via_factor = solve_integration_factor(ifp, N).solution
        assert via_recurrence == via_factor

    def test_numeric_mode_matches_series_mode(self):
        # eta > 0 with constant datum g: y_eta(x) = (int_eta^x ... + g)/E[A]
        # equals the series solution with xi = g - F(eta)
        p = golden_pair(3, -2, backend="float")
        eta, x, g = p.wrap("0.25"), p.wrap("0.75"), p.wrap(2)
        alpha = -p.one()
        N = 40  # the scaled factor series decays only geometrically here
        beta = Series.monomial(p, 2, order=N)
        numeric_prob = LinearProblem.classical_factor(p, alpha, beta, initial=g, eta=eta)
        val = integration_factor_value(numeric_prob, x, N=N)
        factor, _ = integrating_factor(p, PantographSpec(0, 1, p.phi),
                                       Series.constant(p, alpha, N - 1), N)
        f_at = st_antiderive(beta * scale(factor, p.phi)).truncated(N)
        series_prob = LinearProblem.classical_factor(
            p, alpha, beta, initial=g - f_at.eval(eta))
        y = solve_integration_factor(series_prob, N).solution
        assert abs(val - y.eval(x)) < 1e-12

    def test_numeric_mode_report(self):
        p = golden_pair(3, -2, backend="float")
        prob = LinearProblem.classical_factor(
            p, -p.one(), Series.monomial(p, 2, order=40), initial=p.wrap(1),
            eta=p.wrap("0.2"))
        rep = solve_integration_factor(prob, 40, points=[p.wrap("0.5")])
        assert rep.solution is None
        assert rep.problem is prob
        assert rep.diagnostics["mode"] == "numeric"
        (x, r), = rep.residual_points
        assert r < 1e-8

    def test_numeric_mode_report_carries_values(self):
        p = golden_pair(3, -2, backend="float")
        prob = LinearProblem.classical_factor(
            p, -p.one(), Series.monomial(p, 2, order=12), initial=1, eta=p.wrap("0.2"))
        xs = [p.wrap("0.5"), p.wrap("0.7")]
        rep = solve_integration_factor(prob, 12, points=xs)
        assert rep.values == [(x, integration_factor_value(prob, x, N=12)) for x in xs]
        assert set(rep.diagnostics) == {"mode"}

    def test_q_periodic_datum(self):
        # y(x) = (F(x) - F(eta) + G(log_q x)) / E[A](x): a q-periodic datum G
        # moves each value by (G(log_q x) - 1)/E[A](x) from the datum G = 1
        p = golden_pair(3, -2, backend="float")
        N, eta, alpha = 12, p.wrap("0.1"), -p.one()
        beta = Series.monomial(p, 1, order=N)
        ctx = p.ctx

        def g(y):
            return 1 + ctx.cos(2 * ctx.pi * y) / 10

        xs = [p.wrap("0.3"), p.wrap("0.5"), p.wrap("0.7")]
        periodic = LinearProblem.classical_factor(
            p, alpha, beta, initial=QPeriodic.periodic(p, g), eta=eta)
        constant = LinearProblem.classical_factor(p, alpha, beta, initial=1, eta=eta)
        moved = solve_integration_factor(periodic, N, points=xs).values
        base = solve_integration_factor(constant, N, points=xs).values
        factor, _ = integrating_factor(p, PantographSpec(0, 1, p.phi),
                                       Series.constant(p, alpha, N - 1), N)
        for (x, y), (_, y1) in zip(moved, base):
            shift = (g(p.log(x) / p.log(p.q)) - 1) / factor.eval(x)
            assert abs(shift) > 1e-3
            assert abs((y - y1) - shift) < 1e-25
        not_periodic = LinearProblem.classical_factor(
            p, alpha, beta, initial=QPeriodic.periodic(p, lambda y: 1 + y), eta=eta)
        with pytest.raises(NonQPeriodicInitial):
            solve_integration_factor(not_periodic, N, points=xs)

    def test_numeric_mode_needs_points(self):
        p = golden_pair(3, -2, backend="float")
        prob = LinearProblem.classical_factor(
            p, -p.one(), Series.monomial(p, 2, order=12), initial=1, eta=p.wrap("0.5"))
        with pytest.raises(StInputError):
            solve_integration_factor(prob, 12)


NUMERIC_CASES = [
    # (spec, alpha, beta, delay side)
    ((0, 1, 2), "-1", "x^2", "phi-prime-delay"),
    ((0, 1, "1/2"), "1 + x", "1 - x", "phi-prime-delay"),
    ((1, "1/2", "1/3"), "-1", "x", "phi-delay"),
]


def numeric_problem(p, case, order, eta, y0):
    spec, alpha, beta, side = case
    return LinearProblem.integration_factor(
        p, PantographSpec(*(p.wrap(v) for v in spec)), parse_expression(alpha, p, order),
        parse_expression(beta, p, order), initial=p.wrap(y0), eta=p.wrap(eta),
        delay_side=side)


class TestNumericModeValues:
    """y(x) = (int_eta^x beta E[A(delay r)] d r + y0) / E[A](x) at eta > 0."""

    @pytest.mark.parametrize("case", NUMERIC_CASES)
    def test_rational_value_is_exact(self, case):
        # the integrand is a polynomial: its Jackson integral is F(x) - F(eta),
        # with F from an explicit convolution of the two coefficient lists
        N, eta, y0 = 6, F(1, 10), F(3, 2)
        prob = numeric_problem(P32, case, N, eta, y0)
        factor, _ = integrating_factor(P32, prob.spec, prob.alpha, N)
        delay = P32.phi if case[3] == "phi-prime-delay" else P32.phi_prime
        fb = [c * delay ** n for n, c in enumerate(factor.coeffs)]
        bc = prob.beta.padded(N).coeffs[:N + 1]
        conv = [sum(bc[i] * fb[n - i] for i in range(n + 1) if i <= N and n - i <= N)
                for n in range(2 * N + 1)]

        def big_f(x):
            return sum(c * x ** (n + 1) / st_number(P32, n + 1) for n, c in enumerate(conv))

        for x in (F(1, 2), F(7, 10), F(-1, 3)):
            want = (big_f(x) - big_f(eta) + y0) / factor.eval(x)
            assert integration_factor_value(prob, x, N) == want

    @pytest.mark.parametrize("pair", [(3, -2), (1, 1)])
    @pytest.mark.parametrize("precision", [30, 50])
    @pytest.mark.parametrize("case", NUMERIC_CASES)
    def test_float_values_meet_the_precision(self, case, precision, pair):
        # reference: the callable node sum at 80 digits and tol 1e-70
        N, eta, y0, xs = 16, "1/10", "1/2", ("1/2", "7/10")
        p = golden_pair(*pair, backend="float", precision=precision)
        ref_p = golden_pair(*pair, backend="float", precision=80)
        prob = numeric_problem(p, case, N, eta, y0)
        ref = numeric_problem(ref_p, case, N, eta, y0)
        factor, _ = integrating_factor(ref_p, ref.spec, ref.alpha, N)
        delay = ref_p.phi if case[3] == "phi-prime-delay" else ref_p.phi_prime
        delayed = scale(factor, delay)
        beta = ref.beta.padded(N).truncated(N)
        for x in xs:
            nodes = st_integral(lambda r: beta.eval(r) * delayed.eval(r),
                                QInterval(eta, x, ref_p), tol=1e-70)
            want = F(ref_p.to_str((nodes + ref_p.wrap(y0)) / factor.eval(x)))
            got = F(p.to_str(integration_factor_value(prob, p.wrap(x), N)))
            assert abs(got - want) <= F(10) ** (3 - precision) * abs(want)


class TestBernoulli:
    def make_fixture_problem(self, N=24):
        # D y + y(phi x) = x^2 y(phi x) y(phi' x): order n = 2, phi delay
        return LinearProblem.bernoulli(
            P32, PantographSpec(0, 1, P32.phi), alpha=1,
            beta=Series.monomial(P32, 2, order=N), n=2)

    def test_transform_n2(self):
        prob = self.make_fixture_problem()
        z_prob = bernoulli_transform(prob)
        assert z_prob.family == "integration-factor"
        assert z_prob.delay_side == "phi-prime-delay"
        assert P32.wrap(z_prob.alpha) == -1  # -{1} * 1
        assert z_prob.beta.coeffs[2] == -1   # -{1} * x^2

    def test_transform_rejects_bad_order(self):
        for n in (0, 1):
            with pytest.raises(InvalidBernoulliOrder):
                bernoulli_transform(LinearProblem.bernoulli(
                    P32, PantographSpec(0, 1, P32.phi), 1, 0, n))

    def test_transform_refuses_a_linear_family(self):
        # n_bernoulli is None outside the Bernoulli families; the family is
        # refused before {n - 1} is read
        for prob in (LinearProblem.series_linear(golden_pair(3, -2), PantographSpec(0, 1, 1),
                                                 1, 0, 1),
                     LinearProblem.integration_factor(P32, PantographSpec(0, 1, 2), -1, 0)):
            with pytest.raises(StInputError, match="expected a Bernoulli family, got "
                               + prob.family):
                bernoulli_transform(prob)

    def test_transform_n3_scaling(self):
        # -(1/{2}) D z + ... scales alpha and beta by -{2} = -3
        prob = LinearProblem.bernoulli(
            P32, PantographSpec(0, 1, P32.phi), alpha=F(1, 2),
            beta=Series.monomial(P32, 1, order=8), n=3)
        z_prob = bernoulli_transform(prob)
        assert P32.wrap(z_prob.alpha) == F(-3, 2)
        assert z_prob.beta.coeffs[1] == -3

    def test_u_bernoulli_transform(self):
        # -(1/{n-1}) D z + alpha z(phi' u x) = beta, as a series-linear problem
        u, alpha, n = F(1, 3), F(2), 2
        prob = LinearProblem.u_bernoulli(P32, u, alpha, Series.monomial(P32, 1, order=8), n)
        z_prob = bernoulli_transform(prob)
        assert z_prob.family == "series-linear"
        assert z_prob.spec.a == 0 and z_prob.spec.b == 1
        assert z_prob.spec.u == P32.phi_prime * u
        assert P32.wrap(z_prob.alpha) == st_number(P32, n - 1) * alpha
        assert z_prob.beta.coeffs[1] == -st_number(P32, n - 1)

    def u_bernoulli_residual(self, p, n, order=12):
        beta = Series(p, [1, -1, F(1, 2)]).padded(order)
        prob = LinearProblem.u_bernoulli(p, F(1, 2), F(2, 3), beta, n)
        z = solve_series_linear(bernoulli_transform(prob), order).solution
        return residual(prob, z).coeff_max

    def test_u_bernoulli_residual_is_that_of_its_z_equation(self):
        assert self.u_bernoulli_residual(P32, 3) == 0

    def test_non_integer_order(self):
        # {n - 1} = {3/2} from powers of phi and phi', on the float backend only
        p = golden_pair(3, -2, backend="float")
        assert self.u_bernoulli_residual(p, F(5, 2)) < 1e-20
        with pytest.raises(BackendMismatch):
            self.u_bernoulli_residual(P32, F(5, 2))

    @pytest.mark.parametrize("n, want", [(-1, F(-3, 4)), (-3, F(-15, 16))])
    def test_negative_integer_order(self, n, want):
        # {n - 1} from phi^(n-1) - phi'^(n-1) = 2^(n-1) - 1 on (3, -2), exact
        prob = LinearProblem.bernoulli(P32, PantographSpec(0, 1, P32.phi), alpha=1,
                                       beta=Series.monomial(P32, 1, order=8), n=n)
        z_prob = bernoulli_transform(prob)
        assert type(z_prob.alpha) is F and z_prob.alpha == -want
        assert z_prob.beta.coeffs[1] == -want
        # the backward recurrence {m} = (3 {m + 1} - {m + 2}) / 2 agrees
        nums = {0: F(0), 1: F(1)}
        for m in range(-1, n - 2, -1):
            nums[m] = (nums[m + 2] - 3 * nums[m + 1]) / -2
        assert nums[n - 1] == want

    def test_reconstruct_refuses_a_complex_q(self):
        # s^2 + 4t < 0: the non-integer order compares q, which is complex
        p = golden_pair(1, -2, backend="float")
        with pytest.raises(BackendMismatch):
            bernoulli_reconstruct(lambda x: 1 + x, F(1, 2), p, y_anchor=1)

    def test_reconstruct_n2_inverts(self):
        z = Series(P32, [F(2), F(1), F(1, 2)])
        y = bernoulli_reconstruct(z, 2, P32)
        assert y(F(1, 2)) == 1 / z.eval(F(1, 2))

    def test_reconstruct_constant_z(self):
        y = bernoulli_reconstruct(lambda x: F(7, 2), 3, P32, y_anchor=F(4))
        assert y(F(1, 3)) == 4

    def test_reconstruct_needs_anchor(self):
        with pytest.raises(StInputError):
            bernoulli_reconstruct(lambda x: F(1), 3, P32)

    def test_reconstruct_gives_up_within_its_cap(self):
        # q = -2: the nodes 4^i x grow and the factors tend to -2, never to 1
        p = golden_pair(-1, 2)
        assert p.q == -2
        calls = []

        def z(x):
            calls.append(x)
            return 1 + x

        y = bernoulli_reconstruct(z, 3, p, y_anchor=1)
        with pytest.raises(ConvergenceFailure):
            y(F(1, 3))
        # two z values per factor, and no factor past the cap
        assert len(calls) <= 2 * stsolve.RECONSTRUCT_CAP

    def test_reconstruct_satisfies_step_relation(self):
        # y(x) = y(q^{n-1} x) z(q x/phi^{n-2}) / z(x/phi^{n-2}) for n = 3
        z = lambda x: 1 + x / 2
        y = bernoulli_reconstruct(z, 3, P32, y_anchor=F(1), tol=1e-18)
        x = F(2, 5)
        lhs = y(x)
        rhs = y(P32.q ** 2 * x) * z(P32.q * x / P32.phi) / z(x / P32.phi)
        assert abs(lhs - rhs) < F(1, 10 ** 12)

    def test_end_to_end_n2_roundtrip(self):
        # transform, solve (exam2 with forcing -x^2), invert, check the
        # original nonlinear equation pointwise
        N = 24
        prob = self.make_fixture_problem(N)
        z_prob = bernoulli_transform(prob)
        z_prob.initial = F(4)  # z = Exp'(x) + (x^2 + 3x + 3), nonvanishing
        z = solve_integration_factor(z_prob, N).solution
        sigma = Series(P32, [F(3), F(3), F(1)] + [F(0)] * (N - 2))
        assert z == exp_prime_series(P32, N) + sigma
        y = bernoulli_reconstruct(z, 2, P32)
        info = residual(prob, y, sample_points=[F(1, 10), F(1, 5), F(3, 10), F(2, 5), F(1, 2)])
        for _, r in info.points:
            assert r < F(1, 10 ** 8)


class TestResidual:
    def test_detects_perturbation(self):
        prob = LinearProblem.series_linear(P32, PantographSpec(0, 1, 1), 1, 0, 1)
        rep = solve_series_linear(prob, 12)
        bumped = list(rep.solution.coeffs)
        bumped[3] += F(1, 1000)
        info = residual(prob, Series(P32, bumped))
        assert info.coeff_max >= F(1, 10 ** 4)

    def test_pantograph_solves_its_equation(self):
        spec = PantographSpec(1, F(1, 2), F(1, 3))
        e = pantograph(P32, spec, 20)
        prob = LinearProblem.series_linear(P32, spec, 1, 0, 1)
        info = residual(prob, e, sample_points=[F(1, 5)])
        assert info.coeff_max == 0
        assert info.points[0][1] < F(1, 10 ** 12)  # order-20 tail only

    def test_exact_solution_zero_residual(self):
        prob = LinearProblem.series_linear(
            P32, PantographSpec(F(1, 2), F(1, 3), F(2)), F(1, 2),
            Series(P32, [1, 1]), F(3))
        rep = solve_series_linear(prob, 16)
        assert rep.residual_coeff_max == 0

    def test_float_backend_residual_bound(self):
        # <= 1e-20 * max|coeff| at 30 digits, order 24
        p = golden_pair(3, -2, backend="float", precision=30)
        prob = LinearProblem.series_linear(
            p, PantographSpec(p.wrap("0.3"), p.wrap("1.1"), p.wrap("0.7")),
            p.wrap("1.5"), Series(p, ["0.2", "-0.4", "1"]), p.wrap(1))
        rep = solve_series_linear(prob, 24)
        assert rep.residual_coeff_max <= 1e-20 * rep.solution.max_abs_coeff()

    def test_configured_precision_carries_through(self):
        # per-Params contexts: a 50-digit run leaves 50-digit-sized residuals
        p = golden_pair(1, 1, precision=50)
        prob = LinearProblem.series_linear(
            p, PantographSpec(p.wrap("0.4"), p.wrap("0.9"), p.wrap("0.6")),
            p.wrap(1), Series(p, ["1", "0.5"]), p.wrap(2))
        rep = solve_series_linear(prob, 20)
        assert rep.residual_coeff_max <= 1e-45 * max(1, rep.solution.max_abs_coeff())


# -- refusals -------------------------------------------------------------------

SPEC = PantographSpec(0, 1, F(1, 2))


@pytest.mark.parametrize("family, fields, message", [
    ("nope", {"alpha": 1}, "unknown family"),
    ("series-linear", {"alpha": 1, "delay_side": "sideways"}, "unknown delay side"),
    ("bernoulli", {"alpha": 1}, "needs the order n"),
    ("series-linear", {}, "needs alpha"),
])
def test_problem_refuses_incomplete_fields(family, fields, message):
    with pytest.raises(StInputError, match=message):
        LinearProblem(family, P32, SPEC, **fields)


@pytest.mark.parametrize("solver, family", [
    (solve_series_linear, "integration-factor"),
    (solve_integration_factor, "series-linear"),
    (bernoulli_transform, "integration-factor"),
])
def test_solver_refuses_another_family(solver, family):
    prob = LinearProblem(family, P32, SPEC, alpha=1, n_bernoulli=3)
    with pytest.raises(StInputError, match=f"got {family}"):
        solver(prob)


def test_closed_form_refuses_a_vanishing_prefix_product():
    # a + b u^0 = 0: (a (+) b)^1 vanishes
    prob = LinearProblem.series_linear(P32, PantographSpec(1, -1, 1), 1, 0, 1)
    with pytest.raises(ZeroDenominator):
        series_linear_closed_form(prob, 8)


def test_transform_refuses_a_vanishing_scale():
    # {3} = 0 at (1, -1), so n = 4 has no -(1/{n-1}) D z
    p = golden_pair(1, -1)
    prob = LinearProblem.bernoulli(p, PantographSpec(0, 1, 1), 1, 0, 4)
    with pytest.raises(DegenerateStNumber, match="n = 4"):
        bernoulli_transform(prob)


def test_reconstruct_refuses_a_vanishing_z():
    y = bernoulli_reconstruct(lambda x: x - F(1, 2), 2, P32)
    with pytest.raises(ZeroDenominator):
        y(F(1, 2))


def test_reconstruct_refuses_a_non_integer_order_at_negative_q():
    p = golden_pair(-1, 2)  # q = -2
    with pytest.raises(StInputError, match="q < 0"):
        bernoulli_reconstruct(lambda x: 1 + x, F(1, 2), p, y_anchor=1)


def test_reconstruct_is_the_anchor_at_zero():
    y = bernoulli_reconstruct(lambda x: 1 + x, 3, P32, y_anchor=F(5, 2))
    assert y(0) == F(5, 2)


def test_residual_of_a_callable_needs_the_order():
    prob = LinearProblem.series_linear(P32, SPEC, 1, 0, 1)
    with pytest.raises(StInputError, match="series order"):
        residual(prob, lambda x: x, [F(1, 2)])


def test_bernoulli_point_residual_needs_n_2():
    prob = LinearProblem.bernoulli(P32, PantographSpec(0, 1, P32.phi), 1, 1, 3)
    with pytest.raises(StInputError, match="order n = 2"):
        residual(prob, lambda x: 1 + x, [F(1, 2)])


def test_numeric_mode_has_no_coefficient_residual():
    p = golden_pair(3, -2, backend="float")
    prob = LinearProblem.classical_factor(
        p, -p.one(), Series.monomial(p, 2, order=12), initial=1, eta=p.wrap("0.2"))
    rep = solve_integration_factor(prob, 12, points=[p.wrap("0.5")])
    assert rep.solution is None and rep.residual_coeff_max is None


@pytest.mark.parametrize("family", ["series-linear", "integration-factor"])
def test_float_residual_formats_no_series(monkeypatch, family):
    # each scalar product of the coefficient residual has its Series on the
    # left: mpf * Series first tries to convert the Series, through its repr
    p = golden_pair(3, -2, backend="float")
    if family == "series-linear":
        prob = LinearProblem.series_linear(p, PantographSpec(1, F(-1, 2), F(1, 2)), 2,
                                           Series(p, [1, -1, 3]), 1)
        rep = solve_series_linear(prob, 16)
    else:
        prob = LinearProblem.integration_factor(p, PantographSpec(0, 1, 2), -1,
                                                Series.monomial(p, 2, order=16), initial=3)
        rep = solve_integration_factor(prob, 16)
    calls = []
    monkeypatch.setattr(Series, "__repr__", lambda self: calls.append(self) or "Series")
    info = residual(rep.problem, rep.solution, sample_points=[p.wrap(F(1, 5))])
    assert calls == []
    assert info.coeff_max < 1e-20

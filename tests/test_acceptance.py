"""Acceptance suite: thirteen identity- and residual-based criteria, each
printed as one PASS/FAIL line.  Tolerances are pinned here and nowhere else.
"""

import functools
import math
import random
from fractions import Fraction as F

from stpanto.stnum import (
    golden_pair,
    q_pochhammer,
    q_pochhammer_inf,
    st_factorial,
    st_number,
)
from stpanto.stseries import (
    Series,
    compose_deformed,
    q_derive_at,
    scale,
    sq_int,
    st_antiderive,
    st_derive,
    st_derive_at,
)
from stpanto._stable import factors, weights
from stpanto.stfun import (
    PantographSpec,
    deformed_exp,
    pantograph,
    pantograph_at,
    partial_theta,
    partial_theta_series,
)
from stpanto.stquad import (
    QInterval,
    check_by_parts,
    check_ftc,
    pantograph_antiderivative_at,
    pantograph_antiderivative_series,
    st_integral,
)
from stpanto.stsolve import (
    LinearProblem,
    bernoulli_reconstruct,
    bernoulli_transform,
    integration_factor_value,
    residual,
    solve_integration_factor,
    solve_operator,
    solve_series_linear,
    solve_special_rhs,
)

P32 = golden_pair(3, -2)
SEED = 987654321


def criterion(num, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"[criterion {num:2d}] {label}: FAIL")
                raise
            print(f"[criterion {num:2d}] {label}: PASS")
        return run
    return wrap


@criterion(1, "number bridge {n}! = phi^C(n,2) (q;q)_n/(1-q)^n")
def test_criterion_01_number_bridge():
    p = golden_pair(3, -2, backend="float", precision=30)
    for n in range(21):
        lhs = st_factorial(p, n)
        rhs = p.phi ** math.comb(n, 2) * q_pochhammer(p.q, p.q, n) / (1 - p.q) ** n
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


@criterion(2, "derivative equivalence D_{s,t} f(x) = D_q f(phi x)")
def test_criterion_02_derivative_equivalence():
    rng = random.Random(SEED)
    p = golden_pair(3, -2, backend="float", precision=30)
    for _ in range(20):
        f = Series(p, [F(rng.randint(-50, 50), rng.randint(1, 10)) for _ in range(9)])
        for _ in range(10):
            x = p.wrap(F(rng.randint(1, 200), 201))
            lhs = st_derive_at(f.eval, x, p)
            rhs = q_derive_at(f.eval, p.phi * x, p)
            assert abs(lhs - rhs) <= 1e-12 * max(1, abs(rhs))


@criterion(3, "pantograph equation D E = a E + b T_u E, exact through order 32")
def test_criterion_03_pantograph_equation():
    rng = random.Random(SEED)
    for _ in range(50):
        a = F(rng.randint(-8, 8), rng.randint(1, 5))
        b = F(rng.randint(-8, 8), rng.randint(1, 5))
        u = F(rng.randint(-8, 8), rng.randint(1, 5))
        e = pantograph(P32, PantographSpec(a, b, u), 32)
        res = st_derive(e) - (e * a + scale(e, u) * b).truncated(31)
        assert res.max_abs_coeff() == 0


@criterion(4, "special values suite (seven identities; E(a,-a)=1 corrected)")
def test_criterion_04_special_values():
    N = 24
    a, b, c, u = F(2, 3), F(-1, 2), F(3), F(2, 5)
    # (i) E(a,-a;x,u) = 1: every n >= 1 weight carries the factor a - a = 0.
    #     (The listed value 0 contradicts the n = 0 term; discrepancy logged.)
    assert pantograph(P32, PantographSpec(a, -a, u), N) == Series.one(P32, N)
    # (ii) E(a,0;x,-) = exp_{s,t}(a x), u-independent
    for uu in (u, F(3)):
        assert pantograph(P32, PantographSpec(a, 0, uu), N) == \
            scale(deformed_exp(P32, 1, N), a)
    # (iii) E(0,a;x,u) = exp_{s,t}(a x, u)
    assert pantograph(P32, PantographSpec(0, a, u), N) == \
        scale(deformed_exp(P32, u, N), a)
    # (iv) E(a,b;x,1) = exp_{s,t}((a+b) x)
    assert pantograph(P32, PantographSpec(a, b, 1), N) == \
        scale(deformed_exp(P32, 1, N), a + b)
    # (v) E(ac,bc;x,u) = E(a,b;cx,u)
    assert pantograph(P32, PantographSpec(a * c, b * c, u), N) == \
        scale(pantograph(P32, PantographSpec(a, b, u), N), c)
    # (vi) E(1,-q;x,q) = Theta0((1-q) x, 1/phi)
    theta = partial_theta_series(1 / P32.phi, N)
    assert pantograph(P32, PantographSpec(1, -P32.q, P32.q), N) == \
        Series(P32, [theta[n] * (1 - P32.q) ** n for n in range(N + 1)])
    # (vii) the 1-phi-0 value, in its consistent q-binomial form: the
    #       (+)-product weights give (b/phi; q)_n = (phi (+) (-b))^n / phi^n,
    #       and sum (b/phi;q)_n z^n/(q;q)_n = ((b/phi) z;q)_inf/(z;q)_inf.
    pf = golden_pair(3, -2, backend="float", precision=30)
    bb = pf.wrap(F(1, 3))
    for xs in ("0.1", "0.2"):
        z = (1 - pf.q) * pf.wrap(xs)
        oplus = weights(factors(((pf.phi, 1), (-bb, pf.q))), 300, pf.one())
        total, w, qq = pf.zero(), pf.one(), pf.one()
        for n in range(300):
            total += oplus[n] / pf.phi ** n * w / qq
            w *= z
            qq *= 1 - pf.q ** (n + 1)
            if abs(w) < 1e-28:
                break
        rhs = q_pochhammer_inf(bb / pf.phi * z, pf.q) / q_pochhammer_inf(z, pf.q)
        assert abs(total - rhs) <= 1e-10
    # Theta point identity: psi(q) = Theta0(q,q) = (q^2;q^2)_inf/(q;q^2)_inf
    q = pf.wrap("0.3")
    assert abs(partial_theta(q, q, 1e-20)
               - q_pochhammer_inf(q * q, q * q) / q_pochhammer_inf(q, q * q)) <= 1e-10


@criterion(5, "fundamental theorem and integration by parts on the q grid")
def test_criterion_05_ftc_by_parts():
    rng = random.Random(SEED)
    for s, t in [(3, -2), (4, -3), (2, 3)]:  # q = 1/2, 1/3, -1/3
        p = golden_pair(s, t)
        assert abs(p.q) in (F(1, 2), F(1, 3))
        for _ in range(3):
            f = Series(p, [F(rng.randint(-30, 30), rng.randint(1, 8))
                           for _ in range(9)])
            g = Series(p, [F(rng.randint(-30, 30), rng.randint(1, 8))
                           for _ in range(9)])
            assert check_ftc(f, QInterval(0, 1, p), tol=1e-18) <= F(1, 10 ** 10)
            assert check_by_parts(f, g, QInterval(0, 1, p), tol=1e-18) <= F(1, 10 ** 10)


@criterion(6, "Jackson closed value: integral of x over [0,1]_q is 1/3")
def test_criterion_06_jackson_value():
    got = st_integral(Series.monomial(P32, 1, order=3), QInterval(0, 1, P32), tol=1e-18)
    assert abs(got - F(1, 3)) <= F(1, 10 ** 12)
    # cross-check: the antiderivative x^2/{2} evaluated at the endpoints
    anti = st_antiderive(Series.monomial(P32, 1, order=2))
    assert anti.coeffs[2] == F(1, 2 + 1) and st_number(P32, 2) == 3
    assert anti.eval(1) - anti.eval(0) == F(1, 3)


@criterion(7, "substitution formula: exp[x^n,u] - 1 both ways, exact")
def test_criterion_07_substitution():
    order, u = 20, F(1, 2)
    for n in (2, 3):
        xn = Series.monomial(P32, n, order=order)
        ones = [1] * (order + 1)
        expected = compose_deformed(ones, u, xn) - 1
        integrand = Series.monomial(P32, n - 1, order=order) * \
            compose_deformed(ones, u, xn * u)
        direct = st_antiderive(integrand).truncated(order) * st_number(P32, n)
        via_sq = sq_int([u ** m for m in range(order + 1)],
                        Series.zero(P32, order), xn, u=u)
        assert direct == expected
        assert via_sq == expected


@criterion(8, "pantograph antiderivative: derivative check and series cross-check")
def test_criterion_08_pantograph_antiderivative():
    pf = golden_pair(3, -2, backend="float", precision=30)
    spec = PantographSpec(1, 0.2, 2)
    for x in (0.1, 0.2, 0.3, 0.4, 0.5):
        dval = st_derive_at(
            lambda y: pantograph_antiderivative_at(pf, spec, y, tol=1e-22), x, pf)
        target = pantograph_at(pf, spec, x, tol=1e-22)
        assert abs(dval - target) <= 1e-8 * max(1, abs(target))
    # exact rational series cross-check, including the constant u/(a u + b)
    rspec = PantographSpec(F(1), F(1, 5), F(2))
    ksum = pantograph_antiderivative_series(P32, rspec, 16)
    anti = st_antiderive(pantograph(P32, rspec, 15))
    assert ksum.coeffs[1:] == anti.coeffs[1:]
    assert ksum.coeffs[0] == F(2) / (F(2) + F(1, 5))


def _exam2_particular(m, N):
    coeffs = [F(0)] * (N + 1)
    for k in range(m + 1):
        expo = -m * (k + 1) + math.comb(k + 1, 2)
        coeffs[m - k] = (P32.phi_prime ** expo
                         * st_factorial(P32, m) / st_factorial(P32, m - k))
    return Series(P32, coeffs)


@criterion(9, "solver fixtures reproduce their closed forms with residual 0")
def test_criterion_09_solver_fixtures():
    N = 16
    exp_prime = deformed_exp(P32, P32.phi_prime, N)   # Exp'(x)
    inv_exp = scale(exp_prime, -1)                    # 1/Exp(x) = Exp'(-x)

    # exam2: D y - y(phi' x) = x^m, m = 2
    sigma = _exam2_particular(2, N)
    prob = LinearProblem.classical_factor(
        P32, -1, Series.monomial(P32, 2, order=N), initial=-sigma.coeffs[0])
    rep = solve_integration_factor(prob, N)
    assert rep.solution == -sigma and rep.residual_coeff_max == 0

    # exam7: D y = alpha(a y + b y(ux)) + delta + eps x.  The displayed form
    # is missing the term -eps x/(alpha (a + b u)); restored here.
    a, b, u, alpha = F(1), F(1, 2), F(1, 3), F(2)
    delta, eps, a0 = F(3), F(5), F(1)
    spec = PantographSpec(a, b, u)
    rep = solve_series_linear(
        LinearProblem.series_linear(P32, spec, alpha, Series(P32, [delta, eps]), a0), N)
    o1, o2 = a + b, (a + b) * (a + b * u)
    shift = delta / (alpha * o1) + eps / (alpha ** 2 * o2)
    expected = scale(pantograph(P32, spec, N), alpha) * (a0 + shift) - shift
    expected = expected - Series.monomial(P32, 1, coeff=eps / (alpha * (a + b * u)),
                                          order=N)
    assert rep.solution == expected and rep.residual_coeff_max == 0

    # x^m forcing: y = c E + {m}!/(alpha^{m+1}(a(+)b)^{m+1}) (E - partial sum)
    m = 2
    rep = solve_series_linear(
        LinearProblem.series_linear(P32, spec, alpha,
                                    Series.monomial(P32, m, order=N), a0), N)
    e_alpha = scale(pantograph(P32, spec, N), alpha)
    partial = Series(P32, [math.prod((a + b * u ** k for k in range(n)), start=F(1))
                           * alpha ** n / st_factorial(P32, n)
                           if n <= m else F(0) for n in range(N + 1)])
    pref = st_factorial(P32, m) / (
        alpha ** (m + 1) * math.prod((a + b * u ** k for k in range(m + 1)), start=F(1)))
    assert rep.solution == e_alpha * a0 + (e_alpha - partial) * pref
    assert rep.residual_coeff_max == 0

    # exponential-RHS example: D y + y(phi' x) = amp Exp'(beta x)
    amp, beta_val = F(2), F(1, 3)
    forcing = scale(exp_prime, beta_val) * amp
    rep = solve_integration_factor(
        LinearProblem.classical_factor(P32, 1, forcing, initial=0), N)
    pref = amp * P32.phi_prime / (P32.phi_prime + beta_val)
    expected = scale(exp_prime, beta_val / P32.phi_prime) * pref + inv_exp * (-pref)
    assert rep.solution == expected and rep.residual_coeff_max == 0

    # monomial-times-exponential RHS: D y + y(phi' x) = amp x^m Exp'(-phi x)
    amp, m = F(3), 2
    forcing = Series.monomial(P32, m, order=N) * scale(exp_prime, -P32.phi) * amp
    rep = solve_integration_factor(
        LinearProblem.classical_factor(P32, 1, forcing, initial=0), N)
    expected = Series.monomial(P32, m + 1, order=N) * inv_exp * \
        (amp / st_number(P32, m + 1))
    assert rep.solution == expected and rep.residual_coeff_max == 0

    # exp-factor example (n = 2), with the corrected (alpha, beta) pair the
    # displayed solution actually solves: alpha = {n} x^{n-1}, and beta
    # carries the exp[u x^n,u]/exp[A(phi x),u] ratio the worked example
    # silently substituted
    n, u2, xi, M = 2, F(1, 2), F(3), 20
    ones = [1] * (M + 1)
    exp_xn = compose_deformed(ones, u2, Series.monomial(P32, n, order=M))
    exp_uxn = compose_deformed(ones, u2, Series.monomial(P32, n, coeff=u2, order=M))
    alpha_s = Series.monomial(P32, n - 1, coeff=st_number(P32, n), order=M)
    beta_s = Series.monomial(P32, n - 1, order=M) * exp_uxn / scale(exp_xn, P32.phi)
    rep = solve_integration_factor(
        LinearProblem.exp_factor(P32, u2, alpha_s, beta_s, initial=xi), M)
    expected = (exp_xn - 1) / (exp_xn * st_number(P32, n)) + \
        Series.constant(P32, xi, M) / exp_xn
    assert rep.solution == expected and rep.residual_coeff_max == 0

    # operator method (with the consistent substitution beta = alpha/u)
    spec_op = PantographSpec(1, 1, F(1, 2))
    rep = solve_operator(P32, spec_op, 1, 2, F(1, 3), 1, c=0, N=N)
    assert rep.solution == scale(pantograph(P32, spec_op, N), 2) * F(3, 5)
    assert rep.residual_coeff_max == 0

    # phi'-coefficient theorem
    spec_sr = PantographSpec(F(1, 2), F(1, 3), F(2, 5))
    beta_amp, c0 = F(3), F(2)
    rep = solve_special_rhs(P32, spec_sr, beta_amp, c0, N)
    e = pantograph(P32, spec_sr, N)
    expected = scale(e, P32.phi_prime) * c0 + \
        Series.monomial(P32, 1, order=N) * (e * F(1, 2) + scale(e, F(2, 5)) * F(1, 3)) \
        * beta_amp
    assert rep.solution == expected and rep.residual_coeff_max == 0


@criterion(10, "Theta example value at x = 1/(phi (1-q)) vs infinite products")
def test_criterion_10_theta_fixture():
    p = golden_pair(3, -2, backend="float", precision=30)
    xi = p.wrap(F(1, 4))
    xstar = 1 / (p.phi * (1 - p.q))
    prob = LinearProblem.theta_factor(p, 1, 1, initial=xi)
    got = integration_factor_value(prob, xstar, N=40)
    # displayed combination: the prefactor is 1/psi(1/phi) by Gauss's
    # product form, against the sum over Theta0(q^k, 1/phi) - 1 (the
    # example's own previous line carries the 1/phi the final display drops)
    inv_phi = 1 / p.phi
    pref = q_pochhammer_inf(inv_phi, inv_phi ** 2) / \
        q_pochhammer_inf(inv_phi ** 2, inv_phi ** 2)
    total, qk = p.zero(), p.one()
    for _ in range(300):
        term = partial_theta(qk, inv_phi, 1e-25) - 1
        total += term
        qk *= p.q
        if abs(term) < 1e-22:
            break
    reference = pref * (total / p.phi + xi)
    assert abs(got - reference) <= 1e-8
    # sanity: the prefactor really is 1/Theta0((1-q) x*, 1/phi)
    assert abs(pref - 1 / partial_theta((1 - p.q) * xstar, inv_phi, 1e-25)) <= 1e-12


@criterion(11, "Bernoulli n = 2 round trip: transform, solve, invert")
def test_criterion_11_bernoulli_roundtrip():
    N = 24
    prob = LinearProblem.bernoulli(
        P32, PantographSpec(0, 1, P32.phi), alpha=1,
        beta=Series.monomial(P32, 2, order=N), n=2)
    z_prob = bernoulli_transform(prob)
    z_prob.initial = F(4)
    z = solve_integration_factor(z_prob, N).solution
    y = bernoulli_reconstruct(z, 2, P32)
    info = residual(prob, y,
                    sample_points=[F(1, 10), F(1, 5), F(3, 10), F(2, 5), F(1, 2)])
    assert len(info.points) == 5
    for _, r in info.points:
        assert r <= F(1, 10 ** 8)


@criterion(12, "series-linear and integration-factor solvers agree")
def test_criterion_12_cross_agreement():
    N = 16
    rng = random.Random(SEED)
    for _ in range(5):
        alpha = F(rng.randint(-6, 6) or 1, rng.randint(1, 6))
        a0 = F(rng.randint(-4, 4), rng.randint(1, 4))
        beta = Series(P32, [F(rng.randint(-10, 10), rng.randint(1, 6))
                            for _ in range(4)])
        sl = LinearProblem.series_linear(
            P32, PantographSpec(0, 1, P32.phi_prime), alpha, beta, a0)
        ifp = LinearProblem.classical_factor(P32, -alpha, beta, initial=a0)
        assert solve_series_linear(sl, N).solution == \
            solve_integration_factor(ifp, N).solution


@criterion(13, "residual detector flags a 1e-3 coefficient perturbation")
def test_criterion_13_corruption_sensitivity():
    prob = LinearProblem.series_linear(P32, PantographSpec(0, 1, 1), 1, 0, 1)
    rep = solve_series_linear(prob, 12)
    assert rep.residual_coeff_max == 0  # no false alarm on the exact solution
    bumped = list(rep.solution.coeffs)
    bumped[3] += F(1, 1000)
    info = residual(prob, Series(P32, bumped))
    assert info.coeff_max >= F(1, 10 ** 4)

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpanto._stable import delay_factors, golden_factors, point_terms, stable_sum, weights
from stpanto.errors import ConvergenceFailure
from stpanto.stnum import golden_pair, q_pochhammer, q_pochhammer_inf
from stpanto.stseries import Series, scale, st_antiderive, st_derive
from stpanto.stfun import (
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

P32 = golden_pair(3, -2)

small_fraction = st.fractions(min_value=-2, max_value=2, max_denominator=8)


class TestOplus:
    def test_empty_product(self):
        assert weights(delay_factors(F(2), F(3), F(1, 2)), 0, F(1)) == [1]
        assert weights(golden_factors(P32, F(1), F(4)), 0, P32.one()) == [1]

    def test_annihilating_pair(self):
        p = weights(delay_factors(F(3), F(-3), F(1, 2)), 7, F(1))
        for n in range(1, 8):
            assert p[n] == 0

    def test_prefix_recurrence(self):
        a, b, u = F(1), F(1, 2), F(1, 3)
        p = weights(delay_factors(a, b, u), 12, F(1))
        for n in range(12):
            assert p[n + 1] == p[n] * (a + b * u ** n)

    @given(small_fraction, small_fraction, small_fraction,
           st.integers(min_value=0, max_value=10))
    def test_delay_vs_pochhammer_form(self, a, b, u, n):
        # prod(a + b u^k) = a^n (-b/a; u)_n for a != 0 -- cross-check route
        if a == 0:
            return
        lhs = oplus_delay_pow(a, b, u, n)
        rhs = a ** n * q_pochhammer(-b / a, u, n)
        assert lhs == rhs

    def test_golden_matches_direct(self):
        alpha, beta = F(2), F(-1, 3)
        p = weights(golden_factors(P32, alpha, beta), 7, P32.one())
        for n in range(8):
            direct = math.prod((alpha * P32.phi ** k + beta * P32.phi_prime ** k
                                for k in range(n)), start=F(1))
            assert p[n] == direct
            assert oplus_golden_pow(P32, alpha, beta, n) == direct

    def test_cache_extension_past_capacity(self):
        # long prefix products: 70 factors of 1 + 1
        assert weights(delay_factors(F(1), F(1), F(1)), 70, F(1))[70] == 2 ** 70


class TestDeformedExp:
    def test_u_zero_is_one_plus_z(self):
        assert deformed_exp(P32, 0, 5) == Series(P32, [1, 1, 0, 0, 0, 0])
        assert deformed_exp_at(P32, 0, F(3, 7)) == F(10, 7)

    def test_u_one_coefficients(self):
        got = deformed_exp(P32, 1, 3)
        assert got.coeffs == [1, 1, F(1, 3), F(1, 21)]  # 1/{n}!, {2}=3, {3}=7

    def test_point_matches_series(self):
        u, z = F(1, 2), F(2, 5)
        series_val = deformed_exp(P32, u, 40).eval(z)
        assert abs(deformed_exp_at(P32, u, z, tol=1e-25) - series_val) < F(1, 10 ** 18)

    def test_antiderivative_law(self):
        # antiderivative of exp(x, u) agrees with u exp(x/u, u) except the
        # integration constant (n = 0 entry)
        u = F(2)
        lhs = st_antiderive(deformed_exp(P32, u, 16))
        rhs = scale(deformed_exp(P32, u, 17), F(1, 2)) * u
        assert lhs.coeffs[1:] == rhs.coeffs[1:]
        assert lhs.coeffs[0] == 0 and rhs.coeffs[0] == u

    def test_solves_delay_equation(self):
        # D exp(x, u) = exp(u x, u) coefficientwise
        u = F(1, 3)
        e = deformed_exp(P32, u, 20)
        lhs = st_derive(e)
        rhs = scale(e, u).truncated(19)
        assert lhs == rhs

    def test_point_divergence(self):
        with pytest.raises(ConvergenceFailure):
            deformed_exp_at(P32, 5, F(4))  # u much larger than phi


class TestProductExp:
    def test_beta_zero_collapses(self):
        alpha = F(3, 2)
        got = product_exp(P32, alpha, 0, 10)
        assert got == scale(deformed_exp(P32, P32.phi, 10), alpha)

    def test_product_of_exponentials(self):
        alpha, beta, N = F(1, 2), F(-2, 3), 12
        lhs = product_exp(P32, alpha, beta, N)
        rhs = scale(deformed_exp(P32, P32.phi, N), alpha) * \
            scale(deformed_exp(P32, P32.phi_prime, N), beta)
        assert lhs == rhs

    def test_derivative_proposition(self):
        # D exp((a(+)b) x) = a exp((a(+)b) phi x) + b exp((a(+)b) phi' x)
        alpha, beta, N = F(2), F(1, 3), 16
        e = product_exp(P32, alpha, beta, N)
        lhs = st_derive(e)
        rhs = scale(e, P32.phi) * alpha + scale(e, P32.phi_prime) * beta
        assert lhs == rhs.truncated(N - 1)

    def test_antiderivative_proposition(self):
        # int exp((a(+)b)x) = phi phi'/(a phi' + b phi) exp((a/phi (+) b/phi')x)
        alpha, beta, N = F(2), F(1, 3), 16
        lhs = st_antiderive(product_exp(P32, alpha, beta, N))
        pref = P32.phi * P32.phi_prime / (alpha * P32.phi_prime + beta * P32.phi)
        rhs = product_exp(P32, alpha / P32.phi, beta / P32.phi_prime, N + 1) * pref
        assert lhs.coeffs[1:] == rhs.coeffs[1:]

    def test_exp_times_primed_exp_annihilates(self):
        # Exp(-x) Exp'(x) = 1: the k = 0 factor of (-1 (+) 1) vanishes
        assert product_exp(P32, -1, 1, 12) == Series.one(P32, 12)


class TestPantograph:
    def test_b_zero_is_plain_exponential(self):
        a = F(2, 3)
        got = pantograph(P32, PantographSpec(a, 0, F(1, 2)), 10)
        # exp_{s,t}(a x) has coefficients a^n/{n}!: the u = 1 deformation
        assert got == scale(deformed_exp(P32, 1, 10), a)

    def test_u_one_collapses_to_sum(self):
        a, b = F(1, 2), F(1, 3)
        got = pantograph(P32, PantographSpec(a, b, 1), 10)
        assert got == scale(deformed_exp(P32, 1, 10), a + b)

    def test_a_zero_is_deformed_exponential(self):
        a, u = F(3, 4), F(1, 5)
        got = pantograph(P32, PantographSpec(0, a, u), 12)
        assert got == scale(deformed_exp(P32, u, 12), a)

    def test_common_factor_moves_to_argument(self):
        a, b, u, c = F(1, 2), F(-1, 3), F(2, 5), F(3)
        lhs = pantograph(P32, PantographSpec(a * c, b * c, u), 12)
        rhs = scale(pantograph(P32, PantographSpec(a, b, u), 12), c)
        assert lhs == rhs

    def test_annihilating_pair_gives_one(self):
        # every n >= 1 coefficient carries the factor a + (-a) u^0 = 0
        got = pantograph(P32, PantographSpec(F(2), F(-2), F(1, 2)), 16)
        assert got == Series.one(P32, 16)

    def test_theta_specialization(self):
        # E(1, -q; x, q) = Theta0((1-q) x, 1/phi)
        N = 20
        got = pantograph(P32, PantographSpec(1, -P32.q, P32.q), N)
        theta = partial_theta_series(1 / P32.phi, N)
        one_minus_q = 1 - P32.q
        expected = Series(P32, [theta[n] * one_minus_q ** n for n in range(N + 1)])
        assert got == expected

    @settings(max_examples=50)
    @given(small_fraction, small_fraction, small_fraction)
    def test_defining_equation(self, a, b, u):
        # D E = a E + b T_u E with zero residual through order 32, exactly
        spec = PantographSpec(a, b, u)
        e = pantograph(P32, spec, 32)
        res = st_derive(e) - (e * a + scale(e, u) * b).truncated(31)
        assert all(c == 0 for c in res.coeffs)

    def test_point_matches_series(self):
        spec = PantographSpec(F(1), F(1, 5), F(1, 2))
        x = F(3, 10)
        series_val = pantograph(P32, spec, 48).eval(x)
        assert abs(pantograph_at(P32, spec, x, tol=1e-30) - series_val) < F(1, 10 ** 20)

    def test_composition_with_identity_recovers_series(self):
        from stpanto.stseries import Series, compose_ab
        spec = PantographSpec(F(1, 2), F(-1, 3), F(2, 5))
        N = 12
        got = compose_ab([1] * (N + 1), spec, Series.identity(P32, N))
        assert got == pantograph(P32, spec, N)

    def test_defining_equation_float_backend(self):
        # residual <= 1e-20 relative at 30 digits
        p = golden_pair(3, -2, backend="float", precision=30)
        spec = PantographSpec(p.wrap("1.7"), p.wrap("-0.6"), p.wrap("0.9"))
        e = pantograph(p, spec, 32)
        res = st_derive(e) - (e * spec.a + scale(e, spec.u) * spec.b).truncated(31)
        assert res.max_abs_coeff() <= 1e-20 * e.max_abs_coeff()


class TestPartialTheta:
    def test_geometric_collapse(self):
        assert abs(partial_theta(0.5, 1.0) - 2.0) < 1e-12

    def test_at_zero(self):
        assert partial_theta(0.0, 0.7) == 1

    def test_rejects_outside_domain(self):
        with pytest.raises(ConvergenceFailure):
            partial_theta(0.5, 1.2)
        with pytest.raises(ConvergenceFailure):
            partial_theta(1.1, 1.0)

    def test_series_weights(self):
        y = F(1, 2)
        got = partial_theta_series(y, 5)
        assert got == [y ** 0, y ** 0, y ** 1, y ** 3, y ** 6, y ** 10]

    def test_psi_product_identity(self):
        # psi(q) = Theta0(q, q) = (q^2;q^2)_inf / (q;q^2)_inf at q = 0.3
        q = 0.3
        lhs = psi_theta(q)
        rhs = q_pochhammer_inf(q * q, q * q) / q_pochhammer_inf(q, q * q)
        assert abs(lhs - rhs) < 1e-10

    def test_rational_arguments(self):
        val = partial_theta(F(1, 2), F(1, 2), tol=1e-20)
        brute = sum(F(1, 2) ** (n * (n - 1) // 2) * F(1, 2) ** n for n in range(40))
        assert abs(val - brute) < F(1, 10 ** 15)


class TestQBinomialTheorem:
    def test_corrected_1phi0_identity(self):
        # sum (b/phi; q)_n z^n/(q;q)_n = ((b/phi) z; q)_inf / (z; q)_inf
        # with the left side built from the (+)-product weights:
        # (phi (+) (-b))^n_{1,q} / phi^n = (b/phi; q)_n.
        # The factorial-normalized display of this identity does not expand
        # consistently; this is the q-binomial-theorem form that does hold.
        p = golden_pair(3, -2, backend="float")
        b = p.wrap(F(1, 3))
        for x in (p.wrap("0.1"), p.wrap("0.2")):
            z = (1 - p.q) * x
            total, term_w = p.zero(), p.one()
            oplus = weights(delay_factors(p.phi, -b, p.q), 200, p.one())
            qq = p.one()
            for n in range(200):
                total += (oplus[n] / p.phi ** n) * term_w / qq
                term_w *= z
                qq *= 1 - p.q ** (n + 1)
                if abs(term_w) < 1e-25:
                    break
            rhs = q_pochhammer_inf((b / p.phi) * z, p.q) / q_pochhammer_inf(z, p.q)
            assert abs(total - rhs) < 1e-10


# -- the kernel against the inline loops it replaced ---------------------------


def _ref_nums(params, n):
    nums = [params.zero(), params.one()]
    while len(nums) <= n:
        nums.append(params.s * nums[-1] + params.t * nums[-2])
    return nums


def _ref_pantograph(params, a, b, u, N):
    nums = _ref_nums(params, N)
    coeffs, w, uk, fact = [], params.one(), params.one(), params.one()
    for n in range(N + 1):
        if n > 0:
            fact *= nums[n]
        coeffs.append(w / fact)
        w *= a + b * uk
        uk *= u
    return coeffs


def _ref_deformed_exp(params, u, N):
    if u == 0:
        return [params.one(), params.one()] + [params.zero()] * (N - 1)
    nums = _ref_nums(params, N)
    coeffs, w, p, fact = [], params.one(), params.one(), params.one()
    for n in range(N + 1):
        if n > 0:
            fact *= nums[n]
        coeffs.append(w / fact)
        w *= p
        p *= u
    return coeffs


def _ref_product_exp(params, alpha, beta, N):
    nums = _ref_nums(params, N)
    coeffs, w, fact = [], params.one(), params.one()
    pk, ppk = params.one(), params.one()
    for n in range(N + 1):
        if n > 0:
            fact *= nums[n]
        coeffs.append(w / fact)
        w *= alpha * pk + beta * ppk
        pk *= params.phi
        ppk *= params.phi_prime
    return coeffs


def _ref_pantograph_terms(params, a, b, u, x):
    nums = _ref_nums(params, 1)
    t, uk, n = params.one(), params.one(), 0
    while True:
        yield t
        if len(nums) <= n + 1:
            nums.append(params.s * nums[-1] + params.t * nums[-2])
        t = t * (a + b * uk) * x / nums[n + 1]
        uk *= u
        n += 1


KERNEL_PARAMS = [golden_pair(3, -2), golden_pair(1, 1, backend="float", precision=30),
                 golden_pair(1, 1, backend="float", precision=50)]
KERNEL_SPECS = [("1", "1/2", "1/3"), ("2", "-2", "1/3"), ("0", "1", "-1/2"),
                ("3/2", "-1/3", "0"), ("1", "1/5", "2")]


@pytest.mark.parametrize("params", KERNEL_PARAMS, ids=["rational", "float30", "float50"])
class TestKernelMatchesInlineLoops:
    """The prefix-product kernel reproduces the hand-written loops exactly,
    float rounding included."""

    @pytest.mark.parametrize("spec", KERNEL_SPECS)
    def test_pantograph(self, params, spec):
        a, b, u = (params.wrap(v) for v in spec)
        for N in (0, 1, 12):
            got = pantograph(params, PantographSpec(a, b, u), N).coeffs
            assert got == _ref_pantograph(params, a, b, u, N)

    @pytest.mark.parametrize("u", ["1/3", "-2/3", "0", "1", "2"])
    def test_deformed_exp(self, params, u):
        u = params.wrap(u)
        for N in (1, 12):
            assert deformed_exp(params, u, N).coeffs == _ref_deformed_exp(params, u, N)

    @pytest.mark.parametrize("alpha, beta", [("2", "-1/3"), ("-1", "1"), ("1/2", "0")])
    def test_product_exp(self, params, alpha, beta):
        alpha, beta = params.wrap(alpha), params.wrap(beta)
        got = product_exp(params, alpha, beta, 12).coeffs
        assert got == _ref_product_exp(params, alpha, beta, 12)

    @pytest.mark.parametrize("spec", KERNEL_SPECS[:4])
    def test_pantograph_at(self, params, spec):
        a, b, u = (params.wrap(v) for v in spec)
        for x in ("1/3", "-2/5", "0"):
            x = params.wrap(x)
            want = stable_sum(_ref_pantograph_terms(params, a, b, u, x), 1e-20)
            got = stable_sum(point_terms(delay_factors(a, b, u), x, params.one(), params),
                             1e-20)
            assert got == want  # same value from the same number of terms
            assert pantograph_at(params, PantographSpec(a, b, u), x, tol=1e-20) == want[0]

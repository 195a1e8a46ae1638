import math
import random
from fractions import Fraction as F
from itertools import accumulate, chain, islice, repeat
from operator import add, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpanto import _stable, identities, stquad
from stpanto._stable import (
    NUMBER_TABLE,
    PLAIN,
    TERM_CAP,
    arith_of,
    factors,
    powers,
    st_numbers,
    stable_sum,
    SumStats,
    weights,
)
from stpanto.errors import (BackendMismatch, ConvergenceFailure, DegenerateStNumber,
                            IndexOutOfRange)
from stpanto.stnum import golden_pair, q_pochhammer, q_pochhammer_inf, st_fibonomial, st_number
from stpanto.stquad import pantograph_antiderivative_series
from stpanto.stsolve import LinearProblem, integrating_factor, solve_series_linear
from stpanto.stseries import (
    Series,
    compose_ab,
    compose_deformed,
    factorial_series,
    scale,
    sq_int,
    st_antiderive,
    st_derive,
    symbolic_powers,
)
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


class TestStableSum:
    def test_gives_up_at_the_cap(self):
        drawn = []

        def terms():  # terms of size 1 neither settle nor grow
            while True:
                drawn.append(1)
                yield F(1)

        with pytest.raises(ConvergenceFailure, match=f"within {TERM_CAP} terms"):
            stable_sum(terms())
        assert len(drawn) == TERM_CAP

    def test_empty_stream(self):
        with pytest.raises(ConvergenceFailure, match="empty term stream"):
            stable_sum(iter([]))

    @pytest.mark.parametrize("precision", [1, 2, 30])
    def test_raw_stop_rule_matches_mpf_objects(self, precision):
        # terms near tol (1 + |sum|) at a few digits: the stop decisions sit
        # at the rounding margin, where they must still agree
        rng = random.Random(precision)
        p = golden_pair(1, 1, backend="float", precision=precision)
        raw = arith_of(p.one())
        for _ in range(300):
            terms = [p.wrap(F(rng.randint(-40, 40), rng.randint(8, 64))) for _ in range(40)]
            tol = rng.choice([0.25, 0.3, 1 / 3, 0.1])
            try:
                want = _oracle_sum(iter(terms), tol)
            except ConvergenceFailure:
                want = None
            try:
                value, n = stable_sum((x._mpf_ for x in terms), tol, arith=raw)
                got = (value, n)
            except ConvergenceFailure:
                got = None
            assert repr(got) == repr(want)


class TestOplus:
    def test_empty_product(self):
        assert weights(factors(((F(2), 1), (F(3), F(1, 2)))), 0, F(1)) == [1]
        assert weights(factors(((F(1), P32.phi), (F(4), P32.phi_prime))), 0, P32.one()) == [1]

    def test_annihilating_pair(self):
        p = weights(factors(((F(3), 1), (F(-3), F(1, 2)))), 7, F(1))
        for n in range(1, 8):
            assert p[n] == 0

    def test_prefix_recurrence(self):
        a, b, u = F(1), F(1, 2), F(1, 3)
        p = weights(factors(((a, 1), (b, u))), 12, F(1))
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
        p = weights(factors(((alpha, P32.phi), (beta, P32.phi_prime))), 7, P32.one())
        for n in range(8):
            direct = math.prod((alpha * P32.phi ** k + beta * P32.phi_prime ** k
                                for k in range(n)), start=F(1))
            assert p[n] == direct
            assert oplus_golden_pow(P32, alpha, beta, n) == direct

    def test_cache_extension_past_capacity(self):
        # long prefix products: 70 factors of 1 + 1
        assert weights(factors(((F(1), 1), (F(1), F(1)))), 70, F(1))[70] == 2 ** 70

    @pytest.mark.parametrize("params", [P32, golden_pair(1, 1, backend="float")],
                             ids=["rational", "float30"])
    def test_lone_pair_scales_its_powers(self, params):
        # a lone (c, r) gives c r^k, so the point sum of t_n = 2^n 2^-C(n,2) 3^-n
        # is about 1.929, not the 1.394 of the powers of r alone
        c, r, x, one = map(params.wrap, (2, "1/2", "1/3", 1))
        assert list(islice(factors(((c, r),)), 4)) == [2, 1, F(1, 2), F(1, 4)]
        want = sum(2 ** n * F(1, 2) ** (n * (n - 1) // 2) * F(1, 3) ** n for n in range(40))
        got = _stable.point_sum(((c, r),), x, one)
        assert abs(got - want) <= 1e-15 * (1 + want)
        assert abs(got - F("1.929143653739769")) < 1e-14


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

    def test_complex_roots_are_refused_on_the_float_backend(self):
        # at (1, -2) phi is complex: its coefficients cannot enter a float
        # series, which holds real values only
        p = golden_pair(1, -2, backend="float")
        with pytest.raises(BackendMismatch, match="complex value"):
            product_exp(p, 1, 0, 6)
        with pytest.raises(BackendMismatch, match="complex value"):
            p.wrap(p.phi)
        # a series whose coefficients stay real still works on that pair
        e = pantograph(p, PantographSpec(1, F(1, 2), F(1, 3)), 6)
        assert all(type(c) is p.ctx.mpf for c in (e * e).coeffs)


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


class TestPantographDomain:
    """E's series has radius 0 when its weights outgrow {n}!; its point
    values are then rejected away from x = 0."""

    # (11/10, -6/25): phi = 4/5, phi' = 3/10, so m = max(|phi|, |phi'|) < 1
    SMALL_PHI = [golden_pair(F(11, 10), F(-6, 25)),
                 golden_pair(F(11, 10), F(-6, 25), backend="float", precision=30)]

    @pytest.mark.parametrize("params", SMALL_PHI, ids=["rational", "float30"])
    def test_radius_zero_is_rejected(self, params):
        # the first terms of these sums decay, so the decay rule used to
        # stop on them: E(1, 1/2; 0.01, 1/3) came out as 1.0151...
        spec = PantographSpec(1, F(1, 2), F(1, 3))
        for x in (F(1, 100), F(-1, 1000)):
            with pytest.raises(ConvergenceFailure):
                pantograph_at(params, spec, params.wrap(x))
        with pytest.raises(ConvergenceFailure):
            deformed_exp_at(params, F(9, 10), params.wrap(F(1, 100)))  # G = |u| > 4/5
        assert pantograph_at(params, spec, 0) == 1  # a series of radius 0 converges at 0

    @pytest.mark.parametrize("params, spec, x", [
        (P32, (1, F(1, 2), F(1, 3)), F(1, 3)),
        (P32, (0, 1, 2), F(1, 3)),                 # G = |u| = phi = m: finite radius
        (P32, (F(3, 2), F(-1, 3), F(3, 2)), F(-1, 2)),
        (golden_pair(1, 1, backend="float"), (1, F(1, 5), F(3, 2)), F(1, 4)),
        (SMALL_PHI[0], (0, 1, F(1, 2)), F(1, 2)),  # G = 1/2 < 4/5: entire
        (SMALL_PHI[0], (1, F(-1, 4), 2), F(1, 2)),  # 1 - u^2/4 = 0: a polynomial
        (SMALL_PHI[1], (1, F(-1, 4), 2), F(1, 2)),
        (SMALL_PHI[0], (1, 1, -1), F(1, 2)),        # 1 + u = 0: 1 + 2x
    ])
    def test_finite_radius_values_unchanged(self, params, spec, x):
        a, b, u = (params.wrap(v) for v in spec)
        x = params.wrap(x)
        want, _ = _oracle_sum(_ref_pantograph_terms(params, a, b, u, x), 1e-15,
                              _oracle_ratios(((a, params.one()), (b, u)), x, params))
        assert pantograph_at(params, PantographSpec(a, b, u), x) == want
        if a == 0 and b == 1:
            assert deformed_exp_at(params, u, x) == want

    def test_polynomial_values(self):
        p = self.SMALL_PHI[0]
        assert pantograph_at(p, PantographSpec(1, 1, -1), F(1, 2)) == 2
        # weights 1, 3/4, 3/8, 0: E = 1 + (3/4) x + (3/8) x^2 / {2}!, {2} = s
        want = 1 + F(3, 4) * F(1, 2) + F(3, 8) * F(1, 4) / F(11, 10)
        assert pantograph_at(p, PantographSpec(1, F(-1, 4), 2), F(1, 2)) == want


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
            oplus = weights(factors(((p.phi, 1), (-b, p.q))), 200, p.one())
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
    def test_pantograph_at(self, params, spec, monkeypatch):
        a, b, u = (params.wrap(v) for v in spec)
        for x in ("1/3", "-2/5", "0"):
            x = params.wrap(x)
            want = list(islice(_ref_pantograph_terms(params, a, b, u, x), 30))
            got, _ = handed(lambda: pantograph_at(params, PantographSpec(a, b, u), x), 30,
                            monkeypatch)
            assert repr(got) == repr(want)  # the same terms, every bit
            want = _oracle_sum(_ref_pantograph_terms(params, a, b, u, x), 1e-20,
                               _oracle_ratios(((a, params.one()), (b, u)), x, params))
            assert pantograph_at(params, PantographSpec(a, b, u), x, tol=1e-20) == want[0]


# -- the callers of factorial_series against the loops they replaced ------------


def _ref_weights(params, a, b, u, N):
    """(a (+) b)^n_{1,u} for n <= N by the inline loop."""
    out, w, uk = [], params.one(), params.one()
    for _ in range(N + 1):
        out.append(w)
        w *= a + b * uk
        uk *= u
    return out


def _ref_over_factorials(params, w, g):
    """(w_n g_n) / {n}!: the weights times g first, then over {n}!."""
    nums = _ref_nums(params, len(w))
    out, fact = [], params.one()
    for n, (wn, gn) in enumerate(zip(w, g)):
        if n > 0:
            fact *= nums[n]
        out.append(wn * params.wrap(gn) / fact)
    return out


def _ref_composition(c, sym):
    acc = Series.zero(sym[0].params, sym[0].order)
    for n, cn in enumerate(c[:len(sym)]):
        if cn != 0:
            acc = acc + sym[n] * cn
    return acc


def _reprs(series):
    return [repr(c) for c in series.coeffs]


ROUTED_G = ["1", "1/3", "-2/7", "5/11", "3", "-1/13", "7/3", "2/9", "-5/17", "1/7",
            "11/3", "-3/19", "4/23"]


@pytest.mark.parametrize("params", KERNEL_PARAMS, ids=["rational", "float30", "float50"])
class TestRoutedCallersMatchInlineLoops:
    """Every caller of factorial_series keeps the coefficients of the loop it
    replaced, which multiplies the weights by g before dividing by {n}!:
    float rounding included (compared by repr), exact on rational pairs."""

    def inner(self, params, order=12):
        return Series(params, [0, 1, "1/2", "-1/3", "1/5"]).padded(order)

    @pytest.mark.parametrize("spec", KERNEL_SPECS[:4])
    def test_compose_ab(self, params, spec):
        a, b, u = (params.wrap(v) for v in spec)
        f = self.inner(params)
        sym = symbolic_powers(f, f.order)
        want = _ref_composition(_ref_over_factorials(
            params, _ref_weights(params, a, b, u, f.order), ROUTED_G), sym)
        assert _reprs(compose_ab(ROUTED_G, PantographSpec(a, b, u), f)) == _reprs(want)

    @pytest.mark.parametrize("u", ["1/3", "-2/3", "2"])
    def test_compose_deformed(self, params, u):
        u = params.wrap(u)
        f = self.inner(params)
        sym = symbolic_powers(f, f.order)
        w = _ref_weights(params, params.zero(), params.one(), u, f.order)
        want = _ref_composition(_ref_over_factorials(params, w, ROUTED_G), sym)
        assert _reprs(compose_deformed(ROUTED_G, u, f)) == _reprs(want)

    def test_sq_int_sequence(self, params):
        u, order = params.wrap("2/5"), 12
        lower = Series(params, [0, "1/3", 1]).padded(order)
        upper = self.inner(params, order)
        g = ROUTED_G[:9]
        w = _ref_weights(params, params.zero(), params.one(), u, len(g) - 1)
        a = _ref_over_factorials(params, w, g)
        low, up = symbolic_powers(lower, len(g)), symbolic_powers(upper, len(g))
        nums = _ref_nums(params, len(g))
        want = Series.zero(params, order)
        for m in range(len(g)):
            want = want + (up[m + 1] - low[m + 1]) * (a[m] / nums[m + 1])
        assert _reprs(sq_int(g, lower, upper, u)) == _reprs(want)

    @pytest.mark.parametrize("spec", [("1", "1/2", "1/3"), ("2", "-3", "-1/2"), ("1/3", "1", "2")])
    def test_pantograph_antiderivative_series(self, params, spec):
        a, b, u = (params.wrap(v) for v in spec)
        N = 12
        want = _ref_over_factorials(params, [u / (a * u + b)]
                                    + _ref_weights(params, a, b, u, N - 1), [1] * (N + 1))
        got = pantograph_antiderivative_series(params, PantographSpec(a, b, u), N)
        assert _reprs(got) == [repr(c) for c in want]

    @pytest.mark.parametrize("spec", KERNEL_SPECS[:3])
    def test_integrating_factor_of_a_polynomial(self, params, spec):
        a, b, u = (params.wrap(v) for v in spec)
        N = 12
        alpha = Series(params, ["-1", "1/2", "2/3"])
        sym = symbolic_powers(st_antiderive(alpha.padded(N - 1)).truncated(N), N)
        w = _ref_weights(params, a, b, u, N)
        factor = _ref_composition(_ref_over_factorials(params, w, [1] * (N + 1)), sym)
        u_pows, uk = [], params.one()
        for _ in range(N + 1):
            u_pows.append(uk)
            uk *= u
        delayed = _ref_composition(_ref_over_factorials(params, w, u_pows), sym)
        got_factor, got_numerator = integrating_factor(params, PantographSpec(a, b, u), alpha, N)
        assert _reprs(got_factor) == _reprs(factor)
        assert _reprs(got_numerator) == _reprs(factor * a + delayed * b)


FACTORIAL_PAIRS = [golden_pair(3, -2), golden_pair(4, -3), golden_pair(2, 3), golden_pair(-3, -2),
                   golden_pair(F(5, 2), -1), golden_pair(1, 1, backend="float")]
FACTORIAL_SPECS = [("2", "-1/2", "1/3"), ("3/4", "-3/4", "2/5"), ("1/2", "0", "3/4"),
                   ("1", "1/5", "0"), ("-2/3", "7/4", "-5/2"), ("0", "1", "1/2")]


@pytest.mark.parametrize("params", FACTORIAL_PAIRS,
                         ids=["3,-2", "4,-3", "2,3", "-3,-2", "5/2,-1", "float"])
@pytest.mark.parametrize("N", [0, 1, 12, 128])
def test_factorial_kernel_matches_inline_loops(params, N):
    """factorial_series from (c, r) pairs gives the coefficients of the
    inline loops (a = -b, b = 0, u = 0 and u < 0 among the specs; {n} not
    integers at (5/2, -1)), with a g, after a lead factor 1 and as a lone
    pair (1, u): equal Fractions, and floats bit for bit (by repr); its
    blocks are the ring's data."""
    same = list if params.backend == "rational" else (lambda cs: list(map(repr, cs)))
    g, ones = [ROUTED_G[n % len(ROUTED_G)] for n in range(N + 1)], [1] * (N + 1)
    for a, b, u in FACTORIAL_SPECS[:3] if N == 128 else FACTORIAL_SPECS:
        a, b, u = (params.wrap(v) for v in (a, b, u))
        pairs, one = ((a, 1), (b, u)), params.one()
        w = _ref_weights(params, a, b, u, N)
        lead = [one] + _ref_weights(params, a, b, u, N - 1)[:N]
        lone = _ref_weights(params, params.zero(), one, u, N)
        for got, want in ((factorial_series(params, pairs, N), (w, ones)),
                          (factorial_series(params, pairs, N, g), (w, g)),
                          (factorial_series(params, pairs, N, g, lead=1), (lead, g)),
                          (factorial_series(params, ((one, u),), N), (lone, ones))):
            assert same(got.coeffs) == same(_ref_over_factorials(params, *want))
            assert got.data == params.ring.data(got.coeffs)


# -- the point sums against the scalar-object loop they replaced -------------------


def _up(v):
    return math.nextafter(v, math.inf)


def _down(v):
    return math.nextafter(v, 0.0)


def _oracle_ratios(majorant, x, params=None, n=0):
    """The tail bound of ``_stable.point_sum`` on scalar objects: the floats R_j, or None
    where that has no bound."""
    roots = () if params is None else (params.phi, params.phi_prime)
    ctx = getattr(type(x), "context", None)
    if any(type(v) is not type(x) for v in roots):
        return None
    p, lo, k, g, gm, limit, ws, rs = 1, 1.0, 1.0, 0.0, 0.0, 0.0, [], []
    if params is not None:
        p, q = sorted(map(abs, roots), reverse=True)
        lo = _stable._float(p, False)
        gm, g = 1.0, _up(_stable._float(q, True) / lo)
        if not p > q or g >= 1:
            return None
        diff = ctx.fsub(*roots, rounding="u") if ctx else roots[0] - roots[1]
        k = _stable._float(abs(diff), True)
        for _ in range(n + 1):
            k, gm = _up(k / lo), _up(gm * g)
    for c, r in majorant:
        c, r = abs(c), abs(r)
        if c > 0:
            if r > p:
                return None
            ws.append(_up(k * _stable._float(c, True)))
            rs.append(_up(_stable._float(r, True) / lo))
            limit = limit if p > r else _up(limit + ws[-1])
    kx, ws, rs = _stable._float(abs(x), True), ws or [0.0], rs or [0.0]
    if _up(kx * limit) >= 1:
        return None

    def ratios(ws, gm):
        while True:
            num = ws[0]
            for w in ws[1:]:
                num = _up(num + w)
            den = _down(_down(1.0 - gm) - num)
            yield _up(num / den) if den > 0 else math.inf
            ws, gm = [_up(w * r) for w, r in zip(ws, rs)], _up(gm * g)
    return ratios([_up(kx * w) for w in ws], gm)


def _oracle_sum(terms, tol, ratios=None):
    """``stable_sum`` on scalar objects (their own operators; the tail bound
    in floats rounded outward): (value, SumStats)."""
    total, small, growing, prev = None, 0, 0, None
    for n, term in enumerate(islice(terms, TERM_CAP)):
        total = term if total is None else total + term
        mag, size = abs(term), abs(total)
        if ratios is not None:
            tail = _up(_stable._float(mag, True) * next(ratios))
            low_tol = _stable._float(tol, False)
            if tail <= _down(low_tol * _down(1.0 + _stable._float(size, False))):
                return total, SumStats(n + 1, "bound", tail)
        elif mag <= (F(tol) if isinstance(size, F) else tol) * (1 + size):
            small += 1
            if small >= 3:
                return total, SumStats(n + 1, "decay")
        else:
            small = 0
        growing = growing + 1 if prev is not None and mag > prev and mag > 1 else 0
        if growing >= 64:
            raise ConvergenceFailure("terms grow without bound")
        prev = mag
    raise ConvergenceFailure(f"no convergence within {TERM_CAP} terms")


def _oracle_powers(u):
    return accumulate(repeat(u), mul, initial=1)


def _oracle_delay(a, b, u):
    return map(add, repeat(a), map(mul, repeat(b), _oracle_powers(u)))


def _oracle_golden(params, alpha, beta):
    return map(add, map(mul, repeat(alpha), _oracle_powers(params.phi)),
               map(mul, repeat(beta), _oracle_powers(params.phi_prime)))


def _oracle_nums(s, t):
    a, b = s * 0, s * 0 + 1
    while True:
        yield a
        a, b = b, s * b + t * a


def _oracle_terms(factors, x, t, params=None, n=0):
    """t, then t f x / {k+1} for k >= n, {k} by the recurrence on objects."""
    divisors = islice(_oracle_nums(params.s, params.t), n + 1, None) if params else repeat(None)
    for f, num in zip(factors, divisors):
        yield t
        t = t * f * x if num is None else t * f * x / num


def handed(call, count, monkeypatch):
    """The first ``count`` terms (as scalars) and the tail bound that the point
    sum of ``call()`` hands its one stable_sum (whose value is then None)."""
    seen = []

    def record(terms, tol, what, arith, bound):
        seen.append((list(map(arith.made, islice(terms, count))), bound))
        return None, None
    with monkeypatch.context() as patch:
        patch.setattr(_stable, "stable_sum", record)
        call()
    return seen[0]


@pytest.fixture
def sums(monkeypatch):
    """Every (value, terms) that a point evaluator's stable_sum returns."""
    seen = []

    def record(*args, _sum=_stable.stable_sum, **kwargs):
        seen.append(_sum(*args, **kwargs))
        return seen[-1]
    monkeypatch.setattr(_stable, "stable_sum", record)
    return seen


def assert_same_sum(got, sums, want):
    """One point sum, with the oracle's value and SumStats (by repr, so every
    float bit); a rational value is the identical Fraction."""
    assert [(repr(v), repr(n)) for v, n in sums] == [(repr(want[0]), repr(want[1]))]
    assert repr(got) == repr(want[0])
    if isinstance(want[0], F):
        assert type(got) is F and got == want[0]


def assert_same_failure(call, oracle, match):
    with pytest.raises(ConvergenceFailure, match=match):
        call()
    with pytest.raises(ConvergenceFailure, match=match):
        oracle()


# (7/3, 1/7) has s, t and {n} that 30 digits round
POINT_PARAMS = [golden_pair(3, -2)] + [golden_pair(1, 1, backend="float", precision=d)
                                       for d in (1, 30, 50)] + [golden_pair("7/3", "1/7")]
POINT_IDS = ["rational", "float1", "float30", "float50", "float30-inexact"]
POINT_SPECS = [("1", "1/2", "1/3"), ("2", "-2", "1/3"), ("3/2", "-1/3", "0"),
               ("0", "1", "-1/2"), ("1", "1/5", "3/2")]
POINT_X = ["0", "1/3", "-2/5", "5/4"]


@pytest.mark.parametrize("tol", [1e-15, 1e-50])
@pytest.mark.parametrize("params", POINT_PARAMS, ids=POINT_IDS)
class TestPointSumsMatchObjectLoop:
    """The point sums run on raw libmp values for mpf scalars; each keeps the
    value and the term count of the loop on scalar objects."""

    @pytest.mark.parametrize("spec", POINT_SPECS)
    def test_pantograph_at(self, params, tol, spec, sums):
        a, b, u = (params.wrap(v) for v in spec)
        for x in map(params.wrap, POINT_X):
            sums.clear()
            got = pantograph_at(params, PantographSpec(a, b, u), x, tol)
            assert_same_sum(got, sums, _oracle_sum(
                _oracle_terms(_oracle_delay(a, b, u), x, params.one(), params), tol,
                _oracle_ratios(((a, params.one()), (b, u)), x, params)))

    @pytest.mark.parametrize("u", ["1/3", "-2/3", "0", "1", "3/2"])
    def test_deformed_exp_at(self, params, tol, u, sums):
        u = params.wrap(u)
        for x in map(params.wrap, POINT_X):
            sums.clear()
            got = deformed_exp_at(params, u, x, tol)
            assert_same_sum(got, sums, _oracle_sum(
                _oracle_terms(_oracle_powers(u), x, params.one(), params), tol,
                _oracle_ratios(((params.one(), u),), x, params)))

    @pytest.mark.parametrize("y", ["1/2", "-2/3", "0", "1"])
    def test_partial_theta(self, params, tol, y, sums):
        y = params.wrap(y)
        for x in map(params.wrap, ["0", "1/3", "-2/5", "5/4" if abs(y) < 1 else "-9/10"]):
            sums.clear()
            got = partial_theta(x, y, tol)
            assert_same_sum(got, sums, _oracle_sum(_oracle_terms(_oracle_powers(y), x, x * 0 + 1),
                                                   tol, _oracle_ratios(((x * 0 + 1, y),), x)))

    @pytest.mark.parametrize("q", ["1/2", "-2/3", "0"])
    def test_psi_theta(self, params, tol, q, sums):
        q = params.wrap(q)
        got = psi_theta(q, tol)
        assert_same_sum(got, sums, _oracle_sum(_oracle_terms(_oracle_powers(q), q, q * 0 + 1), tol,
                                               _oracle_ratios(((q * 0 + 1, q),), q)))

    def test_growth_run(self, params, tol, sums):
        spec, x = PantographSpec(*map(params.wrap, ("1", "1/2", "1/3"))), params.wrap(10 ** 30)
        assert_same_failure(
            lambda: pantograph_at(params, spec, x, tol),
            lambda: _oracle_sum(_oracle_terms(_oracle_delay(spec.a, spec.b, spec.u), x,
                                              params.one(), params), tol,
                                _oracle_ratios(((spec.a, params.one()), (spec.b, spec.u)), x,
                                               params)),
            "grow without bound")


# The exits of a point sum that the classes above do not reach, each against
# the loop on scalar objects (value and SumStats, or error), on raw values at
# 1, 30 and 50 digits and on plain scalars.
EXIT_IDS = ["float1", "float30", "float50", "plain"]


@pytest.mark.parametrize("tol", [1e-15, 1e-50])
@pytest.mark.parametrize("params, spec", [
    *[(golden_pair(1, -2, precision=d), ("1", "1/2", "1/3")) for d in (1, 30, 50)],
    (golden_pair(3, -2), ("1", "-1/4", "4")),
], ids=EXIT_IDS)
def test_point_sum_decay_stop(params, spec, tol, sums):
    # no bound: phi, phi' are complex, or |u| = 4 > P = 2 in a polynomial
    # (1 - 4^k / 4 = 0 at k = 1), whose zero terms stop the decay rule
    a, b, u = map(params.wrap, spec)
    for x in map(params.wrap, ["1/5", "-2/5", "3/2"]):
        sums.clear()
        assert _oracle_ratios(((a, params.one()), (b, u)), x, params) is None
        got = pantograph_at(params, PantographSpec(a, b, u), x, tol)
        assert_same_sum(got, sums, _oracle_sum(
            _oracle_terms(_oracle_delay(a, b, u), x, params.one(), params), tol))
        assert sums[0][1].reason == "decay"


@pytest.mark.parametrize("digits", [1, 30, 50, None], ids=EXIT_IDS)
def test_point_sum_term_cap(digits):
    # at (3/2, -1/2) {n} tends to 2 and the factors 5/2 + (3/2)(-1)^k alternate
    # 4 and 1: E's terms settle into a two-cycle that neither decays nor grows;
    # on plain scalars the terms (-1)^C(n,2) of a sum with no divisor do the same
    if digits is None:
        one = F(1)
        call = lambda: _stable.point_sum(((one, -one),), one, one)  # noqa: E731
        oracle = lambda: _oracle_sum(_oracle_terms(_oracle_powers(-one), one, one),  # noqa: E731
                                     1e-15)
    else:
        p = golden_pair("3/2", "-1/2", backend="float", precision=digits)
        a, b, u, one = p.wrap("5/2"), p.wrap("3/2"), p.wrap(-1), p.one()
        call = lambda: pantograph_at(p, PantographSpec(a, b, u), one)  # noqa: E731
        oracle = lambda: _oracle_sum(  # noqa: E731
            _oracle_terms(_oracle_delay(a, b, u), one, one, p), 1e-15)
    assert_same_failure(call, oracle, f"no convergence within {TERM_CAP} terms")


@pytest.mark.parametrize("digits", [1, 30, 50, None], ids=EXIT_IDS)
def test_point_sum_vanishing_number(digits, monkeypatch):
    # at (1, -1) {3} = 0: the terms before it are the oracle's, and the division
    # by it names {3}; a Fraction x makes the same sum run on plain scalars
    p = golden_pair(1, -1, precision=digits or 30)
    a, b, u, one = p.wrap(1), p.wrap("1/2"), p.wrap("1/3"), p.one()
    x = F(1, 2) if digits is None else p.wrap("1/2")
    want = []
    with pytest.raises(ZeroDivisionError):
        want.extend(_oracle_terms(_oracle_delay(a, b, u), x, one, p))
    assert len(want) == 3
    call = lambda: _stable.point_sum(((a, one), (b, u)), x, one, p)  # noqa: E731
    assert repr(handed(call, 3, monkeypatch)[0]) == repr(want)
    with pytest.raises(DegenerateStNumber,
                       match=r"^cannot divide by \{3\} = 0 at \(s, t\) = \(1, -1\)$"):
        call()


def test_q_binomial_sum_matches_object_loop(sums):
    # the left side of identities.q_binomial_theorem, one sum per point
    p = golden_pair(3, -2, backend="float")
    identities.q_binomial_theorem()
    b = -p.wrap(F(1, 3)) / p.phi
    want = [_oracle_sum(_oracle_terms(_oracle_golden(p, p.one(), b), p.wrap(x), p.one(), p),
                        1e-15, _oracle_ratios(((p.one(), p.phi), (b, p.phi_prime)), p.wrap(x), p))
            for x in ("0.1", "0.2")]
    assert [(repr(v), repr(n)) for v, n in sums] == [(repr(v), repr(n)) for v, n in want]
    assert [n.reason for _, n in sums] == ["bound", "bound"]


class TestArithOf:
    def test_raw_only_for_real_mpf_of_one_context(self):
        p30, p50 = (golden_pair(1, 1, backend="float", precision=d) for d in (30, 50))
        assert arith_of(p30.one(), p30.phi).prec == p30.ctx.prec
        assert arith_of(p30.one(), p50.one()) is PLAIN        # two contexts
        assert arith_of(F(1, 2), F(1, 3)) is PLAIN
        assert arith_of(0.5, p30.one()) is PLAIN
        assert arith_of(p30.one(), 2) is PLAIN
        assert arith_of(golden_pair(1, -1).phi) is PLAIN       # mpc

    @pytest.mark.parametrize("precision", [1, 30])
    def test_raw_streams_match_objects(self, precision, monkeypatch):
        # {n}, u^k and the point terms of the factors u^k, a + b u^k and
        # alpha phi^k + beta phi'^k, every bit
        p = golden_pair("7/3", "1/7", backend="float", precision=precision)
        a, b, u, x, one = p.wrap("2/3"), p.wrap("-5/7"), p.wrap("-6/7"), p.wrap("9/4"), p.one()
        raw = arith_of(p.s, a)

        def agree(raw_stream, stream):
            assert [repr(p.ctx.make_mpf(v)) for v in islice(raw_stream, 60)] == \
                [repr(p.wrap(v)) for v in islice(stream, 60)]

        def agree_terms(pairs, factors):
            got, _ = handed(lambda: _stable.point_sum(pairs, x, one, p), 60, monkeypatch)
            assert repr(got) == repr(list(islice(_oracle_terms(factors, x, one, p), 60)))
        agree(st_numbers(p.s._mpf_, p.t._mpf_, raw), _oracle_nums(p.s, p.t))
        agree(powers(u, raw), _oracle_powers(u))
        agree_terms(((one, u),), _oracle_powers(u))
        agree_terms(((a, u),), map(mul, repeat(a), _oracle_powers(u)))
        agree_terms(((a, one), (b, u)), _oracle_delay(a, b, u))
        agree_terms(((a, p.phi), (b, p.phi_prime)), _oracle_golden(p, a, b))

    def test_plain_scalars_match_object_loop(self, sums):
        # Python floats and mpf values of two contexts take the plain path
        p30, p50 = (golden_pair(1, 1, backend="float", precision=d) for d in (30, 50))
        for x, y in [(0.4, -0.5), (p30.wrap("2/5"), p50.wrap("-1/2"))]:
            sums.clear()
            got = partial_theta(x, y, 1e-15)
            assert_same_sum(got, sums, _oracle_sum(
                _oracle_terms(_oracle_powers(y), x, x * 0 + 1), 1e-15,
                _oracle_ratios(((x * 0 + 1, y),), x)))


VANISHING = [(1, -1, 3), (2, -2, 4), (3, -3, 6)]


@pytest.mark.parametrize("s, t, n", VANISHING)
class TestVanishingStNumber:
    """At s^2 = -t, -2t, -3t, q is a root of unity and {3}, {4} or {6} is 0:
    every kernel that divides by {n} or {n}! says which n, and nothing else
    changes."""

    def test_kernels_name_n(self, s, t, n):
        p = golden_pair(s, t)
        spec = PantographSpec(1, F(1, 2), F(1, 3))
        message = rf"cannot divide by \{{{n}\}} = 0 at \(s, t\) = \({s}, {t}\)"
        for call in (lambda: pantograph_at(p, spec, F(1, 2)),
                     lambda: deformed_exp_at(p, F(1, 2), F(-1, 3)),
                     lambda: pantograph(p, spec, n),
                     lambda: deformed_exp(p, F(1, 2), n),
                     lambda: st_antiderive(Series(p, [1, 2]).padded(n - 1)),
                     lambda: st_fibonomial(p, n + 1, n),
                     lambda: stquad.pantograph_antiderivative_at(
                         p, PantographSpec(2, F(1, 5), F(1, 2)), F(1, 2))):
            with pytest.raises(DegenerateStNumber, match=message):
                call()

    def test_below_n_and_without_division(self, s, t, n):
        p = golden_pair(s, t)
        assert len(deformed_exp(p, F(1, 2), n - 1).coeffs) == n
        assert st_fibonomial(p, n - 1, 1) == st_number(p, n - 1)
        assert st_derive(Series(p, [1, 2, 3, 4, 5, 6, 7])).coeffs[n - 1] == 0  # {n} c_n

    def test_each_kernel_divides_by_its_own_indices(self, s, t, n):
        # order N divides by {1}..{N}, an order-m antiderivative by {1}..{m+1},
        # {N}!/({k}! {N-k}!) by {1}..{max(k, N-k)}: {n} only from order n on
        p = golden_pair(s, t)
        problem = LinearProblem.series_linear(p, PantographSpec(1, F(1, 2), F(1, 3)), 1,
                                              Series(p, [1]), 1)
        assert solve_series_linear(problem, n - 1).solution.order == n - 1
        with pytest.raises(DegenerateStNumber, match=rf"\{{{n}\}} = 0"):
            solve_series_linear(problem, n)
        assert st_antiderive(Series(p, [1, 2]).padded(n - 2)).order == n - 1
        assert st_fibonomial(p, n + 1, 2) == 0   # {n} in the numerator only


def test_other_zero_divisions_pass_through():
    # a ZeroDivisionError that is not {n} = 0 (here drawn from g) is not renamed
    for p in (golden_pair(1, 1), P32):  # no {n} is 0
        with pytest.raises(ZeroDivisionError):
            factorial_series(p, ((p.one(), F(1, 2)),), 3, (p.one() / 0 for _ in range(4)))


@pytest.mark.parametrize("N", [-1, -2, -5])
@pytest.mark.parametrize("params", [P32, golden_pair(1, 1, backend="float")],
                         ids=["rational", "float"])
def test_negative_order_is_refused(params, N):
    # every factorial_series builder and the series-linear solver name the order
    spec = PantographSpec(1, F(1, 2), F(1, 3))
    problem = LinearProblem.series_linear(params, spec, 1, Series(params, [1]), 1)
    for call in (lambda: pantograph(params, spec, N),
                 lambda: deformed_exp(params, F(1, 2), N),
                 lambda: product_exp(params, 1, F(1, 2), N),
                 lambda: pantograph_antiderivative_series(params, spec, N),
                 lambda: factorial_series(params, ((params.one(), params.one()),), N),
                 lambda: solve_series_linear(problem, N)):
        with pytest.raises(IndexOutOfRange, match=rf"^order N = {N} must be nonnegative$"):
            call()


@pytest.mark.parametrize("call, name, n", [
    (lambda: Series.monomial(P32, -1), "k", -1),
    (lambda: Series.monomial(P32, -1, order=4), "k", -1),
    (lambda: oplus_delay_pow(1, 1, 1, -1), "n", -1),
    (lambda: oplus_golden_pow(P32, 1, 1, -2), "n", -2),
    (lambda: partial_theta_series(0.5, -2), "N", -2),
], ids=["monomial", "monomial-order", "oplus-delay", "oplus-golden", "partial-theta"])
def test_negative_index_is_refused(call, name, n):
    # each index goes through stnum.nonnegative, as the orders above do
    with pytest.raises(IndexOutOfRange, match=rf"^{name} = {n} must be nonnegative$"):
        call()


# -- cached raw state: the {n} tables and one Arith per context ------------------


def _clear_raw_caches():
    for cached in (_stable._number_table, _stable._raw_arith, _stable._raw_constant,
                   _stable._point_setup):
        cached.cache_clear()


def _cached_values(precision, pair):
    """reprs of point values whose sums read the {n} table and the raw Arith."""
    p = golden_pair(*pair, backend="float", precision=precision)
    spec, x = PantographSpec(1, F(1, 2), F(1, 3)), p.wrap("2/5")
    return [repr(v) for v in (
        pantograph_at(p, spec, x, 1e-50),
        deformed_exp_at(p, F(-2, 3), x),
        stquad.pantograph_antiderivative_at(p, PantographSpec(2, F(1, 5), F(1, 2)), x),
        stquad.st_integral(lambda z: pantograph_at(p, spec, z), stquad.QInterval(0, x, p)),
        partial_theta(x, p.wrap("1/2")))]


class TestCachedStateIsInvisible:
    def test_sum_longer_than_the_table(self, sums):
        # 962 terms: {n} past the table come from the recurrence, every bit kept
        p = golden_pair(2, 3, backend="float")
        a, b, u = map(p.wrap, ("-4/3", "1", "3"))
        x = p.wrap("2/3")
        got = pantograph_at(p, PantographSpec(a, b, u), x, 1e-50)
        want = _oracle_sum(_oracle_terms(_oracle_delay(a, b, u), x, p.one(), p), 1e-50,
                           _oracle_ratios(((a, p.one()), (b, u)), x, p))
        assert_same_sum(got, sums, want)
        assert want[1].terms > NUMBER_TABLE

    @pytest.mark.parametrize("precision", [1, 30, 50])
    def test_numbers_past_the_table(self, precision):
        p = golden_pair("7/3", "1/7", backend="float", precision=precision)
        raw = arith_of(p.s)
        got = islice(st_numbers(p.s._mpf_, p.t._mpf_, raw), 3 * NUMBER_TABLE)
        assert [repr(p.ctx.make_mpf(v)) for v in got] == \
            [repr(v) for v in islice(_oracle_nums(p.s, p.t), 3 * NUMBER_TABLE)]

    def test_interleaved_calls_match_fresh_ones(self):
        keys = [(d, pair) for d in (1, 30, 50) for pair in ((1, 1), (2, 1), (3, -2))]
        fresh = {}
        for key in keys:
            _clear_raw_caches()
            fresh[key] = _cached_values(*key)
        for key in keys + keys[::-1]:
            assert _cached_values(*key) == fresh[key]
            # and E itself is the loop on objects, which caches nothing
            p = golden_pair(*key[1], backend="float", precision=key[0])
            a, b, u = map(p.wrap, (1, F(1, 2), F(1, 3)))
            x = p.wrap("2/5")
            assert fresh[key][0] == repr(_oracle_sum(
                _oracle_terms(_oracle_delay(a, b, u), x, p.one(), p), 1e-50,
                _oracle_ratios(((a, p.one()), (b, u)), x, p))[0])

    def test_vanishing_number_read_from_the_table(self):
        p = golden_pair(1, -1)
        _clear_raw_caches()
        for _ in range(2):   # the table is built, then read from the cached set-up
            with pytest.raises(DegenerateStNumber,
                               match=r"^cannot divide by \{3\} = 0 at \(s, t\) = \(1, -1\)$"):
                pantograph_at(p, PantographSpec(1, F(1, 2), F(1, 3)), p.wrap("1/2"))
        table, setup = _stable._number_table.cache_info(), _stable._point_setup.cache_info()
        assert (table.misses, table.hits, setup.misses, setup.hits) == (1, 0, 1, 1)

    def test_a_context_whose_precision_changes(self, sums):
        # the raw Arith of mpmath's global context follows its precision
        from mpmath import mp
        for dps in (15, 40, 15):
            with mp.workdps(dps):
                x, y = mp.mpf(2) / 5, mp.mpf(-1) / 3
                sums.clear()
                got = partial_theta(x, y, 1e-30)
                assert_same_sum(got, sums, _oracle_sum(
                    _oracle_terms(_oracle_powers(y), x, x * 0 + 1), 1e-30,
                    _oracle_ratios(((x * 0 + 1, y),), x)))

    def test_one_arith_per_context(self):
        p30, p50 = (golden_pair(1, 1, backend="float", precision=d) for d in (30, 50))
        assert arith_of(p30.one(), p30.phi) is arith_of(p30.s)
        assert arith_of(p30.one()) is not arith_of(p50.one())


# -- the proven tail bound ----------------------------------------------------


P11 = golden_pair(1, 1, backend="float", precision=30)


def _covered_sums(params):
    """(name, call(tol)) for every point evaluator whose sum stops by the bound."""
    w = params.wrap
    spec = PantographSpec(w(1), w("1/2"), w("1/3"))
    big = PantographSpec(w(2), w("-1/4"), w("1/2"))
    cases = []
    for x in map(w, ["1/5", "-2/5", "3/4", "2"]):
        cases += [
            (f"E at {x}", lambda tol, x=x: pantograph_at(params, spec, x, tol)),
            (f"E(0, 1; ., phi') at {x}", lambda tol, x=x: pantograph_at(
                params, PantographSpec(0, 1, params.phi_prime), x, tol)),
            (f"exp at {x}", lambda tol, x=x: deformed_exp_at(params, w("-2/3"), x, tol)),
            (f"antiderivative at {x}", lambda tol, x=x: stquad.pantograph_antiderivative_at(
                params, big, x, tol)),
            (f"Theta0 at {x}", lambda tol, x=x: partial_theta(x / 4, w("1/2"), tol)),
        ]
    cases += [(f"theta antiderivative at {x}", lambda tol, x=x: stquad.theta_antiderivative_at(
        params, w(x), tol)) for x in ("1/5", "-2/5")]
    cases += [(f"psi at {q}", lambda tol, q=q: psi_theta(w(q), tol)) for q in ("1/3", "-1/2")]
    return cases


@pytest.mark.parametrize("params", [P32, P11], ids=["rational", "float30"])
def test_bound_stops_are_within_tol(params, sums):
    # every covered sum stops by the bound, with a certified tail <= tol (1 + |S|),
    # and its value lies within that of a 1e-60 reference
    for name, call in _covered_sums(params):
        sums.clear()
        got = call(1e-15)
        (value, stats), = sums
        assert stats.reason == "bound", name
        assert stats.tail <= 1e-15 * (1 + abs(value)), name
        assert abs(got - call(1e-60)) <= 1e-15 * (1 + abs(got)), name


@pytest.mark.parametrize("params, terms", [
    (golden_pair(-3, -2), 9), (golden_pair(-3, -2, backend="float"), 9),
    (golden_pair(-1, 1, backend="float"), 12),
], ids=["rational", "float30", "float30-irrational"])
def test_bound_with_the_larger_root_second(params, terms, sums):
    # |phi'| > |phi| (phi = -1, phi' = -2; phi = 0.618, phi' = -1.618): the
    # tail bound takes P = |phi'|, and E(1, 1/2; 1/2, 1/3) stops by it
    spec, x = PantographSpec(1, F(1, 2), F(1, 3)), params.wrap("1/2")
    assert abs(params.phi_prime) > abs(params.phi)
    got = pantograph_at(params, spec, x)
    (value, stats), = sums
    assert (stats.reason, stats.terms) == ("bound", terms) and got == value
    assert stats.tail <= 1e-15 * (1 + abs(got))
    assert abs(got - pantograph(params, spec, 80).eval(x)) <= 1e-15 * (1 + abs(got))


def test_a_dipping_sum_is_summed_to_the_tol(sums):
    # the first terms 1e-18, 5e-17, 2e-15 are small and growing: the decay rule
    # stopped on them at 1 + 1.93e-15, 1e7 times the tol off the value 1 + 9.74e-9
    spec = PantographSpec(1, -(1 - P11.wrap("1e-20")), F(1, 2))
    x = P11.wrap(100)
    got, want = pantograph_at(P11, spec, x), pantograph_at(P11, spec, x, 1e-40)
    assert abs(got - want) <= 1e-15 * (1 + abs(want))
    assert abs(got - 1 - P11.wrap("9.74271e-9")) < 1e-14
    assert sums[0][1].reason == "bound"


@pytest.mark.parametrize("params, spec, x", [
    (golden_pair(1, -2, backend="float"), (1, F(1, 2), F(1, 3)), F(1, 5)),  # complex roots
    (golden_pair(F(3, 2), F(-1, 2)), (1, F(1, 2), -1), 2),    # P = 1: lim rho_j = 3/2
    (golden_pair(F(11, 10), F(-6, 25)), (1, F(-1, 4), 2), F(1, 2)),  # |u| > P: a polynomial
    (golden_pair("1e-20", 1, backend="float"), (1, -1, 1), F(1, 2)),  # |q| rounds to 1
], ids=["complex", "P=1", "u-above-P", "Q/P-rounds-to-1"])
def test_sums_with_no_bound_keep_the_decay_rule(params, spec, x, sums):
    # at P = 1 and u = -1 the factors alternate 3/2 and 1/2, so E converges at
    # x = 2 while the majorant's ratios tend to (1 + 1/2) x / 2 = 3/2
    got = pantograph_at(params, PantographSpec(*spec), x)
    (value, stats), = sums
    assert (stats.reason, stats.tail) == ("decay", None) and got == value


@pytest.mark.parametrize("s, t, n", VANISHING)
@pytest.mark.parametrize("precision", [15, 50])
def test_vanishing_numbers_still_raise(s, t, n, precision, monkeypatch):
    # complex roots: no bound, so the sums run into {n} = 0 as before
    p = golden_pair(s, t, precision=precision)
    assert handed(lambda: _stable.point_sum(((p.one(), p.one()), (p.one(), p.wrap("1/3"))),
                                            p.wrap("1/2"), p.one(), p), 0, monkeypatch)[1] is None
    message = rf"^cannot divide by \{{{n}\}} = 0 at \(s, t\) = \({s}, {t}\)$"
    for call in (lambda: pantograph_at(p, PantographSpec(1, F(1, 2), F(1, 3)), p.wrap("1/2")),
                 lambda: deformed_exp_at(p, F(1, 2), p.wrap("-1/3")),
                 lambda: stquad.pantograph_antiderivative_at(
                     p, PantographSpec(2, F(1, 5), F(1, 2)), p.wrap("1/2"))):
        with pytest.raises(DegenerateStNumber, match=message):
            call()


def test_node_sums_and_products_report_decay(sums):
    p = P11
    stquad.pq_integral(lambda v: 1 / (1 + v * v), p.wrap("1/3"), p.phi, p.phi_prime)
    assert [stats.reason for _, stats in sums] == ["decay"]
    assert _stable.stable_product(iter([F(1, 2), F(1), F(1), F(1)]))[1] == SumStats(4, "decay")
    assert 5 + SumStats(3, "bound", 0.0) == 8  # a running count adds the terms


@pytest.mark.parametrize("seed", range(3))
def test_float_bounds_enclose_the_value(seed):
    # raw values of 1..300 bits, subnormal, huge and exact, and plain scalars
    rng = random.Random(seed)
    values = [(0, rng.getrandbits(bits) | 1, rng.randint(-1200, 1100), bits)
              for bits in [1, 2, 52, 53, 54, 100, 300] * 20]
    values = [(0, man, exp, man.bit_length()) for _, man, exp, _ in values]
    for v in values + [F(rng.randint(1, 10 ** 40), rng.randint(1, 10 ** 40)) for _ in range(50)]:
        exact = F(v[1]) * F(2) ** v[2] if isinstance(v, tuple) else v
        lo, hi = _stable._float(v, False), _stable._float(v, True)
        assert F(lo) <= exact and (hi == math.inf or exact <= F(hi)), v
    assert _stable._float(F(10 ** 400), True) == math.inf
    assert _stable._float(F(10 ** 400), False) == 1.7976931348623157e308

import math
from fractions import Fraction as F
from itertools import chain, repeat
from operator import mul

import pytest

from stpanto.errors import (BackendMismatch, ConvergenceFailure, DegenerateRatio,
                            HypothesisViolated, ParamsMismatch, QOutOfRange)
from stpanto.stnum import golden_pair, st_number
from stpanto.stseries import Series, st_antiderive, st_derive_at
from stpanto.stfun import (PantographSpec, deformed_exp_at, pantograph, pantograph_at,
                           partial_theta, psi_theta)
from stpanto.stquad import (
    QInterval,
    check_by_parts,
    check_ftc,
    pantograph_antiderivative_at,
    pantograph_antiderivative_series,
    pq_integral,
    st_integral,
    theta_antiderivative_at,
)
from test_stfun import (  # noqa: F401 (sums is a fixture)
    POINT_IDS,
    POINT_PARAMS,
    _oracle_delay,
    _oracle_powers,
    _oracle_ratios,
    _oracle_sum,
    _oracle_terms,
    assert_same_failure,
    assert_same_sum,
    sums,
)

P32 = golden_pair(3, -2)

# (s, t) pairs hitting q = 1/2, 1/3 and -1/3
Q_GRID = [golden_pair(3, -2), golden_pair(4, -3), golden_pair(2, 3)]


def unit_interval(params):
    return QInterval(0, 1, params)


class TestStIntegral:
    def test_linear_closed_value(self):
        # geometric oracle: (1/2) sum (1/4)^n * (1/2) = 1/3, and FTC: x^2/{2}
        got = st_integral(Series.monomial(P32, 1, order=4), unit_interval(P32))
        assert abs(got - F(1, 3)) < F(1, 10 ** 12)
        assert st_antiderive(Series.monomial(P32, 1, order=2)).eval(1) == F(1, 3)

    def test_equal_endpoints(self):
        assert st_integral(lambda x: x * x, QInterval(F(1, 2), F(1, 2), P32)) == 0

    @pytest.mark.parametrize("k", range(9))
    def test_monomials(self, k):
        # brute geometric sum vs the antiderivative value 1/{k+1}
        got = st_integral(Series.monomial(P32, k, order=9), unit_interval(P32), tol=1e-18)
        assert abs(got - 1 / st_number(P32, k + 1)) < F(1, 10 ** 10)

    def test_callable_matches_series(self):
        # the series route is F(b) - F(a) exactly; the callable route sums
        # the nodes of the same polynomial and agrees within tol
        f = Series(P32, [F(1), F(-2), F(0), F(3, 4)])
        interval = QInterval(F(1, 5), F(9, 10), P32)
        anti = st_antiderive(f)
        exact = st_integral(f, interval)
        assert exact == anti.eval(interval.b) - anti.eval(interval.a)
        nodes = st_integral(lambda x: f.eval(x), interval)
        assert abs(nodes - exact) < F(1, 10 ** 15)

    def test_q_inside_unit_disk_accepted(self):
        for s, t in [(5, -4), (1, 2), (3, 4), (1, 6)]:
            QInterval(0, 1, golden_pair(s, t))  # |q| < 1 in all four

    def test_q_out_of_range(self):
        bad = golden_pair(-1, 6)  # phi = 2, phi' = -3: q = -3/2
        assert abs(bad.q) > 1
        with pytest.raises(QOutOfRange):
            QInterval(0, 1, bad)

    def test_interval_repr(self):
        assert repr(QInterval(F(1, 5), 1, P32)) == "QInterval(1/5, 1, q=1/2)"

    def test_series_of_other_params(self):
        with pytest.raises(ParamsMismatch):
            st_integral(Series.monomial(golden_pair(4, -3), 1), unit_interval(P32))

    def test_negative_q_alternating(self):
        p = golden_pair(2, 3)  # phi = 3, phi' = -1, q = -1/3
        got = st_integral(Series.monomial(p, 1, order=3), unit_interval(p), tol=1e-18)
        assert abs(got - 1 / st_number(p, 2)) < F(1, 10 ** 12)

    def test_jackson_vs_antiderivative_endpoints(self):
        f = Series(P32, [F(2), F(-1), F(1, 3), F(5), F(0), F(1, 7)])
        interval = QInterval(F(1, 5), F(4, 5), P32)
        jackson = st_integral(f, interval, tol=1e-18)
        anti = st_antiderive(f)
        assert abs(jackson - (anti.eval(interval.b) - anti.eval(interval.a))) < F(1, 10 ** 10)

    def test_linearity_in_integrand(self):
        f = Series(P32, [F(1), F(-2), F(1, 3)])
        g = Series(P32, [F(0), F(1), F(2, 5)])
        interval = QInterval(0, 1, P32)
        lhs = st_integral(f * 3 + g * F(1, 2), interval, tol=1e-18)
        rhs = 3 * st_integral(f, interval, tol=1e-18) \
            + F(1, 2) * st_integral(g, interval, tol=1e-18)
        assert abs(lhs - rhs) < F(1, 10 ** 12)


class TestPqIntegral:
    def test_constant(self):
        got = pq_integral(lambda x: F(1), F(1), F(1), F(1, 2))
        assert abs(got - 1) < F(1, 10 ** 12)

    def test_zero_endpoint(self):
        assert pq_integral(lambda x: x, F(0), F(1), F(1, 2)) == 0

    def test_linear_vs_brute_force(self):
        # (1/2) sum (1/2)^k (1/2)^k = 2/3, 60-term oracle
        brute = sum(F(1, 2) ** k * F(1, 2) ** (k + 1) for k in range(60))
        got = pq_integral(lambda x: x, F(1), F(1), F(1, 2), tol=1e-18)
        assert abs(got - brute) < F(1, 10 ** 14)
        assert abs(got - F(2, 3)) < F(1, 10 ** 14)

    def test_small_ratio_branch(self):
        # |p/q| < 1 mirrors the |p/q| > 1 branch with arguments swapped
        a = pq_integral(lambda x: x * x, F(1), F(1, 2), F(1), tol=1e-18)
        b = pq_integral(lambda x: x * x, F(1), F(1), F(1, 2), tol=1e-18)
        assert abs(a - b) < F(1, 10 ** 12)

    def test_degenerate_ratio(self):
        with pytest.raises(DegenerateRatio):
            pq_integral(lambda x: x, F(1), F(1, 2), F(-1, 2))

    @pytest.mark.parametrize("p, q", [(2, 0), (0, 2), (F(2), F(0)), (F(0), F(2))])
    def test_zero_ratio_either_order(self, p, q):
        # |p| and |q| choose the branch: q = 0 takes one node, p = 0 swaps to it
        assert pq_integral(lambda x: x, 1, p, q) == F(1, 2)

    @pytest.mark.parametrize("p, q", [(2, -2), (0, 0), (F(3, 2), F(-3, 2))])
    def test_equal_moduli_are_degenerate(self, p, q):
        with pytest.raises(DegenerateRatio):
            pq_integral(lambda x: x, 1, p, q)


class TestFundamentalTheorem:
    @pytest.mark.parametrize("n", range(9))
    def test_monomials(self, n):
        residual = check_ftc(Series.monomial(P32, n, order=9), unit_interval(P32), tol=1e-18)
        assert residual < F(1, 10 ** 12)

    def test_constant(self):
        assert check_ftc(Series.constant(P32, 4, order=3), unit_interval(P32)) == 0

    def test_random_polynomial_interior_interval(self):
        f = Series(P32, [F(1, 3), F(2), F(-1), F(0), F(5, 7), F(-2, 9), F(1)])
        residual = check_ftc(f, QInterval(F(1, 5), F(9, 10), P32), tol=1e-18)
        assert residual < F(1, 10 ** 10)

    def test_q_grid(self):
        for p in Q_GRID:
            f = Series(p, [1, F(1, 2), F(-1, 3), 2, F(3, 5), 0, F(1, 4), -1, F(2, 7)])
            residual = check_ftc(f, QInterval(0, 1, p), tol=1e-18)
            assert residual < F(1, 10 ** 10)


class TestByParts:
    def test_constant_degenerates_to_ftc(self):
        f = Series.constant(P32, 3, order=5)
        g = Series(P32, [F(1), F(2), F(0), F(1, 5), 0, 0])
        assert check_by_parts(f, g, unit_interval(P32), tol=1e-18) < F(1, 10 ** 12)
        assert check_by_parts(g, f, unit_interval(P32), tol=1e-18) < F(1, 10 ** 12)

    def test_x_times_x(self):
        f = Series.monomial(P32, 1, order=3)
        assert check_by_parts(f, f, unit_interval(P32), tol=1e-18) < F(1, 10 ** 12)

    def test_degree_five_pairs(self):
        f = Series(P32, [F(1, 2), F(-1), F(3), F(0), F(2, 3), F(1, 5)])
        g = Series(P32, [F(2), F(1, 3), F(-2, 5), F(1), F(0), F(-1, 2)])
        for p in Q_GRID:
            fp, gp = Series(p, f.coeffs), Series(p, g.coeffs)
            assert check_by_parts(fp, gp, QInterval(0, 1, p), tol=1e-18) < F(1, 10 ** 10)


class TestPantographAntiderivative:
    def test_b_zero_single_term(self):
        # (1/a) E(a, 0; x): matches the antiderivative series + its constant
        a, x = F(2), F(1, 4)
        spec = PantographSpec(a, 0, F(1, 2))
        got = pantograph_antiderivative_at(P32, spec, x, tol=1e-25)
        anti = st_antiderive(pantograph(P32, spec, 40))
        const = F(1, 2) / (a * F(1, 2))  # u/(a u + 0) = 1/a
        assert abs(got - (anti.eval(x) + const)) < F(1, 10 ** 18)

    def test_hypothesis_violations(self):
        with pytest.raises(HypothesisViolated):
            pantograph_antiderivative_at(P32, PantographSpec(0, 1, F(1, 2)), F(1, 2))
        with pytest.raises(HypothesisViolated):
            pantograph_antiderivative_at(P32, PantographSpec(1, 3, 2), F(1, 2))
        with pytest.raises(HypothesisViolated):
            pantograph_antiderivative_series(P32, PantographSpec(0, 1, F(1, 2)), 8)
        with pytest.raises(HypothesisViolated, match=r"u/\(a u \+ b\)"):
            pantograph_antiderivative_series(P32, PantographSpec(1, -P32.q, P32.q), 8)

    def test_series_cross_check_exact(self):
        # k-sum closed form vs coefficient integration, exact rationals,
        # including the u/(a u + b) constant
        spec = PantographSpec(F(1), F(1, 5), F(2))
        ksum = pantograph_antiderivative_series(P32, spec, 16)
        anti = st_antiderive(pantograph(P32, spec, 15))
        assert ksum.coeffs[1:] == anti.coeffs[1:]
        a, b, u = F(1), F(1, 5), F(2)
        assert ksum.coeffs[0] == u / (a * u + b)
        assert anti.coeffs[0] == 0

    def test_derivative_returns_pantograph(self):
        # numeric divided difference of the antiderivative vs E itself
        spec = PantographSpec(F(1), F(1, 5), F(2))
        pf = golden_pair(3, -2, backend="float")
        fspec = PantographSpec(1, 0.2, 2)
        for x in [0.1, 0.2, 0.3, 0.4, 0.5]:
            dval = st_derive_at(
                lambda y: pantograph_antiderivative_at(pf, fspec, y, tol=1e-22),
                x, pf)
            eval_ = pantograph_at(pf, fspec, x, tol=1e-22)
            assert abs(dval - eval_) < 1e-8 * max(1, abs(eval_))

    def test_ksum_and_power_series_routes_agree(self):
        # both formulas evaluate the same function where both converge
        pf = golden_pair(3, -2, backend="float")
        spec = PantographSpec(1, 0.3, 0.8)
        x = 0.4
        via_ksum = pantograph_antiderivative_at(pf, spec, x, tol=1e-20)
        anti = pantograph_antiderivative_series(pf, spec, 60)
        assert abs(via_ksum - anti.eval(x)) < 1e-10

    def test_beyond_convergence_radius(self):
        # at spec (1, 0.2, 2) with params (3,-2) the antiderivative series
        # has coefficient ratio -> 0.05, so radius 20
        from stpanto.errors import ConvergenceFailure
        pf = golden_pair(3, -2, backend="float")
        spec = PantographSpec(1, 0.2, 2)
        pantograph_antiderivative_at(pf, spec, 15.0)  # inside: converges
        with pytest.raises(ConvergenceFailure):
            pantograph_antiderivative_at(pf, spec, 25.0)

    @pytest.mark.parametrize("a, b, u", [
        (1, 0.3, 0.8), (2, 0, 0.5), (1, 0.2, -0.6), (-1.5, 0.5, -1), (1, -0.4, 1),
    ])
    @pytest.mark.parametrize("x", [-0.75, 0.5, 3.0])
    def test_alternating_k_sum_oracle(self, a, b, u, x):
        # |u| <= 1: (1/a) sum_k (-b/(a u))^k E(a, b; u^k x, u), summed inline
        pf = golden_pair(3, -2, backend="float", precision=30)
        spec = PantographSpec(a, b, u)
        want, w, xk = pf.zero(), pf.one() / a, pf.wrap(x)
        for _ in range(400):
            term = w * pantograph_at(pf, spec, xk, tol=1e-25)
            want += term
            if abs(term) < 1e-25 * (1 + abs(want)):
                break
            w, xk = w * (-pf.wrap(b) / (a * pf.wrap(u))), xk * u
        got = pantograph_antiderivative_at(pf, spec, x, tol=1e-25)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_one_level_of_summation(self, monkeypatch):
        # each antiderivative value is one sum, not one sum per term
        from stpanto import _stable
        calls = []

        def counting(*args, _sum=_stable.stable_sum, **kwargs):
            calls.append(kwargs.get("what"))
            return _sum(*args, **kwargs)

        monkeypatch.setattr(_stable, "stable_sum", counting)
        pf = golden_pair(3, -2, backend="float")
        pantograph_antiderivative_at(pf, PantographSpec(1, 0.3, 0.8), 0.4)
        assert calls == ["pantograph antiderivative"]
        calls.clear()
        theta_antiderivative_at(pf, 0.4)
        assert calls == ["theta antiderivative"]

    def test_radius_zero_is_rejected(self):
        # at phi = 4/5 the weights (1 (+) 1/4)^n_{1,1/2} outgrow {n}!: radius 0
        from stpanto.errors import ConvergenceFailure
        spec = PantographSpec(1, F(1, 4), F(1, 2))
        for p in (golden_pair(F(11, 10), F(-6, 25)),
                  golden_pair(F(11, 10), F(-6, 25), backend="float")):
            assert pantograph_antiderivative_at(p, spec, 0) == p.wrap(F(2, 3))  # u/(a u + b)
            with pytest.raises(ConvergenceFailure):
                pantograph_antiderivative_at(p, spec, p.wrap(F(1, 100)))


class TestThetaAntiderivative:
    def test_at_zero(self):
        assert theta_antiderivative_at(P32, 0) == 0

    def test_cross_implementation_equality(self):
        # Theta route vs pantograph machinery at spec (1, -q, q): the
        # boundary case |b/(a u)| = 1 summed in subtract-one form
        pf = golden_pair(3, -2, backend="float")
        x = 0.5
        theta_route = theta_antiderivative_at(pf, x, tol=1e-18)
        spec = PantographSpec(1, -pf.q, pf.q)
        ksum = pf.zero()
        for k in range(200):
            term = pantograph_at(pf, spec, pf.q ** k * x, tol=1e-18) - 1
            ksum += term
            if abs(term) < 1e-16:
                break
        assert abs(theta_route - ksum) < 1e-10

    def test_derivative_returns_theta(self):
        from stpanto.stfun import partial_theta
        pf = golden_pair(3, -2, backend="float")
        x = 0.4
        dval = st_derive_at(lambda y: theta_antiderivative_at(pf, y, tol=1e-20), x, pf)
        expected = partial_theta((1 - pf.q) * x, 1 / pf.phi, tol=1e-20)
        assert abs(dval - expected) < 1e-8

    def test_q_out_of_range(self):
        p = golden_pair(1, 1)  # q negative but |q| < 1: allowed
        theta_antiderivative_at(p, 0.1)

    def test_q_outside_the_unit_disk(self):
        p = golden_pair(-1, 2)  # q = -2
        with pytest.raises(QOutOfRange):
            theta_antiderivative_at(p, F(1, 10))

    def test_phi_below_one_is_rejected(self):
        # (11/10, -6/25): phi = 4/5, so Theta0(., 1/phi) has growing terms
        # and the power series has radius 0, though its first terms decay
        from stpanto.errors import ConvergenceFailure
        p = golden_pair(F(11, 10), F(-6, 25))
        assert p.phi == F(4, 5) and abs(p.q) < 1
        assert theta_antiderivative_at(p, 0) == 0
        with pytest.raises(ConvergenceFailure):
            theta_antiderivative_at(p, F(1, 10))


@pytest.mark.parametrize("tol", [1e-15, 1e-50])
@pytest.mark.parametrize("params", POINT_PARAMS, ids=POINT_IDS)
class TestAntiderivativeSumsMatchObjectLoop:
    """Both antiderivatives keep the value (every float bit) and the term
    count of the point sum on scalar objects."""

    def oracle(self, params, a, b, u, x, constant, tol):
        terms = _oracle_terms(_oracle_delay(a, b, u), x, x, params, 1)
        ratios = _oracle_ratios(((a, params.one()), (b, u)), x, params, 1)  # none for the constant
        return _oracle_sum(chain([constant], terms), tol, ratios and chain([math.inf], ratios))

    @pytest.mark.parametrize("spec", [("1", "1/2", "2/3"), ("2", "-1/4", "1/2"),
                                      ("3/2", "1/5", "-3/2"), ("-1", "1/3", "1"),
                                      ("1", "-1", "3/2")])
    def test_pantograph_antiderivative_at(self, params, tol, spec, sums):
        a, b, u = (params.wrap(v) for v in spec)
        for x in map(params.wrap, ["0", "1/3", "-2/5", "5/4"]):
            sums.clear()
            got = pantograph_antiderivative_at(params, PantographSpec(a, b, u), x, tol)
            assert_same_sum(got, sums, self.oracle(params, a, b, u, x, u / (a * u + b), tol))

    def test_theta_antiderivative_at(self, params, tol, sums):
        q = params.q
        for x in map(params.wrap, ["0", "1/3", "-2/5", "5/4"]):
            sums.clear()
            got = theta_antiderivative_at(params, x, tol)
            assert_same_sum(got, sums, self.oracle(params, params.one(), -q, q, x,
                                                   params.zero(), tol))

    def test_growth_run(self, params, tol, sums):
        a, b, u = (params.wrap(v) for v in ("2", "-1/4", "1/2"))
        x = params.wrap(10 ** 30)
        assert_same_failure(
            lambda: pantograph_antiderivative_at(params, PantographSpec(a, b, u), x, tol),
            lambda: self.oracle(params, a, b, u, x, u / (a * u + b), tol), "grow without bound")
        assert_same_failure(
            lambda: theta_antiderivative_at(params, x, tol),
            lambda: self.oracle(params, params.one(), -params.q, params.q, x, params.zero(), tol),
            "grow without bound")


@pytest.mark.parametrize("precision", [1, 30, 50])
def test_radius_zero_is_refused_before_any_sum(precision, sums):
    p = golden_pair(F(11, 10), F(-6, 25), backend="float", precision=precision)
    with pytest.raises(ConvergenceFailure, match="radius 0"):
        pantograph_antiderivative_at(p, PantographSpec(1, F(1, 4), F(3, 4)), p.wrap("1/100"))
    with pytest.raises(ConvergenceFailure, match="radius 0"):
        pantograph_at(p, PantographSpec(1, F(1, 2), F(1, 3)), p.wrap("-1/100"))
    assert sums == []


def _domain_oracle(params, a, b, u, x) -> bool:
    """The growth rule point sums were once refused by: E(a, b; ., u) has
    radius 0 at x != 0 when G > max(|phi|, |phi'|), with G = |u| if b != 0
    and (a = 0 or |u| > 1) and G = 1 otherwise, unless some factor a + b u^k
    (k < TERM_CAP) is 0 and E is a polynomial."""
    m = params.growth
    if abs(u) <= m >= 1 or x == 0:
        return False
    grow = abs(u) if b != 0 and (a == 0 or abs(u) > 1) else 1
    if b == 0:
        vanishes = a == 0
    elif (r := -a / b) == 0 or abs(u) in (0, 1):
        vanishes = r == 1 or r == u
    else:
        k = round(params.ring.log_abs(r) / params.ring.log_abs(u))
        vanishes = 0 <= k < 10_000 and a + b * u ** k == 0
    return grow > m and not vanishes


# phi = 2, 4/5, 1.618.. and |phi| = sqrt(2) (complex roots); specs on both
# sides of each G = max(|phi|, |phi'|), and polynomials (a + b u^k = 0)
DOMAIN_PARAMS = [golden_pair(3, -2), golden_pair(F(11, 10), F(-6, 25)),
                 golden_pair(1, 1, backend="float", precision=30),
                 golden_pair(1, -2, backend="float")]
DOMAIN_SPECS = [("1", "1/2", "1/3"), ("0", "1", "2"), ("0", "1", "3"), ("1", "1", "5/2"),
                ("1", "1", "-3"), ("2", "0", "5"), ("0", "0", "3"), ("1", "-1/4", "2"),
                ("1", "1", "-1"), ("1", "-1", "3"), ("0", "1", "1/2"), ("0", "1", "9/10"),
                ("1", "1/4", "1/2"), ("1", "1/5", "3/2"), ("3", "-1", "5/4"), ("0", "1", "1")]


@pytest.mark.parametrize("params", DOMAIN_PARAMS,
                         ids=["rational", "rational-small-phi", "float30", "float-complex"])
@pytest.mark.parametrize("spec", DOMAIN_SPECS)
def test_radius_zero_refusals_follow_the_growth_rule(params, spec, sums):
    a, b, u = (params.wrap(v) for v in spec)
    calls = [lambda x: pantograph_at(params, PantographSpec(a, b, u), x)]
    if (a, b) == (0, 1):
        calls.append(lambda x: deformed_exp_at(params, u, x))
    if a != 0 and u != 0 and abs(b / (a * u)) < 1:
        calls.append(lambda x: pantograph_antiderivative_at(params, PantographSpec(a, b, u), x))
    for x in map(params.wrap, ("0", "1/10", "-1/5")):
        for call in calls:
            sums.clear()
            if _domain_oracle(params, a, b, u, x):
                with pytest.raises(ConvergenceFailure, match="radius 0"):
                    call(x)
                assert sums == []
            else:
                call(x)
                assert len(sums) == 1


def test_theta_radius_zero_is_refused_only_away_from_zero():
    # Theta0(., y) with |y| > 1 has radius 0; at x = 0 it is 1, as E is
    assert partial_theta(0, 2) == 1
    assert partial_theta(F(0), F(-3, 2)) == 1
    with pytest.raises(ConvergenceFailure, match="radius 0"):
        psi_theta(2)
    with pytest.raises(ConvergenceFailure, match="radius 0"):
        partial_theta(F(1, 1000), F(-3, 2))


def test_radius_zero_of_a_huge_delay_is_refused():
    # |u| = 10^400 is past the float range, which the refusal's message reads
    with pytest.raises(ConvergenceFailure, match="radius 0"):
        pantograph_at(P32, PantographSpec(0, 1, 10 ** 400), F(1, 10))


def _oracle_pq(f, a, p, q, tol):
    """pq_integral's node sum on scalar objects: (its value, (sum, terms))."""
    if abs(p / q) < 1:
        p, q = q, p
    nodes = map(mul, _oracle_powers(q / p), repeat(1 / p))
    value, n = _oracle_sum((w * f(w * a) for w in nodes), tol)
    return (p - q) * a * value, (value, n)


OTHER = golden_pair(1, 1, backend="float", precision=40)  # a context no POINT_PARAMS uses
INTEGRANDS = {
    "own": lambda x: 1 / (1 + x * x),
    "other-context": lambda x: OTHER.wrap(x) / 3 - 1,
    "float": lambda x: float(x) / 3 - 0.25,
    "int": lambda x: 3 ** 40 + 1,
    "fraction": lambda x: F(2, 3),
}


def _bits(v):
    """repr, every float bit; an exact Fraction as itself (its repr can pass
    the 4,300-digit limit)."""
    return (type(v), v) if isinstance(v, F) else repr(v)


def assert_same_node_sums(got, sums, wants):
    """One stable_sum per endpoint, with the oracle's sum and term count, and
    the oracle's value (the difference of the two for an interval)."""
    assert [(_bits(v), n) for v, n in sums] == [(_bits(v), n) for _, (v, n) in wants]
    assert _bits(got) == _bits(wants[0][0] if len(wants) == 1 else wants[0][0] - wants[1][0])


@pytest.mark.parametrize("tol", [1e-15, 1e-50])
@pytest.mark.parametrize("params", POINT_PARAMS, ids=POINT_IDS)
class TestNodeSumsMatchObjectLoop:
    """The Jackson node sums run on raw libmp values for mpf endpoints and
    nodes; each keeps the value and the term count of the loop on objects."""

    @pytest.mark.parametrize("kind", INTEGRANDS)
    def test_pq_integral_both_branches(self, params, tol, kind, sums):
        f, phi, phi_prime = INTEGRANDS[kind], params.phi, params.phi_prime
        for a in map(params.wrap, ["1/3", "-2/5", "5/4"]):
            for p, q in [(phi, phi_prime), (phi_prime, phi)]:    # |p/q| > 1, then < 1
                sums.clear()
                got = pq_integral(f, a, p, q, tol)
                assert_same_node_sums(got, sums, [_oracle_pq(f, a, p, q, tol)])

    @pytest.mark.parametrize("kind", INTEGRANDS)
    def test_pq_integral_at_int_endpoints(self, params, tol, kind, sums, monkeypatch):
        # an int endpoint sums on integer pairs where the nodes are Fractions
        from stpanto import _stable
        kinds = []

        def terms(*args, _terms=_stable._node_terms):
            kinds.append(args[-1])
            return _terms(*args)
        monkeypatch.setattr(_stable, "_node_terms", terms)
        f, phi, phi_prime = INTEGRANDS[kind], params.phi, params.phi_prime
        for a in [1, -2, 3]:
            for p, q in [(phi, phi_prime), (phi_prime, phi)]:
                sums.clear()
                kinds.clear()
                got = pq_integral(f, a, p, q, tol)
                assert_same_node_sums(got, sums, [_oracle_pq(f, a, p, q, tol)])
                assert (kinds[0] is _stable.PAIRS) == params.rational

    @pytest.mark.parametrize("kind", INTEGRANDS)
    def test_st_integral_of_a_callable(self, params, tol, kind, sums):
        f = INTEGRANDS[kind]
        if params.rational and kind == "other-context":  # no exact reading of an mpf
            with pytest.raises(BackendMismatch):
                st_integral(f, QInterval("1/5", "5/4", params), tol)
            return

        def g(x):
            return params.wrap(f(x))
        for lo, hi in [("-1/3", "1/2"), ("1/5", "5/4")]:
            sums.clear()
            got = st_integral(f, QInterval(lo, hi, params), tol)
            wants = [_oracle_pq(g, params.wrap(x), params.phi, params.phi_prime, tol)
                     for x in (hi, lo)]
            assert_same_node_sums(got, sums, wants)

    def test_growth_and_cap_failures(self, params, tol, sums):
        a, phi, phi_prime = params.one(), params.phi, params.phi_prime
        for f, message in [(lambda x: 1 / (x * x), "terms grow without bound"),
                           (lambda x: 1 / x, "no convergence within 10000 terms")]:
            with pytest.raises(ConvergenceFailure) as got:
                pq_integral(f, a, phi, phi_prime, tol)
            assert str(got.value) == f"pq_integral: {message}"
            assert_same_failure(lambda: pq_integral(f, a, phi, phi_prime, tol),
                                lambda: _oracle_pq(f, a, phi, phi_prime, tol), message)
            if tol == 1e-50:
                break   # the 10,000-term cap once per pair is enough



@pytest.mark.parametrize("precision", [1, 30, 50])
def test_complex_values_sum_on_objects(precision, sums):
    # a term that is no real mpf sends the node sum back to scalar objects
    p = golden_pair(1, 1, backend="float", precision=precision)

    def f(x):
        return p.ctx.mpc(x, 1)
    a = p.wrap("1/3")
    got = pq_integral(f, a, p.phi, p.phi_prime)
    assert_same_node_sums(got, sums, [_oracle_pq(f, a, p.phi, p.phi_prime, 1e-15)])

import math
import tracemalloc
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.ctx_mp import MPContext

from stpanto import stnum
from stpanto._stable import stable_product
from stpanto.errors import (
    BackendMismatch,
    ConvergenceFailure,
    DegenerateDiscriminant,
    DegenerateQ,
    DivergentProduct,
    IndexOutOfRange,
    StInputError,
    ZeroParameter,
)
from stpanto.stnum import (
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


def fib_oracle(s, t, n):
    # reference recurrence, independent of the library loop
    seq = [F(0), F(1)]
    for _ in range(n):
        seq.append(s * seq[-1] + t * seq[-2])
    return seq[n]


class TestGoldenPair:
    def test_classical_golden_ratio(self):
        p = golden_pair(1, 1)
        assert p.backend == "float"
        assert abs(p.phi - 1.6180339887) < 1e-9
        assert abs(p.phi_prime - (-0.6180339887)) < 1e-9
        assert abs(p.q - (-0.3819660113)) < 1e-9

    def test_rational_pair(self):
        p = golden_pair(3, -2)
        assert p.backend == "rational"
        assert p.phi == 2 and p.phi_prime == 1 and p.q == F(1, 2)

    def test_degenerate_discriminant(self):
        with pytest.raises(DegenerateDiscriminant):
            golden_pair(2, -1)

    def test_zero_parameter(self):
        with pytest.raises(ZeroParameter):
            golden_pair(0, 1)
        with pytest.raises(ZeroParameter):
            golden_pair(1, 0)

    def test_rational_backend_refuses_irrational_root(self):
        with pytest.raises(BackendMismatch):
            golden_pair(1, 1, backend="rational")

    def test_rational_backend_refuses_an_mpf_literal(self):
        with pytest.raises(BackendMismatch, match="exact rational"):
            golden_pair(mpmath.mpf("1.5"), 1, backend="rational")

    def test_repr(self):
        assert repr(golden_pair(3, -2)) == "Params(s=3, t=-2, backend='rational', phi=2, q=1/2)"

    def test_derived_constants(self):
        for args in [(3, -2), (4, -3), (2, 3), (F(3, 2), F(-1, 2))]:
            p = golden_pair(*args)
            assert p.phi + p.phi_prime == p.s
            assert p.phi * p.phi_prime == -p.t
            assert p.phi ** 2 == p.s * p.phi + p.t
            assert p.q == p.phi_prime / p.phi
            assert p.q != 1

    def test_float_backend_precision(self):
        p = golden_pair(1, 1, precision=40)
        # phi^2 = phi + 1 to 40 digits
        assert abs(p.phi ** 2 - p.phi - 1) < 1e-38

    def test_precision_variable_is_ignored(self, monkeypatch):
        # the precision is set by the argument alone, never by the environment
        monkeypatch.setenv("ST_PANTO_PRECISION", "12")
        assert golden_pair(1, 1).precision == 30

    @pytest.mark.parametrize("precision", [0, -5, True, 2.5, "30"])
    def test_bad_precision_is_an_input_error(self, precision):
        with pytest.raises(StInputError, match="precision"):
            golden_pair(1, 1, precision=precision)

    @pytest.mark.parametrize("precision", [1, 2, 3])
    def test_low_precision_keeps_well_conditioned_pairs(self, precision):
        # s^2 + 4t is 5, 2 and 13: far from zero at any number of digits
        for s, t in [(1, 1), (2, F(-1, 2)), (1, 3)]:
            p = golden_pair(s, t, precision=precision)
            assert p.backend == "float" and p.precision == precision

    def test_float_guard_refuses_a_nearly_degenerate_pair(self):
        # (1, -1/4 + 10^-40) is exact and nondegenerate, but at 30 digits
        # phi and phi' agree in every digit kept
        t = F(-1, 4) + F(1, 10 ** 40)
        with pytest.raises(DegenerateDiscriminant, match="vanishes"):
            golden_pair(1, t, backend="float")
        with pytest.raises(DegenerateDiscriminant, match="vanishes"):
            golden_pair(1, F(-1, 4) + F(1, 100), backend="float", precision=1)
        assert golden_pair(1, t, backend="float", precision=60).precision == 60

    def test_fraction_and_a_nonfinite_literal_is_an_input_error(self):
        with pytest.raises(StInputError, match="finite"):
            golden_pair(F(7, 3), "nan")


class TestStNumbers:
    def test_fibonacci_row(self):
        p = golden_pair(1, 1)
        values = [st_number(p, n) for n in range(7)]
        expected = [fib_oracle(F(1), F(1), n) for n in range(7)]
        assert [int(v) for v in values] == expected == [0, 1, 1, 2, 3, 5, 8]

    def test_classical_pair_raw_recurrence(self):
        # (2,-1) has a degenerate golden pair; the raw recurrence still works
        assert st_number_raw(2, -1, 7) == 7
        assert [st_number_raw(2, -1, n) for n in range(6)] == list(range(6))

    def test_base_case(self):
        p = golden_pair(3, -2)
        assert st_number(p, 0) == 0
        assert st_number(p, 1) == 1

    def test_negative_index(self):
        with pytest.raises(IndexOutOfRange):
            st_number(golden_pair(3, -2), -1)

    @pytest.mark.parametrize("backend", ["rational", "float"])
    def test_numbers_and_factorials_read_the_cached_range(self, backend):
        # {n} and {n}! are the table's entries and its left-to-right product
        p = golden_pair(3, -2, backend=backend)
        nums = st_number_range(p, 9)
        before = sum(st_number_range.cache_info()[:2])  # hits + misses
        assert [st_number(p, n) for n in range(10)] == list(nums)
        assert st_factorial(p, 9) == math.prod(nums[1:], start=p.one())
        assert sum(st_number_range.cache_info()[:2]) == before + 1  # st_factorial only

    def test_a_far_number_keeps_no_table(self):
        # {5000} = 2^5000 - 1 is 625 bytes; the table {0}..{5000} would be 2 MB
        p = golden_pair(3, -2)
        st_number_range.cache_clear()  # a table cached earlier would hide a new one
        tracemalloc.start()
        try:
            value = st_number(p, 5000)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert value == 2 ** 5000 - 1
        assert kept < 64 * 1024

    def test_range(self):
        p = golden_pair(3, -2)
        assert st_number_range(p, 5) == (0, 1, 3, 7, 15, 31)

    @given(st.integers(min_value=0, max_value=30))
    def test_binet_agrees_with_recurrence(self, n):
        p = golden_pair(3, -2)
        assert st_number(p, n) == binet(p, n)

    def test_binet_at_negative_n(self):
        # {n} = ({n+2} - s {n+1}) / t runs the recurrence backward, exactly
        p, nums = golden_pair(3, -2), [F(1), F(0)]  # {1}, {0}, then {-1}, ...
        for n in range(-1, -11, -1):
            nums.append((nums[-2] - p.s * nums[-1]) / p.t)
            assert binet(p, n) == nums[-1]

    def test_binet_float_backend(self):
        p = golden_pair(1, 1)
        for n in range(31):
            assert p.eq(st_number(p, n), binet(p, n))

    @given(st.integers(min_value=1, max_value=30))
    def test_phi_power_identity(self, n):
        # phi^n = {n} phi + t {n-1}, exactly, in the rational backend
        for args in [(3, -2), (2, 3)]:
            p = golden_pair(*args)
            assert p.phi ** n == st_number(p, n) * p.phi + p.t * st_number(p, n - 1)


class TestFactorials:
    def test_fibotorial(self):
        p = golden_pair(1, 1)
        assert st_factorial(p, 4) == 1 * 1 * 2 * 3 == 6

    def test_empty_product(self):
        assert st_factorial(golden_pair(3, -2), 0) == 1

    def test_fibonomial_edges(self):
        p = golden_pair(3, -2)
        for n in range(6):
            assert st_fibonomial(p, n, 0) == 1
            assert st_fibonomial(p, n, n) == 1

    def test_fibonomial_value(self):
        p = golden_pair(1, 1)
        assert st_fibonomial(p, 4, 2) == 6  # 6/(1*1)

    def test_fibonomial_range_errors(self):
        p = golden_pair(1, 1)
        with pytest.raises(IndexOutOfRange):
            st_fibonomial(p, 3, 4)
        with pytest.raises(IndexOutOfRange):
            st_fibonomial(p, 3, -1)

    @given(st.integers(min_value=0, max_value=12), st.data())
    def test_fibonomial_symmetry(self, n, data):
        k = data.draw(st.integers(min_value=0, max_value=n))
        for args in [(1, 1), (3, -2), (2, 3)]:
            p = golden_pair(*args)
            assert st_fibonomial(p, n, k) == st_fibonomial(p, n, n - k)

    def test_factorial_bridge(self):
        # {n}! = phi^C(n,2) (q;q)_n / (1-q)^n -- exact at a rational pair
        p = golden_pair(3, -2)
        for n in range(21):
            lhs = st_factorial(p, n)
            rhs = p.phi ** math.comb(n, 2) * q_pochhammer(p.q, p.q, n) / (1 - p.q) ** n
            assert lhs == rhs

    def test_q_tower_special_case(self):
        # phi = 1 at (s, t) = (1+q, -q): {n} collapses to [n]_q
        q = F(1, 2)
        p = golden_pair(1 + q, -q)
        assert p.phi == 1 and p.phi_prime == q
        for n in range(10):
            assert st_number(p, n) == q_number(q, n)


class TestQNumbers:
    def test_q_number_geometric(self):
        assert q_number(F(1, 2), 3) == F(7, 4)  # 1 + q + q^2

    def test_degenerate_q(self):
        with pytest.raises(DegenerateQ):
            q_number(1, 3)
        with pytest.raises(DegenerateQ):
            q_factorial(1, 2)

    def test_q_factorial_empty(self):
        assert q_factorial(F(1, 2), 0) == 1

    def test_q_factorial_vs_pochhammer(self):
        q = F(1, 2)
        assert q_factorial(q, 2) == F(3, 2)
        assert q_pochhammer(q, q, 2) / (1 - q) ** 2 == F(3, 2)
        for n in range(12):
            assert q_factorial(q, n) == q_pochhammer(q, q, n) / (1 - q) ** n


class TestQPochhammer:
    def test_empty(self):
        assert q_pochhammer(F(1, 3), F(1, 2), 0) == 1

    def test_two_factors(self):
        assert q_pochhammer(F(1, 2), F(1, 2), 2) == F(3, 8)  # (1-1/2)(1-1/4)

    def test_infinite_product_vs_brute_force(self):
        q = 0.5
        brute = 1.0
        for k in range(60):
            brute *= 1 - q ** (k + 1)  # (q;q)_inf oracle
        assert abs(q_pochhammer_inf(q, q) - brute) < 1e-14

    def test_infinite_product_rational_inputs(self):
        val = q_pochhammer_inf(F(1, 2), F(1, 2), tol=1e-20)
        brute = F(1)
        for k in range(80):
            brute *= 1 - F(1, 2) ** (k + 1)
        assert abs(val - brute) < F(1, 10**15)

    def test_divergent(self):
        with pytest.raises(DivergentProduct):
            q_pochhammer_inf(0.5, 1.1)

    def test_many_growing_factors(self):
        # about 130 factors 1 - a q^k with |a q^k| > 1 come before the product
        # settles; a growth guard like the sums' would refuse it
        ctx = golden_pair(3, -2, backend="float", precision=30).ctx
        a, q = ctx.mpf(10 ** 6), ctx.mpf(9) / 10
        brute = ctx.mpf(1)
        for k in range(3000):
            brute *= 1 - a * q ** k
        val = q_pochhammer_inf(a, q)
        # stopped at the proven tail bound: within tol = 1e-15 of the product
        assert abs(val - brute) <= 1e-15 * abs(brute)
        assert ctx.nstr(val, 20) == "5.1124508948629943517e+382"

    @pytest.mark.parametrize("a, q, factors", [(F(1, 3), F(1, 2), 200), ("-7/2", "-9/10", 3000),
                                               ("1e6", "0.9", 3000), ("1e400", "0.5", None)])
    def test_stops_at_the_proven_tail(self, a, q, factors, monkeypatch):
        # a "bound" stop within tol of the product, by the decay rule where
        # |a| does not fit a float
        ctx = golden_pair(3, -2, backend="float", precision=30).ctx
        a, q = (v if isinstance(v, F) else ctx.mpf(v) for v in (a, q))
        stats = []

        def spy(*args, **kwargs):
            out = stable_product(*args, **kwargs)
            stats.append(out[1])
            return out
        monkeypatch.setattr(stnum, "stable_product", spy)
        val = q_pochhammer_inf(a, q)
        (got,) = stats
        if factors is None:
            assert got.reason == "decay"
        else:
            assert got.reason == "bound" and got.tail <= 1e-15
            assert abs(val - q_pochhammer(a, q, factors)) <= got.tail * abs(val)

    @pytest.mark.parametrize("a", ["inf", "nan"])
    def test_no_bound_from_inf_or_nan(self, a):
        # as with no bound: the factors never settle, and the product fails at the cap
        ctx = golden_pair(3, -2, backend="float", precision=30).ctx
        with pytest.raises(ConvergenceFailure, match="within 10000 terms"):
            q_pochhammer_inf(ctx.mpf(a), ctx.mpf("0.5"))

    def test_zero_factor_is_exact(self):
        # 1 - 8 (1/2)^3 = 0
        val = q_pochhammer_inf(F(8), F(1, 2))
        assert val == 0 and type(val) is F


class TestBackendPlumbing:
    def test_wrap_rational(self):
        p = golden_pair(3, -2)
        assert p.wrap("3/4") == F(3, 4)
        assert p.wrap(0.2) == F(1, 5)
        assert p.wrap(7) == 7

    def test_wrap_float(self):
        p = golden_pair(1, 1)
        x = p.wrap(F(1, 3))
        assert abs(x - 1 / 3) < 1e-12

    def test_to_str_roundtrip(self):
        p = golden_pair(3, -2)
        assert p.wrap(p.to_str(F(22, 7))) == F(22, 7)

    def test_float_to_str_of_a_fraction(self):
        assert golden_pair(1, 1).to_str(F(22, 7)) == "22/7"

    def test_params_equality(self):
        assert golden_pair(3, -2) == golden_pair(3, -2)
        assert golden_pair(3, -2) != golden_pair(4, -3)
        assert golden_pair(3, -2) != golden_pair(3, -2, backend="float")
        for backend, precision in (("rational", None), ("float", 30)):
            p, same = (golden_pair(3, -2, backend, precision) for _ in range(2))
            assert p == same and hash(p) == hash(same)
        assert golden_pair(1, 1, precision=30) != golden_pair(1, 1, precision=50)
        with pytest.raises(AttributeError):
            p.s = 4


def _fresh(precision):
    """A context of its own: what a shared context must reproduce."""
    ctx = MPContext()
    ctx.dps = precision
    return ctx


class TestSharedContext:
    def test_one_context_per_precision(self):
        p, same, other = (golden_pair(1, 1, "float", 30), golden_pair(2, 1, "float", 30),
                          golden_pair(1, 1, "float", 50))
        assert p.ctx is same.ctx and p.ctx.mpf is same.ctx.mpf
        assert other.ctx is not p.ctx and other.ctx.dps == 50 and p.ctx.dps == 30

    def test_own_scalar_is_returned_as_it_is(self):
        p = golden_pair(1, 1, "float", 30)
        v = p.phi / 7
        assert p.wrap(v) is v
        assert p.wrap(v)._mpf_ == p.ctx.mpf(v)._mpf_ == _fresh(30).mpf(v)._mpf_

    def test_higher_precision_value_is_rounded_as_before(self):
        p30, p50 = golden_pair(1, 1, "float", 30), golden_pair(1, 1, "float", 50)
        v = p50.phi / 7
        w = p30.wrap(v)
        assert w is not v and type(w) is p30.ctx.mpf
        assert w._mpf_ == _fresh(30).mpf(v)._mpf_ != v._mpf_

    @pytest.mark.parametrize("literal", [0.1, 1 / 3, -2.5e-300, 7, "2/7", F(2, 7)])
    def test_other_literals_are_read_as_before(self, literal):
        p, ctx = golden_pair(1, 1, "float", 30), _fresh(30)
        expected = (ctx.mpf(literal.numerator) / ctx.mpf(literal.denominator)
                    if isinstance(literal, F) else ctx.mpf(literal))
        assert p.wrap(literal)._mpf_ == expected._mpf_

    def test_values_of_the_global_context_are_read_as_before(self):
        p = golden_pair(1, 1, "float", 30)
        v = mpmath.mp.mpf(1) / 3
        w = p.wrap(v)
        assert type(w) is p.ctx.mpf and w._mpf_ == _fresh(30).mpf(v)._mpf_ == v._mpf_

    @pytest.mark.parametrize("literal", ["nan", "inf", "-inf", float("nan"), float("inf"),
                                         mpmath.mp.inf])
    def test_non_finite_literals_are_input_errors(self, literal):
        p = golden_pair(1, 1, "float", 30)
        with pytest.raises(StInputError, match="finite"):
            p.wrap(literal)
        with pytest.raises(StInputError, match="finite"):
            golden_pair(literal, 1)


def test_package_docstring_example():
    import doctest

    import stpanto

    results = doctest.testmod(stpanto)
    assert results.failed == 0 and results.attempted >= 1


@settings(max_examples=25)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=-8, max_value=8))
def test_recurrence_matches_oracle_on_rational_pairs(a, b):
    s, t = F(a), F(b)
    if t == 0 or s * s + 4 * t <= 0:
        return
    disc = s * s + 4 * t
    if math.isqrt(disc.numerator) ** 2 != disc.numerator:
        return
    p = golden_pair(s, t)
    for n in range(12):
        assert st_number(p, n) == fib_oracle(s, t, n)

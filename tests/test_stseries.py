import dataclasses
import math
import operator
from fractions import Fraction as F
from itertools import accumulate, chain, islice, repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp

from stpanto import identities
from stpanto._rings import (_BLOCK_BITS, RATIONAL, _coalesced, _convolution, _exact_sum, _lcm,
                            _parts, _reduced)
from stpanto._stable import factors, powers, weights
from stpanto.errors import (
    BackendMismatch,
    IndexOutOfRange,
    NonInvertibleSeries,
    NonQPeriodicInitial,
    NonzeroConstantTerm,
    ParamsMismatch,
    QOutOfRange,
    ZeroPoint,
)
from stpanto.stfun import PantographSpec, deformed_exp, pantograph
from stpanto.stnum import golden_pair, st_divisors, st_factorial, st_number
from stpanto.stquad import pantograph_antiderivative_series
from stpanto.stseries import (
    QPeriodic,
    Series,
    compose_ab,
    compose_deformed,
    factorial_series,
    q_derive_at,
    scale,
    sq_int,
    st_antiderive,
    st_derive,
    st_derive_at,
    symbolic_power,
    symbolic_powers,
)


class Spec:
    def __init__(self, a, b, u):
        self.a, self.b, self.u = a, b, u


P32 = golden_pair(3, -2)

rational_coeffs = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
    min_size=1, max_size=7)


def poly(params, coeffs):
    return Series(params, coeffs)


class TestSeriesArithmetic:
    def test_negative_truncation_is_zero(self):
        assert Series(P32, [1, 2]).truncated(-1) == Series.zero(P32)

    def test_scalar_over_series(self):
        s = Series(P32, [F(1), F(2), F(0), F(0)])
        assert (2 / s).coeffs == [2, -4, 8, -16]

    def test_series_is_not_equal_to_a_scalar(self):
        assert (Series(P32, [5]) == 5) is False and Series(P32, [5]) != 5

    def test_min_order_closure(self):
        f = poly(P32, [1, 2, 3])
        g = poly(P32, [1, 1, 1, 1, 1])
        assert (f + g).order == 2
        assert (f * g).order == 2

    def test_mul_truncates(self):
        f = poly(P32, [0, 1, 0, 0])  # x at order 3
        assert (f * f).coeffs == [0, 0, 1, 0]

    def test_params_mismatch(self):
        with pytest.raises(ParamsMismatch):
            poly(P32, [1]) + poly(golden_pair(4, -3), [1])

    def test_division_roundtrip(self):
        f = poly(P32, [1, F(1, 2), F(-2, 3), 5, 0, 1])
        g = poly(P32, [2, -1, F(7, 3), 0, 1, F(1, 9)])
        assert (f * g) / g == f

    def test_division_needs_unit(self):
        with pytest.raises(NonInvertibleSeries):
            poly(P32, [1, 1]) / poly(P32, [0, 1])

    def test_scalar_ops(self):
        f = poly(P32, [1, 2])
        assert (f + 1).coeffs == [2, 2]
        assert (3 * f).coeffs == [3, 6]
        assert (f / 2).coeffs == [F(1, 2), 1]

    def test_eval_horner(self):
        f = poly(P32, [1, 0, -2])
        assert f.eval(F(1, 2)) == F(1, 2)

    def test_float_backend_equality_tolerance(self):
        p = golden_pair(1, 1)
        f = Series(p, [1, 2])
        g = Series(p, [1 + 1e-14, 2])
        assert f == g
        assert not f.equals(Series(p, [1 + 1e-9, 2]))


def schoolbook(a, b):
    """The truncated convolution sum a_i b_(k-i), k up to the smaller order."""
    n = min(len(a), len(b)) - 1
    return [sum((a[i] * b[k - i] for i in range(k + 1)), F(0)) for k in range(n + 1)]


def exact(v):
    """A float-backend scalar as the Fraction of its raw value."""
    sign, man, exp, _ = v._mpf_
    return F(-man if sign else man) * F(2) ** exp


def assert_rounded_once(got, sums, prec, divisor=F(1)):
    """The bound of ``FloatRing.product`` and ``quotient``: each coefficient
    lies within 1/2 ulp of itself plus 2^-(prec + 24) of its largest exact
    term over |divisor| of the exact sum of its terms over divisor (each
    skipped term is below 2^-(prec + 24) of the largest over the count of
    terms, so all of them are below 2^-(prec + 24) of it)."""
    assert len(got) == len(sums)
    for c, terms in zip(got, sums):
        _, man, exp, bc = c._mpf_
        half_ulp = F(2) ** (exp + bc - prec - 1) if man else 0
        slack = max(map(abs, terms), default=F(0)) / abs(divisor) / 2 ** (prec + 24)
        assert abs(exact(c) - sum(terms, F(0)) / divisor) <= half_ulp + slack


def assert_product_rounded_once(f, g):
    """f g against the exact products a_i b_(k-i) of the raw inputs."""
    a, b = [exact(c) for c in f.coeffs], [exact(c) for c in g.coeffs]
    n = min(f.order, g.order)
    assert_rounded_once((f * g).coeffs, [[a[i] * b[k - i] for i in range(k + 1)]
                                         for k in range(n + 1)], f.params.ctx.prec)


def assert_quotient_rounded_once(f, g):
    """Each q_k of f / g against the exact step (f_k - sum_{j<k} q_j g_(k-j))
    / g_0 from the raw inputs and the rounded q_j before it."""
    got = (f / g).coeffs
    a, b, q = ([exact(c) for c in xs] for xs in (f.coeffs, g.coeffs, got))
    assert len(got) == min(f.order, g.order) + 1
    assert_rounded_once(got, [[a[k]] + [-q[j] * b[k - j] for j in range(k)]
                              for k in range(len(got))], f.params.ctx.prec, b[0])


# Coefficients of every size: zeros, small fractions, and denominators of
# up to 400 bits, so that dense operands split into several integer blocks.
product_coeff = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=30),
    st.builds(F, st.integers(-2 ** 90, 2 ** 90), st.integers(1, 2 ** 400)),
)
dense_operand = st.integers(3, 40).flatmap(
    lambda n: st.lists(st.tuples(product_coeff, st.integers(1, 4)), min_size=n + 1,
                       max_size=n + 1)).map(
    lambda runs: [c for c, k in runs for _ in range(k)][:41])
sparse_operand = st.tuples(
    st.integers(0, 40),
    st.lists(st.tuples(st.integers(0, 40), product_coeff), max_size=3),
).map(lambda d: [next((c for i, c in d[1] if i == k), F(0)) for k in range(d[0] + 1)])
zero_operand = st.integers(0, 40).map(lambda n: [F(0)] * (n + 1))
product_operand = st.one_of(dense_operand, dense_operand, sparse_operand, zero_operand)
# Float-backend operands: exact zeros and dyadic values of either sign from
# 2^-200 to 2^200, beside the rational ones above.
float_coeff = st.one_of(st.just(F(0)), st.builds(
    lambda m, e: m * F(2) ** e, st.integers(-2 ** 60, 2 ** 60), st.integers(-200, 140)))
float_operand = st.lists(float_coeff, min_size=1, max_size=21)
mixed_operand = st.one_of(product_operand, float_operand)
# Exponent spreads of thousands of bits; mantissas of up to 200 bits,
# rounded to the precision as they enter a Series.
wide_coeff = st.one_of(st.just(F(0)), st.builds(
    lambda m, e: m * F(2) ** e, st.integers(-2 ** 200, 2 ** 200), st.integers(-3000, 3000)))
wide_operand = st.lists(wide_coeff, min_size=1, max_size=21)
# Runs of equal values, each run ending in a near-equal one v (1 + 2^-d):
# their differences cancel to zero or to the last few bits.
run_operand = st.lists(st.tuples(wide_coeff, st.integers(1, 3), st.integers(1, 400)),
                       min_size=1, max_size=8).map(
    lambda runs: [x for v, k, d in runs for x in [v] * k + [v + v / 2 ** d]][:21])
difference = st.sampled_from([[1, -1], [1, -2, 1], [-1, 3, -3, 1]])


def kronecker_low(xs, ys, m):
    """The first min(m, len(xs) + len(ys) - 1) coefficients of the product
    of two integer polynomials, by Kronecker substitution (Harvey, J.
    Symbolic Comput. 2009): both are evaluated at 2^(8 width), with width
    bytes enough for any product coefficient, multiplied as one big integer
    and read back slot by slot.  Biasing each slot by half its range keeps
    the slots nonnegative, so packing and unpacking are bytes joins and
    slices.  The oracle of ``_convolution``."""
    xs, ys = xs[:m], ys[:m]
    m = min(m, len(xs) + len(ys) - 1)
    bound = max(map(abs, xs)) * max(map(abs, ys)) * min(len(xs), len(ys))
    if not bound:
        return [0] * m
    width = bound.bit_length() // 8 + 1  # so that bound < half
    half = 1 << (8 * width - 1)
    slot = half.to_bytes(width, "little")

    def pack(zs):
        raw = b"".join((z + half).to_bytes(width, "little") for z in zs)
        return int.from_bytes(raw, "little") - int.from_bytes(slot * len(zs), "little")

    # The biased low m slots of the product are its value mod 2^(8 width m).
    low = pack(xs) * pack(ys) + int.from_bytes(slot * m, "little")
    raw = (low & ((1 << 8 * width * m) - 1)).to_bytes(width * m, "little")
    return [int.from_bytes(raw[k:k + width], "little") - half
            for k in range(0, width * m, width)]


def every_truncation(xs, ys):
    """The convolution of xs and ys equals the Kronecker one at every m."""
    for m in range(1, len(xs) + len(ys)):
        assert _convolution(xs, ys, m) == kronecker_low(xs, ys, m)


signed_block = st.lists(st.one_of(st.just(0), st.integers(-2 ** 70, 2 ** 70),
                                  st.integers(-2 ** 600, 2 ** 600)), min_size=1, max_size=24)


class TestExactProduct:
    """The rational product (one integer convolution per pair of blocks)
    against the Fraction schoolbook, and the convolution against the
    Kronecker substitution it replaced."""

    @given(product_operand, product_operand)
    @settings(max_examples=150, deadline=None)
    def test_matches_schoolbook(self, a, b):
        f, g = Series(P32, a), Series(P32, b)
        got = (f * g).coeffs
        assert got == schoolbook(a, b)
        assert all(type(c) is F for c in got)
        assert (g * f).coeffs == got

    @pytest.mark.parametrize("sign", [1, -1])
    def test_coefficients_at_the_slot_bound(self, sign):
        # Equal extreme numerators make the last coefficient reach the
        # bound max|a| max|b| min(len) on any product coefficient (the
        # slot size of the Kronecker oracle), for bound bit lengths on both
        # sides of a byte boundary.
        for bits in range(60, 69):
            top = 2 ** bits - 1
            a = [F(top)] * 10
            b = [F(sign * top)] * 10
            assert (Series(P32, a) * Series(P32, b)).coeffs == schoolbook(a, b)
            every_truncation([top] * 10, [sign * top] * 10)

    @given(signed_block, signed_block)
    @settings(max_examples=60, deadline=None)
    def test_convolution_matches_kronecker(self, xs, ys):
        every_truncation(xs, ys)

    @pytest.mark.parametrize("xs, ys", [
        ([0, 0, 0], [5, -7]), ([0, 3, 0, 0, -2, 0], [0, 0, 1, 0, -9]),
        ([4, 0, 0, 0, 0, 0, 0, 0, 5], [-1, 0, 0, 0, 2 ** 200]), ([0], [0, 0, 0, 0])])
    def test_convolution_over_zero_runs(self, xs, ys):
        every_truncation(xs, ys)
        every_truncation(ys, xs)

    def test_dense_integer_block_of_order_128(self):
        xs = [(-1) ** k * (3 ** k + k) for k in range(129)]
        ys = [2 ** (k % 61) - 7 * k for k in range(129)]
        assert Series(P32, xs).data == [(0, 1, xs)]
        assert _convolution(xs, ys, 129) == kronecker_low(xs, ys, 129)
        assert _convolution(xs, ys, 257) == kronecker_low(xs, ys, 257)
        want = _reduced([(0, 1, kronecker_low(xs, ys, 129))])
        assert (Series(P32, xs) * Series(P32, ys)).data == want

    def test_pantograph_order_128(self):
        f = pantograph(P32, PantographSpec(F(2), F(1, 2), F(1, 3)), 128)
        g = pantograph(P32, PantographSpec(F(1), F(1), F(1, 2)), 128)
        got = (f * g).coeffs
        assert got == schoolbook(f.coeffs, g.coeffs)
        assert all(type(c) is F for c in got)

    @pytest.mark.parametrize("precision", [1, 30, 50])
    @given(a=mixed_operand, b=mixed_operand)
    @settings(max_examples=30, deadline=None)
    def test_float_product_is_rounded_once(self, precision, a, b):
        p = golden_pair(1, 1, backend="float", precision=precision)
        assert_product_rounded_once(Series(p, a[:21]), Series(p, b[:21]))

    @pytest.mark.parametrize("precision", [1, 30, 50])
    @given(a=st.one_of(wide_operand, run_operand), b=wide_operand, d=difference,
           differ=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_float_product_over_wide_exponents_and_cancellation(self, precision, a, b, d,
                                                                  differ):
        # b, or a difference operator whose product with runs of equal
        # values cancels, on either side; an exact sum does not depend on
        # the order of its terms, so both sides give the same bits
        p = golden_pair(1, 1, backend="float", precision=precision)
        f, g = Series(p, a), Series(p, d + [0] * 20 if differ else b)
        assert_product_rounded_once(f, g)
        assert (f * g).data == (g * f).data

    @pytest.mark.parametrize("s, t", [(1, 1), (2, 1), (1, 3)])
    def test_float_pantograph_order_128(self, s, t):
        p = golden_pair(s, t, backend="float", precision=30)
        f = pantograph(p, PantographSpec(2, F(1, 2), F(-1, 3)), 128)
        assert_product_rounded_once(f, deformed_exp(p, F(1, 3), 128))

    @pytest.mark.parametrize("precision", [1, 30, 50])
    @given(c=wide_coeff, k=st.integers(0, 20), b=st.one_of(wide_operand, mixed_operand))
    @settings(max_examples=30, deadline=None)
    def test_float_product_by_a_monomial_is_the_exact_sum_route(self, precision, c, k, b):
        # c x^k times b, either side: one rounded mul per coefficient, the
        # bits of the lone term's _exact_sum rounded once by from_man_exp
        p = golden_pair(1, 1, backend="float", precision=precision)
        f, g = Series.monomial(p, k, c, order=20), Series(p, b[:21])
        n, (prec, rnd) = min(f.order, g.order), p.ctx._prec_rounding
        xs, ys = _parts(f.data[:n + 1]), _parts(g.data[:n + 1])
        want = [from_man_exp(*_exact_sum([(x, y) for i, x in enumerate(xs)
                                          if x and i <= m and (y := ys[m - i])], prec), prec, rnd)
                for m in range(n + 1)]
        assert (f * g).data == want
        assert (g * f).data == want


def quotient_loop(f, g):
    """The quotient recurrence q_k = (f_k - sum_{j<k} q_j g_(k-j)) (1/g_0),
    each sum taken in the order of j."""
    n = min(f.order, g.order)
    inv0 = 1 / g.coeffs[0]
    out = []
    for k in range(n + 1):
        acc = f.coeffs[k]
        for j in range(k):
            acc -= out[j] * g.coeffs[k - j]
        out.append(acc * inv0)
    return out


EXACT_PAIRS = [P32, golden_pair(4, -3), golden_pair(2, 3)]
# Orders from 0 up: at 0 Newton iteration takes no step and has no
# remainder, at 1 and 2 its remainder product is of order 0.
quotient_order = st.sampled_from([0, 1, 2, 3, 5, 8, 12, 16, 19, 20, 21, 24, 33, 47, 64])
quotient_coeff = st.builds(F, st.integers(-40, 40), st.integers(1, 12))


class TestExactQuotient:
    """The rational quotient (Newton iteration on Series products at every
    order) against the recurrence."""

    @given(st.sampled_from(EXACT_PAIRS), quotient_order, quotient_order, st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_recurrence(self, p, nf, ng, data):
        a = data.draw(st.lists(quotient_coeff, min_size=nf + 1, max_size=nf + 1))
        b = data.draw(st.lists(quotient_coeff, min_size=ng + 1, max_size=ng + 1))
        b[0] = b[0] or F(1)
        f, g = Series(p, a), Series(p, b)
        got = (f / g).coeffs
        assert got == quotient_loop(f, g)
        assert all(type(c) is F for c in got)

    @pytest.mark.parametrize("p", EXACT_PAIRS)
    def test_pantograph_by_deformed_exp(self, p):
        # E(2, 1/2; x, 1/3) / exp(x, -1/2), whose coefficient denominators
        # grow like phi^(n^2/2), at orders 24 and 32 and mixed orders.
        for nf, ng in ((24, 24), (32, 32), (40, 25)):
            f = pantograph(p, PantographSpec(F(2), F(1, 2), F(1, 3)), nf)
            g = deformed_exp(p, F(-1, 2), ng)
            assert (f / g).coeffs == quotient_loop(f, g)

    def test_sparse_divisor_and_non_unit_constant(self):
        f = Series(P32, [F(k + 1, 3) for k in range(41)])
        q = (f / Series(P32, [1, F(-1, 2)] + [0] * 39)).coeffs
        assert q == [sum(F(j + 1, 3) * F(1, 2 ** (k - j)) for j in range(k + 1))
                     for k in range(41)]
        g = Series(P32, [F(-7, 3)] + [F(1, k) for k in range(1, 31)])
        assert (f / g).coeffs == quotient_loop(f, g)

    def test_order_128_times_divisor_is_numerator(self):
        # u = 1 keeps the order-128 denominators near {n}!, so the check
        # takes a fraction of a second.
        f = pantograph(P32, PantographSpec(F(2), F(1, 2), F(1)), 128)
        g = deformed_exp(P32, F(-1), 128)
        q = f / g
        assert q.order == 128
        assert q * g == f

    def test_non_invertible_divisor(self):
        f = Series(P32, [1] * 41)
        with pytest.raises(NonInvertibleSeries):
            f / Series(P32, [0] + [1] * 40)

    @pytest.mark.parametrize("precision", [1, 30, 50])
    @given(a=st.lists(st.one_of(product_coeff, float_coeff), min_size=25, max_size=41),
           b=st.lists(st.one_of(product_coeff, float_coeff), min_size=25, max_size=41))
    @settings(max_examples=8, deadline=None)
    def test_float_quotient_is_rounded_once(self, precision, a, b):
        p = golden_pair(1, 1, backend="float", precision=precision)
        b[0] = b[0] or F(1)
        assert_quotient_rounded_once(Series(p, a), Series(p, b))

    @pytest.mark.parametrize("precision", [1, 30, 50])
    @given(a=st.one_of(wide_operand, run_operand), b=st.one_of(wide_operand, run_operand),
           same=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_float_quotient_over_wide_exponents_and_cancellation(self, precision, a, b, same):
        # g / g = 1 cancels every sum f_k - sum q_j g_(k-j) after the first
        p = golden_pair(1, 1, backend="float", precision=precision)
        b[0] = b[0] or F(3, 7)
        g = Series(p, b)
        assert_quotient_rounded_once(g if same else Series(p, a), g)
        if same:
            assert (g / g).coeffs == [1] + [0] * g.order

    def test_float_pantograph_by_deformed_exp_order_128(self):
        p = golden_pair(1, 1, backend="float", precision=30)
        f = pantograph(p, PantographSpec(2, F(1, 2), F(-1, 3)), 128)
        assert_quotient_rounded_once(f, deformed_exp(p, F(1, 3), 128))


# Exact raw values m 2^e (mantissas past the precision, so abs rounds) over
# an exponent spread of 3,000 bits, and zeros.
raw_values = st.lists(st.one_of(st.just((0, 0)), st.tuples(st.integers(-2 ** 200, 2 ** 200),
                                                          st.integers(-1500, 1500))),
                      min_size=1, max_size=12)


@pytest.mark.parametrize("precision", [1, 30])
@given(values=raw_values, ties=st.booleans())
@settings(max_examples=60, deadline=None)
def test_float_max_abs_is_the_object_max(precision, values, ties):
    # with ties, every value is followed somewhere by its negation
    p = golden_pair(1, 1, backend="float", precision=precision)
    if ties:
        values += [(-m, e) for m, e in reversed(values)]
    f = Series(p, [p.ctx.make_mpf(from_man_exp(m, e)) for m, e in values])
    want = max(map(abs, f.coeffs))
    got = f.max_abs_coeff()
    assert type(got) is type(want) and got._mpf_ == want._mpf_


@pytest.mark.parametrize("values", [
    ["inf", 2, "-inf"], [3, "-inf", "inf"], ["nan", 1, -5], ["nan"], [0, "nan", 0],
    [1, "nan", "-inf", 7], [3, 2.5], [2.5, -3], [-2.75, 3, 2.5], [1.5, -1.75, 1.625]])
def test_float_max_abs_of_ties_infinities_and_nans(values):
    # the raw compare ranks an infinity above every finite value and a nan
    # nowhere, as the loop of mpf's abs and > from 0 does; values with the
    # same leading bit but mantissas of other lengths compare aligned
    p = golden_pair(1, 1, backend="float", precision=30)
    f = Series(p, [p.ctx.mpf(v) for v in values])
    want = p.zero()
    for c in f.coeffs:
        if abs(c) > want:
            want = abs(c)
    assert f.max_abs_coeff()._mpf_ == want._mpf_


def horner_loop(f, x):
    """The Horner value acc * x + c over the coefficients, highest first,
    on the backend's scalar objects."""
    acc = f.params.zero()
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


class TestEval:
    """Series.eval: the float Horner loop on raw values against the loop on
    mpf objects, bit for bit; the rational one, on unreduced blocks, against
    the Fraction Horner sum over the coefficients."""

    @pytest.mark.parametrize("precision", [1, 30, 50])
    @given(a=mixed_operand, x=st.one_of(float_coeff, product_coeff))
    @settings(max_examples=30, deadline=None)
    def test_float_eval_is_horner_loop(self, precision, a, x):
        p = golden_pair(1, 1, backend="float", precision=precision)
        f, x = Series(p, a), p.wrap(x)
        got = f.eval(x)
        assert type(got) is p.ctx.mpf
        assert repr(got) == repr(horner_loop(f, x))

    # x = 0, negative x, and x over 2^60, beside small fractions of either sign
    point = st.one_of(st.just(F(0)), st.fractions(min_value=-3, max_value=3, max_denominator=50),
                      st.builds(F, st.integers(-2 ** 62, 2 ** 62), st.just(2 ** 60)))

    @given(a=product_operand, b=product_operand, x=point)
    @settings(max_examples=60, deadline=None)
    def test_rational_eval_on_blocks(self, a, b, x):
        for f in (Series(P32, a), Series(P32, a) * Series(P32, b)):
            got = f.eval(x)  # before coeffs is read, from the blocks as they are
            assert type(got) is F and got == horner_loop(f, x)

    @pytest.mark.parametrize("x", [F(0), F(-1), F(-2, 3), F(5, 7), F(3, 2 ** 60)])
    def test_rational_eval_of_a_kernel_result(self, x):
        f = pantograph(P32, PantographSpec(F(2), F(1, 2), F(1, 3)), 64) / deformed_exp(
            P32, F(-1, 2), 64)
        assert f._coeffs is None and len(f.data) > 1
        got = f.eval(x)
        assert f._coeffs is None  # no coefficient was reduced
        assert got == horner_loop(f, x)


# -- the rational block form against plain Fraction lists -------------------

# (5/2, -1) has phi = 2, phi' = 1/2 and {n} = (2^n - 2^-n) / (3/2), not integers.
BLOCK_PAIRS = EXACT_PAIRS + [golden_pair(F(5, 2), -1)]
block_operand = st.one_of(st.integers(0, 40).flatmap(lambda n: st.lists(
    product_coeff, min_size=n + 1, max_size=n + 1)), sparse_operand)
block_scalar = st.fractions(min_value=-5, max_value=5, max_denominator=9)
BLOCK_OPS = ["add", "sub", "neg", "times", "over", "scale", "derive", "antiderive",
             "truncated", "padded", "product", "quotient", "cancel", "zero"]


def st_numbers_ref(p, n):
    nums = [F(0), F(1)]
    while len(nums) <= n:
        nums.append(p.s * nums[-1] + p.t * nums[-2])
    return nums


def block_step(p, op, cur, other, w, k):
    """One operation on a Series and on its plain Fraction list."""
    f, a = cur
    g, b = other
    nums = st_numbers_ref(p, len(a) + 1)
    if op == "add":
        return f + g, [x + y for x, y in zip(a, b)]
    if op == "sub":
        return f - g, [x - y for x, y in zip(a, b)]
    if op == "neg":
        return -f, [-x for x in a]
    if op == "times":
        return f * w, [x * w for x in a]
    if op == "over":
        w = w or F(7, 3)
        return f / w, [x / w for x in a]
    if op == "scale":
        return scale(f, w), [x * w ** n for n, x in enumerate(a)]
    if op == "derive":
        return st_derive(f), [nums[n + 1] * a[n + 1] for n in range(len(a) - 1)] or [F(0)]
    if op == "antiderive":
        return st_antiderive(f), [F(0)] + [x / nums[n + 1] for n, x in enumerate(a)]
    if op == "truncated":
        return f.truncated(k), a[:k + 1]
    if op == "padded":
        return f.padded(k), a + [F(0)] * (k + 1 - len(a))
    if op == "product":
        return f * g, schoolbook(a, b)
    if op == "quotient":  # by g with its constant term made 1 if it is 0
        if b[0] == 0:
            g, b = g + 1, [F(1)] + b[1:]
        return f / g, quotient_loop(Series(p, a), Series(p, b))
    if op == "cancel":  # (f + g) - g is f up to the smaller order
        return (f + g) - g, a[:len(b)]
    return f - f, [F(0)] * len(a)  # "zero": exact cancellation


class TestBlockForm:
    """Every rational Series operation on the block form against a plain
    Fraction reference: the coefficients read back are normalised Fractions
    equal to the reference, and exact cancellation gives exact zeros."""

    @given(st.sampled_from(BLOCK_PAIRS), block_operand, block_operand,
           st.lists(st.tuples(st.sampled_from(BLOCK_OPS), st.booleans(), block_scalar,
                              st.integers(0, 40), st.booleans()), min_size=5, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_matches_fraction_reference(self, p, a, b, steps):
        pool = [(Series(p, a), a), (Series(p, b), b)]
        cur = pool[0]
        for op, pick, w, k, peek in steps:
            cur = block_step(p, op, cur, pool[pick], w, k)
            got, want = cur
            if op == "zero":
                assert got == Series.zero(p, got.order) and got.max_abs_coeff() == 0
            if peek:  # read the coefficients mid-chain, then go on from the blocks
                assert got.coeffs == want
            blocks = got.data  # contiguous from 0, each D a multiple of the one before
            assert [s for s, _, _ in blocks] == list(accumulate(
                (len(xs) for _, _, xs in blocks[:-1]), initial=0))
            assert all(d > 0 and later % d == 0
                       for (_, d, _), (_, later, _) in zip(blocks, blocks[1:] + blocks[-1:]))
        got, want = cur
        assert got.order == len(want) - 1
        top = max(abs(c) for c in want)
        assert got.max_abs_coeff() == top and (-got).max_abs_coeff() == top
        assert got == Series(p, want)
        assert got.coeffs == want
        assert all(type(c) is F and c.denominator > 0
                   and math.gcd(c.numerator, c.denominator) == 1 for c in got.coeffs)

    @pytest.mark.parametrize("p", BLOCK_PAIRS)
    def test_newton_quotient_blocks(self, p):
        # the quotient joins the blocks of two products; its D's must still
        # divide each other, or a product with it goes wrong
        f = pantograph(p, PantographSpec(F(2), F(1, 2), F(1, 3)), 40)
        g = deformed_exp(p, F(-1, 2), 40)
        q = f / g
        dens = [d for _, d, _ in q.data]
        assert all(later % d == 0 for d, later in zip(dens, dens[1:]))
        assert q * g == f


class FractionListRing:
    """A third coefficient ring, for tests only: a Series holds its plain
    Fraction coefficients, and every kernel is a loop on operators."""

    to_str = staticmethod(str)

    def wrap(self, x):
        return x if isinstance(x, F) else F(x)

    def data(self, coeffs):
        return list(coeffs)

    def coeffs(self, data):
        return list(data)

    def order(self, data):
        return len(data) - 1

    def window(self, data, lo, hi):
        return data[lo:hi]

    def padded(self, data, extra):
        return data + [F(0)] * extra

    def add(self, a, b, n):
        return [x + y for x, y in zip(a[:n + 1], b)]

    def scaled(self, data, w):
        return [x * w for x in data]

    def times(self, data, fs):
        return [x * f for x, f in zip(data, fs)]

    def scale(self, data, u):
        return [x * u ** n for n, x in enumerate(data)]

    def antiderive(self, data, nums):
        return [F(0)] + [x / m for x, m in zip(data, nums)]

    def product(self, a, b, n):
        return schoolbook(a[:n + 1], b[:n + 1])

    def quotient(self, f, g, n):
        return quotient_loop(f, g)

    def value(self, data, x):
        acc = F(0)
        for c in reversed(data):
            acc = acc * x + c
        return acc

    eq = staticmethod(operator.eq)

    def max_abs(self, data):
        return max(map(abs, data))


class TestThirdRing:
    """A ring that ``stseries`` does not know plugs in through Params alone:
    TestBlockForm's operation chains on Fraction lists agree, step by step,
    with the same chains on integer blocks."""

    @given(st.sampled_from(BLOCK_PAIRS), block_operand, block_operand,
           st.lists(st.tuples(st.sampled_from(BLOCK_OPS), st.booleans(), block_scalar,
                              st.integers(0, 40)), min_size=5, max_size=8),
           st.fractions(min_value=-2, max_value=2, max_denominator=7))
    @settings(max_examples=40, deadline=None)
    def test_fraction_lists_agree_with_blocks(self, p, a, b, steps, x):
        rings = (p, dataclasses.replace(p, ring=FractionListRing()))
        pools = [[(Series(r, a), a), (Series(r, b), b)] for r in rings]
        curs = [pool[0] for pool in pools]
        for op, pick, w, k in steps:
            curs = [block_step(r, op, cur, pool[pick], w, k)
                    for r, cur, pool in zip(rings, curs, pools)]
            (blocks, want), (lists, _) = curs
            assert lists.data == blocks.coeffs == want
        assert lists.eval(x) == blocks.eval(x)
        assert lists.max_abs_coeff() == blocks.max_abs_coeff()
        assert lists == Series(rings[1], want) and (-lists).data == [-c for c in want]


class TestDerivative:
    def test_cubic(self):
        # {3} = 7 at (3,-2), so D x^3 = 7 x^2
        f = Series.monomial(P32, 3)
        assert st_derive(f).coeffs == [0, 0, 7]

    def test_constant_killed(self):
        assert st_derive(Series.constant(P32, 9)).coeffs == [0]

    def test_square_fibonacci(self):
        p = golden_pair(1, 1)
        f = Series.monomial(p, 2)
        assert st_derive(f).equals(Series(p, [0, 1]))  # {2} = 1

    @given(rational_coeffs, rational_coeffs)
    def test_linearity(self, a, b):
        # on a common truncation window
        n = max(len(a), len(b)) - 1
        f, g = poly(P32, a).padded(n), poly(P32, b).padded(n)
        assert st_derive(f + g) == st_derive(f) + st_derive(g)
        assert st_antiderive(f + g) == st_antiderive(f) + st_antiderive(g)

    def test_derive_at_matches_coefficient_form(self):
        f = poly(P32, [2, -1, F(3, 4), 5])
        df = st_derive(f)
        for x in [F(1, 3), F(7, 5), -2]:
            assert st_derive_at(f.eval, x, P32) == df.eval(x)

    def test_derive_at_square(self):
        val = st_derive_at(lambda x: x * x, F(1), P32)
        assert val == 3 == st_number(P32, 2)

    def test_derive_at_constant(self):
        assert st_derive_at(lambda x: F(5), F(2, 3), P32) == 0

    def test_zero_point(self):
        with pytest.raises(ZeroPoint):
            st_derive_at(lambda x: x, 0, P32)

    def test_q_derivative_zero_point(self):
        with pytest.raises(ZeroPoint):
            q_derive_at(lambda y: y, 0, P32)

    def test_q_derivative_equivalence(self):
        # (D f)(x) = (D_q f)(phi x)
        f = poly(P32, [1, 2, F(-1, 3), 0, 4])
        for x in [F(7, 10), F(1, 4)]:
            lhs = st_derive_at(f.eval, x, P32)
            rhs = q_derive_at(f.eval, P32.phi * x, P32)
            assert lhs == rhs


class TestAntiderivative:
    def test_unit(self):
        assert st_antiderive(Series.constant(P32, 1)).coeffs == [0, 1]

    def test_linear(self):
        # x -> x^2/{2} = x^2/3
        assert st_antiderive(Series.monomial(P32, 1)).coeffs == [0, 0, F(1, 3)]

    @given(rational_coeffs)
    def test_roundtrip(self, coeffs):
        f = poly(P32, coeffs)
        assert st_derive(st_antiderive(f)) == f
        g = st_antiderive(st_derive(f))
        expect = list(f.coeffs)
        expect[0] = F(0)
        assert g == poly(P32, expect)


class TestScale:
    def test_identity_scale(self):
        f = poly(P32, [1, 2, 3])
        assert scale(f, 1) == f

    def test_zero_scale(self):
        f = poly(P32, [5, 2, 3])
        assert scale(f, 0).coeffs == [5, 0, 0]

    @given(rational_coeffs)
    def test_commutation_with_derivative(self, coeffs):
        # D T_u = u T_u D
        u = F(1, 2)
        f = poly(P32, coeffs)
        assert st_derive(scale(f, u)) == scale(st_derive(f), u) * u

    def test_scale_composes(self):
        f = poly(P32, [1, 1, 1, 1])
        assert scale(scale(f, 2), 3) == scale(f, 6)


def fraction_times(blocks, fs):
    """The blocks of c_n f_n by the Fraction route, one Fraction f_n per
    index: each block's D gains the lcm of its f's denominators."""
    out = []
    for s, d, xs in blocks:
        part, den = fs[s:s + len(xs)], 1
        for f in part:
            den = _lcm(den, f.denominator)
        out.append((s, d * den, [x * f.numerator * (den // f.denominator)
                                 for x, f in zip(xs, part)]))
    return _coalesced(out)


def coalesced_data(coeffs):
    """The blocks of a coefficient list by the ``_coalesced`` route: one
    piece (n, d, [x]) per coefficient x/d."""
    return _coalesced((i, c.denominator, [c.numerator]) for i, c in enumerate(coeffs))


def assert_divided_lift(blocks, coeffs):
    """Each numerator of a block (start, D, xs) is its coefficient x/d lifted
    by one division, x (D // d): the multipliers that ``_rings._multipliers``
    chains from the block's end."""
    assert sum(len(xs) for _, _, xs in blocks) == len(coeffs)
    for s, d, xs in blocks:
        assert xs == [c.numerator * (d // c.denominator) for c in coeffs[s:s + len(xs)]]


# Denominators that nest (powers of 2 and 6), runs of zeros between them,
# and now and then one that does not nest (an odd prime or a big one).
nesting_coeff = st.one_of(
    st.just(F(0)), st.just(F(0)),
    st.builds(lambda m, k: F(m, 2 ** k), st.integers(-9, 9), st.integers(0, 300)),
    st.builds(lambda m, k: F(m, 6 ** k), st.integers(-9, 9), st.integers(0, 120)),
    st.builds(F, st.integers(1, 9), st.sampled_from([3, 5, 7, 11, 2 ** 127 - 1])))


class TestDataBlocks:
    """``RationalRing.data`` builds, in one pass, the very blocks of the
    ``_coalesced`` route, each numerator lifted as one division would."""

    E128 = pantograph(P32, PantographSpec(F(2), F(1, 2), F(1, 3)), 128).coeffs

    @given(st.one_of(product_operand, st.lists(product_coeff, min_size=1, max_size=80),
                     st.lists(nesting_coeff, min_size=1, max_size=80)))
    @settings(max_examples=150, deadline=None)
    def test_random_lists(self, coeffs):
        blocks = RATIONAL.data(coeffs)
        assert blocks == coalesced_data(coeffs)
        assert_divided_lift(blocks, coeffs)

    @pytest.mark.parametrize("coeffs", [
        [F(0), F(0), F(0), F(1, 2), F(-3, 7), F(5)],
        [F(1, 3), F(0), F(0), F(0), F(2, 9), F(0), F(1, 2 ** 300), F(0), F(0), F(-1, 3 ** 200)],
        [F(0)] * 7, [F(0)], [F(-5, 11)], [F(7)], E128, [F(0)] * 3 + E128[3:],
        # no denominator divides the next; then nesting ones across zero runs
        [F(1, 3), F(1, 5), F(1, 7), F(1, 11), F(1, 13), F(2, 15), F(1, 2)],
        [F(1, 2), F(0), F(0), F(3, 4), F(0), F(5, 8), F(0), F(0), F(0), F(1, 24), F(7)],
        [F(1, 6), F(1, 4), F(1, 9), F(1, 12), F(0), F(1, 36), F(5), F(1, 2 ** 400)],
        [c if k % 3 else F(0) for k, c in enumerate(E128)], E128[::-1]])
    def test_cases(self, coeffs):
        blocks = RATIONAL.data(coeffs)
        assert blocks == coalesced_data(coeffs)
        assert_divided_lift(blocks, coeffs)

    def test_several_blocks(self):
        assert len(RATIONAL.data(self.E128)) > 1


def one_rule_blocks(pieces):
    """The blocks of contiguous pieces (start, d, xs) by the one rule, a piece
    at a time: D is the lcm of the pieces' d so far, and a block ends where
    D's bit length would pass twice what it was where the block began (at
    least ``_BLOCK_BITS``); each numerator is x (D // d), one division."""
    blocks, run, den, limit = [], [], 1, 2 * _BLOCK_BITS
    for piece in pieces:
        grown = _lcm(den, piece[1])
        if grown != den and grown.bit_length() > limit and run:
            blocks.append((run[0][0], den, [x * (den // d) for _, d, xs in run for x in xs]))
            run, limit = [], 2 * max(den.bit_length(), _BLOCK_BITS)
        run, den = run + [piece], grown
    return blocks + [(run[0][0], den, [x * (den // d) for _, d, xs in run for x in xs])]


def contiguous(shapes):
    """Pieces (start, d, zeros then 1 then tail) from (zeros, d, tail, zero);
    ``zero`` makes it an all-zero piece instead."""
    pieces, start = [], 0
    for zeros, d, tail, zero in shapes:
        xs = [0] * (zeros + 1) if zero else [0] * zeros + [1] + tail
        pieces.append((start, d, xs))
        start += len(xs)
    return pieces


class TestOneBlockRule:
    """``_coalesced`` builds every block list by one rule: a piece, leading
    zeros and all, enters its block whole, D is the lcm of the pieces' d and
    a block ends where D would pass twice its starting bit length.  Each
    coefficient reads back as its piece's x/d, and each D divides the next."""

    @staticmethod
    def check(pieces):
        blocks = _coalesced(pieces)
        assert blocks == one_rule_blocks(pieces)
        assert [F(x, d) for _, d, xs in blocks for x in xs] == \
            [F(x, d) for _, d, xs in pieces for x in xs]
        assert [s for s, _, _ in blocks] == \
            list(accumulate([len(xs) for _, _, xs in blocks[:-1]], initial=0))
        assert all(e % d == 0 for (_, d, _), (_, e, _) in zip(blocks, blocks[1:]))

    @pytest.mark.parametrize("pieces", [
        # d divides D; d grows D past the limit behind leading zeros; d grows
        # D within it; an all-zero piece of a new d
        [(0, 2 ** 200, [1, 3, 5]), (3, 2 ** 100, [0, 0, 7]), (6, 3 ** 100, [0, 0, 1, 2]),
         (10, 5, [0, 4]), (12, 7 ** 300, [0, 0]), (14, 1, [0, 9])],
        [(0, 2 ** 300, [0, 0, 1]), (3, 2 ** 300, [0, 5])],
        [(0, 3 ** 200, [0, 0, 0]), (3, 2, [1])],
        [(0, 6 ** 60, [5, 0]), (2, 2 ** 60, [0, 0, 1]), (5, 5 ** 200, [0, 1]),
         (7, 6 ** 60, [0, 0, 7])],
    ], ids=["mixed", "first-piece", "all-zero-first", "divides-then-grows"])
    def test_cases(self, pieces):
        self.check(pieces)

    @given(st.lists(st.tuples(st.integers(0, 3),
                              st.sampled_from([1, 2, 6, 2 ** 100, 3 ** 90, 2 ** 300, 5 ** 150,
                                               2 ** 127 - 1]),
                              st.lists(st.integers(-9, 9), max_size=3), st.booleans()),
                    min_size=1, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_random_pieces(self, shapes):
        self.check(contiguous(shapes))


class TestSameBlocks:
    """The integer kernels of scale and st_antiderive build the very blocks of
    the Fraction routes they replace, not only the same values; the float
    scale keeps every bit of the loop on mpf objects."""

    E128 = pantograph(P32, PantographSpec(F(2), F(1, 2), F(1, 3)), 128)
    SHORT = Series(P32, [F(k + 1, 3) for k in range(9)])
    CASES = {"short": SHORT, "leading-zeros": Series(P32, [0, 0, 0, F(1, 2), F(-3, 7), 5, 0]),
             "zero": Series.zero(P32, 4), "product": SHORT * Series(P32, [F(-5, 4)] * 9),
             "e128": E128}

    def test_e128_has_several_blocks(self):
        assert len(self.E128.data) > 1

    @pytest.mark.parametrize("u", [F(0), F(1), F(-1), F(-2, 3), F(5, 2), F(1, 3)])
    @pytest.mark.parametrize("case", CASES)
    def test_scale_blocks(self, case, u):
        f = self.CASES[case]
        want = fraction_times(f.data, list(islice(powers(u), f.order + 1)))
        assert scale(f, u).data == want

    @pytest.mark.parametrize("p", BLOCK_PAIRS)
    @pytest.mark.parametrize("case", CASES)
    def test_antiderive_blocks(self, case, p):
        f = Series(p, self.CASES[case].coeffs)
        nums = st_divisors(p, f.order + 1)[1:]
        want = _reduced(fraction_times(f.data, [1 / m for m in nums]))
        assert st_antiderive(f).data == [(0, 1, [0])] + [(s + 1, d, xs) for s, d, xs in want]

    @pytest.mark.parametrize("precision", [1, 30, 50])
    @given(a=mixed_operand, u=st.one_of(float_coeff, product_coeff))
    @settings(max_examples=30, deadline=None)
    def test_float_scale_is_object_loop(self, precision, a, u):
        p = golden_pair(1, 1, backend="float", precision=precision)
        f, u = Series(p, a), p.wrap(u)
        want, w = [], 1
        for c in f.coeffs:
            want.append(c * w)
            w = w * u
        assert repr(scale(f, u).coeffs) == repr(want)

    @pytest.mark.parametrize("precision", [1, 30, 50])
    @given(a=mixed_operand, w=st.one_of(float_coeff, product_coeff))
    @settings(max_examples=30, deadline=None)
    def test_float_scaled_is_object_loop(self, precision, a, w):
        p = golden_pair(1, 1, backend="float", precision=precision)
        f, w = Series(p, a), p.wrap(w)
        assert repr((f * w).coeffs) == repr([c * w for c in f.coeffs])
        assert repr((-f).coeffs) == repr([c * -1 for c in f.coeffs])


def factorial_loop(p, pairs, N, g=None, lead=0):
    """The float factorial series on mpf objects: w_n the prefix products of
    ``lead`` ints 1 then the object ``factors`` of the pairs, times g_n, each
    over {n}! the prefix products of {1}, {2}, .., in that order."""
    c = weights(chain(repeat(1, lead), factors(pairs)), N, p.one())
    if g is not None:
        c = [cn * p.wrap(gn) for cn, gn in zip(c, g)]
    return list(map(operator.truediv, c, weights(st_divisors(p, N)[1:], N, p.one())))


# A pair value: the int 1 (a constant or a powers pair) or a scalar to wrap.
pair_value = st.one_of(st.just(1), float_coeff, product_coeff)


class TestFloatFactorial:
    """``FloatRing.factorial`` on raw values keeps every bit of the loop on
    mpf objects it replaces."""

    @pytest.mark.parametrize("precision", [1, 30, 50])
    @given(pairs=st.lists(st.tuples(pair_value, pair_value), min_size=1, max_size=2),
           N=st.integers(0, 40), lead=st.integers(0, 2),
           g=st.none() | st.lists(st.one_of(float_coeff, product_coeff), max_size=45))
    @settings(max_examples=40, deadline=None)
    def test_is_object_loop(self, precision, pairs, N, lead, g):
        p = golden_pair(1, 1, backend="float", precision=precision)
        pairs = [tuple(v if type(v) is int else p.wrap(v) for v in pair) for pair in pairs]
        got = p.ring.factorial(pairs, st_divisors(p, N), N, g, lead)
        assert repr(got) == repr(factorial_loop(p, pairs, N, g, lead))

    @pytest.mark.parametrize("precision", [1, 30, 50])
    @pytest.mark.parametrize("s, t", [(1, 1), (2, 1), (1, 3)])
    def test_golden_pairs(self, precision, s, t):
        p = golden_pair(s, t, backend="float", precision=precision)
        pairs = ((p.wrap(F(2, 3)), p.phi), (p.wrap(F(-5, 4)), p.phi_prime))
        got = factorial_series(p, pairs, 64).coeffs
        assert repr(got) == repr(factorial_loop(p, pairs, 64))

    @pytest.mark.parametrize("precision", [1, 30, 50])
    def test_lead_and_an_infinite_g(self, precision):
        # the antiderivative's g = u / (a u + b), 1, 1, ..., with no end
        p = golden_pair(2, 1, backend="float", precision=precision)
        spec = PantographSpec(2, F(1, 2), F(-1, 3))
        a, b, u = p.wrap(spec.a), p.wrap(spec.b), p.wrap(spec.u)
        pairs = ((a, 1), (b, u))
        want = factorial_loop(p, pairs, 64, chain([u / (a * u + b)], repeat(1)), lead=1)
        got = p.ring.factorial(pairs, st_divisors(p, 64), 64,
                               chain([u / (a * u + b)], repeat(1)), lead=1)
        assert repr(got) == repr(want)
        assert repr(pantograph_antiderivative_series(p, spec, 64).coeffs) == repr(want)

    def test_complex_pair_is_refused_once_a_factor_is_drawn(self):
        # at (1, -2) phi is complex; a series that draws no factor past
        # f_0 = sum c (N <= lead + 1) has real coefficients
        p = golden_pair(1, -2, backend="float")
        pairs = ((p.wrap(1), p.phi), (p.wrap(F(1, 3)), p.phi_prime))
        for N, lead in [(2, 0), (6, 0), (4, 2), (5, 1)]:
            with pytest.raises(BackendMismatch, match="complex value"):
                factorial_series(p, pairs, N, lead=lead)
        for N, lead in [(0, 0), (1, 0), (2, 2), (3, 2), (1, 3)]:
            got = factorial_series(p, pairs, N, lead=lead).coeffs
            assert repr(got) == repr(factorial_loop(p, pairs, N, lead=lead))


class TestSymbolicPowers:
    def test_power_of_x_is_monomial(self):
        x = Series.identity(P32, order=14)
        for k in range(13):
            assert symbolic_power(x, k) == Series.monomial(P32, k, order=14)

    def test_zeroth_power(self):
        f = poly(P32, [0, 1, 1])
        assert symbolic_power(f, 0) == Series.one(P32, 2)

    def test_rejects_constant_term(self):
        with pytest.raises(NonzeroConstantTerm):
            symbolic_power(poly(P32, [1, 1]), 2)

    @pytest.mark.parametrize("p", [P32, golden_pair(1, 1, backend="float")],
                             ids=["rational", "float"])
    @pytest.mark.parametrize("coeffs", [[0, 1, 1], [2, 1, 1], [5]])
    def test_kmax_zero_and_below(self, p, coeffs):
        # f^[0] = 1 at f's order, f(0) != 0 included; no kmax < 0
        f = poly(p, coeffs)
        got, = symbolic_powers(f, 0)
        assert got.order == f.order and got.coeffs == Series.one(p, f.order).coeffs
        with pytest.raises(IndexOutOfRange):
            symbolic_powers(f, -1)

    def test_defining_recurrence(self):
        # D f^[k] = {k} f^[k-1] D f, f^[k](0) = 0, via an inline oracle
        f = poly(P32, [0, 1, 1, 0, 0, 0, 0, 0])
        pows = symbolic_powers(f, 4)
        df = st_derive(f)
        for k in range(1, 5):
            assert pows[k].coeffs[0] == 0
            lhs = st_derive(pows[k])
            rhs = (pows[k - 1] * df) * st_number(P32, k)
            assert lhs == rhs.truncated(lhs.order)

    def test_quadratic_oracle(self):
        # independent termwise integration for f = x + x^2, k = 2
        f = poly(P32, [0, 1, 1, 0, 0, 0])
        nums = [st_number(P32, n) for n in range(8)]

        def integrate(c):
            return [F(0)] + [c[n] / nums[n + 1] for n in range(len(c))]

        def mul(a, b):
            out = [F(0)] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            return out

        df = [F(1), F(nums[2])]  # D(x + x^2) = 1 + {2} x
        fk1 = [F(0), F(1), F(1)]  # f^[1] = f
        expected = integrate([nums[2] * c for c in mul(fk1, df)])
        expected += [F(0)] * (6 - len(expected))
        assert symbolic_power(f, 2).coeffs == expected[:6]

    @given(rational_coeffs, st.integers(min_value=0, max_value=5),
           st.fractions(min_value=-3, max_value=3, max_denominator=6))
    def test_scalar_factor_law(self, coeffs, k, r):
        # (r f)^[k] = r^k f^[k]
        f = poly(P32, [0] + coeffs)
        assert symbolic_power(f * r, k) == symbolic_power(f, k) * r ** k

    def test_vanished_powers_take_no_products(self, monkeypatch):
        # x^3 at order 5: f^[2] has degree 6, so f^[2..] vanish under truncation
        f = Series.monomial(P32, 3, order=5)
        assert symbolic_powers(f, 5)[2:] == [Series.zero(P32, 5)] * 4
        # once a power vanishes, every later power is zero with no product:
        # the identity suite makes 58 Series x Series products, 2 of them
        # with an all-zero operand
        products = []
        mul = Series.__mul__

        def spy(a, b):
            if isinstance(b, Series):
                products.append(not any(a.coeffs) or not any(b.coeffs))
            return mul(a, b)

        monkeypatch.setattr(Series, "__mul__", spy)
        identities.run_all()
        assert (len(products), sum(products)) == (58, 2)


class TestCompositions:
    def test_identity_recovers_g(self):
        g = [F(1), F(2), F(-1), F(1, 3), F(0), F(5)]
        u = F(1, 2)
        x = Series.identity(P32, order=5)
        got = compose_deformed(g, u, x)
        w = F(1)
        expected = []
        for n in range(6):
            expected.append(w * g[n] / st_factorial(P32, n))
            w *= u ** n
        assert got == poly(P32, expected)

    def test_constant_g(self):
        f = poly(P32, [0, 1, 4, -2])
        assert compose_deformed([1], F(1, 2), f) == Series.one(P32, 3)

    def test_rejects_constant_term(self):
        with pytest.raises(NonzeroConstantTerm):
            compose_deformed([1, 1], 1, poly(P32, [1, 1]))

    def test_ab_reduces_to_deformed(self):
        # g[0,1; f, u] = g[f, u]
        g = [F(1)] * 9
        f = poly(P32, [0, 1, F(1, 2), 0, 0, 0, 0, 0, 0])
        u = F(1, 3)
        assert compose_ab(g, Spec(0, 1, u), f) == compose_deformed(g, u, f)

    @settings(max_examples=20)
    @given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=8),
                    min_size=1, max_size=6),
           st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=6),
                    min_size=1, max_size=5),
           st.sampled_from([F(-1), F(1, 2), F(1), F(2)]))
    def test_chain_rule(self, g, fc, u):
        # D g[f, u] = (Dg)[u f, u] D f with (Dg)_n = g_{n+1}
        f = poly(P32, ([0] + fc + [0, 0, 0])[:8])
        comp = compose_deformed(g, u, f)
        lhs = st_derive(comp)
        dg = g[1:] + [F(0)]
        rhs = compose_deformed(dg, u, f * u) * st_derive(f)
        assert lhs == rhs.truncated(lhs.order)

    @settings(max_examples=20)
    @given(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=4),
                    min_size=2, max_size=6),
           st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=4),
                    min_size=1, max_size=5),
           st.tuples(st.fractions(min_value=-2, max_value=2, max_denominator=3),
                     st.fractions(min_value=-2, max_value=2, max_denominator=3),
                     st.fractions(min_value=-2, max_value=2, max_denominator=3)))
    def test_ab_chain_rule(self, g, fc, abu):
        # D g[a,b;f,u] = (a (Dg)[a,b;f,u] + b (Dg)[a,b;u f,u]) D f
        a, b, u = abu
        spec = Spec(a, b, u)
        f = poly(P32, ([0] + fc + [0, 0, 0])[:8])
        comp = compose_ab(g, spec, f)
        lhs = st_derive(comp)
        dg = g[1:] + [F(0)]
        rhs = (compose_ab(dg, spec, f) * a + compose_ab(dg, spec, f * u) * b) * st_derive(f)
        assert lhs == rhs.truncated(lhs.order)


class TestSqInt:
    def test_monomial_integrand(self):
        # integral of x^n between 0 and g: g^[n+1]/{n+1}
        g = poly(P32, [0, 1, -1, F(2, 5), 0, 0, 0, 0])
        zero = Series.zero(P32, 7)
        for n in range(3):
            f = Series.monomial(P32, n, order=7)
            got = sq_int(f, zero, g)
            expected = symbolic_power(g, n + 1) / st_number(P32, n + 1)
            assert got == expected

    def test_equal_bounds(self):
        g = poly(P32, [0, 1, 2, 3])
        f = Series.monomial(P32, 2, order=3)
        assert sq_int(f, g, g) == Series.zero(P32, 3)

    def test_bounds_must_vanish(self):
        with pytest.raises(NonzeroConstantTerm):
            sq_int(Series.monomial(P32, 1), poly(P32, [1, 0]), poly(P32, [0, 1]))

    def test_coefficient_sequence_needs_u(self):
        with pytest.raises(NonzeroConstantTerm, match="deformation u"):
            sq_int([1, 1], Series.zero(P32, 3), Series.monomial(P32, 1, order=3))

    @pytest.mark.parametrize("n", [2, 3])
    def test_substitution_example(self, n):
        # {n} * integral_0^x r^{n-1} exp[u r^n, u] dr, both routes, order 20
        order = 20
        u = F(1, 2)
        xn = Series.monomial(P32, n, order=order)
        ones = [F(1)] * (order + 1)
        exp_comp = compose_deformed(ones, u, xn)          # exp[x^n, u]
        exp_u_comp = compose_deformed(ones, u, xn * u)    # exp[u x^n, u]
        integrand = Series.monomial(P32, n - 1, order=order) * exp_u_comp
        direct = st_antiderive(integrand).truncated(order) * st_number(P32, n)
        f_seq = [u ** m for m in range(order + 1)]        # exp(u z, u) in z
        via_sq = sq_int(f_seq, Series.zero(P32, order), xn, u=u)
        expected = exp_comp - 1
        assert direct == expected
        assert via_sq == expected


class TestQPeriodic:
    def test_constant_mode(self):
        g = QPeriodic.constant(P32, F(5, 3))
        assert g.evaluate(10) == F(5, 3)
        g.check_periodicity()

    def test_callable_mode_periodic(self):
        p = golden_pair(3, -2, backend="float")
        g = QPeriodic.periodic(p, lambda y: math.cos(2 * math.pi * float(y)))
        g.check_periodicity(points=50, tol=1e-12)
        for x in [0.3, 1.7, 9.0]:
            a, b = g.evaluate(x), g.evaluate(p.q * x)
            assert abs(a - b) < 1e-12

    def test_callable_mode_rejects_aperiodic(self):
        p = golden_pair(3, -2, backend="float")
        g = QPeriodic.periodic(p, lambda y: float(y))
        with pytest.raises(NonQPeriodicInitial):
            g.check_periodicity()

    def test_callable_needs_float_backend(self):
        with pytest.raises(NonQPeriodicInitial):
            QPeriodic.periodic(P32, lambda y: 1.0)

    def test_callable_needs_q_in_the_unit_interval(self):
        p = golden_pair(1, 2, backend="float")  # q = -1/2
        with pytest.raises(QOutOfRange):
            QPeriodic.periodic(p, lambda y: 1.0)

    @pytest.mark.parametrize("x", [0, -1])
    def test_callable_needs_positive_x(self, x):
        g = QPeriodic.periodic(golden_pair(3, -2, backend="float"), lambda y: 1.0)
        with pytest.raises(ZeroPoint):
            g.evaluate(x)

    def test_callable_refuses_a_complex_q(self):
        # at (1, -2) q is complex, so it has no place in 0 < q < 1
        with pytest.raises(BackendMismatch, match="complex value"):
            QPeriodic.periodic(golden_pair(1, -2, backend="float"), lambda y: 1.0)

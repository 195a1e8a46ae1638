"""Truncated formal power series over a Params scalar field.

A Series holds monomial-basis coefficients c_0..c_N (value sum c_n x^n);
the factorial basis f_n/{n}! that the composition machinery of the theory
uses is applied inside the composition operations themselves, so plain
arithmetic stays basis-free.  Arithmetic closes at the minimum of the
operand orders and multiplication truncates there.

The derivative here is the divided difference

    (D f)(x) = (f(phi x) - f(phi' x)) / ((phi - phi') x),

whose action on coefficients is (D f)_n = {n+1} c_{n+1}.  Its kernel, for
functions rather than series, is the ring of q-periodic functions
f(y) = f(q y), modelled by QPeriodic below.

Symbolic powers f^[k] are defined by f^[0] = 1, f^[k](0) = 0 and
D f^[k] = {k} f^[k-1] D f; they are what makes composition (and hence
integration factors) compatible with D.

A float Series is a list of mpf coefficients, a rational one a list of
integer blocks (start, D, numerators), coefficient start + i being
numerators[i] / D unreduced.  Each D is a multiple of the ones before it,
and a block ends where D's bit length has doubled: the denominators grow
like phi^(n^2/2), too fast for one D per series (FLINT's fmpq_poly).  Sums,
scalar products, ``scale``, ``st_derive``, ``st_antiderive`` and equality
run on these integers with one common-D test per pair of blocks; a zero
is a block of zero numerators, and ``coeffs`` reduces on its first read.
Products, antiderivatives and compositions divide each block by the gcd
of its D and numerators, so D's grow no more than the values.  A rational
product is one Kronecker substitution (Harvey, J. Symbolic Comput. 2009)
per pair of blocks, and ``eval`` one integer Horner sum per block over a
single division, reducing no coefficient.  The float product (the term
loop in the order of the left operand's index) and Horner loop run on raw
libmp values with the calls, order and rounding of mpf's operators, so
each float result is bit for bit that of the full O(N^2) loop on mpf
objects.

Rational quotients of order 20 and more (``_NEWTON_ORDER``) are built from
products alone, so they run on the same integer kernel: Newton iteration
takes 1/g to order N/2 by doubling (Brent and Kung, J. ACM 1978), and one
last step on the quotient itself gives f/g to order N (Karp and Markstein,
ACM TOMS 1997).  The result is the same exact value as the recurrence
q_k = (f_k - sum_{j<k} q_j g_{k-j}) / g_0, which smaller rational quotients
and every float quotient run: one loop (``_quotient``) in the ``Arith`` of
the coefficients, on raw libmp values for mpf ones, so float rounding does
not change.

Every series sum_n f_0 ... f_{n-1} g_n x^n / {n}! of a factor stream f
(the special functions, the weights of a composition, the deformed
integrand of ``sq_int``) is built by ``factorial_series``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from operator import truediv
from typing import Callable, Iterable, Sequence

from mpmath.libmp import fzero, mpf_add, mpf_mul

from ._stable import arith_of, delay_factors, powers, weights
from .errors import (
    NonInvertibleSeries,
    NonQPeriodicInitial,
    NonzeroConstantTerm,
    ParamsMismatch,
    QOutOfRange,
    ZeroPoint,
)
from .stnum import Params, nonnegative, st_divisors, st_number_range

DEFAULT_ORDER = 32


class Series:
    """Coefficients c_0..c_N over a fixed Params; immutable by convention.
    ``Series(params, coeffs)`` reads outside values through ``params.wrap``;
    every kernel below builds its result with ``Series._made``."""

    __slots__ = ("params", "_coeffs", "_blocks")

    def __init__(self, params: Params, coeffs: Sequence):
        self.params = params
        wrapped = [params.wrap(c) for c in coeffs]
        self._coeffs = wrapped if wrapped else [params.zero()]
        self._blocks = None

    @classmethod
    def _made(cls, params: Params, coeffs: list | None = None,
              blocks: list | None = None) -> "Series":
        """A Series of backend scalars or of integer blocks, taken as they are."""
        out = cls.__new__(cls)
        out.params, out._coeffs, out._blocks = params, coeffs, blocks
        return out

    @property
    def coeffs(self) -> list:
        """c_0..c_N; on the rational backend reduced here, on the first read."""
        if self._coeffs is None:
            self._coeffs = [Fraction(x, d) for _, d, xs in self._blocks for x in xs]
        return self._coeffs

    @property
    def blocks(self) -> list[tuple[int, int, list[int]]]:
        """The rational coefficients as integer blocks (start, D, numerators)."""
        if self._blocks is None:
            self._blocks = _coalesced((i, c.denominator, [c.numerator])
                                      for i, c in enumerate(self._coeffs))
        return self._blocks

    def _head(self):
        """c_0, the other coefficients left unreduced."""
        if self._coeffs is None:
            return Fraction(self._blocks[0][2][0], self._blocks[0][1])
        return self._coeffs[0]

    def _nonzero(self) -> bool:
        if self._coeffs is None:
            return any(x for _, _, xs in self._blocks for x in xs)
        return any(c != 0 for c in self._coeffs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, params: Params, value, order: int = 0) -> "Series":
        return cls._made(params, [params.wrap(value)] + [params.zero()] * order)

    @classmethod
    def zero(cls, params: Params, order: int = 0) -> "Series":
        return cls.constant(params, 0, order)

    @classmethod
    def one(cls, params: Params, order: int = 0) -> "Series":
        return cls.constant(params, 1, order)

    @classmethod
    def identity(cls, params: Params, order: int = DEFAULT_ORDER) -> "Series":
        """The series x."""
        return cls.monomial(params, 1, order=order)

    @classmethod
    def monomial(cls, params: Params, k: int, coeff=1, order: int | None = None) -> "Series":
        order = k if order is None else max(order, k)
        c = [params.zero()] * (order + 1)
        c[k] = params.wrap(coeff)
        return cls._made(params, c)

    # -- bookkeeping ---------------------------------------------------------

    @property
    def order(self) -> int:
        if self._coeffs is None:
            return self._blocks[-1][0] + len(self._blocks[-1][2]) - 1
        return len(self._coeffs) - 1

    def truncated(self, order: int) -> "Series":
        if order < 0:
            return Series.zero(self.params)
        coeffs, blocks = self._coeffs, self._blocks
        return Series._made(self.params, coeffs and coeffs[:order + 1],
                            blocks and _window(blocks, 0, order + 1))

    def padded(self, order: int) -> "Series":
        extra = order - self.order
        if extra <= 0:
            return self
        if self._coeffs is not None:
            return Series._made(self.params, self._coeffs + [self.params.zero()] * extra)
        *head, (start, d, xs) = self._blocks
        return Series._made(self.params, blocks=head + [(start, d, xs + [0] * extra)])

    def _check(self, other: "Series"):
        if self.params != other.params:
            raise ParamsMismatch("operands carry different Params")

    def __repr__(self):
        shown = ", ".join(self.params.to_str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"Series(order={self.order}, [{shown}{tail}])"

    # -- arithmetic: closes at min(orders) ----------------------------------

    def __add__(self, other):
        if not isinstance(other, Series):
            return self + Series.constant(self.params, other, self.order)
        self._check(other)
        n = min(self.order, other.order)
        if self.params.rational:
            return Series._made(self.params, blocks=_block_sum(self.blocks, other.blocks, n))
        return Series._made(self.params,
                            [self.coeffs[i] + other.coeffs[i] for i in range(n + 1)])

    __radd__ = __add__

    def __neg__(self):
        if self.params.rational:
            return Series._made(self.params, blocks=[(s, d, [-x for x in xs])
                                                     for s, d, xs in self.blocks])
        return Series._made(self.params, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, Series) else -self.params.wrap(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Series):
            w = self.params.wrap(other)
            if self.params.rational:
                return Series._made(self.params, blocks=_scaled(self.blocks, w))
            return Series._made(self.params, [c * w for c in self.coeffs])
        self._check(other)
        n = min(self.order, other.order)
        if self.params.rational:
            return Series._made(self.params, blocks=_kronecker_product(
                _window(self.blocks, 0, n + 1), _window(other.blocks, 0, n + 1), n))
        return Series._made(self.params, _float_product(self.coeffs, other.coeffs, n,
                                                        self.params.ctx))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Series):
            return self * (1 / self.params.wrap(other))
        self._check(other)
        if other._head() == 0:
            raise NonInvertibleSeries("division needs an invertible constant term")
        n = min(self.order, other.order)
        if self.params.rational and n >= _NEWTON_ORDER:
            return _newton_quotient(self, other, n)
        return Series._made(self.params, _quotient(self.coeffs[:n + 1], other.coeffs[:n + 1]))

    def __rtruediv__(self, other):
        return Series.constant(self.params, other, self.order) / self

    # -- values and comparison -------------------------------------------

    def eval(self, x):
        """The truncated polynomial at x: a Horner loop on raw libmp values
        (the rounding of ``acc * x + c`` on mpf objects), or one integer
        Horner sum per rational block, no coefficient reduced."""
        x = self.params.wrap(x)
        if self.params.rational:
            return _block_value(self.blocks, x)
        prec, rnd = self.params.ctx._prec_rounding
        acc, x = fzero, x._mpf_
        for c in reversed(self.coeffs):
            acc = mpf_add(mpf_mul(acc, x, prec, rnd), c._mpf_, prec, rnd)
        return self.params.ctx.make_mpf(acc)

    def __call__(self, x):
        return self.eval(x)

    def equals(self, other: "Series") -> bool:
        self._check(other)
        n = max(self.order, other.order)
        a, b = self.padded(n), other.padded(n)
        if self.params.rational:
            return (a - b).max_abs_coeff() == 0  # no coefficient reduced
        return all(self.params.eq(x, y) for x, y in zip(a.coeffs, b.coeffs))

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.equals(other)

    __hash__ = None

    def max_abs_coeff(self):
        if self._coeffs is None:  # the largest numerator of each block, reduced
            return max(Fraction(max(map(abs, xs)), d) for _, d, xs in self._blocks)
        return max(abs(c) for c in self.coeffs)


# -- the integer blocks ---------------------------------------------------------

# The smallest denominator a block grows from, in bits, so the first
# coefficients (denominators of a few bits) do not each open a block.
_BLOCK_BITS = 128


def _lcm(a: int, b: int) -> int:
    """lcm(a, b) for a, b > 0; equal or dividing arguments cost no gcd."""
    return a if a % b == 0 else b if b % a == 0 else a // math.gcd(a, b) * b


def _coalesced(pieces) -> list[tuple[int, int, list[int]]]:
    """Blocks (start, D, numerators) of contiguous pieces (start, d, xs) that
    hold the values xs / d.  D is the lcm of every d up to the block's end,
    so each block's D is a multiple of the ones before it, and a piece's
    leading zeros take no d.  A block ends where D's bit length would pass
    twice what it was where the block began."""
    blocks, run, den, limit = [], [], 1, 2 * _BLOCK_BITS
    for s, d, xs in pieces:
        zeros = next((i for i, x in enumerate(xs) if x), len(xs))
        for piece in ((s, 1, xs[:zeros]), (s + zeros, d, xs[zeros:])) if zeros else [(s, d, xs)]:
            if not piece[2]:
                continue
            if den % piece[1]:
                grown = _lcm(den, piece[1])
                if grown.bit_length() > limit and run:
                    blocks.append(_lifted(run, den))
                    run, limit = [], 2 * max(den.bit_length(), _BLOCK_BITS)
                den = grown
            run.append(piece)
    blocks.append(_lifted(run, den))
    return blocks


def _lifted(run, den: int) -> tuple[int, int, list[int]]:
    nums = []
    for _, d, xs in run:
        nums += xs if d == den else [x * m for m in (den // d,) for x in xs]
    return run[0][0], den, nums


def _window(blocks, lo: int, hi: int) -> list:
    """The blocks of the coefficients lo..hi-1, re-indexed from 0."""
    return [(max(s - lo, 0), d, xs[max(lo - s, 0):hi - s]) for s, d, xs in blocks
            if s < hi and s + len(xs) > lo]


def _block_sum(a, b, n: int) -> list:
    """a + b up to x^n, each pair of overlapping blocks over the lcm of their D's."""
    out, k, i, j = [], 0, 0, 0
    while k <= n:
        (sa, da, xs), (sb, db, ys) = a[i], b[j]
        e = min(sa + len(xs), sb + len(ys), n + 1)
        d = _lcm(da, db)
        ma, mb = d // da, d // db
        out.append((k, d, [x * ma + y * mb for x, y in zip(xs[k - sa:e - sa],
                                                            ys[k - sb:e - sb])]))
        i, j, k = i + (e == sa + len(xs)), j + (e == sb + len(ys)), e
    return _coalesced(out)


def _scaled(blocks, w: Fraction) -> list:
    """w times the blocks; the gcd of D and w's numerator leaves D."""
    p, q = w.numerator, w.denominator if w else 1
    return [(s, d // g * q, [x * (p // g) for x in xs])
            for s, d, xs in blocks for g in (math.gcd(d, p),)]


def _times(blocks, fs: Sequence) -> list:
    """c_n f_n, one Fraction f_n per index; D gains the lcm of its f's denominators."""
    out = []
    for s, d, xs in blocks:
        part, den = fs[s:s + len(xs)], 1
        for f in part:
            den = _lcm(den, f.denominator)
        out.append((s, d * den, [x * f.numerator * (den // f.denominator)
                                 for x, f in zip(xs, part)]))
    return _coalesced(out)


def _block_value(blocks, x: Fraction) -> Fraction:
    """sum_n c_n x^n at x = p/q on integers: block (start, D, xs) adds
    h p^start / (D q^(start+L-1)), h = sum_i xs_i p^i q^(L-1-i) by Horner.
    Each D divides the last, so the sum is one numerator over D_last q^N."""
    p, q = x.numerator, x.denominator
    top, den = blocks[-1][0] + len(blocks[-1][2]) - 1, blocks[-1][1]
    num = 0
    for s, d, xs in blocks:
        h, qk = 0, 1
        for c in reversed(xs):
            h, qk = h * p + c * qk, qk * q
        num += h * p ** s * (den // d) * q ** (top + 1 - s - len(xs))
    return Fraction(num, den * q ** top)


def _reduced(blocks) -> list:
    """Each block over D / gcd(D, numerators), the largest-indexed first."""
    return _coalesced([(s, d, xs) if g == 1 else (s, d // g, [x // g for x in xs])
                       for s, d, xs in blocks for g in (math.gcd(d, *reversed(xs)),)])


# -- the product kernels ----------------------------------------------------


def _float_product(a, b, n: int, ctx) -> list:
    """sum a_i b_j x^(i+j) up to x^n over the nonzero terms of both mpf
    operands, on their raw libmp values at the context's precision.
    Each output coefficient adds its terms in the order of the left index i,
    and a skipped term is an exact zero, so float rounding is that of the
    full O(n^2) loop on mpf objects."""
    prec, rnd = ctx._prec_rounding
    right = [(j, y._mpf_) for j, y in enumerate(b[:n + 1]) if y]
    out = [fzero] * (n + 1)
    for i, x in enumerate(a[:n + 1]):
        if not x:
            continue
        x = x._mpf_
        for j, y in right:
            if i + j > n:
                break
            out[i + j] = mpf_add(out[i + j], mpf_mul(x, y, prec, rnd), prec, rnd)
    return list(map(ctx.make_mpf, out))


def _quotient(f: list, g: list) -> list:
    """q_k = (f_k - sum_{j<k} q_j g_{k-j}) (1/g_0) for k < len(f), in the
    ``Arith`` of the coefficients: each sum in the order of j, on raw libmp
    values rounded as mpf's operators round for mpf coefficients."""
    ar = arith_of(*f, *g)
    minus, times, prec, rnd = ar.sub, ar.mul, ar.prec, ar.rnd
    inv0, g = ar.operand(1 / g[0]), list(map(ar.operand, g))
    out = []
    for k, acc in enumerate(map(ar.operand, f)):
        for j in range(k):
            acc = minus(acc, times(out[j], g[k - j], prec, rnd), prec, rnd)
        out.append(times(acc, inv0, prec, rnd))
    return list(map(ar.made, out))


def _kronecker_low(xs: list[int], ys: list[int], m: int) -> list[int]:
    """The first min(m, len(xs) + len(ys) - 1) coefficients of the product
    of two integer polynomials, by Kronecker substitution: both are
    evaluated at 2^(8 width), with width bytes enough for any product
    coefficient, multiplied as one big integer and read back slot by slot.
    Biasing each slot by half its range keeps the slots nonnegative, so
    packing and unpacking are linear-time bytes joins and slices."""
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


def _kronecker_product(A, B, n: int) -> list:
    """The blocks of the product of two block lists up to x^n.

    Every pair of blocks that reaches an index <= n is one Kronecker
    product.  Output k is accumulated over D_p D_q of the blocks that hold
    index k in each operand, which every contributing pair's denominators
    divide, since each D divides the next; each run of indices with the
    same (p, q) is one output block, then reduced (``_reduced``)."""
    at_a = [p for p, (_, _, xs) in enumerate(A) for _ in xs]
    at_b = [q for q, (_, _, ys) in enumerate(B) for _ in ys]
    acc = [0] * (n + 1)
    for sa, da, xs in A:
        for sb, db, ys in B:
            if sa + sb > n:
                break
            lift = {}  # (p, q) of the output's blocks -> D_p D_q / (da db)
            for k, v in enumerate(_kronecker_low(xs, ys, n + 1 - sa - sb), sa + sb):
                if v:
                    key = (at_a[k], at_b[k])
                    if key not in lift:
                        lift[key] = A[key[0]][1] // da * (B[key[1]][1] // db)
                    acc[k] += v * lift[key]
    out, start = [], 0
    for k in range(1, n + 2):
        if k > n or (at_a[k], at_b[k]) != (at_a[start], at_b[start]):
            out.append((start, A[at_a[start]][1] * B[at_b[start]][1], acc[start:k]))
            start = k
    return _reduced(out)


# -- the quotient kernel ------------------------------------------------------

# From this order on, a rational quotient is built from products; below it
# the recurrence is faster (E(2, 1/2; x, 1/3) / exp(x, -1/2) on the pairs
# (3,-2), (4,-3), (2,3): the recurrence wins at 16, Newton iteration at 20).
_NEWTON_ORDER = 20


def _newton_quotient(f: Series, g: Series, n: int) -> Series:
    """f/g up to x^n from Series products alone: Newton steps
    inv <- inv (2 - g inv) take 1/g from x^k to x^(2k+1) until x^h,
    h = n // 2; then q0 = f inv up to x^h, and the remainder f - g q0,
    which vanishes below x^(h+1), gives the rest of the quotient as one
    product of order n - h - 1."""
    h = n // 2
    inv = Series._made(g.params, [1 / g._head()])
    while inv.order < h:
        inv = inv.padded(min(2 * inv.order + 1, h))
        inv = inv * (2 - g * inv)
    q0 = f.truncated(h) * inv
    r = f - g * q0.padded(n)
    tail = inv.truncated(n - h - 1) * Series._made(f.params, blocks=_window(r.blocks, h + 1, n + 1))
    return Series._made(f.params, blocks=_coalesced(q0.blocks + [(s + h + 1, d, xs)
                                                                  for s, d, xs in tail.blocks]))


# -- calculus -----------------------------------------------------------


def st_derive(f: Series) -> Series:
    """(D f)_n = {n+1} c_{n+1}; the constant series maps to the zero series."""
    if f.order == 0:
        return Series.zero(f.params)
    nums = st_number_range(f.params, f.order)
    if f.params.rational:
        return Series._made(f.params, blocks=_times(_window(f.blocks, 1, f.order + 1), nums[1:]))
    return Series._made(f.params, [nums[n + 1] * f.coeffs[n + 1] for n in range(f.order)])


def st_antiderive(f: Series) -> Series:
    """The antiderivative F with F(0) = 0: F_n = c_{n-1} / {n}."""
    nums = st_divisors(f.params, f.order + 1)
    if f.params.rational:  # reduced: dividing by {n} often cancels (symbolic powers)
        blocks = _reduced(_times(f.blocks, [1 / nums[n + 1] for n in range(f.order + 1)]))
        return Series._made(f.params, blocks=[(0, 1, [0])] + [(s + 1, d, xs)
                                                              for s, d, xs in blocks])
    return Series._made(f.params, [f.params.zero()] + [f.coeffs[n] / nums[n + 1]
                                                        for n in range(f.order + 1)])


def scale(f: Series, u) -> Series:
    """(T_u f)(x) = f(u x): multiplies c_n by u^n."""
    u = f.params.wrap(u)
    if f.params.rational:
        return Series._made(f.params, blocks=_times(f.blocks, list(islice(powers(u), f.order + 1))))
    return Series._made(f.params, [c * p for c, p in zip(f.coeffs, powers(u))])


def st_derive_at(f: Callable, x, params: Params):
    """Divided difference (f(phi x) - f(phi' x)) / ((phi - phi') x) at x != 0."""
    x = params.wrap(x)
    if x == 0:
        raise ZeroPoint("the divided difference needs x != 0; use a Series for x = 0")
    return (f(params.phi * x) - f(params.phi_prime * x)) / ((params.phi - params.phi_prime) * x)


def q_derive_at(f: Callable, y, params: Params):
    """The q-derivative (f(y) - f(q y)) / ((1 - q) y); equals st_derive_at at y/phi."""
    y = params.wrap(y)
    if y == 0:
        raise ZeroPoint("the q-derivative needs y != 0")
    return (f(y) - f(params.q * y)) / ((1 - params.q) * y)


# -- symbolic powers and deformed composition ----------------------------


def symbolic_powers(f: Series, kmax: int) -> list[Series]:
    """[f^[0], ..., f^[kmax]] computed bottom-up.

    f^[k] is pinned down by f^[k](0) = 0 and D f^[k] = {k} f^[k-1] D f, so
    each step is one multiplication and one coefficient integration.  A
    power that vanishes under truncation makes every later one vanish, so
    those are the same zero series, with no product.
    """
    if kmax >= 1 and f._head() != 0:
        raise NonzeroConstantTerm("symbolic powers need f(0) = 0")
    powers = [Series.one(f.params, f.order)]
    if kmax == 0:
        return powers
    nums = st_number_range(f.params, kmax)
    df = st_derive(f)
    for k in range(1, kmax + 1):
        prev = powers[-1]
        if prev._nonzero():
            prev = st_antiderive((prev * df) * nums[k]).truncated(f.order)
        powers.append(prev)
    return powers


def symbolic_power(f: Series, k: int) -> Series:
    return symbolic_powers(f, k)[k]


def factorial_series(params: Params, factors, N: int, g: Iterable | None = None) -> Series:
    """sum_n w_n g_n x^n / {n}! to x^N: w_n = f_0 ... f_{n-1} are the prefix
    products of the factor stream, and g_n = 1 when g is None.  Exact
    coefficients are c_0 = 1, c_{n+1} = c_n f_n / {n+1} (each step has one
    small operand), times g_n; float ones are (w_n g_n) / {n}!, rounded in
    that order.  An order below 0 raises IndexOutOfRange."""
    nums = st_divisors(params, nonnegative(N, "order N"))
    if params.rational:
        factors = map(truediv, factors, nums[1:])
    c = weights(factors, N, params.one())
    if g is not None:
        c = [cn * params.wrap(gn) for cn, gn in zip(c, g)]
    if not params.rational:
        c = list(map(truediv, c, weights(nums[1:], N, params.one())))
    return Series._made(params, c or [params.zero()])


def _powers_for(g_coeffs: Sequence, f: Series) -> list[Series]:
    """The symbolic-power table a composition of g with f needs: f^[n] for
    n up to min(len(g) - 1, f's order)."""
    if f._head() != 0:
        raise NonzeroConstantTerm("composition needs f(0) = 0")
    return symbolic_powers(f, max(min(len(g_coeffs) - 1, f.order), 0))


def _composition(g_coeffs: Sequence, factors, sym: list[Series]) -> Series:
    """sum_n w_n g_n f^[n] / {n}! over a symbolic-power table
    sym = [f^[0], ..., f^[K]], truncated at f's order, w_n the prefix
    products of the factor stream.  One table serves every g and every
    factor stream composed with the same f."""
    p = sym[0].params
    n_top = min(len(g_coeffs), len(sym)) - 1
    c = factorial_series(p, factors, max(n_top, 0), g_coeffs).coeffs
    acc = Series.zero(p, sym[0].order)
    for n in range(n_top + 1):
        if c[n] != 0:
            acc = acc + sym[n] * c[n]
    if p.rational:  # the {n}! of the c_n cancel in the sum
        return Series._made(p, blocks=_reduced(acc.blocks))
    return acc


def compose_deformed(g_coeffs: Sequence, u, f: Series) -> Series:
    """The u-deformed composition g[f, u] = sum u^C(n,2) g_n f^[n] / {n}!,
    which is compose_ab at (a, b) = (0, 1).

    g_coeffs are the factorial-basis coefficients g_n of g.
    """
    return _composition(g_coeffs, powers(f.params.wrap(u)), _powers_for(g_coeffs, f))


def compose_ab(g_coeffs: Sequence, spec, f: Series) -> Series:
    """The (1,u)-deformed composition g[a, b; f, u] with weights (a (+) b)^n_{1,u}.

    ``spec`` carries the delay triple (a, b, u).
    """
    p = f.params
    factors = delay_factors(p.wrap(spec.a), p.wrap(spec.b), p.wrap(spec.u))
    return _composition(g_coeffs, factors, _powers_for(g_coeffs, f))


def sq_int(f, lower: Series, upper: Series, u=None) -> Series:
    """The square-bracket integral: integrate f termwise, then take the
    symbolic-power difference of the bounds,

        sum_m a_m (upper^[m+1] - lower^[m+1]) / {m+1}.

    ``f`` is either a Series (monomial coefficients a_m, u ignored) or a
    factorial-basis coefficient sequence, deformed by u: a_m = u^C(m,2) f_m/{m}!.
    """
    lower._check(upper)
    params = lower.params
    if lower._head() != 0 or upper._head() != 0:
        raise NonzeroConstantTerm("sq_int bounds must vanish at 0")
    order = min(lower.order, upper.order)
    if isinstance(f, Series):
        lower._check(f)
        a = list(f.coeffs)
    else:
        if u is None:
            raise NonzeroConstantTerm("coefficient-sequence integrand needs the deformation u")
        a = factorial_series(params, powers(params.wrap(u)), max(len(f) - 1, 0), f).coeffs
    m_top = min(len(a) - 1, order - 1)
    low_pows = symbolic_powers(lower, m_top + 1)
    up_pows = symbolic_powers(upper, m_top + 1)
    nums = st_number_range(params, m_top + 2)
    acc = Series.zero(params, order)
    for m in range(m_top + 1):
        if a[m] == 0:
            continue
        acc = acc + (up_pows[m + 1] - low_pows[m + 1]) * (a[m] / nums[m + 1])
    return acc


# -- q-periodic initial data ----------------------------------------------


class QPeriodic:
    """An element of the kernel of D: f with f(y) = f(q y).

    Either a constant, or G(log_q x) for a user callable G of period one.
    The callable form needs the float backend and 0 < q < 1; negative q
    would need a complex logarithm, which is out of scope here.
    """

    __slots__ = ("params", "_value", "_g")

    def __init__(self, params: Params, value=None, g: Callable | None = None):
        self.params = params
        self._value = params.wrap(value) if value is not None else None
        self._g = g
        if g is not None:
            if params.rational:
                raise NonQPeriodicInitial(
                    "callable q-periodic data needs the float backend (log_q x)")
            if not (0 < params.q < 1):
                raise QOutOfRange("callable q-periodic data needs 0 < q < 1")

    @classmethod
    def constant(cls, params: Params, value) -> "QPeriodic":
        return cls(params, value=value)

    @classmethod
    def periodic(cls, params: Params, g: Callable) -> "QPeriodic":
        return cls(params, g=g)

    @property
    def is_constant(self) -> bool:
        return self._g is None

    def evaluate(self, x):
        if self._g is None:
            return self._value
        x = self.params.wrap(x)
        if x <= 0:
            raise ZeroPoint("G(log_q x) needs x > 0")
        return self.params.wrap(self._g(self.params.log(x) / self.params.log(self.params.q)))

    def check_periodicity(self, points: int = 50, tol: float = 1e-10):
        """Verify evaluate(x) = evaluate(q x) on a log grid; raises if not."""
        if self._g is None:
            return
        ctx = self.params.ctx
        for i in range(points):
            x = ctx.mpf(10) ** (ctx.mpf(2 * i) / (points - 1) - 1)
            a, b = self.evaluate(x), self.evaluate(self.params.q * x)
            if abs(a - b) > tol * max(1, abs(a)):
                raise NonQPeriodicInitial(
                    f"initial datum is not q-periodic at x = {ctx.nstr(x, 6)}")

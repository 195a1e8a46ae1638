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

Products are computed in two ways.  On the rational backend, two dense
operands are multiplied on integers: each is split into contiguous blocks
scaled to integers over their own common denominator (a block ends where
that denominator's bit length has doubled), every pair of blocks that
reaches an index <= N is one big-integer product by Kronecker substitution
(Harvey, J. Symbolic Comput. 2009), and each output coefficient is
accumulated over one denominator and reduced once.  The pantograph
coefficients' denominators grow like phi^(n^2/2), which is why one
denominator for a whole operand would not do.  An operand with at most
three nonzero terms, and every float product, take the term loop over the
nonzero terms instead; the float loop adds in the order of the left
operand's index, so its rounding is that of the full O(N^2) loop.

Rational quotients of order 20 and more (``_NEWTON_ORDER``) are built from
products alone, so they run on the same integer kernel: Newton iteration
takes 1/g to order N/2 by doubling (Brent and Kung, J. ACM 1978), and one
last step on the quotient itself gives f/g to order N (Karp and Markstein,
ACM TOMS 1997).  The result is the same exact Fraction as the recurrence
q_k = (f_k - sum_{j<k} q_j g_{k-j}) / g_0, which smaller rational quotients
and every float quotient keep, so float rounding does not change.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

from ._stable import delay_factors, powers, weights
from .errors import (
    NonInvertibleSeries,
    NonQPeriodicInitial,
    NonzeroConstantTerm,
    ParamsMismatch,
    QOutOfRange,
    ZeroPoint,
)
from .stnum import Params, st_number_range

DEFAULT_ORDER = 32


class Series:
    """Coefficients c_0..c_N over a fixed Params; immutable by convention."""

    __slots__ = ("params", "coeffs")

    def __init__(self, params: Params, coeffs: Sequence):
        self.params = params
        wrapped = [params.wrap(c) for c in coeffs]
        self.coeffs = wrapped if wrapped else [params.zero()]

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, params: Params, value, order: int = 0) -> "Series":
        c = [params.wrap(value)] + [params.zero()] * order
        return cls(params, c)

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
        return cls(params, c)

    # -- bookkeeping ---------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def truncated(self, order: int) -> "Series":
        return Series(self.params, self.coeffs[:order + 1])

    def padded(self, order: int) -> "Series":
        if order <= self.order:
            return self
        return Series(self.params, list(self.coeffs) + [self.params.zero()] * (order - self.order))

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
            c = list(self.coeffs)
            c[0] = c[0] + self.params.wrap(other)
            return Series(self.params, c)
        self._check(other)
        n = min(self.order, other.order)
        return Series(self.params,
                      [self.coeffs[i] + other.coeffs[i] for i in range(n + 1)])

    __radd__ = __add__

    def __neg__(self):
        return Series(self.params, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, Series) else -self.params.wrap(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Series):
            w = self.params.wrap(other)
            return Series(self.params, [c * w for c in self.coeffs])
        self._check(other)
        n = min(self.order, other.order)
        a, b = self.coeffs[:n + 1], other.coeffs[:n + 1]
        if self.params.rational:
            terms_a, terms_b = _nonzeros(a), _nonzeros(b)
            if min(terms_a, terms_b) > _TERM_LOOP_TERMS:
                return Series(self.params, _kronecker_product(a, b, n))
            if terms_a > terms_b:  # exact, so the sparser operand may lead
                a, b = b, a
        return Series(self.params, _term_product(a, b, n, self.params.zero()))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Series):
            return self * (1 / self.params.wrap(other))
        self._check(other)
        if other.coeffs[0] == 0:
            raise NonInvertibleSeries("division needs an invertible constant term")
        n = min(self.order, other.order)
        if self.params.rational and n >= _NEWTON_ORDER:
            return _newton_quotient(self, other, n)
        inv0 = 1 / other.coeffs[0]
        out = []
        for k in range(n + 1):
            acc = self.coeffs[k]
            for j in range(k):
                acc -= out[j] * other.coeffs[k - j]
            out.append(acc * inv0)
        return Series(self.params, out)

    def __rtruediv__(self, other):
        return Series.constant(self.params, other, self.order) / self

    # -- values and comparison -------------------------------------------

    def eval(self, x):
        """Horner evaluation of the truncated polynomial."""
        x = self.params.wrap(x)
        acc = self.params.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __call__(self, x):
        return self.eval(x)

    def equals(self, other: "Series", tol: float | None = None) -> bool:
        self._check(other)
        n = max(self.order, other.order)
        a, b = self.padded(n), other.padded(n)
        return all(self.params.eq(x, y, tol) for x, y in zip(a.coeffs, b.coeffs))

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.equals(other)

    __hash__ = None

    def max_abs_coeff(self):
        return max(abs(c) for c in self.coeffs)


# -- the product kernels ----------------------------------------------------

# A rational operand with at most this many nonzero terms (a constant, x,
# a quadratic) is multiplied term by term: the integer path would reduce
# every output coefficient over a full-size denominator for a few products.
_TERM_LOOP_TERMS = 3
# The smallest denominator a block grows from, in bits, so the first
# coefficients (denominators of a few bits) do not each open a block.
_BLOCK_BITS = 128


def _nonzeros(coeffs) -> int:
    return sum(1 for c in coeffs if c != 0)


def _term_product(a, b, n: int, zero) -> list:
    """sum a_i b_j x^(i+j) up to x^n over the nonzero terms of both operands.
    Each output coefficient adds its terms in the order of the left index i,
    and a skipped term is an exact zero, so float rounding is that of the
    full O(n^2) loop."""
    right = [(j, y) for j, y in enumerate(b) if y != 0]
    out = [zero] * (n + 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in right:
            if i + j > n:
                break
            out[i + j] += x * y
    return out


def _integer_blocks(coeffs) -> list[tuple[int, int, list[int]]]:
    """Contiguous blocks (start, D, numerators) of a Fraction list, each
    scaled to integers c * D.  D is the lcm of every denominator up to the
    block's end, so each block's D is a multiple of the ones before it.  A
    block ends where D's bit length would pass twice what it was where the
    block began."""
    bounds, den, start, limit = [], 1, 0, 2 * _BLOCK_BITS
    for i, c in enumerate(coeffs):
        d = c.denominator
        if den % d:
            grown = den // math.gcd(den, d) * d
            if grown.bit_length() > limit and i > start:
                bounds.append((start, den))
                start, limit = i, 2 * max(den.bit_length(), _BLOCK_BITS)
            den = grown
    bounds.append((start, den))
    ends = [s for s, _ in bounds[1:]] + [len(coeffs)]
    return [(s, D, [c.numerator * (D // c.denominator) for c in coeffs[s:e]])
            for (s, D), e in zip(bounds, ends)]


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


def _kronecker_product(a, b, n: int) -> list[Fraction]:
    """The exact product of two Fraction coefficient lists up to x^n.

    Every pair of integer blocks that reaches an index <= n is one
    Kronecker product.  Output k is accumulated over D_p D_q of the blocks
    that hold index k in each operand, which every contributing pair's
    denominators divide, and reduced once."""
    A, B = _integer_blocks(a), _integer_blocks(b)
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
    return [Fraction(acc[k], A[at_a[k]][1] * B[at_b[k]][1]) for k in range(n + 1)]


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
    inv = Series(g.params, [1 / g.coeffs[0]])
    while inv.order < h:
        inv = inv.padded(min(2 * inv.order + 1, h))
        inv = inv * (2 - g * inv)
    q0 = f.truncated(h) * inv
    r = f - g * q0.padded(n)
    tail = inv.truncated(n - h - 1) * Series(f.params, r.coeffs[h + 1:])
    return Series(f.params, q0.coeffs + tail.coeffs)


# -- calculus -----------------------------------------------------------


def st_derive(f: Series) -> Series:
    """(D f)_n = {n+1} c_{n+1}; the constant series maps to the zero series."""
    return _derive(f, st_number_range(f.params, f.order))


def st_antiderive(f: Series) -> Series:
    """The antiderivative F with F(0) = 0: F_n = c_{n-1} / {n}."""
    return _antiderive(f, st_number_range(f.params, f.order + 1))


def _derive(f: Series, nums: list) -> Series:
    """st_derive over nums = [{0}, {1}, ...] up to at least {f.order}."""
    if f.order == 0:
        return Series.zero(f.params)
    return Series(f.params, [nums[n + 1] * f.coeffs[n + 1] for n in range(f.order)])


def _antiderive(f: Series, nums: list) -> Series:
    """st_antiderive over nums = [{0}, {1}, ...] up to at least {f.order + 1}."""
    out = [f.params.zero()]
    out.extend(f.coeffs[n] / nums[n + 1] for n in range(f.order + 1))
    return Series(f.params, out)


def scale(f: Series, u) -> Series:
    """(T_u f)(x) = f(u x): multiplies c_n by u^n."""
    return Series(f.params, [c * p for c, p in zip(f.coeffs, powers(f.params.wrap(u)))])


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
    those are the same zero series, with no product.  The memo list and
    the {n} table are local to this call.
    """
    if kmax >= 1 and f.coeffs[0] != 0:
        raise NonzeroConstantTerm("symbolic powers need f(0) = 0")
    powers = [Series.one(f.params, f.order)]
    if kmax == 0:
        return powers
    nums = st_number_range(f.params, max(kmax, f.order + 1))
    df = _derive(f, nums)
    for k in range(1, kmax + 1):
        prev = powers[-1]
        if any(c != 0 for c in prev.coeffs):
            prev = _antiderive((prev * df) * nums[k], nums).truncated(f.order)
        powers.append(prev)
    return powers


def symbolic_power(f: Series, k: int) -> Series:
    return symbolic_powers(f, k)[k]


def factorial_series(params: Params, w: Sequence) -> Series:
    """The series sum w_n x^n / {n}! of a weight sequence w_0..w_N."""
    nums = st_number_range(params, max(len(w) - 1, 0))
    coeffs, fact = [], params.one()
    for n, wn in enumerate(w):
        if n > 0:
            fact *= nums[n]
        coeffs.append(wn / fact)
    return Series(params, coeffs)


def _powers_for(g_coeffs: Sequence, f: Series) -> list[Series]:
    """The symbolic-power table a composition of g with f needs: f^[n] for
    n up to min(len(g) - 1, f's order)."""
    if f.coeffs[0] != 0:
        raise NonzeroConstantTerm("composition needs f(0) = 0")
    return symbolic_powers(f, max(min(len(g_coeffs) - 1, f.order), 0))


def _composition(g_coeffs: Sequence, factors, sym: list[Series]) -> Series:
    """sum_n w_n g_n f^[n] / {n}! over a symbolic-power table
    sym = [f^[0], ..., f^[K]], truncated at f's order, w_n the prefix
    products of the factor stream.  One table serves every g and every
    factor stream composed with the same f."""
    p = sym[0].params
    n_top = min(len(g_coeffs), len(sym)) - 1
    w = weights(factors, n_top, p.one())
    c = factorial_series(p, [wn * p.wrap(gn) for wn, gn in zip(w, g_coeffs)]).coeffs
    acc = Series.zero(p, sym[0].order)
    for n in range(n_top + 1):
        if c[n] != 0:
            acc = acc + sym[n] * c[n]
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
    if lower.coeffs[0] != 0 or upper.coeffs[0] != 0:
        raise NonzeroConstantTerm("sq_int bounds must vanish at 0")
    order = min(lower.order, upper.order)
    if isinstance(f, Series):
        lower._check(f)
        a = list(f.coeffs)
    else:
        if u is None:
            raise NonzeroConstantTerm("coefficient-sequence integrand needs the deformation u")
        w = weights(powers(params.wrap(u)), len(f) - 1, params.one())
        a = factorial_series(params, [wm * params.wrap(fm) for wm, fm in zip(w, f)]).coeffs
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

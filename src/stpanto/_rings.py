"""The coefficient rings: how the scalars of a Params and the coefficients
of its Series are held and computed with.

``stnum.golden_pair`` builds one ring per Params, and every backend choice
goes through it.  A ring has the scalar ``one``, the scalar helpers
``wrap``, ``log``, ``log_abs``, ``power`` (non-integer exponents), ``eq``
and ``to_str``, and the Series kernels, each one call from ``stseries``.
A Series holds the ring's ``data``: ``data(scalars)`` builds it and
``coeffs(data)`` reads the scalars back; ``order``, ``window``, ``padded``,
``add``, ``scaled`` (by a scalar), ``times`` (c_n f_n), ``scale`` (u^n c_n),
``antiderive`` (c_n / {n+1}), ``product``, ``value`` (at a point),
``reduced`` (a composition's sum) and ``max_abs`` take data.  ``quotient``
takes the Series, since the rational one is built from Series operations,
and ``factorial`` gives the scalar coefficients of
``stseries.factorial_series`` from the (c, r) pairs of its factors, on the
rational ring one Fraction step built from integers per coefficient.
Series equality needs no kernel: it compares coefficients with ``eq``.

* ``RationalRing``: exact Fractions as integer blocks (start, D,
  numerators), coefficient start + i being numerators[i] / D unreduced.
  Each D is a multiple of the ones before it, and a block ends where D's
  bit length has doubled: the denominators grow like phi^(n^2/2), too fast
  for one D per series (FLINT's fmpq_poly).  Sums and scalar products take
  one common-D test per pair of blocks; a zero is a block of zero
  numerators.  ``scale`` is ``_times`` of the integer pairs (p^n, q^n) of
  u = p/q, and ``antiderive`` lifts a block by the lcm of the numerators of
  its {n+1}: neither makes a Fraction.
  Products, antiderivatives and compositions divide each block by the gcd
  of its D and numerators.  A product is one schoolbook integer
  convolution per pair of blocks: as a block ends where D doubles in bits,
  most blocks hold a dozen or so coefficients, too few for packing them
  into one big integer (Kronecker substitution) to pay for its packing and
  full-length multiply.  ``value`` is one integer Horner sum per block
  over a single division.  A quotient is built
  from Series products at every order: Newton iteration takes 1/g to order
  N/2 (Brent and Kung, J. ACM 1978), and one last step on the quotient
  gives f/g to order N (Karp and Markstein, ACM TOMS 1997), the exact value
  of the recurrence that ``FloatRing.quotient`` runs.
* ``FloatRing``: real mpf values of one context as their raw libmp values.
  Every kernel runs in the context's one raw ``Arith`` (``_stable``), the
  table of the point sums, with the calls, order and rounding of mpf's
  operators, so each result is bit for bit that of the loop on mpf
  objects.  A complex scalar (phi when s^2 + 4t < 0) is refused with
  BackendMismatch wherever it would enter.
"""

import math
from fractions import Fraction
from functools import partial
from itertools import chain, islice, repeat
from operator import eq, truediv

from ._stable import PAIRS, _lcm, _raw_arith, factors, powers, weights
from .errors import BackendMismatch, StInputError

FLOAT_EQ_TOL = 1e-12


def _as_fraction(x) -> Fraction:
    """Read a literal exactly; every rational-backend literal passes here."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (str, float)):
        # Read floats through their decimal repr so 0.2 means 1/5, not the
        # binary expansion of the nearest double.
        try:
            return Fraction(str(x))
        except (ValueError, ZeroDivisionError):
            pass
    raise BackendMismatch(f"cannot interpret {x!r} as an exact rational")


def _as_mpf(ctx, x):
    """Read a finite literal at the context's precision (the float-backend
    path): a real scalar of the context is returned as it is, a complex one
    refused, and a Fraction rounded as numerator over denominator."""
    if type(x) is ctx.mpf:
        return x
    if hasattr(x, "_mpc_") or isinstance(x, complex):
        raise BackendMismatch(f"the float backend is real: cannot take the complex value "
                              f"{ctx.nstr(ctx.mpc(x), 6)}")
    if isinstance(x, Fraction):
        return ctx.mpf(x.numerator) / ctx.mpf(x.denominator)
    try:
        value = ctx.mpf(x)
        if ctx.isfinite(value):
            return value
    except (ValueError, ZeroDivisionError):
        pass
    raise StInputError(f"cannot interpret {x!r} as a finite number")


# -- the rational ring: integer blocks --------------------------------------

# The smallest denominator a block grows from, in bits, so the first
# coefficients (denominators of a few bits) do not each open a block.
_BLOCK_BITS = 128


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


def _times(blocks, ratios) -> list:
    """c_n a_n / b_n, one pair of integers (a_n, b_n != 0) per index; D gains
    the lcm of its |b|'s."""
    out = []
    for s, d, xs in blocks:
        part, den = ratios[s:s + len(xs)], 1
        for _, b in part:
            den = _lcm(den, abs(b))
        out.append((s, d * den, [x * a * (den // b) for x, (a, b) in zip(xs, part)]))
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


def _convolution(xs: list[int], ys: list[int], m: int) -> list[int]:
    """The first min(m, len(xs) + len(ys) - 1) coefficients of the product
    of two integer polynomials, schoolbook: a zero of xs adds nothing, and
    each row stops at the truncation."""
    m = min(m, len(xs) + len(ys) - 1)
    out = [0] * m
    for i, x in enumerate(xs[:m]):
        if x:
            for k, y in enumerate(ys[:m - i], i):
                out[k] += x * y
    return out


def _block_product(A, B, n: int) -> list:
    """The blocks of the product of two block lists up to x^n.

    Every pair of blocks that reaches an index <= n is one integer
    convolution.  Output k is accumulated over D_p D_q of the blocks that hold
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
            for k, v in enumerate(_convolution(xs, ys, n + 1 - sa - sb), sa + sb):
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


def _newton_quotient(f, g, n: int) -> list:
    """The blocks of f/g up to x^n from Series products alone: Newton steps
    inv <- inv (2 - g inv) take 1/g from x^k to x^(2k+1) until x^h,
    h = n // 2; then q0 = f inv up to x^h, and the remainder f - g q0,
    which vanishes below x^(h+1), gives the rest of the quotient as one
    product of order n - h - 1 (none at n = 0, where q0 = f_0 / g_0)."""
    h = n // 2
    inv = type(g)(g.params, [1 / g._head()])
    while inv.order < h:
        inv = inv.padded(min(2 * inv.order + 1, h))
        inv = inv * (2 - g * inv)
    q0 = f.truncated(h) * inv
    if n == 0:
        return q0.data
    r = f - g * q0.padded(n)
    tail = inv.truncated(n - h - 1) * f._like(_window(r.data, h + 1, n + 1))
    return _coalesced(q0.data + [(s + h + 1, d, xs) for s, d, xs in tail.data])


class RationalRing:
    """Exact Fractions; Series data are integer blocks (start, D, numerators)."""

    wrap = staticmethod(_as_fraction)
    one = Fraction(1)
    eq = staticmethod(eq)
    to_str = staticmethod(str)

    def log(self, x):
        raise BackendMismatch("log is not available in the rational backend")

    def power(self, x, e):
        raise BackendMismatch(f"non-integer exponent {e} in rational backend")

    def log_abs(self, x) -> float:
        return math.log(abs(x.numerator)) - math.log(x.denominator)

    def data(self, coeffs: list) -> list:
        """The blocks that ``_coalesced`` makes of one piece (n, d, [x]) per
        coefficient x/d (a zero takes d = 1), in one pass."""
        blocks, run, start, den, limit = [], [], 0, 1, 2 * _BLOCK_BITS
        for n, c in enumerate(coeffs):
            x, d = c.as_integer_ratio()
            if den % d:
                grown = _lcm(den, d)
                if grown.bit_length() > limit and run:
                    blocks.append((start, den, [y * (den // e) for y, e in run]))
                    run, start, limit = [], n, 2 * max(den.bit_length(), _BLOCK_BITS)
                den = grown
            run.append((x, d))
        blocks.append((start, den, [y * (den // e) for y, e in run]))
        return blocks

    def coeffs(self, blocks) -> list:
        return [Fraction(x, d) for _, d, xs in blocks for x in xs]

    def order(self, blocks) -> int:
        return blocks[-1][0] + len(blocks[-1][2]) - 1

    def padded(self, blocks, extra: int) -> list:
        *head, (start, d, xs) = blocks
        return head + [(start, d, xs + [0] * extra)]

    window = staticmethod(_window)
    add = staticmethod(_block_sum)
    scaled = staticmethod(_scaled)
    value = staticmethod(_block_value)
    reduced = staticmethod(_reduced)
    quotient = staticmethod(_newton_quotient)

    def times(self, blocks, fs) -> list:
        return _times(blocks, [f.as_integer_ratio() for f in fs])

    def scale(self, blocks, u) -> list:
        """u^n c_n: ``_times`` of the integer pairs (p^n, q^n) of u = p/q."""
        return _times(blocks, list(islice(powers(u, PAIRS), self.order(blocks) + 1)))

    def antiderive(self, blocks, nums) -> list:
        """F_0 = 0, F_{n+1} = c_n / nums_n, each block lifted by the lcm of its
        nums' numerators, then reduced: dividing by {n} often cancels
        (symbolic powers)."""
        blocks = _reduced(_times(blocks, [(m.denominator, m.numerator) for m in nums]))
        return [(0, 1, [0])] + [(s + 1, d, xs) for s, d, xs in blocks]

    def product(self, a, b, n: int) -> list:
        return _block_product(_window(a, 0, n + 1), _window(b, 0, n + 1), n)

    def max_abs(self, blocks):
        """The largest numerator of each block, reduced."""
        return max(Fraction(max(map(abs, xs)), d) for _, d, xs in blocks)

    def factorial(self, pairs, nums, N: int, g=None, lead: int = 0) -> list:
        """c_0 = 1, c_{n+1} = c_n (f_n / {n+1}), times g_n: each step one Fraction
        of integers, f_n = c r^n + d v^n over the denominators of c, d, r^n, v^n."""
        (c, r), (d, v) = (*pairs, (0, 1))[:2]
        (cn, cd), (dn, dd), (r, rr), (v, vv) = (x.as_integer_ratio() for x in (c, d, r, v))
        rn = rd = vn = vd = f = fd = 1  # r^k = rn / rd, v^k = vn / vd; f_k = f / fd, 1 at lead
        out = [Fraction(1)]
        for m in nums[1:N + 1]:
            if len(out) > lead:
                f, fd = cn * dd * rn * vd + dn * cd * vn * rd, cd * dd * rd * vd
                rn, rd, vn, vd = rn * r, rd * rr, vn * v, vd * vv
            out.append(out[-1] * Fraction(f * m.denominator, fd * m.numerator))
        return out if g is None else [c * self.wrap(x) for c, x in zip(out, g)]


RATIONAL = RationalRing()


class FloatRing:
    """Real mpf scalars of one context; Series data are their raw libmp values."""

    def __init__(self, ctx, precision: int):
        self.ctx, self.precision, self.wrap = ctx, precision, partial(_as_mpf, ctx)
        self.one = ctx.mpf(1)
        self.arith = ar = _raw_arith(ctx, *ctx._prec_rounding)
        self.zero, self.made, self._rounding = ar.operand(0), ar.made, (ar.prec, ar.rnd)

    def log(self, x):
        return self.ctx.log(x)

    def power(self, x, e):
        return self.ctx.power(x, self.wrap(e))

    def eq(self, a, b) -> bool:
        return abs(a - b) <= FLOAT_EQ_TOL * max(1, abs(a), abs(b))

    def log_abs(self, x) -> float:
        return float(self.ctx.log(abs(x)))

    def to_str(self, x) -> str:
        """Decimal at the declared precision, integers positional; a Fraction as 'p/q'."""
        if isinstance(x, Fraction):
            return str(x)
        if self.ctx.isint(x):
            return self.ctx.nstr(x, self.precision, min_fixed=-math.inf, max_fixed=math.inf)[:-2]
        return self.ctx.nstr(x, self.precision)

    def data(self, coeffs: list) -> list:
        return [c._mpf_ for c in coeffs]

    def coeffs(self, data) -> list:
        return list(map(self.made, data))

    def order(self, data) -> int:
        return len(data) - 1

    def window(self, data, lo: int, hi: int) -> list:
        return data[lo:hi]

    def padded(self, data, extra: int) -> list:
        return data + [self.zero] * extra

    def reduced(self, data) -> list:
        return data

    def add(self, a, b, n: int) -> list:
        return [self.arith.add(x, y, *self._rounding) for x, y in zip(a[:n + 1], b[:n + 1])]

    def scaled(self, data, w) -> list:
        return self.times(data, repeat(w))

    def scale(self, data, u) -> list:
        """u^n c_n, the raw powers of u rounded as mpf's loop rounds them."""
        mul, (prec, rnd) = self.arith.mul, self._rounding
        return [mul(x, w, prec, rnd) for x, w in zip(data, powers(u, self.arith))]

    def times(self, data, fs) -> list:
        """c_n f_n, each f_n a scalar or an int."""
        mul, op = self.arith.mul, self.arith.operand
        return [mul(x, op(f), *self._rounding) for x, f in zip(data, fs)]

    def antiderive(self, data, nums) -> list:
        div = self.arith.div
        return [self.zero] + [div(x, m._mpf_, *self._rounding) for x, m in zip(data, nums)]

    def product(self, a, b, n: int) -> list:
        """sum a_i b_j x^(i+j) up to x^n over the nonzero terms of both
        operands, each output coefficient in the order of the left index i:
        a skipped term is an exact zero, so the rounding is that of the full
        O(n^2) loop on mpf objects."""
        plus, times, (prec, rnd), zero = self.arith.add, self.arith.mul, self._rounding, self.zero
        right = [(j, y) for j, y in enumerate(b[:n + 1]) if y != zero]
        out = [zero] * (n + 1)
        for i, x in enumerate(a[:n + 1]):
            if x == zero:
                continue
            for j, y in right:
                if i + j > n:
                    break
                out[i + j] = plus(out[i + j], times(x, y, prec, rnd), prec, rnd)
        return out

    def quotient(self, f, g, n: int) -> list:
        """q_k = (f_k - sum_{j<k} q_j g_{k-j}) (1/g_0) for k <= n, each sum in
        the order of j."""
        ar, f, g = self.arith, f.data[:n + 1], g.data[:n + 1]
        minus, times, prec, rnd = ar.sub, ar.mul, ar.prec, ar.rnd
        inv0, out = ar.div(ar.operand(1), g[0], prec, rnd), []
        for k, acc in enumerate(f):
            for j in range(k):
                acc = minus(acc, times(out[j], g[k - j], prec, rnd), prec, rnd)
            out.append(times(acc, inv0, prec, rnd))
        return out

    def value(self, data, x):
        """The Horner loop acc * x + c from acc = the highest coefficient (at a
        finite x, 0 * x + c is c itself)."""
        plus, times, (prec, rnd), x = self.arith.add, self.arith.mul, self._rounding, x._mpf_
        coeffs = reversed(data)
        acc = next(coeffs, self.zero)
        for c in coeffs:
            acc = plus(times(acc, x, prec, rnd), c, prec, rnd)
        return self.made(acc)

    def max_abs(self, data):
        return max(map(abs, self.coeffs(data)))

    def factorial(self, pairs, nums, N: int, g=None, lead: int = 0) -> list:
        """(w_n g_n) / {n}!, rounded in that order, w_n the prefix products of
        ``lead`` ints 1 then the ``factors`` of the pairs."""
        c = weights(chain(repeat(1, lead), factors(pairs)), N, self.one)
        if g is not None:
            c = [cn * self.wrap(gn) for cn, gn in zip(c, g)]
        return list(map(truediv, c, weights(nums[1:], N, self.one)))

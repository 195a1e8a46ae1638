"""The coefficient rings: how the scalars of a Params and the coefficients
of its Series are held and computed with.

``stnum.golden_pair`` builds one ring per Params, and every backend choice
goes through it.  A ring has the scalar ``one``, the scalar helpers
``wrap``, ``log``, ``log_abs``, ``power`` (non-integer exponents), ``eq``
and ``to_str`` (``exact_str``: whether ``wrap`` reads each string back to
its scalar), and the Series kernels, each one call from ``stseries``.
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
  for one D per series (FLINT's fmpq_poly).  Every block list is built by
  ``_coalesced``, a coefficient list's (``data``) as one piece per
  coefficient, and a block is lifted to its D from its end
  (``_multipliers``), so only denominators that do not nest take a full
  division.  Sums and scalar products take one common-D test per pair of
  blocks; a zero is a block of zero numerators.  ``scale`` is ``_times`` of
  the integer pairs (p^n, q^n) of u = p/q, and ``antiderive`` lifts a block
  by the lcm of the numerators of its {n+1}: neither makes a Fraction.
  Products, antiderivatives and compositions divide each block by the gcd
  of its D and numerators.  A product is one schoolbook integer
  convolution per pair of blocks (``_convolution``, which also multiplies
  the parser's Fraction lists): as a block ends where D doubles in bits,
  most blocks hold a dozen or so coefficients, too few for packing them
  into one big integer (Kronecker substitution) to pay for its packing and
  full-length multiply.  ``value`` is one integer Horner sum per block
  over a single division.  A quotient is built from Series products at
  every order: Newton iteration takes 1/g to order
  N/2 (Brent and Kung, J. ACM 1978), and one last step on the quotient
  gives f/g to order N (Karp and Markstein, ACM TOMS 1997), the exact value
  of the recurrence that ``FloatRing.quotient`` runs.
* ``FloatRing``: real mpf values of one context as their raw libmp values.
  ``product`` and ``quotient`` make each coefficient one exact integer sum
  of signed mantissa products (``_exact_sum``, an exact accumulator: Rump,
  Ogita and Oishi, SIAM J. Sci. Comput. 2008), rounded once; the
  quotient's sum f_k - sum q_j g_{k-j} runs over the rounded q_j and is
  rounded by its one division by g_0.  A term is dropped where its bound is
  at most 2^-(p + 24) of the largest term over their count (p the
  precision in bits, 24 the guard bits ``_GUARD``), so a coefficient lies
  within 1/2 ulp (the context rounds to nearest) plus (number of skipped
  terms) 2^-(p + 24) of the largest term (over |g_0| in a quotient) of the
  exact result of its raw inputs (a lone term is one ``mul``).  Every
  other kernel, ``factorial`` with its factor stream included, runs in the
  context's one raw ``Arith`` (``_stable``), the table of the point sums,
  with the calls, order and rounding of mpf's operators (the elementwise
  ones one map, ``_each``), so each of their results is bit for bit that
  of the loop on mpf objects; no kernel makes an mpf but to hand back a
  scalar.  A complex scalar (phi when s^2 + 4t < 0) is refused with
  BackendMismatch wherever it would enter.
"""

import math
from fractions import Fraction
from functools import partial
from itertools import chain, islice, repeat
from operator import eq

from mpmath.libmp import finf, fninf, from_man_exp

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
    so each block's D is a multiple of the ones before it.  A block ends
    where D's bit length would pass twice what it was where the block began;
    a piece whose d would grow D first gives its leading zeros d = 1."""
    blocks, run, den, limit = [], [], 1, 2 * _BLOCK_BITS
    for piece in pieces:
        s, d, xs = piece
        if den % d:
            if not xs[0]:
                zeros = next((i for i, x in enumerate(xs) if x), len(xs))
                run.append((s, 1, xs[:zeros]))
                if zeros == len(xs):
                    continue
                piece = s + zeros, d, xs[zeros:]
            grown = den // math.gcd(den, d) * d
            if grown.bit_length() > limit and run:
                blocks.append(_lifted(run, den))
                run, limit = [], 2 * max(den.bit_length(), _BLOCK_BITS)
            den = grown
        run.append(piece)
    blocks.append(_lifted(run, den))
    return blocks


def _lifted(run, den: int) -> tuple[int, int, list[int]]:
    ms = _multipliers(run, den)
    return run[0][0], den, [x * m for (_, _, xs), m in zip(run, ms) for x in xs]


def _multipliers(run, den: int) -> list[int]:
    """den / d for the d of each piece of ``run`` (each dividing den), from
    the last: den / d' times d' / d where d divides the d' after it, else one
    division; a d of 1 (a zero's) is den and breaks no chain."""
    out, last, m = [], den, 1
    for _, d, _ in reversed(run):
        if d != last and d != 1:
            q, r = divmod(last, d)
            m, last = m * q if r == 0 else den // d, d
        out.append(den if d == 1 else m)
    return out[::-1]


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


def _convolution(xs: list, ys: list, m: int) -> list:
    """The first min(m, len(xs) + len(ys) - 1) coefficients of the product
    of two polynomials (integer or Fraction lists), schoolbook: a zero of xs
    adds nothing, and each row stops at the truncation."""
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
    exact_str = True

    def log(self, x):
        raise BackendMismatch("log is not available in the rational backend")

    def power(self, x, e):
        raise BackendMismatch(f"non-integer exponent {e} in rational backend")

    def log_abs(self, x) -> float:
        return math.log(abs(x.numerator)) - math.log(x.denominator)

    def data(self, coeffs: list) -> list:
        """``_coalesced`` of one piece (n, d, [x]) per coefficient x/d."""
        ratios = map(Fraction.as_integer_ratio, coeffs)
        return _coalesced([(n, d, [x]) for n, (x, d) in enumerate(ratios)])

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


# -- the float ring: exact sums of mantissa products ------------------------

# Guard bits of ``_exact_sum``: a term it drops is below 2^-(prec + _GUARD) of
# the largest over their count.
_GUARD = 24
_MINUS_ONE = (-1, 0, 1)  # the part of -1
_INFINITIES = (finf, fninf)


def _parts(data) -> list:
    """(signed mantissa m, exponent e, e + bit count) of each finite raw
    value, None for a zero: the value is m 2^e, below 2^(e + bit count)."""
    return [(-m if s else m, e, e + bc) if m else None for s, m, e, bc in data]


def _exact_sum(terms, prec: int) -> tuple[int, int]:
    """sum x y over pairs of ``_parts``, as (mantissa, exponent), exact but
    for the terms with 2^(t_x + t_y) <= 2^(top - 2 - prec - _GUARD) / 2^b,
    top the largest t_x + t_y and b the bit length of the count: as the
    largest term is at least 2^(top - 2), each is below 2^-(prec + _GUARD)
    of it over the count."""
    if len(terms) < 2:  # a lone term is its own exact sum, and no term sums to 0
        (x, y), = terms or [((0, 0, 0), (0, 0, 0))]
        return x[0] * y[0], x[1] + y[1]
    tops = [x[2] + y[2] for x, y in terms]
    cut = max(tops) - prec - _GUARD - 2 - len(terms).bit_length()
    kept = [(x[0] * y[0], x[1] + y[1]) for (x, y), t in zip(terms, tops) if t > cut]
    low = min([e for _, e in kept])
    return sum([m << (e - low) for m, e in kept]), low


def _each(op, data, ws, prec: int, rnd: str) -> list:
    """op(x, w) of each raw value x and its w, rounded as mpf's operators round."""
    return [op(x, w, prec, rnd) for x, w in zip(data, ws)]


class FloatRing:
    """Real mpf scalars of one context; Series data are their raw libmp values."""

    exact_str = False  # to_str keeps the declared digits only

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
        return _each(self.arith.add, a[:n + 1], b, *self._rounding)

    def scaled(self, data, w) -> list:
        return _each(self.arith.mul, data, repeat(w._mpf_), *self._rounding)

    def scale(self, data, u) -> list:
        """u^n c_n, the raw powers of u rounded as mpf's loop rounds them."""
        return _each(self.arith.mul, data, powers(u, self.arith), *self._rounding)

    def times(self, data, fs) -> list:
        """c_n f_n, each f_n a scalar or an int."""
        return _each(self.arith.mul, data, map(self.arith.operand, fs), *self._rounding)

    def antiderive(self, data, nums) -> list:
        return [self.zero] + _each(self.arith.div, data, [m._mpf_ for m in nums], *self._rounding)

    def product(self, a, b, n: int) -> list:
        """sum a_i b_(k-i) for k <= n, each one ``_exact_sum`` rounded once,
        over the nonzero terms of the operand with more zeros (a polynomial
        times a series takes a few terms per coefficient, and a monomial one
        ``mul``, the lone term's exact sum rounded)."""
        (prec, rnd), a, b = self._rounding, a[:n + 1], b[:n + 1]
        xs, ys = _parts(a), _parts(b)
        if xs.count(None) < ys.count(None):
            (a, xs), (b, ys) = (b, ys), (a, xs)
        nonzero = [(i, x) for i, x in enumerate(xs) if x]
        if len(nonzero) == 1:  # each coefficient a lone term: its product, rounded once
            (i, _), = nonzero
            return [self.zero] * i + [self.arith.mul(a[i], y, prec, rnd) for y in b[:n + 1 - i]]
        return [from_man_exp(*_exact_sum([(x, y) for i, x in nonzero
                                          if i <= k and (y := ys[k - i])], prec), prec, rnd)
                for k in range(n + 1)]

    def quotient(self, f, g, n: int) -> list:
        """q_k = (f_k - sum_{j<k} q_j g_{k-j}) / g_0 for k <= n: the sum one
        ``_exact_sum`` over f_k and the rounded q_j, then one division."""
        (prec, rnd), div, g0 = self._rounding, self.arith.div, g.data[0]
        fs, gs = _parts(f.data[:n + 1]), _parts(g.data[n:0:-1])
        out, qs = [], []
        for k, x in enumerate(fs):
            terms = [(q, y) for q, y in zip(qs, gs[n - k:]) if q and y]
            man, e = _exact_sum(terms + [(x, _MINUS_ONE)] if x else terms, prec)
            out.append(div(from_man_exp(-man, e), g0, prec, rnd))
            qs += _parts(out[-1:])
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
        """The first largest |c_n|, as mpf's abs and > find it, on raw values:
        the highest leading bit e + bc (an infinity above all, 0 and nan
        below), then among those the mantissa aligned to their lowest e."""
        tops = [e + bc if m else math.inf if (s, m, e, bc) in _INFINITIES else -math.inf
                for s, m, e, bc in data]
        top = max(tops, default=-math.inf)
        if top == -math.inf:
            return self.made(self.zero)
        ties = [x for x, t in zip(data, tops) if t == top]
        low = min(e for _, _, e, _ in ties)
        return self.made(self.arith.abs(max(ties, key=lambda x: x[1] << (x[2] - low)),
                                        *self._rounding))

    def factorial(self, pairs, nums, N: int, g=None, lead: int = 0) -> list:
        """(w_n g_n) / {n}!, rounded in that order, w_n the prefix products of
        ``lead`` ones then the ``factors`` of the pairs: mpf's loop on raw
        values.  The r's are read (a complex one refused) only if f_1 is drawn."""
        mul, (prec, rnd), one = self.arith.mul, self._rounding, self.one._mpf_
        times = lambda x, y: mul(x, y, prec, rnd)
        pairs = [(self.wrap(c), self.wrap(r) if N > lead + 1 else 1) for c, r in pairs]
        w = weights(chain(repeat(one, lead), factors(pairs, self.arith)), N, one, times)
        if g is not None:
            w = [times(x, self.wrap(y)._mpf_) for x, y in zip(w, g)]
        fact = weights((m._mpf_ for m in nums[1:]), len(w) - 1, one, times)
        return [self.made(self.arith.div(x, d, prec, rnd)) for x, d in zip(w, fact)]

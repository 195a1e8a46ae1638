"""Shared kernels: the truncation rules for infinite sums and products, the
numbers {n}, and the prefix-product construction the special functions are
built from.

A point sum stops at its proven tail bound (``point_sum``): at the first
t_n with |t_n| rho_n / (1 - rho_n) <= tol * (1 + |partial sum|), rho_n < 1
bounding every later term ratio, and (a;q)_inf at its geometric one
(``stable_product``).  Other sums stop once three consecutive terms satisfy
|term| <= tol * (1 + |partial sum|), other products once three consecutive
factors satisfy |factor - 1| <= tol, and a product at an exact zero factor.
A sum whose term magnitudes instead keep growing past 1 for many
consecutive steps is declared divergent early (convergent sums here have at
most a short rising prefix before the factorials win); a product has no
such guard, since (10^6; 9/10)_inf grows for over a hundred factors before
it settles.  Either fails when still running at its cap: TERM_CAP terms for
a sum, the caller's cap (TERM_CAP by default) for a product.

The construction: a factor stream f_k, its prefix products
w_n = f_0 ... f_{n-1} and the point terms w_n x^n / {n}!; the one builder
of the series form sum w_n g_n x^n / {n}! is ``stseries.factorial_series``,
and of every point value ``point_sum``.  A point sum is one term loop
(``_term_loop``: t_{k+1} = t_k f_k x / {k+1}, f_k and {k+1} drawn inline)
under one ``stable_sum``, which runs the bound's float recurrence beside
its stop rule.  Both run in the ``Arith`` of the sum's scalars
(``arith_of``): real mpf values of one context on their raw libmp values,
with the calls, order and rounding of mpf's own operators (so every result
is bit-identical to the operator loop), others on operators; so does the
Jackson node sum ``node_sum``, which sums on objects where a term is no real
mpf.  Int or Fraction endpoints and Fraction nodes take the integer-pair
``Arith`` (``PAIRS``): partial sums over the lcm of the term denominators,
stop tests by cross-multiplication against the exact tol, one Fraction at
the end, and a sum on objects where f gives no int or Fraction.  Point sums
never take it (``arith_of`` does not return it).  What does not depend on
x (the kinds of the pairs, {n+1}.. from the raw table and the majorant at
|x| = 1) is looked up once per call, in a bounded cache (``_point_setup``).
For 30-digit E(2, 1/4; x, 1/2) at (1, 3), at the 123 nodes of its Jackson
integral over [1/4, 3/4], a point sum takes about 26 us per node (Python
3.11, mpmath's pure-Python libmp, 4.3 terms a sum), where a chain of one
iterator per factor, term and ratio took 49 us.  One raw ``Arith`` serves
each context (``_raw_arith``), and the float coefficient ring
(``_rings.FloatRing``) runs its series kernels in the same table, but for
the integer sums of its products and quotients.  {n} has one recurrence
(``st_numbers``), in any Arith; ``_number_table`` is its cached raw
prefix, keyed by (s, t, Arith).
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, islice, repeat
from math import gcd, inf as INF, ldexp, nextafter
from operator import add, gt, le, mul, sub, truediv

from mpmath.libmp import (fone, from_float, mpf_abs, mpf_add, mpf_div, mpf_gt, mpf_le,
                          mpf_mul, mpf_sub, round_up)

from .errors import ConvergenceFailure, DegenerateStNumber

TERM_CAP = 10_000
STABLE_RUN = 3
GROW_RUN = 64
DEFAULT_TOL = 1e-15
NUMBER_TABLE = 64  # raw {n} kept per (s, t, raw Arith), in a bounded cache
_raw_constant = lru_cache(maxsize=32)(from_float)  # raw 0, 1 and tol, once each


def _threshold(tol):
    """m -> tol (1 + m) on plain scalars.  A float tol is made exact once, for
    Fraction magnitudes: float * huge Fraction can overflow."""
    exact = Fraction(tol) if type(tol) is float else tol
    return lambda m: (exact if isinstance(m, Fraction) else tol) * (1 + m)


def _plain(op):
    return lambda a, b, prec, rnd: op(a, b)


# Operations take (prec, rnd) after their operands, as libmp's do (PLAIN drops
# them), except ``abs``: unrounded mpf_abs of a value at the context's
# precision is the rounded one.  ``operand`` lifts a scalar, 0, 1 or tol,
# ``made`` returns a scalar, and ``threshold`` turns a lifted tol into the
# decay rule's bound m -> tol (1 + m).
Arith = namedtuple("Arith", "add sub mul div abs le gt threshold prec rnd operand made")
PLAIN = Arith(_plain(add), _plain(sub), _plain(mul), _plain(truediv), abs, le, gt, _threshold,
              None, None, lambda x: x, lambda x: x)


def _lcm(a: int, b: int) -> int:
    """lcm(a, b) for a, b > 0; equal or dividing arguments cost no gcd."""
    return a if a % b == 0 else b if b % a == 0 else a // gcd(a, b) * b


def _pair_add(x, y, prec, rnd):
    (a, b), (c, d) = x, y
    m = _lcm(b, d)
    return a * (m // b) + c * (m // d), m


# Exact rationals as integer pairs (numerator, denominator > 0), unreduced: a
# sum goes over the lcm of the denominators, a comparison cross-multiplies,
# and ``made`` makes the one Fraction.  Only the Jackson node sum runs here.
PAIRS = Arith(_pair_add, None, lambda x, y, prec, rnd: (x[0] * y[0], x[1] * y[1]), None,
              lambda x: (abs(x[0]), x[1]), lambda x, y: x[0] * y[1] <= y[0] * x[1],
              lambda x, y: x[0] * y[1] > y[0] * x[1],
              lambda tol: lambda m: (tol[0] * (m[0] + m[1]), tol[1] * m[1]),
              None, None, lambda x: x.as_integer_ratio(), lambda x: Fraction(*x))


def arith_of(*scalars) -> Arith:
    """Raw libmp arithmetic when every scalar is a real mpf of one context,
    PLAIN otherwise; one raw Arith serves a context at its precision and rounding."""
    kind, *others = set(map(type, scalars))
    ctx = getattr(kind, "context", None)
    if others or ctx is None or kind is not ctx.mpf:
        return PLAIN
    return _raw_arith(ctx, *ctx._prec_rounding)


@lru_cache(maxsize=32)
def _raw_arith(ctx, prec, rnd) -> Arith:
    return Arith(mpf_add, mpf_sub, mpf_mul, mpf_div, mpf_abs, mpf_le, mpf_gt,
                 lambda tol: lambda m: mpf_mul(mpf_add(m, fone, prec, rnd), tol, prec, rnd),
                 prec, rnd, lambda x: getattr(x, "_mpf_", None) or _raw_constant(x), ctx.make_mpf)


class SumStats(namedtuple("SumStats", "terms reason tail", defaults=[None])):
    """``terms`` drawn; ``reason`` "bound" (``tail`` >= |sum - partial sum|) or "decay"."""

    def __radd__(self, count):  # a running count of terms adds the terms
        return count + self.terms


def _cap_failure(what, cap):
    return ConvergenceFailure(f"{what}: no convergence within {cap} terms")


def stable_sum(terms, tol=DEFAULT_TOL, what="series", arith=PLAIN, bound=None):
    """Sum the stream ``terms``, operands of ``arith``, under the decay rule,
    or, with the ``bound`` of a point sum (``point_sum``), to the first n with
    |t_n| R_n <= tol (1 + |S_n|) for a float R_n >= rho_n / (1 - rho_n).
    ``bound`` is (skip, gm, g, w0, r0, w1, r1): R_n = N / (1 - gm - N) with
    N = w0 + w1 (w1 None: w0), each w times its r and gm times g after every
    term from the ``skip``-th on, and inf for the terms before it.

    Returns (value, SumStats).  Raises ConvergenceFailure when the terms
    grow without settling, or when TERM_CAP terms (or a stream that ends
    sooner) do not settle; no term past the cap is drawn.
    """
    plus, size, gt, prec, rnd, one = (arith.add, arith.abs, arith.gt, arith.prec, arith.rnd,
                                      arith.operand(1))
    if bound is None:
        le, threshold = arith.le, arith.threshold(arith.operand(tol))
    else:
        low_tol, (skip, gm, g, w0, r0, w1, r1) = _float(tol, False), bound
    total = prev_mag = None
    small = growing = 0
    for n, term in enumerate(islice(terms, TERM_CAP)):
        total = term if total is None else plus(total, term, prec, rnd)
        mag = size(term)
        if bound is None:
            if le(mag, threshold(size(total))):
                small += 1
                if small >= STABLE_RUN:
                    return arith.made(total), SumStats(n + 1, "decay")
            else:
                small = 0
        elif n >= skip:  # R_n = N / (E - N): N = w0 + w1, E = 1 - gm, then w *= r, gm *= g
            num = w0 if w1 is None else nextafter(w0 + w1, INF)
            den = nextafter(nextafter(1.0 - gm, 0.0) - num, 0.0)
            ratio = nextafter(num / den, INF) if den > 0 else INF
            w0, gm = nextafter(w0 * r0, INF), nextafter(gm * g, INF)
            if w1 is not None:
                w1 = nextafter(w1 * r1, INF)
            if ratio < INF:  # rho_n < 1, so no later term grows
                tail = nextafter(_float(mag, True) * ratio, INF)
                if tail <= nextafter(low_tol * nextafter(1 + _float(size(total), False), 0.0), 0):
                    return arith.made(total), SumStats(n + 1, "bound", tail)
                continue
        if gt(mag, one) and prev_mag is not None and gt(mag, prev_mag):
            growing += 1
            if growing >= GROW_RUN:
                raise ConvergenceFailure(f"{what}: terms grow without bound")
        else:
            growing = 0
        prev_mag = mag
    if total is None:
        raise ConvergenceFailure(f"{what}: empty term stream")
    raise _cap_failure(what, TERM_CAP)


def stable_product(factors, tol=DEFAULT_TOL, cap=TERM_CAP, what="product", bound=None):
    """Multiply the infinite stream ``factors`` until three consecutive ones
    lie within tol of 1, or one is exactly zero (the product is then exactly
    0).  Returns (value, SumStats) and fails at the cap like ``stable_sum``.
    With ``bound`` (|a|, |q|) of factors 1 - a q^k, it stops instead after the
    first n with ``tail`` 2 L <= min(tol, 1), L = 2 |a q^n| / (1 - |q|): every
    later |a q^k| <= 1/2, where |log(1 - z)| <= 2 |z|, so the rest of the
    product is within e^L - 1 <= 2 L of 1 (floats rounded outward; by the
    decay rule where |a| is nan or rounds to inf, or |q| rounds to 1)."""
    m, g = (_float(v, True) if v < INF else INF for v in bound or (INF, 1))
    total, near_one = 1, 0
    for n, factor in enumerate(islice(factors, cap)):
        total *= factor
        if m < INF and g < 1 and factor != 0:
            m = nextafter(m * g, INF)  # >= |a q^(n+1)|
            tail = nextafter(4 * m / nextafter(1 - g, 0.0), INF)
            if tail <= min(tol, 1):
                return total, SumStats(n + 1, "bound", tail)
            continue
        near_one = near_one + 1 if abs(factor - 1) <= tol else 0
        if factor == 0 or near_one >= STABLE_RUN:
            return total, SumStats(n + 1, "decay")
    raise _cap_failure(what, cap)


def st_numbers(s, t, arith=PLAIN):
    """{0}, {1}, ... lazily, by the one recurrence
    {0} = 0, {1} = 1, {n+2} = s{n+1} + t{n} in ``arith`` ({0} = s 0 keeps
    the kind of s); ``_number_table`` caches its raw prefix."""
    plus, times, prec, rnd = arith.add, arith.mul, arith.prec, arith.rnd
    a = times(s, arith.operand(0), prec, rnd)
    b = plus(a, arith.operand(1), prec, rnd)
    while True:
        yield a
        a, b = b, plus(times(s, b, prec, rnd), times(t, a, prec, rnd), prec, rnd)


@lru_cache(maxsize=64)
def _number_table(s, t, arith) -> tuple:
    """The raw {0}..{NUMBER_TABLE - 1} of ``st_numbers``, keyed by the values
    the recurrence reads and the raw Arith of their precision and rounding."""
    return tuple(islice(st_numbers(s, t, arith), NUMBER_TABLE))


def zero_divisor(params, n: int) -> DegenerateStNumber:
    """The error of a kernel that would divide by {n} = 0 (q is a root of
    unity, as at (s, t) = (1, -1), (2, -2) and (3, -3))."""
    return DegenerateStNumber(f"cannot divide by {{{n}}} = 0 at (s, t) = "
                              f"({params.to_str(params.s)}, {params.to_str(params.t)})")


# -- prefix products of a factor stream ------------------------------------


def powers(u, arith=PLAIN):
    """u^k for k = 0, 1, ...: the factors of (0 (+) 1)^n_{1,u} = u^C(n,2)."""
    times, prec, rnd, u, p = arith.mul, arith.prec, arith.rnd, arith.operand(u), arith.operand(1)
    while True:
        yield p
        p = times(p, u, prec, rnd)


CONSTANT, POWERS, SCALED = "constant", "powers", "scaled"


def _kind(c, r, one) -> str:
    """How a pair (c, r) gives f_k = c r^k: the constant c when r = 1, the
    ``powers`` of r when c = 1, else c times them."""
    return CONSTANT if r == one else POWERS if c == one else SCALED


def factors(pairs, arith=PLAIN):
    """f_k = sum c r^k over one or two (c, r) ``pairs``, k = 0, 1, ..., in
    ``arith``: a pair (c, 1) gives the constant c and a pair (1, r) the
    ``powers`` of r; the factors of (a (+) b)^n_{1,u} are the pairs (a, 1),
    (b, u), those of (alpha (+) beta)^n_{phi,phi'} the pairs (alpha, phi),
    (beta, phi')."""
    kinds = [(_kind(c, r, 1), c, r) for c, r in pairs]
    times, plus, op = arith.mul, arith.add, arith.operand
    rounding = repeat(arith.prec), repeat(arith.rnd)
    a, *b = (repeat(op(c)) if kind is CONSTANT else powers(r, arith) if kind is POWERS else
             map(times, repeat(op(c)), powers(r, arith), *rounding) for kind, c, r in kinds)
    return map(plus, a, *b, *rounding) if b else a


def weights(factors, n: int, one, times=mul) -> list:
    """[w_0, ..., w_n]: w_0 = one and w_{k+1} = times(w_k, f_k), the prefix
    products (the empty list for n = -1)."""
    return list(islice(accumulate(factors, times, initial=one), n + 1))


class _ObjectTerm(Exception):
    pass


def node_sum(f, a, p, q, tol=DEFAULT_TOL):
    """sum_k w f(w a) over the nodes w = q^k/p^{k+1}, one ``stable_sum``: on
    integer pairs (``PAIRS``) when a is an int or a Fraction, p and q are
    Fractions and tol is exact, in the ``Arith`` of a, p and q otherwise,
    and on objects where a term is none of the Arith's scalars."""
    exact = type(a) in (int, Fraction) and type(p) is type(q) is Fraction and \
        type(tol) in (float, int, Fraction)
    arith = PAIRS if exact else arith_of(a, p, q)
    try:
        return stable_sum(_node_terms(f, a, p, q, arith), tol, "pq_integral", arith)[0]
    except _ObjectTerm:
        return stable_sum(_node_terms(f, a, p, q, PLAIN), tol, "pq_integral")[0]


def _node_terms(f, a, p, q, arith):
    """The terms w f(w a); v = f(w a) that is none of the Arith's scalars (an
    int or a Fraction on pairs, an mpf of a's context on raw values) enters
    as the object product w v."""
    mul, prec, rnd, made, lift = arith.mul, arith.prec, arith.rnd, arith.made, arith.operand
    held = () if arith is PLAIN else (int, Fraction) if arith is PAIRS else (type(a),)
    x = lift(a)
    for w in map(mul, powers(q / p, arith), repeat(lift(1 / p)), repeat(prec), repeat(rnd)):
        v = f(made(mul(w, x, prec, rnd)))
        if type(v) in held:
            yield mul(w, lift(v), prec, rnd)
            continue
        v = made(w) * v
        if held and type(v) not in held:
            raise _ObjectTerm
        yield lift(v)


def point_sum(pairs, x, t, params=None, n=0, head=None, tol=DEFAULT_TOL, what="series"):
    """[head +] the sum of the terms t_n = t, t_{k+1} = t_k f_k x / {k+1}
    (k >= n; no divisor with ``params`` None), f_k the ``factors`` of
    ``pairs``: one ``stable_sum`` in the ``Arith`` of x, t, head, the pairs
    and (s, t) of ``params``, to the tail bound of the same pairs.

    The bound: R_j >= rho_j / (1 - rho_j) (inf while rho_j >= 1), in floats
    rounded outward, where rho_j = |x| D / P^(n+1) sum |c| (|r|/P)^j /
    (1 - (Q/P)^(n+1+j)) bounds all |f_k x / {n+1+k}|, k >= j, as |f_k| <=
    sum |c| |r|^k and |{m}| >= (P^m - Q^m) / D, P = max(|phi|, |phi'|) > Q,
    D = |phi - phi'| (P = D = 1, Q = 0 with no ``params``).  There is none
    unless phi, phi' are real of x's kind, |r| <= P where c != 0 (so rho_j
    falls) and lim rho_j < 1.

    With no bound, a sum of radius 0 is refused before any term is drawn:
    x != 0, some c != 0 has |r| > P (1 with no ``params``) and no factor
    vanishes.  As |{m}| <= 2 P^m / |phi - phi'|, its term ratios then grow
    without bound, though its first terms may decay far enough to stop the
    decay rule."""
    st = () if params is None else (params.s, params.t)
    ar = arith_of(x, t, *chain(*pairs), *st, *(() if head is None else (head,)))
    op = ar.operand
    values = [*map(op, chain(*pairs)), None, None][:4]  # c, r, d, v; d = v = None for a lone pair
    raw_st = [*map(op, st), None, None][:2]
    roots = [None, None]
    if params is not None and type(params.phi) is type(x) is type(params.phi_prime):
        roots = [op(params.phi), op(params.phi_prime)]  # real, of x's kind: a bound may exist
    kinds, divisors, majorant = _point_setup(ar, n, *values, *raw_st, *roots)
    bound = None
    if majorant is not None:  # scaled by |x|: R_j from N_j = w0 r0^j + w1 r1^j
        limit, gm, g, w0, r0, w1, r1 = majorant
        k = _float(ar.abs(op(x)), True)
        if nextafter(k * limit, INF) < 1:
            bound = (0 if head is None else 1, gm, g, nextafter(k * w0, INF), r0,
                     None if w1 is None else nextafter(k * w1, INF), r1)
    if bound is None:
        _refuse_radius_zero(pairs, x, params, what)
    nums = repeat(None) if params is None else chain(
        divisors, islice(st_numbers(*raw_st, ar), n + 1 + len(divisors), None))
    terms = _term_loop(op(x), op(t), None if head is None else op(head), values, kinds, nums,
                       ar, params, n)
    return stable_sum(terms, tol, what=what, arith=ar, bound=bound)[0]


def _term_loop(x, t, head, values, kinds, nums, arith, params, n):
    """[head,] t, then t_{k+1} = t_k f_k x / {k+1} for {k+1} in ``nums``
    (None: no divisor), f_k from the raw pairs ``values`` of ``kinds``."""
    times, plus, prec, rnd = arith.mul, arith.add, arith.prec, arith.rnd
    (c, r, d, v), (kc, kd), p = values, kinds, arith.operand(1)
    q, k = p, n
    if head is not None:
        yield head
    try:
        for num in nums:
            yield t
            f = c if kc is CONSTANT else p if kc is POWERS else times(c, p, prec, rnd)
            if kc is not CONSTANT:
                p = times(p, r, prec, rnd)
            if kd is not None:
                e = d if kd is CONSTANT else q if kd is POWERS else times(d, q, prec, rnd)
                if kd is not CONSTANT:
                    q = times(q, v, prec, rnd)
                f = plus(f, e, prec, rnd)
            t = times(times(t, f, prec, rnd), x, prec, rnd)
            if num is not None:
                k += 1
                t = arith.div(t, num, prec, rnd)
    except ZeroDivisionError:  # by num = {k}
        raise zero_divisor(params, k) from None


@lru_cache(maxsize=64, typed=True)
def _point_setup(arith, n, c, r, d, v, s, t, phi, phi_prime):
    """The part of a point sum that does not depend on x, from the raw pairs
    (c, r), (d, v) (d = v = None for a lone pair), (s, t) and (phi, phi')
    (None with no ``params``; phi = phi' = None with no bound): the kinds of
    the pairs, {n+1}.. from the raw table (none on plain scalars, whose key
    also holds their types) and the ``_majorant``, or None."""
    one = arith.operand(1)
    kinds = (_kind(c, r, one), None if d is None else _kind(d, v, one))
    divisors = () if s is None or arith.prec is None else \
        _number_table(s, t, arith)[n + 1:]
    pairs = ((c, r),) if d is None else ((c, r), (d, v))
    bounded = s is None or phi is not None  # no params, or real roots of x's kind
    return kinds, divisors, _majorant(pairs, phi, phi_prime, n, arith) if bounded else None


def _majorant(pairs, phi, phi_prime, n, arith):
    """(lim rho_j, (Q/P)^(n+1), Q/P, then D |c| / P^(n+1) and |r|/P at each
    c != 0, None for a second that is missing), or None where rho_j does not
    fall: the bound of ``point_sum`` at |x| = 1.  No roots: P = D = 1, Q = 0."""
    gt, zero, p = arith.gt, arith.operand(0), arith.operand(1)
    lo, k, g, gm, limit, ws, rs = 1.0, 1.0, 0.0, 0.0, 0.0, [], []
    if phi is not None:
        p, q = arith.abs(phi), arith.abs(phi_prime)
        if gt(q, p):
            p, q = q, p
        lo = _float(p, False)
        gm, g = 1.0, nextafter(_float(q, True) / lo, INF)
        if not gt(p, q) or g >= 1:
            return None
        k = _float(arith.abs(arith.sub(phi, phi_prime, arith.prec, round_up)), True)  # away from 0
        for _ in range(n + 1):
            k, gm = nextafter(k / lo, INF), nextafter(gm * g, INF)
    for c, r in pairs:
        c, r = arith.abs(c), arith.abs(r)
        if gt(c, zero):
            if gt(r, p):
                return None
            ws.append(nextafter(k * _float(c, True), INF))
            rs.append(nextafter(_float(r, True) / lo, INF))
            limit = limit if gt(p, r) else nextafter(limit + ws[-1], INF)
    (w0, r0), *more = list(zip(ws, rs)) or [(0.0, 0.0)]
    w1, r1 = more[0] if more else (None, None)
    return limit, gm, g, w0, r0, w1, r1


def _float(v, up: bool) -> float:
    """A float above (``up``) or below v >= 0, raw or a real scalar: an mpf
    mantissa cut to 53 bits (plus a unit up) or Python's nearest, one step out."""
    v = getattr(v, "_mpf_", v)
    try:
        if type(v) is not tuple:
            f = float(v)
        elif v[3] > 53:
            cut = v[3] - 53
            f = ldexp((v[1] >> cut) + up, v[2] + cut)
        else:
            f = ldexp(v[1], v[2])
    except OverflowError:
        f = INF
    return nextafter(f, INF if up else 0.0)


def _refuse_radius_zero(pairs, x, params, what):
    big = 1 if params is None else max(abs(params.phi), abs(params.phi_prime))
    fast = max((abs(r) for c, r in pairs if c != 0), default=0)
    if x != 0 and fast > big and not _vanishing_factor(pairs, params):
        fast, big = _float(fast, True), _float(big, False)
        raise ConvergenceFailure(f"{what} has radius 0: its factors grow like {fast:.6g}^k, "
                                 f"faster than {big:.6g}^k")


def _vanishing_factor(pairs, params) -> bool:
    """Whether a + b u^k = 0 for some k below TERM_CAP, for pairs (a, 1),
    (b, u) or a lone (b, u), which is (0, 1), (b, u).  (Golden pairs
    (alpha, phi), (beta, phi') have no |r| > P, so never reach it.)"""
    (a, _), (b, u) = pairs if len(pairs) == 2 else ((0, 1), *pairs)
    if b == 0:
        return a == 0
    r = -a / b
    if r == 0 or abs(u) in (0, 1):
        return r == 1 or r == u     # then u^k only takes the values 1, u (and 0)
    k = round(params.ring.log_abs(r) / params.ring.log_abs(u))
    return 0 <= k < TERM_CAP and a + b * u ** k == 0

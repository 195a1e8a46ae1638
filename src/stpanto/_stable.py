"""Shared kernels: the truncation rules for infinite sums and products, the
numbers {n}, and the prefix-product construction the special functions are
built from.

A point sum stops at its proven tail bound (``tail_ratios``): at the first
t_n with |t_n| rho_n / (1 - rho_n) <= tol * (1 + |partial sum|), rho_n < 1
bounding every later term ratio.  Other sums stop once three consecutive
terms satisfy |term| <= tol * (1 + |partial sum|), a product once three
consecutive factors satisfy |factor - 1| <= tol or at an exact zero factor.
A sum whose term magnitudes instead keep growing past 1 for many
consecutive steps is declared divergent early (convergent sums here have at
most a short growth prefix before the factorials win); a product has no
such guard, since (10^6; 9/10)_inf grows for over a hundred factors before
it settles.  Either fails when still running at its cap: TERM_CAP terms for
a sum, the caller's cap (TERM_CAP by default) for a product.

The construction: a factor stream f_k, its prefix products
w_n = f_0 ... f_{n-1} and the point terms w_n x^n / {n}!; the one builder
of the series form sum w_n g_n x^n / {n}! is ``stseries.factorial_series``,
and of every point value ``point_sum``.  A point sum runs its factors, {n},
terms and stop rule in the ``Arith`` of its scalars (``arith_of``): real mpf
values of one context on their raw libmp values, with the calls, order and
rounding of mpf's own operators (so every result is bit-identical to the
operator loop), others on operators.  One raw ``Arith`` serves each context
(``_raw_arith``), and the float coefficient ring (``_rings.FloatRing``) runs
its series kernels in the same table; raw {n} come from a bounded cache of
tables (``st_numbers``).
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, count, islice, repeat
from math import inf as INF, ldexp, nextafter
from operator import add, gt, le, mul, sub, truediv

from mpmath.libmp import (fone, from_float, fzero, mpf_abs, mpf_add, mpf_div, mpf_gt, mpf_le,
                          mpf_mul, mpf_sub, round_up)

from .errors import ConvergenceFailure, DegenerateStNumber

TERM_CAP = 10_000
STABLE_RUN = 3
GROW_RUN = 64
DEFAULT_TOL = 1e-15
NUMBER_TABLE = 64  # raw {n} kept per (s, t, prec, rnd), in a bounded cache
_raw_constant = lru_cache(maxsize=32)(from_float)  # raw 0, 1 and tol, once each


def _threshold(tol, magnitude, prec=None, rnd=None):
    # Keep Fraction arithmetic exact: float * huge Fraction can overflow.
    if isinstance(magnitude, Fraction):
        return Fraction(tol) * (1 + magnitude)
    return tol * (1 + magnitude)


def _plain(op):
    return lambda a, b, prec, rnd: op(a, b)


# Operations take (prec, rnd) after their operands, as libmp's do (PLAIN drops
# them), except ``abs``: unrounded mpf_abs of a value at the context's
# precision is the rounded one.  ``operand`` lifts a scalar, 0, 1 or tol, and
# ``made`` returns a scalar.
Arith = namedtuple("Arith", "add sub mul div abs le gt threshold prec rnd operand made")
PLAIN = Arith(_plain(add), _plain(sub), _plain(mul), _plain(truediv), abs, le, gt, _threshold,
              None, None, lambda x: x, lambda x: x)


def arith_of(*scalars) -> Arith:
    """Raw libmp arithmetic when every scalar is a real mpf of one context,
    PLAIN otherwise; one raw Arith serves a context at its precision and rounding."""
    ctx = getattr(type(scalars[0]), "context", None)
    if ctx is None or any(type(x) is not ctx.mpf for x in scalars):
        return PLAIN
    return _raw_arith(ctx, *ctx._prec_rounding)


@lru_cache(maxsize=32)
def _raw_arith(ctx, prec, rnd) -> Arith:
    return Arith(mpf_add, mpf_sub, mpf_mul, mpf_div, mpf_abs, mpf_le, mpf_gt,
                 lambda tol, m, prec, rnd: mpf_mul(mpf_add(m, fone, prec, rnd), tol, prec, rnd),
                 prec, rnd, lambda x: getattr(x, "_mpf_", None) or _raw_constant(x), ctx.make_mpf)


class SumStats(namedtuple("SumStats", "terms reason tail", defaults=[None])):
    """``terms`` drawn; ``reason`` "bound" (``tail`` >= |sum - partial sum|) or "decay"."""

    def __radd__(self, count):  # a running count of terms adds the terms
        return count + self.terms


def _cap_failure(what, cap):
    return ConvergenceFailure(f"{what}: no convergence within {cap} terms")


def stable_sum(terms, tol=DEFAULT_TOL, what="series", arith=PLAIN, ratios=None):
    """Sum the stream ``terms``, operands of ``arith``, under the decay rule,
    or, when ``ratios`` yields a float R_n >= rho_n / (1 - rho_n) with each
    term (``tail_ratios``), to the first n with |t_n| R_n <= tol (1 + |S_n|).

    Returns (value, SumStats).  Raises ConvergenceFailure when the terms
    grow without settling, or when TERM_CAP terms (or a stream that ends
    sooner) do not settle; no term past the cap is drawn.
    """
    plus, size, le, gt, threshold = arith.add, arith.abs, arith.le, arith.gt, arith.threshold
    low_tol = _float(tol, False)
    prec, rnd, tol, one = arith.prec, arith.rnd, arith.operand(tol), arith.operand(1)
    total = prev_mag = None
    small = growing = 0
    for n, term in enumerate(islice(terms, TERM_CAP)):
        total = term if total is None else plus(total, term, prec, rnd)
        mag = size(term)
        if ratios is not None:
            if (r := next(ratios)) < INF:  # rho_n < 1, so no later term grows
                tail = nextafter(_float(mag, True) * r, INF)
                if tail <= nextafter(low_tol * nextafter(1 + _float(size(total), False), 0.0), 0):
                    return arith.made(total), SumStats(n + 1, "bound", tail)
                continue
        elif le(mag, threshold(tol, size(total), prec, rnd)):
            small += 1
            if small >= STABLE_RUN:
                return arith.made(total), SumStats(n + 1, "decay")
        else:
            small = 0
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


def stable_product(factors, tol=DEFAULT_TOL, cap=TERM_CAP, what="product"):
    """Multiply the infinite stream ``factors`` until three consecutive ones
    lie within tol of 1, or one is exactly zero (the product is then exactly
    0).  Returns (value, SumStats) and fails at the cap like ``stable_sum``.
    """
    total, near_one = 1, 0
    for n, factor in enumerate(islice(factors, cap)):
        total *= factor
        near_one = near_one + 1 if abs(factor - 1) <= tol else 0
        if factor == 0 or near_one >= STABLE_RUN:
            return total, SumStats(n + 1, "decay")
    raise _cap_failure(what, cap)


def st_numbers(s, t, arith=PLAIN):
    """{0}, {1}, ... lazily, by the bare recurrence
    {0} = 0, {1} = 1, {n+2} = s{n+1} + t{n}; raw values (``arith_of``) read
    the first NUMBER_TABLE from the cache ``_number_table``."""
    plus, times, prec, rnd = arith.add, arith.mul, arith.prec, arith.rnd
    if prec is None:
        a = times(s, arith.operand(0), prec, rnd)
        b = plus(a, arith.operand(1), prec, rnd)
    else:
        *head, a, b = _number_table(s, t, prec, rnd)
        yield from head
    while True:
        yield a
        a, b = b, plus(times(s, b, prec, rnd), times(t, a, prec, rnd), prec, rnd)


@lru_cache(maxsize=64)
def _number_table(s, t, prec, rnd) -> tuple:
    """The raw {0}..{NUMBER_TABLE - 1}, keyed by the values the recurrence reads."""
    nums = [fzero, fone]
    while len(nums) < NUMBER_TABLE:
        b, a = nums[-1], nums[-2]
        nums.append(mpf_add(mpf_mul(s, b, prec, rnd), mpf_mul(t, a, prec, rnd), prec, rnd))
    return tuple(nums)


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


def factors(pairs, arith=PLAIN):
    """f_k = sum c r^k over one or two (c, r) ``pairs``, k = 0, 1, ...: a pair
    (c, 1) gives the constant c and a pair (1, r) the ``powers`` of r; the
    factors of (a (+) b)^n_{1,u} are the pairs (a, 1), (b, u), those of
    (alpha (+) beta)^n_{phi,phi'} the pairs (alpha, phi), (beta, phi')."""
    r = (repeat(arith.prec), repeat(arith.rnd))
    a, *b = (repeat(arith.operand(c)) if u == 1 else powers(u, arith) if c == 1 else
             map(arith.mul, repeat(arith.operand(c)), powers(u, arith), *r) for c, u in pairs)
    return map(arith.add, a, *b, *r) if b else a


def weights(factors, n: int, one) -> list:
    """[w_0, ..., w_n]: w_0 = one and w_{k+1} = w_k f_k, the prefix products
    (the empty list for n = -1)."""
    return list(islice(accumulate(factors, mul, initial=one), n + 1))


def point_terms(factors, x, t, params=None, n=0, arith=PLAIN):
    """The terms t_n = t, t_{k+1} = t_k f x / {k+1} (k >= n) of a point sum,
    operands of ``arith``: f runs over ``factors`` (of the same arith) and
    {k} over the numbers of ``params``, drawn from ``st_numbers``; with
    ``params`` None there is no divisor."""
    times, prec, rnd, x, t = arith.mul, arith.prec, arith.rnd, arith.operand(x), arith.operand(t)
    if params is None:
        for f in factors:
            yield t
            t = times(times(t, f, prec, rnd), x, prec, rnd)
        return
    nums = islice(st_numbers(arith.operand(params.s), arith.operand(params.t), arith), n + 1, None)
    try:
        for k, f, num in zip(count(n + 1), factors, nums):
            yield t
            t = arith.div(times(times(t, f, prec, rnd), x, prec, rnd), num, prec, rnd)
    except ZeroDivisionError:  # by num = {k}
        raise zero_divisor(params, k) from None


def tail_ratios(pairs, x, params=None, n=0, arith=PLAIN):
    """Floats R_j >= rho_j / (1 - rho_j) (inf while rho_j >= 1), rounded outward:
    rho_j = |x| D / P^(n+1) sum |c| (|r|/P)^j / (1 - (Q/P)^(n+1+j)) bounds all
    |f_k x / {n+1+k}|, k >= j, if |f_k| <= sum |c| |r|^k over the (c, r) ``pairs``,
    as |{m}| >= (P^m - Q^m) / D, P = max(|phi|, |phi'|) > Q, D = |phi - phi'|
    (P = D = 1, Q = 0 with no ``params``).  None unless |r| <= P where c != 0
    (so rho_j falls) and lim rho_j < 1."""
    roots = () if params is None else (params.phi, params.phi_prime)
    if any(type(v) is not type(x) for v in roots):  # complex roots, or of another kind than x
        return None
    op = arith.operand
    bound = _majorant(tuple(map(op, chain(*pairs))), tuple(map(op, roots)), n, arith)
    if bound is None:
        return None
    ws, rs, limit, gm, g = bound
    k = _float(arith.abs(op(x)), True)
    return None if nextafter(k * limit, INF) >= 1 else _ratios(
        [nextafter(k * w, INF) for w in ws], rs, gm, g)


@lru_cache(maxsize=64)
def _majorant(values, roots, n, arith):
    """(D |c| / P^(n+1) and |r|/P at each c != 0, lim rho_j, (Q/P)^(n+1), Q/P) of
    ``tail_ratios`` at |x| = 1 from raw c, r, c, r, ... and (phi, phi'), or None."""
    gt, zero, p = arith.gt, arith.operand(0), arith.operand(1)
    lo, k, g, gm, limit, ws, rs = 1.0, 1.0, 0.0, 0.0, 0.0, [], []
    if roots:
        p, q = map(arith.abs, roots)
        if gt(q, p):
            p, q = q, p
        lo = _float(p, False)
        gm, g = 1.0, nextafter(_float(q, True) / lo, INF)
        if not gt(p, q) or g >= 1:
            return None
        k = _float(arith.abs(arith.sub(*roots, arith.prec, round_up)), True)  # away from 0
        for _ in range(n + 1):
            k, gm = nextafter(k / lo, INF), nextafter(gm * g, INF)
    for c, r in zip(map(arith.abs, values[::2]), map(arith.abs, values[1::2])):
        if gt(c, zero):
            if gt(r, p):
                return None
            ws.append(nextafter(k * _float(c, True), INF))
            rs.append(nextafter(_float(r, True) / lo, INF))
            limit = limit if gt(p, r) else nextafter(limit + ws[-1], INF)
    return tuple(ws) or (0.0,), tuple(rs) or (0.0,), limit, gm, g  # shared: never mutated


def _ratios(ws, rs, gm, g):
    while True:  # rho_j / (1 - rho_j) = N / (E - N): N = sum ws rs^j, E = 1 - g^(n+1+j)
        num = ws[0]
        for w in ws[1:]:
            num = nextafter(num + w, INF)
        den = nextafter(nextafter(1.0 - gm, 0.0) - num, 0.0)
        yield nextafter(num / den, INF) if den > 0 else INF
        ws, gm = [nextafter(w * r, INF) for w, r in zip(ws, rs)], nextafter(gm * g, INF)


def _float(v, up: bool) -> float:
    """A float above (``up``) or below v >= 0, raw or a real scalar: an mpf
    mantissa cut to 53 bits (plus a unit up) or Python's nearest, one step out."""
    v = getattr(v, "_mpf_", v)
    try:
        cut = max(v[3] - 53, 0) if type(v) is tuple else None
        f = float(v) if cut is None else ldexp((v[1] >> cut) + (up and cut > 0), v[2] + cut)
    except OverflowError:
        f = INF
    return nextafter(f, INF if up else 0.0)


def point_sum(pairs, x, t, params=None, n=0, head=None, tol=DEFAULT_TOL, what="series"):
    """[head +] the sum of ``point_terms`` of the ``factors`` of ``pairs``, by
    one ``stable_sum`` in the ``Arith`` of x, t, head, the pairs and (s, t) of
    ``params``, to the tail bound of the same pairs (``tail_ratios``).

    With no bound, a sum of radius 0 is refused before any term is drawn:
    x != 0, some c != 0 has |r| > P = max(|phi|, |phi'|) (1 with no
    ``params``) and no factor vanishes.  As |{m}| <= 2 P^m / |phi - phi'|,
    its term ratios then grow without bound, though its first terms may
    decay far enough to stop the decay rule."""
    extra = (() if head is None else (head,)) + (() if params is None else (params.s, params.t))
    ar = arith_of(x, t, *chain(*pairs), *extra)
    ratios = tail_ratios(pairs, x, params, n, ar)
    if ratios is None:
        _refuse_radius_zero(pairs, x, params, what)
    terms = point_terms(factors(pairs, ar), x, t, params, n, ar)
    if head is not None:
        terms = chain([ar.operand(head)], terms)
        ratios = ratios and chain([INF], ratios)
    return stable_sum(terms, tol, what=what, arith=ar, ratios=ratios)[0]


def _refuse_radius_zero(pairs, x, params, what):
    big = 1 if params is None else params.growth
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

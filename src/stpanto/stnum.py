"""Scalar backbone: generalized Fibonacci numbers {n}, fibotorials {n}!,
fibonomials, the golden pair (phi, phi'), and the q-side machinery
(q-numbers, q-factorials, q-Pochhammer symbols).

The sequence is {0} = 0, {1} = 1, {n+2} = s{n+1} + t{n}.  The golden pair
are the roots of x^2 - s x - t, with phi the larger one and q = phi'/phi.
These satisfy phi + phi' = s, phi * phi' = -t and the factorial bridge
{n}! = phi^C(n,2) (q;q)_n / (1-q)^n.

Each Params fixes one of two scalar backends, and ``golden_pair`` builds
its coefficient ring (``_rings``), which every backend choice goes through:

* ``rational`` -- exact fractions.Fraction arithmetic.  Requires s, t
  rational with sqrt(s^2 + 4t) rational, so phi and q are rational too.
* ``float`` -- arbitrary-precision real mpmath floats at a configurable
  number of significant digits (``precision``, default 30).  Besides the
  exact checks, a float pair is refused when s^2 + 4t is too small for the
  digits kept to tell phi from phi' (see ``golden_pair``).  A pair with
  s^2 + 4t < 0 has complex phi and q, which the ring refuses as scalars.

Every other object in the package carries or references a Params.  The
degenerate cases q = 1 and s^2 + 4t = 0 are hard errors: every divided
difference below divides by phi - phi'.  In particular the classical pair
(s, t) = (2, -1) is rejected; the classical limit is recovered only term
by term through the raw recurrence (``st_number_raw``), as is {n} with a
Params; {n}! reads the Params's cached table, ``st_number_range``.  The pure
q-calculus tower is the special case phi = 1, reached at s = 1 + q,
t = -q, where {n} reduces to the q-number [n]_q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache
from itertools import islice
from typing import Union

from mpmath.ctx_mp import MPContext

from ._rings import RATIONAL, FloatRing, _as_fraction, _as_mpf
from ._stable import DEFAULT_TOL, factors, st_numbers, stable_product, weights, zero_divisor
from .errors import (
    BackendMismatch,
    DegenerateDiscriminant,
    DegenerateQ,
    DivergentProduct,
    IndexOutOfRange,
    StInputError,
    ZeroParameter,
)

Scalar = Union[Fraction, object]  # Fraction or a context-bound mpmath mpf

DEFAULT_PRECISION = 30


@cache
def _context(precision: int) -> MPContext:
    """The process's one context of this precision (about 40 KB, never freed)."""
    ctx = MPContext()
    ctx.dps = precision
    return ctx


def _rational_sqrt(x: Fraction) -> Fraction:
    if x < 0:
        raise BackendMismatch("negative discriminant needs a complex field")
    p, q = x.numerator, x.denominator
    rp, rq = math.isqrt(p), math.isqrt(q)
    if rp * rp != p or rq * rq != q:
        raise BackendMismatch(f"sqrt({x}) is irrational")
    return Fraction(rp, rq)


@dataclass(frozen=True, slots=True)
class Params:
    """The (s, t) pair with derived constants and the scalar backend.

    Immutable; safe to share across threads.  Float Params of one precision
    share one mpmath context, which is safe because stpanto never changes a
    context's precision once made (nor may a caller).  All scalar values
    used with a Params must come from its own backend (``wrap`` converts
    literals).  ``ring`` is the coefficient ring of the backend (``_rings``).
    """

    s: Scalar
    t: Scalar
    phi: Scalar = field(compare=False)
    phi_prime: Scalar = field(compare=False)
    q: Scalar = field(compare=False)
    backend: str
    precision: int
    ctx: MPContext | None = field(compare=False)
    ring: object = field(compare=False)

    def __repr__(self):
        return (f"Params(s={self.s}, t={self.t}, backend={self.backend!r}, "
                f"phi={self.phi}, q={self.q})")

    # -- scalar field helpers -------------------------------------------

    @property
    def rational(self) -> bool:
        return self.backend == "rational"

    def wrap(self, x) -> Scalar:
        """Convert a literal (int, str, float, Fraction) to a backend scalar;
        a scalar of this backend is returned as it is."""
        return self.ring.wrap(x)

    def zero(self) -> Scalar:
        return self.wrap(0)

    def one(self) -> Scalar:
        return self.ring.one

    def log(self, x) -> Scalar:
        return self.ring.log(x)

    def power(self, x, e) -> Scalar:
        """x**e; non-integer exponents need the float backend."""
        if isinstance(e, int) or (isinstance(e, Fraction) and e.denominator == 1):
            return self.wrap(x) ** int(e)
        return self.ring.power(self.wrap(x), e)

    def eq(self, a, b) -> bool:
        """Backend equality: exact for rationals, relative FLOAT_EQ_TOL for floats."""
        return self.ring.eq(a, b)

    def to_str(self, x) -> str:
        """Exact 'p/q', or decimal at the declared precision (integers positional)."""
        return self.ring.to_str(x)


def golden_pair(s, t, backend: str | None = None, precision: int | None = None) -> Params:
    """Build Params for the pair (s, t); the one gate every input passes.

    backend None picks rational arithmetic when s, t and sqrt(s^2 + 4t)
    are all rational, floating otherwise.  An explicit ``rational`` with an
    irrational discriminant raises BackendMismatch.  ``precision`` (digits
    of the float backend, default DEFAULT_PRECISION) must be an int >= 1.
    Exact s and t are checked on their exact values.  On the float backend
    s^2 + 4t must also stay above 10^min(-1, 3 - precision) max(1, s^2), so
    that phi and phi' differ in the digits kept.
    """
    if precision is None:
        precision = DEFAULT_PRECISION
    elif isinstance(precision, bool) or not isinstance(precision, int) or precision < 1:
        raise StInputError(f"precision must be an integer of at least 1, got {precision!r}")
    try:
        s, t = _as_fraction(s), _as_fraction(t)
        exact = True
    except BackendMismatch:
        if backend == "rational":
            raise
        ctx = _context(precision)
        s, t, exact = _as_mpf(ctx, s), _as_mpf(ctx, t), False
    if s == 0 or t == 0:
        raise ZeroParameter("both s and t must be nonzero")
    if exact:
        disc = s * s + 4 * t
        if disc == 0:
            raise DegenerateDiscriminant(
                f"s^2 + 4t = 0 at (s, t) = ({s}, {t}); phi = phi' is unsupported")
        if backend in (None, "rational"):
            try:
                root = _rational_sqrt(disc)
            except BackendMismatch:
                if backend == "rational":
                    raise BackendMismatch(f"sqrt(s^2+4t) = sqrt({disc}) is irrational; "
                                          "use the float backend") from None
            else:
                phi = (s + root) / 2
                return Params(s, t, phi, s - phi, (s - phi) / phi, "rational", 0, None, RATIONAL)

    ctx = _context(precision)
    s, t = _as_mpf(ctx, s), _as_mpf(ctx, t)
    disc = s * s + 4 * t
    if abs(disc) <= ctx.mpf(10) ** min(-1, 3 - precision) * max(1, abs(s) ** 2):
        raise DegenerateDiscriminant(
            f"s^2 + 4t vanishes at (s, t) = ({s}, {t}); phi = phi' is unsupported")
    phi = (s + ctx.sqrt(disc)) / 2
    phi_prime = s - phi
    return Params(s, t, phi, phi_prime, phi_prime / phi, "float", precision, ctx,
                  FloatRing(ctx, precision))


# -- (s,t)-numbers ------------------------------------------------------


def nonnegative(n: int, name: str = "n") -> int:
    """n, or IndexOutOfRange naming it ``name`` when it is below 0."""
    if n < 0:
        raise IndexOutOfRange(f"{name} = {n} must be nonnegative")
    return n


def st_number_raw(s, t, n: int):
    """{n} by the bare recurrence, in whatever arithmetic s and t support.

    Needs no golden pair, so it also covers degenerate pairs like the
    classical (2, -1).
    """
    return next(islice(st_numbers(s, t), nonnegative(n), None))


@lru_cache(maxsize=256)
def st_number_range(params: Params, upto: int) -> tuple:
    """({0}, {1}, ..., {upto}), kept in a bounded cache per Params and upto."""
    nonnegative(upto, "upto")
    return tuple(islice(st_numbers(params.s, params.t), upto + 1))


def st_number(params: Params, n: int) -> Scalar:
    """{n}_{s,t} by the recurrence (never Binet: no cancellation), keeping
    nothing: a table of {0}..{n} grows like n^2 bits."""
    return st_number_raw(params.s, params.t, n)


def st_divisors(params: Params, upto: int) -> tuple:
    """``st_number_range(params, upto)`` for a kernel that divides by {1}..{upto}:
    raises DegenerateStNumber naming the first of them that is 0."""
    nums = st_number_range(params, upto)
    if not all(islice(nums, 1, None)):
        raise zero_divisor(params, nums.index(0, 1))
    return nums


def st_factorial(params: Params, n: int) -> Scalar:
    """{n}! = {1}{2}...{n}, from left to right; empty product for n = 0."""
    return math.prod(st_number_range(params, nonnegative(n))[1:], start=params.one())


def st_fibonomial(params: Params, n: int, k: int) -> Scalar:
    """{n}! / ({k}! {n-k}!)."""
    if k < 0 or n < 0 or k > n:
        raise IndexOutOfRange(f"need 0 <= k <= n, got n = {n}, k = {k}")
    st_divisors(params, max(k, n - k))
    return st_factorial(params, n) / (st_factorial(params, k) * st_factorial(params, n - k))


def binet(params: Params, n) -> Scalar:
    """{n} = (phi^n - phi'^n) / (phi - phi') at any n through ``Params.power``:
    an integer n < 0 (exact on both backends) or a non-integer n (float
    backend), and at n >= 0 the independent cross-check for st_number."""
    num = params.power(params.phi, n) - params.power(params.phi_prime, n)
    return num / (params.phi - params.phi_prime)


# -- q-side machinery ----------------------------------------------------


def q_number(q, a):
    """[a]_q = (1 - q^a) / (1 - q)."""
    if q == 1:
        raise DegenerateQ("[a]_q requires q != 1")
    return (1 - q ** a) / (1 - q)


def q_factorial(q, n: int):
    """[n]_q! = prod_{k=1..n} [k]_q; equals (q;q)_n / (1-q)^n."""
    nonnegative(n)
    if q == 1:
        raise DegenerateQ("[n]_q! requires q != 1")
    return weights((q_number(q, k) for k in range(1, n + 1)), n, 1 - q * 0)[n]


def q_pochhammer(a, q, n: int):
    """(a;q)_n = prod_{k=0..n-1} (1 - a q^k)."""
    nonnegative(n)
    return weights(factors(((1, 1), (-a, q))), n, 1 - a * 0)[n]


def q_pochhammer_inf(a, q, tol: float = DEFAULT_TOL):
    """(a;q)_inf = prod_k (1 - a q^k) to the geometric tail bound of
    ``stable_product``, or to an exact zero factor (a = q^-k), which gives 0."""
    if abs(q) >= 1:
        raise DivergentProduct(f"(a;q)_inf requires |q| < 1, got q = {q}")
    return stable_product(factors(((1, 1), (-a, q))), tol, what="(a;q)_inf",
                          bound=(abs(a), abs(q)))[0]

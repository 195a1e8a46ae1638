"""Scalar backbone: generalized Fibonacci numbers {n}, fibotorials {n}!,
fibonomials, the golden pair (phi, phi'), and the q-side machinery
(q-numbers, q-factorials, q-Pochhammer symbols).

The sequence is {0} = 0, {1} = 1, {n+2} = s{n+1} + t{n}.  The golden pair
are the roots of x^2 - s x - t, with phi the larger one and q = phi'/phi.
These satisfy phi + phi' = s, phi * phi' = -t and the factorial bridge
{n}! = phi^C(n,2) (q;q)_n / (1-q)^n.

Two scalar backends are fixed per Params instance:

* ``rational`` -- exact fractions.Fraction arithmetic.  Requires s, t
  rational with sqrt(s^2 + 4t) rational, so phi and q are rational too.
* ``float`` -- arbitrary-precision mpmath floats at a configurable number
  of significant digits (default 30; env var ST_PANTO_PRECISION overrides).

Every other object in the package carries or references a Params.  The
degenerate cases q = 1 and s^2 + 4t = 0 are hard errors: every divided
difference below divides by phi - phi'.  In particular the classical pair
(s, t) = (2, -1) is rejected; the classical limit is recovered only term
by term through the raw recurrence (see ``st_number_raw``).  The pure
q-calculus tower is the special case phi = 1, reached at s = 1 + q,
t = -q, where {n} reduces to the q-number [n]_q.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from itertools import islice
from typing import Union

from mpmath.ctx_mp import MPContext

from ._stable import DEFAULT_TOL, TERM_CAP, delay_factors, weights
from .errors import (
    BackendMismatch,
    ConvergenceFailure,
    DegenerateDiscriminant,
    DegenerateQ,
    DivergentProduct,
    IndexOutOfRange,
    StInputError,
    ZeroParameter,
)

Scalar = Union[Fraction, object]  # Fraction or a context-bound mpmath mpf

DEFAULT_PRECISION = 30
FLOAT_EQ_TOL = 1e-12


def _default_precision() -> int:
    return int(os.environ.get("ST_PANTO_PRECISION", DEFAULT_PRECISION))


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
    """Read a literal at the context's precision (the float-backend path)."""
    try:
        return ctx.mpf(x)
    except (ValueError, ZeroDivisionError):
        raise StInputError(f"cannot interpret {x!r} as a number") from None


def _rational_sqrt(x: Fraction) -> Fraction:
    if x < 0:
        raise BackendMismatch("negative discriminant needs a complex field")
    p, q = x.numerator, x.denominator
    rp, rq = math.isqrt(p), math.isqrt(q)
    if rp * rp != p or rq * rq != q:
        raise BackendMismatch(f"sqrt({x}) is irrational")
    return Fraction(rp, rq)


class Params:
    """The (s, t) pair with derived constants and the scalar backend.

    Immutable; safe to share across threads.  All scalar values used with a
    Params must come from its own backend (``wrap`` converts literals).
    """

    __slots__ = ("s", "t", "phi", "phi_prime", "q", "backend", "precision", "ctx")

    def __init__(self, s, t, phi, phi_prime, q, backend, precision, ctx):
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "phi_prime", phi_prime)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "backend", backend)
        object.__setattr__(self, "precision", precision)
        object.__setattr__(self, "ctx", ctx)

    def __setattr__(self, name, value):
        raise AttributeError("Params is immutable")

    def __repr__(self):
        return (f"Params(s={self.s}, t={self.t}, backend={self.backend!r}, "
                f"phi={self.phi}, q={self.q})")

    def __eq__(self, other):
        if not isinstance(other, Params):
            return NotImplemented
        return (self.backend == other.backend
                and self.precision == other.precision
                and self.s == other.s and self.t == other.t)

    def __hash__(self):
        return hash((self.backend, self.precision, str(self.s), str(self.t)))

    # -- scalar field helpers -------------------------------------------

    @property
    def rational(self) -> bool:
        return self.backend == "rational"

    def wrap(self, x) -> Scalar:
        """Convert a literal (int, str, float, Fraction) to a backend scalar."""
        if self.rational:
            return _as_fraction(x)
        if isinstance(x, Fraction):
            return self.ctx.mpf(x.numerator) / self.ctx.mpf(x.denominator)
        return _as_mpf(self.ctx, x)

    def zero(self) -> Scalar:
        return self.wrap(0)

    def one(self) -> Scalar:
        return self.wrap(1)

    def sqrt(self, x) -> Scalar:
        return _rational_sqrt(x) if self.rational else self.ctx.sqrt(x)

    def log(self, x) -> Scalar:
        if self.rational:
            raise BackendMismatch("log is not available in the rational backend")
        return self.ctx.log(x)

    def power(self, x, e) -> Scalar:
        """x**e; non-integer exponents need the float backend."""
        if isinstance(e, int) or (isinstance(e, Fraction) and e.denominator == 1):
            return self.wrap(x) ** int(e)
        if self.rational:
            raise BackendMismatch(f"non-integer exponent {e} in rational backend")
        return self.ctx.power(self.wrap(x), self.wrap(e))

    def eq(self, a, b, tol: float | None = None) -> bool:
        """Backend equality: exact for rationals, relative tol for floats."""
        if self.rational and tol is None:
            return a == b
        if tol is None:
            tol = FLOAT_EQ_TOL
        scale = max(1, abs(a), abs(b))
        return abs(a - b) <= tol * scale

    def to_str(self, x) -> str:
        """Exact 'p/q' string, or a decimal string at the declared precision."""
        if isinstance(x, Fraction):
            return str(x)
        if self.ctx.isint(x):
            return str(int(x))
        return self.ctx.nstr(x, self.precision)


def golden_pair(s, t, backend: str | None = None, precision: int | None = None) -> Params:
    """Build Params for the pair (s, t).

    backend None picks rational arithmetic when s, t and sqrt(s^2 + 4t)
    are all rational, floating otherwise.  An explicit ``rational`` with an
    irrational discriminant raises BackendMismatch.
    """
    if precision is None:
        precision = _default_precision()

    exact = None
    try:
        se, te = _as_fraction(s), _as_fraction(t)
        exact = (se, te)
    except BackendMismatch:
        if backend == "rational":
            raise

    if exact is not None:
        se, te = exact
        if se == 0 or te == 0:
            raise ZeroParameter("both s and t must be nonzero")
        disc = se * se + 4 * te
        if disc == 0:
            raise DegenerateDiscriminant(
                f"s^2 + 4t = 0 at (s, t) = ({se}, {te}); phi = phi' is unsupported")
        if backend in (None, "rational"):
            try:
                root = _rational_sqrt(disc)
                phi = (se + root) / 2
                phi_prime = se - phi
                return Params(se, te, phi, phi_prime, phi_prime / phi,
                              "rational", 0, None)
            except BackendMismatch:
                if backend == "rational":
                    raise BackendMismatch(
                        f"sqrt(s^2+4t) = sqrt({disc}) is irrational; use the float backend")

    ctx = MPContext()
    ctx.dps = precision
    if exact is not None:
        sw = ctx.mpf(exact[0].numerator) / ctx.mpf(exact[0].denominator)
        tw = ctx.mpf(exact[1].numerator) / ctx.mpf(exact[1].denominator)
    else:
        sw, tw = _as_mpf(ctx, s), _as_mpf(ctx, t)
        if not (ctx.isfinite(sw) and ctx.isfinite(tw)):
            raise StInputError(f"s and t must be finite, got (s, t) = ({s}, {t})")
    if sw == 0 or tw == 0:
        raise ZeroParameter("both s and t must be nonzero")
    disc = sw * sw + 4 * tw
    if abs(disc) <= ctx.mpf(10) ** (3 - precision) * max(1, abs(sw) ** 2):
        raise DegenerateDiscriminant(
            f"s^2 + 4t vanishes at (s, t) = ({sw}, {tw}); phi = phi' is unsupported")
    phi = (sw + ctx.sqrt(disc)) / 2
    phi_prime = sw - phi
    return Params(sw, tw, phi, phi_prime, phi_prime / phi, "float", precision, ctx)


# -- (s,t)-numbers ------------------------------------------------------


def st_number_raw(s, t, n: int):
    """{n} by the bare recurrence, in whatever arithmetic s and t support.

    Needs no golden pair, so it also covers degenerate pairs like the
    classical (2, -1).
    """
    if n < 0:
        raise IndexOutOfRange(f"n = {n} must be nonnegative")
    return next(st_numbers(s, t, n))


def st_numbers(s, t, start: int = 0):
    """{start}, {start+1}, ... lazily, by the bare recurrence."""
    a, b = s * 0, s * 0 + 1
    for _ in range(start):
        a, b = b, s * b + t * a
    while True:
        yield a
        a, b = b, s * b + t * a


def st_number(params: Params, n: int) -> Scalar:
    """{n}_{s,t} via the linear recurrence (never Binet: no cancellation)."""
    return st_number_raw(params.s, params.t, n)


def st_number_range(params: Params, upto: int) -> list:
    """[{0}, {1}, ..., {upto}]."""
    if upto < 0:
        raise IndexOutOfRange(f"upto = {upto} must be nonnegative")
    return list(islice(st_numbers(params.s, params.t), upto + 1))


def st_factorial(params: Params, n: int) -> Scalar:
    """{n}! = {1}{2}...{n}; empty product for n = 0."""
    if n < 0:
        raise IndexOutOfRange(f"n = {n} must be nonnegative")
    return weights(islice(st_numbers(params.s, params.t), 1, None), n, params.one())[n]


def st_fibonomial(params: Params, n: int, k: int) -> Scalar:
    """{n}! / ({k}! {n-k}!)."""
    if k < 0 or n < 0 or k > n:
        raise IndexOutOfRange(f"need 0 <= k <= n, got n = {n}, k = {k}")
    return st_factorial(params, n) / (st_factorial(params, k) * st_factorial(params, n - k))


def binet(params: Params, n: int) -> Scalar:
    """(phi^n - phi'^n) / (phi - phi'); cross-check for st_number."""
    if n < 0:
        raise IndexOutOfRange(f"n = {n} must be nonnegative")
    return (params.phi ** n - params.phi_prime ** n) / (params.phi - params.phi_prime)


# -- q-side machinery ----------------------------------------------------


def q_number(q, a):
    """[a]_q = (1 - q^a) / (1 - q)."""
    if q == 1:
        raise DegenerateQ("[a]_q requires q != 1")
    return (1 - q ** a) / (1 - q)


def q_factorial(q, n: int):
    """[n]_q! = prod_{k=1..n} [k]_q; equals (q;q)_n / (1-q)^n."""
    if n < 0:
        raise IndexOutOfRange(f"n = {n} must be nonnegative")
    if q == 1:
        raise DegenerateQ("[n]_q! requires q != 1")
    prod = 1 - q * 0  # one in the operand arithmetic
    for k in range(1, n + 1):
        prod *= q_number(q, k)
    return prod


def q_pochhammer(a, q, n: int):
    """(a;q)_n = prod_{k=0..n-1} (1 - a q^k)."""
    if n < 0:
        raise IndexOutOfRange(f"n = {n} must be nonnegative")
    return weights(delay_factors(1, -a, q), n, 1 - a * 0)[n]


def q_pochhammer_inf(a, q, tol: float = DEFAULT_TOL, cap: int = TERM_CAP):
    """(a;q)_inf, truncated once |a q^k| stays below tol for three factors."""
    if abs(q) >= 1:
        raise DivergentProduct(f"(a;q)_inf requires |q| < 1, got q = {q}")
    prod = 1 - a * 0
    aqk = a * (1 - a * 0)
    quiet = 0
    for _ in range(cap):
        factor = 1 - aqk
        if factor == 0:
            return prod * 0
        prod *= factor
        dev = abs(aqk)
        threshold = Fraction(tol) if isinstance(dev, Fraction) else tol
        if dev < threshold:
            quiet += 1
            if quiet >= 3:
                return prod
        else:
            quiet = 0
        aqk *= q
    raise ConvergenceFailure(f"(a;q)_inf did not settle within {cap} factors")

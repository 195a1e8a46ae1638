"""Shared kernels: the truncation rule for infinite sums and products, the
numbers {n}, and the prefix-product construction the special functions are
built from.

One rule everywhere: a sum stops once three consecutive terms satisfy
|term| <= tol * (1 + |partial sum|), a product once three consecutive
factors satisfy |factor - 1| <= tol or at an exact zero factor.  A sum
whose term magnitudes instead keep growing past 1 for many consecutive
steps is declared divergent early (convergent sums here have at most a
short growth prefix before the factorials win); a product has no such
guard, since (10^6; 9/10)_inf grows for over a hundred factors before it
settles.  Either fails when still running at its cap: TERM_CAP terms for
a sum, the caller's cap (TERM_CAP by default) for a product.

The construction: a factor stream f_k, its prefix products
w_n = f_0 ... f_{n-1} and the point terms w_n x^n / {n}!; the one builder
of the series form sum w_n g_n x^n / {n}! is ``stseries.factorial_series``.
"""

from fractions import Fraction
from itertools import accumulate, islice, repeat
from operator import add, mul

from .errors import ConvergenceFailure

TERM_CAP = 10_000
STABLE_RUN = 3
GROW_RUN = 64
DEFAULT_TOL = 1e-15


def _threshold(tol, magnitude):
    # Keep Fraction arithmetic exact: float * huge Fraction can overflow.
    if isinstance(magnitude, Fraction):
        return Fraction(tol) * (1 + magnitude)
    return tol * (1 + magnitude)


def _cap_failure(what, cap):
    return ConvergenceFailure(f"{what}: no convergence within {cap} terms")


def stable_sum(terms, tol=DEFAULT_TOL, what="series"):
    """Sum the infinite stream ``terms`` under the decay rule.

    Returns (value, terms_consumed).  Raises ConvergenceFailure when the
    terms grow without settling, or when TERM_CAP terms (or a stream that
    ends sooner) do not settle; no term past the cap is drawn.
    """
    total = None
    small = 0
    growing = 0
    prev_mag = None
    for n, term in enumerate(islice(terms, TERM_CAP)):
        total = term if total is None else total + term
        mag = abs(term)
        if mag <= _threshold(tol, abs(total)):
            small += 1
            if small >= STABLE_RUN:
                return total, n + 1
        else:
            small = 0
        if prev_mag is not None and mag > prev_mag and mag > 1:
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
    0).  Returns (value, factors_consumed) and fails at the cap like
    ``stable_sum``.
    """
    total, near_one = 1, 0
    for n, factor in enumerate(islice(factors, cap)):
        total *= factor
        near_one = near_one + 1 if abs(factor - 1) <= tol else 0
        if factor == 0 or near_one >= STABLE_RUN:
            return total, n + 1
    raise _cap_failure(what, cap)


def st_numbers(s, t, start: int = 0):
    """{start}, {start+1}, ... lazily, by the bare recurrence
    {0} = 0, {1} = 1, {n+2} = s{n+1} + t{n}."""
    a, b = s * 0, s * 0 + 1
    for _ in range(start):
        a, b = b, s * b + t * a
    while True:
        yield a
        a, b = b, s * b + t * a


# -- prefix products of a factor stream ------------------------------------


def powers(u):
    """u^k for k = 0, 1, ...: the factors of (0 (+) 1)^n_{1,u} = u^C(n,2)."""
    return accumulate(repeat(u), mul, initial=1)


def delay_factors(a, b, u):
    """a + b u^k for k = 0, 1, ...: the factors of (a (+) b)^n_{1,u}.
    Built from iterator primitives, so no Python frame runs per factor."""
    return map(add, repeat(a), map(mul, repeat(b), powers(u)))


def golden_factors(params, alpha, beta):
    """alpha phi^k + beta phi'^k for k = 0, 1, ...: the factors of
    (alpha (+) beta)^n_{phi,phi'}."""
    return map(add, map(mul, repeat(alpha), powers(params.phi)),
               map(mul, repeat(beta), powers(params.phi_prime)))


def weights(factors, n: int, one) -> list:
    """[w_0, ..., w_n]: w_0 = one and w_{k+1} = w_k f_k, the prefix products
    (the empty list for n = -1)."""
    return list(islice(accumulate(factors, mul, initial=one), n + 1))


def point_terms(factors, x, t, params=None, n=0):
    """The terms t_n = t, t_{k+1} = t_k f x / {k+1} (k >= n) of a point sum,
    f running over ``factors`` and {k} over the numbers of ``params``,
    drawn from ``st_numbers``; with ``params`` None there is no divisor."""
    if params is None:
        for f in factors:
            yield t
            t = t * f * x
        return
    for f, num in zip(factors, st_numbers(params.s, params.t, n + 1)):
        yield t
        t = t * f * x / num

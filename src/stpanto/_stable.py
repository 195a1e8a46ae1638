"""Shared kernels: the truncation rule for infinite sums, and the
prefix-product construction the special functions are built from.

One rule everywhere: a sum stops once three consecutive terms satisfy
|term| <= tol * (1 + |partial sum|).  A sum whose term magnitudes instead
keep growing past 1 for many consecutive steps is declared divergent
early (convergent sums here have at most a short growth prefix before
the factorials win), as is a sum still running at the term cap.

The construction: a factor stream f_k, its prefix products
w_n = f_0 ... f_{n-1} and the point terms w_n x^n / {n}!; the series form
sum w_n x^n / {n}! is ``stseries.factorial_series``.
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


def stable_sum(terms, tol=DEFAULT_TOL, cap=TERM_CAP, what="series"):
    """Sum ``terms`` (an iterable) under the decay rule.

    Returns (value, terms_consumed).  Raises ConvergenceFailure when the
    cap is hit or the terms grow without settling.
    """
    total = None
    small = 0
    growing = 0
    prev_mag = None
    for n, term in enumerate(terms):
        total = term if total is None else total + term
        if n >= cap:
            raise ConvergenceFailure(f"{what}: no convergence within {cap} terms")
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
    return total, cap


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
    pk, ppk = params.one(), params.one()
    while True:
        yield alpha * pk + beta * ppk
        pk, ppk = pk * params.phi, ppk * params.phi_prime


def weights(factors, n: int, one) -> list:
    """[w_0, ..., w_n]: w_0 = one and w_{k+1} = w_k f_k, the prefix products
    (the empty list for n = -1)."""
    return list(islice(accumulate(factors, mul, initial=one), n + 1))


def point_terms(factors, x, t, params=None, n=0):
    """The terms t_n = t, t_{k+1} = t_k f x / {k+1} (k >= n) of a point sum,
    f running over ``factors`` and {k} over the numbers of ``params``,
    advanced in step with the terms; with ``params`` None there is no
    divisor."""
    if params is None:
        for f in factors:
            yield t
            t = t * f * x
        return
    s, tt = params.s, params.t
    prev, cur = params.zero(), params.one()
    for _ in range(n):
        prev, cur = cur, s * cur + tt * prev
    for f in factors:
        yield t
        t = t * f * x / cur
        prev, cur = cur, s * cur + tt * prev

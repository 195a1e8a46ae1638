"""Special functions of the theory, as coefficient generators and point
evaluators: the deformed exponential exp(z, u) = sum u^C(n,2) z^n/{n}!,
the two-parameter product exponential with (alpha (+) beta)^n_{phi,phi'}
coefficients, the pantograph function

    E(a, b; z, u) = sum (a (+) b)^n_{1,u} z^n / {n}!,

which solves D y = a y(x) + b y(u x), and Ramanujan's partial Theta
function Theta0(x, y) = sum y^C(n,2) x^n.

Every function here is one specialization of the prefix-product kernel
in ``_stable``: the (+)-products are always computed from their defining
factor products (a + b u^k resp. alpha phi^k + beta phi'^k), each series
is ``stseries.factorial_series`` of its factor stream and each point
evaluator is one ``_stable.point_sum`` of the same stream, on raw libmp
values when the scalars are mpf.  exp(z, u) is E(0, 1; z, u),
whose factors 0 + 1 u^k are the powers u^k, and Theta0(x, y) sums the
(0 (+) 1)^n_{1,y} x^n without the {n}!.  The closed q-Pochhammer
rewrite a^n (-b/a; u)_n is kept as a cross-check only.

Each point sum stops at its proven tail bound (``_stable.tail_ratios``),
or by the decay rule (three consecutive terms below tol) where its factors
have no usable geometric majorant: complex or equal-modulus phi, phi',
|u| > max(|phi|, |phi'|), or a ratio bound that tends to 1 or more.
Before summing, E and Theta0 check analytically that their series converge
at the point at all (``pantograph_domain``, ``theta_domain``): the first
terms of a series of radius 0 can decay, and the decay rule would stop on
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from ._stable import (DEFAULT_TOL, TERM_CAP, delay_factors, golden_factors, point_sum, powers,
                      weights)
from .errors import ConvergenceFailure
from .stnum import Params
from .stseries import Series, factorial_series


@dataclass(frozen=True)
class PantographSpec:
    """The (a, b, u) triple of E(a, b; x, u): undelayed weight a, delayed
    weight b, proportional delay u.  a = -b is legal and collapses every
    n >= 1 coefficient (first product factor a + b u^0 = 0)."""

    a: object
    b: object
    u: object


def oplus_delay_pow(a, b, u, n: int):
    """(a (+) b)^n_{1,u} = prod_{k<n} (a + b u^k)."""
    return weights(delay_factors(a, b, u), n, a * 0 + 1)[n]


def oplus_golden_pow(params: Params, alpha, beta, n: int):
    """(alpha (+) beta)^n_{phi,phi'} = prod_{k<n} (alpha phi^k + beta phi'^k)."""
    factors = golden_factors(params, params.wrap(alpha), params.wrap(beta))
    return weights(factors, n, params.one())[n]


# -- pantograph function and its specializations ----------------------------


def pantograph(params: Params, spec: PantographSpec, N: int) -> Series:
    """Series of E(a, b; z, u): coefficients (a (+) b)^n_{1,u} / {n}!."""
    factors = delay_factors(params.wrap(spec.a), params.wrap(spec.b), params.wrap(spec.u))
    return factorial_series(params, factors, N)


def pantograph_at(params: Params, spec: PantographSpec, x, tol: float = DEFAULT_TOL):
    """E(a, b; x, u) at a point."""
    a, b, u, x, one = (params.wrap(v) for v in (spec.a, spec.b, spec.u, x, 1))
    pantograph_domain(params, a, b, u, x)
    return point_sum(partial(delay_factors, a, b, u), ((a, one), (b, u)), x, one, params,
                     tol=tol, what="E(a, b; x, u)")


def deformed_exp(params: Params, u, N: int) -> Series:
    """Series of exp(z, u) = E(0, 1; z, u): coefficients u^C(n,2) / {n}!;
    u = 0 gives 1 + z."""
    return factorial_series(params, powers(params.wrap(u)), N)


def deformed_exp_at(params: Params, u, z, tol: float = DEFAULT_TOL):
    """exp(z, u) at a point."""
    u, z, one = params.wrap(u), params.wrap(z), params.one()
    pantograph_domain(params, params.zero(), one, u, z)
    return point_sum(partial(powers, u), ((one, u),), z, one, params, tol=tol, what="exp(z, u)")


def product_exp(params: Params, alpha, beta, N: int) -> Series:
    """Series with coefficients (alpha (+) beta)^n_{phi,phi'} / {n}!.

    Equals the product Exp(alpha x) Exp'(beta x) of the two golden-pair
    exponentials Exp = exp(., phi), Exp' = exp(., phi').
    """
    factors = golden_factors(params, params.wrap(alpha), params.wrap(beta))
    return factorial_series(params, factors, N)


# -- convergence domains -----------------------------------------------------


def pantograph_domain(params: Params, a, b, u, x):
    """Raise unless the series of E(a, b; ., u) converges at x.

    The weights (a (+) b)^n_{1,u} grow like G^(n^2/2), with G = |u| when
    b != 0 and (a = 0 or |u| > 1) and G = 1 otherwise, and {n}! grows like
    m^(n^2/2) with m = max(|phi|, |phi'|) (``params.growth``).  So the
    radius is 0 when G > m, unless some factor a + b u^k is 0 and E is a
    polynomial.  A series of radius 0 converges only at x = 0.
    """
    m = params.growth
    if abs(u) <= m >= 1 or x == 0:
        return      # G <= max(|u|, 1) <= m
    grow = abs(u) if b != 0 and (a == 0 or abs(u) > 1) else 1
    if grow > m and not _has_zero_factor(params, a, b, u):
        raise ConvergenceFailure(
            f"E(a, b; x, u) has radius 0: its weights outgrow {{n}}! "
            f"(G = {float(grow):.6g} > max(|phi|, |phi'|) = {float(m):.6g})")


def _has_zero_factor(params: Params, a, b, u) -> bool:
    """Whether a + b u^k = 0 for some k below the point sums' term cap."""
    if b == 0:
        return a == 0
    r = -a / b
    if r == 0 or abs(u) in (0, 1):
        return r == 1 or r == u     # then u^k only takes the values 1, u (and 0)
    k = round(params.ring.log_abs(r) / params.ring.log_abs(u))
    return 0 <= k < TERM_CAP and a + b * u ** k == 0


def theta_domain(x, y):
    """Raise unless the terms y^C(n,2) x^n of Theta0(x, y) can decay."""
    if abs(y) > 1:
        raise ConvergenceFailure(f"Theta0 needs |y| <= 1, got y = {y}")
    if abs(y) == 1 and abs(x) >= 1:
        raise ConvergenceFailure("Theta0 at |y| = 1 needs |x| < 1")


# -- partial Theta ---------------------------------------------------------


def partial_theta(x, y, tol: float = DEFAULT_TOL):
    """Theta0(x, y) = sum_n y^C(n,2) x^n at a point.

    Needs |y| <= 1, and |x| < 1 on the boundary |y| = 1; outside that the
    terms cannot decay and the sum is rejected.
    """
    theta_domain(x, y)
    one = x * 0 + 1
    return point_sum(partial(powers, y), ((one, y),), x, one, tol=tol, what="Theta0(x, y)")


def partial_theta_series(y, N: int) -> list:
    """[y^C(n,2) for n <= N]: the coefficient sequence of Theta0(., y)."""
    return weights(powers(y), N, y * 0 + 1)


def psi_theta(q, tol: float = DEFAULT_TOL):
    """psi(q) = Theta0(q, q) = sum q^C(n+1,2)."""
    return partial_theta(q, q, tol)

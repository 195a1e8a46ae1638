"""Special functions of the theory, as coefficient generators and point
evaluators: the deformed exponential exp(z, u) = sum u^C(n,2) z^n/{n}!,
the two-parameter product exponential with (alpha (+) beta)^n_{phi,phi'}
coefficients, the pantograph function

    E(a, b; z, u) = sum (a (+) b)^n_{1,u} z^n / {n}!,

which solves D y = a y(x) + b y(u x), and Ramanujan's partial Theta
function Theta0(x, y) = sum y^C(n,2) x^n.

Every function here is one specialization of the prefix-product kernel
in ``_stable``: the (+)-products are always computed from their defining
factor products (a + b u^k resp. alpha phi^k + beta phi'^k), the series
divide them by {n}! (``factorial_series``) and the point evaluators sum the
matching point terms.  exp(z, u) is E(0, 1; z, u), whose factors
0 + 1 u^k are the powers u^k, and Theta0(x, y) sums the
(0 (+) 1)^n_{1,y} x^n without the {n}!.  The closed q-Pochhammer
rewrite a^n (-b/a; u)_n is kept as a cross-check only.

Point evaluation truncates by the shared decay rule (three consecutive
terms below tol); convergence domains are checked empirically through that
rule rather than analytically.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._stable import (
    DEFAULT_TOL,
    delay_factors,
    golden_factors,
    point_terms,
    powers,
    stable_sum,
    weights,
)
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


def _delay_factors(params: Params, spec: PantographSpec):
    return delay_factors(params.wrap(spec.a), params.wrap(spec.b), params.wrap(spec.u))


def _pantograph_point(params: Params, factors, x, tol, what):
    terms = point_terms(factors, params.wrap(x), params.one(), params)
    value, _ = stable_sum(terms, tol, what=what)
    return value


def pantograph(params: Params, spec: PantographSpec, N: int) -> Series:
    """Series of E(a, b; z, u): coefficients (a (+) b)^n_{1,u} / {n}!."""
    return factorial_series(params, weights(_delay_factors(params, spec), N, params.one()))


def pantograph_at(params: Params, spec: PantographSpec, x, tol: float = DEFAULT_TOL):
    """E(a, b; x, u) at a point."""
    return _pantograph_point(params, _delay_factors(params, spec), x, tol, "E(a, b; x, u)")


def deformed_exp(params: Params, u, N: int) -> Series:
    """Series of exp(z, u) = E(0, 1; z, u): coefficients u^C(n,2) / {n}!;
    u = 0 gives 1 + z."""
    return factorial_series(params, weights(powers(params.wrap(u)), N, params.one()))


def deformed_exp_at(params: Params, u, z, tol: float = DEFAULT_TOL):
    """exp(z, u) at a point, by the decay-truncated term sum."""
    return _pantograph_point(params, powers(params.wrap(u)), z, tol, "exp(z, u)")


def product_exp(params: Params, alpha, beta, N: int) -> Series:
    """Series with coefficients (alpha (+) beta)^n_{phi,phi'} / {n}!.

    Equals the product Exp(alpha x) Exp'(beta x) of the two golden-pair
    exponentials Exp = exp(., phi), Exp' = exp(., phi').
    """
    factors = golden_factors(params, params.wrap(alpha), params.wrap(beta))
    return factorial_series(params, weights(factors, N, params.one()))


# -- partial Theta ---------------------------------------------------------


def partial_theta(x, y, tol: float = DEFAULT_TOL):
    """Theta0(x, y) = sum_n y^C(n,2) x^n at a point.

    Needs |y| <= 1, and |x| < 1 on the boundary |y| = 1; outside that the
    terms cannot decay and the sum is rejected.
    """
    if abs(y) > 1:
        raise ConvergenceFailure(f"Theta0 needs |y| <= 1, got y = {y}")
    if abs(y) == 1 and abs(x) >= 1:
        raise ConvergenceFailure("Theta0 at |y| = 1 needs |x| < 1")
    value, _ = stable_sum(point_terms(powers(y), x, x * 0 + 1), tol,
                          what="Theta0(x, y)")
    return value


def partial_theta_series(y, N: int) -> list:
    """[y^C(n,2) for n <= N]: the coefficient sequence of Theta0(., y)."""
    return weights(powers(y), N, y * 0 + 1)


def psi_theta(q, tol: float = DEFAULT_TOL):
    """psi(q) = Theta0(q, q) = sum q^C(n+1,2)."""
    return partial_theta(q, q, tol)

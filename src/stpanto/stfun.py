"""Special functions of the theory, as coefficient generators and point
evaluators: the deformed exponential exp(z, u) = sum u^C(n,2) z^n/{n}!,
the two-parameter product exponential with (alpha (+) beta)^n_{phi,phi'}
coefficients, the pantograph function

    E(a, b; z, u) = sum (a (+) b)^n_{1,u} z^n / {n}!,

which solves D y = a y(x) + b y(u x), and Ramanujan's partial Theta
function Theta0(x, y) = sum y^C(n,2) x^n.

Every function here is one specialization of the prefix-product kernel
in ``_stable``: the (+)-products are always computed from their defining
factor products (a + b u^k resp. alpha phi^k + beta phi'^k), and each series
(``stseries.factorial_series``) and each point evaluator (one
``_stable.point_sum``) is built from the (c, r) pairs of its factors
f_k = sum c r^k: (a, 1), (b, u) for E, (1, u) for exp(z, u), which is
E(0, 1; z, u), and (1, y) for Theta0(x, y), which sums the
(0 (+) 1)^n_{1,y} x^n without the {n}!.  The closed q-Pochhammer rewrite
a^n (-b/a; u)_n is a test oracle (``tests/test_stfun.py``), not a path.

The pairs give the point sum its terms, its proven tail bound (from the
majorant sum |c| |r|^k of the factors) and, where there is no bound, its
refusal of a series of radius 0 (some |r| > max(|phi|, |phi'|) at c != 0
and no factor 0) at any x != 0: the first terms of such a series can
decay, and the decay rule would stop on them.  Other sums with no bound
(complex or equal-modulus phi, phi', or a ratio bound that tends to 1 or
more) stop by the decay rule (three consecutive terms below tol).
"""

from __future__ import annotations

from dataclasses import dataclass

from ._stable import DEFAULT_TOL, factors, point_sum, powers, weights
from .errors import ConvergenceFailure
from .stnum import Params, nonnegative
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
    return weights(factors(((a, 1), (b, u))), nonnegative(n), a * 0 + 1)[n]


def oplus_golden_pow(params: Params, alpha, beta, n: int):
    """(alpha (+) beta)^n_{phi,phi'} = prod_{k<n} (alpha phi^k + beta phi'^k)."""
    pairs = ((params.wrap(alpha), params.phi), (params.wrap(beta), params.phi_prime))
    return weights(factors(pairs), nonnegative(n), params.one())[n]


# -- pantograph function and its specializations ----------------------------


def pantograph(params: Params, spec: PantographSpec, N: int) -> Series:
    """Series of E(a, b; z, u): coefficients (a (+) b)^n_{1,u} / {n}!."""
    pairs = ((params.wrap(spec.a), 1), (params.wrap(spec.b), params.wrap(spec.u)))
    return factorial_series(params, pairs, N)


def pantograph_at(params: Params, spec: PantographSpec, x, tol: float = DEFAULT_TOL):
    """E(a, b; x, u) at a point."""
    a, b, u = params.wrap(spec.a), params.wrap(spec.b), params.wrap(spec.u)
    x, one = params.wrap(x), params.one()
    return point_sum(((a, one), (b, u)), x, one, params, tol=tol, what="E(a, b; x, u)")


def deformed_exp(params: Params, u, N: int) -> Series:
    """Series of exp(z, u) = E(0, 1; z, u): coefficients u^C(n,2) / {n}!;
    u = 0 gives 1 + z."""
    return factorial_series(params, ((1, params.wrap(u)),), N)


def deformed_exp_at(params: Params, u, z, tol: float = DEFAULT_TOL):
    """exp(z, u) at a point."""
    u, z, one = params.wrap(u), params.wrap(z), params.one()
    return point_sum(((one, u),), z, one, params, tol=tol, what="exp(z, u)")


def product_exp(params: Params, alpha, beta, N: int) -> Series:
    """Series with coefficients (alpha (+) beta)^n_{phi,phi'} / {n}!.

    Equals the product Exp(alpha x) Exp'(beta x) of the two golden-pair
    exponentials Exp = exp(., phi), Exp' = exp(., phi').
    """
    pairs = ((params.wrap(alpha), params.phi), (params.wrap(beta), params.phi_prime))
    return factorial_series(params, pairs, N)


def theta_domain(x, y):
    """Raise where the terms y^C(n,2) x^n of Theta0(x, y) cannot decay at
    |y| = 1 (|y| > 1 has radius 0, which ``point_sum`` refuses)."""
    if abs(y) == 1 and abs(x) >= 1:
        raise ConvergenceFailure("Theta0 at |y| = 1 needs |x| < 1")


# -- partial Theta ---------------------------------------------------------


def partial_theta(x, y, tol: float = DEFAULT_TOL):
    """Theta0(x, y) = sum_n y^C(n,2) x^n at a point.

    Needs |y| <= 1 at x != 0 (|y| > 1 is radius 0), and |x| < 1 on the
    boundary |y| = 1; outside that the terms cannot decay and the sum is
    rejected.
    """
    theta_domain(x, y)
    one = x * 0 + 1
    return point_sum(((one, y),), x, one, tol=tol, what="Theta0(x, y)")


def partial_theta_series(y, N: int) -> list:
    """[y^C(n,2) for n <= N]: the coefficient sequence of Theta0(., y)."""
    return weights(powers(y), nonnegative(N, "N"), y * 0 + 1)


def psi_theta(q, tol: float = DEFAULT_TOL):
    """psi(q) = Theta0(q, q) = sum q^C(n+1,2)."""
    return partial_theta(q, q, tol)

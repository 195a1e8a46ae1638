"""Jackson-type integration on geometric node sets.

The basic object is the integral over the geometric interval
[a, b]_q = {a q^n/phi} u {b q^n/phi},

    int_a^b f d = (1 - q) sum_n [b f(b q^n/phi) - a f(a q^n/phi)] q^n,

which inverts the divided-difference derivative (fundamental theorem) and
supports integration by parts.  For a Series (a polynomial) the sum is
exactly F(b) - F(a) with F its antiderivative, so none runs.  A callable
is summed with the package-wide decay truncation, so convergence is a
runtime diagnostic (the sum settled before the cap), not an a-priori
membership test.  Negative q with |q| < 1 is allowed: the node terms then
alternate and the same decay rule applies.  The node sum is
``_stable.node_sum``.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Callable, Union

from ._stable import DEFAULT_TOL, node_sum, point_sum
from .errors import (
    DegenerateRatio,
    HypothesisViolated,
    ParamsMismatch,
    QOutOfRange,
)
from .stnum import Params
from .stseries import Series, factorial_series, st_antiderive, st_derive
from .stfun import PantographSpec, theta_domain

Integrand = Union[Series, Callable]


class QInterval:
    """Endpoints a, b of a (q, phi)-geometric interval; needs 0 < |q| < 1."""

    __slots__ = ("a", "b", "params")

    def __init__(self, a, b, params: Params):
        if not 0 < abs(params.q) < 1:
            raise QOutOfRange(f"[a, b]_q needs 0 < |q| < 1, got q = {params.q}")
        self.a = params.wrap(a)
        self.b = params.wrap(b)
        self.params = params

    def __repr__(self):
        p = self.params
        return f"QInterval({p.to_str(self.a)}, {p.to_str(self.b)}, q={p.to_str(p.q)})"


def st_integral(f: Integrand, interval: QInterval, tol: float = DEFAULT_TOL):
    """int_a^b f d over [a, b]_q.  A Series gives F(b) - F(a) with F = st_antiderive(f),
    the node sum in closed form: (1 - q) sum_n b (b q^n/phi)^k q^n = b^(k+1)/{k+1}.
    A callable gives the node sum, pq_integral at (phi, phi') for each endpoint
    (nodes x q^n/phi, weights (1 - q) x q^n), decay-truncated at tol."""
    params = interval.params
    if isinstance(f, Series):
        if f.params != params:
            raise ParamsMismatch("integrand Series carries different Params")
        big_f = st_antiderive(f)
        return big_f.eval(interval.b) - big_f.eval(interval.a)

    def g(x):
        return params.wrap(f(x))

    phi, phi_prime = params.phi, params.phi_prime
    return (pq_integral(g, interval.b, phi, phi_prime, tol)
            - pq_integral(g, interval.a, phi, phi_prime, tol))


def pq_integral(f: Callable, a, p, q, tol: float = DEFAULT_TOL):
    """The two-branch (p, q)-integral of f over [0, a].

    |p| > |q| (q = 0 included): (p - q) a sum_k q^k/p^{k+1} f(a q^k/p^{k+1});
    |p| < |q|: the same with p and q exchanged.
    """
    if a == 0:
        return a * 0
    if abs(p) == abs(q):
        raise DegenerateRatio(f"(p, q)-integral needs |p| != |q|, got p = {p}, q = {q}")
    if abs(p) < abs(q):
        p, q = q, p
    return (p - q) * a * node_sum(f, a, p, q, tol)


def check_ftc(f: Series, interval: QInterval, tol: float = DEFAULT_TOL):
    """|int_a^b (D f) d  -  (f(b) - f(a))|: the fundamental-theorem defect of
    the node sum (D f enters as a callable; a Series would use this theorem)."""
    lhs = st_integral(st_derive(f).eval, interval, tol)
    rhs = f.eval(interval.b) - f.eval(interval.a)
    return abs(lhs - rhs)


def check_by_parts(f: Series, g: Series, interval: QInterval, tol: float = DEFAULT_TOL):
    """Defect of int (Df)(x) g(phi' x) d = [f g]_a^b - int f(phi x) (Dg)(x) d."""
    f._check(g)
    params = interval.params
    df, dg = st_derive(f), st_derive(g)
    left = st_integral(lambda x: df.eval(x) * g.eval(params.phi_prime * x), interval, tol)
    right = st_integral(lambda x: f.eval(params.phi * x) * dg.eval(x), interval, tol)
    boundary = f.eval(interval.b) * g.eval(interval.b) - f.eval(interval.a) * g.eval(interval.a)
    return abs(left - (boundary - right))


# -- antiderivatives of the special functions -------------------------------


def pantograph_antiderivative_series(params: Params, spec: PantographSpec, N: int) -> Series:
    """The antiderivative of E(a, b; x, u) as a series, normalized like the
    alternating k-sum: constant term u/(a u + b), then (a (+) b)^{n-1}/{n}!.

    Each coefficient is the closed geometric value of its k-sum column, so
    this is exact in the rational backend.
    """
    a, b, u = params.wrap(spec.a), params.wrap(spec.b), params.wrap(spec.u)
    if a == 0 or u == 0:
        raise HypothesisViolated("the k-sum form needs a != 0 and u != 0")
    if a * u + b == 0:
        raise HypothesisViolated("the constant u/(a u + b) is undefined at a u + b = 0")
    return factorial_series(params, ((a, 1), (b, u)), N, chain([u / (a * u + b)], repeat(1)),
                            lead=1)


def pantograph_antiderivative_at(params: Params, spec: PantographSpec, x,
                                 tol: float = DEFAULT_TOL):
    """The (s,t)-antiderivative of E(a, b; .; u) at x, pinned to the value
    u/(a u + b) at x = 0: the point form of pantograph_antiderivative_series.

    Hypotheses: a != 0 and |b/(a u)| < 1.  For |u| <= 1 the same function is
    the alternating sum (1/a) sum_k (-1)^k (b/(a u))^k E(a, b; u^k x, u).
    One ``point_sum`` of the pairs (a, 1), (b, u) of E, which also refuses
    x != 0 where the series has radius 0.
    """
    a, b, u = params.wrap(spec.a), params.wrap(spec.b), params.wrap(spec.u)
    if a == 0 or u == 0:
        raise HypothesisViolated("antiderivative formula needs a != 0 and u != 0")
    r = -b / (a * u)
    if abs(r) >= 1:
        raise HypothesisViolated(f"needs |b/(a u)| < 1, got |b/(a u)| = {abs(r)}")
    x = params.wrap(x)
    # u/(a u + b) + sum_{n>=1} (a (+) b)^{n-1}_{1,u} x^n / {n}!, one sum
    return point_sum(((a, params.one()), (b, u)), x, x, params, 1, u / (a * u + b), tol,
                     "pantograph antiderivative")


def theta_antiderivative_at(params: Params, x, tol: float = DEFAULT_TOL):
    """The antiderivative of Theta0((1-q) x, 1/phi) = E(1, -q; x, q) at x,
    vanishing at 0; the same function is sum_k (Theta0((1-q) q^k x, 1/phi) - 1).

    This is the boundary case b/(a u) = -1 of the pantograph antiderivative
    at spec (1, -q, q), where u/(a u + b) is undefined: the same power series
    with constant 0, whose pairs (1, 1), (-q, q) refuse x != 0 at |phi| < 1
    (radius 0).
    """
    if not abs(params.q) < 1:
        raise QOutOfRange(f"needs |q| < 1, got q = {params.q}")
    x, q, one = params.wrap(x), params.q, params.one()
    theta_domain((1 - q) * x, 1 / params.phi)
    return point_sum(((one, one), (-q, q)), x, x, params, 1, params.zero(), tol,
                     "theta antiderivative")

"""Jackson-type numerical integration on geometric node sets.

The basic object is the integral over the geometric interval
[a, b]_q = {a q^n/phi} u {b q^n/phi},

    int_a^b f d = (1 - q) sum_n [b f(b q^n/phi) - a f(a q^n/phi)] q^n,

which inverts the divided-difference derivative (fundamental theorem) and
supports integration by parts.  Series integrands are evaluated through
their truncated polynomial; callables directly; both share one summation
kernel with the package-wide decay truncation, so convergence is a
runtime diagnostic (the sum settled before the cap), not an a-priori
membership test.  Negative q with |q| < 1 is allowed: the node terms then
alternate and the same decay rule applies.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Union

from ._stable import DEFAULT_TOL, delay_factors, point_terms, stable_sum, weights
from .errors import (
    DegenerateRatio,
    HypothesisViolated,
    ParamsMismatch,
    QOutOfRange,
)
from .stnum import Params
from .stseries import Series, factorial_series, st_derive
from .stfun import PantographSpec, pantograph_at, partial_theta

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


def _evaluator(f: Integrand, params: Params) -> Callable:
    if isinstance(f, Series):
        if f.params != params:
            raise ParamsMismatch("integrand Series carries different Params")
        return f.eval
    return lambda x: params.wrap(f(x))


def st_integral(f: Integrand, interval: QInterval, tol: float = DEFAULT_TOL):
    """The geometric-node sum over [a, b]_q, decay-truncated."""
    params = interval.params
    a, b, q, phi = interval.a, interval.b, params.q, params.phi
    if a == b:
        return params.zero()
    g = _evaluator(f, params)

    def terms():
        qn = params.one()
        while True:
            term = params.zero()
            if b != 0:
                term = term + b * g(b * qn / phi)
            if a != 0:
                term = term - a * g(a * qn / phi)
            yield term * qn
            qn = qn * q

    value, _ = stable_sum(terms(), tol, what="st_integral")
    return (1 - q) * value


def pq_integral(f: Callable, a, p, q, tol: float = DEFAULT_TOL):
    """The two-branch (p, q)-integral of f over [0, a].

    |p/q| > 1: (p - q) a sum_k q^k/p^{k+1} f(a q^k/p^{k+1});
    |p/q| < 1: the same with p and q exchanged.
    """
    if a == 0:
        return a * 0
    ratio = abs(p / q)
    if ratio == 1:
        raise DegenerateRatio(f"(p, q)-integral needs |p/q| != 1, got p = {p}, q = {q}")
    if ratio < 1:
        p, q = q, p
    prefactor = (p - q) * a

    def terms():
        w = 1 / p  # q^k / p^{k+1}, advanced by q/p each step
        while True:
            yield w * f(w * a)
            w = w * q / p

    value, _ = stable_sum(terms(), tol, what="pq_integral")
    return prefactor * value


def check_ftc(f: Series, interval: QInterval, tol: float = DEFAULT_TOL):
    """|int_a^b (D f) d  -  (f(b) - f(a))|: the fundamental-theorem defect."""
    lhs = st_integral(st_derive(f), interval, tol)
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
    w = weights(delay_factors(a, b, u), N - 1, params.one())
    return factorial_series(params, [u / (a * u + b)] + w)


def pantograph_antiderivative_at(params: Params, spec: PantographSpec, x,
                                 tol: float = DEFAULT_TOL):
    """The (s,t)-antiderivative of E(a, b; .; u) at x, pinned to the value
    u/(a u + b) at x = 0.

    Hypotheses: a != 0 and |b/(a u)| < 1.  For |u| <= 1 this is the
    alternating sum (1/a) sum_k (-1)^k (b/(a u))^k E(a, b; u^k x, u); for
    |u| > 1 that sum leaves the convergence disk of E after finitely many
    k, so the same analytic function is summed by its own power series
    instead.
    """
    a, b, u = params.wrap(spec.a), params.wrap(spec.b), params.wrap(spec.u)
    x = params.wrap(x)
    if a == 0 or u == 0:
        raise HypothesisViolated("antiderivative formula needs a != 0 and u != 0")
    r = -b / (a * u)
    if abs(r) >= 1:
        raise HypothesisViolated(f"needs |b/(a u)| < 1, got |b/(a u)| = {abs(r)}")

    if abs(u) <= 1 or b == 0:
        def terms():
            w, xk = params.one() / a, x
            while True:
                yield w * pantograph_at(params, spec, xk, tol)
                w = w * r
                xk = xk * u

        value, _ = stable_sum(terms(), tol, what="pantograph antiderivative")
        return value

    # term_n = (a (+) b)^{n-1} x^n / {n}! for n >= 1, after the constant
    power_terms = point_terms(delay_factors(a, b, u), x, x, params, 1)
    value, _ = stable_sum(chain([u / (a * u + b)], power_terms), tol,
                          what="pantograph antiderivative")
    return value


def theta_antiderivative_at(params: Params, x, tol: float = DEFAULT_TOL):
    """The antiderivative of Theta0((1-q) x, 1/phi) at x, vanishing at 0:

        sum_k (Theta0((1-q) q^k x, 1/phi) - 1).

    This is the boundary case b/(a u) = -1 of the pantograph antiderivative
    at spec (1, -q, q), where only the subtract-one form converges.
    """
    if not abs(params.q) < 1:
        raise QOutOfRange(f"needs |q| < 1, got q = {params.q}")
    x = params.wrap(x)
    if x == 0:
        return params.zero()
    one_minus_q = 1 - params.q
    inv_phi = 1 / params.phi

    def terms():
        qk = params.one()
        while True:
            yield partial_theta(one_minus_q * qk * x, inv_phi, tol) - 1
            qk = qk * params.q

    value, _ = stable_sum(terms(), tol, what="theta antiderivative")
    return value

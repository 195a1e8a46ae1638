"""The executable identity suite: each classical statement of the theory
becomes a measured defect against a pinned tolerance.  The CLI's
``identities`` command runs everything here and reports one line per
identity; the test suite pins the same checks at acceptance level.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .stnum import (
    binet,
    golden_pair,
    q_pochhammer_inf,
    st_factorial,
    st_number,
    st_number_range,
)
from .stseries import (Series, compose_deformed, q_derive_at, scale, sq_int, st_antiderive,
                       st_derive, st_derive_at)
from ._stable import factors, point_sum, weights
from .stfun import (
    PantographSpec,
    deformed_exp,
    pantograph,
    pantograph_at,
    partial_theta,
    partial_theta_series,
    psi_theta,
)
from .stquad import (
    QInterval,
    check_by_parts,
    check_ftc,
    pantograph_antiderivative_at,
    pantograph_antiderivative_series,
    st_integral,
    theta_antiderivative_at,
)

SEED = 20240901


@dataclass
class IdentityResult:
    name: str
    defect: float
    tolerance: float
    passed: bool


def _result(name, defect, tolerance) -> IdentityResult:
    d = float(defect)
    return IdentityResult(name, d, tolerance, d <= tolerance)


def binet_form() -> IdentityResult:
    worst = 0.0
    for p in (golden_pair(3, -2), golden_pair(1, 1)):
        for n, lhs in enumerate(st_number_range(p, 30)):
            worst = max(worst, float(abs(lhs - binet(p, n)) / max(1, abs(lhs))))
    return _result("binet-form", worst, 1e-12)


def factorial_bridge() -> IdentityResult:
    # {n}! = phi^C(n,2) (q;q)_n/(1-q)^n, n <= 20, exactly at phi = 2, q = 1/2
    p = golden_pair(3, -2)
    worst = Fraction(0)
    pochhammers = weights(factors(((1, 1), (-p.q, p.q))), 20, p.one())  # (q;q)_0..(q;q)_20
    for n, poch in enumerate(pochhammers):
        lhs = st_factorial(p, n)
        rhs = p.phi ** (n * (n - 1) // 2) * poch / (1 - p.q) ** n
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return _result("factorial-bridge", worst, 0.0)


def derivative_equivalence() -> IdentityResult:
    # (D f)(x) = (D_q f)(phi x) on random polynomials, exactly at phi = 2, q = 1/2
    rng = random.Random(SEED)
    p = golden_pair(3, -2)
    worst = Fraction(0)
    for _ in range(20):
        f = Series(p, [Fraction(rng.randint(-40, 40), rng.randint(1, 9))
                       for _ in range(9)])
        for _ in range(10):
            x = p.wrap(Fraction(rng.randint(1, 100), 101))
            lhs = st_derive_at(f.eval, x, p)
            rhs = q_derive_at(f.eval, p.phi * x, p)
            worst = max(worst, abs(lhs - rhs) / max(1, abs(rhs)))
    return _result("derivative-equivalence", worst, 0.0)


def pantograph_equation() -> IdentityResult:
    # D E = a E + b T_u E, exact through order 32 in the rational backend
    rng = random.Random(SEED)
    p = golden_pair(3, -2)
    worst = Fraction(0)
    for _ in range(50):
        a = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        b = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        u = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        e = pantograph(p, PantographSpec(a, b, u), 32)
        res = st_derive(e) - (e * a + scale(e, u) * b).truncated(31)
        worst = max(worst, res.max_abs_coeff())
    return _result("pantograph-equation", worst, 0.0)


def special_values() -> IdentityResult:
    # the standard E specializations, coefficientwise to order 24, with
    # E(a,-a;x,u) = 1 (the constant term survives the vanishing products)
    p = golden_pair(3, -2)
    N = 24
    a, b, c, u = Fraction(2, 3), Fraction(-1, 2), Fraction(3), Fraction(2, 5)
    checks = [pantograph(p, PantographSpec(a, -a, u), N) - Series.one(p, N),
              pantograph(p, PantographSpec(a, 0, u), N) - scale(deformed_exp(p, 1, N), a)]
    checks.append(pantograph(p, PantographSpec(0, a, u), N)
                  - scale(deformed_exp(p, u, N), a))
    checks.append(pantograph(p, PantographSpec(a, b, 1), N)
                  - scale(deformed_exp(p, 1, N), a + b))
    checks.append(pantograph(p, PantographSpec(a * c, b * c, u), N)
                  - scale(pantograph(p, PantographSpec(a, b, u), N), c))
    theta = partial_theta_series(1 / p.phi, N)
    theta_side = Series(p, [theta[n] * (1 - p.q) ** n for n in range(N + 1)])
    checks.append(pantograph(p, PantographSpec(1, -p.q, p.q), N) - theta_side)
    worst = max(ch.max_abs_coeff() for ch in checks)
    return _result("special-values", worst, 0.0)


def ftc_defect() -> IdentityResult:
    worst = Fraction(0)
    poly = [Fraction(1, 3), 2, Fraction(-1, 2), 1, 0, Fraction(2, 7),
            Fraction(-3, 5), 1, Fraction(1, 9)]
    for s, t in [(3, -2), (4, -3), (2, 3)]:
        p = golden_pair(s, t)
        f = Series(p, poly)
        worst = max(worst, check_ftc(f, QInterval(0, 1, p), tol=1e-18))
    return _result("fundamental-theorem", worst, 1e-10)


def by_parts_defect() -> IdentityResult:
    worst = Fraction(0)
    fc = [Fraction(1, 2), -1, 3, 0, Fraction(2, 3), Fraction(1, 5)]
    gc = [2, Fraction(1, 3), Fraction(-2, 5), 1, 0, Fraction(-1, 2)]
    for s, t in [(3, -2), (4, -3), (2, 3)]:
        p = golden_pair(s, t)
        worst = max(worst, check_by_parts(Series(p, fc), Series(p, gc),
                                          QInterval(0, 1, p), tol=1e-18))
    return _result("integration-by-parts", worst, 1e-10)


def jackson_unit_integral() -> IdentityResult:
    p = golden_pair(3, -2)
    # a callable integrand: the node sum itself, not the closed form
    got = st_integral(lambda x: x, QInterval(0, 1, p), tol=1e-18)
    return _result("jackson-unit-integral", abs(got - Fraction(1, 3)), 1e-12)


def substitution_formula() -> IdentityResult:
    # {n} int_0^x r^{n-1} exp[u r^n, u] dr = exp[x^n, u] - 1, both routes
    p = golden_pair(3, -2)
    order, u = 20, Fraction(1, 2)
    worst = Fraction(0)
    for n in (2, 3):
        xn = Series.monomial(p, n, order=order)
        ones = [1] * (order + 1)
        expected = compose_deformed(ones, u, xn) - 1
        integrand = Series.monomial(p, n - 1, order=order) * \
            compose_deformed(ones, u, xn * u)
        direct = st_antiderive(integrand).truncated(order) * st_number(p, n)
        via_sq = sq_int([u ** m for m in range(order + 1)],
                        Series.zero(p, order), xn, u=u)
        worst = max(worst, (direct - expected).max_abs_coeff(),
                    (via_sq - expected).max_abs_coeff())
    return _result("substitution-formula", worst, 0.0)


def pantograph_antiderivative() -> IdentityResult:
    p = golden_pair(3, -2)
    spec = PantographSpec(Fraction(1), Fraction(1, 5), Fraction(2))
    ksum = pantograph_antiderivative_series(p, spec, 16)
    anti = st_antiderive(pantograph(p, spec, 15))
    series_defect = max(abs(x - y) for x, y in zip(ksum.coeffs[1:], anti.coeffs[1:]))
    pf = golden_pair(3, -2, backend="float")
    fspec = PantographSpec(1, 0.2, 2)
    worst = float(series_defect)
    for x in (0.1, 0.3, 0.5):
        dval = st_derive_at(lambda y: pantograph_antiderivative_at(pf, fspec, y, 1e-22),
                            x, pf)
        target = pantograph_at(pf, fspec, x, 1e-22)
        worst = max(worst, float(abs(dval - target) / max(1, abs(target))))
    return _result("pantograph-antiderivative", worst, 1e-8)


def q_binomial_theorem() -> IdentityResult:
    # sum (b/phi; q)_n z^n/(q;q)_n = ((b/phi) z; q)_inf/(z; q)_inf at z = (1-q) x:
    # by the factorial bridge the left side is sum (1 (+) -b/phi)^n x^n/{n}!
    # with (+)-products over (phi, phi') (the corrected 1-phi-0 value)
    p = golden_pair(3, -2, backend="float")
    b = p.wrap(Fraction(1, 3))
    worst = 0.0
    for xs in ("0.1", "0.2"):
        x = p.wrap(xs)
        z = (1 - p.q) * x
        c = -b / p.phi
        total = point_sum(((p.one(), p.phi), (c, p.phi_prime)), x, p.one(), p,
                          what="q-binomial sum")
        rhs = q_pochhammer_inf(b / p.phi * z, p.q) / q_pochhammer_inf(z, p.q)
        worst = max(worst, float(abs(total - rhs)))
    return _result("q-binomial-theorem", worst, 1e-10)


def theta_psi_value() -> IdentityResult:
    q = 0.3
    lhs = psi_theta(q)
    rhs = q_pochhammer_inf(q * q, q * q) / q_pochhammer_inf(q, q * q)
    return _result("theta-psi-value", abs(lhs - rhs), 1e-10)


def theta_antiderivative_consistency() -> IdentityResult:
    pf = golden_pair(3, -2, backend="float")
    x = 0.4
    dval = st_derive_at(lambda y: theta_antiderivative_at(pf, y, 1e-20), x, pf)
    target = partial_theta((1 - pf.q) * x, 1 / pf.phi, 1e-20)
    return _result("theta-antiderivative", float(abs(dval - target)), 1e-8)


ALL_IDENTITIES = (
    binet_form,
    factorial_bridge,
    derivative_equivalence,
    pantograph_equation,
    special_values,
    ftc_defect,
    by_parts_defect,
    jackson_unit_integral,
    substitution_formula,
    pantograph_antiderivative,
    q_binomial_theorem,
    theta_psi_value,
    theta_antiderivative_consistency,
)


def run_all() -> list[IdentityResult]:
    return [fn() for fn in ALL_IDENTITIES]

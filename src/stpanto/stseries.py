"""Truncated formal power series over a Params scalar field.

A Series holds monomial-basis coefficients c_0..c_N (value sum c_n x^n);
the factorial basis f_n/{n}! that the composition machinery of the theory
uses is applied inside the composition operations themselves, so plain
arithmetic stays basis-free.  Arithmetic closes at the minimum of the
operand orders and multiplication truncates there.

The derivative here is the divided difference

    (D f)(x) = (f(phi x) - f(phi' x)) / ((phi - phi') x),

whose action on coefficients is (D f)_n = {n+1} c_{n+1}.  Its kernel, for
functions rather than series, is the ring of q-periodic functions
f(y) = f(q y), modelled by QPeriodic below.

Symbolic powers f^[k] are defined by f^[0] = 1, f^[k](0) = 0 and
D f^[k] = {k} f^[k-1] D f; they are what makes composition (and hence
integration factors) compatible with D.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ._stable import delay_factors, powers, weights
from .errors import (
    NonInvertibleSeries,
    NonQPeriodicInitial,
    NonzeroConstantTerm,
    ParamsMismatch,
    QOutOfRange,
    ZeroPoint,
)
from .stnum import Params, st_factorial, st_number_range

DEFAULT_ORDER = 32


class Series:
    """Coefficients c_0..c_N over a fixed Params; immutable by convention."""

    __slots__ = ("params", "coeffs")

    def __init__(self, params: Params, coeffs: Sequence):
        self.params = params
        wrapped = [params.wrap(c) for c in coeffs]
        self.coeffs = wrapped if wrapped else [params.zero()]

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, params: Params, value, order: int = 0) -> "Series":
        c = [params.wrap(value)] + [params.zero()] * order
        return cls(params, c)

    @classmethod
    def zero(cls, params: Params, order: int = 0) -> "Series":
        return cls.constant(params, 0, order)

    @classmethod
    def one(cls, params: Params, order: int = 0) -> "Series":
        return cls.constant(params, 1, order)

    @classmethod
    def identity(cls, params: Params, order: int = DEFAULT_ORDER) -> "Series":
        """The series x."""
        return cls.monomial(params, 1, order=order)

    @classmethod
    def monomial(cls, params: Params, k: int, coeff=1, order: int | None = None) -> "Series":
        order = k if order is None else max(order, k)
        c = [params.zero()] * (order + 1)
        c[k] = params.wrap(coeff)
        return cls(params, c)

    # -- bookkeeping ---------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def truncated(self, order: int) -> "Series":
        return Series(self.params, self.coeffs[:order + 1])

    def padded(self, order: int) -> "Series":
        if order <= self.order:
            return self
        return Series(self.params, list(self.coeffs) + [self.params.zero()] * (order - self.order))

    def _check(self, other: "Series"):
        if self.params != other.params:
            raise ParamsMismatch("operands carry different Params")

    def __repr__(self):
        shown = ", ".join(self.params.to_str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"Series(order={self.order}, [{shown}{tail}])"

    # -- arithmetic: closes at min(orders) ----------------------------------

    def __add__(self, other):
        if not isinstance(other, Series):
            c = list(self.coeffs)
            c[0] = c[0] + self.params.wrap(other)
            return Series(self.params, c)
        self._check(other)
        n = min(self.order, other.order)
        return Series(self.params,
                      [self.coeffs[i] + other.coeffs[i] for i in range(n + 1)])

    __radd__ = __add__

    def __neg__(self):
        return Series(self.params, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, Series) else -self.params.wrap(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Series):
            w = self.params.wrap(other)
            return Series(self.params, [c * w for c in self.coeffs])
        self._check(other)
        n = min(self.order, other.order)
        out = [self.params.zero()] * (n + 1)
        for i, a in enumerate(self.coeffs[:n + 1]):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                out[i + j] += a * other.coeffs[j]
        return Series(self.params, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Series):
            return self * (1 / self.params.wrap(other))
        self._check(other)
        if other.coeffs[0] == 0:
            raise NonInvertibleSeries("division needs an invertible constant term")
        n = min(self.order, other.order)
        inv0 = 1 / other.coeffs[0]
        out = []
        for k in range(n + 1):
            acc = self.coeffs[k]
            for j in range(k):
                acc -= out[j] * other.coeffs[k - j]
            out.append(acc * inv0)
        return Series(self.params, out)

    def __rtruediv__(self, other):
        return Series.constant(self.params, other, self.order) / self

    # -- values and comparison -------------------------------------------

    def eval(self, x):
        """Horner evaluation of the truncated polynomial."""
        x = self.params.wrap(x)
        acc = self.params.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __call__(self, x):
        return self.eval(x)

    def equals(self, other: "Series", tol: float | None = None) -> bool:
        self._check(other)
        n = max(self.order, other.order)
        a, b = self.padded(n), other.padded(n)
        return all(self.params.eq(x, y, tol) for x, y in zip(a.coeffs, b.coeffs))

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.equals(other)

    __hash__ = None

    def max_abs_coeff(self):
        return max(abs(c) for c in self.coeffs)


# -- calculus -----------------------------------------------------------


def st_derive(f: Series) -> Series:
    """(D f)_n = {n+1} c_{n+1}; the constant series maps to the zero series."""
    if f.order == 0:
        return Series.zero(f.params)
    nums = st_number_range(f.params, f.order)
    return Series(f.params, [nums[n + 1] * f.coeffs[n + 1] for n in range(f.order)])


def st_antiderive(f: Series) -> Series:
    """The antiderivative F with F(0) = 0: F_n = c_{n-1} / {n}."""
    nums = st_number_range(f.params, f.order + 1)
    out = [f.params.zero()]
    out.extend(f.coeffs[n] / nums[n + 1] for n in range(f.order + 1))
    return Series(f.params, out)


def scale(f: Series, u) -> Series:
    """(T_u f)(x) = f(u x): multiplies c_n by u^n."""
    return Series(f.params, [c * p for c, p in zip(f.coeffs, powers(f.params.wrap(u)))])


def st_derive_at(f: Callable, x, params: Params):
    """Divided difference (f(phi x) - f(phi' x)) / ((phi - phi') x) at x != 0."""
    x = params.wrap(x)
    if x == 0:
        raise ZeroPoint("the divided difference needs x != 0; use a Series for x = 0")
    return (f(params.phi * x) - f(params.phi_prime * x)) / ((params.phi - params.phi_prime) * x)


def q_derive_at(f: Callable, y, params: Params):
    """The q-derivative (f(y) - f(q y)) / ((1 - q) y); equals st_derive_at at y/phi."""
    y = params.wrap(y)
    if y == 0:
        raise ZeroPoint("the q-derivative needs y != 0")
    return (f(y) - f(params.q * y)) / ((1 - params.q) * y)


# -- symbolic powers and deformed composition ----------------------------


def symbolic_powers(f: Series, kmax: int) -> list[Series]:
    """[f^[0], ..., f^[kmax]] computed bottom-up.

    f^[k] is pinned down by f^[k](0) = 0 and D f^[k] = {k} f^[k-1] D f, so
    each step is one multiplication and one coefficient integration.  The
    memo list is local to this call.
    """
    if kmax >= 1 and f.coeffs[0] != 0:
        raise NonzeroConstantTerm("symbolic powers need f(0) = 0")
    powers = [Series.one(f.params, f.order)]
    if kmax == 0:
        return powers
    df = st_derive(f).padded(max(f.order - 1, 0))
    nums = st_number_range(f.params, kmax)
    for k in range(1, kmax + 1):
        rhs = (powers[-1] * df) * nums[k]
        powers.append(st_antiderive(rhs).truncated(f.order))
    return powers


def symbolic_power(f: Series, k: int) -> Series:
    return symbolic_powers(f, k)[k]


def factorial_series(params: Params, w: Sequence) -> Series:
    """The series sum w_n x^n / {n}! of a weight sequence w_0..w_N."""
    nums = st_number_range(params, len(w) - 1)
    coeffs, fact = [], params.one()
    for n, wn in enumerate(w):
        if n > 0:
            fact *= nums[n]
        coeffs.append(wn / fact)
    return Series(params, coeffs)


def _composition(g_coeffs: Sequence, factors, f: Series) -> Series:
    """sum_n w_n g_n f^[n] / {n}! truncated at f's order, w_n the prefix
    products of the factor stream."""
    if f.coeffs[0] != 0:
        raise NonzeroConstantTerm("composition needs f(0) = 0")
    p = f.params
    n_top = min(len(g_coeffs) - 1, f.order) if g_coeffs else -1
    w = weights(factors, n_top, p.one())
    sym = symbolic_powers(f, max(n_top, 0))
    acc = Series.zero(p, f.order)
    for n in range(n_top + 1):
        gn = p.wrap(g_coeffs[n])
        if gn == 0:
            continue
        acc = acc + sym[n] * (w[n] * gn / st_factorial(p, n))
    return acc


def compose_deformed(g_coeffs: Sequence, u, f: Series) -> Series:
    """The u-deformed composition g[f, u] = sum u^C(n,2) g_n f^[n] / {n}!,
    which is compose_ab at (a, b) = (0, 1).

    g_coeffs are the factorial-basis coefficients g_n of g.
    """
    return _composition(g_coeffs, powers(f.params.wrap(u)), f)


def compose_ab(g_coeffs: Sequence, spec, f: Series) -> Series:
    """The (1,u)-deformed composition g[a, b; f, u] with weights (a (+) b)^n_{1,u}.

    ``spec`` carries the delay triple (a, b, u).
    """
    p = f.params
    return _composition(g_coeffs, delay_factors(p.wrap(spec.a), p.wrap(spec.b), p.wrap(spec.u)), f)


def sq_int(f, lower: Series, upper: Series, u=None) -> Series:
    """The square-bracket integral: integrate f termwise, then take the
    symbolic-power difference of the bounds,

        sum_m a_m (upper^[m+1] - lower^[m+1]) / {m+1}.

    ``f`` is either a Series (monomial coefficients a_m, u ignored) or a
    factorial-basis coefficient sequence, deformed by u: a_m = u^C(m,2) f_m/{m}!.
    """
    lower._check(upper)
    params = lower.params
    if lower.coeffs[0] != 0 or upper.coeffs[0] != 0:
        raise NonzeroConstantTerm("sq_int bounds must vanish at 0")
    order = min(lower.order, upper.order)
    if isinstance(f, Series):
        lower._check(f)
        a = list(f.coeffs)
    else:
        if u is None:
            raise NonzeroConstantTerm("coefficient-sequence integrand needs the deformation u")
        fs = [params.wrap(fm) for fm in f]
        w = weights(powers(params.wrap(u)), len(fs) - 1, params.one())
        a = [w[m] * fm / st_factorial(params, m) for m, fm in enumerate(fs)]
    m_top = min(len(a) - 1, order - 1)
    low_pows = symbolic_powers(lower, m_top + 1)
    up_pows = symbolic_powers(upper, m_top + 1)
    nums = st_number_range(params, m_top + 2)
    acc = Series.zero(params, order)
    for m in range(m_top + 1):
        if a[m] == 0:
            continue
        acc = acc + (up_pows[m + 1] - low_pows[m + 1]) * (a[m] / nums[m + 1])
    return acc


# -- q-periodic initial data ----------------------------------------------


class QPeriodic:
    """An element of the kernel of D: f with f(y) = f(q y).

    Either a constant, or G(log_q x) for a user callable G of period one.
    The callable form needs the float backend and 0 < q < 1; negative q
    would need a complex logarithm, which is out of scope here.
    """

    __slots__ = ("params", "_value", "_g")

    def __init__(self, params: Params, value=None, g: Callable | None = None):
        self.params = params
        self._value = params.wrap(value) if value is not None else None
        self._g = g
        if g is not None:
            if params.rational:
                raise NonQPeriodicInitial(
                    "callable q-periodic data needs the float backend (log_q x)")
            if not (0 < params.q < 1):
                raise QOutOfRange("callable q-periodic data needs 0 < q < 1")

    @classmethod
    def constant(cls, params: Params, value) -> "QPeriodic":
        return cls(params, value=value)

    @classmethod
    def periodic(cls, params: Params, g: Callable) -> "QPeriodic":
        return cls(params, g=g)

    @property
    def is_constant(self) -> bool:
        return self._g is None

    def evaluate(self, x):
        if self._g is None:
            return self._value
        x = self.params.wrap(x)
        if x <= 0:
            raise ZeroPoint("G(log_q x) needs x > 0")
        return self.params.wrap(self._g(self.params.log(x) / self.params.log(self.params.q)))

    def check_periodicity(self, points: int = 50, tol: float = 1e-10):
        """Verify evaluate(x) = evaluate(q x) on a log grid; raises if not."""
        if self._g is None:
            return
        ctx = self.params.ctx
        for i in range(points):
            x = ctx.mpf(10) ** (ctx.mpf(2 * i) / (points - 1) - 1)
            a, b = self.evaluate(x), self.evaluate(self.params.q * x)
            if abs(a - b) > tol * max(1, abs(a)):
                raise NonQPeriodicInitial(
                    f"initial datum is not q-periodic at x = {ctx.nstr(x, 6)}")

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

A Series holds the data of its Params's coefficient ring (``_rings``), and
every kernel below is one call into that ring, so no code here tests which
backend it runs on.

Every series sum_n f_0 ... f_{n-1} g_n x^n / {n}!, f_k = sum c r^k over (c, r)
pairs (the special functions, the weights of a composition, the deformed
integrand of ``sq_int``), is built by ``factorial_series``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .errors import (
    BackendMismatch,
    NonInvertibleSeries,
    NonQPeriodicInitial,
    NonzeroConstantTerm,
    ParamsMismatch,
    QOutOfRange,
    ZeroPoint,
)
from .stnum import Params, nonnegative, st_divisors, st_number_range

DEFAULT_ORDER = 32


class Series:
    """Coefficients c_0..c_N over a fixed Params; immutable by convention.
    ``Series(params, coeffs)`` reads outside values through ``params.wrap``;
    every kernel below builds its result from ring data with ``_like``."""

    __slots__ = ("params", "_data", "_coeffs")

    def __init__(self, params: Params, coeffs: Sequence):
        self.params = params
        self._coeffs = [params.wrap(c) for c in coeffs] or [params.zero()]
        self._data = None

    def _like(self, data) -> "Series":
        """A Series of this one's Params holding the ring data ``data``."""
        out = Series.__new__(Series)
        out.params, out._data, out._coeffs = self.params, data, None
        return out

    @property
    def data(self):
        """The ring's data (``_rings``), built from the coefficients on the first read."""
        if self._data is None:
            self._data = self.params.ring.data(self._coeffs)
        return self._data

    @property
    def coeffs(self) -> list:
        """c_0..c_N, read back from the ring's data on the first read."""
        if self._coeffs is None:
            self._coeffs = self.params.ring.coeffs(self._data)
        return self._coeffs

    def _head(self):
        """c_0, the other coefficients left as they are."""
        return self.truncated(0).coeffs[0]

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, params: Params, value, order: int = 0) -> "Series":
        return cls(params, [value]).padded(order)

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
        c = [params.zero()] * (max(nonnegative(k, "k"), order or 0) + 1)
        c[k] = coeff
        return cls(params, c)

    # -- bookkeeping ---------------------------------------------------------

    @property
    def order(self) -> int:
        return self.params.ring.order(self.data)

    def truncated(self, order: int) -> "Series":
        if order < 0:
            return Series.zero(self.params)
        return self._like(self.params.ring.window(self.data, 0, order + 1))

    def padded(self, order: int) -> "Series":
        extra = order - self.order
        return self if extra <= 0 else self._like(self.params.ring.padded(self.data, extra))

    def _check(self, other: "Series") -> int:
        """The order two operands close at, the smaller one; they must share Params."""
        if self.params != other.params:
            raise ParamsMismatch("operands carry different Params")
        return min(self.order, other.order)

    def __repr__(self):
        shown = ", ".join(self.params.to_str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"Series(order={self.order}, [{shown}{tail}])"

    # -- arithmetic: closes at min(orders) ----------------------------------

    def __add__(self, other):
        if not isinstance(other, Series):
            return self + Series.constant(self.params, other, self.order)
        return self._like(self.params.ring.add(self.data, other.data, self._check(other)))

    __radd__ = __add__

    def __neg__(self):
        return self._like(self.params.ring.scaled(self.data, self.params.wrap(-1)))

    def __sub__(self, other):
        return self + (-other if isinstance(other, Series) else -self.params.wrap(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Series):
            return self._like(self.params.ring.scaled(self.data, self.params.wrap(other)))
        return self._like(self.params.ring.product(self.data, other.data, self._check(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Series):
            return self * (1 / self.params.wrap(other))
        n = self._check(other)
        if other._head() == 0:
            raise NonInvertibleSeries("division needs an invertible constant term")
        return self._like(self.params.ring.quotient(self, other, n))

    def __rtruediv__(self, other):
        return Series.constant(self.params, other, self.order) / self

    # -- values and comparison -------------------------------------------

    def eval(self, x):
        """The truncated polynomial at x, from the ring data as they are."""
        return self.params.ring.value(self.data, self.params.wrap(x))

    def __call__(self, x):
        return self.eval(x)

    def equals(self, other: "Series") -> bool:
        """Coefficientwise ``Params.eq``, the shorter operand padded with zeros."""
        self._check(other)
        n = max(self.order, other.order)
        return all(map(self.params.eq, self.padded(n).coeffs, other.padded(n).coeffs))

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.equals(other)

    __hash__ = None

    def max_abs_coeff(self):
        return self.params.ring.max_abs(self.data)


# -- calculus -----------------------------------------------------------


def st_derive(f: Series) -> Series:
    """(D f)_n = {n+1} c_{n+1}; the constant series maps to the zero series."""
    if f.order == 0:
        return Series.zero(f.params)
    nums = st_number_range(f.params, f.order)[1:]
    return f._like(f.params.ring.times(f.params.ring.window(f.data, 1, f.order + 1), nums))


def st_antiderive(f: Series) -> Series:
    """The antiderivative F with F(0) = 0: F_n = c_{n-1} / {n}."""
    return f._like(f.params.ring.antiderive(f.data, st_divisors(f.params, f.order + 1)[1:]))


def scale(f: Series, u) -> Series:
    """(T_u f)(x) = f(u x): multiplies c_n by u^n."""
    return f._like(f.params.ring.scale(f.data, f.params.wrap(u)))


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
    each step is one multiplication and one coefficient integration.  A
    power that vanishes under truncation makes every later one vanish, so
    those are the same zero series, with no product.
    """
    if kmax >= 1 and f._head() != 0:
        raise NonzeroConstantTerm("symbolic powers need f(0) = 0")
    powers = [Series.one(f.params, f.order)]
    nums = st_number_range(f.params, kmax)
    df = st_derive(f)
    for k in range(1, kmax + 1):
        prev = powers[-1]
        if prev.max_abs_coeff() != 0:
            prev = st_antiderive((prev * df) * nums[k]).truncated(f.order)
        powers.append(prev)
    return powers


def symbolic_power(f: Series, k: int) -> Series:
    return symbolic_powers(f, k)[k]


def factorial_series(params: Params, pairs, N: int, g: Iterable | None = None, lead=0) -> Series:
    """sum_n w_n g_n x^n / {n}! to x^N: w_n = f_0 ... f_{n-1} over ``lead``
    factors 1, then f_k = sum c r^k of one or two (c, r) ``pairs`` (as
    ``_stable.factors``), and g_n = 1 when g is None.  The ring fixes the
    rounding order (``factorial``).  An order below 0 raises IndexOutOfRange."""
    nums = st_divisors(params, nonnegative(N, "order N"))
    return Series(params, params.ring.factorial(pairs, nums, N, g, lead))


def _powers_for(g_coeffs: Sequence, f: Series) -> list[Series]:
    """The symbolic-power table a composition of g with f needs: f^[n] for
    n up to min(len(g) - 1, f's order)."""
    if f._head() != 0:
        raise NonzeroConstantTerm("composition needs f(0) = 0")
    return symbolic_powers(f, max(min(len(g_coeffs) - 1, f.order), 0))


def _composition(g_coeffs: Sequence, pairs, sym: list[Series]) -> Series:
    """sum_n w_n g_n f^[n] / {n}! over a symbolic-power table
    sym = [f^[0], ..., f^[K]], truncated at f's order, w_n the prefix
    products of the factors of the (c, r) ``pairs``.  One table serves every
    g and every pair of factors composed with the same f."""
    p = sym[0].params
    n_top = min(len(g_coeffs), len(sym)) - 1
    c = factorial_series(p, pairs, max(n_top, 0), g_coeffs).coeffs
    acc = Series.zero(p, sym[0].order)
    for n in range(n_top + 1):
        if c[n] != 0:
            acc = acc + sym[n] * c[n]
    return acc._like(p.ring.reduced(acc.data))  # exact: the {n}! of the c_n cancel


def compose_deformed(g_coeffs: Sequence, u, f: Series) -> Series:
    """The u-deformed composition g[f, u] = sum u^C(n,2) g_n f^[n] / {n}!,
    which is compose_ab at (a, b) = (0, 1).

    g_coeffs are the factorial-basis coefficients g_n of g.
    """
    return _composition(g_coeffs, ((1, f.params.wrap(u)),), _powers_for(g_coeffs, f))


def compose_ab(g_coeffs: Sequence, spec, f: Series) -> Series:
    """The (1,u)-deformed composition g[a, b; f, u] with weights (a (+) b)^n_{1,u}.

    ``spec`` carries the delay triple (a, b, u).
    """
    p = f.params
    pairs = ((p.wrap(spec.a), 1), (p.wrap(spec.b), p.wrap(spec.u)))
    return _composition(g_coeffs, pairs, _powers_for(g_coeffs, f))


def sq_int(f, lower: Series, upper: Series, u=None) -> Series:
    """The square-bracket integral: integrate f termwise, then take the
    symbolic-power difference of the bounds,

        sum_m a_m (upper^[m+1] - lower^[m+1]) / {m+1}.

    ``f`` is either a Series (monomial coefficients a_m, u ignored) or a
    factorial-basis coefficient sequence, deformed by u: a_m = u^C(m,2) f_m/{m}!.
    """
    lower._check(upper)
    params = lower.params
    if lower._head() != 0 or upper._head() != 0:
        raise NonzeroConstantTerm("sq_int bounds must vanish at 0")
    order = min(lower.order, upper.order)
    if isinstance(f, Series):
        lower._check(f)
        a = list(f.coeffs)
    else:
        if u is None:
            raise NonzeroConstantTerm("coefficient-sequence integrand needs the deformation u")
        a = factorial_series(params, ((1, params.wrap(u)),), max(len(f) - 1, 0), f).coeffs
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

    __slots__ = ("params", "_value", "_g", "_log_q")

    def __init__(self, params: Params, value=None, g: Callable | None = None):
        self.params = params
        self._value = params.wrap(value) if value is not None else None
        self._g = g
        if g is not None:
            try:
                self._log_q = params.log(params.q)
            except BackendMismatch:
                raise NonQPeriodicInitial(
                    "callable q-periodic data needs the float backend (log_q x)") from None
            if not (0 < params.wrap(params.q) < 1):  # a complex q is refused
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
        return self.params.wrap(self._g(self.params.log(x) / self._log_q))

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

"""The float backend at 50 digits against the rational backend.

On pairs whose golden pair is rational, every layer is computed twice: once
exactly and once in 50-digit floats from the same rational inputs.  Each
float value must agree with the exact one to within 10^(3 - 50) times
max(1, |exact|), the margin the float backend's own checks allow.  A point
sum that diverges must raise the same ConvergenceFailure, class and message,
on both backends.

Not covered: point sums at their default tol, which stop at 1e-15 whatever
the precision; and the integration-factor solve with a delay |u| > 1, whose
final quotient can lose more than three digits at order 16.  That solve
draws its own u from [-1, 1].
"""

from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from stpanto.errors import ConvergenceFailure
from stpanto.stfun import PantographSpec, deformed_exp, pantograph, pantograph_at, product_exp
from stpanto.stnum import golden_pair
from stpanto.stquad import QInterval, st_integral
from stpanto.stseries import Series, compose_ab
from stpanto.stsolve import (
    LinearProblem,
    integrating_factor,
    solve_integration_factor,
    solve_series_linear,
)

DIGITS = 50
BOUND = F(1, 10 ** (DIGITS - 3))
PAIRS = [(3, -2), (4, -3), (2, 3)]   # s^2 + 4t = 1, 4 and 16: phi is rational

_small = st.fractions(min_value=-2, max_value=2, max_denominator=6)
_unit = st.fractions(min_value=-1, max_value=1, max_denominator=6)
_point = st.fractions(min_value=-1, max_value=1, max_denominator=10)


def _exact(x) -> F:
    """The value of an mpf, exactly (``man_exp`` holds |x|)."""
    man, exp = x.man_exp
    return F(-man if x < 0 else man) * F(2) ** exp


def _close(got, want, what):
    err = abs(_exact(got) - want)
    assert err <= BOUND * max(1, abs(want)), (what, float(err), want)


def _close_series(got: Series, want: Series, what):
    assert got.order == want.order, what
    for n, (g, w) in enumerate(zip(got.coeffs, want.coeffs)):
        _close(g, w, (what, n))


def _layers(p, order, spec, solve_u, g, f, alpha, beta, y0, x, ends):
    """Every compared layer on the backend of ``p``, from rational inputs."""
    series = lambda coeffs: Series(p, coeffs)
    a_series = series(alpha)
    factor, numerator = integrating_factor(p, spec, a_series, order)
    linear = solve_series_linear(
        LinearProblem.series_linear(p, spec, alpha[0], series(beta), y0), order)
    general = solve_integration_factor(LinearProblem.integration_factor(
        p, PantographSpec(spec.a, spec.b, solve_u), a_series, series(beta), initial=y0), order)
    return {
        "pantograph": pantograph(p, spec, order),
        "deformed_exp": deformed_exp(p, spec.u, order),
        "product_exp": product_exp(p, spec.a, spec.b, order),
        "compose_ab": compose_ab(g, spec, series(f)),
        "integrating_factor": factor,
        "integrating_factor_numerator": numerator,
        "solve_series_linear": linear.solution,
        "solve_integration_factor": general.solution,
        "st_integral": st_integral(series(beta), QInterval(*ends, p)),
        "pantograph_at": _outcome(lambda: pantograph_at(p, spec, x, tol=1e-50)),
    }


def _outcome(call):
    """The value of ``call``, or the class and message of the
    ConvergenceFailure it raises."""
    try:
        return call()
    except ConvergenceFailure as err:
        return type(err), str(err)


@settings(max_examples=25, deadline=None)
@given(pair=st.sampled_from(PAIRS), order=st.sampled_from([8, 16]),
       spec=st.builds(PantographSpec, _small, _small, _small), solve_u=_unit,
       g=st.lists(_small, min_size=1, max_size=17),
       f=st.lists(_small, min_size=1, max_size=16),
       alpha=st.lists(_small, min_size=1, max_size=4),
       beta=st.lists(_small, min_size=1, max_size=4),
       y0=_small, x=_point, ends=st.tuples(_point, _point))
# x = 1 lies on the radius m / (|b| |phi - phi'|) = 1 of E(0, 2; ., 2): both sums diverge
@example(pair=(3, -2), order=8, spec=PantographSpec(F(0), F(2), F(2)), solve_u=F(0), g=[F(0)],
         f=[F(0)], alpha=[F(0)], beta=[F(0)], y0=F(0), x=F(1), ends=(F(0), F(0)))
def test_float_backend_matches_rational(pair, order, spec, solve_u, g, f, alpha, beta, y0,
                                        x, ends):
    args = (spec, solve_u, g, [0, *f], alpha, beta, y0, x, ends)
    exact = _layers(golden_pair(*pair), order, *args)
    floats = _layers(golden_pair(*pair, backend="float", precision=DIGITS), order, *args)
    for name, want in exact.items():
        if isinstance(want, Series):
            _close_series(floats[name], want, name)
        elif isinstance(want, tuple) or isinstance(floats[name], tuple):
            assert floats[name] == want, name   # the same ConvergenceFailure on both sides
        else:
            _close(floats[name], want, name)

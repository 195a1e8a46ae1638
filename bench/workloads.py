"""The three seeded workloads and the per-op output checks.

A workload is a sequence of cycles.  Every cycle holds the same fixed
multiset of op slots (class, order, shape), shuffled by the seed; the seed
also draws each op's literals (a/b/u, coefficients, points, and in
``pointwise`` the pair).  In the solve workloads the pair rotates with slot
and cycle, so any three cycles give every slot every pair.  Runs therefore
always execute whole cycles of the same mix, and the seed only changes the
inputs.  A ``verify`` op stays right after the solve whose
document it reads.  Every CLI value is passed as ``--flag=value``, because
argparse reads ``--b -1/2`` as a missing value.

The program sees only the generated argv or call arguments.  The checks
recompute what they need through routes that do not share the checked
code path (recurrences, convolution sums, closed forms, a scaling law, the
fundamental theorem, a divided difference of an antiderivative, the exact
backend).
"""

from __future__ import annotations

import itertools
import json
import os
import random
from fractions import Fraction
from pathlib import Path

import stpanto.cli as cli
import stpanto.stfun as stfun
import stpanto.stnum as stnum
import stpanto.stquad as stquad
import stpanto.stseries as stseries
import stpanto.stsolve as stsolve

from ops import CheckFailed, Op, cli_call

PRECISION = 30
FLOAT_RESIDUAL_REL = 1e-20    # float series-mode solves: coeff_max / solution scale
FLOAT_AGREE = 1e-20           # float coefficients against another route
POINT_REL = 1e-12             # point values against an independent route

RATIONAL_PAIRS = [("3", "-2"), ("4", "-3"), ("2", "3")]   # q = 1/2, 1/3, -1/3
FLOAT_PAIRS = [("1", "1"), ("2", "1"), ("1", "3")]        # irrational phi
# |b u^k| < 1 <= a, so no factor a + b u^k vanishes.
A_SET = ["1", "2", "3/2", "3"]
B_SET = ["1/2", "-1/2", "1/3", "-1/3"]
U_SET = ["1/2", "-1/2", "1/3", "-1/3"]
SMALL = ["1", "-1", "2", "1/2", "-1/2", "3/2"]
POINTS = ["1/5", "1/4", "1/3", "2/5", "1/2"]

WORK_DIR = Path(__file__).resolve().parent / "out" / "work"


# -- helpers ------------------------------------------------------------------

def poly_expr(coeffs) -> str:
    """Format coefficients in the CLI expression grammar."""
    parts = []
    for d, c in enumerate(coeffs):
        c = Fraction(c)
        if c == 0:
            continue
        mag = abs(c)
        if d == 0:
            body = str(mag)
        else:
            xpow = "x" if d == 1 else f"x^{d}"
            body = xpow if mag == 1 else f"{mag}*{xpow}"
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def rand_poly(rng, degree: int) -> list[Fraction]:
    return [Fraction(rng.choice(SMALL)) for _ in range(degree + 1)]


def st_nums(p, n: int) -> list:
    """{0}..{n} by the bare recurrence, in p's arithmetic."""
    out = [p.zero(), p.one()]
    while len(out) <= n:
        out.append(p.s * out[-1] + p.t * out[-2])
    return out[:n + 1]


def agree(p, x, y, scale=None) -> bool:
    """Exact equality on the rational backend; on float, FLOAT_AGREE
    relative to ``scale`` (default: the larger magnitude)."""
    if p.rational:
        return x == y
    if scale is None:
        scale = max(abs(x), abs(y))
    return abs(x - y) <= FLOAT_AGREE * scale


def near(x, y, rel=POINT_REL) -> bool:
    """Point values: |x - y| <= rel (1 + |y|), on either backend."""
    bound = Fraction(rel) * (1 + abs(y)) if isinstance(y, Fraction) else rel * (1 + abs(y))
    return abs(x - y) <= bound


def render_scalar(x) -> str:
    # Hex digits are exact and have no int-to-decimal length limit.
    if isinstance(x, Fraction):
        return f"{x.numerator:x}/{x.denominator:x}"
    if hasattr(x, "_mpf_"):
        sign, man, exp, _ = x._mpf_
        return f"{'-' if sign else ''}{man:x}e{exp}"
    return repr(x)


def render_series(s) -> str:
    return ",".join(render_scalar(c) for c in s.coeffs)


def _params(pair, backend):
    return stnum.golden_pair(pair[0], pair[1], backend=backend, precision=PRECISION)


def _backend_flags(backend):
    return ["--backend=float", f"--precision={PRECISION}"] if backend == "float" else []


def _coeffs(doc, p):
    return [p.wrap(c) for c in doc["solution"]["coeffs"]]


# -- checks -------------------------------------------------------------------

def check_solve(pair, backend):
    def check(r):
        doc = json.loads(r.stdout)
        cmax = doc["residual"]["coeff_max"]
        if backend == "rational":
            if cmax != "0":
                raise CheckFailed("residual", f"coeff_max {cmax}")
        else:
            # Relative to the largest coefficient of y and of D y; 30-digit
            # solves reach about 1e-28 here.
            p = _params(pair, backend)
            c = _coeffs(doc, p)
            nums = st_nums(p, len(c))
            scale = max([p.one()] + [abs(x) for x in c]
                        + [abs(nums[n + 1] * c[n + 1]) for n in range(len(c) - 1)])
            if abs(p.wrap(cmax)) > FLOAT_RESIDUAL_REL * scale:
                raise CheckFailed("residual", f"coeff_max {cmax}")
    return check


def check_verify(r):
    if json.loads(r.stdout).get("matches_document") is not True:
        raise CheckFailed("verify_match", "verify did not reproduce the stored residual")


def check_against_exact(argv_exact, base_check):
    """Float solve on a rational pair: agree with the exact backend."""
    def check(r):
        base_check(r)
        exact = cli_call(argv_exact)
        pf, pe = _params(("3", "-2"), "float"), _params(("3", "-2"), "rational")
        got = _coeffs(json.loads(r.stdout), pf)
        want = [pf.wrap(c) for c in _coeffs(json.loads(exact.stdout), pe)]
        bad = [n for n, (g, w) in enumerate(zip(got, want)) if not agree(pf, g, w)]
        if len(got) != len(want) or bad:
            raise CheckFailed("float_vs_exact", f"coefficients {bad[:5]} disagree")
    return check


def check_numeric_if(pair, spec, order, alpha, beta, y0, eta, side):
    """Numeric mode y(x) = (int_eta^x beta E[A(delay r)] d r + y0) / E[A(x)].
    The Jackson sum of the polynomial integrand equals F(x) - F(eta) for
    its antiderivative F, which is how the harness recomputes it."""
    def check(r):
        p = _params(pair, "float")
        doc = json.loads(r.stdout)
        ps = stfun.PantographSpec(*(p.wrap(v) for v in spec))
        al = cli.parse_expression(alpha, p, order)
        be = cli.parse_expression(beta, p, order).padded(order).truncated(order)
        factor, _ = stsolve.integrating_factor(p, ps, al, order)
        delay = p.phi if side == "phi-prime-delay" else p.phi_prime
        top = 2 * order + 2
        integrand = be.padded(top) * stseries.scale(factor, delay).padded(top)
        big_f = stseries.st_antiderive(integrand)
        base = big_f.eval(p.wrap(eta))
        if not doc.get("values"):
            raise CheckFailed("numeric_values", "no point values")
        for x_text, y_text in doc["values"]:
            x = p.wrap(x_text)
            want = (big_f.eval(x) - base + p.wrap(y0)) / factor.eval(x)
            if not near(p.wrap(y_text), want):
                raise CheckFailed("numeric_values", f"y({x_text}) = {y_text}")
    return check


def check_eval(pair, backend, fn, lits, order, expected=None):
    """Coefficient recurrences: E: c_{n+1}{n+1} = (a + b u^n) c_n;
    exp: c_{n+1}{n+1} = u^n c_n; theta: c_{n+1} = y^n c_n."""
    def check(r):
        p = _params(pair, backend)
        c = _coeffs(json.loads(r.stdout), p)
        if fn == "polynomial":
            # A parsed polynomial keeps its own degree.
            want = [p.wrap(v) for v in expected]
            if len(c) != len(want) or not all(agree(p, g, w) for g, w in zip(c, want)):
                raise CheckFailed("eval_poly")
            return
        if len(c) != order + 1:
            raise CheckFailed("eval_order", f"{len(c)} coefficients")
        nums = st_nums(p, order)
        a, b, u = (p.wrap(v) for v in lits)
        uk = p.one()
        for n in range(order):
            if fn == "pantograph":
                lhs, rhs = c[n + 1] * nums[n + 1], (a + b * uk) * c[n]
            elif fn == "exp":
                lhs, rhs = c[n + 1] * nums[n + 1], uk * c[n]
            else:
                lhs, rhs = c[n + 1], uk * c[n]
            if not agree(p, lhs, rhs):
                raise CheckFailed("eval_recurrence", f"{fn} at n = {n}")
            uk *= u
    return check


def check_derive(pair, backend, poly, order):
    def check(r):
        p = _params(pair, backend)
        c = _coeffs(json.loads(r.stdout), p)
        nums = st_nums(p, order + 1)
        src = [p.wrap(v) for v in poly] + [p.zero()] * (order + 2 - len(poly))
        want = [nums[n + 1] * src[n + 1] for n in range(len(c))]
        if not all(agree(p, g, w) for g, w in zip(c, want)):
            raise CheckFailed("derive")
    return check


def check_numbers(pair, backend, upto):
    def check(r):
        p = _params(pair, backend)
        v = [p.wrap(x) for x in json.loads(r.stdout)["values"]]
        if len(v) != upto + 1 or v[0] != 0 or v[1] != 1:
            raise CheckFailed("numbers")
        if not all(agree(p, v[n + 2], p.s * v[n + 1] + p.t * v[n]) for n in range(upto - 1)):
            raise CheckFailed("numbers_recurrence")
    return check


def closed_jackson(p, poly, lo, hi):
    """int_lo^hi sum c_m x^m = sum c_m (hi^{m+1} - lo^{m+1}) / {m+1}."""
    nums = st_nums(p, len(poly) + 1)
    lo, hi = p.wrap(lo), p.wrap(hi)
    return sum((p.wrap(c) * (hi ** (m + 1) - lo ** (m + 1)) / nums[m + 1]
                for m, c in enumerate(poly)), p.zero())


def check_integrate(pair, backend, poly, lo, hi, tol):
    def check(r):
        p = _params(pair, backend)
        got = p.wrap(json.loads(r.stdout)["value"])
        if not near(got, closed_jackson(p, poly, lo, hi), rel=1000 * tol):
            raise CheckFailed("integrate_value")
    return check


# -- CLI op builders ----------------------------------------------------------

def _pair_flags(pair):
    return [f"--s={pair[0]}", f"--t={pair[1]}"]


def _spec_draw(rng, order=0):
    if order >= 112:
        # With a >= 2, |b| = 1/2 and |u| = 1/3 no factor a + b u^k cancels
        # against {n}!, so every order-128 rational document has coefficients
        # past the 4300-digit limit: the known emission defect shows on each
        # such op, not on a seed-dependent share.
        return rng.choice(["2", "3"]), rng.choice(["1/2", "-1/2"]), rng.choice(["1/3", "-1/3"])
    return rng.choice(A_SET), rng.choice(B_SET), rng.choice(U_SET)


def _spec_flags(spec):
    return [f"--a={spec[0]}", f"--b={spec[1]}", f"--u={spec[2]}"]


def _with_verify(solve: Op, backend: str) -> list[Op]:
    """The solve, then a ``verify`` of the document it just printed."""
    path = WORK_DIR / "verify-doc.json"
    rel = os.path.relpath(path)

    def prepare():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(solve.last.stdout if solve.last is not None else "")

    verify = Op.cli("verify", ["verify", f"--doc={rel}"], check_verify,
                    prepare=prepare, meta={"backend": backend})
    return [solve, verify]


def if_solve(rng, pair, backend, order, poly_alpha, k_points, verify=False,
             eta=None, check_exact=False):
    spec = _spec_draw(rng)
    alpha = poly_expr(rand_poly(rng, 1)) if poly_alpha else rng.choice(SMALL)
    beta = poly_expr(rand_poly(rng, rng.choice([0, 1, 2])))
    y0 = rng.choice(["0", "1", "2", "-1", "3"])
    side = rng.choice(["phi-prime-delay", "phi-delay"])
    argv = (["solve", "--family=integration-factor"] + _pair_flags(pair) + _spec_flags(spec)
            + [f"--alpha={alpha}", f"--beta={beta}", f"--y0={y0}",
               f"--delay-side={side}", f"--order={order}"])
    if eta is not None:
        argv.append(f"--eta={eta}")
    if k_points:
        argv.append("--points=" + ",".join(sorted(rng.sample(POINTS, k_points),
                                                  key=Fraction)))
    mode = "numeric" if eta is not None else "series"
    meta = {"if_mode": mode, "k": k_points}
    exact_argv = list(argv)
    argv = argv + _backend_flags(backend)
    if eta is not None:
        check = check_numeric_if(pair, spec, order, alpha, beta, y0, eta, side)
    else:
        check = check_solve(pair, backend)
        if check_exact:
            check = check_against_exact(exact_argv, check)
    op = Op.cli("solve-if" if not check_exact else "solve-if-vs-exact", argv, check, meta=meta)
    return _with_verify(op, backend) if verify else [op]


def bernoulli_solve(rng, pair, backend, order, n, verify=False):
    spec = _spec_draw(rng)
    argv = (["solve", "--family=bernoulli"] + _pair_flags(pair) + _spec_flags(spec)
            + [f"--alpha={rng.choice(SMALL)}", f"--beta={poly_expr(rand_poly(rng, 1))}",
               f"--y0={rng.choice(['1', '2', '-1'])}", f"--n={n}",
               f"--delay-side={rng.choice(['phi-prime-delay', 'phi-delay'])}",
               f"--order={order}"] + _backend_flags(backend))
    op = Op.cli("solve-bernoulli", argv, check_solve(pair, backend),
                meta={"if_mode": "series", "k": 0})
    return _with_verify(op, backend) if verify else [op]


def family_solve(rng, pair, backend, family, order, verify=False):
    spec = _spec_draw(rng, order)
    argv = ["solve", f"--family={family}"] + _pair_flags(pair) + _spec_flags(spec)
    if family == "series-linear":
        argv += [f"--alpha={rng.choice(SMALL)}", f"--beta={poly_expr(rand_poly(rng, 2))}",
                 f"--y0={rng.choice(['0', '1', '2', '-1'])}"]
    elif family == "special-rhs":
        argv += [f"--beta-amplitude={rng.choice(SMALL)}", f"--y0={rng.choice(['1', '2', '-1'])}"]
    else:
        alpha, u, b = Fraction(rng.choice(SMALL)), Fraction(spec[2]), Fraction(spec[1])
        gamma = Fraction(rng.choice(SMALL + ["0"]))
        if b * alpha - u * gamma == 0:
            gamma = Fraction(0)
        argv += [f"--alpha-coef={alpha}", f"--beta-coef={alpha / u}", f"--gamma={gamma}",
                 f"--delta={rng.choice(SMALL)}", f"--c={rng.choice(['0', '1', '-2'])}"]
    argv += [f"--order={order}"] + _backend_flags(backend)
    op = Op.cli(f"solve-{family}", argv, check_solve(pair, backend))
    return _with_verify(op, backend) if verify else [op]


def eval_op(rng, pair, backend, order, fn=None):
    fn = fn or rng.choice(["pantograph", "exp", "theta", "polynomial"])
    spec = _spec_draw(rng, order)
    argv = ["eval", f"--fn={fn}"] + _pair_flags(pair)
    expected = None
    if fn == "pantograph":
        argv += _spec_flags(spec)
        lits = spec
    elif fn == "exp":
        lits = ("0", "1", rng.choice(U_SET))
        argv.append(f"--u={lits[2]}")
    elif fn == "theta":
        lits = ("0", "1", rng.choice(U_SET))
        argv.append(f"--y={lits[2]}")
    else:
        lits = None
        expected = rand_poly(rng, rng.choice([3, 6, 10]))
        argv.append(f"--expr={poly_expr(expected)}")
    argv += [f"--order={order}"] + _backend_flags(backend)
    return [Op.cli(f"eval-{fn}", argv, check_eval(pair, backend, fn, lits, order, expected))]


def numbers_op(rng, pair, backend):
    upto = rng.randint(20, 60)
    argv = ["numbers"] + _pair_flags(pair) + [f"--upto={upto}"] + _backend_flags(backend)
    return [Op.cli("numbers", argv, check_numbers(pair, backend, upto))]


def derive_op(rng, pair, backend):
    poly = rand_poly(rng, rng.randint(3, 10))
    argv = (["derive"] + _pair_flags(pair) + [f"--expr={poly_expr(poly)}"]
            + _backend_flags(backend))
    return [Op.cli("derive", argv, check_derive(pair, backend, poly, cli.DEFAULT_ORDER))]


def integrate_op(rng, pair, backend, tol=None):
    poly = rand_poly(rng, rng.randint(1, 4))
    lo, hi = rng.choice(["0", "1/4", "1/3"]), rng.choice(["1/2", "2/3", "1"])
    argv = (["integrate"] + _pair_flags(pair) + [f"--expr={poly_expr(poly)}",
                                                 f"--from={lo}", f"--to={hi}"])
    if tol is not None:
        argv.append(f"--tol={tol}")
    argv += _backend_flags(backend)
    check = check_integrate(pair, backend, poly, lo, hi, 1e-15 if tol is None else tol)
    return [Op.cli(f"integrate-tol{tol or 1e-15:g}", argv, check)]


def identities_op():
    def check(r):
        if not json.loads(r.stdout)["all_pass"]:
            raise CheckFailed("identities")
    return [Op.cli("identities", ["identities"], check)]


# -- library series algebra ---------------------------------------------------

def _e_series(rng, p, n, unit_u=False):
    """A seeded E(a,b;x,u) series; unit_u keeps |u| = 1 (smaller coefficients)."""
    u = rng.choice(["1", "-1"]) if unit_u else rng.choice(U_SET)
    spec = stfun.PantographSpec(p.wrap(rng.choice(A_SET)), p.wrap(rng.choice(B_SET)), p.wrap(u))
    return stfun.pantograph(p, spec, n)


def _exp_series(rng, p, n, unit_u=False):
    u = rng.choice(["1", "-1"]) if unit_u else rng.choice(U_SET)
    return stfun.deformed_exp(p, p.wrap(u), n)


def _conv(f, g, n):
    """(sum_i f_i g_{n-i}, sum_i |f_i g_{n-i}|)."""
    acc, mag = f.params.zero(), f.params.zero()
    for i in range(n + 1):
        term = f.coeffs[i] * g.coeffs[n - i]
        acc += term
        mag += abs(term)
    return acc, mag


def _conv_agrees(p, f, g, want, n) -> bool:
    got, mag = _conv(f, g, n)
    return agree(p, got, want, scale=mag)


def product_op(rng, pair, backend, n, unit_u=False):
    p = _params(pair, backend)
    f, g = _e_series(rng, p, n, unit_u), _exp_series(rng, p, n, unit_u)

    def check(out):
        if out.order != n or not all(_conv_agrees(p, f, g, out.coeffs[k], k)
                                     for k in (0, n // 2, n)):
            raise CheckFailed("product")
    return [Op(f"lib-product-n{n}", lambda: f * g, check, render_series)]


def quotient_op(rng, pair, backend, n):
    p = _params(pair, backend)
    f, g = _e_series(rng, p, n), _exp_series(rng, p, n)

    def check(out):
        if out.order != n or not all(_conv_agrees(p, out, g, f.coeffs[k], k)
                                     for k in (0, n // 2, n)):
            raise CheckFailed("quotient")
    return [Op(f"lib-quotient-n{n}", lambda: f / g, check, render_series)]


def compose_op(rng, pair, backend, n):
    """compose_ab(ones, spec, c g) must equal compose_ab([c^k], spec, g)."""
    p = _params(pair, backend)
    c1, c2 = Fraction(rng.choice(SMALL)), Fraction(rng.choice(SMALL))
    f = stseries.Series(p, [0, c1, c2] + [0] * (n - 2))
    spec = stfun.PantographSpec(*(p.wrap(v) for v in _spec_draw(rng)))
    ones = [1] * (n + 1)

    def check(out):
        g = f * (1 / p.wrap(c1))
        other = stseries.compose_ab([p.wrap(c1) ** k for k in range(n + 1)], spec, g)
        if not all(agree(p, x, y) for x, y in zip(out.coeffs, other.coeffs)):
            raise CheckFailed("compose_scaling")
    return [Op(f"lib-compose-n{n}", lambda: stseries.compose_ab(ones, spec, f), check,
               render_series)]


# -- solve workloads ------------------------------------------------------------

def solve_cycle(rng, backend, index):
    """The exact-solve / float-solve slot multiset, as units of ops."""
    pairs = RATIONAL_PAIRS if backend == "rational" else FLOAT_PAIRS
    slots = itertools.count(index)

    def pair():
        # Slot k of cycle c gets pair (k + c) mod 3: over three cycles every
        # slot meets every pair, so runs differ in literals, not pair mix.
        return pairs[next(slots) % len(pairs)]

    units = []
    # Integration factor: every order once without points and once with k
    # of them, alternating constant and polynomial alpha.
    for order, poly_first, k in ((8, False, 1), (12, True, 2), (16, False, 3), (24, True, 2)):
        units.append(if_solve(rng, pair(), backend, order, poly_first, 0,
                              verify=order == 8))
        units.append(if_solve(rng, pair(), backend, order, not poly_first, k,
                              verify=order == 12))
    for order, n in ((16, 2), (24, 3), (32, 2), (48, 3)):
        units.append(bernoulli_solve(rng, pair(), backend, order, n, verify=order == 16))
    for order in (32, 64, 128):
        units.append(family_solve(rng, pair(), backend, "series-linear", order,
                                  verify=order == 32))
        units.append(family_solve(rng, pair(), backend, "special-rhs", order,
                                  verify=order == 64))
        units.append(family_solve(rng, pair(), backend, "operator", order,
                                  verify=order == 32))
        units.append(eval_op(rng, pair(), backend, order,
                             fn="pantograph" if order == 128 else None))
    units += [numbers_op(rng, pair(), backend), derive_op(rng, pair(), backend),
              integrate_op(rng, pair(), backend), identities_op()]
    # Library series algebra.  The order-128 rational product uses (3, -2)
    # and |u| = 1 factors: other pairs and deformations take 1.5-3 s each.
    if backend == "rational":
        units.append(product_op(rng, ("3", "-2"), backend, 128, unit_u=True))
    else:
        units.append(product_op(rng, pair(), backend, 128))
    units += [product_op(rng, pair(), backend, 32), product_op(rng, pair(), backend, 64),
              quotient_op(rng, pair(), backend, 32), quotient_op(rng, pair(), backend, 64),
              compose_op(rng, pair(), backend, 16), compose_op(rng, pair(), backend, 24)]
    if backend == "float":
        # Numeric mode (eta > 0): point values only, 4k + 1 factor builds.
        for order, k in ((8, 2), (12, 3), (8, 4)):
            units.append(if_solve(rng, pair(), backend, order, False, k,
                                  eta=rng.choice(["1/10", "1/20"])))
        # The float backend on a rational pair, checked against the exact one.
        units.append(if_solve(rng, ("3", "-2"), backend, 12, rng.random() < 0.5, 0,
                              check_exact=True))
    return units


# -- pointwise workload -----------------------------------------------------------

POINT_X = ["1/5", "1/3", "1/2", "2/3", "3/4", "1", "5/4"]
FTC_X = ["1/5", "1/3", "1/2", "2/3", "3/4", "1"]
ANTI_A = ["1", "2", "3/2"]
ANTI_B = ["1/4", "-1/4", "1/5", "-1/5"]
ANTI_U_SMALL = ["1/2", "-1/2", "2/3"]
ANTI_U_BIG = ["3/2", "-3/2", "6/5"]   # below phi for every pair used
POINT_RATIONAL = [("3", "-2"), ("4", "-3")]


def _dd(p, fn, x):
    """Divided difference (f(phi x) - f(phi' x)) / ((phi - phi') x)."""
    return (fn(p.phi * x) - fn(p.phi_prime * x)) / ((p.phi - p.phi_prime) * x)


def _direct_theta(p, x, y):
    """sum y^C(n,2) x^n, summed until the terms fall below 1e-40."""
    total, term, yn = p.zero(), p.one(), p.one()
    for _ in range(20000):
        total += term
        if abs(term) < Fraction(1, 10 ** 40) * (1 + abs(total)):
            return total
        term, yn = term * yn * x, yn * y
    raise CheckFailed("theta_direct", "direct sum did not settle")


def _point_pair(rng, rational):
    return _params(rng.choice(POINT_RATIONAL if rational else FLOAT_PAIRS),
                   "rational" if rational else "float")


def pantograph_point(rng, rational):
    p = _point_pair(rng, rational)
    spec = stfun.PantographSpec(*(p.wrap(v) for v in _spec_draw(rng)))
    x = p.wrap(rng.choice(POINT_X))

    def check(v):
        if not near(v, stfun.pantograph(p, spec, 80).eval(x)):
            raise CheckFailed("pantograph_at_vs_series")
    return [Op("pt-pantograph_at", lambda: stfun.pantograph_at(p, spec, x), check,
               render_scalar)]


def exp_point(rng, rational):
    p = _point_pair(rng, rational)
    u, x = p.wrap(rng.choice(U_SET)), p.wrap(rng.choice(POINT_X))

    def check(v):
        if not near(v, stfun.deformed_exp(p, u, 80).eval(x)):
            raise CheckFailed("deformed_exp_at_vs_series")
    return [Op("pt-deformed_exp_at", lambda: stfun.deformed_exp_at(p, u, x), check,
               render_scalar)]


def theta_point(rng):
    p = _point_pair(rng, False)
    x, y = p.wrap(rng.choice(POINT_X)), p.wrap(rng.choice(U_SET))

    def check(v):
        if not near(v, _direct_theta(p, x, y)):
            raise CheckFailed("partial_theta_direct")
    return [Op("pt-partial_theta", lambda: stfun.partial_theta(x, y), check, render_scalar)]


def psi_point(rng):
    p = _point_pair(rng, False)
    q = p.wrap(rng.choice(["1/2", "-1/2", "1/3", "2/3", "-2/3"]))

    def check(v):
        # psi(q) = sum q^C(n+1,2) = Theta0(q, q), summed directly
        if not near(v, _direct_theta(p, q, q)):
            raise CheckFailed("psi_theta_direct")
    return [Op("pt-psi_theta", lambda: stfun.psi_theta(q), check, render_scalar)]


def antiderivative_point(rng, rational, big_u):
    p = _point_pair(rng, rational)
    u = rng.choice(ANTI_U_BIG if big_u else ANTI_U_SMALL)
    spec = stfun.PantographSpec(p.wrap(rng.choice(ANTI_A)), p.wrap(rng.choice(ANTI_B)),
                                p.wrap(u))
    x = p.wrap(rng.choice(FTC_X))

    def check(_v):
        # D F = E: the divided difference of the antiderivative is E itself.
        dd = _dd(p, lambda z: stquad.pantograph_antiderivative_at(p, spec, z), x)
        if not near(dd, stfun.pantograph_at(p, spec, x)):
            raise CheckFailed("antiderivative_ftc")
    branch = "big_u" if big_u else "small_u"
    return [Op(f"pt-antiderivative-{branch}",
               lambda: stquad.pantograph_antiderivative_at(p, spec, x), check, render_scalar)]


def theta_antiderivative_point(rng, rational):
    p = _point_pair(rng, rational)
    x = p.wrap(rng.choice(FTC_X))

    def check(_v):
        dd = _dd(p, lambda z: stquad.theta_antiderivative_at(p, z), x)
        if not near(dd, _direct_theta(p, (1 - p.q) * x, 1 / p.phi)):
            raise CheckFailed("theta_antiderivative_ftc")
    return [Op("pt-theta_antiderivative",
               lambda: stquad.theta_antiderivative_at(p, x), check, render_scalar)]


def integral_series_point(rng, rational):
    p = _point_pair(rng, rational)
    poly = rand_poly(rng, rng.randint(2, 6))
    f = stseries.Series(p, poly)
    lo, hi = rng.choice(["0", "1/4", "1/3"]), rng.choice(["1/2", "2/3", "1"])
    interval = stquad.QInterval(p.wrap(lo), p.wrap(hi), p)

    def check(v):
        if not near(v, closed_jackson(p, poly, lo, hi)):
            raise CheckFailed("st_integral_series_ftc")
    return [Op("pt-st_integral-series", lambda: stquad.st_integral(f, interval), check,
               render_scalar)]


def integral_callable_point(rng):
    """int_a^b E(a,b;x,u) d = F(b) - F(a) with F the pantograph antiderivative."""
    p = _point_pair(rng, False)
    spec = stfun.PantographSpec(p.wrap(rng.choice(ANTI_A)), p.wrap(rng.choice(ANTI_B)),
                                p.wrap(rng.choice(ANTI_U_SMALL)))
    lo, hi = p.wrap(rng.choice(["0", "1/4"])), p.wrap(rng.choice(["1/2", "3/4"]))
    interval = stquad.QInterval(lo, hi, p)

    def integrand(r):
        return stfun.pantograph_at(p, spec, r)

    def check(v):
        anti = stquad.pantograph_antiderivative_at
        if not near(v, anti(p, spec, hi) - anti(p, spec, lo)):
            raise CheckFailed("st_integral_callable_ftc")
    return [Op("pt-st_integral-callable", lambda: stquad.st_integral(integrand, interval),
               check, render_scalar)]


def pq_point(rng, swap):
    """(p,q)-integral of a polynomial over [0, a]: for x^m the node sum is
    (p - q) a^{m+1} / (p^{m+1} - q^{m+1}) on either branch."""
    par = _point_pair(rng, False)
    pp, qq = (par.phi_prime, par.phi) if swap else (par.phi, par.phi_prime)
    poly = [par.wrap(c) for c in rand_poly(rng, rng.randint(1, 4))]
    a = par.wrap(rng.choice(["1/2", "1", "3/2"]))

    def f(x):
        acc = par.zero()
        for c in reversed(poly):
            acc = acc * x + c
        return acc

    def check(v):
        want = sum((c * (pp - qq) * a ** (m + 1) / (pp ** (m + 1) - qq ** (m + 1))
                    for m, c in enumerate(poly)), par.zero())
        if not near(v, want):
            raise CheckFailed("pq_integral_closed_form")
    return [Op(f"pt-pq_integral-{'swap' if swap else 'direct'}",
               lambda: stquad.pq_integral(f, a, pp, qq), check, render_scalar)]


def pointwise_cycle(rng):
    """Mostly cheap float point evaluations, a few rational ones, then the
    sums over node sets and the CLI ``integrate``."""
    return ([pantograph_point(rng, False) for _ in range(4)] + [pantograph_point(rng, True)]
            + [exp_point(rng, False), exp_point(rng, False), exp_point(rng, True)]
            + [theta_point(rng), theta_point(rng), psi_point(rng)]
            + [antiderivative_point(rng, False, True), antiderivative_point(rng, False, True),
               antiderivative_point(rng, True, True), antiderivative_point(rng, False, False)]
            + [theta_antiderivative_point(rng, False), theta_antiderivative_point(rng, True)]
            + [integral_series_point(rng, False), integral_series_point(rng, True),
               integral_callable_point(rng), integral_callable_point(rng)]
            + [pq_point(rng, False), pq_point(rng, True)]
            + [integrate_op(rng, rng.choice(FLOAT_PAIRS), "float", 1e-15),
               integrate_op(rng, rng.choice(FLOAT_PAIRS), "float", 1e-22)])


# -- registry ---------------------------------------------------------------------

WORKLOADS = {
    "exact-solve": lambda rng, index: solve_cycle(rng, "rational", index),
    "float-solve": lambda rng, index: solve_cycle(rng, "float", index),
    "pointwise": lambda rng, index: pointwise_cycle(rng),
}

# Layers each workload must reach in a traced pass (nonzero calls).
EXPECTED_LAYERS = {
    "exact-solve": ["cli.main", "cli.parse_expression", "cli.format_series",
                    "stseries.mul", "stseries.div", "stseries.elementwise",
                    "stseries.eval", "stseries.symbolic_powers", "stseries.compose",
                    "stsolve.integrating_factor", "stsolve.residual", "stsolve.solve",
                    "stnum.st_factorial", "stnum.st_number_range", "stnum.golden_pair",
                    "stfun.series", "stfun.point", "stable.stable_sum",
                    "stquad.st_integral", "identities.run_all"],
    "pointwise": ["stfun.point", "stable.stable_sum", "stquad.st_integral",
                  "stquad.antiderivative_at", "stquad.pq_integral", "stseries.eval",
                  "cli.main", "cli.parse_expression", "stnum.golden_pair"],
}
EXPECTED_LAYERS["float-solve"] = EXPECTED_LAYERS["exact-solve"] + [
    "stsolve.integration_factor_value"]

# Failure kinds that are known defects of the program, counted as failed ops.
KNOWN_DEFECTS = {
    "raw:ValueError": "CLI JSON emission of a rational coefficient over 4300 decimal "
                      "digits (rational order >= 112)",
    "check:verify_match": "verify does not reproduce float-backend documents",
}


def known_defect(op: Op, outcome) -> bool:
    if outcome.status == "raw:ValueError":
        return "4300" in outcome.detail
    if outcome.status == "check:verify_match":
        return op.meta.get("backend") == "float"
    return False


def cycle(workload: str, seed: int, index: int) -> list[Op]:
    """Cycle ``index`` of a workload: its slots shuffled, literals drawn."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    units = WORKLOADS[workload](rng, index)
    rng.shuffle(units)
    return [op for unit in units for op in unit]


def describe() -> dict:
    """Workload definitions for the provenance record."""
    return {
        "exact-solve": {"backend": "rational", "pairs": RATIONAL_PAIRS},
        "float-solve": {"backend": f"float/{PRECISION}", "pairs": FLOAT_PAIRS},
        "pointwise": {"backend": f"float/{PRECISION} and rational",
                      "pairs": FLOAT_PAIRS + POINT_RATIONAL},
        "literals": {"a": A_SET, "b": B_SET, "u": U_SET, "small": SMALL,
                     "points": POINTS},
        "bounds": {"float_residual_rel": FLOAT_RESIDUAL_REL, "float_agree": FLOAT_AGREE,
                   "point_rel": POINT_REL},
    }

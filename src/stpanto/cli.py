"""Command-line front end: solver dispatch and JSON/CSV emission.  The
expression language lives in ``expr``.

Commands: numbers, eval, derive, integrate, solve, verify, identities.
JSON is the canonical output (rationals as exact "p/q" strings, floats as
decimal strings at the declared precision); CSV is limited to
(x, y(x), residual(x)) sample grids.  Exit codes: 0 success, 1 input
error, 2 convergence failure, 3 violated theorem hypothesis.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from ._stable import DEFAULT_TOL
from .errors import StError, StInputError
from .expr import format_series, parse_expression
from .stnum import Params, golden_pair, st_number_range
from .stseries import DEFAULT_ORDER, Series, st_derive
from .stfun import PantographSpec, deformed_exp, pantograph, partial_theta_series
from .stquad import QInterval, st_integral
from . import identities as identity_suite
from .stsolve import (
    LinearProblem,
    SolutionReport,
    bernoulli_transform,
    residual,
    solve_integration_factor,
    solve_operator,
    solve_series_linear,
    solve_special_rhs,
)

SCHEMA_VERSION = 1


# -- result documents ---------------------------------------------------------


def _params_block(p: Params) -> dict:
    return {"s": p.to_str(p.s), "t": p.to_str(p.t), "phi": p.to_str(p.phi),
            "phi_prime": p.to_str(p.phi_prime), "q": p.to_str(p.q),
            "backend": p.backend, "precision": p.precision}


def _solution_block(series: Series, closed_form=None) -> dict:
    return {"coeffs": [series.params.to_str(c) for c in series.coeffs],
            "closed_form": closed_form, "text": format_series(series)}


def result_document(command: str, input_echo: dict, params: Params | None = None,
                    **blocks) -> dict:
    doc = {"schema": SCHEMA_VERSION, "command": command, "input": input_echo}
    if params is not None:
        doc["params"] = _params_block(params)
    doc.update({k: v for k, v in blocks.items() if v is not None})
    return doc


def _emit(doc: dict, args) -> None:
    if args.format == "csv":
        lines = _to_csv(doc)
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _to_csv(doc: dict) -> list[str]:
    if "identities" in doc:
        lines = ["name,defect,tolerance,pass"]
        for row in doc["identities"]:
            lines.append(f"{row['name']},{row['defect']},{row['tolerance']},{row['pass']}")
        return lines
    if "values" in doc and doc.get("command") == "numbers":
        lines = ["n,value"]
        lines.extend(f"{i},{v}" for i, v in enumerate(doc["values"]))
        return lines
    grid = doc.get("grid")
    if grid is None:
        raise StInputError("csv output needs a sample grid; pass --points")
    lines = ["x,y,residual"]
    for row in grid:
        lines.append(",".join(str(c) for c in row))
    return lines


# -- command implementations ---------------------------------------------------


def _build_params(args) -> Params:
    return golden_pair(args.s, args.t, backend=args.backend, precision=args.precision)


def _cmd_numbers(args) -> dict:
    p = _build_params(args)
    values = st_number_range(p, args.upto)
    echo = {"s": args.s, "t": args.t, "upto": args.upto}
    return result_document("numbers", echo, p, values=[p.to_str(v) for v in values])


def _eval_grid(series: Series, points, residuals=None) -> list:
    """Rows (x, y(x), residual(x)); ``residuals`` are the residual strings
    at the same points, or blank."""
    p = series.params
    grid = []
    for x, r in zip(points, residuals or [""] * len(points)):
        xv = p.wrap(x)
        grid.append([p.to_str(xv), p.to_str(series.eval(xv)), r])
    return grid


def _parse_points(text: str | None) -> list[str]:
    if not text:
        return []
    return [chunk.strip() for chunk in text.split(",") if chunk.strip()]


def _cmd_eval(args) -> dict:
    p = _build_params(args)
    if args.fn == "polynomial":
        series = parse_expression(args.expr, p, args.order)
    elif args.fn == "exp":
        series = deformed_exp(p, p.wrap(args.u), args.order)
    elif args.fn == "pantograph":
        series = pantograph(p, PantographSpec(args.a, args.b, args.u), args.order)
    elif args.fn == "theta":
        series = Series(p, partial_theta_series(p.wrap(args.y), args.order))
    else:
        raise StInputError(f"unknown function {args.fn!r}")
    points = _parse_points(args.at)
    echo = {"s": args.s, "t": args.t, "fn": args.fn, "expr": args.expr,
            "order": args.order, "at": points}
    return result_document("eval", echo, p, solution=_solution_block(series),
                           grid=_eval_grid(series, points) or None)


def _cmd_derive(args) -> dict:
    p = _build_params(args)
    series = st_derive(parse_expression(args.expr, p, args.order))
    points = _parse_points(args.at)
    echo = {"s": args.s, "t": args.t, "expr": args.expr, "order": args.order}
    return result_document("derive", echo, p, solution=_solution_block(series),
                           grid=_eval_grid(series, points) or None)


def _cmd_integrate(args) -> dict:
    p = _build_params(args)
    series = parse_expression(args.expr, p, args.order)
    interval = QInterval(p.wrap(args.frm), p.wrap(args.to), p)
    value = st_integral(series, interval, tol=args.tol)
    echo = {"s": args.s, "t": args.t, "expr": args.expr,
            "from": args.frm, "to": args.to, "tol": args.tol}
    return result_document("integrate", echo, p, value=p.to_str(value),
                           value_decimal=repr(float(value)),
                           diagnostics={"converged": True})


def _solve_problem(args, p: Params) -> SolutionReport:
    spec = PantographSpec(p.wrap(args.a), p.wrap(args.b), p.wrap(args.u))
    beta = parse_expression(args.beta, p, args.order) if args.beta else Series.zero(p)
    if args.family == "series-linear":
        alpha = parse_expression(args.alpha, p, args.order)
        if alpha.order > 0 and any(c != 0 for c in alpha.coeffs[1:]):
            raise StInputError("series-linear needs a scalar alpha")
        prob = LinearProblem.series_linear(p, spec, alpha.coeffs[0], beta, p.wrap(args.y0))
        return solve_series_linear(prob, args.order)
    if args.family == "integration-factor":
        alpha = parse_expression(args.alpha, p, args.order)
        prob = LinearProblem.integration_factor(
            p, spec, alpha, beta, initial=p.wrap(args.y0), eta=p.wrap(args.eta),
            delay_side=args.delay_side)
        points = [p.wrap(x) for x in _parse_points(args.points)]
        return solve_integration_factor(prob, args.order, points=points, tol=args.tol)
    if args.family == "special-rhs":
        return solve_special_rhs(p, spec, p.wrap(args.beta_amplitude), p.wrap(args.y0),
                                 args.order)
    if args.family == "operator":
        return solve_operator(p, spec, p.wrap(args.alpha_coef), p.wrap(args.beta_coef),
                              p.wrap(args.gamma), p.wrap(args.delta), p.wrap(args.c),
                              args.order)
    if args.family == "bernoulli":
        alpha = parse_expression(args.alpha, p, args.order)
        prob = LinearProblem.bernoulli(p, spec, alpha, beta, args.n,
                                       delay_side=args.delay_side)
        z_prob = bernoulli_transform(prob)
        z_prob.initial = p.wrap(args.y0)
        rep = solve_integration_factor(z_prob, args.order)
        rep.diagnostics["transformed_family"] = z_prob.family
        rep.diagnostics["solution_is_z"] = True
        return rep
    raise StInputError(f"unknown family {args.family!r}")


def _written_residual(problem: LinearProblem, coeffs: list[str], points: list[str]) -> dict:
    """The residual block of a solution and sample points as written: each
    value is read back from its string first, so that ``verify``, which has
    only the strings, reproduces the block digit for digit."""
    p = problem.params
    y = Series(p, [p.wrap(c) for c in coeffs])
    info = residual(problem, y, sample_points=[p.wrap(x) for x in points])
    return {"coeff_max": p.to_str(info.coeff_max),
            "points": [[p.to_str(x), p.to_str(r)] for x, r in info.points]}


def _cmd_solve(args) -> dict:
    p = _build_params(args)
    rep = _solve_problem(args, p)
    echo = {key: getattr(args, key, None)
            for key in ("family", "s", "t", "a", "b", "u", "alpha", "beta", "y0",
                        "eta", "delay_side", "order", "backend", "precision",
                        "alpha_coef", "beta_coef", "gamma", "delta", "c", "n",
                        "beta_amplitude", "tol")}
    points = _parse_points(args.points)
    blocks = {}
    if rep.solution is not None:
        blocks["solution"] = _solution_block(rep.solution, rep.closed_form)
        blocks["residual"] = _written_residual(
            rep.problem, blocks["solution"]["coeffs"], [p.to_str(p.wrap(x)) for x in points])
        if points:
            blocks["grid"] = _eval_grid(rep.solution, points,
                                        [r for _, r in blocks["residual"]["points"]])
    else:
        blocks["residual"] = {
            "coeff_max": None,
            "points": [[p.to_str(x), p.to_str(r)] for x, r in rep.residual_points]}
        blocks["values"] = [[p.to_str(x), p.to_str(v)]
                            for x, v in rep.diagnostics.get("values", [])]
    diags = {"order": rep.order, "backend": p.backend}
    for k, v in rep.diagnostics.items():
        if isinstance(v, (str, int, bool)):
            diags[k] = v
        elif isinstance(v, Fraction):
            diags[k] = str(v)
    blocks["diagnostics"] = diags
    return result_document("solve", echo, p, **blocks)


def _cmd_verify(args) -> dict:
    try:
        with open(args.doc) as fh:
            doc = json.load(fh)
    except OSError as err:
        raise StInputError(f"cannot read {args.doc}: {err.strerror}") from None
    except ValueError as err:
        raise StInputError(f"{args.doc} is not a JSON document: {err}") from None
    if not (isinstance(doc, dict) and doc.get("command") == "solve"
            and isinstance(doc.get("input"), dict) and isinstance(doc.get("solution"), dict)):
        raise StInputError("verify expects a solve result document with its input "
                           "and a series solution")
    # The stored input is read back by the solve parser itself, so it takes
    # the same defaults and the same validation as a fresh solve.
    argv = [f"--{key.replace('_', '-')}={value}"
            for key, value in doc["input"].items() if value is not None]
    ns = build_parser().parse_args(["solve", *argv])
    p = _build_params(ns)
    rep = _solve_problem(ns, p)
    point_strs = [row[0] for row in doc.get("residual", {}).get("points", [])]
    new_residual = _written_residual(rep.problem, doc["solution"].get("coeffs", []),
                                     point_strs)
    matches = new_residual == doc.get("residual")
    return result_document("verify", {"doc": args.doc}, p,
                           residual=new_residual, matches_document=matches)


def _cmd_identities(args) -> dict:
    results = identity_suite.run_all()
    rows = [{"name": r.name, "defect": r.defect, "tolerance": r.tolerance,
             "pass": r.passed} for r in results]
    doc = result_document("identities", {}, None, identities=rows,
                          all_pass=all(r.passed for r in results))
    if not doc["all_pass"]:
        doc["exit_hint"] = "at least one identity failed"
    return doc


# -- argument plumbing ----------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise StInputError(message)


def _int_at_least(low: int):
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _add_common(sub):
    sub.add_argument("--s", required=True)
    sub.add_argument("--t", required=True)
    sub.add_argument("--backend", choices=["rational", "float"], default=None)
    sub.add_argument("--precision", type=_int_at_least(1), default=None)
    sub.add_argument("--order", type=_int_at_least(0), default=DEFAULT_ORDER)
    sub.add_argument("--tol", type=float, default=DEFAULT_TOL)
    _add_output(sub)


def _add_output(sub):
    sub.add_argument("--format", choices=["json", "csv"], default="json")
    sub.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="stpanto",
                      description="Calculus on generalized Fibonacci polynomials: "
                                  "series, special functions, Jackson integration, "
                                  "and proportional difference equation solvers.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_num = subs.add_parser("numbers", help="print the sequence {0}..{upto}")
    _add_common(p_num)
    p_num.add_argument("--upto", type=_int_at_least(0), required=True)

    p_eval = subs.add_parser("eval", help="coefficients/values of an expression "
                                          "or a named special function")
    _add_common(p_eval)
    p_eval.add_argument("--fn", choices=["polynomial", "exp", "pantograph", "theta"],
                        default="polynomial")
    p_eval.add_argument("--expr", default="0")
    p_eval.add_argument("--a", default="0")
    p_eval.add_argument("--b", default="1")
    p_eval.add_argument("--u", default="1")
    p_eval.add_argument("--y", default="1/2")
    p_eval.add_argument("--at", default=None, help="comma-separated points")

    p_der = subs.add_parser("derive", help="the divided-difference derivative "
                                           "of a polynomial expression")
    _add_common(p_der)
    p_der.add_argument("--expr", required=True)
    p_der.add_argument("--at", default=None)

    p_int = subs.add_parser("integrate", help="Jackson-type integral of an "
                                              "expression over [a, b]_q")
    _add_common(p_int)
    p_int.add_argument("--expr", required=True)
    p_int.add_argument("--from", dest="frm", required=True)
    p_int.add_argument("--to", required=True)

    p_solve = subs.add_parser("solve", help="solve a proportional difference equation")
    _add_common(p_solve)
    p_solve.add_argument("--family", required=True,
                         choices=["series-linear", "integration-factor",
                                  "special-rhs", "operator", "bernoulli"])
    p_solve.add_argument("--a", default="0")
    p_solve.add_argument("--b", default="1")
    p_solve.add_argument("--u", default="1")
    p_solve.add_argument("--alpha", default="1")
    p_solve.add_argument("--beta", default="0")
    p_solve.add_argument("--y0", default="0")
    p_solve.add_argument("--eta", default="0")
    p_solve.add_argument("--delay-side", dest="delay_side",
                         choices=["phi-prime-delay", "phi-delay"],
                         default="phi-prime-delay")
    p_solve.add_argument("--points", default=None)
    p_solve.add_argument("--beta-amplitude", dest="beta_amplitude", default="0")
    p_solve.add_argument("--alpha-coef", dest="alpha_coef", default="1")
    p_solve.add_argument("--beta-coef", dest="beta_coef", default="1")
    p_solve.add_argument("--gamma", default="0")
    p_solve.add_argument("--delta", default="0")
    p_solve.add_argument("--c", default="0")
    p_solve.add_argument("--n", type=int, default=2)

    p_ver = subs.add_parser("verify", help="recompute residuals for a stored "
                                           "solve document")
    p_ver.add_argument("--doc", required=True)
    _add_output(p_ver)

    p_id = subs.add_parser("identities", help="run the identity suite")
    _add_output(p_id)

    return parser


COMMANDS = {
    "numbers": _cmd_numbers,
    "eval": _cmd_eval,
    "derive": _cmd_derive,
    "integrate": _cmd_integrate,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "identities": _cmd_identities,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        doc = COMMANDS[args.command](args)
        _emit(doc, args)
    except StError as err:
        sys.stderr.write(f"error: {err}\n")
        return err.exit_code
    if doc.get("command") == "identities" and not doc.get("all_pass", True):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpanto import cli, identities, stsolve
from stpanto.cli import format_series, main, parse_expression
from stpanto.errors import DegreeOverflow, ExpressionSyntaxError
from stpanto.stfun import PantographSpec
from stpanto.stnum import golden_pair
from stpanto.stseries import Series
from stpanto.stsolve import LinearProblem, solve_series_linear

P32 = golden_pair(3, -2)


# -- random expressions with their coefficients by schoolbook arithmetic ----


def _add(a, b, sign):
    out = list(a) + [F(0)] * (len(b) - len(a))
    for d, c in enumerate(b):
        out[d] += sign * c
    return out


def _mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


_NUMBERS = st.one_of(
    st.integers(0, 99).map(lambda n: (str(n), [F(n)])),
    st.tuples(st.integers(0, 99), st.integers(1, 9), st.sampled_from(["/", " / "])).map(
        lambda t: (f"{t[0]}{t[2]}{t[1]}", [F(t[0], t[1])])),
    st.tuples(st.integers(0, 999), st.integers(1, 3)).map(
        lambda t: (f"{t[0] // 10 ** t[1]}.{t[0] % 10 ** t[1]:0{t[1]}d}", [F(t[0], 10 ** t[1])])),
)


@st.composite
def _factors(draw, depth):
    kind = draw(st.sampled_from(["number", "x", "group"][:3 if depth else 2]))
    if kind == "number":
        return draw(_NUMBERS)
    if kind == "x":
        d = draw(st.integers(0, 3))
        text = draw(st.sampled_from(["x", "X"])) + ("" if d == 1 else f"^{d}")
        return text, [F(0)] * d + [F(1)]
    text, value = draw(_expressions(depth - 1))
    return f"({text})", value


@st.composite
def _terms(draw, depth):
    text, value = draw(_factors(depth))
    for _ in range(draw(st.integers(0, 2))):
        f_text, f_value = draw(_factors(depth))
        # an empty separator only where the tokens cannot run together
        seps = ["*", " * ", " "] + ([""] if f_text[0] in "xX(" else [])
        text += draw(st.sampled_from(seps)) + f_text
        value = _mul(value, f_value)
    return text, value


@st.composite
def _expressions(draw, depth=2):
    text, value = "", [F(0)]
    for k in range(draw(st.integers(1, 3))):
        t_text, t_value = draw(_terms(depth))
        sign = draw(st.sampled_from(["+", "-"] + ([""] if k == 0 else [])))
        text += (f" {sign} " if k else sign) + t_text
        value = _add(value, t_value, -1 if sign == "-" else 1)
    return text, value


class TestParser:
    def test_basic_polynomial(self):
        got = parse_expression("1 + 2x - x^3", P32)
        assert got.coeffs == [1, 2, 0, -1]

    def test_rational_coefficient(self):
        got = parse_expression("3/4*x^2", P32)
        assert got.coeffs == [0, 0, F(3, 4)]

    def test_malformed_caret(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression("x^^2", P32)
        assert err.value.position == 3

    def test_decimal_is_exact(self):
        assert parse_expression("0.25x", P32).coeffs == [0, F(1, 4)]

    def test_parentheses_and_products(self):
        got = parse_expression("(1 + x)(1 - x)", P32)
        assert got.coeffs == [1, 0, -1]

    def test_implicit_and_explicit_multiplication(self):
        assert parse_expression("2x", P32) == parse_expression("2*x", P32)

    def test_leading_sign(self):
        assert parse_expression("-x + 1", P32).coeffs == [1, -1]

    def test_spaces_in_rational(self):
        assert parse_expression("3 / 4", P32).coeffs == [F(3, 4)]

    def test_degree_overflow(self):
        with pytest.raises(DegreeOverflow):
            parse_expression("x^40", P32, max_degree=32)
        with pytest.raises(DegreeOverflow):
            parse_expression("x^20 * x^20", P32, max_degree=32)

    def test_product_past_the_cap_with_a_zero_top(self):
        # x + 0 x^3 has degree 1, so its product with x fits order 3
        assert parse_expression("(x + 0*x^3)*x", P32, 3).coeffs == [0, 0, 1, 0]

    def test_unexpected_character(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("1 + y", P32)

    def test_division_by_zero_literal(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("3/0", P32)

    @settings(max_examples=40)
    @given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12),
                    min_size=1, max_size=8))
    def test_roundtrip(self, coeffs):
        series = Series(P32, coeffs)
        printed = format_series(series)
        reparsed = parse_expression(printed, P32)
        assert reparsed.coeffs == series.coeffs[:reparsed.order + 1]
        tail = series.coeffs[reparsed.order + 1:]
        assert all(c == 0 for c in tail)
        # printing is canonical: a second round trip is identical
        assert format_series(reparsed.padded(series.order)) == printed

    def test_format_zero(self):
        assert format_series(Series.zero(P32, 3)) == "0"

    @pytest.mark.parametrize("backend", ["rational", "float"])
    def test_solution_text_from_printed_coefficients(self, backend):
        # The solution block's text reuses the printed coefficients; it
        # equals the form that prints each magnitude to_str(|c|) anew.
        p = golden_pair(3, -2, backend=backend, precision=30)
        coeffs = [0, 1, -1, F(-3, 4), 5, -12, 0, F(1, 10 ** 40), F(-7, 10 ** 45),
                  F(10 ** 35), -F(10 ** 35), F(2, 3), -1]
        for series in (Series(p, coeffs), Series(p, coeffs[1:]), Series(p, [-1, 0, 1]),
                       Series.zero(p, 2)):
            terms = []
            for d, c in enumerate(series.coeffs):
                if c != 0:
                    mag, xpow = p.to_str(abs(c)), "x" if d == 1 else f"x^{d}"
                    body = mag if d == 0 else xpow if abs(c) == 1 else f"{mag}*{xpow}"
                    terms.append(f"{'-' if c < 0 else '+'} {body}")
            want = " ".join(terms) or "0"
            want = want[2:] if want[:2] == "+ " else "-" + want[2:] if want[:2] == "- " else want
            block = cli._solution_block(series)
            assert block["coeffs"] == [p.to_str(c) for c in series.coeffs]
            assert block["text"] == format_series(series) == want
        assert any("e-" in text for text in cli._solution_block(Series(p, coeffs))["coeffs"]) \
            is (backend == "float")

    @settings(max_examples=60)
    @given(_expressions())
    def test_matches_schoolbook_reference(self, case):
        # degrees stay below 3^4 = 81: x^3 at most, three factors a term,
        # two levels of parentheses
        text, value = case
        parsed = parse_expression(text, P32, max_degree=81)
        assert parsed.coeffs == value
        reparsed = parse_expression(format_series(parsed), P32, max_degree=81)
        assert reparsed.padded(parsed.order).coeffs == parsed.coeffs

    def test_nesting_bound(self):
        assert parse_expression("(" * 100 + "x" + ")" * 100, P32).coeffs == [0, 1]
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression("(" * 101 + "x" + ")" * 101, P32)
        assert err.value.position == 101

    @settings(max_examples=100)
    @given(st.text(alphabet="0123456789x+-*/^(). ", max_size=24))
    def test_arbitrary_input_never_crashes(self, text):
        from stpanto.errors import StInputError
        try:
            parse_expression(text, P32)
        except StInputError:
            pass


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


class TestNegativeLiterals:
    """A negative number given as its own word is a value, in every form the
    literals take; an expression such as -x keeps the --flag=value form."""

    @pytest.mark.parametrize("t, value", [("-2", F(-2)), ("-1/2", F(-1, 2)),
                                          ("-0.5", F(-1, 2)), ("-.5", F(-1, 2)),
                                          ("-1e-3", F(-1, 1000)), ("-2.5E-1", F(-1, 4))])
    def test_numbers(self, capsys, t, value):
        code, doc = run_cli(capsys, "numbers", "--s", "3", "--t", t, "--upto", "3")
        assert code == 0
        assert doc["input"]["t"] == t
        assert F(doc["values"][3]) == 9 + value  # {3} = s^2 + t

    def test_solve_with_a_negative_weight(self, capsys):
        code, doc = run_cli(capsys, "solve", "--family", "series-linear", "--s", "3",
                            "--t", "-2", "--a", "1", "--b", "-1/2", "--u", "1/2",
                            "--alpha", "1", "--y0", "1", "--order", "8")
        assert code == 0
        assert doc["input"]["b"] == "-1/2" and doc["residual"]["coeff_max"] == "0"

    def test_expression_needs_the_equals_form(self, capsys):
        argv = ["solve", "--family", "series-linear", "--s", "3", "--t", "-2", "--order", "4"]
        assert main(argv + ["--beta", "-x"]) == 1
        assert "expected one argument" in capsys.readouterr().err
        code, doc = run_cli(capsys, *argv, "--beta=-x")
        assert code == 0 and doc["input"]["beta"] == "-x"


class TestCommands:
    def test_numbers(self, capsys):
        code, doc = run_cli(capsys, "numbers", "--s", "1", "--t", "1", "--upto", "6")
        assert code == 0
        assert doc["values"] == ["0", "1", "1", "2", "3", "5", "8"]

    def test_numbers_rational_backend(self, capsys):
        code, doc = run_cli(capsys, "numbers", "--s", "3", "--t", "-2", "--upto", "4")
        assert doc["values"] == ["0", "1", "3", "7", "15"]
        assert doc["params"]["backend"] == "rational"

    def test_integrate_unit(self, capsys):
        code, doc = run_cli(capsys, "integrate", "--s", "3", "--t", "-2",
                            "--expr", "x", "--from", "0", "--to", "1")
        assert code == 0
        assert abs(F(doc["value"]) - F(1, 3)) < F(1, 10 ** 12)

    def test_readme_integrate_example_is_exact(self, capsys):
        code, doc = run_cli(capsys, "integrate", "--s", "3", "--t", "-2",
                            "--expr", "x", "--from", "0", "--to", "1")
        assert code == 0 and doc["value"] == "1/3"
        assert doc["diagnostics"] == {"method": "antiderivative"}

    def test_rational_numeric_mode_is_exact(self, capsys):
        code, doc = run_cli(capsys, "solve", "--family=integration-factor", "--s=3",
                            "--t=-2", "--alpha=-1", "--beta=x", "--y0=1", "--eta=1/10",
                            "--points=1/2", "--order=4")
        assert code == 0 and doc["values"] == [["1/2", "2562694352/1410015625"]]

    def test_rational_numeric_mode_point_residuals(self, capsys):
        # the README numeric solve: alpha R is taken at each point, not as a
        # quotient series (which wrote 4.2e-10 and 6.2e-5 here)
        code, doc = run_cli(capsys, "solve", "--family=integration-factor", "--s=3",
                            "--t=-2", "--alpha=-1", "--beta=x", "--y0=1", "--eta=1/10",
                            "--points=1/2,7/10")
        assert code == 0
        points = doc["residual"]["points"]
        assert [x for x, _ in points] == ["1/2", "7/10"]
        assert all(F(r) <= F(1, 10 ** 150) for _, r in points)

    @pytest.mark.parametrize("backend", [[], ["--backend=float"]])
    def test_numeric_mode_csv(self, capsys, backend):
        argv = ["solve", "--family=integration-factor", "--s=3", "--t=-2", "--alpha=-1",
                "--beta=x", "--y0=1", "--eta=1/10", "--points=1/2,7/10", *backend]
        code, doc = run_cli(capsys, *argv)
        assert code == 0
        rows = [[x, y, r] for (x, y), (_, r) in zip(doc["values"], doc["residual"]["points"])]
        assert len(rows) == 2 and doc["grid"] == rows
        code, text = run_cli(capsys, *argv, "--format=csv")
        assert code == 0
        assert text.splitlines() == ["x,y,residual"] + [",".join(row) for row in rows]

    def test_solve_series_linear(self, capsys):
        code, doc = run_cli(capsys, "solve", "--family", "series-linear",
                            "--s", "3", "--t", "-2", "--a", "0", "--b", "1",
                            "--u", "1", "--alpha", "1", "--beta", "0",
                            "--y0", "1", "--order", "8")
        assert code == 0
        assert doc["solution"]["coeffs"][:4] == ["1", "1", "1/3", "1/21"]
        assert doc["residual"]["coeff_max"] == "0"

    def test_eval_named_function(self, capsys):
        code, doc = run_cli(capsys, "eval", "--s", "3", "--t", "-2", "--fn", "exp",
                            "--u", "1", "--order", "4")
        assert doc["solution"]["coeffs"] == ["1", "1", "1/3", "1/21", "1/315"]

    def test_derive(self, capsys):
        code, doc = run_cli(capsys, "derive", "--s", "3", "--t", "-2",
                            "--expr", "x^3")
        assert doc["solution"]["coeffs"] == ["0", "0", "7"]

    def test_exit_code_input_error(self, capsys):
        code = main(["numbers", "--s", "0", "--t", "1", "--upto", "3"])
        assert code == 1

    def test_exit_code_syntax_error(self, capsys):
        code = main(["derive", "--s", "3", "--t", "-2", "--expr", "x^^2"])
        assert code == 1

    def test_exit_code_convergence(self, capsys):
        # |q| >= 1 rejected as input; a divergent point evaluation maps to 2
        code = main(["integrate", "--s", "-1", "--t", "6", "--expr", "x",
                     "--from", "0", "--to", "1"])
        assert code == 1  # QOutOfRange is an input error

    def test_exit_code_hypothesis(self, capsys):
        code = main(["solve", "--family", "operator", "--s", "3", "--t", "-2",
                     "--a", "1", "--b", "1", "--u", "1/2", "--alpha-coef", "1",
                     "--beta-coef", "1", "--gamma", "1/3", "--delta", "1"])
        assert code == 3

    def test_solve_csv_grid(self, capsys):
        code, out = run_cli(capsys, "solve", "--family", "series-linear",
                            "--s", "3", "--t", "-2", "--a", "0", "--b", "1",
                            "--u", "1", "--alpha", "1", "--beta", "0",
                            "--y0", "1", "--order", "12",
                            "--points", "1/10,1/5", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,y,residual"
        assert len(lines) == 3

    @pytest.mark.parametrize("argv, message", [
        (["eval", "--expr=x"], "csv output needs a sample grid; pass --at"),
        (["derive", "--expr=x"], "csv output needs a sample grid; pass --at"),
        (["solve", "--family=series-linear", "--order=4"],
         "csv output needs a sample grid; pass --points"),
        (["integrate", "--expr=x", "--from=0", "--to=1"],
         "integrate has no sample grid and writes no csv")])
    def test_csv_without_grid_names_the_flag(self, capsys, argv, message):
        code = main([*argv, "--s=3", "--t=-2", "--format=csv"])
        assert (code, *capsys.readouterr()) == (1, "", f"error: {message}\n")

    def test_verify_csv_has_no_grid(self, capsys, tmp_path):
        doc = tmp_path / "solution.json"
        assert main(["solve", "--family=series-linear", "--s=3", "--t=-2", "--order=4",
                     "--points=1/2", f"--out={doc}"]) == 0
        code = main(["verify", f"--doc={doc}", "--format=csv"])
        assert (code, *capsys.readouterr()) == (
            1, "", "error: verify has no sample grid and writes no csv\n")

    def test_csv_and_json_describe_same_solution(self, capsys, tmp_path):
        args = ["solve", "--family", "series-linear", "--s", "3", "--t", "-2",
                "--a", "0", "--b", "1", "--u", "1/2", "--alpha", "2",
                "--beta", "1+x", "--y0", "1", "--order", "10",
                "--points", "1/10,3/10"]
        code, doc = run_cli(capsys, *args)
        coeffs = [F(c) for c in doc["solution"]["coeffs"]]
        series = Series(P32, coeffs)
        code2 = main(args + ["--format", "csv", "--out", str(tmp_path / "g.csv")])
        rows = (tmp_path / "g.csv").read_text().strip().splitlines()[1:]
        for row in rows:
            x, y, r = row.split(",")
            assert series.eval(F(x)) == F(y)
            assert F(r) < F(1, 10 ** 20)  # order-10 truncation tail only

    def test_identities_command(self, capsys):
        code, doc = run_cli(capsys, "identities")
        assert code == 0
        assert doc["all_pass"] is True
        assert len(doc["identities"]) >= 12

    def test_exact_identity_rows(self, capsys):
        # rows whose objects are rational run exactly: defect 0 at tolerance 0
        code, doc = run_cli(capsys, "identities")
        rows = {r["name"]: r for r in doc["identities"]}
        assert code == 0 and len(rows) == 13 and all(r["pass"] for r in rows.values())
        for name in ("derivative-equivalence", "factorial-bridge", "special-values",
                     "pantograph-equation", "substitution-formula"):
            assert (rows[name]["defect"], rows[name]["tolerance"]) == (0, 0)

    def test_identity_rows_keep_their_bits(self):
        # every row's defect, to the last float bit, with its tolerance and verdict
        rows = [(r.name, repr(r.defect), r.tolerance, r.passed) for r in identities.run_all()]
        assert rows == [
            ("binet-form", "8.133574401855856e-31", 1e-12, True),
            ("factorial-bridge", "0.0", 0.0, True),
            ("derivative-equivalence", "0.0", 0.0, True),
            ("pantograph-equation", "0.0", 0.0, True),
            ("special-values", "0.0", 0.0, True),
            ("fundamental-theorem", "8.673617379884035e-19", 1e-10, True),
            ("integration-by-parts", "1.4456028966473393e-18", 1e-10, True),
            ("jackson-unit-integral", "1.807003620809174e-20", 1e-12, True),
            ("substitution-formula", "0.0", 0.0, True),
            ("pantograph-antiderivative", "4.0614267618606814e-22", 1e-08, True),
            ("q-binomial-theorem", "6.890512406868389e-16", 1e-10, True),
            ("theta-psi-value", "2.6645352591003757e-15", 1e-10, True),
            ("theta-antiderivative", "7.283069987572119e-21", 1e-08, True),
        ]

    def test_failing_identity_exits_1(self, capsys, monkeypatch):
        failed = identities.IdentityResult("broken", 1.0, 0.0, False)
        monkeypatch.setattr(identities, "run_all", lambda: [failed])
        code, doc = run_cli(capsys, "identities")
        assert code == 1 and doc["all_pass"] is False
        assert doc["exit_hint"] == "at least one identity failed"

    def test_numbers_csv(self, capsys):
        code, text = run_cli(capsys, "numbers", "--s=1", "--t=1", "--upto=6", "--format=csv")
        assert code == 0
        assert text.splitlines() == ["n,value"] + [f"{n},{v}" for n, v in
                                                   enumerate([0, 1, 1, 2, 3, 5, 8])]

    def test_identities_csv(self, capsys):
        code, doc = run_cli(capsys, "identities")
        code, text = run_cli(capsys, "identities", "--format=csv")
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "name,defect,tolerance,pass" and len(lines) == 14
        assert lines[1:] == [f"{r['name']},{r['defect']},{r['tolerance']},{r['pass']}"
                             for r in doc["identities"]]

    @pytest.mark.parametrize("pair", [["--s=1", "--t=1"], ["--s=3", "--t=-2", "--backend=float"]])
    def test_float_operator_identity_is_written(self, capsys, pair):
        code, doc = run_cli(capsys, "solve", "--family=operator", *pair, "--a=1", "--b=1",
                            "--u=1/2", "--alpha-coef=1", "--beta-coef=2", "--gamma=1/3",
                            "--delta=1", "--order=10")
        assert code == 0 and doc["params"]["backend"] == "float"
        assert float(doc["diagnostics"]["operator_identity_max"]) < 1e-25

    def test_solve_special_rhs(self, capsys):
        code, doc = run_cli(capsys, "solve", "--family", "special-rhs",
                            "--s", "3", "--t", "-2", "--a", "1/2", "--b", "1/3",
                            "--u", "2/5", "--beta-amplitude", "3", "--y0", "2",
                            "--order", "12")
        assert code == 0
        assert doc["residual"]["coeff_max"] == "0"

    def test_solve_bernoulli(self, capsys):
        code, doc = run_cli(capsys, "solve", "--family", "bernoulli",
                            "--s", "3", "--t", "-2", "--a", "0", "--b", "1",
                            "--u", "2", "--alpha", "1", "--beta", "x^2",
                            "--n", "2", "--y0", "4", "--delay-side", "phi-delay",
                            "--order", "16")
        assert code == 0
        assert doc["diagnostics"]["solution_is_z"] is True
        assert doc["residual"]["coeff_max"] == "0"
        # the z series is Exp'(x) + (x^2 + 3x + 3) for this datum
        assert [F(c) for c in doc["solution"]["coeffs"][:3]] == \
            [F(4), F(4), F(1) + F(1, 3)]

    @pytest.mark.parametrize("backend, n", [("rational", "-1"), ("float", "-1"),
                                            ("rational", "-3")])
    def test_solve_bernoulli_negative_order(self, capsys, tmp_path, backend, n):
        out = tmp_path / "bernoulli.json"
        code, _ = run_cli(capsys, "solve", "--family", "bernoulli", "--backend", backend,
                          "--s", "3", "--t", "-2", "--alpha", "1", "--beta", "1",
                          "--y0", "1", "--n", n, "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        if backend == "rational":
            assert doc["residual"]["coeff_max"] == "0"
        code, verification = run_cli(capsys, "verify", "--doc", str(out))
        assert code == 0 and verification["matches_document"] is True

    def test_eval_theta_function(self, capsys):
        code, doc = run_cli(capsys, "eval", "--s", "3", "--t", "-2",
                            "--fn", "theta", "--y", "1/2", "--order", "4")
        assert code == 0
        assert doc["solution"]["coeffs"] == ["1", "1", "1/2", "1/8", "1/64"]

    def test_float_backend_output(self, capsys):
        code, doc = run_cli(capsys, "eval", "--s", "3", "--t", "-2",
                            "--backend", "float", "--precision", "20",
                            "--fn", "exp", "--u", "1", "--order", "3",
                            "--at", "0.5")
        assert code == 0
        assert doc["params"]["backend"] == "float"
        coeffs = [float(c) for c in doc["solution"]["coeffs"]]
        assert abs(coeffs[2] - 1 / 3) < 1e-15
        x, y, _ = doc["grid"][0]
        assert abs(float(y) - (1 + 0.5 + 0.25 / 3 + 0.125 / 21)) < 1e-12


class TestVerifyRoundTrip:
    def solve_to_file(self, tmp_path, *extra):
        out = tmp_path / "solution.json"
        code = main(["solve", "--family", "series-linear", "--s", "3", "--t", "-2",
                     "--a", "1/2", "--b", "1/3", "--u", "2/5", "--alpha", "3/2",
                     "--beta", "1 + x - x^2", "--y0", "2", "--order", "14",
                     "--points", "1/10,1/4", "--out", str(out), *extra])
        assert code == 0
        return out

    def test_verify_reports_same_residual(self, capsys, tmp_path):
        doc_path = self.solve_to_file(tmp_path)
        stored = json.loads(doc_path.read_text())
        code, verification = run_cli(capsys, "verify", "--doc", str(doc_path))
        assert code == 0
        assert verification["matches_document"] is True
        assert verification["residual"] == stored["residual"]

    def test_verify_skips_a_stored_tol(self, capsys, tmp_path):
        # solve documents written while solve still echoed a tolerance
        doc_path = self.solve_to_file(tmp_path)
        stored = json.loads(doc_path.read_text())
        assert "tol" not in stored["input"]
        stored["input"]["tol"] = 1e-15
        doc_path.write_text(json.dumps(stored))
        code, verification = run_cli(capsys, "verify", "--doc", str(doc_path))
        assert code == 0
        assert verification["matches_document"] is True

    def test_verify_detects_corruption(self, capsys, tmp_path):
        doc_path = self.solve_to_file(tmp_path)
        stored = json.loads(doc_path.read_text())
        coeffs = stored["solution"]["coeffs"]
        coeffs[3] = str(F(coeffs[3]) + F(1, 1000))
        doc_path.write_text(json.dumps(stored))
        code, verification = run_cli(capsys, "verify", "--doc", str(doc_path))
        assert code == 0
        assert verification["matches_document"] is False
        assert F(verification["residual"]["coeff_max"]) >= F(1, 10 ** 4)

    def test_verify_integration_factor_doc(self, capsys, tmp_path):
        out = tmp_path / "if.json"
        code = main(["solve", "--family", "integration-factor", "--s", "3",
                     "--t", "-2", "--a", "0", "--b", "1", "--u", "2",
                     "--alpha", "-1", "--beta", "x^2", "--y0", "3",
                     "--order", "16", "--points", "1/5", "--out", str(out)])
        assert code == 0
        code, verification = run_cli(capsys, "verify", "--doc", str(out))
        assert code == 0
        assert verification["matches_document"] is True

    def test_verify_operator_doc(self, capsys, tmp_path):
        out = tmp_path / "op.json"
        code = main(["solve", "--family", "operator", "--s", "3", "--t", "-2",
                     "--a", "1", "--b", "1", "--u", "1/2", "--alpha-coef", "1",
                     "--beta-coef", "2", "--gamma", "1/3", "--delta", "1",
                     "--c", "0", "--order", "12", "--out", str(out)])
        assert code == 0
        code, verification = run_cli(capsys, "verify", "--doc", str(out))
        assert code == 0
        assert verification["matches_document"] is True
        assert verification["residual"]["coeff_max"] == "0"

    def test_verify_special_rhs_doc(self, capsys, tmp_path):
        out = tmp_path / "sr.json"
        code = main(["solve", "--family", "special-rhs", "--s", "3", "--t", "-2",
                     "--a", "1/2", "--b", "1/3", "--u", "2/5",
                     "--beta-amplitude", "3", "--y0", "2", "--order", "12",
                     "--out", str(out)])
        assert code == 0
        code, verification = run_cli(capsys, "verify", "--doc", str(out))
        assert code == 0
        assert verification["matches_document"] is True

    @pytest.mark.parametrize("family, extra", [
        ("integration-factor", ["--a", "1", "--b", "1/2", "--u", "1/3", "--alpha", "1",
                                "--beta", "x", "--y0", "1", "--order", "12",
                                "--points", "1/5,2/5"]),
        ("series-linear", ["--a", "0", "--b", "1", "--u", "1", "--alpha", "1",
                           "--beta", "0", "--y0", "1", "--order", "10", "--points=1/3"]),
    ])
    def test_verify_float_doc(self, capsys, tmp_path, family, extra):
        # the stored residual is that of the coefficients and points as
        # written, so reading them back reproduces it digit for digit
        out = tmp_path / "float.json"
        code = main(["solve", "--family", family, "--s", "1", "--t", "1", *extra,
                     "--out", str(out)])
        assert code == 0
        stored = json.loads(out.read_text())
        assert stored["params"]["backend"] == "float"
        code, verification = run_cli(capsys, "verify", "--doc", str(out))
        assert code == 0
        assert verification["matches_document"] is True
        assert verification["residual"] == stored["residual"]
        assert [row[2] for row in stored["grid"]] == \
            [r for _, r in stored["residual"]["points"]]


class TestVerifyNumericMode:
    """eta > 0 documents carry point values and no series: verify re-solves
    at the stored points and compares the values and point residuals."""

    def solve_to_file(self, tmp_path, *backend):
        out = tmp_path / "numeric.json"
        code = main(["solve", "--family", "integration-factor", "--s", "3", "--t", "-2",
                     "--alpha", "-1", "--beta", "x", "--y0", "1", "--eta", "1/10",
                     "--points", "1/2,7/10", "--order", "12", *backend, "--out", str(out)])
        assert code == 0
        return out

    @pytest.mark.parametrize("backend", [[], ["--backend", "float"]])
    def test_round_trip(self, capsys, tmp_path, backend):
        out = self.solve_to_file(tmp_path, *backend)
        stored = json.loads(out.read_text())
        assert "solution" not in stored and len(stored["values"]) == 2
        code, verification = run_cli(capsys, "verify", "--doc", str(out))
        assert code == 0
        assert verification["matches_document"] is True
        assert verification["values"] == stored["values"]
        assert verification["residual"] == stored["residual"]

    @pytest.mark.parametrize("backend", [[], ["--backend", "float"]])
    def test_tampered_value(self, capsys, tmp_path, backend):
        out = self.solve_to_file(tmp_path, *backend)
        stored = json.loads(out.read_text())
        stored["values"][1][1] = "3/2" if not backend else "1.5"
        out.write_text(json.dumps(stored))
        code, verification = run_cli(capsys, "verify", "--doc", str(out))
        assert code == 0
        assert verification["matches_document"] is False

    def test_input_tampered_into_series_mode(self, capsys, tmp_path):
        # with eta = 0 the re-solve has a series and no values: no match
        out = self.solve_to_file(tmp_path)
        stored = json.loads(out.read_text())
        stored["input"]["eta"] = "0"
        out.write_text(json.dumps(stored))
        code, verification = run_cli(capsys, "verify", "--doc", str(out))
        assert code == 0
        assert verification["matches_document"] is False
        assert verification["residual"]["coeff_max"] == "0"

    def test_neither_solution_nor_values(self, capsys, tmp_path):
        out = self.solve_to_file(tmp_path)
        stored = json.loads(out.read_text())
        del stored["values"]
        out.write_text(json.dumps(stored))
        code = main(["verify", "--doc", str(out)])
        assert code == 1
        assert capsys.readouterr().err == ("error: verify expects a solve result document "
                                           "with its input and a series solution\n")


def _write(path, text):
    path.write_text(text)
    return str(path)


def _verify_series_doc(tmp, **blocks):
    """verify argv for a series-mode solve document with ``blocks`` replaced."""
    doc = {"command": "solve", "input": {"family": "series-linear", "s": "3", "t": "-2",
                                         "order": 2},
           "solution": {"coeffs": ["1", "0", "0"]}, "residual": {"points": []}}
    doc.update(blocks)
    return ["verify", "--doc", _write(tmp / "series.json", json.dumps(doc))]


def _complex_pair_solve(*flags):
    """A float solve at (1, -2), where s^2 + 4t = -7 and phi is complex."""
    return lambda tmp: ["solve", "--s=1", "--t=-2", "--backend=float", "--order=6", *flags]


BAD_ARGV = {
    "derive-deep-nesting": lambda tmp: ["derive", "--s", "3", "--t", "-2", "--expr",
                                        "(" * 330 + "x" + ")" * 330],
    "verify-residual-string": lambda tmp: _verify_series_doc(tmp, residual="0"),
    "verify-residual-points-not-rows": lambda tmp: _verify_series_doc(
        tmp, residual={"points": [1, 2]}),
    "verify-coeffs-string": lambda tmp: _verify_series_doc(tmp, solution={"coeffs": "100"}),
    "verify-missing-file": lambda tmp: ["verify", "--doc", str(tmp / "missing.json")],
    "verify-not-json": lambda tmp: ["verify", "--doc", _write(tmp / "bad.json", '{"a":')],
    "verify-without-input": lambda tmp: ["verify", "--doc",
                                         _write(tmp / "noinput.json", '{"command": "solve"}')],
    "eval-u-over-zero": lambda tmp: ["eval", "--s=3", "--t=-2", "--fn=exp", "--u=1/0"],
    "eval-u-over-zero-float": lambda tmp: ["eval", "--s=1", "--t=1", "--fn=pantograph",
                                           "--u=1/0"],
    "numbers-s-nan": lambda tmp: ["numbers", "--s=nan", "--t=1", "--upto=3"],
    "numbers-t-inf": lambda tmp: ["numbers", "--s=1", "--t=inf", "--upto=3"],
    "precision-zero": lambda tmp: ["numbers", "--s=1", "--t=1", "--upto=3", "--precision=0"],
    "precision-negative": lambda tmp: ["numbers", "--s=1", "--t=1", "--upto=3",
                                       "--precision=-5"],
    # the output file cannot be opened, and a document nested past the
    # interpreter's recursion limit cannot be read
    "out-is-a-directory": lambda tmp: ["numbers", "--s=1", "--t=1", "--upto=3",
                                       f"--out={tmp}"],
    "out-in-a-missing-directory": lambda tmp: ["numbers", "--s=1", "--t=1", "--upto=3",
                                               f"--out={tmp / 'missing' / 'out.json'}"],
    "verify-deep-nesting": lambda tmp: ["verify", "--doc", _write(
        tmp / "deep.json", "[" * 100_000 + "]" * 100_000)],
    "upto-negative": lambda tmp: ["numbers", "--s=1", "--t=1", "--upto=-1"],
    # a flag is spelled in full: --a is no abbreviation of --at
    "derive-abbreviated-flag": lambda tmp: ["derive", "--s", "3", "--t", "-2", "--expr", "x^2",
                                            "--a", "1/2"],
    "numbers-abbreviated-flag": lambda tmp: ["numbers", "--s", "1", "--t", "1", "--up", "3"],
    # only integrate takes a tolerance
    "solve-tol": lambda tmp: ["solve", "--family=series-linear", "--s=3", "--t=-2",
                              "--tol=1e-3"],
    "series-linear-alpha-x": lambda tmp: ["solve", "--family", "series-linear", "--s=3",
                                          "--t=-2", "--alpha", "x"],
    "order-negative": lambda tmp: ["solve", "--family=series-linear", "--s=3", "--t=-2",
                                   "--order=-1"],
    # number literals past the interpreter's 4,300-digit integer-string limit
    "derive-long-literal": lambda tmp: ["derive", "--s", "3", "--t", "-2", "--expr", "9" * 5000],
    "derive-long-exponent": lambda tmp: ["derive", "--s", "3", "--t", "-2",
                                         "--expr", "x^" + "9" * 5000],
    "derive-long-denominator": lambda tmp: ["derive", "--s", "3", "--t", "-2",
                                            "--expr", "1/" + "9" * 5000],
    # non-finite literals on the float backend, as for s and t above
    "integrate-from-nan": lambda tmp: ["integrate", "--s=1", "--t=1", "--expr=x",
                                       "--from=nan", "--to=1"],
    "integrate-to-inf": lambda tmp: ["integrate", "--s=1", "--t=1", "--expr=x", "--from=0",
                                     "--to=-inf"],
    "eval-at-nan": lambda tmp: ["eval", "--s=1", "--t=1", "--expr=x", "--at=1/2,nan"],
    "solve-y0-inf": lambda tmp: ["solve", "--family=series-linear", "--s=1", "--t=1",
                                 "--y0=inf", "--order=4"],
    "solve-eta-nan": lambda tmp: ["solve", "--family=integration-factor", "--s=1", "--t=1",
                                  "--eta=nan", "--points=1/2", "--order=4"],
    "solve-spec-inf": lambda tmp: ["solve", "--family=integration-factor", "--s=1", "--t=1",
                                   "--u=inf", "--order=4"],
    "eval-spec-nan": lambda tmp: ["eval", "--s=3", "--t=-2", "--backend=float",
                                  "--fn=pantograph", "--a=nan", "--order=4"],
    # {3}, {4} or {6} is 0 at (1, -1), (2, -2), (3, -3): nothing may divide by it
    "eval-vanishing-3": lambda tmp: ["eval", "--s", "1", "--t", "-1", "--fn", "pantograph",
                                     "--a", "1", "--b", "1/2", "--u", "1/3", "--order", "4"],
    "solve-vanishing-3": lambda tmp: ["solve", "--family=series-linear", "--s=1", "--t=-1",
                                      "--order=8"],
    "eval-vanishing-4": lambda tmp: ["eval", "--s=2", "--t=-2", "--fn=exp", "--u=1/2",
                                     "--order=4"],
    "solve-vanishing-6": lambda tmp: ["solve", "--family=integration-factor", "--s=3",
                                      "--t=-3", "--order=8"],
    # s^2 + 4t < 0 makes phi complex: the float backend refuses it wherever it
    # would enter a series or a point value
    "complex-integration-factor": _complex_pair_solve("--family=integration-factor"),
    "complex-integration-factor-phi-delay": _complex_pair_solve(
        "--family=integration-factor", "--delay-side=phi-delay"),
    "complex-special-rhs": _complex_pair_solve("--family=special-rhs"),
    "complex-bernoulli": _complex_pair_solve("--family=bernoulli"),
    "complex-bernoulli-phi-prime-delay": _complex_pair_solve(
        "--family=bernoulli", "--delay-side=phi-prime-delay"),
    "complex-series-linear-points": _complex_pair_solve("--family=series-linear",
                                                        "--points=1/2"),
}


@pytest.mark.parametrize("case", sorted(BAD_ARGV))
def test_bad_input_is_one_error_line(capsys, tmp_path, case):
    code = main(BAD_ARGV[case](tmp_path))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "vanishes" not in lines[0]


@pytest.mark.parametrize("argv", [
    ["solve", "--family=series-linear"],
    ["solve", "--family=operator"],
    ["eval", "--fn=pantograph", "--a=1", "--b=1/2", "--u=1/3"]])
def test_complex_pair_runs_that_stay_real(capsys, argv):
    # phi is complex at (1, -2), but these series have real coefficients
    code, doc = run_cli(capsys, *argv, "--s=1", "--t=-2", "--backend=float", "--order=6")
    assert code == 0 and len(doc["solution"]["coeffs"]) == 7


@pytest.mark.parametrize("s, t, n", [("1", "-1", 3), ("2", "-2", 4), ("3", "-3", 6)])
def test_vanishing_st_number(capsys, s, t, n):
    # the error names n; numbers and derive, which never divide, still work
    code = main(["eval", f"--s={s}", f"--t={t}", "--fn=exp", "--u=1/2", f"--order={n}"])
    assert code == 1
    assert capsys.readouterr().err == f"error: cannot divide by {{{n}}} = 0 at (s, t) = ({s}, {t})\n"
    code, doc = run_cli(capsys, "numbers", f"--s={s}", f"--t={t}", f"--upto={n}")
    assert code == 0 and doc["values"][n] == "0"
    code, doc = run_cli(capsys, "derive", f"--s={s}", f"--t={t}", f"--expr=x^{n}")
    assert code == 0 and doc["solution"]["coeffs"] == ["0"] * n


@pytest.mark.parametrize("s, t, precision", [("1", "1", 2), ("2", "-1/2", 3), ("1", "3", 1)])
def test_low_precision_numbers(capsys, monkeypatch, s, t, precision):
    # well-conditioned pairs stay usable at a few digits, and the
    # environment does not change the precision written
    monkeypatch.setenv("ST_PANTO_PRECISION", "50")
    code, doc = run_cli(capsys, "numbers", f"--s={s}", f"--t={t}", "--upto=4",
                        f"--precision={precision}")
    assert code == 0 and doc["params"]["precision"] == precision
    assert [F(v) for v in doc["values"][:3]] == [0, 1, F(s)]


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_integrate_beyond_double_range(capsys, backend):
    # the integral of x over [0, b]_q is b^2/3 at (3, -2)
    argv = ["integrate", "--s=3", "--t=-2", "--expr=x", "--from=0", f"--backend={backend}"]
    code = main(argv + ["--to=1e400"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    doc = json.loads(captured.out)
    assert "value_decimal" not in doc
    if backend == "rational":
        assert F(doc["value"]) == F(10 ** 800, 3)
    else:
        assert doc["value"].startswith("3333333333") and len(doc["value"]) >= 800
    code, doc = run_cli(capsys, *argv, "--to=1e100")
    assert code == 0
    assert float(doc["value_decimal"]) == pytest.approx(1e200 / 3, rel=1e-12)


def significant_digits(text):
    mantissa = text.lower().split("e")[0]
    return len(mantissa.lstrip("-").replace(".", "").strip("0"))


@pytest.mark.parametrize("argv, values", [
    (["eval", "--s=1", "--t=1", "--expr=x", "--at=1e50"],
     lambda doc: doc["grid"][0][:2]),
    (["integrate", "--backend=float", "--s=3", "--t=-2", "--expr=x", "--from=0",
      "--to=1e3000"], lambda doc: [doc["value"]]),
])
def test_big_integer_valued_floats_keep_the_declared_precision(capsys, argv, values):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0 and "Traceback" not in captured.err
    doc = json.loads(captured.out)
    for text in values(doc):
        assert 0 < significant_digits(text) <= doc["params"]["precision"]


class TestWorkCounts:
    """Factor builds and residual calls per solve: each residual is computed once."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"builds": 0, "residuals": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(stsolve, "integrating_factor",
                            counting("builds", stsolve.integrating_factor))
        residual = counting("residuals", stsolve.residual)
        monkeypatch.setattr(stsolve, "residual", residual)
        monkeypatch.setattr(cli, "residual", residual)
        return counts

    def test_series_mode_solve_and_verify(self, counts, tmp_path):
        out = tmp_path / "if.json"
        code = main(["solve", "--family=integration-factor", "--s=3", "--t=-2", "--a=0",
                     "--b=1", "--u=2", "--alpha=-1", "--beta=x^2", "--y0=3", "--order=12",
                     "--points=1/5,2/5", f"--out={out}"])
        assert code == 0
        assert counts == {"builds": 1, "residuals": 1}
        counts["builds"] = 0
        assert main(["verify", f"--doc={out}", f"--out={tmp_path / 'v.json'}"]) == 0
        assert counts["builds"] == 1

    def test_numeric_mode_solve(self, counts, capsys):
        code, doc = run_cli(capsys, "solve", "--family=integration-factor", "--s=3",
                            "--t=-2", "--backend=float", "--a=0", "--b=1", "--u=2",
                            "--alpha=-1", "--beta=x^2", "--y0=1", "--eta=0.2",
                            "--order=12", "--points=0.5,0.7")
        assert code == 0 and len(doc["residual"]["points"]) == 2
        assert counts["builds"] == 1

    def test_no_build_outlives_its_call(self, counts, capsys):
        # the factor is kept on the problem, not in a process-wide cache, so
        # the same solve run twice builds it once each time
        argv = ["solve", "--family=integration-factor", "--s=3", "--t=-2", "--u=1/2",
                "--alpha=1 + x", "--beta=x", "--y0=1", "--order=8", "--points=1/3"]
        first = run_cli(capsys, *argv)
        assert counts["builds"] == 1
        second = run_cli(capsys, *argv)
        assert counts["builds"] == 2
        assert first[0] == 0 and first == second

    def test_report_residual_is_computed_when_read(self, counts):
        prob = LinearProblem.series_linear(P32, PantographSpec(0, 1, 1), 1, 0, 1)
        rep = solve_series_linear(prob, 8)
        assert counts["residuals"] == 0
        assert rep.residual_coeff_max == 0
        assert rep.residual_coeff_max == 0
        assert counts["residuals"] == 1


class TestOneProcess:
    """One parser and one context per precision serve every call in a process."""

    FLOAT_SOLVE = ["solve", "--family=integration-factor", "--s=3", "--t=-2",
                   "--backend=float", "--u=2", "--alpha=-1", "--beta=x^2", "--y0=3",
                   "--order=8", "--points=1/5,2/5"]

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_float_solve_is_unmoved_by_a_solve_at_other_precision(self, capsys):
        first = run_cli(capsys, *self.FLOAT_SOLVE)
        other = run_cli(capsys, *self.FLOAT_SOLVE, "--precision=50")
        again = run_cli(capsys, *self.FLOAT_SOLVE)
        assert first[0] == 0 and first == again
        assert other[1]["params"]["precision"] == 50 and other[1] != first[1]
        # and the bytes of a fresh interpreter
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        fresh = subprocess.run([sys.executable, "-m", "stpanto.cli", *self.FLOAT_SOLVE],
                               env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                               text=True, check=True).stdout
        assert json.loads(fresh) == first[1]
        assert main(self.FLOAT_SOLVE) == 0 and capsys.readouterr().out == fresh

    def test_calls_after_an_argparse_error_and_a_verify(self, capsys, tmp_path):
        numbers = ["numbers", "--s=1", "--t=1", "--upto=6"]
        before = run_cli(capsys, *numbers)
        assert main(["numbers", "--s=1", "--t=1", "--upto=x"]) == 1
        assert main(["solve", "--family=nope", "--s=1", "--t=1"]) == 1
        assert main(["numbers", "--s=1"]) == 1
        capsys.readouterr()
        assert run_cli(capsys, *numbers) == before
        doc = tmp_path / "solution.json"
        solved = run_cli(capsys, *self.FLOAT_SOLVE, f"--out={doc}")
        code, verified = run_cli(capsys, "verify", f"--doc={doc}")
        assert solved[0] == code == 0 and verified["matches_document"] is True
        assert run_cli(capsys, *numbers) == before
        assert main(self.FLOAT_SOLVE) == 0
        assert json.loads(capsys.readouterr().out) == json.loads(doc.read_text())


# Each flag takes mostly well-formed values, and now and then a bad one.
_NUMBER = (["0", "1", "-1", "1/2", "-1/3", "2", "3/2", "0.25"],
           ["1e400", "nan", "inf", "1/0", "", "x"])
_EXPR = (["0", "1", "x", "1 + x", "2x - 3/4*x^2", "x^3", "-1"], ["1/0", "(", "nan", "y", ""])
_POINTS = (["1/2", "1/3,1/5", "-1/2", "2/5,7/10"], ["0", "nan", "", "x", "1/0"])
_VALUES = {
    "--backend": (["rational", "float"], ["complex"]),
    "--precision": (["1", "2", "5", "30", "50"], ["0", "x"]),
    "--format": (["json", "csv"], ["xml"]),
    "--fn": (["polynomial", "exp", "pantograph", "theta"], ["zeta"]),
    "--family": (["series-linear", "integration-factor", "special-rhs", "operator",
                  "bernoulli"], ["nope"]),
    "--delay-side": (["phi-prime-delay", "phi-delay"], ["none"]),
    "--n": (["0", "1", "2", "3"], ["-1", "x"]),
    "--upto": (["0", "3", "8"], ["-1", "x"]),
    "--expr": _EXPR, "--alpha": _EXPR, "--beta": _EXPR, "--at": _POINTS, "--points": _POINTS,
    "--doc": (["missing.json"], [""]),
}
_COMMON = ["--backend", "--precision", "--format"]
_COMMANDS = {
    "numbers": (["--upto"], _COMMON),
    "eval": ([], _COMMON + ["--fn", "--expr", "--a", "--b", "--u", "--y", "--at"]),
    "derive": (["--expr"], _COMMON + ["--at"]),
    "integrate": (["--expr", "--from", "--to"], _COMMON),
    "solve": (["--family"], _COMMON + [
        "--a", "--b", "--u", "--alpha", "--beta", "--y0", "--eta", "--delay-side", "--points",
        "--beta-amplitude", "--alpha-coef", "--beta-coef", "--gamma", "--delta", "--c", "--n"]),
}
_PAIRS = ([("3", "-2"), ("1", "1"), ("2", "3"), ("4", "-3"), ("1", "3"), ("3/2", "-1/2")],
          [("0", "1"), ("nan", "1"), ("1", "-1/4"), ("2", "-1"), ("1", "inf")])


@st.composite
def _argvs(draw):
    def value(good_bad):
        return draw(st.sampled_from(good_bad[draw(st.integers(0, 11)) == 0]))

    command = draw(st.sampled_from([*_COMMANDS, "verify", "bogus"]))
    if command not in _COMMANDS:
        return [command, f"--doc={value(_VALUES['--doc'])}"]
    required, optional = _COMMANDS[command]
    flags = [f for f in required if draw(st.integers(0, 19))]  # now and then one is missing
    flags += draw(st.lists(st.sampled_from(optional), max_size=6, unique=True))
    s, t = value(_PAIRS)
    argv = [command, f"--s={s}", f"--t={t}", f"--order={draw(st.integers(0, 6))}"]
    argv += [f"{f}={value(_VALUES.get(f, _NUMBER))}" for f in flags]
    return argv if draw(st.integers(0, 19)) else [*argv, "--unknown=1"]


@settings(max_examples=150, deadline=None)
@given(_argvs())
def test_argv_fuzz_ends_in_an_exit_code(argv):
    # many calls in one process share the parser and the mpmath contexts
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().startswith("error: ") and out.getvalue() == ""


def test_import_leaves_cli_unloaded():
    # the library does not import its command line (nor argparse with it)
    src = os.path.dirname(os.path.dirname(os.path.abspath(__import__("stpanto").__file__)))
    probe = "import sys, stpanto; print('stpanto.cli' in sys.modules, 'argparse' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["False", "False"]


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_solve_residual_reads_back_only_inexact_strings(monkeypatch, capsys, backend):
    # a rational coefficient's string reads back to itself, so solve checks
    # the report's own series, with the bits of the parsed strings; a float
    # solve checks the strings it wrote, as verify does
    seen, check = [], cli._check_blocks

    def spy(rep, points, coeffs):
        seen.append(coeffs)
        blocks = check(rep, points, coeffs)
        written = [rep.problem.params.to_str(c) for c in rep.solution.coeffs]
        assert check(rep, points, written) == blocks
        return blocks

    monkeypatch.setattr(cli, "_check_blocks", spy)
    code, doc = run_cli(capsys, "solve", "--family=integration-factor", "--s=3", "--t=-2",
                        "--u=2", "--alpha=-1", "--beta=x^2", "--y0=3", "--order=16",
                        "--points=1/5,2/5", f"--backend={backend}")
    assert code == 0
    assert seen == [None if backend == "rational" else doc["solution"]["coeffs"]]

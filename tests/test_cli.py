import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpanto.cli import format_series, main, parse_expression
from stpanto.errors import DegreeOverflow, ExpressionSyntaxError
from stpanto.stnum import golden_pair
from stpanto.stseries import Series

P32 = golden_pair(3, -2)


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


def _write(path, text):
    path.write_text(text)
    return str(path)


BAD_ARGV = {
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
    "upto-negative": lambda tmp: ["numbers", "--s=1", "--t=1", "--upto=-1"],
    "order-negative": lambda tmp: ["solve", "--family=series-linear", "--s=3", "--t=-2",
                                   "--order=-1"],
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


def test_import_leaves_cli_unloaded():
    # the library does not import its command line (nor argparse with it)
    src = os.path.dirname(os.path.dirname(os.path.abspath(__import__("stpanto").__file__)))
    probe = "import sys, stpanto; print('stpanto.cli' in sys.modules, 'argparse' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["False", "False"]

"""The polynomial-expression language of the command line:
``parse_expression`` reads '1 + 2x - 3/4*x^2' into a Series and
``format_series`` prints a Series back in the same language."""

from __future__ import annotations

from fractions import Fraction

from .errors import DegreeOverflow, ExpressionSyntaxError
from .stnum import Params
from .stseries import DEFAULT_ORDER, Series

_DIGITS = set("0123456789")


def _tokenize(text: str):
    """Yield (kind, value, 1-based offset) tokens."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        start = i
        if ch in _DIGITS or (ch == "." and i + 1 < n and text[i + 1] in _DIGITS):
            j = i
            seen_dot = False
            while j < n and (text[j] in _DIGITS or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            tokens.append(("number", text[i:j], start + 1))
            i = j
        elif ch in "xX":
            tokens.append(("x", ch, start + 1))
            i += 1
        elif ch in "+-*/^()":
            kinds = {"+": "plus", "-": "minus", "*": "star", "/": "slash",
                     "^": "caret", "(": "lparen", ")": "rparen"}
            tokens.append((kinds[ch], ch, start + 1))
            i += 1
        else:
            raise ExpressionSyntaxError(f"unexpected character {ch!r}", start + 1)
    tokens.append(("end", "", n + 1))
    return tokens


class _Parser:
    """Recursive descent over: expr := [sign] term ((+|-) term)*;
    term := factor ('*'? factor)*; factor := number ['/' number]
    | 'x' ['^' nat] | '(' expr ')'.  Values are {degree: Fraction} maps."""

    def __init__(self, text: str, max_degree: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.max_degree = max_degree

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ExpressionSyntaxError(f"expected {kind}, found {tok[1] or 'end'!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self) -> dict[int, Fraction]:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExpressionSyntaxError(f"unexpected {tok[1]!r}", tok[2])
        return value

    def expr(self):
        sign = 1
        if self.peek()[0] in ("plus", "minus"):
            sign = -1 if self.take()[0] == "minus" else 1
        acc = _poly_scale(self.term(), sign)
        while self.peek()[0] in ("plus", "minus"):
            op = self.take()[0]
            rhs = self.term()
            acc = _poly_add(acc, _poly_scale(rhs, -1 if op == "minus" else 1))
        return acc

    def term(self):
        acc = self.factor()
        while True:
            kind = self.peek()[0]
            if kind == "star":
                self.take()
            elif kind not in ("number", "x", "lparen"):
                return acc
            acc = self._mul(acc, self.factor())

    def _mul(self, a, b):
        out = {}
        for i, ca in a.items():
            for j, cb in b.items():
                d = i + j
                if d > self.max_degree:
                    if ca * cb != 0:
                        raise DegreeOverflow(
                            f"degree {d} exceeds the configured order {self.max_degree}")
                    continue
                out[d] = out.get(d, Fraction(0)) + ca * cb
        return out

    def factor(self):
        tok = self.peek()
        if tok[0] == "number":
            self.take()
            value = Fraction(tok[1])
            if self.peek()[0] == "slash":
                self.take()
                den_tok = self.take("number")
                den = Fraction(den_tok[1])
                if den == 0:
                    raise ExpressionSyntaxError("division by zero", den_tok[2])
                value /= den
            return {0: value}
        if tok[0] == "x":
            self.take()
            degree = 1
            if self.peek()[0] == "caret":
                self.take()
                exp_tok = self.peek()
                if exp_tok[0] != "number" or "." in exp_tok[1]:
                    raise ExpressionSyntaxError(
                        "expected a nonnegative integer exponent", exp_tok[2])
                self.take()
                degree = int(exp_tok[1])
            if degree > self.max_degree:
                raise DegreeOverflow(
                    f"degree {degree} exceeds the configured order {self.max_degree}")
            return {degree: Fraction(1)}
        if tok[0] == "lparen":
            self.take()
            inner = self.expr()
            self.take("rparen")
            return inner
        raise ExpressionSyntaxError(f"expected a term, found {tok[1] or 'end'!r}", tok[2])


def _poly_add(a, b):
    out = dict(a)
    for d, c in b.items():
        out[d] = out.get(d, Fraction(0)) + c
    return out


def _poly_scale(a, s):
    return {d: c * s for d, c in a.items()}


def parse_expression(text: str, params: Params, max_degree: int = DEFAULT_ORDER) -> Series:
    """Parse a polynomial expression ('1 + 2x - 3/4*x^2') into a Series."""
    poly = _Parser(text, max_degree).parse()
    top = max(poly) if poly else 0
    coeffs = [poly.get(d, Fraction(0)) for d in range(top + 1)]
    return Series(params, coeffs)


def format_series(series: Series) -> str:
    """Canonical printable form; parse_expression round-trips it exactly
    in the rational backend."""
    parts = []
    for d, c in enumerate(series.coeffs):
        if c == 0:
            continue
        mag = series.params.to_str(abs(c))
        if d == 0:
            body = mag
        else:
            xpow = "x" if d == 1 else f"x^{d}"
            body = xpow if abs(c) == 1 else f"{mag}*{xpow}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out

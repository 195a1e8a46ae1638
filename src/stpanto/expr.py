"""The polynomial-expression language of the command line:
``parse_expression`` reads '1 + 2x - 3/4*x^2' into a Series and
``format_series`` prints a Series back in the same language."""

from __future__ import annotations

import re
from fractions import Fraction

from ._rings import _convolution
from .errors import BackendMismatch, DegreeOverflow, ExpressionSyntaxError
from .stnum import Params, _as_fraction
from .stseries import DEFAULT_ORDER, Series

# Parentheses nest at most this deep, so that the recursive descent below
# stays far inside the interpreter's recursion limit.
MAX_NESTING = 100

_TOKEN = re.compile(r"""(?P<number>[0-9]+\.?[0-9]*|\.[0-9]+) | (?P<x>[xX])
    | (?P<plus>\+) | (?P<minus>-) | (?P<star>\*) | (?P<slash>/) | (?P<caret>\^)
    | (?P<lparen>\() | (?P<rparen>\)) | (?P<space>\s+) | (?P<bad>.)""", re.S | re.X)
_ZERO, _ONE = Fraction(0), Fraction(1)


def _tokenize(text: str):
    """(kind, value, 1-based offset) tokens, closed by an ``end`` token."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ExpressionSyntaxError(f"unexpected character {m.group()!r}", m.start() + 1)
        if kind != "space":
            tokens.append((kind, m.group(), m.start() + 1))
    tokens.append(("end", "", len(text) + 1))
    return tokens


def _degree(coeffs) -> int:
    """The degree of the highest nonzero coefficient; -1 for zero."""
    return next((d for d in range(len(coeffs) - 1, -1, -1) if coeffs[d]), -1)


class _Parser:
    """Recursive descent over: expr := [sign] term ((+|-) term)*;
    term := factor ('*'? factor)*; factor := number ['/' number]
    | 'x' ['^' nat] | '(' expr ')', parentheses at most MAX_NESTING deep.
    Values are dense lists of Fractions (and the int zeros a product leaves),
    index d holding the coefficient of x^d; their length is the written
    degree plus one, capped at max_degree + 1."""

    def __init__(self, text: str, max_degree: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.max_degree = max_degree

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ExpressionSyntaxError(f"expected {kind}, found {tok[1] or 'end'!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self) -> list[Fraction]:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExpressionSyntaxError(f"unexpected {tok[1]!r}", tok[2])
        return value

    def expr(self):
        sign = self.take()[0] if self.peek()[0] in ("plus", "minus") else "plus"
        acc = self.term()
        if sign == "minus":
            acc = [-c for c in acc]
        while self.peek()[0] in ("plus", "minus"):
            sign = self.take()[0]
            rhs = self.term()
            acc.extend([_ZERO] * (len(rhs) - len(acc)))
            for d, c in enumerate(rhs):
                if c:
                    acc[d] = acc[d] + c if sign == "plus" else acc[d] - c
        return acc

    def term(self):
        acc = self.factor()
        while self.peek()[0] in ("star", "number", "x", "lparen"):
            if self.peek()[0] == "star":
                self.take()
            rhs = self.factor()
            top = len(acc) + len(rhs) - 2
            if top > self.max_degree:
                # Two nonzero leading coefficients have a nonzero product,
                # so the product's degree is the sum of the operands' degrees.
                self._check_degree(_degree(acc) + _degree(rhs))
                top = self.max_degree
            acc = _convolution(acc, rhs, top + 1)
        return acc

    def _check_degree(self, degree: int):
        if degree > self.max_degree:
            raise DegreeOverflow(f"degree {degree} exceeds the configured order {self.max_degree}")

    @staticmethod
    def _number(text: str, at: int) -> Fraction:
        try:
            return _as_fraction(text)
        except BackendMismatch:  # past the interpreter's integer-string limit
            raise ExpressionSyntaxError(f"number of {len(text)} characters is too long",
                                        at) from None

    def factor(self):
        kind, text, at = self.take()
        if kind == "number":
            value = self._number(text, at)
            if self.peek()[0] == "slash":
                self.take()
                _, den_text, den_at = self.take("number")
                den = self._number(den_text, den_at)
                if den == 0:
                    raise ExpressionSyntaxError("division by zero", den_at)
                value /= den
            return [value]
        if kind == "x":
            degree = 1
            if self.peek()[0] == "caret":
                self.take()
                exp_kind, exp, exp_at = self.take()
                if exp_kind != "number" or "." in exp:
                    raise ExpressionSyntaxError("expected a nonnegative integer exponent", exp_at)
                degree = int(self._number(exp, exp_at))
            self._check_degree(degree)
            return [_ZERO] * degree + [_ONE]
        if kind == "lparen":
            if self.depth == MAX_NESTING:
                raise ExpressionSyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING}", at)
            self.depth += 1
            inner = self.expr()
            self.take("rparen")
            self.depth -= 1
            return inner
        raise ExpressionSyntaxError(f"expected a term, found {text or 'end'!r}", at)


def parse_expression(text: str, params: Params, max_degree: int = DEFAULT_ORDER) -> Series:
    """Parse a polynomial expression ('1 + 2x - 3/4*x^2') into a Series."""
    return Series(params, _Parser(text, max_degree).parse())


def format_series(series: Series, texts=None) -> str:
    """Canonical printable form; parse_expression round-trips it exactly
    in the rational backend.  ``texts`` are the coefficients as ``to_str``
    prints them, when the caller has them: a negative one prints as "-"
    and its magnitude, so each term's magnitude is read off its text."""
    coeffs, terms = series.coeffs, []
    for d, (c, text) in enumerate(zip(coeffs, texts or map(series.params.to_str, coeffs))):
        if c != 0:
            sign, mag = ("-", text[1:]) if c < 0 else ("+", text)
            xpow = "x" if d == 1 else f"x^{d}"
            body = mag if d == 0 else xpow if mag == "1" else f"{mag}*{xpow}"
            terms.append(f"{sign} {body}")
    out = " ".join(terms)
    return ("-" if out[:1] == "-" else "") + out[2:] or "0"

"""Element expression grammar: tokenizer, parser, canonical formatter.

Atoms are x_i, D_i, E_i (integer powers), exp(alpha*x_i) with alpha a
coordinate tuple, a g_j combination, or an integer, x_i^(alpha), rational
literals like 3/4, symbolic generators g_j, and hbar.  Operators are
+ - * ^ with parentheses; whitespace is insignificant.  The formatter
emits one fixed rendering per element, ordered by the graded-lex monomial
key, and parse(format(P)) returns P.  There is no division operator, so
scalars with symbolic denominators are not printable.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .algebra import Element, WeylAlgebra
from .errors import (
    IntegerTooLong,
    ParseError,
    SignatureMismatch,
    UnknownSymbol,
    UnsupportedElement,
)
from .scalars import Scalar

__all__ = [
    "parse",
    "format_element",
    "format_gr_element",
    "format_scalar",
    "element_to_records",
]


# -- tokenizer ----------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[+\-*^(),]))"
)
_INDEXED = re.compile(r"^([xDEg])_(\d+)$")
_DIGITS = re.compile(r"\d+")


def _digit_limit() -> int:
    """The interpreter's bound on digits in int/str conversion; 0 if none.

    The bound guards against quadratic-time conversion of outside input, so
    it is respected, never lifted."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _tokenize(src: str):
    limit = _digit_limit()
    tokens = []
    pos = 0
    n = len(src)
    while pos < n:
        m = _TOKEN.match(src, pos)
        if m is None:
            stripped = src[pos:].lstrip()
            at = n - len(stripped)
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", position=at)
        kind = m.lastgroup
        text, start = m.group(kind), m.start(kind)
        # int() would refuse such a digit run later with a ValueError
        if limit and len(text) > limit and any(len(d) > limit for d in _DIGITS.findall(text)):
            raise ParseError(f"integer literal longer than {limit} digits", position=start)
        tokens.append((kind, text, start))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


# -- parser -------------------------------------------------------------------

# Deepest parenthesis nesting parse accepts.  Each level costs the recursive
# descent several stack frames, so much deeper input would hit Python's
# recursion limit instead of a ParseError.
MAX_NESTING = 100


class _Parser:
    def __init__(self, src: str, algebra: WeylAlgebra):
        self.src = src
        self.algebra = algebra
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def at_op(self, *ops) -> bool:
        kind, val, _ = self.peek()
        return kind == "op" and val in ops

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", position=pos)
        return self.advance()

    def fail(self, message: str):
        _, _, pos = self.peek()
        raise ParseError(message, position=pos)

    def signs(self) -> int:
        """Read a run of unary '+' and '-'; the product of their signs."""
        sign = 1
        while self.at_op("+", "-"):
            if self.advance()[1] == "-":
                sign = -sign
        return sign

    # expr := ['+'|'-'] term (('+'|'-') term)*
    def parse_expr(self) -> Element:
        acc = self.parse_term()
        while self.at_op("+", "-"):
            _, op, _ = self.advance()
            t = self.parse_term()
            acc = acc + t if op == "+" else acc - t
        return acc

    # term := factor ('*' factor)*
    def parse_term(self) -> Element:
        acc = self.parse_factor()
        while self.at_op("*"):
            self.advance()
            acc = self.algebra.mul(acc, self.parse_factor())
        return acc

    # factor := ('-'|'+')* power
    def parse_factor(self) -> Element:
        sign = self.signs()
        p = self.parse_power()
        return p if sign == 1 else -p

    # power := atom ['^' exponent]
    def parse_power(self) -> Element:
        tag = self.parse_atom()
        if not self.at_op("^"):
            return self.build(tag, None)
        self.advance()
        expo = self.parse_exponent(allow_lattice=(tag[0] == "x"))
        return self.build(tag, expo)

    def build(self, tag, expo) -> Element:
        kind = tag[0]
        if kind == "x":
            return self.algebra.x(tag[1], 1 if expo is None else expo[1])
        if kind == "D":
            if expo is not None and expo[0] != "int":
                self.fail("derivative powers must be integers")
            return self.algebra.D(tag[1], 1 if expo is None else expo[1])
        if kind == "E":
            if expo is not None and expo[0] != "int":
                self.fail("tower powers must be integers")
            return self.algebra.E(tag[1], 1 if expo is None else expo[1])
        P = tag[1]
        if expo is None:
            return P
        if expo[0] != "int":
            self.fail("lattice exponents apply to x_i only")
        return P ** expo[1]

    # exponent := ['-'] integer | '(' signed integer | lattice ')'
    def parse_exponent(self, allow_lattice: bool):
        if self.at_op("("):
            self.advance()
            coords = self.parse_group_body()
            self.expect_op(")")
            # multiples of g_1 are plain integer powers
            if not any(coords[1:]):
                return ("int", coords[0])
            if not allow_lattice:
                self.fail("lattice exponents apply to x_i only")
            return ("lattice", coords)
        return ("int", self.parse_signed_int("expected an integer exponent"))

    # atom := number | hbar | g_j | x_i | D_i | E_i | exp(...) | '(' expr ')'
    def parse_atom(self):
        kind, val, pos = self.peek()
        if kind == "op" and val == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", position=pos)
            self.depth += 1
            self.advance()
            P = self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
            return ("elt", P)
        if kind == "number":
            self.advance()
            return ("elt", self.algebra.scalar_element(self.rational(val, pos)))
        if kind != "name":
            raise ParseError("expected an atom", position=pos)
        self.advance()
        if val == "hbar":
            if self.algebra.field.hbar_order is None:
                raise SignatureMismatch("hbar needs an hbar-truncated field")
            return ("elt", self.algebra.scalar_element(self.algebra.field.hbar))
        if val == "exp":
            return ("elt", self.parse_exp_atom())
        m = _INDEXED.match(val)
        if m is None:
            raise UnknownSymbol(f"unknown symbol {val!r}", position=pos)
        letter, idx = m.group(1), int(m.group(2))
        if letter == "g":
            return ("elt", self.algebra.scalar_element(self.algebra.field.generator(idx)))
        return (letter, idx)

    def rational(self, text: str, pos: int) -> Scalar:
        if "/" in text:
            num, den = text.split("/")
            if int(den) == 0:
                raise ParseError("zero denominator", position=pos)
            return self.algebra.field.from_rational(Fraction(int(num), int(den)))
        return self.algebra.field.from_rational(int(text))

    # exp '(' alpha '*' x_i ')'
    def parse_exp_atom(self) -> Element:
        self.expect_op("(")
        alpha = self.parse_group_item()
        self.expect_op("*")
        kind, val, pos = self.peek()
        m = _INDEXED.match(val) if kind == "name" else None
        if m is None or m.group(1) != "x":
            raise ParseError("exp needs the form exp(alpha*x_i)", position=pos)
        self.advance()
        self.expect_op(")")
        return self.algebra.exp_sym(int(m.group(2)), alpha)

    # lattice element, returned as its int tuple: coordinate tuple, g_j
    # combination, or integer
    def parse_group_item(self) -> tuple[int, ...]:
        if self.at_op("("):
            self.advance()
            coords = self.parse_group_body()
            self.expect_op(")")
            return coords
        return self.parse_group_sum()

    def parse_group_body(self) -> tuple[int, ...]:
        # a parenthesized group: either a comma tuple of integers or a sum
        save = self.i
        sign = self.signs()
        kind, val, _ = self.peek()
        if kind == "number" and "/" not in val:
            self.advance()
            if self.at_op(","):
                coords = [sign * int(val)]
                while self.at_op(","):
                    self.advance()
                    coords.append(self.parse_signed_int())
                rank = self.algebra.signature.rank
                if len(coords) != rank:
                    raise SignatureMismatch(f"coordinate tuple needs rank {rank}")
                return tuple(coords)
        self.i = save
        return self.parse_group_sum()

    def parse_signed_int(self, message: str = "expected an integer") -> int:
        sign = self.signs()
        kind, val, pos = self.peek()
        if kind != "number" or "/" in val:
            raise ParseError(message, position=pos)
        self.advance()
        return sign * int(val)

    # sum of [int '*'] g_j | g_j | int
    def parse_group_sum(self) -> tuple[int, ...]:
        rank = self.algebra.signature.rank
        coords = [0] * rank
        first = True
        while first or self.at_op("+", "-"):
            first = False
            sign = self.signs()
            kind, val, pos = self.peek()
            if kind == "number" and "/" not in val:
                self.advance()
                k = sign * int(val)
                if self.at_op("*") and self.generator_follows():
                    self.advance()
                    j = self.expect_generator()
                    coords[j - 1] += k
                else:
                    coords[0] += k
            elif kind == "name":
                j = self.expect_generator()
                coords[j - 1] += sign
            else:
                raise ParseError("expected a lattice term", position=pos)
        return tuple(coords)

    def generator_follows(self) -> bool:
        kind, val, _ = self.tokens[self.i + 1]
        if kind != "name":
            return False
        m = _INDEXED.match(val)
        return m is not None and m.group(1) == "g"

    def expect_generator(self) -> int:
        kind, val, pos = self.peek()
        m = _INDEXED.match(val) if kind == "name" else None
        if m is None or m.group(1) != "g":
            raise ParseError("expected a lattice generator g_j", position=pos)
        self.advance()
        j = int(m.group(2))
        rank = self.algebra.signature.rank
        if not 1 <= j <= rank:
            raise SignatureMismatch(f"generator index {j} out of range 1..{rank}")
        return j


def parse(src: str, algebra: WeylAlgebra) -> Element:
    """Parse an element expression over the given algebra."""
    p = _Parser(src, algebra)
    kind, _, pos = p.peek()
    if kind == "end":
        raise ParseError("empty expression", position=pos)
    result = p.parse_expr()
    kind, val, pos = p.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {val!r}", position=pos)
    return result


# -- formatter ----------------------------------------------------------------


def _too_long() -> IntegerTooLong:
    """The refusal of an integer of the result past the digit limit."""
    return IntegerTooLong(f"an integer in the result has more than {_digit_limit()} digits")


def _int_text(k: int) -> str:
    """Decimal text of a coefficient or exponent of the result."""
    try:
        return str(k)
    except ValueError:
        raise _too_long() from None


def _group_text(coords: tuple[int, ...]) -> str:
    if len(coords) == 1:
        return _int_text(coords[0])
    return "(" + ",".join(map(_int_text, coords)) + ")"


def _power_suffix(k: int) -> str:
    return "" if k == 1 else f"^{_int_text(k)}"


def _monomial_factors(a, beta, gamma, d, dname: str):
    factors = []
    for i in range(len(a)):
        v = i + 1
        if a[i]:
            factors.append(f"E_{v}{_power_suffix(a[i])}")
        if any(beta[i]):
            factors.append(f"exp({_group_text(beta[i])}*x_{v})")
        row = gamma[i]
        if any(row):
            if any(row[1:]):
                factors.append(f"x_{v}^({','.join(map(_int_text, row))})")
            else:
                factors.append(f"x_{v}{_power_suffix(row[0])}")
        if d[i]:
            factors.append(f"{dname}_{v}{_power_suffix(d[i])}")
    return factors


def _scalar_addends(s: Scalar):
    """Flatten a scalar into (coefficient, g-exponents, hbar power) addends.

    Raises UnsupportedElement when a payload carries a symbolic denominator,
    since the grammar has no division to express it.
    """
    addends = []
    for k in range(s.field.slots):
        data = s.payload_data(k)
        if data[0] == "rat":
            q = data[1]
            if q:
                addends.append((q, (), k))
            continue
        _, num_terms, den_terms = data
        if len(den_terms) != 1 or any(den_terms[0][0]):
            raise UnsupportedElement("scalar has a symbolic denominator")
        den = den_terms[0][1]
        for exps, q in num_terms:
            addends.append((q / den, tuple(exps), k))
    return addends


def _addend_text(q: Fraction, exps: tuple[int, ...], k: int) -> str:
    parts = []
    if abs(q) != 1 or (not any(exps) and k == 0):
        text = _int_text(abs(q.numerator))
        parts.append(text if q.denominator == 1 else f"{text}/{_int_text(q.denominator)}")
    for j, e in enumerate(exps):
        if e:
            parts.append(f"g_{j + 2}{_power_suffix(e)}")
    if k:
        parts.append(f"hbar{_power_suffix(k)}")
    return "*".join(parts)


def format_scalar(s: Scalar) -> str:
    """Grammar-compatible rendering of a scalar."""
    addends = _scalar_addends(s)
    if not addends:
        return "0"
    out = []
    for idx, (q, exps, k) in enumerate(addends):
        text = _addend_text(q, exps, k)
        if idx == 0:
            out.append(f"-{text}" if q < 0 else text)
        else:
            out.append(f" - {text}" if q < 0 else f" + {text}")
    return "".join(out)


def _term_pieces(c: Scalar, mono: str | None):
    """Signed text of one term: (is_negative, unsigned text)."""
    addends = _scalar_addends(c)
    if len(addends) > 1:
        body = format_scalar(c)
        return False, f"({body})*{mono}" if mono else f"({body})"
    q, exps, k = addends[0]
    ctext = _addend_text(q, exps, k)
    if mono is None:
        return q < 0, ctext
    if ctext == "1":
        return q < 0, mono
    return q < 0, f"{ctext}*{mono}"


def _format_terms(sorted_terms, dname: str) -> str:
    if not sorted_terms:
        return "0"
    out = []
    for m, c in sorted_terms:
        factors = _monomial_factors(m.a, m.beta, m.gamma, m.d, dname)
        mono = "*".join(factors) if factors else None
        neg, text = _term_pieces(c, mono)
        if not out:
            out.append(f"-{text}" if neg else text)
        else:
            out.append(f" - {text}" if neg else f" + {text}")
    return "".join(out)


def format_element(P: Element) -> str:
    """Canonical rendering; the round trip parse(format(P)) returns P."""
    return _format_terms(P.sorted_terms(), "D")


def format_gr_element(u) -> str:
    """Canonical rendering of a graded symbol (the d part prints as y_i)."""
    return _format_terms(u.sorted_terms(), "y")


# -- record serialization -----------------------------------------------------


def element_to_records(P: Element) -> list[dict]:
    """JSON-ready term records in the canonical order."""
    out = []
    for m, c in P.sorted_terms():
        out.append(
            {
                "coeff": format_scalar(c),
                "a": list(m.a),
                "beta": [list(r) for r in m.beta],
                "gamma": [list(r) for r in m.gamma],
                "d": list(m.d),
            }
        )
    return out

"""Expression grammar: parsing, canonical formatting, round trips, records."""

import random
from fractions import Fraction

import pytest

from expweyl.algebra import WeylAlgebra
from expweyl.errors import (
    NegativePower,
    ParseError,
    SignatureMismatch,
    UnknownSymbol,
    UnsupportedElement,
)
from expweyl.expr import (
    element_to_records,
    format_element,
    format_gr_element,
    format_scalar,
    parse,
)
from expweyl.grading import full_symbol
from expweyl.sampling import random_element


def make_algebra(**kw):
    kw.setdefault("n", 1)
    kw.setdefault("rank", 1)
    kw.setdefault("p", (2,) * kw["n"])
    kw.setdefault("t", ((1,) + (0,) * (kw["rank"] - 1),) * kw["n"])
    return WeylAlgebra(**kw)


def test_atoms_parse_to_generators():
    A = make_algebra(rank=2, t=((0, 0),))
    assert parse("x_1", A) == A.x(1)
    assert parse("D_1", A) == A.D(1)
    assert parse("E_1", A) == A.E(1)
    assert parse("E_1^-1", A) == A.E(1, -1)
    assert parse("x_1^(0,1)", A) == A.x(1, (0, 1))
    assert parse("exp((0,1)*x_1) * D_1^2", A) == A.mul(A.exp_sym(1, (0, 1)), A.D(1, 2))
    assert parse("exp(g_2*x_1)", A) == A.exp_sym(1, (0, 1))
    assert parse("exp(2*x_1)", A) == A.exp_sym(1, (2, 0))
    assert parse("exp((g_1+2*g_2)*x_1)", A) == A.exp_sym(1, (1, 2))
    assert parse("3/4", A) == A.scalar_element(A.field.from_rational(Fraction(3, 4)))
    assert parse("g_2", A) == A.scalar_element(A.field.generator(2))
    assert parse("g_1", A) == A.one


def test_normal_ordering_through_parse():
    A = make_algebra()
    assert format_element(parse("D_1*x_1", A)) == "x_1*D_1 + 1"
    assert format_element(A.zero) == "0"
    assert format_element(A.one) == "1"


def test_operators_and_precedence():
    A = make_algebra()
    assert parse("2*x_1^3", A) == 2 * A.x(1, 3)
    assert parse("-x_1 - 2", A) == -A.x(1) - 2 * A.one
    assert parse("(x_1 + D_1)^2", A) == (A.x(1) + A.D(1)) ** 2
    assert parse("2^3", A) == 8 * A.one
    assert parse("x_1^-2", A) == A.x(1, -2)


def test_whitespace_insignificant():
    A = make_algebra()
    assert parse("x_1*D_1+1", A) == parse(" x_1 * D_1 + 1 ", A)


def test_hbar_atom():
    A = make_algebra()
    H = A.with_hbar(2)
    P = parse("hbar*D_1 + hbar^2", H)
    assert P == A.with_hbar(2).scalar_element(H.field.hbar) * H.D(1) + H.scalar_element(
        H.field.hbar ** 2
    )
    with pytest.raises(SignatureMismatch):
        parse("hbar", A)


def test_parse_errors_carry_positions():
    A = make_algebra()
    with pytest.raises(ParseError) as e:
        parse("x_1 + ", A)
    assert e.value.position == 6
    assert e.value.code == "SyntaxError"
    with pytest.raises(ParseError):
        parse("", A)
    with pytest.raises(ParseError):
        parse("x_1 x_1", A)
    with pytest.raises(ParseError):
        parse("(x_1", A)
    with pytest.raises(UnknownSymbol) as u:
        parse("foo", A)
    assert u.value.code == "UnknownSymbol"
    with pytest.raises(SignatureMismatch):
        parse("x_3", A)
    with pytest.raises(SignatureMismatch):
        parse("g_5", make_algebra(rank=2, t=((0, 0),)))
    with pytest.raises(NegativePower):
        parse("D_1^-1", A)


def test_format_is_canonical_and_deterministic():
    A = make_algebra(rank=2, t=((0, 0),))
    P = parse("3/4*x_1 + g_2*D_1", A)
    assert format_element(P) == "g_2*D_1 + 3/4*x_1"
    assert format_element(parse(format_element(P), A)) == format_element(P)
    Q = parse("(g_2 + 1)*x_1", A)
    assert format_element(Q) == "(g_2 + 1)*x_1"


def test_format_round_trip_random():
    rng = random.Random(31)
    for kw in ({"rank": 1}, {"rank": 2, "t": ((0, 0),)}, {"n": 2, "rank": 2, "t": ((0, 0), (0, 0))}):
        A = make_algebra(**kw)
        for _ in range(40):
            P = random_element(A, rng, max_terms=3, bound=2)
            assert parse(format_element(P), A) == P


def test_format_gr_element_uses_y():
    A = make_algebra(rank=2, t=((0, 0),))
    u = full_symbol(parse("x_1^2*D_1^3 + E_1*exp(g_2*x_1)", A))
    assert format_gr_element(u) == "x_1^2*y_1^3 + E_1*exp((0,1)*x_1)"


def test_format_scalar_forms():
    A = make_algebra(rank=2, t=((0, 0),))
    F = A.field
    assert format_scalar(F.zero) == "0"
    assert format_scalar(F.from_rational(Fraction(-3, 4))) == "-3/4"
    assert format_scalar(F.generator(2) * F.generator(2)) == "g_2^2"
    H = F.with_hbar(2)
    assert format_scalar(H.hbar) == "hbar"
    assert format_scalar(H.hbar * H.from_rational(2) + H.one) == "1 + 2*hbar"
    with pytest.raises(UnsupportedElement):
        format_scalar(F.one / (F.generator(2) + F.one))


def test_records_round_trip():
    A = make_algebra(n=2, rank=2, t=((0, 0), (0, 0)))
    rng = random.Random(8)
    for _ in range(20):
        P = random_element(A, rng, max_terms=3, bound=2)
        # each record holds the monomial's exponent slots and its printed coefficient
        recs = element_to_records(P)
        assert [parse(r["coeff"], A).as_scalar() for r in recs] == [c for _, c in P.sorted_terms()]
        assert [(*r["a"], *sum(r["beta"] + r["gamma"], []), *r["d"]) for r in recs] == [
            m.exps for m, _ in P.sorted_terms()
        ]
    rec = element_to_records(parse("x_1*D_2 + 1/2", A))
    assert rec[0] == {
        "coeff": "1",
        "a": [0, 0],
        "beta": [[0, 0], [0, 0]],
        "gamma": [[1, 0], [0, 0]],
        "d": [0, 1],
    }

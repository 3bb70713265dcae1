"""Rank >= 2 scalars: an evaluation oracle and the canonical form over Z[g].

Evaluating g_2..g_r at an integer point is a ring homomorphism away from
poles.  The oracle reads every operand and result through ``payload_data``
and evaluates it with ``fractions.Fraction``, so it shares no code with
sympy's ring arithmetic: add, sub, mul and div must commute with evaluation,
slot by slot for truncated hbar series.  The canonical-form tests read the
payload pairs themselves: integer coefficients only, numerator and
denominator coprime with integer content included, a positive int or a
polynomial with positive leading coefficient as the denominator, and one
payload (and hash) per value whatever the route to it.
"""

from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ, PythonIntegerRing
from sympy.polys.rings import ring

from expweyl import DivisionByZero, NonInvertibleSeries, Scalar, ScalarField
from expweyl.scalars import _Q, _parts, _Poly, _RatPoly

FIELDS = {
    "rank2": ScalarField(rank=2),
    "rank3": ScalarField(rank=3),
    "rank2_hbar2": ScalarField(rank=2, hbar_order=2),
    "rank3_hbar1": ScalarField(rank=3, hbar_order=1),
}
SYMPY_RINGS = {r: ring(",".join(f"g_{j}" for j in range(2, r + 1)), ZZ)[0] for r in (2, 3)}


def polynomials(field):
    """Small polynomials in g_2..g_r with integer coefficients, as scalars."""
    gens = [field.base.generator(j) for j in range(2, field.rank + 1)]
    term = st.tuples(st.integers(-6, 6), st.tuples(*[st.integers(0, 2)] * len(gens)))

    def build(terms):
        return sum((c * prod((g**e for g, e in zip(gens, exps)), start=field.base.one)
                    for c, exps in terms), field.base.zero)

    return st.lists(term, min_size=1, max_size=3).map(build)


def slot_values(field):
    """n / (d * k) for polynomials n, d and an int k: constants, polynomials,
    and pairs with integer and with polynomial denominators."""
    return st.tuples(polynomials(field), polynomials(field).filter(bool), st.integers(1, 4)).map(
        lambda ndk: ndk[0] / (ndk[1] * ndk[2]))


def values(field):
    """Values of the field: one slot value per power of hbar."""
    return st.lists(slot_values(field), min_size=field.slots, max_size=field.slots).map(
        field.from_hbar_coefficients)


def points(rank):
    return st.tuples(*[st.integers(-3, 3)] * (rank - 1))


def evaluate(s, point):
    """The slot values of s at the integer point g_2.. = point, read through
    payload_data; None when a denominator vanishes there."""
    out = []
    for k in range(s.field.slots):
        data = s.payload_data(k)
        if data[0] == "rat":
            out.append(data[1])
            continue
        num, den = (sum(c * prod(p**e for p, e in zip(point, exps)) for exps, c in terms)
                    for terms in data[1:])
        if den == 0:
            return None
        out.append(num / den)
    return out


def series_mul(x, y):
    n = len(x)
    return [sum(x[i] * y[k - i] for i in range(k + 1)) for k in range(n)]


def series_div(x, y):
    """q with q * y = x truncated, for y[0] != 0."""
    q = []
    for k in range(len(x)):
        q.append((x[k] - sum(y[j] * q[k - j] for j in range(1, k + 1))) / y[0])
    return q


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_arithmetic_commutes_with_evaluation(name, data):
    field = FIELDS[name]
    x, y = data.draw(values(field)), data.draw(values(field))
    point = data.draw(points(field.rank))
    ex, ey = evaluate(x, point), evaluate(y, point)
    assume(ex is not None and ey is not None)
    # a sum, difference or product has no pole where its operands have none
    assert evaluate(x + y, point) == [a + b for a, b in zip(ex, ey)]
    assert evaluate(x - y, point) == [a - b for a, b in zip(ex, ey)]
    assert evaluate(x * y, point) == series_mul(ex, ey)
    if not y.coeffs[0]:
        with pytest.raises((DivisionByZero, NonInvertibleSeries)):
            x / y
        return
    q = x / y
    if ey[0]:
        assert evaluate(q, point) == series_div(ex, ey)


# -- canonical form ------------------------------------------------------------

def as_sympy(side, rank):
    """An int or _Poly side as an element of sympy's Z[g_2..g_r] over ZZ."""
    R = SYMPY_RINGS[rank]
    return R.ground_new(side) if type(side) is int else R.from_dict(dict(side))


def assert_canonical(s):
    """Every slot of s is an int, a _Q or a canonical _RatPoly pair over Z[g]."""
    for p in s.coeffs:
        if type(p) is not _RatPoly:
            assert type(p) in (int, _Q)
            continue
        num, den = p.num, p.den
        for side in (num, den):
            # integer coefficients only, and a side without symbols is an int
            assert type(side) in (int, _Poly)
            if type(side) is _Poly:
                assert all(type(c) is int and c for c in side.values())
                assert any(any(m) for m in side), "a constant side must be an int"
        assert num and (type(num) is _Poly or type(den) is _Poly), "a constant must be demoted"
        if type(den) is int:
            assert den > 0
            assert gcd(den, *num.values()) == 1
        else:
            # sympy's lex order and gcd over ZZ, content included, as the oracle
            d = as_sympy(den, s.field.rank)
            assert d.LC > 0 and den[max(den)] == d.LC
            assert as_sympy(num, s.field.rank).gcd(d) == 1


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_results_are_canonical_and_routes_agree(name, data):
    field = FIELDS[name]
    a, b, c = (data.draw(values(field)) for _ in range(3))
    for s in (a, b, a + b, a - b, a * b):
        assert_canonical(s)
    routes = [((a + b) - b, a), (a * b - a * b, field.zero)]
    if b.is_unit:
        assert_canonical(a / b)
        routes.append(((a / b) * b, a))
        if c.is_unit:
            routes.append(((a / b) * (b / c), a / c))
    for got, want in routes:
        assert got.coeffs == want.coeffs
        assert hash(got) == hash(want)


def test_hbar_quotient_keeps_a_positive_denominator():
    """A polynomial gcd may come back with a negative leading coefficient;
    the quotient's denominators must not."""
    F = ScalarField(rank=2, hbar_order=3)
    g2, hb = F.generator(2), F.hbar
    x = g2 - g2 * hb**2
    y = (g2 * 72 + 5) / 20 + g2 * hb
    q = x / y
    assert_canonical(q)
    assert q * y == x
    for point in ((1,), (2,), (-3,)):
        assert evaluate(q, point) == series_div(evaluate(x, point), evaluate(y, point))


def test_integer_and_polynomial_denominators_cancel_content():
    """a/4 + b/(2*g_2 + 2): the int 4 and the content 2 share a factor."""
    F = ScalarField(rank=2)
    g2 = F.generator(2)
    for a, b in ((g2, F.one), (g2 * 3 + 1, g2), (g2 * g2 - 3, g2 + 5)):
        s = a / 4 + b / (g2 * 2 + 2)
        assert_canonical(s)
        assert s == (a * (g2 + 1) + b * 2) / ((g2 + 1) * 4)
    (p,) = (g2 / 4 + F.one / (g2 * 2 + 2)).coeffs
    # (g_2^2 + g_2 + 2) / (4 g_2 + 4)
    assert (p.num, p.den) == ({(2,): 1, (1,): 1, (0,): 2}, {(1,): 4, (0,): 4})
    assert (type(p.num), type(p.den)) == (_Poly, _Poly)


def test_integer_denominators_stay_ints():
    F = ScalarField(rank=3)
    g2, g3 = F.generator(2), F.generator(3)
    s = (g2 + g3 * 3) / 6
    (p,) = s.coeffs
    assert type(p.den) is int and p.den == 6
    (p,) = (s * 6 / (g2 + g3 * 3) * g2).coeffs
    assert p.den == 1 and type(p.den) is int
    assert (s * 6 - g2 - g3 * 3).pay == 0
    with pytest.raises(DivisionByZero):
        s / (s - s)
    assert s.payload_data(0) == (
        "poly",
        (((1, 0), Fraction(1, 6)), ((0, 1), Fraction(1, 2))),
        (((0, 0), Fraction(1)),),
    )


def test_coefficients_are_python_ints_whatever_the_ground_types():
    """sympy's ZZ holds mpz or fmpz once gmpy2 or python-flint is installed;
    the general gcd runs over sympy's pure-Python integer domain instead, so
    its cofactors come back with int coefficients, and a product that
    cancels to a constant is still demoted to an int."""
    F = ScalarField(rank=2)
    g2 = F.generator(2)
    ring = F._slot_ops.ring
    assert isinstance(ring.domain, PythonIntegerRing)
    assert ring.domain.dtype is int
    (p,) = g2.coeffs
    assert type(p.num) is _Poly and all(type(c) is int for c in p.num.values())
    s = (g2 * 2) * (1 / g2)
    assert type(s.pay) is int and s == 2
    # neither 2 g_2 nor 4 g_2 + 4 divides the other: sympy's gcd, content 2
    s = (g2 * 2) / (g2 * 4 + 4)
    (p,) = s.coeffs
    assert type(p.den) is _Poly and all(type(c) is int for c in p.den.values())
    # (g_2^2 - 1) / (g_2^2 + 2 g_2 + 1): sympy's gcd g_2 + 1, demoted cofactors
    (p,) = ((g2 * g2 - 1) / (g2 * g2 + g2 * 2 + 1)).coeffs
    assert (p.num, p.den) == ({(1,): 1, (0,): -1}, {(1,): 1, (0,): 1})
    assert all(type(c) is int for c in (*p.num.values(), *p.den.values()))
    assert type(((g2 * 2) / 3 * (3 / g2)).pay) is int


# -- products in Q[g] ------------------------------------------------------------

def q_values(field):
    """Nonzero values of Q[g]: a polynomial over a nonzero int, so constants
    (int or _Q) and pairs with an int denominator."""
    return st.tuples(polynomials(field), st.integers(-12, 12).filter(bool)).map(
        lambda pk: pk[0] / pk[1]).filter(bool)


def assert_q_product(field, x, y, point):
    """mul on integer denominators: the payload _cross builds, canonical
    with an int denominator > 0 coprime to the numerator's content, and
    the product of the values at point."""
    ops = field.ops
    p = ops.mul(x.pay, y.pay)
    (a, b), (c, d) = _parts(x.pay), _parts(y.pay)
    crossed = ops._cross(a, b, c, d)
    assert p == crossed and hash(p) == hash(crossed)
    s = Scalar(field, p)
    assert_canonical(s)
    if type(p) is _RatPoly:
        assert type(p.den) is int and p.den > 0
        assert gcd(p.den, *p.num.values()) == 1
    assert evaluate(s, point) == [evaluate(x, point)[0] * evaluate(y, point)[0]]


@pytest.mark.parametrize("name", ["rank2", "rank3"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_q_g_products_match_the_cross_cancel_and_evaluation(name, data):
    field = FIELDS[name]
    x, y = data.draw(q_values(field)), data.draw(q_values(field))
    assert_q_product(field, x, y, data.draw(points(field.rank)))


def test_q_g_products_cancel_planted_contents():
    """Each side's int denominator shares a factor with the other side's
    numerator content; negative numerators and constant factors included."""
    F = ScalarField(rank=2)
    g = F.generator(2)
    q = F.from_rational
    cases = [
        # (6g/5)(5g^2/3) = 2g^3
        (g * q(Fraction(6, 5)), g * g * q(Fraction(5, 3)), _RatPoly(_Poly({(3,): 2}), 1)),
        # (3/2)(-4g/9) = -2g/3: a _Q times a pair
        (q(Fraction(3, 2)), g * q(Fraction(-4, 9)), _RatPoly(_Poly({(1,): -2}), 3)),
        # 6 (g - 2)/4 = (3g - 6)/2: an int times a pair
        (q(6), (g - 2) / 4, _RatPoly(_Poly({(1,): 3, (0,): -6}), 2)),
        # (-10g/21)(7g^2 - 14)/15 = (-2g^3 + 4g)/9
        (g * q(Fraction(-10, 21)), (g * g * 7 - 14) / 15, _RatPoly(_Poly({(3,): -2, (1,): 4}), 9)),
    ]
    for x, y, want in cases:
        assert (x * y).pay == want == (y * x).pay
        for point in ((1,), (-2,), (3,)):
            assert_q_product(F, x, y, point)
            assert_q_product(F, y, x, point)
    F3 = ScalarField(rank=3)
    g2, g3 = F3.generator(2), F3.generator(3)
    x = g2 * g3 * F3.from_rational(Fraction(10, 21))
    y = (g2 * 7 - g3 * 14) / 15
    # a' = 2 g_2 g_3, c' = g_2 - 2 g_3, den 3 * 3
    assert (x * y).pay == _RatPoly(_Poly({(2, 1): 2, (1, 2): -4}), 9)
    assert_q_product(F3, x, y, (2, -1))

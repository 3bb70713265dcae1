"""Scalar field: canonical forms, field axioms, lattice embedding, hbar mode."""

import operator
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expweyl import (
    DivisionByZero,
    HbarModeOff,
    NonInvertibleSeries,
    ScalarField,
    SignatureMismatch,
    UnsupportedElement,
)
from expweyl.algebra import WeylAlgebra
from expweyl.expr import parse
from expweyl.linalg import combination
from expweyl.sampling import random_element, random_scalar
from expweyl.scalars import Scalar, _Q, _RatPoly, _Series, tuple_adder
from test_term_form import built_by

F1 = ScalarField(rank=1)
F2 = ScalarField(rank=2)
FH = ScalarField(rank=2, hbar_order=3)


def rationals():
    return st.fractions(min_value=-5, max_value=5, max_denominator=12)


def scalars(field):
    """Small random scalars: rational combinations of 1 and g_2 (and hbar)."""
    def build(parts):
        s = field.zero
        for k, (a, b) in enumerate(parts):
            term = field.from_rational(a)
            if field.rank >= 2:
                term = term + field.generator(2) * field.from_rational(b)
            if k and field.hbar_order is not None:
                term = term * field.hbar ** min(k, field.hbar_order)
            s = s + term
        return s
    return st.lists(st.tuples(rationals(), rationals()), min_size=1, max_size=3).map(build)


# -- canonical form ----------------------------------------------------------

def test_rational_roundtrip_and_equality():
    a = F1.from_rational(Fraction(3, 2))
    b = F1.from_rational(Fraction(6, 4))
    assert a == b
    assert a + a == F1.from_rational(3)
    assert a.as_rational() == Fraction(3, 2)


def test_reduced_fraction_is_canonical():
    g2 = F2.generator(2)
    lhs = (g2 * g2 - 1) / (g2 - 1)
    rhs = g2 + F2.one
    assert lhs == rhs
    assert hash(lhs) == hash(rhs)


@pytest.mark.parametrize("field", [F1, F2, FH], ids=["rank1", "rank2", "hbar"])
def test_hash_agrees_with_rational_equality(field):
    for q in (3, -1, 0, Fraction(3, 4)):
        s = field.from_rational(q)
        assert s == q and hash(s) == hash(q)
        assert {s: "hit"}[q] == "hit"


def test_denominator_sign_is_normalized():
    g2 = F2.generator(2)
    a = F2.one / (1 - g2)
    b = -(F2.one / (g2 - 1))
    assert a == b


def test_embed_is_additive_and_injective_on_samples():
    for coords in [(1, 0), (0, 1), (2, -3), (-1, 1)]:
        assert F2.embed(coords) == F2.from_rational(coords[0]) + F2.generator(2) * coords[1]
    seen = {}
    for c0 in range(-2, 3):
        for c1 in range(-2, 3):
            s = F2.embed((c0, c1))
            assert s not in seen, "embedding collided on lattice points"
            seen[s] = (c0, c1)


def test_lattice_coordinates_are_refused_where_they_enter():
    A = WeylAlgebra(rank=2, p=(1,), t=((0, 0),))
    with pytest.raises(SignatureMismatch, match="lattice element rank does not match the algebra"):
        A.lattice((1, 2, 3))
    with pytest.raises(TypeError, match="coordinates must be integers"):
        A.lattice((1, Fraction(1, 2)))
    with pytest.raises(SignatureMismatch):
        F2.embed((1,))


# -- field axioms ------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.data())
def test_field_axioms(data):
    field = data.draw(st.sampled_from([F1, F2]))
    a = data.draw(scalars(field))
    b = data.draw(scalars(field))
    c = data.draw(scalars(field))
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a + field.zero == a
    assert a * field.one == a
    assert a - a == field.zero
    if not b.is_zero:
        assert (a / b) * b == a


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_hbar_truncated_ring_axioms(data):
    a = data.draw(scalars(FH))
    b = data.draw(scalars(FH))
    assert (a * b) * a == a * (b * a)
    assert FH.hbar ** (FH.hbar_order + 1) == FH.zero
    if b.is_unit:
        assert (a / b) * b == a


def test_division_errors():
    with pytest.raises(DivisionByZero):
        F1.one / F1.zero
    with pytest.raises(DivisionByZero):
        F2.one / F2.zero
    with pytest.raises(DivisionByZero):
        FH.one / FH.zero
    with pytest.raises(NonInvertibleSeries):
        FH.one / FH.hbar


def test_hbar_mode_gates():
    with pytest.raises(HbarModeOff):
        F2.hbar
    s = FH.hbar * FH.generator(2) + FH.one
    assert FH.hbar_coefficient(s.pay, 0) == FH.base.one.pay
    assert FH.hbar_coefficient(s.pay, 1) == FH.base.generator(2).pay
    assert not FH.hbar_coefficient(s.pay, 2)


def test_cross_field_mixing_rejected():
    with pytest.raises(SignatureMismatch):
        F1.one + F2.one


@pytest.mark.parametrize("slot", [f"__{r}{op}__" for op in ("add", "sub", "mul", "truediv") for r in ("", "r")])
def test_every_operator_coerces_by_the_same_rule(slot):
    # an int or a Fraction on either side and a same-field Scalar are coerced,
    # another field's Scalar is refused, anything else is NotImplemented
    op = getattr(operator, slot.strip("_").removeprefix("r"))
    reverse = slot.startswith("__r")
    s = F1.from_rational(Fraction(3, 2))
    method = getattr(s, slot)
    for other in (4, Fraction(-5, 7), F1.from_rational(Fraction(2, 9))):
        value = other.as_rational() if isinstance(other, Scalar) else other
        want = op(value, Fraction(3, 2)) if reverse else op(Fraction(3, 2), value)
        got = method(other)
        assert type(got) is Scalar and got.field is F1 and got == want
        if not isinstance(other, Scalar):
            assert (op(other, s) if reverse else op(s, other)) == want
    with pytest.raises(SignatureMismatch):
        method(F2.one)
    assert method("2") is NotImplemented
    with pytest.raises(TypeError):
        op("2", s) if reverse else op(s, "2")


def test_equality_with_ints_and_fractions_compares_payloads(monkeypatch):
    half = Fraction(1, 2)
    for field in (F1, F2, FH):
        assert field.from_rational(3) == 3 == field.from_rational(Fraction(6, 2))
        assert field.from_rational(half) == half and field.from_rational(half) != 1
        assert field.zero == 0 and field.one == 1 and field.one == True
        assert field.from_rational(2) != True
    g2 = F2.generator(2)
    assert g2 != 1 and g2 != 0 and g2 != half
    assert FH.hbar != 0 and FH.hbar != 1 and FH.hbar + 1 != 1
    assert FH.one == 1 and FH.one == Fraction(1)
    s = F1.from_rational(3)
    built, equal = built_by(lambda: s == 3, monkeypatch)
    assert equal and built == []


# -- serialization -----------------------------------------------------------

def test_text_forms():
    """str() is the grammar form of expr.format_scalar."""
    g2 = F2.generator(2)
    assert str(F2.zero) == "0"
    assert str(F2.one) == "1"
    assert str(F1.from_rational(Fraction(-3, 2))) == "-3/2"
    assert str(g2) == "g_2"
    assert str(g2 * 2) == "2*g_2"
    assert str(g2 + 1) == "g_2 + 1"
    assert str(g2 / 2) == "1/2*g_2"
    assert str(FH.one + FH.hbar * 2) == "1 + 2*hbar"
    assert str(FH.hbar * FH.hbar) == "hbar^2"
    # the grammar has no division by a symbolic scalar
    with pytest.raises(UnsupportedElement):
        str(F2.one / (g2 - 1))
    # repr shows the payloads and never raises
    assert repr(F1.from_rational(3)) == "Scalar((3,))"
    assert repr(F2.one / (g2 - 1)).startswith("Scalar((_RatPoly(")


TEXT_ALGEBRAS = {
    "rank1": WeylAlgebra(),
    "rank2": WeylAlgebra(rank=2, t=((0, 0),)),
    "hbar": WeylAlgebra(rank=2, t=((0, 0),), hbar_order=2),
}


@pytest.mark.parametrize("name", sorted(TEXT_ALGEBRAS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_text_parses_back(name, data):
    A = TEXT_ALGEBRAS[name]
    s = data.draw(scalars(A.field)) * data.draw(scalars(A.field))
    assert parse(str(s), A).as_scalar() == s


# -- payload invariants --------------------------------------------------------
# Rank-1 payloads are ints exactly when the value is integral, every zero
# payload is falsy, and an hbar payload is a _Series exactly when it has an
# hbar part.  The oracles below are fractions.Fraction arithmetic, sharing no
# code with the payloads.

def _payload_fraction(p) -> Fraction:
    return Fraction(int(p.numerator), int(p.denominator))


def _check_rank1(s, expected: Fraction):
    (p,) = s.coeffs
    assert _payload_fraction(p) == expected
    assert (type(p) is int) == (expected.denominator == 1)
    assert s == expected and hash(s) == hash(expected)


def test_rank1_payload_edge_cases():
    third = F1.from_rational(Fraction(1, 3))
    half = F1.from_rational(Fraction(1, 2))
    _check_rank1(third * 3, Fraction(1))
    _check_rank1(3 * third, Fraction(1))
    _check_rank1(half + half, Fraction(1))
    _check_rank1(half - half, Fraction(0))
    _check_rank1(F1.from_rational(-6) / F1.from_rational(-3), Fraction(2))
    _check_rank1(F1.from_rational(7) / F1.from_rational(2), Fraction(7, 2))
    _check_rank1(F1.zero * third, Fraction(0))
    _check_rank1(F1.from_rational(Fraction(8, 4)), Fraction(2))
    _check_rank1(F1.from_rational(Fraction(-9, 3)), Fraction(-3))
    _check_rank1(third ** -2, Fraction(9))


@settings(max_examples=150, deadline=None)
@given(rationals(), rationals(), st.integers(min_value=-3, max_value=3))
def test_rank1_arithmetic_matches_fractions(x, y, e):
    a, b = F1.from_rational(x), F1.from_rational(y)
    _check_rank1(a, x)
    _check_rank1(a + b, x + y)
    _check_rank1(a - b, x - y)
    _check_rank1(a * b, x * y)
    _check_rank1(-a, -x)
    _check_rank1(a + y, x + y)
    _check_rank1(x * b, x * y)
    if y:
        _check_rank1(a / b, x / y)
    else:
        with pytest.raises(DivisionByZero):
            a / b
    if x or e >= 0:
        _check_rank1(a ** e, x ** e)


@pytest.mark.parametrize("field", [F1, F2, FH], ids=["rank1", "rank2", "hbar"])
def test_zero_tests_agree_with_equality(field):
    cases = [field.zero, field.one - field.one, field.from_rational(Fraction(1, 2)) * 0]
    if field.rank >= 2:
        g2 = field.generator(2)
        cases += [g2 - g2, g2 * g2 / g2 - g2, g2 + 1]
    if field.hbar_order is not None:
        hb = field.hbar
        cases += [hb - hb, hb ** (field.hbar_order + 1), hb ** field.hbar_order]
    cases += [field.one, field.from_rational(Fraction(-2, 3))]
    for s in cases:
        assert s.is_zero == (s == 0) == (not s)
        for p in s.coeffs:
            # a payload without numerator is a polynomial fraction, never zero
            value_is_zero = hasattr(p, "numerator") and _payload_fraction(p) == 0
            assert bool(p) == (not value_is_zero)
        if s.is_zero:
            assert not any(s.coeffs)


def _naive_convolution(x, y, slots):
    out = [Fraction(0)] * slots
    for i in range(slots):
        for j in range(slots - i):
            out[i + j] += x[i] * y[j]
    return out


def _naive_inverse(y, slots):
    inv = [1 / y[0]]
    for k in range(1, slots):
        inv.append(-sum(y[j] * inv[k - j] for j in range(1, k + 1)) / y[0])
    return inv


def _series_operands(data):
    """An hbar field of order 0..4 and two naive slot lists of Fractions, with
    zero slots often, so that hbar parts vanish and cancel."""
    order = data.draw(st.integers(min_value=0, max_value=4))
    slot_values = st.one_of(st.just(Fraction(0)), rationals())
    x, y = (data.draw(st.lists(slot_values, min_size=order + 1, max_size=order + 1)) for _ in range(2))
    return F1.with_hbar(order), x, y


def _slot_payloads(field, values) -> tuple:
    return tuple(field.base.from_rational(v).pay for v in values)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_series_product_matches_naive_convolution(data):
    field, x, y = _series_operands(data)
    ops = field.ops
    got = ops.coeffs(ops.mul(ops.lift(_slot_payloads(field, x)), ops.lift(_slot_payloads(field, y))))
    assert [_payload_fraction(p) for p in got] == _naive_convolution(x, y, field.slots)
    assert all(bool(p) == (_payload_fraction(p) != 0) for p in got)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_series_payloads_are_canonical_and_match_the_naive_oracle(data):
    """Every op's result is a _Series exactly when its hbar part is nonzero;
    otherwise it is the slot payload itself."""
    field, x, y = _series_operands(data)
    ops, n = field.ops, field.slots
    a, b = ops.lift(_slot_payloads(field, x)), ops.lift(_slot_payloads(field, y))
    want = {
        "add": [u + v for u, v in zip(x, y)],
        "sub": [u - v for u, v in zip(x, y)],
        "neg": [-u for u in x],
        "mul": _naive_convolution(x, y, n),
    }
    got = {"add": ops.add(a, b), "sub": ops.sub(a, b), "neg": ops.neg(a), "mul": ops.mul(a, b)}
    if y[0]:
        want["div"] = _naive_convolution(x, _naive_inverse(y, n), n)
        got["div"] = ops.div(a, b)
    else:
        with pytest.raises(NonInvertibleSeries if any(y) else DivisionByZero):
            ops.div(a, b)
    for op, pay in got.items():
        assert [_payload_fraction(p) for p in ops.coeffs(pay)] == want[op], op
        assert (type(pay) is _Series) == any(want[op][1:]), op
        if type(pay) is not _Series:
            assert type(pay) in (int, _Q) and pay == want[op][0] and hash(pay) == hash(want[op][0])


def test_equal_scalars_hash_equal_across_construction_paths():
    third = F1.from_rational(Fraction(1, 3))
    rank1 = [F1.from_rational(2), F1.one + F1.one, third * 6, F1.from_rational(Fraction(4, 2)),
             F1.from_rational(Fraction(10, 5)), F1.from_rational(-4) / F1.from_rational(-2),
             (third + third) * 3, 2 - F1.zero]
    g2, g2h = F2.generator(2), FH.generator(2)
    rank2 = [g2 + 1, (g2 * g2 - 1) / (g2 - 1), g2 * 2 / 2 + F2.from_rational(Fraction(1, 2)) * 2,
             1 + g2]
    hb = FH.hbar
    hbar = [FH.one + g2h * hb, (FH.one + g2h * hb) * (FH.one - hb) / (FH.one - hb),
            g2h * hb + 1, hb * g2h - FH.zero + FH.one]
    F1H = F1.with_hbar(2)
    hb1 = F1H.hbar
    # the hbar part of (1 + hbar)(1 - hbar + hbar^2) cancels at order 2: the payload is the int 1
    cancelled = [F1H.one, (F1H.one + hb1) * (F1H.one - hb1 + hb1 * hb1), F1H.from_rational(Fraction(3, 3))]
    assert type(cancelled[1].pay) is int and cancelled[1] == 1 == Fraction(1)
    assert hash(cancelled[1]) == hash(1) == hash(Fraction(1))
    for group in (rank1, rank2, hbar, cancelled):
        for s in group[1:]:
            assert s == group[0]
            assert hash(s) == hash(group[0])
            assert s.coeffs == group[0].coeffs


# -- int/_Q constants against Fraction ---------------------------------------------
# Fraction shares no code with _Q or the int/_Q functions.  The values include
# huge and negative ones, and denominators that are multiples of the hash
# modulus, where Fraction hashes to sys.hash_info.inf.

MODULUS = sys.hash_info.modulus
CONSTANT_FIELDS = {"rank1": F1, "rank2": F2, "hbar": F1.with_hbar(2)}


def exact_values():
    ints = st.one_of(st.integers(-12, 12), st.integers(-(10**40), 10**40))
    dens = st.one_of(st.integers(1, 12), st.integers(1, 10**30), st.integers(1, 3).map(lambda k: k * MODULUS))
    return st.one_of(ints, st.builds(Fraction, ints, dens))


def _constant(field, p) -> Fraction:
    """The value of a constant payload (its constant slot in an hbar field),
    checking that the slot is an int exactly when the value is integral."""
    c, *rest = field.ops.coeffs(p)
    assert not any(rest)
    assert type(c) in (int, _Q)
    q = _payload_fraction(c)
    assert (type(c) is int) == (q.denominator == 1)
    assert c == q and hash(c) == hash(q)
    return q


@pytest.mark.parametrize("name", sorted(CONSTANT_FIELDS))
@settings(max_examples=150, deadline=None)
@given(x=exact_values(), y=exact_values())
def test_constants_match_fractions(name, x, y):
    field = CONSTANT_FIELDS[name]
    ops = field.ops
    x, y = Fraction(x), Fraction(y)
    a, b = field.from_rational(x).pay, field.from_rational(y).pay
    assert _constant(field, a) == x
    assert _constant(field, ops.add(a, b)) == x + y
    assert _constant(field, ops.sub(a, b)) == x - y
    assert _constant(field, ops.mul(a, b)) == x * y
    assert _constant(field, ops.neg(a)) == -x
    if y:
        assert _constant(field, ops.div(a, b)) == x / y
    else:
        with pytest.raises(DivisionByZero):
            ops.div(a, b)
    assert hash(a) == hash(x)
    assert (a == b) == (x == y)
    assert (ops.coeffs(a)[0] == y) == (x == y)
    s = field.from_rational(x)
    assert s.as_rational() == x
    assert s.payload_data(0) == ("rat", x)


def test_q_hash_without_an_inverse_is_fractions_inf():
    for q in (Fraction(1, MODULUS), Fraction(-7, 3 * MODULUS), Fraction(10**50 + 1, MODULUS)):
        (p,) = F1.from_rational(q).coeffs
        assert type(p) is _Q and hash(p) == hash(q)
    assert hash(Fraction(1, MODULUS)) == sys.hash_info.inf


def test_ground_quotient_demotes_to_a_constant():
    g2 = F2.generator(2)
    assert type(((g2 * 3) / g2).pay) is int and ((g2 * 3) / g2).pay == 3
    half = (g2 * Fraction(1, 2)) / g2
    assert type(half.pay) is _Q and half.as_rational() == Fraction(1, 2)
    assert type((g2 + Fraction(3, 4) - g2).pay) is _Q
    assert ((g2 * 2 - 1) * (g2 * 2 + 1) - g2 * g2 * 4).pay == -1


@pytest.mark.parametrize("rank, kinds", [(1, (int, _Q)), (2, (int, _Q, _RatPoly))])
def test_no_sympy_number_escapes_as_a_payload(rank, kinds):
    """Products, scalar divisions and linalg.combination leave only int and
    _Q payloads at rank 1, and _RatPoly pairs besides at rank 2."""
    A = WeylAlgebra(rank=rank, p=(2,), t=((1,) + (0,) * (rank - 1),))
    field = A.field
    rng = random.Random(rank)
    seen = []
    for _ in range(25):
        P, Q = (random_element(A, rng, max_terms=3, bound=2) for _ in range(2))
        seen += [c for _, c in (P * Q).sorted_terms()]
        a, b = random_scalar(field, rng), random_scalar(field, rng)
        seen += [a / b, b / a, a * b + a, a - a, a / 3]
        vectors = [random_element(A, rng, max_terms=3, bound=1) for _ in range(3)]
        target = vectors[0] * random_scalar(field, rng) + vectors[2] / random_scalar(field, rng)
        coeffs = combination([v.terms for v in vectors], target.terms, field)
        assert coeffs is not None
        seen += coeffs
    payloads = [p for s in seen for p in s.coeffs]
    assert payloads and all(type(p) in kinds for p in payloads)


def test_tuple_adder_matches_the_map_form():
    """The unrolled adder against ``tuple(map(operator.add, ...))`` at every
    length 0..12, on negative ints and ints past 2**63; one length always
    gives the same function object."""
    rng = random.Random(12)
    big = 2**63
    for length in range(13):
        adder = tuple_adder(length)
        assert tuple_adder(length) is adder
        for _ in range(20):
            a, b = (tuple(rng.choice((-1, 1)) * rng.randrange(3 * big) for _ in range(length)) for _ in range(2))
            got = adder(a, b)
            assert type(got) is tuple and got == tuple(map(operator.add, a, b))
        assert adder((big,) * length, (big,) * length) == (2 * big,) * length
        assert adder((-5,) * length, (5,) * length) == (0,) * length

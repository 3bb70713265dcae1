"""Scalar field: canonical forms, field axioms, lattice embedding, hbar mode."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expweyl import (
    DivisionByZero,
    GroupElement,
    HbarModeOff,
    NonInvertibleSeries,
    ScalarField,
    SignatureMismatch,
)

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
    b = F1.from_rational("3/2")
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
        ge = GroupElement(coords)
        assert F2.embed(ge) == F2.from_rational(coords[0]) + F2.generator(2) * coords[1]
    seen = {}
    for c0 in range(-2, 3):
        for c1 in range(-2, 3):
            s = F2.embed(GroupElement((c0, c1)))
            key = s.to_text()
            assert key not in seen, "embedding collided on lattice points"
            seen[key] = (c0, c1)


def test_group_element_l1_and_ops():
    a = GroupElement((2, -1))
    b = GroupElement((-1, 1))
    assert (a + b).coords == (1, 0)
    assert (a - b).coords == (3, -2)
    assert a.l1() == 3
    assert a.scale(-2).coords == (-4, 2)
    with pytest.raises(SignatureMismatch):
        a + GroupElement((1,))


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
    assert s.hbar_coefficient(0) == FH.base.one
    assert s.hbar_coefficient(1) == FH.base.generator(2)
    assert s.hbar_coefficient(2).is_zero


def test_cross_field_mixing_rejected():
    with pytest.raises(SignatureMismatch):
        F1.one + F2.one


# -- serialization -----------------------------------------------------------

def test_text_forms():
    g2 = F2.generator(2)
    assert F2.zero.to_text() == "0"
    assert F2.one.to_text() == "1"
    assert F1.from_rational(Fraction(-3, 2)).to_text() == "-3/2"
    assert g2.to_text() == "g_2"
    assert (g2 * 2).to_text() == "2*g_2"
    assert (g2 + 1).to_text() == "(g_2 + 1)"
    assert (g2 / 2).to_text() == "(g_2)/(2)"
    assert (F2.one / (g2 - 1)).to_text() == "(1)/(g_2 - 1)"
    assert (FH.one + FH.hbar * 2).to_text() == "(1 + 2*hbar)"
    assert (FH.hbar * FH.hbar).to_text() == "hbar^2"

"""Hochschild b, cyclic B, their identities, and window-level rank checks."""

import random
from fractions import Fraction

import pytest

from expweyl.algebra import WeylAlgebra
from expweyl.errors import DegreeZero, SignatureMismatch, WindowOverflow
from expweyl.homology import (
    Window,
    commutator_span_check,
    connes_B,
    hochschild_b,
    tensor_chain,
    window_chain_basis,
    window_rank,
)
from expweyl.sampling import random_chain


def make_algebra(**kw):
    kw.setdefault("n", 1)
    kw.setdefault("rank", 1)
    kw.setdefault("p", (2,) * kw["n"])
    kw.setdefault("t", ((1,) + (0,) * (kw["rank"] - 1),) * kw["n"])
    return WeylAlgebra(**kw)


def test_tensor_chain_refuses_a_scalar_from_another_field():
    A = make_algebra()
    half = tensor_chain([A.D(1), A.x(1)], Fraction(1, 2))
    assert half == tensor_chain([A.D(1), A.x(1)], A.field.one / 2)
    with pytest.raises(SignatureMismatch):
        tensor_chain([A.D(1), A.x(1)], make_algebra().field.one)
    with pytest.raises(SignatureMismatch):
        tensor_chain([A.D(1)], "1/2")


def test_b_of_two_tensor_is_commutator():
    A = make_algebra()
    c = tensor_chain([A.D(1), A.x(1)])
    b = hochschild_b(c)
    # [D, x] = 1: a single unit tensor with coefficient 1
    assert b == tensor_chain([A.one])
    assert hochschild_b(tensor_chain([A.x(1), A.x(1, 2)])).is_zero


def test_b_degenerate_and_degree_zero():
    A = make_algebra()
    assert tensor_chain([A.one, A.one]).is_zero  # unit past slot 0 is degenerate
    with pytest.raises(DegreeZero):
        hochschild_b(tensor_chain([A.x(1)]))


def test_b_squared_zero_random():
    A = make_algebra(rank=2, t=((0, 1),))
    rng = random.Random(5)
    for degree in (2, 3):
        for _ in range(8):
            c = random_chain(A, rng, degree)
            assert hochschild_b(hochschild_b(c)).is_zero


def test_connes_B_basics():
    A = make_algebra()
    a = tensor_chain([A.x(1, 2)])
    B = connes_B(a)
    assert B == tensor_chain([A.one, A.x(1, 2)])
    assert connes_B(tensor_chain([A.one])).is_zero


def test_bB_anticommute_and_B_squared_random():
    A = make_algebra(rank=2, t=((1, 0),))
    rng = random.Random(9)
    for degree in (0, 1, 2):
        for _ in range(6):
            c = random_chain(A, rng, degree)
            assert connes_B(connes_B(c)).is_zero
            if degree >= 1:
                lhs = hochschild_b(connes_B(c)) + connes_B(hochschild_b(c))
            else:
                lhs = hochschild_b(connes_B(c))
            assert lhs.is_zero


def test_chain_arithmetic():
    A = make_algebra()
    rng = random.Random(3)
    c = random_chain(A, rng, 2)
    assert (c - c).is_zero
    assert (c + c) == c.scale(2)


def test_commutator_span_unit():
    A = make_algebra()
    res = commutator_span_check(A.one, [(A.D(1), A.x(1))])
    assert res.inside
    assert res.combination == (A.field.one,)


def test_commutator_span_half():
    # x = (1/2) [D, x^2]
    A = make_algebra()
    res = commutator_span_check(A.x(1), [(A.D(1), A.x(1, 2))])
    assert res.inside
    assert res.combination == (A.field.from_rational(Fraction(1, 2)),)


def test_commutator_span_zero_and_outside():
    A = make_algebra()
    res = commutator_span_check(A.zero, [(A.D(1), A.x(1))])
    assert res.inside and res.combination == (A.field.zero,)
    # E is central over nothing here: [D, x] = 1 cannot produce x
    res = commutator_span_check(A.x(1), [(A.D(1), A.x(1))])
    assert not res.inside and res.combination is None


def test_window_rank_frozen():
    A = make_algebra()
    unit = A.one_monomial
    mons = [unit]
    for e in (A.x(1), A.D(1), A.x(1) * A.D(1)):
        mons.extend(e.terms)
    w = Window(A, mons)
    # degree 1 over {1, x, D, xD}: images span {1, x, D}
    rep = window_rank(w, 1)
    assert (rep.chains, rep.rank, rep.nullity) == (12, 3, 9)
    assert "window-relative" in rep.as_text()
    assert window_rank(w, 0).rank == 0
    assert window_rank(Window(A, [unit]), 1).chains == 0
    with pytest.raises(WindowOverflow):
        # b(x (x) D) = -1 and the unit is not in {x, D}
        window_rank(Window(A, list((A.x(1) + A.D(1)).terms)), 1)


def test_window_chain_basis_excludes_unit_tail():
    A = make_algebra()
    w = Window(A, [A.one_monomial, *A.x(1).terms])
    basis = window_chain_basis(w, 1)
    assert all(key[1] != A.one_monomial for key in basis)
    assert len(basis) == 2

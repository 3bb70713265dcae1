"""Filtration order, degree maps, symbols, and order-drop diagnostics."""

import random

import pytest

from expweyl.algebra import WeylAlgebra
from expweyl.errors import NotHomogeneous, ZeroElement
from expweyl.grading import (
    exp_degree,
    filtration_diagnostic,
    full_symbol,
    gr_mul,
    order,
    power_degree,
    symbol,
)
from expweyl.sampling import random_weyl_element


def make_algebra(**kw):
    kw.setdefault("n", 1)
    kw.setdefault("rank", 1)
    kw.setdefault("p", (2,) * kw["n"])
    kw.setdefault("t", ((1,) + (0,) * (kw["rank"] - 1),) * kw["n"])
    return WeylAlgebra(**kw)


def test_order_basics():
    A = make_algebra()
    assert order(A.D(1)) == 1
    assert order(A.one) == 0
    with pytest.raises(ZeroElement):
        order(A.zero)


def test_order_formula_all_slots():
    A = make_algebra(n=2, rank=2, p=(2, 2), t=((0, 0), (0, 0)))
    # E_1^2 e^{3 g_1 x_1} x_1^{(1,1)} D_1^2: 2 + 3 + 2 + 2 = 9
    P = A.E(1, 2) * A.exp_sym(1, (3, 0)) * A.x(1, (1, 1)) * A.D(1, 2)
    assert order(P) == 9


def test_order_ignores_scalars_and_takes_max():
    A = make_algebra()
    P = A.x(1, 2) + A.D(1)
    assert order(P) == 2
    assert order(P * 7) == 2


def test_exp_degree():
    A = make_algebra(rank=2, p=(1,), t=((0, 0),))
    e = A.exp_sym(1, (1, 2))
    assert exp_degree(e) == (1, 2)
    assert exp_degree(A.x(1) * A.D(1)) == (0, 0)
    with pytest.raises(NotHomogeneous):
        exp_degree(A.exp_sym(1, (1, 0)) + A.exp_sym(1, (2, 0)))
    with pytest.raises(ZeroElement):
        exp_degree(A.zero)


def test_power_degree():
    A = make_algebra()
    assert power_degree(A.x(1, 2)) == (2,)
    with pytest.raises(NotHomogeneous):
        power_degree(A.x(1) + A.one)


def test_symbol_drops_lower_terms():
    A = make_algebra()
    P = A.x(1) * A.D(1) + A.one
    s = symbol(P)
    assert len(s.terms) == 1
    (m, c) = s.sorted_terms()[0]
    assert m.d == (1,) and m.gamma == ((1,),)
    assert c == A.field.one


def test_symbol_multiplicative_on_weyl_subalgebra():
    A = make_algebra()
    rng = random.Random(41)
    for _ in range(20):
        P = random_weyl_element(A, rng)
        Q = random_weyl_element(A, rng)
        if P.is_zero or Q.is_zero:
            continue
        PQ = A.mul(P, Q)
        assert order(PQ) == order(P) + order(Q)
        assert symbol(PQ) == gr_mul(symbol(P), symbol(Q))


def test_gr_mul_commutative_associative():
    A = make_algebra(rank=2, p=(2,), t=((0, 1),))
    rng = random.Random(43)
    for _ in range(10):
        u = full_symbol(random_weyl_element(A, rng))
        v = full_symbol(random_weyl_element(A, rng))
        w = full_symbol(random_weyl_element(A, rng))
        assert gr_mul(u, v) == gr_mul(v, u)
        assert gr_mul(gr_mul(u, v), w) == gr_mul(u, gr_mul(v, w))


def test_gr_inverse_exponents_cancel():
    A = make_algebra()
    u = full_symbol(A.E(1))
    v = full_symbol(A.E(1, -1))
    assert gr_mul(u, v) == full_symbol(A.one)


def test_diagnostic_strict_drop_on_weyl_pairs():
    A = make_algebra()
    gens = [A.x(1), A.D(1), A.exp_sym(1, 1), A.x(1, 2)]
    for P in gens:
        for Q in gens:
            rep = filtration_diagnostic(P, Q)
            assert rep.submultiplicative
            assert rep.strict_drop


def test_diagnostic_refutes_on_e_pair():
    # [D, E] with p=2, t=g_1 contains x^2 e^x E of order 4 > 1 + 1
    A = make_algebra()
    rep = filtration_diagnostic(A.D(1), A.E(1))
    assert rep.ord_p == 1 and rep.ord_q == 1
    assert rep.ord_comm == 4
    assert not rep.strict_drop
    w = rep.witness
    assert w is not None
    assert w == (1, 1, 2, 0)  # a, beta, gamma, d


def test_diagnostic_equal_arguments_vacuous():
    A = make_algebra()
    rep = filtration_diagnostic(A.E(1), A.E(1))
    assert rep.ord_comm is None
    assert rep.strict_drop


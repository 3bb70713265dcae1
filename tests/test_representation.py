"""Module action, faithfulness probes, and the factorial witness."""

import math
import random
from fractions import Fraction
from itertools import islice, product

import pytest

from expweyl.algebra import Element, WeylAlgebra
from expweyl.errors import NotAFunction, UnsupportedElement, ZeroElement
from expweyl.representation import (
    _graded_lex_points,
    act,
    faithfulness_probe,
    noetherian_witness,
)
from expweyl.sampling import random_element, random_function_element


def make_algebra(**kw):
    kw.setdefault("n", 1)
    kw.setdefault("rank", 1)
    kw.setdefault("p", (2,) * kw["n"])
    kw.setdefault("t", ((1,) + (0,) * (kw["rank"] - 1),) * kw["n"])
    return WeylAlgebra(**kw)


def test_power_rule():
    A = make_algebra()
    assert act(A.D(1), A.x(1, 2)) == A.x(1) * 2
    assert act(A.D(1, 3), A.x(1, 3)) == A.one * 6
    assert act(A.D(1, 4), A.x(1, 3)).is_zero


def test_factorials():
    A = make_algebra()
    for n in range(1, 7):
        rep = noetherian_witness(A, n)
        assert rep.certified
        assert rep.as_pair() == (Fraction(math.factorial(n)), Fraction(0))
    assert noetherian_witness(A, 3).as_text() == "(6, 0)"


def test_the_witness_pair_holds_in_the_polynomial_weyl_algebra():
    """``noetherian_witness`` certifies D^n notin A*D^(n+1), so the left
    ideal A*D^(n+1) lies strictly inside A*D^n.  The same pair is certified
    here in the polynomial Weyl algebra A_1 = Q[x][D; d/dx], acting on Q[x]
    by plain derivatives without the kernel: D^n and D^(n+1) take x^n to n!
    and 0, and D^n = a*D^(n+1) would give n! = a(0) = 0.  A_1 is Noetherian
    on both sides: a differential operator ring R[D; delta] over a right
    (left) Noetherian ring R is right (left) Noetherian (McConnell and
    Robson, Noncommutative Noetherian Rings, 1.2).  So the pair witnesses a
    strict inclusion, not a failure of the ascending chain condition."""

    def derivative(poly):
        return {k - 1: k * c for k, c in poly.items() if k}

    def apply_d(k, poly):
        for _ in range(k):
            poly = derivative(poly)
        return poly

    A = make_algebra()
    poly_slots = {A.slot("gamma", 0), A.slot("d", 0)}
    for n in range(1, 7):
        # the kernel's operands are polynomial: only the x and D exponents are set
        for P in (A.x(1, n), A.D(1, n), A.D(1, n + 1)):
            assert all({i for i, v in enumerate(e) if v} <= poly_slots for e in P.terms)
        values = tuple(apply_d(k, {n: 1}) for k in (n, n + 1))
        assert values == ({0: math.factorial(n)}, {})
        pair = (Fraction(math.factorial(n)), Fraction(0))
        assert noetherian_witness(A, n).as_pair() == pair


def test_act_on_exponential():
    A = make_algebra(rank=2, p=(1,), t=((0, 0),))
    e = A.exp_sym(1, (0, 1))
    # D e^{g_2 x} = g_2 e^{g_2 x}; acting twice squares the eigenvalue
    g2 = A.field.generator(2)
    assert act(A.D(1), e) == e * g2
    assert act(A.D(1, 2), e) == e * (g2 * g2)


def test_act_requires_function():
    A = make_algebra()
    with pytest.raises(NotAFunction):
        act(A.D(1), A.D(1))


@pytest.mark.parametrize("twin", ["classical", "hbar", "t_shift"])
def test_homomorphism_oracle(twin, monkeypatch):
    A = make_algebra(n=2, rank=2, p=(2, 1), t=((1, 0), (0, 1)))
    if twin == "hbar":
        A = A.with_hbar(2)
    elif twin == "t_shift":
        A = A.with_t_shift(2)
    rng = random.Random(23)
    cases = []
    for _ in range(25):
        P = random_element(A, rng, max_terms=3, bound=2)
        Q = random_element(A, rng, max_terms=3, bound=2)
        f = random_function_element(A, rng, max_terms=2, bound=2)
        cases.append((P, Q, f, A.mul(P, Q)))

    # the action is the oracle for the product, so it must not use it
    def refuse(*args):
        raise AssertionError("act called WeylAlgebra.mul")

    monkeypatch.setattr(WeylAlgebra, "mul", refuse)
    for P, Q, f, PQ in cases:
        assert act(PQ, f) == act(P, act(Q, f))


def augment(P: Element) -> Element:
    """Drop every term carrying a derivative (evaluation against the constant 1)."""
    n = P.algebra.signature.n
    return P._with({e: c for e, c in P.terms.items() if not any(e[-n:])})


def test_act_equals_augment_of_mul():
    # the closed form of the action: normal order, then evaluate at 1
    A = make_algebra()
    rng = random.Random(29)
    for _ in range(20):
        P = random_element(A, rng, max_terms=3, bound=2)
        f = random_function_element(A, rng, max_terms=2, bound=2)
        assert act(P, f) == augment(A.mul(P, f))


def test_leibniz_on_functions():
    A = make_algebra()
    rng = random.Random(31)
    for _ in range(15):
        f = random_function_element(A, rng)
        g = random_function_element(A, rng)
        lhs = act(A.D(1), A.mul(f, g))
        rhs = A.mul(act(A.D(1), f), g) + A.mul(f, act(A.D(1), g))
        assert lhs == rhs


def test_probe_zero_and_nonzero():
    A = make_algebra()
    zero_in_disguise = A.mul(A.x(1), A.D(1)) - A.mul(A.D(1), A.x(1)) + A.one
    rep = faithfulness_probe(zero_in_disguise, maxdeg=3)
    assert rep.zero
    rep = faithfulness_probe(A.D(1), maxdeg=2)
    assert not rep.zero
    assert rep.witness_output == A.one


def test_probe_completeness_bound():
    # derivative exponents <= maxdeg make zero-detection a certificate
    A = make_algebra()
    rng = random.Random(37)
    for _ in range(10):
        P = random_element(A, rng, max_terms=3, bound=2)
        rep = faithfulness_probe(P, maxdeg=3)
        assert rep.zero == P.is_zero


@pytest.mark.parametrize("n", [1, 2, 3])
def test_probe_points_follow_the_sorted_grid(n):
    for K in range(6):
        grid = sorted(product(range(K + 1), repeat=n), key=lambda g: (sum(g), g))
        assert list(_graded_lex_points(n, K)) == grid


def test_probe_points_are_lazy():
    # the first points of a 10^9-wide grid come without building the grid
    first = list(islice(_graded_lex_points(2, 10**9), 4))
    assert first == [(0, 0), (0, 1), (1, 0), (0, 2)]
    A = make_algebra(n=2)
    rep = faithfulness_probe(A.x(1) * A.D(1), maxdeg=10**9)
    assert rep.witness_input == A.x(1) and rep.witness_output == A.x(1)


def reduce_to_constant(f: Element) -> tuple[int, ...]:
    """Derivative multi-index g with act(D^g, f) a nonzero constant, which
    states simplicity: every nonzero polynomial reduces to a constant.

    Defined for genuine polynomials only: no E factors, no exponential
    factors, and all power exponents natural multiples of the unit generator.
    Chooses the graded-lex maximal exponent; every other exponent of equal or
    lower total degree then loses some variable, so the value is g! times the
    leading coefficient.
    """
    algebra = f.algebra
    n, r = algebra.signature.n, algebra.signature.rank
    if f.is_zero:
        raise ZeroElement("cannot reduce the zero element")
    exps = []
    for e in f.terms:
        # an exponent tuple is a | beta | gamma | d, with n * r entries per lattice part
        if any(e[:n]) or any(e[-n:]):
            raise UnsupportedElement("only polynomial elements reduce to constants")
        if any(e[n : n + n * r]):
            raise UnsupportedElement("exponential factors never reduce to constants")
        gamma_rows = [e[n + n * r + i * r : n + n * r + (i + 1) * r] for i in range(n)]
        for row in gamma_rows:
            if any(row[1:]) or row[0] < 0:
                raise UnsupportedElement("power exponents must be natural multiples of the unit")
        exps.append(tuple(row[0] for row in gamma_rows))
    gamma = max(exps, key=lambda e: (sum(e), e))
    op = algebra.one
    for i, gi in enumerate(gamma, start=1):
        op = op * algebra.D(i, gi)
    got = act(op, f).as_scalar()
    if got is None or got.is_zero:
        raise UnsupportedElement("reduction did not land on a nonzero constant")
    return gamma


def test_reduce_to_constant():
    A = make_algebra()
    f = A.x(1, 2) + A.x(1)
    assert reduce_to_constant(f) == (2,)
    assert reduce_to_constant(A.one) == (0,)
    B = make_algebra(n=2)
    g = B.x(1, 2) * B.x(2) + B.x(1)
    assert reduce_to_constant(g) == (2, 1)


def test_reduce_rejections():
    A = make_algebra()
    with pytest.raises(UnsupportedElement):
        reduce_to_constant(A.exp_sym(1, 1))
    with pytest.raises(UnsupportedElement):
        reduce_to_constant(A.E(1))
    with pytest.raises(UnsupportedElement):
        reduce_to_constant(A.x(1, -1))
    with pytest.raises(ZeroElement):
        reduce_to_constant(A.zero)


@pytest.mark.parametrize("kind", ["n1", "n2", "t_shift"])
def test_power_oracle(kind, monkeypatch):
    # t = 1 (or t = (1, 0), (0, 1)) is nonzero in every case
    A = {
        "n1": make_algebra(),
        "n2": make_algebra(n=2, rank=2, p=(2, 1), t=((1, 0), (0, 1))),
        "t_shift": make_algebra().with_t_shift(2),
    }[kind]
    rng = random.Random(f"power-oracle:{kind}")
    mixed = A.E(1) + A.D(1) + A.x(A.signature.n) * A.D(A.signature.n)
    operators = [mixed] + [random_element(A, rng, max_terms=3, bound=2) for _ in range(4)]
    cases = []
    for P in operators:
        f = random_function_element(A, rng, max_terms=2, bound=2)
        cases.append((P, f, [P**k for k in range(5)]))

    def refuse(*args):
        raise AssertionError("act called WeylAlgebra.mul")

    monkeypatch.setattr(WeylAlgebra, "mul", refuse)
    for P, f, powers in cases:
        assert act(powers[0], f) == f
        for k in range(1, 5):
            assert act(powers[k], f) == act(P, act(powers[k - 1], f))

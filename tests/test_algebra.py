"""Normal-form arithmetic: defining relations, associativity, derivative rules."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from expweyl.algebra import Monomial, Signature, WeylAlgebra
from expweyl.errors import NegativePower, NotAFunction, SignatureMismatch
from expweyl.sampling import random_element, random_function_element


def make_algebra(**kw):
    kw.setdefault("n", 1)
    kw.setdefault("rank", 1)
    kw.setdefault("p", (2,) * kw["n"])
    kw.setdefault("t", ((1,) + (0,) * (kw["rank"] - 1),) * kw["n"])
    return WeylAlgebra(**kw)


def test_d_x_relation():
    A = make_algebra()
    assert A.commutator(A.D(1), A.x(1)) == A.one
    assert A.D(1) * A.x(1) == A.x(1) * A.D(1) + A.one


def test_commuting_pairs():
    A = make_algebra(n=2, p=(1, 1), t=((0,), (0,)))
    assert A.commutator(A.x(1), A.x(2)).is_zero
    assert A.commutator(A.D(1), A.D(2)).is_zero
    assert A.commutator(A.D(1), A.x(2)).is_zero
    assert A.commutator(A.exp_sym(1, 2), A.E(2)).is_zero
    assert A.commutator(A.exp_sym(1, 1), A.x(1, 3)).is_zero


def test_exp_relation():
    A = make_algebra(rank=2, p=(1,), t=((0, 0),))
    alpha = (2, 0)
    e = A.exp_sym(1, alpha)
    expected = e * A.field.embed(A.lattice(alpha))
    assert A.commutator(A.D(1), e) == expected
    # symbolic exponent: [D, e^{g_2 x}] = g_2 e^{g_2 x}
    e2 = A.exp_sym(1, (0, 1))
    assert A.commutator(A.D(1), e2) == e2 * A.field.generator(2)


def test_e_relation_p2_t1():
    # dE/dx with p=2, t=1 is (2x + x^2) e^x E: coefficients 2 and 1
    A = make_algebra()
    lhs = A.commutator(A.D(1), A.E(1))
    ex = A.exp_sym(1, 1)
    assert lhs == (A.x(1) * 2 + A.x(1, 2)) * ex * A.E(1)
    d = A.diff_function(A.E(1), 1)
    assert d == lhs
    coeffs = sorted(c.as_rational() for c in d.terms.values())
    assert coeffs == [Fraction(1), Fraction(2)]


def test_e_relation_p1_t0():
    # p=1, t=0 makes E behave like e^x: dE/dx = E
    A = make_algebra(p=(1,), t=((0,),))
    assert A.diff_function(A.E(1), 1) == A.E(1)
    assert A.commutator(A.D(1), A.E(1, -2)) == A.E(1, -2) * (-2)


def test_second_derivative_products():
    A = make_algebra()
    x, D = A.x(1), A.D(1)
    assert D * D * x == x * D * D + D * 2
    assert (D**2) * (x**2) == x * x * D * D + x * D * 4 + A.one * 2


def test_pow_and_negative_power_errors():
    A = make_algebra()
    assert A.D(1) ** 0 == A.one
    assert A.D(1) ** 3 == A.D(1, 3)
    with pytest.raises(NegativePower):
        A.D(1, -1)
    with pytest.raises(NegativePower):
        A.x(1) ** (-2)


def test_signature_mismatch_errors():
    A = make_algebra()
    B = make_algebra()
    with pytest.raises(SignatureMismatch):
        A.x(1) + B.x(1)
    with pytest.raises(SignatureMismatch):
        A.mul(A.x(1), B.x(1))
    with pytest.raises(SignatureMismatch):
        A.x(3)
    with pytest.raises(SignatureMismatch):
        Signature(n=1, rank=1, p=(0,), t=((0,),))
    with pytest.raises(SignatureMismatch):
        Signature(n=1, rank=1, p=(1,), t=((0,),), t_shift=True)


def test_diff_requires_function():
    A = make_algebra()
    with pytest.raises(NotAFunction):
        A.diff_function(A.D(1), 1)


def test_diff_is_derivation():
    A = make_algebra(n=1, rank=2, p=(3,), t=((0, 1),))
    rng = random.Random(11)
    for _ in range(15):
        f = random_function_element(A, rng)
        g = random_function_element(A, rng)
        lhs = A.diff_function(A.mul(f, g), 1)
        rhs = A.mul(A.diff_function(f, 1), g) + A.mul(f, A.diff_function(g, 1))
        assert lhs == rhs


def test_diff_commutes_between_variables():
    A = make_algebra(n=2, rank=1, p=(2, 2), t=((1,), (0,)))
    rng = random.Random(5)
    for _ in range(10):
        f = random_function_element(A, rng)
        assert A.diff_function(A.diff_function(f, 1), 2) == A.diff_function(
            A.diff_function(f, 2), 1
        )


def test_mul_bilinear_and_unit():
    A = make_algebra()
    rng = random.Random(3)
    for _ in range(10):
        P = random_element(A, rng)
        Q = random_element(A, rng)
        R = random_element(A, rng)
        assert A.mul(P, A.one) == P
        assert A.mul(A.one, P) == P
        assert A.mul(P + Q, R) == A.mul(P, R) + A.mul(Q, R)
        assert A.mul(P, Q + R) == A.mul(P, Q) + A.mul(P, R)
        assert A.mul(P * 3, Q) == A.mul(P, Q) * 3


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_associativity_rank1(seed):
    A = _ASSOC_ALGEBRA
    rng = random.Random(seed)
    P = random_element(A, rng, max_terms=3, bound=2)
    Q = random_element(A, rng, max_terms=3, bound=2)
    R = random_element(A, rng, max_terms=3, bound=2)
    assert A.mul(A.mul(P, Q), R) == A.mul(P, A.mul(Q, R))


_ASSOC_ALGEBRA = make_algebra(p=(2,), t=((1,),))


def test_associativity_rank2_two_vars():
    A = make_algebra(n=2, rank=2, p=(2, 3), t=((1, 0), (0, 1)))
    rng = random.Random(17)
    for _ in range(8):
        P = random_element(A, rng, max_terms=3, bound=2)
        Q = random_element(A, rng, max_terms=3, bound=2)
        R = random_element(A, rng, max_terms=3, bound=2)
        assert A.mul(A.mul(P, Q), R) == A.mul(P, A.mul(Q, R))


def test_negative_e_powers_cancel():
    A = make_algebra()
    assert A.mul(A.E(1, 2), A.E(1, -2)) == A.one
    assert A.mul(A.exp_sym(1, 3), A.exp_sym(1, -3)) == A.one
    assert A.mul(A.x(1, 2), A.x(1, -2)) == A.one


def test_all_relations_signature_sweep():
    # compact version of the acceptance relation sweep
    for n, rank, pval in product((1, 2), (1, 2), (1, 2)):
        tvals = [(0,) * rank, (1,) + (0,) * (rank - 1)]
        if rank == 2:
            tvals.append((0, 1))
        for tv in tvals:
            A = WeylAlgebra(n=n, rank=rank, p=(pval,) * n, t=(tv,) * n)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    delta = A.one if i == j else A.zero
                    assert A.commutator(A.D(i), A.x(j)) == delta
                    assert A.commutator(A.x(i), A.x(j)).is_zero
                    assert A.commutator(A.D(i), A.D(j)).is_zero
                    alpha = A.lattice((1,) * rank)
                    ee = A.exp_sym(j, alpha)
                    expect = ee * A.field.embed(alpha) if i == j else A.zero
                    assert A.commutator(A.D(i), ee) == expect


def test_hbar_twin_truncates():
    A = make_algebra().with_hbar(1)
    hb = A.field.hbar
    P = A.one + A.D(1) * hb
    Q = A.one - A.D(1) * hb
    # (1 + hbar D)(1 - hbar D) = 1 mod hbar^2
    assert A.mul(P, Q) == A.one


def test_t_shift_order_zero_is_classical():
    A = make_algebra().with_t_shift(0)
    B = make_algebra()
    dA = A.diff_function(A.E(1), 1)
    dB = B.diff_function(B.E(1), 1)
    assert {m: str(c) for m, c in dA.terms.items()} == {
        m: str(c) for m, c in dB.terms.items()
    }


def test_t_shift_has_nonzero_order_hbar_term():
    A = make_algebra().with_t_shift(2)
    d = A.diff_function(A.E(1), 1)
    assert any(not c.hbar_coefficient(1).is_zero for c in d.terms.values())


def test_monomial_identity_and_sorting():
    m1 = Monomial((1, 2, 0, 3), 1)
    m2 = Monomial((1, 2, 0, 3), 1)
    assert m1 == m2 and hash(m1) == hash(m2)
    assert m1.filtration_order() == 1 + 2 + 0 + 3
    assert m1.function_part().d == (0,)


def test_power_squares_and_multiplies(monkeypatch):
    A = make_algebra()
    P = A.x(1) + A.one
    calls = []
    mul = WeylAlgebra.mul

    def counted(self, left, right):
        calls.append(1)
        return mul(self, left, right)

    monkeypatch.setattr(WeylAlgebra, "mul", counted)
    Q = P**64
    assert len(calls) <= 12
    assert Q == sum((A.x(1, k) * math.comb(64, k) for k in range(65)), A.zero)


@pytest.mark.parametrize("kind", ["rank1", "rank2", "hbar"])
def test_power_matches_repeated_product(kind):
    A = {
        "rank1": make_algebra(),
        "rank2": make_algebra(rank=2),
        "hbar": make_algebra().with_hbar(2),
    }[kind]
    rng = random.Random(f"power:{kind}")
    P = random_element(A, rng, max_terms=2, bound=1, allow_e=False)
    s = A.field.generator(A.field.rank) + Fraction(1, 2)
    if kind == "hbar":
        s = s + A.field.hbar
    P_k, s_k = A.one, A.field.one
    for k in range(10):
        assert P**k == P_k
        assert s**k == s_k
        P_k, s_k = A.mul(P_k, P), s_k * s


def _count_products(monkeypatch):
    calls = []
    mul = WeylAlgebra.mul

    def counted(self, left, right):
        calls.append(1)
        return mul(self, left, right)

    monkeypatch.setattr(WeylAlgebra, "mul", counted)
    return calls


def test_operator_power_multiplies_on_the_left(monkeypatch):
    A = make_algebra()
    P = A.E(1) + A.D(1)
    expected = [A.one, P]
    for _ in range(8):
        expected.append(A.mul(P, expected[-1]))
    calls = _count_products(monkeypatch)
    for k in range(1, 10):
        calls.clear()
        assert P**k == expected[k]
        assert len(calls) == k - 1


def test_derivative_powers_still_square(monkeypatch):
    # with no function part the factors commute and a product does no
    # derivative work, so squaring stays cheap
    A = make_algebra()
    P = A.D(1) + A.D(1, 2)
    expected = A.one
    for _ in range(64):
        expected = A.mul(expected, P)
    calls = _count_products(monkeypatch)
    assert P**64 == expected
    assert len(calls) <= 12


def test_pure_derivative_right_terms_take_no_derivatives():
    # D^a * D^b: the Leibniz sum D^a (1 D^b) = sum binom(a, k) (D^k 1) D^{a-k+b}
    # keeps only k = 0, so no derivative of the unit is taken or cached
    A = WeylAlgebra(n=2, rank=1, p=(2, 2), t=((1,), (0,)))
    P = A.E(1) * A.D(1, 40) * A.D(2, 3) * 2 + A.x(2) * A.D(2)
    Q = A.D(1, 7) * A.D(2, 40) * Fraction(1, 3)
    want = (
        A.E(1) * A.D(1, 47) * A.D(2, 43) * Fraction(2, 3)
        + A.x(2) * A.D(1, 7) * A.D(2, 41) * Fraction(1, 3)
    )
    A._diff_cache.clear()
    A._diff_pow_cache.clear()
    A._kbinom_cache.clear()
    assert P * Q == want
    assert not (A._diff_cache or A._diff_pow_cache or A._kbinom_cache)
    D = A.D(1, 50000)
    assert D * D == A.D(1, 100000)

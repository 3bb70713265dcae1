"""Normal-form arithmetic: defining relations, associativity, derivative rules."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from expweyl.algebra import Monomial, Signature, WeylAlgebra, filtration_order
from expweyl.errors import DivisionByZero, NegativePower, NotAFunction, SignatureMismatch
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
    coeffs = sorted(c.as_rational() for _, c in d.sorted_terms())
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


def test_division_by_scalars_only():
    A = make_algebra(rank=2, t=((0, 0),))
    P = A.x(1) * A.D(1) + 2 * A.E(1)
    g2 = A.field.generator(2)
    assert P / 2 == P * Fraction(1, 2)
    assert P / Fraction(1, 3) == 3 * P
    assert P / A.scalar_element(g2) == P * (A.field.one / g2)
    with pytest.raises(NotAFunction):
        P / A.x(1)
    with pytest.raises(DivisionByZero):
        P / 0


def test_scalar_minus_element():
    A = make_algebra()
    P = A.x(1) * A.D(1) + A.E(1)
    assert 1 - P == A.one - P
    assert Fraction(1, 2) - P == A.scalar_element(Fraction(1, 2)) - P


def test_lattice_elements_are_int_tuples():
    A = make_algebra(rank=3, t=((0, 0, 0),))
    assert A.lattice(3) == (3, 0, 0)
    assert A.lattice([1, -2, 0]) == (1, -2, 0)
    assert A.x(1, [1, -2, 0]) == A.x(1, (1, -2, 0))
    assert A.exp_sym(1, (0, 0, 0)) == A.one


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
    assert {m.exps: str(c) for m, c in dA.sorted_terms()} == {
        m.exps: str(c) for m, c in dB.sorted_terms()
    }


def test_t_shift_has_nonzero_order_hbar_term():
    A = make_algebra().with_t_shift(2)
    d = A.diff_function(A.E(1), 1)
    assert any(A.field.hbar_coefficient(c.pay, 1) for _, c in d.sorted_terms())


@pytest.mark.parametrize(
    "kw, folded",
    [
        ({"p": (1,), "t": ((0,),)}, (1,)),
        ({"rank": 2, "p": (1,), "t": ((0, 0),)}, (1,)),
        ({"n": 2, "p": (1, 1), "t": ((0,), (0,))}, (1, 2)),
        ({"n": 2, "p": (1, 2), "t": ((0,), (0,))}, (1,)),
    ],
    ids=["rank1", "rank2", "n2", "n2-p12"],
)
def test_a_tower_with_p_1_and_t_0_is_the_exponential_exp_g1_x(kw, folded):
    """With p_i = 1 and t_i = 0, E_i = exp(x_i e^{0 x_i}) is exp(g_1 x_i),
    and the algebra keeps one monomial for it: E_i^k - exp(k x_i) is zero,
    also from a tuple given to ``from_term`` unfolded, and exp_degree(E_i)
    is g_1.  A t-shift with hbar deforms E_i to
    exp(x_i e^{hbar x_i^2}), so that twin keeps E_i apart; at order 0 the
    shift vanishes."""
    from expweyl.deformation import t_shift_deform
    from expweyl.grading import exp_degree

    A = make_algebra(**kw)
    g1 = A.lattice(1)
    for i in range(1, A.signature.n + 1):
        if i not in folded:
            assert A.E(i) != A.exp_sym(i, 1)
            continue
        for k in (1, 2, -3):
            assert (A.E(i, k) - A.exp_sym(i, k)).is_zero
            # a caller-built tuple with the E power in its a slot folds too
            unfolded = list(A.one_monomial)
            unfolded[A.slot("a", i - 1)] = k
            assert (A.from_term(tuple(unfolded)) - A.exp_sym(i, k)).is_zero
            assert (A.E(i, k) * A.exp_sym(i, -k)) == A.one
        assert exp_degree(A.E(i)) == g1
        assert A.commutator(A.D(i), A.E(i)) == A.E(i)
        assert A.with_hbar(2).E(i) == A.with_hbar(2).exp_sym(i, 1)
        assert A.with_t_shift(0).E(i) == A.with_t_shift(0).exp_sym(i, 1)
        shifted = A.with_t_shift(2)
        assert shifted.E(i) != shifted.exp_sym(i, 1)
        # the classical part of the shifted rule is read back into A's form
        rep = t_shift_deform(A, 2, var=i)
        assert rep.classical == A.mul(A.D(i), A.E(i))
        assert not rep.first_order.is_zero


def test_monomial_identity_and_sorting():
    e = (1, 2, 0, 3)
    m = Monomial(e, 1)
    assert (m.a, m.beta, m.gamma, m.d) == ((1,), ((2,),), ((0,),), (3,))
    assert filtration_order(e, 1) == 1 + 2 + 0 + 3


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
    assert P * Q == want
    assert not (A._diff_cache or A._diff_pow_cache)
    D = A.D(1, 50000)
    assert D * D == A.D(1, 100000)


# the four signatures of the benchmark's associativity workload
CACHE_SIGNATURES = [
    {},
    {"rank": 2, "t": ((0, 1),)},
    {"n": 2, "p": (2, 3), "t": ((1,), (0,))},
    {"t_shift": True, "hbar_order": 2},
]


@pytest.mark.parametrize("kw", CACHE_SIGNATURES, ids=["rank1", "rank2", "n2_tower", "tshift2"])
def test_derivative_caches_hold_plain_data_under_their_call_keys(kw):
    """The caches hold (exponent tuple, payload) pairs, never a Monomial or
    a Scalar, under the keys (i0, e) and (e, k) of the calls
    _diff_mono(i0, e) and _diff_pow_mono(e, k): a traced run counts cache
    hits by looking those keys up."""
    from expweyl.config import SessionConfig, build_algebra
    from expweyl.scalars import Scalar

    A = build_algebra(SessionConfig(**kw))
    rng = random.Random(5)
    for _ in range(12):
        P, Q, R = (random_element(A, rng, max_terms=4, bound=1) for _ in range(3))
        assert (P * Q) * R == P * (Q * R)
    n = A.signature.n
    for cache in (A._diff_cache, A._diff_pow_cache):
        assert cache
        for value in cache.values():
            for e, c in value:
                assert type(e) is tuple and all(type(x) is int for x in e)
                assert len(e) == len(A.one_monomial)
                assert not isinstance(c, (Monomial, Scalar)) and c
    # a derivative has no D part; a product D^d * e has D parts <= d, and
    # its first row is e with d in its D slots and the unit coefficient
    for value in A._diff_cache.values():
        assert not any(any(e[-n:]) for e, _ in value)
    for (f, d), value in A._diff_pow_cache.items():
        assert all(x <= di for e, _ in value for x, di in zip(e[-n:], d))
        assert value[0][0] == f[:-n] + d and value[0][1] is A.field.ops.one
        assert all(A._exps[e] is e for e, _ in value)
    e = next(iter(A._diff_pow_cache))[0]
    A._diff_cache.clear()
    A._diff_pow_cache.clear()
    k = (2,) + (0,) * (n - 1)
    A._diff_mono(0, e)
    A._diff_pow_mono(e, k)
    assert (0, e) in A._diff_cache
    assert (e, k) in A._diff_pow_cache


def _leibniz_expansion(A, f, d):
    """sum over k <= d of binom(d, k) (D^k f) D^(d-k) for the function
    monomial f, each D^k f taken by repeated diff_function: one more
    derivative, in k's last nonzero index, of a D^k f found before."""
    n = A.signature.n
    out = A.zero
    derivatives = {}
    for k in product(*(range(di + 1) for di in d)):
        if any(k):
            i = max(j for j, kj in enumerate(k) if kj)
            g = A.diff_function(derivatives[k[:i] + (k[i] - 1,) + k[i + 1 :]], i + 1)
        else:
            g = A.from_term(f)
        derivatives[k] = g
        d_k = tuple(di - ki for di, ki in zip(d, k))
        binom = math.prod(math.comb(di, ki) for di, ki in zip(d, k))
        out = out + A.zero._with({e[:-n] + d_k: c for e, c in g.terms.items()}) * binom
    return out


@pytest.mark.parametrize("kw", CACHE_SIGNATURES, ids=["rank1", "rank2", "n2_tower", "tshift2"])
def test_each_leibniz_product_is_one_table_equal_to_its_expansion(kw):
    """_diff_pow_mono(f, d) is the normal-ordered product D^d * f: its rows,
    read as an element, are the Leibniz expansion with the binomials, one
    row per exponent tuple.  A first-order table D_i * f is (f D_i, 1)
    followed by the _diff_cache entry of (i, f), the same row objects."""
    from expweyl.config import SessionConfig, build_algebra

    A = build_algebra(SessionConfig(**kw))
    n = A.signature.n
    rng = random.Random(31)
    if n == 1:
        ds = [(j,) for j in range(1, 5)]
    else:
        ds = [d for d in product(range(3), repeat=2) if any(d)]
    for _ in range(4):
        for f in random_function_element(A, rng, max_terms=3, bound=2).terms:
            for d in ds:
                table = A._diff_pow_mono(f, d)
                assert len({e for e, _ in table}) == len(table)
                assert A.zero._with(dict(table)) == _leibniz_expansion(A, f, d)
                if sum(d) == 1:
                    rows = A._diff_cache[(d.index(1), f)]
                    assert table[0] == (f[:-n] + d, A.field.ops.one)
                    assert len(table) == len(rows) + 1
                    assert all(got is row for got, row in zip(table[1:], rows))


def test_a_high_derivative_power_caches_one_table_per_right_monomial():
    """D_1^200 * (x_1^3 + E_1^2) equals its expansion and adds one table per
    monomial of the right factor, keyed (f, (200,)): the derivatives in
    between are not kept."""
    from expweyl.config import SessionConfig, build_algebra

    A = build_algebra(SessionConfig())
    right = A.x(1, 3) + A.E(1, 2)
    before = set(A._diff_pow_cache)
    product_ = A.D(1, 200) * right
    assert set(A._diff_pow_cache) - before == {(f, (200,)) for f in right.terms}
    assert product_ == sum((_leibniz_expansion(A, f, (200,)) for f in right.terms), A.zero)


def _b_without_the_memo(c):
    """Hochschild b written out with one alg.mul per adjacent pair; the
    Chain constructor drops the tensors with the unit past slot 0."""
    from expweyl.homology import Chain

    alg, n = c.algebra, c.degree
    ops = alg.field.ops
    terms = {}
    for key, coeff in c.terms.items():
        placements = [(i % 2, key[i], key[i + 1], key[:i], key[i + 2 :]) for i in range(n)]
        placements.append((n % 2, key[n], key[0], (), key[1:n]))
        for neg, a, b, prefix, suffix in placements:
            prod = alg.mul(alg.from_term(a), alg.from_term(b))
            for e, ce in prod.terms.items():
                v = ops.mul(coeff, ce)
                k = prefix + (e,) + suffix
                terms[k] = ops.add(terms.get(k, ops.zero), ops.neg(v) if neg else v)
    return Chain(alg, n - 1, terms)


@pytest.mark.parametrize("kw", CACHE_SIGNATURES, ids=["rank1", "rank2", "n2_tower", "tshift2"])
def test_hochschild_b_reads_the_product_memo(kw, monkeypatch):
    """hochschild_b reads each monomial product from WeylAlgebra._mono_mul:
    it equals the sum of alg.mul products, b∘b = 0, the memo holds plain
    (exponent tuple, payload) pairs, and a repeated call multiplies nothing."""
    from expweyl.config import SessionConfig, build_algebra
    from expweyl.homology import hochschild_b, tensor_chain
    from expweyl.sampling import random_chain
    from expweyl.scalars import Scalar

    A = build_algebra(SessionConfig(**kw))
    rng = random.Random(11)
    unit = A.one_monomial
    chains = [random_chain(A, rng, degree) for degree in (1, 2, 3) for _ in range(4)]
    # D x = x D + 1: the unit lands in slot 1 and the tensor is degenerate
    chains.append(tensor_chain([A.x(1), A.D(1), A.x(1)]))
    for c in chains:
        bc = hochschild_b(c)
        assert bc == _b_without_the_memo(c)
        assert all(unit not in key[1:] for key in bc.terms)
        if c.degree >= 2:
            assert hochschild_b(bc).is_zero
    assert A._mono_mul_cache
    n = len(A.one_monomial)
    for (a, b), pairs in A._mono_mul_cache.items():
        for e in (a, b):
            assert type(e) is tuple and len(e) == n and all(type(x) is int for x in e)
        for e, c in pairs:
            assert type(e) is tuple and len(e) == n and all(type(x) is int for x in e)
            assert not isinstance(c, (Monomial, Scalar)) and c

    calls = []
    mul = WeylAlgebra.mul
    monkeypatch.setattr(WeylAlgebra, "mul", lambda self, P, Q: calls.append(1) or mul(self, P, Q))
    for c in chains:
        hochschild_b(c)
    assert calls == []


def _non_unit_scalars(A):
    """Coefficients other than one: rationals, a symbol at rank >= 2, an hbar series."""
    F = A.field
    cs = [F.from_rational(Fraction(-3, 2)), F.from_rational(2), F.from_rational(-1)]
    if F.rank >= 2:
        cs.append(F.from_rational(Fraction(5, 3)) * F.generator(2))
    if F.hbar_order:
        cs.append(F.hbar + F.from_rational(Fraction(1, 2)))
    return cs


@pytest.mark.parametrize("kw", CACHE_SIGNATURES, ids=["rank1", "rank2", "n2_tower", "tshift2"])
def test_hochschild_b_reads_each_tensor_image_from_the_algebra_memo(kw, monkeypatch):
    """b of each basis tensor is kept per algebra as plain (chain key,
    payload) pairs: b of chains with non-unit coefficients equals the sum of
    alg.mul products, a new chain over seen tensors multiplies no monomials,
    and an hbar twin keeps its own memo."""
    from expweyl.config import SessionConfig, build_algebra
    from expweyl.homology import Chain, hochschild_b
    from expweyl.sampling import random_chain
    from expweyl.scalars import Scalar

    A = build_algebra(SessionConfig(**kw))
    F = A.field
    rng = random.Random(23)
    cs = _non_unit_scalars(A)

    def rescaled(c, alg=A):
        return Chain(alg, c.degree, {k: rng.choice(cs) * Scalar(F, v) for k, v in c.terms.items()})

    chains = [rescaled(random_chain(A, rng, degree)) for degree in (1, 2, 3) for _ in range(4)]
    for c in chains:
        assert hochschild_b(c) == _b_without_the_memo(c)
    memo = A._hochschild_cache
    assert set(memo) == {key for c in chains for key in c.terms}
    for key, image in memo.items():
        assert type(image) is tuple
        for k, v in image:
            assert type(k) is tuple and len(k) == len(key) - 1
            assert all(type(e) is tuple and all(type(x) is int for x in e) for e in k)
            assert not isinstance(v, (Monomial, Scalar)) and v

    # one chain per degree over every tensor seen, with fresh coefficients
    fresh = [rescaled(sum((c for c in chains if c.degree == d), Chain(A, d, {}))) for d in (1, 2, 3)]
    expected = [_b_without_the_memo(c) for c in fresh]
    calls = []
    for name in ("mul", "_mono_mul"):
        orig = getattr(WeylAlgebra, name)
        monkeypatch.setattr(WeylAlgebra, name, lambda self, a, b, f=orig: calls.append(1) or f(self, a, b))
    assert [hochschild_b(c) for c in fresh] == expected
    assert calls == []
    monkeypatch.undo()

    twin = A.with_hbar((A.signature.hbar_order or 0) + 1)
    assert twin._hochschild_cache is not memo
    before = dict(memo)
    for c in chains:
        lifted = Chain(twin, c.degree, {k: twin.field.ops.lift(F.ops.coeffs(v)) for k, v in c.terms.items()})
        assert hochschild_b(lifted) == _b_without_the_memo(lifted)
    assert set(twin._hochschild_cache) == set(before)
    assert memo.keys() == before.keys() and all(memo[k] is v for k, v in before.items())

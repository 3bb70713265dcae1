"""Derivation brackets, spans, the CE differential, and Euler integration."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from expweyl import lie
from expweyl.algebra import WeylAlgebra, add_terms
from expweyl.errors import (
    DegreeZero,
    IntegrationFailed,
    NotAntisymmetric,
    NotClosed,
    NotHomogeneous,
    NotIndependent,
    SignatureMismatch,
    UnsupportedElement,
)
from expweyl.lie import (
    Cochain,
    DerivationElement,
    LieSpan,
    ad_degree,
    borel,
    ce_differential,
    euler_integrate,
    sl2like,
    witt_bracket,
    zero_cochain,
)
from expweyl.sampling import random_cochain, random_derivation


def make_algebra(**kw):
    kw.setdefault("n", 1)
    kw.setdefault("rank", 1)
    kw.setdefault("p", (2,) * kw["n"])
    kw.setdefault("t", ((1,) + (0,) * (kw["rank"] - 1),) * kw["n"])
    return WeylAlgebra(**kw)


def xpow_del(A, k, var=1):
    return DerivationElement(A.x(var, k) * A.D(var))


def unit(span, j):
    """The coordinates of basis element j."""
    return tuple(span.field.one if k == j else span.field.zero for k in range(span.dim))


def identity_cochain(span):
    """The 1-cochain x -> x."""
    return Cochain(span, 1, {(j,): unit(span, j) for j in range(span.dim)})


def test_witt_relations():
    # [x^{m+1} D, x^{n+1} D] = (n - m) x^{m+n+1} D
    A = make_algebra()
    for m in range(3):
        for n in range(3):
            got = witt_bracket(xpow_del(A, m + 1), xpow_del(A, n + 1))
            want = (n - m) * xpow_del(A, m + n + 1).as_element()
            assert got.as_element() == want


def test_bracket_basics():
    A = make_algebra()
    u = xpow_del(A, 1)
    assert witt_bracket(u, u).is_zero
    assert witt_bracket(xpow_del(A, 1), xpow_del(A, 0)).as_element() == -A.D(1)


def test_bracket_antisymmetry_and_jacobi_random():
    A = make_algebra(n=2, rank=2, p=(2, 2), t=((1, 0), (0, 1)))
    rng = random.Random(7)
    for _ in range(25):
        u = random_derivation(A, rng)
        v = random_derivation(A, rng)
        w = random_derivation(A, rng)
        assert (witt_bracket(u, v) + witt_bracket(v, u)).is_zero
        jac = (
            witt_bracket(witt_bracket(u, v), w)
            + witt_bracket(witt_bracket(v, w), u)
            + witt_bracket(witt_bracket(w, u), v)
        )
        assert jac.is_zero


def test_derivation_validation_and_conversion():
    A = make_algebra()
    P = A.x(1, 2) * A.D(1) + 3 * A.D(1)
    assert DerivationElement(P).as_element() == P
    # a zeroth-order part, a second-order term, a coefficient with a D in it
    for bad in (A.x(1), A.D(1) + 1, A.D(1, 2), A.D(1) * A.D(1) * A.x(1)):
        with pytest.raises(UnsupportedElement):
            DerivationElement(bad)


def test_span_presets_and_structure():
    A = make_algebra()
    b = borel(A)
    assert b.dim == 2 and b.degrees == (-1, 0)
    s = sl2like(A)
    assert s.dim == 3 and s.degrees == (-1, 0, 1)
    # [D, x^2 D] = 2 x D and [x D, x^2 D] = x^2 D
    one = s.field.one
    assert s.bracket_coords(0, 2) == (s.field.zero, one + one, s.field.zero)
    assert s.bracket_coords(1, 2) == (s.field.zero, s.field.zero, one)


def test_span_closure_and_independence_errors():
    A = make_algebra()
    # {x D, x^3 D} closes: [x D, x^3 D] = 2 x^3 D stays inside
    sp = LieSpan([xpow_del(A, 1), xpow_del(A, 3)])
    assert sp.dim == 2
    with pytest.raises(NotClosed):
        LieSpan([xpow_del(A, 0), xpow_del(A, 3)])
    with pytest.raises(NotIndependent):
        LieSpan([xpow_del(A, 1), 2 * xpow_del(A, 1)])


def test_coordinates_from_another_field_are_refused():
    s = sl2like(make_algebra())
    other = make_algebra().field
    zero, one = s.field.zero, s.field.one
    assert s.coords((1, Fraction(1, 2), zero)) == (one, one / 2, zero)
    with pytest.raises(SignatureMismatch):
        s.coords((one, other.one, zero))
    with pytest.raises(SignatureMismatch):
        Cochain(s, 1, {(0,): (other.one, zero, zero)})
    with pytest.raises(SignatureMismatch):
        s.coords(("1", 0, 0))


def test_cochain_alternating():
    A = make_algebra()
    s = sl2like(A)
    c1 = Cochain(s, 2, {(1, 0): unit(s, 2)})
    c2 = Cochain(s, 2, {(0, 1): tuple(-c for c in unit(s, 2))})
    assert c1 == c2
    assert c1.table == {(0, 1): tuple(-c for c in unit(s, 2))}
    with pytest.raises(NotAntisymmetric):
        Cochain(s, 2, {(1, 1): unit(s, 0)})


def test_ce_differential_degree_zero():
    # d(m)(u) = [u, m]; with m = D: d(m)(x D) = [x D, D] = -D
    A = make_algebra()
    s = sl2like(A)
    m = Cochain(s, 0, {(): unit(s, 0)})
    dm = ce_differential(m)
    assert dm.table[(1,)] == tuple(-c for c in unit(s, 0))


def test_structure_cochain_is_d_of_identity():
    A = make_algebra()
    for span in (borel(A), sl2like(A)):
        struct = Cochain(
            span,
            2,
            {
                (i, j): span.bracket_coords(i, j)
                for i in range(span.dim)
                for j in range(i + 1, span.dim)
            },
        )
        assert ce_differential(identity_cochain(span)) == struct
        assert ce_differential(struct).is_zero


def test_d_squared_zero():
    A = make_algebra()
    rng = random.Random(11)
    for span in (borel(A), sl2like(A)):
        for degree in (0, 1, 2):
            for _ in range(5):
                omega = random_cochain(span, rng, degree)
                assert ce_differential(ce_differential(omega)).is_zero


def direct_d(omega):
    """The CE differential evaluated term by term from omega's values, the
    formula of ``ce_differential`` without the span's matrix: per index
    tuple, the coordinates accumulate in the formula's order and are emitted
    sorted."""
    span, k = omega.span, omega.degree
    ops = span.field.ops
    values = {}
    for (key, j), c in omega.terms.items():
        values.setdefault(key, []).append((j, c))

    def value(args, sign):
        skey, s = lie._sorted_key(args)
        pairs = values.get(skey, ())
        return pairs if s * sign > 0 else [(j, ops.neg(v)) for j, v in pairs]

    terms = {}
    for idx in combinations(range(span.dim), k + 1):
        acc = {}
        for a in range(k + 1):
            for b in range(a + 1, k + 1):
                rest = idx[:a] + idx[a + 1 : b] + idx[b + 1 :]
                for m, cm in span._struct[(idx[a], idx[b])]:
                    pairs = value((m,) + rest, (-1) ** (a + b))
                    add_terms(acc, ((j, ops.mul(v, cm)) for j, v in pairs), ops.add)
            for j, v in value(idx[:a] + idx[a + 1 :], (-1) ** a):
                add_terms(acc, ((i, ops.mul(v, c)) for i, c in span._struct[(idx[a], j)]), ops.add)
        terms.update(((idx, j), v) for j, v in sorted(acc.items()) if v)
    return terms


CE_SPANS = {
    "borel": lambda: borel(make_algebra()),
    "sl2like": lambda: sl2like(make_algebra()),
    "sl2like-hbar": lambda: sl2like(make_algebra().with_hbar(2)),
}


@pytest.mark.parametrize("name", CE_SPANS)
def test_ce_differential_reads_one_matrix_per_degree_with_the_direct_terms(name):
    """d of seeded random cochains at degrees 0-3 equals the direct
    formula's terms, in the same order; each degree's matrix is built on
    the first call, and later calls read the same object and add nothing."""
    span = CE_SPANS[name]()
    field = span.field
    rng = random.Random(f"ce-matrix:{name}")
    scales = [field.one, field.from_rational(Fraction(-2, 3))]
    if field.hbar_order:
        scales.append(field.one + field.hbar * field.from_rational(3))
    assert span._ce_cache == {}
    matrices = {}
    for degree in range(4):
        for trial in range(6):
            omega = random_cochain(span, rng, degree) * scales[trial % len(scales)]
            if trial == 1 and omega.terms:
                # a sparse cochain: one index tuple only
                key = next(iter(omega.terms))[0]
                omega = omega._with({p: c for p, c in omega.terms.items() if p[0] == key})
            got = ce_differential(omega)
            assert list(got.terms.items()) == list(direct_d(omega).items())
            if trial == 0:
                matrices[degree] = span._ce_cache[degree]
                sizes = {k: len(m) for k, m in span._ce_cache.items()}
            assert span._ce_cache[degree] is matrices[degree]
            assert {k: len(m) for k, m in span._ce_cache.items()} == sizes
    assert set(span._ce_cache) == {0, 1, 2, 3}
    for k, matrix in span._ce_cache.items():
        for (key, j), column in matrix.items():
            assert len(key) == k and 0 <= j < span.dim
            assert all(len(idx) == k + 1 and 0 <= i < span.dim and v for (idx, i), v in column)


def test_euler_integrate_constructed_coboundary():
    # psi of ad-degree 2 supported on D -> x^2 D; omega = d(psi) is {(0,1): -2 b2}
    A = make_algebra()
    s = sl2like(A)
    psi = Cochain(s, 1, {(0,): unit(s, 2)})
    omega = ce_differential(psi)
    two = s.field.from_rational(2)
    assert omega.table == {(0, 1): (s.field.zero, s.field.zero, -two)}
    assert ad_degree(omega) == 2
    phi = euler_integrate(omega)
    assert ce_differential(phi) == omega
    assert phi == psi  # the uniform primitive recovers psi here


def test_euler_integrate_random_coboundaries():
    A = make_algebra()
    s = sl2like(A)
    rng = random.Random(23)
    found = 0
    while found < 8:
        d = rng.choice([-2, -1, 1, 2])
        psi = random_cochain(s, rng, 1, ad_degree=d)
        omega = ce_differential(psi)
        if omega.is_zero:
            continue
        phi = euler_integrate(omega)
        assert ce_differential(phi) == omega
        found += 1


def test_euler_integrate_zero_and_degree_zero():
    A = make_algebra()
    s = sl2like(A)
    assert euler_integrate(zero_cochain(s, 2)).is_zero
    struct = ce_differential(identity_cochain(s))
    with pytest.raises(DegreeZero):
        euler_integrate(struct)
    with pytest.raises(UnsupportedElement):
        euler_integrate(identity_cochain(s))
    with pytest.raises(NotHomogeneous):
        euler_integrate(zero_cochain(LieSpan([xpow_del(A, 1)]), 2))


def test_euler_integrates_a_cocycle_whose_degree_is_a_basis_degree():
    # ad-degree 1 equals the degree of a basis element of sl2like
    A = make_algebra()
    s = sl2like(A)
    psi1 = Cochain(s, 1, {(1,): unit(s, 2)})
    omega1 = ce_differential(psi1)
    assert ad_degree(omega1) == 1
    assert ce_differential(euler_integrate(omega1)) == omega1


def test_euler_integrate_refuses_a_non_cocycle():
    # omega(b0, b1) = b1 has ad-degree 1 but is not closed: no primitive exists
    s = sl2like(make_algebra())
    omega = Cochain(s, 2, {(0, 1): unit(s, 1)})
    assert ad_degree(omega) == 1 and not ce_differential(omega).is_zero
    with pytest.raises(IntegrationFailed) as err:
        euler_integrate(omega)
    assert not err.value.residual.is_zero


def test_ad_degree_mixed_raises():
    A = make_algebra()
    s = sl2like(A)
    mixed = Cochain(s, 1, {(0,): unit(s, 1), (1,): unit(s, 1)})
    with pytest.raises(NotHomogeneous):
        ad_degree(mixed)

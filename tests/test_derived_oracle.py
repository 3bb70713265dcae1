"""Euler integration, the symbol star and the associativity defect against
their object-level formulas.

``euler_integrate``, ``symbol_star`` and ``star_assoc_check`` build their
results on payload dicts.  Each test here writes out the same construction
with Cochain evaluation, Scalar arithmetic, hbar series and ``_Sparse`` sums,
and compares the two on seeded inputs.
"""

import random
from fractions import Fraction

import pytest

from expweyl.algebra import WeylAlgebra
from expweyl.deformation import (
    PolyDiffOp,
    gr_hbar_coefficient,
    star_assoc_check,
    star_cochain,
    symbol_star,
)
from expweyl.errors import IntegrationFailed, SignatureMismatch
from expweyl.grading import GrElement, full_symbol
from expweyl.lie import Cochain, ad_degree, borel, ce_differential, euler_integrate, sl2like
from expweyl.sampling import random_cochain, random_element, random_weyl_element

# -- euler_integrate -----------------------------------------------------------

ALGEBRAS = {
    "rank1": lambda: WeylAlgebra(),
    "rank2": lambda: WeylAlgebra(rank=2, t=((0, 1),)),
    "n2r2": lambda: WeylAlgebra(n=2, rank=2, p=(2, 2), t=((1, 0), (0, 1))),
    "hbar2": lambda: WeylAlgebra().with_hbar(2),
}


def old_primitive(omega):
    """phi = (1/d) * omega(h, -), read through Cochain.table."""
    span = omega.span
    h, d = span.grading, ad_degree(omega)
    table, zero = omega.table, span.zero_coords

    def omega_h(j):
        # the table is keyed by sorted argument tuples: omega(h, j) = -omega(j, h)
        if j < h:
            return tuple(-c for c in table.get((j, h), zero))
        return table.get((h, j), zero)

    return Cochain(span, 1, {(j,): omega_h(j) for j in range(span.dim)}) * Fraction(1, d)


@pytest.mark.parametrize("preset", [sl2like, borel], ids=["sl2like", "borel"])
@pytest.mark.parametrize("name", ALGEBRAS)
def test_euler_integrate_matches_the_cochain_formula(name, preset):
    span = preset(ALGEBRAS[name]())
    rng = random.Random(f"euler:{name}:{span.dim}")
    found = 0
    for _ in range(200):
        psi = random_cochain(span, rng, 1, ad_degree=rng.choice((-2, -1, 1, 2)))
        omega = ce_differential(psi)
        if omega.is_zero:
            continue
        phi = euler_integrate(omega)
        assert phi == old_primitive(omega)
        assert ce_differential(phi) == omega
        found += 1
        if found == 6:
            break
    assert found == 6


def test_euler_integrate_residual_is_the_old_residual():
    s = sl2like(WeylAlgebra())
    one, zero = s.field.one, s.field.zero
    omega = Cochain(s, 2, {(0, 1): (zero, one, zero)})
    with pytest.raises(IntegrationFailed) as err:
        euler_integrate(omega)
    want = ce_differential(old_primitive(omega)) - omega
    assert not want.is_zero
    assert err.value.residual == want


# -- symbol_star -----------------------------------------------------------------


def old_symbol_star(f, g, N, halg=None):
    """sum_k hbar^k * star_cochain(halg, k)(f, g), summed as symbols over halg."""
    algebra = f.algebra
    if halg is None:
        halg = algebra.with_hbar(N)
    if (f.terms or g.terms) and algebra.field.ops is not halg.field.base.ops:
        raise SignatureMismatch("the operands' payloads are not halg's")
    fl, gl = GrElement(halg, f.terms), GrElement(halg, g.terms)
    hb = halg.field.hbar
    out = fl * gl
    for k in range(1, N + 1):
        out = out + hb**k * star_cochain(halg, k)(fl, gl)
    return out


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("N", range(5))
def test_symbol_star_matches_the_series_formula(N, rank):
    A = WeylAlgebra(rank=rank, t=((0,) * rank,))
    rng = random.Random(f"star:{N}:{rank}")
    for _ in range(3):
        f = full_symbol(random_weyl_element(A, rng, max_terms=3, bound=3))
        g = full_symbol(random_element(A, rng, max_terms=3, bound=2))
        for halg in (None, A.with_hbar(N), A.with_hbar(N + 1)):
            assert symbol_star(f, g, N, halg) == old_symbol_star(f, g, N, halg)


def test_symbol_star_refuses_a_target_with_other_scalars_as_the_series_formula_does():
    A, B = WeylAlgebra(), WeylAlgebra(rank=2, t=((0, 0),))
    f, g = full_symbol(A.x(1)), full_symbol(A.D(1))
    for star in (symbol_star, old_symbol_star):
        with pytest.raises(SignatureMismatch):
            star(f, g, 2, B.with_hbar(2))
        assert star(f - f, g - g, 2, B.with_hbar(2)).is_zero


def test_symbol_star_evaluates_no_order_past_the_left_y_degree():
    """Order k takes k y-partials of f, so past f's largest total y-degree
    every order is zero: its cochain is not even built, and the result still
    has order N.  A hand-built y^-1 never runs out of y-partials."""
    A = WeylAlgebra(n=2, p=(2, 2), t=((0,), (0,)))
    f = full_symbol(A.D(1, 2) * A.x(2) + A.D(1) * A.D(2))
    g = full_symbol(A.x(1, 4) * A.x(2, 3) + A.x(1, 2))
    star = symbol_star(f, g, 6)
    assert set(A._star_cache) == {1, 2} and star.algebra.field.hbar_order == 6
    assert star == old_symbol_star(f, g, 6)
    B = WeylAlgebra()
    inverse = GrElement(B, {B.one_monomial[:-1] + (-1,): 1})
    g = full_symbol(B.x(1, 5))
    assert symbol_star(inverse, g, 4) == old_symbol_star(inverse, g, 4)
    assert not gr_hbar_coefficient(symbol_star(inverse, g, 4), 4, B).is_zero


# -- star_assoc_check ------------------------------------------------------------


def old_star_assoc_check(cochains, triples):
    """(first_nonzero, triple_index, residual) by +/- on symbols."""

    def ev(k, u, v):
        return u * v if k == 0 else cochains[k - 1](u, v)

    for idx, (f, g, h) in enumerate(triples):
        for s in range(1, len(cochains) + 1):
            defect = None
            for i in range(s + 1):
                left = ev(i, ev(s - i, f, g), h)
                defect = (left if defect is None else defect + left) - ev(i, f, ev(s - i, g, h))
            if not defect.is_zero:
                return s, idx, defect
    return None, None, None


def test_star_assoc_check_matches_the_symbol_sums():
    A = WeylAlgebra(rank=2, t=((0, 0),))
    x, y = full_symbol(A.x(1)), full_symbol(A.D(1))
    m1, m2 = star_cochain(A, 1), star_cochain(A, 2)
    bad = m2 + PolyDiffOp(A, [((("y", 1), ("y", 1)), (("x", 1),), 1)])
    rng = random.Random("assoc")
    for _ in range(4):
        triples = [tuple(full_symbol(random_element(A, rng, max_terms=2, bound=2)) for _ in range(3))
                   for _ in range(3)]
        for cochains, extra in (([m1, m2], []), ([m1, bad], [(y, y, x)]), ([bad], [(y, y, x)])):
            rep = star_assoc_check(cochains, triples + extra)
            first, index, residual = old_star_assoc_check(cochains, triples + extra)
            assert (rep.first_nonzero, rep.triple_index) == (first, index)
            assert rep.residual == residual
        assert rep.first_nonzero is not None and not rep.residual.is_zero

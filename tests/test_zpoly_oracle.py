"""The Z[g] helpers of scalars.py against sympy's sparse polynomials.

A side of a rank >= 2 pair is an int or a _Poly, a dict from exponent tuples
to nonzero ints.  Sums and products must equal sympy's PolyElement ``+`` and
``*``; ``_cof`` must return cofactors of sympy's gcd up to a unit; and the
pair that ``_pair`` builds from those cofactors must be sympy's ``cancel``
exactly: coprime with integer content included, and a positive lex-leading
coefficient on the denominator.  The oracle is sympy's ring over ZZ, built
here; the code under test reaches sympy only for gcds where neither side's
primitive part divides the other.  Forced pairs (p*q*c, p*k) and (p, -p) run
the exact-division path, and they run it with no ring at all; pairs
(p*q1, p*q2) with a planted common factor p, where neither side divides the
other, run sympy's gcd on a nonconstant gcd, which random pairs almost never
reach.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.rings import ring

from expweyl.scalars import _cof, _pair, _parts, _Poly, _prod, _RatPolyOps, _sum

RANKS = (2, 3)
SYMPY_RINGS = {r: ring(",".join(f"g_{j}" for j in range(2, r + 1)), ZZ)[0] for r in RANKS}


def polys(rank, max_terms=4):
    """Polynomials with a symbol over Z[g_2..g_r], in the helpers' form."""
    terms = st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * (rank - 1)),
        st.integers(-6, 6).filter(bool),
        min_size=1,
        max_size=max_terms,
    )
    return terms.filter(lambda t: any(any(m) for m in t)).map(_Poly)


def sides(rank, max_terms=4):
    """Nonzero ints and polynomials over Z[g_2..g_r], in the helpers' form."""
    return st.one_of(st.integers(-12, 12).filter(bool), polys(rank, max_terms), polys(rank, max_terms))


def to_sympy(side, rank):
    R = SYMPY_RINGS[rank]
    return R.ground_new(side) if type(side) is int else R.from_dict(dict(side))


def from_sympy(p):
    """sympy's element in the helpers' form: an int without symbols, else a dict."""
    return int(p.LC) if p.is_ground else dict(p)


def same(side, p):
    """side is p in the helpers' form: a constant as an int, terms as a _Poly."""
    want = from_sympy(p)
    return type(side) is (int if type(want) is int else _Poly) and side == want


@pytest.mark.parametrize("rank", RANKS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_sum_and_product_match_sympy(rank, data):
    a, b = data.draw(sides(rank)), data.draw(sides(rank))
    sa, sb = to_sympy(a, rank), to_sympy(b, rank)
    assert same(_prod(a, b), sa * sb)
    assert same(_sum(a, b), sa + sb)
    assert _sum(a, _prod(a, -1)) == 0


def check_cofactors(a, b, rank, ring_):
    g, x, y = _cof(a, b, ring_)
    sa, sb = to_sympy(a, rank), to_sympy(b, rank)
    sg, sx, sy = (to_sympy(v, rank) for v in (g, x, y))
    # exact cofactors of a gcd: g equals sympy's gcd up to a unit
    assert sg * sx == sa and sg * sy == sb
    assert sg in (sa.gcd(sb), -sa.gcd(sb))
    # the canonical pair of a/b is sympy's cancel, sign included
    num, den = _parts(_pair(x, y))
    snum, sden = sa.cancel(sb)
    assert same(num, snum) and same(den, sden)


@pytest.mark.parametrize("rank", RANKS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cofactors_of_random_pairs_match_sympy(rank, data):
    a, b = data.draw(sides(rank)), data.draw(sides(rank))
    check_cofactors(a, b, rank, _RatPolyOps(rank).ring)


@pytest.mark.parametrize("rank", RANKS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_divisible_pairs_take_the_exact_division(rank, data):
    """(p*q*c, p*k) and (p, -p): one side's primitive part divides the other,
    and the contents share a factor when p has content, so the cofactors
    follow without sympy; a ring of None would raise if sympy were called."""
    p = _prod(data.draw(sides(rank, 3).filter(lambda s: type(s) is _Poly)), data.draw(st.integers(1, 4)))
    q = data.draw(sides(rank, 3))
    c, k = data.draw(st.integers(-6, 6).filter(bool)), data.draw(st.integers(-6, 6).filter(bool))
    for a, b in ((_prod(_prod(p, q), c), _prod(p, k)), (p, _prod(p, -1))):
        check_cofactors(a, b, rank, None)
        check_cofactors(b, a, rank, None)


class RecordingRing:
    """A sympy ring that counts the polynomials ``_cof`` hands to it."""

    def __init__(self, ring_):
        self.ring = ring_
        self.calls = 0

    def from_dict(self, terms):
        self.calls += 1
        return self.ring.from_dict(terms)


@pytest.mark.parametrize("rank", RANKS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_planted_common_factors_take_the_general_gcd(rank, data):
    """(p*q1, p*q2) with p, q1 and q2 nonconstant: the gcd is a multiple of
    p, and where neither primitive part divides the other, sympy's cofactors
    find it."""
    p, q1, q2 = (data.draw(polys(rank, 3)) for _ in range(3))
    a, b = _prod(p, q1), _prod(p, q2)
    ring_ = RecordingRing(_RatPolyOps(rank).ring)
    check_cofactors(a, b, rank, ring_)
    check_cofactors(b, a, rank, ring_)
    assume(ring_.calls)
    assert type(_cof(a, b, ring_)[0]) is _Poly

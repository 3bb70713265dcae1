"""Hochschild and cyclic differentials on finite windows.

Chains are finite sums of monomial tensors m_0 x ... x m_n over a common
signature, keyed by the tuples of their factors' exponent tuples and kept in
the normalized model: a tensor with the unit monomial in any position >= 1
is degenerate and dropped.  In that model b^2 = 0, bB + Bb = 0, and B^2 = 0
hold exactly (B re-inserts the unit in position 0, so a second application
dies under normalization).

Windows are finite lists of distinct exponent tuples; ranks computed over a
window are window-relative truncation numbers, not homology of the full
algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .algebra import Element, WeylAlgebra, _Sparse, add_terms, monomial_sort_key
from .errors import DegreeZero, SignatureMismatch, WindowOverflow
from .linalg import combination, span_rank
from .scalars import Scalar


class Chain(_Sparse):
    """Degree-n chain: dict from (n+1)-tuples of exponent tuples to payloads;
    the constructor coerces its values as Element's does."""

    __slots__ = ("algebra", "degree")

    def __init__(self, algebra: WeylAlgebra, degree: int, terms):
        if degree < 0:
            raise SignatureMismatch("chain degree must be >= 0")
        unit = algebra.one_monomial
        pay, norm = algebra.field.payload, {}
        for key, coeff in terms.items():
            key = tuple(key)
            if len(key) != degree + 1:
                raise SignatureMismatch("tensor length differs from degree + 1")
            # a unit past position 0 is degenerate in the normalized model
            if unit not in key[1:]:
                norm[key] = pay(coeff)
        self.algebra = algebra
        self.degree = degree
        self._set_terms(norm)

    def _owner(self):
        return (self.algebra.signature, self.degree)

    def sorted_terms(self) -> list[tuple[tuple, Scalar]]:
        """(key, Scalar) pairs in the canonical printing order."""
        field, n = self._field(), self.algebra.signature.n
        ordered = sorted(self.terms.items(), key=lambda kc: tuple(monomial_sort_key(e, n) for e in kc[0]))
        return [(key, Scalar(field, c)) for key, c in ordered]

    def __repr__(self):
        return f"Chain(degree={self.degree}, tensors={len(self.terms)})"


def tensor_chain(factors, coeff=1) -> Chain:
    """Multilinear expansion of an Element tensor a_0 x ... x a_n."""
    factors = list(factors)
    if not factors:
        raise SignatureMismatch("a chain needs at least one tensor factor")
    algebra = factors[0].algebra
    field = algebra.field
    c0 = field.coerce(coeff)
    if c0 is None:
        raise SignatureMismatch(f"not a scalar: {type(coeff).__name__}")
    pmul = field.ops.mul
    terms = {(): c0.pay}
    for f in factors:
        if f.algebra.signature != algebra.signature:
            raise SignatureMismatch("tensor factors over different signatures")
        # one appended factor keeps the keys distinct: nothing to merge
        terms = {key + (e,): pmul(c, ce) for key, c in terms.items() for e, ce in f.terms.items()}
    return Chain(algebra, len(factors) - 1, terms)


def _chain(algebra: WeylAlgebra, degree: int, terms: dict) -> Chain:
    """A chain over payload terms whose keys are normalized already."""
    c = object.__new__(Chain)
    c.algebra = algebra
    c.degree = degree
    c._set_terms(terms)
    return c


def hochschild_b(c: Chain) -> Chain:
    """b(a_0 x ... x a_n) = sum_i (-1)^i (... a_i a_{i+1} ...) + (-1)^n a_n a_0 x ...

    b of each basis tensor is computed once per algebra and kept in
    ``algebra._hochschild_cache`` as (chain key, payload) pairs, zero sums
    dropped; b(c) adds coeff * b(key) over c's terms (b(key) itself where
    coeff is one)."""
    if c.degree == 0:
        raise DegreeZero("b is defined on chains of degree >= 1")
    alg = c.algebra
    ops = alg.field.ops
    pmul, padd, one = ops.mul, ops.add, ops.one
    memo = alg._hochschild_cache
    out: dict = {}
    for key, coeff in c.terms.items():
        image = memo.get(key)
        if image is None:
            image = memo[key] = _tensor_b(alg, key)
        add_terms(out, image if coeff == one else ((k, pmul(coeff, v)) for k, v in image), padd)
    return _chain(alg, c.degree - 1, out)


def _tensor_b(alg: WeylAlgebra, key: tuple) -> tuple:
    """b of the basis tensor key as (chain key, payload) pairs, zero sums dropped."""
    n = len(key) - 1
    ops = alg.field.ops
    padd, pneg = ops.add, ops.neg
    unit = alg.one_monomial
    mono_mul = alg._mono_mul
    out: dict = {}

    def put(neg, a, b, prefix, suffix):
        # the terms of a*b, placed between prefix and suffix; the unit past
        # slot 0 is degenerate (the factors of key past slot 0 are not the unit)
        pairs = ((prefix + (e,) + suffix, ce) for e, ce in mono_mul(a, b) if not prefix or e != unit)
        add_terms(out, ((k, pneg(v)) for k, v in pairs) if neg else pairs, padd)

    for i in range(n):
        put(i % 2, key[i], key[i + 1], key[:i], key[i + 2 :])
    put(n % 2, key[n], key[0], (), key[1:n])
    return tuple((k, v) for k, v in out.items() if v)


def connes_B(c: Chain) -> Chain:
    """Normalized cyclic operator B = sum_i (-1)^{ni} 1 x a_i x ... x a_{i-1}."""
    alg = c.algebra
    n = c.degree
    unit = alg.one_monomial
    ops = alg.field.ops
    pairs = (
        ((unit,) + key[i:] + key[:i], coeff if (n * i) % 2 == 0 else ops.neg(coeff))
        for key, coeff in c.terms.items()
        for i in range(n + 1)
    )
    return Chain(alg, n + 1, add_terms({}, pairs, ops.add))


class Window:
    """Finite ordered list of distinct monomials with exact coordinates."""

    def __init__(self, algebra: WeylAlgebra, monomials):
        monomials = tuple(monomials)
        if len(set(monomials)) != len(monomials):
            raise SignatureMismatch("window monomials must be distinct")
        self.algebra = algebra
        self.monomials = monomials
        self._index = {m: i for i, m in enumerate(monomials)}

    def __contains__(self, e: tuple[int, ...]) -> bool:
        return e in self._index


@dataclass(frozen=True)
class SpanCheck:
    inside: bool
    combination: tuple[Scalar, ...] | None


def commutator_span_check(f: Element, pairs) -> SpanCheck:
    """Exact membership of f in the span of the commutators [P_i, Q_i],
    over the monomials that f and the commutators use."""
    alg = f.algebra
    vectors = [alg.commutator(P, Q).terms for P, Q in pairs]
    coeffs = combination(vectors, f.terms, alg.field)
    if coeffs is None:
        return SpanCheck(False, None)
    return SpanCheck(True, tuple(coeffs))


@dataclass(frozen=True)
class WindowRankReport:
    """Rank data of b on window chains; window-relative numbers only."""

    degree: int
    chains: int
    rank: int
    nullity: int

    def as_text(self) -> str:
        return (
            f"degree {self.degree}: {self.chains} chains, "
            f"rank {self.rank}, nullity {self.nullity} (window-relative)"
        )


def window_chain_basis(window: Window, degree: int) -> list[tuple[tuple[int, ...], ...]]:
    """Normalized tensor basis: all factors in the window, no unit past slot 0."""
    unit = window.algebra.one_monomial
    tail = [m for m in window.monomials if m != unit]
    return [(m0,) + rest for m0 in window.monomials for rest in product(tail, repeat=degree)]


def window_rank(window: Window, degree: int) -> WindowRankReport:
    """Exact rank of b from degree to degree-1 on the window chain basis.

    The image of every basis chain must stay on the window, otherwise
    WindowOverflow.
    """
    alg = window.algebra
    basis = window_chain_basis(window, degree)
    if degree == 0 or not basis:
        return WindowRankReport(degree, len(basis), 0, len(basis))
    field = alg.field
    images = []
    for key in basis:
        img = hochschild_b(_chain(alg, degree, {key: field.ops.one}))
        if any(e not in window for k2 in img.terms for e in k2):
            raise WindowOverflow("boundary of a window chain leaves the window")
        images.append(img.terms)
    rank = span_rank(images, field)
    return WindowRankReport(degree, len(basis), rank, len(basis) - rank)

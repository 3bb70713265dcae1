"""Witt-type derivations, bracket-closed spans, and their cohomology.

A derivation is a first-order operator sum(f_i * D_i) with function
coefficients, an element of the algebra; the bracket is its commutator there,
[f D_i, g D_j] = f (D_i g) D_j - g (D_j f) D_i.
Cohomology is computed on finite bracket-closed spans with adjoint
coefficients.  On a graded span every 2-cocycle of nonzero ad-degree d has
the explicit primitive phi = (1/d) * omega(h, -), h the grading element;
``euler_integrate`` builds it and verifies d(phi) = omega exactly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .algebra import Element, WeylAlgebra, _Sparse, add_terms
from .errors import (
    DegreeZero,
    IntegrationFailed,
    NotAntisymmetric,
    NotClosed,
    NotHomogeneous,
    NotIndependent,
    SignatureMismatch,
    UnsupportedElement,
)
from .linalg import combination, independent
from .scalars import Scalar


class DerivationElement(_Sparse):
    """A derivation sum(f_i * D_i) of the function ring, kept as the
    operator's own terms: every monomial is first order, so its function
    part is the coefficient of its one D_i and there is no zeroth-order
    part."""

    __slots__ = ("algebra",)

    def __init__(self, P: Element):
        if any(sum(m.d) != 1 for m in P.terms):
            raise UnsupportedElement("element is not a pure first-order operator")
        self.algebra = P.algebra
        self.terms = P.terms

    def as_element(self) -> Element:
        """The same operator as a plain algebra element."""
        return Element._nonzero(self.algebra, self.terms)

    def __str__(self) -> str:
        return str(self.as_element())

    def __repr__(self) -> str:
        return f"DerivationElement({self})"


def witt_bracket(u: DerivationElement, v: DerivationElement) -> DerivationElement:
    """[u, v] = u v - v u in the algebra; the second-order parts cancel."""
    if not u._check(v):
        raise TypeError("the witt bracket takes two derivations")
    return DerivationElement(u.algebra.commutator(u.as_element(), v.as_element()))


class LieSpan:
    """Finite ordered basis of derivations, verified bracket-closed.

    Structure constants are cached for i < j.  The bracket is a commutator
    in an associative algebra, so antisymmetry and Jacobi hold without a
    check.  An optional grading element (given by basis index) must act
    diagonally with integer eigenvalues, which become the degree labels.
    """

    def __init__(self, basis, *, grading: int | None = None):
        basis = tuple(basis)
        if not basis:
            raise NotIndependent("empty basis")
        algebra = basis[0].algebra
        for b in basis[1:]:
            if not basis[0]._check(b):
                raise TypeError("a span basis holds derivations only")
        self.algebra = algebra
        self.field = algebra.field
        self.basis = basis
        self.dim = len(basis)
        self._vectors = [b.terms for b in basis]
        if not independent(self._vectors, self.field):
            raise NotIndependent("basis is linearly dependent")
        self._struct: dict[tuple[int, int], tuple[Scalar, ...]] = {}
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                w = witt_bracket(basis[i], basis[j])
                coords = combination(self._vectors, w.terms, self.field)
                if coords is None:
                    raise NotClosed(
                        f"bracket of basis {i} and basis {j} leaves the span",
                        pair=(i, j),
                        residual=w,
                    )
                self._struct[(i, j)] = tuple(coords)
        self.grading = grading
        self.degrees: tuple[int, ...] | None = None
        if grading is not None:
            if not 0 <= grading < self.dim:
                raise SignatureMismatch("grading index out of range")
            degs = []
            for j in range(self.dim):
                c = self.bracket_coords(grading, j)
                lam = None
                for k, ck in enumerate(c):
                    if ck.is_zero:
                        continue
                    if k != j:
                        raise NotHomogeneous(
                            "grading element does not act diagonally on the basis"
                        )
                    lam = ck.as_rational()
                    if lam is None:
                        raise NotHomogeneous("grading eigenvalue is not rational")
                if lam is None:
                    lam = Fraction(0)
                if lam.denominator != 1:
                    raise NotHomogeneous("grading eigenvalue is not an integer")
                degs.append(int(lam))
            self.degrees = tuple(degs)

    # coordinate helpers -------------------------------------------------

    @property
    def zero_coords(self) -> tuple[Scalar, ...]:
        return (self.field.zero,) * self.dim

    def unit_coords(self, j: int) -> tuple[Scalar, ...]:
        return tuple(
            self.field.one if k == j else self.field.zero for k in range(self.dim)
        )

    def coords(self, values) -> tuple[Scalar, ...]:
        """Coerce a sequence of scalars / ints / fractions to a coordinate tuple."""
        out = []
        for v in values:
            c = self.field.coerce(v)
            if c is None:
                raise SignatureMismatch("coordinates must be scalars, ints or fractions")
            out.append(c)
        if len(out) != self.dim:
            raise SignatureMismatch(f"need {self.dim} coordinates, got {len(out)}")
        return tuple(out)

    def coordinates(self, u: DerivationElement) -> tuple[Scalar, ...]:
        coords = combination(self._vectors, u.terms, self.field)
        if coords is None:
            raise NotClosed("element lies outside the span")
        return tuple(coords)

    # bracket in coordinates ----------------------------------------------

    def bracket_coords(self, i: int, j: int) -> tuple[Scalar, ...]:
        if i == j:
            return self.zero_coords
        if i < j:
            return self._struct[(i, j)]
        return tuple(-c for c in self._struct[(j, i)])

    def ad(self, i: int, v) -> tuple[Scalar, ...]:
        """Coordinates of [basis_i, sum_j v_j basis_j]."""
        acc = list(self.zero_coords)
        for j in range(self.dim):
            if v[j].is_zero:
                continue
            for k, sk in enumerate(self.bracket_coords(i, j)):
                if not sk.is_zero:
                    acc[k] = acc[k] + v[j] * sk
        return tuple(acc)

    def degree_of(self, coords) -> int | None:
        """Common degree label of the support; None for zero coordinates."""
        if self.degrees is None:
            raise NotHomogeneous("span has no grading element")
        deg = None
        for j, c in enumerate(coords):
            if c.is_zero:
                continue
            if deg is None:
                deg = self.degrees[j]
            elif deg != self.degrees[j]:
                raise NotHomogeneous("coordinates mix degrees")
        return deg

    def __repr__(self):
        return f"LieSpan(dim={self.dim}, graded={self.degrees is not None})"


def _poly_derivation(algebra: WeylAlgebra, power: int, var: int = 1) -> DerivationElement:
    return DerivationElement(algebra.x(var, power) * algebra.D(var))


def borel(algebra: WeylAlgebra) -> LieSpan:
    """Span of {D, x D} on variable 1, graded by x D."""
    return LieSpan(
        [_poly_derivation(algebra, 0), _poly_derivation(algebra, 1)], grading=1
    )


def sl2like(algebra: WeylAlgebra) -> LieSpan:
    """Span of {D, x D, x^2 D} on variable 1, graded by x D."""
    return LieSpan(
        [_poly_derivation(algebra, k) for k in range(3)], grading=1
    )


PRESETS = {"borel": borel, "sl2like": sl2like}


def _sorted_key(key: tuple[int, ...]) -> tuple[tuple[int, ...] | None, int]:
    """Sort a cochain argument tuple, tracking the permutation sign.

    Returns (None, 0) when an index repeats.
    """
    items = list(key)
    sign = 1
    for a in range(1, len(items)):
        b = a
        while b > 0 and items[b - 1] > items[b]:
            items[b - 1], items[b] = items[b], items[b - 1]
            sign = -sign
            b -= 1
    for a in range(1, len(items)):
        if items[a - 1] == items[a]:
            return None, 0
    return tuple(items), sign


class Cochain(_Sparse):
    """Alternating k-linear map on a span, tabulated on basis k-tuples.

    ``terms`` maps (strictly increasing index tuple, output coordinate j) to
    the nonzero Scalar at that place; degree-0 cochains use the one index
    tuple ().  The constructor takes a ``table`` from index tuples to
    coordinate tuples, and unsorted tuples are folded in with the
    permutation sign; the read-only ``table`` rebuilds that form.
    """

    __slots__ = ("span", "degree")

    def __init__(self, span: LieSpan, degree: int, table):
        if degree < 0:
            raise SignatureMismatch("cochain degree must be >= 0")
        terms: dict[tuple[tuple[int, ...], int], Scalar] = {}
        for key, val in table.items():
            key = tuple(key)
            if len(key) != degree:
                raise SignatureMismatch("table key arity differs from the degree")
            coords = span.coords(val)
            skey, sign = _sorted_key(key)
            if skey is None:
                if any(coords):
                    raise NotAntisymmetric(
                        "nonzero value on a repeated argument tuple"
                    )
                continue
            for i in skey:
                if not 0 <= i < span.dim:
                    raise SignatureMismatch("basis index out of range")
            add_terms(terms, (((skey, j), c if sign > 0 else -c) for j, c in enumerate(coords)))
        self.span = span
        self.degree = degree
        self._set_terms(terms)

    def _owner(self):
        return (self.span, self.degree)

    def _field(self):
        return self.span.field

    @property
    def table(self) -> dict[tuple[int, ...], tuple[Scalar, ...]]:
        rows: dict[tuple[int, ...], list[Scalar]] = {}
        for (key, j), c in self.terms.items():
            rows.setdefault(key, list(self.span.zero_coords))[j] = c
        return {key: tuple(row) for key, row in rows.items()}

    def value(self, key: tuple[int, ...]) -> tuple[Scalar, ...]:
        """Evaluate on a basis index tuple (any order; repeats give zero)."""
        if len(key) != self.degree:
            raise SignatureMismatch("argument arity differs from the degree")
        skey, sign = _sorted_key(tuple(key))
        if skey is None:
            return self.span.zero_coords
        zero = self.span.field.zero
        val = tuple(self.terms.get((skey, j), zero) for j in range(self.span.dim))
        return val if sign > 0 else tuple(-c for c in val)

    def items(self):
        return sorted(self.table.items())

    def __repr__(self):
        return f"Cochain(degree={self.degree}, entries={len(self.table)})"


def zero_cochain(span: LieSpan, degree: int) -> Cochain:
    return Cochain(span, degree, {})


def identity_cochain(span: LieSpan) -> Cochain:
    """The 1-cochain x -> x."""
    return Cochain(span, 1, {(j,): span.unit_coords(j) for j in range(span.dim)})


def ce_differential(omega: Cochain) -> Cochain:
    """Chevalley-Eilenberg differential with adjoint coefficients.

    With 1-based argument positions,
    (d w)(x_1,...,x_{k+1}) = sum_{a<b} (-1)^{a+b} w([x_a,x_b], ..., ^x_a, ..., ^x_b, ...)
                           + sum_a (-1)^{a+1} [x_a, w(..., ^x_a, ...)].
    """
    span = omega.span
    k = omega.degree
    table = {}
    for idx in combinations(range(span.dim), k + 1):
        acc = list(span.zero_coords)
        for a in range(k + 1):
            for b in range(a + 1, k + 1):
                # positions a+1, b+1 in the 1-based formula: (-1)^{a+b+2}
                sign = 1 if (a + b) % 2 == 0 else -1
                rest = idx[:a] + idx[a + 1 : b] + idx[b + 1 :]
                br = span.bracket_coords(idx[a], idx[b])
                for m, cm in enumerate(br):
                    if cm.is_zero:
                        continue
                    coeff = cm if sign > 0 else -cm
                    for j, v in enumerate(omega.value((m,) + rest)):
                        acc[j] = acc[j] + v * coeff
            sign = 1 if a % 2 == 0 else -1  # (-1)^{(a+1)+1}
            rest = idx[:a] + idx[a + 1 :]
            for j, v in enumerate(span.ad(idx[a], omega.value(rest))):
                acc[j] = acc[j] + v if sign > 0 else acc[j] - v
        table[idx] = acc
    return Cochain(span, k + 1, table)


def is_cocycle(omega: Cochain) -> bool:
    return ce_differential(omega).is_zero


def ad_degree(omega: Cochain) -> int | None:
    """Uniform degree shift of the cochain on a graded span; None when zero."""
    span = omega.span
    if span.degrees is None:
        raise NotHomogeneous("span has no grading element")
    d = None
    for key, val in omega.table.items():
        shift = span.degree_of(val) - sum(span.degrees[i] for i in key)
        if d is None:
            d = shift
        elif d != shift:
            raise NotHomogeneous("cochain is not homogeneous for the grading")
    return d


def euler_integrate(omega: Cochain) -> Cochain:
    """Primitive of a homogeneous 2-cocycle of nonzero ad-degree.

    phi = (1/d) * omega(h, -) with h the grading element satisfies
    d(phi) = omega for every cocycle of ad-degree d != 0.  The result is
    verified anyway; IntegrationFailed carries the residual.
    """
    span = omega.span
    if omega.degree != 2:
        raise UnsupportedElement("only 2-cochains are integrated")
    if span.degrees is None or span.grading is None:
        raise NotHomogeneous("span has no grading element")
    if omega.is_zero:
        return zero_cochain(span, 1)
    d = ad_degree(omega)
    if d == 0:
        raise DegreeZero("cochain has ad-degree zero")
    h = span.grading
    factor = span.field.from_rational(Fraction(1, d))
    table = {}
    for j in range(span.dim):
        table[(j,)] = tuple(c * factor for c in omega.value((h, j)))
    phi = Cochain(span, 1, table)
    residual = ce_differential(phi) - omega
    if not residual.is_zero:
        raise IntegrationFailed("primitive check d(phi) = omega failed", residual=residual)
    return phi

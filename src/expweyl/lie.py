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
        n = P.algebra.signature.n
        if any(sum(e[-n:]) != 1 for e in P.terms):
            raise UnsupportedElement("element is not a pure first-order operator")
        self.algebra = P.algebra
        self.terms = P.terms

    def as_element(self) -> Element:
        """The same operator as a plain algebra element."""
        return Element(self.algebra, self.terms)

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

    The structure constants of [e_i, e_j] are kept for every ordered pair as
    (index, payload) pairs of the nonzero coordinates; ``bracket_coords``
    reads them as Scalars.  The bracket is a commutator
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
        vectors = [b.terms for b in basis]
        if not independent(vectors, self.field):
            raise NotIndependent("basis is linearly dependent")
        neg = self.field.ops.neg
        self._struct: dict[tuple[int, int], tuple[tuple[int, object], ...]] = {}
        for i in range(self.dim):
            self._struct[(i, i)] = ()
            for j in range(i + 1, self.dim):
                w = witt_bracket(basis[i], basis[j])
                coords = combination(vectors, w.terms, self.field)
                if coords is None:
                    raise NotClosed(
                        f"bracket of basis {i} and basis {j} leaves the span",
                        pair=(i, j),
                        residual=w,
                    )
                pairs = tuple((k, c.pay) for k, c in enumerate(coords) if c)
                self._struct[(i, j)] = pairs
                self._struct[(j, i)] = tuple((k, neg(c)) for k, c in pairs)
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

    # bracket in coordinates ----------------------------------------------

    def bracket_coords(self, i: int, j: int) -> tuple[Scalar, ...]:
        coords = list(self.zero_coords)
        for k, c in self._struct[(i, j)]:
            coords[k] = Scalar(self.field, c)
        return tuple(coords)

    def __repr__(self):
        return f"LieSpan(dim={self.dim}, graded={self.degrees is not None})"


def _poly_derivation(algebra: WeylAlgebra, power: int) -> DerivationElement:
    return DerivationElement(algebra.x(1, power) * algebra.D(1))


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
    the nonzero payload at that place; degree-0 cochains use the one index
    tuple ().  The constructor takes a ``table`` from index tuples to
    coordinate tuples, and unsorted tuples are folded in with the
    permutation sign; the read-only ``table`` rebuilds that form in
    Scalars.
    """

    __slots__ = ("span", "degree")

    def __init__(self, span: LieSpan, degree: int, table):
        if degree < 0:
            raise SignatureMismatch("cochain degree must be >= 0")
        ops = span.field.ops
        terms: dict[tuple[tuple[int, ...], int], object] = {}
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
            pays = (c.pay if sign > 0 else ops.neg(c.pay) for c in coords)
            add_terms(terms, (((skey, j), c) for j, c in enumerate(pays)), ops.add)
        self.span = span
        self.degree = degree
        self._set_terms(terms)

    def _owner(self):
        return (self.span, self.degree)

    def _field(self):
        return self.span.field

    @property
    def table(self) -> dict[tuple[int, ...], tuple[Scalar, ...]]:
        field = self.span.field
        rows: dict[tuple[int, ...], list[Scalar]] = {}
        for (key, j), c in self.terms.items():
            rows.setdefault(key, list(self.span.zero_coords))[j] = Scalar(field, c)
        return {key: tuple(row) for key, row in rows.items()}

    def items(self):
        return sorted(self.table.items())

    def __repr__(self):
        return f"Cochain(degree={self.degree}, entries={len({key for key, _ in self.terms})})"


def zero_cochain(span: LieSpan, degree: int) -> Cochain:
    return Cochain(span, degree, {})


def ce_differential(omega: Cochain) -> Cochain:
    """Chevalley-Eilenberg differential with adjoint coefficients.

    With 1-based argument positions,
    (d w)(x_1,...,x_{k+1}) = sum_{a<b} (-1)^{a+b} w([x_a,x_b], ..., ^x_a, ..., ^x_b, ...)
                           + sum_a (-1)^{a+1} [x_a, w(..., ^x_a, ...)].
    Accumulated on payloads with the field's ops.
    """
    span, k = omega.span, omega.degree
    ops = span.field.ops
    # structure constants [e_i, e_j] and omega's values as (index, payload) pairs
    struct = span._struct
    values: dict[tuple[int, ...], list] = {}
    for (key, j), c in omega.terms.items():
        values.setdefault(key, []).append((j, c))

    def value(args: tuple[int, ...], sign: int):
        """The (index, payload) pairs of sign * omega(args)."""
        skey, s = _sorted_key(args)
        pairs = values.get(skey, ())
        return pairs if s * sign > 0 else [(j, ops.neg(v)) for j, v in pairs]

    terms = {}
    for idx in combinations(range(span.dim), k + 1):
        acc: dict[int, object] = {}
        for a in range(k + 1):
            for b in range(a + 1, k + 1):
                # positions a+1, b+1 in the 1-based formula: (-1)^{a+b+2}
                rest = idx[:a] + idx[a + 1 : b] + idx[b + 1 :]
                for m, cm in struct[(idx[a], idx[b])]:
                    pairs = value((m,) + rest, (-1) ** (a + b))
                    add_terms(acc, ((j, ops.mul(v, cm)) for j, v in pairs), ops.add)
            # (-1)^{(a+1)+1}
            for j, v in value(idx[:a] + idx[a + 1 :], (-1) ** a):
                add_terms(acc, ((i, ops.mul(v, c)) for i, c in struct[(idx[a], j)]), ops.add)
        terms.update(((idx, j), v) for j, v in sorted(acc.items()))
    return zero_cochain(span, k + 1)._with(terms)


def ad_degree(omega: Cochain) -> int | None:
    """Uniform degree shift of the cochain on a graded span; None when zero."""
    span = omega.span
    if span.degrees is None:
        raise NotHomogeneous("span has no grading element")
    shifts = {span.degrees[j] - sum(span.degrees[i] for i in key) for key, j in omega.terms}
    if len(shifts) > 1:
        raise NotHomogeneous("cochain is not homogeneous for the grading")
    return shifts.pop() if shifts else None


def euler_integrate(omega: Cochain) -> Cochain:
    """Primitive of a homogeneous 2-cochain of nonzero ad-degree d.

    phi = (1/d) * omega(h, -) with h the grading element satisfies
    d(phi) = omega for every cocycle of ad-degree d != 0.  phi is read off
    omega's payload terms: each term ((a, b), i) whose index pair holds h
    gives phi((other,), i) = +c/d when h = a and -c/d when h = b, one
    ``field.ops`` product each.  The result is verified by comparing d(phi)
    with omega; only when they differ is the residual d(phi) - omega
    built, and IntegrationFailed carries it (never zero).
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
    ops = span.field.ops
    inv = span.field.payload(Fraction(1, d))
    terms = {}
    for ((a, b), i), c in omega.terms.items():
        if a == h:
            terms[((b,), i)] = ops.mul(c, inv)
        elif b == h:
            terms[((a,), i)] = ops.neg(ops.mul(c, inv))
    phi = zero_cochain(span, 1)._with(terms)
    dphi = ce_differential(phi)
    if dphi != omega:
        raise IntegrationFailed("primitive check d(phi) = omega failed", residual=dphi - omega)
    return phi

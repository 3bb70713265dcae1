"""Filtration by exponential order, degree maps, and graded-symbol calculus.

The filtration weight of a monomial is |a| + l1(beta) + l1(gamma) + d summed
over variables.  Top-order parts live in a commutative algebra where the
derivative symbol of D_i is written y_i.  The literature claim that
commutators strictly drop order is false in general here (the E relation
raises order); filtration_diagnostic reports the actual behavior with
witnesses instead of assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Element, Monomial, _Sparse, add_terms, filtration_order, monomial_sort_key
from .errors import NotHomogeneous, SignatureMismatch, ZeroElement

__all__ = [
    "GrElement",
    "order",
    "exp_degree",
    "power_degree",
    "symbol",
    "full_symbol",
    "gr_mul",
    "filtration_diagnostic",
    "FiltrationReport",
]


def order(P: Element) -> int:
    """Filtration order: maximal weight over the terms of P."""
    if P.is_zero:
        raise ZeroElement("the zero element has no order")
    n = P.algebra.signature.n
    return max(filtration_order(e, n) for e in P.terms)


def _degree(P: Element, part: str, kind: str) -> tuple[int, ...]:
    """Common sum of the part rows ("beta" or "gamma") over the terms of P."""
    if P.is_zero:
        raise ZeroElement("the zero element has no degree")
    n = P.algebra.signature.n
    degrees = {tuple(map(sum, zip(*getattr(Monomial(e, n), part)))) for e in P.terms}
    if len(degrees) > 1:
        raise NotHomogeneous(f"terms carry different {kind} degrees")
    return degrees.pop()


def exp_degree(P: Element) -> tuple[int, ...]:
    """Common total exponential degree of P (sum of beta rows per term), an int tuple."""
    return _degree(P, "beta", "exponential")


def power_degree(P: Element) -> tuple[int, ...]:
    """Common total power degree of P (sum of gamma rows per term), an int tuple."""
    return _degree(P, "gamma", "power")


class GrElement(_Sparse):
    """Finite scalar combination of monomials read in the commutative graded
    algebra, where the derivative powers d are the exponents of the y_i.
    Like ``Element``'s, the constructor takes canonical exponent tuples."""

    __slots__ = ("algebra",)

    sorted_terms = Element.sorted_terms

    def __mul__(self, other):
        if isinstance(other, GrElement):
            return gr_mul(self, other)
        return _Sparse.__mul__(self, other)

    def __str__(self):
        from .expr import format_gr_element

        return format_gr_element(self)

    def __repr__(self):
        return f"GrElement({self.__str__()!r})"


def symbol(P: Element) -> GrElement:
    """Top-order part of P in the commutative graded algebra (D_i becomes y_i)."""
    if P.is_zero:
        raise ZeroElement("the zero element has no symbol")
    top = order(P)
    n = P.algebra.signature.n
    return GrElement(P.algebra, {e: c for e, c in P.terms.items() if filtration_order(e, n) == top})


def full_symbol(P: Element) -> GrElement:
    """Every term of P mapped into the commutative algebra, not only the top."""
    return GrElement(P.algebra, P.terms)


def gr_mul(u: GrElement, v: GrElement) -> GrElement:
    if u.algebra is not v.algebra:
        raise SignatureMismatch("graded elements from different algebras")
    return u._with(_mul_terms(u.algebra, u.terms, v.terms))


def _mul_terms(algebra, u: dict, v: dict, out: dict | None = None) -> dict:
    """gr_mul on {exponent tuple: payload} dicts over algebra, accumulated as
    in WeylAlgebra.mul and added into out (a new dict by default); a zero
    sum stays for the caller's zero filter."""
    ops, add = algebra.field.ops, algebra._add_exps
    pmul = ops.mul
    pairs = ((add(e1, e2), pmul(c1, c2)) for e1, c1 in u.items() for e2, c2 in v.items())
    return add_terms({} if out is None else out, pairs, ops.add)


@dataclass(frozen=True)
class FiltrationReport:
    ord_p: int
    ord_q: int
    ord_pq: int
    ord_comm: int | None
    submultiplicative: bool
    strict_drop: bool
    witness: tuple[int, ...] | None


def filtration_diagnostic(P: Element, Q: Element) -> FiltrationReport:
    """Check ord(PQ) <= ord P + ord Q and strict order drop of the commutator.

    Violations are reported with the exponent tuple of the offending
    element's first top-order term in printing order (the largest
    monomial_sort_key) as witness, so it does not depend on how the input
    was written; the kernel itself never assumes either property.
    """
    if P.is_zero or Q.is_zero:
        raise ZeroElement("diagnostics need nonzero operands")
    algebra = P.algebra
    op, oq = order(P), order(Q)
    pq = algebra.mul(P, Q)
    comm = pq + (-algebra.mul(Q, P))
    opq = order(pq) if not pq.is_zero else 0
    ocomm = order(comm) if not comm.is_zero else None
    submult = opq <= op + oq
    strict = ocomm is None or ocomm < op + oq
    witness = None
    if not (submult and strict):
        n = algebra.signature.n
        witness = max((comm if submult else pq).terms, key=lambda e: monomial_sort_key(e, n))
    return FiltrationReport(
        ord_p=op,
        ord_q=oq,
        ord_pq=opq,
        ord_comm=ocomm,
        submultiplicative=submult,
        strict_drop=strict,
        witness=witness,
    )

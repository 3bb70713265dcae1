"""Differential-operator action of the algebra on its function ring.

The action is computed directly: each monomial E^a e^{bx} x^g D^d acts on a
function element f by first applying the derivative rule d times and then
multiplying by the function part through plain componentwise exponent
addition.  The normal-ordering engine is never invoked, so equality of
act(mul(P,Q), f) and act(P, act(Q, f)) is an independent check on mul rather
than a restatement of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .algebra import Element, WeylAlgebra, add_terms
from .errors import NotAFunction, SignatureMismatch, UnsupportedElement
from .expr import _int_text
from .scalars import Scalar

__all__ = [
    "act",
    "faithfulness_probe",
    "noetherian_witness",
    "ProbeReport",
    "NoetherianReport",
]


def act(P: Element, f: Element) -> Element:
    """Apply P as a differential operator to the function element f."""
    algebra = P.algebra
    algebra._check(f)
    if not f.is_function_element:
        raise NotAFunction("the action is defined on function elements")
    ops = algebra.field.ops
    n = algebra.signature.n
    acc: dict[tuple[int, ...], object] = {}
    for e, c in P.terms.items():
        g = f
        for i0, k in enumerate(e[-n:]):
            for _ in range(k):
                g = algebra.diff_function(g, i0 + 1)
        # the function part of e times each term of g, which has no D: exponents add
        head = e[:-n] + (0,) * n
        add_terms(acc, ((tuple(map(add, head, eg)), ops.mul(c, cg)) for eg, cg in g.terms.items()), ops.add)
    return f._with(acc)


@dataclass(frozen=True)
class ProbeReport:
    zero: bool
    witness_input: Element | None
    witness_output: Element | None


def _graded_lex_points(n: int, maxdeg: int):
    """The points of {0..maxdeg}^n by total degree, then lexicographically,
    generated lazily: the order of sorted(product(...), key=(sum, g))."""
    for total in range(n * maxdeg + 1):
        yield from _compositions(n, total, maxdeg)


def _compositions(n: int, total: int, maxdeg: int):
    # the n-tuples with entries in 0..maxdeg summing to total, in lex order
    if n == 1:
        yield (total,)
        return
    for first in range(max(0, total - (n - 1) * maxdeg), min(maxdeg, total) + 1):
        for rest in _compositions(n - 1, total - first, maxdeg):
            yield (first,) + rest


def faithfulness_probe(P: Element, maxdeg: int) -> ProbeReport:
    """Evaluate P on the power test functions x^g for g in {0..maxdeg}^n.

    Test exponents are scanned in ascending graded-lex order and the first
    non-vanishing value is reported.  zero=False certifies P != 0.  zero=True
    certifies P = 0, and is only reported when every derivative multi-index
    of P is bounded by maxdeg: the matrix of the evaluation map is then
    triangular in the derivative exponents, so all coefficients are
    recoverable.  Without a witness and past that bound the probe raises
    UnsupportedElement instead.
    """
    if maxdeg < 0:
        raise SignatureMismatch("probe degree bound must be >= 0")
    algebra = P.algebra
    n = algebra.signature.n
    for gamma in _graded_lex_points(n, maxdeg):
        f = algebra.one
        for i, gi in enumerate(gamma, start=1):
            f = f * algebra.x(i, gi)
        v = act(P, f)
        if not v.is_zero:
            return ProbeReport(zero=False, witness_input=f, witness_output=v)
    if any(di > maxdeg for e in P.terms for di in e[-n:]):
        raise UnsupportedElement(
            f"no witness up to degree {maxdeg}, but P has a higher derivative"
            " exponent, so zero is not certified"
        )
    return ProbeReport(zero=True, witness_input=None, witness_output=None)


@dataclass(frozen=True)
class NoetherianReport:
    n: int
    value_n: Scalar
    value_n_plus_1: Scalar
    certified: bool

    def as_pair(self) -> tuple[Fraction, Fraction]:
        return (self.value_n.as_rational(), self.value_n_plus_1.as_rational())

    def as_text(self) -> str:
        a, b = map(_int_text, self.as_pair())
        return f"({a}, {b})"


def noetherian_witness(algebra: WeylAlgebra, n: int) -> NoetherianReport:
    """Certify D^n notin A*D^(n+1) by acting on x^n: values (n!, 0)."""
    if n < 1:
        raise SignatureMismatch("witness index must be >= 1")
    xn = algebra.x(1, n)
    vn = act(algebra.D(1, n), xn).as_scalar()
    vn1 = act(algebra.D(1, n + 1), xn).as_scalar()
    ok = (
        vn is not None
        and vn1 is not None
        and vn == algebra.field.from_rational(math.factorial(n))
        and vn1.is_zero
    )
    return NoetherianReport(n=n, value_n=vn, value_n_plus_1=vn1, certified=ok)

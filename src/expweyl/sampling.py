"""Seeded random generators for fuzz tests and CLI probe commands.

All samplers take an explicit random.Random so runs are reproducible from a
seed; none of them touch global RNG state.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import Element, WeylAlgebra
from .errors import NotHomogeneous, SignatureMismatch
from .grading import GrElement, full_symbol
from .scalars import Scalar, ScalarField

__all__ = [
    "random_scalar",
    "random_element",
    "random_weyl_element",
    "random_function_element",
    "random_symbol",
    "random_derivation",
    "random_cochain",
    "random_chain",
]


def random_scalar(field: ScalarField, rng: random.Random, symbol_chance: float = 0.3) -> Scalar:
    num = rng.randint(-9, 9)
    if num == 0:
        num = 1
    s = field.from_rational(Fraction(num, rng.randint(1, 5)))
    if field.rank >= 2 and rng.random() < symbol_chance:
        s = s * field.generator(rng.randint(2, field.rank))
    return s


def random_element(
    algebra: WeylAlgebra,
    rng: random.Random,
    max_terms: int = 4,
    bound: int = 3,
    *,
    allow_e: bool = True,
) -> Element:
    """A random element with at most max_terms terms, exponents within bound."""
    n, r = algebra.signature.n, algebra.signature.rank
    out = algebra.zero
    for _ in range(rng.randint(1, max_terms)):
        m = algebra.one
        for i in range(1, n + 1):
            if allow_e and rng.random() < 0.4:
                m = m * algebra.E(i, rng.randint(-bound, bound))
            if rng.random() < 0.4:
                m = m * algebra.exp_sym(i, tuple(rng.randint(-bound, bound) for _ in range(r)))
            if rng.random() < 0.6:
                m = m * algebra.x(i, tuple(rng.randint(-bound, bound) for _ in range(r)))
            if rng.random() < 0.6:
                m = m * algebra.D(i, rng.randint(0, bound))
        out = out + m * random_scalar(algebra.field, rng)
    return out


def random_weyl_element(
    algebra: WeylAlgebra, rng: random.Random, max_terms: int = 3, bound: int = 3
) -> Element:
    """Element of the polynomial Weyl subalgebra: natural x powers and D's only."""
    out = algebra.zero
    for _ in range(rng.randint(1, max_terms)):
        m = algebra.one
        for i in range(1, algebra.signature.n + 1):
            m = m * algebra.x(i, rng.randint(0, bound))
            m = m * algebra.D(i, rng.randint(0, bound))
        out = out + m * random_scalar(algebra.field, rng, symbol_chance=0.0)
    return out


def random_function_element(
    algebra: WeylAlgebra, rng: random.Random, max_terms: int = 3, bound: int = 2
) -> Element:
    """A random derivative-free element (a member of the function ring)."""
    n, r = algebra.signature.n, algebra.signature.rank
    out = algebra.zero
    for _ in range(rng.randint(1, max_terms)):
        m = algebra.one
        for i in range(1, n + 1):
            if rng.random() < 0.3:
                m = m * algebra.E(i, rng.randint(-bound, bound))
            if rng.random() < 0.4:
                m = m * algebra.exp_sym(i, tuple(rng.randint(-bound, bound) for _ in range(r)))
            if rng.random() < 0.7:
                m = m * algebra.x(i, tuple(rng.randint(-bound, bound) for _ in range(r)))
        out = out + m * random_scalar(algebra.field, rng)
    return out


def random_symbol(algebra: WeylAlgebra, rng: random.Random) -> GrElement:
    """The full symbol of a random element with at most two terms."""
    return full_symbol(random_element(algebra, rng, max_terms=2, bound=2))


def random_derivation(algebra: WeylAlgebra, rng: random.Random):
    """Random first-order operator sum(f_i * D_i) with function coefficients."""
    from .lie import DerivationElement

    P = algebra.zero
    for i in range(1, algebra.signature.n + 1):
        P = P + random_function_element(algebra, rng, max_terms=2) * algebra.D(i)
    return DerivationElement(P)


def random_chain(algebra: WeylAlgebra, rng: random.Random, degree: int):
    """Random degree-n chain: one or two (n+1)-fold monomial tensors."""
    from .homology import Chain, tensor_chain

    acc = Chain(algebra, degree, {})
    for _ in range(rng.randint(1, 2)):
        factors = [
            random_element(algebra, rng, max_terms=1, bound=2) for _ in range(degree + 1)
        ]
        acc = acc + tensor_chain(factors, random_scalar(algebra.field, rng))
    return acc


def random_cochain(span, rng: random.Random, degree: int, *, ad_degree: int | None = None):
    """Random cochain on a span; ad_degree pins a homogeneous degree shift.

    With ad_degree set (graded spans only) every value is supported on the
    basis positions whose degree equals the key degree plus the shift.
    """
    from itertools import combinations

    from .lie import Cochain

    if ad_degree is not None and span.degrees is None:
        raise NotHomogeneous("span has no grading element")
    if degree < 0:
        raise SignatureMismatch("cochain degree must be >= 0")
    field = span.field
    table = {}
    for key in combinations(range(span.dim), degree):
        coords = []
        for k in range(span.dim):
            if ad_degree is not None:
                want = sum(span.degrees[i] for i in key) + ad_degree
                if span.degrees[k] != want:
                    coords.append(field.zero)
                    continue
            coords.append(
                field.from_rational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            )
        table[key] = tuple(coords)
    return Cochain(span, degree, table)

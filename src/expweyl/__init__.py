"""expweyl: exact symbolic kernel for Weyl-type algebras over
exponential-polynomial rings.

The algebra is generated, per variable x_i, by the coordinate powers x_i^alpha,
the exponentials e^{alpha x_i} (alpha in a rank-r exponent lattice), the tower
exponential E_i = exp(x_i^{p_i} e^{t_i x_i}) and its inverse, and the partial
derivative D_i, over an exact field of rational functions in the lattice
generators (optionally hbar-truncated).  All arithmetic is exact; equality of
normal forms is decidable.
"""

from .errors import (
    DegreeZero,
    DivisionByZero,
    HbarModeOff,
    IntegerTooLong,
    IntegrationFailed,
    KernelError,
    NegativePower,
    NonInvertibleSeries,
    NotAFunction,
    NotAntisymmetric,
    NotClosed,
    NotHomogeneous,
    NotIndependent,
    ParseError,
    SignatureMismatch,
    UnknownSymbol,
    UnsupportedElement,
    UsageError,
    WindowOverflow,
    ZeroElement,
)
from .scalars import Scalar, ScalarField

__all__ = [
    "Scalar",
    "ScalarField",
    "KernelError",
    "DivisionByZero",
    "NonInvertibleSeries",
    "HbarModeOff",
    "SignatureMismatch",
    "NegativePower",
    "NotAFunction",
    "ZeroElement",
    "NotHomogeneous",
    "UnsupportedElement",
    "NotClosed",
    "NotIndependent",
    "DegreeZero",
    "IntegrationFailed",
    "WindowOverflow",
    "NotAntisymmetric",
    "IntegerTooLong",
    "UsageError",
    "ParseError",
    "UnknownSymbol",
]

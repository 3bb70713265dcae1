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


def __getattr__(name):  # PEP 562: the scalars, and sympy with them, load on first use
    if name in ("Scalar", "ScalarField"):
        from . import scalars

        return getattr(scalars, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def main():
    """The ``expweyl`` console script: runs ``python -m expweyl.cli``."""
    import runpy

    runpy.run_module("expweyl.cli", run_name="__main__")

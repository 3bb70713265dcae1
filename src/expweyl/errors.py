"""Error hierarchy for the kernel.

Every error carries a stable ``code`` string (its class name) so the CLI can
report machine-readable failures without leaking Python details.
"""

from __future__ import annotations


class KernelError(Exception):
    """Base class for all kernel errors."""

    @property
    def code(self) -> str:
        return type(self).__name__


class DivisionByZero(KernelError):
    pass


class NonInvertibleSeries(KernelError):
    pass


class HbarModeOff(KernelError):
    pass


class SignatureMismatch(KernelError):
    pass


class NegativePower(KernelError):
    pass


class NotAFunction(KernelError):
    pass


class ZeroElement(KernelError):
    pass


class NotHomogeneous(KernelError):
    pass


class UnsupportedElement(KernelError):
    pass


class NotClosed(KernelError):
    """A bracket or element leaves the span; carries the offenders when known."""

    def __init__(self, message: str, pair=None, residual=None):
        super().__init__(message)
        self.pair = pair
        self.residual = residual


class NotIndependent(KernelError):
    pass


class DegreeZero(KernelError):
    pass


class IntegrationFailed(KernelError):
    def __init__(self, message: str, residual=None):
        super().__init__(message)
        self.residual = residual


class WindowOverflow(KernelError):
    pass


class NotAntisymmetric(KernelError):
    pass


class UsageError(KernelError):
    """A command line that does not match the command's arguments."""


class IntegerTooLong(KernelError):
    """An integer of the result has more digits than the interpreter converts
    to text (``sys.get_int_max_str_digits``)."""


class ParseError(KernelError):
    """Syntax error in an expression; ``position`` is a 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position

    @property
    def code(self) -> str:
        return "SyntaxError"


class UnknownSymbol(ParseError):
    @property
    def code(self) -> str:
        return "UnknownSymbol"

"""Exact scalar arithmetic for the kernel.

Scalars form the field Q(g_2, ..., g_r): multivariate rational functions over Q
in the independent symbols attached to the exponent-lattice generators
(g_1 = 1 always, so rank 1 means plain rationals).  A field may additionally
carry a truncated hbar series mode: scalars are then polynomials in hbar cut
off above a fixed order, with componentwise addition, convolution product, and
division by series with invertible constant term.

Representation: a scalar holds one payload, and its field's ``ops`` is the
only arithmetic on it.  In a field without an hbar order the payload is a
slot payload: at rank 1 a Python int when the value is integral and otherwise
a rational of sympy's QQ domain (its pure-Python PythonMPQ type unless gmpy2
is installed); at rank >= 2 a QQ constant or a reduced numerator/denominator
pair of polynomials (gcd cancelled, denominator primitive with integer
coefficients and positive leading coefficient).  In an hbar field it is a
_Series, a tuple of slot payloads, one per power of hbar.  Each value has one
payload, so structural equality is canonical-form equality, and every zero
payload is falsy, so a zero test is a truth test.  Polynomial arithmetic is
delegated to sympy's dense ring elements; everything above that layer is
defined here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from sympy.polys.domains import QQ
from sympy.polys.rings import ring as _sympy_ring

from .errors import (
    DivisionByZero,
    HbarModeOff,
    NonInvertibleSeries,
    SignatureMismatch,
)

__all__ = ["GroupElement", "Scalar", "ScalarField"]


# ---------------------------------------------------------------------------
# Exponent lattice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupElement:
    """Element of the exponent lattice, as integer coordinates over g_1..g_r."""

    coords: tuple[int, ...]

    def __post_init__(self):
        if not self.coords:
            raise ValueError("group element needs rank >= 1")
        if not all(isinstance(c, int) for c in self.coords):
            raise TypeError("coordinates must be integers")

    @property
    def rank(self) -> int:
        return len(self.coords)

    def _check(self, other: "GroupElement") -> None:
        if self.rank != other.rank:
            raise SignatureMismatch("group elements of different rank")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return GroupElement(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return GroupElement(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "GroupElement":
        return GroupElement(tuple(-a for a in self.coords))

    def scale(self, k: int) -> "GroupElement":
        return GroupElement(tuple(k * a for a in self.coords))

    def l1(self) -> int:
        return sum(abs(a) for a in self.coords)

    @property
    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def __str__(self) -> str:
        return "(" + ",".join(str(a) for a in self.coords) + ")"


# ---------------------------------------------------------------------------
# Payload adapters: one per coefficient representation
# ---------------------------------------------------------------------------

class _SlotOps:
    """What the two slot payload kinds share: subtraction and the one-slot layout."""

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def coeffs(self, x) -> tuple:
        return (x,)

    def lift(self, coeffs: tuple):
        return coeffs[0]


class _RationalOps(_SlotOps):
    """Rank-1 payloads: a Python int when the value is integral, otherwise a
    rational of the QQ domain (PythonMPQ without gmpy2) with denominator > 1.

    add, mul and div return the int form whenever the denominator is 1, so
    every value has exactly one payload and == and hash agree.  Zero is the
    int 0, which is falsy: ``not c`` is the zero test.  Plain integers (the
    common case: binomials, derivative factors, window-rank coefficients)
    never pay for a gcd.
    """

    zero = 0
    one = 1

    def add(self, x, y):
        z = x + y
        if type(z) is int or z.denominator != 1:
            return z
        return int(z.numerator)

    def neg(self, x):
        return -x

    def mul(self, x, y):
        z = x * y
        if type(z) is int or z.denominator != 1:
            return z
        return int(z.numerator)

    def div(self, x, y):
        if not y:
            raise DivisionByZero("scalar division by zero")
        if type(x) is int and type(y) is int:
            # int / int would be a float
            return self.rational(x, y)
        z = x / y
        if z.denominator != 1:
            return z
        return int(z.numerator)

    def rational(self, num: int, den: int):
        """The payload of num/den (den nonzero)."""
        q, r = divmod(num, den)
        return int(q) if not r else QQ(num, den)


class _RatPoly:
    """Reduced fraction of ring polynomials; canonical by construction."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den

    def __bool__(self):
        # canonical pairs are never zero (zero demotes to QQ.zero); only the
        # transient pairs of _RatPolyOps._lift can be
        return bool(self.num)

    def __eq__(self, other):
        return (
            isinstance(other, _RatPoly)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        # PolyElement caches its own hash and sympy mutates polys in place
        # during construction, so hash the term content directly.
        num = tuple(sorted(self.num.items(), key=lambda kv: kv[0]))
        den = tuple(sorted(self.den.items(), key=lambda kv: kv[0]))
        return hash((num, den))

    def __repr__(self):
        return f"_RatPoly({self.num}, {self.den})"


class _RatPolyOps(_SlotOps):
    """Rank >= 2 payloads.

    A payload is either a QQ rational (constant values, the common case in
    kernel arithmetic) or a reduced _RatPoly pair over Q[g_2..g_r].  Constants
    are always demoted to the rational form, so representations stay canonical
    and the polynomial machinery only runs when symbols are actually present.
    """

    def __init__(self, rank: int):
        created = _sympy_ring(",".join(f"g_{j}" for j in range(2, rank + 1)), QQ)
        self.ring = created[0]
        self.zero = QQ.zero
        self.one = QQ.one
        # canonical pairs reuse this exact object for trivial denominators,
        # so hot paths can test `den is self.pone` instead of polynomial ==
        self.pone = self.ring.one

    def _lift(self, x):
        if isinstance(x, _RatPoly):
            return x
        return _RatPoly(self.ring.ground_new(x), self.pone)

    def _demote(self, x: _RatPoly):
        if x.den is self.pone:
            if not x.num:
                return QQ.zero
            if x.num.is_ground:
                return next(iter(x.num.values()))
        return x

    def _new(self, num, den):
        one = self.pone
        if not num:
            return QQ.zero
        if den is not one:
            g = num.gcd(den)
            if not g.is_ground:
                num = num.quo(g)
                den = den.quo(g)
            if den.is_ground:
                q = next(iter(den.values()))
                if q != QQ.one:
                    num = num.mul_ground(QQ.one / q)
                den = one
            else:
                c = den.content()
                if den.LC < 0:
                    c = -c
                if c != QQ.one:
                    inv = QQ.one / c
                    num = num.mul_ground(inv)
                    den = den.mul_ground(inv)
        return self._demote(_RatPoly(num, den))

    def add(self, x, y):
        xp, yp = isinstance(x, _RatPoly), isinstance(y, _RatPoly)
        if not xp and not yp:
            return x + y
        if xp != yp:
            # constant + reduced pair: numerator shift keeps the pair reduced
            if xp:
                x, y = y, x
            if not x:
                return y
            if y.den is self.pone:
                return _RatPoly(y.num + self.ring.ground_new(x), self.pone)
            num = y.num + y.den.mul_ground(x)
            if not num:
                return QQ.zero
            return _RatPoly(num, y.den)
        if x.den is self.pone and y.den is self.pone:
            num = x.num + y.num
            if not num:
                return QQ.zero
            if num.is_ground:
                return next(iter(num.values()))
            return _RatPoly(num, self.pone)
        if x.den == y.den:
            return self._new(x.num + y.num, x.den)
        return self._new(x.num * y.den + y.num * x.den, x.den * y.den)

    def neg(self, x):
        if not isinstance(x, _RatPoly):
            return -x
        return _RatPoly(-x.num, x.den)

    def mul(self, x, y):
        xp, yp = isinstance(x, _RatPoly), isinstance(y, _RatPoly)
        if not xp and not yp:
            return x * y
        if xp != yp:
            # scaling a reduced pair by a constant cannot create a common factor
            if xp:
                x, y = y, x
            if not x:
                return QQ.zero
            return _RatPoly(y.num.mul_ground(x), y.den)
        if x.den is self.pone and y.den is self.pone:
            return _RatPoly(x.num * y.num, self.pone)
        return self._new(x.num * y.num, x.den * y.den)

    def div(self, x, y):
        if not isinstance(y, _RatPoly):
            if not y:
                raise DivisionByZero("scalar division by zero")
            if not isinstance(x, _RatPoly):
                return x / y
            return _RatPoly(x.num.mul_ground(QQ.one / y), x.den)
        x = self._lift(x)
        if not y.num:
            raise DivisionByZero("scalar division by zero")
        return self._new(x.num * y.den, x.den * y.num)

    def rational(self, num: int, den: int):
        """The payload of num/den (den nonzero): always a QQ constant."""
        return QQ(num, den)

    def gen(self, j: int) -> _RatPoly:
        return _RatPoly(self.ring.gens[j - 2], self.pone)


class _Series(tuple):
    """Payload of an hbar field, one slot payload per power of hbar.  Falsy
    exactly when every slot is zero; without an hbar part it hashes like its
    constant term, so == and hash agree with ints and Fractions."""

    __slots__ = ()

    def __bool__(self):
        return any(self)

    def __hash__(self):
        return tuple.__hash__(self) if any(self[1:]) else hash(self[0])


class _SeriesOps:
    """Payload arithmetic of an hbar field: truncated series over the slot ops.

    Addition is componentwise, the product is the convolution cut off at the
    last slot, and division multiplies by the inverse series, which exists
    when the constant term is nonzero.
    """

    def __init__(self, ops, slots: int):
        self.ops = ops
        self.slots = slots
        self.zero = self.lift(())
        self.one = self.lift((ops.one,))
        self.hbar = self.lift((ops.zero, ops.one)[:slots])

    def coeffs(self, x: _Series) -> tuple:
        return tuple(x)

    def lift(self, coeffs: tuple) -> _Series:
        """The series with these leading slots, zero above them."""
        return _Series(coeffs + (self.ops.zero,) * (self.slots - len(coeffs)))

    def add(self, x: _Series, y: _Series) -> _Series:
        return _Series(map(self.ops.add, x, y))

    def neg(self, x: _Series) -> _Series:
        return _Series(map(self.ops.neg, x))

    def sub(self, x: _Series, y: _Series) -> _Series:
        return _Series(map(self.ops.sub, x, y))

    def mul(self, x: _Series, y: _Series) -> _Series:
        # pair only the nonzero slots, and stop at the truncation order
        ops, slots = self.ops, self.slots
        out = [ops.zero] * slots
        ys = [(j, yj) for j, yj in enumerate(y) if yj]
        for i, xi in enumerate(x):
            if xi:
                for j, yj in ys:
                    k = i + j
                    if k >= slots:
                        break
                    out[k] = ops.add(out[k], ops.mul(xi, yj))
        return _Series(out)

    def div(self, x: _Series, y: _Series) -> _Series:
        ops = self.ops
        if not y:
            raise DivisionByZero("scalar division by zero")
        y0 = y[0]
        if not y0:
            raise NonInvertibleSeries("series has zero constant term")
        inv = [ops.div(ops.one, y0)]
        for k in range(1, self.slots):
            acc = ops.zero
            for j in range(1, k + 1):
                if y[j]:
                    acc = ops.add(acc, ops.mul(y[j], inv[k - j]))
            inv.append(ops.neg(ops.div(acc, y0)))
        return self.mul(x, _Series(inv))


def power(x, k: int, one):
    """x**k for k >= 0 by square-and-multiply: about 2*log2(k) products.

    The products are exact and associative, so the result is the k-fold one.
    """
    out = one
    while k:
        if k & 1:
            out = out * x
        k >>= 1
        if k:
            x = x * x
    return out


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------

class Scalar:
    """Immutable field element: one payload, computed on by its field's ops."""

    __slots__ = ("field", "pay")

    def __init__(self, field: "ScalarField", pay):
        self.field = field
        self.pay = pay

    # -- arithmetic ---------------------------------------------------------
    # A Scalar of the same field skips coerce.

    def __add__(self, other):
        field = self.field
        if type(other) is not Scalar or other.field is not field:
            other = field.coerce(other)
            if other is None:
                return NotImplemented
        return Scalar(field, field.ops.add(self.pay, other.pay))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.field, self.field.ops.neg(self.pay))

    def __sub__(self, other):
        field = self.field
        if type(other) is not Scalar or other.field is not field:
            other = field.coerce(other)
            if other is None:
                return NotImplemented
        return Scalar(field, field.ops.sub(self.pay, other.pay))

    def __rsub__(self, other):
        o = self.field.coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        field = self.field
        if type(other) is not Scalar or other.field is not field:
            other = field.coerce(other)
            if other is None:
                return NotImplemented
        return Scalar(field, field.ops.mul(self.pay, other.pay))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self.field.coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.field, self.field.ops.div(self.pay, o.pay))

    def __rtruediv__(self, other):
        o = self.field.coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return (1 / self) ** (-e)
        return power(self, e, self.field.one)

    # -- structure ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return other.field is self.field and self.pay == other.pay

    def __hash__(self):
        # agrees with __eq__ against ints and Fractions: a payload kind hashes
        # a rational value without an hbar part like the equal Fraction
        return hash(self.pay)

    def __bool__(self):
        return bool(self.pay)

    @property
    def is_zero(self) -> bool:
        return not self.pay

    @property
    def coeffs(self) -> tuple:
        """The slot payloads, one per power of hbar (one without hbar)."""
        return self.field.ops.coeffs(self.pay)

    @property
    def is_unit(self) -> bool:
        """Invertible: nonzero constant term."""
        return bool(self.coeffs[0])

    def hbar_coefficient(self, k: int) -> "Scalar":
        """Coefficient of hbar^k, as a scalar of the hbar-free base field."""
        if not 0 <= k < self.field.slots:
            raise HbarModeOff(f"no hbar^{k} slot in this field")
        return Scalar(self.field.base, self.coeffs[k])

    def as_rational(self) -> Fraction | None:
        """The value as a plain rational, if it is one; else None."""
        c0, *rest = self.coeffs
        if any(rest) or isinstance(c0, _RatPoly):
            # canonical pairs are never constant (they would be demoted)
            return None
        return Fraction(int(c0.numerator), int(c0.denominator))

    def payload_data(self, k: int):
        """Slot-k payload as primitive data for renderers.

        Returns ("rat", Fraction) for rational payloads and
        ("poly", num_terms, den_terms) for symbolic ones, where each terms
        tuple lists (exponents over g_2.., coefficient) descending.
        """
        p = self.coeffs[k]
        if isinstance(p, _RatPoly):
            return ("poly", _poly_terms(p.num), _poly_terms(p.den))
        return ("rat", Fraction(int(p.numerator), int(p.denominator)))

    # -- text ----------------------------------------------------------------

    def __str__(self) -> str:
        from .expr import format_scalar

        return format_scalar(self)

    def __repr__(self) -> str:
        return f"Scalar({self.coeffs!r})"


# ---------------------------------------------------------------------------
# Field
# ---------------------------------------------------------------------------

class ScalarField:
    """Context object: rank, optional hbar truncation order; the generators
    are g_1..g_r."""

    def __init__(
        self,
        rank: int = 1,
        hbar_order: int | None = None,
        _slot_ops=None,
        _base: "ScalarField | None" = None,
    ):
        if rank < 1:
            raise SignatureMismatch("rank must be >= 1")
        if hbar_order is not None and hbar_order < 0:
            raise SignatureMismatch("hbar order must be >= 0")
        self.rank = rank
        self.hbar_order = hbar_order
        self.slots = 1 if hbar_order is None else hbar_order + 1
        if _slot_ops is None:
            _slot_ops = _RationalOps() if rank == 1 else _RatPolyOps(rank)
        self._slot_ops = _slot_ops
        # the one arithmetic on this field's payloads
        self.ops = _slot_ops if hbar_order is None else _SeriesOps(_slot_ops, self.slots)
        self._base = _base
        self.zero = Scalar(self, self.ops.zero)
        self.one = Scalar(self, self.ops.one)
        self._int_cache: dict[int, Scalar] = {0: self.zero, 1: self.one}
        self._embed_cache: dict[tuple[int, ...], Scalar] = {}

    @property
    def base(self) -> "ScalarField":
        """The hbar-free field with the same rank, sharing payload arithmetic."""
        if self.hbar_order is None:
            return self
        if self._base is None:
            self._base = ScalarField(self.rank, None, _slot_ops=self._slot_ops)
        return self._base

    def with_hbar(self, order: int) -> "ScalarField":
        """An hbar-truncated twin of this field (payloads interoperable)."""
        return ScalarField(self.rank, order, _slot_ops=self._slot_ops, _base=self.base)

    def lift(self, s: Scalar) -> Scalar:
        """Reinterpret a scalar from an ops-sharing twin inside this field."""
        if s.field is self:
            return s
        if s.field._slot_ops is not self._slot_ops or len(s.coeffs) > self.slots:
            raise SignatureMismatch("scalar does not lift into this field")
        return Scalar(self, self.ops.lift(s.coeffs))

    def from_hbar_coefficients(self, cs) -> Scalar:
        """sum_k cs[k] * hbar^k for scalars cs[k] of the base field."""
        return Scalar(self, self.ops.lift(tuple(c.pay for c in cs)))

    @property
    def hbar(self) -> Scalar:
        if self.hbar_order is None:
            raise HbarModeOff("field has no hbar (enable a truncation order)")
        return Scalar(self, self.ops.hbar)

    def coerce(self, value) -> Scalar | None:
        """value as a scalar of this field: a Scalar of this field as it is,
        an int or a Fraction through from_rational, anything else None.  A
        Scalar of another field raises SignatureMismatch."""
        if isinstance(value, Scalar):
            if value.field is not self:
                raise SignatureMismatch("scalars from different fields")
            return value
        if isinstance(value, (int, Fraction)):
            return self.from_rational(value)
        return None

    def from_rational(self, value: int | Fraction) -> Scalar:
        if isinstance(value, int):
            cached = self._int_cache.get(value)
            if cached is not None:
                return cached
            num, den = value, 1
        else:
            num, den = value.numerator, value.denominator
        s = Scalar(self, self.ops.lift((self._slot_ops.rational(num, den),)))
        if isinstance(value, int) and -64 <= value <= 256:
            self._int_cache[value] = s
        return s

    def generator(self, j: int) -> Scalar:
        """The scalar g_j (1-based); g_1 is the unit."""
        if not 1 <= j <= self.rank:
            raise SignatureMismatch(f"generator index {j} out of range 1..{self.rank}")
        if j == 1:
            return self.one
        return Scalar(self, self.ops.lift((self._slot_ops.gen(j),)))

    def embed(self, ge: GroupElement) -> Scalar:
        """Lattice embedding: sum of coords[j] * g_j (g_1 = 1)."""
        if ge.rank != self.rank:
            raise SignatureMismatch("group element rank does not match field")
        hit = self._embed_cache.get(ge.coords)
        if hit is not None:
            return hit
        out = self.zero
        for j, c in enumerate(ge.coords, start=1):
            if c:
                out = out + self.generator(j) * c
        self._embed_cache[ge.coords] = out
        return out

    def __repr__(self):
        hb = f", hbar<= {self.hbar_order}" if self.hbar_order is not None else ""
        return f"ScalarField(rank={self.rank}{hb})"


# ---------------------------------------------------------------------------
# Renderer data
# ---------------------------------------------------------------------------

def _poly_terms(p) -> tuple:
    out = []
    for monom, coeff in p.terms():
        out.append((tuple(monom), Fraction(int(coeff.numerator), int(coeff.denominator))))
    out.sort(reverse=True)
    return tuple(out)

"""Exact linear algebra over the scalar field.

Vectors live in free modules indexed by arbitrary hashable keys (exponent
tuples, tensor tuples, cochain places) and are stored sparsely as mappings
from keys to payloads of the field, the form of every element's terms.
Elimination works on sparse rows ``{column index: nonzero payload}`` through
the field's ops: each row is folded into a reduced basis keyed by pivot
column, so its cost follows the nonzeros it touches rather than the width of
the matrix.  No numerics anywhere.  Over an hbar field, where the scalars
form the local ring k[hbar]/(hbar^{N+1}), each question reduces to
elimination over k.  Only the coefficients ``combination`` returns are
Scalars.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from .scalars import Scalar, ScalarField

Row = dict[int, object]


def to_rows(vectors: Sequence[Mapping]) -> list[Row]:
    """Sparse rows of ``vectors``; keys become columns in order of first appearance."""
    index = {k: j for j, k in enumerate(dict.fromkeys(k for v in vectors for k in v))}
    return [{index[k]: s for k, s in v.items() if s} for v in vectors]


def _subtract(row: Row, f, other: Row, ops) -> None:
    """row -= f * other, in place, dropping entries that cancel."""
    nf = ops.neg(f)
    for j, x in other.items():
        y = row.get(j)
        y = ops.mul(nf, x) if y is None else ops.add(y, ops.mul(nf, x))
        if y:
            row[j] = y
        else:
            row.pop(j, None)


def rref(rows: Sequence[Mapping[int, object]], field: ScalarField) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form of sparse payload rows over a field, exact.

    Each row is reduced against the basis kept so far, one subtraction per
    pivot it touches (basis rows vanish at every other pivot).  A nonzero
    remainder is scaled to 1 at its smallest column, which is then cleared
    from the earlier basis rows.  Returns the reduced rows sorted by pivot
    and the pivot columns: the unique RREF of the input.
    """
    ops = field.ops
    basis: dict[int, Row] = {}
    for row in rows:
        rem = dict(row)
        for p in [c for c in row if c in basis]:
            _subtract(rem, rem[p], basis[p], ops)
        if not rem:
            continue
        c = min(rem)
        inv = ops.div(ops.one, rem[c])
        rem = {j: ops.mul(inv, x) for j, x in rem.items()}
        for b in basis.values():
            if c in b:
                _subtract(b, b[c], rem, ops)
        basis[c] = rem
    pivots = sorted(basis)
    return [basis[p] for p in pivots], pivots


def _expand(vectors: Sequence[Mapping], field: ScalarField, shifts: range) -> list[dict]:
    """hbar^j * v over the base field k for each v, then each j in shifts,
    keyed by (key, slot)."""
    n, coeffs = field.slots, field.ops.coeffs
    return [
        {(k, j + t): c for k, s in v.items() for t, c in enumerate(coeffs(s)[: n - j]) if c}
        for v in vectors
        for j in shifts
    ]


def span_rank(vectors: Sequence[Mapping], field: ScalarField) -> int:
    """Over an hbar field, the minimal number of generators of the span M:
    dim_k M - dim_k(hbar M)."""
    if field.hbar_order is not None:
        n, k = field.slots, field.base
        full, shifted = _expand(vectors, field, range(n)), _expand(vectors, field, range(1, n))
        return span_rank(full, k) - span_rank(shifted, k)
    return len(rref(to_rows(vectors), field)[1])


def independent(vectors: Sequence[Mapping], field: ScalarField) -> bool:
    """Over an hbar field, freeness: the hbar^0 parts are independent over k
    (Nakayama)."""
    if field.hbar_order is not None:
        vectors = [{k: field.hbar_coefficient(s, 0) for k, s in v.items()} for v in vectors]
        field = field.base
    return span_rank(vectors, field) == len(vectors)


def combination(
    vectors: Sequence[Mapping], target: Mapping, field: ScalarField
) -> list[Scalar] | None:
    """Scalars c with sum(c_i * vectors[i]) = target, or None.

    Solved by eliminating the column matrix [v_1 ... v_m | target], one
    sparse row per key; free columns receive coefficient zero, so the answer
    is the canonical one relative to the pivot set.  Over an hbar field the
    columns are hbar^j * v_i over k, ordered by (i, j), and c_i is
    sum_j c_ij hbar^j.
    """
    if field.hbar_order is not None:
        n = field.slots
        flat = combination(
            _expand(vectors, field, range(n)), _expand([target], field, range(1))[0], field.base
        )
        if flat is None:
            return None
        return [field.from_hbar_coefficients(flat[i : i + n]) for i in range(0, len(flat), n)]
    columns = [*vectors, target]
    by_key: dict = {k: {} for v in columns for k in v}
    for i, v in enumerate(columns):
        for k, s in v.items():
            if s:
                by_key[k][i] = s
    m = len(vectors)
    zero = field.zero
    if not by_key:
        return [zero] * m
    reduced, pivots = rref(list(by_key.values()), field)
    if m in pivots:
        return None
    coeffs = [zero] * m
    for row, c in zip(reduced, pivots):
        if m in row:
            coeffs[c] = Scalar(field, row[m])
    return coeffs

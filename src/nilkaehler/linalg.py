"""Exact linear algebra over the Scalar fraction field.

Matrices are immutable tuples of tuples of Scalar.  Elimination routines
return side conditions, a tuple of the sign-normalised primitive parts of
the pivot numerators that were assumed nonzero.  A part free of parameters
never generates a condition, and constant pivots are preferred during pivot
selection so that conditions appear only when forced by symbolic entries.
A square matrix is nonsingular exactly when it has full rank over the
fraction field, ``len(rref(m)[1]) == len(m)``; no determinant is formed.

A subspace is a ``Span``, a basis reduced at its pivot columns.  It is
built once, by ``span`` from constant rows (one ``rref``) or by
``nullspace`` (symbolic entries allowed, conditions returned).
``Span.reduce`` clears a vector against the pivots, the one routine that
reads the reduced basis, so membership runs no elimination.

A tensor is ``Components``: a mapping from an index tuple to a nonzero
Scalar.  An absent index is a zero component, and an antisymmetric tensor
stores every image of a nonzero component, so no reader needs a sign rule.
Every such mapping is built by ``_accumulate``, moved by ``transform`` (an
index run through a matrix: raised, lowered or mapped by J), evaluated by
``contract`` (an index paired with a vector) and multiplied by ``compose``
(an index of one tensor paired with an index of another).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .scalar import ONE, ZERO, Scalar, ScalarLike, as_scalar

Matrix = tuple[tuple[Scalar, ...], ...]
Row = tuple[Scalar, ...]
Components = Mapping[tuple[int, ...], Scalar]


def as_matrix(rows: Iterable[Iterable[ScalarLike]]) -> Matrix:
    return tuple(tuple(as_scalar(x) for x in row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
    )


def shape(m: Matrix) -> tuple[int, int]:
    """(rows, columns); a matrix whose rows differ in length is rejected."""
    ncols = len(m[0]) if m else 0
    for i, row in enumerate(m):
        if len(row) != ncols:
            raise ValueError(f"ragged matrix: row {i + 1} has {len(row)} entries, not {ncols}")
    return (len(m), ncols)


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(
        tuple(_dot(row, col) for col in bt) for row in a
    )


def mat_vec(m: Matrix, v: Row) -> Row:
    return tuple(_dot(row, v) for row in m)


def _dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    total = ZERO
    for x, y in zip(u, v):
        if x.is_zero() or y.is_zero():
            continue
        total = total + x * y
    return total


def is_zero_matrix(m: Matrix) -> bool:
    return all(x.is_zero() for row in m for x in row)


def _accumulate(terms: Iterable[tuple[tuple[int, ...], Scalar]]) -> Components:
    """Sum the (index, value) terms per index and keep the nonzero sums."""
    acc: dict[tuple[int, ...], Scalar] = {}
    for idx, v in terms:
        acc[idx] = acc[idx] + v if idx in acc else v
    return {idx: v for idx, v in acc.items() if not v.is_zero()}


def contract(t: Components, slot: int, x: Sequence[Scalar]) -> Components:
    """sum_i x_i t[..., i, ...] with i at index ``slot``: that index removed."""
    return _accumulate((idx[:slot] + idx[slot + 1:], x[idx[slot]] * v)
                       for idx, v in t.items() if not x[idx[slot]].is_zero())


def transform(t: Components, slot: int, m: Matrix) -> Components:
    """sum_i t[..., i, ...] m[i][j] with j in place of i at index ``slot``."""
    return _accumulate((idx[:slot] + (j,) + idx[slot + 1:], v * mij)
                       for idx, v in t.items()
                       for j, mij in enumerate(m[idx[slot]]) if not mij.is_zero())


def compose(s: Components, si: int, t: Components, ti: int) -> Components:
    """sum_p s[..., p, ...] t[..., p, ...], p at index ``si`` of s and ``ti``
    of t: t's other indices in place of p."""
    by_p: dict[int, list[tuple[tuple[int, ...], Scalar]]] = {}
    for idx, v in t.items():
        by_p.setdefault(idx[ti], []).append((idx[:ti] + idx[ti + 1:], v))
    return _accumulate((idx[:si] + rest + idx[si + 1:], u * v)
                       for idx, u in s.items() for rest, v in by_p.get(idx[si], ()))


def _condition(pivot: Scalar) -> Scalar | None:
    """``pivot`` != 0 as a condition: the sign-normalised primitive part of
    its numerator (a quotient is nonzero exactly when that part is), or None
    when that part is free of parameters and so never vanishes."""
    if not pivot.free_params():
        return None
    poly = pivot.primitive_numerator()
    return poly if poly.free_params() else None


def _pick_pivot(rows: list[list[Scalar]], start: int, col: int) -> int | None:
    """Row index of a pivot in `col` at/below `start`; constants first."""
    fallback = None
    for i in range(start, len(rows)):
        entry = rows[i][col]
        if entry.is_zero():
            continue
        if entry.is_constant():
            return i
        if fallback is None:
            fallback = i
    return fallback


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...], tuple[Scalar, ...]]:
    """Reduced row echelon form, pivot columns, and the conditions of the
    pivots (see ``_condition``) in the order first met, without repeats."""
    rows = [list(row) for row in m]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    conditions: dict[Scalar, None] = {}
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        if r >= nrows:
            break
        p = _pick_pivot(rows, r, col)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pivot = rows[r][col]
        condition = _condition(pivot)
        if condition is not None:
            conditions[condition] = None
        inv = ONE / pivot
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and not rows[i][col].is_zero():
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return tuple(tuple(row) for row in rows), tuple(pivots), tuple(conditions)


@dataclass(frozen=True)
class Span:
    """Subspace of row vectors with a basis reduced at its pivots.

    Invariant: row r has a 1 at ``pivots[r]`` and every other row has a 0
    there.  A vector v is then sum_r v[pivots[r]] rows[r] when it lies in
    the span, so ``reduce`` subtracts that sum and membership asks whether
    the remainder is zero.
    """

    rows: tuple[Row, ...]
    pivots: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def reduce(self, v: Iterable[Scalar]) -> Row:
        """v with every pivot cleared: zero exactly when v lies in the span."""
        rest = list(v)
        for row, col in zip(self.rows, self.pivots):
            f = rest[col]
            if not f.is_zero():
                rest = [x - f * y for x, y in zip(rest, row)]
        return tuple(rest)

    def contains(self, v: Iterable[Scalar]) -> bool:
        return all(x.is_zero() for x in self.reduce(v))


def require_bound(rows: Iterable[Iterable[Scalar]]) -> None:
    """Raise ValueError naming the free parameters of the entries, if any."""
    free = set().union(*(x.free_params() for row in rows for x in row))
    if free:
        raise ValueError(f"unbound parameters: {', '.join(sorted(free))}")


def span(rows: Iterable[Iterable[Scalar]]) -> Span:
    """The span of the given constant rows, reduced by one ``rref``.

    Which rows are independent is a rank decision, so free parameters are
    refused rather than assumed generic.
    """
    mat = tuple(tuple(row) for row in rows)
    require_bound(mat)
    reduced, pivots, _ = rref(mat)
    return Span(reduced[: len(pivots)], pivots)


def nullspace(m: Matrix) -> tuple[Span, tuple[Scalar, ...]]:
    """The right nullspace {v : m v = 0} and the conditions its rref assumed.

    The basis vector of free column c has a 1 at c and a 0 at every other
    free column, so the free columns are the pivots of the Span.
    """
    reduced, pivots, conditions = rref(m)
    ncols = shape(m)[1]
    free = tuple(c for c in range(ncols) if c not in pivots)
    basis: list[Row] = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(tuple(v))
    return Span(tuple(basis), free), conditions


def invert(m: Matrix) -> Matrix:
    """Exact inverse; raises ValueError when singular as a symbolic matrix."""
    n = len(m)
    augmented = tuple(row + unit for row, unit in zip(m, identity(n)))
    reduced, pivots, _ = rref(augmented)
    if tuple(pivots) != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(row[n:] for row in reduced[:n])


def symmetric_signature(m: Iterable[Iterable[ScalarLike]]) -> tuple[int, int]:
    """Sylvester signature (positives, negatives) of an exact symmetric matrix.

    Entries are constants of Q(sqrt 2): ints, Fractions or Scalars without
    free parameters, whose signs ``Scalar.sign`` decides exactly.  Symmetric
    Gaussian elimination: each step takes the Schur complement of the
    trailing block with respect to a nonzero diagonal pivot.  A zero
    diagonal with a nonzero entry in its row is repaired by a congruence
    transform (add or subtract the partner row and column; one of the two
    signs always produces a nonzero diagonal).
    """
    rows = [list(row) for row in as_matrix(m)]
    n = len(rows)
    for i in range(n):
        for j in range(i):
            if rows[i][j] != rows[j][i]:
                raise ValueError("matrix is not symmetric")
    pos = neg = 0
    for k in range(n):
        if rows[k][k].is_zero():
            j = next((c for c in range(k + 1, n) if not rows[k][c].is_zero()), None)
            if j is None:
                raise ValueError("matrix is singular")
            for t in (1, -1):
                if not (2 * t * rows[k][j] + rows[j][j]).is_zero():
                    for c in range(k, n):
                        rows[k][c] += t * rows[j][c]
                    for r in range(k, n):
                        rows[r][k] += t * rows[r][j]
                    break
        d = rows[k][k]
        if d.sign() > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            f = rows[i][k] / d
            if not f.is_zero():
                for c in range(k + 1, n):
                    rows[i][c] -= f * rows[k][c]
    return pos, neg

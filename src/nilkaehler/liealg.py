"""Lie algebras over the Scalar field: brackets, series, classification.

The structure constants are ``linalg.Components``: ``constants[i, j, k]``
is the nonzero C_ij^k, stored for both orders of the pair (C_ji^k is
-C_ij^k).  All Python-level indices are 0-based; ``LieAlgebra.from_terms``
takes the 1-based indices of the printed basis e1..e6.
The terms of the ascending series are ``linalg.Span`` values straight from
``linalg.nullspace``.  Each step reduces the brackets [e_i, e_j] against
the previous term with ``Span.reduce``; the remainders are the constraints
whose nullspace is the next term.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Mapping

from . import linalg
from .scalar import ZERO, Scalar, ScalarLike, as_scalar

Row = linalg.Row


@dataclass(frozen=True)
class Vector:
    """Element of the algebra in basis coordinates."""

    components: tuple[Scalar, ...]

    @classmethod
    def of(cls, entries: Iterable[ScalarLike]) -> "Vector":
        return cls(tuple(as_scalar(v) for v in entries))

    @property
    def dim(self) -> int:
        return len(self.components)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __add__(self, other: "Vector") -> "Vector":
        return Vector(tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "Vector") -> "Vector":
        return Vector(tuple(a - b for a, b in zip(self.components, other.components)))

    def __iter__(self):
        return iter(self.components)


class LieAlgebra:
    """dim and the structure constants C_ij^k; the basis prints as e1..e{dim}."""

    def __init__(
        self, dim: int, constants: Mapping[tuple[int, int], Mapping[int, ScalarLike]]
    ):
        """``constants`` maps each pair i < j to the components of [e_i, e_j]."""
        if dim <= 0:
            raise ValueError("dimension must be positive")
        self.dim = dim
        terms = []
        for (i, j), row in sorted(constants.items()):
            if not (0 <= i < j < dim):
                raise ValueError(f"bad bracket pair ({i}, {j}); need 0 <= i < j < dim")
            for k, c in row.items():
                if not 0 <= k < dim:
                    raise ValueError(f"bad bracket target {k}")
                c = as_scalar(c)
                terms += [((i, j, k), c), ((j, i, k), -c)]
        self.constants: linalg.Components = linalg._accumulate(terms)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_terms(
        cls, dim: int, terms: Iterable[tuple[int, int, int, ScalarLike]]
    ) -> "LieAlgebra":
        """Build from 1-based (i, j, k, c) items, as written in data files;
        a failure of the Jacobi identity raises ValueError naming the
        failing triples, 1-based too."""
        table: dict[tuple[int, int], dict[int, Scalar]] = {}
        for i, j, k, c in terms:
            c = as_scalar(c)
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise ValueError(f"bad bracket pair ({i}, {j}); need indices in 1..{dim}")
            if not 1 <= k <= dim:
                raise ValueError(f"bad bracket target {k}; need an index in 1..{dim}")
            if i == j:
                raise ValueError(f"bracket [e{i}, e{j}] must vanish")
            if i > j:
                i, j, c = j, i, -c
            key = (i - 1, j - 1)
            row = table.setdefault(key, {})
            if k - 1 in row:
                raise ValueError(f"duplicate bracket component ({i}, {j}, {k})")
            row[k - 1] = c
        alg = cls(dim, table)
        bad = [(i + 1, j + 1, k + 1) for i, j, k in jacobi_check(alg)]
        if bad:
            raise ValueError(f"Jacobi identity fails on triples {bad}")
        return alg

    # -- basic structure -----------------------------------------------------

    def structure_constant(self, i: int, j: int, k: int) -> Scalar:
        return self.constants.get((i, j, k), ZERO)

    def __repr__(self) -> str:
        upper = sorted((key, c) for key, c in self.constants.items() if key[0] < key[1])
        parts = []
        for (i, j), group in groupby(upper, key=lambda item: item[0][:2]):
            terms = " + ".join(
                f"{'' if c.is_one() else f'({c})*'}e{k + 1}" for (_, _, k), c in group
            )
            parts.append(f"[e{i + 1}, e{j + 1}] = {terms}")
        inner = "; ".join(parts) if parts else "abelian"
        return f"LieAlgebra(dim={self.dim}, {inner})"


def bracket(alg: LieAlgebra, x: Vector, y: Vector) -> Vector:
    """[X, Y] = sum_ij x_i y_j C_ij^k e_k: C contracted with X, then Y."""
    if x.dim != alg.dim or y.dim != alg.dim:
        raise ValueError("vector dimension does not match the algebra")
    out = linalg.contract(linalg.contract(alg.constants, 0, x.components), 0, y.components)
    return Vector(tuple(out.get((k,), ZERO) for k in range(alg.dim)))


def jacobi_check(alg: LieAlgebra) -> list[tuple[int, int, int]]:
    """Sorted triples i < j < k where the Jacobi identity fails; empty means pass.

    [[e_a, e_b], e_c] + [[e_b, e_c], e_a] + [[e_c, e_a], e_b] has the
    components sum_p (C_ab^p C_pc^m + C_bc^p C_pa^m + C_ca^p C_pb^m), so
    each sum over p of C_ab^p C_pc^m lands on (a, b, c), (b, c, a) and
    (c, a, b).  The sum vanishes on a triple with a repeated index, so c in
    {a, b} is skipped.
    """
    C = alg.constants
    failing = linalg._accumulate(
        term for (a, b, c, m), v in linalg.compose(C, 2, C, 0).items()
        if c != a and c != b
        for term in (((a, b, c, m), v), ((b, c, a, m), v), ((c, a, b, m), v)))
    return sorted({idx[:3] for idx in failing if idx[0] < idx[1] < idx[2]})


# -- ascending series -------------------------------------------------------


def _membership_constraints(alg: LieAlgebra, subspace: linalg.Span) -> linalg.Matrix:
    """Rows M with M x = 0 iff [x, e_j] lies in the subspace for every j.

    Row (j, m) holds in column i the m-th component of [e_i, e_j] reduced
    against the subspace.
    """
    n = alg.dim
    rows: list[Row] = []
    for j in range(n):
        columns = [subspace.reduce(alg.structure_constant(i, j, m) for m in range(n))
                   for i in range(n)]
        rows.extend(zip(*columns))
    return tuple(rows)


def ascending_series(
    alg: LieAlgebra, twist: linalg.Matrix | None = None
) -> list[linalg.Span]:
    """g_1 = center, g_k = {X : [X, g] in g_{k-1}}, until stable.

    With ``twist`` (a matrix P acting on column vectors) each term also
    asks [P X, g] in g_{k-1}; P = J^T gives the J-twisted series.

    The structure constants and the twist must be free of parameters: the
    terms rest on rank decisions that a parameter value can change, so a
    free one raises ValueError rather than being assumed generic.
    """
    linalg.require_bound([alg.constants.values(), *(twist or ())])
    series: list[linalg.Span] = []
    prev = linalg.Span((), ())
    while len(prev) < alg.dim:
        constraints = _membership_constraints(alg, prev)
        if twist is not None:
            # Span.reduce is linear, so the remainders of [P x, e_j] are M P x
            constraints += linalg.mat_mul(constraints, twist)
        term, _ = linalg.nullspace(constraints)
        if len(term) == len(prev):
            break
        series.append(term)
        prev = term
    return series


def algebra_type(alg: LieAlgebra) -> tuple[int, ...]:
    """Strictly increasing dimension tuple of the ascending series."""
    return tuple(len(term) for term in ascending_series(alg))

"""Lie algebras over the Scalar field: brackets, series, classification.

The structure constants are ``linalg.Components``: ``constants[i, j, k]``
is the nonzero C_ij^k, stored for both orders of the pair (C_ji^k is
-C_ij^k).  All Python-level indices are 0-based.
The JSON interchange format (see ``from_json_dict``) is 1-based, matching
the printed basis labels e1..e6.  The terms of the central series are
``linalg.Span`` values: the ascending terms come straight from
``linalg.nullspace`` and the descending ones from ``linalg.span``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Mapping, Sequence

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

    def scale(self, c: ScalarLike) -> "Vector":
        c = as_scalar(c)
        return Vector(tuple(c * v for v in self.components))

    def __iter__(self):
        return iter(self.components)


class LieAlgebra:
    """dim, the structure constants C_ij^k, basis labels."""

    def __init__(
        self,
        dim: int,
        constants: Mapping[tuple[int, int], Mapping[int, ScalarLike]],
        labels: Sequence[str] | None = None,
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
        self.basis_labels = (
            tuple(labels) if labels else tuple(f"e{i + 1}" for i in range(dim))
        )
        if len(self.basis_labels) != dim:
            raise ValueError("label count must match dimension")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_terms(
        cls,
        dim: int,
        terms: Iterable[tuple[int, int, int, ScalarLike]],
        labels: Sequence[str] | None = None,
        check: bool = True,
    ) -> "LieAlgebra":
        """Build from 1-based (i, j, k, c) items, as written in data files."""
        table: dict[tuple[int, int], dict[int, Scalar]] = {}
        for i, j, k, c in terms:
            c = as_scalar(c)
            if i == j:
                raise ValueError(f"bracket [e{i}, e{j}] must vanish")
            if i > j:
                i, j, c = j, i, -c
            key = (i - 1, j - 1)
            row = table.setdefault(key, {})
            if k - 1 in row:
                raise ValueError(f"duplicate bracket component ({i}, {j}, {k})")
            row[k - 1] = c
        alg = cls(dim, table, labels)
        if check:
            bad = jacobi_check(alg)
            if bad:
                raise ValueError(f"Jacobi identity fails on triples {bad}")
        return alg

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "LieAlgebra":
        terms = [(b["i"], b["j"], b["k"], b["c"]) for b in obj.get("brackets", [])]
        return cls.from_terms(int(obj["dim"]), terms, check=True)

    def to_json_dict(self) -> dict:
        brackets = [
            {"i": i + 1, "j": j + 1, "k": k + 1, "c": str(c)}
            for (i, j, k), c in sorted(self.constants.items())
            if i < j
        ]
        return {"dim": self.dim, "brackets": brackets}

    # -- basic structure -----------------------------------------------------

    def structure_constant(self, i: int, j: int, k: int) -> Scalar:
        return self.constants.get((i, j, k), ZERO)

    def basis_vector(self, i: int) -> Vector:
        return Vector.of(1 if t == i else 0 for t in range(self.dim))

    def __repr__(self) -> str:
        upper = sorted((key, c) for key, c in self.constants.items() if key[0] < key[1])
        parts = []
        for (i, j), group in groupby(upper, key=lambda item: item[0][:2]):
            terms = " + ".join(
                f"{'' if c.is_one() else f'({c})*'}{self.basis_labels[k]}"
                for (_, _, k), c in group
            )
            parts.append(f"[{self.basis_labels[i]}, {self.basis_labels[j]}] = {terms}")
        inner = "; ".join(parts) if parts else "abelian"
        return f"LieAlgebra(dim={self.dim}, {inner})"


def bracket(alg: LieAlgebra, x: Vector, y: Vector) -> Vector:
    """[X, Y] via bilinear extension of the basis brackets."""
    if x.dim != alg.dim or y.dim != alg.dim:
        raise ValueError("vector dimension does not match the algebra")
    out = [ZERO] * alg.dim
    for (i, j, k), c in alg.constants.items():
        if i > j:
            continue
        coeff = x.components[i] * y.components[j] - x.components[j] * y.components[i]
        if not coeff.is_zero():
            out[k] = out[k] + coeff * c
    return Vector(tuple(out))


def jacobi_check(alg: LieAlgebra) -> list[tuple[int, int, int]]:
    """Triples (i, j, k) where the Jacobi identity fails; empty means pass."""
    violations = []
    basis = [alg.basis_vector(i) for i in range(alg.dim)]
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            for k in range(j + 1, alg.dim):
                total = (
                    bracket(alg, bracket(alg, basis[i], basis[j]), basis[k])
                    + bracket(alg, bracket(alg, basis[j], basis[k]), basis[i])
                    + bracket(alg, bracket(alg, basis[k], basis[i]), basis[j])
                )
                if not total.is_zero():
                    violations.append((i, j, k))
    return violations


# -- central series ---------------------------------------------------------


def descending_series(alg: LieAlgebra) -> list[linalg.Span]:
    """C^0 = g, C^k = [g, C^{k-1}], until the dimension stabilizes."""
    current = linalg.Span(linalg.identity(alg.dim), tuple(range(alg.dim)))
    series = [current]
    while current:
        term = linalg.span(
            bracket(alg, alg.basis_vector(i), Vector(w)).components
            for w in current
            for i in range(alg.dim)
        )
        if len(term) == len(current):
            break
        series.append(term)
        current = term
    return series


def _membership_constraints(
    alg: LieAlgebra, subspace: linalg.Span, pre: linalg.Matrix | None = None
) -> linalg.Matrix:
    """Rows M with M x = 0 iff [P x, e_j] lies in the subspace for every j.

    P is the optional ``pre`` matrix acting on column vectors (identity when
    omitted); passing the transpose of an endomorphism row-matrix constrains
    the image [Jx, e_j] instead of [x, e_j].
    """
    n = alg.dim
    rows: list[Row] = []
    for j in range(n):
        # column i of B is [e_i, e_j]
        b = [[alg.structure_constant(i, j, m) for i in range(n)] for m in range(n)]
        if pre is not None:
            b = [list(r) for r in linalg.mat_mul(tuple(tuple(r) for r in b), pre)]
        # residual of B x after clearing against the subspace pivots,
        # touching only entries where both factors are nonzero
        for basis_row, pc in zip(subspace.rows, subspace.pivots):
            coeffs = [(i, c) for i, c in enumerate(b[pc]) if not c.is_zero()]
            for m, x in enumerate(basis_row):
                if x.is_zero():
                    continue
                row = b[m]
                for i, c in coeffs:
                    row[i] = row[i] - x * c
        rows.extend(tuple(row) for row in b)
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
            constraints += _membership_constraints(alg, prev, pre=twist)
        term, _ = linalg.nullspace(constraints)
        if len(term) == len(prev):
            break
        series.append(term)
        prev = term
    return series


def algebra_type(alg: LieAlgebra) -> tuple[int, ...]:
    """Strictly increasing dimension tuple of the ascending series."""
    return tuple(len(term) for term in ascending_series(alg))


def center(alg: LieAlgebra) -> linalg.Span:
    series = ascending_series(alg)
    return series[0] if series else linalg.Span((), ())

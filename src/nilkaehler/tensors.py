"""Symplectic forms, almost-complex structures, and the constraint residuals.

Conventions, fixed once and used everywhere downstream:

* a 2-form written as a combination of e^i ^ e^j terms with i < j stores
  omega_ij = +c and omega_ji = -c, so omega(e_i, e_j) = omega_ij;
* an endomorphism matrix is row-oriented: J e_i = J_i^k e_k, i.e. row i
  holds the image of the i-th basis vector.  Column-oriented sources must
  be transposed on entry;
* dw and the Nijenhuis tensor are ``linalg.Components``, as the structure
  constants are: the nonzero components under every order of their
  antisymmetric indices, an absent index being a zero component.

The data files that store forms and structures are read by ``catalog``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from . import liealg, linalg
from .liealg import LieAlgebra, Vector
from .linalg import Components, _accumulate, _dot, mat_vec, transform
from .scalar import ZERO, ParamBinding, Scalar, ScalarLike, as_scalar


class TwoForm:
    """Antisymmetric dim x dim Scalar matrix."""

    __slots__ = ("omega",)

    def __init__(self, omega: Sequence[Sequence[ScalarLike]]):
        m = linalg.as_matrix(omega)
        n, cols = linalg.shape(m)
        if n != cols:
            raise ValueError("2-form matrix must be square")
        for i in range(n):
            for j in range(i, n):
                if not (m[i][j] + m[j][i]).is_zero():
                    raise ValueError(f"not antisymmetric at ({i}, {j})")
        self.omega = m

    @classmethod
    def from_terms(
        cls, dim: int, terms: Iterable[tuple[int, int, ScalarLike]]
    ) -> "TwoForm":
        """Build from 1-based (i, j, c) items meaning c * e^i ^ e^j."""
        if dim < 1:
            raise ValueError("dimension must be positive")
        entries = [[ZERO] * dim for _ in range(dim)]
        seen = set()
        for i, j, c in terms:
            c = as_scalar(c)
            if i == j:
                raise ValueError(f"term e^{i} ^ e^{j} is zero")
            if i > j:
                i, j, c = j, i, -c
            if not (1 <= i < j <= dim):
                raise ValueError(f"term indices ({i}, {j}) out of range")
            if (i, j) in seen:
                raise ValueError(f"duplicate term ({i}, {j})")
            seen.add((i, j))
            entries[i - 1][j - 1] = c
            entries[j - 1][i - 1] = -c
        return cls(entries)

    @property
    def dim(self) -> int:
        return len(self.omega)

    def apply(self, x: Vector, y: Vector) -> Scalar:
        return _dot(x.components, mat_vec(self.omega, y.components))

    def substitute(self, binding: ParamBinding) -> "TwoForm":
        return TwoForm([[c.substitute(binding) for c in row] for row in self.omega])

    def free_params(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for row in self.omega:
            for c in row:
                out |= c.free_params()
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, TwoForm) and self.omega == other.omega

    def __hash__(self) -> int:
        return hash(self.omega)

    def __repr__(self) -> str:
        terms = [
            f"{'' if c.is_one() else f'({c})*'}e{i + 1}^e{j + 1}"
            for i, row in enumerate(self.omega)
            for j, c in enumerate(row)
            if j > i and not c.is_zero()
        ]
        return f"TwoForm({' + '.join(terms) if terms else '0'})"


class Endomorphism:
    """Row-oriented matrix of a linear map: row i is the image of e_i."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[ScalarLike]]):
        m = linalg.as_matrix(rows)
        n, cols = linalg.shape(m)
        if n != cols:
            raise ValueError("endomorphism matrix must be square")
        self.rows = m

    @property
    def dim(self) -> int:
        return len(self.rows)

    def apply(self, v: Vector) -> Vector:
        # (Jv)_k = sum_i v_i J_i^k
        return Vector(mat_vec(linalg.transpose(self.rows), v.components))

    def substitute(self, binding: ParamBinding) -> "Endomorphism":
        return Endomorphism(
            [[c.substitute(binding) for c in row] for row in self.rows]
        )

    def free_params(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for row in self.rows:
            for c in row:
                out |= c.free_params()
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Endomorphism) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Endomorphism(dim={self.dim})"


# -- exterior derivative ------------------------------------------------------


def exterior_d(alg: LieAlgebra, w: TwoForm) -> Components:
    """dw(X,Y,Z) = w([X,Y],Z) - w([X,Z],Y) + w([Y,Z],X) on every basis triple.

    On basis vectors this is the cyclic sum C_ij^p w_pk + C_jk^p w_pi +
    C_ki^p w_pj, so each sum over p of C_ab^p w_pt lands on (a, b, t),
    (t, a, b) and (b, t, a).  A triple with a repeated index sums to zero,
    so t in {a, b} is skipped.
    """
    return _accumulate(term for (a, b, t), v in transform(alg.constants, 2, w.omega).items()
                       if t != a and t != b
                       for term in (((a, b, t), v), ((t, a, b), v), ((b, t, a), v)))


def is_closed(alg: LieAlgebra, w: TwoForm) -> bool:
    return not exterior_d(alg, w)


def nondegenerate(w: TwoForm) -> bool:
    """Full rank over the fraction field, i.e. det(omega) != 0."""
    return len(linalg.rref(w.omega)[1]) == w.dim


# -- the three pseudo-Kaehler residuals --------------------------------------


def compat_residual(w: TwoForm, J: Endomorphism) -> linalg.Matrix:
    """Matrix with entry (i, j) = omega_kj J_i^k + omega_is J_j^s.

    That is J omega + omega J^T = P - P^T with P = J omega, because omega
    is antisymmetric: omega J^T = -(J omega)^T.
    """
    p = linalg.mat_mul(J.rows, w.omega)
    return tuple(tuple(x - y for x, y in zip(row, col))
                 for row, col in zip(p, linalg.transpose(p)))


def almost_complex_residual(J: Endomorphism) -> linalg.Matrix:
    """J^2 + I; zero exactly when J is almost complex."""
    return linalg.mat_add(linalg.mat_mul(J.rows, J.rows), linalg.identity(J.dim))


def nijenhuis(alg: LieAlgebra, J: Endomorphism) -> Components:
    """N_ij^k of N(X, Y) = [JX, JY] - [X, Y] - J[JX, Y] - J[X, JY].

    With M_ij^c = J_i^a C_aj^c, the components of [J e_i, e_j]:
    [J e_i, J e_j] is M_ib^k J_j^b, J[J e_i, e_j] is M_ij^c J_c^k and
    J[e_i, J e_j] is -M_ji^c J_c^k.  The i < j half is summed and its
    mirror image stored negated.
    """
    n = alg.dim
    rows = J.rows
    M = transform(alg.constants, 0, linalg.transpose(rows))

    def terms():
        for (i, b, k), m in M.items():
            for j in range(i + 1, n):
                if not rows[j][b].is_zero():
                    yield (i, j, k), m * rows[j][b]
        for (i, j, k), c in alg.constants.items():
            if i < j:
                yield (i, j, k), -c
        for (i, j, c), m in M.items():
            if i != j:
                for k, jck in enumerate(rows[c]):
                    if not jck.is_zero():
                        t = m * jck
                        yield ((i, j, k), -t) if i < j else ((j, i, k), t)

    half = _accumulate(terms())
    return {**half, **{(j, i, k): -v for (i, j, k), v in half.items()}}


def is_integrable(alg: LieAlgebra, J: Endomorphism) -> bool:
    return not nijenhuis(alg, J)


# -- J-twisted ascending series ----------------------------------------------


def j_ascending_series(alg: LieAlgebra, J: Endomorphism) -> list[linalg.Span]:
    """a_l(J) = {X : [X, g] and [JX, g] both lie in a_{l-1}(J)}.

    Needs a fully bound J: ``liealg.ascending_series`` raises ValueError on
    a free parameter.
    """
    return liealg.ascending_series(alg, twist=linalg.transpose(J.rows))


def is_nilpotent_J(alg: LieAlgebra, J: Endomorphism) -> bool:
    series = j_ascending_series(alg, J)
    return bool(series) and len(series[-1]) == alg.dim


def is_abelian_J(alg: LieAlgebra, J: Endomorphism) -> bool:
    """True when [JX, JY] = [X, Y] on all basis pairs: J_i^a J_j^b C_ab^k = C_ij^k."""
    if J.dim != alg.dim:
        raise ValueError("endomorphism dimension does not match the algebra")
    Jt = linalg.transpose(J.rows)
    return transform(transform(alg.constants, 0, Jt), 1, Jt) == alg.constants

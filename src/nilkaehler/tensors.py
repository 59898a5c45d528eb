"""Symplectic forms, almost-complex structures, and the constraint residuals.

Conventions, fixed once and used everywhere downstream:

* a 2-form written as a combination of e^i ^ e^j terms with i < j stores
  omega_ij = +c and omega_ji = -c, so omega(e_i, e_j) = omega_ij;
* an endomorphism matrix is row-oriented: J e_i = J_i^k e_k, i.e. row i
  holds the image of the i-th basis vector.  Column-oriented sources must
  be transposed on entry.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from . import liealg, linalg
from .liealg import LieAlgebra, Vector
from .scalar import ONE, ZERO, ParamBinding, Scalar, ScalarLike, as_scalar


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

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "TwoForm":
        terms = [(t["i"], t["j"], t["c"]) for t in obj.get("terms", [])]
        return cls.from_terms(int(obj["dim"]), terms)

    def to_json_dict(self) -> dict:
        terms = []
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                if not self.omega[i][j].is_zero():
                    terms.append({"i": i + 1, "j": j + 1, "c": str(self.omega[i][j])})
        return {"dim": n, "terms": terms}

    @property
    def dim(self) -> int:
        return len(self.omega)

    def entry(self, i: int, j: int) -> Scalar:
        return self.omega[i][j]

    def apply(self, x: Vector, y: Vector) -> Scalar:
        out = ZERO
        for i, xi in enumerate(x.components):
            if xi.is_zero():
                continue
            for j, yj in enumerate(y.components):
                if yj.is_zero() or self.omega[i][j].is_zero():
                    continue
                out = out + xi * yj * self.omega[i][j]
        return out

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

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "Endomorphism":
        rows = obj["rows"]
        if len(rows) != int(obj["dim"]):
            raise ValueError("row count must match dim")
        return cls(rows)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "rows": [[str(c) for c in row] for row in self.rows],
        }

    @property
    def dim(self) -> int:
        return len(self.rows)

    def entry(self, i: int, k: int) -> Scalar:
        return self.rows[i][k]

    def image_of_basis(self, i: int) -> Vector:
        return Vector(self.rows[i])

    def apply(self, v: Vector) -> Vector:
        # (Jv)_k = sum_i v_i J_i^k
        out = [ZERO] * self.dim
        for i, vi in enumerate(v.components):
            if vi.is_zero():
                continue
            for k, c in enumerate(self.rows[i]):
                if not c.is_zero():
                    out[k] = out[k] + vi * c
        return Vector(tuple(out))

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


class ThreeForm:
    """Totally antisymmetric 3-index array, stored on i < j < k."""

    __slots__ = ("dim", "_data")

    def __init__(self, dim: int, data: Mapping[tuple[int, int, int], Scalar]):
        self.dim = dim
        self._data = {
            key: c for key, c in data.items() if not c.is_zero()
        }
        for i, j, k in self._data:
            if not 0 <= i < j < k < dim:
                raise ValueError(f"triple {(i, j, k)} not strictly increasing")

    def component(self, i: int, j: int, k: int) -> Scalar:
        if i == j or j == k or i == k:
            return ZERO
        order = sorted((i, j, k))
        value = self._data.get(tuple(order), ZERO)
        # parity of the permutation taking (i, j, k) to sorted order
        perm = [order.index(t) for t in (i, j, k)]
        inversions = sum(
            1 for a in range(3) for b in range(a + 1, 3) if perm[a] > perm[b]
        )
        return value if inversions % 2 == 0 else -value

    def is_zero(self) -> bool:
        return not self._data

    def nonzero_triples(self) -> list[tuple[int, int, int]]:
        return sorted(self._data)

    def __repr__(self) -> str:
        return f"ThreeForm(dim={self.dim}, nonzero={len(self._data)})"


# -- exterior derivative ------------------------------------------------------


def exterior_d(alg: LieAlgebra, w: TwoForm) -> ThreeForm:
    """dw on basis triples: dw(X,Y,Z) = w([X,Y],Z) - w([X,Z],Y) + w([Y,Z],X)."""
    n = alg.dim

    def pairing(sparse: Mapping[int, Scalar], t: int) -> Scalar:
        out = ZERO
        for m, c in sparse.items():
            if not w.omega[m][t].is_zero():
                out = out + c * w.omega[m][t]
        return out

    data = {}
    for i in range(n):
        for j in range(i + 1, n):
            bij = alg.bracket_basis(i, j)
            for k in range(j + 1, n):
                val = (
                    pairing(bij, k)
                    - pairing(alg.bracket_basis(i, k), j)
                    + pairing(alg.bracket_basis(j, k), i)
                )
                if not val.is_zero():
                    data[(i, j, k)] = val
    return ThreeForm(n, data)


def is_closed(alg: LieAlgebra, w: TwoForm) -> bool:
    return exterior_d(alg, w).is_zero()


def nondegenerate(w: TwoForm) -> bool:
    return not linalg.det(w.omega).is_zero()


# -- the three pseudo-Kaehler residuals --------------------------------------


def compat_residual(w: TwoForm, J: Endomorphism) -> linalg.Matrix:
    """Matrix with entry (i, j) = omega_kj J_i^k + omega_is J_j^s."""
    jw = linalg.mat_mul(J.rows, w.omega)
    wjt = linalg.mat_mul(w.omega, linalg.transpose(J.rows))
    return linalg.mat_add(jw, wjt)


def is_compatible(w: TwoForm, J: Endomorphism) -> bool:
    return linalg.is_zero_matrix(compat_residual(w, J))


def almost_complex_residual(J: Endomorphism) -> linalg.Matrix:
    """J^2 + I; zero exactly when J is almost complex."""
    return linalg.mat_add(linalg.mat_mul(J.rows, J.rows), linalg.identity(J.dim))


def nijenhuis(alg: LieAlgebra, J: Endomorphism):
    """N_ij^k as a dim^3 nested tuple, antisymmetric in (i, j).

    N(X, Y) = [JX, JY] - [X, Y] - J[JX, Y] - J[X, JY].
    """
    n = alg.dim
    out = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    images = [J.image_of_basis(i) for i in range(n)]
    basis = [alg.basis_vector(i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = (
                liealg.bracket(alg, images[i], images[j])
                - liealg.bracket(alg, basis[i], basis[j])
                - J.apply(liealg.bracket(alg, images[i], basis[j]))
                - J.apply(liealg.bracket(alg, basis[i], images[j]))
            )
            for k, c in enumerate(v.components):
                out[i][j][k] = c
                out[j][i][k] = -c
    return tuple(tuple(tuple(row) for row in plane) for plane in out)


def is_integrable(alg: LieAlgebra, J: Endomorphism) -> bool:
    N = nijenhuis(alg, J)
    return all(c.is_zero() for plane in N for row in plane for c in row)


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
    """True when [JX, JY] = [X, Y] on all basis pairs."""
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            lhs = liealg.bracket(alg, J.image_of_basis(i), J.image_of_basis(j))
            rhs = Vector.of(
                [alg.structure_constant(i, j, k) for k in range(alg.dim)]
            )
            if not (lhs - rhs).is_zero():
                return False
    return True

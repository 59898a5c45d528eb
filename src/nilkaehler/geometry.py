"""Pseudo-Riemannian machinery for the metric associated to a (omega, J) pair.

Everything is exact: metrics, Christoffel symbols and curvature live over
the fraction field provided by ``scalar``.  Index conventions follow the
rest of the package (0-based, row i of an endomorphism is the image of
e_i), and the metric is g_ij = sum_s omega_is J_j^s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations
from typing import Mapping, Sequence

from . import liealg, linalg
from .liealg import LieAlgebra, Vector
from .scalar import ZERO, ParamBinding, Scalar
from .tensors import Endomorphism, TwoForm

Gamma3 = tuple[tuple[tuple[Scalar, ...], ...], ...]
Up4 = tuple[tuple[tuple[tuple[Scalar, ...], ...], ...], ...]

_HALF = Scalar.from_fraction(Fraction(1, 2))


@dataclass(frozen=True)
class Metric:
    """Symmetric nondegenerate matrix together with its exact inverse."""

    g: linalg.Matrix
    g_inv: linalg.Matrix

    @property
    def dim(self) -> int:
        return len(self.g)


@dataclass(frozen=True)
class Connection:
    """Levi-Civita coefficients gamma[i][j][k] = Gamma_ij^k."""

    gamma: Gamma3

    @property
    def dim(self) -> int:
        return len(self.gamma)

    def entry(self, i: int, j: int, k: int) -> Scalar:
        return self.gamma[i][j][k]

    def nonzero(self) -> list[tuple[int, int, int, Scalar]]:
        n = self.dim
        return [
            (i, j, k, self.gamma[i][j][k])
            for i in range(n)
            for j in range(n)
            for k in range(n)
            if not self.gamma[i][j][k].is_zero()
        ]


@dataclass(frozen=True)
class Curvature:
    """The curvature of a metric, every field filled by ``curvature``.

    up[i][j][k][s] = R_ijk^s, down[i][j][k][l] = R_ijkl, ricci[j][k] =
    Ric_jk and norm = g(R, R).
    """

    up: Up4
    down: Up4
    ricci: linalg.Matrix
    norm: Scalar

    @property
    def dim(self) -> int:
        return len(self.up)

    def up_component(self, i: int, j: int, k: int, s: int) -> Scalar:
        return self.up[i][j][k][s]

    def down_component(self, i: int, j: int, k: int, l: int) -> Scalar:
        return self.down[i][j][k][l]

    def is_flat(self) -> bool:
        return all(
            v.is_zero() for plane in self.up for row in plane for col in row for v in col
        )


def _freeze3(a: list) -> Gamma3:
    return tuple(tuple(tuple(row) for row in plane) for plane in a)


def _freeze4(a: list) -> Up4:
    return tuple(tuple(tuple(tuple(col) for col in row) for row in plane) for plane in a)


def metric_from_matrix(rows: Sequence[Sequence]) -> Metric:
    """Package a raw symmetric matrix as a Metric (with exact inverse).

    Rejects asymmetric input and singular matrices.  This is the entry
    point for metrics that do not come from a (omega, J) pair, e.g. the
    deliberately wrong control metrics used in tests.
    """
    g = linalg.as_matrix(rows)
    n, m = linalg.shape(g)
    if n != m:
        raise ValueError("metric matrix must be square")
    if g != linalg.transpose(g):
        raise ValueError("metric matrix must be symmetric")
    return Metric(g=g, g_inv=linalg.invert(g))


def associated_metric(w: TwoForm, J: Endomorphism) -> Metric:
    """g_ij = sum_s omega_is J_j^s, i.e. g(X, Y) = omega(X, JY).

    The result is symmetric exactly when (omega, J) is a compatible pair,
    so an asymmetric product is rejected rather than silently symmetrized.
    In matrices g = omega J^T, so J^2 = -I gives g^-1 = -J^T omega^-1: only
    the sparse omega is inverted, and g g^-1 = I is checked exactly.
    """
    if w.dim != J.dim:
        raise ValueError("form and endomorphism dimensions differ")
    g = linalg.mat_mul(w.omega, linalg.transpose(J.rows))
    if g != linalg.transpose(g):
        raise ValueError("omega(X, JY) is not symmetric: the pair is not compatible")
    try:
        w_inv = linalg.invert(w.omega)
    except ValueError:
        raise ValueError(f"{w!r} is degenerate: the associated metric is singular") from None
    g_inv = linalg.mat_scale(-1, linalg.mat_mul(linalg.transpose(J.rows), w_inv))
    if linalg.mat_mul(g, g_inv) != linalg.identity(w.dim):
        raise ValueError("J is not almost complex: J^2 != -I, so -J^T omega^-1 is not g^-1")
    return Metric(g=g, g_inv=g_inv)


def _structure_terms(alg: LieAlgebra) -> list[tuple[int, int, int, Scalar]]:
    # full sparse table (i, j, p, C_ij^p) including the antisymmetric images
    out = []
    for (a, b) in alg.nonzero_pairs():
        for p, c in alg.bracket_basis(a, b).items():
            out.append((a, b, p, c))
            out.append((b, a, p, -c))
    return out


def christoffel(alg: LieAlgebra, metric: Metric) -> Connection:
    """Levi-Civita coefficients for left-invariant fields.

    Basis form: 2 g_kn Gamma_ij^n solves
        Gamma_ij^n = 1/2 g^{kn} (g_pk C_ij^p + g_pj C_ki^p + g_ip C_kj^p).
    """
    n = alg.dim
    if metric.dim != n:
        raise ValueError("metric dimension does not match the algebra")
    g, g_inv = metric.g, metric.g_inv
    cs = _structure_terms(alg)

    # v[i][j][k] = g_pk C_ij^p + g_pj C_ki^p + g_ip C_kj^p
    v = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for (a, b, p, c) in cs:
        for t in range(n):
            if not g[p][t].is_zero():
                v[a][b][t] = v[a][b][t] + g[p][t] * c      # g_pk C_ij^p
                v[b][t][a] = v[b][t][a] + g[p][t] * c      # g_pj C_ki^p with (k,i)=(a,b)
            if not g[t][p].is_zero():
                v[t][b][a] = v[t][b][a] + g[t][p] * c      # g_ip C_kj^p with (k,j)=(a,b)

    gamma = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if v[i][j][k].is_zero():
                    continue
                for s in range(n):
                    if g_inv[k][s].is_zero():
                        continue
                    gamma[i][j][s] = gamma[i][j][s] + _HALF * g_inv[k][s] * v[i][j][k]
    return Connection(gamma=_freeze3(gamma))


def covariant_derivative(conn: Connection, x: Vector, y: Vector) -> Vector:
    """nabla_X Y by bilinear extension of nabla_{e_i} e_j = Gamma_ij^k e_k."""
    n = conn.dim
    out = [ZERO] * n
    for i, xi in enumerate(x.components):
        if xi.is_zero():
            continue
        for j, yj in enumerate(y.components):
            if yj.is_zero():
                continue
            for k in range(n):
                gk = conn.gamma[i][j][k]
                if not gk.is_zero():
                    out[k] = out[k] + xi * yj * gk
    return Vector(tuple(out))


def curvature(alg: LieAlgebra, conn: Connection, metric: Metric) -> Curvature:
    """The complete Curvature of ``metric``, whose Levi-Civita connection is ``conn``.

    R_ijk^s = Gamma_ip^s Gamma_jk^p - Gamma_jp^s Gamma_ik^p - C_ij^p Gamma_pk^s,
    then lower_curvature, ricci and curvature_norm.
    """
    n = conn.dim
    gamma = conn.gamma
    nz = conn.nonzero()
    by_mid: dict[int, list[tuple[int, int, Scalar]]] = {}
    by_first: dict[int, list[tuple[int, int, Scalar]]] = {}
    for (i, j, k, val) in nz:
        by_mid.setdefault(j, []).append((i, k, val))
        by_first.setdefault(i, []).append((j, k, val))

    # T[i][j][k][s] = sum_p Gamma_ip^s Gamma_jk^p
    T = [[[[ZERO] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for (j, k, p, v1) in nz:
        for (i, s, v2) in by_mid.get(p, ()):
            T[i][j][k][s] = T[i][j][k][s] + v2 * v1

    up = [
        [[[T[i][j][k][s] - T[j][i][k][s] for s in range(n)] for k in range(n)] for j in range(n)]
        for i in range(n)
    ]
    for (a, b, p, c) in _structure_terms(alg):
        for (k, s, val) in by_first.get(p, ()):
            up[a][b][k][s] = up[a][b][k][s] - c * val
    up = _freeze4(up)
    down = lower_curvature(up, metric)
    return Curvature(
        up=up, down=down, ricci=ricci(up), norm=curvature_norm(down, metric)
    )


def apply_curvature(curv: Curvature, x: Vector, y: Vector, z: Vector) -> Vector:
    """R(X, Y)Z as a Vector, by trilinear extension of the up components."""
    n = curv.dim
    out = [ZERO] * n
    for i, xi in enumerate(x.components):
        if xi.is_zero():
            continue
        for j, yj in enumerate(y.components):
            if yj.is_zero():
                continue
            coeff = xi * yj
            for k, zk in enumerate(z.components):
                if zk.is_zero():
                    continue
                for s in range(n):
                    v = curv.up[i][j][k][s]
                    if not v.is_zero():
                        out[s] = out[s] + coeff * zk * v
    return Vector(tuple(out))


def lower_curvature(up: Up4, metric: Metric) -> Up4:
    """R_ijkl = R_ijk^s g_sl."""
    n = len(up)
    g = metric.g
    down = [[[[ZERO] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for s in range(n):
                    v = up[i][j][k][s]
                    if v.is_zero():
                        continue
                    for l in range(n):
                        if not g[s][l].is_zero():
                            down[i][j][k][l] = down[i][j][k][l] + v * g[s][l]
    return _freeze4(down)


def ricci(up: Up4) -> linalg.Matrix:
    """Ric_jk = sum_i R_ijk^i."""
    n = len(up)
    out = []
    for j in range(n):
        row = []
        for k in range(n):
            total = ZERO
            for i in range(n):
                v = up[i][j][k][i]
                if not v.is_zero():
                    total = total + v
            row.append(total)
        out.append(tuple(row))
    return tuple(out)


def curvature_norm(down: Up4, metric: Metric) -> Scalar:
    """g(R, R) = R_ijkl R_pqrs g^ip g^jq g^kr g^ls."""
    n = len(down)
    g_inv = metric.g_inv
    nz = [
        (i, j, k, l, down[i][j][k][l])
        for i in range(n)
        for j in range(n)
        for k in range(n)
        for l in range(n)
        if not down[i][j][k][l].is_zero()
    ]
    total = ZERO
    for (i, j, k, l, v1) in nz:
        for (p, q, r, s, v2) in nz:
            f = g_inv[i][p]
            if f.is_zero():
                continue
            f = f * g_inv[j][q]
            if f.is_zero():
                continue
            f = f * g_inv[k][r]
            if f.is_zero():
                continue
            f = f * g_inv[l][s]
            if f.is_zero():
                continue
            total = total + v1 * v2 * f
    return total


def full_curvature(alg: LieAlgebra, w: TwoForm, J: Endomorphism) -> tuple[Metric, Connection, Curvature]:
    """associated_metric -> christoffel -> curvature."""
    metric = associated_metric(w, J)
    conn = christoffel(alg, metric)
    return metric, conn, curvature(alg, conn, metric)


# -- invariant checks ---------------------------------------------------------


def is_torsion_free(alg: LieAlgebra, conn: Connection) -> bool:
    """Gamma_ij^k - Gamma_ji^k = C_ij^k for all indices."""
    n = conn.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = conn.gamma[i][j][k] - conn.gamma[j][i][k]
                if lhs != alg.structure_constant(i, j, k):
                    return False
    return True


def is_metric_connection(conn: Connection, metric: Metric) -> bool:
    """nabla g = 0: sum_s (Gamma_ij^s g_sk + Gamma_ik^s g_js) = 0 for all i, j, k."""
    n = conn.dim
    g = metric.g
    for i in range(n):
        for j in range(n):
            for k in range(n):
                total = ZERO
                for s in range(n):
                    total = total + conn.gamma[i][j][s] * g[s][k] + conn.gamma[i][k][s] * g[j][s]
                if not total.is_zero():
                    return False
    return True


def first_bianchi_holds(curv: Curvature) -> bool:
    """R_ijk^s + R_jki^s + R_kij^s = 0."""
    n = curv.dim
    up = curv.up
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for s in range(n):
                    if not (up[i][j][k][s] + up[j][k][i][s] + up[k][i][j][s]).is_zero():
                        return False
    return True


def pair_symmetric(curv: Curvature) -> bool:
    """R_ijkl = R_klij on the lowered tensor."""
    n = curv.dim
    d = curv.down
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if d[i][j][k][l] != d[k][l][i][j]:
                        return False
    return True


def signature(metric: Metric | linalg.Matrix, binding: ParamBinding | Mapping | None = None) -> tuple[int, int]:
    """Sylvester signature (positives, negatives) at an exact rational binding.

    Exact over Q(sqrt 2): entries may contain the reserved ``s``.  Every
    parameter must be bound; a free one raises ValueError.
    """
    rows = metric.g if isinstance(metric, Metric) else linalg.as_matrix(metric)
    if binding:
        rows = tuple(tuple(x.substitute(binding) for x in row) for row in rows)
    return linalg.symmetric_signature(rows)


# -- adapted-splitting checks -------------------------------------------------


@dataclass(frozen=True)
class SplitReport:
    """Named pass/fail outcomes for an adapted splitting g = A + B + Z.

    ``hypotheses`` cover the setup (algebra type, the splitting itself and
    its interaction with omega); ``conclusions`` cover the covariant
    derivative containments and the curvature collapse those hypotheses
    are supposed to force.  Hypothesis failures do not stop the
    conclusion checks: an abelian algebra fails the type test yet passes
    every conclusion vacuously.
    """

    hypotheses: tuple[tuple[str, bool], ...]
    conclusions: tuple[tuple[str, bool], ...]

    def hypotheses_ok(self) -> bool:
        return all(flag for _, flag in self.hypotheses)

    def conclusions_ok(self) -> bool:
        return all(flag for _, flag in self.conclusions)

    def ok(self) -> bool:
        return self.hypotheses_ok() and self.conclusions_ok()

    def failures(self) -> tuple[str, ...]:
        return tuple(
            name for name, flag in self.hypotheses + self.conclusions if not flag
        )

    def as_dict(self) -> dict:
        return {
            "hypotheses": dict(self.hypotheses),
            "conclusions": dict(self.conclusions),
            "ok": self.ok(),
        }


def _as_vector(v, dim: int) -> Vector:
    vec = v if isinstance(v, Vector) else Vector.of(v)
    if vec.dim != dim:
        raise ValueError("split vector dimension does not match the algebra")
    return vec


def type246_structure_check(
    alg: LieAlgebra,
    w: TwoForm,
    J: Endomorphism,
    split: tuple[Sequence, Sequence, Sequence],
) -> SplitReport:
    """Check an adapted splitting for a type-(2,4,6) algebra.

    ``split`` is (basis of A, basis of B, basis of Z).  Hypotheses: the
    algebra has type (2,4,6); the split is a basis; B+Z is the second
    ascending term and abelian; A and Z are omega-isotropic and pair
    nondegenerately; omega restricted to B is nondegenerate.  Conclusions:
    nabla_A A lands in B+Z, nabla mixes A and B into Z, A and Z do not
    interact, B+Z is nabla-flat, curvature dies on B+Z in the first and
    third slots, and all curvature values land in Z.
    """
    a, b, z = (tuple(_as_vector(v, alg.dim) for v in part) for part in split)
    bz, everything = b + z, a + b + z
    bz_span, z_span = linalg.span(bz), linalg.span(z)
    series = liealg.ascending_series(alg)

    def pairing(xs, ys) -> linalg.Matrix:
        return linalg.as_matrix([[w.apply(x, y) for y in ys] for x in xs])

    hypotheses = (
        ("algebra_type_is_2_4_6", tuple(len(term) for term in series) == (2, 4, 6)),
        ("split_is_a_basis",
         len(everything) == alg.dim and len(linalg.span(everything)) == alg.dim),
        ("b_plus_z_is_second_ascending_term",
         len(series) >= 2 and len(bz_span) == len(series[1])
         and all(series[1].contains(v) for v in bz)),
        ("b_plus_z_abelian",
         all(liealg.bracket(alg, x, y).is_zero() for x, y in combinations(bz, 2))),
        ("a_isotropic", all(w.apply(x, y).is_zero() for x, y in combinations(a, 2))),
        ("z_isotropic", all(w.apply(x, y).is_zero() for x, y in combinations(z, 2))),
        ("a_z_pairing_nondegenerate",
         len(a) == len(z) and not linalg.det(pairing(a, z)).is_zero()),
        ("omega_nondegenerate_on_b", not linalg.det(pairing(b, b)).is_zero()),
    )

    _, conn, curv = full_curvature(alg, w, J)
    nabla = partial(covariant_derivative, conn)
    R = partial(apply_curvature, curv)
    basis = [alg.basis_vector(i) for i in range(alg.dim)]
    conclusions = (
        ("nabla_a_a_in_b_plus_z", all(bz_span.contains(nabla(x, y)) for x in a for y in a)),
        ("nabla_a_b_in_z",
         all(z_span.contains(nabla(x, y)) and z_span.contains(nabla(y, x))
             for x in a for y in b)),
        ("nabla_a_z_vanishes",
         all(nabla(x, y).is_zero() and nabla(y, x).is_zero() for x in a for y in z)),
        ("nabla_flat_on_b_plus_z", all(nabla(x, y).is_zero() for x in bz for y in bz)),
        ("curvature_kills_b_plus_z",
         all(R(x, u, v).is_zero() and R(u, v, x).is_zero()
             for x in bz for u in basis for v in basis)),
        ("curvature_values_in_z",
         all(z_span.contains(R(x, y, t))
             for x in everything for y in everything for t in everything)),
    )
    return SplitReport(hypotheses=hypotheses, conclusions=conclusions)


# -- reporting ----------------------------------------------------------------


def nonzero_up_components(curv: Curvature) -> list[tuple[tuple[int, int, int, int], Scalar]]:
    """Nonzero R_ijk^s for i < j (the i > j half is the structural negative)."""
    n = curv.dim
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                for s in range(n):
                    v = curv.up[i][j][k][s]
                    if not v.is_zero():
                        out.append(((i, j, k, s), v))
    return out


def nonzero_down_components(curv: Curvature) -> list[tuple[tuple[int, int, int, int], Scalar]]:
    """Nonzero R_ijkl, reduced to i < j and (when the mirror agrees) k < l."""
    n = curv.dim
    d = curv.down
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                for l in range(n):
                    v = d[i][j][k][l]
                    if v.is_zero():
                        continue
                    if k > l and d[i][j][l][k] == -v:
                        continue  # reported by its k < l partner
                    out.append(((i, j, k, l), v))
    return out


def curvature_report(curv: Curvature) -> dict:
    """JSON-ready curvature summary (indices printed 1-based)."""
    return {
        "nonzero_up": [
            {"idx": [t + 1 for t in idx], "value": str(v)}
            for idx, v in nonzero_up_components(curv)
        ],
        "nonzero_down": [
            {"idx": [t + 1 for t in idx], "value": str(v)}
            for idx, v in nonzero_down_components(curv)
        ],
        "ricci_zero": linalg.is_zero_matrix(curv.ricci),
        "norm": str(curv.norm),
    }

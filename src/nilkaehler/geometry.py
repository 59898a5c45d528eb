"""Pseudo-Riemannian machinery for the metric associated to a (omega, J) pair.

Everything is exact: metrics, Christoffel symbols and curvature live over
the fraction field provided by ``scalar``.  Index conventions follow the
rest of the package (0-based, row i of an endomorphism is the image of
e_i), and the metric is g_ij = sum_s omega_is J_j^s.

Christoffel symbols and curvature are ``linalg.Components``, as the
structure constants are: Gamma (from ``christoffel``), ``Curvature.up``
and ``Curvature.down`` map index tuples to their nonzero components only,
and an absent index is a zero component, which ``Curvature.up_component``
and ``down_component`` read as ``ZERO``.  ``linalg.contract`` evaluates a
tensor on a vector, one slot at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations
from typing import Mapping, Sequence

from . import liealg, linalg
from .liealg import LieAlgebra, Vector
from .linalg import Components, _accumulate, contract
from .scalar import ZERO, ParamBinding, Scalar
from .tensors import Endomorphism, TwoForm

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
class Curvature:
    """The curvature of a metric, every field filled by ``curvature``.

    up[i, j, k, s] = R_ijk^s and down[i, j, k, l] = R_ijkl hold the nonzero
    components only; ricci[j][k] = Ric_jk and norm = g(R, R).
    """

    up: Components
    down: Components
    ricci: linalg.Matrix
    norm: Scalar

    def up_component(self, i: int, j: int, k: int, s: int) -> Scalar:
        return self.up.get((i, j, k, s), ZERO)

    def down_component(self, i: int, j: int, k: int, l: int) -> Scalar:
        return self.down.get((i, j, k, l), ZERO)

    def is_flat(self) -> bool:
        return not self.up

    def substitute(self, binding: ParamBinding) -> "Curvature":
        """Every field at ``binding``; components that vanish there are dropped."""

        def bind(components: Components) -> Components:
            return _accumulate((idx, v.substitute(binding)) for idx, v in components.items())

        return Curvature(
            up=bind(self.up),
            down=bind(self.down),
            ricci=tuple(tuple(x.substitute(binding) for x in row) for row in self.ricci),
            norm=self.norm.substitute(binding),
        )


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


def christoffel(alg: LieAlgebra, metric: Metric) -> Components:
    """Levi-Civita coefficients gamma[i, j, k] = Gamma_ij^k, nonzero ones only.

    Basis form: 2 g_kn Gamma_ij^n solves
        Gamma_ij^n = 1/2 g^{kn} (g_pk C_ij^p + g_pj C_ki^p + g_ip C_kj^p).
    """
    n = alg.dim
    if metric.dim != n:
        raise ValueError("metric dimension does not match the algebra")
    g, g_inv = metric.g, metric.g_inv

    def v_terms():
        # v[i, j, k] = g_pk C_ij^p + g_pj C_ki^p + g_ip C_kj^p, g symmetric
        for (a, b, p), c in alg.constants.items():
            for t in range(n):
                if not g[p][t].is_zero():
                    gc = g[p][t] * c
                    yield (a, b, t), gc      # g_pk C_ij^p
                    yield (b, t, a), gc      # g_pj C_ki^p with (k,i)=(a,b)
                    yield (t, b, a), gc      # g_ip C_kj^p with (k,j)=(a,b)

    v = _accumulate(v_terms())
    return _accumulate(
        ((i, j, s), _HALF * g_inv[k][s] * val)
        for (i, j, k), val in v.items()
        for s in range(n)
        if not g_inv[k][s].is_zero()
    )


def covariant_derivative(gamma: Components, x: Vector, y: Vector) -> Vector:
    """nabla_X Y = sum_ij x_i y_j Gamma_ij^k e_k: Gamma contracted with X, then Y."""
    out = contract(contract(gamma, 0, x.components), 0, y.components)
    return Vector(tuple(out.get((k,), ZERO) for k in range(x.dim)))


def curvature(alg: LieAlgebra, gamma: Components, metric: Metric) -> Curvature:
    """The complete Curvature of ``metric``, whose Levi-Civita connection is ``gamma``.

    R_ijk^s = Gamma_ip^s Gamma_jk^p - Gamma_jp^s Gamma_ik^p - C_ij^p Gamma_pk^s,
    then lower_curvature, ricci and curvature_norm.
    """
    by_mid: dict[int, list[tuple[int, int, Scalar]]] = {}
    by_first: dict[int, list[tuple[int, int, Scalar]]] = {}
    for (i, j, k), val in gamma.items():
        by_mid.setdefault(j, []).append((i, k, val))
        by_first.setdefault(i, []).append((j, k, val))

    def terms():
        # Gamma_ip^s Gamma_jk^p, and its negative with i and j swapped
        for (j, k, p), v1 in gamma.items():
            for (i, s, v2) in by_mid.get(p, ()):
                t = v2 * v1
                yield (i, j, k, s), t
                yield (j, i, k, s), -t
        for (a, b, p), c in alg.constants.items():
            for (k, s, val) in by_first.get(p, ()):
                yield (a, b, k, s), -(c * val)

    up = _accumulate(terms())
    down = lower_curvature(up, metric)
    return Curvature(
        up=up, down=down, ricci=ricci(up, metric.dim), norm=curvature_norm(down, metric)
    )


def lower_curvature(up: Components, metric: Metric) -> Components:
    """R_ijkl = R_ijk^s g_sl."""
    g = metric.g
    return _accumulate(
        ((i, j, k, l), v * g[s][l])
        for (i, j, k, s), v in up.items()
        for l in range(len(g))
        if not g[s][l].is_zero()
    )


def ricci(up: Components, n: int) -> linalg.Matrix:
    """Ric_jk = sum_i R_ijk^i, as a dense n x n matrix."""
    out = [[ZERO] * n for _ in range(n)]
    for (i, j, k, s), v in up.items():
        if i == s:
            out[j][k] = out[j][k] + v
    return tuple(tuple(row) for row in out)


def curvature_norm(down: Components, metric: Metric) -> Scalar:
    """g(R, R) = R_ijkl R_pqrs g^ip g^jq g^kr g^ls."""
    g_inv = metric.g_inv
    total = ZERO
    for (i, j, k, l), v1 in down.items():
        for (p, q, r, s), v2 in down.items():
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


def full_curvature(alg: LieAlgebra, w: TwoForm, J: Endomorphism) -> tuple[Metric, Components, Curvature]:
    """associated_metric -> christoffel -> curvature: (metric, Gamma, curvature)."""
    metric = associated_metric(w, J)
    gamma = christoffel(alg, metric)
    return metric, gamma, curvature(alg, gamma, metric)


# -- invariant checks ---------------------------------------------------------


def is_torsion_free(alg: LieAlgebra, gamma: Components) -> bool:
    """Gamma_ij^k - Gamma_ji^k = C_ij^k for all indices.

    Both sides vanish unless Gamma_ij^k, Gamma_ji^k or C_ij^k is nonzero,
    and swapping i and j negates both, so the stored keys of Gamma and C
    are the only ones to check.
    """
    keys = set(gamma) | set(alg.constants)
    return all(
        gamma.get((i, j, k), ZERO) - gamma.get((j, i, k), ZERO)
        == alg.structure_constant(i, j, k)
        for (i, j, k) in keys
    )


def is_metric_connection(gamma: Components, metric: Metric) -> bool:
    """nabla g = 0: sum_s (Gamma_ij^s g_sk + Gamma_ik^s g_js) = 0 for all i, j, k."""
    g = metric.g

    def terms():
        for (i, j, s), v in gamma.items():
            for k in range(len(g)):
                if not g[s][k].is_zero():
                    t = v * g[s][k]
                    yield (i, j, k), t       # Gamma_ij^s g_sk
                    yield (i, k, j), t       # Gamma_ik^s g_js with (k,j) swapped, g symmetric

    return not _accumulate(terms())


def first_bianchi_holds(curv: Curvature) -> bool:
    """R_ijk^s + R_jki^s + R_kij^s = 0.

    The cyclic sum is invariant under cycling (i, j, k), and a nonzero sum
    has a stored term, so checking it at the stored keys is enough.
    """
    r = curv.up_component
    return all(
        (v + r(j, k, i, s) + r(k, i, j, s)).is_zero() for (i, j, k, s), v in curv.up.items()
    )


def pair_symmetric(curv: Curvature) -> bool:
    """R_ijkl = R_klij on the lowered tensor."""
    return all(curv.down_component(k, l, i, j) == v for (i, j, k, l), v in curv.down.items())


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
    third slots, and all curvature values land in Z.  These two are read
    off R on all of g (R contracted with B+Z in either slot is zero, every
    stored R(e_i, e_j)e_k is in Z): the verdicts of evaluating R on the
    split vectors when ``split_is_a_basis`` holds, never laxer when not.
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

    _, gamma, curv = full_curvature(alg, w, J)
    nabla = partial(covariant_derivative, gamma)
    conclusions = (
        ("nabla_a_a_in_b_plus_z", all(bz_span.contains(nabla(x, y)) for x in a for y in a)),
        ("nabla_a_b_in_z",
         all(z_span.contains(nabla(x, y)) and z_span.contains(nabla(y, x))
             for x in a for y in b)),
        ("nabla_a_z_vanishes",
         all(nabla(x, y).is_zero() and nabla(y, x).is_zero() for x in a for y in z)),
        ("nabla_flat_on_b_plus_z", all(nabla(x, y).is_zero() for x in bz for y in bz)),
        ("curvature_kills_b_plus_z",
         not any(contract(curv.up, slot, x.components) for x in bz for slot in (0, 2))),
        ("curvature_values_in_z",
         all(z_span.contains([curv.up.get((i, j, k, s), ZERO) for s in range(alg.dim)])
             for (i, j, k) in {idx[:3] for idx in curv.up})),
    )
    return SplitReport(hypotheses=hypotheses, conclusions=conclusions)


# -- reporting ----------------------------------------------------------------


def nonzero_up_components(curv: Curvature) -> list[tuple[tuple[int, int, int, int], Scalar]]:
    """Nonzero R_ijk^s for i < j (the i > j half is the structural negative)."""
    return [(idx, v) for idx, v in sorted(curv.up.items()) if idx[0] < idx[1]]


def nonzero_down_components(curv: Curvature) -> list[tuple[tuple[int, int, int, int], Scalar]]:
    """Nonzero R_ijkl, reduced to i < j and (when the mirror agrees) k < l."""
    return [
        ((i, j, k, l), v)
        for (i, j, k, l), v in sorted(curv.down.items())
        # the k > l entry is reported by its k < l partner when they mirror
        if i < j and not (k > l and curv.down_component(i, j, l, k) == -v)
    ]


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

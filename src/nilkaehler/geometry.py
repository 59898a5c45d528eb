"""Pseudo-Riemannian machinery for the metric associated to a (omega, J) pair.

Everything is exact: metrics, Christoffel symbols and curvature live over
the fraction field provided by ``scalar``.  Index conventions follow the
rest of the package (0-based, row i of an endomorphism is the image of
e_i), and the metric is g_ij = sum_s omega_is J_j^s.

Christoffel symbols and curvature are ``linalg.Components``, as the
structure constants are: Gamma (from ``christoffel``), ``Curvature.up``
and ``Curvature.down`` map index tuples to their nonzero components only,
and an absent index is a zero component, which ``Curvature.up_component``
and ``down_component`` read as ``ZERO``.  ``linalg.transform`` raises or
lowers one index through g^-1 or g, ``linalg.contract`` evaluates a
tensor on a vector, one slot at a time, and ``linalg.compose`` sums the
products Gamma Gamma and C Gamma of the curvature over their shared index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, combinations
from typing import Sequence

from . import liealg, linalg
from .liealg import LieAlgebra, Vector
from .linalg import Components, _accumulate, compose, contract, transform
from .scalar import ZERO, Scalar
from .tensors import Endomorphism, TwoForm, almost_complex_residual

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


_PAIR_ERRORS = {  # the conditions of pair_metric, in the order it names them
    "compatibility": "omega(X, JY) is not symmetric: the pair is not compatible",
    "nondegenerate": "{w!r} is degenerate: the associated metric is singular",
    "almost_complex": "J is not almost complex: J^2 != -I, so -J^T omega^-1 is not g^-1",
}


def pair_metric(w: TwoForm, J: Endomorphism) -> tuple[tuple[str, ...], Metric | None]:
    """The conditions of _PAIR_ERRORS that (omega, J) fails, and, when none
    fails, its Metric g(X, Y) = omega(X, JY).  With P = J omega, g = omega J^T
    = -P^T, so g - g^T = P - P^T is ``compat_residual``; J^2 = -I, checked by
    ``almost_complex_residual``, gives g^-1 = -J^T omega^-1 (only the sparse
    omega is inverted) and is equivalent to g g^-1 = -omega (J^2)^T omega^-1 = I."""
    if w.dim != J.dim:
        raise ValueError("form and endomorphism dimensions differ")
    p = linalg.mat_mul(J.rows, w.omega)
    failed = [] if p == linalg.transpose(p) else ["compatibility"]
    try:
        w_inv = linalg.invert(w.omega)
    except ValueError:
        failed.append("nondegenerate")
    if not linalg.is_zero_matrix(almost_complex_residual(J)):
        failed.append("almost_complex")
    if failed:
        return tuple(failed), None
    g_inv = linalg.mat_mul(linalg.transpose(J.rows), w_inv)
    return (), Metric(g=_negated(p), g_inv=_negated(g_inv))  # -P = -P^T, P symmetric


def _negated(m: linalg.Matrix) -> linalg.Matrix:
    return tuple(tuple(-x for x in row) for row in m)


def associated_metric(w: TwoForm, J: Endomorphism) -> Metric:
    """The Metric of ``pair_metric``; the first failed condition raises ValueError."""
    failed, metric = pair_metric(w, J)
    if metric is None:
        raise ValueError(_PAIR_ERRORS[failed[0]].format(w=w))
    return metric


def christoffel(alg: LieAlgebra, metric: Metric) -> Components:
    """Levi-Civita coefficients gamma[i, j, k] = Gamma_ij^k, nonzero ones only.

    Basis form: 2 g_kn Gamma_ij^n solves
        Gamma_ij^n = 1/2 g^{kn} (g_pk C_ij^p + g_pj C_ki^p + g_ip C_kj^p).
    With g symmetric, each L_abt = C_ab^p g_pt is the first term of
    v[a, b, t], the second of v[b, t, a] and the third of v[t, b, a].
    """
    if metric.dim != alg.dim:
        raise ValueError("metric dimension does not match the algebra")
    low = transform(alg.constants, 2, metric.g)
    v = _accumulate(term for (a, b, t), x in low.items()
                    for term in (((a, b, t), x), ((b, t, a), x), ((t, b, a), x)))
    return {idx: _HALF * x for idx, x in transform(v, 2, metric.g_inv).items()}


def covariant_derivative(gamma: Components, x: Vector, y: Vector) -> Vector:
    """nabla_X Y = sum_ij x_i y_j Gamma_ij^k e_k: Gamma contracted with X, then Y."""
    out = contract(contract(gamma, 0, x.components), 0, y.components)
    return Vector(tuple(out.get((k,), ZERO) for k in range(x.dim)))


def curvature(alg: LieAlgebra, gamma: Components, metric: Metric) -> Curvature:
    """The complete Curvature of ``metric``, whose Levi-Civita connection is ``gamma``.

    R_ijk^s = Gamma_ip^s Gamma_jk^p - Gamma_jp^s Gamma_ik^p - C_ij^p Gamma_pk^s,
    then lower_curvature, ricci and curvature_norm.  The sum over p of
    Gamma_jk^p Gamma_ip^s lands on (i, j, k, s) and, negated, on (j, i, k, s).
    """
    quadratic = compose(gamma, 2, gamma, 1)  # (j, k, i, s): Gamma_jk^p Gamma_ip^s
    up = _accumulate(chain(
        (term for (j, k, i, s), v in quadratic.items()
         for term in (((i, j, k, s), v), ((j, i, k, s), -v))),
        ((idx, -v) for idx, v in compose(alg.constants, 2, gamma, 0).items())))
    down = lower_curvature(up, metric)
    return Curvature(
        up=up, down=down, ricci=ricci(up, metric.dim), norm=curvature_norm(down, metric)
    )


def lower_curvature(up: Components, metric: Metric) -> Components:
    """R_ijkl = R_ijk^s g_sl."""
    return transform(up, 3, metric.g)


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
    """nabla g = 0: t_ijk + t_ikj = 0 for all i, j, k, where t_ijk = Gamma_ij^s g_sk.

    The sum is symmetric in j and k, and a nonzero sum has a stored term, so
    the stored keys of t are the only ones to check.
    """
    t = transform(gamma, 2, metric.g)
    return all((v + t.get((i, k, j), ZERO)).is_zero() for (i, j, k), v in t.items())


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


def signature(metric: Metric) -> tuple[int, int]:
    """Sylvester signature (positives, negatives) of g.

    Exact over Q(sqrt 2): entries may contain the reserved ``s``.  Every
    parameter must be bound; a free one raises ValueError.
    """
    return linalg.symmetric_signature(metric.g)


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

    def ok(self) -> bool:
        return all(flag for _, flag in self.hypotheses + self.conclusions)

    def failures(self) -> tuple[str, ...]:
        return tuple(
            name for name, flag in self.hypotheses + self.conclusions if not flag
        )


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

    def pairs_nondegenerately(xs, ys) -> bool:
        # full rank over the fraction field, i.e. a nonzero determinant
        m = tuple(tuple(w.apply(x, y) for y in ys) for x in xs)
        return len(linalg.rref(m)[1]) == len(m)

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
         len(a) == len(z) and pairs_nondegenerately(a, z)),
        ("omega_nondegenerate_on_b", pairs_nondegenerately(b, b)),
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

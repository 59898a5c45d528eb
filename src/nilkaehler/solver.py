"""Finding compatible complex structures: exact linear stage, symbolic family
verification, and a seeded numerical probe for the full nonlinear system.

The linear stage solves the compatibility equations exactly over the
fraction field.  The nonlinear probe (compatibility + J^2 = -I +
integrability) runs damped Newton least-squares from random starts; a
failure to converge is evidence of nonexistence, never a proof.  Every
probe residual is quadratic in J, so its Jacobian is the exact polarization
(f(J + E) - f(J - E))/2 over the unit matrices E: the float residual is the
probe's single definition of the equations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import linalg, tensors
from .liealg import LieAlgebra
from .scalar import Scalar
from .tensors import Endomorphism, TwoForm


@dataclass(frozen=True)
class LinearSolution:
    """Exact solution space of the compatibility system.

    ``basis`` spans {J : omega_kj J_i^k + omega_is J_j^s = 0} as dim x dim
    matrices; ``side_conditions`` carries nonvanishing constraints picked
    up while eliminating symbolic form coefficients.
    """

    basis: tuple[linalg.Matrix, ...]
    dimension: int
    side_conditions: linalg.SideConditions

    def flat_basis(self) -> list[linalg.Row]:
        return [tuple(x for row in mat for x in row) for mat in self.basis]

    def contains(self, J: Endomorphism) -> bool:
        flat = tuple(x for row in J.rows for x in row)
        return linalg.in_row_span(self.flat_basis(), flat)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a numerical root search; ``failed`` is a valid answer."""

    status: str  # "converged" | "failed"
    J_numeric: tuple[tuple[float, ...], ...] | None
    residual_norm: float
    starts_tried: int
    seed: int

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def compat_nullspace(w: TwoForm) -> LinearSolution:
    """Nullspace of the compatibility equations, treated linearly in J_i^k.

    The residual matrix J.omega + omega.J^T is antisymmetric for every J,
    so only the dim*(dim-1)/2 upper entries contribute equations.
    Unknowns are flattened row-major: x[i*dim + k] = J_i^k.
    """
    n = w.dim
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            coeffs = [Scalar.from_int(0)] * (n * n)
            for b in range(n):
                coeffs[i * n + b] = coeffs[i * n + b] + w.entry(b, j)
                coeffs[j * n + b] = coeffs[j * n + b] + w.entry(i, b)
            rows.append(tuple(coeffs))
    basis_rows, conditions = linalg.nullspace(linalg.as_matrix(rows))
    mats = tuple(
        tuple(tuple(flat[i * n + k] for k in range(n)) for i in range(n))
        for flat in basis_rows
    )
    return LinearSolution(basis=mats, dimension=len(mats), side_conditions=conditions)


@dataclass(frozen=True)
class FamilyReport:
    """Residual verdict for one parameterized structure."""

    ok: bool
    failures: tuple[str, ...]
    side_conditions: tuple[str, ...]


def verify_family(
    alg: LieAlgebra,
    w: TwoForm,
    J: Endomorphism,
    side_conditions: Iterable[str] = (),
) -> FamilyReport:
    """Check the three defining residuals symbolically, parameters left free.

    Failure names the offending component: compatibility, almost_complex,
    or integrability.
    """
    failures = []
    if not linalg.is_zero_matrix(tensors.compat_residual(w, J)):
        failures.append("compatibility")
    if not linalg.is_zero_matrix(tensors.almost_complex_residual(J)):
        failures.append("almost_complex")
    if "almost_complex" not in failures and not tensors.is_integrable(alg, J):
        # with J^2 != -I the Nijenhuis values are not meaningful anyway
        failures.append("integrability")
    return FamilyReport(
        ok=not failures,
        failures=tuple(failures),
        side_conditions=tuple(str(c) for c in side_conditions),
    )


# -- numerical probe ----------------------------------------------------------


def _float_form(w: TwoForm) -> np.ndarray:
    free = w.free_params()
    if free:
        raise ValueError(f"unbound parameters in the form: {sorted(free)}")
    return np.array(
        [[w.entry(i, j).evaluate({}) for j in range(w.dim)] for i in range(w.dim)]
    )


def _float_brackets(alg: LieAlgebra) -> np.ndarray:
    n = alg.dim
    C = np.zeros((n, n, n))
    for (i, j) in alg.nonzero_pairs():
        for k, c in alg.bracket_basis(i, j).items():
            val = c.evaluate({})
            C[i, j, k] = val
            C[j, i, k] = -val
    return C


def _residual(X: np.ndarray, omega: np.ndarray, C: np.ndarray, iu, ju) -> np.ndarray:
    """(compatibility, J^2 + I, Nijenhuis) at X, over any leading batch axes."""
    n = X.shape[-1]
    compat = X @ omega + omega @ np.swapaxes(X, -1, -2)
    j2 = X @ X + np.eye(n)
    # A[i, v, k] = X_iu C_uvk and T = A X; since C_ivm = -C_vim, the last
    # Nijenhuis term -X_jv C_ivm X_mk is T[j, i, k]
    A = (X @ C.reshape(n, n * n)).reshape(*X.shape, n)
    T = A @ X[..., None, :, :]
    nij = X[..., None, :, :] @ A - C - T + np.swapaxes(T, -3, -2)
    parts = (compat[..., iu, ju], j2, nij[..., iu, ju, :])
    return np.concatenate([p.reshape(*X.shape[:-2], -1) for p in parts], axis=-1)


def _jacobian(X: np.ndarray, omega: np.ndarray, C: np.ndarray, iu, ju) -> np.ndarray:
    """Exact Jacobian of the quadratic ``_residual``, by polarization.

    For quadratic f, f(X + E) - f(X - E) = 2 Df(X)[E] with no remainder, so
    the central difference along each of the n^2 unit matrices E is exact.
    """
    E = np.eye(X.size).reshape(X.size, *X.shape)
    args = (omega, C, iu, ju)
    return (_residual(X + E, *args) - _residual(X - E, *args)).T / 2


def _newton_from(
    X: np.ndarray,
    omega: np.ndarray,
    C: np.ndarray,
    tolerance: float,
    max_iter: int = 60,
) -> tuple[np.ndarray, float]:
    n = X.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    res = _residual(X, omega, C, iu, ju)
    norm = float(np.max(np.abs(res)))
    for it in range(max_iter):
        if norm <= tolerance or not np.isfinite(norm):
            break
        if it == 30 and norm > 1e-2:
            break  # far from any root after 30 damped steps; hopeless start
        M = _jacobian(X, omega, C, iu, ju)
        try:
            step, *_ = np.linalg.lstsq(M, -res, rcond=None)
        except np.linalg.LinAlgError:
            break  # overflowed Jacobian; abandon this start
        step = step.reshape(n, n)
        damping = 1.0
        while True:
            candidate = X + damping * step
            cand_res = _residual(candidate, omega, C, iu, ju)
            cand_norm = float(np.max(np.abs(cand_res)))
            if cand_norm < norm:
                X, res, norm = candidate, cand_res, cand_norm
                break
            damping /= 2.0
            if damping < 2.0**-20:
                return X, norm  # stalled
    return X, norm


def newton_search(
    alg: LieAlgebra,
    w: TwoForm,
    tolerance: float = 1e-9,
    max_starts: int = 50,
    seed: int = 0,
    initial_guess: Sequence[Sequence[float]] | None = None,
) -> SearchResult:
    """Damped Newton least-squares over random starts (reproducible by seed).

    Start 0 uses ``initial_guess`` verbatim when given; every other start
    draws fresh standard-normal entries from a per-start generator, so
    runs are independent of execution order.
    """
    omega = _float_form(w)
    C = _float_brackets(alg)
    n = alg.dim
    for start in range(max_starts):
        rng = np.random.default_rng((seed, start))
        if start == 0 and initial_guess is not None:
            X0 = np.array(initial_guess, dtype=float)
        else:
            X0 = rng.standard_normal((n, n))
        X, norm = _newton_from(X0, omega, C, tolerance)
        if norm <= tolerance:
            J_numeric = tuple(tuple(float(x) for x in row) for row in X)
            # accept only if the exact-arithmetic re-check agrees
            if max(residual_sup_norms(alg, w, J_numeric)) <= tolerance:
                return SearchResult(
                    status="converged",
                    J_numeric=J_numeric,
                    residual_norm=norm,
                    starts_tried=start + 1,
                    seed=seed,
                )
    return SearchResult(
        status="failed",
        J_numeric=None,
        residual_norm=float("inf"),
        starts_tried=max_starts,
        seed=seed,
    )


def residual_sup_norms(
    alg: LieAlgebra, w: TwoForm, J_numeric: Sequence[Sequence[float]]
) -> tuple[float, float, float]:
    """Sup-norms of (compatibility, J^2+I, Nijenhuis) at a numeric J.

    Floats are lifted to exact dyadic rationals and pushed through the
    symbolic tensor machinery, so this check shares no code with the
    iteration loop.
    """
    J = Endomorphism(
        [[Scalar.from_fraction(Fraction(float(x))) for x in row] for row in J_numeric]
    )
    nij = tensors.nijenhuis(alg, J)
    residuals = (
        tensors.compat_residual(w, J),
        tensors.almost_complex_residual(J),
        [row for plane in nij for row in plane],
    )
    return tuple(  # type: ignore[return-value]
        max(abs(x.evaluate({})) for row in mat for x in row) for mat in residuals
    )


def search_report(result: SearchResult) -> dict:
    """JSON-ready search summary."""
    return {
        "status": result.status,
        "residual": result.residual_norm,
        "J": [list(row) for row in result.J_numeric] if result.J_numeric else None,
        "starts_tried": result.starts_tried,
        "seed": result.seed,
    }

"""Finding compatible complex structures: exact linear stage, symbolic family
verification, and a seeded numerical probe for the full nonlinear system.

The linear stage solves the compatibility equations exactly over the
fraction field.  The nonlinear probe (compatibility + J^2 = -I +
integrability) runs Levenberg-Marquardt from random starts, a block of
starts at a time, each start with its own damping and retired on its own,
and stops once the first verified start is known; a failure to converge is
evidence of nonexistence, never a proof.  Every probe residual is quadratic
in J, so its Jacobian is the exact polarization (f(J + E) - f(J - E))/2
over the unit matrices E, and that Jacobian is affine in J: the float
residual is the probe's single definition of the equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import linalg, tensors
from .liealg import LieAlgebra
from .scalar import Scalar
from .tensors import Endomorphism, TwoForm


@dataclass(frozen=True)
class LinearSolution:
    """Exact solution space of the compatibility system.

    ``span`` spans {J : omega_kj J_i^k + omega_is J_j^s = 0} in the
    row-major flattening x[i*dim + k] = J_i^k; ``side_conditions`` carries
    nonvanishing constraints picked up while eliminating symbolic form
    coefficients.
    """

    span: linalg.Span
    side_conditions: linalg.SideConditions

    @property
    def dimension(self) -> int:
        return len(self.span)

    @property
    def basis(self) -> tuple[linalg.Matrix, ...]:
        """The spanning solutions as dim x dim matrices."""
        n = math.isqrt(len(self.span.rows[0])) if self.span else 0
        return tuple(
            tuple(flat[i * n:(i + 1) * n] for i in range(n)) for flat in self.span
        )

    def contains(self, J: Endomorphism) -> bool:
        return self.span.contains(x for row in J.rows for x in row)


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
    span, conditions = linalg.nullspace(linalg.as_matrix(rows))
    return LinearSolution(span=span, side_conditions=conditions)


@dataclass(frozen=True)
class FamilyReport:
    """Residual verdict for one parameterized structure."""

    ok: bool
    failures: tuple[str, ...]
    side_conditions: tuple[str, ...]

    @property
    def checked(self) -> tuple[str, ...]:
        """The residuals ``verify_family`` evaluated: integrability needs J^2 = -I."""
        if "almost_complex" in self.failures:
            return ("compatibility", "almost_complex")
        return ("compatibility", "almost_complex", "integrability")


def verify_family(
    alg: LieAlgebra,
    w: TwoForm,
    J: Endomorphism,
    side_conditions: Iterable[str] = (),
) -> FamilyReport:
    """Check the three defining residuals symbolically, parameters left free.

    Failure names the offending component: compatibility, almost_complex,
    or integrability.  Integrability is not checked when J^2 != -I.
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
    for idx, c in alg.constants.items():
        C[idx] = c.evaluate({})
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


# Starts iterated together.  A block holds one (BLOCK, 141, 36) Jacobian
# stack at a time, so memory stays bounded for any number of starts.
BLOCK = 64
MAX_ITER = 60  # Levenberg-Marquardt iterations per start, rejected steps included
MU_START, MU_MAX = 1e-6, 1e8
MU_DOWN, MU_UP = 3.0, 4.0
HOPELESS_ITER, HOPELESS_NORM = 30, 1e-2


class _LinearJacobian:
    """The probe Jacobian as an affine function of X, built once per search.

    The residual is quadratic, so Df(X) = D(0) + sum_k x_k H_k, with D(0)
    from ``_jacobian`` and H_k = D(E_k) - D(0) the second difference
    H_k[:, j] = f(E_k + E_j) - f(E_k) - f(E_j) + f(0).  Only the entries
    that some H_k touches depend on X, and D(0) is zero on them: the rows
    that depend on X (J^2 + I, Nijenhuis) have no linear part, and the
    linear compatibility rows do not depend on X.  ``__call__`` fills those
    entries for a whole stack of starts with one matmul.
    """

    def __init__(self, omega: np.ndarray, C: np.ndarray, iu, ju) -> None:
        n = omega.shape[0]
        args = (omega, C, iu, ju)
        zero = _jacobian(np.zeros((n, n)), *args)
        self.shape = zero.shape
        self.zero = zero.ravel()
        E = np.eye(n * n).reshape(n * n, n, n)
        f_0, f_E = _residual(np.zeros((n, n)), *args), _residual(E, *args)
        # one k at a time: a batched second difference costs megabytes
        H = np.empty((n * n, self.zero.size))
        for k in range(n * n):
            H[k] = (_residual(E[k] + E, *args) - f_E[k] - f_E + f_0).T.ravel()
        self.live = np.flatnonzero(np.any(H != 0, axis=0))
        self.H = H[:, self.live]

    def __call__(self, X: np.ndarray) -> np.ndarray:
        M = np.empty((len(X), self.zero.size))
        M[:] = self.zero
        M[:, self.live] = X.reshape(-1, len(self.H)) @ self.H
        return M.reshape(len(X), *self.shape)


def _solve_damped(MtM: np.ndarray, Mtr: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Solutions of (M^T M + mu I) delta = -M^T r for a stack of starts.

    A start whose system is not finite or is singular gets a nan step, so
    it alone retires.
    """
    K = MtM + mu[:, None, None] * np.eye(MtM.shape[-1])
    step = np.full(Mtr.shape, np.nan)
    ok = np.isfinite(K).all(axis=(1, 2)) & np.isfinite(Mtr).all(axis=(1, 2))
    try:
        step[ok] = np.linalg.solve(K[ok], Mtr[ok])
    except np.linalg.LinAlgError:
        for i in np.flatnonzero(ok):
            try:
                step[i] = np.linalg.solve(K[i], Mtr[i])
            except np.linalg.LinAlgError:
                pass
    return step


@np.errstate(over="ignore", invalid="ignore")  # non-finite values retire a start
def _lm_step(
    X: np.ndarray, res: np.ndarray, norm: np.ndarray, mu: np.ndarray,
    idx: np.ndarray, args: tuple, jacobian: _LinearJacobian,
) -> None:
    """One Levenberg-Marquardt step of the starts ``idx``, in place.

    A step is accepted when it lowers the sup-norm (mu / 3), else rejected
    (mu * 4); a start whose step is not finite gets mu = inf.
    """
    M = jacobian(X[idx])
    Mt = np.swapaxes(M, -1, -2)
    step = _solve_damped(Mt @ M, -(Mt @ res[idx, :, None]), mu[idx])
    del M, Mt  # one Jacobian stack alive at a time
    finite = np.isfinite(step).all(axis=(1, 2))
    mu[idx[~finite]] = np.inf
    idx, step = idx[finite], step[finite]
    if not idx.size:
        return
    trial = X[idx] + step.reshape(-1, *X.shape[1:])
    trial_res = _residual(trial, *args)
    trial_norm = np.max(np.abs(trial_res), axis=-1)
    accepted = trial_norm < norm[idx]
    took = idx[accepted]
    X[took], res[took] = trial[accepted], trial_res[accepted]
    norm[took] = trial_norm[accepted]
    mu[took] /= MU_DOWN
    mu[idx[~accepted]] *= MU_UP


def _levenberg_marquardt(
    X: np.ndarray, args: tuple, jacobian: _LinearJacobian, tolerance: float
) -> Iterator[tuple[int, np.ndarray, float]]:
    """Levenberg-Marquardt on a stack of starts, yielding each start as it retires.

    Each start keeps its own damping mu in (M^T M + mu I) delta = -M^T r
    (see ``_lm_step``).  A start retires when it converges, when mu
    exceeds MU_MAX, when it is hopeless (sup-norm above HOPELESS_NORM at
    iteration HOPELESS_ITER), when its residual, Jacobian or step is not
    finite, or after MAX_ITER iterations; it is then yielded once as
    (row, X, sup-norm).  Starts never interact, so a consumer may stop
    iterating at any point.
    """
    X = X.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        res = _residual(X, *args)
        norm = np.max(np.abs(res), axis=-1)
    mu = np.full(len(X), MU_START)
    active = np.ones(len(X), dtype=bool)
    for it in range(MAX_ITER + 1):
        running = active & (norm > tolerance) & np.isfinite(norm) & (mu <= MU_MAX)
        if it == HOPELESS_ITER:
            running &= norm <= HOPELESS_NORM
        if it == MAX_ITER:
            running[:] = False
        for row in np.flatnonzero(active & ~running):
            yield int(row), X[row].copy(), float(norm[row])
        active = running
        if not active.any():
            return
        _lm_step(X, res, norm, mu, np.flatnonzero(active), args, jacobian)


def _first_in_order(
    retired: Iterable[tuple[int, np.ndarray, float]], accept
) -> tuple[int, np.ndarray, float] | None:
    """The lowest row of ``retired`` (rows in any order) that ``accept`` takes.

    Rows are tested in row order, each as soon as every lower row has been
    seen, and ``retired`` is consumed only until the answer is known.
    """
    seen: dict[int, tuple[np.ndarray, float]] = {}
    row = 0
    for r, X, norm in retired:
        seen[r] = X, norm
        while row in seen:
            X, norm = seen.pop(row)
            if accept(X, norm):
                return row, X, norm
            row += 1
    return None


def newton_search(
    alg: LieAlgebra,
    w: TwoForm,
    tolerance: float = 1e-9,
    max_starts: int = 50,
    seed: int = 0,
    initial_guess: Sequence[Sequence[float]] | None = None,
) -> SearchResult:
    """Levenberg-Marquardt over random starts (reproducible by seed).

    Start 0 uses ``initial_guess`` (an n x n matrix) when given; every other
    start draws fresh standard-normal entries from a per-start generator, so
    a start's outcome does not depend on the others.  Starts run in
    consecutive blocks of BLOCK, all starts of a block iterated together
    (see ``_levenberg_marquardt``).  The result is the first converged
    start, in start order, whose root passes the exact re-check of
    ``residual_sup_norms``; the iteration stops as soon as that start is
    known, that is once it has converged and every earlier start has retired.

    Raises ``ValueError`` when ``max_starts < 1``, when ``tolerance`` is not
    a positive finite number, or when ``initial_guess`` is not n x n.
    """
    if max_starts < 1:
        raise ValueError(f"max_starts must be at least 1, got {max_starts}")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be a positive finite number, got {tolerance}")
    n = alg.dim
    if initial_guess is not None and np.shape(initial_guess) != (n, n):
        raise ValueError(
            f"initial_guess must be {n} x {n}, got shape {np.shape(initial_guess)}")
    omega = _float_form(w)
    C = _float_brackets(alg)
    iu, ju = np.triu_indices(n, k=1)
    args = (omega, C, iu, ju)
    jacobian = _LinearJacobian(*args)

    def is_root(X: np.ndarray, norm: float) -> bool:
        # accept only if the exact-arithmetic re-check agrees
        return norm <= tolerance and max(residual_sup_norms(alg, w, X.tolist())) <= tolerance

    for first in range(0, max_starts, BLOCK):
        starts = range(first, min(first + BLOCK, max_starts))
        X0 = np.empty((len(starts), n, n))
        for row, start in enumerate(starts):
            if start == 0 and initial_guess is not None:
                X0[row] = initial_guess
            else:
                X0[row] = np.random.default_rng((seed, start)).standard_normal((n, n))
        found = _first_in_order(_levenberg_marquardt(X0, args, jacobian, tolerance), is_root)
        if found is not None:
            row, X, norm = found
            return SearchResult(
                status="converged",
                J_numeric=tuple(map(tuple, X.tolist())),
                residual_norm=norm,
                starts_tried=starts[row] + 1,
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
    residuals = (
        [x for row in tensors.compat_residual(w, J) for x in row],
        [x for row in tensors.almost_complex_residual(J) for x in row],
        tensors.nijenhuis(alg, J).values(),
    )
    return tuple(  # type: ignore[return-value]
        max((abs(x.evaluate({})) for x in values), default=0.0) for values in residuals
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

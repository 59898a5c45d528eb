"""Finding compatible complex structures: exact linear stage, symbolic family
verification, and a seeded numerical probe for the full nonlinear system.

The linear stage solves the compatibility equations exactly over the
fraction field.  The nonlinear probe (compatibility + J^2 = -I +
integrability) runs Levenberg-Marquardt from random starts, a block of
starts at a time, each start with its own damping and retired on its own,
and stops once the first verified start is known; a failure to converge is
evidence of nonexistence, never a proof.  Every probe residual is quadratic
in J, so its Jacobian is affine in J, D(J) = D(0) + sum_k J_k H_k, and
D(0) and the H_k are assembled from omega, C and the index pattern.  The
float residual stays the probe's single definition of the equations: the
tests pin the assembled D(0) and H_k to the residual's own polarization
(f(J + E) - f(J - E))/2 and second differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import geometry, linalg, tensors
from .liealg import LieAlgebra
from .scalar import ZERO, Scalar
from .tensors import Endomorphism, TwoForm


@dataclass(frozen=True)
class LinearSolution:
    """Exact solution space of the compatibility system.

    ``span`` spans {J : omega_kj J_i^k + omega_is J_j^s = 0} in the
    row-major flattening x[i*dim + k] = J_i^k; ``side_conditions`` are the
    polynomials assumed nonzero while eliminating symbolic form coefficients.
    """

    span: linalg.Span
    side_conditions: tuple[Scalar, ...]

    @property
    def dimension(self) -> int:
        return len(self.span)

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
            coeffs = [ZERO] * (n * n)
            for b in range(n):
                coeffs[i * n + b] = coeffs[i * n + b] + w.omega[b][j]
                coeffs[j * n + b] = coeffs[j * n + b] + w.omega[i][b]
            rows.append(tuple(coeffs))
    span, conditions = linalg.nullspace(linalg.as_matrix(rows))
    return LinearSolution(span=span, side_conditions=conditions)


@dataclass(frozen=True)
class FamilyReport:
    """Residual verdict for one structure, with the metric of ``geometry.pair_metric`` or None."""

    ok: bool
    failures: tuple[str, ...]
    side_conditions: tuple[str, ...]
    metric: geometry.Metric | None = None

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
    or integrability.  Integrability is not checked when J^2 != -I.  Raises
    ``ValueError`` when the form's or J's dimension is not the algebra's.
    """
    if w.dim != alg.dim or J.dim != alg.dim:
        raise ValueError(f"the form has dimension {w.dim} and J {J.dim}, the algebra {alg.dim}")
    failed, metric = geometry.pair_metric(w, J)
    failures = [name for name in failed if name != "nondegenerate"]
    if "almost_complex" not in failures and not tensors.is_integrable(alg, J):
        # with J^2 != -I the Nijenhuis values are not meaningful anyway
        failures.append("integrability")
    return FamilyReport(
        ok=not failures,
        failures=tuple(failures),
        side_conditions=tuple(str(c) for c in side_conditions),
        metric=metric,
    )


# -- numerical probe ----------------------------------------------------------


def _float_form(w: TwoForm) -> np.ndarray:
    free = w.free_params()
    if free:
        raise ValueError(f"unbound parameters in the form: {sorted(free)}")
    return np.array(
        [[c.evaluate({}) for c in row] for row in w.omega]
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


def _bilinear_terms(C: np.ndarray, iu, ju) -> tuple[np.ndarray, ...]:
    """The bilinear part B of ``_residual`` on unit matrices, as entries
    B(E_s, E_t)[r] = v (repeats add up), with s = a*n + b for E_ab.

    Row (i, l) of J^2 + I: B(E_ab, E_cd) = d_ia d_bc d_dl.  Row (i < j, k)
    of the Nijenhuis tensor, one line per quadratic term of ``_residual``:
        B(E_ab, E_cd) = d_ia d_jc C_bdk    (X_iu X_jv C_uvk)
                      - d_ia C_bjc d_dk    (-X_iu C_ujm X_mk)
                      + d_ja C_bic d_dk    (X_ju C_uim X_mk),
    the last two being one term over the ordered pairs i != j, signed by
    their order.  The compatibility rows are linear and have no B.
    """
    n, pairs = C.shape[0], len(iu)
    nij = pairs + n * n  # the first Nijenhuis row
    x, y, z = (e[:, None, None] for e in np.nonzero(C))  # C_xyz != 0
    c = C[x, y, z]
    a, b, d = np.indices((n, n, n))
    p = np.arange(pairs)
    pair = np.zeros((n, n), dtype=int)
    pair[iu, ju] = pair[ju, iu] = p
    i, k = np.arange(n)[:, None], np.arange(n)
    terms = (
        (a * n + b, b * n + d, pairs + a * n + d, 1.0),
        (iu * n + x, ju * n + y, nij + p * n + z, c),  # b, d, k = x, y, z
        (i * n + x, z * n + k, nij + pair[i, y] * n + k, -np.sign(y - i) * c),  # b, j, c
    )
    s, t, r, v = map(np.concatenate, zip(*(
        [e.ravel() for e in np.broadcast_arrays(*term)] for term in terms)))
    nonzero = v != 0  # i = j in the last term
    return s[nonzero], t[nonzero], r[nonzero], v[nonzero]


# Starts iterated together.  A block holds one (BLOCK, 141, 36) Jacobian
# stack at a time, so memory stays bounded for any number of starts.
BLOCK = 64
MAX_ITER = 60  # Levenberg-Marquardt iterations per start, rejected steps included
MU_START, MU_MAX = 1e-6, 1e8
MU_DOWN, MU_UP = 3.0, 4.0
HOPELESS_ITER, HOPELESS_NORM = 30, 1e-2


class _LinearJacobian:
    """The probe Jacobian as an affine function of X, built once per search.

    The residual is quadratic, so Df(X) = D(0) + sum_k x_k H_k, where
    H_k[:, j] = B(E_k, E_j) + B(E_j, E_k) for the bilinear part B of the
    residual, its second difference f(E_k + E_j) - f(E_k) - f(E_j) + f(0).
    Both are assembled from omega, C and the index pattern, with no residual
    evaluation; the tests pin them to ``_residual``'s own differences.  Only
    the entries that some H_k touches depend on X, and D(0) is zero on them:
    the rows that depend on X (J^2 + I, Nijenhuis) have no linear part, and
    the linear compatibility rows do not depend on X.  ``__call__`` fills
    those entries for a whole stack of starts with one matmul.
    """

    def __init__(self, omega: np.ndarray, C: np.ndarray, iu, ju) -> None:
        n, pairs = omega.shape[0], len(iu)
        nn = n * n
        # D(0) on the compatibility rows (i < j): (E_ab omega + omega E_ab^T)_ij
        # = d_ia omega_bj + omega_ib d_ja
        zero = np.zeros((pairs + nn + pairs * n, n, n))
        zero[np.arange(pairs), iu] = omega[:, ju].T
        zero[np.arange(pairs), ju] = omega[iu]
        self.shape = (len(zero), nn)
        self.zero = zero.ravel()
        s, t, r, v = _bilinear_terms(C, iu, ju)
        # B(E_s, E_t)[r] lands in H_s at column r*nn + t and in H_t at r*nn + s
        k, j = np.concatenate([s, t]), np.concatenate([t, s])
        col = np.concatenate([r, r]) * nn + j
        # each column's place among the touched ones; np.unique would sort,
        # and its sort kernels alone add half a megabyte of resident code
        place = np.zeros(self.zero.size, dtype=int)
        place[col] = 1
        cols = np.flatnonzero(place)
        place = np.cumsum(place) - 1
        H = np.bincount(k * len(cols) + place[col], np.concatenate([v, v]), nn * len(cols))
        H = H.reshape(nn, len(cols))
        touched = H.any(axis=0)  # terms of opposite sign can cancel
        self.live, self.H = cols[touched], H[:, touched]

    def __call__(self, X: np.ndarray) -> np.ndarray:
        M = np.empty((len(X), self.zero.size))
        M[:] = self.zero
        M[:, self.live] = X.reshape(-1, len(self.H)) @ self.H
        return M.reshape(len(X), *self.shape)


def _solve_damped(K: np.ndarray, Mtr: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Solutions of (M^T M + mu I) delta = -M^T r for a stack of starts.

    ``K`` holds the M^T M and takes the mu I in place.  A start whose
    system is not finite or is singular gets a nan step, so it alone retires.
    """
    diagonal = np.arange(K.shape[-1])
    K[:, diagonal, diagonal] += mu[:, None]
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
    X: np.ndarray, args: tuple, jacobian: _LinearJacobian, tolerance: float, accept
) -> tuple[int, np.ndarray, float] | None:
    """Levenberg-Marquardt on a stack of starts: the first start ``accept`` takes.

    Each start keeps its own damping mu in (M^T M + mu I) delta = -M^T r
    (see ``_lm_step``).  A start retires when it converges, when mu
    exceeds MU_MAX, when it is hopeless (sup-norm above HOPELESS_NORM at
    iteration HOPELESS_ITER), when its residual, Jacobian or step is not
    finite, or after MAX_ITER iterations.  Each start is offered once as
    ``accept(X, sup-norm)``, in row order, as soon as it and every lower
    row have retired.  Starts never interact, so the iteration stops at the
    first accepted start, returned as (row, X, sup-norm); None when no
    start is accepted.
    """
    X = X.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        res = _residual(X, *args)
        norm = np.max(np.abs(res), axis=-1)
    mu = np.full(len(X), MU_START)
    active = np.ones(len(X), dtype=bool)
    row = 0  # every lower row has been offered
    for it in range(MAX_ITER + 1):
        active &= (norm > tolerance) & np.isfinite(norm) & (mu <= MU_MAX)
        if it == HOPELESS_ITER:
            active &= norm <= HOPELESS_NORM
        if it == MAX_ITER:
            active[:] = False
        while row < len(X) and not active[row]:
            if accept(X[row], float(norm[row])):
                return row, X[row], float(norm[row])
            row += 1
        if row == len(X):
            break
        _lm_step(X, res, norm, mu, np.flatnonzero(active), args, jacobian)
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
    a positive finite number, when the form's dimension is not the
    algebra's, or when ``initial_guess`` is not n x n.
    """
    if max_starts < 1:
        raise ValueError(f"max_starts must be at least 1, got {max_starts}")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be a positive finite number, got {tolerance}")
    n = alg.dim
    if w.dim != n:
        raise ValueError(f"the form has dimension {w.dim}, the algebra {n}")
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
        found = _levenberg_marquardt(X0, args, jacobian, tolerance, is_root)
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

"""The seeded Newton probe: Levenberg-Marquardt on the full nonlinear system
(compatibility + J^2 = -I + integrability) from random starts, a block of
starts at a time, each start with its own damping and retired on its own,
and the exact integer re-check of a root.

Only compatibility is linear, and it is solved exactly: J omega + omega J^T
= 0 holds exactly when J omega is symmetric, so the compatible J are
J = S omega^-1 with S symmetric (Nocedal and Wright, *Numerical
Optimization*, 15.3, elimination of variables).  The probe iterates y, the
coordinates of S in the symmetric unit matrices, n(n + 1)/2 = 21 for n = 6,
with J = V y for the matrix V whose columns are vec(E^sym_t omega^-1).  The
other residuals are quadratic in J, so their Jacobian along V is linear in
y, sum_t y_t G_t, and the G_t are assembled from omega, C and the index
pattern.  A start is the least-squares projection of a seeded matrix onto
the subspace, and its steps are damped by mu V^T V, the isotropic damping
in J restricted to the subspace.  The float residual stays the probe's
single definition of the equations, compatibility rows included: the tests
pin the assembled G_t to the residual's own polarization
(f(J + v) - f(J - v))/2 and second differences along the columns v of V.

A root is re-checked exactly, in integers (``exact_sup_norms``): the floats
of J are dyadics N/2^k, omega and C integer pairs for a + b sqrt 2 over
common denominators, and each residual entry is rounded once, as the
Scalar type rounds it.

This is the package's only numpy code.  ``solver.newton_search`` and
``solver.residual_sup_norms`` import the module when they run, so the exact
checker loads without numpy.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .liealg import LieAlgebra
from .tensors import TwoForm


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
    """The bilinear part B of the nonlinear rows of ``_residual`` on unit
    matrices, as entries B(E_s, E_t)[r] = v (repeats add up), with s = a*n + b
    for E_ab and r counted from the first J^2 + I row.

    Row (i, l) of J^2 + I: B(E_ab, E_cd) = d_ia d_bc d_dl.  Row (i < j, k)
    of the Nijenhuis tensor, one line per quadratic term of ``_residual``:
        B(E_ab, E_cd) = d_ia d_jc C_bdk    (X_iu X_jv C_uvk)
                      - d_ia C_bjc d_dk    (-X_iu C_ujm X_mk)
                      + d_ja C_bic d_dk    (X_ju C_uim X_mk),
    the last two being one term over the ordered pairs i != j, signed by
    their order.
    """
    n, pairs = C.shape[0], len(iu)
    nij = n * n  # the first Nijenhuis row
    x, y, z = (e[:, None, None] for e in np.nonzero(C))  # C_xyz != 0
    c = C[x, y, z]
    a, b, d = np.indices((n, n, n))
    p = np.arange(pairs)
    pair = np.zeros((n, n), dtype=int)
    pair[iu, ju] = pair[ju, iu] = p
    i, k = np.arange(n)[:, None], np.arange(n)
    terms = (
        (a * n + b, b * n + d, a * n + d, 1.0),
        (iu * n + x, ju * n + y, nij + p * n + z, c),  # b, d, k = x, y, z
        (i * n + x, z * n + k, nij + pair[i, y] * n + k, -np.sign(y - i) * c),  # b, j, c
    )
    s, t, r, v = map(np.concatenate, zip(*(
        [e.ravel() for e in np.broadcast_arrays(*term)] for term in terms)))
    nonzero = v != 0  # i = j in the last term
    return s[nonzero], t[nonzero], r[nonzero], v[nonzero]


# Starts iterated together.  A block holds one (BLOCK, 126, 21) Jacobian
# stack at a time, so memory stays bounded for any number of starts.
BLOCK = 64
MAX_ITER = 60  # Levenberg-Marquardt iterations per start, rejected steps included
MU_START, MU_MAX = 1e-6, 1e8
MU_DOWN, MU_UP = 3.0, 4.0
HOPELESS_ITER, HOPELESS_NORM = 30, 1e-2


class _LinearJacobian:
    """The compatible subspace and the probe Jacobian on it, built once per
    search.

    ``V`` (n^2 x m, m = n(n + 1)/2) has the columns vec(E^sym_t omega^-1),
    so X = V y is compatible for every y; ``project`` is (V^T V)^-1 V^T, the
    least-squares coordinates of any X.  The compatibility rows vanish on
    the subspace, and the other rows f are quadratic, f(X) = f(0) + B(X, X),
    so their Jacobian along V is linear in y: Df(V y) V = sum_t y_t G_t, with
    G_t[r, u] = (V^T (B_r + B_r^T) V)[t, u], G_t = sum_k V_kt H_k V for the
    second differences H_k.  ``G`` holds them as one (m, rows * m) matrix,
    and ``__call__`` fills a whole stack of Jacobians with one matmul.
    """

    def __init__(self, omega: np.ndarray, C: np.ndarray, iu, ju) -> None:
        n = omega.shape[0]
        nn, rows = n * n, n * n + len(iu) * n
        a, b = np.triu_indices(n)
        m = len(a)
        E = np.zeros((m, n, n))
        E[np.arange(m), a, b] = E[np.arange(m), b, a] = 1.0
        self.V = (E @ np.linalg.inv(omega)).reshape(m, nn).T
        self.VtV = self.V.T @ self.V
        self.project = np.linalg.solve(self.VtV, self.V.T)
        s, t, r, v = _bilinear_terms(C, iu, ju)
        # BV[k, r] = ((B_r + B_r^T) V)[k]: entry B(E_s, E_t)[r] = v adds
        # v V[t] to BV[s, r] and v V[s] to BV[t, r]
        at = (np.concatenate([s, t]) * rows + np.concatenate([r, r]))[:, None] * m + np.arange(m)
        add = np.concatenate([v, v])[:, None] * self.V[np.concatenate([t, s])]
        BV = np.bincount(at.ravel(), add.ravel(), nn * rows * m)
        self.G = self.V.T @ BV.reshape(nn, rows * m)
        self.shape, self.n = (rows, m), n

    def __call__(self, y: np.ndarray) -> np.ndarray:
        return (y @ self.G).reshape(len(y), *self.shape)

    def matrices(self, y: np.ndarray) -> np.ndarray:
        """The compatible X = V y of a stack of coordinates."""
        return (y @ self.V.T).reshape(len(y), self.n, self.n)


def _solve_damped(K: np.ndarray, Mtr: np.ndarray, mu: np.ndarray, VtV: np.ndarray) -> np.ndarray:
    """Solutions of (M^T M + mu V^T V) delta = -M^T r for a stack of starts.

    ``K`` holds the M^T M and takes the mu V^T V in place.  A start whose
    system is not finite or is singular gets a nan step, so it alone retires.
    """
    K += mu[:, None, None] * VtV
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
    y: np.ndarray, X: np.ndarray, res: np.ndarray, norm: np.ndarray, mu: np.ndarray,
    idx: np.ndarray, args: tuple, jacobian: _LinearJacobian,
) -> None:
    """One Levenberg-Marquardt step of the starts ``idx``, in place.

    The step solves for the nonlinear rows of the residual only: the
    compatibility rows vanish on the subspace.  A step is accepted when it
    lowers the sup-norm (mu / 3), else rejected (mu * 4); a start whose step
    is not finite gets mu = inf.
    """
    M = jacobian(y[idx])
    Mt = np.swapaxes(M, -1, -2)
    r = res[idx, -M.shape[1]:, None]
    step = _solve_damped(Mt @ M, -(Mt @ r), mu[idx], jacobian.VtV)[..., 0]
    del M, Mt  # one Jacobian stack alive at a time
    finite = np.isfinite(step).all(axis=1)
    mu[idx[~finite]] = np.inf
    idx, step = idx[finite], step[finite]
    if not idx.size:
        return
    trial = y[idx] + step
    trial_X = jacobian.matrices(trial)
    trial_res = _residual(trial_X, *args)
    trial_norm = np.max(np.abs(trial_res), axis=-1)
    accepted = trial_norm < norm[idx]
    took = idx[accepted]
    y[took], X[took], res[took] = trial[accepted], trial_X[accepted], trial_res[accepted]
    norm[took] = trial_norm[accepted]
    mu[took] /= MU_DOWN
    mu[idx[~accepted]] *= MU_UP


def _levenberg_marquardt(
    X0: np.ndarray, args: tuple, jacobian: _LinearJacobian, tolerance: float, accept
) -> tuple[int, np.ndarray, float] | None:
    """Levenberg-Marquardt on a stack of starts: the first start ``accept`` takes.

    Each start X0 is replaced by its least-squares projection onto the
    compatible subspace, y = (V^T V)^-1 V^T x0, and iterates y.  Each start
    keeps its own damping mu in (M^T M + mu V^T V) delta = -M^T r, which is
    the isotropic step in X restricted to the subspace (see ``_lm_step``).
    A start retires when it converges, when mu exceeds MU_MAX, when it is
    hopeless (sup-norm above HOPELESS_NORM at iteration HOPELESS_ITER), when
    its residual, Jacobian or step is not finite, or after MAX_ITER
    iterations.  Each start is offered once as ``accept(X, sup-norm)``, with
    X = V y, in row order, as soon as it and every lower row have retired.
    Starts never interact, so the iteration stops at the first accepted
    start, returned as (row, X, sup-norm); None when no start is accepted.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        y = X0.reshape(len(X0), -1) @ jacobian.project.T
        X = jacobian.matrices(y)
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
        _lm_step(y, X, res, norm, mu, np.flatnonzero(active), args, jacobian)
    return None


def first_root(
    alg: LieAlgebra,
    w: TwoForm,
    tolerance: float,
    max_starts: int,
    seed: int,
    initial_guess: Sequence[Sequence[float]] | None,
    accept: Callable[[np.ndarray, float], bool],
) -> tuple[int, np.ndarray, float] | None:
    """The first start, in start order, that ``accept`` takes, as (start,
    X, sup-norm); None when none of the ``max_starts`` starts is taken.

    Start 0 is ``initial_guess`` when given; every other start draws
    standard-normal entries from the generator of (seed, start).  Starts run
    in consecutive blocks of BLOCK (see ``_levenberg_marquardt``).  Raises
    ``ValueError`` when ``initial_guess`` is not n x n or the form has
    unbound parameters or is degenerate.
    """
    n = alg.dim
    if initial_guess is not None and np.shape(initial_guess) != (n, n):
        raise ValueError(
            f"initial_guess must be {n} x {n}, got shape {np.shape(initial_guess)}")
    omega = _float_form(w)
    C = _float_brackets(alg)
    iu, ju = np.triu_indices(n, k=1)
    args = (omega, C, iu, ju)
    try:
        jacobian = _LinearJacobian(*args)
    except np.linalg.LinAlgError:
        raise ValueError(f"the form {w!r} is degenerate") from None
    for first in range(0, max_starts, BLOCK):
        starts = range(first, min(first + BLOCK, max_starts))
        X0 = np.empty((len(starts), n, n))
        for row, start in enumerate(starts):
            if start == 0 and initial_guess is not None:
                X0[row] = initial_guess
            else:
                X0[row] = np.random.default_rng((seed, start)).standard_normal((n, n))
        found = _levenberg_marquardt(X0, args, jacobian, tolerance, accept)
        if found is not None:
            row, X, norm = found
            return starts[row], X, norm
    return None


# -- the exact re-check ---------------------------------------------------


def _integer_parts(shape: tuple, entries: dict) -> tuple[np.ndarray, np.ndarray, int]:
    """(a, b, d): the Q(sqrt 2) constants ``entries`` ({index: Scalar}, zero
    elsewhere) as integer arrays over one common denominator, value =
    (a + b sqrt 2)/d with d > 0.  The arrays hold Python ints (dtype
    object), so no product below rounds."""
    parts = {idx: x.quadratic_parts() for idx, x in entries.items()}
    d = math.lcm(*(q for _, _, q in parts.values()))
    a, b = np.zeros(shape, dtype=object), np.zeros(shape, dtype=object)
    for idx, (p, q, r) in parts.items():
        a[idx], b[idx] = p * (d // r), q * (d // r)
    return a, b, d


def _dyadic(J_numeric: Sequence[Sequence[float]], n: int) -> tuple[np.ndarray, int]:
    """(N, 2^k): the floats of J as the integer matrix N over one power of two."""
    ratios = [[float(x).as_integer_ratio() for x in row] for row in J_numeric]
    if len(ratios) != n or any(len(row) != n for row in ratios):
        raise ValueError(f"J must be {n} x {n}")
    scale = max(q for row in ratios for _, q in row)
    return np.array([[p * (scale // q) for p, q in row] for row in ratios], dtype=object), scale


def _sup_norm(a: np.ndarray, b: np.ndarray, d: int) -> float:
    """The largest |(a + b sqrt 2)/d| rounded as ``Scalar.evaluate`` rounds:
    a/d + (b/d) sqrt 2, each quotient of ints correctly rounded.  Correct
    rounding is monotone, so without a sqrt 2 part the largest |a| gives the
    largest float."""
    if not b.any():
        return max(abs(x) for x in a.flat) / d
    return max(abs(x / d + (y / d) * math.sqrt(2.0)) for x, y in zip(a.flat, b.flat))


def exact_sup_norms(
    alg: LieAlgebra, w: TwoForm, J_numeric: Sequence[Sequence[float]]
) -> tuple[float, float, float]:
    """Sup-norms of (compatibility, J^2 + I, Nijenhuis) at a numeric J, exact.

    Each float of J is the dyadic it stands for, J = N/2^k, and omega and the
    structure constants are integer pairs over common denominators, (a + b
    sqrt 2)/D.  Every residual entry is then (A + B sqrt 2)/Den in Python
    ints, rounded once to float as ``Scalar.evaluate`` rounds it, so the
    result is that of the Scalar tensors at the lifted J.  Raises
    ``ValueError`` on a nan entry, unbound parameters or a J that is not
    n x n, and ``OverflowError`` on an infinite entry.
    """
    n = alg.dim
    N, scale = _dyadic(J_numeric, n)
    omega = _integer_parts((n, n), {(i, j): c for i, row in enumerate(w.omega)
                                    for j, c in enumerate(row) if not c.is_zero()})
    brackets = _integer_parts((n, n, n), alg.constants)

    def compat(W):
        P = N @ W
        return P - P.T

    def nijenhuis(C):
        # the terms of ``_residual``'s Nijenhuis rows, with C over scale^2
        A = (N @ C.reshape(n, n * n)).reshape(n, n, n)
        T = A @ N
        return N @ A - scale * scale * C - T + T.swapaxes(0, 1)

    def linear(f, a, b, d):
        # f, linear, at (a + b sqrt 2)/d; b is zero for rational constants
        return f(a), f(b) if b.any() else b, d

    j2 = N @ N + scale * scale * np.identity(n, dtype=object)
    return (
        _sup_norm(*linear(compat, *omega[:2], scale * omega[2])),
        _sup_norm(j2, np.zeros_like(j2), scale * scale),
        _sup_norm(*linear(nijenhuis, *brackets[:2], scale * scale * brackets[2])),
    )

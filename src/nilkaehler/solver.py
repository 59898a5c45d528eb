"""Finding compatible complex structures: exact linear stage, symbolic family
verification, and a seeded numerical probe for the full nonlinear system.

The linear stage solves the compatibility equations exactly over the
fraction field.  The nonlinear probe (compatibility + J^2 = -I +
integrability) runs Levenberg-Marquardt on the compatible J from random
starts and stops once the first verified start is known; a failure to
converge is evidence of nonexistence, never a proof.  The probe and its
integer re-check live in ``probe``, the package's only numpy code, which
``newton_search`` and ``residual_sup_norms`` import when they run:
everything else here is exact and loads without numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

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
    a start's outcome does not depend on the others.  Each start is
    projected by least squares onto the compatible J = S omega^-1 (S
    symmetric), and the iteration moves the n(n + 1)/2 coordinates of S
    (21 for n = 6), damped by mu V^T V (see ``probe``).  Starts run in consecutive blocks of
    ``probe.BLOCK``, all starts of a block iterated together (see
    ``probe.first_root``).  The result is the first converged start, in
    start order, whose root passes the exact integer re-check of
    ``residual_sup_norms``; the iteration stops as soon as that start is
    known, that is once it has converged and every earlier start has retired.

    Raises ``ValueError`` when ``max_starts < 1``, when ``tolerance`` is not
    a positive finite number, when ``seed`` is negative, when the form's
    dimension is not the algebra's, when the form is degenerate or has
    unbound parameters, or when ``initial_guess`` is not n x n.
    """
    if max_starts < 1:
        raise ValueError(f"max_starts must be at least 1, got {max_starts}")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be a positive finite number, got {tolerance}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    n = alg.dim
    if w.dim != n:
        raise ValueError(f"the form has dimension {w.dim}, the algebra {n}")
    from . import probe  # numpy, loaded only by a search

    def is_root(X, norm: float) -> bool:
        # accept only if the exact-arithmetic re-check agrees
        return norm <= tolerance and max(residual_sup_norms(alg, w, X.tolist())) <= tolerance

    found = probe.first_root(alg, w, tolerance, max_starts, seed, initial_guess, is_root)
    if found is not None:
        start, X, norm = found
        return SearchResult(
            status="converged",
            J_numeric=tuple(map(tuple, X.tolist())),
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

    Floats are taken as the exact dyadic rationals they are, and the three
    residuals are evaluated in integer arithmetic (``probe.exact_sup_norms``),
    so this check shares no rounding with the iteration loop.
    """
    from . import probe

    return probe.exact_sup_norms(alg, w, J_numeric)


def search_report(result: SearchResult) -> dict:
    """JSON-ready search summary."""
    return {
        "status": result.status,
        "residual": result.residual_norm,
        "J": [list(row) for row in result.J_numeric] if result.J_numeric else None,
        "starts_tried": result.starts_tried,
        "seed": result.seed,
    }

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilkaehler import catalog, probe, tensors
from nilkaehler.geometry import associated_metric
from nilkaehler.liealg import LieAlgebra
from nilkaehler.linalg import is_zero_matrix
from nilkaehler.scalar import ZERO, ParamBinding, Scalar
from nilkaehler.solver import (
    FamilyReport,
    LinearSolution,
    compat_nullspace,
    newton_search,
    residual_sup_norms,
    search_report,
    verify_family,
)
from nilkaehler.tensors import Endomorphism, TwoForm, compat_residual

ABELIAN = LieAlgebra.from_terms(6, [])
G21 = LieAlgebra.from_terms(6, [(1, 2, 4, 1), (1, 4, 6, 1), (2, 3, 6, 1)])
G16 = LieAlgebra.from_terms(
    6, [(1, 3, 5, 1), (1, 4, 6, 1), (2, 3, 6, -1), (2, 4, 5, 1)]
)
G23 = LieAlgebra.from_terms(6, [(1, 3, 5, -1), (2, 3, 6, 1)])

W_STD = TwoForm.from_terms(6, [(1, 2, 1), (3, 4, 1), (5, 6, 1)])
W2_G21 = TwoForm.from_terms(6, [(1, 6, 1), (2, 5, 1), (3, 4, -1)])
W1_G16 = TwoForm.from_terms(6, [(1, 6, 1), (2, 5, -1), (3, 4, 1)])
W1_G23 = TwoForm.from_terms(6, [(1, 5, 1), (2, 4, -1), (3, 6, 1)])

J21_FAMILY = Endomorphism(
    [
        ["psi11", "-(psi11^2+1)/psi12", "0", "0", "0", "0"],
        ["psi12", "-psi11", "0", "0", "0", "0"],
        ["0", "0", "psi11", "(psi11^2+1)/psi12", "0", "0"],
        ["0", "0", "-psi12", "-psi11", "0", "0"],
        ["0", "0", "0", "0", "psi11", "(psi11^2+1)/psi12"],
        ["0", "0", "0", "0", "-psi12", "-psi11"],
    ]
)
# the family above at psi11 = 0, psi12 = -1
J21_CANON = [
    [0, 1, 0, 0, 0, 0],
    [-1, 0, 0, 0, 0, 0],
    [0, 0, 0, -1, 0, 0],
    [0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, -1],
    [0, 0, 0, 0, 1, 0],
]
J0_G16 = Endomorphism(
    [
        [0, -1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, -1, 0, 0, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, -1, 0],
    ]
)


class TestCompatNullspace:
    def test_standard_form_dimension(self):
        # {J : J w + w J^T = 0} is a copy of sp(6, R)
        sol = compat_nullspace(W_STD)
        assert isinstance(sol, LinearSolution)
        assert sol.dimension == 21
        assert len(sol.span) == 21

    def test_basis_elements_solve_the_system(self):
        sol = compat_nullspace(W_STD)
        for flat in sol.span:
            mat = [flat[6 * i:6 * i + 6] for i in range(6)]
            assert is_zero_matrix(compat_residual(W_STD, Endomorphism(mat)))

    def test_zero_map_in_span(self):
        sol = compat_nullspace(W_STD)
        assert sol.contains(Endomorphism([[0] * 6 for _ in range(6)]))

    def test_g21_canonical_structure_in_span(self):
        sol = compat_nullspace(W2_G21)
        assert sol.dimension == 21
        assert sol.contains(Endomorphism(J21_CANON))

    def test_incompatible_map_not_in_span(self):
        sol = compat_nullspace(W1_G16)
        assert not sol.contains(J0_G16)

    @settings(max_examples=20, deadline=None)
    @given(perm=st.permutations(range(6)))
    def test_dimension_survives_basis_permutation(self, perm):
        w = W2_G21
        permuted = TwoForm(
            [[w.omega[perm[i]][perm[j]] for j in range(6)] for i in range(6)]
        )
        assert compat_nullspace(permuted).dimension == 21


class TestVerifyFamily:
    def test_g21_family_passes(self):
        report = verify_family(
            G21, W2_G21, J21_FAMILY, side_conditions=["psi12 != 0"]
        )
        assert isinstance(report, FamilyReport)
        assert report.ok
        assert report.failures == ()
        assert report.side_conditions == ("psi12 != 0",)

    def test_g16_first_form_rejects_standard_structure(self):
        report = verify_family(G16, W1_G16, J0_G16)
        assert not report.ok
        assert report.failures == ("compatibility",)

    def test_broken_square_is_named(self):
        rows = [list(r) for r in J21_CANON]
        rows[0][0] = 1  # no longer squares to -I
        report = verify_family(G21, W2_G21, Endomorphism(rows))
        assert "almost_complex" in report.failures

    def test_nonintegrable_map_is_named(self):
        # a complex structure on R^6 that fails Nijenhuis on g21
        j_std = Endomorphism(
            [
                [0, 1, 0, 0, 0, 0],
                [-1, 0, 0, 0, 0, 0],
                [0, 0, 0, 1, 0, 0],
                [0, 0, -1, 0, 0, 0],
                [0, 0, 0, 0, 0, 1],
                [0, 0, 0, 0, -1, 0],
            ]
        )
        report = verify_family(G21, W_STD, j_std)
        assert "integrability" in report.failures

    def test_the_report_carries_the_metric_of_the_pair(self):
        assert verify_family(G21, W2_G21, J21_FAMILY).metric == associated_metric(
            W2_G21, J21_FAMILY)
        assert verify_family(G16, W1_G16, J0_G16).metric is None

    @pytest.mark.parametrize("w_dim,j_dim", [(6, 4), (6, 8), (4, 6)])
    def test_a_dimension_other_than_the_algebras_is_refused(self, w_dim, j_dim):
        w = TwoForm.from_terms(w_dim, [(1, 2, 1), (3, 4, 1)])
        # J e1 = e2, J e2 = -e1, J e3 = e4, ...: a complex structure, of the wrong size
        J = Endomorphism([[(i % 2 == 0 and k == i + 1) - (i % 2 == 1 and k == i - 1)
                           for k in range(j_dim)] for i in range(j_dim)])
        with pytest.raises(ValueError, match=f"form has dimension {w_dim} and J {j_dim}, "
                                             "the algebra 6"):
            verify_family(G21, w, J)


class TestNewtonSearch:
    def test_converges_near_canonical_g21(self):
        guess = [
            [x + 0.05 * ((i + 2 * k) % 3 - 1) for k, x in enumerate(row)]
            for i, row in enumerate(J21_CANON)
        ]
        result = newton_search(
            G21, W2_G21, tolerance=1e-9, max_starts=1, seed=7, initial_guess=guess
        )
        assert result.status == "converged"
        assert result.converged
        assert result.starts_tried == 1
        assert result.residual_norm <= 1e-9

    def test_converged_root_passes_independent_recheck(self):
        result = newton_search(
            G21, W2_G21, max_starts=1, seed=7, initial_guess=J21_CANON
        )
        assert result.converged
        norms = residual_sup_norms(G21, W2_G21, result.J_numeric)
        assert max(norms) <= 1e-9

    def test_random_starts_find_root_on_abelian(self):
        result = newton_search(ABELIAN, W_STD, max_starts=10, seed=3)
        assert result.converged

    def test_no_root_reported_on_g23_first_form(self):
        result = newton_search(G23, W1_G23, max_starts=20, seed=0)
        assert result.status == "failed"
        assert result.J_numeric is None
        assert result.starts_tried == 20
        assert math.isinf(result.residual_norm)

    def test_converges_on_a_form_with_inexact_float_entries(self):
        # lambda = 1/3 has no exact float: J = S omega^-1 is compatible with
        # the rounded omega only to rounding, and the re-check reads 1/3
        entry = catalog.get("g12")
        w = entry.form("w1").form.substitute(ParamBinding({"lambda": Fraction(1, 3)}))
        assert newton_search(entry.algebra, w, max_starts=25, seed=1).converged

    def test_same_seed_same_outcome(self):
        a = newton_search(G23, W1_G23, max_starts=4, seed=11)
        b = newton_search(G23, W1_G23, max_starts=4, seed=11)
        assert a == b

    def test_form_of_another_dimension_is_rejected(self):
        w = TwoForm.from_terms(2, [(1, 2, 1)])
        with pytest.raises(ValueError, match="the form has dimension 2, the algebra 6"):
            newton_search(ABELIAN, w, max_starts=1, seed=0)

    def test_symbolic_form_is_rejected(self):
        w = TwoForm.from_terms(6, [(1, 6, 1), (2, 5, "lambda"), (3, 4, -1)])
        with pytest.raises(ValueError, match="unbound"):
            newton_search(G21, w, max_starts=1, seed=0)

    @pytest.mark.parametrize(
        "kwargs,fragment",
        [
            ({"max_starts": 0}, "max_starts"),
            ({"max_starts": -3}, "max_starts"),
            ({"tolerance": 0.0}, "tolerance"),
            ({"tolerance": -1e-9}, "tolerance"),
            ({"tolerance": math.nan}, "tolerance"),
            ({"tolerance": math.inf}, "tolerance"),
            ({"initial_guess": [[0.0] * 6]}, "initial_guess"),
            ({"initial_guess": 0.0}, "initial_guess"),
            ({"initial_guess": np.zeros((7, 7))}, "initial_guess"),
            ({"seed": -1}, "^seed must be non-negative, got -1$"),
        ],
    )
    def test_bad_search_input_is_rejected(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            newton_search(ABELIAN, W_STD, **{"seed": 0, **kwargs})

    def test_degenerate_form_is_rejected(self):
        w = TwoForm.from_terms(6, [(1, 2, 1), (3, 4, 1)])
        message = r"^the form TwoForm\(e1\^e2 \+ e3\^e4\) is degenerate$"
        with pytest.raises(ValueError, match=message):
            newton_search(ABELIAN, w, max_starts=1, seed=0)

    # 1e5 everywhere makes the damped normal matrix exactly singular in floats
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # overflow is retired, not reported
    @pytest.mark.parametrize("bad", [math.nan, 1e200, 1e5])
    def test_bad_first_start_is_retired_alone(self, bad):
        X0 = _starts(3, 10, first=np.full((6, 6), bad))
        alone = [
            newton_search(ABELIAN, W_STD, max_starts=1, initial_guess=x).converged
            for x in X0
        ]
        assert not alone[0]
        result = newton_search(ABELIAN, W_STD, max_starts=10, seed=3, initial_guess=X0[0])
        assert result.converged
        assert result.starts_tried == alone.index(True) + 1


def _stored_forms():
    """Every stored (algebra, form) pair, with lambda = 2 where it occurs."""
    cases = []
    for name in catalog.NAMES:
        entry = catalog.get(name)
        for f in entry.forms:
            w = f.form
            if w.free_params():
                w = w.substitute(ParamBinding({"lambda": Fraction(2)}))
            cases.append(pytest.param(entry.algebra, w, id=f"{name}-{f.id}"))
    return cases


def _probe_args(alg, w):
    iu, ju = np.triu_indices(alg.dim, k=1)
    return probe._float_form(w), probe._float_brackets(alg), iu, ju


def _polarized(X, args):
    """Df(X) from ``probe._residual`` alone: (f(X + E) - f(X - E))/2 over the
    unit matrices E, exact for a quadratic f; rows are residuals."""
    E = np.eye(X.size).reshape(X.size, *X.shape)
    return (probe._residual(X + E, *args) - probe._residual(X - E, *args)).T / 2


class TestNumericResidual:
    """The probe's float residual against the exact tensors it stands for."""

    @pytest.mark.parametrize("alg,w", _stored_forms())
    def test_matches_exact_tensors(self, alg, w):
        args = _probe_args(alg, w)
        upper = list(zip(*args[2:]))
        n = alg.dim
        rng = np.random.default_rng(2)
        # dyadic entries k/8: every float product and sum below is exact
        X = rng.integers(-12, 13, size=(3, n, n)) / 8
        rows = probe._residual(X, *args)
        for x, row in zip(X, rows):
            J = Endomorphism([[Fraction(v) for v in r] for r in x])
            compat = tensors.compat_residual(w, J)
            j2 = tensors.almost_complex_residual(J)
            nij = tensors.nijenhuis(alg, J)
            exact = (
                [compat[i][j] for i, j in upper]
                + [c for r in j2 for c in r]
                + [nij.get((i, j, k), ZERO) for i, j in upper for k in range(n)]
            )
            assert exact == [Fraction(v) for v in row]
            # a stack gives the rows of single calls
            assert np.array_equal(probe._residual(x, *args), row)

    @pytest.mark.parametrize("alg,w", _stored_forms())
    def test_polarization_is_exact(self, alg, w):
        # f(X + D) - f(X - D) = 2 Df(X) D holds exactly only for quadratic f
        args = _probe_args(alg, w)
        rng = np.random.default_rng(3)
        X, D = rng.standard_normal((2, alg.dim, alg.dim))
        lhs = probe._residual(X + D, *args) - probe._residual(X - D, *args)
        rhs = 2 * _polarized(X, args) @ D.ravel()
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs))


def _scalar_sup_norms(alg, w, J_numeric):
    """The re-check through the Scalar tensors: each float lifted to the
    dyadic Scalar it stands for, each residual entry evaluated."""
    J = Endomorphism(
        [[Scalar.from_fraction(Fraction(float(x))) for x in row] for row in J_numeric])
    residuals = (
        [x for row in tensors.compat_residual(w, J) for x in row],
        [x for row in tensors.almost_complex_residual(J) for x in row],
        tensors.nijenhuis(alg, J).values(),
    )
    return tuple(
        max((abs(x.evaluate({})) for x in values), default=0.0) for values in residuals)


def _recheck_cases():
    """The stored forms, a form over Q(sqrt 2) with denominators and an
    algebra whose structure constants are."""
    w = TwoForm.from_terms(6, [(1, 6, "s"), (2, 5, "1/3 + s"), (3, 4, "-1/2")])
    alg = LieAlgebra.from_terms(6, [(1, 2, 4, "s"), (1, 4, 6, "1 - 2*s/3"), (2, 3, 6, "1/5")])
    return _stored_forms() + [pytest.param(G21, w, id="sqrt2-form"),
                              pytest.param(alg, W2_G21, id="sqrt2-brackets")]


class TestExactRecheck:
    """``residual_sup_norms`` in integers against the Scalar tensors."""

    @pytest.mark.parametrize("alg,w", _recheck_cases())
    def test_integers_give_the_scalar_floats(self, alg, w):
        rng = np.random.default_rng(8)
        n = alg.dim
        # dyadic entries with spread exponents, and a near-root of g21 w2
        # whose residuals are small differences of large terms
        stack = list(rng.standard_normal((4, n, n)) * 2.0 ** rng.integers(-20, 21, (4, n, n)))
        stack.append(np.array(J21_CANON) + 2.0 ** -40 * rng.standard_normal((n, n)))
        for J in stack:
            assert residual_sup_norms(alg, w, J.tolist()) == _scalar_sup_norms(alg, w, J.tolist())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_nonfinite_entry_raises_as_the_scalar_route_does(self, bad):
        J = np.eye(6).tolist()
        J[2][3] = bad
        with pytest.raises((ValueError, OverflowError)) as scalar:
            _scalar_sup_norms(G21, W2_G21, J)
        with pytest.raises(type(scalar.value), match=f"^{re.escape(str(scalar.value))}$"):
            residual_sup_norms(G21, W2_G21, J)

    def test_unbound_parameters_are_refused(self):
        w = TwoForm.from_terms(6, [(1, 6, 1), (2, 5, "lambda"), (3, 4, -1)])
        with pytest.raises(ValueError, match="unbound parameters"):
            residual_sup_norms(G21, w, J21_CANON)


def _starts(seed, count, first=None):
    """The stack a search draws: start 0 is ``first`` when given."""
    X = np.stack([np.random.default_rng((seed, k)).standard_normal((6, 6))
                  for k in range(count)])
    if first is not None:
        X[0] = first
    return X


def _offers(X0, args, jacobian, k=None):
    """The result when the ``k``-th offered start is accepted (none when k is
    None), and every (X, sup-norm) offered."""
    offers = []

    def accept(X, norm):
        offers.append((X.copy(), norm))
        return len(offers) == k

    return probe._levenberg_marquardt(X0, args, jacobian, 1e-9, accept), offers


def _converged(X0, args, jacobian):
    """Each start's converged flag, in start order, with every start run out."""
    found, offers = _offers(X0, args, jacobian)
    assert found is None and len(offers) == len(X0)  # each start is offered once
    return [norm <= 1e-9 for _, norm in offers]


def _nudged_g21_starts():
    """Twelve starts on g21 w2, the first a nudge of the canonical structure."""
    nudge = 0.05 * np.random.default_rng(5).standard_normal((6, 6))
    return _starts(11, 12, first=np.array(J21_CANON) + nudge)


def _polarized_along(X, V, args):
    """Df(X) V from ``probe._residual`` alone: (f(X + v) - f(X - v))/2 over
    the columns v of V, exact for a quadratic f; rows are residuals."""
    D = V.T.reshape(-1, *X.shape)
    return (probe._residual(X + D, *args) - probe._residual(X - D, *args)).T / 2


def _assert_g_is_the_second_differences(jacobian, args):
    """G[t, (r, u)] = f_r(v_t + v_u) - f_r(v_t) - f_r(v_u) + f_r(0) to 1e-12,
    over the columns v of V and the rows r after the compatibility rows,
    with f from ``probe._residual`` alone."""
    n, pairs = len(args[0]), len(args[2])
    E = jacobian.V.T.reshape(-1, n, n)

    def f(X):
        return probe._residual(X, *args)[..., pairs:]

    f_0, f_E = f(np.zeros((n, n))), f(E)
    want = np.stack([(f(e + E) - f_e - f_E + f_0).T.ravel() for e, f_e in zip(E, f_E)])
    assert jacobian.G.shape == want.shape
    assert np.max(np.abs(jacobian.G - want)) <= 1e-12 * np.max(np.abs(want))


def _assert_jacobian_is_the_polarization(jacobian, y, args):
    pairs = len(args[2])
    want = np.stack([_polarized_along(X, jacobian.V, args) for X in jacobian.matrices(y)])
    assert np.max(np.abs(jacobian(y) - want[:, pairs:])) <= 1e-12 * np.max(np.abs(want))


def _assert_compatible_subspace(jacobian, args):
    """Every column of V has compatibility rows within 1e-12 of the terms
    that cancel in them, and ``project`` recovers the coordinates: V has
    full rank n(n + 1)/2."""
    omega, pairs = args[0], len(args[2])
    n, V = len(omega), jacobian.V
    assert V.shape == (n * n, n * (n + 1) // 2)
    for X in V.T.reshape(-1, n, n):
        compat = probe._residual(X, *args)[:pairs]
        assert np.max(np.abs(compat)) <= 1e-12 * np.max(np.abs(X @ omega))
    assert np.max(np.abs(jacobian.project @ V - np.eye(V.shape[1]))) <= 1e-12


class TestBatchedProbe:
    """The Levenberg-Marquardt iteration over a stack of starts."""

    @pytest.mark.parametrize("alg,w", _stored_forms())
    def test_linear_jacobian_matches_polarization(self, alg, w):
        # along V the probe Jacobian is linear in y: sum_t y_t G_t
        args = _probe_args(alg, w)
        jacobian = probe._LinearJacobian(*args)
        y = np.random.default_rng(4).standard_normal((3, jacobian.V.shape[1]))
        _assert_jacobian_is_the_polarization(jacobian, y, args)

    @pytest.mark.parametrize("alg,w", _stored_forms())
    def test_assembly_is_the_residuals_own_differences(self, alg, w):
        # G from omega, C and the index pattern, against second differences
        args = _probe_args(alg, w)
        _assert_g_is_the_second_differences(probe._LinearJacobian(*args), args)

    @pytest.mark.parametrize("alg,w", _stored_forms())
    def test_the_subspace_is_compatible(self, alg, w):
        args = _probe_args(alg, w)
        _assert_compatible_subspace(probe._LinearJacobian(*args), args)

    def test_assembly_matches_a_random_bracket(self):
        # a float C antisymmetric in its first two indices has every index
        # pattern, and a random antisymmetric omega every entry
        rng = np.random.default_rng(6)
        C, omega = rng.standard_normal((6, 6, 6)), rng.standard_normal((6, 6))
        args = (omega - omega.T, C - np.swapaxes(C, 0, 1), *np.triu_indices(6, k=1))
        jacobian = probe._LinearJacobian(*args)
        _assert_compatible_subspace(jacobian, args)
        _assert_g_is_the_second_differences(jacobian, args)
        y = np.random.default_rng(7).standard_normal((2, jacobian.V.shape[1]))
        _assert_jacobian_is_the_polarization(jacobian, y, args)

    def test_assembly_evaluates_no_residual(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("_residual called")

        args = _probe_args(G21, W2_G21)
        monkeypatch.setattr(probe, "_residual", refuse)
        probe._LinearJacobian(*args)

    @pytest.mark.parametrize(
        "alg,w,X0",
        [
            pytest.param(G23, W1_G23, _starts(11, 12), id="g23-w1"),
            pytest.param(G21, W2_G21, _nudged_g21_starts(), id="g21-w2-nudged"),
        ],
    )
    def test_starts_do_not_interact(self, alg, w, X0):
        args = _probe_args(alg, w)
        jacobian = probe._LinearJacobian(*args)
        together = _converged(X0, args, jacobian)
        alone = [_converged(x[None], args, jacobian)[0] for x in X0]
        assert together == alone
        if alg is G21:
            assert together[0]

    # 1e5 everywhere makes the damped normal matrix exactly singular in floats
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, 1e200, 1e5])
    def test_nonfinite_start_leaves_the_stack_alone(self, bad):
        args = _probe_args(ABELIAN, W_STD)
        jacobian = probe._LinearJacobian(*args)
        X0 = _starts(3, 6, first=np.full((6, 6), bad))
        with_bad = _converged(X0, args, jacobian)
        assert not with_bad[0]
        assert with_bad[1:] == _converged(X0[1:], args, jacobian)

    def test_the_first_accepted_start_ends_the_iteration(self, monkeypatch):
        # accepting the k-th offer returns row k - 1 after k offers, so the
        # starts are offered in row order and none after the accepted one
        args = _probe_args(G21, W2_G21)
        jacobian = probe._LinearJacobian(*args)
        X0 = _nudged_g21_starts()
        steps = []
        lm_step = probe._lm_step
        monkeypatch.setattr(probe, "_lm_step", lambda *a: steps.append(a) or lm_step(*a))
        _, every = _offers(X0, args, jacobian)
        taken = [len(steps)]
        for k in range(1, len(X0) + 1):
            del steps[:]
            (row, X, norm), offers = _offers(X0, args, jacobian, k)
            assert (row, len(offers)) == (k - 1, k)
            assert np.array_equal(X, every[row][0]) and norm == every[row][1]
            taken.append(len(steps))
        # the nudged start converges first, and its acceptance stops the loop
        assert every[0][1] <= 1e-9
        assert taken[1] < taken[0] and taken[1:] == sorted(taken[1:])

    @pytest.mark.parametrize("alg,w,max_starts,seed,steps", [
        (G21, W2_G21, 50, 0, 21), (G23, W1_G23, 20, 0, 60), (G23, W1_G23, 200, 7, 240)])
    def test_a_search_takes_a_fixed_number_of_steps(
            self, monkeypatch, alg, w, max_starts, seed, steps):
        # a guard on the probe's work: one converging search, one failing
        # search and one over several blocks
        taken = []
        lm_step = probe._lm_step
        monkeypatch.setattr(probe, "_lm_step", lambda *a: taken.append(a) or lm_step(*a))
        newton_search(alg, w, max_starts=max_starts, seed=seed)
        assert len(taken) == steps


class TestSearchReport:
    def test_converged_report_round_trips(self):
        result = newton_search(
            G21, W2_G21, max_starts=1, seed=7, initial_guess=J21_CANON
        )
        report = search_report(result)
        assert set(report) == {"status", "residual", "J", "starts_tried", "seed"}
        assert report["status"] == "converged"
        assert len(report["J"]) == 6 and len(report["J"][0]) == 6
        assert report["seed"] == 7
        json.dumps(report)

    def test_failed_report_has_null_matrix(self):
        result = newton_search(G23, W1_G23, max_starts=2, seed=5)
        report = search_report(result)
        assert report["status"] == "failed"
        assert report["J"] is None
        json.dumps(report)

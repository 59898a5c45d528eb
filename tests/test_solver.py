import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilkaehler import catalog, solver, tensors
from nilkaehler.liealg import LieAlgebra
from nilkaehler.linalg import is_zero_matrix
from nilkaehler.scalar import ZERO, ParamBinding
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
        assert len(sol.basis) == 21

    def test_basis_elements_solve_the_system(self):
        sol = compat_nullspace(W_STD)
        for mat in sol.basis:
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
            [[w.entry(perm[i], perm[j]) for j in range(6)] for i in range(6)]
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

    def test_same_seed_same_outcome(self):
        a = newton_search(G23, W1_G23, max_starts=4, seed=11)
        b = newton_search(G23, W1_G23, max_starts=4, seed=11)
        assert a == b

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
        ],
    )
    def test_bad_search_input_is_rejected(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            newton_search(ABELIAN, W_STD, seed=0, **kwargs)

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
    return solver._float_form(w), solver._float_brackets(alg), iu, ju


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
        rows = solver._residual(X, *args)
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
            assert [Fraction(v) for v in row] == [c.as_fraction() for c in exact]
            # a stack gives the rows of single calls
            assert np.array_equal(solver._residual(x, *args), row)

    @pytest.mark.parametrize("alg,w", _stored_forms())
    def test_polarization_is_exact(self, alg, w):
        # f(X + D) - f(X - D) = 2 Df(X) D holds exactly only for quadratic f
        args = _probe_args(alg, w)
        rng = np.random.default_rng(3)
        X, D = rng.standard_normal((2, alg.dim, alg.dim))
        lhs = solver._residual(X + D, *args) - solver._residual(X - D, *args)
        rhs = 2 * solver._jacobian(X, *args) @ D.ravel()
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs))


def _starts(seed, count, first=None):
    """The stack a search draws: start 0 is ``first`` when given."""
    X = np.stack([np.random.default_rng((seed, k)).standard_normal((6, 6))
                  for k in range(count)])
    if first is not None:
        X[0] = first
    return X


def _converged(X0, args, jacobian):
    """Each start's converged flag, in start order, with every start run out."""
    norms = {row: norm for row, _, norm in
             solver._levenberg_marquardt(X0, args, jacobian, 1e-9)}
    assert sorted(norms) == list(range(len(X0)))  # each start retires once
    return [norms[row] <= 1e-9 for row in range(len(X0))]


class TestBatchedProbe:
    """The Levenberg-Marquardt iteration over a stack of starts."""

    @pytest.mark.parametrize("alg,w", _stored_forms())
    def test_linear_jacobian_matches_polarization(self, alg, w):
        # the probe Jacobian is affine in X: D(0) + sum_k x_k H_k
        args = _probe_args(alg, w)
        X = np.random.default_rng(4).standard_normal((3, alg.dim, alg.dim))
        got = solver._LinearJacobian(*args)(X)
        want = np.stack([solver._jacobian(x, *args) for x in X])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "alg,w,X0",
        [
            pytest.param(G23, W1_G23, _starts(11, 12), id="g23-w1"),
            pytest.param(
                G21, W2_G21,
                _starts(11, 12, first=np.array(J21_CANON)
                        + 0.05 * np.random.default_rng(5).standard_normal((6, 6))),
                id="g21-w2-nudged"),
        ],
    )
    def test_starts_do_not_interact(self, alg, w, X0):
        args = _probe_args(alg, w)
        jacobian = solver._LinearJacobian(*args)
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
        jacobian = solver._LinearJacobian(*args)
        X0 = _starts(3, 6, first=np.full((6, 6), bad))
        with_bad = _converged(X0, args, jacobian)
        assert not with_bad[0]
        assert with_bad[1:] == _converged(X0[1:], args, jacobian)

    def test_first_in_order_stops_once_the_answer_is_known(self):
        taken = []

        def retired():
            for row in (2, 0, 3, 1, 4):
                taken.append(row)
                yield row, np.zeros((6, 6)), 0.0

        # row 1 is the first accepted, known once rows 0 and 1 have retired
        found = solver._first_in_order(retired(), lambda X, norm: len(taken) >= 3)
        assert found[0] == 1 and taken == [2, 0, 3, 1]
        assert solver._first_in_order(retired(), lambda X, norm: False) is None


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

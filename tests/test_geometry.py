import random
import pytest
from dataclasses import replace
from fractions import Fraction

from nilkaehler import catalog, linalg
from nilkaehler.geometry import (
    associated_metric,
    christoffel,
    covariant_derivative,
    curvature,
    curvature_norm,
    curvature_report,
    first_bianchi_holds,
    full_curvature,
    is_metric_connection,
    is_torsion_free,
    lower_curvature,
    metric_from_matrix,
    pair_symmetric,
    nonzero_down_components,
    nonzero_up_components,
    ricci,
    signature,
    type246_structure_check,
)
from nilkaehler.liealg import LieAlgebra, Vector
from nilkaehler.scalar import ZERO, ParamBinding, Scalar, as_scalar, parse_expr
from nilkaehler.tensors import Endomorphism, TwoForm, is_compatible

G21 = LieAlgebra.from_terms(6, [(1, 2, 4, 1), (1, 4, 6, 1), (2, 3, 6, 1)])
G16 = LieAlgebra.from_terms(6, [(1, 3, 5, 1), (1, 4, 6, 1), (2, 3, 6, -1), (2, 4, 5, 1)])
G13 = LieAlgebra.from_terms(6, [(1, 2, 4, 1), (1, 3, 5, 1), (1, 4, 6, 1), (2, 3, 6, -1)])
ABELIAN = LieAlgebra(6, {})

W2_G21 = TwoForm.from_terms(6, [(1, 6, 1), (2, 5, 1), (3, 4, -1)])
W2_G16 = TwoForm.from_terms(6, [(1, 6, 1), (2, 5, 1), (3, 4, -1)])
W_STD = TwoForm.from_terms(6, [(1, 2, 1), (3, 4, 1), (5, 6, 1)])

# two-parameter family of compatible complex structures on (g21, omega2)
J21_FAMILY = Endomorphism([
    ["psi11", "-(psi11^2+1)/psi12", "0", "0", "0", "0"],
    ["psi12", "-psi11", "0", "0", "0", "0"],
    ["0", "0", "psi11", "(psi11^2+1)/psi12", "0", "0"],
    ["0", "0", "-psi12", "-psi11", "0", "0"],
    ["0", "0", "0", "0", "psi11", "(psi11^2+1)/psi12"],
    ["0", "0", "0", "0", "-psi12", "-psi11"],
])
CANON_21 = ParamBinding({"psi11": 0, "psi12": -1})
J21_A1 = J21_FAMILY.substitute(CANON_21)

J0_G16 = Endomorphism([
    [0, -1, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0],
    [0, 0, -1, 0, 0, 0],
    [0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, -1, 0],
])

J_STD = Endomorphism([
    [0, 1, 0, 0, 0, 0],
    [-1, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0],
    [0, 0, -1, 0, 0, 0],
    [0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, -1, 0],
])


def sc(text):
    return parse_expr(str(text))


class TestAssociatedMetric:
    def test_g21_family_matches_known_matrix(self):
        m = associated_metric(W2_G21, J21_FAMILY)
        expected_upper = {
            (0, 4): "(psi11^2+1)/psi12",
            (0, 5): "-psi11",
            (1, 4): "psi11",
            (1, 5): "-psi12",
            (2, 2): "-(psi11^2+1)/psi12",
            (2, 3): "psi11",
            (3, 3): "-psi12",
        }
        for i in range(6):
            for j in range(i, 6):
                assert m.g[i][j] == sc(expected_upper.get((i, j), "0")), (i, j)

    def test_inverse_is_exact(self):
        m = associated_metric(W2_G21, J21_FAMILY)
        assert linalg.mat_mul(m.g, m.g_inv) == linalg.identity(6)

    def test_g16_j0(self):
        m = associated_metric(W2_G16, J0_G16)
        expected = {(0, 4): 1, (4, 0): 1, (1, 5): -1, (5, 1): -1, (2, 2): -1, (3, 3): -1}
        for i in range(6):
            for j in range(6):
                assert m.g[i][j] == as_scalar(expected.get((i, j), 0))

    def test_abelian_standard_pair_is_euclidean(self):
        m = associated_metric(W_STD, J_STD)
        assert m.g == linalg.identity(6)

    def test_incompatible_pair_rejected(self):
        w1 = TwoForm.from_terms(6, [(1, 6, 1), (2, 5, -1), (3, 4, 1)])
        assert not is_compatible(w1, J0_G16)
        with pytest.raises(ValueError, match="not compatible"):
            associated_metric(w1, J0_G16)

    @pytest.mark.parametrize(
        "name,sid",
        [(n, s.id) for n in catalog.NAMES for s in catalog.get(n).structures],
    )
    def test_closed_form_inverse_matches_elimination(self, name, sid):
        # linalg.invert on g is the independent oracle for -J^T omega^-1;
        # on g14 J1 it takes about 50 s symbolically, so g14 J1 is compared
        # at its canonical binding, and there also against the bound symbolic inverse
        entry = catalog.get(name)
        s = entry.structure(sid)
        w, J = entry.form(s.form_id).form, s.J
        m = associated_metric(w, J)
        if (name, sid) == ("g14", "J1"):
            b = s.binding()
            bound = [[x.substitute(b) for x in row] for row in m.g_inv]
            m = associated_metric(w.substitute(b), J.substitute(b))
            assert m.g_inv == linalg.as_matrix(bound)
        assert m.g_inv == linalg.invert(m.g)

    def test_not_almost_complex_raises(self):
        # omega (2J)^T = 2I is compatible, symmetric and invertible, but
        # (2J)^2 = -4I: the guard refuses instead of falling back
        two_j = Endomorphism([[2 * x for x in row] for row in J_STD.rows])
        assert associated_metric(W_STD, J_STD).g == linalg.identity(6)
        with pytest.raises(ValueError, match="not almost complex"):
            associated_metric(W_STD, two_j)

    def test_degenerate_form_named(self):
        w = TwoForm.from_terms(6, [(1, 2, 1), (3, 4, 1)])
        with pytest.raises(ValueError, match=r"TwoForm\(e1\^e2 \+ e3\^e4\) is degenerate"):
            associated_metric(w, J_STD)

    def test_metric_from_matrix_validates(self):
        with pytest.raises(ValueError, match="symmetric"):
            metric_from_matrix([[0, 1], [0, 0]])
        with pytest.raises(ValueError):
            metric_from_matrix([[1, 0], [0, 0]])


class TestChristoffel:
    def test_abelian_connection_vanishes(self):
        m = associated_metric(W_STD, J_STD)
        assert christoffel(ABELIAN, m) == {}

    def test_g21_frozen_table(self):
        # canonical structure at psi11=0, psi12=-1; all six nonzero entries
        m = associated_metric(W2_G21, J21_A1)
        gamma = christoffel(G21, m)
        expected = {
            (1, 0, 3): -1,
            (1, 1, 2): -1,
            (1, 2, 5): 1,
            (1, 3, 4): -1,
            (3, 0, 5): -1,
            (3, 1, 4): -1,
        }
        assert set(gamma) == set(expected)
        for key, value in expected.items():
            assert gamma[key] == as_scalar(value)

    def test_center_rows_vanish(self):
        # nabla_X Y = 0 when X, Y lie in the center (e5, e6 here)
        m = associated_metric(W2_G21, J21_FAMILY)
        gamma = christoffel(G21, m)
        assert not any(i in (4, 5) and j in (4, 5) for i, j, _ in gamma)

    def test_torsion_free_symbolically(self):
        m = associated_metric(W2_G21, J21_FAMILY)
        assert is_torsion_free(G21, christoffel(G21, m))

    def test_metric_parallel_symbolically(self):
        m = associated_metric(W2_G21, J21_FAMILY)
        assert is_metric_connection(christoffel(G21, m), m)

    def test_covariant_derivative_bilinear(self):
        m = associated_metric(W2_G21, J21_A1)
        gamma = christoffel(G21, m)
        e1 = G21.basis_vector(0)
        e2 = G21.basis_vector(1)
        lhs = covariant_derivative(gamma, e1 + e2, e2)
        rhs = covariant_derivative(gamma, e1, e2) + covariant_derivative(gamma, e2, e2)
        assert tuple(lhs) == tuple(rhs)
        # nabla_X Y - nabla_Y X = [X, Y] fixes which argument is X
        assert covariant_derivative(gamma, e2, e1) == G21.basis_vector(3).scale(-1)


class TestCurvature:
    def test_g21_family_up_components(self):
        m = associated_metric(W2_G21, J21_FAMILY)
        curv = curvature(G21, christoffel(G21, m), m)
        expected = {
            (0, 1, 0, 5): "psi11^2+1",
            (0, 1, 1, 5): "psi12*psi11",
            (0, 1, 0, 4): "psi12*psi11",
            (0, 1, 1, 4): "psi12^2",
        }
        got = {idx: v for idx, v in nonzero_up_components(curv)}
        assert set(got) == set(expected)
        for idx, text in expected.items():
            assert got[idx] == sc(text)
        # the other half of the antisymmetry
        assert curv.up_component(1, 0, 0, 5) == -sc("psi11^2+1")

    def test_g21_lowered_single_component(self):
        m = associated_metric(W2_G21, J21_FAMILY)
        curv = curvature(G21, christoffel(G21, m), m)
        got = {idx: v for idx, v in nonzero_down_components(curv)}
        assert set(got) == {(0, 1, 0, 1)}
        assert got[(0, 1, 0, 1)] == sc("-psi12")
        assert curv.down_component(0, 1, 1, 0) == sc("psi12")

    def test_g21_ricci_and_norm_vanish(self):
        m = associated_metric(W2_G21, J21_FAMILY)
        curv = curvature(G21, christoffel(G21, m), m)
        assert linalg.is_zero_matrix(curv.ricci)
        assert curv.norm.is_zero()

    def test_g21_bianchi_and_pair_symmetry(self):
        m = associated_metric(W2_G21, J21_FAMILY)
        curv = curvature(G21, christoffel(G21, m), m)
        assert first_bianchi_holds(curv)
        assert pair_symmetric(curv)

    def test_abelian_flat(self):
        m = associated_metric(W_STD, J_STD)
        curv = curvature(ABELIAN, christoffel(ABELIAN, m), m)
        assert curv.is_flat()

    def test_g16_j0_components(self):
        m, _, curv = full_curvature(G16, W2_G16, J0_G16)
        got = {idx: v for idx, v in nonzero_up_components(curv)}
        assert got == {
            (0, 1, 0, 5): as_scalar(1),
            (0, 1, 1, 4): as_scalar(1),
        }
        down = {idx: v for idx, v in nonzero_down_components(curv)}
        assert down == {(0, 1, 0, 1): as_scalar(-1)}
        assert linalg.is_zero_matrix(curv.ricci)
        assert curv.norm.is_zero()

    def test_identity_metric_control_has_nonzero_ricci(self):
        # no compatible pair produces a definite metric on a nonabelian
        # nilpotent algebra, so this must escape the Ricci-flat family
        m = metric_from_matrix(linalg.identity(6))
        ric = curvature(G21, christoffel(G21, m), m).ricci
        assert not linalg.is_zero_matrix(ric)
        assert ric[0][0] == as_scalar(-1)
        assert ric[2][2] == as_scalar("-1/2")
        assert ric[5][5] == as_scalar(1)

    def test_full_curvature_fills_everything(self):
        m, _, curv = full_curvature(G21, W2_G21, J21_FAMILY)
        assert curv.down == lower_curvature(curv.up, m)
        assert curv.ricci == ricci(curv.up, m.dim)
        assert curv.norm == curvature_norm(curv.down, m)
        assert curv.norm.is_zero()

    def test_contracting_r_matches_components(self):
        _, _, curv = full_curvature(G21, W2_G21, J21_FAMILY)
        e1, e2 = G21.basis_vector(0).components, G21.basis_vector(1).components
        # R(e1, e2)e1, one slot at a time
        v = linalg.contract(linalg.contract(linalg.contract(curv.up, 0, e1), 0, e2), 0, e1)
        assert v == {(4,): sc("psi12*psi11"), (5,): sc("psi11^2+1")}
        # first argument from the center kills everything
        assert linalg.contract(curv.up, 0, G21.basis_vector(4).components) == {}


class TestInvariantChecksCatchOneEntry:
    """On g21 J1 each invariant check holds, and fails after one entry changes."""

    def test_torsion_and_metric_connection(self, curvatures):
        metric, gamma, _ = curvatures["g21", "J1"]
        alg = catalog.get("g21").algebra
        assert is_torsion_free(alg, gamma) and is_metric_connection(gamma, metric)
        key = next(k for k in gamma if k[0] != k[1])
        bad = {**gamma, key: gamma[key] + 1}
        assert not is_torsion_free(alg, bad)
        assert not is_metric_connection(bad, metric)

    def test_first_bianchi(self, curvatures):
        _, _, curv = curvatures["g21", "J1"]
        assert first_bianchi_holds(curv)
        up = {**curv.up,
              (0, 1, 2, 3): curv.up_component(0, 1, 2, 3) + 1,
              (1, 0, 2, 3): curv.up_component(1, 0, 2, 3) - 1}
        assert not first_bianchi_holds(replace(curv, up=up))

    def test_pair_symmetry(self, curvatures):
        _, _, curv = curvatures["g21", "J1"]
        assert pair_symmetric(curv)

        def without(key):
            return replace(curv, down={k: v for k, v in curv.down.items() if k != key})

        assert not pair_symmetric(without((0, 1, 1, 0)))  # its pair (1, 0, 0, 1) stays
        assert pair_symmetric(without((0, 1, 0, 1)))  # its own pair


class TestSignature:
    def test_euclidean(self):
        assert signature(linalg.identity(6)) == (6, 0)

    def test_g21_canonical(self):
        m = associated_metric(W2_G21, J21_FAMILY)
        pos, neg = signature(m, {"psi11": 0, "psi12": -1})
        assert (pos, neg) == (4, 2)
        assert pos > 0 and neg > 0

    def test_g16_j0_indefinite(self):
        m = associated_metric(W2_G16, J0_G16)
        pos, neg = signature(m)
        assert (pos, neg) == (2, 4)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            signature(linalg.as_matrix([[1, 0], [0, 0]]))

    def test_float_binding_rejected(self):
        m = associated_metric(W2_G21, J21_FAMILY)
        with pytest.raises(TypeError, match="exact rational"):
            signature(m, {"psi11": 0.5, "psi12": -1})

    def test_g12_j3_sqrt2_metric(self):
        entry = catalog.get("g12")
        fam = entry.structure("J3")
        m = associated_metric(entry.form(fam.form_id).form, fam.J)
        bound = [x.substitute(fam.binding()) for row in m.g for x in row]
        assert not all(x.is_constant() for x in bound)  # sqrt(2) remains
        assert signature(m, fam.binding()) == (4, 2)

    def test_unbound_parameters_rejected(self):
        m = associated_metric(W2_G21, J21_FAMILY)
        with pytest.raises(ValueError):
            signature(m, {"psi11": 0})


SPLIT_STD = (
    [Vector.of([1, 0, 0, 0, 0, 0]), Vector.of([0, 1, 0, 0, 0, 0])],
    [Vector.of([0, 0, 1, 0, 0, 0]), Vector.of([0, 0, 0, 1, 0, 0])],
    [Vector.of([0, 0, 0, 0, 1, 0]), Vector.of([0, 0, 0, 0, 0, 1])],
)


class TestSplitCheck:
    def test_g21_canonical_split_passes(self):
        report = type246_structure_check(G21, W2_G21, J21_FAMILY, SPLIT_STD)
        assert report.ok(), report.failures()

    def test_abelian_conclusions_vacuous(self):
        report = type246_structure_check(ABELIAN, W_STD, J_STD, SPLIT_STD)
        assert report.conclusions_ok()
        assert not report.hypotheses_ok()
        assert "algebra_type_is_2_4_6" in report.failures()

    def test_g13_first_case_canonical(self):
        w1 = TwoForm.from_terms(
            6, [(1, 6, "1"), (2, 5, "-lambda"), (3, 4, "-(lambda-1)")]
        )
        j1 = Endomorphism([
            ["psi11", "-(1+psi11^2)/((1+lambda)*psi12)", "0", "0", "0", "0"],
            ["(1+lambda)*psi12", "-psi11", "0", "0", "0", "0"],
            ["0", "0", "psi11", "-(1+psi11^2)/psi12", "0", "0"],
            ["0", "0", "psi12", "-psi11", "0", "0"],
            ["0", "0", "0", "0", "psi11", "-lambda*(1+psi11^2)/((1+lambda)*psi12)"],
            ["0", "0", "0", "0", "(1+lambda)*psi12/lambda", "-psi11"],
        ])
        binding = ParamBinding({"psi11": 0, "psi12": 1, "lambda": 2})
        report = type246_structure_check(
            G13, w1.substitute(binding), j1.substitute(binding), SPLIT_STD
        )
        assert report.ok(), report.failures()

    def test_report_shape(self):
        report = type246_structure_check(G21, W2_G21, J21_A1, SPLIT_STD)
        d = report.as_dict()
        assert d["ok"] is True
        assert set(d) == {"hypotheses", "conclusions", "ok"}
        assert all(isinstance(v, bool) for v in d["hypotheses"].values())


class TestReport:
    def test_g21_report(self):
        _, _, curv = full_curvature(G21, W2_G21, J21_FAMILY)
        report = curvature_report(curv)
        assert report["ricci_zero"] is True
        assert report["norm"] == "0"
        down_idx = [entry["idx"] for entry in report["nonzero_down"]]
        assert down_idx == [[1, 2, 1, 2]]
        assert sc(report["nonzero_down"][0]["value"]) == sc("-psi12")
        up_idx = {tuple(entry["idx"]) for entry in report["nonzero_up"]}
        assert up_idx == {(1, 2, 1, 5), (1, 2, 1, 6), (1, 2, 2, 5), (1, 2, 2, 6)}

    def test_report_is_json_serializable(self):
        import json

        _, _, curv = full_curvature(G16, W2_G16, J0_G16)
        text = json.dumps(curvature_report(curv))
        assert "nonzero_up" in text


FAMILIES = [(n, s.id) for n in catalog.NAMES for s in catalog.get(n).structures]


def _bind(value, binding):
    # substitute into a Scalar, into nested tuples of them, or into the
    # nonzero components of a sparse tensor (dropping those that vanish)
    if isinstance(value, Scalar):
        return value.substitute(binding)
    if isinstance(value, dict):
        bound = {idx: v.substitute(binding) for idx, v in value.items()}
        return {idx: v for idx, v in bound.items() if not v.is_zero()}
    return tuple(_bind(v, binding) for v in value)


def _admissible_binding(rng, params, conditions):
    # a rational binding under which no stored side condition vanishes
    while True:
        binding = ParamBinding(
            {p: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for p in params})
        if not any(c.substitute(binding).is_zero() for c in conditions):
            return binding


class TestBindingCommutesWithThePipeline:
    """Binding the parameters of a family before the pipeline or after it
    gives the same g^-1, Christoffel symbols, curvature, Ricci and norm."""

    @pytest.mark.parametrize("name,sid", FAMILIES)
    def test_bind_then_compute_equals_compute_then_bind(self, curvatures, name, sid):
        entry = catalog.get(name)
        s = entry.structure(sid)
        f = entry.form(s.form_id)
        conditions = [parse_expr(c) for c in s.side_conditions + f.side_conditions]
        params = sorted(s.J.free_params() | f.form.free_params())
        seeded = _admissible_binding(random.Random(f"{name}/{sid}"), params, conditions)
        metric, gamma, curv = curvatures[name, sid]
        for tensor in (gamma, curv.up, curv.down):
            assert not any(v.is_zero() for v in tensor.values())
            assert all(t in range(6) for idx in tensor for t in idx)
        assert all(curv.up_component(j, i, k, t) == -v for (i, j, k, t), v in curv.up.items())
        for binding in (s.binding(), seeded):
            bound_metric, bound_gamma, bound_curv = full_curvature(
                entry.algebra, f.form.substitute(binding), s.J.substitute(binding))
            assert bound_metric.g_inv == _bind(metric.g_inv, binding)
            assert bound_gamma == _bind(gamma, binding)
            assert bound_curv.up == _bind(curv.up, binding)
            assert bound_curv.down == _bind(curv.down, binding)
            assert bound_curv.ricci == _bind(curv.ricci, binding)
            assert bound_curv.norm == curv.norm.substitute(binding)
            g, g_inv = bound_metric.g, bound_metric.g_inv
            assert linalg.mat_mul(g, g_inv) == linalg.identity(bound_metric.dim)


# two splits that span g but mix the levels: in the first, B lies in
# span(e3..e6) and Z does not, and e5 is in B + Z but not in Z; in the
# second, Z lies in span(e3..e6) and B does not
SPLITS_SHEARED = (
    ([Vector.of([1, 0, 1, 0, 0, 0]), Vector.of([0, 1, 0, 0, -1, 0])],
     [Vector.of([0, 0, 1, 0, 0, 1]), Vector.of([0, 0, 0, 0, 1, 0])],
     [Vector.of([1, 0, 0, 1, 0, 0]), Vector.of([0, 0, 0, 0, 0, 1])]),
    ([Vector.of([1, 0, 1, 0, 0, 0]), Vector.of([0, 1, 0, 0, -1, 0])],
     [Vector.of([0, 0, 1, 0, 0, 1]), Vector.of([1, 0, 0, 1, 0, 0])],
     [Vector.of([0, 0, 0, 1, 1, 0]), Vector.of([0, 0, 0, 0, 0, 1])]),
)


def _evaluate(tensor, *vectors):
    """Gamma(X, Y) or R(X, Y)Z by multilinear extension of the stored components."""
    out = [ZERO] * vectors[0].dim
    for idx, v in tensor.items():
        coords = [u.components[i] for u, i in zip(vectors, idx)]
        if not any(c.is_zero() for c in coords):
            for c in coords:
                v = c * v
            out[idx[-1]] = out[idx[-1]] + v
    return Vector(tuple(out))


def _pointwise_conclusions(alg, w, J, split):
    """The conclusions of ``type246_structure_check`` by evaluating nabla on
    pairs and R on triples of split and basis vectors: the reference for its
    contractions."""
    a, b, z = (tuple(part) for part in split)
    bz, everything = b + z, a + b + z
    bz_span, z_span = linalg.span(bz), linalg.span(z)
    _, gamma, curv = full_curvature(alg, w, J)
    basis = [alg.basis_vector(i) for i in range(alg.dim)]

    def nabla(x, y):
        return _evaluate(gamma, x, y)

    def R(x, y, t):
        return _evaluate(curv.up, x, y, t)

    return {
        "nabla_a_a_in_b_plus_z": all(bz_span.contains(nabla(x, y)) for x in a for y in a),
        "nabla_a_b_in_z": all(z_span.contains(nabla(x, y)) and z_span.contains(nabla(y, x))
                              for x in a for y in b),
        "nabla_a_z_vanishes": all(nabla(x, y).is_zero() and nabla(y, x).is_zero()
                                  for x in a for y in z),
        "nabla_flat_on_b_plus_z": all(nabla(x, y).is_zero() for x in bz for y in bz),
        "curvature_kills_b_plus_z": all(R(x, u, v).is_zero() and R(u, v, x).is_zero()
                                        for x in bz for u in basis for v in basis),
        "curvature_values_in_z": all(z_span.contains(R(x, y, t))
                                     for x in everything for y in everything for t in everything),
    }


TYPE246_FAMILIES = [(name, sid) for name, sid in FAMILIES
                    if catalog.get(name).algebra_type == (2, 4, 6)]


@pytest.mark.parametrize("name,sid", TYPE246_FAMILIES)
def test_split_check_matches_pointwise_evaluation(name, sid):
    entry = catalog.get(name)
    s = entry.structure(sid)
    f = entry.form(s.form_id)
    conditions = [parse_expr(c) for c in s.side_conditions + f.side_conditions]
    params = sorted(s.J.free_params() | f.form.free_params())
    seeded = _admissible_binding(random.Random(f"split/{name}/{sid}"), params, conditions)
    # the Euclidean pair is no pseudo-Kahler structure: R is far from sparse
    for w, J in [(f.form, s.J), (f.form.substitute(seeded), s.J.substitute(seeded)),
                 (W_STD, J_STD)]:
        for split in (SPLIT_STD, *SPLITS_SHEARED):
            got = type246_structure_check(entry.algebra, w, J, split).as_dict()
            assert got["hypotheses"]["split_is_a_basis"]
            conclusions = _pointwise_conclusions(entry.algebra, w, J, split)
            ok = all(got["hypotheses"].values()) and all(conclusions.values())
            assert got == {"hypotheses": got["hypotheses"], "conclusions": conclusions, "ok": ok}

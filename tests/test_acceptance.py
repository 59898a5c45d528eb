"""Acceptance gate: nine numbered checks over the whole catalog.

Each test prints one summary line. The regression values in REGRESSIONS are
frozen here on purpose: they must stay equal to what the geometry pipeline
computes from the stored families, independently of the expectations
stored in the catalog. The same holds for CLOSURE_DEFECTS: the two stored forms
that are not closed (g16 w2, g23 w3) are asserted by the exact value of their
exterior derivative, so every check passes while the recorded defects stay
exactly as narrow as they are.
"""

import time
from fractions import Fraction

import numpy as np

from nilkaehler import catalog, geometry, linalg, solver, tensors
from nilkaehler.liealg import Vector
from nilkaehler.scalar import ONE, ParamBinding, parse_expr
from nilkaehler.tensors import TwoForm


def _line(label, failures):
    status = "pass" if not failures else "FAIL"
    msg = f"{label}: {status}"
    if failures:
        msg += " [" + "; ".join(failures) + "]"
    print(msg)
    return msg


def _bound_form(entry, structure):
    """The structure's form with any form-level parameters canonically bound."""
    w = entry.form(structure.form_id).form
    params = w.free_params()
    if params:
        b = structure.binding()
        w = w.substitute(ParamBinding({k: b[k] for k in params}))
    return w


# -- frozen curvature targets -------------------------------------------------

REGRESSIONS = {
    ("g10", "J1"): {
        (1, 2, 1, 2):
            "(psi11^4 + 4*psi11^3*psi12 + 3*psi11^2*psi12^2 - 2*psi11*psi12^3"
            " - 2*psi12^4 + 2*psi11^2 + 4*psi11*psi12 + 3*psi12^2 + 1)"
            "/(psi11^2*psi12 + 2*psi11*psi12^2 + 2*psi12^3 + psi12)",
    },
    ("g11", "J1"): {
        (1, 2, 1, 2):
            "(-lambda^2*psi11^2 + 5*lambda*psi11*psi12 - lambda^2 - 4*psi12^2)"
            "/(lambda*psi12)",
    },
    ("g12", "J1"): {
        (1, 2, 1, 2):
            "(lambda^3*psi12^2 + 3*lambda^2*psi12^2 - 3*lambda - 1)"
            "/(lambda^2*psi12 - psi12)",
    },
    ("g12", "J2"): {
        (1, 2, 1, 2): "(-lambda^2 - 4*lambda - 1)/(lambda + 1)",
    },
    ("g12", "J3"): {
        (1, 2, 1, 2):
            "(lambda^4*s + 4*lambda^3*s - 2*lambda^2*s + 4*lambda*s + s)"
            "/(lambda^3 - lambda^2 - lambda + 1)",
    },
    ("g13", "J1"): {
        (1, 2, 1, 2): "-(3*lambda - 1)*psi12/(lambda - 1)",
    },
    ("g13", "J3"): {
        (1, 2, 1, 2): "2*psi12/3",
    },
    ("g15", "J1"): {
        (1, 2, 1, 2):
            "(-psi11^4 - psi11^3*psi12 + 2*psi11^2*psi12^2 - 2*psi11^2"
            " - psi11*psi12 - 1)/(psi11^2*psi12 - 2*psi11*psi12^2 + psi12)",
    },
    ("g16", "J1"): {
        (1, 2, 1, 2): "(1 + psi11^2 + psi12^2)/psi12",
    },
    ("g16", "J2"): {
        (1, 2, 1, 2): "psi34",  # sign(psi12)*psi34 at psi12 = 1
    },
    ("g17", "J1"): {
        (1, 2, 1, 2): "-psi12",
    },
    ("g18", "J1"): {
        (1, 2, 1, 2): "2*psi34",
    },
    ("g18", "J2"): {
        (1, 2, 1, 2): "2*lambda*psi34",
    },
    ("g18", "J3"): {
        (1, 2, 1, 2): "18*psi25",
        (1, 2, 1, 3): "6*psi25",
        (1, 3, 1, 2): "6*psi25",
        (1, 3, 1, 3): "2*psi25",
    },
    ("g21", "J1"): {
        (1, 2, 1, 2): "-psi12",
    },
    ("g23", "J1"): {
        (1, 2, 1, 2): "-psi34",
    },
    ("g24", "J1"): {
        (1, 2, 1, 2): "psi11",
    },
}

FLAT = {("g14", "J1"), ("g25", "J1")}

# Exact dw of the stored forms that are not closed (see "Known data defects"
# in the README), 1-based like REGRESSIONS. Every other stored form is closed.
# With dw(X,Y,Z) = w([X,Y],Z) - w([X,Z],Y) + w([Y,Z],X):
#   g16 w2 = e16 + e25 - e34, [e1,e3] = e5, [e2,e3] = -e6:
#     dw(e1,e2,e3) = -w(e5,e2) + w(-e6,e1) = w25 + w16 = 2
#   g23 w3 = e16 + e25 + e34, [e1,e3] = -e5, [e2,e3] = e6:
#     dw(e1,e2,e3) = -w(-e5,e2) + w(e6,e1) = -w25 - w16 = -2
CLOSURE_DEFECTS = {
    ("g16", "w2"): {(1, 2, 3): "2"},
    ("g23", "w3"): {(1, 2, 3): "-2"},
}

SPLIT_STD = (
    [Vector.of([1, 0, 0, 0, 0, 0]), Vector.of([0, 1, 0, 0, 0, 0])],
    [Vector.of([0, 0, 1, 0, 0, 0]), Vector.of([0, 0, 0, 1, 0, 0])],
    [Vector.of([0, 0, 0, 0, 1, 0]), Vector.of([0, 0, 0, 0, 0, 1])],
)


def test_1_curvature_regressions(curvatures):
    failures = []
    seen = set()
    for (name, sid), (_, _, curv) in curvatures.items():
        seen.add((name, sid))
        if (name, sid) in FLAT:
            if curv.up:
                failures.append(f"{name} {sid} expected R == 0")
            continue
        want = REGRESSIONS.get((name, sid))
        if want is None:
            failures.append(f"{name} {sid} has no frozen regression")
            continue
        got = {
            tuple(i + 1 for i in idx): value
            for idx, value in geometry.nonzero_down_components(curv)
        }
        if set(got) != set(want):
            failures.append(
                f"{name} {sid} indices {sorted(got)} != {sorted(want)}"
            )
            continue
        for idx, txt in want.items():
            if not (got[idx] - parse_expr(txt)).is_zero():
                failures.append(f"{name} {sid} R_{idx} = {got[idx]} != {txt}")
    missing = (set(REGRESSIONS) | FLAT) - seen
    if missing:
        failures.append(f"catalog lost structures: {sorted(missing)}")
    assert not failures, _line("1 curvature regressions", failures)
    _line("1 curvature regressions", failures)


def test_2_ricci_flat_with_mutation_control(curvatures):
    failures = []
    for (name, sid), (_, _, curv) in curvatures.items():
        if not linalg.is_zero_matrix(curv.ricci):
            failures.append(f"{name} {sid} ricci != 0")

    # control: breaking compatibility must break Ricci-flatness
    entry = catalog.get("g21")
    s = entry.structure("J1")
    metric, _, _ = curvatures["g21", "J1"]
    b = s.binding()
    rows = [[metric.g[i][j].substitute(b) for j in range(6)] for i in range(6)]
    rows[2][5] = rows[2][5] + ONE
    rows[5][2] = rows[5][2] + ONE
    g = linalg.as_matrix(rows)
    perturbed = geometry.Metric(g=g, g_inv=linalg.invert(g))
    gamma = geometry.christoffel(entry.algebra, perturbed)
    curv = geometry.curvature(entry.algebra, gamma, perturbed)
    if linalg.is_zero_matrix(curv.ricci):
        failures.append("mutation control: perturbed metric stayed Ricci-flat")

    assert not failures, _line("2 ricci flatness", failures)
    _line("2 ricci flatness", failures)


def test_3_zero_curvature_norm(curvatures):
    failures = []
    for (name, sid), (_, _, curv) in curvatures.items():
        if not curv.norm.is_zero():
            failures.append(f"{name} {sid} |R| != 0")
    assert not failures, _line("3 zero norm", failures)
    _line("3 zero norm", failures)


def test_4_structure_verification():
    failures = []
    for name in catalog.NAMES:
        entry = catalog.get(name)
        for s in entry.structures:
            w = entry.form(s.form_id).form
            report = solver.verify_family(entry.algebra, w, s.J, s.side_conditions)
            if not report.ok:
                failures.append(f"{name} {s.id}: {', '.join(report.failures)}")

    # control: the g16 rigid J (psi34 = -1 member) is not compatible with w1
    g16 = catalog.get("g16")
    j0 = g16.structure("J2").J.substitute(ParamBinding({"psi34": Fraction(-1)}))
    report = solver.verify_family(g16.algebra, g16.form("w1").form, j0, ())
    if report.ok or "compatibility" not in report.failures:
        failures.append("control: g16 w1 vs rigid J should fail compatibility")

    assert not failures, _line("4 structure verification", failures)
    _line("4 structure verification", failures)


def _three_form_text(components):
    """'{e1^e2^e3: 2}' for {(i, j, k): value} on 1-based triples."""
    return "{" + ", ".join(
        f"e{i}^e{j}^e{k}: {v}" for (i, j, k), v in sorted(components.items())
    ) + "}"


def _verdicts(report):
    """{'g21: J1 torsion free': True, ...} for every check of a self_validate report."""
    return {f"{e.name}: {label}": passed for e in report.entries for label, passed in e.checks}


def test_5_invariants_suite(curvatures, full_validation):
    failures = []
    defects = {}
    verdicts = _verdicts(full_validation)

    for name in catalog.NAMES:
        entry = catalog.get(name)
        labels = ["jacobi", "nilpotent"]
        for f in entry.forms:
            labels += [f"{f.id} nondegenerate", f"{f.id} omega(C1, Z) = 0"]
            want = CLOSURE_DEFECTS.get((name, f.id))
            if want is None:
                labels.append(f"{f.id} closed")
                continue
            dw = tensors.exterior_d(entry.algebra, f.form)
            got = {
                tuple(i + 1 for i in t): v
                for t, v in dw.items()
                if t[0] < t[1] < t[2]
            }
            defects[name, f.id] = f"{name} {f.id} dw = {_three_form_text(got)}"
            if set(got) != set(want) or any(
                not (got[t] - parse_expr(txt)).is_zero() for t, txt in want.items()
            ):
                failures.append(
                    f"dw: {name} {f.id} = {_three_form_text(got)},"
                    f" recorded {_three_form_text(want)}"
                )
            if verdicts.get(f"{name}: {f.id} closed") is not False:
                failures.append(f"{name}: {f.id} closed is not reported failed")
        for s in entry.structures:
            labels += [f"{s.id} torsion free", f"{s.id} first bianchi", f"{s.id} pair symmetric"]
        # a label that is missing fails as one that is false
        failures += [f"{name}: {label}" for label in labels
                     if not verdicts.get(f"{name}: {label}")]

        for s in entry.structures:
            metric, gamma, _ = curvatures[name, s.id]
            if not geometry.is_metric_connection(gamma, metric):
                failures.append(f"nabla g: {name} {s.id}")
            if entry.algebra_type == (2, 4, 6):
                w = entry.form(s.form_id).form
                report = geometry.type246_structure_check(entry.algebra, w, s.J, SPLIT_STD)
                if not report.ok():
                    failures.append(f"type246: {name} {s.id} {report.failures()}")

    missing = set(CLOSURE_DEFECTS) - set(defects)
    if missing:
        failures.append(f"catalog lost recorded defect forms: {sorted(missing)}")

    # The two stored forms that are not closed are held to their exact dw
    # above, not by a red test; the summary line still names both of them.
    msg = _line(
        "5 invariants suite (recorded closure defects: " + "; ".join(defects.values()) + ")",
        failures,
    )
    assert not failures, msg


def test_6_parameter_independence(curvatures):
    failures = []

    _, _, curv14 = curvatures["g14", "J1"]
    j14 = catalog.get("g14").structure("J1").J
    params = set()
    for row in j14.rows:
        for c in row:
            params |= c.free_params()
    if params != {"psi11", "psi12", "psi41", "psi42", "psi51", "psi61"}:
        failures.append(f"g14 family parameters drifted: {sorted(params)}")
    if curv14.up:
        failures.append("g14 J1 curvature not identically zero")

    _, _, curv12 = curvatures["g12", "J2"]
    names = set()
    for c in list(curv12.up.values()) + list(curv12.down.values()):
        names |= c.free_params()
    if names > {"lambda"}:
        failures.append(f"g12 J2 curvature depends on {sorted(names - {'lambda'})}")

    assert not failures, _line("6 parameter independence", failures)
    _line("6 parameter independence", failures)


def test_7_linear_solver_spans():
    failures = []

    w_std = TwoForm.from_terms(6, [(1, 2, 1), (3, 4, 1), (5, 6, 1)])
    sol = solver.compat_nullspace(w_std)
    if sol.dimension != 21:
        failures.append(f"sp(6) dimension {sol.dimension} != 21")

    for name in catalog.NAMES:
        entry = catalog.get(name)
        for s in entry.structures:
            w = _bound_form(entry, s)
            bound_j = s.J.substitute(s.binding())
            if not solver.compat_nullspace(w).contains(bound_j):
                failures.append(f"{name} {s.id} not in compat span")

    assert not failures, _line("7 linear solver spans", failures)
    _line("7 linear solver spans", failures)


def test_8_numerical_probe():
    t0 = time.monotonic()
    failures = []

    # positives: every stored family, restarted from a nudged canonical point
    k = 0
    for name in catalog.NAMES:
        entry = catalog.get(name)
        for s in entry.structures:
            w = _bound_form(entry, s)
            bound_j = s.J.substitute(s.binding())
            guess = np.array(
                [[c.evaluate({}) for c in row] for row in bound_j.rows]
            )
            rng = np.random.default_rng(100 + k)
            k += 1
            guess = guess + 0.05 * rng.standard_normal((6, 6))
            result = solver.newton_search(
                entry.algebra, w, tolerance=1e-9, max_starts=1,
                seed=0, initial_guess=guess.tolist(),
            )
            if result.status != "converged" or result.residual_norm > 1e-9:
                failures.append(f"positive {name} {s.form_id} {s.id} did not converge")

    # negatives: forms stored with admits_J="no"; none may produce a root
    negative = []
    for name in catalog.NAMES:
        entry = catalog.get(name)
        for f in entry.forms:
            if f.admits_J == "no":
                negative.append((name, f.id))
    if sorted(negative) != [
        ("g13", "w2"), ("g14", "w1"), ("g14", "w2"), ("g15", "w2"),
        ("g21", "w1"), ("g23", "w1"), ("g23", "w2"),
    ]:
        failures.append(f"negative case list drifted: {negative}")
    for name, fid in negative:
        entry = catalog.get(name)
        w = entry.form(fid).form
        if w.free_params():
            w = w.substitute(ParamBinding({"lambda": Fraction(2)}))
        result = solver.newton_search(
            entry.algebra, w, tolerance=1e-9, max_starts=200, seed=7
        )
        if result.status != "failed":
            failures.append(f"negative {name} {fid} unexpectedly converged")

    elapsed = time.monotonic() - t0
    if elapsed >= 60.0:
        failures.append(f"probe took {elapsed:.1f}s (budget 60s)")

    assert not failures, _line("8 numerical probe", failures)
    _line("8 numerical probe", failures)


def test_9_indefinite_signature(full_validation):
    failures = []
    verdicts = _verdicts(full_validation)
    for name in catalog.NAMES:
        for s in catalog.get(name).structures:
            if not verdicts.get(f"{name}: {s.id} indefinite (e_k isotropic)"):
                failures.append(f"{name} {s.id} metric not indefinite")
    assert not failures, _line("9 indefinite signature", failures)
    _line("9 indefinite signature", failures)

import json
import pathlib
import shutil
import time
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from nilkaehler import catalog, geometry, liealg, linalg
from nilkaehler.catalog import (
    CatalogEntry, Expectation, FormEntry, StructureEntry, get, validate_entry)
from nilkaehler.liealg import LieAlgebra, Vector, bracket
from nilkaehler.scalar import ONE, ZERO, ParamBinding, Scalar, parse_expr
from nilkaehler.tensors import Endomorphism, TwoForm
from sympy_oracle import to_sympy


DATA = pathlib.Path(catalog.__file__).parent / "data"

EXPECTED_TYPES = {
    "g10": (2, 4, 6),
    "g11": (2, 4, 6),
    "g12": (2, 4, 6),
    "g13": (2, 4, 6),
    "g14": (2, 4, 6),
    "g15": (2, 4, 6),
    "g16": (2, 6),
    "g17": (2, 6),
    "g18": (3, 6),
    "g21": (2, 4, 6),
    "g23": (3, 6),
    "g24": (2, 6),
    "g25": (4, 6),
}

# forms stored with admits_J="no"; nothing in the catalog references them
NO_J_FORMS = {
    ("g13", "w2"),
    ("g14", "w1"),
    ("g14", "w2"),
    ("g15", "w2"),
    ("g21", "w1"),
    ("g23", "w1"),
    ("g23", "w2"),
}

# parameters the curvature components of each family depend on; the paper
# says at most three
CURVATURE_PARAMS = {
    ("g10", "J1"): 2, ("g11", "J1"): 3, ("g12", "J1"): 2, ("g12", "J2"): 1,
    ("g12", "J3"): 1, ("g13", "J1"): 3, ("g13", "J3"): 2, ("g14", "J1"): 0,
    ("g15", "J1"): 2, ("g16", "J1"): 2, ("g16", "J2"): 1, ("g17", "J1"): 2,
    ("g18", "J1"): 3, ("g18", "J2"): 2, ("g18", "J3"): 2, ("g21", "J1"): 2,
    ("g23", "J1"): 3, ("g24", "J1"): 2, ("g25", "J1"): 0,
}


class TestLoading:
    def test_thirteen_entries(self):
        assert len(catalog.NAMES) == 13
        assert [get(name).name for name in catalog.NAMES] == list(catalog.NAMES)

    def test_algebra_types(self):
        assert {name: get(name).algebra_type for name in catalog.NAMES} == EXPECTED_TYPES

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            get("g00")

    def test_entries_are_cached(self):
        assert get("g21") is get("g21")

    def test_lookup_helpers(self):
        e = get("g13")
        assert e.form("w1").id == "w1"
        assert e.structure("J1").form_id == "w1"
        with pytest.raises(KeyError):
            e.form("w9")
        with pytest.raises(KeyError):
            e.structure("J9")

    def test_notes_present(self):
        for name in catalog.NAMES:
            assert get(name).notes.strip()

    def test_canonical_bindings_parse(self):
        for name in catalog.NAMES:
            for s in get(name).structures:
                assert all(isinstance(v, Fraction) for v in s.binding().values())


class TestMetadata:
    """The derived parameters and side conditions, and the stored bindings,
    agree with J and the form."""

    @pytest.mark.parametrize(
        "name,sid", [(n, s.id) for n in catalog.NAMES for s in get(n).structures])
    def test_family_metadata(self, name, sid):
        entry = get(name)
        s = entry.structure(sid)
        f = entry.form(s.form_id)
        assert s.params == tuple(sorted(s.J.free_params() | f.form.free_params()))
        assert sorted(s.canonical_binding) == list(s.params)
        assert s.side_conditions[:len(f.side_conditions)] == f.side_conditions
        numerators = [parse_expr(cond).primitive_numerator() for cond in s.side_conditions]
        assert len(set(numerators)) == len(numerators)
        for cond in s.side_conditions:
            value = parse_expr(cond)
            assert value.free_params(), cond
            assert not value.substitute(s.canonical_binding).is_zero(), cond

    def test_stored_values_are_canonical_text(self):
        records = [s["expected"] for name in catalog.NAMES
                   for s in json.loads((DATA / f"{name}.json").read_text())["structures"]]
        texts = [c["value"] for rec in records
                 for c in rec["up_components"] + rec["down_components"]]
        texts += [c["value"] for rec in records if "metric" in rec
                  for c in rec["metric"]["entries"]]
        assert len(texts) == 88 + 85
        assert [t for t in texts if str(parse_expr(t)) != t] == []


class TestAdmitsFlags:
    def test_no_forms_carry_no_structure(self):
        for name, fid in sorted(NO_J_FORMS):
            e = get(name)
            assert e.form(fid).admits_J == "no"
            assert all(s.form_id != fid for s in e.structures)

    def test_a_form_admits_J_when_a_structure_rides_on_it(self, tmp_path, monkeypatch):
        _edited_catalog(tmp_path, monkeypatch, "g21", lambda obj: obj.__setitem__(
            "structures", []))
        assert [f.admits_J for f in get("g21").forms] == ["no", "no"]

    def test_yes_forms_carry_a_structure(self):
        for name in catalog.NAMES:
            e = get(name)
            for f in e.forms:
                if f.admits_J == "yes":
                    assert any(s.form_id == f.id for s in e.structures)
                else:
                    assert (name, f.id) in NO_J_FORMS


class TestSelfValidate:
    def test_failure_set_is_exactly_the_two_closure_defects(self, full_validation):
        # the two stored forms whose exterior derivative is nonzero
        assert full_validation.failures() == ["g16: w2 closed", "g23: w3 closed"]
        assert not full_validation.ok

    def test_clean_entry_validates(self):
        report = validate_entry(get("g21"))
        assert report.ok
        assert report.failures() == []

    def test_subset_selection(self):
        report = catalog.self_validate(["g24", "g25"])
        assert report.ok
        assert [e.name for e in report.entries] == ["g24", "g25"]


W_STD = TwoForm.from_terms(6, [(1, 2, 1), (3, 4, 1), (5, 6, 1)])
J_STD = Endomorphism([  # J e1 = e2, J e3 = e4, J e5 = e6
    [0, 1, 0, 0, 0, 0], [-1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0],
    [0, 0, -1, 0, 0, 0], [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, -1, 0],
])
# [e1, e2] = e3, so C1 = <e3>, Z = <e3, ..., e6>, and W_STD pairs e3 with e4
HEISENBERG = LieAlgebra.from_terms(6, [(1, 2, 3, 1)])
# sl(2) + sl(2): C1 is g, and the center is zero
SL2 = [(1, 2, 2, 2), (1, 3, 3, -2), (2, 3, 1, 1)]
SL2_SL2 = LieAlgebra.from_terms(6, SL2 + [(i + 3, j + 3, k + 3, c) for i, j, k, c in SL2])


def _entry(algebra, form, J=None):
    """An unstored entry with the form w1 and, given J, the structure J1 on it,
    expected flat."""
    flat = Expectation(up_components={}, down_components={}, metric=None)
    structures = () if J is None else (
        StructureEntry("J1", "w1", J, (), (), ParamBinding({}), flat),)
    return CatalogEntry("x", algebra, (FormEntry("w1", form, "yes", ()),), structures, "")


def _corrupt_curvature(monkeypatch, corrupt):
    """Make geometry.christoffel and geometry.curvature return the two parts
    of ``corrupt(alg, gamma, curv)``, curv being the curvature of the true gamma."""
    christoffel, curvature = geometry.christoffel, geometry.curvature
    corrupted = []

    def patched_christoffel(alg, metric):
        gamma = christoffel(alg, metric)
        corrupted[:] = corrupt(alg, gamma, curvature(alg, gamma, metric))
        return corrupted[0]

    monkeypatch.setattr(geometry, "christoffel", patched_christoffel)
    monkeypatch.setattr(geometry, "curvature", lambda alg, gamma, metric: corrupted[1])


def _shift_gamma(alg, gamma, curv):
    return {**gamma, (0, 1, 0): gamma.get((0, 1, 0), ZERO) + ONE}, curv


def _drop_up(alg, gamma, curv):
    # an i > j key, so the stored up components (i < j) still match
    key = next(k for k in sorted(curv.up) if k[0] > k[1])
    return gamma, replace(curv, up={k: v for k, v in curv.up.items() if k != key})


def _drop_down(alg, gamma, curv):
    key = next(k for k in sorted(curv.down) if k[0] > k[1] and k[:2] != k[2:])
    return gamma, replace(curv, down={k: v for k, v in curv.down.items() if k != key})


class TestClaimChecks:
    """Each check of the paper's claims is reported for every family or
    form, and a control makes it fail."""

    @pytest.mark.parametrize(
        "claim,count",
        [("indefinite (e_k isotropic)", 19), ("torsion free", 19),
         ("first bianchi", 19), ("pair symmetric", 19), ("omega(C1, Z) = 0", 24)])
    def test_reported_everywhere(self, full_validation, claim, count):
        verdicts = [passed for e in full_validation.entries
                    for label, passed in e.checks if label.endswith(" " + claim)]
        assert verdicts == [True] * count

    def test_report_size(self, full_validation):
        assert sum(len(e.checks) for e in full_validation.entries) == 341

    @pytest.mark.parametrize(
        "alg,nilpotent",
        [(LieAlgebra(6, {}), True), (HEISENBERG, True), (SL2_SL2, False),
         (LieAlgebra.from_terms(6, SL2), False)],
        ids=["abelian", "heisenberg", "sl2+sl2", "sl2+abelian"])
    def test_nilpotent_is_read_off_the_ascending_series(self, alg, nilpotent):
        # sl(2) + sl(2) has an empty series; the series of sl(2) + R^3 stops
        # at its center R^3
        assert dict(validate_entry(_entry(alg, W_STD)).checks)["nilpotent"] is nilpotent

    def test_a_validate_pass_spans_nothing_and_builds_each_series_once(
            self, monkeypatch, full_validation):
        # work counts of one warmed pass: omega(C1, Z) = 0 is decided on the
        # brackets, against the first term of the one ascending series
        calls = dict.fromkeys(("span", "ascending_series"), 0)
        for owner, name in ((linalg, "span"), (liealg, "ascending_series")):
            function = getattr(owner, name)

            def counted(*args, _function=function, _name=name):
                calls[_name] += 1
                return _function(*args)

            monkeypatch.setattr(owner, name, counted)
        catalog.self_validate()
        assert calls == {"span": 0, "ascending_series": 13}

    def test_a_definite_metric_is_not_indefinite(self):
        # the flat Kaehler torus: g = omega(X, JY) is the identity
        checks = dict(validate_entry(_entry(LieAlgebra(6, {}), W_STD, J_STD)).checks)
        assert checks["J1 ricci zero"] and checks["J1 torsion free"]
        assert checks["J1 indefinite (e_k isotropic)"] is False

    def test_an_indefinite_metric_without_an_isotropic_basis_vector_fails(self):
        # g = diag(1, 1, 1, 1, -1, -1) is indefinite, but the check asks for
        # a witness e_k with g(e_k, e_k) = 0, and this basis has none
        w = TwoForm.from_terms(6, [(1, 2, 1), (3, 4, 1), (5, 6, -1)])
        metric = geometry.associated_metric(w, J_STD)
        assert geometry.signature(metric) == (4, 2)
        checks = dict(validate_entry(_entry(LieAlgebra(6, {}), w, J_STD)).checks)
        assert checks["J1 ricci zero"]
        assert checks["J1 indefinite (e_k isotropic)"] is False

    def test_a_validate_pass_computes_no_signature(self, monkeypatch, full_validation):
        # work counts of one warmed pass: the indefinite check reads g's
        # diagonal, so only the stored metric entries are bound to numbers
        calls = dict.fromkeys(("symmetric_signature", "substitute"), 0)
        for owner, name in ((linalg, "symmetric_signature"), (Scalar, "substitute")):
            method = getattr(owner, name)

            def counted(*args, _method=method, _name=name):
                calls[_name] += 1
                return _method(*args)

            monkeypatch.setattr(owner, name, counted)
        catalog.self_validate()
        assert calls["symmetric_signature"] == 0
        assert calls["substitute"] <= 320

    def test_a_degenerate_form_has_no_curvature_checks(self):
        # the pair passes its residuals, but omega has no inverse, so there is no metric
        degenerate = TwoForm.from_terms(6, [(1, 2, 1), (3, 4, 1)])
        checks = validate_entry(_entry(LieAlgebra(6, {}), degenerate, J_STD)).checks
        assert [label for label, ok in checks if not ok] == ["w1 nondegenerate"]
        assert [label for label, _ in checks if label.startswith("J1 ")] == [
            "J1 compatibility", "J1 almost_complex", "J1 integrability"]

    def test_each_structure_squares_its_J_once(self, monkeypatch):
        mat_mul, squared = linalg.mat_mul, []

        def counting(a, b):
            if a is b:
                squared.append(a)
            return mat_mul(a, b)

        monkeypatch.setattr(linalg, "mat_mul", counting)
        entry = get("g21")
        assert validate_entry(entry).ok
        assert squared == [s.J.rows for s in entry.structures]

    @pytest.mark.parametrize(
        "corrupt,label",
        [(_shift_gamma, "torsion free"), (_drop_up, "first bianchi"),
         (_drop_down, "pair symmetric")])
    def test_a_corrupted_connection_or_curvature_fails(self, monkeypatch, corrupt, label):
        _corrupt_curvature(monkeypatch, corrupt)
        assert validate_entry(get("g21")).failures() == [f"J1 {label}"]

    def test_a_form_pairing_the_derived_algebra_with_the_center_fails(self):
        checks = dict(validate_entry(_entry(HEISENBERG, W_STD)).checks)
        assert checks["w1 omega(C1, Z) = 0"] is False
        assert checks["w1 nondegenerate"]

    def test_a_perfect_algebra_is_its_own_derived_algebra(self):
        # the check holds vacuously on an algebra without center
        assert dict(validate_entry(_entry(SL2_SL2, W_STD)).checks)["w1 omega(C1, Z) = 0"]

    @pytest.mark.parametrize(
        "alg,w",
        [pytest.param(get(n).algebra, f.form, id=f"{n}-{f.id}")
         for n in catalog.NAMES for f in get(n).forms]
        + [pytest.param(HEISENBERG, W_STD, id="heisenberg"),
           pytest.param(SL2_SL2, W_STD, id="sl2+sl2")])
    def test_the_bracket_check_matches_its_definition(self, alg, w):
        # the reference spans C1 by the brackets [e_i, e_j] and pairs each
        # of its basis vectors with each basis vector of Z
        basis = [Vector(row) for row in linalg.identity(alg.dim)]
        c1 = linalg.span(bracket(alg, x, y) for x, y in product(basis, repeat=2))
        series = liealg.ascending_series(alg)
        center = series[0] if series else ()
        want = all(w.apply(Vector(u), Vector(z)).is_zero() for u in c1 for z in center)
        assert dict(validate_entry(_entry(alg, w)).checks)["w1 omega(C1, Z) = 0"] is want


class TestCurvatureParameters:
    def test_counts_per_family(self, curvatures):
        got = {}
        for key, (_, _, curv) in curvatures.items():
            comps = (geometry.nonzero_up_components(curv)
                     + geometry.nonzero_down_components(curv))
            got[key] = len(set().union(*(v.free_params() for _, v in comps)))
        assert got == CURVATURE_PARAMS

    def test_every_family_is_checked(self, full_validation):
        checked = {
            (e.name, label.split()[0]): passed
            for e in full_validation.entries for label, passed in e.checks
            if label.endswith(" curvature parameters <= 3")
        }
        assert checked == {key: True for key in CURVATURE_PARAMS}


def _edited_catalog(tmp_path, monkeypatch, name, edit):
    """Point the catalog at a copy whose entry ``name`` has ``edit`` applied."""
    work = tmp_path / "data"
    shutil.copytree(DATA, work)
    path = work / f"{name}.json"
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))
    monkeypatch.setenv("NILKAEHLER_CATALOG", str(work))


def _j_of_dimension_5(obj):
    J = obj["structures"][0]["J"]
    J["dim"], J["rows"] = 5, [row[:5] for row in J["rows"][:5]]


class TestMutationControl:
    def test_deliberate_mutation_is_caught(self, tmp_path, monkeypatch):
        hit = []

        def flip_sign(obj):
            for comp in obj["structures"][0]["expected"]["down_components"]:
                if comp["value"] == "-psi12":
                    comp["value"] = "psi12"
                    hit.append(comp)

        _edited_catalog(tmp_path, monkeypatch, "g21", flip_sign)
        assert len(hit) == 1
        report = catalog.self_validate(["g21"])
        assert not report.ok
        assert "g21: J1 down components" in report.failures()

    def test_malformed_entry_is_a_reported_failure(self, tmp_path, monkeypatch):
        work = tmp_path / "data"
        shutil.copytree(DATA, work)
        g10 = work / "g10.json"
        obj = json.loads(g10.read_text())
        obj["structures"][0]["J"]["rows"][0][0] = "psi11 +"
        g10.write_text(json.dumps(obj))

        monkeypatch.setenv("NILKAEHLER_CATALOG", str(work))
        report = catalog.self_validate(["g10", "g21"])
        assert report.failures() == [
            "g10: load: catalog entry g10 is malformed: unexpected end of input"
            " (at position 7) in 'psi11 +'"
        ]
        assert [e.name for e in report.entries] == ["g10", "g21"]
        assert report.entries[1].ok and len(report.entries[1].checks) > 1

    def test_skipped_integrability_is_not_reported(self, tmp_path, monkeypatch):
        def j_squared_not_minus_one(obj):
            obj["structures"][0]["J"]["rows"][0][0] = "1"

        _edited_catalog(tmp_path, monkeypatch, "g21", j_squared_not_minus_one)
        checks = catalog.self_validate(["g21"]).entries[0].checks
        # J^2 != -I: integrability and the curvature checks do not run
        assert [c for c in checks if c[0].startswith("J1 ")] == [
            ("J1 compatibility", False), ("J1 almost_complex", False)]

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda obj: obj["structures"][0].__setitem__("form", "w9"),
             "structure J1 is on the unknown form 'w9'"),
            (lambda obj: obj["forms"][1]["form"].__setitem__("dim", 7),
             "form w2 has dimension 7, not 6"),
            (_j_of_dimension_5, "structure J1 has dimension 5, not 6"),
            (lambda obj: obj["structures"][0]["J"].__setitem__("dim", 7),
             "row count must match dim"),
            (lambda obj: obj["structures"][0]["J"]["rows"][2].pop(),
             "ragged matrix: row 3 has 5 entries, not 6"),
            (lambda obj: obj["structures"][0]["J"]["rows"][0].__setitem__(1, "1/(psi12-psi12)"),
             "division by the zero polynomial (at position 1) in '1/(psi12-psi12)'"),
            (lambda obj: obj["forms"][0].__setitem__("form", [1, 2]),
             "a 2-form must be a JSON object, not list"),
            (lambda obj: obj["structures"][0].__setitem__("J", [1, 2]),
             "an endomorphism must be a JSON object, not list"),
            (lambda obj: obj["structures"][0]["canonical_binding"].__setitem__("psi12", "1/0"),
             "psi12=1/0: zero denominator"),
            (lambda obj: obj["structures"][0]["canonical_binding"].__setitem__("psi12", True),
             "psi12=True: parameter values must be exact rational, not bool"),
            (lambda obj: obj["algebra"]["brackets"][0].__setitem__("c", "lambda"),
             "unbound parameters: lambda"),
            (lambda obj: obj["structures"][0].__setitem__("side_conditions", ["psi12 +"]),
             "unexpected end of input (at position 7) in 'psi12 +'"),
            (lambda obj: obj["structures"][0].__setitem__("side_conditions",
                                                          ["psi12/(psi11-psi11)"]),
             "division by the zero polynomial (at position 5) in 'psi12/(psi11-psi11)'"),
            (lambda obj: obj["structures"][0].__setitem__("side_conditions", [7]),
             "side_conditions=7: must be a string, not int"),
            (lambda obj: obj["structures"][0].__setitem__("side_conditions", "psi12"),
             "side_conditions='psi12': must be a list, not str"),
            (lambda obj: obj["forms"][0].__setitem__("side_conditions", ["psi12 +"]),
             "unexpected end of input (at position 7) in 'psi12 +'"),
            (lambda obj: obj.__setitem__("name", "g24"),
             "the key 'name' is derived when loading and must not be stored"),
            (lambda obj: obj["forms"][0].__setitem__("admits_J", "no"),
             "the key 'admits_J' is derived when loading and must not be stored"),
            (lambda obj: obj["structures"][0].__setitem__("params", ["psi11", "psi12"]),
             "the key 'params' is derived when loading and must not be stored"),
            (lambda obj: obj["structures"][0]["expected"].__setitem__("flat", False),
             "the key 'flat' is derived when loading and must not be stored"),
            (lambda obj: obj["forms"][1].__setitem__("side_conditions", ["psi12"]),
             "side condition 'psi12' repeats the form's 'psi12'"),
            (lambda obj: obj["structures"][0]["side_conditions"].append("-2*psi12"),
             "side condition '-2*psi12' repeats 'psi12'"),
            (lambda obj: obj["structures"][0]["canonical_binding"].pop("psi12"),
             "structure J1 has a canonical binding of ['psi11'], not of ['psi11', 'psi12']"),
            (lambda obj: obj["structures"][0]["canonical_binding"].__setitem__("psi99", "2"),
             "structure J1 has a canonical binding of ['psi11', 'psi12', 'psi99'],"
             " not of ['psi11', 'psi12']"),
            (lambda obj: obj["structures"][0].__setitem__("side_conditions", ["psi12-psi12"]),
             "side condition 'psi12-psi12' is free of parameters"),
            (lambda obj: obj["forms"][0].__setitem__("side_conditions", ["7"]),
             "side condition '7' is free of parameters"),
            (lambda obj: obj["structures"][0].__setitem__("side_conditions", ["psi11"]),
             "side condition 'psi11' vanishes at the canonical binding of structure J1"),
            (lambda obj: obj["forms"][1].__setitem__("side_conditions", ["psi12+1"]),
             "side condition 'psi12+1' vanishes at the canonical binding of structure J1"),
            (lambda obj: obj["structures"][0]["side_conditions"].append("psi99"),
             "side condition 'psi99' of structure J1 is not in its parameters"
             " ['psi11', 'psi12']"),
            (lambda obj: obj["forms"][0].__setitem__("id", "w2"),
             "the form id 'w2' is repeated"),
            (lambda obj: obj["structures"].append(dict(obj["structures"][0])),
             "the structure id 'J1' is repeated"),
            (lambda obj: obj["algebra"].__setitem__("dim", 6.7),
             "dim=6.7: must be an integer, not float"),
            (lambda obj: obj["forms"][1]["form"].__setitem__("dim", 6.0),
             "dim=6.0: must be an integer, not float"),
            (lambda obj: obj["structures"][0]["J"].__setitem__("dim", "6"),
             "dim='6': must be an integer, not str"),
            (lambda obj: obj["algebra"]["brackets"][0].__setitem__("k", True),
             "k=True: must be an integer, not bool"),
            (lambda obj: obj["algebra"]["brackets"][0].__setitem__("i", 1.5),
             "i=1.5: must be an integer, not float"),
            (lambda obj: obj["algebra"]["brackets"][0].__setitem__("j", "2"),
             "j='2': must be an integer, not str"),
            (lambda obj: obj["forms"][0]["form"]["terms"][0].__setitem__("i", True),
             "i=True: must be an integer, not bool"),
            (lambda obj: obj["forms"][0]["form"]["terms"][0].__setitem__("j", 6.0),
             "j=6.0: must be an integer, not float"),
            (lambda obj: obj["algebra"].__setitem__("brackets", 5),
             "brackets=5: must be a list, not int"),
            (lambda obj: obj["algebra"]["brackets"][0].__setitem__("c", 1.5),
             "c=1.5: must be a string or an integer, not float"),
            (lambda obj: obj["forms"][0]["form"].__setitem__("terms", {"i": 1}),
             "terms={'i': 1}: must be a list, not dict"),
            (lambda obj: obj["forms"][0]["form"]["terms"][0].__setitem__("c", True),
             "c=True: must be a string or an integer, not bool"),
            (lambda obj: obj["structures"][0]["J"].__setitem__("rows", 5),
             "rows=5: must be a list, not int"),
            (lambda obj: obj["structures"][0]["J"]["rows"].__setitem__(1, "psi12"),
             "rows='psi12': must be a list, not str"),
            (lambda obj: obj["structures"][0]["J"]["rows"][0].__setitem__(2, 0.0),
             "rows=0.0: must be a string or an integer, not float"),
            (lambda obj: obj["structures"][0]["canonical_binding"].__setitem__("psi12", [1]),
             "psi12=[1]: parameter values must be exact rational, not list"),
            (lambda obj: obj["structures"][0]["canonical_binding"].__setitem__("psi12", "one"),
             "psi12='one': not an exact rational"),
            (lambda obj: obj["structures"][0].__setitem__("canonical_binding", ["psi12"]),
             "a binding must be a mapping, not list"),
            (lambda obj: obj.__setitem__("forms", "w1 w2"),
             "forms='w1 w2': must be a list, not str"),
            (lambda obj: obj.__setitem__("structures", 1),
             "structures=1: must be a list, not int"),
            (lambda obj: obj["forms"].__setitem__(0, ["w1"]),
             "forms: must be an object, not list"),
            (lambda obj: obj["structures"].__setitem__(0, ["J1"]),
             "structures: must be an object, not list"),
            (lambda obj: obj["forms"][0].__setitem__("id", ["w1"]),
             "id=['w1']: must be a string, not list"),
            (lambda obj: obj["structures"][0].__setitem__("id", ["J1"]),
             "id=['J1']: must be a string, not list"),
            (lambda obj: obj["structures"][0].__setitem__("form", ["w2"]),
             "form=['w2']: must be a string, not list"),
            (lambda obj: obj.__setitem__("notes", 5), "notes=5: must be a string, not int"),
            (lambda obj: obj.__setitem__("notes", ["a"]),
             "notes=['a']: must be a string, not list"),
            (lambda obj: obj["structures"][0]["canonical_binding"].__setitem__("psi12", "0.5"),
             "psi12='0.5': not an exact rational"),
            (lambda obj: obj["algebra"]["brackets"].__setitem__(0, 5),
             "brackets: must be an object, not int"),
            (lambda obj: obj["forms"][0]["form"]["terms"].__setitem__(0, [1, 2, "1"]),
             "terms: must be an object, not list"),
            (lambda obj: obj["structures"][0]["J"]["rows"][0].__setitem__(1, "1" * 5000),
             f"integer too long (at position 0) in {'1' * 5000!r}"),
            (lambda obj: obj["structures"][0]["J"]["rows"][0].__setitem__(1, "(a+b+c+d)^64"),
             "result too large: more than 2000 terms (at position 9) in '(a+b+c+d)^64'"),
        ],
        ids=["unknown-form", "form-dimension", "J-dimension", "J-dim-field", "J-ragged",
             "division-by-zero", "form-not-an-object", "J-not-an-object",
             "binding-division-by-zero", "binding-bool", "parametric-algebra",
             "side-condition-syntax",
             "side-condition-division-by-zero", "side-condition-not-a-string",
             "side-conditions-not-a-list",
             "form-side-condition-syntax", "stored-name", "stored-admits-J",
             "stored-params", "stored-flat", "side-condition-of-the-form-repeated",
             "side-condition-repeated",
             "binding-lacks-a-param", "binding-of-an-unknown-param",
             "side-condition-constant", "form-side-condition-constant",
             "side-condition-vanishes-at-binding",
             "form-side-condition-vanishes-at-binding", "side-condition-of-another-param",
             "form-id-repeated", "structure-id-repeated", "algebra-dim-float",
             "form-dim-float", "J-dim-str", "bracket-index-bool", "bracket-index-float",
             "bracket-index-str", "form-term-index-bool", "form-term-index-float",
             "brackets-not-a-list", "bracket-coefficient-float", "terms-not-a-list",
             "form-term-coefficient-bool", "J-rows-not-a-list", "J-row-not-a-list",
             "J-entry-float", "binding-value-list", "binding-value-not-rational",
             "binding-not-an-object", "forms-not-a-list", "structures-not-a-list",
             "form-record-not-an-object", "structure-record-not-an-object", "form-id-list",
             "structure-id-list", "structure-form-list", "notes-int", "notes-list",
             "binding-value-decimal", "bracket-not-an-object", "form-term-not-an-object",
             "J-entry-integer-too-long", "J-entry-too-large-to-build"],
    )
    def test_malformed_reference_is_a_load_failure(self, tmp_path, monkeypatch, edit, message):
        _edited_catalog(tmp_path, monkeypatch, "g21", edit)
        report = catalog.self_validate(["g21"])
        assert report.failures() == [f"g21: load: catalog entry g21 is malformed: {message}"]

    @pytest.mark.parametrize(
        "edit,message",
        [(lambda obj: obj["structures"][0]["expected"].pop("up_components"),
          "lacks the key 'up_components'"),
         (lambda obj: obj["structures"][0]["expected"]["metric"]["binding"].__setitem__(
             "psi12", "1/0"), "is malformed: psi12=1/0: zero denominator"),
         (lambda obj: obj["structures"][0]["expected"]["metric"]["binding"].__setitem__(
             "psi12", True),
          "is malformed: psi12=True: parameter values must be exact rational, not bool"),
         (lambda obj: obj["structures"][0].pop("expected"), "lacks the key 'expected'"),
         (lambda obj: obj["algebra"].pop("brackets"), "lacks the key 'brackets'"),
         (lambda obj: obj["forms"][1]["form"].pop("terms"), "lacks the key 'terms'"),
         (lambda obj: obj["forms"][1].__setitem__(
             "side_condition", obj["forms"][1].pop("side_conditions")),
          "lacks the key 'side_conditions'"),
         (lambda obj: obj["structures"][0]["expected"]["up_components"].insert(
             0, {"idx": [1, 2, 1, 5], "value": "psi12"}),
          "is malformed: the component [1, 2, 1, 5] is given twice"),
         (lambda obj: obj["structures"][0]["expected"]["metric"]["entries"].append(
             {"idx": [5, 1], "value": "17"}),
          "is malformed: the metric entry [5, 1] lies below the diagonal"),
         (lambda obj: obj["structures"][0]["expected"]["down_components"][0].__setitem__(
             "idx", [True, 2, 1, 2]), "is malformed: idx=True: must be an integer, not bool"),
         (lambda obj: obj["structures"][0]["expected"]["down_components"][0].__setitem__(
             "idx", [1.0, 2, 1, 2]), "is malformed: idx=1.0: must be an integer, not float"),
         (lambda obj: obj["structures"][0]["expected"]["metric"]["entries"][0].__setitem__(
             "idx", [1.0, 5]), "is malformed: idx=1.0: must be an integer, not float"),
         (lambda obj: obj["structures"][0]["expected"]["down_components"][0].__setitem__(
             "idx", [1, 2, 1]), "is malformed: the component [1, 2, 1] does not have 4 indices"),
         (lambda obj: obj["structures"][0]["expected"]["down_components"][0].__setitem__(
             "idx", [1, 2, 1, 99]),
          "is malformed: the component [1, 2, 1, 99] has the index 99, not in 1..6"),
         (lambda obj: obj["structures"][0]["expected"]["down_components"][0].__setitem__(
             "idx", [0, 2, 1, 2]),
          "is malformed: the component [0, 2, 1, 2] has the index 0, not in 1..6"),
         (lambda obj: obj["structures"][0]["expected"]["up_components"][0].__setitem__(
             "idx", [2, 1, 1, 5]), "is malformed: the component [2, 1, 1, 5] does not have i < j"),
         (lambda obj: obj["structures"][0]["expected"]["down_components"][0].__setitem__(
             "idx", [1, 1, 1, 2]), "is malformed: the component [1, 1, 1, 2] does not have i < j"),
         (lambda obj: obj["structures"][0]["expected"]["metric"]["entries"][0].__setitem__(
             "idx", [1, 9]), "is malformed: the metric entry [1, 9] has the index 9, not in 1..6"),
         (lambda obj: obj["structures"][0]["expected"]["metric"]["entries"][0].__setitem__(
             "idx", [1, 5, 1]), "is malformed: the metric entry [1, 5, 1] does not have 2 indices"),
         (lambda obj: obj["structures"][0]["expected"]["metric"]["binding"].__setitem__(
             "zzz", "1"),
          "is malformed: the metric binding names 'zzz', not one of the parameters"
          " ['psi11', 'psi12']"),
         (lambda obj: obj["structures"][0]["expected"]["metric"]["binding"].__setitem__(
             "psi12", [1]), "is malformed: psi12=[1]: parameter values must be exact rational,"
          " not list"),
         (lambda obj: obj["structures"][0]["expected"]["down_components"][0].__setitem__(
             "idx", 5), "is malformed: idx=5: must be a list, not int"),
         (lambda obj: obj["structures"][0]["expected"]["metric"].__setitem__("entries", 5),
          "is malformed: entries=5: must be a list, not int"),
         (lambda obj: obj["structures"][0]["expected"].__setitem__("up_components", "R"),
          "is malformed: up_components='R': must be a list, not str"),
         (lambda obj: obj["structures"][0]["expected"].__setitem__("down_components", {}),
          "is malformed: down_components={}: must be a list, not dict"),
         (lambda obj: obj["structures"][0].__setitem__("expected", []),
          "is malformed: expected: must be an object, not list"),
         (lambda obj: obj["structures"][0]["expected"].__setitem__("metric", []),
          "is malformed: metric: must be an object, not list"),
         (lambda obj: obj["structures"][0]["expected"]["down_components"].__setitem__(0, 5),
          "is malformed: down_components: must be an object, not int"),
         (lambda obj: obj["structures"][0]["expected"]["metric"]["entries"].__setitem__(0, 5),
          "is malformed: entries: must be an object, not int"),
         (lambda obj: obj["structures"][0]["expected"]["down_components"][0].__setitem__(
             "value", 5), "is malformed: value=5: must be a string, not int")],
        ids=["missing-key", "metric-binding-division-by-zero", "metric-binding-bool",
             "structure-without-expected", "algebra-without-brackets", "form-without-terms",
             "form-side-conditions-misspelt",
             "repeated-component", "metric-below-diagonal", "component-index-bool",
             "component-index-float", "metric-index-float", "component-index-short",
             "component-index-above-dim", "component-index-zero", "component-i-above-j",
             "component-i-equals-j", "metric-index-above-dim", "metric-index-long",
             "metric-binding-of-an-unknown-param", "metric-binding-value-list",
             "component-index-not-a-list", "metric-entries-not-a-list",
             "up-components-not-a-list", "down-components-not-a-list",
             "expected-not-an-object", "metric-not-an-object", "component-not-an-object",
             "metric-entry-not-an-object", "component-value-int"],
    )
    def test_bad_expectation_is_a_load_failure(self, tmp_path, monkeypatch, edit, message):
        # the failure is the edited entry's alone
        _edited_catalog(tmp_path, monkeypatch, "g21", edit)
        report = catalog.self_validate(["g21", "g24"])
        assert report.failures() == [f"g21: load: catalog entry g21 {message}"]
        assert report.entries[1].ok and len(report.entries[1].checks) > 1

    def test_an_entry_that_is_not_an_object_is_a_load_failure(self, tmp_path, monkeypatch):
        work = tmp_path / "data"
        shutil.copytree(DATA, work)
        (work / "g21.json").write_text("[]")
        monkeypatch.setenv("NILKAEHLER_CATALOG", str(work))
        assert catalog.self_validate(["g21"]).failures() == [
            "g21: load: catalog entry g21 is malformed: g21: must be an object, not list"]

    @pytest.mark.parametrize("text", [b"\xff", b'{"name": '], ids=["not-utf-8", "not-json"])
    def test_an_entry_that_is_not_json_is_a_load_failure(self, tmp_path, monkeypatch, text):
        work = tmp_path / "data"
        shutil.copytree(DATA, work)
        (work / "g21.json").write_bytes(text)
        monkeypatch.setenv("NILKAEHLER_CATALOG", str(work))
        [failure] = catalog.self_validate(["g21"]).failures()
        assert failure.startswith("g21: load: catalog entry g21 is not valid JSON: ")

    def test_a_deeply_nested_entry_is_a_load_failure(self, tmp_path, monkeypatch):
        work = tmp_path / "data"
        shutil.copytree(DATA, work)
        (work / "g21.json").write_text("[" * 100000 + "]" * 100000)
        monkeypatch.setenv("NILKAEHLER_CATALOG", str(work))
        t0 = time.monotonic()
        failures = catalog.self_validate(["g21"]).failures()
        assert time.monotonic() - t0 < 1.0
        assert failures == ["g21: load: catalog entry g21 is not valid JSON: maximum recursion"
                            " depth exceeded while decoding a JSON array from a unicode string"]

    def test_metric_binding_at_a_pole_is_a_failed_check(self, tmp_path, monkeypatch):
        def pole(obj):
            # g_15 of g21 J1 is (psi11^2 + 1)/psi12
            obj["structures"][0]["expected"]["metric"]["binding"] = {"psi12": "0"}

        _edited_catalog(tmp_path, monkeypatch, "g21", pole)
        assert catalog.self_validate(["g21"]).failures() == ["g21: J1 metric"]

    def test_env_override_round_trip(self, tmp_path, monkeypatch):
        work = tmp_path / "data"
        shutil.copytree(DATA, work)
        monkeypatch.setenv("NILKAEHLER_CATALOG", str(work))
        assert catalog.self_validate(["g24"]).ok


class _TrackedObject(dict):
    """A JSON object that records the keys its reader asks for."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def items(self):  # a binding is read whole
        self.read.update(self)
        return super().items()


def _unread_paths(node, path):
    if isinstance(node, _TrackedObject):
        for key, value in dict.items(node):
            if key in node.read:
                yield from _unread_paths(value, f"{path}.{key}")
            else:
                yield f"{path}.{key}"
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _unread_paths(value, f"{path}[{i}]")


def unread_keys(monkeypatch, name: str) -> list[str]:
    """Paths of the keys in the catalog file of ``name`` that loading it never reads."""
    loaded = []
    load = json.load

    def tracked_load(fh):
        loaded.append(load(fh, object_pairs_hook=_TrackedObject))
        return loaded[-1]

    with monkeypatch.context() as patch:
        patch.setattr(json, "load", tracked_load)
        catalog._load.__wrapped__(catalog._data_dir(), name)  # uncached
    return list(_unread_paths(loaded[0], name))


class TestUnreadKeys:
    """Lint: every key stored in the packaged catalog is one the loader reads."""

    @pytest.mark.parametrize("name", catalog.NAMES)
    def test_every_stored_key_is_read(self, monkeypatch, name):
        assert unread_keys(monkeypatch, name) == []

    def test_the_lint_finds_unread_keys(self, tmp_path, monkeypatch):
        def add_unread(obj):
            obj["algebra"]["brackets"][0]["note"] = "x"
            obj["forms"][0]["side_condition"] = []
            obj["structures"][0]["expected"]["ricci_zero"] = True
            obj["structures"][0]["expected"]["down_components"][0]["form"] = "w2"

        _edited_catalog(tmp_path, monkeypatch, "g21", add_unread)
        assert unread_keys(monkeypatch, "g21") == [
            "g21.algebra.brackets[0].note",
            "g21.forms[0].side_condition",
            "g21.structures[0].expected.down_components[0].form",
            "g21.structures[0].expected.ricci_zero",
        ]


def _factors(poly) -> dict:
    """Sign-normalised irreducible non-constant factors of a sympy polynomial."""
    out = {}
    if poly.is_ground:
        return out
    for f, _ in poly.factor_list()[1]:
        f = -f if f.LC < 0 else f
        out[f.as_expr()] = f
    return out


def _no_real_zero(f) -> bool:
    # a positive constant plus positive multiples of even monomials is > 0
    terms = dict(f.terms())
    return terms.get(f.ring.zero_monom, 0) > 0 and all(
        c > 0 and all(e % 2 == 0 for e in m) for m, c in terms.items()
    )


class TestDenominatorsCovered:
    def test_every_denominator_factor_is_a_stored_condition(self, curvatures):
        # the stored conditions are the only ones reported, so every place
        # J, g^-1, Gamma or R can blow up must be one of them or never real
        never_real = set()
        for name in catalog.NAMES:
            entry = get(name)
            for s in entry.structures:
                stored = set()
                for cond in s.side_conditions:
                    stored |= set(_factors(to_sympy(parse_expr(cond)._num)))
                metric, gamma, curv = curvatures[name, s.id]
                values = [x for row in s.J.rows + metric.g_inv for x in row]
                values += [*gamma.values(), *curv.up.values(), *curv.down.values()]
                for den in {to_sympy(x._den) for x in values}:
                    for expr, f in _factors(den).items():
                        if expr not in stored:
                            assert _no_real_zero(f), (name, s.id, str(expr))
                            never_real.add((name, s.id, str(expr)))
        assert never_real == {
            ("g14", "J1", "psi11**2 + 1"),
            ("g16", "J1", "psi11**2 + psi12**2 + 1"),
            ("g18", "J2", "lambda**2 + 1"),
        }

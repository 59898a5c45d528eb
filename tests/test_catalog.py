import json
import pathlib
import shutil
from fractions import Fraction

import pytest

from nilkaehler import catalog, geometry
from nilkaehler.catalog import get, list_entries, validate_entry
from nilkaehler.scalar import parse_expr


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
        assert [name for name, _ in list_entries()] == list(catalog.NAMES)

    def test_algebra_types(self):
        assert dict(list_entries()) == EXPECTED_TYPES

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
                binding = s.binding()
                assert set(binding) == set(s.canonical_binding)
                for v in binding.values():
                    assert isinstance(v, Fraction)

    def test_every_structure_has_expectations(self):
        for name in catalog.NAMES:
            for s in get(name).structures:
                assert s.expected is not None, (name, s.id)


class TestAdmitsFlags:
    def test_no_forms_carry_no_structure(self):
        for name, fid in sorted(NO_J_FORMS):
            e = get(name)
            assert e.form(fid).admits_J == "no"
            assert all(s.form_id != fid for s in e.structures)

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
    shutil.copytree(pathlib.Path(catalog.__file__).parent / "data", work)
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
        src = pathlib.Path(catalog.__file__).parent / "data"
        work = tmp_path / "data"
        shutil.copytree(src, work)

        exp_file = work / "expectations.json"
        records = json.loads(exp_file.read_text())
        hit = 0
        for rec in records:
            if rec["entry"] == "g21":
                for comp in rec["down_components"]:
                    if comp["value"] == "-psi12":
                        comp["value"] = "psi12"
                        hit += 1
        assert hit == 1
        exp_file.write_text(json.dumps(records))

        monkeypatch.setenv("NILKAEHLER_CATALOG", str(work))
        report = catalog.self_validate(["g21"])
        assert not report.ok
        assert "g21: J1 down components" in report.failures()

    def test_malformed_entry_is_a_reported_failure(self, tmp_path, monkeypatch):
        src = pathlib.Path(catalog.__file__).parent / "data"
        work = tmp_path / "data"
        shutil.copytree(src, work)
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
        ],
        ids=["unknown-form", "form-dimension", "J-dimension", "J-dim-field", "J-ragged"],
    )
    def test_malformed_reference_is_a_load_failure(self, tmp_path, monkeypatch, edit, message):
        _edited_catalog(tmp_path, monkeypatch, "g21", edit)
        report = catalog.self_validate(["g21"])
        assert report.failures() == [f"g21: load: catalog entry g21 is malformed: {message}"]

    def test_env_override_round_trip(self, tmp_path, monkeypatch):
        src = pathlib.Path(catalog.__file__).parent / "data"
        work = tmp_path / "data"
        shutil.copytree(src, work)
        monkeypatch.setenv("NILKAEHLER_CATALOG", str(work))
        assert catalog.self_validate(["g24"]).ok


def _factors(poly) -> dict:
    """Sign-normalised irreducible non-constant factors of a polynomial."""
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
                for cond in s.side_conditions + entry.form(s.form_id).side_conditions:
                    stored |= set(_factors(parse_expr(cond)._num))
                metric, gamma, curv = curvatures[name, s.id]
                values = [x for row in s.J.rows + metric.g_inv for x in row]
                values += [*gamma.values(), *curv.up.values(), *curv.down.values()]
                for den in {x._den for x in values}:
                    for expr, f in _factors(den).items():
                        if expr not in stored:
                            assert _no_real_zero(f), (name, s.id, str(expr))
                            never_real.add((name, s.id, str(expr)))
        assert never_real == {
            ("g14", "J1", "psi11**2 + 1"),
            ("g16", "J1", "psi11**2 + psi12**2 + 1"),
            ("g18", "J2", "lambda**2 + 1"),
        }

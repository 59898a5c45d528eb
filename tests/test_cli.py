import json
import pathlib
from itertools import combinations

import pytest

from nilkaehler import catalog, geometry, solver
from nilkaehler.cli import run
from nilkaehler.scalar import parse_expr


DATA = pathlib.Path(catalog.__file__).parent / "data"


def _g10_text(edit):
    """The stored g10.json with ``edit`` applied to its parsed object."""
    obj = json.loads((DATA / "g10.json").read_text())
    edit(obj)
    return json.dumps(obj)


def _write_g21(directory, edit):
    """Write into ``directory`` the stored g21.json with ``edit`` applied to
    the expectation of its structure J1."""
    obj = json.loads((DATA / "g21.json").read_text())
    edit(obj["structures"][0]["expected"])
    (directory / "g21.json").write_text(json.dumps(obj))


def invoke(capsys, *argv):
    rc = run(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


W_STD = {
    "dim": 6,
    "terms": [
        {"i": 1, "j": 2, "c": "1"},
        {"i": 3, "j": 4, "c": "1"},
        {"i": 5, "j": 6, "c": "1"},
    ],
}
ABELIAN = {"dim": 6, "brackets": []}


# §3.2 display of the g21 family metric, frozen as the layout target
G21_METRIC_LATEX = (
    r"\begin{bmatrix}"
    r" 0 & 0 & 0 & 0 & \frac{\psi_{11}^2+1}{\psi_{12}} & -\psi_{11} \\"
    r" 0 & 0 & 0 & 0 & \psi_{11} & -\psi_{12} \\"
    r" 0 & 0 & -\frac{\psi_{11}^2+1}{\psi_{12}} & \psi_{11} & 0 & 0 \\"
    r" 0 & 0 & \psi_{11} & -\psi_{12} & 0 & 0 \\"
    r" \frac{\psi_{11}^2+1}{\psi_{12}} & \psi_{11} & 0 & 0 & 0 & 0 \\"
    r" -\psi_{11} & -\psi_{12} & 0 & 0 & 0 & 0 "
    r"\end{bmatrix}"
)


class TestList:
    def test_lists_all_entries(self, capsys):
        rc, out, _ = invoke(capsys, "list")
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == 13
        assert lines[0] == "g10  type (2, 4, 6)"
        assert any(line.startswith("g25") for line in lines)


class TestShow:
    def test_show_prints_brackets_and_forms(self, capsys):
        rc, out, _ = invoke(capsys, "show", "g21")
        assert rc == 0
        assert "[e1, e2] = e4" in out
        assert "w1 admits_J=no" in out
        assert "J1 on w2" in out

    @pytest.mark.parametrize("name,line", [
        ("g12", "  [e2, e3] = -e6"),
        ("g13", "  [e2, e3] = -e6"),
        ("g16", "  [e2, e3] = -e6"),
        ("g23", "  [e1, e3] = -e5"),
    ])
    def test_show_prints_a_minus_one_coefficient_as_a_sign(self, capsys, name, line):
        rc, out, _ = invoke(capsys, "show", name)
        assert rc == 0
        assert line in out.splitlines()

    @pytest.mark.parametrize("name", catalog.NAMES)
    def test_show_writes_every_condition_as_nonzero(self, capsys, name):
        rc, out, _ = invoke(capsys, "show", name)
        assert rc == 0 and "-1*" not in out
        lines = out.splitlines()
        for f in catalog.get(name).forms:
            line, = [ln for ln in lines if ln.startswith(f"  {f.id} admits_J=")]
            side = ", ".join(f"{c} != 0" for c in f.side_conditions)
            assert line.endswith(f"  side: {side}" if side else "]")

    def test_show_unknown_entry_is_usage_error(self, capsys):
        rc, _, err = invoke(capsys, "show", "g00")
        assert rc == 2
        assert "unknown catalog entry 'g00'" in err


class TestVerify:
    def test_verify_g21_passes_and_cites_regression(self, capsys):
        rc, out, _ = invoke(capsys, "verify", "g21")
        assert rc == 0
        assert "g21: pass" in out
        assert "R_{1,2,1,2} = -psi12: matched" in out
        assert "side conditions: psi12 != 0" in out

    def test_verify_g14_reads_its_empty_tables_as_flat(self, capsys):
        rc, out, _ = invoke(capsys, "verify", "g14")
        assert rc == 0
        assert "       J1 curvature identically zero: matched" in out.splitlines()

    def test_verify_g16_fails_on_w2_closedness_only(self, capsys):
        rc, out, _ = invoke(capsys, "verify", "g16")
        assert rc == 1
        assert "g16: FAIL (1 check)" in out
        failed = [ln for ln in out.splitlines() if ln.lstrip().startswith("FAIL")]
        assert failed == ["  FAIL w2 closed"]

    def test_verify_all_matches_self_validate(self, capsys, full_validation):
        rc, out, _ = invoke(capsys, "verify", "--all")
        assert rc == 1  # catalog carries two known closure defects
        cli_status = {}
        for line in out.splitlines():
            if line and not line.startswith(" "):
                name, status = line.split(":", 1)
                cli_status[name] = status.strip().startswith("pass")
        lib_status = {e.name: e.ok for e in full_validation.entries}
        assert cli_status == lib_status

    @pytest.mark.parametrize("name,form_id", [("g16", "w2"), ("g13", "w2"), ("g18", "w3")])
    def test_verify_form_prints_the_entry_report_of_that_form(self, capsys, name, form_id):
        # the oracle: `verify <name>` kept to the algebra's checks, the form and
        # the structures on it
        _, out, _ = invoke(capsys, "verify", name)
        keep = {"jacobi", "nilpotent", form_id} | {
            s.id for s in catalog.get(name).structures if s.form_id == form_id}
        lines = []
        for line in out.splitlines()[1:]:
            words = line.split()
            if words[words[0] in ("ok", "FAIL")] in keep:
                lines.append(line)
        failed = sum(line.startswith("  FAIL") for line in lines)
        status = "pass" if not failed else f"FAIL ({failed} check{'s' * (failed != 1)})"
        rc, form_out, err = invoke(capsys, "verify", name, "--form", form_id)
        assert (rc, err) == (int(failed > 0), "")
        assert form_out == "\n".join([f"{name}: {status}", *lines]) + "\n"

    def test_verify_form_validates_only_its_structures(self, capsys, monkeypatch):
        calls = []
        verify_family = solver.verify_family
        monkeypatch.setattr(solver, "verify_family",
                            lambda *args: calls.append(args) or verify_family(*args))
        rc, _, _ = invoke(capsys, "verify", "g18", "--form", "w3")
        assert rc == 0
        assert len(calls) == 1  # J3; the whole entry has three structures

    def test_unknown_form_is_refused_before_validation(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(catalog, "validate_entry", calls.append)
        rc, out, err = invoke(capsys, "verify", "g16", "--form", "zz")
        assert (rc, out, calls) == (2, "", [])
        assert err == "error: entry g16 has no form 'zz'\n"

    @pytest.mark.parametrize("argv", [("--all", "--form", "zz"), ("g21", "--all"), ()])
    def test_ignored_flags_are_usage_errors(self, capsys, argv):
        rc, out, err = invoke(capsys, "verify", *argv)
        assert rc == 2
        assert out == ""
        assert err == ("error: verify takes an entry name, optionally with --form,"
                       " or --all alone\n")


    @pytest.mark.parametrize(
        "g10_text,fragment",
        [
            (None, "cannot load catalog entry g10"),
            ('{"name": ', "not valid JSON"),
            pytest.param("\xff", "catalog entry g10 is not valid JSON: 'utf-8' codec",
                         id="not-utf-8"),
            pytest.param(
                _g10_text(lambda obj: obj.pop("forms")),
                "catalog entry g10 lacks the key 'forms'",
                id="missing-key"),
            pytest.param(
                _g10_text(lambda obj: obj["structures"][0]["J"]["rows"][0].__setitem__(0, "psi11 +")),
                "catalog entry g10 is malformed: unexpected end of input (at position 7) in 'psi11 +'",
                id="bad-expression"),
            pytest.param(
                _g10_text(lambda obj: obj["structures"][0].__setitem__("form", "w9")),
                "catalog entry g10 is malformed: structure J1 is on the unknown form 'w9'",
                id="unknown-form"),
            pytest.param(
                _g10_text(lambda obj: obj["forms"][0]["form"].__setitem__("dim", 7)),
                "catalog entry g10 is malformed: form w1 has dimension 7, not 6",
                id="form-dimension"),
            pytest.param(
                _g10_text(lambda obj: obj["structures"][0]["J"]["rows"][0].__setitem__(
                    1, "1/(psi12-psi12)")),
                "catalog entry g10 is malformed: division by the zero polynomial"
                " (at position 1) in '1/(psi12-psi12)'",
                id="division-by-zero"),
            pytest.param(
                _g10_text(lambda obj: obj["forms"][0].__setitem__("form", [1, 2])),
                "catalog entry g10 is malformed: a 2-form must be a JSON object, not list",
                id="form-not-an-object"),
            pytest.param(
                _g10_text(lambda obj: obj["structures"][0].__setitem__("J", [1, 2])),
                "catalog entry g10 is malformed: an endomorphism must be a JSON object, not list",
                id="J-not-an-object"),
            pytest.param(
                _g10_text(lambda obj: obj["structures"][0]["canonical_binding"].__setitem__(
                    "psi12", "1/0")),
                "catalog entry g10 is malformed: psi12=1/0: zero denominator",
                id="binding-division-by-zero"),
            pytest.param(
                _g10_text(lambda obj: obj["structures"][0].__setitem__(
                    "side_conditions", ["psi12 +"])),
                "catalog entry g10 is malformed: unexpected end of input (at position 7)"
                " in 'psi12 +'",
                id="side-condition-syntax"),
            pytest.param(
                _g10_text(lambda obj: obj["structures"][0].__setitem__(
                    "side_conditions", ["psi12/(psi11-psi11)"])),
                "catalog entry g10 is malformed: division by the zero polynomial"
                " (at position 5) in 'psi12/(psi11-psi11)'",
                id="side-condition-division-by-zero"),
            pytest.param(
                _g10_text(lambda obj: obj["structures"][0].__setitem__("side_conditions", [7])),
                "catalog entry g10 is malformed: side_conditions=7: must be a string, not int",
                id="side-condition-not-a-string"),
            pytest.param(
                _g10_text(lambda obj: obj["structures"][0]["canonical_binding"].__setitem__(
                    "psi12", True)),
                "catalog entry g10 is malformed: psi12=True: parameter values must be"
                " exact rational, not bool",
                id="binding-bool"),
            pytest.param(
                _g10_text(lambda obj: obj["forms"][0].__setitem__(
                    "side_condition", obj["forms"][0].pop("side_conditions"))),
                "catalog entry g10 lacks the key 'side_conditions'",
                id="form-side-conditions-misspelt"),
            pytest.param(
                _g10_text(lambda obj: obj.__setitem__("name", "g10")),
                "catalog entry g10 is malformed: the key 'name' is derived when loading"
                " and must not be stored",
                id="stored-name"),
            pytest.param(
                _g10_text(lambda obj: obj["forms"][0].__setitem__("admits_J", "yes")),
                "catalog entry g10 is malformed: the key 'admits_J' is derived when loading"
                " and must not be stored",
                id="stored-admits-J"),
            pytest.param(
                _g10_text(lambda obj: obj["structures"][0].__setitem__(
                    "params", ["psi11", "psi12"])),
                "catalog entry g10 is malformed: the key 'params' is derived when loading"
                " and must not be stored",
                id="stored-params"),
            pytest.param(
                _g10_text(lambda obj: obj["structures"][0]["expected"].__setitem__(
                    "flat", False)),
                "catalog entry g10 is malformed: the key 'flat' is derived when loading"
                " and must not be stored",
                id="stored-flat"),
            pytest.param(
                _g10_text(lambda obj: obj["forms"][0].__setitem__("side_conditions", ["psi12"])),
                "catalog entry g10 is malformed: side condition 'psi12' repeats the form's"
                " 'psi12'",
                id="side-condition-of-the-form-repeated"),
            pytest.param(
                _g10_text(lambda obj: obj["structures"][0]["side_conditions"].append("psi12")),
                "catalog entry g10 is malformed: side condition 'psi12' repeats 'psi12'",
                id="side-condition-repeated"),
            pytest.param(
                _g10_text(lambda obj: obj["structures"][0]["canonical_binding"].pop("psi11")),
                "catalog entry g10 is malformed: structure J1 has a canonical binding of"
                " ['psi12'], not of ['psi11', 'psi12']",
                id="binding-lacks-a-param"),
            pytest.param(
                _g10_text(lambda obj: obj["structures"][0].__setitem__("side_conditions", ["2"])),
                "catalog entry g10 is malformed: side condition '2' is free of parameters",
                id="side-condition-constant"),
            pytest.param(
                _g10_text(lambda obj: obj["structures"][0].__setitem__(
                    "side_conditions", ["psi12-1"])),
                "catalog entry g10 is malformed: side condition 'psi12-1' vanishes at the"
                " canonical binding of structure J1",
                id="side-condition-vanishes-at-binding"),
            pytest.param(
                _g10_text(lambda obj: obj["structures"][0]["side_conditions"].append("psi99")),
                "catalog entry g10 is malformed: side condition 'psi99' of structure J1"
                " is not in its parameters ['psi11', 'psi12']",
                id="side-condition-of-another-param"),
            pytest.param(
                _g10_text(lambda obj: obj["forms"].append(dict(obj["forms"][0]))),
                "catalog entry g10 is malformed: the form id 'w1' is repeated",
                id="form-id-repeated"),
            pytest.param(
                _g10_text(lambda obj: obj["structures"].append(dict(obj["structures"][0]))),
                "catalog entry g10 is malformed: the structure id 'J1' is repeated",
                id="structure-id-repeated"),
            pytest.param(
                _g10_text(lambda obj: obj["algebra"].__setitem__("dim", 6.7)),
                "catalog entry g10 is malformed: dim=6.7: must be an integer, not float",
                id="algebra-dim-float"),
            pytest.param(
                _g10_text(lambda obj: obj["structures"][0]["J"].__setitem__("dim", "6")),
                "catalog entry g10 is malformed: dim='6': must be an integer, not str",
                id="J-dim-str"),
            pytest.param(
                _g10_text(lambda obj: obj["algebra"]["brackets"][0].__setitem__("k", True)),
                "catalog entry g10 is malformed: k=True: must be an integer, not bool",
                id="bracket-index-bool"),
            pytest.param(
                _g10_text(lambda obj: obj["forms"][0]["form"]["terms"][0].__setitem__("i", True)),
                "catalog entry g10 is malformed: i=True: must be an integer, not bool",
                id="form-term-index-bool"),
            pytest.param(
                _g10_text(lambda obj: obj["structures"][0]["expected"]["down_components"][0]
                          .__setitem__("idx", [True, 2, 1, 2])),
                "catalog entry g10 is malformed: idx=True: must be an integer, not bool",
                id="component-index-bool"),
            pytest.param(
                _g10_text(lambda obj: obj["structures"][0]["expected"]["down_components"][0]
                          .__setitem__("idx", [1, 2, 1])),
                "catalog entry g10 is malformed: the component [1, 2, 1] does not have 4 indices",
                id="component-index-short"),
            pytest.param(
                _g10_text(lambda obj: obj["structures"][0]["expected"]["down_components"][0]
                          .__setitem__("idx", 5)),
                "catalog entry g10 is malformed: idx=5: must be a list, not int",
                id="component-index-not-a-list"),
            pytest.param(
                _g10_text(lambda obj: obj["algebra"]["brackets"][0].__setitem__("c", 1.5)),
                "catalog entry g10 is malformed: c=1.5: must be a string or an integer, not float",
                id="bracket-coefficient-float"),
            pytest.param(
                _g10_text(lambda obj: obj["structures"][0].__setitem__(
                    "canonical_binding", ["psi11", "psi12"])),
                "catalog entry g10 is malformed: a binding must be a mapping, not list",
                id="binding-not-an-object"),
        ],
    )
    @pytest.mark.parametrize(
        "argv",
        [("show", "g10"), ("verify", "g10"), ("export", "g10", "--format", "latex"),
         ("curvature", "g10", "--form", "w1", "--bind", "psi12=2")],
        ids=["show", "verify", "export-latex", "curvature"],
    )
    def test_catalog_load_failure_is_usage_error(
        self, capsys, monkeypatch, tmp_path, g10_text, fragment, argv
    ):
        if g10_text is None:
            tmp_path = tmp_path / "missing"
        else:
            # one byte a character, so "\xff" is a byte that is not UTF-8
            (tmp_path / "g10.json").write_bytes(g10_text.encode("latin-1"))
        monkeypatch.setenv("NILKAEHLER_CATALOG", str(tmp_path))
        rc, out, err = invoke(capsys, *argv)
        assert rc == 2
        assert out == "" and err.startswith("error: ")
        assert fragment in err

    @pytest.mark.parametrize(
        "edit,message",
        [(lambda exp: exp.pop("up_components"), "lacks the key 'up_components'"),
         (lambda exp: exp["metric"]["binding"].__setitem__("psi12", "1/0"),
          "is malformed: psi12=1/0: zero denominator"),
         (lambda exp: exp["down_components"].append(dict(exp["down_components"][0])),
          "is malformed: the component [1, 2, 1, 2] is given twice"),
         (lambda exp: exp["metric"]["entries"].append({"idx": [5, 1], "value": "17"}),
          "is malformed: the metric entry [5, 1] lies below the diagonal"),
         (lambda exp: exp["metric"]["entries"][0].__setitem__("idx", [1, 9]),
          "is malformed: the metric entry [1, 9] has the index 9, not in 1..6"),
         (lambda exp: exp["down_components"][0].__setitem__("idx", [1, 2, 1, 99]),
          "is malformed: the component [1, 2, 1, 99] has the index 99, not in 1..6"),
         (lambda exp: exp["metric"]["binding"].__setitem__("zzz", "1"),
          "is malformed: the metric binding names 'zzz', not one of the parameters"
          " ['psi11', 'psi12']")],
        ids=["missing-key", "metric-binding-division-by-zero", "repeated-component",
             "metric-below-diagonal", "metric-index-above-dim", "component-index-above-dim",
             "metric-binding-of-an-unknown-param"],
    )
    @pytest.mark.parametrize("argv", [("show", "g21"), ("verify", "g21")], ids=["show", "verify"])
    def test_bad_expectation_is_usage_error(self, capsys, monkeypatch, tmp_path, edit, message, argv):
        _write_g21(tmp_path, edit)
        monkeypatch.setenv("NILKAEHLER_CATALOG", str(tmp_path))
        rc, out, err = invoke(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err == f"error: catalog entry g21 {message}\n"


    @staticmethod
    def _g21_j1_wrong_value(exp):
        exp["down_components"][0]["value"] = "-7*psi12"

    @staticmethod
    def _g21_j1_claimed_flat(exp):
        exp["up_components"] = exp["down_components"] = []

    @staticmethod
    def _g21_j1_missing_component(exp):
        exp["down_components"] = []

    @pytest.mark.parametrize(
        "edit,expected",
        [
            ("_g21_j1_wrong_value", [
                "  FAIL J1 down components",
                "       J1 R_{1,2,1,2} = -7*psi12: computed -psi12",
            ]),
            ("_g21_j1_claimed_flat", [
                "  FAIL J1 up components",
                "  FAIL J1 down components",
                "       J1 R_{1,2,1,2} = -psi12: not in the data",
                "       J1 curvature identically zero: not matched",
            ]),
            ("_g21_j1_missing_component", [
                "  FAIL J1 down components",
                "       J1 R_{1,2,1,2} = -psi12: not in the data",
            ]),
        ],
    )
    def test_failed_expectation_is_not_reported_matched(
        self, capsys, monkeypatch, tmp_path, edit, expected
    ):
        _write_g21(tmp_path, getattr(self, edit))
        monkeypatch.setenv("NILKAEHLER_CATALOG", str(tmp_path))
        rc, out, _ = invoke(capsys, "verify", "g21")
        assert rc == 1
        lines = out.splitlines()
        assert all(line in lines for line in expected), out
        assert not any(line.endswith(": matched") for line in lines), out

    def test_a_failed_expectation_reads_the_validated_curvature(
        self, capsys, monkeypatch, tmp_path
    ):
        _write_g21(tmp_path, self._g21_j1_wrong_value)
        monkeypatch.setenv("NILKAEHLER_CATALOG", str(tmp_path))
        calls = []
        curvature = geometry.curvature
        monkeypatch.setattr(geometry, "curvature",
                            lambda *args: calls.append(args) or curvature(*args))
        rc, out, _ = invoke(capsys, "verify", "g21")
        assert rc == 1 and "       J1 R_{1,2,1,2} = -7*psi12: computed -psi12" in out
        assert len(calls) == len(catalog.get("g21").structures) == 1


class TestCurvature:
    def test_g24_canonical_binding(self, capsys):
        rc, out, _ = invoke(
            capsys,
            "curvature", "g24", "--form", "w1", "--structure", "J1",
            "--bind", "psi11=1", "psi12=1",
        )
        assert rc == 0
        report = json.loads(out)
        assert report["ricci_zero"] is True
        assert report["norm"] == "0"
        down = {tuple(c["idx"]): c["value"] for c in report["nonzero_down"]}
        assert down == {(1, 2, 1, 2): "1"}
        # the family's stored conditions, nothing from an elimination
        assert report["side_conditions"] == ["psi11", "psi12"]

    @pytest.mark.parametrize(
        "name,sid",
        [(n, s.id) for n in catalog.NAMES for s in catalog.get(n).structures],
    )
    def test_reported_conditions_are_honest(self, capsys, name, sid):
        # no constant, no duplicate up to a unit, none zero at the canonical binding
        s = catalog.get(name).structure(sid)
        rc, out, _ = invoke(capsys, "curvature", name, "--form", s.form_id, "--structure", sid)
        assert rc == 0
        conds = [parse_expr(c) for c in json.loads(out)["side_conditions"]]
        assert not any(c.is_constant() for c in conds)
        assert not any((a / b).is_constant() for a, b in combinations(conds, 2))
        assert not any(c.substitute(s.binding()).is_zero() for c in conds)

    def test_binding_drops_vanishing_components(self, capsys):
        # R_{1,2,2}^6 is nonzero as a function but vanishes at psi11 = 0
        rc, out, _ = invoke(
            capsys,
            "curvature", "g11", "--form", "w1",
            "--bind", "psi11=0", "psi12=1", "lambda=1",
        )
        assert rc == 0
        report = json.loads(out)
        up = {tuple(c["idx"]): c["value"] for c in report["nonzero_up"]}
        down = {tuple(c["idx"]): c["value"] for c in report["nonzero_down"]}
        assert up == {(1, 2, 1, 5): "-5", (1, 2, 1, 6): "5", (1, 2, 2, 5): "5"}
        assert down == {(1, 2, 1, 2): "-5"}

    def test_binding_accepts_fractions(self, capsys):
        rc, out, _ = invoke(
            capsys,
            "curvature", "g24", "--form", "w1", "--structure", "J1",
            "--bind", "psi11=1/2", "psi12=-2/3",
        )
        assert rc == 0
        assert json.loads(out)["binding"] == {"psi11": "1/2", "psi12": "-2/3"}

    def test_a_binding_is_reported_in_lowest_terms(self, capsys):
        rc, out, _ = invoke(capsys, "curvature", "g21", "--form", "w2", "--structure", "J1",
                            "--bind", "psi12=2/4")
        assert rc == 0
        assert json.loads(out)["binding"] == {"psi12": "1/2"}

    @pytest.mark.parametrize(
        "bind,message",
        [("psi11=0.5", "psi11='0.5': not an exact rational"),
         ("psi11=1/0", "psi11=1/0: zero denominator"),
         # refused by the parser's bound on exponents before any power is taken
         ("psi11=3^99999999", "psi11='3^99999999': not an exact rational")],
    )
    def test_a_bad_value_is_refused_as_the_binding_refuses_it(self, capsys, bind, message):
        rc, out, err = invoke(capsys, "curvature", "g24", "--form", "w1", "--structure", "J1",
                              "--bind", bind)
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    def test_each_structure_takes_its_own_names(self, capsys):
        # psi12 is a parameter of g12 J1 only, so J2 and J3 report free
        rc, out, _ = invoke(capsys, "curvature", "g12", "--form", "w1", "--bind", "psi12=2")
        assert rc == 0
        reports = json.loads(out)
        assert [(r["structure"], r.get("binding")) for r in reports] == [
            ("J1", {"psi12": "2"}), ("J2", None), ("J3", None)]
        for r, argv in zip(reports, [("--structure", "J1", "--bind", "psi12=2"),
                                     ("--structure", "J2"), ("--structure", "J3")]):
            rc, alone, _ = invoke(capsys, "curvature", "g12", "--form", "w1", *argv)
            assert rc == 0 and json.loads(alone) == r

    def test_a_name_of_no_structure_lists_every_parameter(self, capsys):
        rc, out, err = invoke(capsys, "curvature", "g12", "--form", "w1", "--bind", "zzz=1")
        assert (rc, out) == (2, "")
        assert err == ("error: unknown parameter 'zzz'; family parameters:"
                       " lambda, psi12, psi31, psi41, psi51, psi52\n")

    @pytest.mark.parametrize(
        "bind,fragment",
        [
            (["psi11=0.5"], "not an exact rational"),
            (["psi11=1/0"], "zero denominator"),
            (["zz=1"], "unknown parameter 'zz'"),
            (["psi11=1/2", "psi11=3"], "parameter 'psi11' is bound twice"),
            (["psi11=1", "psi12=0"], "violates side condition psi12 != 0"),
            (["psi11"], "binding must look like name=value, got 'psi11'"),
        ],
    )
    def test_bad_bindings_are_usage_errors(self, capsys, bind, fragment):
        rc, _, err = invoke(
            capsys,
            "curvature", "g24", "--form", "w1", "--structure", "J1",
            "--bind", *bind,
        )
        assert rc == 2
        assert fragment in err

    @pytest.mark.parametrize(
        "argv,message",
        [(("--form", "w2", "--structure", "J9"), "no structure 'J9' on g21/w2"),
         (("--form", "w1"), "g21/w1 carries no verified structure")],
        ids=["unknown-structure", "form-without-a-structure"],
    )
    def test_no_family_to_report_is_usage_error(self, capsys, argv, message):
        rc, out, err = invoke(capsys, "curvature", "g21", *argv)
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv,up,down",
        [
            (("g12", "--form", "w1", "--structure", "J3", "--bind", "lambda=3"),
             {(1, 2, 1, 5): "23/3", (1, 2, 1, 6): "-23*s/2", (1, 2, 2, 5): "23*s/6",
              (1, 2, 2, 6): "-23"},
             {(1, 2, 1, 2): "23*s/2"}),
            (("g10", "--form", "w1", "--bind", "psi11=3/2", "psi12=-2/3"),
             {(1, 2, 1, 5): "-27873/4928", (1, 2, 1, 6): "-40261/4928",
              (1, 2, 2, 5): "15485/11088", (1, 2, 2, 6): "3097/1232"},
             {(1, 2, 1, 2): "-3097/1848"}),
        ],
        ids=["g12-J3-sqrt2", "g10-J1-fractions"],
    )
    def test_bound_report_is_pinned(self, capsys, argv, up, down):
        # the family's curvature computed at the binding, printed exactly
        rc, out, _ = invoke(capsys, "curvature", *argv)
        assert rc == 0
        report = json.loads(out)
        assert {tuple(c["idx"]): c["value"] for c in report["nonzero_up"]} == up
        assert {tuple(c["idx"]): c["value"] for c in report["nonzero_down"]} == down
        assert report["ricci_zero"] is True and report["norm"] == "0"


class TestSolveAndSearch:
    def test_solve_linear_standard_symplectic(self, capsys, tmp_path):
        path = tmp_path / "wstd.json"
        path.write_text(json.dumps(W_STD))
        rc, out, _ = invoke(capsys, "solve-linear", str(path))
        assert rc == 0
        assert json.loads(out) == {"dimension": 21, "side_conditions": []}

    @pytest.mark.parametrize(
        "name,form_id,conditions",
        [("g12", "w1", ["lambda", "lambda + 1"]), ("g13", "w2", ["lambda"])],
    )
    def test_solve_linear_reports_form_conditions(
        self, capsys, tmp_path, name, form_id, conditions
    ):
        path = tmp_path / "form.json"
        path.write_text(json.dumps(catalog.get(name).form(form_id).form.to_json_dict()))
        rc, out, _ = invoke(capsys, "solve-linear", str(path))
        assert rc == 0
        assert json.loads(out) == {"dimension": 21, "side_conditions": conditions}

    def test_solve_linear_drops_a_sqrt2_unit_from_a_condition(self, capsys, tmp_path):
        path = tmp_path / "form.json"
        path.write_text(json.dumps(
            dict(W_STD, terms=[{"i": 1, "j": 2, "c": "s*(lambda+1)^2"}, *W_STD["terms"][1:]])))
        rc, out, _ = invoke(capsys, "solve-linear", str(path))
        assert rc == 0
        assert json.loads(out) == {"dimension": 21, "side_conditions": ["lambda^2 + 2*lambda + 1"]}

    def test_solve_linear_on_a_missing_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing.json"
        rc, out, err = invoke(capsys, "solve-linear", str(path))
        assert (rc, out, err) == (2, "", f"error: cannot read {path}: No such file or directory\n")

    def test_solve_linear_on_invalid_json_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "form.json"
        path.write_text('{"dim": ')
        rc, out, err = invoke(capsys, "solve-linear", str(path))
        assert (rc, out) == (2, "")
        assert err == f"error: {path} is not valid JSON: Expecting value: line 1 column 9 (char 8)\n"

    def test_solve_linear_on_a_file_that_is_not_utf8_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "form.json"
        path.write_bytes(b"\xff\xfe")
        rc, out, err = invoke(capsys, "solve-linear", str(path))
        assert (rc, out) == (2, "")
        assert err == (f"error: {path} is not valid JSON: 'utf-8' codec can't decode byte 0xff"
                       " in position 0: invalid start byte\n")

    def test_search_checks_the_algebra_before_it_opens_the_form(self, capsys, tmp_path):
        alg = tmp_path / "algebra.json"
        alg.write_text(json.dumps([1, 2]))
        rc, out, err = invoke(capsys, "search", str(alg), str(tmp_path / "missing.json"))
        assert (rc, out) == (2, "")
        assert err == "error: bad input file: a Lie algebra must be a JSON object, not list\n"

    def test_search_converges_on_abelian(self, capsys, tmp_path):
        alg = tmp_path / "abelian.json"
        form = tmp_path / "wstd.json"
        alg.write_text(json.dumps(ABELIAN))
        form.write_text(json.dumps(W_STD))
        rc, out, _ = invoke(capsys, "search", str(alg), str(form), "--starts", "5")
        assert rc == 0
        report = json.loads(out)
        assert report["status"] == "converged"
        assert report["residual"] <= 1e-9
        assert len(report["J"]) == 6

    def test_search_reports_failure(self, capsys, tmp_path):
        e = catalog.get("g21")
        alg = tmp_path / "g21.json"
        form = tmp_path / "w1.json"
        alg.write_text(json.dumps(e.algebra.to_json_dict()))
        form.write_text(json.dumps(e.form("w1").form.to_json_dict()))
        rc, out, _ = invoke(capsys, "search", str(alg), str(form), "--starts", "10")
        assert rc == 1
        assert json.loads(out)["status"] == "failed"

    @pytest.mark.parametrize(
        "argv,fragment",
        [
            (("solve-linear", {"dim": 6, "terms": [{"i": 1, "j": 2, "c": "1/0"}]}),
             "bad form file: division by the zero polynomial (at position 1) in '1/0'"),
            (("solve-linear", [1, 2]), "bad form file: a 2-form must be a JSON object, not list"),
            (("search", ABELIAN, [1, 2]),
             "bad input file: a 2-form must be a JSON object, not list"),
            (("search", [1, 2], W_STD),
             "bad input file: a Lie algebra must be a JSON object, not list"),
            (("search", {"dim": 6, "brackets": [{"i": 1, "j": 2, "k": 3, "c": "2/(1-1)"}]},
              W_STD),
             "bad input file: division by the zero polynomial (at position 1) in '2/(1-1)'"),
            (("search", ABELIAN, {"dim": 2, "terms": [{"i": 1, "j": 2, "c": "1"}]}),
             "the form has dimension 2, the algebra 6"),
            (("search", ABELIAN, {"dim": 6, "terms": [{"i": 1, "j": 2, "c": "1"}]}),
             "the form TwoForm(e1^e2) is degenerate"),
            (("solve-linear", dict(W_STD, dim=6.9)),
             "bad form file: dim=6.9: must be an integer, not float"),
            (("solve-linear", dict(W_STD, terms=[{"i": True, "j": 2, "c": "1"}])),
             "bad form file: i=True: must be an integer, not bool"),
            (("search", dict(ABELIAN, dim="6"), W_STD),
             "bad input file: dim='6': must be an integer, not str"),
            (("search", dict(ABELIAN, brackets=[{"i": 1, "j": 2, "k": 3.0, "c": "1"}]), W_STD),
             "bad input file: k=3.0: must be an integer, not float"),
            (("search", ABELIAN, dict(W_STD, terms=[{"i": 1, "j": 2.0, "c": "1"}])),
             "bad input file: j=2.0: must be an integer, not float"),
            (("solve-linear", {"dim": 0, "terms": []}),
             "bad form file: dimension must be positive"),
            (("solve-linear", {"dim": -1, "terms": []}),
             "bad form file: dimension must be positive"),
            (("search", ABELIAN, {"dim": -1, "terms": []}),
             "bad input file: dimension must be positive"),
            (("solve-linear", dict(W_STD, terms=[[1, 2, "1"]])),
             "bad form file: terms: must be an object, not list"),
            (("search", dict(ABELIAN, brackets=[5]), W_STD),
             "bad input file: brackets: must be an object, not int"),
        ],
        ids=["solve-zero-denominator", "solve-form-list", "search-form-list",
             "search-algebra-list", "search-zero-division", "search-dimension-mismatch",
             "search-degenerate-form", "solve-dim-float", "solve-term-index-bool",
             "search-algebra-dim-str", "search-bracket-index-float",
             "search-form-term-index-float", "solve-dim-zero", "solve-dim-negative",
             "search-form-dim-negative", "solve-term-not-an-object",
             "search-bracket-not-an-object"],
    )
    def test_malformed_input_file_is_usage_error(self, capsys, tmp_path, argv, fragment):
        command, *objects = argv
        paths = [tmp_path / f"input{k}.json" for k in range(len(objects))]
        for path, obj in zip(paths, objects):
            path.write_text(json.dumps(obj))
        rc, out, err = invoke(capsys, command, *map(str, paths))
        assert rc == 2
        assert out == ""
        assert err == f"error: {fragment}\n"

    @pytest.mark.parametrize(
        "flag,fragment",
        [
            ("--starts=-3", "max_starts"),
            ("--starts=0", "max_starts"),
            ("--tol=0", "tolerance"),
            ("--tol=-1e-9", "tolerance"),
            ("--tol=nan", "tolerance"),
            ("--tol=inf", "tolerance"),
        ],
    )
    def test_bad_search_input_is_usage_error(self, capsys, tmp_path, flag, fragment):
        alg = tmp_path / "abelian.json"
        form = tmp_path / "wstd.json"
        alg.write_text(json.dumps(ABELIAN))
        form.write_text(json.dumps(W_STD))
        rc, out, err = invoke(capsys, "search", str(alg), str(form), flag)
        assert rc == 2
        assert out == ""
        assert fragment in err


class TestExport:
    def test_latex_matches_printed_metric_layout(self, capsys):
        rc, out, _ = invoke(capsys, "export", "g21", "--format", "latex")
        assert rc == 0
        flat = " ".join(out.split())
        assert " ".join(G21_METRIC_LATEX.split()) in flat
        assert r"R_{1,2,1,2} = -\psi_{12}" in flat

    @pytest.mark.parametrize("name", ["g14", "g25"])
    def test_latex_of_a_flat_family_says_r_vanishes(self, capsys, name):
        rc, out, _ = invoke(capsys, "export", name, "--format", "latex")
        assert rc == 0
        lines = out.splitlines()
        assert lines.count(r"\[ R \equiv 0 \]") == len(catalog.get(name).structures)
        assert not any(line.startswith(r"\[ R_{") for line in lines)

    def test_json_round_trips_the_data_file(self, capsys):
        rc, out, _ = invoke(capsys, "export", "g21", "--format", "json")
        assert rc == 0
        assert out == (DATA / "g21.json").read_text()
        payload = json.loads(out)
        assert {f["id"] for f in payload["forms"]} == {"w1", "w2"}
        # the curvature each structure must reproduce is in the same file
        assert payload["structures"][0]["expected"]["down_components"] == [
            {"idx": [1, 2, 1, 2], "value": "-psi12"}]

    def test_csv_lists_curvature_rows(self, capsys):
        rc, out, _ = invoke(capsys, "export", "g21", "--format", "csv")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "entry,form,structure,kind,idx,value"
        assert 'g21,w2,J1,down,1 2 1 2,"-psi12"' in lines

    def test_unknown_format_is_usage_error(self, capsys):
        rc, _, err = invoke(capsys, "export", "g21", "--format", "yaml")
        assert rc == 2


class TestIncompatibleStructure:
    @pytest.mark.parametrize(
        "name,k,argv",
        [
            ("g21", 0, ("curvature", "g21", "--form", "w2")),
            ("g21", 0, ("export", "g21", "--format", "latex")),
            # g12 J1 is sound, so a partial export would print it first
            ("g12", 1, ("export", "g12", "--format", "latex")),
        ],
    )
    def test_is_a_verification_failure(self, capsys, monkeypatch, tmp_path, name, k, argv):
        # J + E_11 is still loaded, but omega(X, JY) is not symmetric
        obj = json.loads((DATA / f"{name}.json").read_text())
        s = obj["structures"][k]
        s["J"]["rows"][0][0] = f"{s['J']['rows'][0][0]}+1"
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
        monkeypatch.setenv("NILKAEHLER_CATALOG", str(tmp_path))
        rc, out, err = invoke(capsys, *argv)
        assert rc == 1
        assert out == ""
        assert err == (f"error: {name} {s['id']} on {s['form']}: omega(X, JY) is not symmetric:"
                       " the pair is not compatible\n")


class TestDegenerateForm:
    def test_verify_reports_it_without_curvature_checks(self, capsys, monkeypatch, tmp_path):
        # an abelian g10 whose form e1^e2 + e3^e4 the standard J preserves
        obj = json.loads((DATA / "g10.json").read_text())
        obj["algebra"]["brackets"] = []
        obj["forms"][0]["form"]["terms"] = [{"i": 1, "j": 2, "c": "1"}, {"i": 3, "j": 4, "c": "1"}]
        obj["structures"][0]["J"]["rows"] = [  # J e1 = e2, J e3 = e4, J e5 = e6
            ["0", "1", "0", "0", "0", "0"], ["-1", "0", "0", "0", "0", "0"],
            ["0", "0", "0", "1", "0", "0"], ["0", "0", "-1", "0", "0", "0"],
            ["0", "0", "0", "0", "0", "1"], ["0", "0", "0", "0", "-1", "0"]]
        # a J free of parameters: no binding or side conditions
        obj["structures"][0].update(canonical_binding={}, side_conditions=[])
        (tmp_path / "g10.json").write_text(json.dumps(obj))
        monkeypatch.setenv("NILKAEHLER_CATALOG", str(tmp_path))
        rc, out, err = invoke(capsys, "verify", "g10")
        assert (rc, err) == (1, "")
        checks = [line for line in out.splitlines() if line.startswith("  ") and line[2] != " "]
        assert checks == [
            "  ok   jacobi", "  ok   nilpotent", "  ok   w1 closed", "  FAIL w1 nondegenerate",
            "  ok   w1 omega(C1, Z) = 0", "  ok   J1 compatibility",
            "  ok   J1 almost_complex", "  ok   J1 integrability"]


class TestUsage:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run([]) == 2

    def test_unknown_command_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 2

    @pytest.mark.parametrize(
        "command", ["list", "show", "verify", "curvature", "solve-linear", "search", "export"])
    def test_each_command_has_help(self, capsys, command):
        rc, out, _ = invoke(capsys, command, "--help")
        assert rc == 0
        assert out.startswith(f"usage: nilkaehler {command}")

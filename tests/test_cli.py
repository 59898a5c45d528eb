import json
import pathlib
import shutil
from itertools import combinations

import pytest

from nilkaehler import catalog
from nilkaehler.cli import run
from nilkaehler.scalar import parse_expr


DATA = pathlib.Path(catalog.__file__).parent / "data"


def _g10_text(edit):
    """The stored g10.json with ``edit`` applied to its parsed object."""
    obj = json.loads((DATA / "g10.json").read_text())
    edit(obj)
    return json.dumps(obj)


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
        ],
    )
    @pytest.mark.parametrize("argv", [("verify", "g10"), ("export", "g10", "--format", "latex")],
                             ids=["verify", "export-latex"])
    def test_catalog_load_failure_is_usage_error(
        self, capsys, monkeypatch, tmp_path, g10_text, fragment, argv
    ):
        if g10_text is None:
            tmp_path = tmp_path / "missing"
        else:
            shutil.copy(DATA / "expectations.json", tmp_path)
            (tmp_path / "g10.json").write_text(g10_text)
        monkeypatch.setenv("NILKAEHLER_CATALOG", str(tmp_path))
        rc, out, err = invoke(capsys, *argv)
        assert rc == 2
        assert out == "" and err.startswith("error: ")
        assert fragment in err


    @staticmethod
    def _g21_j1_wrong_value(rec):
        rec["down_components"][0]["value"] = "-7*psi12"
        rec["flat"] = True

    @staticmethod
    def _g21_j1_missing_component(rec):
        rec["down_components"] = []

    @pytest.mark.parametrize(
        "edit,expected",
        [
            ("_g21_j1_wrong_value", [
                "  FAIL J1 down components",
                "  FAIL J1 flat",
                "       J1 R_{1,2,1,2} = -7*psi12: computed -psi12",
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
        records = json.loads((DATA / "expectations.json").read_text())
        for rec in records:
            if (rec["entry"], rec["structure"]) == ("g21", "J1"):
                getattr(self, edit)(rec)
        (tmp_path / "expectations.json").write_text(json.dumps(records))
        shutil.copy(DATA / "g21.json", tmp_path)
        monkeypatch.setenv("NILKAEHLER_CATALOG", str(tmp_path))
        rc, out, _ = invoke(capsys, "verify", "g21")
        assert rc == 1
        lines = out.splitlines()
        assert all(line in lines for line in expected), out
        assert not any(line.endswith(": matched") for line in lines), out


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

    @pytest.mark.parametrize(
        "bind,fragment",
        [
            (["psi11=0.5"], "not an exact rational"),
            (["psi11=1/0"], "zero denominator"),
            (["zz=1"], "unknown parameter 'zz'"),
            (["psi11=1/2", "psi11=3"], "parameter 'psi11' is bound twice"),
            (["psi11=1", "psi12=0"], "violates side condition psi12 != 0"),
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

    def test_json_round_trips_the_data_file(self, capsys):
        rc, out, _ = invoke(capsys, "export", "g21", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["name"] == "g21"
        assert {f["id"] for f in payload["forms"]} == {"w1", "w2"}

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
        shutil.copy(DATA / "expectations.json", tmp_path)
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


class TestUsage:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run([]) == 2

    def test_unknown_command_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 2

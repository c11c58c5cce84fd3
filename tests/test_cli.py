import json
import subprocess
import sys

import pytest

from tetradkit.cli import main
from tetradkit.runner import CHECK_NAMES
from tetradkit.scenarios import builtin_document

from test_scenarios import minimal_document


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestListAndDump:
    def test_list_checks(self, capsys):
        code, out, _ = run_main(["check", "--list-checks"], capsys)
        assert code == 0
        for name in CHECK_NAMES:
            assert name in out

    def test_dump_builtin(self, capsys):
        code, out, _ = run_main(["check", "--builtin", "flrw", "--dump"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["name"] == "flrw"
        assert doc["connection"] == "levi-civita"

    def test_dump_output_is_loadable(self, capsys, tmp_path):
        code, out, _ = run_main(["check", "--builtin", "minkowski", "--dump"], capsys)
        assert code == 0
        path = tmp_path / "dumped.json"
        path.write_text(out)
        code, out, _ = run_main(["check", str(path), "--points", "2"], capsys)
        assert code == 0
        assert "overall: PASS" in out


class TestCheckRuns:
    def test_builtin_pass(self, capsys):
        code, out, _ = run_main(
            ["check", "--builtin", "minkowski", "--points", "3"], capsys
        )
        assert code == 0
        assert "overall: PASS" in out

    def test_json_to_stdout(self, capsys):
        code, out, _ = run_main(
            ["check", "--builtin", "minkowski", "--points", "2", "--json", "-"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == "1"
        assert doc["overall_pass"] is True

    def test_json_to_file_alongside_text(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_main(
            ["check", "--builtin", "minkowski", "--points", "2", "--json", str(path)],
            capsys,
        )
        assert code == 0
        assert "overall: PASS" in out
        assert json.loads(path.read_text())["overall_pass"] is True

    def test_check_subset_and_seed(self, capsys):
        code, out, _ = run_main(
            [
                "check",
                "--builtin",
                "random-fields",
                "--points",
                "4",
                "--seed",
                "9",
                "--checks",
                "second-bianchi,first-bianchi",
            ],
            capsys,
        )
        assert code == 0
        lines = [line.split()[0] for line in out.splitlines()[2:4]]
        assert lines == ["first-bianchi", "second-bianchi"]

    def test_determinism_through_the_cli(self, capsys):
        argv = ["check", "--builtin", "flat-contorsion", "--points", "5", "--json", "-"]
        code_a, out_a, _ = run_main(argv, capsys)
        code_b, out_b, _ = run_main(argv, capsys)
        assert code_a == code_b == 0
        doc_a = json.loads(out_a)
        doc_b = json.loads(out_b)
        doc_a.pop("wall_time_seconds")
        doc_b.pop("wall_time_seconds")
        assert doc_a == doc_b

    def test_failing_run_exits_one(self, capsys, tmp_path):
        doc = builtin_document("schwarzschild")
        doc["tetrad"][3][3] = "sqrt(1 - 2*M/r) + 0.001"
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_main(
            [
                "check",
                str(path),
                "--points",
                "5",
                "--checks",
                "component-field-equations",
            ],
            capsys,
        )
        assert code == 1
        assert "FAIL" in out

    def test_tolerance_override_can_fail_a_run(self, capsys):
        code, out, _ = run_main(
            [
                "check",
                "--builtin",
                "minkowski",
                "--points",
                "2",
                "--tol",
                "d2-law=1e-30",
            ],
            capsys,
        )
        assert code == 1
        assert "overall: FAIL" in out


class TestUsageErrors:
    def test_no_scenario(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["check"])
        assert info.value.code == 2

    def test_both_scenario_and_builtin(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(minimal_document()))
        with pytest.raises(SystemExit) as info:
            main(["check", str(path), "--builtin", "minkowski"])
        assert info.value.code == 2

    def test_dump_without_builtin(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(minimal_document()))
        with pytest.raises(SystemExit) as info:
            main(["check", str(path), "--dump"])
        assert info.value.code == 2

    def test_unknown_builtin(self, capsys):
        code, _, err = run_main(["check", "--builtin", "kerr"], capsys)
        assert code == 2
        assert "no builtin scenario" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_main(["check", str(tmp_path / "absent.json")], capsys)
        assert code == 2
        assert "cannot read" in err

    def test_invalid_scenario_reports_entry(self, capsys, tmp_path):
        doc = minimal_document()
        doc["connection"]["entries"] = {"00": ["1", "0", "0", "0"]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_main(["check", str(path)], capsys)
        assert code == 2
        assert "omega^{00}" in err

    def test_zero_kappa_reported_as_usage_error(self, capsys, tmp_path):
        path = tmp_path / "kappa.json"
        path.write_text(json.dumps(minimal_document(kappa=0)))
        code, _, err = run_main(["check", str(path)], capsys)
        assert code == 2
        assert err.startswith("error: ") and "kappa must be nonzero" in err

    @pytest.mark.parametrize("text", ['"kappa": NaN', '"lambda_cc": Infinity'])
    def test_non_finite_number_reported_as_usage_error(self, capsys, tmp_path, text):
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(minimal_document())[:-1] + ", " + text + "}")
        code, out, err = run_main(["check", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "must be a finite number" in err

    def test_bad_tol_syntax(self, capsys):
        code, _, err = run_main(
            ["check", "--builtin", "minkowski", "--tol", "nonsense"], capsys
        )
        assert code == 2
        assert "NAME=VALUE" in err

    def test_unknown_check_name(self, capsys):
        code, _, err = run_main(
            ["check", "--builtin", "minkowski", "--checks", "third-bianchi"], capsys
        )
        assert code == 2
        assert "unknown check name" in err


class TestConsoleScript:
    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tetradkit.cli", "check", "--builtin", "minkowski", "--points", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "overall: PASS" in proc.stdout

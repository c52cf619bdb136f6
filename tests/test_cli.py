import json

import numpy as np
import pytest

from certground import sdp
from certground.cli import run


def run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


class TestAnderson:
    def test_json_report(self, capsys):
        code, out = run_capture(capsys, ["anderson", "--model", "heisenberg",
                                         "--m", "15"])
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "anderson"
        assert abs(doc["lower"] + 0.916702927) < 1e-6
        assert doc["guarantee_width"] > 0
        assert doc["certified"] is True

    @pytest.mark.parametrize("m, iterations", [(6, 20), (15, 54)])
    def test_reports_eigensolver_iterations(self, capsys, m, iterations):
        # Lanczos steps at seed 0, on both sides of DENSE_CAP
        code, out = run_capture(capsys, ["anderson", "--model", "heisenberg",
                                         "--m", str(m)])
        assert code == 0
        assert json.loads(out)["diagnostics"]["iterations"] == iterations

    @pytest.mark.parametrize("m, minimality", [(6, "cholesky"), (13, "unverified")])
    def test_reports_minimality(self, capsys, m, minimality):
        code, out = run_capture(capsys, ["anderson", "--model", "heisenberg",
                                         "--m", str(m)])
        assert code == 0
        doc = json.loads(out)
        diagnostics = doc["diagnostics"]
        assert diagnostics["minimality"] == minimality
        assert diagnostics["lambda_min_certified"] <= diagnostics["lambda_min_patch"]
        assert abs(doc["lower"] - diagnostics["lambda_min_certified"] / (m - 1)) < 1e-11

    def test_deterministic_output(self, capsys):
        _, a = run_capture(capsys, ["anderson", "--model", "heisenberg", "--m", "6"])
        _, b = run_capture(capsys, ["anderson", "--model", "heisenberg", "--m", "6"])
        assert a == b


class TestMarginalMoment:
    def test_marginal(self, capsys):
        code, out = run_capture(capsys, ["marginal", "--model", "heisenberg",
                                         "--m", "5", "--s", "1"])
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["lower"] + 0.934258546) < 1e-6
        assert doc["certified"] is True

    def test_marginal_reports_solver_status(self, capsys):
        code, out = run_capture(capsys, ["marginal", "--model", "heisenberg",
                                         "--m", "4", "--s", "1"])
        assert code == 0
        diagnostics = json.loads(out)["diagnostics"]
        assert diagnostics["status"] == "optimal"
        assert diagnostics["stalled"] is False

    def test_marginal_reports_stall(self, capsys, monkeypatch):
        solve = sdp.solve

        def stalled_solve(*args, **kwargs):
            sol = solve(*args, **kwargs)
            sol.diagnostics["stalled"] = True
            return sol

        monkeypatch.setattr(sdp, "solve", stalled_solve)
        code, out = run_capture(capsys, ["marginal", "--model", "heisenberg",
                                         "--m", "4", "--s", "1"])
        assert code == 0
        assert json.loads(out)["diagnostics"]["stalled"] is True

    def test_wrap_not_certified(self, capsys):
        code, out = run_capture(capsys, ["marginal", "--model", "heisenberg",
                                         "--m", "3", "--s", "1", "--mode", "wrap"])
        assert code == 0
        assert json.loads(out)["certified"] is False

    def test_moment(self, capsys):
        code, out = run_capture(capsys, ["moment", "--model", "heisenberg",
                                         "--l", "2"])
        assert code == 0
        assert abs(json.loads(out)["lower"] + 1.5) < 1e-6


class TestSweep:
    def test_anderson_csv(self, capsys, tmp_path):
        p = tmp_path / "sweep.csv"
        code = run(["sweep", "--model", "heisenberg", "--method", "anderson",
                    "--m", "2..4", "--csv", str(p), "--jobs", "2"])
        assert code == 0
        lines = p.read_text().strip().split("\n")
        assert lines[0].startswith("model,D,m,")
        assert len(lines) == 4  # header + three rows

    def test_bad_range(self, capsys):
        code = run(["sweep", "--model", "heisenberg", "--method", "anderson",
                    "--m", "5..2"])
        assert code == 2

    def test_missing_args(self, capsys):
        code = run(["sweep", "--model", "heisenberg", "--method", "moment"])
        assert code == 2


class TestSandwich:
    def test_composed_report(self, capsys):
        code, out = run_capture(capsys, [
            "sandwich", "--model", "heisenberg", "--anderson-m", "6",
            "--moment-l", "2", "--marginal", "m=5,s=2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["lower_method"] == "marginal"
        assert abs(doc["lower"] + 0.934258546) < 1e-6
        assert abs(doc["upper"] + 0.5) < 1e-6
        assert len(doc["rows"]) == 3

    def test_needs_a_method(self, capsys):
        code = run(["sandwich", "--model", "heisenberg"])
        assert code == 2


class TestMisc:
    def test_models_list(self, capsys):
        code, out = run_capture(capsys, ["models"])
        assert code == 0
        assert "heisenberg" in json.loads(out)["models"]

    def test_oracle(self, capsys):
        code, out = run_capture(capsys, ["oracle", "--model", "heisenberg",
                                         "--n", "4"])
        assert code == 0
        assert abs(json.loads(out)["density"] + 1.0) < 1e-9

    def test_model_file(self, capsys, tmp_path):
        doc = {"name": "zz", "d": 2, "D": 1,
               "term": {"pauli_sum": [{"paulis": "ZZ", "coeff": 1.0}]}}
        p = tmp_path / "model.json"
        p.write_text(json.dumps(doc))
        code, out = run_capture(capsys, ["moment", "--model-file", str(p),
                                         "--l", "2"])
        assert code == 0
        assert abs(json.loads(out)["lower"] + 1.0) < 1e-6

    def test_bad_model_file(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{broken")
        code = run(["anderson", "--model-file", str(p), "--m", "3"])
        assert code == 2

    @pytest.mark.parametrize("argv", [["anderson", "--m", "3"],
                                      ["marginal", "--m", "4", "--s", "1"],
                                      ["moment", "--l", "2"],
                                      ["sandwich", "--anderson-m", "4"]])
    def test_non_finite_model_file(self, capsys, tmp_path, argv):
        entries = [[0.0, 0.0]] * 16
        entries[5] = [float("nan"), 0.0]
        p = tmp_path / "nan.json"
        p.write_text(json.dumps({"name": "nan", "d": 2, "D": 1,
                                 "term": {"dense": entries}}))
        code = run(argv + ["--model-file", str(p)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_no_model(self, capsys):
        code = run(["anderson", "--m", "3"])
        assert code == 2

    def test_linalg_breakdown_is_solver_failure(self, capsys, monkeypatch):
        # LinAlgError subclasses ValueError but must not read as a validation error
        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        monkeypatch.setattr(sdp, "solve", broken)
        code = run(["marginal", "--model", "heisenberg", "--m", "4", "--s", "1"])
        assert code == 3
        assert "solver failure" in capsys.readouterr().err

    def test_json_file_output(self, capsys, tmp_path):
        p = tmp_path / "out.json"
        code = run(["anderson", "--model", "heisenberg", "--m", "3",
                    "--json", str(p)])
        assert code == 0
        assert abs(json.loads(p.read_text())["lower"] + 1.0) < 1e-9

import json
import time

import numpy as np
import pytest

from certground import cli, reports, sdp
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

    @pytest.mark.parametrize("m, iterations", [(6, 7), (15, 44), (17, 50)])
    def test_reports_eigensolver_iterations(self, capsys, m, iterations):
        # Lanczos steps at seed 0 in the reduced S^z = 0 block, on both sides of DENSE_CAP
        code, out = run_capture(capsys, ["anderson", "--model", "heisenberg",
                                         "--m", str(m)])
        assert code == 0
        assert json.loads(out)["diagnostics"]["iterations"] == iterations

    @pytest.mark.parametrize("m, steps", [(6, 1), (15, 2)])
    def test_reports_reorthogonalized_steps(self, capsys, m, steps):
        # Lanczos steps that read the stored basis, at seed 0
        code, out = run_capture(capsys, ["anderson", "--model", "heisenberg",
                                         "--m", str(m)])
        assert code == 0
        assert json.loads(out)["diagnostics"]["reorthogonalized_steps"] == steps

    # Heisenberg solves one gauged S^z block, reduced by reflection (x flip for
    # even m): 3235 at m = 15 and 3299 at m = 16 <= DENSE_CAP < 12190 at m = 17
    @pytest.mark.parametrize("m, minimality", [(6, "cholesky"), (13, "cholesky"),
                                               (15, "cholesky"), (16, "cholesky"),
                                               (17, "unverified")])
    def test_reports_minimality(self, capsys, m, minimality):
        code, out = run_capture(capsys, ["anderson", "--model", "heisenberg",
                                         "--m", str(m)])
        assert code == 0
        doc = json.loads(out)
        diagnostics = doc["diagnostics"]
        assert diagnostics["minimality"] == minimality
        assert diagnostics["lambda_min_certified"] <= diagnostics["lambda_min_patch"]
        assert abs(doc["lower"] - diagnostics["lambda_min_certified"] / (m - 1)) < 1e-11

    def test_reports_sectors(self, capsys):
        # xxz(0.5) at m = 6: the S^z sectors q <= 3, gauged; the largest is
        # q = 2 under reflection, (C(6, 2) + 3) / 2 = 9 states
        code, out = run_capture(capsys, ["anderson", "--model", "xxz", "--params", "0.5",
                                         "--m", "6"])
        assert code == 0
        diagnostics = json.loads(out)["diagnostics"]
        assert (diagnostics["sectors"], diagnostics["sector_dim"]) == (4, 9)

    @pytest.mark.parametrize("argv, symmetry, exact", [
        (["--model", "heisenberg", "--m", "6"], ["su2", "sign_gauge", "reflection", "flip"],
         False),
        (["--model", "xxz", "--params", "0.5", "--m", "6"],
         ["u1", "sign_gauge", "reflection", "flip"], False),
        (["--model", "xxz", "--params", "0.5", "--m", "3", "--dim", "2"], ["u1"], True),
        (["--model", "tfim", "--params", "1", "--m", "6"], ["reflection", "flip"], False),
        (["--model", "random_twosite", "--params", "3", "--m", "6"], [], False),
    ], ids=["heisenberg", "xxz", "xxz-2d-odd", "tfim", "random_twosite"])
    def test_reports_symmetry_and_margin(self, capsys, argv, symmetry, exact):
        code, out = run_capture(capsys, ["anderson"] + argv)
        assert code == 0
        diagnostics = json.loads(out)["diagnostics"]
        assert diagnostics["symmetry"] == symmetry
        # dyadic charge-only blocks are summed exactly; everything else pays a margin
        assert (diagnostics["assembly_margin"] == 0) == exact
        assert 0 <= diagnostics["assembly_margin"] < 1e-11

    def test_unverified_patch_is_not_certified(self, capsys):
        # the S^z = 0 block at m = 17 exceeds DENSE_CAP, so minimality is unproven
        code, out = run_capture(capsys, ["anderson", "--model", "heisenberg", "--m", "17"])
        assert code == 0
        doc = json.loads(out)
        assert doc["diagnostics"]["minimality"] == "unverified"
        assert doc["certified"] is False

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

    @pytest.mark.parametrize("argv, constraints", [
        (["--model", "heisenberg", "--m", "5", "--s", "2"], 23),
        (["--model", "heisenberg", "--m", "6", "--s", "1"], 14),
        (["--model", "random_twosite", "--params", "3", "--m", "4", "--s", "1"], 28),
        (["--model", "random_twosite", "--params", "3", "--m", "4", "--s", "2"], 1)])
    def test_marginal_reports_independent_rows(self, capsys, argv, constraints):
        # the builder emits independent rows, so nothing is pruned; a second
        # run prints the same bytes (the diagnostics hold no timing)
        outs = [run_capture(capsys, ["marginal"] + argv) for _ in range(2)]
        assert outs[0] == outs[1]
        code, out = outs[0]
        assert code == 0
        diagnostics = json.loads(out)["diagnostics"]
        assert diagnostics["constraints"] == constraints
        assert diagnostics["pruned_constraints"] == 0
        assert isinstance(diagnostics["schur_fallback"], bool)

    @pytest.mark.parametrize("argv, blocks, symmetry", [
        (["--model", "heisenberg", "--m", "5", "--s", "2"], [1, 5, 10], ["u1", "flip"]),
        (["--model", "heisenberg", "--m", "6", "--s", "1"], [1, 6, 15, 20], ["u1", "flip"]),
        (["--model", "tfim", "--params", "1", "--m", "4", "--s", "1"], [16], []),
        (["--model", "random_twosite", "--params", "3", "--m", "4", "--s", "2"], [32], [])])
    def test_marginal_reports_blocks_and_symmetry(self, capsys, argv, blocks, symmetry):
        # the SDP blocks solved (real-embedded for complex models) and the
        # symmetries that produced them
        code, out = run_capture(capsys, ["marginal"] + argv)
        assert code == 0
        diagnostics = json.loads(out)["diagnostics"]
        assert diagnostics["blocks"] == blocks
        assert diagnostics["symmetry"] == symmetry

    @pytest.mark.parametrize("argv, exact", [
        (["--model", "heisenberg", "--m", "5", "--s", "2"], True),
        (["--model", "tfim", "--params", "1", "--m", "4", "--s", "1"], True),
        (["--model", "random_twosite", "--params", "3", "--m", "4", "--s", "2"], False)])
    def test_marginal_reports_assembly_margin(self, capsys, argv, exact):
        # dyadic terms are assembled exactly; a random term pays a margin
        code, out = run_capture(capsys, ["marginal"] + argv)
        assert code == 0
        margin = json.loads(out)["diagnostics"]["assembly_margin"]
        assert (margin == 0) == exact
        assert 0 <= margin < 1e-13

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

    def test_moment_reports_solver_iterations(self, capsys):
        code, out = run_capture(capsys, ["moment", "--model", "heisenberg",
                                         "--l", "2"])
        assert code == 0
        assert json.loads(out)["diagnostics"]["iterations"] == 8

    def test_moment_reports_solve_counts(self, capsys):
        code, out = run_capture(capsys, ["moment", "--model", "heisenberg",
                                         "--l", "2"])
        assert code == 0
        diagnostics = json.loads(out)["diagnostics"]
        # the trace row and X, Z on site 1 minus site 0; Y's row is imaginary
        assert diagnostics["constraints"] == 3
        assert diagnostics["variables"] == 13
        assert diagnostics["stalled"] is False
        assert diagnostics["schur_fallback"] is False
        assert diagnostics["pruned_constraints"] == 0

    def test_moment_reports_matrix_and_block_sizes(self, capsys):
        code, out = run_capture(capsys, ["moment", "--model", "heisenberg",
                                         "--l", "3"])
        assert code == 0
        diagnostics = json.loads(out)["diagnostics"]
        assert diagnostics["matrix_size"] == 64
        assert diagnostics["psd_block"] == 8  # rho on 3 sites, real
        assert diagnostics["constraints"] == 10
        assert "negative_part" not in diagnostics


    def test_moment_reports_stall(self, capsys):
        # tfim(1) at l = 4 ends max_iter after 17 iterations, short of the
        # default tolerances; the flag follows the status, as for marginal
        code, out = run_capture(capsys, ["moment", "--model", "tfim", "--params", "1",
                                         "--l", "4"])
        assert code == 0
        diagnostics = json.loads(out)["diagnostics"]
        keys = list(diagnostics)
        assert keys.index("stalled") == keys.index("status") + 1
        assert (diagnostics["status"], diagnostics["stalled"]) == ("max_iter", True)


SWEEPS = {
    "anderson": (["--m", "3..4"], [["--m", "3"], ["--m", "4"]]),
    "marginal": (["--m", "4..5", "--s", "1"], [["--m", "4", "--s", "1"],
                                                ["--m", "5", "--s", "1"]]),
    "moment": (["--l", "2..3"], [["--l", "2"], ["--l", "3"]]),
}


class TestSweep:
    @pytest.mark.parametrize("method", sorted(SWEEPS))
    def test_rows_follow_the_column_table(self, capsys, tmp_path, method):
        # every row has its method's CSV columns in order, and the certified
        # column is the `lower` that the single command reports
        sweep_argv, points = SWEEPS[method]
        model = ["--model", "xxz", "--params", "0.5"]
        code, out = run_capture(capsys, ["sweep", "--method", method] + model + sweep_argv)
        assert code == 0
        rows = json.loads(out)["rows"]
        columns = reports.CSV_COLUMNS[method]
        assert [list(row) for row in rows] == [list(columns)] * len(points)
        for row, point in zip(rows, points):
            code, out = run_capture(capsys, [method] + model + point)
            assert code == 0
            assert row[reports.CERTIFIED_COLUMN[method]] == json.loads(out)["lower"]
        p = tmp_path / "sweep.csv"
        assert run(["sweep", "--method", method] + model + sweep_argv + ["--csv", str(p)]) == 0
        assert p.read_text().split("\n")[0] == ",".join(columns)

    def test_failed_anderson_point_is_recorded(self, capsys, monkeypatch, tmp_path):
        # a point whose solve fails gets an error row, and the sweep goes on
        solve = cli.anderson.anderson_bound

        def fails_at_3(model, m, *args, **kwargs):
            if m == 3:
                raise RuntimeError("Lanczos did not converge")
            return solve(model, m, *args, **kwargs)

        monkeypatch.setattr(cli.anderson, "anderson_bound", fails_at_3)
        code, out = run_capture(capsys, ["sweep", "--method", "anderson", "--model",
                                         "heisenberg", "--m", "2..3"])
        assert code == 0
        solved, failed = json.loads(out)["rows"]
        assert failed == {"m": 3, "D": 1, "error": "Lanczos did not converge"}
        assert solved["certified_bound"] == -1.5
        p = tmp_path / "sweep.csv"
        assert run(["sweep", "--method", "anderson", "--model", "heisenberg",
                    "--m", "2..3", "--csv", str(p)]) == 0
        assert p.read_text().split("\n")[2] == ",1,3,,,,,,"

    @pytest.mark.parametrize("argv, message", [
        (["--dim", "3", "--m", "2..3"], "patch diagonalization supports D in {1, 2} only"),
        (["--m", "1..3"], "patch size m must be >= 2"),
    ], ids=["dim", "m"])
    def test_anderson_range_checked_before_any_solve(self, capsys, monkeypatch,
                                                     argv, message):
        # the message and exit code of `anderson` itself, and nothing is solved
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the range was checked")

        monkeypatch.setattr(cli.anderson, "anderson_bound", no_solve)
        code = run(["sweep", "--method", "anderson", "--model", "heisenberg"] + argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

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

    def test_moment_range_checked_before_any_solve(self, capsys):
        t0 = time.perf_counter()
        code = run(["sweep", "--model", "heisenberg", "--method", "moment",
                    "--l", "2..7"])
        seconds = time.perf_counter() - t0
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "window length" in captured.err
        assert seconds < 1.0

    def test_marginal_range_checked_before_any_solve(self, capsys, monkeypatch):
        # (10, 2) is within the SDP cap, (11, 2) is not: nothing is solved
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the range was checked")

        monkeypatch.setattr(cli.marginal, "improved_anderson_bound", no_solve)
        code = run(["sweep", "--model", "heisenberg", "--method", "marginal",
                    "--m", "10..11", "--s", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "SDP cap" in captured.err


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

    def test_falls_back_to_an_unverified_anderson_row(self, capsys):
        # the tfim(1) patch at m = 16 keeps 16512 > DENSE_CAP states: its only
        # lower bound is unverified, and the report says so instead of failing
        code, out = run_capture(capsys, ["sandwich", "--model", "tfim", "--params", "1",
                                         "--anderson-m", "16"])
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["lower"] - (-1.28167047788)) < 1e-8
        assert (doc["lower_method"], doc["certified"]) == ("anderson", False)
        assert [row["certified"] for row in doc["rows"]] == [False]
        assert abs(doc["upper"] + 1.25) < 1e-9

    def test_needs_a_method(self, capsys):
        code = run(["sandwich", "--model", "heisenberg"])
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (["--moment-l", "7"], "window length must be in [2, 6]"),
        (["--moment-l", "3", "--dim", "2"], "the moment hierarchy is one-dimensional"),
        (["--marginal", "m=11,s=2"], "patch exceeds the dense SDP cap of 10 qubits"),
    ], ids=["window", "dim", "marginal"])
    def test_every_method_checked_before_any_solve(self, capsys, monkeypatch,
                                                   argv, message):
        # the Anderson solve comes first, and a later method's request is bad
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the request was checked")

        monkeypatch.setattr(cli.anderson, "anderson_bound", no_solve)
        code = run(["sandwich", "--model", "heisenberg", "--anderson-m", "16"] + argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("spec", ["m=5", "s=2", "m=5,s=2,k=1", "m=5,s", "m=x,s=2"])
    def test_bad_marginal_spec(self, capsys, spec):
        code = run(["sandwich", "--model", "heisenberg", "--marginal", spec])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert captured.out == ""


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

    @pytest.mark.parametrize("entries", [
        list(range(1, 17)),                    # numbers, not pairs
        [[1.0]] * 16,                          # one part
        [[1.0, 0.0, 0.0]] * 16,                # three parts
        [["1", 0.0]] * 16,                     # a string part
        [[True, 0.0]] * 16,
        [[None, 0.0]] * 16,
        {"re": 1.0},                           # not a list
    ], ids=["numbers", "short", "long", "string", "bool", "null", "object"])
    def test_malformed_dense_entry(self, capsys, tmp_path, entries):
        p = tmp_path / "model.json"
        p.write_text(json.dumps({"name": "bad", "d": 2, "D": 1,
                                 "term": {"dense": entries}}))
        code = run(["anderson", "--model-file", str(p), "--m", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_parser_is_built_once(self, capsys):
        # every run in a process shares one parser; reusing it changes no
        # report, and a bad flag after a good run is still a validation error
        argv = ["marginal", "--model", "heisenberg", "--m", "4", "--s", "1"]
        first = run_capture(capsys, argv)
        second = run_capture(capsys, argv)
        assert first[0] == 0 and first == second
        assert cli.build_parser() is cli.build_parser()
        assert run(argv + ["--no-such-flag"]) == 2
        assert capsys.readouterr().out == ""
        assert run_capture(capsys, argv) == first

    def test_invalid_pauli_label(self, capsys, tmp_path):
        p = tmp_path / "model.json"
        p.write_text(json.dumps({"name": "bad", "d": 2, "D": 1,
                                 "term": {"pauli_sum": [{"paulis": "XQ", "coeff": 1.0}]}}))
        code = run(["anderson", "--model-file", str(p), "--m", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert "invalid Pauli label" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("entry", [
        "ZZ",                                  # not an object
        {"coeff": 1.0},                        # no "paulis"
        {"paulis": "ZZ"},                      # no "coeff"
        {"paulis": "ZZ", "coeff": "1.0"},      # coeff not a number
        {"paulis": "ZZ", "coeff": True},
        {"paulis": "ZZ", "coeff": None},
    ], ids=["string", "no-paulis", "no-coeff", "string-coeff", "bool-coeff", "null-coeff"])
    def test_malformed_pauli_sum_entry(self, capsys, tmp_path, entry):
        p = tmp_path / "model.json"
        p.write_text(json.dumps({"name": "bad", "d": 2, "D": 1,
                                 "term": {"pauli_sum": [entry]}}))
        code = run(["anderson", "--model-file", str(p), "--m", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        (["moment", "--l", "3"], "the moment hierarchy is one-dimensional"),
        (["sandwich", "--moment-l", "3"], "the moment hierarchy is one-dimensional"),
        (["oracle", "--n", "8"], "the ring reference is one-dimensional"),
    ], ids=["moment", "sandwich", "oracle"])
    def test_one_dimensional_methods_reject_2d(self, capsys, argv, message):
        code = run(argv + ["--model", "heisenberg", "--dim", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_moment_rejects_spin_one(self, capsys, tmp_path):
        sz = np.diag([1.0, 0.0, -1.0])
        sp_ = np.sqrt(2.0) * np.eye(3, k=1)
        term = np.kron(sz, sz) + 0.5 * (np.kron(sp_, sp_.T) + np.kron(sp_.T, sp_))
        p = tmp_path / "spin1.json"
        p.write_text(json.dumps({"name": "spin1", "d": 3, "D": 1,
                                 "term": {"dense": [[float(x), 0.0] for x in term.ravel()]}}))
        code = run(["moment", "--model-file", str(p), "--l", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ("error: the moment hierarchy requires a qubit model "
                                "(d = 2)\n")
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

import csv
import json
import time

import numpy as np
import pytest

from certground import anderson, cli, eigensolver, marginal, reports, sdp, upper
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
        (["--model", "heisenberg", "--m", "6", "--s", "1"], 9),
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
        (["--model", "random_twosite", "--params", "3", "--m", "4", "--s", "2"], [16], [])])
    def test_marginal_reports_blocks_and_symmetry(self, capsys, argv, blocks, symmetry):
        # the SDP blocks solved (complex Hermitian for complex models) and the
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
        # every row has its method's CSV columns in order (a solved point has
        # no `error`), and the certified column is the `lower` that the single
        # command reports
        sweep_argv, points = SWEEPS[method]
        model = ["--model", "xxz", "--params", "0.5"]
        code, out = run_capture(capsys, ["sweep", "--method", method] + model + sweep_argv)
        assert code == 0
        rows = json.loads(out)["rows"]
        columns = reports.CSV_COLUMNS[method]
        solved = [column for column in columns if column != "error"]
        assert [list(row) for row in rows] == [solved] * len(points)
        for row, point in zip(rows, points):
            code, out = run_capture(capsys, [method] + model + point)
            assert code == 0
            assert row[reports.CERTIFIED_COLUMN[method]] == json.loads(out)["lower"]
        p = tmp_path / "sweep.csv"
        assert run(["sweep", "--method", method] + model + sweep_argv + ["--csv", str(p)]) == 0
        assert p.read_text().split("\n")[0] == ",".join(columns)

    def test_failed_anderson_point_is_recorded(self, capsys, monkeypatch, tmp_path):
        # a point whose solve fails gets an error row, and the sweep goes on
        solve = anderson.anderson_bound

        def fails_at_3(model, m, *args, **kwargs):
            if m == 3:
                raise RuntimeError("Lanczos did not converge")
            return solve(model, m, *args, **kwargs)

        monkeypatch.setattr(anderson, "anderson_bound", fails_at_3)
        code, out = run_capture(capsys, ["sweep", "--method", "anderson", "--model",
                                         "heisenberg", "--m", "2..3"])
        assert code == 0
        solved, failed = json.loads(out)["rows"]
        assert failed == {"model": "heisenberg", "m": 3, "D": 1,
                          "error": "Lanczos did not converge"}
        assert solved["certified_bound"] == -1.5
        assert "error" not in solved
        p = tmp_path / "sweep.csv"
        assert run(["sweep", "--method", "anderson", "--model", "heisenberg",
                    "--m", "2..3", "--csv", str(p)]) == 0
        lines = p.read_text().split("\n")
        assert lines[0].endswith(",seconds,error")
        assert lines[1].endswith(",")  # a solved point's error column is empty
        assert lines[2] == "heisenberg,1,3,,,,,,,,Lanczos did not converge"

    def test_unconverged_anderson_points_keep_their_model_and_reason(self, capsys, tmp_path):
        # a tolerance no eigensolver meets fails every point; the CSV names the
        # model and the reason in each row, as the JSON rows do
        argv = ["sweep", "--method", "anderson", "--model", "heisenberg", "--m", "3..4",
                "--tol", "1e-300"]
        code, out = run_capture(capsys, argv)
        assert code == 0
        rows = json.loads(out)["rows"]
        p = tmp_path / "sweep.csv"
        assert run(argv + ["--csv", str(p)]) == 0
        with p.open() as f:
            written = list(csv.DictReader(f))
        assert [(r["model"], r["D"], r["m"]) for r in written] == [("heisenberg", "1", "3"),
                                                                   ("heisenberg", "1", "4")]
        assert [r["error"] for r in written] == [row["error"] for row in rows]
        assert all("did not converge" in r["error"] and r["certified_bound"] == ""
                   for r in written)

    def test_json_and_csv_are_both_written(self, capsys, tmp_path):
        json_path, csv_path = tmp_path / "sweep.json", tmp_path / "sweep.csv"
        argv = ["sweep", "--method", "anderson", "--model", "heisenberg", "--m", "2..3"]
        code, out = run_capture(capsys, argv)
        assert code == 0
        assert run(argv + ["--json", str(json_path), "--csv", str(csv_path)]) == 0
        assert capsys.readouterr().out == ""
        printed, written = json.loads(out), json.loads(json_path.read_text())
        for row in printed["rows"] + written["rows"]:
            row.pop("seconds")  # the sweep's timing of each point
        assert written == printed
        assert csv_path.read_text().count("\n") == 3  # header + two rows

    @pytest.mark.parametrize("argv, certified", [
        (["--method", "anderson", "--m", "2..4"], [True, True, True]),
        (["--method", "anderson", "--m", "17..17"], [False]),
        (["--method", "marginal", "--m", "4", "--s", "1", "--mode", "wrap"], [False]),
    ], ids=["anderson", "anderson-unverified", "marginal-wrap"])
    def test_rows_carry_the_certified_flag(self, capsys, tmp_path, argv, certified):
        # the certified column holds the bound whether or not it is certified
        # (m = 17 exceeds DENSE_CAP, wrap mode is never certified); the
        # `certified` column says which, in JSON and in CSV
        argv = ["sweep", "--model", "heisenberg"] + argv
        code, out = run_capture(capsys, argv)
        assert code == 0
        assert [row["certified"] for row in json.loads(out)["rows"]] == certified
        p = tmp_path / "sweep.csv"
        assert run(argv + ["--csv", str(p)]) == 0
        with p.open() as f:
            assert [row["certified"] for row in csv.DictReader(f)] == [str(c) for c in certified]

    @pytest.mark.parametrize("argv, message", [
        (["--dim", "3", "--m", "2..3"], "patch diagonalization supports D in {1, 2} only"),
        (["--m", "1..3"], "patch size m must be >= 2"),
    ], ids=["dim", "m"])
    def test_anderson_range_checked_before_any_solve(self, capsys, monkeypatch,
                                                     argv, message):
        # the message and exit code of `anderson` itself, and nothing is solved
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the range was checked")

        monkeypatch.setattr(anderson, "anderson_bound", no_solve)
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
        # (10, 2) is within the SDP cap, (11, 2) is not; m = 4..5 has no
        # point with s = 3. Either way nothing is solved
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the range was checked")

        monkeypatch.setattr(marginal, "improved_anderson_bound", no_solve)
        for m, s, message in (("10..11", "2", "SDP cap"),
                              ("4..5", "3", "no point with 2s <= m")):
            code = run(["sweep", "--model", "heisenberg", "--method", "marginal",
                        "--m", m, "--s", s])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err.startswith("error: ") and message in captured.err


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

    def test_a_certified_row_beats_a_higher_uncertified_one(self, capsys):
        # the wrap-mode marginal row lies above the Anderson row but is not certified
        code, out = run_capture(capsys, ["sandwich", "--model", "heisenberg",
                                         "--anderson-m", "6", "--marginal", "m=5,s=2,mode=wrap"])
        assert code == 0
        doc = json.loads(out)
        assert [(row["method"], row["certified"]) for row in doc["rows"]] == [
            ("anderson", True), ("marginal", False)]
        assert doc["rows"][1]["bound"] > doc["lower"]
        assert (doc["lower_method"], doc["certified"], doc["lower"]) == (
            "anderson", True, -0.997430853555)
        assert abs(doc["width"] - (doc["upper"] - doc["lower"])) < 1e-12

    def test_falls_back_to_the_best_uncertified_row(self, capsys):
        # neither the unverified m = 17 row nor the wrap-mode row is certified:
        # the higher of the two is the lower bound, and the report says so
        code, out = run_capture(capsys, ["sandwich", "--model", "heisenberg",
                                         "--anderson-m", "17", "--marginal", "m=5,s=2,mode=wrap"])
        assert code == 0
        doc = json.loads(out)
        assert [row["certified"] for row in doc["rows"]] == [False, False]
        assert (doc["lower_method"], doc["certified"]) == ("marginal", False)
        assert doc["lower"] == max(row["bound"] for row in doc["rows"])
        assert abs(doc["width"] - (doc["upper"] - doc["lower"])) < 1e-12

    def test_needs_a_method(self, capsys):
        code = run(["sandwich", "--model", "heisenberg"])
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (["--moment-l", "7"], "window length must be in [2, 6]"),
        (["--moment-l", "3", "--dim", "2"], "the moment hierarchy is one-dimensional"),
        (["--marginal", "m=11,s=2"], "patch exceeds the dense SDP cap of 10 qubits"),
        (["--moment-l", "0"], "window length must be in [2, 6]"),
        (["--marginal="], "bad --marginal item ''; "
                          "expected m=..,s=..[,mode=..][,placement=..]"),
        (["--anderson-m", "0", "--moment-l", "2"], "patch size m must be >= 2"),
    ], ids=["window", "dim", "marginal", "zero-window", "empty-marginal", "zero-m"])
    def test_every_method_checked_before_any_solve(self, capsys, monkeypatch,
                                                   argv, message):
        # the Anderson solve comes first, and a later method's request is bad;
        # the Anderson request (a 4 x 4 patch under --dim 2) is within the cap.
        # A zero or empty value is a request too, not an absent one
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the request was checked")

        monkeypatch.setattr(anderson, "anderson_bound", no_solve)
        code = run(["sandwich", "--model", "heisenberg", "--anderson-m", "4"] + argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("restarts", ["0", "-5", "100001", "1000000000"])
    def test_restarts_must_be_at_least_one(self, capsys, monkeypatch, restarts):
        # and at most upper.MAX_RESTARTS
        def no_solve(*args, **kwargs):
            raise AssertionError("solved with a restart count out of range")

        monkeypatch.setattr(anderson, "anderson_bound", no_solve)
        monkeypatch.setattr(cli.upper, "product_state_upper", no_solve)
        code = run(["sandwich", "--model", "heisenberg", "--anderson-m", "6",
                    "--restarts", restarts])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--restarts" in captured.err

    @pytest.mark.parametrize("spec", ["m=5", "s=2", "m=5,s=2,k=1", "m=5,s", "m=x,s=2",
                                      "m=4,s=1,s=2"])
    def test_bad_marginal_spec(self, capsys, spec):
        code = run(["sandwich", "--model", "heisenberg", "--marginal", spec])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert captured.out == ""


# builtin models as command-line arguments, and their terms as a pauli_sum
FILE_MODELS = {
    "heisenberg": (["--model", "heisenberg"], {"XX": 0.5, "YY": 0.5, "ZZ": 0.5}),
    "xxz(0.5)": (["--model", "xxz", "--params", "0.5"], {"XX": 0.5, "YY": 0.5, "ZZ": 0.25}),
    "tfim(1)": (["--model", "tfim", "--params", "1"], {"ZZ": -1.0, "XI": -0.5, "IX": -0.5}),
}
# finite coefficients whose sums over a patch's bonds overflow
HUGE_TERM = ('{"name": "t", "d": 2, "D": 1, "term": {"pauli_sum": ['
             '{"paulis": "XX", "coeff": 1e308}, {"paulis": "ZZ", "coeff": 1e308}]}}')


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
        # broken JSON, and d and D that are not integers
        fractional = {"name": "zz", "d": 2.5, "D": 1.9,
                      "term": {"pauli_sum": [{"paulis": "ZZ", "coeff": 1.0}]}}
        for text in ("{broken", json.dumps(fractional)):
            p = tmp_path / "bad.json"
            p.write_text(text)
            code = run(["anderson", "--model-file", str(p), "--m", "3"])
            assert code == 2
            assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("text", [
        '{"name": "t", "d": 2, "D": 1, "term": 5}',
        '{"name": "t", "d": 2, "D": 1, "term": "pauli_sum"}',
        '{"name": "t", "d": 2, "D": 1, "term": {"pauli_sum": ['
        '{"paulis": "XX", "coeff": 1e308}, {"paulis": "XX", "coeff": 1e308}]}}',
        '{"name": "t", "d": 2, "D": 1, "term": {"pauli_sum": ['
        '{"paulis": "ZZ", "coeff": 1' + 400 * "0" + '}]}}',
        '{"name": "t", "d": 2, "D": 1, "term": {"pauli_sum": ['
        '{"paulis": "ZZ", "coeff": 1.0}, {"paulis": "XI", "coeff": Infinity}]}}',
        '{"name": "t", "d": 2, "D": true, "term": {"pauli_sum": [{"paulis": "ZZ", "coeff": 1.0}]}}',
        '{"name": "t", "d": "2", "D": 1, "term": {"pauli_sum": [{"paulis": "ZZ", "coeff": 1.0}]}}',
        '5',
        HUGE_TERM,
    ], ids=["term-number", "term-string", "sum-overflows", "huge-integer-coeff",
            "infinite-coeff", "bool-D", "string-d", "not-an-object", "huge-finite-term"])
    def test_malformed_model_document(self, capsys, tmp_path, text):
        # a validation error: exit 2, empty stdout, no traceback and no warning
        p = tmp_path / "model.json"
        p.write_text(text)
        code = run(["anderson", "--model-file", str(p), "--m", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: cannot load model file:")
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["anderson", "--m", "4"], ["marginal", "--m", "4", "--s", "1"], ["moment", "--l", "3"],
    ], ids=["anderson", "marginal", "moment"])
    def test_huge_finite_term_is_refused_before_it_overflows(self, capsys, tmp_path, argv):
        # finite entries whose bond sums overflow: exit 2 at load, where the
        # solvers exited 3 after RuntimeWarnings (errors under this suite's filter)
        p = tmp_path / "huge.json"
        p.write_text(HUGE_TERM)
        code = run(argv + ["--model-file", str(p)])
        captured = capsys.readouterr()
        assert code == 2
        assert "interaction term too large" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("name, D", [(name, D) for name in FILE_MODELS for D in (1, 2)],
                             ids=[f"{name}-D{D}" for name in FILE_MODELS for D in (1, 2)])
    def test_model_file_gives_its_own_dimension(self, capsys, tmp_path, name, D):
        # a file holding a builtin term is bounded as the builtin model of the
        # file's D, with or without a --dim that repeats it, by every method
        builtin, paulis = FILE_MODELS[name]
        commands = [["anderson", "--m", "3"], ["sandwich", "--anderson-m", "3"]]
        if D == 1:  # the SDP bounds are one-dimensional
            commands += [["marginal", "--m", "4", "--s", "1"], ["moment", "--l", "2"]]
        wants = []
        for argv in commands:
            assert run(argv + builtin + ["--dim", str(D)]) == 0
            wants.append(capsys.readouterr().out)
        assert json.loads(wants[0])["params"]["D"] == D
        p = tmp_path / "model.json"
        p.write_text(json.dumps({"name": json.loads(wants[0])["model"], "d": 2, "D": D,
                                 "term": {"pauli_sum": [{"paulis": q, "coeff": c}
                                                        for q, c in paulis.items()]}}))
        for argv, want in zip(commands, wants):
            for extra in ([], ["--dim", str(D)]):
                assert run(argv + ["--model-file", str(p)] + extra) == 0
                assert capsys.readouterr().out == want

    def test_dim_that_disagrees_with_the_model_file(self, capsys, tmp_path):
        p = tmp_path / "heisenberg-2d.json"
        p.write_text(json.dumps({"name": "h", "d": 2, "D": 2, "term": {"pauli_sum": [
            {"paulis": "ZZ", "coeff": 1.0}]}}))
        code = run(["anderson", "--model-file", str(p), "--dim", "1", "--m", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: --dim 1 disagrees with the model file's D = 2\n"
        assert captured.out == ""

    @pytest.mark.parametrize("model", ["tfim", "xxz"])
    def test_non_finite_parameter(self, capsys, model):
        # an infinite coefficient is refused before it multiplies a zero; under
        # this suite's error::RuntimeWarning filter a warning would raise here
        code = run(["anderson", "--model", model, "--params", "1e400", "--m", "4"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:") and "not finite" in captured.err
        assert captured.out == ""

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

    def test_value_error_inside_a_solve_is_solver_failure(self, capsys, monkeypatch):
        # numpy and scipy raise ValueError on bad data; inside a solve that is
        # the solver's data, not the request, whichever command runs it
        def broken(*args, **kwargs):
            raise ValueError("array must not contain infs or NaNs")

        for argv, module, name in [
                (["anderson", "--m", "6"], eigensolver, "min_eig"),
                (["marginal", "--m", "4", "--s", "1"], sdp, "solve"),
                (["moment", "--l", "2"], sdp, "solve"),
                (["sweep", "--method", "moment", "--l", "2..3"], sdp, "solve"),
                (["sandwich", "--moment-l", "2"], upper, "product_state_upper"),
                (["oracle", "--n", "6"], upper, "min_eig")]:
            with monkeypatch.context() as patch:
                patch.setattr(module, name, broken)
                code = run(argv + ["--model", "heisenberg"])
            captured = capsys.readouterr()
            assert code == 3, argv
            assert captured.out == ""
            assert captured.err == "solver failure: array must not contain infs or NaNs\n"

    @pytest.mark.parametrize("argv, message", [
        (["anderson", "--m", "30"], "30 sites of dimension 2 exceed the 26-qubit cap"),
        (["sweep", "--method", "anderson", "--m", "2..27"],
         "27 sites of dimension 2 exceed the 26-qubit cap"),
        (["sandwich", "--anderson-m", "6", "--dim", "2"],
         "36 sites of dimension 2 exceed the 26-qubit cap"),
        (["oracle", "--n", "25"], "ring reference capped at 24 qubit equivalents"),
        (["oracle", "--n", "1"], "ring size n must be >= 2"),
    ], ids=["anderson", "sweep", "sandwich", "oracle", "oracle-n"])
    def test_size_checked_before_any_solve(self, capsys, monkeypatch, argv, message):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the size was checked")
        monkeypatch.setattr(anderson, "anderson_bound", no_solve)
        monkeypatch.setattr(cli.upper, "ring_reference", no_solve)
        code = run(argv + ["--model", "heisenberg"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["marginal", "--model", "heisenberg", "--m", "10", "--s", "4"],
        ["marginal", "--model", "tfim", "--params", "1", "--m", "10", "--s", "2"],
        ["sandwich", "--model", "random_twosite", "--params", "3", "--marginal", "m=10,s=3"],
        ["sweep", "--method", "marginal", "--model", "heisenberg", "--m", "8..9", "--s", "4"],
        # 1.9 GB of A and as much again for the Schur temporary: 3.8 GiB at the peak
        ["marginal", "--model", "tfim", "--params", "1", "--m", "8", "--s", "3"],
    ], ids=["heisenberg-10-4", "tfim-10-2", "sandwich-random_twosite-10-3", "sweep", "tfim-8-3"])
    def test_oversized_marginal_request_is_refused(self, capsys, monkeypatch, argv):
        # counted, not built: many GiB of window products, constraint matrices
        # or the solve's temporaries
        def no_build(*args, **kwargs):
            raise AssertionError("built before the size was checked")

        monkeypatch.setattr(marginal, "window_basis", no_build)
        monkeypatch.setattr(marginal, "build_marginal_sdp", no_build)
        t0 = time.perf_counter()
        code = run(argv)
        seconds = time.perf_counter() - t0
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "GiB limit" in captured.err
        assert seconds < 1.0

    def test_tolerance_must_be_positive(self, capsys):
        assert run(["anderson", "--model", "heisenberg", "--m", "4", "--tol", "0"]) == 2
        assert capsys.readouterr().out == ""
        assert run(["anderson", "--model", "heisenberg", "--m", "4", "--tol", "inf"]) == 2
        assert capsys.readouterr().out == ""
        # integer inputs must be integers: a negative seed, a fractional model seed
        for argv in (["anderson", "--model", "heisenberg", "--m", "4", "--seed", "-1"],
                     ["moment", "--model", "heisenberg", "--l", "3", "--seed", "-1"],
                     ["anderson", "--model", "random_twosite", "--params", "3.7", "--m", "4"]):
            assert run(argv) == 2
            assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["marginal", "--model", "heisenberg", "--m", "4", "--s", "1"],
        ["moment", "--model", "heisenberg", "--l", "3"],
    ], ids=["marginal", "moment"])
    @pytest.mark.parametrize("gap_tol", ["0", "-1", "nan", "inf"])
    def test_gap_tolerance_must_be_positive(self, capsys, monkeypatch, argv, gap_tol):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved with an invalid gap tolerance")
        monkeypatch.setattr(sdp, "solve", no_solve)
        assert run(argv + ["--gap-tol", gap_tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--gap-tol" in captured.err

    def test_oracle_passes_tol_and_seed(self, capsys, monkeypatch):
        seen = []

        def recorded(model, n, tol=None, seed=None):
            seen.append((model.name, n, tol, seed))
            return -1.0

        monkeypatch.setattr(cli.upper, "ring_reference", recorded)
        code, out = run_capture(capsys, ["oracle", "--model", "heisenberg", "--n", "6",
                                         "--tol", "1e-6", "--seed", "3"])
        assert code == 0 and json.loads(out)["density"] == -1.0
        assert seen == [("heisenberg", 6, 1e-6, 3)]

    def test_json_file_output(self, capsys, tmp_path):
        p = tmp_path / "out.json"
        code = run(["anderson", "--model", "heisenberg", "--m", "3",
                    "--json", str(p)])
        assert code == 0
        assert abs(json.loads(p.read_text())["lower"] + 1.0) < 1e-9

    @pytest.mark.parametrize("argv, flag", [
        (["anderson", "--model", "heisenberg", "--m", "4"], "--json"),
        (["sweep", "--method", "anderson", "--model", "heisenberg", "--m", "2..3"], "--csv"),
    ], ids=["json", "csv"])
    def test_unwritable_output_is_a_request_error(self, capsys, tmp_path, argv, flag):
        # the report's directory does not exist: exit 2 with a message, no traceback
        path = tmp_path / "missing" / "report"
        code = run(argv + [flag, str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(path) in captured.err
        assert not path.parent.exists()

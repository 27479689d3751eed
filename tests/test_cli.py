"""Command-line behavior: files, exit codes, determinism, schedules."""

from pathlib import Path

import numpy as np
import pytest

from mfminmax.cli import (
    EXIT_FAIL,
    EXIT_INFEASIBLE,
    EXIT_OK,
    bundled_config_path,
    main,
    parse_schedule,
)


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def csv_rows(path):
    return [line.split(",") for line in read(path).strip().split("\n")[1:]]


class TestScheduleParsing:
    def test_all_and_none(self):
        assert parse_schedule("all", 5).observation_times == frozenset(range(1, 6))
        assert parse_schedule("none", 5).observation_times == frozenset()

    def test_lists_and_ranges(self):
        info = parse_schedule("1,5,10-12", 20)
        assert info.observation_times == frozenset({1, 5, 10, 11, 12})

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            parse_schedule("25", 20)


class TestRunExample:
    def test_example2_single_gamma(self, tmp_path):
        out = tmp_path / "ex2"
        code = main(["run-example", "2", "--gamma", "4.0", "--seed", "7",
                     "--runs", "2", "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "trajectories_gamma_4.csv").exists()
        assert (out / "riccati_gamma_4.csv").exists()
        assert (out / "summary.csv").exists()
        assert (out / "report.txt").exists()
        rows = csv_rows(out / "summary.csv")
        assert rows[0][1] == "True"
        # the virtual leader is pinned at 10 for every t
        x0_vals = [float(r[4]) for r in csv_rows(out / "trajectories_gamma_4.csv")
                   if r[2] == "x0"]
        assert all(v == pytest.approx(10.0) for v in x0_vals)

    def test_example1_initial_conditions(self, tmp_path):
        out = tmp_path / "ex1"
        code = main(["run-example", "1", "--gamma", "19.95", "--seed", "7",
                     "--out", str(out)])
        assert code == EXIT_OK
        rows = csv_rows(out / "trajectories_gamma_19.95.csv")
        leader_t1 = [float(r[4]) for r in rows if r[2] == "x0" and r[1] == "1"]
        assert leader_t1 == [30.0]
        followers_t1 = [float(r[4]) for r in rows if r[2] == "xi" and r[1] == "1"]
        assert len(followers_t1) == 100
        assert all(0.0 <= v <= 20.0 for v in followers_t1)

    def test_infeasible_gamma_reported_not_simulated(self, tmp_path):
        out = tmp_path / "bad"
        code = main(["run-example", "1", "--gamma", "2.0", "--out", str(out)])
        assert code == EXIT_INFEASIBLE
        assert not (out / "trajectories_gamma_2.csv").exists()
        rows = csv_rows(out / "summary.csv")
        assert rows[0][1] == "False"
        assert float(rows[0][2]) < 0 or float(rows[0][3]) < 0
        assert "INFEASIBLE" in read(out / "report.txt")

    def test_mixed_gammas_partial_success(self, tmp_path):
        out = tmp_path / "mixed"
        code = main(["run-example", "2", "--gamma", "1.0", "4.0", "--out", str(out)])
        assert code == EXIT_OK
        assert not (out / "trajectories_gamma_1.csv").exists()
        assert (out / "trajectories_gamma_4.csv").exists()

    @pytest.mark.parametrize("which,expected", [
        ("1", [19.95, 26.61, 39.91, 66.51]),
        ("2", [3.04, 4.05, 6.08, 10.14]),
    ])
    def test_default_gamma_lists_all_feasible(self, tmp_path, which, expected):
        out = tmp_path / f"defaults{which}"
        code = main(["run-example", which, "--runs", "1", "--out", str(out)])
        assert code == EXIT_OK
        rows = csv_rows(out / "summary.csv")
        assert [float(r[0]) for r in rows] == expected
        assert all(r[1] == "True" for r in rows)
        assert "INFEASIBLE" not in read(out / "report.txt")


class TestDeterminism:
    @pytest.mark.parametrize("workers", [1, 8])
    def test_rerun_is_byte_identical(self, tmp_path, workers):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = main(["run-example", "2", "--gamma", "4.0", "--runs", "4",
                         "--seed", "3", "--workers", str(workers), "--out", str(out)])
            assert code == EXIT_OK
        for name in ("trajectories_gamma_4.csv", "summary.csv", "riccati_gamma_4.csv"):
            assert read(a / name) == read(b / name)

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        one, eight = tmp_path / "w1", tmp_path / "w8"
        main(["run-example", "2", "--gamma", "4.0", "--runs", "6", "--seed", "5",
              "--workers", "1", "--out", str(one)])
        main(["run-example", "2", "--gamma", "4.0", "--runs", "6", "--seed", "5",
              "--workers", "8", "--out", str(eight)])
        for name in ("trajectories_gamma_4.csv", "summary.csv"):
            assert read(one / name) == read(eight / name)


class TestSynthesizeCommand:
    def test_feasible_writes_riccati_and_value(self, tmp_path):
        out = tmp_path / "synth"
        code = main(["synthesize", "--config", str(bundled_config_path(2)),
                     "--gamma", "4.0", "--out", str(out)])
        assert code == EXIT_OK
        assert "feasible" in read(out / "report.txt")
        assert "optimal value" in read(out / "report.txt")
        matrices = {r[1] for r in csv_rows(out / "riccati.csv")}
        assert "M_brev" in matrices and "L_bar" in matrices

    def test_infeasible_exit_code(self, tmp_path):
        out = tmp_path / "synthbad"
        code = main(["synthesize", "--config", str(bundled_config_path(2)),
                     "--gamma", "1.0", "--out", str(out)])
        assert code == EXIT_INFEASIBLE
        assert "INFEASIBLE" in read(out / "report.txt")
        matrices = {r[1] for r in csv_rows(out / "riccati.csv")}
        assert "L_bar" not in matrices  # no gains below the boundary


class TestVerifyCommand:
    def test_pass(self, tmp_path):
        out = tmp_path / "verify"
        code = main(["verify", "--config", str(bundled_config_path(2)),
                     "--gamma", "4.0", "--n", "2", "--seed", "1", "--out", str(out)])
        assert code == EXIT_OK
        report = read(out / "report.txt")
        assert "verdict: PASS" in report
        assert (out / "saddle_report.csv").exists()

    @pytest.mark.parametrize("name", ["saddle_report.csv", "report.txt"])
    def test_matches_golden_output(self, tmp_path, name):
        # Example 2 at gamma 4, n 4, seed 7, 50 directions: every delta of
        # the saddle check, and the report built from them, to the byte.
        out = tmp_path / "verify"
        code = main(["verify", "--config", str(bundled_config_path(2)), "--gamma", "4",
                     "--n", "4", "--seed", "7", "--out", str(out)])
        assert code == EXIT_OK
        golden = Path(__file__).parent / "data" / f"golden_verify_example2_gamma4_n4_seed7_{name}"
        assert read(out / name) == read(golden)

    def test_corrupted_gains_fail(self, tmp_path):
        out = tmp_path / "verifybad"
        code = main(["verify", "--config", str(bundled_config_path(2)),
                     "--gamma", "4.0", "--n", "2", "--seed", "1",
                     "--corrupt-gains", "--out", str(out)])
        assert code == EXIT_FAIL
        assert "verdict: FAIL" in read(out / "report.txt")

    def test_infeasible_model_distinct_exit(self, tmp_path):
        out = tmp_path / "verifyinf"
        code = main(["verify", "--config", str(bundled_config_path(2)),
                     "--gamma", "1.0", "--out", str(out)])
        assert code == EXIT_INFEASIBLE
        assert "infeasible" in read(out / "report.txt")

    def test_zero_weight_model_passes_with_zero_gains(self, tmp_path):
        config = tmp_path / "flat.yaml"
        config.write_text("""
horizon: 5
n_followers: 2
gamma: 1.0
leader: {A0: 0.9, B0: 0.2, S0: 0.1}
follower: {A: 0.8, B: 0.5, S: 0.05, E: 0.02}
cost: {Q: 0.0, Q0: 0.0, F: 0.0, P: 0.0, R: 1.0, R0: 1.0, H: 0.0}
leader_init: {value: 1.0}
follower_init: {values: [[0.5], [1.5]]}
""", encoding="utf-8")
        out = tmp_path / "flatout"
        code = main(["verify", "--config", str(config), "--out", str(out)])
        assert code == EXIT_OK
        report = read(out / "report.txt")
        assert "verdict: PASS" in report
        assert "saddle base cost: 0.0" in report


class TestOtherCommands:
    def test_critical_gamma_prints_boundary(self, capsys):
        code = main(["critical-gamma", "--config", str(bundled_config_path(2)),
                     "--lo", "0.5", "--hi", "20.0", "--tol", "1e-6"])
        assert code == EXIT_OK
        printed = float(capsys.readouterr().out.strip())
        assert printed == pytest.approx(2.027319, abs=5e-6)

    def test_critical_gamma_bad_bracket(self, capsys):
        code = main(["critical-gamma", "--config", str(bundled_config_path(2)),
                     "--lo", "5.0", "--hi", "20.0"])
        assert code == EXIT_FAIL

    def test_gap_study_writes_table(self, tmp_path):
        out = tmp_path / "gap"
        code = main(["gap-study", "--config", str(bundled_config_path(2)),
                     "--gamma", "4.0", "--n", "3", "6", "--runs", "10",
                     "--seed", "2", "--out", str(out)])
        assert code == EXIT_OK
        rows = csv_rows(out / "gap_study.csv")
        assert [int(r[0]) for r in rows] == [3, 6]

    def test_simulate_with_schedule_and_disturbance(self, tmp_path):
        out = tmp_path / "sim"
        code = main(["simulate", "--config", str(bundled_config_path(2)),
                     "--gamma", "4.0", "--observe", "1,5,10-12", "--seed", "4",
                     "--disturbance", "sinusoid", "--amplitude", "0.4",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "trajectories_gamma_4.csv").exists()

    def test_simulate_takes_seed_and_runs_from_experiment(self, tmp_path):
        out = tmp_path / "simdefaults"
        code = main(["simulate", "--config", str(bundled_config_path(2)), "--out", str(out)])
        assert code == EXIT_OK
        (row,) = csv_rows(out / "summary.csv")
        assert (row[4], row[5]) == ("1", "7")  # runs, seed of example 2's experiment section

    @pytest.mark.parametrize("argv", [
        ["verify", "--n", "0"],
        ["verify", "--n", "17"],
        ["simulate", "--runs", "0"],
        ["gap-study", "--runs", "0"],
        ["gap-study", "--n", "0"],
        ["gap-study", "--n", "10", "-3"],
        ["verify", "--directions", "0"],
    ], ids=["verify-n0", "verify-n17", "simulate-runs0", "gap-study-runs0", "gap-study-n0",
            "gap-study-n-3", "verify-directions0"])
    def test_count_out_of_range_fails(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        code = main(argv + ["--config", str(bundled_config_path(2)), "--out", str(out)])
        assert code == EXIT_FAIL
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    def test_sweep_requires_gamma(self, capsys):
        code = main(["sweep-gamma", "--config", str(bundled_config_path(2))])
        assert code == EXIT_FAIL

    @pytest.mark.parametrize("key, typo", [("amplitude", "amplitud"),
                                           ("gamma_list", "gama_list")])
    def test_misspelled_experiment_key_fails(self, tmp_path, capsys, key, typo):
        config = tmp_path / "typo.yaml"
        config.write_text(read(bundled_config_path(2)).replace(f"{key}:", f"{typo}:"),
                          encoding="utf-8")
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_FAIL
        assert typo in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("old, new, named", [
        ("runs: 1\n", "runs: 2.5\n", "experiment.runs"),
        ("seed: 7\n", "seed: 7.9\n", "experiment.seed"),
        ("amplitude: 0.4", "amplitude: [1]", "experiment.disturbance.amplitude"),
        ("  A0: 1.0\n", "  A0: [{a: 1}]\n", "leader.A0"),
    ], ids=["fractional-runs", "fractional-seed", "list-amplitude", "mapping-in-matrix"])
    def test_malformed_value_fails_without_traceback(self, tmp_path, capsys, old, new, named):
        text = read(bundled_config_path(2))
        assert old in text
        config = tmp_path / "bad.yaml"
        config.write_text(text.replace(old, new), encoding="utf-8")
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_FAIL
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["run-example", "2", "--config", "/nonexistent.yaml"],
        ["synthesize", "--seed", "1"],
        ["synthesize", "--runs", "9"],
        ["synthesize", "--observe", "none"],
        ["synthesize", "--workers", "2"],
        ["verify", "--runs", "9"],
        ["verify", "--observe", "none"],
        ["verify", "--workers", "2"],
        ["synthesize", "--gamma", "1.0", "4.0"],
        ["verify", "--gamma", "1.0", "4.0"],
        ["gap-study", "--gamma", "1.0", "4.0"],
    ], ids=["run-example-config", "synthesize-seed", "synthesize-runs", "synthesize-observe",
            "synthesize-workers", "verify-runs", "verify-observe", "verify-workers",
            "synthesize-two-gammas", "verify-two-gammas", "gap-study-two-gammas"])
    def test_flag_the_command_does_not_read_is_rejected(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_malformed_config_fails_without_traceback(self, tmp_path, capsys):
        config = tmp_path / "no_s0.yaml"
        config.write_text(read(bundled_config_path(2)).replace("  S0: 0.0\n", ""),
                          encoding="utf-8")
        code = main(["synthesize", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_FAIL
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'S0'" in err and "Traceback" not in err

    def test_missing_config_fails_cleanly(self, capsys):
        code = main(["synthesize"])
        assert code == EXIT_FAIL

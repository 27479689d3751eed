"""Command-line behavior: files, exit codes, determinism, schedules."""

import argparse
import hashlib
import itertools
import math
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from mfminmax import cli, oracle, sim
from mfminmax import model as model_module
from mfminmax.cli import (
    EXIT_FAIL,
    EXIT_INFEASIBLE,
    EXIT_OK,
    build_parser,
    bundled_config_path,
    main,
    parse_schedule,
)
from mfminmax.model import DisturbancePolicy, InfoStructure


# Followers grow tenfold per step from up to 1e300, so every run overflows, and the
# feedback maps overflow on the estimate before the state update marks a run failed.
DIVERGING_YAML = (
    "horizon: 12\nn_followers: 1\nstate_dim: 1\naction_dim: 1\ngamma: 5.0\n"
    "leader: {A0: 1.0, B0: 0.0, S0: 0.0}\n"
    "follower: {A: 10.0, B: 0.0, S: 0.0, E: 0.0}\n"
    "cost: {Q: 0.0, Q0: 0.0, F: 0.0, P: 0.0, R: 1.0, R0: 1.0, H: 0.0}\n"
    "leader_init: {value: 0.0}\n"
    "follower_init: {uniform: {low: 0.0, high: 1.0e+300}}\n"
    "noise: {follower: 1.0, leader: 0.0}\n")


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def csv_rows(path):
    return [line.split(",") for line in read(path).strip().split("\n")[1:]]


class TestScheduleParsing:
    def test_all_and_none(self):
        assert parse_schedule("all", 5) == InfoStructure.mfs()
        assert parse_schedule("none", 5) == InfoStructure()

    def test_lists_and_ranges(self):
        info = parse_schedule("1,5,10-12", 20)
        assert info.observation_times == frozenset({1, 5, 10, 11, 12})

    def test_spaces_around_entries_and_dashes(self):
        info = parse_schedule(" 4 - 6 , 9 ", 20)
        assert info.observation_times == frozenset({4, 5, 6, 9})

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            parse_schedule("25", 20)

    @pytest.mark.parametrize("text, entry, fault", [
        ("0", "0", "has times outside 1..30"), ("3,29-31", "29-31", "has times outside 1..30"),
        ("5-3", "5-3", "is not"), (" , ", "", "is not"), ("", "", "is not"),
        ("2,x", "x", "is not"), ("1,5,", "", "is not"), ("4-", "4-", "is not"),
        ("-2", "-2", "is not"), ("1-2-3", "1-2-3", "is not"), ("2.5", "2.5", "is not"),
        ("1_0", "1_0", "is not"), ("+4", "+4", "is not"), ("4-+6", "4-+6", "is not"),
        ("\u0663", "\u0663", "is not"), ("\uff14", "\uff14", "is not"),
    ], ids=["zero", "range-past-horizon", "reversed-range", "only-commas", "empty",
            "not-a-number", "trailing-comma", "open-range", "negative", "two-dashes", "fraction",
            "digit-separator", "plus-sign", "signed-range-end", "arabic-indic-digit",
            "fullwidth-digit"])
    def test_bad_entry_rejected_naming_it(self, text, entry, fault):
        # "none" is the only spelling of no observations
        with pytest.raises(ValueError, match=f"^--observe entry {re.escape(repr(entry))} {fault}"):
            parse_schedule(text, 30)


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

    # sha256 of every file of `run-example 1 --runs 2 --seed 7`: the n = 100
    # trajectories with every follower state, to the byte, without a 0.5 MB golden.
    EXAMPLE1_SHA256 = {
        "report.txt": "5336cb8bcd8f3c7328f3b1e0b98aaeef7a2d1cf9adfdb0bbb04ba4fa8d8c76c3",
        "riccati_gamma_19.95.csv": "ef02b569a9a7956698c98d123365c5874c881344fd3d04bba80b47ca1a68bf17",
        "riccati_gamma_26.61.csv": "8b913a790f61163c2c09c10ce17be7b306310c3b272e41a3f0c72c85ccda91fc",
        "riccati_gamma_39.91.csv": "63764e4e9de8ba29de2020fa99fbb724462255bb31a35332adb62df64a5d9721",
        "riccati_gamma_66.51.csv": "045b859c281228f34d01f33616574b31e98e35b497ef1a5bc01218535f94a2d8",
        "summary.csv": "1b7357338df01bc2bc0f7d80acf16278fa93237b472f4fd758962a2b127695fe",
        "trajectories_gamma_19.95.csv":
            "cccb20d592618f7f4ecd18593144199b237eeecb646fbc3bca2b3faed55fdbe6",
        "trajectories_gamma_26.61.csv":
            "70b52d0c0047f281e3d0a811dbcfc69c4b7d2d883d18d8b525c2ef3b930106bf",
        "trajectories_gamma_39.91.csv":
            "4016b7e79be0939cc2c555ac3e8dd8a801b345dcde8ea5f8d36dccbfc00624db",
        "trajectories_gamma_66.51.csv":
            "4cece8e07ed70e9dedc0037a3f8cd4f72524438b1843ef87d66b038797b47d70",
    }

    def test_example1_matches_pinned_digests(self, tmp_path):
        out = tmp_path / "ex1"
        code = main(["run-example", "1", "--runs", "2", "--seed", "7", "--out", str(out)])
        assert code == EXIT_OK
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in out.iterdir()}
        assert digests == self.EXAMPLE1_SHA256

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
    @pytest.mark.parametrize("runs", [1, 8])
    def test_rerun_is_byte_identical(self, tmp_path, runs):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = main(["run-example", "2", "--gamma", "4.0", "--runs", str(runs),
                         "--seed", "3", "--out", str(out)])
            assert code == EXIT_OK
        for name in ("trajectories_gamma_4.csv", "summary.csv", "riccati_gamma_4.csv"):
            assert read(a / name) == read(b / name)


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

    @pytest.mark.parametrize("gamma, code", [("4", EXIT_OK), ("1", EXIT_INFEASIBLE)])
    @pytest.mark.parametrize("name", ["riccati.csv", "report.txt"])
    def test_matches_golden_output(self, tmp_path, gamma, code, name):
        # Example 2 on both sides of its boundary: every recursion, margin and
        # gain entry, and at gamma 1 the flagged times, to the byte.
        out = tmp_path / "synth"
        assert main(["synthesize", "--config", str(bundled_config_path(2)), "--gamma", gamma,
                     "--out", str(out)]) == code
        golden = Path(__file__).parent / "data" / f"golden_synthesize_example2_gamma{gamma}_{name}"
        assert read(out / name) == read(golden)

    def test_infeasible_exit_code(self, tmp_path):
        out = tmp_path / "synthbad"
        code = main(["synthesize", "--config", str(bundled_config_path(2)),
                     "--gamma", "1.0", "--out", str(out)])
        assert code == EXIT_INFEASIBLE
        assert "INFEASIBLE" in read(out / "report.txt")
        matrices = {r[1] for r in csv_rows(out / "riccati.csv")}
        assert "L_bar" not in matrices  # no gains below the boundary


class TestSweepCommand:
    # The riccati dump of example 2 at gamma 4 is the synthesize golden's.
    GOLDEN = {name: f"golden_sweep_example2_gamma1_4_seed9_{name}"
              for name in ("summary.csv", "report.txt", "trajectories_gamma_4.csv")}
    GOLDEN["riccati_gamma_4.csv"] = "golden_synthesize_example2_gamma4_riccati.csv"

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_matches_golden_output(self, tmp_path, name):
        # One infeasible gamma (a nan-cost summary row) and one feasible,
        # an intermittent schedule, a sinusoid on both agents and every
        # follower state kept, to the byte.
        out = tmp_path / "sweep"
        code = main(["simulate", "--config", str(bundled_config_path(2)), "--gamma", "1", "4",
                     "--runs", "2", "--seed", "9", "--observe", "5,12",
                     "--disturbance", "sinusoid", "--amplitude", "0.3", "--applied-to", "both",
                     "--retain-states", "--out", str(out)])
        assert code == EXIT_OK
        assert read(out / name) == read(Path(__file__).parent / "data" / self.GOLDEN[name])

    @pytest.mark.parametrize("flag, kind", [("worst-case", "worst_case"),
                                            ("worst-case", "worst-case"), ("zero", "zero")])
    def test_disturbance_flag_matches_config_kind(self, tmp_path, flag, kind):
        text = read(bundled_config_path(2))
        old = "{kind: sinusoid, amplitude: 0.4, applied_to: followers}"
        assert old in text
        config = tmp_path / "kind.yaml"
        config.write_text(text.replace(old, f"{{kind: {kind}}}"), encoding="utf-8")
        for route in ("config", flag):
            code = main(["simulate", "--config", str(config), "--disturbance", route,
                         "--runs", "2", "--out", str(tmp_path / route)])
            assert code == EXIT_OK
        for name in ("summary.csv", "report.txt", "trajectories_gamma_4.csv"):
            assert read(tmp_path / "config" / name) == read(tmp_path / flag / name)


class TestVerifyCommand:
    def test_pass(self, tmp_path):
        out = tmp_path / "verify"
        code = main(["verify", "--config", str(bundled_config_path(2)),
                     "--gamma", "4.0", "--n", "2", "--seed", "1", "--out", str(out)])
        assert code == EXIT_OK
        report = read(out / "report.txt")
        assert "verdict: PASS" in report
        assert (out / "saddle_report.csv").exists()

    def test_pass_at_the_follower_cap(self, tmp_path):
        out = tmp_path / "verify"
        code = main(["verify", "--config", str(bundled_config_path(2)), "--gamma", "4",
                     "--n", str(oracle.MAX_ORACLE_FOLLOWERS), "--out", str(out)])
        assert code == EXIT_OK
        assert "verdict: PASS" in read(out / "report.txt")

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

    def test_builds_the_stacked_problem_twice(self, tmp_path, monkeypatch):
        # The equivalence check rolls out on the problem its solve built;
        # the saddle check builds its own.  Each side of the saddle check is
        # one batched rollout, beside its base rollout and the equivalence one.
        calls = {"build_stacked": 0, "rollout_joint": 0}
        for name in calls:
            def counted(*args, _name=name, _func=getattr(oracle, name)):
                calls[_name] += 1
                return _func(*args)
            monkeypatch.setattr(oracle, name, counted)
        code = main(["verify", "--config", str(bundled_config_path(2)), "--gamma", "4",
                     "--n", "4", "--out", str(tmp_path / "verify")])
        assert code == EXIT_OK
        assert calls == {"build_stacked": 2, "rollout_joint": 4}

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

    def test_critical_gamma_nan_tol_fails(self, capsys):
        code = main(["critical-gamma", "--config", str(bundled_config_path(2)),
                     "--lo", "0.5", "--hi", "20.0", "--tol", "nan"])
        assert code == EXIT_FAIL
        assert capsys.readouterr().err.startswith("error: tol must be positive")

    def test_critical_gamma_zero_lo_fails(self, capsys):
        code = main(["critical-gamma", "--config", str(bundled_config_path(2)),
                     "--lo", "0", "--hi", "20.0"])
        assert code == EXIT_FAIL
        assert capsys.readouterr().err.startswith("error: gamma must be positive and finite")

    def test_gap_study_writes_table(self, tmp_path):
        out = tmp_path / "gap"
        code = main(["gap-study", "--config", str(bundled_config_path(2)),
                     "--gamma", "4.0", "--n", "3", "6", "--runs", "10",
                     "--seed", "2", "--out", str(out)])
        assert code == EXIT_OK
        rows = csv_rows(out / "gap_study.csv")
        assert [int(r[0]) for r in rows] == [3, 6]

    def test_gap_study_infeasible_gamma_writes_no_table(self, tmp_path, capsys):
        out = tmp_path / "gap"
        code = main(["gap-study", "--config", str(bundled_config_path(2)),
                     "--gamma", "1.0", "--runs", "2", "--out", str(out)])
        assert code == EXIT_INFEASIBLE
        assert "infeasible" in capsys.readouterr().out
        assert not (out / "gap_study.csv").exists()

    @pytest.mark.parametrize("block_states", [1, None, 2 ** 62],
                             ids=["one-run-blocks", "default-blocks", "one-block"])
    def test_gap_study_matches_golden_output(self, tmp_path, monkeypatch, block_states):
        # Both sharing arms at n = 10, 2000 and 5000 with 3 runs, in blocks of
        # one run, of sim.BLOCK_STATES states and of every run: the same bytes.
        if block_states is not None:
            monkeypatch.setattr(sim, "BLOCK_STATES", block_states)
        out = tmp_path / "gap"
        code = main(["gap-study", "--config", str(bundled_config_path(2)), "--gamma", "4",
                     "--n", "10", "2000", "5000", "--runs", "3", "--seed", "17",
                     "--observe", "4,9-11,20", "--out", str(out)])
        assert code == EXIT_OK
        golden = Path(__file__).parent / "data" / "golden_gap_study_example2_gamma4_seed17.csv"
        assert read(out / "gap_study.csv") == read(golden)

    def test_simulate_with_schedule_and_disturbance(self, tmp_path):
        out = tmp_path / "sim"
        code = main(["simulate", "--config", str(bundled_config_path(2)),
                     "--gamma", "4.0", "--observe", "1,5,10-12", "--seed", "4",
                     "--disturbance", "sinusoid", "--amplitude", "0.4",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "trajectories_gamma_4.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--gamma", "1", "--observe", "99"],
        ["simulate", "--gamma", "4", "--observe", "99"],
        ["simulate", "--gamma", "1", "4", "--observe", "2,x"],
        ["simulate", "--observe", "5-3"],
        ["gap-study", "--gamma", "1", "--observe", "99"],
    ], ids=["infeasible-gamma", "feasible-gamma", "not-a-number", "reversed-range",
            "gap-study-infeasible-gamma"])
    def test_bad_schedule_fails_naming_observe(self, tmp_path, capsys, argv):
        # the schedule is checked before any gamma is solved, feasible or not
        out = tmp_path / "out"
        code = main(argv + ["--config", str(bundled_config_path(2)), "--out", str(out)])
        assert code == EXIT_FAIL
        err = capsys.readouterr().err
        assert err.startswith("error: --observe entry ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--config", str(bundled_config_path(2)), "--gamma", "4", "-1"],
         "gamma must be positive and finite, got -1.0"),
        (["run-example", "2", "--gamma", "4", "4.0000001"],
         "gamma values 4.0 and 4.0000001 would both write *_gamma_4.csv"),
        (["run-example", "2", "--gamma", "4", "4"],
         "gamma values 4.0 and 4.0 would both write *_gamma_4.csv"),
    ], ids=["invalid-after-feasible", "same-file-name", "repeated"])
    def test_bad_gamma_list_fails_before_any_work(self, tmp_path, capsys, argv, message):
        # every gamma is checked, and gets its own file names, before the first is solved
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == EXIT_FAIL
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_simulate_takes_seed_and_runs_from_experiment(self, tmp_path):
        out = tmp_path / "simdefaults"
        code = main(["simulate", "--config", str(bundled_config_path(2)), "--out", str(out)])
        assert code == EXIT_OK
        (row,) = csv_rows(out / "summary.csv")
        assert (row[4], row[5]) == ("1", "7")  # runs, seed of example 2's experiment section

    @pytest.mark.parametrize("argv", [
        ["verify", "--n", "0"],
        ["verify", "--n", str(oracle.MAX_ORACLE_FOLLOWERS + 1)],
        ["simulate", "--runs", "0"],
        ["gap-study", "--runs", "0"],
        ["gap-study", "--n", "0"],
        ["gap-study", "--gamma", "1", "--n", "0"],
        ["gap-study", "--n", "10", "-3"],
        ["verify", "--directions", "0"],
    ], ids=["verify-n0", "verify-n-over-max", "simulate-runs0", "gap-study-runs0", "gap-study-n0",
            "gap-study-n0-infeasible", "gap-study-n-3", "verify-directions0"])
    def test_count_out_of_range_fails(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        code = main(argv + ["--config", str(bundled_config_path(2)), "--out", str(out)])
        assert code == EXIT_FAIL
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--seed", "-7"],
        ["verify", "--seed", "-3"],
        ["gap-study", "--seed", "-3"],
    ], ids=["simulate", "verify", "gap-study"])
    def test_negative_seed_flag_fails_naming_it(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        code = main(argv + ["--config", str(bundled_config_path(2)), "--out", str(out)])
        assert code == EXIT_FAIL
        err = capsys.readouterr().err
        assert err.startswith("error: --seed ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["simulate", "--disturbance", "worst-case", "--amplitude", "0.5"], "--amplitude"),
        (["simulate", "--applied-to", "leader"], "--applied-to"),
        (["simulate", "--gamma", "4", "--disturbance", "zero", "--amplitude", "0"],
         "--amplitude"),
    ], ids=["amplitude-worst-case", "applied-to-config", "amplitude-zero"])
    def test_sinusoid_flag_without_sinusoid_fails_naming_it(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "out"
        code = main(argv + ["--config", str(bundled_config_path(2)), "--out", str(out)])
        assert code == EXIT_FAIL
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("amplitude", ["nan", "inf"])
    def test_non_finite_amplitude_flag_fails(self, tmp_path, capsys, amplitude):
        out = tmp_path / "out"
        code = main(["simulate", "--disturbance", "sinusoid", "--amplitude", amplitude,
                     "--config", str(bundled_config_path(2)), "--out", str(out)])
        assert code == EXIT_FAIL
        err = capsys.readouterr().err
        assert err.startswith("error: --amplitude ") and "amplitude must be finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, policy", [
        (["--disturbance", "sinusoid"], DisturbancePolicy(kind="sinusoid")),
        (["--disturbance", "sinusoid", "--amplitude", "-0.0", "--applied-to", "leader"],
         DisturbancePolicy(kind="sinusoid", amplitude=-0.0, applied_to="leader")),
        (["--disturbance", "worst-case"], DisturbancePolicy.worst_case()),
        (["--disturbance", "zero"], DisturbancePolicy()),
    ], ids=["sinusoid-defaults", "signed-zero-leader", "worst-case", "zero"])
    def test_flags_build_their_own_policy(self, tmp_path, monkeypatch, flags, policy):
        # The flags used to pass through the config's disturbance parser; only the
        # loader calls it now, once for the config's own section.
        parsed, swept = [], []
        parser = model_module._disturbance_policy
        monkeypatch.setattr(model_module, "_disturbance_policy",
                            lambda section: parsed.append(section) or parser(section))
        monkeypatch.setattr(cli, "_sweep", lambda *args, **kw: swept.append(args[5]) or EXIT_OK)
        code = main(["simulate", "--config", str(bundled_config_path(2)), *flags,
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_OK and len(parsed) == 1
        assert swept == [policy]
        assert math.copysign(1.0, swept[0].amplitude) == math.copysign(1.0, policy.amplitude)

    def test_runs_that_all_overflow_fail_without_warnings(self, tmp_path, capsys):
        # The gamma still writes its files and reports a nan cost, like any feasible gamma.
        config = tmp_path / "diverging.yaml"
        config.write_text(DIVERGING_YAML, encoding="utf-8")
        code = main(["simulate", "--config", str(config), "--gamma", "5", "--runs", "40",
                     "--seed", "0", "--observe", "none", "--disturbance", "worst-case",
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""
        out = tmp_path / "out"
        assert csv_rows(out / "summary.csv") == [["5.0", "True", "25.0", "25.0", "40", "0",
                                                  "nan", "nan"]]
        assert "mean cost nan (stderr nan, 40 runs, 40 failed)" in read(out / "report.txt")
        assert (out / "trajectories_gamma_5.csv").is_file()
        assert (out / "riccati_gamma_5.csv").is_file()

    def test_gap_study_whose_runs_all_overflow_reports_nan(self, tmp_path, capsys):
        config = tmp_path / "diverging.yaml"
        config.write_text(DIVERGING_YAML, encoding="utf-8")
        out = tmp_path / "out"
        code = main(["gap-study", "--config", str(config), "--n", "1", "2", "--runs", "3",
                     "--seed", "0", "--out", str(out)])
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""
        assert csv_rows(out / "gap_study.csv") == [[n, "3", "nan", "nan", "nan", "nan"]
                                                   for n in ("1", "2")]

    @pytest.mark.parametrize("argv", [["synthesize", "--gamma", "4"],
                                      ["verify", "--gamma", "4", "--n", "4"]])
    def test_overflowing_initial_moments_fail_naming_the_key(self, tmp_path, capsys, argv):
        # the width squares to inf in the variance; verify's mean squares to inf
        config = tmp_path / "wide.yaml"
        config.write_text(read(bundled_config_path(2)).replace(
            "follower_init:\n  uniform: {low: 0.0, high: 8.0}",
            "follower_init:\n  uniform: {low: 0.0, high: 1.0e+300}"), encoding="utf-8")
        assert "1.0e+300" in read(config)
        code = main(argv + ["--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_FAIL
        captured = capsys.readouterr()
        assert captured.err == "error: follower_init: initial second moments are not finite\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv, flag", [
        (["simulate", "--config", str(bundled_config_path(2)), "--gamma"], "--gamma"),
        (["run-example", "2", "--gamma"], "--gamma"),
        (["gap-study", "--config", str(bundled_config_path(2)), "--n"], "--n"),
    ], ids=["simulate-gamma", "run-example-gamma", "gap-study-n"])
    def test_flag_without_values_is_a_usage_error(self, tmp_path, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"argument {flag}: expected at least one argument" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_gamma_is_not_a_command(self, capsys):
        # simulate --gamma G... is the one multi-gamma Monte Carlo command
        with pytest.raises(SystemExit) as exc:
            main(["sweep-gamma", "--config", str(bundled_config_path(2)), "--gamma", "4"])
        assert exc.value.code == 2
        assert "invalid choice: 'sweep-gamma'" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command, old, new, named", [
        ("simulate", "runs: 1\n", "runs: 2.5\n", "experiment.runs"),
        ("simulate", "seed: 7\n", "seed: 7.9\n", "experiment.seed"),
        ("simulate", "seed: 7\n", "seed: -7\n", "experiment.seed"),
        ("synthesize", "runs: 1\n", "runs: 0\n", "experiment.runs"),
        ("simulate", "amplitude: 0.4", "amplitude: [1]", "experiment.disturbance.amplitude"),
        ("simulate", "  A0: 1.0\n", "  A0: [{a: 1}]\n", "leader.A0"),
        ("synthesize", "kind: sinusoid", "kind: sinusiod", "experiment.disturbance.kind"),
        ("synthesize", "applied_to: followers", "applied_to: folowers",
         "experiment.disturbance.applied_to"),
        ("synthesize", "gamma_list: [3.04, 4.05, 6.08, 10.14]", "gamma_list: [-1.0, 0]",
         "experiment.gamma_list"),
        ("simulate", "kind: sinusoid", "kind: worst_case", "experiment.disturbance.amplitude"),
        ("synthesize", "kind: sinusoid, amplitude: 0.4,", "kind: zero,",
         "experiment.disturbance.applied_to"),
        ("simulate", "kind: sinusoid", "kind: null", "experiment.disturbance.kind"),
        ("simulate", "amplitude: 0.4", "amplitude: null", "experiment.disturbance.amplitude"),
        ("synthesize", "applied_to: followers", "applied_to: null",
         "experiment.disturbance.applied_to"),
        ("synthesize", "  value: 10.0", "  value: .nan", "leader_init"),
    ], ids=["fractional-runs", "fractional-seed", "negative-seed", "zero-runs", "list-amplitude",
            "mapping-in-matrix", "misspelled-kind", "misspelled-applied_to",
            "non-positive-gamma_list", "amplitude-without-sinusoid",
            "applied_to-without-sinusoid", "null-kind", "null-amplitude", "null-applied_to",
            "nan-leader-value"])
    def test_malformed_value_fails_without_traceback(self, tmp_path, capsys, command, old, new,
                                                     named):
        text = read(bundled_config_path(2))
        assert old in text
        config = tmp_path / "bad.yaml"
        config.write_text(text.replace(old, new), encoding="utf-8")
        code = main([command, "--config", str(config), "--out", str(tmp_path / "out")])
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
        ["run-example", "2", "--workers", "1"],
        ["simulate", "--workers", "1"],
        ["gap-study", "--workers", "1"],
        ["synthesize", "--gamma", "1.0", "4.0"],
        ["verify", "--gamma", "1.0", "4.0"],
        ["gap-study", "--gamma", "1.0", "4.0"],
    ], ids=["run-example-config", "synthesize-seed", "synthesize-runs", "synthesize-observe",
            "synthesize-workers", "verify-runs", "verify-observe", "verify-workers",
            "run-example-workers", "simulate-workers", "gap-study-workers",
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

    @pytest.mark.parametrize("argv", [
        ["synthesize"], ["simulate"], ["verify"], ["gap-study"],
        ["critical-gamma", "--lo", "0.5", "--hi", "20"],
    ], ids=lambda argv: argv[0])
    def test_missing_config_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "the following arguments are required: --config" in capsys.readouterr().err

    @pytest.mark.parametrize("where, reason", [("missing.yaml", "No such file or directory"),
                                               (".", "Is a directory")],
                             ids=["missing-file", "directory"])
    def test_unreadable_config_fails_without_traceback(self, tmp_path, capsys, where, reason):
        config = tmp_path / where
        code = main(["synthesize", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_FAIL
        err = capsys.readouterr().err
        assert err == f"error: config {config}: {reason}\n"
        assert not (tmp_path / "out").exists()

    def test_out_below_a_file_fails_without_traceback(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        code = main(["synthesize", "--config", str(bundled_config_path(2)),
                     "--out", str(blocker / "sub")])
        assert code == EXIT_FAIL
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Not a directory" in err and "Traceback" not in err


class TestTrajectoryStreaming:
    def test_records_of_a_gamma_are_freed_before_the_next_simulates(self, tmp_path,
                                                                     monkeypatch):
        states, freed_at_call = [], []

        def tracked(*args, **kwargs):
            freed_at_call.append([ref() is None for ref in states])
            records = sim.simulate(*args, **kwargs)
            states.extend(weakref.ref(rec.xi) for rec in records)
            return records

        monkeypatch.setattr(cli, "simulate", tracked)
        code = main(["simulate", "--config", str(bundled_config_path(1)), "--gamma", "20", "25",
                     "--runs", "2", "--retain-states", "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        assert freed_at_call == [[], [True, True]]

    def test_traced_peak_is_bounded_by_the_file(self, tmp_path):
        # Only one gamma's records and one run's rows are alive at a time, so
        # the traced peak stays within a small multiple of one trajectory file.
        config = tmp_path / "n300.yaml"
        text = read(bundled_config_path(1))
        assert "n_followers: 100\n" in text
        config.write_text(text.replace("n_followers: 100\n", "n_followers: 300\n"),
                          encoding="utf-8")
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = main(["simulate", "--config", str(config), "--runs", "8", "--retain-states",
                         "--gamma", "20", "25", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak < 2.5 * (out / "trajectories_gamma_20.csv").stat().st_size


def readme_flags_table():
    """{command: (documented flags, whether --out is documented)} from README's flags table."""
    lines = read(Path(__file__).parent.parent / "README.md").splitlines()
    start = lines.index("| Command | Flags besides `--out` |") + 2
    table = {}
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:]):
        _, commands, flags, _ = re.split(r"(?<!\\)\|", line)
        flags, _, remark = flags.partition("(no ")
        for command in re.findall(r"`([\w-]+)", commands):
            table[command] = (set(re.findall(r"`(--[\w-]+)", flags)),
                              "`--out`" not in remark)
    return table


def test_readme_flags_table_matches_parser():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    table = readme_flags_table()
    assert set(table) == set(sub.choices)
    for command, parser in sub.choices.items():
        accepted = {flag for action in parser._actions for flag in action.option_strings}
        flags, has_out = table[command]
        assert accepted - {"-h", "--help", "--out"} == flags, command
        assert ("--out" in accepted) == has_out, command


def test_readme_library_sketch_runs():
    # The README's library example, on the bundled example 2: a renamed or
    # removed public name fails here, as a flag missing from the parser does above.
    text = read(Path(__file__).parent.parent / "README.md").split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    assert code.count('"model.yaml"') == 1
    scope = {}
    exec(code.replace('"model.yaml"', repr(str(bundled_config_path(2)))), scope)
    assert scope["ric"].feasible and list(scope["ok"]) == [False, True]
    assert np.isfinite(scope["value"]) and np.isfinite(scope["cost"].mean)
    assert scope["eq"].ok and scope["sc"].ok

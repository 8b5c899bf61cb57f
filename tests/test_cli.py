import json
import os

import numpy as np
import pytest

import duelbandit.games as games
from duelbandit.cli import _parse_summary_csv, load_matrix, main
from duelbandit.harness import SUMMARY_HEADER, aggregate

RPS_TEXT = "0 1 -1\n-1 0 1\n1 -1 0\n"


@pytest.fixture
def rps_file(tmp_path):
    path = tmp_path / "rps.txt"
    path.write_text(RPS_TEXT)
    return str(path)


class TestLoadMatrix:
    def test_text_format(self, rps_file):
        m = load_matrix(rps_file)
        assert m.shape == (3, 3) and m[0, 1] == 1

    def test_json_format(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"entries": [[0, 0.5], [-0.5, 0]]}))
        m = load_matrix(str(path))
        assert np.array_equal(m, [[0, 0.5], [-0.5, 0]])


class TestSolveCommands:
    def test_solve_cce(self, rps_file, capsys):
        assert main(["solve-cce", "--matrix", rps_file]) == 0
        out = capsys.readouterr().out
        assert "max violation" in out and "joint distribution" in out

    def test_solve_cce_missing_file(self, capsys):
        assert main(["solve-cce", "--matrix", "/nonexistent"]) == 1

    @pytest.mark.parametrize("text, reason", [
        ("0 1 2\n-1 0 1\n", "shape (2, 3)"),
        ("0 nan\n0 0\n", "finite"),
    ])
    def test_solve_cce_bad_matrix_is_config_error(self, tmp_path, capsys,
                                                  text, reason):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert main(["solve-cce", "--matrix", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and reason in err

    def test_solve_cce_json_without_entries_names_the_key(self, tmp_path,
                                                          capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"matrix": [[0, 1], [-1, 0]]}))
        assert main(["solve-cce", "--matrix", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "needs the key 'entries'" in err and str(path) in err

    def test_solve_igw(self, rps_file, capsys):
        assert main(["solve-igw", "--matrix", rps_file, "--gamma", "12"]) == 0
        out = capsys.readouterr().out
        assert "marginal:" in out

    def test_solve_igw_bad_gamma_is_config_error(self, rps_file, capsys):
        # gamma below 2K or not finite is bad input, as in a run config:
        # exit 1 before any iteration
        for gamma in ("2", "nan", "inf"):
            assert main(["solve-igw", "--matrix", rps_file,
                         "--gamma", gamma]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("config error:")
            assert "below 2K" in captured.err and captured.out == ""

    def test_solve_igw_non_skew_matrix(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n1 0\n")
        assert main(["solve-igw", "--matrix", str(path), "--gamma", "10"]) == 1


class TestRunCommand:
    def test_run_and_aggregate(self, tmp_path, capsys):
        config = {
            "algorithm": {"kind": "ccedb"},
            "environment": {"kind": "fixed", "fixture": "condorcet",
                            "k": 3, "margin": 0.4},
            "horizon": 60,
            "seeds": [0],
            "benchmark": {"q_star": "condorcet", "policy_count": 1},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--seeds", "1,2",
                     "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "rounds_seed1.csv").exists()
        assert (out_dir / "rounds_seed2.csv").exists()
        capsys.readouterr()
        assert main(["aggregate", "--in", str(tmp_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_runs"] == 2

    def test_failed_seed_keeps_the_rows_before_it(self, tmp_path, capsys,
                                                  monkeypatch):
        # one pivot is not enough for seed 0's cold simplex at round 15
        config = {
            "algorithm": {"kind": "ccedb"},
            "environment": {"kind": "fixed", "fixture": "condorcet",
                            "k": 5, "margin": 0.4},
            "horizon": 40,
            "seeds": [0],
            "benchmark": {"q_star": "condorcet", "policy_count": 2},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        full_dir = tmp_path / "full"
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(full_dir)]) == 0
        monkeypatch.setattr(games, "MAX_ITERATIONS", 1)
        cut_dir = tmp_path / "cut"
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(cut_dir)]) == 2
        assert "failed: NotConverged at round 15: " in capsys.readouterr().out
        cut = (cut_dir / "rounds_seed0.csv").read_bytes()
        full = (full_dir / "rounds_seed0.csv").read_bytes()
        assert full.startswith(cut)
        lines = cut.decode().splitlines()
        assert len(lines) == 1 + 14
        assert [line.split(",")[1] for line in lines[1:]] == [
            str(t) for t in range(1, 15)]

    def test_run_bad_config(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"horizon": 5}))
        assert main(["run", "--config", str(cfg_path)]) == 1

    @pytest.mark.parametrize("output_dir", [5, True, ""])
    def test_run_bad_output_dir_is_config_error(self, tmp_path, capsys,
                                                monkeypatch, output_dir):
        # no --out, which would override the key
        monkeypatch.chdir(tmp_path)
        config = {"algorithm": {"kind": "ccedb"},
                  "environment": {"kind": "fixed", "fixture": "rps3"},
                  "horizon": 20, "seeds": [0], "output_dir": output_dir}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:")
        assert "output_dir" in captured.err
        assert "seed" not in captured.out
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("under", [False, True],
                             ids=["the-file", "under-the-file"])
    def test_run_output_dir_on_an_existing_file_is_config_error(
            self, tmp_path, capsys, under):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        out = taken / "sub" if under else taken
        config = {"algorithm": {"kind": "ccedb"},
                  "environment": {"kind": "fixed", "fixture": "rps3"},
                  "horizon": 20, "seeds": [0, 1]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:")
        assert "output_dir" in captured.err and str(taken) in captured.err
        assert "seed" not in captured.out
        assert taken.read_text() == "not a directory\n"

    def test_run_contextual_nash_is_config_error(self, tmp_path, capsys):
        # the default q_star rule is nash, which a contextual environment
        # has no single matrix for; no seed may start
        config = {
            "algorithm": {"kind": "ccelindb"},
            "environment": {"kind": "linear", "k": 3, "dim": 2},
            "horizon": 20,
            "seeds": [0],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "non-contextual" in err
        assert not out_dir.exists()

    def test_run_q_star_of_wrong_length_is_config_error(self, tmp_path,
                                                        capsys):
        config = {
            "algorithm": {"kind": "ccedb"},
            "environment": {"kind": "fixed", "fixture": "condorcet",
                            "k": 3, "margin": 0.4},
            "horizon": 20,
            "seeds": [0, 1],
            "benchmark": {"q_star": [0.5, 0.5]},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:")
        assert "q_star" in captured.err and "k=3" in captured.err
        assert "seed" not in captured.out
        assert not out_dir.exists()

    @pytest.mark.parametrize("algorithm, environment, key", [
        ({"kind": "ccelindb", "ridgee": 3.0},
         {"kind": "linear", "k": 3, "dim": 2}, "ridgee"),
        ({"kind": "ccedb"},
         {"kind": "fixed", "fixture": "condorcet", "k": 3, "margn": 1},
         "margn"),
        ({"kind": "ccelindb"},
         {"kind": "linear", "k": 3, "dim": 2, "perturbation": 0.1},
         "perturbation"),
        ({"kind": "minmaxdb", "gamma": 30.0, "delta": 0.1},
         {"kind": "finite_class", "k": 3}, "delta"),
        ({"kind": "minmaxdb", "gamma": 30.0,
          "oracle": {"kind": "finite", "radius": 1.0}},
         {"kind": "finite_class", "k": 3}, "radius"),
        ({"kind": "minmaxdb", "gamma": 30.0,
          "oracle": {"kind": "finite", "class_size": 1}},
         {"kind": "finite_class", "k": 3}, "class_size"),
        ({"kind": "minmaxdb", "gamma": 30.0,
          "oracle": {"kind": "finite", "class_seed": 4}},
         {"kind": "finite_class", "k": 3}, "class_seed"),
        ({"kind": "minmaxdb", "gamma": 30.0, "solver_tolerance": 1e-3},
         {"kind": "finite_class", "k": 3}, "solver_tolerance"),
        ({"kind": "ccedb"}, {"kind": "fixed", "fixture": "rps3", "k": 3}, "k"),
        ({"kind": "ccedb"},
         {"kind": "fixed", "matrix": [[0, 0.5], [-0.5, 0]], "k": 5}, "k"),
        ({"kind": "ccedb"},
         {"kind": "fixed", "matrix": [[0, 0.5], [-0.5, 0]],
          "fixture": "rps3"}, "fixture"),
        ({"kind": "ccedb"},
         {"kind": "fixed", "fixture": "rps3", "perturbation": 0.3},
         "perturbation"),
        ({"kind": "minmaxdb", "gamma": 30.0},
         {"kind": "finite_class", "k": 3, "perturbation": 0.3},
         "perturbation"),
        # the solver budget and tolerance are constants, not config keys
        ({"kind": "ccedb", "solver_max_iterations": 100},
         {"kind": "fixed", "fixture": "rps3"}, "solver_max_iterations"),
        ({"kind": "ccelindb", "solver_tolerance": 1e-6},
         {"kind": "linear", "k": 3, "dim": 2}, "solver_tolerance"),
        ({"kind": "minmaxdb", "gamma": 30.0},
         {"kind": "finite_class", "k": 3, "margin_cap": 0.5}, "margin_cap"),
        # delta = 1/T, ridge 1, the OFUL width and radius 1 are constants
        ({"kind": "ccelindb", "delta": 0},
         {"kind": "linear", "k": 3, "dim": 2}, "delta"),
        ({"kind": "ccelindb", "delta": 2.0},
         {"kind": "linear", "k": 3, "dim": 2}, "delta"),
        ({"kind": "ccelindb", "ridge": 0},
         {"kind": "linear", "k": 3, "dim": 2}, "ridge"),
        ({"kind": "ccelindb", "ridge": -1},
         {"kind": "linear", "k": 3, "dim": 2}, "ridge"),
        ({"kind": "minmaxdb", "gamma": 30.0,
          "oracle": {"kind": "vaw", "ridge": 0}},
         {"kind": "linear", "k": 3, "dim": 2}, "ridge"),
        ({"kind": "minmaxdb", "gamma": 30.0,
          "oracle": {"kind": "ogd", "radius": -1}},
         {"kind": "linear", "k": 3, "dim": 2}, "radius"),
        ({"kind": "ccedb", "delta": 0.1},
         {"kind": "fixed", "fixture": "rps3"}, "delta"),
        ({"kind": "ccelindb", "width_multiplier": -1.0},
         {"kind": "linear", "k": 3, "dim": 2}, "width_multiplier"),
    ])
    def test_run_unused_spec_key_is_config_error(self, tmp_path, capsys,
                                                 algorithm, environment, key):
        config = {"algorithm": algorithm, "environment": environment,
                  "horizon": 20, "seeds": [0], "benchmark": {"q_star": None}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and repr(key) in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"diagnostic": "false"}, "diagnostic"),
        ({"horizon": 2.7}, "horizon"),
        ({"horizon": None}, "horizon"),
        ({"seeds": [0.9]}, "seeds"),
        ({"seeds": [True]}, "seeds"),
        ({"seeds": [-1]}, "seeds"),
        ({"environment": {"kind": "fixed", "fixture": "condorcet",
                          "k": "3", "margin": 0.4}}, None),
        ({"environment": {"kind": "fixed", "fixture": "hardness",
                          "eps": "0.2"}}, None),
        ({"algorithm": {"kind": "minmaxdb", "gamma": None},
          "environment": {"kind": "finite_class", "k": 3}}, None),
        ({"algorithm": {"kind": "ccelindb"},
          "environment": {"kind": "linear", "k": None, "dim": 2}}, None),
        # gamma is "auto" or a number that is not a bool, finite and >= 2K
        ({"algorithm": {"kind": "minmaxdb", "gamma": "30"},
          "environment": {"kind": "finite_class", "k": 3}}, "gamma must be"),
        ({"algorithm": {"kind": "minmaxdb", "gamma": True},
          "environment": {"kind": "finite_class", "k": 3}}, "gamma must be"),
        ({"algorithm": {"kind": "minmaxdb", "gamma": [30.0]},
          "environment": {"kind": "finite_class", "k": 3}}, "gamma must be"),
        ({"algorithm": {"kind": "minmaxdb", "gamma": float("nan")},
          "environment": {"kind": "finite_class", "k": 3}}, "not finite"),
        ({"algorithm": {"kind": "minmaxdb", "gamma": float("inf")},
          "environment": {"kind": "finite_class", "k": 3}}, "not finite"),
        ({"algorithm": {"kind": "minmaxdb", "gamma": -float("inf")},
          "environment": {"kind": "finite_class", "k": 3}}, "not finite"),
        ({"algorithm": {"kind": "minmaxdb", "gamma": 30.0},
          "environment": {"kind": "finite_class", "k": 3, "n_contexts": 0}},
         "n_contexts >= 1"),
        # integer keys are checked, not truncated
        ({"algorithm": {"kind": "minmaxdb", "gamma": 30.0},
          "environment": {"kind": "finite_class", "k": 3.7}},
         "k must be an integer"),
        ({"algorithm": {"kind": "minmaxdb", "gamma": 30.0},
          "environment": {"kind": "finite_class", "k": 3, "class_size": 2.9}},
         "class_size must be an integer"),
        ({"algorithm": {"kind": "minmaxdb", "gamma": 30.0},
          "environment": {"kind": "finite_class", "k": 3, "n_contexts": 1.5}},
         "n_contexts must be an integer"),
        ({"algorithm": {"kind": "minmaxdb", "gamma": 30.0},
          "environment": {"kind": "finite_class", "k": 3, "class_seed": "4"}},
         "class_seed must be an integer"),
        ({"algorithm": {"kind": "ccelindb"},
          "environment": {"kind": "linear", "k": 3.0, "dim": 2}},
         "k must be an integer"),
        ({"algorithm": {"kind": "ccelindb"},
          "environment": {"kind": "linear", "k": 3, "dim": 2.5}},
         "dim must be an integer"),
        ({"algorithm": {"kind": "ccelindb"},
          "environment": {"kind": "linear", "k": 3, "dim": 2,
                          "weight_seed": True}},
         "weight_seed must be an integer"),
        ({"algorithm": {"kind": "minmaxdb", "gamma": 4.0},
          "environment": {"kind": "finite_class", "k": 3}}, "below 2K"),
        ({"algorithm": {"kind": "minmaxdb", "gamma": "auto"},
          "environment": {"kind": "finite_class", "k": 3}}, "T=20 below"),
        ({"algorithm": {"kind": "minmaxdb", "gamma": 30.0,
                        "oracle": {"kind": "finite", "class_size": 4.2}}},
         "class_size must be an integer"),
        ({"algorithm": {"kind": "minmaxdb", "gamma": 30.0,
                        "oracle": {"kind": "finite", "class_seed": 1.0}}},
         "class_seed must be an integer"),
        ({"algorithm": "ccedb"}, "algorithm must be a JSON object"),
        ({"benchmark": [["q_star", None]]}, "benchmark must be a JSON object"),
        # a missing required spec key is named
        ({"environment": {"kind": "fixed"}},
         "fixed environment needs a 'matrix' or a 'fixture'"),
        ({"environment": {"kind": "fixed", "k": 3, "margin": 0.4}},
         "fixed environment needs a 'matrix' or a 'fixture'"),
        ({"algorithm": {"kind": "minmaxdb", "gamma": 30.0},
          "environment": {"kind": "finite_class"}},
         "missing required key 'k'"),
        ({"algorithm": {"kind": "ccelindb"},
          "environment": {"kind": "linear", "dim": 2}},
         "missing required key 'k'"),
        ({"algorithm": {"kind": "ccelindb"},
          "environment": {"kind": "linear", "k": 3}},
         "missing required key 'dim'"),
        # a fixture's k is an integer like any other k
        ({"environment": {"kind": "fixed", "fixture": "condorcet",
                          "k": "5", "margin": 0.4}}, "k must be an integer"),
        ({"environment": {"kind": "fixed", "fixture": "condorcet",
                          "k": 5.0, "margin": 0.4}}, "k must be an integer"),
        ({"environment": {"kind": "fixed", "fixture": "condorcet",
                          "k": True, "margin": 0.4}}, "k must be an integer"),
        # out-of-range integer keys are named before numpy sees them
        ({"environment": {"kind": "fixed", "fixture": "condorcet",
                          "k": -2, "margin": 0.4}}, "k >= 2, got -2"),
        ({"algorithm": {"kind": "minmaxdb", "gamma": 30.0},
          "environment": {"kind": "finite_class", "k": -2}},
         "k >= 2, got -2"),
        ({"algorithm": {"kind": "minmaxdb", "gamma": 30.0},
          "environment": {"kind": "finite_class", "k": 3, "n_contexts": -1}},
         "n_contexts >= 1, got -1"),
        ({"algorithm": {"kind": "minmaxdb", "gamma": 30.0},
          "environment": {"kind": "finite_class", "k": 3, "class_seed": -1}},
         "class_seed >= 0, got -1"),
        # a fixture's float parameter is a number, not a string, bool or null
        ({"environment": {"kind": "fixed", "fixture": "condorcet",
                          "k": 3, "margin": "0.4"}},
         "margin must be a number, got '0.4'"),
        ({"environment": {"kind": "fixed", "fixture": "condorcet",
                          "k": 3, "margin": True}},
         "margin must be a number, got True"),
        ({"environment": {"kind": "fixed", "fixture": "hardness",
                          "eps": "0.2"}}, "eps must be a number, got '0.2'"),
        ({"environment": {"kind": "fixed", "fixture": "hardness",
                          "eps": None}}, "eps must be a number, got None"),
    ])
    def test_run_bad_value_is_config_error(self, tmp_path, capsys,
                                           overrides, message):
        config = {"algorithm": {"kind": "ccedb"},
                  "environment": {"kind": "fixed", "fixture": "rps3"},
                  "horizon": 20, "seeds": [0], "benchmark": {"q_star": None},
                  **overrides}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:")
        assert message is None or message in captured.err
        assert "seed" not in captured.out
        assert not out_dir.exists()

    @pytest.mark.parametrize("environment, message", [
        ({"kind": "linear", "k": 1, "dim": 2}, "k >= 2"),
        ({"kind": "linear", "k": 3, "dim": 0}, "dim >= 1"),
        ({"kind": "linear", "k": 3, "dim": -2}, "dim >= 1, got -2"),
    ])
    def test_run_degenerate_linear_environment_is_config_error(
            self, tmp_path, capsys, environment, message):
        config = {"algorithm": {"kind": "ccelindb"}, "environment": environment,
                  "horizon": 20, "seeds": [0], "benchmark": {"q_star": None}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert not out_dir.exists()

    def test_run_bad_seeds_names_the_flag(self, tmp_path, capsys):
        config = {"algorithm": {"kind": "ccedb"},
                  "environment": {"kind": "fixed", "fixture": "rps3"},
                  "horizon": 20, "seeds": [0]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--seeds", "0,a",
                     "--out", str(out_dir)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: --seeds")
        assert "'0,a'" in captured.err and captured.out == ""
        assert not out_dir.exists()

    def test_run_repeated_seed_is_config_error(self, tmp_path, capsys):
        config = {"algorithm": {"kind": "ccedb"},
                  "environment": {"kind": "fixed", "fixture": "rps3"},
                  "horizon": 20, "seeds": [0]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--seeds", "1,1",
                     "--out", str(out_dir)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: seeds must not repeat")
        assert "seed 1" in captured.err and captured.out == ""
        assert not out_dir.exists()

    def test_run_malformed_thread_count_is_config_error(self, tmp_path,
                                                        capsys, monkeypatch):
        config = {"algorithm": {"kind": "ccedb"},
                  "environment": {"kind": "fixed", "fixture": "rps3"},
                  "horizon": 20, "seeds": [0]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        monkeypatch.setenv("DUELBANDIT_THREADS", "abc")
        code = main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "DUELBANDIT_THREADS" in err and "'abc'" in err
        assert not out_dir.exists()

    # not "benchmark": pytest-benchmark owns that fixture name
    @pytest.mark.parametrize("environment, bench, message", [
        ({"kind": "fixed", "fixture": "condorcet", "k": 3}, {"q_star": None},
         "'margin'"),
        ({"kind": "fixed", "fixture": "rps3"},
         {"q_star": None, "policy_cnt": 3}, "'policy_cnt'"),
        ({"kind": "fixed", "fixture": "rps3"}, {"policy_count": "x"},
         "policy_count"),
        ({"kind": "fixed", "fixture": "rps3"}, {"policy_count": -2},
         "policy_count"),
        ({"kind": "fixed", "fixture": "rps3"}, {"policy_count": 1.5},
         "policy_count"),
    ])
    def test_run_bad_spec_is_config_error(self, tmp_path, capsys,
                                          environment, bench, message):
        config = {"algorithm": {"kind": "ccedb"}, "environment": environment,
                  "horizon": 20, "seeds": [0], "benchmark": bench}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:")
        assert message in captured.err
        assert "seed" not in captured.out
        assert not out_dir.exists()

    def test_aggregate_malformed_summary_is_config_error(self, tmp_path,
                                                         capsys):
        path = tmp_path / "summary.csv"
        path.write_text("seed,horizon,final_br\n0,x,1.0\n")
        assert main(["aggregate", "--in", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}:")

    def test_aggregate_summary_without_a_column_names_it(self, tmp_path,
                                                        capsys):
        path = tmp_path / "summary.csv"
        path.write_text("seed,horizon,final_fb,final_policy,normalized_br,"
                        "solver_iterations,confidence_violations,status\n"
                        "0,10,1.0,1.0,0.1,0,,ok\n")
        assert main(["aggregate", "--in", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}:")
        assert "'final_br'" in err and "lacks" in err

    def test_aggregate_skips_blank_lines(self, tmp_path, capsys):
        path = tmp_path / "summary.csv"
        path.write_text(SUMMARY_HEADER + "\n0,10,1.0,1.0,1.0,0.1,0,,ok\n\n"
                        "1,10,2.0,2.0,2.0,0.2,3,1,ok\n\n")
        assert main(["aggregate", "--in", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["n_runs"] == 2

    @pytest.mark.parametrize("row, where", [
        ("0,10,1.5", "line 3, column 'final_fb'"),
        ("0,10,1.0,1.0,1.0,0.1,0,", "line 3, column 'status'"),
        ("0,x,1.0,1.0,1.0,0.1,0,,ok", "line 3, column 'horizon'"),
        ("0,10,1.0,1.0,1.0,0.1,0,y,ok", "line 3, column "
         "'confidence_violations'"),
    ])
    def test_aggregate_bad_row_names_its_line_and_column(self, tmp_path,
                                                         capsys, row, where):
        path = tmp_path / "summary.csv"
        path.write_text(SUMMARY_HEADER + "\n0,10,1.0,1.0,1.0,0.1,0,,ok\n"
                        + row + "\n")
        assert main(["aggregate", "--in", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: {where}")

    def test_aggregate_reads_summaries_in_path_order(self, tmp_path,
                                                     capsys, monkeypatch):
        # the bootstrap ci95 of a (T, 4T) pair depends on the order of the
        # summaries, so it must not follow the filesystem's walk order
        rows = {"a": [(10, 1.0), (10, 3.0), (40, 2.5), (40, 7.0)],
                "b": [(10, 2.0), (10, 5.0), (40, 4.0), (40, 9.5)]}
        for name, runs in rows.items():
            (tmp_path / name).mkdir()
            (tmp_path / name / "summary.csv").write_text(
                SUMMARY_HEADER + "\n" + "".join(
                    f"{seed},{t},{br},{br},{br},0.1,0,,ok\n"
                    for seed, (t, br) in enumerate(runs)))
        summaries = {name: _parse_summary_csv(str(tmp_path / name
                                                  / "summary.csv"))
                     for name in rows}
        forward = aggregate(summaries["a"] + summaries["b"])
        assert forward != aggregate(summaries["b"] + summaries["a"])
        walk = sorted(os.walk(tmp_path))
        for order in (walk, walk[::-1]):
            monkeypatch.setattr(os, "walk",
                                lambda top, order=order: iter(order))
            assert main(["aggregate", "--in", str(tmp_path)]) == 0
            assert json.loads(capsys.readouterr().out) == json.loads(
                json.dumps(forward))

    def test_aggregate_empty_dir(self, tmp_path):
        assert main(["aggregate", "--in", str(tmp_path)]) == 1


class TestAcceptCommand:
    def test_single_fast_suite(self, capsys):
        assert main(["accept", "--suite", "10"]) == 0
        out = capsys.readouterr().out
        assert "criterion 10" in out and "PASS" in out

    def test_suite_by_name(self, capsys):
        assert main(["accept", "--suite", "nash-zero-regret"]) == 0
        assert "criterion 9" in capsys.readouterr().out

    @pytest.mark.parametrize("suite", ["bogus", "12", "0", " 3", "3 "])
    def test_unknown_suite_is_a_config_error(self, suite, capsys):
        assert main(["accept", "--suite", suite]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: unknown suite {suite!r}")
        assert "1-11" in captured.err and "nash-zero-regret" in captured.err

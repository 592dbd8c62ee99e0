"""Command-line interface tests: flags, outputs, exit codes."""

import json

import pytest

from tscbench.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main, parse_hp

import conftest
from test_network import ONE_SIGNAL_PER_LANE


@pytest.fixture(scope="module")
def paths():
    return {
        "net": str(conftest.DATA / "single.net"),
        "demand": str(conftest.DATA / "single_asym_demand.json"),
        "dnet": str(conftest.DATA / "double.net"),
        "ddemand": str(conftest.DATA / "double_demand.json"),
    }


class TestParseHp:
    def test_coercion(self):
        assert parse_hp("u=15") == {"u": 15}
        assert parse_hp("theta=50.5,mu=3") == {"theta": 50.5, "mu": 3}
        assert parse_hp("") == {}
        assert parse_hp(None) == {}

    def test_malformed(self):
        from tscbench.experiments import ConfigError
        with pytest.raises(ConfigError):
            parse_hp("u")
        with pytest.raises(ConfigError):
            parse_hp("=5")


class TestExitCodes:
    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == EXIT_USAGE

    def test_help_is_ok(self):
        assert main(["--help"]) == EXIT_OK

    def test_unknown_tsc_is_usage_error(self, paths, tmp_path):
        assert main(["simulate", "--net", paths["net"], "--demand",
                     paths["demand"], "--tsc", "scats",
                     "--out", str(tmp_path)]) == EXIT_USAGE

    def test_missing_file(self, paths, tmp_path):
        assert main(["simulate", "--net", "/does/not/exist", "--demand",
                     paths["demand"], "--tsc", "uniform",
                     "--out", str(tmp_path)]) == EXIT_USAGE

    def test_unknown_hp(self, paths, tmp_path):
        assert main(["simulate", "--net", paths["net"], "--demand",
                     paths["demand"], "--tsc", "uniform", "--hp", "q=1",
                     "--out", str(tmp_path)]) == EXIT_USAGE

    def test_demand_lane_without_route(self, paths, tmp_path):
        demand = tmp_path / "demand.json"
        demand.write_text(json.dumps({"nope": [[0, 600], [600, 600]]}))
        assert main(["simulate", "--net", paths["net"], "--demand",
                     str(demand), "--tsc", "uniform",
                     "--out", str(tmp_path / "sim")]) == EXIT_USAGE

    @pytest.mark.parametrize("text", [
        '{"n_in": [[0, NaN], [600, 600]]}',
        '{"n_in": [[0, 600], [600, Infinity]]}',
        '{"n_in": []}',
        '[["n_in", [[0, 600], [600, 600]]]]',
        '{"n_in": [[0, 600], [Infinity, 600]]}',
        '{"n_in": [[0, 600], [600]]}',
    ], ids=["nan-rate", "inf-rate", "no-points", "list-top-level",
            "inf-time", "short-point"])
    def test_corrupt_demand(self, paths, tmp_path, text):
        demand = tmp_path / "demand.json"
        demand.write_text(text)
        assert main(["simulate", "--net", paths["net"], "--demand",
                     str(demand), "--tsc", "uniform",
                     "--out", str(tmp_path / "sim")]) == EXIT_USAGE

    @pytest.mark.parametrize("key,value", [
        ("length_m", "Infinity"), ("jam_capacity", "Infinity"),
        ("speed_mps", "Infinity"), ("jam_capacity", "2.5"),
        ("length_m", "NaN"),
    ], ids=["inf-length", "inf-jam", "inf-speed", "fractional-jam",
            "nan-length"])
    def test_corrupt_network_lane(self, paths, tmp_path, capsys, key,
                                  value):
        data = conftest.single_net_dict()
        data["lanes"]["n_in"][key] = json.loads(value)
        net = tmp_path / "bad.net"
        net.write_text(json.dumps(data))
        assert main(["simulate", "--net", str(net), "--demand",
                     paths["demand"], "--tsc", "uniform",
                     "--out", str(tmp_path / "sim")]) == EXIT_USAGE
        assert "'n_in'" in capsys.readouterr().err

    @pytest.mark.parametrize("iid,kind,lane", ONE_SIGNAL_PER_LANE,
                             ids=["twice-incoming", "twice-outgoing",
                                  "two-intersections"])
    def test_lane_with_two_signals(self, paths, tmp_path, capsys, iid, kind,
                                   lane):
        data = conftest.single_net_dict("double.net")
        data["intersections"][iid][kind].append(lane)
        net = tmp_path / "bad.net"
        net.write_text(json.dumps(data))
        assert main(["simulate", "--net", str(net), "--demand",
                     paths["ddemand"], "--tsc", "sotl",
                     "--out", str(tmp_path / "sim")]) == EXIT_USAGE
        assert f"'{lane}'" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()

    def test_network_section_shape(self, paths, tmp_path, capsys):
        data = conftest.single_net_dict()
        data["lanes"] = []
        net = tmp_path / "bad.net"
        net.write_text(json.dumps(data))
        assert main(["simulate", "--net", str(net), "--demand",
                     paths["demand"], "--tsc", "uniform",
                     "--out", str(tmp_path / "sim")]) == EXIT_USAGE
        assert "lanes must be an object" in capsys.readouterr().err

    def test_corrupt_checkpoint(self, paths, tmp_path):
        train_out = tmp_path / "train"
        assert main(["train", "--net", paths["net"], "--demand",
                     paths["demand"], "--tsc", "dqn", "--episodes", "1",
                     "--out", str(train_out)]) == EXIT_OK
        ckpt = train_out / "checkpoints"
        meta = json.loads((ckpt / "meta.json").read_text())
        blob = ckpt / meta["files"]["i0"]
        data = blob.read_bytes()
        for corrupt in (data[:-5], data[:20], data + b"junk"):
            blob.write_bytes(corrupt)
            assert main(["evaluate", "--net", paths["net"], "--demand",
                         paths["demand"], "--tsc", "dqn",
                         "--checkpoint", str(ckpt), "--runs", "1",
                         "--out", str(tmp_path / "e")]) == EXIT_USAGE

    def test_corrupt_checkpoint_meta(self, paths, tmp_path):
        train_out = tmp_path / "train"
        assert main(["train", "--net", paths["net"], "--demand",
                     paths["demand"], "--tsc", "dqn", "--episodes", "1",
                     "--out", str(train_out)]) == EXIT_OK
        ckpt = train_out / "checkpoints"
        for meta in ({"files": {}}, {"algo": "dqn"}, []):
            (ckpt / "meta.json").write_text(json.dumps(meta))
            assert main(["evaluate", "--net", paths["net"], "--demand",
                         paths["demand"], "--tsc", "dqn",
                         "--checkpoint", str(ckpt), "--runs", "1",
                         "--out", str(tmp_path / "e")]) == EXIT_USAGE, meta

    def test_learning_without_checkpoint(self, paths, tmp_path):
        assert main(["simulate", "--net", paths["net"], "--demand",
                     paths["demand"], "--tsc", "dqn",
                     "--out", str(tmp_path)]) == EXIT_USAGE


class TestSimulate:
    def test_writes_summary_and_moe(self, paths, tmp_path):
        out = tmp_path / "sim"
        code = main(["simulate", "--net", paths["net"], "--demand",
                     paths["demand"], "--tsc", "uniform", "--hp", "u=15",
                     "--seed", "3", "--out", str(out)])
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["controller"] == "uniform"
        assert summary["hp"] == {"u": 15}
        assert summary["samples"] > 0
        assert (out / "moe.csv").read_text().startswith("kind,")

    def test_same_seed_same_output(self, paths, tmp_path):
        args = ["simulate", "--net", paths["net"], "--demand",
                paths["demand"], "--tsc", "maxpressure", "--hp", "g_min=10",
                "--seed", "4"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "moe.csv").read_bytes() == \
            (tmp_path / "b" / "moe.csv").read_bytes()


class TestTune:
    def test_grid_file(self, paths, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"u": [10, 20]}))
        out = tmp_path / "tune"
        code = main(["tune", "--net", paths["net"], "--demand",
                     paths["demand"], "--tsc", "uniform",
                     "--grid", str(grid), "--trials", "2",
                     "--procs", "1", "--out", str(out)])
        assert code == EXIT_OK
        ranking = json.loads((out / "ranking.json").read_text())
        assert len(ranking["ranking"]) == 2
        assert (out / "trials.csv").exists()


class TestNonFiniteHyperparameters:
    @pytest.mark.parametrize("cmd,tsc,hp", [
        ("simulate", "sotl", "theta=nan"), ("simulate", "sotl", "omega=inf"),
        ("simulate", "webster", "s_sat=nan"),
        ("simulate", "maxpressure", "g_min=inf"),
        ("evaluate", "sotl", "theta=-inf"), ("train", "dqn", "lr=nan"),
        ("train", "ddpg", "l2=inf"),
    ])
    def test_hp_flag(self, paths, tmp_path, capsys, cmd, tsc, hp):
        out = tmp_path / "out"
        assert main([cmd, "--net", paths["net"], "--demand",
                     paths["demand"], "--tsc", tsc, "--hp", hp,
                     "--out", str(out)]) == EXIT_USAGE
        assert "must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tsc,values", [
        ("sotl", {"theta": [50.0, float("nan")]}),
        ("webster", {"R": [float("inf")]}),
        ("dqn", {"lr": [float("nan")]}),
    ])
    def test_grid_file(self, paths, tmp_path, tsc, values):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(values))  # writes NaN / Infinity
        assert "NaN" in grid.read_text() or "Infinity" in grid.read_text()
        assert main(["tune", "--net", paths["net"], "--demand",
                     paths["demand"], "--tsc", tsc, "--grid", str(grid),
                     "--trials", "1", "--out",
                     str(tmp_path / "tune")]) == EXIT_USAGE

    def test_python_api(self, single_net, single_demand):
        from tscbench import experiments
        with pytest.raises(ValueError, match="theta"):
            experiments.evaluate("sotl", {"theta": float("nan")}, single_net,
                                 single_demand, runs=1)
        with pytest.raises(ValueError, match="g_min"):
            experiments.tune(experiments.GridSpec(
                "maxpressure", {"g_min": [float("inf")]}, trials=1),
                single_net, single_demand)
        with pytest.raises(ValueError, match="critic_lr"):
            experiments.agent_config("ddpg", {"critic_lr": float("inf")})


class TestTrainEvaluateCompare:
    def test_full_learning_pipeline(self, paths, tmp_path):
        train_out = tmp_path / "train"
        code = main(["train", "--net", paths["net"], "--demand",
                     paths["demand"], "--tsc", "dqn", "--actors", "1",
                     "--learners", "1", "--episodes", "3", "--seed", "0",
                     "--out", str(train_out)])
        assert code == EXIT_OK
        ckpt = train_out / "checkpoints"
        meta = json.loads((ckpt / "meta.json").read_text())
        assert meta["algo"] == "dqn"
        assert (train_out / "training_log.csv").exists()

        eval_dqn = tmp_path / "eval_dqn"
        code = main(["evaluate", "--net", paths["net"], "--demand",
                     paths["demand"], "--tsc", "dqn",
                     "--checkpoint", str(ckpt), "--runs", "2",
                     "--seed", "0", "--out", str(eval_dqn)])
        assert code == EXIT_OK

        eval_uni = tmp_path / "eval_uni"
        code = main(["evaluate", "--net", paths["net"], "--demand",
                     paths["demand"], "--tsc", "uniform", "--hp", "u=10",
                     "--runs", "2", "--seed", "0", "--out", str(eval_uni)])
        assert code == EXIT_OK

        cmp_out = tmp_path / "cmp"
        code = main(["compare", "--in", f"{eval_dqn},{eval_uni}",
                     "--out", str(cmp_out)])
        assert code == EXIT_OK
        ranking = json.loads((cmp_out / "comparison.json").read_text())
        assert len(ranking["ranking"]) == 2
        assert (cmp_out / "comparison.csv").exists()

    def test_wrong_checkpoint_algo(self, paths, tmp_path):
        train_out = tmp_path / "train"
        main(["train", "--net", paths["net"], "--demand", paths["demand"],
              "--tsc", "ddpg", "--episodes", "2", "--seed", "0",
              "--out", str(train_out)])
        code = main(["evaluate", "--net", paths["net"], "--demand",
                     paths["demand"], "--tsc", "dqn",
                     "--checkpoint", str(train_out / "checkpoints"),
                     "--runs", "1", "--out", str(tmp_path / "e")])
        assert code == EXIT_USAGE

    def test_compare_mismatched_runs(self, paths, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        main(["evaluate", "--net", paths["net"], "--demand", paths["demand"],
              "--tsc", "uniform", "--hp", "u=10", "--runs", "2",
              "--out", str(a)])
        main(["evaluate", "--net", paths["net"], "--demand", paths["demand"],
              "--tsc", "uniform", "--hp", "u=15", "--runs", "3",
              "--out", str(b)])
        assert main(["compare", "--in", f"{a},{b}",
                     "--out", str(tmp_path / "c")]) == EXIT_USAGE

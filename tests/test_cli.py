"""Command-line interface tests: flags, outputs, exit codes."""

import json
import shutil

import pytest

from tscbench import experiments
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


@pytest.fixture(scope="module")
def checkpoint(paths, tmp_path_factory):
    """A DQN checkpoint directory trained for one episode on single.net."""
    out = tmp_path_factory.mktemp("train")
    assert main(["train", "--net", paths["net"], "--demand",
                 paths["demand"], "--tsc", "dqn", "--episodes", "1",
                 "--out", str(out)]) == EXIT_OK
    return out / "checkpoints"


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

    def test_empty_items_skipped(self):
        assert parse_hp("u=5,") == {"u": 5}
        assert parse_hp(" , theta=50 ,,") == {"theta": 50}


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

    def test_repeated_hp(self, paths, tmp_path, capsys, episodes):
        out = tmp_path / "sim"
        assert main(["simulate", "--net", paths["net"], "--demand",
                     paths["demand"], "--tsc", "uniform", "--hp",
                     "u=5,u=10", "--out", str(out)]) == EXIT_USAGE
        assert "hyperparameter 'u' given twice" in capsys.readouterr().err
        assert not out.exists() and episodes == []

    def test_demand_lane_without_route(self, paths, tmp_path, capsys,
                                       episodes):
        # refused with the inputs, before any command makes its --out
        demand = tmp_path / "demand.json"
        demand.write_text(json.dumps({"n_in": [[0, 600], [600, 600]],
                                      "nope": [[0, 600], [600, 600]]}))
        out = tmp_path / "out"
        for command, extra in (
                ("simulate", ["--tsc", "uniform"]),
                ("evaluate", ["--tsc", "uniform", "--runs", "1"]),
                ("tune", ["--tsc", "uniform", "--trials", "1"]),
                ("train", ["--tsc", "dqn", "--episodes", "1"])):
            assert main([command, "--net", paths["net"], "--demand",
                         str(demand), "--out", str(out), *extra]) \
                == EXIT_USAGE, command
            err = capsys.readouterr().err
            assert str(demand) in err and "'nope'" in err, command
            assert not out.exists() and episodes == [], command

    def test_point_of_strings(self, paths, tmp_path, capsys, episodes):
        # "05" is not the point (0, 5)
        demand = tmp_path / "demand.json"
        demand.write_text(json.dumps({"n_in": ["05", "95"],
                                      "s_in": [[0, 100], [600, 100]],
                                      "e_in": [[0, 100], [600, 100]]}))
        out = tmp_path / "sim"
        assert main(["simulate", "--net", paths["net"], "--demand",
                     str(demand), "--tsc", "uniform",
                     "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(demand) in err and "'n_in'" in err
        assert not out.exists() and episodes == []

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
        ("length_m", "NaN"), ("length_m", "1" + "0" * 400),
    ], ids=["inf-length", "inf-jam", "inf-speed", "fractional-jam",
            "nan-length", "huge-length"])
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

    def test_malformed_checkpoint_meta_fields(self, paths, tmp_path, capsys):
        train_out = tmp_path / "train"
        assert main(["train", "--net", paths["net"], "--demand",
                     paths["demand"], "--tsc", "dqn", "--episodes", "1",
                     "--out", str(train_out)]) == EXIT_OK
        ckpt = train_out / "checkpoints"
        meta = json.loads((ckpt / "meta.json").read_text())
        for key, value in (
                ("r_min", [1, 2]), ("r_min", {"i0": "a"}),
                ("r_min", {"i0": [1.0]}), ("r_min", {"i0": None}),
                ("r_min", {"i0": True}), ("r_min", {"i0": 10 ** 400}),
                ("files", {"i0": 3}), ("files", {"i0": None}),
                ("config", 5), ("config", "ab"), ("config", {"lr": "x"}),
                ("config", {"target_sync": 0})):
            (ckpt / "meta.json").write_text(json.dumps({**meta,
                                                        key: value}))
            capsys.readouterr()
            assert main(["evaluate", "--net", paths["net"], "--demand",
                         paths["demand"], "--tsc", "dqn",
                         "--checkpoint", str(ckpt), "--runs", "1",
                         "--out", str(tmp_path / "e")]) == EXIT_USAGE, value
            assert f'"{key}"' in capsys.readouterr().err

    def test_checkpoint_meta_missing_an_intersection(self, paths, tmp_path,
                                                     capsys, checkpoint):
        ckpt = tmp_path / "checkpoints"
        shutil.copytree(checkpoint, ckpt)
        meta = json.loads((ckpt / "meta.json").read_text())
        (ckpt / "meta.json").write_text(json.dumps({**meta, "files": {}}))
        out = tmp_path / "e"
        assert main(["evaluate", "--net", paths["net"], "--demand",
                     paths["demand"], "--tsc", "dqn", "--checkpoint",
                     str(ckpt), "--runs", "1", "--out", str(out)]) \
            == EXIT_USAGE
        assert "checkpoint missing intersection 'i0'" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_hp_with_checkpoint(self, paths, tmp_path, capsys, episodes):
        # a checkpoint's config fixes every hyperparameter: --hp beside it
        # is refused, not ignored and recorded
        train_out = tmp_path / "train"
        assert main(["train", "--net", paths["net"], "--demand",
                     paths["demand"], "--tsc", "dqn", "--episodes", "1",
                     "--out", str(train_out)]) == EXIT_OK
        for cmd, extra in (("evaluate", ["--runs", "1"]), ("simulate", [])):
            episodes.clear()
            capsys.readouterr()
            out = tmp_path / cmd
            assert main([cmd, "--net", paths["net"], "--demand",
                         paths["demand"], "--tsc", "dqn",
                         "--hp", "bogus=7,a_repeat=99", "--checkpoint",
                         str(train_out / "checkpoints"), *extra,
                         "--out", str(out)]) == EXIT_USAGE, cmd
            assert "['a_repeat', 'bogus']" in capsys.readouterr().err
            assert episodes == [] and not out.exists()

    @pytest.mark.parametrize("cmd,extra", [("simulate", []),
                                           ("evaluate", ["--runs", "1"])])
    def test_checkpoint_with_classic_controller(self, paths, tmp_path,
                                                capsys, episodes, checkpoint,
                                                cmd, extra):
        # a classic controller has no checkpoint to read: one beside it,
        # trained or not there at all, is refused, not ignored
        out = tmp_path / cmd
        for ckpt in (tmp_path / "nonexistent", checkpoint):
            assert main([cmd, "--net", paths["net"], "--demand",
                         paths["demand"], "--tsc", "uniform", "--checkpoint",
                         str(ckpt), *extra, "--out", str(out)]) == EXIT_USAGE
            assert "'uniform' is classic: it takes no checkpoint" in \
                capsys.readouterr().err
            assert episodes == [] and not out.exists()

    def test_learners_flag_is_gone(self, paths, tmp_path, episodes):
        out = tmp_path / "train"
        for learners in ("1", "2"):
            assert main(["train", "--net", paths["net"], "--demand",
                         paths["demand"], "--tsc", "dqn", "--learners",
                         learners, "--episodes", "1",
                         "--out", str(out)]) == EXIT_USAGE
        assert episodes == [] and not out.exists()

    @pytest.mark.parametrize("kind,edit,message", [
        ("net", lambda d: d["lanes"]["n_in"].update(length_m=-1),
         "lane 'n_in': length must be > 0"),
        ("net", lambda d: [d], "top level must be a JSON object"),
        ("net", lambda d: d["lanes"]["n_in"].update(speed_mps=0),
         "lane 'n_in': speed_limit must be > 0"),
        ("net", lambda d: d["lanes"]["n_in"].update(jam_capacity=0),
         "lane 'n_in': jam_capacity must be >= 1"),
        ("net", lambda d: d["intersections"]["i0"]["phases"][0][
            "movements"].append(["ghost", "s_out"]),
         "intersection 'i0' phase 0: unknown lane 'ghost'"),
        ("net", lambda d: d["intersections"]["i0"]["phases"][0][
            "movements"].append(["n_in", "e_in"]),
         "intersection 'i0' phase 0: lane 'e_in' is not an outgoing lane"),
        ("net", lambda d: d["routes"].append([]), "route 4: empty"),
        ("net", lambda d: d["routes"].append(["n_in", "ghost"]),
         "route 4 references unknown lane 'ghost'"),
        ("net", lambda d: d.update(routes=[]), "network declares no routes"),
        ("net", lambda d: d["routes"].append(["n_in"]),
         "route 4 ends on lane 'n_in', which is incoming at intersection "
         "'i0'; a route ends on a lane no intersection controls"),
        ("demand", lambda d: d.update(n_in=[[0, -5], [600, -5]]),
         "negative rate for lane 'n_in'"),
    ], ids=["net", "net-top-level-list", "net-zero-speed", "net-zero-jam",
            "net-movement-unknown-lane", "net-movement-into-incoming",
            "net-empty-route", "net-route-unknown-lane", "net-no-routes",
            "net-route-ends-at-signal", "demand"])
    def test_invalid_content_names_the_file(self, paths, tmp_path, capsys,
                                            kind, edit, message):
        data = conftest.single_net_dict(
            "single.net" if kind == "net" else "single_asym_demand.json")
        data = edit(data) or data  # an edit returns a replacement, or None
        bad = tmp_path / f"bad.{kind}"
        bad.write_text(json.dumps(data))
        argv = {"net": paths["net"], "demand": paths["demand"], kind: str(bad)}
        out = tmp_path / "sim"
        assert main(["simulate", "--net", argv["net"], "--demand",
                     argv["demand"], "--tsc", "uniform",
                     "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not out.exists()

    def test_learning_without_checkpoint(self, paths, tmp_path):
        assert main(["simulate", "--net", paths["net"], "--demand",
                     paths["demand"], "--tsc", "dqn",
                     "--out", str(tmp_path)]) == EXIT_USAGE


class TestPaths:
    """A path that cannot serve its flag exits 2 naming it, and an --out
    that cannot be a directory does so before any episode runs."""

    @pytest.mark.parametrize("flag", ["--net", "--demand", "--grid"])
    def test_directory_given_as_file(self, paths, tmp_path, capsys, flag):
        files = {"--net": paths["net"], "--demand": paths["demand"],
                 "--grid": str(tmp_path / "grid.json")}
        (tmp_path / "grid.json").write_text('{"u": [10]}')
        files[flag] = str(tmp_path)
        assert main(["tune", "--tsc", "uniform", "--trials", "1",
                     "--out", str(tmp_path / "tune"),
                     *(x for kv in files.items() for x in kv)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Is a directory" in err and str(tmp_path) in err
        assert not (tmp_path / "tune").exists()

    @pytest.mark.parametrize("cmd,tsc,extra", [
        ("simulate", "uniform", []), ("evaluate", "uniform", ["--runs", "1"]),
        ("tune", "uniform", ["--trials", "1"]),
        ("train", "dqn", ["--episodes", "1"]),
    ])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "in-file"])
    def test_out_that_cannot_be_a_directory(self, paths, tmp_path, capsys,
                                            episodes, cmd, tsc, extra,
                                            under):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker / "out" if under else blocker
        assert main([cmd, "--net", paths["net"], "--demand",
                     paths["demand"], "--tsc", tsc, *extra,
                     "--out", str(out)]) == EXIT_USAGE
        assert f"{blocker} is not a directory" in capsys.readouterr().err
        assert episodes == []

    def test_checkpoint_for_another_network(self, paths, tmp_path, capsys,
                                            episodes):
        # trained on single.net; evaluated on a copy whose i0 has a third
        # phase, so its state is 12 wide, not 11
        train_out = tmp_path / "train"
        assert main(["train", "--net", paths["net"], "--demand",
                     paths["demand"], "--tsc", "dqn", "--episodes", "1",
                     "--out", str(train_out)]) == EXIT_OK
        data = conftest.single_net_dict()
        data["intersections"]["i0"]["phases"].append(
            {"movements": [["n_in", "s_out"]]})
        net = tmp_path / "three_phases.net"
        net.write_text(json.dumps(data))
        ckpt = train_out / "checkpoints"
        blob = ckpt / json.loads((ckpt / "meta.json").read_text())["files"][
            "i0"]
        episodes.clear()
        capsys.readouterr()
        assert main(["evaluate", "--net", str(net), "--demand",
                     paths["demand"], "--tsc", "dqn", "--checkpoint",
                     str(ckpt), "--runs", "1",
                     "--out", str(tmp_path / "e")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(blob) in err and "'i0'" in err
        assert "input 11 -> 33 elu -> 33 elu -> 2 linear" in err
        assert "input 12 -> 36 elu -> 36 elu -> 3 linear" in err
        assert episodes == []
        assert not (tmp_path / "e").exists()


BREAK = {
    "missing": lambda path: path.unlink(),
    "directory": lambda path: (path.unlink(), path.mkdir()),
    "not-utf8": lambda path: path.write_bytes(b'{"u": "\xff"}'),
    "not-json": lambda path: path.write_text("{not json"),
}


class TestReadFailures:
    """Every input file that is missing, a directory, not UTF-8 or not
    JSON exits 2 naming the file, before --out is made."""

    @pytest.mark.parametrize("target,failure", [
        *((target, failure) for target in ("net", "demand", "grid", "meta",
                                           "summary") for failure in BREAK),
        ("ckpt", "missing"), ("ckpt", "directory")])
    def test_exits_2_naming_the_file(self, paths, checkpoint, tmp_path,
                                     capsys, target, failure):
        ckpt = tmp_path / "checkpoints"
        shutil.copytree(checkpoint, ckpt)
        files = {
            "net": tmp_path / "single.net",
            "demand": tmp_path / "demand.json",
            "grid": tmp_path / "grid.json",
            "meta": ckpt / "meta.json",
            "ckpt": ckpt / json.loads((ckpt / "meta.json").read_text())[
                "files"]["i0"],
            "summary": tmp_path / "bad" / "summary.json",
        }
        shutil.copy(paths["net"], files["net"])
        shutil.copy(paths["demand"], files["demand"])
        files["grid"].write_text('{"u": [10]}')
        summary = json.dumps({"controller": "uniform", "hp": {},
                              "condition": {}, "samples": 0, "box": None})
        for name in ("bad", "good"):
            (tmp_path / name).mkdir()
            (tmp_path / name / "summary.json").write_text(summary)
        BREAK[failure](files[target])

        out = tmp_path / "out"
        inputs = ["--net", str(files["net"]), "--demand", str(files["demand"]),
                  "--out", str(out)]
        argv = {
            "ckpt": ["evaluate", "--tsc", "dqn", "--runs", "1",
                     "--checkpoint", str(ckpt), *inputs],
            "summary": ["compare", "--in",
                        f"{tmp_path / 'bad'},{tmp_path / 'good'}",
                        "--out", str(out)],
        }
        argv["meta"] = argv["ckpt"]
        default = ["tune", "--tsc", "uniform", "--trials", "1", "--grid",
                   str(files["grid"]), *inputs]
        assert main(argv.get(target, default)) == EXIT_USAGE
        assert str(files[target]) in capsys.readouterr().err
        assert not out.exists()


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


class TestEvaluate:
    def test_no_completed_trips(self, paths, tmp_path, capsys):
        demand = tmp_path / "demand.json"
        demand.write_text(json.dumps({"n_in": [[0, 0], [600, 0]]}))
        out = tmp_path / "eval"
        assert main(["evaluate", "--net", paths["net"], "--demand",
                     str(demand), "--tsc", "uniform", "--runs", "1",
                     "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == \
            "no completed trips; summary flags no_samples\n"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["samples"] == 0 and summary["box"] is None


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

    def test_best_config_without_a_trip(self, paths, tmp_path, capsys,
                                        monkeypatch):
        monkeypatch.setattr(experiments, "_trial_mean",
                            lambda *args: float("nan"))
        assert main(["tune", "--net", paths["net"], "--demand",
                     paths["demand"], "--tsc", "maxpressure", "--trials",
                     "1", "--out", str(tmp_path / "tune")]) == EXIT_OK
        out = capsys.readouterr().out
        assert "best config: maxpressure;g_min=10 (no score" in out
        assert "finished no trip" in out and "nan" not in out


class TestCounts:
    """A run or process count below 1, or a negative seed, exits 2 and
    writes nothing: no evaluation under a fingerprint of 0 or -3 runs, no
    silent serial run, no empty --out."""

    @pytest.mark.parametrize("flag,value", [("--runs", "0"), ("--runs", "-3"),
                                            ("--procs", "0"),
                                            ("--procs", "-2")])
    def test_evaluate(self, paths, tmp_path, capsys, flag, value):
        out = tmp_path / "eval"
        opts = {"--runs": "1", flag: value}
        assert main(["evaluate", "--net", paths["net"], "--demand",
                     paths["demand"], "--tsc", "uniform", "--out", str(out),
                     *(x for kv in opts.items() for x in kv)]) == EXIT_USAGE
        assert f"{flag[2:]} must be >= 1" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_train_episodes(self, paths, tmp_path, capsys, episodes):
        out = tmp_path / "train"
        assert main(["train", "--net", paths["net"], "--demand",
                     paths["demand"], "--tsc", "dqn", "--episodes", "0",
                     "--out", str(out)]) == EXIT_USAGE
        assert "episodes must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists() and episodes == []

    def test_train_actors(self, paths, tmp_path, capsys, episodes):
        # the option is gone: any count is a usage error
        out = tmp_path / "train"
        for actors in ("0", "1", "2"):
            assert main(["train", "--net", paths["net"], "--demand",
                         paths["demand"], "--tsc", "dqn", "--actors", actors,
                         "--out", str(out)]) == EXIT_USAGE
            assert "unrecognized arguments: --actors" in \
                capsys.readouterr().err
        assert not out.exists() and episodes == []

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_tune(self, paths, tmp_path, capsys, value):
        out = tmp_path / "tune"
        assert main(["tune", "--net", paths["net"], "--demand",
                     paths["demand"], "--tsc", "uniform", "--trials", "1",
                     "--procs", value, "--out", str(out)]) == EXIT_USAGE
        assert "procs must be >= 1" in capsys.readouterr().err
        assert not (out / "ranking.json").exists()


    @pytest.mark.parametrize("cmd,tsc,extra", [
        ("simulate", "uniform", []), ("evaluate", "uniform", ["--runs", "1"]),
        ("train", "dqn", ["--episodes", "1"]),
        ("tune", "uniform", ["--trials", "1"]),
    ])
    def test_negative_seed(self, paths, tmp_path, capsys, episodes, cmd, tsc,
                           extra):
        out = tmp_path / "out"
        assert main([cmd, "--net", paths["net"], "--demand", paths["demand"],
                     "--tsc", tsc, *extra, "--seed", "-4",
                     "--out", str(out)]) == EXIT_USAGE
        assert "seed must be >= 0, got -4" in capsys.readouterr().err
        assert not out.exists() and episodes == []


class TestMalformedGrid:
    @pytest.mark.parametrize("tsc,values,field", [
        ("maxpressure", [10, 20], "object"),
        ("maxpressure", {}, "object"),
        ("maxpressure", {"g_min": 10}, "g_min"),
        ("maxpressure", {"g_min": []}, "g_min"),
        ("maxpressure", {"g_min": ["a"]}, "g_min"),
        ("maxpressure", {"g_min": [10, 0.5]}, "g_min"),
        ("sotl", {"mu": [3, 2.5]}, "mu"),
        ("ddpg", {"g_min,g_max": [5, 30]}, "g_min,g_max"),
        ("ddpg", {"g_min,g_max": [[5, 30, 60]]}, "g_min,g_max"),
        # one name in two keys, or twice in one key: no value is dropped
        ("sotl", {"g_min": [5, 10], "g_min,theta": [[20, 50]]},
         "hyperparameter 'g_min' more than once"),
        ("sotl", {"theta,theta": [[20, 50]]},
         "hyperparameter 'theta' more than once"),
    ])
    def test_exits_2_naming_the_field(self, paths, tmp_path, capsys, tsc,
                                      values, field):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(values))
        out = tmp_path / "tune"
        assert main(["tune", "--net", paths["net"], "--demand",
                     paths["demand"], "--tsc", tsc, "--grid", str(grid),
                     "--trials", "1", "--out", str(out)]) == EXIT_USAGE
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_whole_floats_accepted(self, paths, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"g_min": [10.0]}))
        out = tmp_path / "tune"
        assert main(["tune", "--net", paths["net"], "--demand",
                     paths["demand"], "--tsc", "maxpressure", "--grid",
                     str(grid), "--trials", "1", "--out", str(out)]) == EXIT_OK
        ranking = json.loads((out / "ranking.json").read_text())
        assert [r["hp"] for r in ranking["ranking"]] == [{"g_min": 10.0}]


class TestFractionalHyperparameters:
    @pytest.mark.parametrize("cmd,tsc,hp", [
        ("simulate", "maxpressure", "g_min=0.5"),
        ("simulate", "uniform", "u=0.5"), ("simulate", "sotl", "mu=a"),
        ("evaluate", "webster", "W=60.5"),
        ("train", "dqn", "batch_size=2.5"), ("train", "ddpg", "g_max=45.5"),
    ])
    def test_hp_flag(self, paths, tmp_path, capsys, cmd, tsc, hp):
        out = tmp_path / "out"
        assert main([cmd, "--net", paths["net"], "--demand",
                     paths["demand"], "--tsc", tsc, "--hp", hp,
                     "--out", str(out)]) == EXIT_USAGE
        name = hp.split("=")[0]
        assert f"{name} must be a whole number" in capsys.readouterr().err
        assert not out.exists()


class TestNonFiniteHyperparameters:
    @pytest.mark.parametrize("cmd,tsc,hp", [
        ("simulate", "sotl", "theta=nan"), ("simulate", "sotl", "omega=inf"),
        ("simulate", "webster", "s_sat=nan"),
        ("simulate", "maxpressure", "g_min=inf"),
        ("evaluate", "sotl", "theta=-inf"), ("train", "dqn", "lr=nan"),
        ("train", "ddpg", "l2=inf"), ("train", "dqn", "lr=x"),
        ("simulate", "sotl", "theta=x"),
    ])
    def test_hp_flag(self, paths, tmp_path, capsys, episodes, cmd, tsc, hp):
        out = tmp_path / "out"
        assert main([cmd, "--net", paths["net"], "--demand",
                     paths["demand"], "--tsc", tsc, "--hp", hp,
                     "--out", str(out)]) == EXIT_USAGE
        assert f"{hp.split('=')[0]} must be a finite number" in \
            capsys.readouterr().err
        assert episodes == [] and not out.exists()

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
        from tscbench import experiments, fabric
        with pytest.raises(ValueError, match="theta"):
            experiments.evaluate("sotl", {"theta": float("nan")}, single_net,
                                 single_demand, runs=1)
        with pytest.raises(ValueError, match="g_min"):
            experiments.tune(experiments.GridSpec(
                "maxpressure", {"g_min": [float("inf")]}, trials=1),
                single_net, single_demand)
        with pytest.raises(ValueError, match="critic_lr"):
            fabric.agent_config("ddpg", {"critic_lr": float("inf")})


class TestOutOfRangeHyperparameters:
    @pytest.mark.parametrize("tsc,hp,message", [
        ("dqn", "target_sync=0", "target_sync must be >= 1"),
        ("dqn", "lr=-1", "lr must be > 0"),
        ("dqn", "replay_capacity=10", "replay_capacity must be >= batch"),
        ("ddpg", "critic_lr=0", "critic_lr must be > 0"),
        ("dqn", "a_repeat=0", "a_repeat must be >= 1"),
        ("dqn", "gamma=1", "gamma must be in [0, 1)"),
    ])
    def test_hp_flag(self, paths, tmp_path, capsys, episodes, tsc, hp,
                     message):
        out = tmp_path / "out"
        assert main(["train", "--net", paths["net"], "--demand",
                     paths["demand"], "--tsc", tsc, "--hp", hp,
                     "--out", str(out)]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert episodes == [] and not out.exists()

    @pytest.mark.parametrize("tsc,hp,message", [
        ("webster", "W=0", "W and s_sat must be > 0"),
        ("webster", "R=-1", "R must be >= 0"),
        ("maxpressure", "g_min=0", "g_min must be > 0"),
    ])
    def test_classic_hp_flag(self, paths, tmp_path, capsys, episodes, tsc,
                             hp, message):
        out = tmp_path / "out"
        assert main(["simulate", "--net", paths["net"], "--demand",
                     paths["demand"], "--tsc", tsc, "--hp", hp,
                     "--out", str(out)]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert episodes == [] and not out.exists()


class TestTrainEvaluateCompare:
    def test_full_learning_pipeline(self, paths, tmp_path):
        train_out = tmp_path / "train"
        code = main(["train", "--net", paths["net"], "--demand",
                     paths["demand"], "--tsc", "dqn", "--episodes", "3",
                     "--seed", "0", "--out", str(train_out)])
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

    @pytest.mark.parametrize("corrupt", [
        lambda s: [s], lambda s: {k: v for k, v in s.items()
                                  if k != "condition"}])
    def test_compare_corrupt_summary(self, paths, tmp_path, capsys,
                                     corrupt):
        for d in ("a", "b"):
            main(["evaluate", "--net", paths["net"], "--demand",
                  paths["demand"], "--tsc", "uniform", "--hp", "u=10",
                  "--runs", "1", "--out", str(tmp_path / d)])
        path = tmp_path / "b" / "summary.json"
        path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
        capsys.readouterr()
        assert main(["compare", "--in", f"{tmp_path / 'a'},{tmp_path / 'b'}",
                     "--out", str(tmp_path / "c")]) == EXIT_USAGE
        assert f"error: {path}: an evaluation summary is" in \
            capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("mean", ['"fast"', "NaN"])
    def test_compare_box_mean_not_a_number(self, paths, tmp_path, capsys,
                                           mean):
        for d in ("a", "b"):
            main(["evaluate", "--net", paths["net"], "--demand",
                  paths["demand"], "--tsc", "uniform", "--hp", "u=10",
                  "--runs", "1", "--out", str(tmp_path / d)])
        path = tmp_path / "b" / "summary.json"
        text = path.read_text()
        start = text.index('"mean": ') + len('"mean": ')
        path.write_text(text[:start] + mean + text[text.index(",", start):])
        capsys.readouterr()
        assert main(["compare", "--in", f"{tmp_path / 'a'},{tmp_path / 'b'}",
                     "--out", str(tmp_path / "c")]) == EXIT_USAGE
        assert f"error: {path}: the box's 'mean'" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_compare_same_evaluation_twice(self, paths, tmp_path, capsys):
        a = tmp_path / "a"
        main(["evaluate", "--net", paths["net"], "--demand", paths["demand"],
              "--tsc", "uniform", "--hp", "u=10", "--runs", "1",
              "--out", str(a)])
        capsys.readouterr()
        (tmp_path / "x").mkdir()
        # the same path twice, and one directory under two spellings
        for again in (a, tmp_path / "x" / ".." / "a"):
            assert main(["compare", "--in", f"{a},{again}",
                         "--out", str(tmp_path / "c")]) == EXIT_USAGE
            assert f"evaluation '{again}' given twice" in \
                capsys.readouterr().err
            assert not (tmp_path / "c").exists()

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

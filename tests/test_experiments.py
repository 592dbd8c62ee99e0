"""Statistics and experiment-harness tests."""

import csv
import json
import multiprocessing
import os
import pickle
import pickletools
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tscbench import experiments, fabric, simulation, stats
from tscbench.experiments import (ConfigError, GridSpec, config_id,
                                  make_classic_controllers, seed_for)
from tscbench.simulation import DemandProfile
from tscbench.stats import box_stats, mean_ci95, rank_score

from conftest import constant_demand


class TestStats:
    def test_box_stats_oracle(self):
        b = box_stats([1, 2, 3, 4, 100])
        assert b.median == 3 and b.q1 == 2 and b.q3 == 4
        assert b.iqr == 2
        assert b.lower_fence == -1 and b.upper_fence == 7
        assert b.outliers == [100.0]

    def test_box_stats_partition(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=200).tolist() + [50.0, -50.0]
        b = box_stats(x)
        in_fence = [v for v in x if b.lower_fence <= v <= b.upper_fence]
        assert len(in_fence) + len(b.outliers) == len(x)
        assert not set(b.outliers) & set(in_fence)

    def test_box_stats_empty(self):
        assert box_stats([]) is None

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     -float("inf")])
    def test_box_stats_rejects_non_finite_samples(self, bad):
        with pytest.raises(ValueError,
                           match=f"non-finite sample {bad!r} at index 2"):
            box_stats([3.0, 1.0, bad, float("nan"), 2.0])

    def test_box_stats_scales_an_overflowing_mean_or_std(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning either
            b = box_stats([1.0, 2.7e154])
            assert b.std == pytest.approx(1.35e154, rel=1e-15)
            assert box_stats([1.7e308, 1.7e308]).mean == 1.7e308

    def test_box_stats_rejects_overflowing_quartiles(self):
        with pytest.raises(ValueError, match="median, q1, q3"):
            box_stats([-1e308, 1e308])

    def test_rank_score_ordering(self):
        # (105, 2) -> 107 ranks above (100, 10) -> 110
        _, _, a = rank_score([90.0, 110.0])          # mu 100 sigma 10
        _, _, b = rank_score([103.0, 107.0])         # mu 105 sigma 2
        assert b == pytest.approx(107.0)
        assert a == pytest.approx(110.0)
        assert b < a

    def test_mean_ci95(self):
        m, half = mean_ci95([1.0, 2.0, 3.0])
        assert m == 2.0
        assert half == pytest.approx(1.96 * np.std([1, 2, 3], ddof=1)
                                     / np.sqrt(3))
        assert mean_ci95([5.0]) == (5.0, 0.0)


# positive finite samples (travel times are >= 1 s), with ties; on a tie
# of -0.0 and 0.0 the sign of a quartile may differ from np.percentile's
SAMPLES = st.lists(st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.sampled_from([1.0, 2.5, 60.0])), min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(x=SAMPLES)
@example(x=[7.0])
@example(x=[2.0, 1.0])
@example(x=[5.0, 5.0])
@example(x=[1.0, 2.0, 2.0, 2.0, 9.5])
def test_quartiles_equal_np_percentile(x):
    got = stats._quartiles(np.sort(x))
    want = np.percentile(np.array(x), [25.0, 50.0, 75.0], method="linear")
    assert [float(v).hex() for v in got] == [float(v).hex() for v in want]


class TestGrid:
    def test_expansion_size(self):
        grid = GridSpec("uniform", {"u": [10, 20]})
        assert len(grid.expand()) == 2
        grid = GridSpec("sotl", {"g_min": [5, 10], "theta": [10, 50, 200],
                                 "mu": [3, 7]})
        assert len(grid.expand()) == 12

    def test_compound_key(self):
        grid = GridSpec("ddpg", {"g_min,g_max": [[5, 30], [10, 60]]})
        cfgs = grid.expand()
        assert cfgs == [{"g_min": 5, "g_max": 30}, {"g_min": 10, "g_max": 60}]

    def test_invalid_grid(self):
        with pytest.raises(ConfigError):
            GridSpec("uniform", {"u": []})
        with pytest.raises(ConfigError):
            GridSpec("uniform", {"u": [10]}, trials=0)
        with pytest.raises(ConfigError):
            GridSpec("nope", {"u": [10]})

    @pytest.mark.parametrize("values,name", [
        ({"g_min": [5, 10], "g_min,theta": [[20, 50]]}, "g_min"),
        ({"theta,theta": [[20, 50]]}, "theta"),
        ({"g_min, theta": [[5, 20]], "theta": [50]}, "theta"),
    ])
    def test_hyperparameter_named_twice(self, values, name):
        # the product would silently keep one of the two values
        with pytest.raises(ConfigError, match=f"hyperparameter '{name}' "
                                              "more than once"):
            GridSpec("sotl", values)

    def test_seed_is_stable_and_distinct(self):
        s = seed_for("uniform;u=10", 0, 0)
        assert s == seed_for("uniform;u=10", 0, 0)
        assert s != seed_for("uniform;u=10", 1, 0)
        assert s != seed_for("uniform;u=20", 0, 0)
        assert s != seed_for("uniform;u=10", 0, 1)

    def test_config_id_sorted(self):
        assert config_id("sotl", {"theta": 50, "g_min": 5}) == \
            "sotl;g_min=5;theta=50"


class TestControllers:
    def test_unknown_controller(self, single_net):
        with pytest.raises(ConfigError):
            make_classic_controllers(single_net, "scoot", {})

    def test_unknown_hyperparameter(self, single_net):
        with pytest.raises(ConfigError, match="cycle"):
            make_classic_controllers(single_net, "uniform", {"cycle": 30})

    def test_learning_name_rejected_as_classic(self, single_net):
        with pytest.raises(ConfigError):
            make_classic_controllers(single_net, "dqn", {})


class TestTune:
    def test_parallelism_invariance(self, tiny_net, tmp_path):
        demand = constant_demand(["in_a", "in_b"], 400.0, horizon=300.0)
        grid = GridSpec("uniform", {"u": [5, 15]}, trials=3)
        r1 = experiments.tune(grid, tiny_net, demand, procs=1,
                              out_dir=str(tmp_path / "p1"))
        r2 = experiments.tune(grid, tiny_net, demand, procs=2,
                              out_dir=str(tmp_path / "p2"))
        assert [r.to_dict() for r in r1] == [r.to_dict() for r in r2]
        assert (tmp_path / "p1" / "ranking.json").read_bytes() == \
            (tmp_path / "p2" / "ranking.json").read_bytes()
        assert (tmp_path / "p1" / "trials.csv").read_bytes() == \
            (tmp_path / "p2" / "trials.csv").read_bytes()

    def test_ranked_ascending_by_score(self, tiny_net):
        demand = constant_demand(["in_a", "in_b"], 400.0, horizon=300.0)
        grid = GridSpec("uniform", {"u": [5, 10, 20]}, trials=2)
        ranked = experiments.tune(grid, tiny_net, demand)
        scores = [r.score for r in ranked]
        assert scores == sorted(scores)
        for r in ranked:
            assert len(r.per_seed) == 2
            assert r.score == pytest.approx(r.mu + r.sigma)

    def test_trials_csv_reparses_bit_exact(self, tiny_net, tmp_path):
        import csv
        demand = constant_demand(["in_a", "in_b"], 400.0, horizon=300.0)
        grid = GridSpec("uniform", {"u": [10]}, trials=3)
        ranked = experiments.tune(grid, tiny_net, demand,
                                  out_dir=str(tmp_path))
        with open(tmp_path / "trials.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        parsed = [float(v) for _, _, v in rows]
        assert parsed == ranked[0].per_seed

    def test_non_finite_scores_rank_last(self, tiny_net, tmp_path,
                                         monkeypatch):
        # a config with a trial that finished no trip scores NaN: it ranks
        # after every finite score, by config id, and is written as null
        means = {5: 3.0, 10: float("nan"), 15: 1.0, 20: float("nan")}
        monkeypatch.setattr(
            experiments, "_trial_mean",
            lambda net, demand, make, seed, horizon:
            means[make.keywords["hp"]["u"]])
        grid = GridSpec("uniform", {"u": [20, 15, 10, 5]}, trials=2)
        ranked = experiments.tune(grid, tiny_net, constant_demand(
            ["in_a", "in_b"], 400.0), out_dir=str(tmp_path))
        assert [r.config_id for r in ranked] == [
            "uniform;u=15", "uniform;u=5", "uniform;u=10", "uniform;u=20"]

        def refuse(token):
            raise AssertionError(f"{token} in ranking.json")

        data = json.loads((tmp_path / "ranking.json").read_text(),
                          parse_constant=refuse)
        assert [r["score"] for r in data["ranking"]] == [1.0, 3.0, None, None]
        assert data["ranking"][2]["per_seed"] == [None, None]

    def test_learning_tune(self, tiny_net):
        demand = constant_demand(["in_a", "in_b"], 400.0, horizon=200.0)
        grid = GridSpec("dqn", {"a_repeat": [10]}, trials=2)
        ranked = experiments.tune(grid, tiny_net, demand, train_episodes=2,
                                  train_horizon=200.0)
        assert len(ranked) == 1 and len(ranked[0].per_seed) == 2


class TestEvaluate:
    def test_no_samples_result(self, tiny_net, tmp_path):
        demand = constant_demand(["in_a", "in_b"], 0.0, horizon=120.0)
        res = experiments.evaluate("uniform", {"u": 10}, tiny_net, demand,
                                   runs=2, out_dir=str(tmp_path))
        assert res.box is None
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["no_samples"] is True and summary["samples"] == 0

    def test_deterministic(self, tiny_net):
        demand = constant_demand(["in_a", "in_b"], 400.0, horizon=300.0)
        a = experiments.evaluate("uniform", {"u": 10}, tiny_net, demand,
                                 runs=3)
        b = experiments.evaluate("uniform", {"u": 10}, tiny_net, demand,
                                 runs=3)
        assert a.travel_times == b.travel_times
        assert a.box.to_dict() == b.box.to_dict()

    def test_moe_bins_and_ci(self, tiny_net):
        demand = constant_demand(["in_a", "in_b"], 600.0, horizon=300.0)
        res = experiments.evaluate("uniform", {"u": 10}, tiny_net, demand,
                                   runs=3)
        rows = res.moe["x"]
        assert rows[0]["bin_start_s"] == 0.0
        assert rows[1]["bin_start_s"] == 60.0
        for row in rows:
            assert row["ci95_queue"] >= 0.0 and row["ci95_delay"] >= 0.0

    def test_checkpoint_required_for_learning(self, tiny_net):
        demand = constant_demand(["in_a", "in_b"], 400.0, horizon=120.0)
        with pytest.raises(ConfigError, match="checkpoint"):
            experiments.evaluate("dqn", {}, tiny_net, demand, runs=1)

    def test_learned_parallelism_invariance(self, tiny_net, tmp_path):
        demand = constant_demand(["in_a", "in_b"], 400.0, horizon=120.0)
        trained = fabric.train(tiny_net, demand, "dqn", 0,
                               fabric=fabric.FabricConfig(episode_budget=1),
                               out_dir=str(tmp_path))
        r1, r2 = (experiments.evaluate("dqn", {}, tiny_net, demand, runs=3,
                                       checkpoint_dir=trained.checkpoint_dir,
                                       procs=procs) for procs in (1, 2))
        assert r1.travel_times == r2.travel_times
        assert r1.moe == r2.moe

    def test_summary_reparses_stats(self, tiny_net, tmp_path):
        demand = constant_demand(["in_a", "in_b"], 400.0, horizon=300.0)
        res = experiments.evaluate("uniform", {"u": 10}, tiny_net, demand,
                                   runs=2, out_dir=str(tmp_path))
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["box"] == res.box.to_dict()  # floats survive JSON
        tts = [float(line) for line in
               (tmp_path / "travel_times.csv").read_text().splitlines()[1:]]
        assert tts == list(res.travel_times)

    def test_files_match_the_row_by_row_writer(self, tiny_net, tmp_path):
        demand = constant_demand(["in_a", "in_b"], 400.0, horizon=300.0)
        res = experiments.evaluate("uniform", {"u": 10}, tiny_net, demand,
                                   runs=2)
        res.moe['x, "quoted"'] = res.moe["x"]  # an id the CSV must quote
        res.travel_times.extend([1e-7, 12345678.25, float("inf")])
        for d in ("new", "ref"):
            (tmp_path / d).mkdir()
        experiments.write_eval(str(tmp_path / "new"), res)
        write_eval_rows(str(tmp_path / "ref"), res)
        for name in ("summary.json", "travel_times.csv", "moe.csv"):
            assert (tmp_path / "new" / name).read_bytes() == \
                (tmp_path / "ref" / name).read_bytes(), name


class TestGreedyPolicy:
    """Greedy learning control acts on the acting parameters alone: it
    reads no reward, and the same parameters act the same whether they
    come from the trained agents in memory or from their checkpoint."""

    @pytest.fixture(scope="class", params=["dqn", "ddpg"])
    def trained(self, request, double_net, double_demand, tmp_path_factory):
        from tscbench.agents import DdpgConfig
        cfg = DdpgConfig(batch_size=4) if request.param == "ddpg" else None
        out = tmp_path_factory.mktemp(request.param)
        result = fabric.train(double_net, double_demand, request.param, 0,
                              fabric=fabric.FabricConfig(episode_budget=2,
                                                         horizon=300.0),
                              agent_cfg=cfg, out_dir=str(out))
        assert sum(result.update_counts.values()) > 0
        return result

    def test_reads_no_reward(self, trained, double_net, double_demand,
                             monkeypatch):
        from tscbench.control import SignalUnit

        def refuse(unit):
            raise AssertionError("greedy control read a reward")

        monkeypatch.setattr(SignalUnit, "reward_raw", refuse)
        res = experiments.evaluate(trained.algo, {}, double_net,
                                   double_demand, runs=2, horizon=300.0,
                                   checkpoint_dir=trained.checkpoint_dir)
        assert len(res.travel_times) > 0
        log = experiments.run_episode(
            double_net, double_demand, experiments.greedy_controllers(
                double_net, trained.algo, *trained.policy()), 0,
            horizon=300.0)
        assert len(log.travel_times) > 0

    def test_checkpoint_acts_as_the_trained_agents(self, trained,
                                                   double_net,
                                                   double_demand):
        def episode(controllers):
            log = experiments.run_episode(double_net, double_demand,
                                          controllers, 3, horizon=300.0)
            series = [log.queue[iid] for iid in log.queue] + \
                [log.delay[iid] for iid in log.delay]
            return [np.asarray(x, dtype=float).tobytes()
                    for x in [log.travel_times, log.times, *series]]

        in_memory = episode(experiments.greedy_controllers(
            double_net, trained.algo, *trained.policy()))
        cfg, params = fabric.load_policy(trained.checkpoint_dir, double_net,
                                         trained.algo)
        assert cfg == trained.policy()[0]
        assert episode(experiments.greedy_controllers(
            double_net, trained.algo, cfg, params)) == in_memory
        assert episode(experiments.controller_factory(
            double_net, trained.algo, {}, trained.checkpoint_dir)(
                double_net)) == in_memory

    def test_draws_no_random_number(self, trained, double_net,
                                    double_demand):
        # greedy controllers are seeded 0; any other seed acts the same
        cfg, params = trained.policy()

        def episode(seed):
            agents = fabric.build_agents(double_net, trained.algo, cfg, 0)
            for iid, agent in agents.items():
                agent.apply_acting_params(params[iid])
            log = experiments.run_episode(
                double_net, double_demand, fabric.build_controllers(
                    double_net, trained.algo, agents, seed, explore=False),
                3, horizon=300.0)
            return [np.asarray(x, dtype=float).tobytes()
                    for x in [log.travel_times, log.times,
                              *log.queue.values(), *log.delay.values()]]

        assert episode(0) == episode(12345)


class TestProcessPool:
    """Runs in worker processes repeat the in-process runs bit for bit;
    the network and the demand go to each worker once, not with each
    task; the pool's modules load only when a pool starts."""

    EVAL_FILES = ("summary.json", "travel_times.csv", "moe.csv")

    def test_evaluate_procs_2_matches_procs_1(self, double_net,
                                              double_demand, tmp_path):
        results = [experiments.evaluate("sotl", {}, double_net,
                                        double_demand, runs=3, base_seed=2,
                                        horizon=300.0, procs=procs,
                                        out_dir=str(tmp_path / str(procs)))
                   for procs in (1, 2)]
        one, two = results
        assert two.travel_times.typecode == "d"
        assert two.travel_times.tobytes() == one.travel_times.tobytes()
        assert len(one.travel_times) > 0
        assert two.unfinished == one.unfinished
        assert {k: [{c: float(v).hex() for c, v in row.items()}
                    for row in rows] for k, rows in two.moe.items()} == \
            {k: [{c: float(v).hex() for c, v in row.items()}
                 for row in rows] for k, rows in one.moe.items()}
        assert all(one.moe.values())
        for name in self.EVAL_FILES:
            assert (tmp_path / "2" / name).read_bytes() == \
                (tmp_path / "1" / name).read_bytes(), name

    def test_tasks_stay_small_whatever_the_demand_horizon(
            self, double_net, double_demand, monkeypatch):
        seen = []
        real_map = experiments._map

        def spy(fn, shared, tasks, procs):
            seen.append([len(pickle.dumps(task)) for task in tasks])
            return real_map(fn, shared, tasks, procs)

        monkeypatch.setattr(experiments, "_map", spy)
        sizes, demand_sizes = [], []
        for scale in (1, 20):
            demand = DemandProfile({
                lane: [(scale * t, r) for t, r in pts]
                for lane, pts in double_demand.breakpoints.items()})
            demand_sizes.append(len(pickle.dumps(demand)))
            seen.clear()
            experiments.evaluate("sotl", {}, double_net, demand, runs=2,
                                 horizon=60.0)
            experiments.tune(GridSpec("sotl", {"g_min": [5, 10]}, trials=2),
                             double_net, demand, horizon=60.0)
            sizes.append([list(s) for s in seen])
        short, long = sizes
        assert [len(s) for s in short] == [2, 4]
        assert long == short
        assert max(max(s) for s in short) < 8 * 1024
        # the demand keeps its breakpoints only, whatever its horizon
        assert demand_sizes[0] == demand_sizes[1]

    @pytest.mark.parametrize("name", ["dqn", "ddpg"])
    def test_learning_trial_tasks_carry_acting_parameters_only(
            self, double_net, double_demand, monkeypatch, name):
        seen = {}
        real_map = experiments._map

        def spy(fn, shared, tasks, procs):
            seen[fn.__name__] = [len(pickle.dumps(task)) for task in tasks]
            return real_map(fn, shared, tasks, procs)

        monkeypatch.setattr(experiments, "_map", spy)
        values = {k: v[:1] for k, v in experiments.DEFAULT_GRIDS[name].items()}
        experiments.tune(GridSpec(name, values, trials=2), double_net,
                         double_demand, horizon=60.0, train_episodes=1,
                         train_horizon=60.0)
        # whole agents (target nets, Adam moments) take 207 KB (DQN) and
        # 484 KB (DDPG) here
        assert len(seen["_trial_mean"]) == 2
        assert max(seen["_trial_mean"]) <= 40 * 1024

    @pytest.mark.parametrize("name,values", [("sotl", {"g_min": [10]}),
                                             ("dqn", {"a_repeat": [10]})])
    def test_trial_tasks_carry_no_network(self, double_net, double_demand,
                                          monkeypatch, name, values):
        # the factory takes the network when it is called, so no string
        # a trial task pickles is a lane id
        tasks = []
        real_map = experiments._map

        def spy(fn, shared, fn_tasks, procs):
            if fn is experiments._trial_mean:
                tasks.extend(fn_tasks)
            return real_map(fn, shared, fn_tasks, procs)

        monkeypatch.setattr(experiments, "_map", spy)
        experiments.tune(GridSpec(name, values, trials=1), double_net,
                         double_demand, horizon=60.0, train_episodes=1,
                         train_horizon=60.0)
        assert len(tasks) == 1
        strings = {arg for _, arg, _ in
                   pickletools.genops(pickle.dumps(tasks[0]))
                   if isinstance(arg, str)}
        assert not strings & set(double_net.lanes)

    def test_import_loads_no_process_pool(self):
        import tscbench
        src = os.path.dirname(os.path.dirname(tscbench.__file__))
        code = (
            "import sys, importlib.resources as ir, tscbench\n"
            "pool = ('multiprocessing', 'concurrent.futures.process')\n"
            "print(sorted(m for m in pool if m in sys.modules))\n"
            "data = ir.files('tscbench') / 'data'\n"
            "net = tscbench.load_network(str(data / 'single.net'))\n"
            "demand = tscbench.load_demand(\n"
            "    str(data / 'single_asym_demand.json'))\n"
            "for procs in (1, 2):\n"
            "    tscbench.evaluate('sotl', {}, net, demand, runs=2,\n"
            "                      horizon=60.0, procs=procs)\n"
            "    print(sorted(m for m in pool if m in sys.modules))\n")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        # a pool run does load them, so the check can fail
        assert out.stdout.splitlines() == [
            "[]", "[]", "['concurrent.futures.process', 'multiprocessing']"]

    @pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
    def test_unguarded_script(self, tmp_path, method):
        # a script with no main guard: fork runs it; under spawn and
        # forkserver each worker runs the script again and dies, which
        # must end in one clear error (exit 3), not a hang or a traceback
        import tscbench
        data = os.path.join(os.path.dirname(tscbench.__file__), "data")
        script = tmp_path / "unguarded.py"
        script.write_text(
            "import multiprocessing, sys\n"
            "from tscbench.cli import main\n"
            f"multiprocessing.set_start_method({method!r}, force=True)\n"
            "sys.exit(main(['evaluate', '--tsc', 'sotl', '--runs', '2',\n"
            f"           '--procs', '2', '--net', {data + '/single.net'!r},\n"
            f"           '--demand', {data + '/single_asym_demand.json'!r},\n"
            f"           '--out', {str(tmp_path / 'out')!r}]))\n")
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(data)))
        out = subprocess.run([sys.executable, str(script)], env=env,
                             capture_output=True, text=True, timeout=120)
        if method == "fork":
            assert out.returncode == 0, out.stderr
        else:
            assert out.returncode == 3, out.stderr
            last = out.stderr.splitlines()[-1]
            assert last.startswith("runtime failure: a worker process died")
            assert 'if __name__ == "__main__":' in last


class TestEvaluateMemory:
    """evaluate reduces each run where it ran, so its memory is flat in
    the number of runs, and keeps numpy.ma (about 1.7 MB) unloaded."""

    def test_peak_is_flat_in_runs(self, tiny_net):
        import tracemalloc
        # few trips and long series: the series are what a run leaves
        demand = constant_demand(["in_a", "in_b"], 100.0, horizon=3600.0)
        experiments.evaluate("uniform", {"u": 10}, tiny_net, demand, runs=1)
        peaks = []
        for runs in (2, 8):
            tracemalloc.start()
            try:
                experiments.evaluate("uniform", {"u": 10}, tiny_net, demand,
                                     runs=runs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.3 * peaks[0], peaks

    def test_evaluate_leaves_numpy_ma_unloaded(self, tmp_path):
        import tscbench
        src = os.path.dirname(os.path.dirname(tscbench.__file__))
        code = (
            "import sys, importlib.resources as ir, numpy, tscbench\n"
            "data = ir.files('tscbench') / 'data'\n"
            "net = tscbench.load_network(str(data / 'single.net'))\n"
            "demand = tscbench.load_demand(\n"
            "    str(data / 'single_asym_demand.json'))\n"
            "res = tscbench.evaluate('sotl', {}, net, demand, runs=3,\n"
            "                        horizon=300.0, out_dir=sys.argv[1])\n"
            "print(res.box is not None and all(res.moe.values()),\n"
            "      'numpy.ma' in sys.modules)\n"
            "numpy.percentile([1.0, 2.0], 50)\n"
            "print('numpy.ma' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                             env=env, capture_output=True, text=True,
                             check=True)
        # np.percentile does load it, so the check can fail
        assert out.stdout.splitlines() == ["True False", "True"]
        assert (tmp_path / "moe.csv").exists()


class TestCounts:
    """A run or process count below 1, and a count or seed that is not a
    whole number, are refused before anything runs or is written."""

    @pytest.mark.parametrize("kw", [{"runs": 0}, {"runs": -3},
                                    {"procs": 0}, {"procs": -2}])
    def test_evaluate_rejects_counts_below_one(self, tiny_net, tmp_path,
                                               kw):
        demand = constant_demand(["in_a", "in_b"], 400.0, horizon=60.0)
        name = next(iter(kw))
        with pytest.raises(ConfigError, match=f"{name} must be >= 1"):
            experiments.evaluate("uniform", {"u": 10}, tiny_net, demand,
                                 out_dir=str(tmp_path / "out"), **kw)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("procs", [0, -2])
    def test_tune_rejects_procs_below_one(self, tiny_net, tmp_path, procs):
        demand = constant_demand(["in_a", "in_b"], 400.0, horizon=60.0)
        with pytest.raises(ConfigError, match="procs must be >= 1"):
            experiments.tune(GridSpec("uniform", {"u": [10]}, trials=1),
                             tiny_net, demand, procs=procs,
                             out_dir=str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kw", [{"runs": True}, {"runs": 2.5},
                                    {"procs": 1.5}, {"base_seed": 1.5},
                                    {"base_seed": False}])
    def test_evaluate_rejects_fractions_and_bools(self, tiny_net, tmp_path,
                                                  episodes, kw):
        demand = constant_demand(["in_a", "in_b"], 400.0, horizon=60.0)
        (name, value), = kw.items()
        name = "seed" if name == "base_seed" else name
        with pytest.raises(ConfigError, match=f"^{name} must be a whole "
                                              f"number, not {value!r}$"):
            experiments.evaluate("uniform", {"u": 10}, tiny_net, demand,
                                 out_dir=str(tmp_path / "out"), **kw)
        assert not (tmp_path / "out").exists() and episodes == []

    @pytest.mark.parametrize("kw,message", [
        ({"trials": 2.5}, "trials must be a whole number, not 2.5"),
        ({"trials": True}, "trials must be a whole number, not True"),
        ({"base_seed": 1.5}, "seed must be a whole number, not 1.5"),
        ({"base_seed": -1}, "seed must be >= 0, got -1")])
    def test_grid_rejects_fractions_and_bools(self, kw, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            GridSpec("uniform", {"u": [10]}, **kw)

    @pytest.mark.parametrize("episodes_", [0, -1])
    def test_tune_rejects_train_episodes_below_one(self, tiny_net, tmp_path,
                                                   episodes, episodes_):
        demand = constant_demand(["in_a", "in_b"], 400.0, horizon=60.0)
        with pytest.raises(ConfigError, match=f"^episodes must be >= 1, "
                                              f"got {episodes_}$"):
            experiments.tune(GridSpec("dqn", {"a_repeat": [10]}, trials=1),
                             tiny_net, demand, train_episodes=episodes_,
                             train_horizon=60.0,
                             out_dir=str(tmp_path / "out"))
        assert not (tmp_path / "out").exists() and episodes == []

    def test_train_rejects_a_fractional_seed(self, tiny_net, tmp_path,
                                             episodes):
        demand = constant_demand(["in_a", "in_b"], 400.0, horizon=60.0)
        with pytest.raises(ConfigError, match="^seed must be a whole "
                                              "number, not 1.5$"):
            fabric.train(tiny_net, demand, "dqn", 1.5,
                         out_dir=str(tmp_path / "out"))
        assert not (tmp_path / "out").exists() and episodes == []


BAD_HORIZONS = [float("nan"), 0.0, -5.0]


class TestHorizon:
    """A horizon that is not a finite number > 0, or that passes the
    demand's horizon plus the drain allowance, is a ValueError naming the
    value, raised before anything runs or is written."""

    @pytest.mark.parametrize("horizon", BAD_HORIZONS)
    def test_evaluate(self, tiny_net, tmp_path, episodes, horizon):
        demand = constant_demand(["in_a", "in_b"], 400.0, horizon=60.0)
        with pytest.raises(ValueError, match=f"^horizon must be a finite "
                                             f"number > 0, got {horizon}$"):
            experiments.evaluate("uniform", {"u": 10}, tiny_net, demand,
                                 runs=1, horizon=horizon,
                                 out_dir=str(tmp_path / "out"))
        assert not (tmp_path / "out").exists() and episodes == []

    @pytest.mark.parametrize("kw", [{"horizon": h} for h in BAD_HORIZONS]
                             + [{"train_horizon": h} for h in BAD_HORIZONS])
    def test_tune(self, tiny_net, tmp_path, episodes, kw):
        demand = constant_demand(["in_a", "in_b"], 400.0, horizon=60.0)
        (name, value), = kw.items()
        with pytest.raises(ValueError, match=f"^{name} must be a finite "
                                             f"number > 0, got {value}$"):
            experiments.tune(GridSpec("uniform", {"u": [10]}, trials=1),
                             tiny_net, demand, out_dir=str(tmp_path / "out"),
                             **kw)
        assert not (tmp_path / "out").exists() and episodes == []

    @pytest.mark.parametrize("run", ["evaluate", "tune", "tune_train",
                                     "train", "run_episode"])
    def test_past_the_drain_allowance(self, tiny_net, tmp_path, episodes,
                                      run):
        # the demand ends at 60 s, and the drain allowance is 600 s
        demand = constant_demand(["in_a", "in_b"], 400.0, horizon=60.0)
        out = str(tmp_path / "out")
        grid = GridSpec("uniform", {"u": [10]}, trials=1)
        call = {
            "evaluate": lambda: experiments.evaluate(
                "uniform", {"u": 10}, tiny_net, demand, runs=1,
                horizon=1e7, out_dir=out),
            "tune": lambda: experiments.tune(grid, tiny_net, demand,
                                             horizon=1e7, out_dir=out),
            "tune_train": lambda: experiments.tune(
                GridSpec("dqn", {"a_repeat": [10]}, trials=1), tiny_net,
                demand, train_horizon=1e7, out_dir=out),
            "train": lambda: fabric.train(
                tiny_net, demand, "dqn", 0,
                fabric=fabric.FabricConfig(episode_budget=1, horizon=1e7),
                out_dir=out),
            "run_episode": lambda: simulation.run_episode(
                tiny_net, demand, experiments.make_classic_controllers(
                    tiny_net, "uniform", {}), 0, horizon=1e7),
        }[run]
        name = "train_horizon" if run == "tune_train" else "horizon"
        with pytest.raises(ValueError, match=f"^{name} must be <= 660.0 "
                                             r"\(the demand's horizon plus "
                                             r"the drain allowance\), got "
                                             r"10000000.0$"):
            call()
        assert not (tmp_path / "out").exists() and episodes == []
        # the limit itself is allowed
        simulation.check_horizon(660.0, demand)


class TestOutDir:
    """An output directory is made and checked after the arguments are,
    and before the first episode: one that cannot be made (a file, or a
    path under one) is a ConfigError naming the file, with no episode
    run."""

    @pytest.fixture(params=["file", "under-file"])
    def blocked(self, request, tmp_path):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        return str(blocker if request.param == "file" else blocker / "out")

    def demand(self):
        return constant_demand(["in_a", "in_b"], 400.0, horizon=60.0)

    def test_evaluate(self, tiny_net, blocked, episodes):
        with pytest.raises(ConfigError, match="taken is not a directory"):
            experiments.evaluate("uniform", {"u": 10}, tiny_net,
                                 self.demand(), runs=2, out_dir=blocked)
        assert episodes == []

    @pytest.mark.parametrize("name,values", [("uniform", {"u": [10]}),
                                             ("dqn", {"a_repeat": [10]})])
    def test_tune(self, tiny_net, blocked, episodes, name, values):
        with pytest.raises(ConfigError, match="taken is not a directory"):
            experiments.tune(GridSpec(name, values, trials=1), tiny_net,
                             self.demand(), train_episodes=1,
                             train_horizon=60.0, out_dir=blocked)
        assert episodes == []

    def test_train(self, tiny_net, blocked, episodes):
        with pytest.raises(ConfigError, match="taken is not a directory"):
            fabric.train(tiny_net, self.demand(), "dqn", 0,
                         fabric=fabric.FabricConfig(episode_budget=1),
                         out_dir=blocked)
        assert episodes == []

    @pytest.mark.parametrize("run", ["evaluate", "tune", "train"])
    def test_demand_lane_without_route(self, single_net, tmp_path, episodes,
                                       run):
        # refused before the output directory is made
        out = str(tmp_path / "out")
        demand = constant_demand(["n_in", "nope"], 600.0, horizon=60.0)
        call = {
            "evaluate": lambda: experiments.evaluate(
                "uniform", {}, single_net, demand, runs=1, out_dir=out),
            "tune": lambda: experiments.tune(
                GridSpec("uniform", {"u": [10]}, trials=1), single_net,
                demand, out_dir=out),
            "train": lambda: fabric.train(
                single_net, demand, "dqn", 0,
                fabric=fabric.FabricConfig(episode_budget=1), out_dir=out),
        }[run]
        with pytest.raises(ValueError, match=r"\['nope'\] start no network"):
            call()
        assert not os.path.exists(out) and episodes == []

    def test_compare(self, tiny_net, blocked):
        s = experiments.evaluate("uniform", {"u": 10}, tiny_net,
                                 self.demand(), runs=1).summary()
        with pytest.raises(ConfigError, match="taken is not a directory"):
            experiments.compare([s, s], out_dir=blocked)

    def test_usage_errors_make_no_directory(self, tiny_net, tmp_path,
                                            episodes):
        out = str(tmp_path / "out")
        s = experiments.evaluate("uniform", {"u": 10}, tiny_net,
                                 self.demand(), runs=1).summary()
        episodes.clear()
        with pytest.raises(ConfigError):
            experiments.compare([s], out_dir=out)
        with pytest.raises(ConfigError):
            experiments.compare([s, dict(s, condition={})], out_dir=out)
        with pytest.raises(ConfigError):
            experiments.evaluate("dqn", {}, tiny_net, self.demand(),
                                 out_dir=out)
        with pytest.raises(ValueError):
            fabric.train(tiny_net, self.demand(), "a2c", 0, out_dir=out)
        assert not os.path.exists(out) and episodes == []


def write_eval_rows(out_dir, result):
    """write_eval as it wrote its files: a streamed json.dump and one
    writerow call per CSV row."""
    with open(os.path.join(out_dir, "summary.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result.summary(), fh, indent=2)
    with open(os.path.join(out_dir, "travel_times.csv"), "w", newline="",
              encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["travel_time_s"])
        for tt in result.travel_times:
            w.writerow([repr(tt)])
    with open(os.path.join(out_dir, "moe.csv"), "w", newline="",
              encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["intersection_id", "bin_start_s", "mean_queue",
                    "ci95_queue", "mean_delay", "ci95_delay"])
        for iid, rows in result.moe.items():
            for r in rows:
                w.writerow([iid, repr(r["bin_start_s"]),
                            repr(r["mean_queue"]), repr(r["ci95_queue"]),
                            repr(r["mean_delay"]), repr(r["ci95_delay"])])


def per_bin_reference(net, logs):
    """evaluate's MoE bins as the per-bin loop computed them: one slice
    mean per run and bin, one mean_ci95 call per bin and series."""
    bin_s = experiments.MOE_BIN_S
    moe = {}
    for ix in net.intersections:
        per_run_bins = {}
        for log in logs:
            bins = (np.asarray(log.times) // bin_s).astype(int)
            if not len(bins):
                continue
            q = np.asarray(log.queue[ix.id])
            d = np.asarray(log.delay[ix.id])
            cuts = (np.flatnonzero(np.diff(bins)) + 1).tolist()
            for lo, hi in zip([0] + cuts, cuts + [len(bins)]):
                entry = per_run_bins.setdefault(int(bins[lo]),
                                                {"queue": [], "delay": []})
                entry["queue"].append(float(q[lo:hi].mean()))
                entry["delay"].append(float(d[lo:hi].mean()))
        rows = []
        for b in sorted(per_run_bins):
            qm, qc = mean_ci95(per_run_bins[b]["queue"])
            dm, dc = mean_ci95(per_run_bins[b]["delay"])
            rows.append({"bin_start_s": b * bin_s, "mean_queue": qm,
                         "ci95_queue": qc, "mean_delay": dm,
                         "ci95_delay": dc})
        moe[ix.id] = rows
    return moe


class TestEvaluateBins:
    """Ten runs whose drains end at different times: bins reached by 1 to
    10 runs, means over 8 or more values, where a sequential sum and
    numpy's pairwise sum differ."""

    def test_ten_runs_match_the_per_bin_loop(self, double_net, double_demand,
                                             tmp_path):
        runs, horizon = 10, 240.0
        res = experiments.evaluate("sotl", {}, double_net, double_demand,
                                   runs=runs, base_seed=5, horizon=horizon,
                                   out_dir=str(tmp_path / "new"))
        logs = [experiments.run_episode(
                    double_net, double_demand,
                    make_classic_controllers(double_net, "sotl", {}),
                    5 + i, horizon=horizon) for i in range(runs)]
        assert len({log.times[-1] for log in logs}) > 5
        want = per_bin_reference(double_net, logs)
        assert {k: [{c: float(v).hex() for c, v in row.items()}
                    for row in rows] for k, rows in res.moe.items()} == \
            {k: [{c: float(v).hex() for c, v in row.items()}
                 for row in rows] for k, rows in want.items()}
        ref = experiments.EvalResult(res.controller, res.hp, res.condition,
                                     res.travel_times, res.box, moe=want,
                                     unfinished=res.unfinished)
        (tmp_path / "ref").mkdir()
        experiments.write_eval(str(tmp_path / "ref"), ref)
        assert (tmp_path / "new" / "moe.csv").read_bytes() == \
            (tmp_path / "ref" / "moe.csv").read_bytes()

    def test_one_run_bins_have_zero_half_width(self, tiny_net):
        demand = constant_demand(["in_a", "in_b"], 600.0, horizon=90.0)
        res = experiments.evaluate("uniform", {"u": 10}, tiny_net, demand,
                                   runs=1)
        assert [r["ci95_delay"] for r in res.moe["x"]] == [0.0, 0.0]
        assert [r["ci95_queue"] for r in res.moe["x"]] == [0.0, 0.0]

    def test_mean_ci95_rows_match_one_dimensional_calls(self):
        x = np.random.default_rng(3).normal(50.0, 20.0, size=(6, 32))
        mean, half = mean_ci95(x)
        for row, m, h in zip(x, mean, half):
            assert (m, h) == mean_ci95(row.tolist())
        mean, half = mean_ci95(x[:, :1])
        assert mean.tolist() == x[:, 0].tolist() and not half.any()


class TestCompare:
    def run_eval(self, net, demand, name, hp, runs=2, seed=0):
        return experiments.evaluate(name, hp, net, demand, runs=runs,
                                    base_seed=seed)

    def test_identical_controller_identical_rows(self, tiny_net):
        demand = constant_demand(["in_a", "in_b"], 400.0, horizon=300.0)
        s = self.run_eval(tiny_net, demand, "uniform", {"u": 10}).summary()
        rows = experiments.compare([s, json.loads(json.dumps(s))])
        assert rows[0] == rows[1]

    def test_ordering_by_mean(self, tiny_net, tmp_path):
        demand = constant_demand(["in_a", "in_b"], 500.0, horizon=300.0)
        good = self.run_eval(tiny_net, demand, "uniform", {"u": 10}).summary()
        bad = self.run_eval(tiny_net, demand, "uniform", {"u": 60}).summary()
        bad["controller"] = "uniform-slow"
        rows = experiments.compare([bad, good], out_dir=str(tmp_path))
        assert rows[0]["mean"] <= rows[1]["mean"]
        data = json.loads((tmp_path / "comparison.json").read_text())
        assert [r["controller"] for r in data["ranking"]] == \
            [r["controller"] for r in rows]

    def test_mismatched_conditions_refused(self, tiny_net):
        demand = constant_demand(["in_a", "in_b"], 400.0, horizon=300.0)
        a = self.run_eval(tiny_net, demand, "uniform", {"u": 10}).summary()
        b = self.run_eval(tiny_net, demand, "uniform", {"u": 10},
                          seed=99).summary()
        with pytest.raises(ConfigError, match="different conditions"):
            experiments.compare([a, b])

    @pytest.mark.parametrize("text", [
        "[]", '{"controller": "uniform", "hp": {}, "samples": 1, "box": null}',
        '{"controller": "u", "hp": {}, "condition": {}, "samples": 1, '
        '"box": [1]}', "{", "null",
        # a box number too large for a float
        '{"controller": "u", "hp": {}, "condition": {}, "samples": 1, '
        '"box": {"mean": 1%s}}' % ("0" * 400)])
    def test_corrupt_summary_refused_naming_it(self, tmp_path, text):
        (tmp_path / "summary.json").write_text(text)
        with pytest.raises(ConfigError) as err:
            experiments.load_eval_summary(str(tmp_path))
        assert str(tmp_path / "summary.json") in str(err.value)

    def test_summary_with_null_box_loads(self, tiny_net, tmp_path):
        demand = constant_demand(["in_a", "in_b"], 0.0, horizon=60.0)
        experiments.evaluate("uniform", {"u": 10}, tiny_net, demand, runs=1,
                             out_dir=str(tmp_path))
        assert experiments.load_eval_summary(str(tmp_path))["box"] is None

    def test_needs_two(self, tiny_net):
        demand = constant_demand(["in_a", "in_b"], 400.0, horizon=300.0)
        s = self.run_eval(tiny_net, demand, "uniform", {"u": 10}).summary()
        with pytest.raises(ConfigError):
            experiments.compare([s])

"""Statistics and experiment-harness tests."""

import json

import numpy as np
import pytest

from tscbench import experiments, fabric
from tscbench.experiments import (ConfigError, GridSpec, config_id,
                                  make_classic_controllers, seed_for)
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
                                   runs=3, bin_s=60.0)
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
        assert tts == res.travel_times


def per_bin_reference(net, logs, bin_s):
    """evaluate's MoE bins as the per-bin loop computed them: one slice
    mean per run and bin, one mean_ci95 call per bin and series."""
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

    @pytest.mark.parametrize("bin_s", [60.0, 7.0])
    def test_ten_runs_match_the_per_bin_loop(self, double_net, double_demand,
                                             tmp_path, bin_s):
        runs, horizon = 10, 240.0
        res = experiments.evaluate("sotl", {}, double_net, double_demand,
                                   runs=runs, base_seed=5, horizon=horizon,
                                   bin_s=bin_s, out_dir=str(tmp_path / "new"))
        logs = [experiments.run_episode(
                    double_net, double_demand,
                    make_classic_controllers(double_net, "sotl", {}),
                    5 + i, horizon=horizon) for i in range(runs)]
        assert len({log.times[-1] for log in logs}) > 5
        want = per_bin_reference(double_net, logs, bin_s)
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
                                   runs=1, bin_s=60.0)
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

    def test_needs_two(self, tiny_net):
        demand = constant_demand(["in_a", "in_b"], 400.0, horizon=300.0)
        s = self.run_eval(tiny_net, demand, "uniform", {"u": 10}).summary()
        with pytest.raises(ConfigError):
            experiments.compare([s])

"""Training-fabric tests: determinism, delivery, configuration checks."""

import threading
from types import SimpleNamespace

import numpy as np
import pytest

from tscbench import fabric
from tscbench.agents import DqnAgent, DqnConfig, Experience
from tscbench.fabric import (FabricConfig, Learner, _exploration_scale,
                             _Mailbox, train)

from conftest import constant_demand


def short_demand(net, rate=500.0):
    return constant_demand(list(net.entry_lanes), rate, horizon=200.0)


def test_one_learner_only():
    FabricConfig(n_learners=1)
    with pytest.raises(ValueError, match="n_learners"):
        FabricConfig(n_learners=2)


class TestFabricConfig:
    """The fields follow the number contract of every controller and
    agent configuration, and a bad value fails when the config is built."""

    def test_whole_numbers_only(self):
        cfg = FabricConfig(episode_budget=2.0, n_actors=3.0)
        assert (cfg.episode_budget, cfg.n_actors) == (2, 3)
        assert type(cfg.episode_budget) is int and type(cfg.n_actors) is int
        with pytest.raises(ValueError, match="episode_budget must be a "
                                             "whole number, not 2.5"):
            FabricConfig(episode_budget=2.5)
        with pytest.raises(ValueError, match="n_actors must be a whole "
                                             "number, not True"):
            FabricConfig(n_actors=True)
        with pytest.raises(ValueError, match="episode_budget"):
            FabricConfig(episode_budget="3")

    @pytest.mark.parametrize("field,name", [("n_actors", "actors"),
                                            ("episode_budget", "episodes")])
    @pytest.mark.parametrize("value", [0, -2])
    def test_counts(self, field, name, value):
        with pytest.raises(ValueError,
                           match=f"^{name} must be >= 1, got {value}$"):
            FabricConfig(**{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -5.0])
    def test_horizon(self, value):
        with pytest.raises(ValueError, match=f"^horizon must be a finite "
                                             f"number"):
            FabricConfig(horizon=value)
        assert FabricConfig(horizon=60).horizon == 60.0


class TestLearner:
    def make(self, batch_size=4):
        cfg = DqnConfig(batch_size=batch_size, replay_capacity=100)
        return Learner({"x": DqnAgent(4, 2, 0, cfg)}, seed=0)

    def exp(self, iid="x"):
        return Experience(np.zeros(4), 0, -0.5, np.zeros(4), False, iid)

    def test_warmup_gate(self):
        lrn = self.make(batch_size=8)
        assert lrn.buffers["x"].capacity == 100  # the agent's config's
        for _ in range(7):
            lrn.ingest(self.exp())
            assert lrn.try_train() is None
        lrn.ingest(self.exp())
        assert lrn.try_train() == "x"
        assert lrn.update_counts["x"] == 1

    def test_try_train_returns_trained_id(self):
        agents = {"a": DqnAgent(4, 2, 0, DqnConfig(batch_size=2)),
                  "b": DqnAgent(4, 2, 1, DqnConfig(batch_size=2))}
        lrn = Learner(agents, seed=0)
        for _ in range(2):
            lrn.ingest(self.exp("a"))
            lrn.ingest(self.exp("b"))
        assert [lrn.try_train() for _ in range(4)] == ["a", "b", "a", "b"]
        assert lrn.update_counts == {"a": 2, "b": 2}

    def test_round_robin_training_balance(self):
        agents = {"a": DqnAgent(4, 2, 0, DqnConfig(batch_size=2)),
                  "b": DqnAgent(4, 2, 1, DqnConfig(batch_size=2))}
        lrn = Learner(agents, seed=0)
        for _ in range(3):
            lrn.ingest(self.exp("a"))
            lrn.ingest(self.exp("b"))
        for _ in range(9):
            lrn.try_train()
        counts = lrn.update_counts
        assert abs(counts["a"] - counts["b"]) <= 1


class TestMailbox:
    def test_latest_wins(self):
        old = DqnAgent(4, 2, 0, DqnConfig()).acting_params()
        new = old.copy()
        new.version += 1
        mb = _Mailbox()
        mb.offer("x", new)
        mb.offer("x", old)  # stale, dropped
        assert mb.take("x") is new
        assert mb.take("x") is None
        mb.offer("x", old)
        mb.offer("x", new)
        assert mb.take("x") is new


def test_exploration_scale_spread():
    assert _exploration_scale(0, 4) == 1.0
    assert _exploration_scale(3, 4) == pytest.approx(0.4)
    assert _exploration_scale(0, 1) == 1.0
    scales = [_exploration_scale(i, 5) for i in range(5)]
    assert scales == sorted(scales, reverse=True)


def assert_repeats(net, demand, fabric_cfg, out, seed=5, agent_cfg=None):
    """Two trainings with one seed give bit-identical weights, versions,
    update counts, r_min and checkpoint bytes."""
    runs = [train(net, demand, "dqn", seed=seed, fabric=fabric_cfg,
                  agent_cfg=agent_cfg, out_dir=str(out / f"rep{rep}"))
            for rep in range(2)]
    a, b = runs
    assert a.emitted == b.emitted == a.received == b.received > 0
    assert a.update_counts == b.update_counts
    for iid in a.agents:
        pa, pb = a.agents[iid].online, b.agents[iid].online
        assert pa.version == pb.version
        assert np.array_equal(pa.flat, pb.flat)  # bit-identical
    assert a.r_min == b.r_min
    dirs = [out / f"rep{rep}" / "checkpoints" for rep in range(2)]
    files = [sorted(p.name for p in d.iterdir()) for d in dirs]
    assert files[0] == files[1]
    for name in files[0]:
        if name.endswith(".ckpt"):
            assert (dirs[0] / name).read_bytes() == \
                (dirs[1] / name).read_bytes()


class TestSyncTraining:
    def test_bit_identical_repeats(self, single_net, single_demand, tmp_path):
        assert_repeats(single_net, single_demand,
                       FabricConfig(episode_budget=3), tmp_path)

    @pytest.mark.parametrize("n_actors", [2, 4])
    def test_multi_actor_bit_identical_repeats(self, double_net, tmp_path,
                                               n_actors):
        assert_repeats(double_net, short_demand(double_net),
                       FabricConfig(n_actors=n_actors, episode_budget=6),
                       tmp_path, agent_cfg=DqnConfig(batch_size=4))

    def test_training_starts_no_thread(self, double_net, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a training started a thread")

        monkeypatch.setattr(fabric, "threading", SimpleNamespace(
            Thread=no_thread, Lock=threading.Lock))
        for n_actors in (1, 2, 4):
            res = train(double_net, short_demand(double_net), "dqn", seed=0,
                        fabric=FabricConfig(n_actors=n_actors,
                                            episode_budget=4),
                        agent_cfg=DqnConfig(batch_size=4))
            assert res.emitted == res.received > 0

    def test_episodes_take_turns(self, double_net, monkeypatch):
        """Episode ep runs on actor ep % n_actors, seeded seed + ep, in
        budget order."""
        calls = []
        run = fabric.run_episode

        def record(net, demand, controllers, seed, **kw):
            calls.append((seed, id(controllers)))
            return run(net, demand, controllers, seed, **kw)

        monkeypatch.setattr(fabric, "run_episode", record)
        train(double_net, short_demand(double_net), "dqn", seed=10,
              fabric=FabricConfig(n_actors=3, episode_budget=7),
              agent_cfg=DqnConfig(batch_size=4))
        assert [seed for seed, _ in calls] == list(range(10, 17))
        actors = [ctrls for _, ctrls in calls]
        assert len(set(actors)) == 3
        assert actors == [actors[ep % 3] for ep in range(7)]

    def test_ddpg_trains(self, single_net, single_demand):
        res = train(single_net, single_demand, "ddpg", seed=1,
                    fabric=FabricConfig(episode_budget=2))
        assert res.emitted == res.received > 0
        assert all(v > 0 for v in res.update_counts.values())
        assert all(v > 0 for v in res.r_min.values())

    def test_training_log_rows(self, single_net, single_demand, tmp_path):
        res = train(single_net, single_demand, "dqn", seed=2,
                    fabric=FabricConfig(episode_budget=2),
                    out_dir=str(tmp_path))
        assert (tmp_path / "training_log.csv").exists()
        assert len(res.log) == sum(res.update_counts.values())
        wall = [row[0] for row in res.log]
        assert wall == sorted(wall)


@pytest.mark.parametrize("algo", ["dqn", "ddpg"])
def test_offers_the_live_acting_network(double_net, monkeypatch, algo):
    """`learn` offers the learner's own acting network, no copy per
    update; an actor copies it when it takes it."""
    offered = []
    offer = _Mailbox.offer

    def record(self, iid, params):
        offered.append((iid, params))
        offer(self, iid, params)

    monkeypatch.setattr(_Mailbox, "offer", record)
    res = train(double_net, short_demand(double_net), algo, seed=0,
                fabric=FabricConfig(n_actors=2, episode_budget=4),
                agent_cfg=fabric.agent_config(algo, {"batch_size": 4}))
    assert len(offered) == 2 * sum(res.update_counts.values()) > 0
    for iid, params in offered:
        agent = res.agents[iid]
        assert params is getattr(agent, agent._NETS[0])


class TestWorkerFailures:
    """A failure propagates as its own exception and ends the training,
    whatever the number of actors."""

    def train_actors(self, double_net, n_actors):
        train(double_net, short_demand(double_net), "dqn", seed=0,
              fabric=FabricConfig(n_actors=n_actors, episode_budget=4),
              agent_cfg=DqnConfig(batch_size=4))

    def test_failed_learner_raises(self, double_net, monkeypatch):
        def fail(self, batch):
            raise FloatingPointError("diverged")

        monkeypatch.setattr(DqnAgent, "train_batch", fail)
        for n_actors in (1, 2):
            with pytest.raises(FloatingPointError, match="^diverged$"):
                self.train_actors(double_net, n_actors)

    def test_failed_actor_raises(self, double_net, monkeypatch):
        def fail(self, params):
            raise FloatingPointError("bad snapshot")

        monkeypatch.setattr(DqnAgent, "apply_acting_params", fail)
        with pytest.raises(FloatingPointError, match="^bad snapshot$"):
            self.train_actors(double_net, 2)


class TestThreadedTraining:
    """Runs with several actors taking turns."""

    def test_exactly_once_and_liveness(self, double_net):
        demand = short_demand(double_net)
        res = train(double_net, demand, "dqn", seed=3,
                    fabric=FabricConfig(n_actors=4, episode_budget=6))
        assert res.emitted == res.received > 0

    def test_partition_across_learners(self, double_net):
        demand = short_demand(double_net)
        res = train(double_net, demand, "dqn", seed=4,
                    fabric=FabricConfig(n_actors=2, episode_budget=4))
        assert set(res.update_counts) == {"a", "b"}

    def test_version_matches_update_count(self, double_net):
        demand = short_demand(double_net)
        res = train(double_net, demand, "dqn", seed=5,
                    fabric=FabricConfig(n_actors=2, n_learners=1,
                                        episode_budget=4))
        for iid, agent in res.agents.items():
            assert agent.acting_params().version == res.update_counts[iid]

    def test_unknown_algo(self, double_net, double_demand):
        with pytest.raises(ValueError):
            train(double_net, double_demand, "sarsa", 0)

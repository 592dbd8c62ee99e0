"""Training-fabric tests: determinism, delivery, liveness."""

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


class TestSyncTraining:
    def test_bit_identical_repeats(self, single_net, single_demand, tmp_path):
        runs = []
        for rep in range(2):
            res = train(single_net, single_demand, "dqn", seed=5,
                        fabric=FabricConfig(episode_budget=3),
                        out_dir=str(tmp_path / f"rep{rep}"))
            runs.append(res)
        a, b = runs
        assert a.emitted == b.emitted and a.received == b.received
        assert a.update_counts == b.update_counts
        for iid in a.agents:
            pa, pb = a.agents[iid].online, b.agents[iid].online
            assert pa.version == pb.version
            assert np.array_equal(pa.flat, pb.flat)  # bit-identical
        assert a.r_min == b.r_min
        ckpt_a = (tmp_path / "rep0" / "checkpoints").iterdir()
        files_a = sorted(p.name for p in ckpt_a)
        files_b = sorted(p.name for p in
                         (tmp_path / "rep1" / "checkpoints").iterdir())
        assert files_a == files_b
        for name in files_a:
            if name.endswith(".ckpt"):
                assert (tmp_path / "rep0" / "checkpoints" / name).read_bytes() \
                    == (tmp_path / "rep1" / "checkpoints" / name).read_bytes()

    def test_one_actor_starts_no_thread(self, double_net, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a 1-actor run started a thread")

        monkeypatch.setattr(fabric, "threading", SimpleNamespace(
            Thread=no_thread, Lock=threading.Lock))
        res = train(double_net, short_demand(double_net), "dqn", seed=0,
                    fabric=FabricConfig(episode_budget=2),
                    agent_cfg=DqnConfig(batch_size=4))
        assert res.emitted == res.received > 0

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


def run_with_timeout(fn, timeout=60.0):
    """Run `fn` on a daemon thread; the exception it raised, or None.
    Fails if it is still running after `timeout` seconds."""
    raised = []

    def target():
        try:
            fn()
        except Exception as exc:  # handed to the test
            raised.append(exc)

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(timeout)
    assert not t.is_alive(), f"still running after {timeout} s"
    return raised[0] if raised else None


class TestWorkerFailures:
    def train_two_actors(self, double_net):
        train(double_net, short_demand(double_net), "dqn", seed=0,
              fabric=FabricConfig(n_actors=2, episode_budget=4,
                                  queue_capacity=1),
              agent_cfg=DqnConfig(batch_size=4))

    def test_failed_learner_raises(self, double_net, monkeypatch):
        def fail(self, batch):
            raise FloatingPointError("diverged")

        monkeypatch.setattr(DqnAgent, "train_batch", fail)
        exc = run_with_timeout(lambda: self.train_two_actors(double_net))
        assert isinstance(exc, RuntimeError)
        assert str(exc) == "fabric worker failed in learner: diverged"

    def test_failed_actor_raises(self, double_net, monkeypatch):
        def fail(self, params):
            raise FloatingPointError("bad snapshot")

        monkeypatch.setattr(DqnAgent, "apply_acting_params", fail)
        exc = run_with_timeout(lambda: self.train_two_actors(double_net))
        assert isinstance(exc, RuntimeError)
        assert "actor" in str(exc) and "bad snapshot" in str(exc)


class TestThreadedTraining:
    def test_exactly_once_and_liveness(self, double_net):
        demand = short_demand(double_net)
        res = train(double_net, demand, "dqn", seed=3,
                    fabric=FabricConfig(n_actors=4, episode_budget=6,
                                        queue_capacity=1))
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

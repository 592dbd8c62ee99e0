"""Training-fabric tests: determinism, delivery, configuration checks."""

import threading
from types import SimpleNamespace

import numpy as np
import pytest

from tscbench import experiments, fabric, nn
from tscbench.agents import (DdpgAgent, DdpgConfig, DqnAgent, DqnConfig,
                             DqnController, Experience, ReplayBuffer)
from tscbench.control import ConfigError
from tscbench.fabric import FabricConfig, Learner, _Mailbox, train

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


class TestAlgorithms:
    """`fabric.ALGOS` is the one table of learning algorithms: a name maps
    to its controller, whose `config` builds the agents."""

    def test_a_third_algorithm_is_one_entry(self, single_net, single_demand,
                                            tmp_path, monkeypatch):
        class Dqn2Config(DqnConfig):
            pass

        class Dqn2Controller(DqnController):
            config = Dqn2Config
            built = 0

            def begin_episode(self):
                Dqn2Controller.built += 1
                super().begin_episode()

        monkeypatch.setitem(fabric.ALGOS, "dqn2", Dqn2Controller)
        monkeypatch.setitem(experiments.CONTROLLERS, "dqn2", Dqn2Config)
        cfg = FabricConfig(episode_budget=2, horizon=300.0)
        runs = {}
        for algo in ("dqn", "dqn2"):
            res = train(single_net, single_demand, algo, seed=3, fabric=cfg,
                        out_dir=str(tmp_path / algo))
            runs[algo] = experiments.evaluate(
                algo, {}, single_net, single_demand, runs=2, horizon=300.0,
                checkpoint_dir=res.checkpoint_dir)
        assert all(type(a.cfg) is Dqn2Config for a in res.agents.values())
        assert Dqn2Controller.built == 4  # 2 training and 2 greedy episodes
        assert runs["dqn2"].travel_times == runs["dqn"].travel_times

    def test_controllers_name_each_config(self):
        for name, ctrl in fabric.ALGOS.items():
            assert experiments.CONTROLLERS[name] is ctrl.config

    def test_wrong_config(self, single_net, single_demand, tmp_path,
                          episodes):
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="^'dqn' needs a DqnConfig, "
                                              "not a DdpgConfig$"):
            train(single_net, single_demand, "dqn", 0,
                  agent_cfg=DdpgConfig(), out_dir=str(out))
        assert not out.exists() and episodes == []

    def test_unknown_algorithm(self, single_net):
        agents = fabric.build_agents(single_net, "dqn", DqnConfig(), 0)
        with pytest.raises(ValueError, match="^unknown algorithm 'a2c'$"):
            fabric.build_agents(single_net, "a2c", DqnConfig(), 0)
        with pytest.raises(ValueError, match="^unknown algorithm 'a2c'$"):
            fabric.build_controllers(single_net, "a2c", agents, 0,
                                     explore=False)


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


def reference_learn(agents, seed, stream):
    """The learner's schedule with each update made as it is drawn, one
    agent at a time by `train_batch`: per experience, the update count,
    loss and mean reward of the update it made, or None."""
    buffers = {iid: ReplayBuffer(a.cfg.replay_capacity)
               for iid, a in agents.items()}
    rng = np.random.default_rng(seed)
    order, rr = list(agents), 0
    counts = {iid: 0 for iid in agents}
    rewards = {iid: [] for iid in agents}
    rows = []
    for exp in stream:
        buffers[exp.intersection].push(exp)
        rewards[exp.intersection].append(exp.reward)
        iid = order[rr]
        agent = agents[iid]
        if len(buffers[iid]) < agent.cfg.batch_size:
            rows.append(None)
            continue
        loss = agent.train_batch(buffers[iid].sample(agent.cfg.batch_size,
                                                     rng))
        counts[iid] += 1
        rr = (rr + 1) % len(order)
        recent = rewards[iid][-100:]
        rows.append((0, iid, counts[iid], loss, sum(recent) / len(recent)))
    return rows, counts


class TestDeferredUpdates:
    """The learner draws each update's batch at once and runs the updates
    later, stacked; every result matches updates made one at a time."""

    WIDTHS = {"a": 4, "w": 6, "b": 4, "c": 4}

    def agents(self, iids, algo="dqn"):
        if algo == "dqn":
            cfg = DqnConfig(batch_size=4, replay_capacity=6, target_sync=3)
            return {iid: DqnAgent(self.WIDTHS[iid], 2, k, cfg)
                    for k, iid in enumerate(iids)}
        cfg = DdpgConfig(batch_size=4, replay_capacity=6, tau=0.1)
        return {iid: DdpgAgent(self.WIDTHS[iid], k, cfg)
                for k, iid in enumerate(iids)}

    def stream(self, iids, n, algo="dqn"):
        """Experiences from the intersections in a scripted order; each
        replay ring holds 6 of them, so it evicts while updates wait."""
        rng = np.random.default_rng(0)
        out = []
        for _ in range(n):
            iid = iids[rng.integers(len(iids))]
            w = self.WIDTHS[iid]
            raw = float(rng.uniform(-1.0, 1.0))
            out.append(Experience(rng.normal(size=w),
                                  int(raw > 0.0) if algo == "dqn" else raw,
                                  float(rng.normal()), rng.normal(size=w),
                                  bool(rng.random() < 0.1), iid))
        return out

    def assert_same_agents(self, got, want):
        for iid in want:
            g, w = got[iid], want[iid]
            for name in g._NETS:
                assert np.array_equal(getattr(g, name).flat,
                                      getattr(w, name).flat), (iid, name)
                assert getattr(g, name).version == getattr(w, name).version
            for name in g._ADAMS:
                ga, wa = getattr(g, name), getattr(w, name)
                assert ga.step == wa.step
                assert np.array_equal(ga.m, wa.m)
                assert np.array_equal(ga.v, wa.v)

    @pytest.mark.parametrize("algo", ["dqn", "ddpg"])
    @pytest.mark.parametrize("iids", [["a", "w", "b"], ["a", "w", "b", "c"]],
                             ids=["2_stacked", "3_stacked"])
    def test_matches_one_at_a_time(self, iids, algo):
        stream = self.stream(iids, 300, algo)
        reference = self.agents(iids, algo)
        want_rows, want_counts = reference_learn(reference, 7, stream)
        lrn = Learner(self.agents(iids, algo), seed=7)
        acts = np.random.default_rng(1)
        stacked = []
        synced = []  # runs of 2+ rows in which a row synced its target
        train = fabric._Stack.train

        def record(stack, lo, hi):
            stacked.append(hi - lo)
            losses = train(stack, lo, hi)
            steps = stack.agent.updates[lo:hi]
            synced.append(hi - lo > 1 and bool((steps % 3 == 0).any()))
            return losses

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fabric._Stack, "train", record)
            evicted = 0  # pushes over a full ring while its update waits
            for i, exp in enumerate(stream):
                iid = exp.intersection
                evicted += iid in lrn._pending and len(lrn.buffers[iid]) == 6
                lrn.ingest(exp)
                got = lrn.try_train()
                want = want_rows[i]
                assert got == (None if want is None else want[1])
                # a greedy act now and then: it reads its agent's network
                if i % 7 == 3:
                    iid = iids[acts.integers(len(iids))]
                    lrn.agents[iid].act(np.zeros(self.WIDTHS[iid]), 0.0,
                                        acts)
            lrn.flush()
        assert lrn.update_counts == want_counts
        assert [row[1:] for row in lrn.log] == \
            [row for row in want_rows if row is not None]
        self.assert_same_agents(lrn.agents, reference)
        assert max(stacked) == len(iids) - 1  # one stack, many rows at once
        assert 1 in stacked and evicted > 0
        assert any(synced) or algo == "ddpg"  # DQN's hard target sync

    def test_counts_at_trigger_loss_at_flush(self):
        lrn = Learner(self.agents(["a", "b"]), seed=0)
        for exp in self.stream(["a", "b"], 12):
            lrn.ingest(exp)
            lrn.try_train()
        pending = [row for row in lrn.log if row[4] is None]
        assert pending and sum(lrn.update_counts.values()) == len(lrn.log)
        lrn.flush()
        assert all(type(row[4]) is float for row in lrn.log)
        assert all(a.deferred is None for a in lrn.agents.values())

    def agent_with_pending_update(self):
        lrn = Learner(self.agents(["a"]), seed=3)
        for exp in self.stream(["a"], 4):
            lrn.ingest(exp)
        assert lrn.try_train() == "a"
        agent = lrn.agents["a"]
        assert agent.online.version == 0 and agent.deferred is not None
        reference = self.agents(["a"])
        reference_learn(reference, 3, self.stream(["a"], 4))
        return agent, reference["a"]

    def test_greedy_act_sees_its_pending_update(self):
        agent, reference = self.agent_with_pending_update()
        state = np.linspace(-1.0, 1.0, 4)
        agent.act(state, 0.0, np.random.default_rng(0))
        assert agent.online.version == 1 and agent.deferred is None
        assert np.array_equal(agent.online.flat, reference.online.flat)
        assert np.array_equal(nn.forward(agent.online, state)[0],
                              nn.forward(reference.online, state)[0])

    def test_exploring_act_leaves_it_pending(self):
        agent, _ = self.agent_with_pending_update()
        agent.act(np.zeros(4), 1.0, np.random.default_rng(0))
        assert agent.online.version == 0 and agent.deferred is not None
        agent.acting_params()  # any read of the networks flushes
        assert agent.online.version == 1 and agent.deferred is None


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
    update, with that update made; an actor copies it when it takes it."""
    offered = []
    versions = {}
    offer = _Mailbox.offer

    def record(self, iid, params):
        offered.append((iid, params))
        versions.setdefault(iid, []).append(params.version)
        offer(self, iid, params)

    monkeypatch.setattr(_Mailbox, "offer", record)
    res = train(double_net, short_demand(double_net), algo, seed=0,
                fabric=FabricConfig(n_actors=2, episode_budget=4),
                agent_cfg=fabric.agent_config(algo, {"batch_size": 4}))
    assert len(offered) == 2 * sum(res.update_counts.values()) > 0
    for iid, params in offered:
        agent = res.agents[iid]
        assert params is getattr(agent, agent._NETS[0])
    for iid, got in versions.items():  # each version to both mailboxes
        assert got == [v for v in range(1, res.update_counts[iid] + 1)
                       for _ in range(2)]


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

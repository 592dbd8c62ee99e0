"""DQN / DDPG agent tests: targets, exploration, replay, action scaling."""

import numpy as np
import pytest

from tscbench import nn
from tscbench.agents import (Batch, DdpgAgent, DdpgConfig, DqnAgent,
                             DqnConfig, Experience, ExplorationSchedule,
                             ReplayBuffer, scale_duration)


def exp(state, action, reward, next_state, terminal=False):
    return Experience(np.asarray(state, dtype=float), action, reward,
                      np.asarray(next_state, dtype=float), terminal, "x")


def batch_of(exps):
    """The Batch a replay buffer would sample for these rows."""
    return Batch(np.stack([e.state for e in exps]),
                 np.array([e.action for e in exps], dtype=float),
                 np.array([e.reward for e in exps], dtype=float),
                 np.stack([e.next_state for e in exps]),
                 np.array([0.0 if e.terminal else 1.0 for e in exps]))


def pin_output(params, values):
    """Zero the last layer's weights so the output equals its bias."""
    last = params.layers[-1]
    last["w"][:] = 0.0
    last["b"][:] = np.asarray(values, dtype=float)


class TestReplayBuffer:
    def test_empty_sample_errors(self):
        buf = ReplayBuffer(10)
        with pytest.raises(ValueError):
            buf.sample(1, np.random.default_rng(0))

    def test_ring_eviction(self):
        buf = ReplayBuffer(3)
        for i in range(5):
            buf.push(exp([i], 0, 0.0, [i]))
        assert len(buf) == 3
        kept = sorted(buf.rows().state[:, 0])
        assert kept == [2.0, 3.0, 4.0]  # 0 and 1 were evicted in order

    def test_uniform_sampling(self):
        buf = ReplayBuffer(10)
        for i in range(10):
            buf.push(exp([i], 0, 0.0, [i]))
        rng = np.random.default_rng(1)
        counts = np.zeros(10)
        draws = 100_000
        for _ in range(draws // 10):
            for state in buf.sample(10, rng).state:
                counts[int(state[0])] += 1
        freq = counts / draws
        assert np.all(np.abs(freq - 0.1) < 0.005)

    def test_same_rows_as_list_ring(self):
        # the list-based ring the array ring replaced, as the reference
        capacity = 600   # storage grows 256 -> 512 -> 600, then wraps
        items, nxt = [], 0
        buf = ReplayBuffer(capacity)
        data = np.random.default_rng(5)
        checks = {1, 8, 255, 256, 257, 511, 512, 513, 599, 600, 601, 1300}
        for n in range(1, 1301):
            e = exp(data.normal(size=3), int(data.integers(4)),
                    float(data.normal()), data.normal(size=3),
                    terminal=bool(data.random() < 0.2))
            buf.push(e)
            if len(items) < capacity:
                items.append(e)
            else:
                items[nxt] = e
                nxt = (nxt + 1) % capacity
            if n not in checks:
                continue
            assert len(buf) == len(items)
            k = min(n, 32)
            rng_a, rng_b = (np.random.default_rng(n) for _ in range(2))
            got = buf.sample(k, rng_a)
            want = batch_of([items[i]
                             for i in rng_b.integers(len(items), size=k)])
            for field, g, w in zip(Batch._fields, got, want):
                assert np.array_equal(g, w), (n, field)
            assert rng_a.random() == rng_b.random()  # same draws consumed
            for g, w in zip(buf.rows(), batch_of(items)):
                assert np.array_equal(g, w)

    def test_storage_grows_only_as_needed(self):
        buf = ReplayBuffer(50_000)
        for i in range(300):
            buf.push(exp([i, i], 0, 0.0, [i, i]))
        assert len(buf) == 300
        assert len(buf._cols.state) == 512


class TestExplorationSchedule:
    def test_linear_decay(self):
        s = ExplorationSchedule(1.0, 0.05, 100)
        assert s.value(0) == 1.0
        assert s.value(50) == pytest.approx(0.525)
        assert s.value(100) == pytest.approx(0.05)
        assert s.value(10_000) == pytest.approx(0.05)

    def test_actor_scale(self):
        s = ExplorationSchedule(1.0, 0.05, 100, scale=0.4)
        assert s.value(0) == pytest.approx(0.4)
        assert s.value(100) == pytest.approx(0.05)


class TestDqn:
    def make(self, **kw):
        return DqnAgent(4, 2, seed=0, cfg=DqnConfig(**kw))

    def test_architecture(self):
        agent = self.make()
        assert agent.online.specs[0].width == 12  # 3 * state width
        assert agent.online.specs[-1].width == 2
        assert all(not s.batch_norm for s in agent.online.specs)
        assert agent.online.allclose(agent.target)

    def test_target_oracle_non_terminal(self):
        # y = r + gamma * max_a' Q_target = -0.5 + 0.99 * 2.0 = 1.48
        agent = self.make()
        pin_output(agent.target, [1.0, 2.0])
        pin_output(agent.online, [0.0, 0.0])
        batch = [exp([0.1] * 4, 0, -0.5, [0.2] * 4)] * 2
        loss = agent.train_batch(batch_of(batch))
        assert loss == pytest.approx(1.48 ** 2, rel=1e-12)

    def test_target_oracle_terminal(self):
        agent = self.make()
        pin_output(agent.target, [1.0, 2.0])
        pin_output(agent.online, [0.0, 0.0])
        batch = [exp([0.1] * 4, 0, -0.5, [0.2] * 4, terminal=True)] * 2
        loss = agent.train_batch(batch_of(batch))
        assert loss == pytest.approx(0.25, rel=1e-12)

    def test_gradient_only_through_taken_action(self):
        agent = self.make()
        pin_output(agent.online, [0.0, 0.0])
        before = agent.online.layers[-1]["b"].copy()
        batch = [exp([0.1] * 4, 0, -1.0, [0.2] * 4)] * 4
        agent.train_batch(batch_of(batch))
        after = agent.online.layers[-1]["b"]
        assert after[0] != before[0]
        assert after[1] == before[1]  # untaken action's bias untouched

    def test_hard_target_sync(self):
        agent = self.make(target_sync=3)
        batch = [exp([0.1] * 4, 0, -1.0, [0.2] * 4),
                 exp([0.3] * 4, 1, -0.5, [0.4] * 4)]
        for k in range(1, 4):
            agent.train_batch(batch_of(batch))
            if k < 3:
                assert not agent.target.allclose(agent.online)
        assert agent.target.allclose(agent.online)

    def test_epsilon_one_uniform(self):
        agent = self.make()
        rng = np.random.default_rng(2)
        draws = np.array([agent.act(np.zeros(4), 1.0, rng)
                          for _ in range(10_000)])
        counts = np.bincount(draws, minlength=2)
        # chi-squared against uniform: 1 dof, 99.9% critical value 10.83
        expected = 5000.0
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 10.83

    def test_greedy_first_max(self):
        agent = self.make()
        pin_output(agent.online, [1.0, 1.0])
        for layer in agent.online.layers[:-1]:
            layer["w"][:] = 0.0
        assert agent.act(np.zeros(4), 0.0, np.random.default_rng(0)) == 0

    def test_checkpoint_round_trip(self, tmp_path):
        agent = self.make()
        agent.train_batch(
            batch_of([exp([0.1] * 4, 0, -1.0, [0.2] * 4)] * 2))
        path = tmp_path / "dqn.ckpt"
        nn.save_checkpoint(str(path), agent.to_checkpoint())
        other = self.make()
        other.load_checkpoint(nn.load_checkpoint(str(path)))
        assert other.online.allclose(agent.online)
        assert other.target.allclose(agent.target)


class TestDdpg:
    def make(self, **kw):
        return DdpgAgent(4, seed=0, cfg=DdpgConfig(**kw))

    def test_architecture(self):
        agent = self.make()
        assert agent.actor.specs[0].width == 12           # 3|s|
        assert agent.actor.specs[0].batch_norm
        assert agent.actor.specs[-1].activation == "tanh"
        assert agent.critic.input_width == 5              # |s| + 1
        assert agent.critic.specs[0].width == 15          # 3(|s|+1)
        assert agent.critic.specs[-1].activation == "linear"

    def test_fresh_targets_match(self):
        agent = self.make()
        s = np.random.default_rng(0).normal(size=4)
        a, _ = nn.forward(agent.actor, s, "infer")
        b, _ = nn.forward(agent.actor_target, s, "infer")
        assert np.array_equal(a, b)

    def test_duration_scaling(self):
        # raw 0 maps to the midpoint 32.5, declared round-half-up -> 33
        assert scale_duration(0.0, 5, 60) == 33
        assert scale_duration(-1.0, 5, 60) == 5
        assert scale_duration(1.0, 5, 60) == 60
        assert scale_duration(-1.0, 10, 10) == 10

    def test_action_clamped(self):
        agent = self.make()
        rng = np.random.default_rng(0)
        for _ in range(50):
            raw = agent.act_raw(rng.normal(size=4), sigma=5.0, rng=rng)
            assert -1.0 <= raw <= 1.0

    def test_critic_terminal_target(self):
        # terminal: y = r = -0.2; critic pinned to 0 -> loss 0.04
        agent = self.make()
        pin_output(agent.critic, [0.0])
        batch = [exp([0.1] * 4, 0.3, -0.2, [0.2] * 4, terminal=True)] * 2
        critic_loss, _ = agent.train_batch(batch_of(batch))
        assert critic_loss == pytest.approx(0.04, rel=1e-9)

    def test_actor_chain_rule_toy(self):
        # critic Q(s, a) = 2a, actor pi(s) = w*s with s=1: dQ/dw = 2
        actor = nn.he_init((nn.LayerSpec(1, "linear"),), 1, 0)
        actor.layers[0]["w"][:] = 0.7
        critic = nn.he_init((nn.LayerSpec(1, "linear"),), 2, 0)
        critic.layers[0]["w"][:] = np.array([[0.0], [2.0]])
        s = np.array([[1.0], [1.0]])
        a_pi, acache = nn.forward(actor, s, "train")
        q, qcache = nn.forward(critic, np.hstack([s, a_pi]), "train")
        through = nn.backward(critic, qcache, np.ones_like(q))
        d_action = through.wrt_input[:, 1:]
        assert np.allclose(d_action, 2.0)
        agrads = nn.backward(actor, acache, d_action)
        assert agrads.layers[0]["w"][0, 0] == pytest.approx(4.0)  # 2 rows * 2

    def test_soft_updates_after_batch(self):
        agent = self.make(tau=0.5)
        before = agent.actor_target.copy()
        batch = [exp([float(i)] * 4, 0.1 * i, -0.5, [0.2] * 4)
                 for i in range(4)]
        agent.train_batch(batch_of(batch))
        assert not agent.actor_target.allclose(before)
        assert not agent.actor_target.allclose(agent.actor)

    def test_critic_running_stats_single_update_per_batch(self):
        # the actor pass reuses the critic in train mode but must not
        # refresh its running statistics a second time
        agent = self.make()
        batch = [exp([float(i)] * 4, 0.1, -0.5, [0.2] * 4) for i in range(4)]
        s = np.stack([e.state for e in batch])
        a = np.array([e.action for e in batch])[:, None]
        z = np.hstack([s, a]) @ agent.critic.layers[0]["w"] \
            + agent.critic.layers[0]["b"]
        mom = nn.BN_MOMENTUM
        expected = mom * agent.critic.layers[0]["rmean"] \
            + (1 - mom) * z.mean(axis=0)
        agent.train_batch(batch_of(batch))
        # rmean reflects exactly one update from the critic training pass
        assert np.allclose(agent.critic.layers[0]["rmean"], expected,
                           atol=1e-12)

    def test_checkpoint_round_trip(self, tmp_path):
        agent = self.make()
        agent.train_batch(batch_of([exp([float(i)] * 4, 0.1, -0.5,
                                        [0.2] * 4) for i in range(4)]))
        path = tmp_path / "ddpg.ckpt"
        nn.save_checkpoint(str(path), agent.to_checkpoint())
        other = self.make()
        other.load_checkpoint(nn.load_checkpoint(str(path)))
        for name in ("actor", "critic", "actor_target", "critic_target"):
            assert getattr(other, name).allclose(getattr(agent, name))

    def test_bad_config(self):
        with pytest.raises(ValueError):
            DdpgConfig(g_min=10, g_max=5)
        with pytest.raises(ValueError):
            DdpgConfig(tau=0.0)


@pytest.mark.parametrize("cls,field,value", [
    (DqnConfig, "lr", float("nan")), (DqnConfig, "lr", float("inf")),
    (DqnConfig, "a_repeat", float("inf")),
    (DdpgConfig, "actor_lr", float("nan")),
    (DdpgConfig, "critic_lr", float("inf")),
    (DdpgConfig, "l2", float("nan")), (DdpgConfig, "g_max", float("inf")),
])
def test_config_rejects_non_finite_numbers(cls, field, value):
    with pytest.raises(ValueError, match=f"{field} must be a finite number"):
        cls(**{field: value})


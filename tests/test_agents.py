"""DQN / DDPG agent tests: targets, exploration, replay, action scaling,
and the learning controllers' decision loop."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tscbench import nn
from tscbench.agents import (Batch, DdpgAgent, DdpgConfig, DdpgController,
                             DqnAgent, DqnConfig, DqnController, Experience,
                             ReplayBuffer, scale_duration)
from tscbench.control import (ALLRED_TIME, HOLD, YELLOW_TIME, Controller,
                              NextPhase, RewardNormalizer)


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

    def test_empty_rows_errors(self):
        with pytest.raises(ValueError, match="buffer is empty"):
            ReplayBuffer(10).rows()

    @pytest.mark.parametrize("capacity", [0, -3])
    def test_capacity_below_one(self, capacity):
        with pytest.raises(ValueError, match="capacity must be >= 1"):
            ReplayBuffer(capacity)

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


def dqn_controller(explore=True, **cfg):
    agent = DqnAgent(STATE_WIDTH, N_PHASES, seed=0, cfg=DqnConfig(**cfg))
    return DqnController(agent, "i0", seed=1, explore=explore)


def ddpg_controller(explore=True, **cfg):
    agent = DdpgAgent(STATE_WIDTH, seed=0, cfg=DdpgConfig(**cfg))
    return DdpgController(agent, "i0", seed=1, explore=explore)


class TestExplorationSchedule:
    """`LearningController.exploration()`: linear decay by decision count
    from start to end."""

    def test_linear_decay(self):
        ctrl = dqn_controller(eps_start=1.0, eps_end=0.05,
                              eps_decay_steps=100)
        values = {}
        for step in (0, 50, 100, 10_000):
            ctrl.decision_steps = step
            values[step] = ctrl.exploration()
        assert values[0] == 1.0
        assert values[50] == pytest.approx(0.525)
        assert values[100] == pytest.approx(0.05)
        assert values[10_000] == pytest.approx(0.05)

    def test_ddpg_reads_sigma(self):
        ctrl = ddpg_controller(sigma_start=0.2, sigma_end=0.1,
                               sigma_decay_steps=10)
        assert ctrl.exploration() == pytest.approx(0.2)
        ctrl.decision_steps = 5
        assert ctrl.exploration() == pytest.approx(0.15)
        ctrl.decision_steps = 10
        assert ctrl.exploration() == pytest.approx(0.1)

    def test_greedy_is_zero(self):
        assert dqn_controller(explore=False).exploration() == 0.0
        assert ddpg_controller(explore=False).exploration() == 0.0

    def test_same_bits_as_reference(self):
        for make, ref, cfg in ((dqn_controller, RefDqnController,
                                {"eps_decay_steps": 7}),
                               (ddpg_controller, RefDdpgController,
                                {"sigma_decay_steps": 7})):
            ctrl = make(**cfg)
            want = ref(ctrl.agent, "i0", 1)
            for step in range(10):
                ctrl.decision_steps = want.decision_steps = step
                assert ctrl.exploration().hex() == want.exploration().hex()


# -- the decision loop against the two controllers it replaced ---------------

@dataclass
class RefSchedule:
    """Linear decay from start to end over decay_steps decisions."""

    start: float
    end: float
    decay_steps: int

    def value(self, step: int) -> float:
        frac = min(1.0, step / max(1, self.decay_steps))
        return max(self.end, self.start + (self.end - self.start) * frac)


class RefLearningController(Controller):
    start_idle = True

    def __init__(self, agent, iid, seed, explore=True, schedule=None,
                 normalizer=None, on_experience=None):
        self.agent = agent
        self.iid = iid
        self.rng = np.random.default_rng(seed)
        self.explore = explore
        self.schedule = schedule
        self.normalizer = normalizer or RewardNormalizer()
        self.on_experience = on_experience
        self.param_hook = None
        self.decision_steps = 0
        self._pending = None

    def begin_episode(self):
        self._pending = None

    def exploration(self):
        if not self.explore or self.schedule is None:
            return 0.0
        return self.schedule.value(self.decision_steps)

    def _emit(self, next_state, reward, terminal):
        if self._pending is None:
            return
        s, a = self._pending
        exp = Experience(s, a, reward, next_state, terminal, self.iid)
        self._pending = None
        if self.on_experience is not None:
            self.on_experience(exp)


class RefDqnController(RefLearningController):
    def __init__(self, agent, iid, seed, explore=True, normalizer=None,
                 on_experience=None):
        cfg = agent.cfg
        schedule = RefSchedule(cfg.eps_start, cfg.eps_end,
                               cfg.eps_decay_steps)
        super().__init__(agent, iid, seed, explore, schedule, normalizer,
                         on_experience)

    def _choose(self, state):
        if self.param_hook is not None:
            self.param_hook()
        action = self.agent.act(state, self.exploration(), self.rng)
        self.decision_steps += 1
        self._pending = (state, action)
        return NextPhase(action)

    def decide(self, view):
        if view.is_idle:
            if not view.any_incoming_vehicle():
                return HOLD
            return self._choose(view.observe())
        if view.t_p < self.agent.cfg.a_repeat:
            return HOLD
        terminal = not view.any_incoming_vehicle()
        state = view.observe(force_all_red=terminal)
        self._emit(state, self.normalizer.normalize(view.reward_raw()),
                   terminal)
        if terminal:
            return NextPhase(None)
        return self._choose(state)


class RefDdpgController(RefLearningController):
    def __init__(self, agent, iid, seed, explore=True, normalizer=None,
                 on_experience=None):
        cfg = agent.cfg
        schedule = RefSchedule(cfg.sigma_start, cfg.sigma_end,
                               cfg.sigma_decay_steps)
        super().__init__(agent, iid, seed, explore, schedule, normalizer,
                         on_experience)
        self._duration = cfg.g_min

    def _choose(self, state, next_phase):
        if self.param_hook is not None:
            self.param_hook()
        raw, dur = self.agent.act(state, self.exploration(), self.rng)
        self.decision_steps += 1
        self._pending = (state, raw)
        self._duration = dur
        return NextPhase(next_phase)

    def decide(self, view):
        if view.is_idle:
            if not view.any_incoming_vehicle():
                return HOLD
            nxt = view.cycle_next(None)
            return self._choose(view.observe(), nxt)
        if view.t_p < self._duration:
            return HOLD
        nxt = view.cycle_next(view.current_phase)
        terminal = nxt is None
        state = view.observe(force_all_red=terminal)
        self._emit(state, self.normalizer.normalize(view.reward_raw()),
                   terminal)
        if terminal:
            return NextPhase(None)
        return self._choose(state, nxt)


N_PHASES = 2
UNSERVED = "x"  # an incoming lane that no phase serves
STATE_WIDTH = 2 * 3 + N_PHASES + 1  # lanes of phase 0, phase 1, UNSERVED


class ScriptedView:
    """Duck-typed `SignalUnit` for the learning loop. Each second's
    `waiting` set names the phases whose lanes hold a vehicle (and
    UNSERVED for a vehicle on a lane no phase serves); `rewards` gives
    each second's raw reward. `step` runs `SignalUnit.advance`'s
    sequencer: a switch takes YELLOW_TIME + ALLRED_TIME seconds, the new
    green starts with `t_p` 0, from idle with 1."""

    def __init__(self, waiting, rewards):
        self.waiting, self.rewards = waiting, rewards
        self.t = 0
        self.is_idle, self.phase, self.current_phase = True, None, None
        self.t_p, self.clearance, self.pending = 0, 0, None

    def any_incoming_vehicle(self):
        return bool(self.waiting[self.t])

    def cycle_next(self, current=None):
        if current is None:
            current = self.phase
        start = 0 if current is None else (current + 1) % N_PHASES
        for k in range(N_PHASES):
            if (start + k) % N_PHASES in self.waiting[self.t]:
                return (start + k) % N_PHASES
        return None

    def observe(self, force_all_red=False):
        lanes = (0, 1, UNSERVED)
        out = np.zeros(STATE_WIDTH)
        out[:3] = [(lane in self.waiting[self.t]) * 0.5 for lane in lanes]
        out[3:6] = [(self.t * 7 + 3 * k) % 11 / 11 for k in range(3)]
        current = None if force_all_red else self.current_phase
        out[6 + (N_PHASES if current is None else current)] = 1.0
        return out

    def reward_raw(self):
        return self.rewards[self.t]

    def step(self, controller):
        """One second; the controller's decision, or None in a clearance."""
        decision = None
        if self.clearance:
            self.clearance -= 1
            if not self.clearance:
                if self.pending is None:
                    self.is_idle = True
                else:
                    self.phase = self.current_phase = self.pending
                    self.t_p = 0
        else:
            decision = controller.decide(self)
            if not isinstance(decision, NextPhase):
                if not self.is_idle:
                    self.t_p += 1
            elif self.is_idle:
                if decision.phase is not None:
                    self.phase = self.current_phase = decision.phase
                    self.is_idle, self.t_p = False, 1
            elif decision.phase == self.phase:
                self.t_p = 1
            else:
                self.pending, self.current_phase = decision.phase, None
                self.clearance = YELLOW_TIME + ALLRED_TIME - 1
        self.t += 1
        return decision


def fresh_params(agent, seed):
    """The acting parameters of a new agent like `agent`."""
    if isinstance(agent, DqnAgent):
        return DqnAgent(STATE_WIDTH, N_PHASES, seed, agent.cfg).acting_params()
    return DdpgAgent(STATE_WIDTH, seed, agent.cfg).acting_params()


def drive(cls, agent, waiting, rewards, resets=(), explore=True):
    """Run `cls` on a ScriptedView of the script; `resets` are the seconds
    before which `begin_episode` is called. Returns the controller, its
    decisions, its experiences and the decision count at each
    `param_hook` call."""
    emitted, hooks = [], []
    ctrl = cls(agent, "i0", seed=3, explore=explore,
               normalizer=RewardNormalizer(), on_experience=emitted.append)

    def param_hook():  # as the fabric's: new acting parameters, at times
        hooks.append(ctrl.decision_steps)
        if len(hooks) % 2:
            agent.apply_acting_params(fresh_params(agent, 100 + len(hooks)))

    ctrl.param_hook = param_hook
    view = ScriptedView(waiting, rewards)
    decisions = []
    for t in range(len(waiting)):
        if t in resets:
            ctrl.begin_episode()
        decisions.append(view.step(ctrl))
    return ctrl, decisions, emitted, hooks


def assert_same_run(got, want):
    (ctrl, decisions, emitted, hooks), (ref, ref_decisions, ref_emitted,
                                       ref_hooks) = got, want
    assert decisions == ref_decisions
    assert len(emitted) == len(ref_emitted)
    for e, r in zip(emitted, ref_emitted):
        assert e.state.tobytes() == r.state.tobytes()
        assert e.next_state.tobytes() == r.next_state.tobytes()
        assert (type(e.action), e.action) == (type(r.action), r.action)
        assert (e.reward.hex(), e.terminal, e.intersection) == \
            (r.reward.hex(), r.terminal, r.intersection)
    assert hooks == ref_hooks
    assert ctrl.decision_steps == ref.decision_steps
    assert ctrl.normalizer.r_min.hex() == ref.normalizer.r_min.hex()
    assert ctrl.rng.bit_generator.state == ref.rng.bit_generator.state


def make_agents(algo):
    """Two agents with the same weights: one for each controller."""
    if algo == "dqn":
        cfg = DqnConfig(a_repeat=3, eps_start=0.9, eps_end=0.1,
                        eps_decay_steps=12)
        return [DqnAgent(STATE_WIDTH, N_PHASES, 5, cfg) for _ in range(2)]
    cfg = DdpgConfig(g_min=2, g_max=7, sigma_start=0.8, sigma_end=0.05,
                     sigma_decay_steps=12)
    return [DdpgAgent(STATE_WIDTH, 5, cfg) for _ in range(2)]


FOLDED_AND_REF = {"dqn": (DqnController, RefDqnController),
                  "ddpg": (DdpgController, RefDdpgController)}

W = frozenset


def compare_runs(algo, waiting, rewards, **kw):
    (cls, ref_cls), (agent, ref_agent) = FOLDED_AND_REF[algo], \
        make_agents(algo)
    got = drive(cls, agent, waiting, rewards, **kw)
    assert_same_run(got, drive(ref_cls, ref_agent, waiting, rewards, **kw))
    return got


# no vehicle 3 s, both phases busy 30 s, no vehicle 12 s (a drain, then
# idle), one phase busy 20 s
STORY = [W()] * 3 + [W({0, 1})] * 30 + [W()] * 12 + [W({1})] * 20
STORY_REWARDS = [-float((3 * t) % 17) for t in range(len(STORY))]


class TestDecisionLoop:
    """`LearningController.decide` makes the decisions, experiences and
    random draws of the DqnController and DdpgController it replaced."""

    @pytest.mark.parametrize("algo", ["dqn", "ddpg"])
    # the ids keep the names the cases had while an exploration scale of
    # 1.0 was a parameter too
    @pytest.mark.parametrize("explore", [True, False],
                             ids=["True-1.0", "False-1.0"])
    def test_story(self, algo, explore):
        ctrl, decisions, emitted, _ = compare_runs(
            algo, STORY, STORY_REWARDS, explore=explore)
        # idle start: hold until a vehicle waits, then draw a green
        assert decisions[:3] == [HOLD] * 3
        assert isinstance(decisions[3], NextPhase)
        assert decisions[3].phase is not None
        # a terminal drain once the lanes are empty at a green's end
        drains = [t for t, d in enumerate(decisions)
                  if d == NextPhase(None)]
        assert drains and all(33 <= t < 45 for t in drains)
        terminal = [e for e in emitted if e.terminal]
        assert len(terminal) == len(drains)
        assert all(e.next_state[6 + N_PHASES] == 1.0 for e in terminal)
        assert ctrl.decision_steps == len(emitted) + 1

    def test_dqn_holds_a_repeat(self):
        _, decisions, _, _ = compare_runs("dqn", STORY, STORY_REWARDS)
        # from idle the green starts with t_p 1: decide again at t_p 3
        assert decisions[4:6] == [HOLD, HOLD]
        assert isinstance(decisions[6], NextPhase)

    def test_ddpg_holds_its_drawn_duration(self):
        ctrl, decisions, emitted, _ = compare_runs(
            "ddpg", STORY, STORY_REWARDS)
        cfg = ctrl.agent.cfg
        first = scale_duration(emitted[0].action, cfg.g_min, cfg.g_max)
        # the green drawn at second 3 starts at once with t_p 1
        assert decisions[4:3 + first] == [HOLD] * (first - 1)
        assert isinstance(decisions[3 + first], NextPhase)
        assert len({e.action for e in emitted}) > 1

    def test_dqn_drains_on_vehicles_not_cycle(self):
        # a vehicle only on a lane no phase serves: DQN keeps deciding
        # (cycle_next would be None), DDPG drains
        waiting = [W({0})] * 10 + [W({UNSERVED})] * 30
        rewards = [-1.0] * len(waiting)
        _, dqn, _, _ = compare_runs("dqn", waiting, rewards)
        _, ddpg, _, _ = compare_runs("ddpg", waiting, rewards)
        assert NextPhase(None) not in dqn[10:]
        assert NextPhase(None) in ddpg[10:]

    def test_reward_normalized_without_a_pending_draw(self):
        # a reset mid-green leaves no pending experience at the green's
        # end; its raw reward still sets the normalizer's scale
        # (a_repeat 3: greens end at seconds 3, 6 and 9)
        waiting = [W({0, 1})] * 12
        rewards = [-1.0] * 12
        rewards[6] = -9.0
        ctrl, decisions, emitted, _ = compare_runs("dqn", waiting, rewards,
                                                   resets={5})
        assert [t for t, d in enumerate(decisions) if d != HOLD] == \
            [0, 3, 6, 9]
        assert ctrl.normalizer.r_min == 9.0
        assert [e.reward for e in emitted] == [-1.0, -1.0 / 9.0]

    @settings(max_examples=60, deadline=None)
    @given(algo=st.sampled_from(["dqn", "ddpg"]),
           script=st.lists(st.tuples(
               st.sampled_from([W(), W({0}), W({1}), W({0, 1}),
                                W({UNSERVED}), W({1, UNSERVED})]),
               st.integers(1, 12),
               st.sampled_from([0.0, -0.5, -2.0, -7.25, -30.0])),
               min_size=1, max_size=12),
           resets=st.sets(st.integers(0, 150), max_size=3),
           explore=st.booleans())
    def test_scripted(self, algo, script, resets, explore):
        waiting = [w for w, n, _ in script for _ in range(n)]
        rewards = [r + 0.125 * k for _, n, r in script for k in range(n)]
        compare_runs(algo, waiting, rewards, resets=resets, explore=explore)


class TestDqn:
    def make(self, **kw):
        return DqnAgent(4, 2, seed=0, cfg=DqnConfig(**kw))

    def test_architecture(self):
        agent = self.make()
        assert agent.online.specs[0].width == 12  # 3 * state width
        assert agent.online.specs[-1].width == 2
        assert all(not s.batch_norm for s in agent.online.specs)
        assert np.array_equal(agent.online.flat, agent.target.flat)

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

    def test_one_row_batch_refused(self):
        agent = self.make()
        before = agent.online.copy()
        with pytest.raises(ValueError, match="batch size must be >= 2"):
            agent.train_batch(batch_of([exp([0.1] * 4, 0, -1.0, [0.2] * 4)]))
        assert np.array_equal(agent.online.flat, before.flat)
        assert agent.updates == 0

    def test_hard_target_sync(self):
        agent = self.make(target_sync=3)
        batch = [exp([0.1] * 4, 0, -1.0, [0.2] * 4),
                 exp([0.3] * 4, 1, -0.5, [0.4] * 4)]
        for k in range(1, 4):
            agent.train_batch(batch_of(batch))
            if k < 3:
                assert not np.array_equal(agent.target.flat, agent.online.flat)
        assert np.array_equal(agent.target.flat, agent.online.flat)

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
        assert np.array_equal(other.online.flat, agent.online.flat)
        assert np.array_equal(other.target.flat, agent.target.flat)


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
            raw, duration = agent.act(rng.normal(size=4), sigma=5.0,
                                      rng=rng)
            assert -1.0 <= raw <= 1.0
            assert agent.cfg.g_min <= duration <= agent.cfg.g_max

    def test_critic_terminal_target(self):
        # terminal: y = r = -0.2; critic pinned to 0 -> loss 0.04
        agent = self.make()
        pin_output(agent.critic, [0.0])
        batch = [exp([0.1] * 4, 0.3, -0.2, [0.2] * 4, terminal=True)] * 2
        critic_loss = agent.train_batch(batch_of(batch))
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
        d_action = nn.input_gradient(critic, qcache, np.ones_like(q))[:, 1:]
        assert np.allclose(d_action, 2.0)
        agrads = nn.backward(actor, acache, d_action, nn.AdamState(actor))
        assert agrads[0]["w"][0, 0] == pytest.approx(4.0)  # 2 rows * 2

    def test_soft_updates_after_batch(self):
        agent = self.make(tau=0.5)
        before = agent.actor_target.copy()
        batch = [exp([float(i)] * 4, 0.1 * i, -0.5, [0.2] * 4)
                 for i in range(4)]
        agent.train_batch(batch_of(batch))
        assert not np.array_equal(agent.actor_target.flat, before.flat)
        assert not np.array_equal(agent.actor_target.flat, agent.actor.flat)

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
            assert np.array_equal(getattr(other, name).flat,
                                  getattr(agent, name).flat)

    def test_one_row_batch_refused(self):
        # the critic's train-mode batch norm refuses it before any
        # network, optimizer moment or running statistic changes
        agent = self.make()
        adams = (agent.actor_adam, agent.critic_adam)
        before = [getattr(agent, name).flat.copy() for name in agent._NETS] \
            + [np.concatenate([a.m, a.v, [a.step]]) for a in adams]
        with pytest.raises(ValueError, match="needs batch >= 2"):
            agent.train_batch(batch_of([exp([0.1] * 4, 0.2, -1.0,
                                            [0.2] * 4)]))
        after = [getattr(agent, name).flat for name in agent._NETS] \
            + [np.concatenate([a.m, a.v, [a.step]]) for a in adams]
        assert all(map(np.array_equal, after, before))
        assert agent.updates == 0

    def test_bad_config(self):
        with pytest.raises(ValueError):
            DdpgConfig(g_min=10, g_max=5)
        with pytest.raises(ValueError):
            DdpgConfig(tau=0.0)


class TestStackedAgents:
    """A stacked agent updates its rows with the bits of each agent's own
    `train_batch`: networks, versions, optimizer state and loss."""

    AGENTS = {"dqn": lambda seed: DqnAgent(4, 3, seed, DqnConfig(
                  batch_size=8, target_sync=2)),
              "ddpg": lambda seed: DdpgAgent(4, seed, DdpgConfig(
                  batch_size=8, tau=0.1))}

    def batch(self, rng, lead, algo):
        action = rng.integers(3, size=lead).astype(float) if algo == "dqn" \
            else rng.uniform(-1.0, 1.0, size=lead)
        return Batch(rng.normal(size=lead + (4,)), action,
                     rng.normal(size=lead), rng.normal(size=lead + (4,)),
                     (rng.random(lead) < 0.8).astype(float))

    def state(self, agent):
        nets = [(p.flat.copy(), p.version) for p in
                agent.to_checkpoint().values()]
        adams = [(a.m.copy(), a.v.copy(), a.step) for a in
                 (getattr(agent, name) for name in agent._ADAMS)]
        return nets, adams

    def assert_same(self, a, b):
        (nets_a, adams_a), (nets_b, adams_b) = self.state(a), self.state(b)
        for (fa, va), (fb, vb) in zip(nets_a, nets_b):
            assert np.array_equal(fa, fb) and va == vb
        for (ma, sa, ta), (mb, sb, tb) in zip(adams_a, adams_b):
            assert np.array_equal(ma, mb) and np.array_equal(sa, sb)
            assert ta == tb

    @pytest.mark.parametrize("algo", sorted(AGENTS))
    def test_rows_match_one_at_a_time(self, algo):
        make = self.AGENTS[algo]
        alone = [make(seed) for seed in range(3)]
        rows = [make(seed) for seed in range(3)]
        stacked = type(rows[0]).stack(rows)
        rng = np.random.default_rng(0)
        for step in range(5):
            batch = self.batch(rng, (3, 8), algo)
            # row 0 only on odd steps: the step counts drift apart
            lo = 0 if step % 2 else 1
            losses = stacked.rows(lo, 3).train_batch(
                Batch(*(col[lo:] for col in batch)))
            want = [alone[k].train_batch(Batch(*(col[k] for col in batch)))
                    for k in range(lo, 3)]
            assert losses == want and all(type(x) is float for x in want)
            for a, b in zip(alone, rows):
                self.assert_same(a, b)
        assert [a.updates for a in rows] == [2, 5, 5]

    def test_layouts_must_match(self):
        with pytest.raises(ValueError, match="share one layout"):
            DqnAgent.stack([DqnAgent(4, 2, 0), DqnAgent(5, 2, 0)])
        with pytest.raises(ValueError, match="share one layout"):
            DqnAgent.stack([DqnAgent(4, 2, 0),
                            DqnAgent(4, 2, 0, DqnConfig(gamma=0.5))])


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


@pytest.mark.parametrize("cls,hp,message", [
    (DqnConfig, {"target_sync": 0}, "target_sync must be >= 1"),
    (DqnConfig, {"lr": -1}, "lr must be > 0"),
    (DqnConfig, {"lr": 0.0}, "lr must be > 0"),
    (DqnConfig, {"replay_capacity": 10}, "replay_capacity must be >= batch"),
    (DqnConfig, {"batch_size": 1}, "batch size must be >= 2"),
    (DdpgConfig, {"actor_lr": -1e-4}, "actor_lr and critic_lr must be > 0"),
    (DdpgConfig, {"critic_lr": 0}, "actor_lr and critic_lr must be > 0"),
    (DdpgConfig, {"replay_capacity": 64, "batch_size": 65},
     "replay_capacity must be >= batch"),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_config_rejects_out_of_range_values(cls, hp, message):
    # each used to pass construction and fail (or train nothing) later
    with pytest.raises(ValueError, match=message):
        cls(**hp)



@pytest.mark.parametrize("cls,field,value", [
    (DqnConfig, "batch_size", 2.5), (DqnConfig, "a_repeat", 0.5),
    (DqnConfig, "target_sync", 200.5), (DqnConfig, "eps_decay_steps", 1.5),
    (DqnConfig, "replay_capacity", "big"),
    (DdpgConfig, "g_min", 5.5), (DdpgConfig, "g_max", 60.5),
    (DdpgConfig, "sigma_decay_steps", 0.5), (DdpgConfig, "batch_size", True),
    (DdpgConfig, "replay_capacity", 100.5),
])
def test_config_rejects_fractional_counts(cls, field, value):
    with pytest.raises(ValueError, match=f"{field} must be a whole number"):
        cls(**{field: value})


def test_config_accepts_whole_floats():
    dqn = DqnConfig(a_repeat=5.0, batch_size=16.0, replay_capacity=100.0)
    ddpg = DdpgConfig(g_min=5.0, g_max=30.0, sigma_decay_steps=100.0)
    counts = [dqn.a_repeat, dqn.batch_size, dqn.replay_capacity,
              ddpg.g_min, ddpg.g_max, ddpg.sigma_decay_steps]
    assert counts == [5, 16, 100, 5, 30, 100]
    assert all(type(n) is int for n in counts)
    assert DqnConfig().lr == 1e-3 and type(DdpgConfig().tau) is float


class TestPolicyAgent:
    """The parameter bookkeeping both agents inherit: the acting network
    first, every network in a checkpoint, copies in and out."""

    AGENTS = {"dqn": lambda: DqnAgent(4, 2, 0),
              "ddpg": lambda: DdpgAgent(4, 0, DdpgConfig(batch_size=2))}
    NETS = {"dqn": ["online", "target"],
            "ddpg": ["actor", "critic", "actor_target", "critic_target"]}

    @pytest.mark.parametrize("algo", sorted(AGENTS))
    def test_checkpoint_names_every_network_in_order(self, algo):
        agent = self.AGENTS[algo]()
        named = agent.to_checkpoint()
        assert list(named) == self.NETS[algo]
        assert all(named[k] is getattr(agent, k) for k in named)

    @pytest.mark.parametrize("algo", sorted(AGENTS))
    def test_acting_params_are_copies_of_the_acting_network(self, algo):
        agent = self.AGENTS[algo]()
        acting = getattr(agent, self.NETS[algo][0])
        params = agent.acting_params()
        assert params is not acting
        assert params.flat.tobytes() == acting.flat.tobytes()
        params.flat[:] = 0.5
        agent.apply_acting_params(params)
        params.flat[:] = 0.25  # the agent holds its own copy
        assert (getattr(agent, self.NETS[algo][0]).flat == 0.5).all()
        for name in self.NETS[algo][1:]:  # only the acting network moves
            assert not (getattr(agent, name).flat == 0.5).all()

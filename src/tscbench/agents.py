"""DQN and DDPG traffic-signal agents plus their controller wrappers."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import nn
from .control import (HOLD, Controller, NextPhase, RewardNormalizer,
                      require_finite)


@dataclass
class Experience:
    state: np.ndarray
    action: object            # phase index (DQN) or raw action in [-1, 1] (DDPG)
    reward: float
    next_state: np.ndarray
    terminal: bool
    intersection: str


class Batch(NamedTuple):
    """Experiences stacked row by row; `live` is 0.0 for terminal rows."""

    state: np.ndarray
    action: np.ndarray
    reward: np.ndarray
    next_state: np.ndarray
    live: np.ndarray


class ReplayBuffer:
    """Ring buffer of experiences with uniform with-replacement sampling.

    Rows are stored as arrays, one per Batch field. The i-th push fills
    row i until `capacity` rows are held; after that each push overwrites
    the oldest row. Storage starts at _MIN_ROWS rows and doubles as it
    fills, up to `capacity`.
    """

    _MIN_ROWS = 256

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._cols = None  # Batch of arrays with room for the held rows
        self._len = 0
        self._next = 0

    def __len__(self):
        return self._len

    def _grow(self, exp: Experience) -> None:
        rows = min(self.capacity,
                   max(self._MIN_ROWS, 2 * self._len))
        width = np.shape(exp.state)
        cols = Batch(np.empty((rows,) + width), np.empty(rows),
                     np.empty(rows), np.empty((rows,) + width),
                     np.empty(rows))
        if self._cols is not None:
            for new, old in zip(cols, self._cols):
                new[:self._len] = old
        self._cols = cols

    def push(self, exp: Experience) -> None:
        if self._len < self.capacity:
            i = self._len
            if self._cols is None or i == len(self._cols.reward):
                self._grow(exp)
            self._len += 1
        else:
            i = self._next
            self._next = (i + 1) % self.capacity
        cols = self._cols
        cols.state[i] = exp.state
        cols.action[i] = exp.action
        cols.reward[i] = exp.reward
        cols.next_state[i] = exp.next_state
        cols.live[i] = 0.0 if exp.terminal else 1.0

    def sample(self, k: int, rng: np.random.Generator) -> Batch:
        if self._len < k:
            raise ValueError(f"buffer holds {self._len} < {k} samples")
        idx = rng.integers(self._len, size=k)
        return Batch(*(col[idx] for col in self._cols))

    def rows(self) -> Batch:
        """A copy of the held rows, in row order."""
        if self._cols is None:
            raise ValueError("buffer is empty")
        return Batch(*(col[:self._len].copy() for col in self._cols))


@dataclass
class ExplorationSchedule:
    """Linear decay from start to end over decay_steps decisions."""

    start: float
    end: float
    decay_steps: int
    scale: float = 1.0  # per-actor diversity factor applied to the start value

    def value(self, step: int) -> float:
        frac = min(1.0, step / max(1, self.decay_steps))
        start = self.start * self.scale
        return max(self.end, start + (self.end - start) * frac)


@dataclass
class DqnConfig:
    a_repeat: int = 10
    gamma: float = 0.99
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_decay_steps: int = 8000
    target_sync: int = 200        # hard target copies, in updates
    batch_size: int = 32
    lr: float = 1e-3
    replay_capacity: int = 50000

    def __post_init__(self):
        require_finite(**vars(self))
        if self.a_repeat < 1:
            raise ValueError("a_repeat must be >= 1")
        if self.batch_size < 2:
            raise ValueError("batch size must be >= 2")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")


@functools.lru_cache(maxsize=8)
def _row_index(n: int) -> np.ndarray:
    """np.arange(n), made once per batch size and read-only."""
    rows = np.arange(n)
    rows.flags.writeable = False
    return rows


def dqn_specs(state_width: int, n_phases: int) -> tuple:
    hidden = 3 * state_width
    return (nn.LayerSpec(hidden, "elu"), nn.LayerSpec(hidden, "elu"),
            nn.LayerSpec(n_phases, "linear"))


class DqnAgent:
    """Action-value network with a hard-synced target copy."""

    def __init__(self, state_width: int, n_phases: int, seed: int,
                 cfg: DqnConfig | None = None):
        self.cfg = cfg or DqnConfig()
        self.state_width = state_width
        self.n_phases = n_phases
        self.online = nn.he_init(dqn_specs(state_width, n_phases),
                                 state_width, seed)
        self.target = self.online.copy()
        self.adam = nn.AdamState(self.online, lr=self.cfg.lr)
        self.updates = 0

    def q_values(self, state: np.ndarray) -> np.ndarray:
        out, _ = nn.forward(self.online, state, "infer")
        return out

    def act(self, state: np.ndarray, eps: float,
            rng: np.random.Generator) -> int:
        if eps > 0.0 and rng.random() < eps:
            return int(rng.integers(self.n_phases))
        return int(np.argmax(self.q_values(state)))  # first max = lowest index

    def train_batch(self, batch: Batch) -> float:
        n = len(batch.reward)
        if n < 2:
            raise ValueError("batch size must be >= 2")
        a = batch.action.astype(int)
        rows = _row_index(n)

        q2, _ = nn.forward(self.target, batch.next_state, "infer")
        y = batch.reward + self.cfg.gamma * q2.max(axis=1) * batch.live

        q, cache = nn.forward(self.online, batch.state, "train")
        err = q[rows, a] - y
        loss = float(np.add.reduce(err * err)) / n  # np.mean's sum and divide
        grad_out = np.zeros_like(q)
        grad_out[rows, a] = 2.0 * err / n
        grads = nn.backward(self.online, cache, grad_out, into=self.adam)
        nn.adam_step(self.online, grads, self.adam)
        self.updates += 1
        if self.updates % self.cfg.target_sync == 0:
            self.target = self.online.copy()
        return loss

    def acting_params(self) -> nn.ParameterSet:
        return self.online.copy()

    def apply_acting_params(self, params: nn.ParameterSet) -> None:
        self.online = params.copy()

    def to_checkpoint(self) -> dict:
        return {"online": self.online, "target": self.target}

    def load_checkpoint(self, named: dict) -> None:
        self.online = named["online"].copy()
        self.target = named["target"].copy()


@dataclass
class DdpgConfig:
    g_min: int = 5
    g_max: int = 60
    gamma: float = 0.99
    tau: float = 0.005
    sigma_start: float = 0.5
    sigma_end: float = 0.02
    sigma_decay_steps: int = 8000
    batch_size: int = 32
    actor_lr: float = 1e-4
    critic_lr: float = 1e-3
    replay_capacity: int = 50000
    l2: float = 0.01              # critic weight regularization

    def __post_init__(self):
        require_finite(**vars(self))
        if not 1 <= self.g_min <= self.g_max:
            raise ValueError("need 1 <= g_min <= g_max")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must be in (0, 1]")
        if self.batch_size < 2:
            raise ValueError("batch size must be >= 2")


def actor_specs(state_width: int) -> tuple:
    hidden = 3 * state_width
    return (nn.LayerSpec(hidden, "elu", batch_norm=True),
            nn.LayerSpec(hidden, "elu", batch_norm=True),
            nn.LayerSpec(1, "tanh"))


def critic_specs(state_width: int) -> tuple:
    hidden = 3 * (state_width + 1)
    return (nn.LayerSpec(hidden, "elu", batch_norm=True),
            nn.LayerSpec(hidden, "elu", batch_norm=True),
            nn.LayerSpec(1, "linear"))


def scale_duration(raw: float, g_min: int, g_max: int) -> int:
    """Affine map from [-1, 1] to integer seconds, round half up."""
    dur = g_min + (raw + 1.0) / 2.0 * (g_max - g_min)
    return int(math.floor(dur + 0.5))


class DdpgAgent:
    """Actor-critic pair with soft-updated target copies."""

    def __init__(self, state_width: int, seed: int,
                 cfg: DdpgConfig | None = None):
        self.cfg = cfg or DdpgConfig()
        self.state_width = state_width
        self.actor = nn.he_init(actor_specs(state_width), state_width, seed)
        self.critic = nn.he_init(critic_specs(state_width),
                                 state_width + 1, seed + 1)
        self.actor_target = self.actor.copy()
        self.critic_target = self.critic.copy()
        self.actor_adam = nn.AdamState(self.actor, lr=self.cfg.actor_lr)
        self.critic_adam = nn.AdamState(self.critic, lr=self.cfg.critic_lr)
        self.updates = 0

    def act_raw(self, state: np.ndarray, sigma: float,
                rng: np.random.Generator | None = None) -> float:
        out, _ = nn.forward(self.actor, state, "infer")
        raw = float(out[0])
        if sigma > 0.0:
            raw += float(rng.normal(0.0, sigma))
        return max(-1.0, min(1.0, raw))

    def act(self, state: np.ndarray, sigma: float,
            rng: np.random.Generator | None = None):
        raw = self.act_raw(state, sigma, rng)
        return raw, scale_duration(raw, self.cfg.g_min, self.cfg.g_max)

    def train_batch(self, batch: Batch):
        n = len(batch.reward)
        if n < 2:
            raise ValueError("batch size must be >= 2")
        s, s2 = batch.state, batch.next_state
        a = batch.action[:, None]
        r, live = batch.reward, batch.live

        # critic: target nets only in the bootstrap target
        a2, _ = nn.forward(self.actor_target, s2, "infer")
        q2, _ = nn.forward(self.critic_target, np.hstack([s2, a2]), "infer")
        y = r + self.cfg.gamma * q2[:, 0] * live
        q, cache = nn.forward(self.critic, np.hstack([s, a]), "train")
        err = q[:, 0] - y
        critic_loss = float(np.mean(err * err))
        grad_out = (2.0 * err / n)[:, None]
        cgrads = nn.backward(self.critic, cache, grad_out, l2=self.cfg.l2,
                             into=self.critic_adam)
        nn.adam_step(self.critic, cgrads, self.critic_adam)

        # actor: ascend Q(s, pi(s)) through the critic's action gradient
        a_pi, acache = nn.forward(self.actor, s, "train")
        q_pi, qcache = nn.forward(self.critic, np.hstack([s, a_pi]), "train",
                                  update_running=False)
        actor_loss = float(-np.mean(q_pi))
        gq = np.full((n, 1), -1.0 / n)
        d_action = nn.input_gradient(self.critic, qcache,
                                     gq)[:, self.state_width:]
        agrads = nn.backward(self.actor, acache, d_action,
                             into=self.actor_adam)
        nn.adam_step(self.actor, agrads, self.actor_adam)

        nn.soft_update(self.actor_target, self.actor, self.cfg.tau)
        nn.soft_update(self.critic_target, self.critic, self.cfg.tau)
        self.updates += 1
        return critic_loss, actor_loss

    def acting_params(self) -> nn.ParameterSet:
        return self.actor.copy()

    def apply_acting_params(self, params: nn.ParameterSet) -> None:
        self.actor = params.copy()

    def to_checkpoint(self) -> dict:
        return {"actor": self.actor, "critic": self.critic,
                "actor_target": self.actor_target,
                "critic_target": self.critic_target}

    def load_checkpoint(self, named: dict) -> None:
        self.actor = named["actor"].copy()
        self.critic = named["critic"].copy()
        self.actor_target = named["actor_target"].copy()
        self.critic_target = named["critic_target"].copy()


# -- controller wrappers ----------------------------------------------------------

class _LearningController(Controller):
    start_idle = True

    def __init__(self, agent, iid: str, seed: int, explore: bool = True,
                 schedule: ExplorationSchedule | None = None,
                 normalizer: RewardNormalizer | None = None,
                 on_experience=None):
        self.agent = agent
        self.iid = iid
        self.rng = np.random.default_rng(seed)
        self.explore = explore
        self.schedule = schedule
        self.normalizer = normalizer or RewardNormalizer()
        self.on_experience = on_experience
        self.param_hook = None  # fabric: apply pending updates pre-decision
        self.decision_steps = 0
        self._pending = None  # (state, action) awaiting its transition

    def begin_episode(self):
        self._pending = None

    def exploration(self) -> float:
        if not self.explore or self.schedule is None:
            return 0.0
        return self.schedule.value(self.decision_steps)

    def _emit(self, next_state: np.ndarray, reward: float, terminal: bool):
        if self._pending is None:
            return
        s, a = self._pending
        exp = Experience(s, a, reward, next_state, terminal, self.iid)
        self._pending = None
        if self.on_experience is not None:
            self.on_experience(exp)


class DqnController(_LearningController):
    """Acyclic phase choice, re-decided every a_repeat green seconds."""

    def __init__(self, agent: DqnAgent, iid: str, seed: int,
                 explore: bool = True, normalizer=None, on_experience=None,
                 exploration_scale: float = 1.0):
        cfg = agent.cfg
        schedule = ExplorationSchedule(cfg.eps_start, cfg.eps_end,
                                       cfg.eps_decay_steps,
                                       scale=exploration_scale)
        super().__init__(agent, iid, seed, explore, schedule, normalizer,
                         on_experience)

    def _choose(self, state: np.ndarray):
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


class DdpgController(_LearningController):
    """Cycle with learned per-phase durations; skips empty phases."""

    def __init__(self, agent: DdpgAgent, iid: str, seed: int,
                 explore: bool = True, normalizer=None, on_experience=None,
                 exploration_scale: float = 1.0):
        cfg = agent.cfg
        schedule = ExplorationSchedule(cfg.sigma_start, cfg.sigma_end,
                                       cfg.sigma_decay_steps,
                                       scale=exploration_scale)
        super().__init__(agent, iid, seed, explore, schedule, normalizer,
                         on_experience)
        self._duration = cfg.g_min

    def _choose(self, state: np.ndarray, next_phase: int):
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

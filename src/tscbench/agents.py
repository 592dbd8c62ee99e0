"""DQN and DDPG traffic-signal agents plus their controller wrappers."""

from __future__ import annotations

import copy
import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import nn
from .control import (HOLD, Controller, NextPhase, RewardNormalizer,
                      check_numbers, state_width)


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

    def sample(self, k: int, rng: np.random.Generator,
               out: Batch | None = None) -> Batch:
        """k rows drawn with replacement, copied into `out` if given."""
        if self._len < k:
            raise ValueError(f"buffer holds {self._len} < {k} samples")
        idx = rng.integers(self._len, size=k)
        if out is None:
            out = Batch(*(np.empty((k,) + col.shape[1:])
                          for col in self._cols))
        for col, dst in zip(self._cols, out):
            # idx is in range; the default mode would copy via a buffer
            col.take(idx, axis=0, out=dst, mode="clip")
        return out

    def rows(self) -> Batch:
        """A copy of the held rows, in row order."""
        if self._cols is None:
            raise ValueError("buffer is empty")
        return Batch(*(col[:self._len].copy() for col in self._cols))


def _check_replay(cfg) -> None:
    """A batch of at least 2 rows, and a replay buffer that can hold one."""
    if cfg.batch_size < 2:
        raise ValueError("batch size must be >= 2")
    if cfg.replay_capacity < cfg.batch_size:
        raise ValueError("replay_capacity must be >= batch_size")


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
        check_numbers(self)
        if self.a_repeat < 1:
            raise ValueError("a_repeat must be >= 1")
        if self.target_sync < 1:
            raise ValueError("target_sync must be >= 1")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")
        if self.lr <= 0.0:
            raise ValueError("lr must be > 0")
        _check_replay(self)

    def new_agent(self, net, ix, seed: int) -> DqnAgent:
        return DqnAgent(state_width(net, ix.id), len(ix.phases), seed, self)


def dqn_specs(state_width: int, n_phases: int) -> tuple:
    hidden = 3 * state_width
    return (nn.LayerSpec(hidden, "elu"), nn.LayerSpec(hidden, "elu"),
            nn.LayerSpec(n_phases, "linear"))


class PolicyAgent:
    """Parameter bookkeeping of an agent: its networks are the attributes
    named in `_NETS`, the acting network first, and the optimizer states
    that train them those in `_ADAMS`. Greedy control reads the acting
    network alone; a checkpoint holds them all, in `_NETS` order.

    A stacked agent (`stack`) stands for K agents of one `layout()`: every
    network and optimizer array gains a leading axis of K rows, and its
    `train_batch` updates all K from a batch with that axis, with the code
    and the bits of K single updates.

    A learner may defer an update: `deferred` is then the call that runs
    it, and every read or write of the agent's networks makes it first.
    """

    _NETS: tuple = ()
    _ADAMS: tuple = ()
    deferred = None

    def _settle(self) -> None:
        if self.deferred is not None:
            self.deferred()

    @property
    def updates(self):
        """Updates made; one optimizer step each."""
        return getattr(self, self._ADAMS[0]).step

    def acting_params(self) -> nn.ParameterSet:
        self._settle()
        return getattr(self, self._NETS[0]).copy()

    def apply_acting_params(self, params: nn.ParameterSet) -> None:
        self._settle()
        getattr(self, self._NETS[0]).assign(params)

    def to_checkpoint(self) -> dict:
        self._settle()
        return {name: getattr(self, name) for name in self._NETS}

    def load_checkpoint(self, named: dict) -> None:
        self._settle()
        for name in self._NETS:
            getattr(self, name).assign(named[name])

    def layout(self) -> tuple:
        """What agents stacked together share: class, config and network
        shapes."""
        nets = [getattr(self, name) for name in self._NETS]
        return (type(self), dataclasses.astuple(self.cfg),
                tuple((p.input_width, p.specs) for p in nets))

    @classmethod
    def stack(cls, agents: list) -> "PolicyAgent":
        """A stacked agent of `agents`, which share one layout; each one's
        networks and optimizer states become views of its row."""
        if len({a.layout() for a in agents}) != 1:
            raise ValueError("stacked agents must share one layout")
        stacked = copy.copy(agents[0])
        for name in cls._NETS + cls._ADAMS:
            rows = [getattr(a, name) for a in agents]
            setattr(stacked, name, type(rows[0]).stack(rows))
        return stacked

    def rows(self, lo: int, hi: int) -> "PolicyAgent":
        """Rows lo..hi-1 of a stacked agent, as a stacked agent viewing
        them."""
        part = copy.copy(self)
        for name in self._NETS + self._ADAMS:
            setattr(part, name, getattr(self, name).rows(lo, hi))
        return part


def _losses(sq_err: np.ndarray, n: int):
    """The mean of each row's squared errors, as np.mean sums and divides:
    a float, or a list of them for a stack."""
    return (np.add.reduce(sq_err, axis=-1) / n).tolist()


class DqnAgent(PolicyAgent):
    """Action-value network with a hard-synced target copy."""

    _NETS = ("online", "target")
    _ADAMS = ("adam",)

    def __init__(self, state_width: int, n_phases: int, seed: int,
                 cfg: DqnConfig | None = None):
        self.cfg = cfg or DqnConfig()
        self.n_phases = n_phases
        self.online = nn.he_init(dqn_specs(state_width, n_phases),
                                 state_width, seed)
        self.target = self.online.copy()
        self.adam = nn.AdamState(self.online, lr=self.cfg.lr)

    def act(self, state: np.ndarray, eps: float,
            rng: np.random.Generator) -> int:
        if eps > 0.0 and rng.random() < eps:
            return int(rng.integers(self.n_phases))
        self._settle()
        q, _ = nn.forward(self.online, state, "infer")
        return int(np.argmax(q))  # first max = lowest index

    def train_batch(self, batch: Batch):
        """One update; returns its loss (for a stack, each row's)."""
        n = batch.reward.shape[-1]
        if n < 2:
            raise ValueError("batch size must be >= 2")
        a = batch.action.astype(int).ravel()
        rows = np.arange(a.size)

        q2, _ = nn.forward(self.target, batch.next_state, "infer")
        y = batch.reward + self.cfg.gamma * q2.max(axis=-1) * batch.live

        q, cache = nn.forward(self.online, batch.state, "train")
        err = q.reshape(-1, self.n_phases)[rows, a].reshape(y.shape) - y
        grad_out = np.zeros(q.shape)
        grad_out.reshape(-1, self.n_phases)[rows, a] = (2.0 * err / n).ravel()
        nn.backward(self.online, cache, grad_out, self.adam)
        nn.adam_step(self.online, self.adam)
        sync = np.remainder(self.adam.step, self.cfg.target_sync) == 0
        if sync.any():  # hard copies in place, versions included
            np.copyto(self.target.flat, self.online.flat,
                      where=sync[..., None])
            self.target.version = np.where(sync, self.online.version,
                                           self.target.version)
        return _losses(err * err, n)


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
        check_numbers(self)
        if not 1 <= self.g_min <= self.g_max:
            raise ValueError("need 1 <= g_min <= g_max")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must be in (0, 1]")
        if self.actor_lr <= 0.0 or self.critic_lr <= 0.0:
            raise ValueError("actor_lr and critic_lr must be > 0")
        _check_replay(self)

    def new_agent(self, net, ix, seed: int) -> DdpgAgent:
        return DdpgAgent(state_width(net, ix.id), seed, self)


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


class DdpgAgent(PolicyAgent):
    """Actor-critic pair with soft-updated target copies."""

    _NETS = ("actor", "critic", "actor_target", "critic_target")
    _ADAMS = ("critic_adam", "actor_adam")

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

    def act(self, state: np.ndarray, sigma: float,
            rng: np.random.Generator | None = None):
        """The raw action, clipped to [-1, 1], and its green duration."""
        self._settle()
        out, _ = nn.forward(self.actor, state, "infer")
        raw = float(out[0])
        if sigma > 0.0:
            raw += float(rng.normal(0.0, sigma))
        raw = max(-1.0, min(1.0, raw))
        return raw, scale_duration(raw, self.cfg.g_min, self.cfg.g_max)

    def train_batch(self, batch: Batch):
        """One update; returns its critic loss (for a stack, each row's)."""
        # a batch of one row fails the critic's train-mode batch norm
        # before anything changes
        n = batch.reward.shape[-1]
        s, s2 = batch.state, batch.next_state
        a = batch.action[..., None]
        r, live = batch.reward, batch.live

        # critic: target nets only in the bootstrap target
        a2, _ = nn.forward(self.actor_target, s2, "infer")
        q2, _ = nn.forward(self.critic_target,
                           np.concatenate([s2, a2], axis=-1), "infer")
        y = r + self.cfg.gamma * q2[..., 0] * live
        q, cache = nn.forward(self.critic, np.concatenate([s, a], axis=-1),
                              "train")
        err = q[..., 0] - y
        grad_out = (2.0 * err / n)[..., None]
        nn.backward(self.critic, cache, grad_out, self.critic_adam,
                    l2=self.cfg.l2)
        nn.adam_step(self.critic, self.critic_adam)

        # actor: ascend Q(s, pi(s)) through the critic's action gradient
        a_pi, acache = nn.forward(self.actor, s, "train")
        q_pi, qcache = nn.forward(self.critic,
                                  np.concatenate([s, a_pi], axis=-1),
                                  "train", update_running=False)
        gq = np.full(q_pi.shape, -1.0 / n)
        d_action = nn.input_gradient(self.critic, qcache,
                                     gq)[..., self.state_width:]
        nn.backward(self.actor, acache, d_action, self.actor_adam)
        nn.adam_step(self.actor, self.actor_adam)

        nn.soft_update(self.actor_target, self.actor, self.cfg.tau)
        nn.soft_update(self.critic_target, self.critic, self.cfg.tau)
        return _losses(err * err, n)


# -- controllers -----------------------------------------------------------------

class LearningController(Controller):
    """The one decision loop of the learning controllers.

    Starting idle, it draws once a vehicle waits. It then holds each green
    for `green_s` seconds. At the green's end it emits the experience the
    last draw opened to its `on_experience` sink: the state now (all-red
    one-hot on the terminal decision), the normalized reward and whether
    the intersection drains to all-red idle. Without a sink (greedy
    control) it reads no reward. Unless it drains, it draws again. A
    subclass supplies the (start, end, decay steps) of its exploration
    value (`_schedule`), its terminal test (`_terminal`) and its draw
    (`_draw`), which returns the action to store, the next green and that
    green's length; its `config` is the agent config whose `new_agent(net,
    ix, seed)` builds its agent.
    """

    start_idle = True

    def __init__(self, agent, iid: str, seed: int, explore: bool = True,
                 normalizer: RewardNormalizer | None = None,
                 on_experience=None):
        self.agent = agent
        self.iid = iid
        self.rng = np.random.default_rng(seed)
        self.explore = explore
        self.normalizer = normalizer or RewardNormalizer()
        self.on_experience = on_experience
        self.param_hook = None  # fabric: apply pending updates pre-decision
        self.decision_steps = 0
        self.green_s = None  # set by each draw; the first draw is made idle
        self._pending = None  # (state, action) awaiting its transition
        self._start, self._end, self._decay_steps = self._schedule(agent.cfg)

    def begin_episode(self):
        self._pending = None

    def exploration(self) -> float:
        """Linear decay from start to end over the decay steps, by decision
        count; 0 when not exploring."""
        if not self.explore:
            return 0.0
        frac = min(1.0, self.decision_steps / max(1, self._decay_steps))
        start, end = self._start, self._end
        return max(end, start + (end - start) * frac)

    def decide(self, view):
        if view.is_idle:
            if not view.any_incoming_vehicle():
                return HOLD
            state = view.observe()
        elif view.t_p < self.green_s:
            return HOLD
        else:
            terminal = self._terminal(view)
            state = view.observe(force_all_red=terminal)
            if self.on_experience is not None:
                reward = self.normalizer.normalize(view.reward_raw())
                if self._pending is not None:
                    self.on_experience(Experience(*self._pending, reward,
                                                  state, terminal, self.iid))
            self._pending = None
            if terminal:
                return NextPhase(None)
        if self.param_hook is not None:
            self.param_hook()
        action, phase, self.green_s = self._draw(state, view)
        self.decision_steps += 1
        self._pending = (state, action)
        return NextPhase(phase)


class DqnController(LearningController):
    """Acyclic phase choice, re-decided every a_repeat green seconds;
    drains once no incoming lane holds a vehicle."""

    config = DqnConfig

    def _schedule(self, cfg: DqnConfig) -> tuple:
        return cfg.eps_start, cfg.eps_end, cfg.eps_decay_steps

    def _terminal(self, view) -> bool:
        return not view.any_incoming_vehicle()

    def _draw(self, state: np.ndarray, view) -> tuple:
        phase = self.agent.act(state, self.exploration(), self.rng)
        return phase, phase, self.agent.cfg.a_repeat


class DdpgController(LearningController):
    """Cycle with learned per-phase durations; skips empty phases."""

    config = DdpgConfig

    def _schedule(self, cfg: DdpgConfig) -> tuple:
        return cfg.sigma_start, cfg.sigma_end, cfg.sigma_decay_steps

    def _terminal(self, view) -> bool:
        return view.cycle_next() is None

    def _draw(self, state: np.ndarray, view) -> tuple:
        raw, duration = self.agent.act(state, self.exploration(), self.rng)
        return raw, view.cycle_next(), duration


# learning algorithm -> its controller, whose `config` is its agent config
ALGOS = {"dqn": DqnController, "ddpg": DdpgController}

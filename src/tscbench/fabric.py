"""Distributed-acting, centralized-learning training fabric.

One coordinator, `train`, runs every episode of the budget on the calling
thread, and its actors take turns: episode `ep`, seeded `seed + ep`, runs
on actor `ep % n_actors`. Every experience goes straight through one
`learn` step into the one learner, which owns every intersection's replay
buffer and trains them round-robin.

The learner defers its updates. It draws an update's batch when the
update comes due, and runs the arithmetic at a flush: one stacked
update for every pending intersection whose agent shares a layout, with
each agent's bits of an update made alone. It flushes when an
intersection with a pending update comes up again in the round-robin,
before anything reads or writes that agent's networks (a greedy DQN act,
every DDPG act, `acting_params`, a checkpoint), after every update while
mailboxes exist, and at the end of `train`. Update counts and log rows
are made when an update comes due; the flush fills in the loss.

One actor shares the learner's agents, so every update acts at its next
decision. Several actors each keep their own agents, reward normalizers
and latest-wins mailbox: after each update `learn` offers the learner's
live acting network to every mailbox, and an actor copies it in at its
next decision.

No training starts a thread, and every run repeats bit for bit.

`ALGOS` maps each learning algorithm's name to its controller, whose
`config` builds each intersection's agent; nothing here names one.
"""

from __future__ import annotations

import collections
import os
import queue
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .agents import ALGOS, Batch, ReplayBuffer
from .control import (ConfigError, RewardNormalizer, check_count,
                      check_numbers, configure)
from .network import (NetworkModel, finite_number, make_out_dir, read_input,
                      write_output)
from .nn import ParameterSet, load_checkpoint, save_checkpoint
from .simulation import (DemandProfile, check_entry_lanes, check_horizon,
                         run_episode)


@dataclass
class FabricConfig:
    n_actors: int = 1
    n_learners: int = 1  # always 1; goes when the benchmark stops passing it
    episode_budget: int = 100
    horizon: float | None = None     # training episode length, seconds

    def __post_init__(self):
        check_numbers(self)
        check_count("actors", self.n_actors)
        check_count("episodes", self.episode_budget)
        if self.n_learners != 1:
            raise ValueError(f"n_learners must be 1, got {self.n_learners}")
        check_horizon(self.horizon)


@dataclass
class TrainResult:
    algo: str
    agents: dict                      # intersection id -> trained agent
    r_min: dict                       # intersection id -> frozen |r_min|
    log: list                         # training-curve rows
    emitted: int = 0                  # experiences sent by actors
    received: int = 0                 # experiences ingested by learners
    update_counts: dict = field(default_factory=dict)
    checkpoint_dir: str | None = None

    def policy(self) -> tuple:
        """(agent config, intersection id -> acting parameters): all that
        greedy control reads, as `load_policy` reads it from a checkpoint."""
        cfg = next(iter(self.agents.values())).cfg
        return cfg, {iid: a.acting_params() for iid, a in self.agents.items()}


def _controller_class(algo: str) -> type:
    """The `LearningController` subclass of learning algorithm `algo`."""
    if algo not in ALGOS:
        raise ValueError(f"unknown algorithm {algo!r}")
    return ALGOS[algo]


def agent_config(algo: str, hp: dict):
    return configure(algo, _controller_class(algo).config, hp)


def check_seed(seed: int) -> None:
    """ConfigError unless `seed` can seed a numpy generator."""
    check_count("seed", seed, least=0)


def build_agents(net: NetworkModel, algo: str, agent_cfg, seed: int) -> dict:
    config = _controller_class(algo).config
    if not isinstance(agent_cfg, config):
        raise ConfigError(f"{algo!r} needs a {config.__name__}, not a "
                          f"{type(agent_cfg).__name__}")
    return {ix.id: agent_cfg.new_agent(net, ix, seed + 17 * k)
            for k, ix in enumerate(net.intersections)}


def build_controllers(net: NetworkModel, algo: str, agents: dict, seed: int,
                      explore: bool, normalizers: dict | None = None,
                      on_experience=None):
    cls = _controller_class(algo)
    ctrls = {}
    for k, ix in enumerate(net.intersections):
        norm = normalizers[ix.id] if normalizers else None
        ctrls[ix.id] = cls(agents[ix.id], ix.id, seed + 31 * k + 1,
                           explore=explore, normalizer=norm,
                           on_experience=on_experience)
    return ctrls


class Learner:
    """Owns every intersection's replay buffer and training state.

    Updates are deferred. `try_train` draws an update's batch at once, so
    the draws and the replay rows it sees are those of an immediate
    update, and `flush` runs every pending update later: one stacked
    `train_batch` per run of adjacent pending rows of a same-layout stack
    (`PolicyAgent.stack`). Rows follow the round-robin and updates come
    due in its order, so a stack's pending rows form at most two runs.
    An agent's networks are views of its stack's row, and reading or
    writing them flushes first (`deferred`).
    """

    def __init__(self, agents: dict, seed: int):
        self.agents = agents
        self.order = list(agents)
        self.buffers = {iid: ReplayBuffer(a.cfg.replay_capacity)
                        for iid, a in agents.items()}
        self.rng = np.random.default_rng(seed)
        self.update_counts = {iid: 0 for iid in agents}
        self.received = 0
        self._rr = 0
        self._recent_rewards = {iid: collections.deque(maxlen=100)
                                for iid in agents}
        self.log = []
        self._t0 = time.monotonic()
        groups = {}
        for iid, agent in agents.items():
            groups.setdefault(agent.layout(), []).append(iid)
        self._stacks = [_Stack(iids, [agents[iid] for iid in iids])
                        for iids in groups.values()]
        self._slots = {iid: (stack, k) for stack in self._stacks
                       for k, iid in enumerate(stack.iids)}
        self._pending = {}  # iid -> index of its pending update's log row

    def ingest(self, exp) -> None:
        self.buffers[exp.intersection].push(exp)
        self._recent_rewards[exp.intersection].append(exp.reward)
        self.received += 1

    def try_train(self) -> str | None:
        """Draw the next intersection's update in strict round-robin, once
        its buffer holds a batch, and defer it; returns the id drawn for,
        or None. An intersection whose last update still waits flushes
        first."""
        iid = self.order[self._rr]
        agent = self.agents[iid]
        if len(self.buffers[iid]) < agent.cfg.batch_size:
            return None
        if iid in self._pending:
            self.flush()
        stack, k = self._slots[iid]
        self.buffers[iid].sample(agent.cfg.batch_size, self.rng,
                                 out=stack.batches[k])
        agent.deferred = self.flush
        self.update_counts[iid] += 1
        self._rr = (self._rr + 1) % len(self.order)
        recent = self._recent_rewards[iid]
        self._pending[iid] = len(self.log)
        # the 0 fills the training log's `learner` column; the loss is
        # filled in by the flush
        self.log.append((time.monotonic() - self._t0, 0, iid,
                         self.update_counts[iid], None,
                         sum(recent) / len(recent) if recent else 0.0))
        return iid

    def flush(self) -> None:
        """Run every pending update and put its loss in its log row."""
        pending, self._pending = self._pending, {}
        for stack in self._stacks:
            for lo, hi in _runs([k for k, iid in enumerate(stack.iids)
                                 if iid in pending]):
                for iid, loss in zip(stack.iids[lo:hi], stack.train(lo, hi)):
                    self.agents[iid].deferred = None
                    i = pending[iid]
                    self.log[i] = self.log[i][:4] + (loss,) + self.log[i][5:]


class _Stack:
    """Same-layout agents as the rows of one stacked agent, and the
    stacked batch that holds each row's pending batch."""

    def __init__(self, iids: list, agents: list):
        self.iids = iids
        self.agent = type(agents[0]).stack(agents)
        first = agents[0]
        rows = (len(agents), first.cfg.batch_size)
        state = rows + (getattr(first, first._NETS[0]).input_width,)
        self.batch = Batch(np.empty(state), np.empty(rows), np.empty(rows),
                           np.empty(state), np.empty(rows))
        self.batches = [Batch(*(col[k] for col in self.batch))
                        for k in range(len(agents))]
        self._parts = {}  # (lo, hi) -> rows lo..hi-1 of agent and batch

    def train(self, lo: int, hi: int) -> list:
        """Update rows lo..hi-1 from their batches; returns their losses."""
        part = self._parts.get((lo, hi))
        if part is None:
            part = self._parts[lo, hi] = (
                self.agent.rows(lo, hi),
                Batch(*(col[lo:hi] for col in self.batch)))
        agent, batch = part
        return agent.train_batch(batch)


def _runs(rows: list) -> list:
    """(lo, hi) of each run of consecutive numbers in ascending `rows`."""
    runs = []
    for k in rows:
        if runs and runs[-1][1] == k:
            runs[-1][1] = k + 1
        else:
            runs.append([k, k + 1])
    return runs


class _Mailbox:
    """Latest-wins parameter mailbox for one actor."""

    def __init__(self):
        self._lock = threading.Lock()
        self._latest = {}  # iid -> ParameterSet

    def offer(self, iid: str, params: ParameterSet) -> None:
        with self._lock:
            cur = self._latest.get(iid)
            if cur is None or params.version > cur.version:
                self._latest[iid] = params

    def take(self, iid: str) -> ParameterSet | None:
        with self._lock:
            return self._latest.pop(iid, None)


def _param_hook(mailbox: _Mailbox, iid: str, agent):
    """Before each decision, act with the newest snapshot offered, if any."""
    def hook():
        params = mailbox.take(iid)
        if params is not None:
            agent.apply_acting_params(params)
    return hook


def _save_checkpoints(result: TrainResult, out_dir: str) -> None:
    """`checkpoints/`: `<iid>_v<acting version>.ckpt`, all networks of each
    intersection's agent, and `meta.json` (algo, files, r_min, config)."""
    ckpt_dir = os.path.join(out_dir, "checkpoints")
    make_out_dir(ckpt_dir)
    files = {}
    for iid, agent in result.agents.items():
        named = agent.to_checkpoint()  # the acting network first
        fname = f"{iid}_v{next(iter(named.values())).version}.ckpt"
        save_checkpoint(os.path.join(ckpt_dir, fname), named)
        files[iid] = fname
    meta = {
        "algo": result.algo,
        "files": files,
        "r_min": result.r_min,
        "config": dict(vars(next(iter(result.agents.values())).cfg)),
    }
    write_output(os.path.join(ckpt_dir, "meta.json"), meta)
    result.checkpoint_dir = ckpt_dir


def load_policy(checkpoint_dir: str, net: NetworkModel, algo: str) -> tuple:
    """`TrainResult.policy()` of the training that wrote `checkpoint_dir`;
    ConfigError unless its metadata is well formed and names `algo` and
    each intersection of `net`, whose agent's networks its file holds."""
    meta_path = os.path.join(checkpoint_dir, "meta.json")
    meta = read_input(meta_path)
    if not isinstance(meta, dict) or "algo" not in meta:
        raise ConfigError(f"{meta_path}: checkpoint metadata needs an "
                          "object with \"algo\" and a \"files\" object")
    files = meta.get("files")
    if not isinstance(files, dict) or not all(
            isinstance(v, str) for v in files.values()):
        raise ConfigError(f"{meta_path}: \"files\" must be an object "
                          "mapping intersection id -> file name")
    if meta["algo"] != algo:
        raise ConfigError(f"checkpoint is for {meta['algo']!r}, not {algo!r}")
    r_min = meta.get("r_min", {})
    if not isinstance(r_min, dict) or not all(
            map(finite_number, r_min.values())):
        raise ConfigError(f"{meta_path}: \"r_min\" must be an object "
                          "mapping intersection id -> finite number")
    try:
        cfg = agent_config(algo, meta.get("config", {}))
    except ValueError as exc:
        raise ConfigError(f"{meta_path}: \"config\": {exc}") from None
    agents = build_agents(net, algo, cfg, seed=0)
    for iid, agent in agents.items():
        if iid not in files:
            raise ConfigError(f"checkpoint missing intersection {iid!r}")
        path = os.path.join(checkpoint_dir, files[iid])
        named = load_checkpoint(path)
        for key, want in agent.to_checkpoint().items():
            got, need = _net_shape(named.get(key)), _net_shape(want)
            if got != need:
                raise ConfigError(f"{path}: network {key!r} is {got}, but "
                                  f"intersection {iid!r} needs {need}")
        agent.load_checkpoint(named)
    return cfg, {iid: a.acting_params() for iid, a in agents.items()}


def _net_shape(params) -> str:
    return "missing" if params is None else " -> ".join(
        [f"input {params.input_width}"] + [
            f"{s.width} {s.activation}" + " bn" * s.batch_norm
            for s in params.specs])


def train(net: NetworkModel, demand: DemandProfile, algo: str, seed: int,
          fabric: FabricConfig | None = None, agent_cfg=None,
          out_dir: str | None = None) -> TrainResult:
    """Run the training fabric; returns trained per-intersection agents."""
    check_seed(seed)
    check_entry_lanes(net, demand)
    fabric = fabric or FabricConfig()
    check_horizon(fabric.horizon, demand)
    if agent_cfg is None:
        agent_cfg = _controller_class(algo).config()
    learner = Learner(build_agents(net, algo, agent_cfg, seed), seed + 1000)

    if out_dir:
        make_out_dir(out_dir)
    n_actors = fabric.n_actors
    mailboxes = [_Mailbox() for _ in range(n_actors)] if n_actors > 1 else []
    normalizers = [{iid: RewardNormalizer() for iid in learner.agents}
                   for _ in range(n_actors)]
    emitted = 0
    # the budget's work list, in order; a queue because the benchmark's
    # tracer shims `fabric.queue` and `fabric.threading` by name
    episodes = queue.SimpleQueue()
    for ep in range(fabric.episode_budget):
        episodes.put(ep)

    def learn(exp):
        nonlocal emitted
        emitted += 1
        learner.ingest(exp)
        iid = learner.try_train()
        if iid is not None and mailboxes:
            learner.flush()  # every update offered as it is made
            agent = learner.agents[iid]
            live = getattr(agent, agent._NETS[0])  # copied when taken
            for mb in mailboxes:
                mb.offer(iid, live)

    def actor(index):
        # one actor shares the learner's agents: every update acts at its
        # next decision with zero staleness
        agents = learner.agents if n_actors == 1 else \
            build_agents(net, algo, agent_cfg, seed)
        controllers = build_controllers(
            net, algo, agents, seed + 503 * index, explore=True,
            normalizers=normalizers[index], on_experience=learn)
        if mailboxes:
            for iid, ctrl in controllers.items():
                ctrl.param_hook = _param_hook(mailboxes[index], iid,
                                              agents[iid])
        return controllers

    actors = [actor(i) for i in range(n_actors)]
    while not episodes.empty():
        ep = episodes.get()
        run_episode(net, demand, actors[ep % n_actors], seed + ep,
                    horizon=fabric.horizon, moe_series=False)
    learner.flush()

    result = TrainResult(
        algo=algo, agents=learner.agents,
        r_min={iid: n.r_min for iid, n in normalizers[0].items()},
        log=learner.log, emitted=emitted, received=learner.received,
        update_counts=learner.update_counts)
    if out_dir:
        _save_checkpoints(result, out_dir)
        write_output(os.path.join(out_dir, "training_log.csv"), [
            ["wall_s", "learner", "intersection", "update_count", "loss",
             "mean_segment_reward"], *result.log])
    return result

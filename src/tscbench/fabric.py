"""Distributed-acting, centralized-learning training fabric.

One coordinator, `train`, runs every episode of the budget. Actors run
their own simulator episodes, taking episode indices from one shared queue;
every experience goes through one `learn` step into the one learner, which
owns every intersection's replay buffer and trains them round-robin.

One actor runs on the calling thread with the learner's own agents, so
every update acts at its next decision and no thread is started. Several
actors run on threads with agents of their own and put their experiences
on one bounded queue; the calling thread drains it through the same
`learn` and offers each fresh parameter snapshot to every actor's
latest-wins mailbox. If a worker fails, the coordinator drains the queue
until every actor is done and then raises.

Any 1-actor run is bit-reproducible; multi-actor runs keep the delivery
and version invariants but not identical floats.
"""

from __future__ import annotations

import collections
import os
import queue
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .agents import (DdpgAgent, DdpgConfig, DdpgController, DqnAgent,
                     DqnConfig, DqnController, ReplayBuffer)
from .control import ConfigError, RewardNormalizer, configure, state_width
from .network import (NetworkModel, finite_number, make_out_dir, read_input,
                      write_output)
from .nn import ParameterSet, load_checkpoint, save_checkpoint
from .simulation import DemandProfile, check_entry_lanes, run_episode

# learning algorithm -> its agent config, whose fields are its hyperparameters
ALGOS = {"dqn": DqnConfig, "ddpg": DdpgConfig}


@dataclass
class FabricConfig:
    n_actors: int = 1
    n_learners: int = 1  # always 1; goes when the benchmark stops passing it
    episode_budget: int = 100
    queue_capacity: int = 256        # experiences in flight, multi-actor
    horizon: float | None = None     # training episode length, seconds

    def __post_init__(self):
        if self.n_actors < 1:
            raise ValueError("need at least one actor")
        if self.n_learners != 1:
            raise ValueError(f"n_learners must be 1, got {self.n_learners}")
        if self.episode_budget < 1:
            raise ValueError("episode budget must be >= 1")


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


def agent_config(algo: str, hp: dict):
    return configure(algo, ALGOS[algo], hp)


def check_seed(seed: int) -> None:
    """ConfigError unless `seed` can seed a numpy generator."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


def build_agents(net: NetworkModel, algo: str, agent_cfg, seed: int) -> dict:
    if algo not in ALGOS:
        raise ValueError(f"unknown algorithm {algo!r}")
    agents = {}
    for k, ix in enumerate(net.intersections):
        w = state_width(net, ix.id)
        if algo == "dqn":
            agents[ix.id] = DqnAgent(w, len(ix.phases), seed + 17 * k,
                                     agent_cfg)
        else:
            agents[ix.id] = DdpgAgent(w, seed + 17 * k, agent_cfg)
    return agents


def build_controllers(net: NetworkModel, algo: str, agents: dict, seed: int,
                      explore: bool, normalizers: dict | None = None,
                      on_experience=None, exploration_scale: float = 1.0):
    cls = DqnController if algo == "dqn" else DdpgController
    ctrls = {}
    for k, ix in enumerate(net.intersections):
        norm = normalizers[ix.id] if normalizers else None
        ctrls[ix.id] = cls(agents[ix.id], ix.id, seed + 31 * k + 1,
                           explore=explore, normalizer=norm,
                           on_experience=on_experience,
                           exploration_scale=exploration_scale)
    return ctrls


class Learner:
    """Owns every intersection's replay buffer and training state."""

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

    def ingest(self, exp) -> None:
        self.buffers[exp.intersection].push(exp)
        self._recent_rewards[exp.intersection].append(exp.reward)
        self.received += 1

    def try_train(self) -> str | None:
        """Train the next intersection in strict round-robin, once its
        buffer holds a batch; returns the id it trained, or None."""
        iid = self.order[self._rr]
        agent = self.agents[iid]
        if len(self.buffers[iid]) < agent.cfg.batch_size:
            return None
        batch = self.buffers[iid].sample(agent.cfg.batch_size, self.rng)
        result = agent.train_batch(batch)
        loss = result[0] if isinstance(result, tuple) else result
        self.update_counts[iid] += 1
        self._rr = (self._rr + 1) % len(self.order)
        recent = self._recent_rewards[iid]
        # the 0 fills the training log's `learner` column
        self.log.append((time.monotonic() - self._t0, 0, iid,
                         self.update_counts[iid], loss,
                         sum(recent) / len(recent) if recent else 0.0))
        return iid


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


_DONE = object()  # an actor's last item on the experience queue


def _param_hook(mailbox: _Mailbox, iid: str, agent):
    """Before each decision, act with the newest snapshot offered, if any."""
    def hook():
        params = mailbox.take(iid)
        if params is not None:
            agent.apply_acting_params(params)
    return hook


def _exploration_scale(actor_index: int, n_actors: int) -> float:
    if n_actors <= 1:
        return 1.0
    return 1.0 - 0.6 * actor_index / (n_actors - 1)


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
        cfg = configure(algo, ALGOS[algo], meta.get("config", {}))
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
    if agent_cfg is None:
        agent_cfg = DqnConfig() if algo == "dqn" else DdpgConfig()
    learner = Learner(build_agents(net, algo, agent_cfg, seed), seed + 1000)

    if out_dir:
        make_out_dir(out_dir)
    n_actors = fabric.n_actors
    mailboxes = [_Mailbox() for _ in range(n_actors)] if n_actors > 1 else []
    normalizers = [{iid: RewardNormalizer() for iid in learner.agents}
                   for _ in range(n_actors)]
    emitted = [0] * n_actors
    episodes = queue.SimpleQueue()
    for ep in range(fabric.episode_budget):
        episodes.put(ep)

    def learn(exp):
        learner.ingest(exp)
        iid = learner.try_train()
        if iid is not None and mailboxes:
            params = learner.agents[iid].acting_params()
            for mb in mailboxes:
                mb.offer(iid, params)

    def act(actor_index, agents, send):
        def on_experience(exp):
            emitted[actor_index] += 1
            send(exp)

        controllers = build_controllers(
            net, algo, agents, seed + 503 * actor_index, explore=True,
            normalizers=normalizers[actor_index],
            on_experience=on_experience,
            exploration_scale=_exploration_scale(actor_index, n_actors))
        if mailboxes:
            for iid, ctrl in controllers.items():
                ctrl.param_hook = _param_hook(mailboxes[actor_index],
                                              iid, agents[iid])
        while True:
            try:
                ep = episodes.get_nowait()
            except queue.Empty:
                return
            run_episode(net, demand, controllers, seed + ep,
                        horizon=fabric.horizon, moe_series=False)

    if n_actors == 1:
        # the actor shares the learner's agents: every update acts at its
        # next decision with zero staleness
        act(0, learner.agents, learn)
    else:
        experiences = queue.Queue(maxsize=fabric.queue_capacity)
        errors = []

        def fail(where, exc):
            errors.append((where, exc))
            while True:  # no actor starts another episode
                try:
                    episodes.get_nowait()
                except queue.Empty:
                    return

        def actor_loop(actor_index):
            try:
                act(actor_index, build_agents(net, algo, agent_cfg, seed),
                    experiences.put)
            except Exception as exc:  # reported by the coordinator
                fail(f"actor {actor_index}", exc)
            finally:
                experiences.put(_DONE)

        threads = [threading.Thread(target=actor_loop, args=(i,),
                                    daemon=True) for i in range(n_actors)]
        for t in threads:
            t.start()
        running = n_actors
        while running:  # to the end, after a failure too: no put blocks
            exp = experiences.get()
            if exp is _DONE:
                running -= 1
            elif not errors:
                try:
                    learn(exp)
                except Exception as exc:
                    fail("learner", exc)
        for t in threads:
            t.join()
        if errors:
            where, exc = errors[0]
            raise RuntimeError(
                f"fabric worker failed in {where}: {exc}") from exc

    result = TrainResult(
        algo=algo, agents=learner.agents,
        r_min={iid: n.r_min for iid, n in normalizers[0].items()},
        log=learner.log, emitted=sum(emitted), received=learner.received,
        update_counts=learner.update_counts)
    if out_dir:
        _save_checkpoints(result, out_dir)
        write_output(os.path.join(out_dir, "training_log.csv"), [
            ["wall_s", "learner", "intersection", "update_count", "loss",
             "mean_segment_reward"], *result.log])
    return result

"""Distributed-acting, centralized-learning training fabric.

Actors run their own simulator instances and emit experiences over bounded
queues to the learner that owns the experience's intersection. Learners
train round-robin over their assigned intersections and broadcast fresh
parameter snapshots to every actor through latest-wins mailboxes.

Only the 1-actor / 1-learner configuration is bit-reproducible; multi-worker
runs keep the routing / delivery / version invariants but not identical
floats.
"""

from __future__ import annotations

import collections
import csv
import json
import os
import queue
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .agents import (DdpgAgent, DdpgConfig, DdpgController, DqnAgent,
                     DqnConfig, DqnController, ReplayBuffer)
from .control import RewardNormalizer, state_width
from .network import NetworkModel
from .nn import ParameterSet, save_checkpoint
from .simulation import DemandProfile, run_episode

# learning algorithm -> its agent config, whose fields are its hyperparameters
ALGOS = {"dqn": DqnConfig, "ddpg": DdpgConfig}


@dataclass
class FabricConfig:
    n_actors: int = 1
    n_learners: int = 1
    episode_budget: int = 100
    queue_capacity: int = 256
    assignment: dict | None = None   # intersection id -> learner index
    warmup: int | None = None        # buffer size before training starts
    horizon: float | None = None     # training episode length, seconds

    def __post_init__(self):
        if self.n_actors < 1 or self.n_learners < 1:
            raise ValueError("need at least one actor and one learner")
        if self.episode_budget < 1:
            raise ValueError("episode budget must be >= 1")


@dataclass
class ParameterUpdateMsg:
    intersection: str
    params: ParameterSet
    version: int


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


def default_assignment(net: NetworkModel, n_learners: int) -> dict:
    return {ix.id: i % n_learners for i, ix in enumerate(net.intersections)}


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
    """Owns per-intersection replay buffers and training state."""

    def __init__(self, index: int, assigned: list, agents: dict,
                 batch_size: int, warmup: int, replay_capacity: int,
                 seed: int):
        self.index = index
        self.assigned = list(assigned)
        self.agents = agents
        self.batch_size = batch_size
        self.warmup = max(warmup, batch_size)
        self.buffers = {iid: ReplayBuffer(replay_capacity)
                        for iid in assigned}
        self.rng = np.random.default_rng(seed)
        self.update_counts = {iid: 0 for iid in assigned}
        self.received = 0
        self._rr = 0
        self._recent_rewards = {iid: collections.deque(maxlen=100)
                                for iid in assigned}
        self.log = []
        self._t0 = time.monotonic()

    def ingest(self, exp) -> None:
        if exp.intersection not in self.buffers:
            raise ValueError(
                f"learner {self.index} received experience for unassigned "
                f"intersection {exp.intersection!r}")
        self.buffers[exp.intersection].push(exp)
        self._recent_rewards[exp.intersection].append(exp.reward)
        self.received += 1

    def try_train(self, publish: bool = True) -> ParameterUpdateMsg | None:
        """Train the next intersection in strict round-robin, if warm.

        Returns the fresh acting parameters for the actors, or None if it
        did not train or `publish` is false.
        """
        if not self.assigned:
            return None
        iid = self.assigned[self._rr]
        if len(self.buffers[iid]) < self.warmup:
            return None
        batch = self.buffers[iid].sample(self.batch_size, self.rng)
        result = self.agents[iid].train_batch(batch)
        loss = result[0] if isinstance(result, tuple) else result
        self.update_counts[iid] += 1
        self._rr = (self._rr + 1) % len(self.assigned)
        recent = self._recent_rewards[iid]
        self.log.append((time.monotonic() - self._t0, self.index, iid,
                         self.update_counts[iid], loss,
                         sum(recent) / len(recent) if recent else 0.0))
        if not publish:
            return None
        params = self.agents[iid].acting_params()
        return ParameterUpdateMsg(iid, params, params.version)


class _Mailbox:
    """Latest-wins parameter mailbox for one actor."""

    def __init__(self):
        self._lock = threading.Lock()
        self._latest = {}  # iid -> ParameterUpdateMsg

    def offer(self, msg: ParameterUpdateMsg) -> None:
        with self._lock:
            cur = self._latest.get(msg.intersection)
            if cur is None or msg.version > cur.version:
                self._latest[msg.intersection] = msg

    def take(self, iid: str) -> ParameterUpdateMsg | None:
        with self._lock:
            return self._latest.pop(iid, None)


def _exploration_scale(actor_index: int, n_actors: int) -> float:
    if n_actors <= 1:
        return 1.0
    return 1.0 - 0.6 * actor_index / (n_actors - 1)


def _save_checkpoints(result: TrainResult, out_dir: str) -> None:
    ckpt_dir = os.path.join(out_dir, "checkpoints")
    os.makedirs(ckpt_dir, exist_ok=True)
    files = {}
    for iid, agent in result.agents.items():
        named = agent.to_checkpoint()
        version = agent.acting_params().version
        fname = f"{iid}_v{version}.ckpt"
        save_checkpoint(os.path.join(ckpt_dir, fname), named)
        files[iid] = fname
    meta = {
        "algo": result.algo,
        "files": files,
        "r_min": result.r_min,
        "config": {k: v for k, v in vars(
            next(iter(result.agents.values())).cfg).items()},
    }
    with open(os.path.join(ckpt_dir, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
    result.checkpoint_dir = ckpt_dir


def write_training_log(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["wall_s", "learner", "intersection", "update_count",
                    "loss", "mean_segment_reward"])
        w.writerows(rows)


def train(net: NetworkModel, demand: DemandProfile, algo: str, seed: int,
          fabric: FabricConfig | None = None, agent_cfg=None,
          out_dir: str | None = None) -> TrainResult:
    """Run the full training fabric; returns trained per-intersection agents."""
    fabric = fabric or FabricConfig()
    if agent_cfg is None:
        agent_cfg = DqnConfig() if algo == "dqn" else DdpgConfig()
    assignment = fabric.assignment or default_assignment(net, fabric.n_learners)
    iids = [ix.id for ix in net.intersections]
    if set(assignment) != set(iids) or \
            not set(assignment.values()) <= set(range(fabric.n_learners)):
        raise ValueError("assignment must map every intersection to a learner")

    learner_agents = build_agents(net, algo, agent_cfg, seed)
    warmup = fabric.warmup if fabric.warmup is not None else agent_cfg.batch_size
    learners = [Learner(i, [iid for iid in iids if assignment[iid] == i],
                        {iid: learner_agents[iid] for iid in iids
                         if assignment[iid] == i},
                        agent_cfg.batch_size, warmup,
                        agent_cfg.replay_capacity, seed + 1000 + i)
                for i in range(fabric.n_learners)]

    if fabric.n_actors == 1 and fabric.n_learners == 1:
        result = _train_sync(net, demand, algo, seed, fabric, learners[0])
    else:
        result = _train_threaded(net, demand, algo, seed, fabric, agent_cfg,
                                 learners, assignment)
    result.update_counts = {iid: n for lrn in learners
                            for iid, n in lrn.update_counts.items()}
    result.log = [row for lrn in learners for row in lrn.log]
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        _save_checkpoints(result, out_dir)
        write_training_log(os.path.join(out_dir, "training_log.csv"),
                           result.log)
    return result


def _train_sync(net, demand, algo, seed, fabric, learner) -> TrainResult:
    """Deterministic single-actor / single-learner loop: the actor's
    controllers share the learner's agents, so every update is visible at
    the next decision with zero staleness."""
    emitted = [0]

    def on_experience(exp):
        emitted[0] += 1
        learner.ingest(exp)
        learner.try_train(publish=False)  # the actor shares these agents

    normalizers = {iid: RewardNormalizer() for iid in learner.agents}
    controllers = build_controllers(net, algo, learner.agents, seed,
                                    explore=True, normalizers=normalizers,
                                    on_experience=on_experience)
    for ep in range(fabric.episode_budget):
        run_episode(net, demand, controllers, seed + ep,
                    horizon=fabric.horizon, moe_series=False)
    return TrainResult(algo=algo, agents=learner.agents,
                       r_min={iid: n.r_min for iid, n in normalizers.items()},
                       log=[], emitted=emitted[0], received=learner.received)


def _train_threaded(net, demand, algo, seed, fabric, agent_cfg, learners,
                    assignment) -> TrainResult:
    n_actors = fabric.n_actors
    exp_queues = [queue.Queue(maxsize=fabric.queue_capacity)
                  for _ in range(fabric.n_learners)]
    mailboxes = [_Mailbox() for _ in range(n_actors)]
    errors = []
    emitted = [0] * n_actors
    episode_counter = {"next": 0}
    counter_lock = threading.Lock()
    _SENTINEL = object()

    normalizers_by_actor = [None] * n_actors

    def actor_loop(actor_index: int):
        try:
            agents = build_agents(net, algo, agent_cfg, seed)
            applied = {iid: 0 for iid in assignment}

            def on_experience(exp):
                emitted[actor_index] += 1
                exp_queues[assignment[exp.intersection]].put(exp)

            normalizers = {iid: RewardNormalizer() for iid in assignment}
            normalizers_by_actor[actor_index] = normalizers
            controllers = build_controllers(
                net, algo, agents, seed + 503 * actor_index, explore=True,
                normalizers=normalizers, on_experience=on_experience,
                exploration_scale=_exploration_scale(actor_index, n_actors))

            def make_hook(iid):
                def hook():
                    msg = mailboxes[actor_index].take(iid)
                    if msg is not None and msg.version > applied[iid]:
                        agents[iid].apply_acting_params(msg.params)
                        applied[iid] = msg.version
                return hook

            for iid, ctrl in controllers.items():
                ctrl.param_hook = make_hook(iid)

            while True:
                with counter_lock:
                    ep = episode_counter["next"]
                    if ep >= fabric.episode_budget:
                        break
                    episode_counter["next"] = ep + 1
                run_episode(net, demand, controllers,
                            seed + actor_index + 1000003 * ep,
                            horizon=fabric.horizon, moe_series=False)
        except Exception as exc:  # propagate to the coordinator
            errors.append((f"actor {actor_index}", exc))
        finally:
            for q in exp_queues:
                q.put(_SENTINEL)

    def learner_loop(learner: Learner):
        try:
            done_actors = 0
            q = exp_queues[learner.index]
            while done_actors < n_actors:
                item = q.get()
                if item is _SENTINEL:
                    done_actors += 1
                    continue
                learner.ingest(item)
                msg = learner.try_train()
                if msg is not None:
                    for mb in mailboxes:
                        mb.offer(msg)
        except Exception as exc:
            errors.append((f"learner {learner.index}", exc))

    threads = [threading.Thread(target=actor_loop, args=(i,), daemon=True)
               for i in range(n_actors)]
    threads += [threading.Thread(target=learner_loop, args=(lrn,), daemon=True)
                for lrn in learners]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        where, exc = errors[0]
        raise RuntimeError(f"fabric worker failed in {where}: {exc}") from exc

    agents = {iid: lrn.agents[iid] for lrn in learners for iid in lrn.agents}
    r_min = {iid: normalizers_by_actor[0][iid].r_min for iid in assignment} \
        if normalizers_by_actor[0] else {}
    return TrainResult(algo=algo, agents=agents, r_min=r_min, log=[],
                       emitted=sum(emitted),
                       received=sum(lrn.received for lrn in learners))

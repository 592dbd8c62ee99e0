"""Experiment harness: grid search, multi-seed evaluation and comparison."""

from __future__ import annotations

import csv
import functools
import hashlib
import inspect
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import fabric
from .classic import (MaxPressureController, SotlController,
                      UniformController, WebsterController)
from .control import RewardNormalizer
from .network import NetworkModel
from .nn import load_checkpoint
from .simulation import DemandProfile, run_episode
from .stats import BoxStats, box_stats, mean_ci95, rank_score

# controller name -> the callable whose signature lists its hyperparameters
CONTROLLERS = {
    "uniform": UniformController,
    "webster": WebsterController,
    "maxpressure": MaxPressureController,
    "sotl": SotlController,
    **fabric.ALGOS,
}

DEFAULT_GRIDS = {
    "uniform": {"u": [5, 10, 15, 20, 25, 30]},
    "webster": {"W": [60, 120, 300], "c_min": [40], "c_max": [180]},
    "maxpressure": {"g_min": [10, 15, 20, 25]},
    "sotl": {"g_min": [5, 10], "theta": [10, 50, 200, 1000],
             "omega": [100], "mu": [3, 7]},
    "dqn": {"a_repeat": [5, 10, 15, 20]},
    "ddpg": {"g_min,g_max": [[5, 30], [5, 45], [5, 60], [10, 60]]},
}

TUNE_TRAIN_EPISODES = 200    # training budget per learning config
TUNE_TRAIN_HORIZON = 1200.0  # training episode length during tuning, seconds
EVAL_RUNS = 32
MOE_BIN_S = 60.0


class ConfigError(ValueError):
    """Unknown controller, hyperparameter, or inconsistent experiment setup."""


def check_controller(name: str) -> None:
    if name not in CONTROLLERS:
        raise ConfigError(f"unknown controller {name!r} "
                          f"(expected one of {tuple(CONTROLLERS)})")


@functools.cache
def _hp_names(name: str) -> frozenset:
    return frozenset(inspect.signature(CONTROLLERS[name]).parameters)


def _check_hp(name: str, hp: dict) -> None:
    unknown = set(hp) - _hp_names(name)
    if unknown:
        raise ConfigError(f"unknown hyperparameter(s) {sorted(unknown)} "
                          f"for controller {name!r}")


def make_classic_controllers(net: NetworkModel, name: str, hp: dict) -> dict:
    check_controller(name)
    if name in fabric.ALGOS:
        raise ConfigError(f"{name!r} is a learning controller; "
                          "train it or supply a checkpoint")
    _check_hp(name, hp)
    cls = CONTROLLERS[name]
    return {ix.id: cls(**hp) for ix in net.intersections}


def agent_config(name: str, hp: dict):
    _check_hp(name, hp)
    return fabric.ALGOS[name](**hp)


def greedy_controllers(net: NetworkModel, name: str, agents: dict,
                       r_min: dict, seed: int = 0) -> dict:
    normalizers = {iid: RewardNormalizer(r_min.get(iid, 0.0))
                   for iid in agents}
    return fabric.build_controllers(net, name, agents, seed, explore=False,
                                    normalizers=normalizers)


def controller_factory(net: NetworkModel, name: str, hp: dict,
                       checkpoint_dir: str | None = None):
    """Picklable callable building fresh per-intersection controllers:
    classic ones from `hp`, or greedy learning ones sharing the agents of
    `checkpoint_dir` (`hp` unused), which is read and checked once, here."""
    check_controller(name)
    if name not in fabric.ALGOS:
        _check_hp(name, hp)
        return functools.partial(make_classic_controllers, net, name, hp)
    if checkpoint_dir is None:
        raise ConfigError(f"{name!r} needs a trained checkpoint")
    meta_path = os.path.join(checkpoint_dir, "meta.json")
    if not os.path.exists(meta_path):
        raise ConfigError(f"no checkpoint metadata at {meta_path}")
    with open(meta_path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    if not isinstance(meta, dict) or "algo" not in meta or \
            not isinstance(meta.get("files"), dict):
        raise ConfigError(f"{meta_path}: checkpoint metadata needs an "
                          "object with \"algo\" and a \"files\" object")
    if meta["algo"] != name:
        raise ConfigError(f"checkpoint is for {meta['algo']!r}, not {name!r}")
    cfg = agent_config(name, meta.get("config", {}))
    agents = fabric.build_agents(net, name, cfg, seed=0)
    for iid, agent in agents.items():
        if iid not in meta["files"]:
            raise ConfigError(f"checkpoint missing intersection {iid!r}")
        named = load_checkpoint(os.path.join(checkpoint_dir,
                                             meta["files"][iid]))
        agent.load_checkpoint(named)
    return functools.partial(greedy_controllers, net, name, agents,
                             meta.get("r_min", {}))


# -- identities and seeding ----------------------------------------------------

def config_id(name: str, hp: dict) -> str:
    parts = [name] + [f"{k}={hp[k]}" for k in sorted(hp)]
    return ";".join(parts)


def seed_for(cid: str, trial: int, base_seed: int) -> int:
    digest = hashlib.blake2b(f"{cid}|{trial}|{base_seed}".encode(),
                             digest_size=8).digest()
    return int.from_bytes(digest, "little") % (2 ** 31)


def condition_fingerprint(net: NetworkModel, demand: DemandProfile,
                          runs: int, base_seed: int,
                          horizon: float | None) -> dict:
    net_hash = hashlib.sha256(
        json.dumps(net.to_dict(), sort_keys=True).encode()).hexdigest()[:16]
    demand_hash = hashlib.sha256(json.dumps(
        {k: v for k, v in sorted(demand.breakpoints.items())},
        sort_keys=True).encode()).hexdigest()[:16]
    return {"net": net_hash, "demand": demand_hash, "runs": runs,
            "base_seed": base_seed, "horizon": horizon}


# -- grid search ------------------------------------------------------------------

@dataclass
class GridSpec:
    controller: str
    values: dict             # hyperparameter -> list of candidates
    trials: int = 8
    base_seed: int = 0

    def __post_init__(self):
        check_controller(self.controller)
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not self.values or any(not v for v in self.values.values()):
            raise ConfigError("grid value lists must be non-empty")

    def expand(self) -> list:
        """Cartesian product; a 'k1,k2' key assigns paired values."""
        configs = [{}]
        for key in sorted(self.values):
            nxt = []
            for cfg in configs:
                for val in self.values[key]:
                    new = dict(cfg)
                    if "," in key:
                        subkeys = [k.strip() for k in key.split(",")]
                        for sk, sv in zip(subkeys, val):
                            new[sk] = sv
                    else:
                        new[key] = val
                    nxt.append(new)
            configs = nxt
        return configs


@dataclass
class TrialResult:
    config_id: str
    hp: dict
    per_seed: list
    mu: float = 0.0
    sigma: float = 0.0
    score: float = 0.0

    def __post_init__(self):
        if self.per_seed:
            self.mu, self.sigma, self.score = rank_score(self.per_seed)

    def to_dict(self) -> dict:
        return {"config_id": self.config_id, "hp": self.hp,
                "per_seed": list(self.per_seed), "mu": self.mu,
                "sigma": self.sigma, "score": self.score}


def episode_mean_travel_time(net, demand, controllers, seed,
                             horizon=None) -> float:
    log = run_episode(net, demand, controllers, seed, horizon=horizon,
                      moe_series=False)
    tts = log.travel_time_values
    if not tts:
        return float("nan")
    return float(np.mean(tts))


def _map(fn, tasks: list, procs: int) -> list:
    if procs > 1:
        with ProcessPoolExecutor(max_workers=procs) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def _classic_trial_task(args):
    net, demand, name, hp, cid, trial, base_seed, horizon = args
    controllers = make_classic_controllers(net, name, hp)
    seed = seed_for(cid, trial, base_seed)
    return cid, trial, episode_mean_travel_time(net, demand, controllers,
                                                seed, horizon)


def _learning_config_task(args):
    (net, demand, name, hp, cid, trials, base_seed, horizon,
     train_episodes, train_horizon) = args
    cfg = agent_config(name, hp)
    train_seed = seed_for(cid, -1, base_seed)
    result = fabric.train(
        net, demand, name, train_seed,
        fabric=fabric.FabricConfig(episode_budget=train_episodes,
                                   horizon=train_horizon),
        agent_cfg=cfg)
    controllers = greedy_controllers(net, name, result.agents, result.r_min)
    per_seed = []
    for trial in range(trials):
        seed = seed_for(cid, trial, base_seed)
        per_seed.append(episode_mean_travel_time(net, demand, controllers,
                                                 seed, horizon))
    return cid, per_seed


def tune(grid: GridSpec, net: NetworkModel, demand: DemandProfile,
         procs: int = 1, horizon: float | None = None,
         train_episodes: int = TUNE_TRAIN_EPISODES,
         train_horizon: float = TUNE_TRAIN_HORIZON,
         out_dir: str | None = None) -> list:
    """Grid search; returns TrialResults ranked ascending by mean + std."""
    name = grid.controller
    configs = grid.expand()
    for hp in configs:
        _check_hp(name, hp)
    cids = {config_id(name, hp): hp for hp in configs}
    results = {}

    if name not in fabric.ALGOS:
        tasks = [(net, demand, name, hp, cid, trial, grid.base_seed, horizon)
                 for cid, hp in cids.items() for trial in range(grid.trials)]
        per_cid = {cid: [None] * grid.trials for cid in cids}
        for cid, trial, mean_tt in _map(_classic_trial_task, tasks, procs):
            per_cid[cid][trial] = mean_tt
        for cid, per_seed in per_cid.items():
            results[cid] = TrialResult(cid, cids[cid], per_seed)
    else:
        tasks = [(net, demand, name, hp, cid, grid.trials, grid.base_seed,
                  horizon, train_episodes, train_horizon)
                 for cid, hp in cids.items()]
        for cid, per_seed in _map(_learning_config_task, tasks, procs):
            results[cid] = TrialResult(cid, cids[cid], per_seed)

    ranked = sorted(results.values(), key=lambda r: (r.score, r.config_id))
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        _write_tune(out_dir, name, grid, ranked)
    return ranked


def _write_tune(out_dir, name, grid, ranked):
    with open(os.path.join(out_dir, "ranking.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"controller": name, "trials": grid.trials,
                   "base_seed": grid.base_seed,
                   "ranking": [r.to_dict() for r in ranked]}, fh, indent=2)
    with open(os.path.join(out_dir, "trials.csv"), "w", newline="",
              encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["config_id", "trial", "seed_mean_travel_time"])
        for r in ranked:
            for trial, v in enumerate(r.per_seed):
                w.writerow([r.config_id, trial, repr(v)])


# -- evaluation -------------------------------------------------------------------

@dataclass
class EvalResult:
    controller: str
    hp: dict
    condition: dict
    travel_times: list
    box: BoxStats | None
    moe: dict = field(default_factory=dict)  # iid -> list of bin rows
    unfinished: int = 0

    def summary(self) -> dict:
        return {
            "controller": self.controller,
            "hp": self.hp,
            "condition": self.condition,
            "samples": len(self.travel_times),
            "no_samples": not self.travel_times,
            "unfinished": self.unfinished,
            "box": self.box.to_dict() if self.box else None,
        }


def _eval_run_task(args):
    make_controllers, net, demand, seed, horizon = args
    return run_episode(net, demand, make_controllers(), seed, horizon=horizon)


def evaluate(name: str, hp: dict, net: NetworkModel, demand: DemandProfile,
             runs: int = EVAL_RUNS, base_seed: int = 0,
             checkpoint_dir: str | None = None,
             horizon: float | None = None, bin_s: float = MOE_BIN_S,
             procs: int = 1, out_dir: str | None = None) -> EvalResult:
    """Greedy multi-seed evaluation: pooled travel times plus MoE series."""
    make_controllers = controller_factory(net, name, hp, checkpoint_dir)
    tasks = [(make_controllers, net, demand, base_seed + i, horizon)
             for i in range(runs)]
    logs = _map(_eval_run_task, tasks, procs)

    travel_times = [tt for log in logs for tt in log.travel_time_values]
    condition = condition_fingerprint(net, demand, runs, base_seed, horizon)

    moe = _moe_bins([ix.id for ix in net.intersections], logs, bin_s)
    result = EvalResult(controller=name, hp=dict(hp), condition=condition,
                        travel_times=travel_times,
                        box=box_stats(travel_times), moe=moe,
                        unfinished=sum(log.unfinished for log in logs))
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        write_eval(out_dir, result)
    return result


def _run_bin_means(log, iids, bin_s) -> tuple:
    """The bins one run reached and, per intersection, its queue and delay
    means over each bin.

    `log.times` ascends, so each bin is one contiguous slice. Slices of
    equal length become the rows of one C-contiguous array, reduced along
    its last axis: each row gets the bits of the slice's own `mean()`.
    """
    bins = (np.asarray(log.times) // bin_s).astype(int)
    starts = np.flatnonzero(np.diff(bins, prepend=bins[0] - 1))
    lengths = np.diff(starts, append=len(bins))
    groups = [(sel, starts[sel, None] + np.arange(n))
              for n in np.unique(lengths)
              for sel in [np.flatnonzero(lengths == n)]]
    means = {}
    for iid in iids:
        for kind, series in (("queue", log.queue[iid]),
                             ("delay", log.delay[iid])):
            values = np.asarray(series)
            out = np.empty(len(starts))
            for sel, rows in groups:
                out[sel] = values[rows].mean(axis=1)
            means[iid, kind] = out
    return bins[starts], means


def _moe_bins(iids, logs, bin_s) -> dict:
    """Per intersection, one row per bin: the mean across the runs that
    reached it and its 95% half-width. Bins reached by the same number of
    runs are reduced together, their runs in run order."""
    runs = [_run_bin_means(log, iids, bin_s) for log in logs if log.times]
    if not runs:
        return {iid: [] for iid in iids}
    all_bins = np.unique(np.concatenate([b for b, _ in runs]))
    cols = [np.searchsorted(all_bins, b) for b, _ in runs]
    reached = np.zeros((len(all_bins), len(runs)), dtype=bool)
    for r, col in enumerate(cols):
        reached[col, r] = True
    n_runs = reached.sum(axis=1)
    groups = [(sel, reached[sel], int(n))
              for n in np.unique(n_runs) for sel in [n_runs == n]]
    moe = {}
    for iid in iids:
        stats = []
        for kind in ("queue", "delay"):
            table = np.zeros(reached.shape)
            for r, (col, (_, means)) in enumerate(zip(cols, runs)):
                table[col, r] = means[iid, kind]
            mean, half = np.empty(len(all_bins)), np.empty(len(all_bins))
            for sel, mask, n in groups:
                per_run = table[sel][mask].reshape(-1, n)  # in run order
                mean[sel], half[sel] = mean_ci95(per_run)
            stats += [mean.tolist(), half.tolist()]
        moe[iid] = [{"bin_start_s": b * bin_s, "mean_queue": qm,
                     "ci95_queue": qc, "mean_delay": dm, "ci95_delay": dc}
                    for b, qm, qc, dm, dc in zip(all_bins.tolist(), *stats)]
    return moe


def write_eval(out_dir: str, result: EvalResult) -> None:
    with open(os.path.join(out_dir, "summary.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result.summary(), fh, indent=2)
    with open(os.path.join(out_dir, "travel_times.csv"), "w", newline="",
              encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["travel_time_s"])
        for tt in result.travel_times:
            w.writerow([repr(tt)])
    with open(os.path.join(out_dir, "moe.csv"), "w", newline="",
              encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["intersection_id", "bin_start_s", "mean_queue",
                    "ci95_queue", "mean_delay", "ci95_delay"])
        for iid, rows in result.moe.items():
            for r in rows:
                w.writerow([iid, repr(r["bin_start_s"]),
                            repr(r["mean_queue"]), repr(r["ci95_queue"]),
                            repr(r["mean_delay"]), repr(r["ci95_delay"])])


def load_eval_summary(out_dir: str) -> dict:
    path = os.path.join(out_dir, "summary.json")
    if not os.path.exists(path):
        raise ConfigError(f"no evaluation summary at {path}")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- comparison -------------------------------------------------------------------

def compare(summaries: list, out_dir: str | None = None) -> list:
    """Rank evaluated controllers by mean travel time; refuse mixed setups."""
    if len(summaries) < 2:
        raise ConfigError("compare needs at least two evaluated controllers")
    first = summaries[0]["condition"]
    for s in summaries[1:]:
        if s["condition"] != first:
            raise ConfigError(
                "evaluations were run under different conditions: "
                f"{first} vs {s['condition']}")
    rows = []
    for s in summaries:
        box = s.get("box") or {}
        rows.append({
            "controller": s["controller"],
            "hp": s["hp"],
            "mean": box.get("mean"),
            "std": box.get("std"),
            "median": box.get("median"),
            "iqr": box.get("iqr"),
            "outliers": len(box.get("outliers", [])),
            "samples": s.get("samples", 0),
        })
    rows.sort(key=lambda r: (r["mean"] is None, r["mean"]))
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "comparison.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"condition": first, "ranking": rows}, fh, indent=2)
        with open(os.path.join(out_dir, "comparison.csv"), "w", newline="",
                  encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["controller", "mean", "std", "median", "iqr",
                        "outliers", "samples"])
            for r in rows:
                w.writerow([r["controller"], repr(r["mean"]), repr(r["std"]),
                            repr(r["median"]), repr(r["iqr"]),
                            r["outliers"], r["samples"]])
    return rows

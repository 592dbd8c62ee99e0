"""Experiment harness: grid search, multi-seed evaluation and comparison."""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import os
from array import array
from dataclasses import dataclass, field

import numpy as np

from . import fabric
from .classic import (MaxPressureController, SotlController,
                      UniformController, WebsterController)
from .control import ConfigError, configure
from .network import (NetworkModel, finite_number, make_out_dir, read_input,
                      write_output)
from .simulation import DemandProfile, check_entry_lanes, run_episode
from .stats import BoxStats, box_stats, mean_ci95, rank_score

# controller name -> the dataclass whose fields are its hyperparameters
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


def check_controller(name: str) -> None:
    if name not in CONTROLLERS:
        raise ConfigError(f"unknown controller {name!r} "
                          f"(expected one of {tuple(CONTROLLERS)})")


def _check_count(name: str, value: int) -> None:
    if value < 1:
        raise ConfigError(f"{name} must be >= 1, got {value}")


def make_classic_controllers(net: NetworkModel, name: str, hp: dict) -> dict:
    check_controller(name)
    if name in fabric.ALGOS:
        raise ConfigError(f"{name!r} is a learning controller; "
                          "train it or supply a checkpoint")
    cls = CONTROLLERS[name]
    return {ix.id: configure(name, cls, hp) for ix in net.intersections}


def greedy_controllers(net: NetworkModel, name: str, cfg,
                       params: dict) -> dict:
    """Non-exploring controllers of learning algorithm `name` with agent
    config `cfg`, acting on `params` (intersection id -> acting
    parameters), all that greedy control reads of an agent."""
    agents = fabric.build_agents(net, name, cfg, seed=0)
    for iid, agent in agents.items():
        agent.apply_acting_params(params[iid])
    return fabric.build_controllers(net, name, agents, 0, explore=False)


def controller_factory(net: NetworkModel, name: str, hp: dict,
                       checkpoint_dir: str | None = None):
    """Picklable `make_controllers(net)` building fresh per-intersection
    controllers: classic ones from `hp`, or greedy learning ones from
    `checkpoint_dir`, whose config fixes every hyperparameter (`hp` must be
    empty). The hyperparameters or the checkpoint are read and checked
    once, here; the callable carries no network."""
    check_controller(name)
    if name not in fabric.ALGOS:
        if checkpoint_dir is not None:
            raise ConfigError(f"{name!r} is classic: it takes no checkpoint")
        configure(name, CONTROLLERS[name], hp)  # fails here, before any run
        return functools.partial(make_classic_controllers, name=name, hp=hp)
    if hp:
        raise ConfigError(f"{name!r} takes its hyperparameters from its "
                          f"checkpoint; got {sorted(hp)}")
    if checkpoint_dir is None:
        raise ConfigError(f"{name!r} needs a trained checkpoint")
    cfg, params = fabric.load_policy(checkpoint_dir, net, name)
    return functools.partial(greedy_controllers, name=name, cfg=cfg,
                             params=params)


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
        """Check the grid's shape, then build every config's controller
        (or agent configuration) once, so that a bad value fails here."""
        check_controller(self.controller)
        _check_count("trials", self.trials)
        if not isinstance(self.values, dict) or not self.values:
            raise ConfigError("a grid must be a non-empty object mapping "
                              "hyperparameter -> list of values")
        names = [k.strip() for key in self.values for k in key.split(",")]
        for name in names:
            if names.count(name) > 1:  # the product would keep one value
                raise ConfigError(f"grid names hyperparameter {name!r} "
                                  "more than once")
        for key, vals in self.values.items():
            if not isinstance(vals, (list, tuple)) or not vals:
                raise ConfigError(f"grid values of {key!r} must be a "
                                  "non-empty list")
        for hp in self.expand():
            try:
                configure(self.controller, CONTROLLERS[self.controller], hp)
            except ValueError as exc:
                raise ConfigError(f"grid config "
                                  f"{config_id(self.controller, hp)}: "
                                  f"{exc}") from None

    def expand(self) -> list:
        """Cartesian product; a 'k1,k2' key assigns paired values."""
        keys = sorted(self.values)
        configs = []
        for combo in itertools.product(*(self.values[k] for k in keys)):
            hp = {}
            for key, val in zip(keys, combo):
                if "," not in key:
                    hp[key] = val
                    continue
                subkeys = [k.strip() for k in key.split(",")]
                if not isinstance(val, (list, tuple)) or \
                        len(val) != len(subkeys):
                    raise ConfigError(f"grid values of {key!r} must be "
                                      f"lists of {len(subkeys)} values")
                hp.update(zip(subkeys, val))
            configs.append(hp)
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
        """The result as JSON values: NaN (a trial that finished no trip)
        becomes None."""
        return {"config_id": self.config_id, "hp": self.hp,
                "per_seed": [_finite(v) for v in self.per_seed],
                "mu": _finite(self.mu), "sigma": _finite(self.sigma),
                "score": _finite(self.score)}


def _finite(x: float) -> float | None:
    return x if math.isfinite(x) else None


def _rank_key(r: TrialResult) -> tuple:
    """Ascending score, ties by config id; a non-finite score ranks after
    every finite one."""
    finite = math.isfinite(r.score)
    return not finite, r.score if finite else 0.0, r.config_id


def _map(fn, shared: tuple, tasks: list, procs: int) -> list:
    """`fn(*shared, *task)` for each task, in task order.

    With procs > 1 and more than one task, the tasks run in a pool of
    worker processes, imported only then. Each worker gets `fn` and the
    `shared` arguments once, as it starts, so a task carries only its own
    fields, never the network or the demand. A worker that dies is a
    RuntimeError.
    """
    if procs > 1 and len(tasks) > 1:
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
        try:
            with ProcessPoolExecutor(max_workers=min(procs, len(tasks)),
                                     initializer=_share,
                                     initargs=(fn, shared)) as pool:
                return list(pool.map(_run_shared, tasks))
        except BrokenExecutor:
            raise RuntimeError(
                "a worker process died; under spawn or forkserver, the likely "
                "cause is a script without an `if __name__ == \"__main__\":` "
                "guard") from None
    return [fn(*shared, *task) for task in tasks]


_shared = None  # in a pool worker: (fn, shared arguments) of its _map


def _share(fn, shared: tuple) -> None:
    global _shared
    _shared = fn, shared


def _run_shared(task):
    fn, shared = _shared
    return fn(*shared, *task)


def _trial_mean(net, demand, make_controllers, seed, horizon) -> float:
    """Mean travel time of one episode; NaN if no trip finished."""
    tts = run_episode(net, demand, make_controllers(net), seed,
                      horizon=horizon, moe_series=False).travel_time_values
    return float(np.mean(tts)) if tts else float("nan")


def _trained_factory(net, demand, name, train_episodes, train_horizon, hp,
                     seed):
    """Train one learning config; a factory of its greedy controllers that
    carries the acting parameters, not the training state (target nets,
    optimizer moments) nor the network, into every trial task."""
    result = fabric.train(
        net, demand, name, seed,
        fabric=fabric.FabricConfig(episode_budget=train_episodes,
                                   horizon=train_horizon),
        agent_cfg=fabric.agent_config(name, hp))
    cfg, params = result.policy()
    return functools.partial(greedy_controllers, name=name, cfg=cfg,
                             params=params)


def tune(grid: GridSpec, net: NetworkModel, demand: DemandProfile,
         procs: int = 1, horizon: float | None = None,
         train_episodes: int = TUNE_TRAIN_EPISODES,
         train_horizon: float = TUNE_TRAIN_HORIZON,
         out_dir: str | None = None) -> list:
    """Grid search; returns TrialResults ranked ascending by mean + std,
    configs with a trial that finished no trip (score NaN) last.

    A learning config first trains once, seeded like a trial numbered -1;
    then every trial of every config is one greedy or classic episode."""
    _check_count("procs", procs)
    name = grid.controller
    cids = {config_id(name, hp): hp for hp in grid.expand()}
    check_entry_lanes(net, demand)
    if out_dir:
        make_out_dir(out_dir)
    if name in fabric.ALGOS:
        tasks = [(hp, seed_for(cid, -1, grid.base_seed))
                 for cid, hp in cids.items()]
        factories = dict(zip(cids, _map(
            _trained_factory,
            (net, demand, name, train_episodes, train_horizon), tasks,
            procs)))
    else:
        factories = {cid: controller_factory(net, name, hp)
                     for cid, hp in cids.items()}

    tasks = [(factories[cid], seed_for(cid, trial, grid.base_seed), horizon)
             for cid in cids for trial in range(grid.trials)]
    means = iter(_map(_trial_mean, (net, demand), tasks, procs))
    results = [TrialResult(cid, hp, [next(means) for _ in range(grid.trials)])
               for cid, hp in cids.items()]

    ranked = sorted(results, key=_rank_key)
    if out_dir:
        write_output(os.path.join(out_dir, "ranking.json"),
                     {"controller": name, "trials": grid.trials,
                      "base_seed": grid.base_seed,
                      "ranking": [r.to_dict() for r in ranked]})
        write_output(os.path.join(out_dir, "trials.csv"),
                     [["config_id", "trial", "seed_mean_travel_time"]] +
                     [[r.config_id, trial, repr(v)] for r in ranked
                      for trial, v in enumerate(r.per_seed)])
    return ranked


# -- evaluation -------------------------------------------------------------------

@dataclass
class EvalResult:
    controller: str
    hp: dict
    condition: dict
    travel_times: array      # array("d"), the runs' travel times in run order
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


def evaluate(name: str, hp: dict, net: NetworkModel, demand: DemandProfile,
             runs: int = EVAL_RUNS, base_seed: int = 0,
             checkpoint_dir: str | None = None,
             horizon: float | None = None,
             procs: int = 1, out_dir: str | None = None) -> EvalResult:
    """Greedy multi-seed evaluation: pooled travel times plus MoE bins."""
    _check_count("runs", runs)
    _check_count("procs", procs)
    fabric.check_seed(base_seed)
    make_controllers = controller_factory(net, name, hp, checkpoint_dir)
    check_entry_lanes(net, demand)
    if out_dir:
        make_out_dir(out_dir)
    reduced = _map(_eval_run, (net, demand, make_controllers),
                   [(base_seed + i, horizon) for i in range(runs)], procs)

    travel_times = array("d")
    for tts, _, _ in reduced:
        travel_times.extend(tts)
    condition = condition_fingerprint(net, demand, runs, base_seed, horizon)

    moe = _moe_bins([ix.id for ix in net.intersections],
                    [bins for _, bins, _ in reduced])
    result = EvalResult(controller=name, hp=dict(hp), condition=condition,
                        travel_times=travel_times,
                        box=box_stats(travel_times), moe=moe,
                        unfinished=sum(n for _, _, n in reduced))
    if out_dir:
        write_eval(out_dir, result)
    return result


def _eval_run(net, demand, make_controllers, seed, horizon) -> tuple:
    """One evaluation run, reduced where it ran: its travel times, its
    `_run_bin_means` (None if it logged no second) and its unfinished
    count. The per-second series end with the run, so memory stays flat in
    the number of runs and a worker sends back kilobytes, not the series."""
    log = run_episode(net, demand, make_controllers(net), seed,
                      horizon=horizon)
    iids = [ix.id for ix in net.intersections]
    bins = _run_bin_means(log, iids) if log.times else None
    return log.travel_times, bins, log.unfinished


def _distinct(values: np.ndarray) -> np.ndarray:
    """`np.unique` of a 1-D integer array, without the `numpy.ma` import
    (about 1.7 MB) that `np.unique` makes on first use."""
    return np.array(sorted(set(values.tolist())), dtype=values.dtype)


def _run_bin_means(log, iids) -> tuple:
    """The bins one run reached and, per intersection, its queue and delay
    means over each bin.

    `log.times` ascends, so each bin is one contiguous slice. Slices of
    equal length become the rows of one C-contiguous array, reduced along
    its last axis: each row gets the bits of the slice's own `mean()`.
    """
    bins = (np.asarray(log.times) // MOE_BIN_S).astype(int)
    starts = np.flatnonzero(np.diff(bins, prepend=bins[0] - 1))
    lengths = np.diff(starts, append=len(bins))
    groups = [(sel, starts[sel, None] + np.arange(n))
              for n in _distinct(lengths)
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


def _moe_bins(iids, run_bins) -> dict:
    """Per intersection, one row per bin: the mean across the runs that
    reached it and its 95% half-width, from each run's `_run_bin_means`
    (None for a run that logged no second). Bins reached by the same
    number of runs are reduced together, their runs in run order."""
    runs = [r for r in run_bins if r is not None]
    if not runs:
        return {iid: [] for iid in iids}
    all_bins = _distinct(np.concatenate([b for b, _ in runs]))
    cols = [np.searchsorted(all_bins, b) for b, _ in runs]
    reached = np.zeros((len(all_bins), len(runs)), dtype=bool)
    for r, col in enumerate(cols):
        reached[col, r] = True
    n_runs = reached.sum(axis=1)
    groups = [(sel, reached[sel], int(n))
              for n in _distinct(n_runs) for sel in [n_runs == n]]
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
        moe[iid] = [{"bin_start_s": b * MOE_BIN_S, "mean_queue": qm,
                     "ci95_queue": qc, "mean_delay": dm, "ci95_delay": dc}
                    for b, qm, qc, dm, dc in zip(all_bins.tolist(), *stats)]
    return moe


_MOE_COLUMNS = ("bin_start_s", "mean_queue", "ci95_queue", "mean_delay",
                "ci95_delay")


def write_eval(out_dir: str, result: EvalResult) -> None:
    write_output(os.path.join(out_dir, "summary.json"), result.summary())
    write_output(os.path.join(out_dir, "travel_times.csv"), itertools.chain(
        [["travel_time_s"]], zip(map(repr, result.travel_times))))
    write_output(os.path.join(out_dir, "moe.csv"), itertools.chain(
        [["intersection_id", *_MOE_COLUMNS]],
        ([iid, *(repr(r[k]) for k in _MOE_COLUMNS)]
         for iid, rows in result.moe.items() for r in rows)))


_SUMMARY_KEYS = ("controller", "hp", "condition", "samples", "box")
_BOX_NUMBERS = ("mean", "std", "median", "iqr")


def load_eval_summary(out_dir: str) -> dict:
    """The `summary.json` of an evaluation; ConfigError naming the file
    unless it is an object with every key of _SUMMARY_KEYS and a `box`
    that is null or an object whose _BOX_NUMBERS are finite numbers or
    null and whose `outliers` are a list."""
    path = os.path.join(out_dir, "summary.json")
    summary = read_input(path)
    if not isinstance(summary, dict) or \
            any(k not in summary for k in _SUMMARY_KEYS) or \
            not isinstance(summary["box"], (dict, type(None))):
        raise ConfigError(f"{path}: an evaluation summary is an object with "
                          f"{', '.join(map(repr, _SUMMARY_KEYS))} and a box "
                          "that is an object or null")
    box = summary["box"] or {}
    if not all(v is None or finite_number(v)
               for v in map(box.get, _BOX_NUMBERS)) or \
            not isinstance(box.get("outliers", []), list):
        raise ConfigError(f"{path}: the box's "
                          f"{', '.join(map(repr, _BOX_NUMBERS))} must be "
                          "finite numbers or null, and its 'outliers' a list")
    return summary


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
    if out_dir:
        make_out_dir(out_dir)
    rows = []
    for s in summaries:
        box = s.get("box") or {}
        rows.append({
            "controller": s["controller"],
            "hp": s["hp"],
            **{k: box.get(k) for k in _BOX_NUMBERS},
            "outliers": len(box.get("outliers", [])),
            "samples": s.get("samples", 0),
        })
    rows.sort(key=lambda r: (r["mean"] is None, r["mean"]))
    if out_dir:
        write_output(os.path.join(out_dir, "comparison.json"),
                     {"condition": first, "ranking": rows})
        columns = ("controller", *_BOX_NUMBERS, "outliers", "samples")
        write_output(os.path.join(out_dir, "comparison.csv"), [columns] + [
            [repr(r[k]) if k in _BOX_NUMBERS else r[k] for k in columns]
            for r in rows])
    return rows

"""The four corridor workloads, their output checks and their metrics.

Every workload runs on the bundled `double.net` / `double_demand.json`
corridor and takes its seed from the command line. See NOTES.md for why each
workload exists.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

def import_tscbench():
    """Import tscbench from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "tscbench" / "__init__.py").is_file():
        raise ImportError(f"no tscbench sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tscbench
    if not Path(tscbench.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"tscbench imported from {tscbench.__file__}, "
                          f"not from {SRC}")
    return tscbench


ts = import_tscbench()
import numpy as np  # noqa: E402  (after the path check, as tscbench needs it)

from tscbench import experiments, fabric, simulation  # noqa: E402
from tscbench.agents import DqnConfig  # noqa: E402
from tscbench.control import RewardNormalizer  # noqa: E402

from run import BLAS_THREAD_VARS  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

DATA = SRC / "tscbench" / "data"
NET_FILE = DATA / "double.net"
DEMAND_FILE = DATA / "double_demand.json"

# Work in one pass of each workload. Expected digests hold for these sizes.
# Eval and training passes are short (1 to 2 s) so that a run repeats every
# part of a pass many times; see fastest_parts().
SIZES = {"trials": 8, "runs": 2, "episodes": 10}
# A run makes passes until --seconds is up, but at least MIN_PASSES.
MIN_PASSES = 2
# Set-up is timed in rounds of SETUP_REPS, one round before each pass.
SETUP_REPS = 20
# The probe cuts each episode into segments of this many simulated seconds.
SEGMENT_STEPS = 128
DEFAULT_SEED = 0
HELD_OUT_SEED = 1
# What experiments.write_eval writes; the corridor_eval digest covers them.
EVAL_FILES = ("summary.json", "travel_times.csv", "moe.csv")


# -- episode probe ------------------------------------------------------------

class EpisodeProbe:
    """Times every `run_episode` call and keeps what the checks need.

    Each episode's `cuts` are the host times at its start, after every
    SEGMENT_STEPS-th `Simulation.step` and at its end.

    It counts the `Simulation.step` calls of each episode and reads the
    conservation ledger (injected, exited, vehicles left, blocked) from the
    episode's final simulation state, so it does not rely on the per-second
    MoE series. Both are kept per thread, as actors run episodes in
    parallel. Logs are summarised as each episode ends and then dropped, so
    the probe holds no more memory than the program does. With
    `hash_series` it also hashes, in episode order, the travel times and the
    per-second queue and delay series of each log.
    """

    def __init__(self, hash_series: bool = False):
        self.episodes = []   # one dict per episode, in completion order
        self.travel_hash = hashlib.sha256() if hash_series else None
        self.series_hash = hashlib.sha256() if hash_series else None
        self._local = threading.local()
        self._restore = []

    def _record(self, cuts, steps, sim, log) -> None:
        self.episodes.append({
            "cuts": cuts, "host_s": cuts[-1] - cuts[0], "steps": steps,
            "injected": sim.injected if sim else 0,
            "exited": sim.exited if sim else 0,
            "unfinished": sim.total_vehicles() if sim else 0,
            "blocked": sim.blocked if sim else 0})
        if self.travel_hash is not None:
            self.travel_hash.update(_f64(log.travel_time_values))
            for iid in log.queue:
                self.series_hash.update(iid.encode())
                self.series_hash.update(
                    np.asarray(log.queue[iid], dtype=np.int64).tobytes())
                self.series_hash.update(_f64(log.delay[iid]))

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        episode = simulation.run_episode
        step = simulation.Simulation.step
        local = self._local
        record = self._record

        def probed_step(sim, *args, **kwargs):
            local.sim = sim
            out = step(sim, *args, **kwargs)
            local.steps += 1
            if local.steps % SEGMENT_STEPS == 0:
                local.cuts.append(time.perf_counter())
            return out

        def probed_episode(*args, **kwargs):
            local.sim, local.steps = None, 0
            local.cuts = cuts = [time.perf_counter()]
            log = episode(*args, **kwargs)
            cuts.append(time.perf_counter())
            record(cuts, local.steps, local.sim, log)
            return log

        self._set(simulation.Simulation, "step", probed_step)
        for mod in (ts, simulation, experiments, fabric):
            if getattr(mod, "run_episode", None) is episode:
                self._set(mod, "run_episode", probed_episode)
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
        return False


def _f64(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


# -- digests --------------------------------------------------------------------

def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _hex(values) -> list:
    return [float(v).hex() for v in values]


def params_digest(agents: dict) -> str:
    h = hashlib.sha256()
    for iid in sorted(agents):
        for pname, params in sorted(agents[iid].to_checkpoint().items()):
            h.update(f"{iid}/{pname}/v{params.version}".encode())
            for key, arr in params.arrays():
                h.update(key.encode())
                h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return h.hexdigest()


def platform_fingerprint() -> dict:
    """What bit-exact neural-network arithmetic depends on."""
    cfg = np.show_config(mode="dicts")
    return {"numpy": np.__version__,
            "blas": cfg["Build Dependencies"]["blas"].get(
                "openblas configuration", cfg["Build Dependencies"]["blas"]["name"]),
            "simd": cfg["SIMD Extensions"].get("found", []),
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}}


def load_expected() -> dict:
    with open(EXPECTED, "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- workloads ------------------------------------------------------------------

def _load():
    return (ts.load_network(str(NET_FILE)), ts.load_demand(str(DEMAND_FILE)))


class Tune:
    name = "corridor_tune"
    controller = "maxpressure"
    platform_bound = False
    hash_series = False

    def setup(self, sizes):
        net, demand = _load()
        for hp in self._grid(sizes).expand():
            experiments.make_classic_controllers(net, self.controller, hp)
        return net, demand

    def _grid(self, sizes, seed=DEFAULT_SEED):
        values = experiments.DEFAULT_GRIDS[self.controller]
        if sizes.get("configs"):
            values = {k: v[:sizes["configs"]] for k, v in values.items()}
        return experiments.GridSpec(self.controller, values,
                                    trials=sizes["trials"], base_seed=seed)

    def planned_episodes(self, sizes):
        return len(self._grid(sizes).expand()) * sizes["trials"]

    def run_pass(self, state, seed, sizes):
        net, demand = state
        return experiments.tune(self._grid(sizes, seed), net, demand, procs=1)

    def digests(self, ranked, probe):
        return {"ranking": _sha([[r.config_id, _hex(r.per_seed)]
                                 for r in ranked])}

    def check(self, ranked, probe, sizes):
        problems = []
        n = len(probe.episodes)
        if len(ranked) * sizes["trials"] != n:
            problems.append(f"{n} episodes for {len(ranked)} configs")
        keys = [(r.score, r.config_id) for r in ranked]
        if keys != sorted(keys):
            problems.append("ranking is not sorted by mean + std")
        for r in ranked:
            if len(r.per_seed) != sizes["trials"] or not all(
                    math.isfinite(v) and v > 0 for v in r.per_seed):
                problems.append(f"bad per-seed means for {r.config_id}")
        return problems


class Evaluate:
    name = "corridor_eval"
    controller = "sotl"
    platform_bound = False
    hash_series = True

    def setup(self, sizes):
        net, demand = _load()
        experiments.make_classic_controllers(net, self.controller, {})
        return net, demand

    def planned_episodes(self, sizes):
        return sizes["runs"]

    def run_pass(self, state, seed, sizes):
        net, demand = state
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as out_dir:
            result = experiments.evaluate(self.controller, {}, net, demand,
                                          runs=sizes["runs"], base_seed=seed,
                                          procs=1, out_dir=out_dir)
            written = {}
            for fname in EVAL_FILES:
                with open(os.path.join(out_dir, fname), "rb") as fh:
                    written[fname] = fh.read()
        return result, written

    def digests(self, output, probe):
        result, written = output
        box = result.box.to_dict() if result.box else None
        aggregates = {
            "moe": {iid: [{k: float(v).hex() for k, v in row.items()}
                          for row in rows]
                    for iid, rows in result.moe.items()},
            "box": box and {k: _hex(v) if k == "outliers" else
                            float(v).hex() if isinstance(v, float) else v
                            for k, v in box.items()}}
        files = hashlib.sha256()
        for fname in EVAL_FILES:
            files.update(fname.encode())
            files.update(written[fname])
        return {"travel_times": probe.travel_hash.hexdigest(),
                "moe_series": probe.series_hash.hexdigest(),
                "aggregates": _sha(aggregates),
                "files": files.hexdigest()}

    def check(self, output, probe, sizes):
        result, raw = output
        written = json.loads(raw["summary.json"])
        problems = []
        eps = probe.episodes
        if len(eps) != sizes["runs"]:
            problems.append(f"{len(eps)} episodes for {sizes['runs']} runs")
        if hashlib.sha256(_f64(result.travel_times)).hexdigest() \
                != probe.travel_hash.hexdigest():
            problems.append("pooled travel times differ from the episodes'")
        if written.get("samples") != len(result.travel_times):
            problems.append("summary.json sample count differs")
        if result.unfinished != sum(e["unfinished"] for e in eps):
            problems.append("unfinished count differs from the episodes'")
        for iid, rows in result.moe.items():
            if not rows or not all(math.isfinite(r["mean_delay"])
                                   for r in rows):
                problems.append(f"no finite MoE bins for {iid}")
        return problems


class Train:
    platform_bound = True
    hash_series = False

    def __init__(self, name, n_actors):
        self.name = name
        self.n_actors = n_actors

    def _fabric(self, sizes):
        return fabric.FabricConfig(
            n_actors=self.n_actors, n_learners=1,
            episode_budget=sizes["episodes"],
            horizon=experiments.TUNE_TRAIN_HORIZON)

    def setup(self, sizes):
        net, demand = _load()
        cfg = DqnConfig()
        for _ in range(self.n_actors + 1):   # the learner's and each actor's
            agents = fabric.build_agents(net, "dqn", cfg, DEFAULT_SEED)
            fabric.build_controllers(
                net, "dqn", agents, DEFAULT_SEED, explore=True,
                normalizers={iid: RewardNormalizer() for iid in agents})
        return net, demand

    def planned_episodes(self, sizes):
        return sizes["episodes"]

    def run_pass(self, state, seed, sizes):
        net, demand = state
        return fabric.train(net, demand, "dqn", seed,
                            fabric=self._fabric(sizes), agent_cfg=DqnConfig())

    def digests(self, result, probe):
        if self.n_actors > 1:
            return {}   # multi-actor floats are not reproducible
        return {"params": params_digest(result.agents),
                "update_counts": _sha(result.update_counts)}

    def check(self, result, probe, sizes):
        problems = []
        if len(probe.episodes) != sizes["episodes"]:
            problems.append(f"{len(probe.episodes)} episodes for a budget of "
                            f"{sizes['episodes']}")
        if result.emitted != result.received:
            problems.append(f"emitted {result.emitted} != received "
                            f"{result.received}")
        for iid in result.agents:
            if result.update_counts.get(iid, 0) <= 0:
                problems.append(f"no updates for intersection {iid}")
        for agent in result.agents.values():
            if not all(np.isfinite(a).all()
                       for _, a in agent.online.arrays()):
                problems.append("non-finite parameters")
                break
        return problems


WORKLOADS = {w.name: w for w in (
    Tune(), Evaluate(),
    Train("corridor_dqn_1x1", 1),
    Train("corridor_dqn_2x1", 2),
)}


# -- one pass, checked ------------------------------------------------------------

def check_pass(wl, output, probe, seed, sizes, expected) -> tuple:
    """Output checks of one pass: (problems, digests, digest note)."""
    problems = [f"episode {i}: injected {e['injected']} != exited "
                f"{e['exited']} + unfinished {e['unfinished']}"
                for i, e in enumerate(probe.episodes)
                if e["injected"] != e["exited"] + e["unfinished"]]
    problems += wl.check(output, probe, sizes)
    digests = wl.digests(output, probe)
    note = "no digest for this workload"
    if digests:
        want = expected.get("digests", {}).get(wl.name, {}).get(str(seed))
        if sizes != expected.get("sizes"):
            note = "not checked: sizes differ from the recorded ones"
        elif want is None:
            note = f"not checked: no expected digest for seed {seed}"
        elif wl.platform_bound and \
                expected.get("platform") != platform_fingerprint():
            note = "not checked: numpy/BLAS/CPU differ from the recorded ones"
        else:
            bad = [k for k in digests if digests[k] != want.get(k)]
            problems += [f"digest {k} mismatch" for k in bad]
            note = "checked" if not bad else f"MISMATCH in {bad}"
    return problems, digests, note


def run_pass(wl, state, seed, sizes, expected, tracer=None) -> dict:
    with EpisodeProbe(wl.hash_series) as probe:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                output = wl.run_pass(state, seed, sizes)
            else:
                with tracer.span("bench.pass"):
                    output = wl.run_pass(state, seed, sizes)
            error = None
        except Exception as exc:  # a raising pass fails all its episodes
            output, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
    eps = probe.episodes
    attempted = max(wl.planned_episodes(sizes), len(eps))
    if error is None:
        problems, digests, note = check_pass(wl, output, probe, seed, sizes,
                                             expected)
    else:
        problems, digests, note = [error], {}, "not checked: pass raised"
    updates = sum(output.update_counts.values()) \
        if error is None and isinstance(wl, Train) else 0
    return {"wall_s": t1 - t0, "span": (t0, t1), "output": output,
            "problems": problems, "digests": digests, "digest_note": note,
            "attempted": attempted, "failed": attempted if problems else 0,
            "episodes": [(e["host_s"], e["steps"]) for e in eps],
            "cuts": [e["cuts"] for e in eps],
            "updates": updates,
            "injected": sum(e["injected"] for e in eps),
            "blocked": sum(e["blocked"] for e in eps)}


def time_setup(wl, sizes, reps, rounds) -> object:
    """Time a round of `reps` set-ups and append their times to `rounds`;
    returns the last state."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        state = wl.setup(sizes)
        times.append(time.perf_counter() - t0)
    rounds.append(times)
    return state


# -- end-to-end metrics ---------------------------------------------------------------

def tail(values, per_pass: int) -> tuple:
    """Tail of per-episode times: (value, percentile, n).

    The percentile is the highest one with at least ten of one pass's
    `per_pass` episodes beyond it, so it stays the same however many passes
    a run makes. With fewer than 11 episodes per pass it is the maximum.
    """
    xs = sorted(values)
    n = len(xs)
    if per_pass < 11:
        return xs[-1], 100.0, n
    share = (per_pass - 10) / per_pass
    return xs[max(0, math.floor(n * share) - 1)], 100.0 * share, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fastest_parts(passes) -> tuple:
    """(time of each episode, pass wall), every part at its fastest repeat.

    The CPU of a shared host switches between a fast and a slow speed (up
    to 1.7x apart) every second or so, and how much of the time it is fast
    drifts over minutes. So no whole pass reliably runs fast, but each short
    part of one does in some repeat. Where every pass runs its episodes one
    after another, in the same segments (the deterministic workloads), a
    pass is cut into the gaps between episodes and the SEGMENT_STEPS-step
    segments of each; each part counts with its fastest repeat and the
    parts add up to the episode times and the wall. Otherwise (several
    actor threads) each episode position counts with its fastest repeat and
    the wall is the fastest pass.
    """
    def parts(p):
        t0, t1 = p["span"]
        bounds = [t0] + [t for cuts in p["cuts"] for t in (cuts[0], cuts[-1])]
        gaps = np.diff(bounds + [t1])[::2]
        return gaps, [np.diff(cuts) for cuts in p["cuts"]]

    split = [parts(p) for p in passes]
    shapes = {tuple(len(s) for s in segs) for _, segs in split}
    if len(shapes) == 1 and all((gaps >= 0).all() for gaps, _ in split):
        gaps = np.min([g for g, _ in split], axis=0)
        episodes = [float(np.min(reps, axis=0).sum())
                    for reps in zip(*(segs for _, segs in split))]
        return episodes, float(gaps.sum()) + sum(episodes), True
    episodes = [min(reps) for reps in zip(*(
        [host for host, _ in p["episodes"]] for p in passes))]
    return episodes, min(p["wall_s"] for p in passes), False


def end_to_end(wl, setup_rounds, passes, sizes) -> tuple:
    """(metrics, extra metrics, notes) over every pass of one run.

    Times take each part of a pass at its fastest repeat (fastest_parts);
    `setup_s` takes each set-up of a round at its fastest repeat over the
    rounds and reports the median of those.
    """
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    notes = {"error_rate": f"{failed}/{attempted}"}
    extra = {"error_rate": (failed / attempted, "ratio")}
    if not all(p["episodes"] for p in passes):   # the program raised early
        return {}, extra, notes
    episode_s, wall, by_segment = fastest_parts(passes)
    steps = sum(s for _, s in passes[0]["episodes"][:len(episode_s)])
    setup_s = statistics.median(np.min(setup_rounds, axis=0))
    tail_v, tail_p, n = tail(episode_s, wl.planned_episodes(sizes))
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "sim_steps_per_s": (steps / sum(episode_s), "1/s"),
        "episode_s_p50": (statistics.median(episode_s), "s"),
        "episode_s_tail": (tail_v, "s"),
        "episodes_per_s": (len(episode_s) / wall, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    reps = f"of {len(passes)} repeats"
    part = f"each {SEGMENT_STEPS}-step segment and gap at its fastest " + reps \
        if by_segment else f"each episode at its fastest {reps}"
    notes["setup_s"] = (f"median over {len(setup_rounds[0])} set-ups, each "
                        f"at its fastest of {len(setup_rounds)} rounds")
    notes["wall_s"] = part if by_segment else f"fastest pass {reps}"
    notes["episodes_per_s"] = "episodes of one pass / wall_s"
    notes["sim_steps_per_s"] = part
    notes["episode_s_p50"] = part
    notes["episode_s_tail"] = f"p{tail_p:.2f} of n={n} episodes, {part}"
    # Reported, but not in BENCHMARK.json: zero on some workloads.
    if isinstance(wl, Train):
        extra["updates_per_s"] = (passes[0]["updates"] / wall, "1/s")
    return metrics, extra, notes


# -- per-layer metrics ------------------------------------------------------------------

# Only the multi-actor workload, which BENCHMARK.json does not list, moves
# these. They are printed but left out of the result line.
MULTI_ACTOR_METRICS = ("fabric.queue_get_wait_s", "fabric.queue_put_wait_s",
                       "fabric.params_offered", "fabric.params_applied",
                       "fabric.apply_ratio")


def per_layer(table, counters, traced_pass, traced_wall,
              untraced_wall, n_spans) -> dict:
    def pick(field, *names, prefix=None, suffix=None):
        total = 0
        for nm, row in table.items():
            if nm in names or (prefix and suffix and nm.startswith(prefix)
                               and nm.endswith(suffix)):
                total += row[field]
        return total

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(r["self_s"] for r in table.values()
                                    if r["layer"] == layer), "s")
    m["network.load_s"] = (pick("incl_s", "network.load_network"), "s")

    step = "simulation.Simulation.step"
    vehicle_s = counters.get("vehicle_s", 0)
    m["simulation.step_s"] = (pick("self_s", step), "s")
    m["simulation.step_calls"] = (pick("calls", step), "count")
    rate = "simulation.DemandProfile.rate"
    m["simulation.demand_rate_s"] = (pick("incl_s", rate), "s")
    m["simulation.demand_rate_calls"] = (pick("calls", rate), "count")
    m["simulation.collect_moe_s"] = (pick("incl_s", "simulation.collect_moe"), "s")
    m["simulation.vehicle_s"] = (vehicle_s, "count")
    m["simulation.ns_per_vehicle_s"] = (
        1e9 * pick("incl_s", step) / vehicle_s if vehicle_s else 0.0, "ns")
    m["simulation.injected"] = (traced_pass["injected"], "count")
    m["simulation.blocked"] = (traced_pass["blocked"], "count")

    m["control.advance_s"] = (pick("self_s", "control.SignalUnit.advance"), "s")
    m["control.observe_s"] = (pick("incl_s", "control.observe"), "s")
    m["control.observe_calls"] = (pick("calls", "control.observe"), "count")
    m["control.reward_s"] = (pick("incl_s", "control.raw_reward"), "s")

    m["classic.tick_s"] = (pick("incl_s", prefix="classic.", suffix=".tick"), "s")
    m["classic.decide_s"] = (pick("incl_s", prefix="classic.", suffix=".decide"), "s")
    m["classic.decide_calls"] = (pick("calls", prefix="classic.", suffix=".decide"),
                                 "count")

    m["nn.forward_s"] = (pick("incl_s", "nn.forward"), "s")
    m["nn.forward_calls"] = (pick("calls", "nn.forward"), "count")
    m["nn.backward_s"] = (pick("incl_s", "nn.backward"), "s")
    m["nn.adam_s"] = (pick("incl_s", "nn.adam_step"), "s")

    m["agents.train_batch_s"] = (pick("self_s", prefix="agents.",
                                      suffix=".train_batch"), "s")
    m["agents.replay_push_s"] = (pick("incl_s", "agents.ReplayBuffer.push"), "s")
    m["agents.replay_sample_s"] = (pick("incl_s", "agents.ReplayBuffer.sample"), "s")
    m["agents.act_s"] = (pick("incl_s", "agents.DqnAgent.act",
                              "agents.DdpgAgent.act"), "s")
    m["agents.decisions"] = (pick("calls", "agents.DqnAgent.act",
                                  "agents.DdpgAgent.act"), "count")

    out = traced_pass["output"]
    is_train = hasattr(out, "update_counts")
    offered = pick("calls", "fabric._Mailbox.offer")
    applied = pick("calls", prefix="agents.", suffix=".apply_acting_params")
    m["fabric.ingest_s"] = (pick("incl_s", "fabric.Learner.ingest"), "s")
    m["fabric.try_train_s"] = (pick("self_s", "fabric.Learner.try_train"), "s")
    m["fabric.updates"] = (traced_pass["updates"], "count")
    m["fabric.queue_get_wait_s"] = (pick("incl_s", "fabric.queue_get"), "s")
    m["fabric.queue_put_wait_s"] = (pick("incl_s", "fabric.queue_put"), "s")
    m["fabric.emitted"] = (out.emitted if is_train else 0, "count")
    m["fabric.received"] = (out.received if is_train else 0, "count")
    m["fabric.params_offered"] = (offered, "count")
    m["fabric.params_applied"] = (applied, "count")
    m["fabric.apply_ratio"] = (applied / offered if offered else 0.0, "ratio")

    write = pick("incl_s", "experiments.write_eval")
    m["experiments.aggregate_s"] = (
        m["experiments.self_s"][0] - pick("self_s", "experiments.write_eval"),
        "s")
    m["experiments.write_s"] = (write, "s")

    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    m["trace.spans"] = (n_spans, "count")
    return m


# -- a run -------------------------------------------------------------------------------

def run(name, seed, seconds, trace, sizes=None, expected=None,
        setup_reps=SETUP_REPS, write_spans=True) -> dict:
    """Run one workload; returns metrics, checks and provenance."""
    wl = WORKLOADS[name]
    sizes = dict(SIZES if sizes is None else sizes)
    expected = load_expected() if expected is None else expected
    passes = []
    result = {"workload": name, "seed": seed, "trace": int(trace),
              "sizes": sizes}
    if not trace:
        setup_rounds = []
        deadline = time.perf_counter() + seconds
        while True:
            state = time_setup(wl, sizes, setup_reps, setup_rounds)
            passes.append(run_pass(wl, state, seed, sizes, expected))
            del passes[-1]["output"]   # checked; keeping it would grow the RSS
            if passes[-1]["digests"] != passes[0]["digests"]:
                passes[-1]["problems"].append(
                    f"pass {len(passes)} digests differ from pass 1's")
                passes[-1]["failed"] = passes[-1]["attempted"]
            if passes[-1]["problems"] or len(passes) >= MIN_PASSES and \
                    time.perf_counter() + passes[-1]["wall_s"] > deadline:
                break
        metrics, extra, notes = end_to_end(wl, setup_rounds, passes, sizes)
        result.update(metrics=metrics, extra=extra, notes=notes)
    else:
        t0 = time.perf_counter()
        state = wl.setup(sizes)
        passes.append(run_pass(wl, state, seed, sizes, expected))
        untraced_wall = time.perf_counter() - t0
        tracer = Tracer()
        tracer.install(ts)
        try:
            t0 = time.perf_counter()
            with tracer.span("bench.setup"):
                state = wl.setup(sizes)
            passes.append(run_pass(wl, state, seed, sizes, expected, tracer))
            traced_wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        table = tracer.analyse()
        if write_spans:
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans_{name}.npz")
        metrics = per_layer(table, tracer.counters(), passes[-1],
                            traced_wall, untraced_wall, tracer.n_spans())
        notes = {m: "not exercised by this workload"
                 for m, (v, _) in metrics.items() if v == 0}
        notes["trace.overhead_ratio"] = \
            "traced / untraced wall of setup + one pass"
        extra = {m: metrics.pop(m) for m in MULTI_ACTOR_METRICS}
        result.update(metrics=metrics, extra=extra, table=table, notes=notes)
    result["attempted"] = sum(p["attempted"] for p in passes)
    result["failed"] = sum(p["failed"] for p in passes)
    result["problems"] = [q for p in passes for q in p["problems"]]
    result["digests"] = passes[-1]["digests"]
    result["digest_note"] = passes[-1]["digest_note"]
    result["passes"] = len(passes)
    result["correct"] = result["failed"] == 0 and not result["problems"]
    return result

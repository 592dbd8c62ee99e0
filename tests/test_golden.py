"""Golden digests: fixed-seed episode outputs must stay bit-identical.

Each digest hashes, as `float.hex` text, the travel times, the
per-intersection queue and delay series and the conservation ledger of one
full episode of a classic controller at its default hyperparameters. A
refactor of the simulator or the controllers must leave every digest
unchanged; any change of RNG draw order or of float summation order shows
up here. Criterion 1's ordering rests on a margin of 0.02 s, so a change
that moves these numbers needs its own justification and a re-recording:

    PYTHONPATH=src python tests/test_golden.py

The multi-route digests run the same episodes on single.net with a second,
shorter route from one entry lane, so they also pin the route picks.

The split-lane digests run max-pressure and SOTL on `split_net`, whose lane
in_a carries a movement in each phase, so that the controllers' per-phase
lane groups are pinned on a lane that two phases serve. For SOTL that lane
is red in both phases: each leaves one of its movements red.

The learned-controller digests cover the checkpoint path: a DQN and a DDPG
agent are trained briefly on the bit-reproducible 1-actor fabric, saved,
and evaluated greedily from the checkpoint over several runs.

The checkpoint-bytes digests hash the files of the checkpoint directory
that the same short training writes: `meta.json` and every `.ckpt`, by
name and content, so the saved format stays byte-identical.

The training digests hash the trained weights themselves: every parameter
array of every network with its version, and the update counts. The DQN
case uses a replay ring small enough to evict; the DDPG case trains
batch-norm networks with soft-updated targets. The double.net DQN digest
trains with the default `DqnConfig` and 1200 s episodes, the path the
training benchmark times.

The learning-tune digest hashes every per-seed mean of a short DQN and
DDPG grid search: each config trains, then runs its greedy trials.

The output-file digests hash, by name and bytes, every file that each CLI
command writes for fixed seeds on single.net, so the results files stay
byte-identical. `training_log.csv` is hashed without its wall-clock column.
"""

import hashlib
import importlib.resources as ir
import json
import os

import pytest

from tscbench import cli, fabric
from tscbench.agents import DdpgConfig, DqnConfig
from tscbench.experiments import (GridSpec, evaluate,
                                  make_classic_controllers, tune)
from tscbench.network import load_network, network_from_dict
from tscbench.simulation import DemandProfile, load_demand, run_episode

from conftest import split_net_dict

DATA = ir.files("tscbench") / "data"
SCENARIOS = {"single": ("single.net", "single_asym_demand.json"),
             "double": ("double.net", "double_demand.json")}
CONTROLLERS = ("uniform", "webster", "maxpressure", "sotl")
SEEDS = (0, 1, 2)

# Recorded from the simulator before its per-second loop was optimised.
GOLDEN = {
    ("double", "uniform"): (
        "d96cc0e6824bad4d4e2b", "397d2137759c2595e77c", "3c94037138c94633d2fe"),
    ("double", "webster"): (
        "9ca8c848a2863a1ef444", "54d478c939e477c305b2", "b0c68d7935a50dd2775c"),
    ("double", "maxpressure"): (
        "a9d145586a0365026585", "d0cee4e06b654dcf46c4", "2f52bf0b8da09c6429d4"),
    ("double", "sotl"): (
        "0130729aa93db41aa91a", "b0d3d1a4c46c9fb6a4b1", "c2786d2333ca9c43fb18"),
    ("single", "uniform"): (
        "06095b0ed3cdab7032a0", "2ec27f48c5f68eedd003", "88eeb82a6b79ca27f1ae"),
    ("single", "webster"): (
        "9f04965d635351273735", "4351e857275ab4e0d5b7", "fad7bf999b18279b8a8a"),
    ("single", "maxpressure"): (
        "8400d8802057bb850233", "52e82162ce08f7398401", "9ad4a3df893c2559dd53"),
    ("single", "sotl"): (
        "af600385f1e68cf85c1d", "6ac07a514ce50491a29c", "130fff5422a61ced0806"),
}

# single.net plus a second, shorter route from n_in (turning_net). Recorded
# after route picks moved to a child generator spawned from the episode seed;
# earlier versions drew them from the arrival stream and give other numbers.
GOLDEN_MULTI_ROUTE = {
    "uniform": (
        "f11f23c0a1cdea820d52", "e9436780aacb7c28e3c5", "4eb552b5d84139e70840"),
    "webster": (
        "8b92f55430d1f143606d", "4529dffca18c6f15eb3b", "521953e3e7738afc9c1c"),
    "maxpressure": (
        "370735a4e3fc7149b4fc", "d26c7d6c0a625a5c3909", "f990235325b1572f0b03"),
    "sotl": (
        "5126ca3909fcf89dad31", "08137586ab0892d3cb5e", "243933d8feb05360a51a"),
}

# split_net (conftest) under split_demand(). Max-pressure was recorded before
# the controllers read per-episode lane tables. SOTL was re-recorded when its
# kappa began counting a lane that the current phase serves only in part
# (one of its movements red): until then SOTL held phase 1 for good while
# in_a's head, bound for out_a, blocked the lane, and 20 vehicles of each
# seed were left unfinished.
GOLDEN_SPLIT = {
    "maxpressure": (
        "3e6d27a1368bccfe2faa", "100152d4aaa12cc6527c", "4dd2162b9bf79e58bcbf"),
    "sotl": (
        "a0dbc06a46d76224397a", "7be72dcc91237c085f52", "9952c3f8bed74b5bc4d8"),
}

# Recorded before the checkpoint was loaded once per evaluation.
GOLDEN_LEARNED = {
    "dqn": "ceca32c667f88d53a5af",
    "ddpg": "6dc3b545275443b48024",
}
# DDPG's default batch would not fill in two short episodes.
LEARNED_CONFIGS = {"dqn": DqnConfig(), "ddpg": DdpgConfig(batch_size=4)}

# Checkpoint directory bytes of the GOLDEN_LEARNED training. Recorded before
# the checkpoint reader moved next to its writer.
GOLDEN_CHECKPOINT_BYTES = {
    "dqn": "663060f6edb087a1d641",
    "ddpg": "2ecbc022a6bc8555ec02",
}

# Recorded before the parameters moved into one flat buffer per network.
GOLDEN_TRAINING = {
    "dqn": "db12120565118742fb67",
    "ddpg": "83050e2225673708808e",
}
# 64 replay slots evict within the first episode on single.net.
TRAINING_CONFIGS = {"dqn": DqnConfig(replay_capacity=64),
                    "ddpg": DdpgConfig(batch_size=4)}

# Default DqnConfig, 2 episodes of 1200 s on double.net, seed 0. Recorded
# before the learner update was cut to fewer numpy calls.
GOLDEN_TRAINING_DOUBLE = "b4234c3bbd6fc5cdad92"

# Two DQN configs and one DDPG config on double.net, 3 trials of 600 s,
# each trained for 2 episodes of 600 s. Recorded before learning configs
# and classic configs shared one grid-search path.
GOLDEN_LEARNING_TUNE = "a1526019c9e056b6f313"
LEARNING_TUNE_GRIDS = (("dqn", {"a_repeat": [5, 10]}),
                       ("ddpg", {"g_min,g_max": [[5, 30]]}))

# Every file each command writes, by path under its --out: the first 20
# hex digits of its sha256. Recorded before every writer of the package
# went through one output gate.
GOLDEN_OUTPUT_FILES = {
    "compare": {
        "comparison.csv": "6deea0996f4af9794935",
        "comparison.json": "f4bf0e705f9315406f3a",
    },
    "evaluate": {
        "moe.csv": "523274b35ccb528ff5b5",
        "summary.json": "1444aeb779eb2ad0015f",
        "travel_times.csv": "a2dfe5d7ccd685c7249c",
    },
    "simulate": {
        "moe.csv": "3175cb8593ec38ff2056",
        "summary.json": "2cced47a06644db7f3da",
    },
    "train": {
        "checkpoints/i0_v86.ckpt": "362b15defc197edcec73",
        "checkpoints/meta.json": "0990c44a0a3c484a9683",
        "training_log.csv": "7c2fa1f3bca04b1f1bf3",
    },
    "tune": {
        "ranking.json": "8b336c035bb85da35cdc",
        "trials.csv": "0d2522659423c9c39ebb",
    },
}
SINGLE = ["--net", str(DATA / "single.net"),
          "--demand", str(DATA / "single_asym_demand.json")]
EVAL_ARGS = ["evaluate", *SINGLE, "--runs", "2", "--seed", "5"]
OUTPUT_COMMANDS = {
    "simulate": [["simulate", *SINGLE, "--tsc", "sotl", "--hp", "mu=5",
                  "--seed", "3"]],
    "tune": [["tune", *SINGLE, "--tsc", "uniform", "--grid", "{grid}",
              "--trials", "2", "--seed", "1"]],
    "evaluate": [[*EVAL_ARGS, "--tsc", "maxpressure"]],
    "compare": [[*EVAL_ARGS, "--tsc", "sotl", "--out", "{tmp}/sotl"],
                [*EVAL_ARGS, "--tsc", "uniform", "--out", "{tmp}/uniform"],
                ["compare", "--in", "{tmp}/sotl,{tmp}/uniform"]],
    "train": [["train", *SINGLE, "--tsc", "dqn", "--episodes", "2",
               "--seed", "0"]],
}


def _hasher():
    h = hashlib.sha256()

    def put(*values):
        h.update(" ".join(v.hex() if isinstance(v, float) else str(v)
                          for v in values).encode())
        h.update(b"\n")

    return h, put


def turning_net():
    """single.net with a second route from n_in onto a shorter exit lane,
    so that each route pick changes a travel time."""
    with open(str(DATA / "single.net"), "r", encoding="utf-8") as fh:
        data = json.load(fh)
    data["lanes"]["turn_out"] = {"length_m": 60.0, "speed_mps": 13.9}
    i0 = data["intersections"]["i0"]
    i0["outgoing"].append("turn_out")
    i0["phases"][0]["movements"].append(["n_in", "turn_out"])
    data["routes"].append(["n_in", "turn_out"])
    return network_from_dict(data)


def split_demand():
    """Both entry lanes of split_net for 900 s; in_a starts two routes."""
    return DemandProfile({"in_a": [[0.0, 700.0], [900.0, 700.0]],
                          "in_b": [[0.0, 400.0], [900.0, 400.0]]})


def episode_digest(scenario: str, controller: str, seed: int) -> str:
    if scenario == "single_turn":
        net = turning_net()
        demand = load_demand(str(DATA / SCENARIOS["single"][1]))
    elif scenario == "split":
        net = network_from_dict(split_net_dict())
        demand = split_demand()
    else:
        net_file, demand_file = SCENARIOS[scenario]
        net = load_network(str(DATA / net_file))
        demand = load_demand(str(DATA / demand_file))
    log = run_episode(net, demand, make_classic_controllers(net, controller, {}),
                      seed)
    h, put = _hasher()
    for t, tt in zip(log.exit_times, log.travel_times):
        put(t, tt)
    put(*log.times)
    for iid in log.queue:
        put(iid, *log.queue[iid])
        put(iid, *log.delay[iid])
    put(log.unfinished, log.injected, log.exited, log.blocked)
    return h.hexdigest()[:20]


def learned_training(algo: str, out_dir: str):
    """Train 2 short episodes on single.net and checkpoint them."""
    net = load_network(str(DATA / "single.net"))
    demand = load_demand(str(DATA / "single_asym_demand.json"))
    trained = fabric.train(
        net, demand, algo, 0,
        fabric=fabric.FabricConfig(episode_budget=2, horizon=200.0),
        agent_cfg=LEARNED_CONFIGS[algo], out_dir=out_dir)
    assert sum(trained.update_counts.values()) > 0
    return net, demand, trained


def learned_eval_digest(algo: str, out_dir: str) -> str:
    """Train 2 short episodes, checkpoint, then evaluate 3 greedy runs."""
    net, demand, trained = learned_training(algo, out_dir)
    result = evaluate(algo, {}, net, demand, runs=3,
                      checkpoint_dir=trained.checkpoint_dir)
    h, put = _hasher()
    put(*result.travel_times)
    for iid, rows in result.moe.items():
        for row in rows:
            put(iid, *(row[k] for k in sorted(row)))
    put(result.unfinished)
    return h.hexdigest()[:20]


def checkpoint_bytes_digest(algo: str, out_dir: str) -> str:
    """Hash every file of the checkpoint directory, by name and bytes."""
    ckpt_dir = learned_training(algo, out_dir)[2].checkpoint_dir
    h = hashlib.sha256()
    for name in sorted(os.listdir(ckpt_dir)):
        with open(os.path.join(ckpt_dir, name), "rb") as fh:
            data = fh.read()
        h.update(f"{name} {len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()[:20]


def output_file_digests(command: str, tmp: str) -> dict:
    """Run `command`'s CLI invocations (the last one into `tmp`/out); the
    digest of each file it wrote, by path under its --out."""
    grid = os.path.join(tmp, "grid.json")
    with open(grid, "w", encoding="utf-8") as fh:
        json.dump({"u": [10, 20]}, fh)
    out = os.path.join(tmp, "out")
    for argv in OUTPUT_COMMANDS[command]:
        if "--out" not in argv:
            argv = [*argv, "--out", out]
        argv = [a.format(tmp=tmp, grid=grid) for a in argv]
        assert cli.main(argv) == cli.EXIT_OK
    digests = {}
    for root, _, names in os.walk(out):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                data = fh.read()
            if name == "training_log.csv":  # drop wall_s, the first column
                data = b"".join(line.partition(b",")[2]
                                for line in data.splitlines(keepends=True))
            digests[os.path.relpath(path, out)] = \
                hashlib.sha256(data).hexdigest()[:20]
    return dict(sorted(digests.items()))


def training_digest(algo: str, scenario: str = "single", episodes: int = 3,
                    horizon: float = 600.0, cfg=None) -> str:
    """Train on one bundled scenario; hash the trained weights."""
    net_file, demand_file = SCENARIOS[scenario]
    net = load_network(str(DATA / net_file))
    demand = load_demand(str(DATA / demand_file))
    trained = fabric.train(
        net, demand, algo, 0,
        fabric=fabric.FabricConfig(episode_budget=episodes, horizon=horizon),
        agent_cfg=TRAINING_CONFIGS[algo] if cfg is None else cfg)
    h, put = _hasher()
    for iid in sorted(trained.agents):
        for name, params in trained.agents[iid].to_checkpoint().items():
            put(iid, name, params.version)
            for key, arr in params.arrays():
                put(key, *(float(x) for x in arr.ravel()))
    put(*sorted(trained.update_counts.items()))
    return h.hexdigest()[:20]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("controller", CONTROLLERS)
def test_golden_digest(scenario, controller):
    got = tuple(episode_digest(scenario, controller, s) for s in SEEDS)
    assert got == GOLDEN[(scenario, controller)]


@pytest.mark.parametrize("controller", CONTROLLERS)
def test_golden_multi_route_digest(controller):
    got = tuple(episode_digest("single_turn", controller, s) for s in SEEDS)
    assert got == GOLDEN_MULTI_ROUTE[controller]


@pytest.mark.parametrize("controller", sorted(GOLDEN_SPLIT))
def test_golden_split_lane_digest(controller):
    got = tuple(episode_digest("split", controller, s) for s in SEEDS)
    assert got == GOLDEN_SPLIT[controller]


@pytest.mark.parametrize("algo", sorted(GOLDEN_LEARNED))
def test_golden_learned_eval_digest(algo, tmp_path):
    assert learned_eval_digest(algo, str(tmp_path)) == GOLDEN_LEARNED[algo]


@pytest.mark.parametrize("algo", sorted(GOLDEN_CHECKPOINT_BYTES))
def test_golden_checkpoint_bytes_digest(algo, tmp_path):
    assert checkpoint_bytes_digest(algo, str(tmp_path)) == \
        GOLDEN_CHECKPOINT_BYTES[algo]


@pytest.mark.parametrize("algo", sorted(GOLDEN_TRAINING))
def test_golden_training_digest(algo):
    assert training_digest(algo) == GOLDEN_TRAINING[algo]


def double_training_digest() -> str:
    return training_digest("dqn", "double", episodes=2, horizon=1200.0,
                           cfg=DqnConfig())


@pytest.mark.parametrize("command", sorted(OUTPUT_COMMANDS))
def test_golden_output_files(command, tmp_path):
    assert output_file_digests(command, str(tmp_path)) == \
        GOLDEN_OUTPUT_FILES[command]


def test_golden_training_digest_double_dqn():
    assert double_training_digest() == GOLDEN_TRAINING_DOUBLE


def learning_tune_digest(procs: int = 1) -> str:
    """Tune the learning grids briefly; hash every config's per-seed means."""
    net_file, demand_file = SCENARIOS["double"]
    net = load_network(str(DATA / net_file))
    demand = load_demand(str(DATA / demand_file))
    h, put = _hasher()
    for name, values in LEARNING_TUNE_GRIDS:
        ranked = tune(GridSpec(name, values, trials=3), net, demand,
                      procs=procs, horizon=600.0, train_episodes=2,
                      train_horizon=600.0)
        for r in ranked:
            put(r.config_id, *r.per_seed)
    return h.hexdigest()[:20]


def test_golden_learning_tune_digest():
    assert learning_tune_digest() == GOLDEN_LEARNING_TUNE


def test_golden_learning_tune_digest_in_two_processes():
    # trained in workers, their acting parameters shipped to other workers
    assert learning_tune_digest(procs=2) == GOLDEN_LEARNING_TUNE


if __name__ == "__main__":
    import tempfile
    for algo in sorted(GOLDEN_TRAINING):
        print(f'    "{algo}": "{training_digest(algo)}",')
    print(f'GOLDEN_TRAINING_DOUBLE = "{double_training_digest()}"')
    print(f'GOLDEN_LEARNING_TUNE = "{learning_tune_digest()}"')
    for algo in sorted(GOLDEN_LEARNED):
        with tempfile.TemporaryDirectory() as tmp:
            print(f'    "{algo}": "{learned_eval_digest(algo, tmp)}",')
    for algo in sorted(GOLDEN_CHECKPOINT_BYTES):
        with tempfile.TemporaryDirectory() as tmp:
            print(f'    "{algo}": "{checkpoint_bytes_digest(algo, tmp)}",')
    for command in sorted(OUTPUT_COMMANDS):
        with tempfile.TemporaryDirectory() as tmp:
            print(f'    "{command}": {output_file_digests(command, tmp)},')
    for scenario in sorted(SCENARIOS):
        for controller in CONTROLLERS:
            digests = ", ".join(f'"{episode_digest(scenario, controller, s)}"'
                                for s in SEEDS)
            print(f'    ("{scenario}", "{controller}"): (\n        {digests}),')
    for controller in CONTROLLERS:
        digests = ", ".join(f'"{episode_digest("single_turn", controller, s)}"'
                            for s in SEEDS)
        print(f'    "{controller}": (\n        {digests}),')
    for controller in sorted(GOLDEN_SPLIT):
        digests = ", ".join(f'"{episode_digest("split", controller, s)}"'
                            for s in SEEDS)
        print(f'    "{controller}": (\n        {digests}),')

"""Command-line interface for the traffic-signal-control benchmark suite.

Subcommands: simulate, tune, train, evaluate, compare. Exit codes: 0 on
success, 2 on usage or configuration errors, 3 on runtime failures.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import experiments, fabric
from .experiments import ConfigError, GridSpec
from .network import (load_network, make_out_dir, parse_input, read_input,
                      write_output)
from .simulation import DemandProfile, check_entry_lanes, run_episode

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3


def parse_hp(text: str | None) -> dict:
    """Parse 'k=v[,k=v...]' with numeric coercion (int before float)."""
    hp = {}
    if not text:
        return hp
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ConfigError(f"bad hyperparameter {item!r}, expected k=v")
        key, _, val = item.partition("=")
        key = key.strip()
        val = val.strip()
        if not key or not val:
            raise ConfigError(f"bad hyperparameter {item!r}, expected k=v")
        if key in hp:
            raise ConfigError(f"hyperparameter {key!r} given twice")
        try:
            hp[key] = int(val)
        except ValueError:
            try:
                hp[key] = float(val)
            except ValueError:
                hp[key] = val
    return hp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tscbench",
        description="Adaptive traffic-signal-control benchmark suite")
    sub = parser.add_subparsers(dest="command", required=True)

    def io_args(p, demand=True):
        p.add_argument("--net", required=True, help="network JSON file")
        if demand:
            p.add_argument("--demand", required=True,
                           help="demand profile JSON file")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("simulate", help="run one episode and write MoE logs")
    io_args(p)
    p.add_argument("--tsc", required=True,
                   choices=list(experiments.CONTROLLERS))
    p.add_argument("--hp", default="", help="hyperparameters k=v[,k=v...]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint", default=None,
                   help="checkpoint directory for dqn/ddpg")

    p = sub.add_parser("tune", help="grid search over hyperparameters")
    io_args(p)
    p.add_argument("--tsc", required=True,
                   choices=list(experiments.CONTROLLERS))
    p.add_argument("--grid", default=None,
                   help="JSON grid file; defaults to the built-in grid")
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--procs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train", help="train a learning controller")
    io_args(p)
    p.add_argument("--tsc", required=True, choices=list(fabric.ALGOS))
    p.add_argument("--hp", default="")
    p.add_argument("--actors", type=int, default=1,
                   help="simulating actors; they take turns on episodes, "
                        "and every run repeats bit for bit")
    p.add_argument("--episodes", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("evaluate", help="multi-seed greedy evaluation")
    io_args(p)
    p.add_argument("--tsc", required=True,
                   choices=list(experiments.CONTROLLERS))
    p.add_argument("--hp", default="")
    p.add_argument("--checkpoint", default=None,
                   help="checkpoint directory (required for dqn/ddpg)")
    p.add_argument("--runs", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--procs", type=int, default=1)

    p = sub.add_parser("compare", help="rank previously evaluated controllers")
    p.add_argument("--in", dest="inputs", required=True,
                   help="comma-separated evaluation output directories")
    p.add_argument("--out", required=True)

    return parser


def _load_inputs(args):
    # a demand lane that starts no route is refused before any --out
    net = load_network(args.net)
    return net, parse_input(args.demand, lambda data: check_entry_lanes(
        net, DemandProfile(data)))


def cmd_simulate(args) -> int:
    net, demand = _load_inputs(args)
    hp = parse_hp(args.hp)
    controllers = experiments.controller_factory(net, args.tsc, hp,
                                                 args.checkpoint)(net)
    fabric.check_seed(args.seed)
    make_out_dir(args.out)
    log = run_episode(net, demand, controllers, args.seed)
    write_output(os.path.join(args.out, "summary.json"),
                 {"controller": args.tsc, "hp": hp, "seed": args.seed,
                  **log.summary()})
    write_output(os.path.join(args.out, "moe.csv"), log.csv_rows())
    return EXIT_OK


def cmd_tune(args) -> int:
    net, demand = _load_inputs(args)
    values = read_input(args.grid) if args.grid else \
        experiments.DEFAULT_GRIDS[args.tsc]
    grid = GridSpec(controller=args.tsc, values=values, trials=args.trials,
                    base_seed=args.seed)
    ranked = experiments.tune(grid, net, demand, procs=args.procs,
                              out_dir=args.out)
    best = ranked[0]
    if not math.isfinite(best.score):  # NaN ranks last: all are NaN
        print(f"best config: {best.config_id} (no score: every config had "
              "a trial that finished no trip)")
    else:
        print(f"best config: {best.config_id} "
              f"(mean {best.mu:.2f}s, std {best.sigma:.2f}s)")
    return EXIT_OK


def cmd_train(args) -> int:
    net, demand = _load_inputs(args)
    hp = parse_hp(args.hp)
    cfg = fabric.agent_config(args.tsc, hp)
    result = fabric.train(
        net, demand, args.tsc, args.seed,
        fabric=fabric.FabricConfig(n_actors=args.actors,
                                   episode_budget=args.episodes),
        agent_cfg=cfg, out_dir=args.out)
    total = sum(result.update_counts.values())
    print(f"trained {args.tsc} for {args.episodes} episodes "
          f"({total} updates); checkpoints in {result.checkpoint_dir}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    net, demand = _load_inputs(args)
    hp = parse_hp(args.hp)
    result = experiments.evaluate(
        args.tsc, hp, net, demand, runs=args.runs, base_seed=args.seed,
        checkpoint_dir=args.checkpoint, procs=args.procs, out_dir=args.out)
    box = result.box
    if box is None:
        print("no completed trips; summary flags no_samples")
    else:
        print(f"{args.tsc}: mean travel time {box.mean:.2f}s over "
              f"{box.n} trips ({args.runs} runs)")
    return EXIT_OK


def cmd_compare(args) -> int:
    dirs = [d.strip() for d in args.inputs.split(",") if d.strip()]
    for i, d in enumerate(dirs):
        if os.path.realpath(d) in map(os.path.realpath, dirs[:i]):
            raise ConfigError(f"evaluation {d!r} given twice")
    summaries = [experiments.load_eval_summary(d) for d in dirs]
    rows = experiments.compare(summaries, out_dir=args.out)
    for r in rows:
        mean = "n/a" if r["mean"] is None else f"{r['mean']:.2f}s"
        print(f"{r['controller']}: mean {mean} ({r['samples']} trips)")
    return EXIT_OK


_COMMANDS = {
    "simulate": cmd_simulate,
    "tune": cmd_tune,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:
        # configuration errors, unusable input files and an --out that
        # cannot be made are ValueErrors
        usage = isinstance(exc, ValueError)
        print(f"{'error' if usage else 'runtime failure'}: {exc}",
              file=sys.stderr)
        return EXIT_USAGE if usage else EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

"""Train the two deep-RL controllers and compare them with a fixed plan.

Trains DQN (discrete phase choice) and DDPG (continuous green duration)
from scratch on the single-intersection scenario with asymmetric demand
(600 veh/h north-south vs 60 veh/h east-west), then evaluates the greedy
policies. Both agents should learn to hold the heavy approaches green most
of the time and end up far below the uniform fixed-time baseline on delay.

Takes roughly 10-20 seconds.
"""

import importlib.resources as ir

import numpy as np

from tscbench import fabric
from tscbench.classic import UniformController
from tscbench.experiments import greedy_controllers
from tscbench.network import load_network
from tscbench.simulation import load_demand, run_episode

DATA = ir.files("tscbench") / "data"
EVAL_SEEDS = range(8)


def mean_delay(net, demand, controllers_for_seed):
    vals = []
    for seed in EVAL_SEEDS:
        log = run_episode(net, demand, controllers_for_seed(seed), seed)
        vals.append(np.mean([np.mean(log.delay[iid]) for iid in log.delay]))
    return float(np.mean(vals))


def main():
    net = load_network(str(DATA / "single.net"))
    demand = load_demand(str(DATA / "single_asym_demand.json"))

    baseline = mean_delay(
        net, demand,
        lambda s: {ix.id: UniformController(u=10)
                   for ix in net.intersections})
    print(f"uniform fixed-time baseline: {baseline:7.1f} veh*s mean delay")

    for algo in ("dqn", "ddpg"):
        result = fabric.train(
            net, demand, algo, seed=0,
            fabric=fabric.FabricConfig(episode_budget=200))
        ctrls = greedy_controllers(net, algo, *result.policy())
        learned = mean_delay(net, demand, lambda s, c=ctrls: c)
        print(f"{algo} after 200 training episodes:  {learned:7.1f} veh*s "
              f"({100 * (1 - learned / baseline):.0f}% below the baseline)")


if __name__ == "__main__":
    main()

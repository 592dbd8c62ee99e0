"""Distributed acting with centralized learning.

Runs the training fabric with 3 actor threads and its one learner on the
two-intersection corridor. Each actor simulates its own copy of the network
and puts (state, action, reward, next state) experiences on one bounded
queue. The calling thread is the coordinator: it drains that queue into the
learner, which owns every intersection's replay buffer and trains them
round-robin, and broadcasts fresh parameters back through latest-wins
mailboxes. Actors explore at different
intensities so the replay data covers a wider slice of the state space.

The run prints the delivery ledger afterwards: every emitted experience
must have been ingested exactly once, and each agent's parameter version
must equal the number of gradient updates applied to it.
"""

import importlib.resources as ir

from tscbench import fabric
from tscbench.agents import DqnConfig
from tscbench.network import load_network
from tscbench.simulation import load_demand

DATA = ir.files("tscbench") / "data"


def main():
    net = load_network(str(DATA / "double.net"))
    demand = load_demand(str(DATA / "double_demand.json"))

    cfg = fabric.FabricConfig(n_actors=3, episode_budget=12,
                              queue_capacity=64, horizon=300.0)
    print(f"Training DQN with {cfg.n_actors} actors / 1 learner, "
          f"{cfg.episode_budget} episodes of {cfg.horizon:.0f}s\n")
    result = fabric.train(net, demand, "dqn", seed=0, fabric=cfg,
                          agent_cfg=DqnConfig(a_repeat=10))

    print(f"experiences emitted:  {result.emitted}")
    print(f"experiences ingested: {result.received}")
    assert result.emitted == result.received, "delivery must be exactly-once"
    for iid, agent in sorted(result.agents.items()):
        version = agent.acting_params().version
        updates = result.update_counts[iid]
        assert version == updates
        print(f"intersection {iid}: {updates} updates, "
              f"parameter version {version}")
    print("\nexactly-once delivery and version bookkeeping verified")


if __name__ == "__main__":
    main()

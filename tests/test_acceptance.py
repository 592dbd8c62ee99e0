"""Acceptance suite: qualitative orderings plus exact property checks.

Each criterion prints one PASS line so a full run reads as a checklist.
Runtime budgets are stated for an 8-core desktop and rescaled by the
core count of the machine actually running the suite.
"""

import os
import time

import numpy as np
import pytest

from tscbench import experiments, fabric, nn
from tscbench.agents import DqnConfig, actor_specs, critic_specs, dqn_specs
from tscbench.classic import (MaxPressureController, UniformController,
                              WebsterController, webster_timings)
from tscbench.control import HOLD, Controller, NextPhase, SignalUnit
from tscbench.experiments import DEFAULT_GRIDS, GridSpec
from tscbench.simulation import (GREEN, DemandProfile, Simulation,
                                 run_episode)
from tscbench.stats import box_stats, rank_score

from test_classic import FakePhase, FakeView

# runtime budgets assume 8 cores; scale for the machine actually used
CORES = os.cpu_count() or 1
BUDGET_SCALE = max(1.0, 8.0 / CORES)

CLASSIC = ("uniform", "webster", "maxpressure", "sotl")


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


@pytest.fixture(scope="module")
def classic_pipeline(double_net, double_demand):
    """Tune every non-learning controller, then evaluate each over 32 runs."""
    t0 = time.monotonic()
    tuned = {}
    for name in CLASSIC:
        grid = GridSpec(name, DEFAULT_GRIDS[name], trials=8, base_seed=0)
        tuned[name] = experiments.tune(grid, double_net, double_demand,
                                       procs=CORES)
    evaluated = {}
    for name, ranked in tuned.items():
        evaluated[name] = experiments.evaluate(
            name, ranked[0].hp, double_net, double_demand, runs=32,
            base_seed=0, procs=CORES)
    wall = time.monotonic() - t0
    return tuned, evaluated, wall


class TestCriterion1Ordering:
    def test_max_pressure_is_best(self, classic_pipeline):
        _, evaluated, wall = classic_pipeline
        means = {name: res.box.mean for name, res in evaluated.items()}
        for name in CLASSIC:
            assert means["maxpressure"] <= means[name], means
        budget = 300.0 * BUDGET_SCALE
        assert wall < budget, f"pipeline took {wall:.0f}s > {budget:.0f}s"
        ordering = sorted(means, key=means.get)
        rounded = {k: round(v, 2) for k, v in means.items()}
        report(1, f"mean travel times {rounded}; ordering {ordering}; "
                  f"tune+evaluate pipeline {wall:.0f}s "
                  f"(budget {budget:.0f}s on {CORES} core(s))")


class TestCriterion2Sensitivity:
    def test_sotl_spread_and_worst_quartile(self, classic_pipeline):
        tuned, evaluated, _ = classic_pipeline
        spreads = {}
        for name in ("sotl", "maxpressure"):
            mus = [r.mu for r in tuned[name]]
            spreads[name] = max(mus) - min(mus)
        ratio = spreads["sotl"] / spreads["maxpressure"]
        assert ratio >= 3.0, spreads

        sotl_mus = sorted(r.mu for r in tuned["sotl"])
        worst = sotl_mus[-(len(sotl_mus) // 4):]
        mp_mean = evaluated["maxpressure"].box.mean
        assert all(mu >= 1.5 * mp_mean for mu in worst), (worst, mp_mean)
        report(2, f"config-sensitivity spread ratio {ratio:.2f} (>= 3); "
                  f"worst-quartile SOTL means >= {min(worst):.1f}s vs 1.5x "
                  f"tuned max-pressure {1.5 * mp_mean:.1f}s")


class TestCriterion3Webster:
    def test_hand_example_and_green_sums(self):
        phases = (FakePhase(["a"], ["oa"]), FakePhase(["b"], ["ob"]))
        ctrl = WebsterController(R=10)
        flows = {"a": 0.2 * ctrl.s_sat, "b": 0.3 * ctrl.s_sat}
        C, greens = webster_timings(flows, ctrl, phases)
        assert C == 40.0
        assert greens == [12, 18]

        ctrl = WebsterController()  # default lost time: 5 s per phase
        n_p = len(phases)
        rng = np.random.default_rng(3)
        for _ in range(1000):
            flows = {"a": float(rng.uniform(0, 1700)),
                     "b": float(rng.uniform(0, 1700))}
            C, greens = webster_timings(flows, ctrl, phases)
            assert abs(sum(greens) - (C - 5.0 * n_p)) <= n_p
        report(3, "hand example exact (C=40, greens [12, 18]); integer "
                  "greens within |P| of C-R over 1000 random flow vectors")


class TestCriterion4Pressure:
    def test_brute_force_oracle(self):
        rng = np.random.default_rng(4)
        phases = (FakePhase(["a1", "a2"], ["o1", "o2"]),
                  FakePhase(["b1"], ["o3"]),
                  FakePhase(["c1", "c2"], ["o4", "o5"]))
        lanes = [lid for p in phases for lid in p.incoming + p.outgoing]
        ctrl = MaxPressureController(g_min=5)
        for _ in range(1000):
            counts = {lid: int(rng.integers(0, 40)) for lid in lanes}
            view = FakeView(phases, counts, t_p=int(rng.integers(5, 60)))
            pressures = [sum(counts[lid] for lid in p.incoming)
                         - sum(counts[lid] for lid in p.outgoing)
                         for p in phases]
            expected = pressures.index(max(pressures))
            assert ctrl.decide(view) == NextPhase(expected)
        report(4, "selected phase matches brute-force pressure argmax on "
                  "1000 random states, exact")


class TestCriterion5Gradients:
    @staticmethod
    def check(params, x, l2=0.0, draws_per_layer=20):
        """Worst relative error between backprop and central differences."""
        out, cache = nn.forward(params, x, "train", update_running=False)
        grads = nn.backward(params, cache, np.ones_like(out),
                            nn.AdamState(params), l2=l2)
        rng = np.random.default_rng(0)
        h = 1e-5
        worst = 0.0
        checked = 0
        for li, layer in enumerate(params.layers):
            for key in grads[li]:
                flat = layer[key].ravel()
                idxs = rng.choice(flat.size,
                                  size=min(draws_per_layer, flat.size),
                                  replace=False)
                for i in idxs:
                    orig = flat[i]
                    flat[i] = orig + h
                    up, _ = nn.forward(params, x, "train",
                                       update_running=False)
                    flat[i] = orig - h
                    dn, _ = nn.forward(params, x, "train",
                                       update_running=False)
                    flat[i] = orig
                    num = (up.sum() - dn.sum()) / (2 * h)
                    if l2 and key == "w":
                        num += l2 * orig  # penalty term, analytic in w
                    ana = grads[li][key].ravel()[i]
                    # biases ahead of batch norm have an exactly-zero
                    # gradient; keep float noise out of the relative error
                    denom = max(abs(num), abs(ana), 1e-6)
                    worst = max(worst, abs(num - ana) / denom)
                    checked += 1
        return worst, checked

    def test_all_deep_rl_architectures(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(5)
        state_w = 4  # all layer widths stay <= 16
        cases = [
            (dqn_specs(state_w, 2), state_w, 0.0),
            (actor_specs(state_w), state_w, 0.0),
            (critic_specs(state_w), state_w + 1, 0.01),
        ]
        total_checked = 0
        worst_overall = 0.0
        for specs, width, l2 in cases:
            assert max(s.width for s in specs) <= 16
            params = nn.he_init(specs, width, int(rng.integers(1 << 30)))
            x = rng.normal(size=(8, width))
            worst, checked = self.check(params, x, l2=l2)
            worst_overall = max(worst_overall, worst)
            total_checked += checked
        assert total_checked >= 100
        assert worst_overall <= 1e-4
        wall = time.monotonic() - t0
        budget = 60.0 * BUDGET_SCALE
        assert wall < budget
        report(5, f"max relative gradient error {worst_overall:.2e} over "
                  f"{total_checked} finite-difference draws across the "
                  f"Q-network, actor and critic architectures in {wall:.0f}s")


class RandomPhaseController(Controller):
    """Baseline: requests a uniformly random phase every a_repeat seconds."""

    def __init__(self, seed, a_repeat=10):
        self.rng = np.random.default_rng(seed)
        self.a_repeat = a_repeat

    def decide(self, view):
        if view.t_p < self.a_repeat:
            return HOLD
        return NextPhase(int(self.rng.integers(view.n_phases)))


class TestCriterion6LearningSmoke:
    @staticmethod
    def mean_delay(net, demand, make_controllers, seeds=range(8)):
        vals = []
        for seed in seeds:
            log = run_episode(net, demand, make_controllers(seed), seed)
            vals.append(np.mean([np.mean(log.delay[iid])
                                 for iid in log.delay]))
        return float(np.mean(vals))

    def test_dqn_and_ddpg_beat_baselines(self, single_net, single_demand):
        uniform = self.mean_delay(
            single_net, single_demand,
            lambda s: {ix.id: UniformController(u=10)
                       for ix in single_net.intersections})
        random_pol = self.mean_delay(
            single_net, single_demand,
            lambda s: {ix.id: RandomPhaseController(1000 + s)
                       for ix in single_net.intersections})
        details = []
        for algo in ("dqn", "ddpg"):
            t0 = time.monotonic()
            result = fabric.train(
                single_net, single_demand, algo, seed=0,
                fabric=fabric.FabricConfig(episode_budget=200))
            ctrls = experiments.greedy_controllers(single_net, algo,
                                                   *result.policy())
            learned = self.mean_delay(single_net, single_demand,
                                      lambda s, c=ctrls: c)
            wall = time.monotonic() - t0
            budget = 600.0 * BUDGET_SCALE
            assert learned <= 0.8 * uniform, (algo, learned, uniform)
            assert learned <= 0.6 * random_pol, (algo, learned, random_pol)
            assert wall < budget
            details.append(
                f"{algo} mean delay {learned:.0f} veh*s "
                f"({100 * (1 - learned / uniform):.0f}% below uniform, "
                f"{100 * (1 - learned / random_pol):.0f}% below random) "
                f"in {wall:.0f}s")
        report(6, "; ".join(details))


class TestCriterion7SimulationInvariants:
    def test_invariants_over_random_episodes(self, tiny_net, split_net,
                                             single_net, single_demand):
        rng = np.random.default_rng(7)
        steps_checked = 0
        # split_net's lane in_a has a movement in each phase
        for net in (tiny_net, split_net):
            caps = {lid: lane.jam_capacity for lid, lane in net.lanes.items()}
            for run in range(100):
                rate = float(rng.uniform(100.0, 1200.0))
                u = int(rng.integers(5, 30))
                demand = DemandProfile({"in_a": [[0.0, rate], [200.0, rate]],
                                        "in_b": [[0.0, rate], [200.0, rate]]})
                sim = Simulation(net, demand, seed=run)
                unit = SignalUnit(net, "x", UniformController(u=u), sim)
                for _ in range(260):
                    cmd = unit.advance()
                    crossed = dict(sim.crossed)
                    sim.step({"x": cmd})
                    assert sim.conservation_ok()
                    assert sim.nongreen_crossings == 0
                    if cmd[0] != GREEN:
                        assert sim.crossed == crossed
                    for lid, vehs in sim.lane_vehicles.items():
                        assert len(vehs) <= caps[lid]
                    steps_checked += 1

        # bit-exact seed determinism on the bundled scenario
        mk = lambda: {"i0": UniformController(u=10)}
        a = run_episode(single_net, single_demand, mk(), seed=123)
        b = run_episode(single_net, single_demand, mk(), seed=123)
        assert a.travel_times == b.travel_times
        assert a.queue == b.queue
        assert a.delay == b.delay
        report(7, f"conservation, occupancy caps and red-signal safety hold "
                  f"on {steps_checked} individual steps across 100 random "
                  f"episodes on each of 2 networks, one with a lane split "
                  f"over two phases; repeated seeds reproduce bit-exactly")


class TestCriterion8Fabric:
    def test_stress_runs(self, double_net):
        demand = DemandProfile({lane: [[0.0, 500.0], [60.0, 500.0]]
                                for lane in double_net.entry_lanes})
        total_delivered = 0
        total_updates = 0
        for run in range(50):
            res = fabric.train(
                double_net, demand, "dqn", seed=run,
                fabric=fabric.FabricConfig(n_actors=4, episode_budget=4,
                                           queue_capacity=1,
                                           horizon=60.0),
                agent_cfg=DqnConfig(batch_size=4, a_repeat=5))
            # exactly-once delivery
            assert res.emitted == res.received
            # version monotonicity: acting version equals the update count
            for iid, agent in res.agents.items():
                assert agent.acting_params().version == \
                    res.update_counts[iid]
            total_delivered += res.received
            total_updates += sum(res.update_counts.values())
        assert total_updates > 0
        report(8, f"50 stress runs with 4 actors / 1 learner at queue "
                  f"capacity 1: {total_delivered} experiences delivered "
                  f"exactly once, {total_updates} updates with versions "
                  f"matching update counts, no deadlock")


class TestCriterion9SoftUpdate:
    def test_contraction_and_endpoints(self):
        specs = (nn.LayerSpec(6, "elu", batch_norm=True),
                 nn.LayerSpec(1, "tanh"))
        online = nn.he_init(specs, 4, 1)
        target = nn.he_init(specs, 4, 2)
        tau = 0.005
        diffs = [{k: online.layers[i][k] - target.layers[i][k]
                  for k in target.layers[i]}
                 for i in range(len(target.layers))]
        for k in range(1, 31):
            nn.soft_update(target, online, tau)
            for i, layer in enumerate(target.layers):
                for key in layer:
                    expect = online.layers[i][key] \
                        - (1 - tau) ** k * diffs[i][key]
                    assert np.allclose(layer[key], expect,
                                       atol=1e-9, rtol=0.0)

        copy_t = nn.he_init(specs, 4, 3)
        nn.soft_update(copy_t, online, 1.0)
        assert np.array_equal(copy_t.flat, online.flat)
        frozen = nn.he_init(specs, 4, 4)
        before = frozen.copy()
        nn.soft_update(frozen, online, 0.0)
        assert np.array_equal(frozen.flat, before.flat)
        report(9, "soft update contracts the parameter gap elementwise by "
                  "(1-tau) per step over 30 steps (tol 1e-9); tau=1 copies, "
                  "tau=0 is a no-op")


class TestCriterion10Statistics:
    def test_boxstats_rank_and_parallel_tune(self, tiny_net):
        b = box_stats([1, 2, 3, 4, 100])
        assert (b.median, b.q1, b.q3) == (3, 2, 4)
        assert (b.lower_fence, b.upper_fence) == (-1, 7)
        assert b.outliers == [100.0]

        _, _, score_a = rank_score([90.0, 110.0])    # mean 100, std 10
        _, _, score_b = rank_score([103.0, 107.0])   # mean 105, std 2
        assert score_b == 107.0
        assert score_a == 110.0
        assert score_b < score_a

        demand = DemandProfile({"in_a": [[0.0, 500.0], [300.0, 500.0]],
                                "in_b": [[0.0, 500.0], [300.0, 500.0]]})
        grid = GridSpec("uniform", {"u": [5, 10, 20]}, trials=4)
        r1 = experiments.tune(grid, tiny_net, demand, procs=1)
        r8 = experiments.tune(grid, tiny_net, demand, procs=8)
        assert [r.to_dict() for r in r1] == [r.to_dict() for r in r8]
        report(10, "box statistics hand oracle exact; mean+std ranking "
                   "prefers (105, 2) over (100, 10); grid search identical "
                   "at parallelism 1 and 8")

"""The queue and delay series that `run_episode` sums inside
`Simulation.step` against the step-by-step reference.

`stepwise` keeps the loop that called `collect_moe` after every
`Simulation.step`, and takes the travel times the simulation recorded. On
hand-built, bundled and generated networks both must give the same
`times`, `queue`, `delay` and travel times, bit for bit, including
episodes that take no step, end by draining, or stop at the drain cap with
vehicles left.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import constant_demand
from test_arrival_schedule import build, specs
from tscbench import simulation
from tscbench.control import SignalUnit
from tscbench.experiments import make_classic_controllers
from tscbench.network import network_from_dict
from tscbench.simulation import (ALLRED, DEFAULT_DRAIN_CAP, MoELog,
                                 Simulation, Vehicle, collect_moe,
                                 run_episode)


def stepwise(net, demand, controllers, seed, horizon=None,
             drain=DEFAULT_DRAIN_CAP):
    """run_episode's loop with collect_moe called after every step."""
    horizon = demand.horizon if horizon is None else horizon
    sim = Simulation(net, demand, seed, inject_until=horizon)
    advances = [(ix.id, SignalUnit(net, ix.id, controllers[ix.id],
                                   sim).advance)
                for ix in net.intersections]
    for ctrl in controllers.values():
        ctrl.begin_episode()
    log = MoELog([ix.id for ix in net.intersections])
    while sim.t < horizon or (sim.t < horizon + drain
                              and sim.total_vehicles() > 0):
        sim.step({iid: advance() for iid, advance in advances})
        collect_moe(sim, log)
    log.exit_times, log.travel_times = sim.exit_times, sim.travel_times
    return log, sim


def check_fold(net, demand, name, seed, horizon=None,
               drain=DEFAULT_DRAIN_CAP):
    with mock.patch.object(simulation, "DEFAULT_DRAIN_CAP", drain):
        got = run_episode(net, demand,
                          make_classic_controllers(net, name, {}), seed,
                          horizon=horizon)
    want, sim = stepwise(net, demand, make_classic_controllers(net, name, {}),
                         seed, horizon=horizon, drain=drain)
    assert got.times == want.times
    assert got.queue == want.queue
    # == would let -0.0 pass for 0.0; the digests hash the bits
    assert {k: [x.hex() for x in v] for k, v in got.delay.items()} == \
        {k: [x.hex() for x in v] for k, v in want.delay.items()}
    assert got.exit_times == want.exit_times
    assert got.travel_times == want.travel_times
    assert (got.injected, got.exited, got.blocked, got.unfinished) == \
        (sim.injected, sim.exited, sim.blocked, sim.total_vehicles())
    return got


@pytest.mark.parametrize("name", ["sotl", "maxpressure"])
def test_bundled_networks(name, single_net, single_demand, double_net,
                          double_demand):
    for net, demand in ((single_net, single_demand),
                        (double_net, double_demand)):
        log = check_fold(net, demand, name, 4)
        assert any(any(d) for d in log.delay.values())


@pytest.mark.parametrize("name", ["sotl", "maxpressure"])
@pytest.mark.parametrize("net_fixture", ["tiny_net", "split_net"])
def test_small_networks(name, net_fixture, request):
    net = request.getfixturevalue(net_fixture)
    demand = constant_demand(["in_a", "in_b"], 900.0, horizon=300.0)
    log = check_fold(net, demand, name, 2)
    assert any(log.queue["x"])


def test_zero_step_episode(tiny_net):
    demand = constant_demand(["in_a", "in_b"], 900.0)
    log = check_fold(tiny_net, demand, "sotl", 0, horizon=0.0)
    assert list(log.times) == []
    assert {k: list(v) for k, v in log.queue.items()} == {"x": []}


def test_episode_that_ends_by_draining(tiny_net):
    demand = constant_demand(["in_a", "in_b"], 900.0, horizon=120.0)
    log = check_fold(tiny_net, demand, "maxpressure", 1)
    assert log.unfinished == 0 and 120.0 < log.times[-1] < 120.0 + 600.0


def test_episode_stopped_by_the_drain_cap(split_net):
    # 50 s of drain do not clear two minutes of 900 veh/h per lane
    demand = constant_demand(["in_a", "in_b"], 900.0, horizon=120.0)
    log = check_fold(split_net, demand, "sotl", 0, drain=50.0)
    assert log.unfinished > 0 and log.times[-1] == 170.0


def reorder_incoming(net, orders):
    """`net` with each intersection's incoming lanes listed in the order
    `orders[iid]`."""
    data = net.to_dict()
    for iid, order in orders.items():
        ix = data["intersections"][iid]
        ix["incoming"] = [ix["incoming"][i] for i in order]
    return network_from_dict(data)


@settings(max_examples=30, deadline=None)
@given(spec=specs(), data=st.data())
def test_generated_networks(spec, data):
    net, demand = build(spec)
    net = reorder_incoming(net, {
        ix.id: data.draw(st.permutations(range(len(ix.incoming))))
        for ix in net.intersections})
    drain = data.draw(st.sampled_from([DEFAULT_DRAIN_CAP, 5.0]))
    horizon = data.draw(st.sampled_from([None, 0.0, 1.0, 37.0]))
    if horizon is not None:
        horizon = min(horizon, demand.horizon + drain)
    for name in ("sotl", "maxpressure"):
        check_fold(net, demand, name, spec["seed"], horizon=horizon,
                   drain=drain)


def test_series_off_does_no_moe_work(double_net, double_demand):
    sim_log = []
    real = Simulation.step

    def step(sim, commands):
        sim_log.append(sim._moe_log)
        return real(sim, commands)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Simulation, "step", step)
        run_episode(double_net, double_demand,
                    make_classic_controllers(double_net, "sotl", {}), 0,
                    horizon=60.0, moe_series=False)
    assert sim_log and all(log is None for log in sim_log)


def test_over_capacity_lane_keeps_its_fallback_stop_lines(tiny_net):
    """A lane holding more vehicles than its jam capacity (set by hand) is
    summed and moved whole in the folded pass too."""
    demand = constant_demand(["in_a", "in_b"], 0.0)
    lane = tiny_net.lanes["in_a"]
    n = lane.jam_capacity + 3
    red = {"x": (ALLRED, None)}
    results = []
    for fold in (True, False):
        sim = Simulation(tiny_net, demand, 0)
        sim.step(red)  # the clock leaves 0
        sim.lane_vehicles["in_a"].extend(
            Vehicle(vid, ("in_a", "out_a"), 0.0) for vid in range(n))
        log = MoELog(["x"])
        if fold:
            sim._moe_log = log
        else:
            collect_moe(sim, log)
        sim.step(red)
        results.append((log.times, log.queue, log.delay,
                        [(v.position, v.queued)
                         for v in sim.lane_vehicles["in_a"]]))
    assert results[0] == results[1]
    times, _, delay, vehicles = results[0]
    assert list(times) == [1.0] and list(delay["x"]) == [float(n)]
    # the last vehicle's fallback stop line lies behind the lane start, so
    # it counts as queued where it stands
    assert vehicles[-1] == (0.0, True)
    assert lane.length - lane.spacing * (n - 1) < 0.0

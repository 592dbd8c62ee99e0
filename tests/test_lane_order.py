"""Lane order invariant and the early-exit lane queries.

Every lane list is ordered head first (positions never increase along it),
and the signal unit's `count_sum`, `observe` and `reward_raw` stop scanning
at the first vehicle behind their bound. These tests check the order after
every step of full episodes, and check the queries and `collect_moe`
against full scans.
"""

import functools
import importlib.resources as ir
import math
from unittest import mock

from hypothesis import given, settings, strategies as st

from tscbench.control import Controller, SignalUnit
from tscbench.experiments import make_classic_controllers
from tscbench.network import load_network
from tscbench.simulation import (ALLRED, DemandProfile, MoELog, Simulation,
                                 Vehicle, collect_moe, load_demand,
                                 run_episode, vehicle_delay)

DATA = ir.files("tscbench") / "data"
SCENARIOS = {"single": ("single.net", "single_asym_demand.json"),
             "double": ("double.net", "double_demand.json")}


@functools.cache
def scenario(name):
    net_file, demand_file = SCENARIOS[name]
    return (load_network(str(DATA / net_file)),
            load_demand(str(DATA / demand_file)))


def run_checked(name, controller, seed, check, horizon=None):
    """Run one episode, calling check(sim) after every step."""
    net, demand = scenario(name)
    step = Simulation.step

    def checked_step(sim, *args, **kwargs):
        step(sim, *args, **kwargs)
        check(sim)

    with mock.patch.object(Simulation, "step", checked_step):
        return run_episode(net, demand,
                           make_classic_controllers(net, controller, {}),
                           seed, horizon=horizon)


def assert_head_first(sim):
    for lid, vehs in sim.lane_vehicles.items():
        pos = [v.position for v in vehs]
        assert pos == sorted(pos, reverse=True), (sim.t, lid, pos)


# Full scans: what the queries computed before they stopped early.

def scan_count(sim, lid, bound):
    cut = sim.net.lanes[lid].length - bound
    return sum(1 for v in sim.lane_vehicles[lid] if v.position >= cut)


def scan_queued(sim, lid, bound):
    cut = sim.net.lanes[lid].length - bound
    return sum(1 for v in sim.lane_vehicles[lid]
               if v.queued and v.position >= cut)


def scan_delay(sim, lane_ids, bound):
    total = 0.0
    for lid in lane_ids:
        lane = sim.net.lanes[lid]
        cut = -1.0 if bound is None else lane.length - bound
        for v in sim.lane_vehicles[lid]:
            if v.position >= cut:
                total += vehicle_delay(v, sim.t, lane.speed_limit)
    return total


def scan_cycle_next(sim, ix, current):
    n = len(ix.phases)
    start = 0 if current is None else (current + 1) % n
    for k in range(n):
        p = (start + k) % n
        if any(sim.lane_vehicles[lid] for lid in ix.phases[p].incoming):
            return p
    return None


def test_lanes_stay_head_first_over_full_episodes():
    seen = [0]

    def check(sim):
        assert_head_first(sim)
        seen[0] += sum(len(v) for v in sim.lane_vehicles.values())

    for name, controller in (("single", "maxpressure"), ("double", "sotl")):
        log = run_checked(name, controller, 0, check)
        assert log.injected > 0
    assert seen[0] > 100_000  # the episodes were busy enough to matter


def test_vehicles_beyond_jam_capacity_get_queue_slots(tiny_net):
    # Only a hand-built state can overfill a lane; every vehicle still gets
    # its slot, and those at or behind the entry are queued.
    sim = Simulation(tiny_net, DemandProfile({"in_a": [[0.0, 0.0],
                                                       [60.0, 0.0]]}), 0)
    lane = tiny_net.lanes["in_a"]
    vehs = sim.lane_vehicles["in_a"]
    for i in range(lane.jam_capacity + 3):
        vehs.append(Vehicle(i, ("in_a", "out_a"), 0.0))
    sim.step({"x": (ALLRED, None)})
    assert vehs[0].position == lane.speed_limit
    assert not vehs[0].queued
    assert [v.queued for v in vehs[-4:]] == [True] * 4
    assert [v.position for v in vehs[-4:]] == [lane.spacing, 0.0, 0.0, 0.0]


BOUNDS = st.one_of(st.floats(0.0, 400.0),
                   st.sampled_from([0.0, 7.5, 100.0, 150.0, 300.0, 1e9]))


def unit_at(sim, iid, bound):
    """A signal unit of `iid` on `sim` that observes `bound` meters."""
    cls = type("BoundUnit", (SignalUnit,), {"bound": bound})
    return cls(sim.net, iid, Controller(), sim)


def check_queries(sim, bounds):
    """Every early-exit query of the units of `sim`, their cycle
    successors and the MoE row of `collect_moe`, against full scans."""
    ixs = sim.net.intersections
    row = MoELog([ix.id for ix in ixs])
    collect_moe(sim, row)
    for ix in ixs:
        n_inc = len(ix.incoming)
        for bound in bounds:
            unit = unit_at(sim, ix.id, bound)
            lanes = ix.incoming + ix.outgoing
            for lid in lanes:
                assert unit.count_sum((lid,), bound) == \
                    scan_count(sim, lid, bound)
            assert unit.count_sum(lanes, bound) == \
                sum(scan_count(sim, lid, bound) for lid in lanes)
            state = unit.observe()
            for i, lid in enumerate(ix.incoming):
                cap = sim.capacity_within(lid, bound)
                assert state[i] == min(1.0, scan_count(sim, lid, bound) / cap)
                assert state[n_inc + i] == \
                    min(1.0, scan_queued(sim, lid, bound) / cap)
            assert unit.reward_raw().hex() == \
                (-scan_delay(sim, ix.incoming, bound)).hex()
        for current in range(len(ix.phases)):
            assert unit.cycle_next(current) == \
                scan_cycle_next(sim, ix, current)
        assert list(row.queue[ix.id]) == \
            [sum(scan_queued(sim, lid, math.inf) for lid in ix.incoming)]
        assert row.delay[ix.id][0].hex() == \
            scan_delay(sim, ix.incoming, None).hex()


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(SCENARIOS)),
       controller=st.sampled_from(["uniform", "maxpressure", "sotl"]),
       seed=st.integers(0, 2**31 - 1),
       bounds=st.lists(BOUNDS, min_size=1, max_size=4),
       period=st.integers(17, 61))
def test_early_exit_queries_match_full_scans(name, controller, seed, bounds,
                                             period):
    def check(sim):
        if int(sim.t) % period == 0:
            check_queries(sim, bounds)

    run_checked(name, controller, seed, check, horizon=900.0)

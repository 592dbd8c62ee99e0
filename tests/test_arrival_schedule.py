"""The block-drawn arrival schedule against the per-draw loop it replaced,
and the simulator's invariants on generated corridors.

`Simulation` draws the arrival uniforms of a block of simulated seconds
with one RNG call. `PerDrawSimulation` keeps the loop that drew one
`rng.random()` per entry lane per second, in entry-lane order, before the
rate and capacity checks; its route picks come from the same spawned child
generator. On generated networks and demands both must inject the same
vehicles at the same seconds, block the same arrivals and leave the parent
generator in the same state, whatever the block size.

The generated networks are corridors of one to three intersections with
internal links and, optionally, split lanes. Controlled episodes on them
must conserve vehicles, keep every lane within its jam capacity, carry on
each sink lane (one no intersection controls) only unqueued vehicles on
their route's last leg, cross no stop line on red, never lower a lane's
crossing total, record one travel time per exit, answer every signal-unit
query as a full scan does, and repeat exactly under the same seed.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tscbench import simulation
from tscbench.experiments import make_classic_controllers
from tscbench.network import network_from_dict
from tscbench.simulation import (ALLRED, GREEN, DemandProfile, Simulation,
                                 Vehicle, run_episode)

from conftest import tiny_net_dict
from test_lane_order import check_queries


class PerDrawSimulation(Simulation):
    """Reference: one rng.random() per entry lane per simulated second."""

    def __init__(self, net, demand, seed, inject_until=None):
        # inject_until=0 leaves the block schedule with no second to draw
        super().__init__(net, demand, seed, inject_until=0.0)
        self.ref_until = (demand.horizon if inject_until is None
                          else min(inject_until, demand.horizon))

    def step(self, commands):
        t = self.t
        if t < self.ref_until:
            for entry in self.demand.entry_lanes:
                times, rates = zip(*self.demand.breakpoints[entry])
                rate = float(np.interp(int(t), times, rates))
                draw = self.rng.random()
                if rate <= 0.0 or draw >= rate / 3600.0:
                    continue
                vehs = self.lane_vehicles[entry]
                if len(vehs) >= self.net.lanes[entry].jam_capacity:
                    self.blocked += 1
                    continue
                routes = self.net.routes_from(entry)
                route = (routes[int(self._route_rng.integers(len(routes)))]
                         if len(routes) > 1 else routes[0])
                vehs.append(Vehicle(self._next_vid, route, t))
                self._next_vid += 1
                self.injected += 1
        super().step(commands)


def build(spec):
    """Network and demand of a spec: a corridor of intersections x0, x1,
    ... (spec["n_ix"] of them), where link lane link<m> leads from x<m> to
    x<m+1> and exit lanes out0..out2 leave the last one. Entry lanes in<2m>
    and in<2m+1> enter x<m>; the others enter the last intersection. Entry
    lane i starts one route per exit in spec["outs"][i], through every
    link downstream of it. A movement out of entry lane i is served by
    phase i % 2; a movement out of a link lane, or out of an entry lane
    past the first 2 * n_ix when spec["split"] is set, by the parity of
    its target's number, so such a lane is split over both phases when
    its routes reach exits of both parities."""
    n_ix, n_in = spec["n_ix"], len(spec["caps"])
    lanes = {f"in{i}": {"length_m": 60.0, "speed_mps": 15.0,
                        "jam_capacity": cap}
             for i, cap in enumerate(spec["caps"])}
    lanes.update({f"link{m}": {"length_m": 45.0, "speed_mps": 15.0,
                               "jam_capacity": cap}
                  for m, cap in enumerate(spec["link_caps"])})
    lanes.update({f"out{j}": {"length_m": 30.0, "speed_mps": 15.0}
                  for j in range(3)})
    at = [min(i // 2, n_ix - 1) for i in range(n_in)]
    routes = [[f"in{i}"] + [f"link{m}" for m in range(at[i], n_ix - 1)]
              + [f"out{j}"] for i in range(n_in) for j in spec["outs"][i]]

    def number(lid):  # of a lane; every number has one digit
        return int(lid[-1])

    def phase(lane, target):
        i = number(lane)
        if lane.startswith("in") and not (spec["split"] and i >= 2 * n_ix):
            return i % 2
        return number(target) % 2

    ixs = {f"x{m}": {
        "incoming": [f"in{i}" for i in range(n_in) if at[i] == m]
        + ([f"link{m - 1}"] if m else []),
        "outgoing": [f"link{m}"] if m < n_ix - 1
        else [f"out{j}" for j in range(3)],
        "phases": [{"movements": []}, {"movements": []}]}
        for m in range(n_ix)}
    for route in routes:
        for a, b in zip(route, route[1:]):
            m = at[number(a)] if a.startswith("in") else number(a) + 1
            movements = ixs[f"x{m}"]["phases"][phase(a, b)]["movements"]
            if [a, b] not in movements:
                movements.append([a, b])
    net = network_from_dict({
        "lanes": lanes, "intersections": ixs,
        "routes": [routes[k] for k in spec["route_order"]],
    })
    demand = DemandProfile({f"in{i}": spec["points"][i]
                            for i in spec["demand_lanes"]})
    return net, demand


def command(spec, t):
    """Each intersection shows phase 0, phase 1 and all-red for
    spec["period"] seconds each, x<m> m periods ahead of x0."""
    out = {}
    for m in range(spec["n_ix"]):
        phase = (int(t) // spec["period"] + m) % 3
        out[f"x{m}"] = (ALLRED, None) if phase == 2 else (GREEN, phase)
    return out


def record_vehicles(sim, vehicles):
    """Make `sim` put (route, entry time) into `vehicles`, by vehicle id, for
    each vehicle that exits, so that one leaving in the step it enters is
    seen too; the caller adds those still on a lane."""
    exit_vehicle = sim._exit_vehicle

    def recorded(v):
        vehicles[v.id] = (v.route, v.entry_time)
        exit_vehicle(v)

    sim._exit_vehicle = recorded


def run(cls, spec):
    """Step a simulation past its last arrival second; returns everything
    that must agree between the schedule and the reference."""
    net, demand = build(spec)
    sim = cls(net, demand, spec["seed"], inject_until=spec["inject_until"])
    until = (demand.horizon if spec["inject_until"] is None
             else min(spec["inject_until"], demand.horizon))
    vehicles, lanes_after = {}, []
    record_vehicles(sim, vehicles)
    for _ in range(math.ceil(until) + 3):
        sim.step(command(spec, sim.t))
        assert sim.conservation_ok()
        for vehs in sim.lane_vehicles.values():
            for v in vehs:
                vehicles[v.id] = (v.route, v.entry_time)
        lanes_after.append({lid: [v.id for v in vehs]
                            for lid, vehs in sim.lane_vehicles.items()})
    injections = {}
    for vid in sorted(vehicles):
        route, entry_time = vehicles[vid]
        injections.setdefault(route[0], []).append(entry_time)
    return {"vehicles": vehicles, "injections": injections,
            "lanes_after": lanes_after, "injected": sim.injected,
            "blocked": sim.blocked, "rng": sim.rng.bit_generator.state,
            "route_rng": sim._route_rng.bit_generator.state}


def check_against_reference(spec, block=simulation._ARRIVAL_BLOCK):
    with mock.patch.object(simulation, "_ARRIVAL_BLOCK", block):
        got = run(Simulation, spec)
        again = run(Simulation, spec)
    want = run(PerDrawSimulation, spec)
    assert sorted(got["vehicles"]) == list(range(got["injected"]))
    for key in want:
        assert got[key] == want[key], key
    assert again == got  # seed determinism
    return got


RATES = st.sampled_from([0.0, 0.0, 90.0, 900.0, 2500.0, 3600.0])


@st.composite
def specs(draw):
    n_ix = draw(st.integers(1, 3))
    n_in = draw(st.integers(2 * n_ix, 2 * n_ix + 2))
    outs = [draw(st.lists(st.integers(0, 2), min_size=1, max_size=3,
                          unique=True)) for _ in range(n_in)]
    n_routes = sum(len(o) for o in outs)
    horizon = draw(st.floats(1.0, 800.0))
    points = [draw(st.lists(st.tuples(st.sampled_from([0.0, 40.0, 300.0]),
                                      RATES), max_size=3))
              + [(horizon, draw(RATES))] for _ in range(n_in)]
    lanes = draw(st.permutations(range(n_in)))
    return {
        "n_ix": n_ix,
        "caps": [draw(st.sampled_from([1, 2, 3, 20])) for _ in range(n_in)],
        "link_caps": [draw(st.sampled_from([1, 2, 6]))
                      for _ in range(n_ix - 1)],
        "split": draw(st.booleans()),
        "outs": outs,
        "route_order": draw(st.permutations(range(n_routes))),
        "points": points,
        "demand_lanes": lanes[:draw(st.integers(1, n_in))],
        "inject_until": draw(st.one_of(st.none(), st.floats(0.5, 900.0))),
        "period": draw(st.integers(1, 40)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@settings(max_examples=60, deadline=None)
@given(spec=specs(), block=st.sampled_from([1, 7, 256]))
def test_schedule_matches_per_draw_reference(spec, block):
    check_against_reference(spec, block)


# Every entry lane blocks at one vehicle and two start three routes; the
# demand mixes zero segments with saturated ones and injection stops at a
# non-integer second short of the demand horizon, after several blocks.
SPEC = {
    "n_ix": 1,
    "caps": [1, 1, 3, 20],
    "link_caps": [],
    "split": False,
    "outs": [[0, 1, 2], [2], [1], [0, 2]],
    "route_order": [6, 0, 3, 1, 5, 4, 2],
    "points": [[(0.0, 3600.0), (200.0, 0.0), (400.0, 0.0), (1100.0, 900.0)],
               [(0.0, 0.0), (1100.0, 0.0)],
               [(0.0, 2500.0), (1100.0, 2500.0)],
               [(0.0, 90.0), (600.0, 3600.0), (1100.0, 90.0)]],
    "demand_lanes": [3, 0, 1, 2],
    "inject_until": 1000.5,
    "period": 17,
    "seed": 12345,
}


def test_schedule_crosses_blocks_and_blocks_lanes():
    got = check_against_reference(SPEC)
    assert math.ceil(SPEC["inject_until"]) > 3 * simulation._ARRIVAL_BLOCK
    assert got["blocked"] > 0
    last = max(t for ts in got["injections"].values() for t in ts)
    assert 3 * simulation._ARRIVAL_BLOCK < last <= 1000.0
    assert not any(t % 1 for ts in got["injections"].values() for t in ts)
    routes = {route for route, _ in got["vehicles"].values()
              if route[0] == "in0"}
    assert len(routes) == 3


def test_routes_do_not_depend_on_block_size():
    results = [check_against_reference(SPEC, block) for block in (1, 5, 300)]
    assert all(r["vehicles"] == results[0]["vehicles"] for r in results)


def test_vehicle_leaving_in_its_entry_step_is_recorded():
    # a route of one sink lane shorter than a second of travel: its vehicle
    # enters in step (a) and exits in step (b) of the same step
    data = tiny_net_dict()
    data["lanes"]["short"] = {"length_m": 10.0, "speed_mps": 15.0}
    data["routes"].append(["short"])
    demand = DemandProfile({"short": [[0.0, 3600.0], [5.0, 3600.0]]})
    sim = Simulation(network_from_dict(data), demand, 0)
    vehicles = {}
    record_vehicles(sim, vehicles)
    sim.step({"x": (ALLRED, None)})
    sim.step({"x": (ALLRED, None)})
    assert vehicles == {0: (("short",), 0.0), 1: (("short",), 1.0)}
    assert sim.total_vehicles() == 0
    assert list(zip(sim.exit_times, sim.travel_times)) == \
        [(1.0, 1.0), (2.0, 1.0)]


def test_no_draws_once_injection_ends():
    net, demand = build(SPEC)
    sim = Simulation(net, demand, 0, inject_until=10.0)
    for _ in range(10):
        sim.step(command(SPEC, sim.t))
    state = sim.rng.bit_generator.state
    for _ in range(5):
        sim.step(command(SPEC, sim.t))
    assert sim.rng.bit_generator.state == state
    ref = PerDrawSimulation(net, demand, 0, inject_until=10.0)
    for _ in range(10):
        ref.step(command(SPEC, ref.t))
    assert ref.rng.bit_generator.state == state


def run_audited(spec, name, drain):
    """One episode of classic controller `name` on the spec's corridor,
    checking the invariants after every step, with a drain cap of `drain`
    seconds; returns what a second run with the same seed must repeat."""
    net, demand = build(spec)
    step = Simulation.step
    bounds = (10.0, 30.0, 50.0, 150.0)
    controlled = {lid for ix in net.intersections for lid in ix.incoming}
    steps = [0]

    def audited(sim, commands):
        crossed = dict(sim.crossed)
        step(sim, commands)
        assert sim.conservation_ok()
        assert sim.crossed.keys() == crossed.keys()
        assert all(sim.crossed[lid] >= n for lid, n in crossed.items())
        assert len(sim.exit_times) == len(sim.travel_times) == sim.exited
        for lid, vehs in sim.lane_vehicles.items():
            assert len(vehs) <= net.lanes[lid].jam_capacity, (sim.t, lid)
            if lid not in controlled:  # a sink lane: last legs only
                assert all(v.leg == len(v.route) - 1 and not v.queued
                           for v in vehs), (sim.t, lid)
        assert sim.nongreen_crossings == 0
        check_queries(sim, bounds)
        steps[0] += 1

    with mock.patch.object(Simulation, "step", audited), \
            mock.patch.object(simulation, "DEFAULT_DRAIN_CAP", drain):
        log = run_episode(net, demand, make_classic_controllers(net, name, {}),
                          spec["seed"])
    assert steps[0] == len(log.times) > 0
    return (log.exit_times, log.travel_times, log.queue,
            {iid: [d.hex() for d in ds] for iid, ds in log.delay.items()},
            log.summary())


# Three intersections; link1 into x2 and the extra entry lane in6 are split
# over both phases, and link0 holds one vehicle.
CORRIDOR = {
    "n_ix": 3,
    "caps": [3, 20, 2, 20, 3, 20, 20],
    "link_caps": [1, 6],
    "split": True,
    "outs": [[0, 1], [2], [1], [0], [0, 1, 2], [1], [0, 1]],
    "route_order": list(range(11)),
    "points": [[(0.0, 900.0), (300.0, 900.0)]] * 7,
    "demand_lanes": list(range(7)),
    "inject_until": None,
    "period": 9,
    "seed": 7,
}


@pytest.mark.parametrize("name", ["uniform", "maxpressure", "sotl"])
def test_corridor_invariants(name):
    net, _ = build(CORRIDOR)
    split = [lid for ix in net.intersections for lid in ix.incoming
             if sum(lid in p.incoming for p in ix.phases) > 1]
    assert split == ["in6", "link1"]
    got = run_audited(CORRIDOR, name, drain=120.0)
    assert run_audited(CORRIDOR, name, drain=120.0) == got
    assert got[4]["exited"] > 100


@settings(max_examples=25, deadline=None)
@given(spec=specs(), name=st.sampled_from(["uniform", "maxpressure", "sotl"]))
def test_generated_corridor_invariants(spec, name):
    got = run_audited(spec, name, drain=60.0)
    assert run_audited(spec, name, drain=60.0) == got

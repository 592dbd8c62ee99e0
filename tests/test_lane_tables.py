"""The signal unit's per-episode lane tables against per-lane full scans.

A `SignalUnit` answers controllers from tables it builds once per episode:
red-lane groups per phase, a (lane, cut) table per lane group and bound,
and an observation table. Here random phase commands
drive episodes on the hand-built nets, the bundled nets and generated
networks, and after every step each grouped count, the SOTL and
max-pressure quantities, `observe`, `reward_raw`, `cycle_next` and
`any_incoming_vehicle` must equal what full scans of the lanes give.
"""

import functools
import importlib.resources as ir
import math
import random

import numpy as np
from hypothesis import given, settings, strategies as st

from tscbench.classic import SotlController, phase_pressure
from tscbench.control import HOLD, Controller, NextPhase, SignalUnit
from tscbench.experiments import DEFAULT_GRIDS
from tscbench.network import load_network, network_from_dict
from tscbench.simulation import GREEN, Simulation, load_demand

from conftest import constant_demand, split_net_dict, tiny_net_dict
from test_arrival_schedule import build, specs
from test_lane_order import (scan_count, scan_cycle_next, scan_delay,
                             scan_queued)

DATA = ir.files("tscbench") / "data"
OMEGAS = DEFAULT_GRIDS["sotl"]["omega"]
EVERYTHING = math.inf  # a bound beyond every lane: all its vehicles


@functools.cache
def bundled(name):
    return (load_network(str(DATA / f"{name}.net")),
            load_demand(str(DATA / {"single": "single_asym_demand.json",
                                    "double": "double_demand.json"}[name])))


def hand_built(name, rate):
    data = tiny_net_dict() if name == "tiny" else split_net_dict()
    net = network_from_dict(data)
    return net, constant_demand(net.entry_lanes, rate)


def bounds(sim, ix):
    """Bounds below, at and above each lane length, plus SOTL's omegas."""
    out = set(OMEGAS) | {EVERYTHING, SignalUnit.bound}
    for lid in ix.incoming + ix.outgoing:
        lane = sim.net.lanes[lid]
        out |= {lane.length / 2, lane.length, lane.length + 1.0}
    return sorted(out)


def ref_sum(sim, lanes, bound):
    return sum(scan_count(sim, lid, bound) for lid in lanes)


def ref_red(ix, current):
    """The incoming lanes that phase `current` does not serve whole: those
    with no green movement in it, or with a movement it leaves red."""
    green = () if current is None else ix.phases[current].green_movements
    movements = [m for q in ix.phases for m in q.green_movements]
    return tuple(lid for lid in ix.incoming
                 if not any(a == lid for a, _ in green)
                 or any(m[0] == lid and m not in green for m in movements))


def ref_observe(sim, ix, current, bound):
    n_inc = len(ix.incoming)
    out = np.zeros(2 * n_inc + len(ix.phases) + 1)
    for i, lid in enumerate(ix.incoming):
        cap = sim.capacity_within(lid, bound)
        out[i] = min(1.0, scan_count(sim, lid, bound) / cap)
        out[n_inc + i] = min(1.0, scan_queued(sim, lid, bound) / cap)
    out[2 * n_inc + (len(ix.phases) if current is None else current)] = 1.0
    return out


class RefSotl:
    """SOTL's kappa and decision from per-lane counts."""

    def __init__(self, ctrl):
        self.ctrl = ctrl
        self.kappa = 0.0

    def tick(self, sim, ix, current):
        for lid in ref_red(ix, current):
            self.kappa += scan_count(sim, lid, self.ctrl.omega)

    def decide(self, sim, ix, current, t_p):
        c = self.ctrl
        if t_p <= c.g_min:
            return HOLD
        n = ref_sum(sim, ix.phases[current].incoming, c.omega)
        if (n > c.mu or n == 0) and self.kappa > c.theta:
            self.kappa = 0.0
            return NextPhase((current + 1) % len(ix.phases))
        return HOLD


def check_unit(unit, sotl, ref, split):
    """Compare everything the unit answers from tables; add to `split` each
    bound that separated the incoming vehicles into counted and not."""
    sim, ix = unit.sim, unit.intersection
    current = unit.phase if unit.kind == GREEN else None
    assert unit.current_phase == current
    for b in bounds(sim, ix):
        if 0 < ref_sum(sim, ix.incoming, b) < \
                ref_sum(sim, ix.incoming, EVERYTHING):
            split.add(b)
        assert unit.count_sum(unit.red_in[current], b) == \
            ref_sum(sim, ref_red(ix, current), b)
        for p, phase in enumerate(ix.phases):
            for lanes in (phase.incoming, unit.red_in[p], phase.outgoing):
                assert unit.count_sum(lanes, b) == ref_sum(sim, lanes, b)
            assert unit.red_in[p] == ref_red(ix, p)
        assert unit.count_sum(unit.red_in[None], b) == \
            ref_sum(sim, ix.incoming, b)
    for phase in ix.phases:
        assert phase_pressure(unit, phase) == \
            ref_sum(sim, phase.incoming, unit.bound) \
            - ref_sum(sim, phase.outgoing, unit.bound)
    sotl.tick(unit)
    ref.tick(sim, ix, current)
    assert sotl.kappa == ref.kappa
    if current is not None:
        assert sotl.decide(unit) == ref.decide(sim, ix, current, unit.t_p)
        assert sotl.kappa == ref.kappa
    for force in (False, True):
        got = unit.observe(force_all_red=force)
        want = ref_observe(sim, ix, None if force else current, unit.bound)
        assert np.array_equal(got, want), (sim.t, force, got, want)
    assert unit.reward_raw() == -scan_delay(sim, ix.incoming, unit.bound)
    for c in range(len(ix.phases)):
        assert unit.cycle_next(c) == scan_cycle_next(sim, ix, c)
    # no argument (or None) continues from the last green shown
    assert unit.cycle_next() == scan_cycle_next(sim, ix, unit.phase)
    assert unit.any_incoming_vehicle() == \
        (ref_sum(sim, ix.incoming, EVERYTHING) > 0)


class RandomSwitch(Controller):
    """With probability `switch`, requests a random phase or idle."""

    def __init__(self, rng, switch):
        self.rng = rng
        self.switch = switch

    def decide(self, unit):
        if self.rng.random() < self.switch:
            return NextPhase(self.rng.choice(
                [None] + list(range(unit.n_phases))))
        return HOLD


def drive(net, demand, seed, steps, switch, omega, g_min):
    """Random phase commands through each unit's sequencer, checking the
    tables (and a SOTL controller reading them) after every step; returns
    the bounds that split a lane group."""
    sim = Simulation(net, demand, seed)
    split = set()
    rng = random.Random(seed)
    units, checks = [], []
    for ix in net.intersections:
        sotl = SotlController(g_min=g_min, theta=rng.choice([1.0, 50.0]),
                              omega=omega, mu=rng.choice([1, 3]))
        units.append(SignalUnit(net, ix.id, RandomSwitch(rng, switch), sim))
        checks.append((sotl, RefSotl(sotl)))
    for _ in range(steps):
        commands = {}
        for unit, (sotl, ref) in zip(units, checks):
            check_unit(unit, sotl, ref, split)
            commands[unit.iid] = unit.advance()
        sim.step(commands)
    return split


RUN = dict(seed=st.integers(0, 2**16), steps=st.integers(100, 500),
           switch=st.sampled_from([0.02, 0.1, 0.5]),
           omega=st.sampled_from(OMEGAS + [7.5, 150.0]),
           g_min=st.integers(1, 12))


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(["tiny", "split"]),
       rate=st.sampled_from([300.0, 900.0, 2400.0]), **RUN)
def test_tables_on_hand_built_nets(name, rate, seed, steps, switch, omega,
                                   g_min):
    net, demand = hand_built(name, rate)
    drive(net, demand, seed, steps, switch, omega, g_min)


@settings(max_examples=15, deadline=None)
@given(name=st.sampled_from(["single", "double"]), **RUN)
def test_tables_on_bundled_nets(name, seed, steps, switch, omega, g_min):
    net, demand = bundled(name)
    drive(net, demand, seed, steps, switch, omega, g_min)


@settings(max_examples=25, deadline=None)
@given(spec=specs(), **RUN)
def test_tables_on_generated_nets(spec, seed, steps, switch, omega, g_min):
    net, demand = build(spec)
    drive(net, demand, seed, steps, switch, omega, g_min)


def test_saturated_episode_splits_every_short_bound():
    """In a saturated run on split_net every bound shorter than the lanes
    has vehicles on both sides of it at some step, so the tables cannot
    agree with the per-lane counts by accident."""
    net, demand = hand_built("split", 2400.0)
    split = drive(net, demand, 3, 600, 0.05, OMEGAS[0], 5)
    sim = Simulation(net, demand, 0)
    short = {b for b in bounds(sim, net.intersections[0]) if b < 150.0}
    assert short and short <= split

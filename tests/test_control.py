"""Sequencer, observation, reward, cycle-successor, signal-unit and
hyperparameter-contract tests."""

import collections
import dataclasses
import typing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tscbench import experiments, fabric
from tscbench.agents import DqnConfig
from tscbench.control import (ALLRED_TIME, HOLD, YELLOW_TIME, Controller,
                              NextPhase, RewardNormalizer, SignalUnit,
                              configure, state_width)
from tscbench.network import NetworkModel
from tscbench.simulation import (ALLRED, GREEN, YELLOW, DemandProfile,
                                 Simulation, Vehicle, run_episode)

from conftest import constant_demand


def make_sim(net, seed=0):
    rates = {net.entry_lanes[0]: [[0.0, 0.0], [600.0, 0.0]]}
    return Simulation(net, DemandProfile(rates), seed)


class Scripted(Controller):
    """Returns the decisions of `script` in turn, then HOLD."""

    def __init__(self, script=(), start_idle=False):
        self.script = iter(script)
        self.start_idle = start_idle

    def decide(self, unit):
        return next(self.script, HOLD)


def make_unit(sim, green, bound=None):
    """The unit of single.net's i0 showing green `green` (None: idle in
    all-red), reached through `advance`; `bound` overrides the unit's
    observation bound."""
    cls = SignalUnit if bound is None else \
        type("NearUnit", (SignalUnit,), {"bound": bound})
    unit = cls(sim.net, "i0", Scripted([NextPhase(green)], start_idle=True),
               sim)
    assert unit.advance() == ((ALLRED, None) if green is None
                              else (GREEN, green))
    return unit


# -- the sequencer as a free function: the reference `advance` must match ----

class RefSequencer:
    __slots__ = ("kind", "phase", "time_in", "pending", "t_p", "idle",
                 "green")

    def __init__(self, start_green=0):
        self.idle = start_green is None  # all-red with no green pending
        self.kind = ALLRED if self.idle else GREEN
        self.phase = start_green
        self.green = None if self.idle else (GREEN, start_green)
        self.time_in = self.t_p = 0
        self.pending = None

    @property
    def in_interphase(self):
        return self.kind == YELLOW or (self.kind == ALLRED and not self.idle)


def ref_advance(seq, decision):
    """One second; the indication shown. During a clearance callers pass
    HOLD."""
    kind = seq.kind
    if kind == GREEN:
        if not isinstance(decision, NextPhase):
            seq.t_p += 1
            return seq.green
        if decision.phase == seq.phase:
            seq.t_p = 1
            return seq.green
        seq.kind, seq.pending, seq.time_in = YELLOW, decision.phase, 1
        return (YELLOW, seq.phase)
    if kind == YELLOW:
        seq.time_in += 1
        if seq.time_in >= YELLOW_TIME:
            seq.kind, seq.time_in = ALLRED, 0
        return (YELLOW, seq.phase)
    if not seq.idle:  # all-red clearance
        seq.time_in += 1
        if seq.time_in >= ALLRED_TIME:
            if seq.pending is None:
                seq.idle = True
            else:
                seq.kind, seq.phase, seq.t_p = GREEN, seq.pending, 0
                seq.green, seq.pending = (GREEN, seq.phase), None
            seq.time_in = 0
    elif isinstance(decision, NextPhase) and decision.phase is not None:
        seq.kind, seq.phase, seq.idle, seq.t_p = GREEN, decision.phase, \
            False, 1
        seq.green = (GREEN, seq.phase)
        return seq.green
    return (ALLRED, None)


DECISION = st.one_of(st.just(HOLD),
                     st.builds(NextPhase, st.sampled_from([None, 0, 1])))


@settings(max_examples=200, deadline=None)
@given(script=st.lists(DECISION, max_size=80), start_idle=st.booleans(),
       tail=st.integers(0, 10))
def test_advance_matches_reference_sequencer(single_net, script, start_idle,
                                             tail):
    unit = SignalUnit(single_net, "i0", Scripted(script, start_idle),
                      make_sim(single_net))
    ref = RefSequencer(None if start_idle else 0)
    ref_script = iter(script)
    # a decision second and at most one clearance per decision, then more
    per_decision = 1 + YELLOW_TIME + ALLRED_TIME
    for t in range(per_decision * (len(script) + 1) + tail):
        decision = HOLD if ref.in_interphase else next(ref_script, HOLD)
        want = ref_advance(ref, decision)
        assert unit.advance() == want, t
        assert unit.t_p == ref.t_p, t
        assert unit.is_idle == ref.idle, t
        assert unit.current_phase == \
            (ref.phase if ref.kind == GREEN else None), t
    # both read the whole script
    assert next(unit.controller.script, None) is next(ref_script, None) \
        is None


def run(unit, seconds):
    return [unit.advance() for _ in range(seconds)]


class TestSequencer:
    def unit(self, single_net, script, start_idle=False):
        return SignalUnit(single_net, "i0", Scripted(script, start_idle),
                          make_sim(single_net))

    def test_green_to_green_takes_five_seconds(self, single_net):
        # decision at t -> 2 s yellow + 3 s all-red -> green B shown at t+5
        unit = self.unit(single_net, [NextPhase(1)])
        shown = run(unit, 6)
        kinds = [s[0] for s in shown]
        assert kinds == [YELLOW, YELLOW, ALLRED, ALLRED, ALLRED, GREEN]
        assert shown[-1] == (GREEN, 1)
        assert unit.t_p == 1

    def test_hold_accumulates_t_p(self, single_net):
        unit = self.unit(single_net, [])
        for k in range(1, 6):
            assert unit.advance() == (GREEN, 0)
            assert unit.t_p == k

    def test_same_phase_restarts_green_interval(self, single_net):
        unit = self.unit(single_net, [HOLD] * 10 + [NextPhase(0)])
        run(unit, 10)
        assert unit.t_p == 10
        assert unit.advance() == (GREEN, 0)
        assert unit.t_p == 1  # no interphase, but the interval restarts

    def test_next_phase_none_goes_idle(self, single_net):
        unit = self.unit(single_net, [NextPhase(None)])
        shown = run(unit, 5)
        assert [s[0] for s in shown] == [YELLOW, YELLOW, ALLRED, ALLRED,
                                         ALLRED]
        assert unit.is_idle and unit.current_phase is None
        assert unit.advance() == (ALLRED, None)
        assert unit.is_idle

    def test_idle_green_is_immediate(self, single_net):
        unit = self.unit(single_net, [HOLD, NextPhase(1)], start_idle=True)
        assert unit.is_idle
        assert unit.advance() == (ALLRED, None)
        assert unit.advance() == (GREEN, 1)
        assert unit.t_p == 1 and not unit.is_idle

    def test_clearance_does_not_consult_the_controller(self, single_net):
        # the controller is asked at the switch and at the new green only
        unit = self.unit(single_net, [NextPhase(1)])
        asked = []
        decide = unit.controller.decide
        unit.controller.decide = lambda u: asked.append(u.now) or decide(u)
        run(unit, 6)
        assert len(asked) == 2
        assert unit.current_phase == 1 and not unit.is_idle
        idle = self.unit(single_net, [], start_idle=True)
        idle.controller.decide = lambda u: asked.append(u.now) or HOLD
        asked.clear()
        run(idle, 3)
        assert len(asked) == 3  # idle is not a clearance: asked each second


class TestObservation:
    def test_empty_all_red(self, single_net):
        sim = make_sim(single_net)
        s = make_unit(sim, None).observe()
        assert s.shape == (11,)
        assert np.all(s[:8] == 0.0)
        assert s[10] == 1.0 and np.all(s[8:10] == 0.0)

    def test_density_and_queue_fractions(self, single_net):
        # 5 vehicles, 3 queued on a jam-capacity-20 lane -> 0.25 and 0.15
        sim = make_sim(single_net)
        lane = single_net.lanes["n_in"]
        for i in range(5):
            v = Vehicle(i, ("n_in", "s_out"), 0.0)
            v.position = lane.length - lane.spacing * i
            v.queued = i < 3
            sim.lane_vehicles["n_in"].append(v)
        s = make_unit(sim, 0).observe()
        assert s[0] == pytest.approx(5 / 20)
        assert s[4] == pytest.approx(3 / 20)
        assert s[8] == 1.0 and s[9] == 0.0 and s[10] == 0.0

    def test_force_all_red_one_hot(self, single_net):
        sim = make_sim(single_net)
        s = make_unit(sim, 1).observe(force_all_red=True)
        assert s[10] == 1.0 and s[8] == 0.0 and s[9] == 0.0

    def test_values_clamped(self, single_net):
        sim = make_sim(single_net)
        lane = single_net.lanes["n_in"]
        for i in range(lane.jam_capacity):
            v = Vehicle(i, ("n_in", "s_out"), 0.0)
            v.position = lane.length - lane.spacing * i
            v.queued = True
            sim.lane_vehicles["n_in"].append(v)
        s = make_unit(sim, 0, bound=75.0).observe()
        assert 0.0 <= s[0] <= 1.0 and 0.0 <= s[4] <= 1.0

    def test_state_width(self, single_net, double_net):
        assert state_width(single_net, "i0") == 2 * 4 + 2 + 1 == 11
        for ix in double_net.intersections:
            w = state_width(double_net, ix.id)
            assert w == 2 * len(ix.incoming) + len(ix.phases) + 1


class TestReward:
    def test_normalizer_oracle(self):
        # delays {2.0, 3.5} with |r_min| = 11 -> -5.5/11 = -0.5
        norm = RewardNormalizer()
        norm.normalize(-11.0)
        assert norm.normalize(-(2.0 + 3.5)) == pytest.approx(-0.5)

    def test_first_nonzero_is_minus_one(self):
        norm = RewardNormalizer()
        assert norm.normalize(0.0) == 0.0
        assert norm.normalize(-7.25) == -1.0
        assert norm.normalize(-7.25 / 2) == pytest.approx(-0.5)

    def test_running_max_persists(self):
        norm = RewardNormalizer()
        norm.normalize(-4.0)
        norm.normalize(-16.0)
        assert norm.r_min == 16.0
        assert norm.normalize(-8.0) == pytest.approx(-0.5)

    def test_clamped_to_unit_interval(self):
        norm = RewardNormalizer()
        norm.normalize(-10.0)
        assert norm.normalize(-100.0) == -1.0


class TestCycleNext:
    def place(self, sim, lane_id):
        lane = sim.net.lanes[lane_id]
        v = Vehicle(0, (lane_id,), 0.0)
        sim.lane_vehicles[lane_id].append(v)

    def test_vehicles_on_next_phase(self, single_net):
        sim = make_sim(single_net)
        self.place(sim, "e_in")  # phase 1 lane
        assert make_unit(sim, 0).cycle_next(0) == 1

    def test_full_wrap(self, single_net):
        # cycle [0,1], current 0, vehicles only on phase-0 lanes:
        # scan order is 1 then 0, so the wrap lands back on 0
        sim = make_sim(single_net)
        self.place(sim, "n_in")
        assert make_unit(sim, 0).cycle_next(0) == 0

    def test_empty_network_idles(self, single_net):
        sim = make_sim(single_net)
        assert make_unit(sim, 0).cycle_next(0) is None
        assert make_unit(sim, None).cycle_next() is None

    def test_start_from_idle(self, single_net):
        # no green shown yet: the scan starts at phase 0
        sim = make_sim(single_net)
        self.place(sim, "n_in")
        assert make_unit(sim, None).cycle_next() == 0


class TestSignalUnit:
    @pytest.mark.parametrize("name", ["uniform", "webster", "maxpressure",
                                      "sotl", "dqn"])
    def test_intersection_resolved_once_per_episode(self, double_net, name,
                                                    monkeypatch):
        if name == "dqn":
            agents = fabric.build_agents(double_net, "dqn", DqnConfig(), 0)
            ctrls = experiments.greedy_controllers(
                double_net, "dqn", DqnConfig(),
                {iid: agent.acting_params() for iid, agent in agents.items()})
        else:
            ctrls = experiments.make_classic_controllers(double_net, name, {})
        demand = constant_demand(double_net.entry_lanes, 600.0, horizon=300.0)
        calls = collections.Counter()
        lookup = NetworkModel.intersection

        def counted(net, iid):
            calls[iid] += 1
            return lookup(net, iid)

        monkeypatch.setattr(NetworkModel, "intersection", counted)
        for seed in range(2):
            calls.clear()
            run_episode(double_net, demand, ctrls, seed, moe_series=False)
            assert calls and max(calls.values()) <= 1, dict(calls)

    def test_tick_called_only_when_overridden(self, single_net):
        class Holding(Controller):
            def decide(self, unit):
                return HOLD

        class Ticking(Holding):
            def tick(self, unit):
                seen.append(("class", unit.now))

        seen = []
        overridden = Holding()
        overridden.tick = lambda unit: seen.append(("instance", unit.now))
        for ctrl, tag in ((Ticking(), "class"), (overridden, "instance")):
            sim = make_sim(single_net)
            unit = SignalUnit(single_net, "i0", ctrl, sim)
            seen.clear()
            for _ in range(3):
                assert unit.advance() == (GREEN, 0)
                sim.step({"i0": (GREEN, 0)})
            assert seen == [(tag, 0.0), (tag, 1.0), (tag, 2.0)]
            assert unit.t_p == 3
        plain = SignalUnit(single_net, "i0", Holding(), make_sim(single_net))
        assert plain._tick is None


@pytest.mark.parametrize("name", list(experiments.CONTROLLERS))
def test_every_hyperparameter_is_checked_by_its_declared_type(name):
    """Each field of a registered controller refuses a string, a bool and
    NaN (and 2.5 in an int field) with one message, whether the class is
    called directly or through `configure`; a valid value is stored as the
    declared type."""
    cls = experiments.CONTROLLERS[name]
    hints = typing.get_type_hints(cls)
    hps = [f for f in dataclasses.fields(cls) if f.init]
    assert hps
    for f in hps:
        kind = int if int in (typing.get_args(hints[f.name])
                              or (hints[f.name],)) else float
        cases = {"x": "finite", True: "finite", float("nan"): "finite"}
        if kind is int:
            cases.update({"x": "whole", True: "whole", 2.5: "whole"})
        for value, word in cases.items():
            with pytest.raises(ValueError) as direct:
                cls(**{f.name: value})
            with pytest.raises(ValueError) as built:
                configure(name, cls, {f.name: value})
            assert str(direct.value) == str(built.value) == \
                f"{f.name} must be a {word} number, not {value!r}"
        default = getattr(cls(), f.name)
        if default is None:
            continue
        assert type(default) is kind, f.name
        # a whole float fills an int field, an int a float field
        if kind is int or float(default).is_integer():
            other = float(default) if kind is int else int(default)
            stored = getattr(configure(name, cls, {f.name: other}), f.name)
            assert type(stored) is kind and stored == default, f.name

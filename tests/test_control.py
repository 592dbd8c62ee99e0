"""Sequencer, observation, reward, cycle-successor and signal-unit tests."""

import collections

import numpy as np
import pytest

from tscbench import experiments, fabric
from tscbench.agents import DqnConfig
from tscbench.control import (HOLD, Controller, NextPhase, RewardNormalizer,
                              SequencerState, SignalUnit, sequencer_advance,
                              state_width)
from tscbench.network import NetworkModel
from tscbench.simulation import (ALLRED, GREEN, YELLOW, DemandProfile,
                                 Simulation, Vehicle, run_episode)

from conftest import constant_demand


def make_sim(net, seed=0):
    rates = {net.entry_lanes[0]: [[0.0, 0.0], [600.0, 0.0]]}
    return Simulation(net, DemandProfile(rates), seed)


def make_unit(sim, seq, bound=None):
    """The unit of single.net's i0 showing `seq`; `bound` overrides the
    unit's observation bound."""
    cls = SignalUnit if bound is None else \
        type("NearUnit", (SignalUnit,), {"bound": bound})
    unit = cls(sim.net, "i0", Controller(), sim)
    unit.seq = seq
    return unit


class TestSequencer:
    def test_green_to_green_takes_five_seconds(self):
        # decision at t -> 2 s yellow + 3 s all-red -> green B shown at t+5
        seq = SequencerState(start_green=0)
        shown = [sequencer_advance(seq, NextPhase(1))]
        for _ in range(5):
            shown.append(sequencer_advance(seq, HOLD))
        kinds = [s[0] for s in shown]
        assert kinds == [YELLOW, YELLOW, ALLRED, ALLRED, ALLRED, GREEN]
        assert shown[-1] == (GREEN, 1)
        assert seq.t_p == 1

    def test_hold_accumulates_t_p(self):
        seq = SequencerState(start_green=0)
        for k in range(1, 6):
            assert sequencer_advance(seq, HOLD) == (GREEN, 0)
            assert seq.t_p == k

    def test_same_phase_restarts_green_interval(self):
        seq = SequencerState(start_green=0)
        for _ in range(10):
            sequencer_advance(seq, HOLD)
        assert sequencer_advance(seq, NextPhase(0)) == (GREEN, 0)
        assert seq.t_p == 1  # no interphase, but the interval restarts

    def test_next_phase_none_goes_idle(self):
        seq = SequencerState(start_green=0)
        shown = [sequencer_advance(seq, NextPhase(None))]
        for _ in range(4):
            shown.append(sequencer_advance(seq, HOLD))
        assert [s[0] for s in shown] == [YELLOW, YELLOW, ALLRED, ALLRED,
                                         ALLRED]
        assert sequencer_advance(seq, HOLD) == (ALLRED, None)
        assert seq.idle

    def test_idle_green_is_immediate(self):
        seq = SequencerState(start_green=None)
        assert seq.idle
        assert sequencer_advance(seq, HOLD) == (ALLRED, None)
        assert sequencer_advance(seq, NextPhase(1)) == (GREEN, 1)
        assert seq.t_p == 1 and not seq.idle

    def test_interphase_flag(self):
        seq = SequencerState(start_green=0)
        sequencer_advance(seq, NextPhase(1))
        assert seq.in_interphase
        idle = SequencerState(start_green=None)
        assert not idle.in_interphase


class TestObservation:
    def test_empty_all_red(self, single_net):
        sim = make_sim(single_net)
        seq = SequencerState(start_green=None)
        s = make_unit(sim, seq).observe()
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
        seq = SequencerState(start_green=0)
        s = make_unit(sim, seq).observe()
        assert s[0] == pytest.approx(5 / 20)
        assert s[4] == pytest.approx(3 / 20)
        assert s[8] == 1.0 and s[9] == 0.0 and s[10] == 0.0

    def test_force_all_red_one_hot(self, single_net):
        sim = make_sim(single_net)
        seq = SequencerState(start_green=1)
        s = make_unit(sim, seq).observe(force_all_red=True)
        assert s[10] == 1.0 and s[8] == 0.0 and s[9] == 0.0

    def test_values_clamped(self, single_net):
        sim = make_sim(single_net)
        lane = single_net.lanes["n_in"]
        for i in range(lane.jam_capacity):
            v = Vehicle(i, ("n_in", "s_out"), 0.0)
            v.position = lane.length - lane.spacing * i
            v.queued = True
            sim.lane_vehicles["n_in"].append(v)
        s = make_unit(sim, SequencerState(0), bound=75.0).observe()
        assert 0.0 <= s[0] <= 1.0 and 0.0 <= s[4] <= 1.0

    def test_state_width(self, single_net, double_net):
        assert state_width(single_net, "i0") == 2 * 4 + 2 + 1 == 11
        for ix in double_net.intersections:
            w = state_width(double_net, ix.id)
            assert w == 2 * len(ix.incoming) + len(ix.phases) + 1


class TestReward:
    def test_normalizer_oracle(self):
        # delays {2.0, 3.5} with |r_min| = 11 -> -5.5/11 = -0.5
        norm = RewardNormalizer(11.0)
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
        norm = RewardNormalizer(10.0)
        assert norm.normalize(-100.0) == -1.0


class TestCycleNext:
    def place(self, sim, lane_id):
        lane = sim.net.lanes[lane_id]
        v = Vehicle(0, (lane_id,), 0.0)
        sim.lane_vehicles[lane_id].append(v)

    def test_vehicles_on_next_phase(self, single_net):
        sim = make_sim(single_net)
        self.place(sim, "e_in")  # phase 1 lane
        assert make_unit(sim, SequencerState(0)).cycle_next(0) == 1

    def test_full_wrap(self, single_net):
        # cycle [0,1], current 0, vehicles only on phase-0 lanes:
        # scan order is 1 then 0, so the wrap lands back on 0
        sim = make_sim(single_net)
        self.place(sim, "n_in")
        assert make_unit(sim, SequencerState(0)).cycle_next(0) == 0

    def test_empty_network_idles(self, single_net):
        sim = make_sim(single_net)
        assert make_unit(sim, SequencerState(0)).cycle_next(0) is None
        assert make_unit(sim, SequencerState(None)).cycle_next() is None

    def test_start_from_idle(self, single_net):
        # no green shown yet: the scan starts at phase 0
        sim = make_sim(single_net)
        self.place(sim, "n_in")
        assert make_unit(sim, SequencerState(None)).cycle_next() == 0


class TestSignalUnit:
    @pytest.mark.parametrize("name", ["uniform", "webster", "maxpressure",
                                      "sotl", "dqn"])
    def test_intersection_resolved_once_per_episode(self, double_net, name,
                                                    monkeypatch):
        if name == "dqn":
            agents = fabric.build_agents(double_net, "dqn", DqnConfig(), 0)
            ctrls = experiments.greedy_controllers(double_net, "dqn",
                                                   agents, {})
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

"""Classic controller tests: uniform, Webster's, max-pressure, SOTL."""

import numpy as np
import pytest

from tscbench.classic import (MaxPressureController, SotlController,
                              UniformController, WebsterController,
                              phase_pressure, webster_cycle, webster_timings)
from tscbench.control import HOLD, Hold, NextPhase, SignalUnit
from tscbench.simulation import GREEN, Simulation, Vehicle, run_episode

from conftest import constant_demand


class FakePhase:
    def __init__(self, incoming, outgoing):
        self.incoming = tuple(incoming)
        self.outgoing = tuple(outgoing)


class FakeIntersection:
    def __init__(self, phases):
        self.phases = tuple(phases)
        seen = []
        for p in phases:
            for lid in p.incoming:
                if lid not in seen:
                    seen.append(lid)
        self.incoming = tuple(seen)


class FakeView:
    """Duck-typed stand-in for the `SignalUnit` a controller is handed:
    the members classic controllers read, with per-lane counts and
    crossing totals set by the test.

    A fake phase lists lanes, not movements: each listing stands for one
    movement of the lane. So, as in `SignalUnit.red_in`, a lane is red in
    phase p unless p lists it and no other phase does (a lane two phases
    list has a movement each of them leaves red)."""

    def __init__(self, phases, counts=None, t_p=0, current=0, now=0.0):
        ix = self.intersection = FakeIntersection(phases)
        self._counts = counts or {}
        self.t_p = t_p
        self.current_phase = current
        self.now = now
        self._crossed = {}
        self.n_phases = len(phases)
        self.bound = 150.0
        self.red_in = {p: tuple(lid for lid in ix.incoming
                                if lid not in phase.incoming
                                or sum(lid in q.incoming for q in phases) > 1)
                       for p, phase in enumerate(ix.phases)}
        self.red_in[None] = ix.incoming

    def count_sum(self, lanes, bound=None):
        return sum(self._counts.get(lid, 0) for lid in lanes)

    def crossed(self):
        return dict(self._crossed)


def show_green(unit, phase):
    """Put `unit` at the start of green `phase`, as the end of a
    clearance leaves it: `t_p` 0, nothing pending."""
    unit.kind, unit.phase, unit.current_phase = GREEN, phase, phase
    unit.green, unit.t_p, unit.is_idle = (GREEN, phase), 0, False


TWO_PHASES = (FakePhase(["a_in"], ["a_out"]), FakePhase(["b_in"], ["b_out"]))


class TestUniform:
    def test_hold_before_u(self):
        ctrl = UniformController(u=10)
        assert ctrl.decide(FakeView(TWO_PHASES, t_p=3)) is HOLD

    def test_advances_cycle(self):
        ctrl = UniformController(u=10)
        assert ctrl.decide(FakeView(TWO_PHASES, t_p=10, current=0)) \
            == NextPhase(1)
        assert ctrl.decide(FakeView(TWO_PHASES, t_p=10, current=1)) \
            == NextPhase(0)

    def test_period_is_phases_times_u_plus_interphase(self, tiny_net):
        # each phase shows u green seconds followed by 5 s of interphase
        u = 7
        demand = constant_demand(["in_a", "in_b"], 0.0, horizon=120.0)
        sim = Simulation(tiny_net, demand, 0)
        unit = SignalUnit(tiny_net, "x", UniformController(u=u), sim)
        shown = []
        for _ in range(4 * (u + 5)):
            cmd = unit.advance()
            sim.step({"x": cmd})
            shown.append(cmd)
        starts = [i for i in range(1, len(shown))
                  if shown[i] == (GREEN, 0) and shown[i - 1] != (GREEN, 0)]
        assert all(b - a == 2 * (u + 5) for a, b in zip(starts, starts[1:]))

    def test_invalid_u(self):
        with pytest.raises(ValueError):
            UniformController(u=0)


class TestWebster:
    def test_hand_example(self):
        # Y = {0.2, 0.3}, R=10: C = (1.5*10+5)/(1-0.5) = 40, G = 30,
        # greens proportional to Y -> {12, 18}
        ctrl = WebsterController(R=10)
        flows = {"a_in": 0.2 * ctrl.s_sat, "b_in": 0.3 * ctrl.s_sat}
        C, greens = webster_timings(flows, ctrl, TWO_PHASES)
        assert C == pytest.approx(40.0)
        assert greens == [12, 18]

    def test_saturated_clamps_to_c_max(self):
        ctrl = WebsterController(R=10)
        assert webster_cycle([0.5, 0.45], ctrl, 10.0) == ctrl.c_max
        assert webster_cycle([0.6, 0.6], ctrl, 10.0) == ctrl.c_max

    def test_zero_flow_minimum_cycle_equal_split(self):
        ctrl = WebsterController(R=10)
        C, greens = webster_timings({}, ctrl, TWO_PHASES)
        assert C == ctrl.c_min == 40
        assert greens == [15, 15]

    def test_cycle_clamped_to_c_min(self):
        ctrl = WebsterController(R=10, c_min=60)
        assert webster_cycle([0.1, 0.1], ctrl, 10.0) == 60.0

    def test_greens_sum_to_cycle_minus_lost_time(self):
        ctrl = WebsterController()
        rng = np.random.default_rng(0)
        n_p = len(TWO_PHASES)
        for _ in range(1000):
            flows = {"a_in": float(rng.uniform(0, 1600)),
                     "b_in": float(rng.uniform(0, 1600))}
            C, greens = webster_timings(flows, ctrl, TWO_PHASES)
            R = 5.0 * n_p
            assert abs(sum(greens) - (C - R)) <= n_p
            assert all(g >= 1 for g in greens)

    def test_critical_lane_is_max_ratio(self):
        ctrl = WebsterController(R=10)
        phases = (FakePhase(["a1", "a2"], ["o"]), FakePhase(["b1"], ["o"]))
        flows = {"a1": 0.1 * ctrl.s_sat, "a2": 0.2 * ctrl.s_sat,
                 "b1": 0.3 * ctrl.s_sat}
        C, greens = webster_timings(flows, ctrl, phases)
        assert C == pytest.approx(40.0)
        assert greens == [12, 18]

    def test_controller_bootstrap_and_retiming(self):
        ctrl = WebsterController(W=30, R=10)
        ctrl.begin_episode()
        view = FakeView(TWO_PHASES, t_p=0, current=0, now=0.0)
        assert ctrl.decide(view) is HOLD  # bootstrap greens are 15/15
        view.t_p = 15
        assert ctrl.decide(view) == NextPhase(1)
        # crossing totals of two 30 s windows: 3 crossings every 10 s on
        # a_in throughout, and on b_in in the first window only
        crossed = {"a_in": 0, "b_in": 0}
        greens = {}
        for t in range(60):
            crossed["a_in"] += 3 * (t % 10 == 0)
            crossed["b_in"] += 3 * (t % 10 == 5 and t < 30)
            view.now = float(t + 1)
            view._crossed = dict(crossed)
            ctrl.tick(view)
            greens[view.now] = ctrl._greens
        assert greens[29.0] == [15, 15]  # the bootstrap greens
        # 9 crossings per lane in 30 s: 1080 veh/h, y = 0.6 each, so the
        # cycle saturates at c_max = 180 with G = 170 split evenly
        assert greens[30.0] == greens[59.0] == [85, 85]
        # the second window counts only its own crossings: y = 0.6 and 0,
        # C = (1.5 * 10 + 5) / 0.4 = 50, G = 40, b floored at 1 s
        assert greens[60.0] == [39, 1]

    def test_bad_config(self):
        with pytest.raises(ValueError):
            WebsterController(c_min=0)
        with pytest.raises(ValueError):
            WebsterController(c_min=100, c_max=50)


class TestMaxPressure:
    def test_hand_example(self):
        # phase A: inc 5+2, out 1+0 -> 6; phase B: inc 3, out 4 -> -1
        phases = (FakePhase(["a1", "a2"], ["ao1", "ao2"]),
                  FakePhase(["b1"], ["bo1"]))
        counts = {"a1": 5, "a2": 2, "ao1": 1, "ao2": 0, "b1": 3, "bo1": 4}
        view = FakeView(phases, counts, t_p=10)
        assert phase_pressure(view, phases[0]) == 6
        assert phase_pressure(view, phases[1]) == -1
        assert MaxPressureController(g_min=10).decide(view) == NextPhase(0)

    def test_holds_before_g_min(self):
        view = FakeView(TWO_PHASES, {"b_in": 50}, t_p=4)
        assert MaxPressureController(g_min=5).decide(view) is HOLD

    def test_tie_breaks_to_lowest_index(self):
        view = FakeView(TWO_PHASES, {"a_in": 3, "b_in": 3}, t_p=10)
        assert MaxPressureController(g_min=10).decide(view) == NextPhase(0)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        phases = (FakePhase(["a1", "a2"], ["o1"]),
                  FakePhase(["b1"], ["o2", "o3"]),
                  FakePhase(["c1", "c2", "c3"], ["o4"]))
        lanes = ["a1", "a2", "b1", "c1", "c2", "c3", "o1", "o2", "o3", "o4"]
        ctrl = MaxPressureController(g_min=5)
        for _ in range(1000):
            counts = {lid: int(rng.integers(0, 30)) for lid in lanes}
            view = FakeView(phases, counts, t_p=int(rng.integers(5, 40)))
            decision = ctrl.decide(view)
            pressures = [sum(counts[l] for l in p.incoming)
                         - sum(counts[l] for l in p.outgoing)
                         for p in phases]
            best = pressures.index(max(pressures))
            assert decision == NextPhase(best)


class TestSotl:
    def test_kappa_crosses_theta_at_step_six(self):
        # red-side count 10 per tick, theta=50: kappa is 50 after 5 ticks
        # (not > theta) and 60 after 6 -> change at step 6
        ctrl = SotlController(g_min=1, theta=50.0, omega=100.0, mu=3)
        ctrl.begin_episode()
        view = FakeView(TWO_PHASES, {"b_in": 10}, t_p=2, current=0)
        changed_at = None
        for step in range(1, 10):
            ctrl.tick(view)
            if isinstance(ctrl.decide(view), NextPhase):
                changed_at = step
                break
        assert changed_at == 6

    def test_strict_g_min_guard(self):
        ctrl = SotlController(g_min=5, theta=1.0)
        ctrl.kappa = 100.0
        view = FakeView(TWO_PHASES, {}, t_p=5, current=0)
        assert ctrl.decide(view) is HOLD  # t_p == g_min is not enough
        view.t_p = 6
        assert ctrl.decide(view) == NextPhase(1)

    def test_platoon_holds_phase(self):
        ctrl = SotlController(g_min=1, theta=1.0, mu=3)
        ctrl.kappa = 100.0
        view = FakeView(TWO_PHASES, {"a_in": 2}, t_p=10, current=0)
        assert ctrl.decide(view) is HOLD  # 0 < n <= mu keeps the platoon
        view._counts["a_in"] = 4
        assert ctrl.decide(view) == NextPhase(1)  # n > mu allows the change

    def test_kappa_resets_on_change(self):
        ctrl = SotlController(g_min=1, theta=1.0)
        ctrl.kappa = 100.0
        view = FakeView(TWO_PHASES, {}, t_p=10, current=0)
        ctrl.decide(view)
        assert ctrl.kappa == 0.0

    def test_split_lane_is_red_in_each_phase_that_leaves_a_movement_red(
            self, split_net):
        # in_a -> out_a is green in phase 0, in_a -> out_b in phase 1
        sim = Simulation(split_net, constant_demand(["in_a"], 0.0), 0)
        unit = SignalUnit(split_net, "x", SotlController(), sim)
        assert unit.red_in == {0: ("in_a", "in_b"), 1: ("in_a",),
                               None: ("in_a", "in_b")}

    def test_split_lane_head_does_not_hold_sotl(self, split_net):
        # Phase 1 serves in_a only in part: heads bound for out_a wait
        # through it. Their red time must grow kappa until SOTL switches
        # to phase 0, which lets them cross.
        sim = Simulation(split_net, constant_demand(["in_a"], 0.0), 0)
        lane = split_net.lanes["in_a"]
        for i in range(5):
            v = Vehicle(i, ("in_a", "out_a"), 0.0)
            v.position = lane.length - lane.spacing * i
            v.queued = True
            sim.lane_vehicles["in_a"].append(v)
            sim.injected += 1
        unit = SignalUnit(split_net, "x", SotlController(), sim)
        show_green(unit, 1)
        for _ in range(300):
            sim.step({"x": unit.advance()})
        assert sim.exited == 5 and sim.total_vehicles() == 0

    def test_bad_config(self):
        with pytest.raises(ValueError):
            SotlController(g_min=0)


def test_all_classics_complete_an_episode(single_net, single_demand):
    for mk in (lambda: UniformController(u=10), WebsterController,
               lambda: MaxPressureController(g_min=10), SotlController):
        ctrls = {ix.id: mk() for ix in single_net.intersections}
        log = run_episode(single_net, single_demand, ctrls, 5)
        s = log.summary()
        assert s["injected"] == s["exited"] + s["unfinished"]
        assert s["samples"] > 0


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("cls,hp", [
    (SotlController, {"theta": NAN}), (SotlController, {"omega": INF}),
    (SotlController, {"theta": -INF}), (WebsterController, {"s_sat": NAN}),
    (WebsterController, {"R": INF}), (WebsterController, {"R": NAN}),
    (MaxPressureController, {"g_min": INF}),
    (MaxPressureController, {"g_min": NAN}),
    (UniformController, {"u": INF}),
], ids=lambda v: v.__name__ if isinstance(v, type) else repr(v))
def test_non_finite_hyperparameter_rejected(cls, hp):
    with pytest.raises(ValueError, match=f"{next(iter(hp))} must be a "
                                         "finite number"):
        cls(**hp)



@pytest.mark.parametrize("cls,hp", [
    (MaxPressureController, {"g_min": 0.5}),
    (MaxPressureController, {"g_min": 2.5}),
    (MaxPressureController, {"g_min": "10"}),
    (UniformController, {"u": 0.5}), (UniformController, {"u": True}),
    (SotlController, {"g_min": 7.5}), (SotlController, {"mu": 3.5}),
    (WebsterController, {"W": 120.5}), (WebsterController, {"c_min": 40.5}),
    (WebsterController, {"c_max": "180"}),
], ids=lambda v: v.__name__ if isinstance(v, type) else repr(v))
def test_fractional_integer_hyperparameter_rejected(cls, hp):
    # a fractional value used to be truncated, 0.5 to a zero green time
    with pytest.raises(ValueError, match=f"{next(iter(hp))} must be a "
                                         "whole number"):
        cls(**hp)


def test_whole_float_hyperparameter_accepted():
    ctrls = (MaxPressureController(g_min=10.0), UniformController(u=10.0),
             SotlController(g_min=10.0, mu=3.0),
             WebsterController(W=120.0, c_min=40.0, c_max=180.0))
    values = [getattr(ctrl, name) for ctrl, names in
              zip(ctrls, (["g_min"], ["u"], ["g_min", "mu"],
                          ["W", "c_min", "c_max"]))
              for name in names]
    assert values == [10, 10, 10, 3, 120, 40, 180]
    assert all(type(v) is int for v in values)

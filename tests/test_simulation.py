"""Microsimulator tests: discharge timing, delay, arrivals, conservation."""

import pickle

import numpy as np
import pytest

from tscbench import simulation
from tscbench.classic import UniformController
from tscbench.experiments import make_classic_controllers
from tscbench.simulation import (ALLRED, GREEN, DemandProfile, MoELog,
                                 Simulation, Vehicle, run_episode,
                                 vehicle_delay)

from conftest import constant_demand


def make_sim(net, rates=None, seed=0, **kw):
    rates = rates or {net.entry_lanes[0]: [[0.0, 0.0], [600.0, 0.0]]}
    return Simulation(net, DemandProfile(rates), seed, **kw)


def queue_up(sim, lane_id, n, route):
    """Place n queued vehicles stacked at the stop line of lane_id."""
    lane = sim.net.lanes[lane_id]
    for i in range(n):
        v = Vehicle(10_000 + i, route, sim.t)
        v.position = lane.length - lane.spacing * i
        v.queued = True
        sim.lane_vehicles[lane_id].append(v)
        sim.injected += 1


class TestDemandProfile:
    def test_piecewise_linear(self):
        # the per-second rates the arrival draws compare against: each
        # second of a block is scalar np.interp of that second
        times, rates = (0.0, 100.0, 200.0, 200.0), (120.0, 600.0, 600.0, 60.0)
        d = DemandProfile({"a": [list(p) for p in zip(times, rates)],
                           "b": [[0, 90], [150, 90]]})
        assert d.horizon == 200.0 and d.entry_lanes == ("a", "b")
        for start, k in ((100, 1),      # a breakpoint second
                         (37, 1),       # a second between breakpoints
                         (90, 20),      # a block across a breakpoint
                         (190, 20),     # across the step, past the horizon
                         (0, 256)):
            block = d.rate(start, k)
            assert block.shape == (k, 2)
            for i, (a, b) in enumerate(block.tolist()):
                assert a == np.interp(start + i, times, rates)
                assert b == 90.0
        assert d.rate(50, 1)[0, 0] == 360.0
        assert d.rate(199, 3)[:, 0].tolist() == [600.0, 60.0, 60.0]

    def test_points_sharing_a_time_keep_their_order(self):
        # a step down stays a step down, whatever the rates' order
        d = DemandProfile({"a": [[0, 120], [60, 600], [60, 60], [120, 60]]})
        assert d.breakpoints["a"] == [(0.0, 120.0), (60.0, 600.0),
                                      (60.0, 60.0), (120.0, 60.0)]
        assert d.rate(59, 3)[:, 0].tolist() == [592.0, 60.0, 60.0]

    def test_size_does_not_grow_with_the_horizon(self, tiny_net):
        import tracemalloc
        tracemalloc.start()
        try:
            d = DemandProfile({"in_a": [[0, 0], [1e7, 1e7]]})
            sim = Simulation(tiny_net, d, 0)
            for _ in range(300):  # two arrival blocks
                sim.step({"x": (GREEN, 0)})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sim.injected > 0 and d.horizon == 1e7
        assert peak < 1024 * 1024

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            DemandProfile({"a": [[0.0, -1.0], [10.0, 0.0]]})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DemandProfile({})

    @pytest.mark.parametrize("points", [
        [[0.0, float("nan")], [600.0, 600.0]],   # would arrive every second
        [[0.0, 600.0], [600.0, float("inf")]],
        [],
        [[0.0, 600.0], [float("inf"), 600.0]],
        [[0.0, 600.0], [float("nan"), 600.0]],
        [[0.0, 600.0], [600.0]],
        [[0.0, 600.0], 600.0],
        600.0,
        ["05", "95"],                     # two-character strings
        [["0", "100"], ["60", "1e2"]],    # numbers written as strings
        [[True, 120], [60, 60]],          # a bool is not a number
        [[0.0, 600.0], [600.0, 600.0, 1.0]],
        [[0, 600], [10 ** 400, 600]],     # an int too large for a float
        {"0": 600, "60": 600},
    ], ids=["nan-rate", "inf-rate", "no-points", "inf-time", "nan-time",
            "short-point", "scalar-point", "scalar-points", "string-points",
            "string-numbers", "bool-time", "long-point", "huge-time",
            "object-points"])
    def test_corrupt_points_rejected_naming_lane(self, points):
        with pytest.raises(ValueError, match="n_in"):
            DemandProfile({"s_in": [[0.0, 60.0], [600.0, 60.0]],
                           "n_in": points})

    @pytest.mark.parametrize("rates", [[["n_in", [[0, 600]]]], "n_in", 600],
                             ids=["list", "str", "int"])
    def test_non_object_rejected(self, rates):
        with pytest.raises(ValueError, match="object"):
            DemandProfile(rates)

    def test_horizon_must_be_positive(self):
        with pytest.raises(ValueError, match="horizon"):
            DemandProfile({"n_in": [[-60.0, 600.0], [0.0, 600.0]]})


class TestDischarge:
    def test_headway_oracle(self, tiny_net):
        # 5 queued vehicles under a held green with 2 s saturation headway:
        # departures land on green seconds 2,4,6,8,10, so 5 departures are
        # impossible before 10 s and exact at 10 s.
        sim = make_sim(tiny_net)
        queue_up(sim, "in_a", 5, ("in_a", "out_a"))
        exits_after = []
        for _ in range(15):
            sim.step({"x": (GREEN, 0)})
            exits_after.append(5 - len(sim.lane_vehicles["in_a"]))
        assert exits_after[8] == 4   # 9 s of green: only 4 could leave
        assert exits_after[9] == 5   # exactly 5 after 10 s
        assert exits_after[14] == 5

    def test_no_discharge_on_red_or_allred(self, tiny_net):
        sim = make_sim(tiny_net)
        queue_up(sim, "in_a", 3, ("in_a", "out_a"))
        for _ in range(10):
            sim.step({"x": (ALLRED, None)})
        assert len(sim.lane_vehicles["in_a"]) == 3
        for _ in range(10):
            sim.step({"x": (GREEN, 1)})  # green serves in_b only
        assert len(sim.lane_vehicles["in_a"]) == 3
        assert sim.nongreen_crossings == 0

    def test_split_lane_waits_for_its_movement(self, split_net):
        # in_a -> out_b is green in phase 1 only. Its vehicle holds the head
        # of in_a through phase 0, and the out_a vehicle behind it waits
        # too (head-of-line blocking); each crosses on its own phase.
        sim = make_sim(split_net)
        queue_up(sim, "in_a", 2, ("in_a", "out_b"))
        first, second = sim.lane_vehicles["in_a"]
        second.route = ("in_a", "out_a")
        for _ in range(20):
            sim.step({"x": (GREEN, 0)})
        assert sim.lane_vehicles["in_a"] == [first, second]
        assert sim.nongreen_crossings == 0
        for _ in range(2):
            sim.step({"x": (GREEN, 1)})
        assert sim.lane_vehicles["out_b"] == [first]
        for _ in range(10):
            sim.step({"x": (GREEN, 1)})
        assert sim.lane_vehicles["in_a"] == [second]
        for _ in range(2):
            sim.step({"x": (GREEN, 0)})
        assert sim.lane_vehicles["out_a"] == [second]
        assert sim.nongreen_crossings == 0

    def test_blocked_target_stops_discharge(self, tiny_net):
        sim = make_sim(tiny_net)
        queue_up(sim, "in_a", 2, ("in_a", "out_a"))
        cap = tiny_net.lanes["out_a"].jam_capacity
        for i in range(cap):  # fill the target lane completely
            v = Vehicle(50_000 + i, ("in_a", "out_a"), 0.0)
            v.leg = 1
            sim.lane_vehicles["out_a"].append(v)
            sim.injected += 1
        sim.lane_vehicles["out_a"] = [v for v in sim.lane_vehicles["out_a"]]
        for v in sim.lane_vehicles["out_a"]:
            v.position = 0.0  # keep them from exiting during the test step
        sim.step({"x": (GREEN, 0)})
        sim.step({"x": (GREEN, 0)})
        assert len(sim.lane_vehicles["in_a"]) == 2  # nothing crossed

    def test_audit_counts_a_crossing_the_network_leaves_red(self,
                                                            split_net):
        # Phase 0's green table also lets in_a -> out_b cross, a movement
        # split_net gives a green in phase 1 only. The audit's own table
        # (from the lanes' movements) still leaves it red there.
        sim = make_sim(split_net)
        green, turned = sim._signals["x"][0]
        sim._signals["x"][0] = (tuple(
            (lid, stop, ff, targets | {"out_b"} if lid == "in_a" else targets)
            for lid, stop, ff, targets in green), turned)
        queue_up(sim, "in_a", 1, ("in_a", "out_b"))
        head = sim.lane_vehicles["in_a"][0]
        for _ in range(3):
            sim.step({"x": (GREEN, 0)})
        assert sim.lane_vehicles["out_b"] == [head]
        assert sim.crossed["in_a"] == 1
        assert sim.nongreen_crossings == 1


class TestDelay:
    def test_delay_oracle(self):
        # 150 m at 15 m/s: free flow 10 s; 25 s elapsed -> 15 s delay
        v = Vehicle(0, ("in_a", ), 0.0)
        v.position = 150.0
        assert vehicle_delay(v, 25.0, 15.0) == pytest.approx(15.0)

    def test_unimpeded_vehicle_has_zero_delay(self):
        v = Vehicle(0, ("in_a",), 0.0)
        v.position = 75.0
        assert vehicle_delay(v, 5.0, 15.0) == pytest.approx(0.0)

    def test_delay_never_negative(self):
        v = Vehicle(0, ("in_a",), 0.0)
        v.position = 150.0
        assert vehicle_delay(v, 1.0, 15.0) == 0.0


class TestArrivals:
    def test_binomial_mean(self, tiny_net):
        # 360 veh/h for 600 s is Binomial(600, 0.1): mean 60, and the mean of
        # 100 seeds lies within the 99% CI half-width 3 of 60.
        rates = {"in_a": [[0.0, 360.0], [600.0, 360.0]]}
        total = 0
        for seed in range(100):
            sim = Simulation(tiny_net, DemandProfile(rates), seed)
            for _ in range(600):
                sim.step({"x": (GREEN, 0)})
            total += sim.injected + 0  # blocked arrivals never occur here
        assert abs(total / 100 - 60.0) < 3.0

    def test_blocked_arrivals_counted_not_injected(self, tiny_net):
        rates = {"in_a": [[0.0, 3600.0], [600.0, 3600.0]]}
        sim = Simulation(tiny_net, DemandProfile(rates), 3)
        for _ in range(300):
            sim.step({"x": (ALLRED, None)})  # nothing ever leaves
        cap = tiny_net.lanes["in_a"].jam_capacity
        assert len(sim.lane_vehicles["in_a"]) == cap
        assert sim.blocked > 0
        assert sim.conservation_ok()


class TestEpisode:
    def controllers(self, net, u=10):
        return {ix.id: UniformController(u=u) for ix in net.intersections}

    def test_demand_lane_without_route_rejected(self, single_net):
        # "nope" is no lane; "n_out" is a lane but starts no route
        for lane in ("nope", "n_out"):
            demand = DemandProfile({"n_in": [[0.0, 600.0], [600.0, 600.0]],
                                    lane: [[0.0, 600.0], [600.0, 600.0]]})
            with pytest.raises(ValueError, match=lane):
                run_episode(single_net, demand, self.controllers(single_net),
                            0)

    @pytest.mark.parametrize("scenario", ["single", "double"])
    def test_series_off_keeps_travel_times_and_ledger(self, scenario,
                                                     request):
        net = request.getfixturevalue(f"{scenario}_net")
        demand = request.getfixturevalue(f"{scenario}_demand")
        for name in ("maxpressure", "sotl"):
            full, lean = (run_episode(net, demand,
                                      make_classic_controllers(net, name, {}),
                                      3, moe_series=series)
                          for series in (True, False))
            assert lean.exit_times == full.exit_times
            assert lean.travel_times == full.travel_times
            assert full.travel_times and full.times
            ledger = ("injected", "exited", "blocked", "unfinished")
            assert [getattr(lean, k) for k in ledger] == \
                [getattr(full, k) for k in ledger]
            assert list(lean.times) == []
            assert all(list(q) == [] for q in lean.queue.values())
            assert all(list(d) == [] for d in lean.delay.values())

    def test_missing_controller_rejected(self, double_net, double_demand):
        controllers = self.controllers(double_net)
        del controllers["b"]
        with pytest.raises(ValueError, match=r"no controller for "
                                             r"intersection\(s\) \['b'\]"):
            run_episode(double_net, double_demand, controllers, 0)

    def test_zero_demand_zero_samples(self, tiny_net):
        demand = constant_demand(["in_a", "in_b"], 0.0)
        log = run_episode(tiny_net, demand, self.controllers(tiny_net), 1)
        assert log.summary()["samples"] == 0
        assert log.summary()["mean_travel_time"] is None

    def test_determinism(self, single_net, single_demand):
        a = run_episode(single_net, single_demand,
                        self.controllers(single_net), 7)
        b = run_episode(single_net, single_demand,
                        self.controllers(single_net), 7)
        assert a.travel_times == b.travel_times
        assert a.queue == b.queue and a.delay == b.delay
        c = run_episode(single_net, single_demand,
                        self.controllers(single_net), 8)
        assert c.travel_times != a.travel_times

    def test_conservation_and_capacity(self, tiny_net):
        demand = constant_demand(["in_a", "in_b"], 700.0)
        for seed in range(5):
            log = run_episode(tiny_net, demand, self.controllers(tiny_net),
                              seed)
            s = log.summary()
            assert s["injected"] == s["exited"] + s["unfinished"]

    def test_occupancy_capped(self, tiny_net):
        demand = constant_demand(["in_a", "in_b"], 1500.0)
        sim = Simulation(tiny_net, demand, 5)
        caps = {lid: lane.jam_capacity
                for lid, lane in tiny_net.lanes.items()}
        for _ in range(600):
            sim.step({"x": (GREEN, 0)})
            for lid, vehs in sim.lane_vehicles.items():
                assert len(vehs) <= caps[lid]

    def test_drain_reports_unfinished(self, tiny_net, monkeypatch):
        demand = constant_demand(["in_a", "in_b"], 1500.0, horizon=1200.0)

        class Frozen(UniformController):
            def decide(self, view):  # never switches, starves in_b
                from tscbench.control import HOLD
                return HOLD

        ctrl = {"x": Frozen(u=10)}
        monkeypatch.setattr(simulation, "DEFAULT_DRAIN_CAP", 30.0)
        log = run_episode(tiny_net, demand, ctrl, 2)
        assert log.unfinished > 0
        assert log.summary()["injected"] == \
            log.summary()["exited"] + log.unfinished

    def test_command_key_validation(self, tiny_net):
        sim = make_sim(tiny_net)
        with pytest.raises(KeyError):
            sim.step({"x": (GREEN, 0), "y": (GREEN, 0)})
        with pytest.raises(KeyError):
            sim.step({})

    def test_unknown_phase_rejected_before_the_step_changes_anything(
            self, tiny_net):
        # 3600 veh/h: every second brings an arrival on in_a
        sim = make_sim(tiny_net, {"in_a": [[0.0, 3600.0], [600.0, 3600.0]]})
        for _ in range(40):
            sim.step({"x": (GREEN, 0)})

        def state():
            return (sim.t, sim.injected, sim.exited, sim.blocked,
                    dict(sim.crossed), list(sim.exit_times),
                    list(sim.travel_times),
                    sim.rng.bit_generator.state,
                    {lid: [(v.id, v.leg, v.position, v.queued) for v in vehs]
                     for lid, vehs in sim.lane_vehicles.items()})

        before = state()
        assert before[2] > 0 and any(before[-1].values())
        for phase in (2, -1, "1", None):
            message = f"intersection 'x' has no phase {phase!r}"
            with pytest.raises(ValueError, match=message):
                sim.step({"x": (GREEN, phase)})
            assert state() == before
        sim.step({"x": (GREEN, 1)})
        assert sim.t == before[0] + 1.0 and sim.injected == before[1] + 1

    def test_moe_csv_round_trip(self, single_net, single_demand):
        log = run_episode(single_net, single_demand,
                          self.controllers(single_net), 11)
        rows = log.csv_rows()
        assert rows[0] == ("kind", "intersection_id", "time_s", "value")
        trips = [(float(t), float(v)) for kind, _, t, v in rows[1:]
                 if kind == "travel_time"]
        # repr() floats re-parse exactly
        assert trips == list(zip(log.exit_times, log.travel_time_values))

    def test_horizon_cap(self, tiny_net):
        demand = constant_demand(["in_a", "in_b"], 100.0, horizon=100.0)
        with pytest.raises(ValueError):
            run_episode(tiny_net, demand, self.controllers(tiny_net), 0,
                        horizon=1e6)

    @pytest.mark.parametrize("horizon", [float("nan"), 0.0, -5.0,
                                         float("inf"), "60"])
    def test_horizon_must_be_finite_and_positive(self, tiny_net, horizon):
        demand = constant_demand(["in_a", "in_b"], 100.0, horizon=100.0)
        with pytest.raises(ValueError, match=f"^horizon must be a finite "
                                             f"number > 0, got "
                                             f"{horizon!r}$"):
            run_episode(tiny_net, demand, self.controllers(tiny_net), 0,
                        horizon=horizon)


class TestRecords:
    """The episode records are typed arrays: 8 bytes a value, compared
    and pickled as values."""

    @staticmethod
    def episode(net, demand, seed=3):
        return run_episode(net, demand,
                           make_classic_controllers(net, "sotl", {}), seed)

    def test_typecodes(self, double_net, double_demand):
        sim = Simulation(double_net, double_demand, 0)
        assert (sim.exit_times.typecode, sim.travel_times.typecode) == \
            ("d", "d")
        log = self.episode(double_net, double_demand)
        assert (log.exit_times.typecode, log.travel_times.typecode,
                log.times.typecode) == ("d", "d", "d")
        assert {q.typecode for q in log.queue.values()} == {"q"}
        assert {d.typecode for d in log.delay.values()} == {"d"}
        assert log.travel_time_values is log.travel_times
        assert len(log.exit_times) == len(log.travel_times) == log.exited > 0
        assert all(len(log.queue[iid]) == len(log.delay[iid]) ==
                   len(log.times) > 0 for iid in log.queue)
        assert list(log.exit_times) == sorted(log.exit_times)

    def test_pickle_round_trip(self, double_net, double_demand):
        log = self.episode(double_net, double_demand)
        copy = pickle.loads(pickle.dumps(log))
        for name in ("exit_times", "travel_times", "times"):
            got, want = getattr(copy, name), getattr(log, name)
            assert got.typecode == want.typecode
            assert got.tobytes() == want.tobytes(), name
        for name in ("queue", "delay"):
            got, want = getattr(copy, name), getattr(log, name)
            assert list(got) == list(want)
            assert all(got[iid].typecode == want[iid].typecode and
                       got[iid].tobytes() == want[iid].tobytes()
                       for iid in want), name
        assert copy.summary() == log.summary()
        assert copy.csv_rows() == log.csv_rows()

"""Deterministic point-queue traffic microsimulator.

Vehicles enter on demand-profile entry lanes, travel at free-flow speed,
stack vertically at stop lines (one jam-spacing slot per vehicle) and
discharge across the stop line at saturation headway during green.
The simulator is a pure function of (network, demand, controllers, seed).
"""

from __future__ import annotations

import functools
import math
import statistics

import numpy as np

from .network import NetworkModel

GREEN = "green"
YELLOW = "yellow"
ALLRED = "allred"

DEFAULT_SATURATION_FLOW = 1800.0  # veh/h/lane -> 2 s discharge headway
DEFAULT_DRAIN_CAP = 600.0         # extra seconds after demand end

_EPS = 1e-9
_ARRIVAL_BLOCK = 256  # simulated seconds of arrival draws per RNG call


class DemandProfile:
    """Piecewise-linear arrival rates (veh/h) per entry lane."""

    def __init__(self, rates: dict, horizon: float | None = None):
        if not isinstance(rates, dict):
            raise ValueError("demand profile must be an object mapping "
                             "entry lane -> [[time_s, rate_veh_h], ...]")
        if not rates:
            raise ValueError("demand profile has no entry lanes")
        self.breakpoints = {}
        max_t = 0.0
        for lane, pts in rates.items():
            try:
                pts = sorted((float(t), float(r)) for t, r in pts)
            except (TypeError, ValueError):
                raise ValueError(f"demand for lane {lane!r} must be a list "
                                 f"of [time_s, rate_veh_h] points") from None
            if not pts:
                raise ValueError(f"demand for lane {lane!r} has no points")
            # a NaN rate would compare false against every draw
            if not all(math.isfinite(t) and math.isfinite(r)
                       for t, r in pts):
                raise ValueError(f"non-finite time or rate for lane {lane!r}")
            if any(r < 0 for _, r in pts):
                raise ValueError(f"negative rate for lane {lane!r}")
            self.breakpoints[lane] = pts
            max_t = max(max_t, pts[-1][0])
        self.horizon = float(horizon) if horizon is not None else max_t
        if not 0 < self.horizon < math.inf:
            raise ValueError("demand horizon must be finite and > 0")
        # per-second lookup tables, cheap enough for desk-scale horizons
        n = int(math.ceil(self.horizon)) + 1
        ts = np.arange(n, dtype=float)
        self._table = {}
        for lane, pts in self.breakpoints.items():
            xp = [t for t, _ in pts]
            fp = [r for _, r in pts]
            self._table[lane] = np.interp(ts, xp, fp)

    def rate(self, lane: str, t: float) -> float:
        tab = self._table.get(lane)
        if tab is None:
            return 0.0
        i = int(t)
        if i < 0 or i >= len(tab):
            return 0.0
        return float(tab[i])

    @property
    def entry_lanes(self):
        return tuple(self.breakpoints)


def load_demand(path) -> DemandProfile:
    import json
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return DemandProfile(data)


class Vehicle:
    __slots__ = ("id", "route", "leg", "position", "queued", "entry_time",
                 "exit_time", "free_flow_time", "ff_completed")

    def __init__(self, vid: int, route: tuple, entry_time: float,
                 free_flow_time: float):
        self.id = vid
        self.route = route
        self.leg = 0
        self.position = 0.0
        self.queued = False
        self.entry_time = entry_time
        self.exit_time = None
        self.free_flow_time = free_flow_time
        self.ff_completed = 0.0  # free-flow seconds for completed legs


def vehicle_delay(veh: Vehicle, now: float, lane_speed: float) -> float:
    """Elapsed time minus free-flow time for the distance covered so far."""
    if veh.exit_time is not None:
        elapsed = veh.exit_time - veh.entry_time
        return max(0.0, elapsed - veh.free_flow_time)
    elapsed = now - veh.entry_time
    ff = veh.ff_completed + veh.position / lane_speed
    return max(0.0, elapsed - ff)


class MoELog:
    """Per-episode measures of effectiveness."""

    def __init__(self, intersection_ids):
        self.travel_times = []          # (exit time, travel time) pairs
        self.times = []
        self.queue = {iid: [] for iid in intersection_ids}
        self.delay = {iid: [] for iid in intersection_ids}
        self.unfinished = 0
        self.injected = 0
        self.exited = 0
        self.blocked = 0

    @property
    def travel_time_values(self):
        return [tt for _, tt in self.travel_times]

    def summary(self) -> dict:
        tts = self.travel_time_values
        return {
            "samples": len(tts),
            "mean_travel_time": statistics.fmean(tts) if tts else None,
            "std_travel_time": statistics.pstdev(tts) if tts else None,
            "median_travel_time": statistics.median(tts) if tts else None,
            "unfinished": self.unfinished,
            "injected": self.injected,
            "exited": self.exited,
            "blocked": self.blocked,
        }

    def csv_rows(self):
        rows = [("kind", "intersection_id", "time_s", "value")]
        for t, tt in self.travel_times:
            rows.append(("travel_time", "network", repr(t), repr(tt)))
        for iid in self.queue:
            for t, q, d in zip(self.times, self.queue[iid], self.delay[iid]):
                rows.append(("queue", iid, repr(t), repr(q)))
                rows.append(("delay", iid, repr(t), repr(d)))
        return rows


class Simulation:
    """Mutable per-episode simulator state. Strictly single-threaded.

    Every lane's vehicle list is ordered head first: positions never
    increase from the front of the list to its back. Vehicles join a lane
    at its tail at position 0, all vehicles of a lane move at the lane's
    speed, and each queue slot lies one jam spacing behind the slot ahead,
    so no step can reorder a lane. `count_within`, `queued_within` and
    `delay_sum` rely on this order: their scan stops at the first vehicle
    behind the bound. A vehicle leaves its lane in the step it exits, so
    every vehicle on a lane is still travelling (`collect_moe` relies on
    that). The clock starts at 0 and only `step` advances it, one second per
    call; the arrival schedule is indexed by that count.

    MoE series: while `run_episode` collects them, step (b) of each step
    sums the queue and delay of the state the step before left (the row
    for its clock time), in the same lane and vehicle order as
    `collect_moe`, before it moves any vehicle. `collect_moe` stays the
    reference sum and appends the episode's last row.

    Signals act on movements. A lane's head crosses the stop line only if
    the displayed phase gives a green to its movement (the lane and the
    next lane of its route); a head whose route ends on the lane leaves on
    any phase that serves the lane. A head whose movement is red blocks
    its lane, even for vehicles behind it whose movement is green
    (head-of-line blocking: one lane, one queue). `nongreen_crossings`
    counts crossings outside the network's green movements and must stay
    0. Controllers still read lanes: max-pressure weighs a phase by the
    vehicles on its incoming and outgoing lanes, not per movement.
    """

    def __init__(self, net: NetworkModel, demand: DemandProfile, seed: int,
                 saturation_flow: float = DEFAULT_SATURATION_FLOW,
                 inject_until: float | None = None):
        unknown = sorted(set(demand.entry_lanes) - set(net.entry_lanes))
        if unknown:
            raise ValueError(f"demand lanes {unknown} start no network route")
        self.net = net
        self.demand = demand
        self.rng = np.random.default_rng(seed)
        self.t = 0.0
        self.headway = math.ceil(3600.0 / saturation_flow)
        self.inject_until = (demand.horizon if inject_until is None
                             else min(inject_until, demand.horizon))

        self.lane_vehicles = {lid: [] for lid in net.lanes}
        self.green_elapsed = {lid: 0.0 for lid in net.lanes}
        self._next_vid = 0

        # conservation ledger
        self.injected = 0
        self.exited = 0
        self.blocked = 0
        self.exited_this_step = []       # Vehicle objects that left this step
        self.crossings_this_step = {}    # (iid, lane id) -> count
        self.nongreen_crossings = 0      # safety audit, must stay 0

        # Static tables of the per-second loop. The vehicle lists stay in
        # lane_vehicles, which callers may rebind.
        lanes = net.lanes
        self._expected_cmd_keys = frozenset(ix.id for ix in net.intersections)
        route_ff = {r: sum(lanes[l].free_flow_time for l in r)
                    for r in net.routes}
        # (entry lane, jam capacity, ((route, free-flow time), ...)), in
        # demand.entry_lanes order
        self._arrivals = tuple(
            (lane, lanes[lane].jam_capacity,
             tuple((r, route_ff[r]) for r in net.routes_from(lane)))
            for lane in demand.entry_lanes)
        # Arrival stream: one uniform per entry lane per simulated second,
        # in entry-lane order, drawn _ARRIVAL_BLOCK seconds at a time (one
        # rng.random((k, n)) call yields the same doubles in the same order
        # as k * n rng.random() calls). Route picks come from a spawned
        # child, so they never fall between two blocks of the parent stream.
        self._route_rng = self.rng.spawn(1)[0]
        self._arrival_block = ()
        # (iid, ((lane id, length, speed, jam spacing, queue stop lines),
        # ...)): each intersection's incoming lanes, in `ix.incoming` order.
        # The loader lists every lane as incoming at one intersection at
        # most, so step (b) moves each controlled lane once.
        def plan(lane):
            return (lane.id, lane.length, lane.speed_limit, lane.spacing,
                    _stop_lines(lane.length, lane.spacing, lane.jam_capacity))
        self._lane_groups = tuple(
            (ix.id, tuple(plan(lanes[lid]) for lid in ix.incoming))
            for ix in net.intersections)
        self._controlled_plan = tuple(
            entry for _, group in self._lane_groups for entry in group)
        controlled = {entry[0] for entry in self._controlled_plan}
        # (lane id, length, speed) of the other (sink) lanes, in lane order
        self._sink_plan = tuple(
            (lid, lane.length, lane.speed_limit)
            for lid, lane in lanes.items() if lid not in controlled)
        # run_episode's MoELog while it collects the series, else None
        self._moe_log = None
        # iid -> (incoming lanes, phase -> (green lanes as (lane id, stop
        # line, free-flow time, lanes its green movements lead to), red
        # lanes))
        self._signals = {
            ix.id: (ix.incoming, {
                p.id: (tuple((lid, lanes[lid].length - 1e-6,
                              lanes[lid].free_flow_time,
                              frozenset(b for a, b in p.green_movements
                                        if a == lid))
                             for lid in p.incoming),
                       tuple(lid for lid in ix.incoming
                             if lid not in p.incoming))
                for p in ix.phases})
            for ix in net.intersections}
        # The safety audit's own table, from the lanes' movement pairs:
        # (iid, phase, lane, next lane) for every green movement, and
        # (iid, phase, lane, None) for a route that ends on a lane the
        # phase serves.
        self._served = frozenset(
            (iid, p, lid, to)
            for lid, lane in lanes.items()
            for (iid, p), target in lane.downstream
            for to in (target, None))

    # -- queries used by controllers -------------------------------------

    def count_within(self, lane_id: str, bound: float) -> int:
        vehs = self.lane_vehicles[lane_id]
        cut = self.net.lanes[lane_id].length - bound
        if cut <= 0:
            return len(vehs)
        for n, v in enumerate(vehs):
            if v.position < cut:
                return n
        return len(vehs)

    def queued_within(self, lane_id: str, bound: float) -> int:
        cut = self.net.lanes[lane_id].length - bound
        q = 0
        for v in self.lane_vehicles[lane_id]:
            if v.position < cut:
                break
            if v.queued:
                q += 1
        return q

    def capacity_within(self, lane_id: str, bound: float) -> int:
        lane = self.net.lanes[lane_id]
        if bound >= lane.length:
            return lane.jam_capacity
        return max(1, math.floor(bound / lane.spacing))

    def total_vehicles(self) -> int:
        return sum(len(vs) for vs in self.lane_vehicles.values())

    def delay_sum(self, lane_ids, bound: float | None = None) -> float:
        total = 0.0
        now = self.t
        for lid in lane_ids:
            lane = self.net.lanes[lid]
            cut = -1.0 if bound is None else lane.length - bound
            speed = lane.speed_limit
            for v in self.lane_vehicles[lid]:
                if v.position < cut:
                    break
                total += vehicle_delay(v, now, speed)
        return total

    # -- dynamics ---------------------------------------------------------

    def step(self, commands: dict) -> None:
        """Advance the simulation by one second under `commands`
        (intersection id -> (indication, phase))."""
        if commands.keys() != self._expected_cmd_keys:
            unknown = set(commands) - self._expected_cmd_keys
            if unknown:
                raise KeyError(
                    f"command for unknown intersection(s) {sorted(unknown)}")
            missing = self._expected_cmd_keys - set(commands)
            raise KeyError(
                f"missing command for intersection(s) {sorted(missing)}")

        t = self.t
        lanes = self.net.lanes
        lane_vehicles = self.lane_vehicles
        self.exited_this_step = []
        self.crossings_this_step = crossings = {}

        # (a) arrivals
        if t < self.inject_until:
            i = int(t)
            k = i % _ARRIVAL_BLOCK
            if k == 0:
                self._arrival_block = self._draw_arrivals(i)
            for j in self._arrival_block[k]:
                entry, capacity, routes = self._arrivals[j]
                vehs = lane_vehicles[entry]
                if len(vehs) >= capacity:
                    self.blocked += 1
                    continue
                route, ff = \
                    routes[int(self._route_rng.integers(len(routes)))] \
                    if len(routes) > 1 else routes[0]
                vehs.append(Vehicle(self._next_vid, route, t, ff))
                self._next_vid += 1
                self.injected += 1

        # (b) advance free vehicles / join queues, controlled lanes grouped
        # by intersection, then sink lanes. While run_episode collects the
        # series, the controlled-lane pass first sums the queue and delay
        # of the state the previous step left, reading each vehicle before
        # it moves: the row collect_moe would have appended after that
        # step. Arrivals of (a) add 0 to both (not queued, zero delay).
        log = self._moe_log
        if log is None or not t:
            for lid, length, speed, spacing, stops in self._controlled_plan:
                vehs = lane_vehicles[lid]
                if not vehs:
                    continue
                limits, queued_at = stops
                if len(vehs) > len(limits):  # over capacity: only set by hand
                    limits, queued_at = _stop_lines(length, spacing, len(vehs))
                for v, limit, at in zip(vehs, limits, queued_at):
                    pos = v.position
                    if pos < at:
                        pos += speed
                        if pos > limit:
                            pos = limit
                        v.position = pos
                        v.queued = pos >= at
                    else:
                        v.queued = True
        else:
            log.times.append(t)
            for iid, group in self._lane_groups:
                q = 0
                d = 0.0
                for lid, length, speed, spacing, stops in group:
                    vehs = lane_vehicles[lid]
                    if not vehs:
                        continue
                    limits, queued_at = stops
                    if len(vehs) > len(limits):
                        limits, queued_at = _stop_lines(length, spacing,
                                                        len(vehs))
                    for v, limit, at in zip(vehs, limits, queued_at):
                        if v.queued:
                            q += 1
                        pos = v.position
                        x = t - v.entry_time - (v.ff_completed + pos / speed)
                        if x > 0.0:
                            d += x
                        if pos < at:
                            pos += speed
                            if pos > limit:
                                pos = limit
                            v.position = pos
                            v.queued = pos >= at
                        else:
                            v.queued = True
                log.queue[iid].append(q)
                log.delay[iid].append(d)
        for lid, length, speed in self._sink_plan:  # free flow to the exit
            vehs = lane_vehicles[lid]
            if not vehs:
                continue
            exit_at = length - _EPS
            n_exit = 0
            for v in vehs:
                pos = v.position + speed
                v.position = pos
                v.queued = False
                if pos >= exit_at:
                    if v.leg == len(v.route) - 1:
                        self._exit_vehicle(v)
                        n_exit += 1
                    else:
                        v.position = length  # malformed route; pin at end
            if n_exit:
                del vehs[:n_exit]

        # (c) saturation-headway discharge of green movements
        headway = self.headway
        green_elapsed = self.green_elapsed
        for iid, indication in commands.items():
            incoming, phases = self._signals[iid]
            if indication[0] != GREEN:
                for lid in incoming:
                    green_elapsed[lid] = 0.0
                continue
            green, red = phases[indication[1]]
            for lid in red:
                green_elapsed[lid] = 0.0
            for lid, stop_line, ff, targets in green:
                elapsed = green_elapsed[lid] = green_elapsed[lid] + 1.0
                if elapsed < headway:
                    continue
                vehs = lane_vehicles[lid]
                if not vehs:
                    continue
                head = vehs[0]
                if not (head.queued and head.position >= stop_line):
                    continue
                if head.leg == len(head.route) - 1:
                    nxt = None
                    del vehs[0]
                    head.ff_completed += ff
                    self._exit_vehicle(head)
                else:
                    nxt = head.route[head.leg + 1]
                    if nxt not in targets:  # its movement is red: it blocks
                        continue
                    target = lane_vehicles[nxt]
                    if len(target) >= lanes[nxt].jam_capacity:
                        continue
                    del vehs[0]
                    head.ff_completed += ff
                    head.leg += 1
                    head.position = 0.0
                    head.queued = False
                    target.append(head)
                green_elapsed[lid] = 0.0
                key = (iid, lid)
                crossings[key] = crossings.get(key, 0) + 1
                if (iid, indication[1], lid, nxt) not in self._served:
                    self.nongreen_crossings += 1

        # (e) clock
        self.t = t + 1.0

    def _draw_arrivals(self, start: int) -> list:
        """Arrivals of the block of seconds from `start`: for each second,
        the indices into _arrivals of the entry lanes whose draw fell below
        rate / 3600. The block is clipped at ceil(inject_until)."""
        k = min(_ARRIVAL_BLOCK, math.ceil(self.inject_until) - start)
        tables = self.demand._table
        p = np.column_stack([tables[lane][start:start + k]
                             for lane, _, _ in self._arrivals]) / 3600.0
        rows, cols = np.nonzero(self.rng.random(p.shape) < p)
        block = [()] * k
        for r, j in zip(rows.tolist(), cols.tolist()):
            block[r] += (j,)
        return block

    def _exit_vehicle(self, veh: Vehicle) -> None:
        veh.exit_time = self.t + 1.0  # leaves during this step
        veh.position = self.net.lanes[veh.route[veh.leg]].length
        self.exited += 1
        self.exited_this_step.append(veh)

    def conservation_ok(self) -> bool:
        return self.injected == self.exited + self.total_vehicles()


@functools.lru_cache(maxsize=256)
def _stop_lines(length: float, spacing: float, n: int) -> tuple:
    """Stop lines of a lane's first n queue slots, and the positions from
    which a vehicle in each slot counts as queued.

    Cached, so that every episode on a network shares one copy: building
    them per episode leaves the float objects scattered over the heap and
    raises the peak RSS of long runs.
    """
    limits = tuple(length - spacing * i for i in range(n))
    return limits, tuple(x - _EPS for x in limits)


def collect_moe(sim: Simulation, log: MoELog) -> None:
    """Append one step's MoE increment; call once per step after step().

    The reference for the series: run_episode sums every row but the last
    inside the next `Simulation.step`, and calls this for the last row.
    The delay sum inlines vehicle_delay for vehicles still on a lane and
    skips its zero terms, which leaves the float sum unchanged.
    """
    now = sim.t
    log.times.append(now)
    lane_vehicles = sim.lane_vehicles
    for iid, group in sim._lane_groups:
        q = 0
        d = 0.0
        for lid, _, speed, _, _ in group:
            for v in lane_vehicles[lid]:
                if v.queued:
                    q += 1
                x = now - v.entry_time - (v.ff_completed + v.position / speed)
                if x > 0.0:
                    d += x
        log.queue[iid].append(q)
        log.delay[iid].append(d)
    _collect_travel_times(sim, log)
    log.injected = sim.injected
    log.exited = sim.exited
    log.blocked = sim.blocked


def _collect_travel_times(sim: Simulation, log: MoELog) -> None:
    for v in sim.exited_this_step:
        log.travel_times.append((v.exit_time, v.exit_time - v.entry_time))


def run_episode(net: NetworkModel, demand: DemandProfile, controllers: dict,
                seed: int, horizon: float | None = None,
                drain: float = DEFAULT_DRAIN_CAP,
                saturation_flow: float = DEFAULT_SATURATION_FLOW,
                moe_series: bool = True) -> MoELog:
    """Full observe -> decide -> sequence -> step -> collect loop.

    `controllers` maps intersection id -> controller instance. Vehicles
    still in the network after the drain window are reported as unfinished
    and excluded from travel-time statistics. With `moe_series` false the
    log holds the travel times and the conservation ledger only: its
    per-second times, queue and delay series stay empty.
    """
    from .control import SignalUnit

    if horizon is None:
        horizon = demand.horizon
    if horizon > demand.horizon + drain:
        raise ValueError("horizon exceeds demand horizon plus drain allowance")
    missing = [ix.id for ix in net.intersections if ix.id not in controllers]
    if missing:
        raise ValueError(f"no controller for intersection(s) {missing}")

    sim = Simulation(net, demand, seed, saturation_flow=saturation_flow,
                     inject_until=horizon)
    advances = tuple((ix.id, SignalUnit(net, ix.id, controllers[ix.id],
                                        sim).advance)
                     for ix in net.intersections)
    for ctrl in controllers.values():
        ctrl.begin_episode()

    log = MoELog([ix.id for ix in net.intersections])
    if moe_series:
        sim._moe_log = log  # each step appends the row of the step before

    def one_second():
        _collect_travel_times(sim, log)  # of the step before
        sim.step({iid: advance() for iid, advance in advances})

    while sim.t < horizon:
        one_second()
    deadline = horizon + drain
    while sim.t < deadline and sim.total_vehicles() > 0:
        one_second()
    if moe_series and sim.t:
        collect_moe(sim, log)  # the last row and the last travel times
    else:
        _collect_travel_times(sim, log)

    log.unfinished = sim.total_vehicles()
    log.injected, log.exited, log.blocked = \
        sim.injected, sim.exited, sim.blocked
    for ctrl in controllers.values():
        ctrl.end_episode()
    return log

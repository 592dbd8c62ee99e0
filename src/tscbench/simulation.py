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
from array import array

import numpy as np

from .network import NetworkModel, finite_number, parse_input

GREEN = "green"
YELLOW = "yellow"
ALLRED = "allred"

DEFAULT_SATURATION_FLOW = 1800.0  # veh/h/lane -> 2 s discharge headway
DEFAULT_DRAIN_CAP = 600.0         # extra seconds after demand end

_EPS = 1e-9
_ARRIVAL_BLOCK = 256  # simulated seconds of arrival draws per RNG call


class DemandProfile:
    """Piecewise-linear arrival rates (veh/h) per entry lane, kept as their
    `breakpoints` alone: each lane's (time_s, rate_veh_h) floats, sorted by
    time. Points that share a time are a step, in the order written; past
    the last point the rate holds. `horizon` is the last time of any lane.
    """

    def __init__(self, rates: dict):
        if not isinstance(rates, dict):
            raise ValueError("demand profile must be an object mapping "
                             "entry lane -> [[time_s, rate_veh_h], ...]")
        if not rates:
            raise ValueError("demand profile has no entry lanes")
        self.breakpoints = {}
        for lane, pts in rates.items():
            # a NaN rate would compare false against every draw
            if not isinstance(pts, (list, tuple)) or not pts or not all(
                    isinstance(p, (list, tuple)) and len(p) == 2
                    and all(map(finite_number, p)) for p in pts):
                raise ValueError(f"demand for lane {lane!r} must be a "
                                 f"non-empty list of [time_s, rate_veh_h] "
                                 f"points, each two finite numbers")
            if any(r < 0 for _, r in pts):
                raise ValueError(f"negative rate for lane {lane!r}")
            self.breakpoints[lane] = sorted(
                ((float(t), float(r)) for t, r in pts), key=lambda p: p[0])
        self.horizon = max(pts[-1][0] for pts in self.breakpoints.values())
        if not self.horizon > 0:
            raise ValueError("demand horizon (the last time) must be > 0")

    @property
    def entry_lanes(self):
        return tuple(self.breakpoints)

    def rate(self, start: int, k: int) -> np.ndarray:
        """Rates (veh/h) of the k seconds from `start`: one row per second,
        one column per entry lane in `entry_lanes` order. np.interp computes
        each second on its own, so a second's rate is the same double
        whichever block asks for it."""
        ts = np.arange(start, start + k, dtype=float)
        return np.column_stack([np.interp(ts, *zip(*pts))
                                for pts in self.breakpoints.values()])


def check_entry_lanes(net: NetworkModel, demand: DemandProfile):
    """`demand`, if each of its lanes starts a route of `net`."""
    unknown = sorted(set(demand.entry_lanes) - set(net.entry_lanes))
    if unknown:
        raise ValueError(f"demand lanes {unknown} start no network route")
    return demand


def load_demand(path) -> DemandProfile:
    return parse_input(path, DemandProfile)


class Vehicle:
    __slots__ = ("id", "route", "leg", "position", "queued", "entry_time",
                 "ff_completed")

    def __init__(self, vid: int, route: tuple, entry_time: float):
        self.id = vid
        self.route = route
        self.leg = 0
        self.position = 0.0
        self.queued = False
        self.entry_time = entry_time
        self.ff_completed = 0.0  # free-flow seconds for completed legs


def vehicle_delay(veh: Vehicle, now: float, lane_speed: float) -> float:
    """Elapsed time minus free-flow time for the distance covered so far."""
    elapsed = now - veh.entry_time
    ff = veh.ff_completed + veh.position / lane_speed
    return max(0.0, elapsed - ff)


class MoELog:
    """Per-episode measures of effectiveness, each a typed array (8 bytes
    a value): `exit_times` and `travel_times` are parallel `array("d")`s,
    one entry per exit in exit order; `times`, and each intersection's
    `delay` (`array("d")`) and `queue` (`array("q")`), one row per second.
    An array equals another array of the same values, never a list.
    """

    def __init__(self, intersection_ids):
        self.exit_times = array("d")
        self.travel_times = array("d")
        self.times = array("d")
        self.queue = {iid: array("q") for iid in intersection_ids}
        self.delay = {iid: array("d") for iid in intersection_ids}
        self.unfinished = 0
        self.injected = 0
        self.exited = 0
        self.blocked = 0

    @property
    def travel_time_values(self):
        return self.travel_times

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
        for t, tt in zip(self.exit_times, self.travel_times):
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
    so no step can reorder a lane; the `SignalUnit` scans rely on this and
    stop at the first vehicle behind their bound. A vehicle leaves its
    lane in the step it exits, so every vehicle on a lane is still
    travelling (`collect_moe` relies on that). The clock starts at 0 and
    only `step` advances it, one second per call; each call takes the next
    second of the arrival schedule.

    Episode records, each kept once: `exit_times` and `travel_times` are
    parallel `array("d")`s with the exit time and travel time of every exit
    in exit order, and become the `MoELog`'s records; `crossed` maps each
    controlled lane to its stop-line crossings so far, so a window's
    crossings are the difference of two readings. The conservation ledger
    is `injected`, `exited` and `blocked`.

    MoE series: while `run_episode` collects them, step (b) of each step
    sums the queue and delay of the state the step before left (the row
    for its clock time) in its one pass over the controlled lanes, in the
    same lane and vehicle order as `collect_moe`, reading each vehicle
    before it moves. `collect_moe` stays the reference sum and appends the
    episode's last row.

    Signals act on movements. A lane's head crosses the stop line only if
    the displayed phase gives a green to its movement (the lane and the
    next lane of its route; every route ends on a sink lane, one no
    intersection controls). A head whose movement is red blocks
    its lane, even for vehicles behind it whose movement is green
    (head-of-line blocking: one lane, one queue). `nongreen_crossings`
    counts crossings outside the network's green movements and must stay
    0. Controllers still read lanes: max-pressure weighs a phase by the
    vehicles on its incoming and outgoing lanes, not per movement.
    """

    def __init__(self, net: NetworkModel, demand: DemandProfile, seed: int,
                 inject_until: float | None = None):
        self.net = net
        self.demand = check_entry_lanes(net, demand)
        self.rng = np.random.default_rng(seed)
        self.t = 0.0
        self.headway = math.ceil(3600.0 / DEFAULT_SATURATION_FLOW)
        self.inject_until = (demand.horizon if inject_until is None
                             else min(inject_until, demand.horizon))

        self.lane_vehicles = {lid: [] for lid in net.lanes}
        # first second each lane may discharge in while its green continues
        self.ready_at = {lid: 0.0 for lid in net.lanes}
        self._next_vid = 0

        # conservation ledger
        self.injected = 0
        self.exited = 0
        self.blocked = 0
        self.nongreen_crossings = 0      # safety audit, must stay 0
        self.exit_times = array("d")     # per exit, in exit order
        self.travel_times = array("d")   # per exit, parallel to exit_times

        # Static tables of the per-second loop. The vehicle lists stay in
        # lane_vehicles, which callers may rebind.
        lanes = net.lanes
        self._expected_cmd_keys = frozenset(ix.id for ix in net.intersections)
        # (entry lane, jam capacity, its routes) in demand.entry_lanes order
        self._arrivals = tuple(
            (lane, lanes[lane].jam_capacity, net.routes_from(lane))
            for lane in demand.entry_lanes)
        # Arrival stream: one uniform per entry lane per simulated second,
        # in entry-lane order, drawn _ARRIVAL_BLOCK seconds at a time (one
        # rng.random((k, n)) call yields the same doubles in the same order
        # as k * n rng.random() calls). Route picks come from a spawned
        # child, so they never fall between two blocks of the parent stream.
        self._route_rng = self.rng.spawn(1)[0]
        self._arrival_block = []  # the block's seconds left, last first
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
        # controlled lane id -> its stop-line crossings so far
        self.crossed = dict.fromkeys(
            (entry[0] for _, group in self._lane_groups for entry in group), 0)
        # (lane id, length, speed) of the other (sink) lanes, in lane order
        self._sink_plan = tuple(
            (lid, lane.length, lane.speed_limit)
            for lid, lane in lanes.items() if lid not in self.crossed)
        # run_episode's MoELog while it collects the series, else None
        self._moe_log = None
        # iid -> phase -> (green lanes as (lane id, stop line, free-flow
        # time, lanes its green movements lead to), the phase shown the
        # step before, or None -> the green lanes it left red)
        def signal(ix):
            was_green = {None: ()}
            was_green.update((q.id, q.incoming) for q in ix.phases)
            return {p.id: (tuple((lid, lanes[lid].length - 1e-6,
                                  lanes[lid].free_flow_time,
                                  frozenset(b for a, b in p.green_movements
                                            if a == lid))
                                 for lid in p.incoming),
                           {q: tuple(lid for lid in p.incoming
                                     if lid not in before)
                            for q, before in was_green.items()})
                    for p in ix.phases}
        self._signals = {ix.id: signal(ix) for ix in net.intersections}
        # iid -> this step's phase table, None if not green; refilled
        self._greens = dict.fromkeys(self._signals)
        # each intersection's green phase in the last step, None if not green
        self._shown = dict.fromkeys(self._signals)
        # The safety audit's own table, from the lanes' movement pairs:
        # (iid, phase, lane, next lane) for every green movement.
        self._served = frozenset(
            (iid, p, lid, target)
            for lid, lane in lanes.items()
            for (iid, p), target in lane.downstream)

    # -- queries ---------------------------------------------------------

    def capacity_within(self, lane_id: str, bound: float) -> int:
        lane = self.net.lanes[lane_id]
        if bound >= lane.length:
            return lane.jam_capacity
        return max(1, math.floor(bound / lane.spacing))

    def total_vehicles(self) -> int:
        return sum(len(vs) for vs in self.lane_vehicles.values())

    # -- dynamics ---------------------------------------------------------

    def step(self, commands: dict) -> None:
        """Advance the simulation by one second under `commands`
        (intersection id -> (indication, phase)). A command for an
        unknown intersection or phase raises before anything changes."""
        if commands.keys() != self._expected_cmd_keys:
            unknown = set(commands) - self._expected_cmd_keys
            if unknown:
                raise KeyError(
                    f"command for unknown intersection(s) {sorted(unknown)}")
            missing = self._expected_cmd_keys - set(commands)
            raise KeyError(
                f"missing command for intersection(s) {sorted(missing)}")
        signals, greens = self._signals, self._greens
        for iid, (kind, p) in commands.items():
            try:
                greens[iid] = signals[iid][p] if kind == GREEN else None
            except KeyError:
                raise ValueError(
                    f"intersection {iid!r} has no phase {p!r}") from None

        t = self.t
        lanes = self.net.lanes
        lane_vehicles = self.lane_vehicles

        # (a) arrivals
        if t < self.inject_until:
            block = self._arrival_block
            if not block:
                block = self._arrival_block = self._draw_arrivals(int(t))
            for entry, capacity, routes in block.pop():
                vehs = lane_vehicles[entry]
                if len(vehs) >= capacity:
                    self.blocked += 1
                    continue
                route = \
                    routes[int(self._route_rng.integers(len(routes)))] \
                    if len(routes) > 1 else routes[0]
                vehs.append(Vehicle(self._next_vid, route, t))
                self._next_vid += 1
                self.injected += 1

        # (b) advance free vehicles / join queues, controlled lanes grouped
        # by intersection, then sink lanes. While run_episode collects the
        # series, the controlled-lane pass also sums the queue and delay of
        # the state the previous step left, reading each vehicle before it
        # moves: the row collect_moe would have appended after that step.
        # Arrivals of (a) add 0 to both (not queued, zero delay).
        log = self._moe_log if t else None
        if log is not None:
            log.times.append(t)
        for iid, group in self._lane_groups:
            q = 0
            d = 0.0
            for lid, length, speed, spacing, (limits, queued_at) in group:
                vehs = lane_vehicles[lid]
                if not vehs:
                    continue
                if len(vehs) > len(limits):  # over capacity: only set by hand
                    limits, queued_at = _stop_lines(length, spacing, len(vehs))
                for v, limit, at in zip(vehs, limits, queued_at):
                    pos = v.position
                    if log is not None:
                        if v.queued:
                            q += 1
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
            if log is not None:
                log.queue[iid].append(q)
                log.delay[iid].append(d)
        # Sink lanes: free flow to the exit. Route hops are movements out
        # of controlled lanes, so each vehicle here is on its last leg and
        # not queued; all move at one speed, so the exits are a prefix.
        for lid, length, speed in self._sink_plan:
            vehs = lane_vehicles[lid]
            if not vehs:
                continue
            for v in vehs:
                v.position += speed
            exit_at = length - _EPS
            if vehs[0].position >= exit_at:
                n_exit = 0
                for v in vehs:
                    if v.position < exit_at:
                        break
                    self._exit_vehicle(v)
                    n_exit += 1
                del vehs[:n_exit]

        # (c) discharge of green movements at saturation headway: a lane may
        # discharge once green headway seconds since it turned green or crossed
        headway = self.headway
        ready_at = self.ready_at
        shown = self._shown
        crossed = self.crossed
        for iid, indication in commands.items():
            table = greens[iid]
            if table is None:
                shown[iid] = None
                continue
            p = indication[1]
            green, turned = table
            q = shown[iid]
            if q != p:
                shown[iid] = p
                ready = t - 1.0 + headway
                for lid in turned[q]:
                    ready_at[lid] = ready
            for lid, stop_line, ff, targets in green:
                if ready_at[lid] > t:
                    continue
                vehs = lane_vehicles[lid]
                if not vehs:
                    continue
                head = vehs[0]
                if not (head.queued and head.position >= stop_line):
                    continue
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
                ready_at[lid] = t + headway
                crossed[lid] += 1
                if (iid, p, lid, nxt) not in self._served:
                    self.nongreen_crossings += 1

        # (e) clock
        self.t = t + 1.0

    def _draw_arrivals(self, start: int) -> list:
        """Arrivals of the block of seconds from `start`, last second first:
        the _arrivals entries whose draw fell below rate / 3600. The block
        is clipped at ceil(inject_until)."""
        k = min(_ARRIVAL_BLOCK, math.ceil(self.inject_until) - start)
        p = self.demand.rate(start, k) / 3600.0
        rows, cols = np.nonzero(self.rng.random(p.shape) < p)
        block = [()] * k
        for r, j in zip(rows.tolist(), cols.tolist()):
            block[k - 1 - r] += (self._arrivals[j],)
        return block

    def _exit_vehicle(self, veh: Vehicle) -> None:
        exit_time = self.t + 1.0  # leaves during this step
        self.exited += 1
        self.exit_times.append(exit_time)
        self.travel_times.append(exit_time - veh.entry_time)

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
    """Append one step's queue and delay row; call after each step().

    The reference for the series: run_episode sums every row but the last
    inside the next `Simulation.step`, and calls this for the last row.
    The delay sum inlines vehicle_delay and skips its zero terms, which
    leaves the float sum unchanged.
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


def check_horizon(horizon, name: str = "horizon") -> None:
    """ValueError unless `horizon` is None (the demand's own) or a finite
    number of seconds > 0."""
    if horizon is not None and not (finite_number(horizon) and horizon > 0):
        raise ValueError(f"{name} must be a finite number > 0, "
                         f"got {horizon!r}")


def run_episode(net: NetworkModel, demand: DemandProfile, controllers: dict,
                seed: int, horizon: float | None = None,
                moe_series: bool = True) -> MoELog:
    """Full observe -> decide -> sequence -> step loop.

    `controllers` maps intersection id -> controller instance. The log
    takes the simulation's exit-time and travel-time arrays; vehicles
    still in the network `DEFAULT_DRAIN_CAP` seconds after the horizon are
    reported as unfinished, with no travel time.
    With `moe_series` false the log holds the travel times and the ledger
    only: its per-second times, queue and delay series stay empty.
    """
    from .control import SignalUnit

    check_horizon(horizon)
    if horizon is None:
        horizon = demand.horizon
    if horizon > demand.horizon + DEFAULT_DRAIN_CAP:
        raise ValueError("horizon exceeds demand horizon plus drain allowance")
    missing = [ix.id for ix in net.intersections if ix.id not in controllers]
    if missing:
        raise ValueError(f"no controller for intersection(s) {missing}")

    sim = Simulation(net, demand, seed, inject_until=horizon)
    advances = tuple((ix.id, SignalUnit(net, ix.id, controllers[ix.id],
                                        sim).advance)
                     for ix in net.intersections)
    for ctrl in controllers.values():
        ctrl.begin_episode()

    log = MoELog([ix.id for ix in net.intersections])
    if moe_series:
        sim._moe_log = log  # each step appends the row of the step before

    commands = {}  # the same keys every second: refilled, not rebuilt
    deadline = horizon + DEFAULT_DRAIN_CAP
    while sim.t < horizon or (sim.t < deadline and sim.total_vehicles()):
        for iid, advance in advances:
            commands[iid] = advance()
        sim.step(commands)
    if moe_series:  # a horizon > 0 makes at least one step
        collect_moe(sim, log)  # the last row

    log.exit_times, log.travel_times = sim.exit_times, sim.travel_times
    log.unfinished = sim.total_vehicles()
    log.injected, log.exited, log.blocked = \
        sim.injected, sim.exited, sim.blocked
    return log

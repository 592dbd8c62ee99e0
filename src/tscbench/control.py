"""Controller contract: observations, reward, and the safety sequencer.

Every controller is consulted once per second while its intersection shows
green (or sits idle in all-red). Distinct greens are always separated by a
2 s yellow and a 3 s all-red clearance inserted by the sequencer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import Intersection, NetworkModel
from .simulation import ALLRED, GREEN, YELLOW, Simulation, vehicle_delay

YELLOW_TIME = 2
ALLRED_TIME = 3
OBSERVATION_BOUND = 150.0  # meters upstream of the stop line


# -- decisions -------------------------------------------------------------

@dataclass(frozen=True)
class Hold:
    pass


@dataclass(frozen=True)
class NextPhase:
    phase: int | None  # None requests the all-red idle indication


HOLD = Hold()


# -- sequencer --------------------------------------------------------------

class SequencerState:
    __slots__ = ("kind", "phase", "time_in", "pending", "t_p", "idle",
                 "green")

    def __init__(self, start_green: int | None = 0):
        self.idle = start_green is None  # all-red with no green pending
        self.kind = ALLRED if self.idle else GREEN
        self.phase = start_green
        # the indication of the current green, returned every second of it
        self.green = None if self.idle else (GREEN, start_green)
        self.time_in = self.t_p = 0
        self.pending = None

    @property
    def in_interphase(self) -> bool:
        return self.kind == YELLOW or (self.kind == ALLRED and not self.idle)


def sequencer_advance(seq: SequencerState, decision):
    """Advance one second; returns the indication displayed for that second.

    The controller's decision is only honoured while green or idle; during
    yellow/all-red clearance callers must pass Hold.
    """
    kind = seq.kind
    if kind == GREEN:
        if not isinstance(decision, NextPhase):
            seq.t_p += 1
            return seq.green
        if decision.phase == seq.phase:
            seq.t_p = 1  # re-enacted phase starts a fresh green interval
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
        # idle: clearance already satisfied; start the green immediately
        seq.kind, seq.phase, seq.idle, seq.t_p = GREEN, decision.phase, False, 1
        seq.green = (GREEN, seq.phase)
        return seq.green
    return (ALLRED, None)


# -- observation and reward --------------------------------------------------

def observe(unit: SignalUnit, force_all_red: bool = False) -> np.ndarray:
    """Normalized densities + queues of incoming lanes plus phase one-hot."""
    n_inc = len(unit.observed)
    out = np.zeros(2 * n_inc + unit.n_phases + 1)
    lane_vehicles = unit.sim.lane_vehicles
    for i, (lid, cut, cap, _) in enumerate(unit.observed):
        n = q = 0
        for v in lane_vehicles[lid]:
            if v.position < cut:
                break
            n += 1
            if v.queued:
                q += 1
        out[i] = min(1.0, n / cap)
        out[n_inc + i] = min(1.0, q / cap)
    current = None if force_all_red else unit.current_phase
    out[2 * n_inc + (unit.n_phases if current is None else current)] = 1.0
    return out


def state_width(net: NetworkModel, iid: str) -> int:
    ix = net.intersection(iid)
    return 2 * len(ix.incoming) + len(ix.phases) + 1


class RewardNormalizer:
    """Scales the negative-delay reward by the largest magnitude seen so far.

    The running maximum persists across episodes within one training run.
    """

    def __init__(self, r_min: float = 0.0):
        self.r_min = float(r_min)  # magnitude of most negative reward seen

    def normalize(self, raw: float) -> float:
        mag = abs(raw)
        if mag > self.r_min:
            self.r_min = mag
        if self.r_min == 0.0:
            return 0.0
        return max(-1.0, min(0.0, raw / self.r_min))


def raw_reward(unit: SignalUnit) -> float:
    """Minus the delay of the vehicles within the unit's bound, summed lane
    by lane, head first (`Simulation.delay_sum` of the incoming lanes)."""
    total = 0.0
    now = unit.sim.t
    lane_vehicles = unit.sim.lane_vehicles
    for lid, cut, _, speed in unit.observed:
        for v in lane_vehicles[lid]:
            if v.position < cut:
                break
            total += vehicle_delay(v, now, speed)
    return -total


def cycle_next_phase(sim: Simulation, ix: Intersection,
                     current: int | None) -> int | None:
    """First phase after `current` in cycle order with any incoming vehicle;
    None (all-red idle) when no incoming lane holds a vehicle."""
    n = len(ix.phases)
    start = 0 if current is None else (current + 1) % n
    for k in range(n):
        p = (start + k) % n
        for lid in ix.phases[p].incoming:
            if sim.lane_vehicles[lid]:
                return p
    return None


# -- controller interface -----------------------------------------------------

def require_finite(**values) -> None:
    """Raise ValueError naming the first float hyperparameter that is NaN
    or infinite: range checks such as `x <= 0` let NaN through."""
    for name, value in values.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, not {value!r}")


class Controller:
    """Per-intersection decision maker, owned by one simulator instance."""

    start_idle = False           # learning controllers start in all-red idle

    def begin_episode(self) -> None:
        pass

    def end_episode(self) -> None:
        pass

    def tick(self, unit) -> None:
        """Called once every simulation second, before decide()."""

    def decide(self, unit):
        raise NotImplementedError


class SignalUnit:
    """One intersection's signal for one episode: its sequencer, its
    controller, and the controller's window onto the simulator.

    The unit is what `tick` and `decide` receive. It resolves its
    `Intersection` and builds its lane tables once per episode: `red_in[p]`
    holds the incoming lanes phase p leaves red, `red_in[None]` all of them
    (no green); a phase's green and outgoing lanes are its `Phase`'s own.
    Tables hold lane ids: callers may rebind `Simulation.lane_vehicles`.
    """

    bound = OBSERVATION_BOUND

    def __init__(self, net: NetworkModel, iid: str, controller: Controller,
                 sim: Simulation):
        self.iid = iid
        ix = self.intersection = net.intersection(iid)
        self.n_phases = len(ix.phases)
        self.controller = controller
        self.sim = sim
        self.seq = SequencerState(start_green=None if controller.start_idle
                                  else 0)
        self.red_in = {None: ix.incoming}
        for p in ix.phases:
            self.red_in[p.id] = tuple(lid for lid in ix.incoming
                                      if lid not in p.incoming)
        self._cuts = {}  # bound -> {lane id: length - bound}
        lanes = net.lanes
        # (lane id, cut, capacity, speed) per incoming lane at self.bound
        self.observed = tuple(
            (lid, lanes[lid].length - self.bound,
             sim.capacity_within(lid, self.bound), lanes[lid].speed_limit)
            for lid in ix.incoming)

    def count_sum(self, lanes, bound: float) -> int:
        """Sum of `Simulation.count_within(lid, bound)` over `lanes`."""
        cuts = self._cuts.get(bound)
        if cuts is None:
            net, ix = self.sim.net, self.intersection
            cuts = self._cuts[bound] = {lid: net.lanes[lid].length - bound
                                        for lid in ix.incoming + ix.outgoing}
        lane_vehicles = self.sim.lane_vehicles
        n = 0
        for lid in lanes:
            cut = cuts[lid]
            if cut <= 0:
                n += len(lane_vehicles[lid])
                continue
            for v in lane_vehicles[lid]:  # head first: stop at the bound
                if v.position < cut:
                    break
                n += 1
        return n

    @property
    def t_p(self) -> int:
        return self.seq.t_p

    @property
    def current_phase(self) -> int | None:
        seq = self.seq
        return seq.phase if seq.kind == GREEN else None

    @property
    def is_idle(self) -> bool:
        return self.seq.idle

    @property
    def now(self) -> float:
        return self.sim.t

    def any_incoming_vehicle(self) -> bool:
        lane_vehicles = self.sim.lane_vehicles
        return any(lane_vehicles[lid] for lid in self.red_in[None])

    def observe(self, force_all_red: bool = False) -> np.ndarray:
        return observe(self, force_all_red)

    def reward_raw(self) -> float:
        return raw_reward(self)

    def cycle_next(self, current: int | None = None) -> int | None:
        return cycle_next_phase(self.sim, self.intersection,
                                self.seq.phase if current is None else current)

    def crossings(self) -> dict:
        """Stop-line crossings of this intersection during the last step."""
        return {lid: n for (iid, lid), n in
                self.sim.crossings_this_step.items() if iid == self.iid}

    def advance(self):
        controller, seq = self.controller, self.seq
        controller.tick(self)
        if seq.kind == GREEN or seq.idle:
            return sequencer_advance(seq, controller.decide(self))
        return sequencer_advance(seq, HOLD)  # interphase

"""Controller contract: hyperparameters, observations, reward, and the
safety sequencer.

Every controller is consulted once per second while its intersection shows
green (or sits idle in all-red). Distinct greens are always separated by a
2 s yellow and a 3 s all-red clearance inserted by the sequencer.
"""

from __future__ import annotations

import functools
import math
import numbers
import typing
from dataclasses import dataclass, fields

import numpy as np

from .network import ConfigError, NetworkModel
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


# -- observation and reward --------------------------------------------------

def state_width(net: NetworkModel, iid: str) -> int:
    ix = net.intersection(iid)
    return 2 * len(ix.incoming) + len(ix.phases) + 1


class RewardNormalizer:
    """Scales the negative-delay reward by the largest magnitude seen so far.

    The running maximum persists across episodes within one training run.
    """

    r_min = 0.0  # magnitude of the most negative reward seen

    def normalize(self, raw: float) -> float:
        mag = abs(raw)
        if mag > self.r_min:
            self.r_min = mag
        if self.r_min == 0.0:
            return 0.0
        return max(-1.0, min(0.0, raw / self.r_min))


# -- controller interface -----------------------------------------------------

@functools.cache
def _hp_fields(cls) -> dict:
    """Hyperparameter name -> (int or float, whether None is allowed) for
    every init field of dataclass `cls`, read from its declared types."""
    hints = typing.get_type_hints(cls)
    table = {}
    for f in fields(cls):
        if f.init:
            kinds = typing.get_args(hints[f.name]) or (hints[f.name],)
            table[f.name] = (int if int in kinds else float,
                             type(None) in kinds)
    return table


def check_numbers(obj) -> None:
    """Make each hyperparameter field of `obj` a finite real number of its
    declared type, or raise ValueError naming the first that is not: an
    int field needs a whole number and stores an int (10.0 becomes 10), a
    float field stores a float, None passes only where the type allows it,
    and a bool or a string never passes."""
    for name, (kind, optional) in _hp_fields(type(obj)).items():
        value = getattr(obj, name)
        if type(value) is kind and (kind is int or math.isfinite(value)) \
                or value is None and optional:
            continue  # already the declared type: nothing to convert
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        try:
            finite = real and math.isfinite(value)
        except OverflowError:  # an int too large for a float
            finite = kind is int
        if finite and kind is float:
            setattr(obj, name, float(value))
        elif finite and (isinstance(value, numbers.Integral)
                         or float(value).is_integer()):
            setattr(obj, name, int(value))
        else:
            what = "whole" if kind is int and (finite or not real) \
                else "finite"
            raise ValueError(f"{name} must be a {what} number, "
                             f"not {value!r}")


def check_count(name: str, value: int) -> None:
    """ConfigError unless the count `name` is at least 1."""
    if value < 1:
        raise ConfigError(f"{name} must be >= 1, got {value}")


def configure(name: str, cls, hp):
    """`cls(**hp)`, the controller class or agent config of controller
    `name` built from hyperparameters `hp`; ConfigError unless `hp` is an
    object naming only fields of `cls`."""
    if not isinstance(hp, dict):
        raise ConfigError(f"hyperparameters of controller {name!r} must be "
                          f"an object, not {hp!r}")
    names = _hp_fields(cls).keys()
    if not hp.keys() <= names:
        unknown = sorted(hp.keys() - names, key=str)
        raise ConfigError(f"unknown hyperparameter(s) {unknown} "
                          f"for controller {name!r}")
    return cls(**hp)


class Controller:
    """Per-intersection decision maker, owned by one simulator instance."""

    start_idle = False           # learning controllers start in all-red idle

    def begin_episode(self) -> None:
        pass

    def tick(self, unit) -> None:
        """Called once every simulation second, before decide()."""

    def decide(self, unit):
        raise NotImplementedError


class SignalUnit:
    """One intersection's signal for one episode: its sequencer, its
    controller, and the controller's window onto the simulator.

    Its sequencer state is plain attributes: `kind`, `phase` (the last
    green shown), `pending` (the green a clearance leads to; None: idle),
    `time_in` (seconds into the clearance), `green` (the green's
    indication), and the three that controllers read: `t_p` (seconds of
    the green interval), `current_phase` (None unless green), `is_idle`.

    The unit is what `tick` and `decide` receive. It resolves its
    `Intersection` and builds its lane tables once per episode: `red_in[p]`
    holds the incoming lanes phase p does not serve whole, those with a
    movement p leaves red, and `red_in[None]` all of them (no green); a
    phase's green and outgoing lanes are its `Phase`'s own. Tables hold
    lane ids: callers may rebind `Simulation.lane_vehicles`.
    """

    bound = OBSERVATION_BOUND

    def __init__(self, net: NetworkModel, iid: str, controller: Controller,
                 sim: Simulation):
        self.iid = iid
        ix = self.intersection = net.intersection(iid)
        self.n_phases = len(ix.phases)
        self.controller = controller
        self.sim = sim
        self.is_idle = idle = controller.start_idle
        self.kind = ALLRED if idle else GREEN
        self.phase = self.current_phase = None if idle else 0
        self.green = None if idle else (GREEN, 0)
        self.time_in, self.t_p, self.pending = 0, 0, None
        # the controller's tick, or None where it keeps the no-op hook
        tick = controller.tick
        self._tick = None if getattr(tick, "__func__", None) is \
            Controller.tick else tick
        lanes = net.lanes
        self.red_in = {None: ix.incoming}
        for p in ix.phases:
            green = set(p.green_movements)
            self.red_in[p.id] = tuple(
                lid for lid in ix.incoming if lid not in p.incoming or any(
                    (lid, b) not in green for _, b in lanes[lid].downstream))
        self._tables = {}  # bound -> {lane group: ((lane id, cut), ...)}
        # (lane id, cut, capacity, speed) per incoming lane at self.bound
        self.observed = tuple(
            (lid, lanes[lid].length - self.bound,
             sim.capacity_within(lid, self.bound), lanes[lid].speed_limit)
            for lid in ix.incoming)

    def count_sum(self, lanes: tuple, bound: float) -> int:
        """Number of vehicles within `bound` meters of the stop line on the
        lane group `lanes`; each lane's scan stops at the first vehicle
        behind it. The group's (lane id, length - bound) table is built the
        first time this group and bound are asked for."""
        tables = self._tables.get(bound) or self._tables.setdefault(bound, {})
        table = tables.get(lanes)
        if table is None:
            net_lanes = self.sim.net.lanes
            table = tables[lanes] = tuple(
                (lid, net_lanes[lid].length - bound) for lid in lanes)
        lane_vehicles = self.sim.lane_vehicles
        n = 0
        for lid, cut in table:
            if cut <= 0.0:  # whole lane (0.0: the faster float compare)
                n += len(lane_vehicles[lid])
                continue
            for v in lane_vehicles[lid]:  # head first: stop at the bound
                if v.position < cut:
                    break
                n += 1
        return n

    @property
    def now(self) -> float:
        return self.sim.t

    def any_incoming_vehicle(self) -> bool:
        lane_vehicles = self.sim.lane_vehicles
        return any(lane_vehicles[lid] for lid in self.red_in[None])

    def observe(self, force_all_red: bool = False) -> np.ndarray:
        """Normalized densities + queues of incoming lanes plus phase
        one-hot."""
        n_inc = len(self.observed)
        out = np.zeros(2 * n_inc + self.n_phases + 1)
        lane_vehicles = self.sim.lane_vehicles
        for i, (lid, cut, cap, _) in enumerate(self.observed):
            n = q = 0
            for v in lane_vehicles[lid]:
                if v.position < cut:
                    break
                n += 1
                if v.queued:
                    q += 1
            out[i] = min(1.0, n / cap)
            out[n_inc + i] = min(1.0, q / cap)
        current = None if force_all_red else self.current_phase
        out[2 * n_inc + (self.n_phases if current is None else current)] = 1.0
        return out

    def reward_raw(self) -> float:
        """Minus the delay of the vehicles within the unit's bound, summed
        lane by lane, head first."""
        total = 0.0
        now = self.sim.t
        lane_vehicles = self.sim.lane_vehicles
        for lid, cut, _, speed in self.observed:
            for v in lane_vehicles[lid]:
                if v.position < cut:
                    break
                total += vehicle_delay(v, now, speed)
        return -total

    def cycle_next(self, current: int | None = None) -> int | None:
        """First phase after `current` (by default the last green shown) in
        cycle order with any incoming vehicle; None (all-red idle) when no
        incoming lane holds a vehicle."""
        if current is None:
            current = self.phase
        n = self.n_phases
        start = 0 if current is None else (current + 1) % n
        lane_vehicles = self.sim.lane_vehicles
        for k in range(n):
            p = (start + k) % n
            for lid in self.intersection.phases[p].incoming:
                if lane_vehicles[lid]:
                    return p
        return None

    def crossed(self) -> dict:
        """Stop-line crossings of each incoming lane so far this episode."""
        crossed = self.sim.crossed
        return {lid: crossed[lid] for lid in self.intersection.incoming}

    def advance(self):
        """One second: the controller's tick, then its decision unless a
        clearance runs; returns the indication shown. A green starts with
        `t_p` 0 after a clearance (its first hold makes it 1), 1 from idle."""
        if self._tick is not None:
            self._tick(self)
        if self.kind == GREEN:
            decision = self.controller.decide(self)
            if not isinstance(decision, NextPhase):
                self.t_p += 1
                return self.green
            if decision.phase == self.phase:
                self.t_p = 1  # re-enacted phase starts a fresh green interval
                return self.green
            self.kind, self.pending, self.time_in = YELLOW, decision.phase, 1
            self.current_phase = None
            return (YELLOW, self.phase)
        if self.kind == YELLOW:
            self.time_in += 1
            if self.time_in >= YELLOW_TIME:
                self.kind, self.time_in = ALLRED, 0
            return (YELLOW, self.phase)
        if not self.is_idle:  # all-red clearance
            self.time_in += 1
            if self.time_in >= ALLRED_TIME:
                if self.pending is None:
                    self.is_idle = True
                else:
                    self.kind, self.phase, self.t_p = GREEN, self.pending, 0
                    self.current_phase = self.phase
                    self.green = (GREEN, self.phase)
                self.time_in = 0
            return (ALLRED, None)
        decision = self.controller.decide(self)
        if isinstance(decision, NextPhase) and decision.phase is not None:
            # idle: clearance already satisfied; start the green at once
            self.kind, self.phase, self.is_idle, self.t_p = \
                GREEN, decision.phase, False, 1
            self.current_phase = self.phase
            self.green = (GREEN, self.phase)
            return self.green
        return (ALLRED, None)

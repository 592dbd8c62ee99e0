"""Controller contract: observations, reward, and the safety sequencer.

Every controller is consulted once per second while its intersection shows
green (or sits idle in all-red). Distinct greens are always separated by a
2 s yellow and a 3 s all-red clearance inserted by the sequencer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import Intersection, NetworkModel
from .simulation import ALLRED, GREEN, YELLOW, Simulation

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
    __slots__ = ("kind", "phase", "time_in", "pending", "t_p", "idle")

    def __init__(self, start_green: int | None = 0):
        if start_green is None:
            self.kind = ALLRED
            self.phase = None
            self.idle = True
        else:
            self.kind = GREEN
            self.phase = start_green
            self.idle = False
        self.time_in = 0
        self.pending = None
        self.t_p = 0

    @property
    def in_interphase(self) -> bool:
        return self.kind == YELLOW or (self.kind == ALLRED and not self.idle)

    @property
    def current_green(self) -> int | None:
        return self.phase if self.kind == GREEN else None


def sequencer_advance(seq: SequencerState, decision):
    """Advance one second; returns the indication displayed for that second.

    The controller's decision is only honoured while green or idle; during
    yellow/all-red clearance callers must pass Hold.
    """
    if seq.kind == YELLOW:
        indication = (YELLOW, seq.phase)
        seq.time_in += 1
        if seq.time_in >= YELLOW_TIME:
            seq.kind = ALLRED
            seq.time_in = 0
        return indication

    if seq.kind == ALLRED and not seq.idle:
        indication = (ALLRED, None)
        seq.time_in += 1
        if seq.time_in >= ALLRED_TIME:
            if seq.pending is None:
                seq.idle = True
            else:
                seq.kind = GREEN
                seq.phase = seq.pending
                seq.pending = None
                seq.t_p = 0
            seq.time_in = 0
        return indication

    if seq.kind == ALLRED:  # idle
        if isinstance(decision, NextPhase) and decision.phase is not None:
            # clearance already satisfied; start the green immediately
            seq.kind = GREEN
            seq.phase = decision.phase
            seq.idle = False
            seq.t_p = 1
            seq.time_in = 0
            return (GREEN, decision.phase)
        return (ALLRED, None)

    # green
    if isinstance(decision, NextPhase):
        if decision.phase == seq.phase:
            seq.t_p = 1  # re-enacted phase starts a fresh green interval
            return (GREEN, seq.phase)
        indication = (YELLOW, seq.phase)
        seq.kind = YELLOW
        seq.pending = decision.phase
        seq.time_in = 1
        seq.idle = False
        return indication
    seq.t_p += 1
    return (GREEN, seq.phase)


# -- observation and reward --------------------------------------------------

def observe(sim: Simulation, ix: Intersection, seq: SequencerState,
            bound: float = OBSERVATION_BOUND,
            force_all_red: bool = False) -> np.ndarray:
    """Normalized densities + queues of incoming lanes plus phase one-hot."""
    n_inc = len(ix.incoming)
    n_p = len(ix.phases)
    out = np.zeros(2 * n_inc + n_p + 1)
    for i, lid in enumerate(ix.incoming):
        cap = sim.capacity_within(lid, bound)
        out[i] = min(1.0, sim.count_within(lid, bound) / cap)
        out[n_inc + i] = min(1.0, sim.queued_within(lid, bound) / cap)
    if force_all_red or seq.current_green is None:
        out[2 * n_inc + n_p] = 1.0
    else:
        out[2 * n_inc + seq.current_green] = 1.0
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


def raw_reward(sim: Simulation, ix: Intersection,
               bound: float = OBSERVATION_BOUND) -> float:
    return -sim.delay_sum(ix.incoming, bound=bound)


def cycle_next_phase(sim: Simulation, ix: Intersection,
                     current: int | None) -> int | None:
    """First phase after `current` in cycle order with any incoming vehicle.

    Returns None (all-red idle) when no incoming lane holds a vehicle.
    """
    n = len(ix.phases)
    start = 0 if current is None else (current + 1) % n
    for k in range(n):
        p = (start + k) % n
        for lid in ix.phases[p].incoming:
            if sim.lane_vehicles[lid]:
                return p
    return None


# -- controller interface -----------------------------------------------------

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
    `Intersection` once; `count(lane id, bound)` is the simulator's own
    `count_within`.
    """

    bound = OBSERVATION_BOUND

    def __init__(self, net: NetworkModel, iid: str, controller: Controller,
                 sim: Simulation):
        self.iid = iid
        self.intersection = net.intersection(iid)
        self.n_phases = len(self.intersection.phases)
        self.controller = controller
        self.sim = sim
        self.count = sim.count_within
        self.seq = SequencerState(start_green=None if controller.start_idle
                                  else 0)

    @property
    def t_p(self) -> int:
        return self.seq.t_p

    @property
    def current_phase(self) -> int | None:
        return self.seq.current_green

    @property
    def is_idle(self) -> bool:
        return self.seq.kind == ALLRED and self.seq.idle

    @property
    def now(self) -> float:
        return self.sim.t

    def any_incoming_vehicle(self) -> bool:
        return any(self.sim.lane_vehicles[lid]
                   for lid in self.intersection.incoming)

    def observe(self, force_all_red: bool = False) -> np.ndarray:
        return observe(self.sim, self.intersection, self.seq,
                       force_all_red=force_all_red)

    def reward_raw(self) -> float:
        return raw_reward(self.sim, self.intersection)

    def cycle_next(self, current: int | None = None) -> int | None:
        if current is None:
            current = self.seq.phase
        return cycle_next_phase(self.sim, self.intersection, current)

    def crossings(self) -> dict:
        """Stop-line crossings of this intersection during the last step."""
        out = {}
        for (iid, lid), n in self.sim.crossings_this_step.items():
            if iid == self.iid:
                out[lid] = n
        return out

    def advance(self):
        controller, seq = self.controller, self.seq
        controller.tick(self)
        kind = seq.kind
        if kind == YELLOW or (kind == ALLRED and not seq.idle):  # interphase
            decision = HOLD
        else:
            decision = controller.decide(self)
        return sequencer_advance(seq, decision)

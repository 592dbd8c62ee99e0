"""Non-learning controllers: uniform, Webster's, max-pressure and SOTL."""

from __future__ import annotations

from .control import HOLD, Controller, NextPhase, require_finite
from .simulation import DEFAULT_SATURATION_FLOW


class UniformController(Controller):
    """Fixed cycle, one green duration `u` shared by every phase."""

    def __init__(self, u: int = 10):
        require_finite(u=u)
        if u <= 0:
            raise ValueError("u must be > 0")
        self.u = int(u)

    def decide(self, view):
        if view.t_p < self.u:
            return HOLD
        return NextPhase((view.current_phase + 1) % view.n_phases)


# -- Webster's ----------------------------------------------------------------

SATURATED_Y = 0.95  # treat the cycle formula as saturated past this point


def webster_cycle(Y, ctrl: WebsterController, R: float):
    """Cycle length for critical flow ratios Y, clamped to [c_min, c_max]."""
    total = sum(Y)
    if total <= 0.0:
        return float(ctrl.c_min)
    if total >= SATURATED_Y:
        return float(ctrl.c_max)
    C = (1.5 * R + 5.0) / (1.0 - total)
    return float(min(max(C, ctrl.c_min), ctrl.c_max))


def webster_timings(flows: dict, ctrl: WebsterController, phases) -> tuple:
    """Cycle length and integer per-phase greens from a window's lane flows.

    `flows` maps lane id -> flow in veh/h; `phases` is the intersection's
    phase tuple; `ctrl` supplies c_min, c_max, s_sat and R. Greens are
    rounded to whole seconds with the rounding remainder assigned to the
    highest-ratio phase, and floored at 1 s.
    """
    n = len(phases)
    R = float(ctrl.R) if ctrl.R is not None else 5.0 * n
    Y = [max(flows.get(lid, 0.0) / ctrl.s_sat for lid in p.incoming)
         for p in phases]
    C = webster_cycle(Y, ctrl, R)
    G = C - R
    total = sum(Y)
    raw = [G / n] * n if total <= 0.0 else [G * y / total for y in Y]
    greens = [max(1, round(g)) for g in raw]
    # keep the integer greens summing to round(G)
    target = max(n, round(G))
    widest = max(range(n), key=lambda i: (Y[i], -i))
    greens[widest] += target - sum(greens)
    greens[widest] = max(1, greens[widest])
    return C, greens


class WebsterController(Controller):
    """Cycle controller re-timed from the flows of the last W-second window."""

    def __init__(self, W: int = 120, c_min: int = 40, c_max: int = 180,
                 s_sat: float = DEFAULT_SATURATION_FLOW, R: int | None = None):
        require_finite(W=W, c_min=c_min, c_max=c_max, s_sat=s_sat, R=R)
        self.W = int(W)            # data-collection window, seconds
        self.c_min = int(c_min)
        self.c_max = int(c_max)
        self.s_sat = float(s_sat)
        self.R = R                 # total cycle lost time; default |P| * 5 s
        if not 0 < self.c_min <= self.c_max:
            raise ValueError("need 0 < c_min <= c_max")
        if self.W <= 0 or self.s_sat <= 0:
            raise ValueError("W and s_sat must be > 0")
        if self.R is not None and self.R < 0:
            raise ValueError("R must be >= 0")
        self.begin_episode()

    def begin_episode(self):
        self._counts = {}
        self._window_start = 0.0
        self._greens = None

    def tick(self, view):
        for lid, n in view.crossings().items():
            self._counts[lid] = self._counts.get(lid, 0) + n
        if view.now - self._window_start >= self.W:
            flows = {lid: 3600.0 * n / self.W
                     for lid, n in self._counts.items()}
            _, self._greens = webster_timings(flows, self,
                                              view.intersection.phases)
            self._counts = {}
            self._window_start = view.now

    def decide(self, view):
        if self._greens is None:  # no data yet: minimum cycle, equal splits
            _, self._greens = webster_timings({}, self,
                                              view.intersection.phases)
        if view.t_p < self._greens[view.current_phase]:
            return HOLD
        return NextPhase((view.current_phase + 1) % view.n_phases)


# -- Max-pressure --------------------------------------------------------------

def phase_pressure(view, phase) -> int:
    return (view.count_sum(phase.incoming, view.bound)
            - view.count_sum(phase.outgoing, view.bound))


class MaxPressureController(Controller):
    """Acyclic: after g_min green seconds, switch to the max-pressure phase."""

    def __init__(self, g_min: int = 10):
        require_finite(g_min=g_min)
        if g_min <= 0:
            raise ValueError("g_min must be > 0")
        self.g_min = int(g_min)

    def decide(self, view):
        if view.t_p < self.g_min:
            return HOLD
        pressures = [phase_pressure(view, p) for p in view.intersection.phases]
        best = max(range(len(pressures)), key=lambda i: (pressures[i], -i))
        return NextPhase(best)


# -- SOTL -----------------------------------------------------------------------

class SotlController(Controller):
    """Self-organizing: change phase once the red-side vehicle-time integral
    exceeds theta, unless a small platoon is about to cross."""

    def __init__(self, g_min: int = 10, theta: float = 50.0,
                 omega: float = 100.0, mu: int = 3):
        require_finite(g_min=g_min, theta=theta, omega=omega, mu=mu)
        self.g_min = int(g_min)
        self.theta = float(theta)   # vehicle-seconds integral threshold
        self.omega = float(omega)   # platoon look-back distance, meters
        self.mu = int(mu)           # platoon size above which a change is allowed
        if min(self.g_min, self.theta, self.omega, self.mu) <= 0:
            raise ValueError("all SOTL parameters must be positive")
        self.kappa = 0.0

    def begin_episode(self):
        self.kappa = 0.0

    def tick(self, view):
        # kappa only ever adds whole numbers below 2**53, so adding a
        # group's sum gives the same float as adding its lanes in turn
        self.kappa += view.count_sum(view.red_in[view.current_phase],
                                     self.omega)

    def decide(self, view):
        if view.t_p <= self.g_min or self.kappa <= self.theta:
            return HOLD
        current = view.current_phase
        n = view.count_sum(view.intersection.phases[current].incoming,
                           self.omega)
        if n > self.mu or n == 0:
            self.kappa = 0.0
            return NextPhase((current + 1) % view.n_phases)
        return HOLD

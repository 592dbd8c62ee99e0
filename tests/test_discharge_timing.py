"""Saturation-headway discharge against the per-lane counter rule it replaced.

`Simulation` keeps one `ready_at` second per lane: the first second at
which the lane may discharge while its green continues. A lane that turns
green gets `t - 1 + headway`, a crossing sets `t + headway`, and seconds
without a green touch no lane. `CounterSimulation` keeps the rule it
replaced: every second resets the counter of each lane not shown green,
counts up each green lane, lets a lane discharge once its counter reaches
the headway and resets it on a crossing.

Both are driven by the same commands on the generated corridors of
`test_arrival_schedule`, which have split lanes and internal links: greens
of one phase straight after another's, a green repeated segment after
segment, yellow, all-red idle, and targets that fill up. After every step
the per-lane crossing totals, the lane contents, the exit-time and
travel-time records and the non-green crossing audit must agree.
"""

import math

from hypothesis import given, settings, strategies as st

from tscbench.simulation import ALLRED, GREEN, YELLOW, Simulation

from test_arrival_schedule import CORRIDOR, build, specs

INDICATIONS = ((GREEN, 0), (GREEN, 1), (YELLOW, 0), (YELLOW, 1),
               (ALLRED, None))
# 3600, 1800 (the simulator's own), 1200 and 700 veh/h saturation flows
HEADWAYS = (1, 2, 3, 6)


class CounterSimulation(Simulation):
    """Reference: one green counter per lane, updated every second."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.green_elapsed = {lid: 0.0 for lid in self.net.lanes}

    def step(self, commands):
        # arrivals, movement and the clock of Simulation.step, no green
        super().step({iid: (ALLRED, None) for iid in commands})
        self.t -= 1.0
        try:
            self._discharge(commands)
        finally:
            self.t += 1.0

    def _discharge(self, commands):
        lanes, lane_vehicles = self.net.lanes, self.lane_vehicles
        elapsed = self.green_elapsed
        for iid, (kind, p) in commands.items():
            ix = self.net.intersection(iid)
            phase = ix.phases[p] if kind == GREEN else None
            green = phase.incoming if phase else ()
            for lid in ix.incoming:
                if lid not in green:
                    elapsed[lid] = 0.0
            for lid in green:
                elapsed[lid] += 1.0
                if elapsed[lid] < self.headway:
                    continue
                vehs = lane_vehicles[lid]
                if not vehs:
                    continue
                head = vehs[0]
                if not (head.queued
                        and head.position >= lanes[lid].length - 1e-6):
                    continue
                nxt = head.route[head.leg + 1]
                if (lid, nxt) not in phase.green_movements:
                    continue
                target = lane_vehicles[nxt]
                if len(target) >= lanes[nxt].jam_capacity:
                    continue
                del vehs[0]
                head.ff_completed += lanes[lid].free_flow_time
                head.leg += 1
                head.position = 0.0
                head.queued = False
                target.append(head)
                elapsed[lid] = 0.0
                self.crossed[lid] += 1
                if (iid, p, lid, nxt) not in self._served:
                    self.nongreen_crossings += 1


def timeline(script):
    """One period of an intersection's commands, one entry per second, from
    (indication, seconds) segments."""
    return [indication for indication, n in script for _ in range(n)]


def observed(sim):
    return {
        "crossed": dict(sim.crossed),
        "lanes": {lid: [(v.id, v.route[v.leg:], v.position, v.queued)
                        for v in vehs]
                  for lid, vehs in sim.lane_vehicles.items()},
        "exit_times": list(sim.exit_times),
        "travel_times": list(sim.travel_times),
        "nongreen": sim.nongreen_crossings,
    }


def check_against_counter(spec, scripts, headway, max_steps=400):
    """Step both simulators, discharging at `headway` seconds, under the
    scripts' commands, comparing after every step; returns the commands
    and the reference's observations."""
    net, demand = build(spec)
    got, want = (cls(net, demand, spec["seed"],
                     inject_until=spec["inject_until"])
                 for cls in (Simulation, CounterSimulation))
    got.headway = want.headway = headway
    lines = {f"x{m}": timeline(script) for m, script in enumerate(scripts)}
    n_steps = min(max_steps, math.ceil(demand.horizon) + 30)
    history = []
    for i in range(n_steps):
        commands = {iid: line[i % len(line)] for iid, line in lines.items()}
        got.step(commands)
        want.step(commands)
        seen = observed(want)
        assert observed(got) == seen, (i, commands)
        history.append((commands, seen))
    assert got.conservation_ok() and want.conservation_ok()
    return history


SEGMENTS = st.lists(st.tuples(st.sampled_from(INDICATIONS),
                              st.integers(1, 8)), min_size=1, max_size=12)


@st.composite
def cases(draw):
    spec = draw(specs())
    scripts = [draw(SEGMENTS) for _ in range(spec["n_ix"])]
    return spec, scripts, draw(st.sampled_from(HEADWAYS))


@settings(max_examples=60, deadline=None)
@given(case=cases())
def test_ready_second_matches_counter(case):
    spec, scripts, headway = case
    check_against_counter(spec, scripts, headway)


# Phase 0 then phase 1 with no clearance, the same green in two segments,
# yellow, all-red idle, and a green 1 that leaves split lanes green across
# the change. CORRIDOR's demand fills link0 (one slot) and the entry lanes.
SCRIPTS = [
    [((GREEN, 0), 5), ((GREEN, 1), 4), ((GREEN, 1), 3), ((YELLOW, 1), 2),
     ((ALLRED, None), 4), ((GREEN, 0), 1), ((GREEN, 1), 6)],
    [((GREEN, 1), 3), ((GREEN, 0), 7), ((ALLRED, None), 1), ((GREEN, 0), 2),
     ((YELLOW, 0), 1)],
    [((GREEN, 0), 2), ((GREEN, 1), 2), ((GREEN, 0), 9), ((ALLRED, None), 6)],
]


def test_scripted_corridor_covers_each_case():
    net, _ = build(CORRIDOR)
    for headway in HEADWAYS:
        history = check_against_counter(CORRIDOR, SCRIPTS, headway)
        totals = [sum(seen["crossed"].values()) for _, seen in history]
        crossings = [b - a for a, b in zip([0] + totals, totals)]
        assert sum(crossings) >= 20
        # a crossing in the first headway seconds of a green that directly
        # follows another phase's green
        switches = [i for i in range(1, len(history))
                    if any(history[i][0][iid] != history[i - 1][0][iid]
                           and history[i - 1][0][iid][0] == GREEN
                           and history[i][0][iid][0] == GREEN
                           for iid in history[i][0])]
        assert any(crossings[j] for i in switches
                   for j in range(i, min(i + headway, len(history))))
        # a queued head whose green movement leads to a full lane
        full = 0
        for commands, seen in history:
            lanes = seen["lanes"]
            for iid, (kind, p) in commands.items():
                if kind != GREEN:
                    continue
                for a, b in net.intersection(iid).phases[p].green_movements:
                    if lanes[a] and lanes[a][0][3] \
                            and lanes[a][0][1][1:2] == (b,) \
                            and len(lanes[b]) >= net.lanes[b].jam_capacity:
                        full += 1
        assert full > 0

"""The simulator's delays checked against queueing theory.

Webster's formula (Webster 1958, Road Research Technical Paper 39) gives
the mean delay of a fixed-time approach with random arrivals:

    d = c(1-λ)²/(2(1-λx)) + x²/(2q(1-x)) - 0.65 (c/q²)^(1/3) x^(2+5λ)

with cycle c, green ratio λ = g/c, arrival rate q and degree of
saturation x = q/(λs) at saturation flow s. On single.net under the
uniform controller with green `u`, every approach sees cycle 2(u+5) and an
effective green between u-1 and u seconds, so the simulator's mean delay
(mean travel time minus free-flow time) must fall in the band the formula
gives for that range of g. The band is widened by 3 standard errors of the
per-seed means. Arrivals are Bernoulli per second, not Poisson, which
lowers the random term slightly; the cases stay at x <= 0.6, where that
is small.
"""

import math
import statistics

import pytest

from tscbench.classic import UniformController
from tscbench.simulation import (DEFAULT_SATURATION_FLOW, DemandProfile,
                                 run_episode)

HORIZON = 7200.0
SEEDS = range(6)


def webster_delay(c: float, g: float, q_h: float,
                  s_h: float = DEFAULT_SATURATION_FLOW) -> float:
    """Webster's mean delay per vehicle, seconds, for cycle `c`, effective
    green `g` and rates in veh/h."""
    lam = g / c
    q = q_h / 3600.0
    x = q_h / (lam * s_h)
    return (c * (1 - lam) ** 2 / (2 * (1 - lam * x))
            + x * x / (2 * q * (1 - x))
            - 0.65 * (c / q ** 2) ** (1 / 3) * x ** (2 + 5 * lam))


def test_webster_delay_hand_value():
    # c = 40, g = 15, q = 180 veh/h: λ = 0.375, x = 0.2667, q = 0.05 veh/s;
    # uniform term 8.6806, random term 0.9697, correction 0.0977
    assert webster_delay(40, 15, 180) == pytest.approx(
        8.6806 + 0.9697 - 0.0977, abs=1e-3)
    assert webster_delay(40, 14, 180) == pytest.approx(10.38, abs=0.01)


@pytest.mark.parametrize("u,rate", [(15, 180), (15, 360),
                                    (25, 180), (25, 360)])
def test_mean_delay_within_webster_band(single_net, u, rate):
    cycle = 2 * (u + 5)
    band = sorted(webster_delay(cycle, g, rate) for g in (u - 1, u))
    x = rate / (u / cycle * DEFAULT_SATURATION_FLOW)
    assert x <= 0.6
    demand = DemandProfile({lane: [[0.0, rate], [HORIZON, rate]]
                            for lane in single_net.entry_lanes})
    route = single_net.routes_from(single_net.entry_lanes[0])[0]
    free_flow = sum(single_net.lanes[lid].free_flow_time for lid in route)
    assert free_flow == pytest.approx(21.58, abs=0.01)

    delays = []
    for seed in SEEDS:
        log = run_episode(single_net, demand,
                          {"i0": UniformController(u=u)}, seed,
                          moe_series=False)
        tts = log.travel_time_values
        assert log.unfinished == 0 and len(tts) > 1000
        delays.append(statistics.fmean(tts) - free_flow)
    mean = statistics.fmean(delays)
    se = statistics.stdev(delays) / math.sqrt(len(delays))
    assert band[0] - 3 * se <= mean <= band[1] + 3 * se, \
        f"mean delay {mean:.2f} s outside Webster's " \
        f"[{band[0]:.2f}, {band[1]:.2f}] s +- 3 x {se:.3f} s"

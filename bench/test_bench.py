"""Tests of the benchmark itself: checks fire, metrics are all emitted and
traced self times are consistent.

    python3 -m pytest bench -q
"""

import json
import threading
import time

import pytest

import run

run.pin_blas_threads()

import workloads as wl  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SMOKE = {"trials": 1, "configs": 1, "runs": 1, "episodes": 1}

with open(wl.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
    BENCH = json.load(fh)


def smoke(name, trace, expected=None):
    return wl.run(name, wl.DEFAULT_SEED, 0, trace, sizes=SMOKE,
                  expected={} if expected is None else expected,
                  setup_reps=2, write_spans=False)


@pytest.fixture(scope="module")
def runs():
    return {(name, trace): smoke(name, trace)
            for name in wl.WORKLOADS for trace in (False, True)}


DIGESTS = {"corridor_tune": ["ranking"],
           "corridor_eval": ["travel_times", "moe_series", "aggregates",
                             "files"],
           "corridor_dqn_1x1": ["params", "update_counts"]}


@pytest.mark.parametrize("name,key", [(n, k) for n, keys in DIGESTS.items()
                                      for k in keys])
def test_tampered_digest_fires(name, key):
    digests = smoke(name, False)["digests"]
    assert sorted(digests) == sorted(DIGESTS[name])
    expected = {"sizes": SMOKE, "platform": wl.platform_fingerprint(),
                "digests": {name: {str(wl.DEFAULT_SEED): digests}}}
    good = smoke(name, False, expected)
    assert good["correct"] and good["digest_note"] == "checked"

    flipped = "0" if digests[key][0] != "0" else "1"
    tampered = dict(digests, **{key: flipped + digests[key][1:]})
    expected["digests"][name][str(wl.DEFAULT_SEED)] = tampered
    bad = smoke(name, False, expected)
    assert not bad["correct"]
    assert bad["failed"] == bad["attempted"] > 0
    assert f"digest {key} mismatch" in bad["problems"]


def test_conservation_check_fires(monkeypatch):
    real = wl.simulation.Simulation.step

    def leaky(sim, *args, **kwargs):
        real(sim, *args, **kwargs)
        sim.exited += sim.t == 1.0   # one phantom exit per episode

    monkeypatch.setattr(wl.simulation.Simulation, "step", leaky)
    res = smoke("corridor_tune", False)
    assert not res["correct"]
    assert any("injected" in p for p in res["problems"])


def test_pass_to_pass_digest_change_fires(monkeypatch):
    tune = wl.WORKLOADS["corridor_tune"]
    calls = []

    def drifting(output, probe):
        calls.append(1)
        return {"ranking": str(len(calls))}

    monkeypatch.setattr(tune, "digests", drifting)
    res = wl.run("corridor_tune", wl.DEFAULT_SEED, 0, False, sizes=SMOKE,
                 expected={}, setup_reps=2)
    assert res["passes"] == wl.MIN_PASSES == 2 and not res["correct"]
    assert "pass 2 digests differ from pass 1's" in res["problems"]


def test_probe_does_not_need_the_moe_series(monkeypatch):
    monkeypatch.setattr(wl.simulation, "collect_moe", lambda sim, log: None)
    res = smoke("corridor_dqn_1x1", False)
    assert res["correct"], res["problems"]
    steps = res["metrics"]["sim_steps_per_s"][0] * \
        res["metrics"]["episode_s_p50"][0]   # one episode: steps it took
    assert steps >= wl.experiments.TUNE_TRAIN_HORIZON


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_smoke_emits_every_metric(runs, name):
    plain = runs[(name, False)]
    assert plain["correct"], plain["problems"]
    assert set(plain["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    for m in BENCH["end_to_end"]:
        value, unit = plain["metrics"][m["name"]]
        assert unit == m["unit"] and value > 0
    extra = {"error_rate"} | ({"updates_per_s"} if "dqn" in name else set())
    assert set(plain["extra"]) == extra
    assert plain["extra"]["error_rate"][0] == 0

    traced = runs[(name, True)]
    assert traced["correct"], traced["problems"]
    assert list(traced["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    for m in BENCH["per_layer"]:
        assert traced["metrics"][m["name"]][1] == m["unit"]
    assert set(traced["extra"]) == set(wl.MULTI_ACTOR_METRICS)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_trace_self_times_fit_in_wall(runs, name):
    metrics = runs[(name, True)]["metrics"]
    selfs = [metrics[f"{layer}.self_s"][0] for layer in LAYERS]
    assert all(s >= 0 for s in selfs)
    assert sum(selfs) <= metrics["trace.wall_s"][0]
    assert metrics["simulation.self_s"][0] > 0


def test_dqn_runs_exercise_their_layers(runs):
    one = runs[("corridor_dqn_1x1", True)]
    two = runs[("corridor_dqn_2x1", True)]
    for m in ("nn.forward_s", "agents.train_batch_s", "fabric.updates"):
        assert one["metrics"][m][0] > 0 and two["metrics"][m][0] > 0
    assert one["extra"]["fabric.params_offered"][0] == 0
    assert two["extra"]["fabric.params_offered"][0] > 0
    assert two["metrics"]["fabric.emitted"][0] == \
        two["metrics"]["fabric.received"][0]


def test_self_time_is_shared_between_threads():
    tracer = Tracer()
    work = tracer.wrap(lambda: time.sleep(0.05), "toy.work")
    outer = tracer.wrap(lambda: [work() for _ in range(2)], "toy.outer")
    t0 = time.perf_counter()
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    wall = time.perf_counter() - t0
    table = tracer.analyse()
    assert table["toy.work"]["calls"] == 4
    total_self = table["toy.work"]["self_s"] + table["toy.outer"]["self_s"]
    assert 0 < total_self <= wall
    # both threads were busy at once, so each got about half the time
    assert table["toy.work"]["self_s"] < 0.75 * table["toy.work"]["incl_s"]


def _pass(span, cuts):
    return {"span": span, "cuts": cuts, "wall_s": span[1] - span[0],
            "episodes": [(c[-1] - c[0], 0) for c in cuts]}


def test_fastest_parts_takes_each_segment_at_its_fastest():
    # two sequential episodes of two segments each; the passes are fast in
    # different parts, so the estimate beats both
    a = _pass((0, 10), [[1, 2, 5], [6, 8, 9]])
    b = _pass((20, 29), [[20, 23, 24], [24.5, 25.5, 28]])
    episodes, wall, by_segment = wl.fastest_parts([a, b])
    assert by_segment
    assert episodes == pytest.approx([1 + 1, 1 + 1])
    assert wall == pytest.approx(0 + 2 + 0.5 + 2 + 1)
    assert wall < min(a["wall_s"], b["wall_s"])


def test_fastest_parts_falls_back_for_overlapping_episodes():
    a = _pass((0, 10), [[1, 2, 5], [3, 8, 9]])   # second starts before first ends
    b = _pass((20, 29), [[20, 23, 24], [24.5, 25.5, 28]])
    episodes, wall, by_segment = wl.fastest_parts([a, b])
    assert not by_segment
    assert episodes == pytest.approx([4, 3.5]) and wall == 9


def test_tail_percentile_is_fixed_by_pass_size():
    value, pct, n = wl.tail(list(range(32)), 32)
    assert (value, n) == (21, 32) and pct == pytest.approx(68.75)
    value, pct, n = wl.tail(list(range(64)), 32)
    assert value == 43 and pct == pytest.approx(68.75)
    assert wl.tail([3, 1, 2], 3) == (3, 100.0, 3)


def test_fails_without_the_program(tmp_path):
    import shutil
    import subprocess
    import sys
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(wl.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload",
                          "corridor_tune", "--seconds", "1"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout

"""Shared fixtures: bundled scenarios and small hand-built networks."""

import importlib.resources as ir

import pytest

from tscbench.network import load_network, network_from_dict
from tscbench.simulation import DemandProfile, load_demand

DATA = ir.files("tscbench") / "data"


@pytest.fixture
def episodes(monkeypatch):
    """Records every episode that the CLI, the harness or the training
    fabric starts."""
    from tscbench import cli, experiments, fabric
    started = []
    for module in (cli, experiments, fabric):
        def counted(*args, real=module.run_episode, name=module.__name__,
                    **kwargs):
            started.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, "run_episode", counted)
    return started


@pytest.fixture(scope="session")
def single_net():
    return load_network(str(DATA / "single.net"))


@pytest.fixture(scope="session")
def double_net():
    return load_network(str(DATA / "double.net"))


@pytest.fixture(scope="session")
def single_demand():
    return load_demand(str(DATA / "single_asym_demand.json"))


@pytest.fixture(scope="session")
def double_demand():
    return load_demand(str(DATA / "double_demand.json"))


def single_net_dict(name="single.net"):
    """Editable copy of the one-intersection network (or the bundled
    network `name`) as a plain dict."""
    import json
    with open(str(DATA / name), "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def net_dict():
    return single_net_dict()


def constant_demand(lanes, rate, horizon=600.0):
    return DemandProfile({lane: [[0.0, rate], [horizon, rate]]
                          for lane in lanes})


def tiny_net_dict():
    """One intersection, two one-lane approaches, two phases."""
    return {
        "lanes": {
            "in_a": {"length_m": 150.0, "speed_mps": 15.0},
            "in_b": {"length_m": 150.0, "speed_mps": 15.0},
            "out_a": {"length_m": 150.0, "speed_mps": 15.0},
            "out_b": {"length_m": 150.0, "speed_mps": 15.0},
        },
        "intersections": {
            "x": {
                "incoming": ["in_a", "in_b"],
                "outgoing": ["out_a", "out_b"],
                "phases": [
                    {"movements": [["in_a", "out_a"]]},
                    {"movements": [["in_b", "out_b"]]},
                ],
            },
        },
        "routes": [["in_a", "out_a"], ["in_b", "out_b"]],
    }


@pytest.fixture
def tiny_net():
    return network_from_dict(tiny_net_dict())


def split_net_dict():
    """tiny_net with lane in_a split over both phases: in_a -> out_a is
    green in phase 0, in_a -> out_b in phase 1."""
    data = tiny_net_dict()
    data["intersections"]["x"]["phases"][1]["movements"].append(
        ["in_a", "out_b"])
    data["routes"].append(["in_a", "out_b"])
    return data


@pytest.fixture
def split_net():
    return network_from_dict(split_net_dict())

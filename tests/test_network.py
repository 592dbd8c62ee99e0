"""Network parsing, validation and round-trip tests."""

import json
import math

import pytest

from tscbench.network import (NetworkParseError, NetworkValidationError,
                              default_jam_capacity, load_network,
                              network_from_dict, phase_lanes, write_network)

import conftest


def test_load_single(single_net):
    assert len(single_net.lanes) == 8
    assert len(single_net.intersections) == 1
    ix = single_net.intersection("i0")
    assert ix.n_phases == 2
    assert ix.incoming == ("n_in", "s_in", "e_in", "w_in")
    assert single_net.entry_lanes == ("n_in", "s_in", "e_in", "w_in")


def test_default_jam_capacity_and_spacing(single_net):
    lane = single_net.lanes["n_in"]
    assert lane.jam_capacity == math.floor(150.0 / 7.5) == 20
    assert lane.spacing == pytest.approx(7.5)
    assert lane.free_flow_time == pytest.approx(150.0 / 13.9)
    assert default_jam_capacity(7.0) == 1  # floor would be 0; clamped


def test_phase_lanes(single_net):
    inc, out = phase_lanes(single_net, "i0", 0)
    assert inc == ("n_in", "s_in")
    assert out == ("s_out", "n_out")
    with pytest.raises(IndexError):
        phase_lanes(single_net, "i0", 2)
    with pytest.raises(KeyError):
        single_net.intersection("nope")


def test_routes_from(single_net):
    assert single_net.routes_from("n_in") == (("n_in", "s_out"),)
    assert single_net.routes_from("missing") == ()


def test_unknown_top_level_key(net_dict):
    net_dict["bogus"] = 1
    with pytest.raises(NetworkParseError, match="bogus"):
        network_from_dict(net_dict)


def test_unknown_lane_key(net_dict):
    net_dict["lanes"]["n_in"]["grade"] = 0.02
    with pytest.raises(NetworkParseError, match="grade"):
        network_from_dict(net_dict)


def test_missing_required_key(net_dict):
    del net_dict["lanes"]["n_in"]["speed_mps"]
    with pytest.raises(NetworkParseError, match="speed_mps"):
        network_from_dict(net_dict)


def test_error_names_offending_lane(net_dict):
    net_dict["lanes"]["n_in"]["length_m"] = -5.0
    with pytest.raises(NetworkValidationError, match="n_in"):
        network_from_dict(net_dict)


@pytest.mark.parametrize("key,value", [
    ("length_m", math.inf), ("length_m", math.nan), ("length_m", "150"),
    ("length_m", None), ("speed_mps", math.inf), ("speed_mps", math.nan),
    ("speed_mps", True), ("jam_capacity", math.inf),
    ("jam_capacity", math.nan), ("jam_capacity", 2.5),
    ("jam_capacity", "20"),
], ids=["inf-length", "nan-length", "str-length", "null-length",
        "inf-speed", "nan-speed", "bool-speed", "inf-jam", "nan-jam",
        "fractional-jam", "str-jam"])
def test_lane_numbers_must_be_finite_numbers(net_dict, key, value):
    net_dict["lanes"]["n_in"][key] = value
    with pytest.raises(NetworkValidationError, match="n_in"):
        network_from_dict(net_dict)


def test_whole_float_jam_capacity_accepted(net_dict):
    net_dict["lanes"]["n_in"]["jam_capacity"] = 12.0
    assert network_from_dict(net_dict).lanes["n_in"].jam_capacity == 12


def test_lane_spec_must_be_object(net_dict):
    net_dict["lanes"]["n_in"] = 150.0
    with pytest.raises(NetworkParseError, match="n_in"):
        network_from_dict(net_dict)


def set_at(data, path, value):
    """Set data[path[0]][path[1]]... to value; "+" appends to a list."""
    *parents, last = path
    for key in parents:
        data = data[key]
    if last == "+":
        data.append(value)
    else:
        data[last] = value


MOVEMENTS = ("intersections", "i0", "phases", 0, "movements")


@pytest.mark.parametrize("path,value,where", [
    (("lanes",), [], "lanes"),
    (("intersections",), [], "intersections"),
    (("routes",), 5, "routes"),
    (("routes", "+"), 5, "route 4"),
    (("intersections", "i0", "incoming"), 5, "'i0' incoming"),
    (("intersections", "i0", "phases"), {}, "'i0' phases"),
    (MOVEMENTS, 5, "phase 0 movements"),
    (MOVEMENTS + ("+",), ["n_in"], "phase 0 movement"),
    (MOVEMENTS + ("+",), 5, "phase 0 movement"),
    (MOVEMENTS + ("+",), ["n_in", "s_out", "e_out"], "phase 0 movement"),
    (MOVEMENTS + ("+",), ["n_in", ["s_out"]], "phase 0 movement"),
], ids=["lanes-list", "intersections-list", "routes-int", "route-int",
        "incoming-int", "phases-object", "movements-int", "movement-single",
        "movement-int", "movement-triple", "movement-nested"])
def test_section_shapes_are_parse_errors(net_dict, path, value, where):
    set_at(net_dict, path, value)
    with pytest.raises(NetworkParseError, match=where):
        network_from_dict(net_dict)


def test_intersection_references_unknown_lane(net_dict):
    net_dict["intersections"]["i0"]["incoming"][0] = "ghost"
    with pytest.raises(NetworkValidationError, match="ghost"):
        network_from_dict(net_dict)


def test_lane_cannot_be_incoming_and_outgoing(net_dict):
    net_dict["intersections"]["i0"]["outgoing"][0] = "n_in"
    with pytest.raises(NetworkValidationError, match="n_in"):
        network_from_dict(net_dict)


# (intersection, list, lane appended to it): each lane is signalled once
ONE_SIGNAL_PER_LANE = [
    ("a", "incoming", "w_in"),   # listed twice in one incoming list
    ("a", "outgoing", "ab"),     # listed twice in one outgoing list
    ("b", "incoming", "w_in"),   # incoming at both a and b
]


@pytest.mark.parametrize("iid,kind,lane", ONE_SIGNAL_PER_LANE,
                         ids=["twice-incoming", "twice-outgoing",
                              "two-intersections"])
def test_lane_has_one_signal(iid, kind, lane):
    data = conftest.single_net_dict("double.net")
    data["intersections"][iid][kind].append(lane)
    with pytest.raises(NetworkValidationError, match=f"'{lane}'"):
        network_from_dict(data)


def test_phase_movement_must_use_declared_lanes(net_dict):
    net_dict["intersections"]["i0"]["phases"][0]["movements"].append(
        ["e_in", "s_out"])  # e_in is incoming, so this is legal
    network_from_dict(net_dict)
    net_dict["intersections"]["i0"]["phases"][0]["movements"][-1] = \
        ["n_out", "s_out"]
    with pytest.raises(NetworkValidationError, match="n_out"):
        network_from_dict(net_dict)


def test_empty_phase_rejected(net_dict):
    net_dict["intersections"]["i0"]["phases"][0]["movements"] = []
    with pytest.raises(NetworkValidationError, match="empty"):
        network_from_dict(net_dict)


def test_route_must_follow_movements(net_dict):
    net_dict["routes"].append(["n_in", "e_out"])
    with pytest.raises(NetworkValidationError, match="n_in"):
        network_from_dict(net_dict)


def test_at_least_two_phases(net_dict):
    del net_dict["intersections"]["i0"]["phases"][1]
    with pytest.raises(NetworkValidationError, match="2 phases"):
        network_from_dict(net_dict)


def test_invalid_json_is_parse_error(tmp_path):
    path = tmp_path / "broken.net"
    path.write_text("{not json")
    with pytest.raises(NetworkParseError):
        load_network(str(path))


def test_round_trip(single_net, tmp_path):
    path = tmp_path / "copy.net"
    write_network(single_net, str(path))
    again = load_network(str(path))
    assert again.to_dict() == single_net.to_dict()
    assert again.routes == single_net.routes


def test_downstream_movements(single_net):
    lane = single_net.lanes["n_in"]
    assert lane.downstream == ((("i0", 0), "s_out"),)

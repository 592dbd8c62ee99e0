"""Road network topology: lanes, phases, intersections and routes.

Networks are loaded from a JSON file and validated once; afterwards they are
treated as immutable and may be shared freely between simulator instances.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property

JAM_SPACING_M = 7.5  # 5 m vehicle + 2.5 m standstill gap


class ConfigError(ValueError):
    """Unknown controller, hyperparameter, or inconsistent experiment setup."""


class NetworkError(ValueError):
    """Base class for network file problems."""


class NetworkParseError(NetworkError):
    """The file is not valid JSON or does not follow the schema."""


class NetworkValidationError(NetworkError):
    """The file parsed but violates a structural invariant."""


def default_jam_capacity(length_m: float) -> int:
    return max(1, math.floor(length_m / JAM_SPACING_M))


@dataclass(frozen=True)
class Lane:
    id: str
    length: float          # meters
    speed_limit: float     # m/s
    jam_capacity: int      # max vehicles the lane holds
    # ((intersection id, phase index), target lane id) movement pairs
    downstream: tuple = field(default=(), compare=True)

    @property
    def spacing(self) -> float:
        """Per-vehicle space when fully jammed."""
        return self.length / self.jam_capacity

    @property
    def free_flow_time(self) -> float:
        return self.length / self.speed_limit


@dataclass(frozen=True)
class Phase:
    id: int                       # index in the intersection's cycle
    green_movements: tuple        # of (incoming lane id, outgoing lane id)

    @cached_property
    def incoming(self) -> tuple:
        seen = []
        for inc, _ in self.green_movements:
            if inc not in seen:
                seen.append(inc)
        return tuple(seen)

    @cached_property
    def outgoing(self) -> tuple:
        seen = []
        for _, out in self.green_movements:
            if out not in seen:
                seen.append(out)
        return tuple(seen)


@dataclass(frozen=True)
class Intersection:
    id: str
    incoming: tuple    # lane ids
    outgoing: tuple    # lane ids
    phases: tuple      # of Phase, in cycle order

    @property
    def n_phases(self) -> int:
        return len(self.phases)


@dataclass(frozen=True)
class NetworkModel:
    intersections: tuple          # of Intersection
    lanes: dict                   # id -> Lane
    routes: tuple                 # of lane-id tuples, entry first, sink last

    def intersection(self, iid: str) -> Intersection:
        for ix in self.intersections:
            if ix.id == iid:
                return ix
        raise KeyError(f"unknown intersection {iid!r}")

    @property
    def entry_lanes(self) -> tuple:
        seen = []
        for route in self.routes:
            if route[0] not in seen:
                seen.append(route[0])
        return tuple(seen)

    def routes_from(self, entry_lane: str) -> tuple:
        return tuple(r for r in self.routes if r[0] == entry_lane)

    def to_dict(self) -> dict:
        lanes = {}
        for lid, lane in self.lanes.items():
            lanes[lid] = {
                "length_m": lane.length,
                "speed_mps": lane.speed_limit,
                "jam_capacity": lane.jam_capacity,
            }
        intersections = {}
        for ix in self.intersections:
            intersections[ix.id] = {
                "incoming": list(ix.incoming),
                "outgoing": list(ix.outgoing),
                "phases": [
                    {"movements": [[a, b] for a, b in p.green_movements]}
                    for p in ix.phases
                ],
            }
        return {
            "lanes": lanes,
            "intersections": intersections,
            "routes": [list(r) for r in self.routes],
        }


def _require_keys(obj: dict, allowed: set, required: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise NetworkParseError(f"{where} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise NetworkParseError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = required - set(obj)
    if missing:
        raise NetworkParseError(f"missing key(s) {sorted(missing)} in {where}")


def _lane_ids(value, where: str, pair: bool = False) -> tuple:
    """A list of lane ids (exactly two with `pair`) as a tuple."""
    if not isinstance(value, list) or (pair and len(value) != 2) \
            or not all(isinstance(lid, str) for lid in value):
        raise NetworkParseError(f"{where} must be a list of "
                                f"{'two ' if pair else ''}lane ids")
    return tuple(value)


def finite_number(value) -> bool:
    """Whether `value` is an int or a float (a bool is not a number) that
    a float holds finite."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and abs(value) <= sys.float_info.max


def _lane_number(spec: dict, key: str, lid: str) -> float:
    value = spec[key]
    if not finite_number(value):
        raise NetworkValidationError(
            f"lane {lid!r}: {key} must be a finite number, not {value!r}")
    return float(value)


def network_from_dict(data: dict) -> NetworkModel:
    if not isinstance(data, dict):
        raise NetworkParseError("top level must be a JSON object")
    _require_keys(data, {"lanes", "intersections", "routes"},
                  {"lanes", "intersections", "routes"}, "top level")
    for section in ("lanes", "intersections"):
        if not isinstance(data[section], dict):
            raise NetworkParseError(f"{section} must be an object keyed by id")
    if not isinstance(data["routes"], list):
        raise NetworkParseError("routes must be a list of lane-id lists")

    lanes = {}
    for lid, spec in data["lanes"].items():
        _require_keys(spec, {"length_m", "speed_mps", "jam_capacity"},
                      {"length_m", "speed_mps"}, f"lane {lid!r}")
        length = _lane_number(spec, "length_m", lid)
        speed = _lane_number(spec, "speed_mps", lid)
        if length <= 0:
            raise NetworkValidationError(f"lane {lid!r}: length must be > 0")
        if speed <= 0:
            raise NetworkValidationError(f"lane {lid!r}: speed_limit must be > 0")
        if "jam_capacity" in spec:
            cap = _lane_number(spec, "jam_capacity", lid)
            if not cap.is_integer():
                raise NetworkValidationError(
                    f"lane {lid!r}: jam_capacity must be a whole number")
            cap = int(cap)
        else:
            cap = default_jam_capacity(length)
        if cap < 1:
            raise NetworkValidationError(f"lane {lid!r}: jam_capacity must be >= 1")
        lanes[lid] = Lane(id=lid, length=length, speed_limit=speed, jam_capacity=cap)

    downstream = {lid: [] for lid in lanes}
    signal_of = {}  # incoming lane id -> the intersection that signals it
    intersections = []
    for iid, spec in data["intersections"].items():
        _require_keys(spec, {"incoming", "outgoing", "phases"},
                      {"incoming", "outgoing", "phases"}, f"intersection {iid!r}")
        incoming = _lane_ids(spec["incoming"], f"intersection {iid!r} incoming")
        outgoing = _lane_ids(spec["outgoing"], f"intersection {iid!r} outgoing")
        for lid in incoming + outgoing:
            if lid not in lanes:
                raise NetworkValidationError(
                    f"intersection {iid!r} references unknown lane {lid!r}")
        for kind, ids in (("incoming", incoming), ("outgoing", outgoing)):
            for i, lid in enumerate(ids):
                if lid in ids[:i]:
                    raise NetworkValidationError(
                        f"intersection {iid!r}: lane {lid!r} is listed "
                        f"twice in {kind}")
        for lid in incoming:
            other = signal_of.setdefault(lid, iid)
            if other != iid:
                raise NetworkValidationError(
                    f"lane {lid!r} is incoming at intersections {other!r} "
                    f"and {iid!r}; a lane has one signal")
        if set(incoming) & set(outgoing):
            both = sorted(set(incoming) & set(outgoing))
            raise NetworkValidationError(
                f"intersection {iid!r}: lane(s) {both} are both incoming and outgoing")
        if not isinstance(spec["phases"], list):
            raise NetworkParseError(f"intersection {iid!r} phases must be a list")
        phases = []
        for p_idx, pspec in enumerate(spec["phases"]):
            where = f"intersection {iid!r} phase {p_idx}"
            _require_keys(pspec, {"movements"}, {"movements"}, where)
            if not isinstance(pspec["movements"], list):
                raise NetworkParseError(f"{where} movements must be a list")
            movements = tuple(_lane_ids(m, f"{where} movement", pair=True)
                              for m in pspec["movements"])
            if not movements:
                raise NetworkValidationError(
                    f"intersection {iid!r} phase {p_idx}: empty movements")
            for a, b in movements:
                for lid in (a, b):
                    if lid not in lanes:
                        raise NetworkValidationError(
                            f"intersection {iid!r} phase {p_idx}: unknown lane {lid!r}")
                if a not in incoming:
                    raise NetworkValidationError(
                        f"intersection {iid!r} phase {p_idx}: "
                        f"lane {a!r} is not an incoming lane")
                if b not in outgoing:
                    raise NetworkValidationError(
                        f"intersection {iid!r} phase {p_idx}: "
                        f"lane {b!r} is not an outgoing lane")
                downstream[a].append(((iid, p_idx), b))
            phases.append(Phase(id=p_idx, green_movements=movements))
        if len(phases) < 2:
            raise NetworkValidationError(
                f"intersection {iid!r}: needs at least 2 phases")
        intersections.append(Intersection(
            id=iid, incoming=incoming, outgoing=outgoing, phases=tuple(phases)))

    lanes = {lid: Lane(id=lane.id, length=lane.length, speed_limit=lane.speed_limit,
                       jam_capacity=lane.jam_capacity,
                       downstream=tuple(downstream[lid]))
             for lid, lane in lanes.items()}

    movements = set()
    for lid, dn in downstream.items():
        for _, target in dn:
            movements.add((lid, target))

    routes = []
    for r_idx, route in enumerate(data["routes"]):
        route = _lane_ids(route, f"route {r_idx}")
        if not route:
            raise NetworkValidationError(f"route {r_idx}: empty")
        for lid in route:
            if lid not in lanes:
                raise NetworkValidationError(
                    f"route {r_idx} references unknown lane {lid!r}")
        for a, b in zip(route, route[1:]):
            if (a, b) not in movements:
                raise NetworkValidationError(
                    f"route {r_idx}: {a!r} -> {b!r} is not a phase movement")
        if route[-1] in signal_of:
            raise NetworkValidationError(
                f"route {r_idx} ends on lane {route[-1]!r}, which is incoming "
                f"at intersection {signal_of[route[-1]]!r}; a route ends on "
                f"a lane no intersection controls")
        routes.append(route)
    if not routes:
        raise NetworkValidationError("network declares no routes")

    return NetworkModel(intersections=tuple(intersections), lanes=lanes,
                        routes=tuple(routes))


def read_input(path, binary: bool = False, error: type = ConfigError):
    """Input file `path`'s bytes (`binary`) or its UTF-8 JSON; `error`, a
    ValueError whose message starts with the path, if it fails to read."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        return data if binary else json.loads(data.decode("utf-8"))
    except OSError as exc:
        reason = exc.strerror
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 ({exc})"
    except (json.JSONDecodeError, RecursionError) as exc:
        reason = f"not JSON ({exc})"
    raise error(f"{path}: {reason}")


def make_out_dir(path) -> None:
    """Make output directory `path` and its parents; a ConfigError naming
    `path` and what blocks it (a file on the way) if it cannot be made."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        head = os.path.abspath(path)
        while not os.path.exists(head):
            head = os.path.dirname(head)
        reason = exc.strerror if os.path.isdir(head) else \
            f"{head} is not a directory"
        raise ConfigError(f"{path}: {reason}") from None


def write_output(path, content) -> None:
    """Write output file `path`: its CSV rows if `path` ends in .csv, else
    `content` itself if bytes, else its JSON (indented 2). The JSON is
    made first, so a value JSON cannot hold (NaN, Infinity) is a
    ValueError that leaves no file."""
    if os.fspath(path).endswith(".csv"):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(content)
        return
    if not isinstance(content, bytes):
        content = json.dumps(content, indent=2, allow_nan=False).encode()
    with open(path, "wb") as fh:
        fh.write(content)


def parse_input(path, parse, error: type = ConfigError):
    """`parse` of `read_input(path)`; its ValueError names `path` first."""
    data = read_input(path, error=error)
    try:
        return parse(data)
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def load_network(path) -> NetworkModel:
    return parse_input(path, network_from_dict, NetworkParseError)


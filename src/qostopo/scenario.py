"""Scenario files: YAML documents describing a network and its workload.

Required keys: ``nodes``, ``region`` ([width, height]), ``max_power``,
``bandwidth``, ``hop_bound``. Optional: ``path_loss_exponent`` (default 2),
``request_rate`` (default 1), ``mean_demand`` (default 1), ``threshold``
(default null = unconstrained; ``.inf`` means the same), ``seed`` (default
0), ``replications``, plus two escape hatches that bypass random
generation — ``coordinates`` (exactly ``nodes`` [x, y] pairs) and
``requests`` (list of {sender, receiver, demand, hop_bound?}).

Structural problems (unreadable file, bad YAML, unknown keys, wrong types)
raise :class:`ScenarioParseError`; well-formed files with unusable values
(too few nodes, nonpositive sides, endpoints out of range, ...) raise
:class:`ScenarioValueError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

from .formulation import Request
from .network import NetworkModel
from .simulate import ScenarioParams

__all__ = [
    "Scenario",
    "ScenarioParseError",
    "ScenarioValueError",
    "load_scenario",
]


class ScenarioParseError(Exception):
    """The scenario file is structurally invalid."""


class ScenarioValueError(Exception):
    """The scenario file parsed but describes unusable parameters."""


@dataclass
class Scenario:
    """A parsed scenario: parameters plus optional scripted network/requests."""

    params: ScenarioParams
    network: NetworkModel | None = None
    requests: list[Request] | None = None
    replications: int | None = None


_TOP_KEYS = {
    "nodes",
    "region",
    "path_loss_exponent",
    "max_power",
    "bandwidth",
    "request_rate",
    "mean_demand",
    "hop_bound",
    "threshold",
    "seed",
    "replications",
    "coordinates",
    "requests",
}
_REQUEST_KEYS = {"sender", "receiver", "demand", "hop_bound"}


def _get_number(doc: dict, key: str, default=None) -> float:
    if key not in doc:
        if default is None:
            raise ScenarioParseError(f"missing required key '{key}'")
        return default
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioParseError(f"'{key}' must be a number, got {value!r}")
    return float(value)


def _get_int(doc: dict, key: str, default=None) -> int:
    if key not in doc:
        if default is None:
            raise ScenarioParseError(f"missing required key '{key}'")
        return default
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioParseError(f"'{key}' must be an integer, got {value!r}")
    return value


def _get_threshold(doc: dict):
    value = doc.get("threshold")
    if value is None:
        return None
    if isinstance(value, str):
        if value.lower() in ("inf", "none", "null"):
            return None
        raise ScenarioParseError(f"'threshold' must be a number or null, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioParseError(f"'threshold' must be a number or null, got {value!r}")
    if value == math.inf:
        return None
    if math.isinf(value):
        raise ScenarioValueError(f"'threshold' must be finite, +inf or null, got {value!r}")
    return float(value)


def _get_region(doc: dict) -> tuple[float, float]:
    if "region" not in doc:
        raise ScenarioParseError("missing required key 'region'")
    value = doc["region"]
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ScenarioParseError(f"'region' must be [width, height], got {value!r}")
    sides = []
    for side in value:
        if isinstance(side, bool) or not isinstance(side, (int, float)):
            raise ScenarioParseError(f"'region' entries must be numbers, got {side!r}")
        sides.append(float(side))
    return (sides[0], sides[1])


def _get_coordinates(doc: dict, nodes: int):
    value = doc.get("coordinates")
    if value is None:
        return None
    if not isinstance(value, list):
        raise ScenarioParseError("'coordinates' must be a list of [x, y] pairs")
    points = []
    for entry in value:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise ScenarioParseError(f"coordinate entries must be [x, y] pairs, got {entry!r}")
        for c in entry:
            if isinstance(c, bool) or not isinstance(c, (int, float)):
                raise ScenarioParseError(f"coordinates must be numeric, got {c!r}")
        points.append((float(entry[0]), float(entry[1])))
    if len(points) != nodes:
        raise ScenarioValueError(f"coordinates list has {len(points)} entries, 'nodes' says {nodes}")
    return points


def _get_requests(doc: dict, nodes: int, default_hop_bound: int):
    value = doc.get("requests")
    if value is None:
        return None
    if not isinstance(value, list):
        raise ScenarioParseError("'requests' must be a list of mappings")
    out = []
    for entry in value:
        if not isinstance(entry, dict):
            raise ScenarioParseError(f"request entries must be mappings, got {entry!r}")
        unknown = set(entry) - _REQUEST_KEYS
        if unknown:
            raise ScenarioParseError(f"unknown request keys: {sorted(unknown)}")
        sender = _get_int(entry, "sender")
        receiver = _get_int(entry, "receiver")
        demand = _get_number(entry, "demand")
        hop_bound = _get_int(entry, "hop_bound", default_hop_bound)
        if not (0 <= sender < nodes and 0 <= receiver < nodes):
            raise ScenarioValueError(f"request endpoints ({sender}, {receiver}) outside 0..{nodes - 1}")
        try:
            out.append(Request(sender, receiver, demand, hop_bound))
        except ValueError as exc:
            raise ScenarioValueError(str(exc)) from exc
    return out


def load_scenario(path, seed_override: int | None = None) -> Scenario:
    """Parse a scenario file; ``seed_override`` replaces the file's seed."""
    # Imported here so that `import qostopo` does not pay for PyYAML.
    import yaml

    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioParseError(f"cannot read scenario file: {exc}") from exc
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioParseError(f"malformed scenario file: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioParseError("scenario file must be a mapping of keys to values")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ScenarioParseError(f"unknown scenario keys: {sorted(unknown)}")

    nodes = _get_int(doc, "nodes")
    hop_bound = _get_int(doc, "hop_bound")
    try:
        params = ScenarioParams(
            node_count=nodes,
            region=_get_region(doc),
            path_loss_exponent=_get_number(doc, "path_loss_exponent", 2.0),
            max_power=_get_number(doc, "max_power"),
            bandwidth=_get_number(doc, "bandwidth"),
            request_rate=_get_number(doc, "request_rate", 1.0),
            mean_demand=_get_number(doc, "mean_demand", 1.0),
            hop_bound=hop_bound,
            threshold=_get_threshold(doc),
            seed=_get_int(doc, "seed", 0),
        )
        if seed_override is not None:
            params = replace(params, seed=seed_override)
    except ValueError as exc:
        raise ScenarioValueError(str(exc)) from exc

    coordinates = _get_coordinates(doc, nodes)
    network = None
    if coordinates is not None:
        try:
            network = NetworkModel(
                coordinates,
                max_power=params.max_power,
                bandwidth=params.bandwidth,
                path_loss_exponent=params.path_loss_exponent,
            )
        except ValueError as exc:
            raise ScenarioValueError(str(exc)) from exc

    replications = doc.get("replications")
    if replications is not None:
        replications = _get_int(doc, "replications")
        if replications < 1:
            raise ScenarioValueError(f"replications must be >= 1, got {replications}")

    return Scenario(
        params=params,
        network=network,
        requests=_get_requests(doc, nodes, hop_bound),
        replications=replications,
    )

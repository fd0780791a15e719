"""Flat key=value scenario configuration files.

Format: one `key = value` per line, `#` comments, repeated `flow = ...` and
`node = ...` lines; every other key may appear once, and `protocol`, `ber`
and `seed` are other spellings of `protocols`, `bers` and `seeds`. `range`
applies to `node` lines only. Unknown or repeated keys, malformed values, a
value repeated in `protocols`, `bers` or `seeds` and unroutable flows are
rejected with the offending line number; a missing topology or missing flow
lines are rejected with no line number. A stock topology given no flow
lines runs its own stock flows.

Example::

    topology = eight_node
    protocols = plain,cope,bend,flexonc
    bers = 2e-6, 2e-5, 5e-5, 8e-5, 1e-4, 2e-4
    seeds = 1,2,3,4,5
    flow = 0,4,0.07,150
    flow = 4,0,0.07,150
"""
from __future__ import annotations

import math
import os

from .channel import Topology
from .coding import TimerParams
from .core import Protocol
from .params import Flow, Scenario, SimParams
from .routing import build_forwarding_tables, check_flows, shared_tables
from .scenarios import TOPOLOGY_KINDS, build_topology, default_flows

DEFAULT_BERS = (2e-6, 2e-5, 5e-5, 8e-5, 1e-4, 2e-4)
DEFAULT_SEEDS = (1, 2, 3, 4, 5)

_FLOAT_PARAMS = {
    "ack_slot", "base_timeout", "data_rate", "pool_ttl", "pairing_hold",
    "drain_grace", "range", "ack_stagger", "turnaround", "slot_time",
}
_INT_PARAMS = {"payload_size", "retry_limit", "queue_cap", "ack_cache_cap",
               "max_cope_components"}


class ConfigError(ValueError):
    """A rejected config; `line_no` is None when the fault is something the
    file lacks rather than something on one line."""

    def __init__(self, line_no: int | None, message: str):
        super().__init__(message if line_no is None
                         else f"line {line_no}: {message}")
        self.line_no = line_no


class ScenarioConfig:
    """A sweep: its axes, flows (a stock topology's own when none are
    given) and knobs, and the one `Topology` that the flow check and every
    cell share, built on first use."""

    def __init__(self, name: str = "custom", topology_kind: str | None = None,
                 explicit_nodes: dict[int, tuple[float, float]] | None = None,
                 range_m: float = 250.0,
                 protocols: tuple[Protocol, ...] = tuple(Protocol),
                 bers: tuple[float, ...] = DEFAULT_BERS,
                 seeds: tuple[int, ...] = DEFAULT_SEEDS,
                 flows: tuple[Flow, ...] = (),
                 params: SimParams = SimParams()):
        self.name = name
        self.topology_kind = topology_kind
        self.explicit_nodes = {} if explicit_nodes is None else explicit_nodes
        self.range_m = range_m
        self.protocols = protocols
        self.bers = bers
        self.seeds = seeds
        if topology_kind is None and not self.explicit_nodes:
            raise ConfigError(None, "config needs a 'topology' or explicit 'node' lines")
        if not flows and topology_kind is None:
            raise ConfigError(None, "explicit topologies need explicit 'flow' lines")
        self.flows = flows or tuple(default_flows(topology_kind))
        self.params = params
        self._topology: Topology | None = None

    def topology(self) -> Topology:
        if self._topology is None:
            self._topology = (
                Topology(self.explicit_nodes, self.range_m)
                if self.explicit_nodes
                else build_topology(self.topology_kind))
        return self._topology

    def scenario(self, protocol: Protocol, ber: float) -> Scenario:
        return Scenario(
            name=self.name,
            topology=self.topology(),
            protocol=protocol,
            ber=ber,
            flows=self.flows,
            params=self.params,
        )


def _parse_protocol(token: str) -> Protocol:
    try:
        return Protocol[token.strip().upper()]
    except KeyError:
        raise ValueError(f"unknown protocol {token.strip()!r}") from None


def _split(value: str, names: str) -> list[str]:
    """The comma-separated fields of `value`, one for each of `names`."""
    fields = [v.strip() for v in value.split(",")]
    expected = names.count(",") + 1
    if len(fields) != expected:
        raise ValueError(f"expected {expected} fields ({names}), "
                         f"got {len(fields)}")
    return fields


def _node(value: str) -> tuple[int, tuple[float, float]]:
    nid, x, y = _split(value, "id, x, y")
    return int(nid), (float(x), float(y))


def _flow(value: str) -> Flow:
    src, dst, interval, duration = _split(value, "src, dst, interval, duration")
    return Flow(int(src), int(dst), float(interval), float(duration))


def _axis(parse):
    return lambda value: tuple(parse(v) for v in value.split(","))


# Checks are (test, message); a message may name the key as written and the
# value, which parse_config fills in.
_POSITIVE = ((math.isfinite, "{key} must be finite"),
             (lambda v: v > 0, "{key} must be positive"))
# A repeated value would run the same cells twice, and per-cell statistics
# would count the copies as independent samples.
_DISTINCT = ((lambda vs: len(set(vs)) == len(vs),
              "{key} repeats a value: {value}"),)

# Every key a config may use: the field it sets, how its value converts,
# the checks the converted value must pass, and the fields it may not be
# given with, since a stock topology's links are fixed. Both spellings of a
# sweep axis set one field, and so count as one key; only `node` and `flow`
# may be given more than once. A knob sets the SimParams or TimerParams
# field of its name.
_KEYS = {
    **{k: (k, float, _POSITIVE, ()) for k in _FLOAT_PARAMS},
    **{k: (k, int, ((lambda v: v >= 0, "{key} must be non-negative"),), ())
       for k in _INT_PARAMS},
    **{spelling: (axis, _axis(parse), _DISTINCT + checks, ())
       for axis, parse, checks in (
           ("protocols", _parse_protocol, ()),
           ("bers", float, ((lambda bers: all(0.0 <= b < 1.0 for b in bers),
                             "ber must be in [0,1): {value}"),)),
           ("seeds", int, ()))
       for spelling in (axis, axis[:-1])},
    "name": ("name", str, ((bool, "{key} must not be empty"),), ()),
    "topology": ("topology_kind", str, (
        (lambda kind: kind in TOPOLOGY_KINDS,
         f"topology must be one of {TOPOLOGY_KINDS}, got {{value!r}}"),),
        ("node", "range_m")),
    "range": ("range_m", float, _POSITIVE, ("topology_kind",)),
    "node": ("node", _node, ((lambda node: all(map(math.isfinite, node[1])),
                              "node coordinates must be finite"),),
             ("topology_kind",)),
    # throughput needs a positive span
    "flow": ("flow", _flow, ((lambda fl: fl.duration > 0,
                              "flow duration must be positive"),), ()),
}


def parse_config(text: str, name: str = "custom") -> ScenarioConfig:
    given: dict[str, dict[int, object]] = {}  # field -> {line: value}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(line_no, f"expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in _KEYS:
            raise ConfigError(line_no, f"unknown key {key!r}")
        dest, convert, checks, conflicts = _KEYS[key]
        value = value.strip()
        try:
            parsed = convert(value)
        except ValueError as exc:
            raise ConfigError(line_no, f"bad value for {key!r}: {exc}") from None
        for test, message in checks:
            if not test(parsed):
                raise ConfigError(line_no, message.format(key=key, value=value))
        # The value is sound by itself; now check it against earlier lines.
        if dest in given and dest not in ("node", "flow"):
            raise ConfigError(line_no, f"{key!r} was already given on line "
                                       f"{min(given[dest])}")
        if any(c in given for c in conflicts):
            raise ConfigError(line_no, "give either 'topology' or explicit "
                                       "'node' and 'range' lines, not both")
        lines = given.setdefault(dest, {})
        if dest == "node" and parsed[0] in dict(lines.values()):
            raise ConfigError(line_no, f"duplicate node id {parsed[0]}")
        lines[line_no] = parsed

    nodes = dict(given.pop("node", {}).values())
    flows = given.pop("flow", {})
    values = {dest: v for dest, lines in given.items() for v in lines.values()}
    # What is left in `values` once the knobs are out sets ScenarioConfig.
    knobs = {k: values.pop(k) for k in _FLOAT_PARAMS | _INT_PARAMS if k in values}
    timers = {k: knobs.pop(k) for k in ("ack_slot", "base_timeout") if k in knobs}
    cfg = ScenarioConfig(
        **{"name": name, **values}, explicit_nodes=nodes,
        flows=tuple(flows.values()),
        params=SimParams(timers=TimerParams(**timers), **knobs))
    # Reject what `check_flows` rejects, as a ConfigError at the flow's line.
    # The tables built here are the ones every cell of the sweep reads.
    topo = cfg.topology()
    tables = shared_tables(topo, (fl.dst for fl in cfg.flows),
                           build_forwarding_tables)
    for fl, line_no in zip(cfg.flows, list(flows) or [None] * len(cfg.flows)):
        try:
            check_flows(topo, tables, (fl,))
        except ValueError as exc:
            raise ConfigError(line_no, str(exc)) from None
    return cfg


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    name = os.path.splitext(os.path.basename(path))[0] or "custom"
    return parse_config(text, name=name)

"""Flat key=value scenario configuration files.

Format: one `key = value` per line, `#` comments, repeated `flow = ...` and
`node = ...` lines; `range` applies to `node` lines only. Unknown keys,
malformed values, a value repeated in `protocols`, `bers` or `seeds` and
unroutable flows are rejected with the offending line number; a missing
topology or missing flow lines are rejected with no line number.

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
from dataclasses import dataclass, field, replace
from typing import Sequence

from .channel import Topology
from .core import Protocol
from .params import Flow, Scenario, SimParams
from .routing import build_forwarding_tables, check_flows
from .scenarios import TOPOLOGY_KINDS, build_topology, default_flows

DEFAULT_BERS = (2e-6, 2e-5, 5e-5, 8e-5, 1e-4, 2e-4)
DEFAULT_SEEDS = (1, 2, 3, 4, 5)

_FLOAT_PARAMS = {
    "ack_slot", "base_timeout", "data_rate", "pool_ttl", "pairing_hold",
    "drain_grace", "range", "ack_stagger", "turnaround", "slot_time",
}
_INT_PARAMS = {"payload_size", "retry_limit", "queue_cap", "ack_cache_cap",
               "max_cope_components"}
_TOPOLOGY_CONFLICT = ("give either 'topology' or explicit 'node' and "
                      "'range' lines, not both")


class ConfigError(ValueError):
    """A rejected config; `line_no` is None when the fault is something the
    file lacks rather than something on one line."""

    def __init__(self, line_no: int | None, message: str):
        super().__init__(message if line_no is None
                         else f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class ScenarioConfig:
    name: str = "custom"
    topology_kind: str | None = None
    explicit_nodes: dict[int, tuple[float, float]] = field(default_factory=dict)
    range_m: float = 250.0
    protocols: tuple[Protocol, ...] = tuple(Protocol)
    bers: tuple[float, ...] = DEFAULT_BERS
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    flows: tuple[Flow, ...] = ()
    params: SimParams = field(default_factory=SimParams)

    def topology(self) -> Topology:
        if self.explicit_nodes:
            return Topology(self.explicit_nodes, self.range_m)
        return build_topology(self.topology_kind or "eight_node")

    def resolved_flows(self) -> tuple[Flow, ...]:
        if self.flows:
            return self.flows
        if self.topology_kind is None:
            raise ValueError("explicit topologies need explicit flow lines")
        return tuple(default_flows(self.topology_kind))

    def scenario(self, protocol: Protocol, ber: float) -> Scenario:
        return Scenario(
            name=self.name,
            topology=self.topology(),
            protocol=protocol,
            ber=ber,
            flows=self.resolved_flows(),
            params=self.params,
        )


def _parse_protocol(token: str) -> Protocol:
    try:
        return Protocol[token.strip().upper()]
    except KeyError:
        raise ValueError(f"unknown protocol {token.strip()!r}") from None


def _sweep_axis(value: str, line_no: int, key: str, parse) -> tuple:
    values = tuple(parse(v) for v in value.split(","))
    if len(set(values)) < len(values):  # it would run the same cells twice
        raise ConfigError(line_no, f"{key} repeats a value: {value}")
    return values


def parse_config(text: str, name: str = "custom") -> ScenarioConfig:
    cfg = ScenarioConfig(name=name)
    flows: list[Flow] = []
    flow_lines: list[int] = []
    nodes: dict[int, tuple[float, float]] = {}
    range_given = False
    timer_overrides: dict[str, float] = {}
    param_overrides: dict[str, object] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(line_no, f"expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        try:
            if (key == "topology" and (nodes or range_given)
                    or key == "node" and cfg.topology_kind):
                raise ConfigError(line_no, _TOPOLOGY_CONFLICT)
            if key == "topology":
                if value not in TOPOLOGY_KINDS:
                    raise ConfigError(
                        line_no,
                        f"topology must be one of {TOPOLOGY_KINDS}, got {value!r}")
                cfg.topology_kind = value
            elif key == "node":
                nid_s, x_s, y_s = (v.strip() for v in value.split(","))
                nid = int(nid_s)
                if nid in nodes:
                    raise ConfigError(line_no, f"duplicate node id {nid}")
                x, y = float(x_s), float(y_s)
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise ConfigError(line_no, "node coordinates must be finite")
                nodes[nid] = (x, y)
            elif key == "flow":
                src, dst, interval, duration = (v.strip() for v in value.split(","))
                fl = Flow(int(src), int(dst), float(interval), float(duration))
                if not fl.duration > 0:  # throughput needs a positive span
                    raise ConfigError(line_no, "flow duration must be positive")
                flows.append(fl)
                flow_lines.append(line_no)
            elif key in ("protocol", "protocols"):
                cfg.protocols = _sweep_axis(value, line_no, key, _parse_protocol)
            elif key in ("ber", "bers"):
                cfg.bers = _sweep_axis(value, line_no, key, float)
                if not all(0.0 <= b < 1.0 for b in cfg.bers):
                    raise ConfigError(line_no, f"ber must be in [0,1): {value}")
            elif key in ("seed", "seeds"):
                cfg.seeds = _sweep_axis(value, line_no, key, int)
            elif key in _FLOAT_PARAMS:
                v = float(value)
                if not math.isfinite(v):
                    raise ConfigError(line_no, f"{key} must be finite")
                if v <= 0:
                    raise ConfigError(line_no, f"{key} must be positive")
                if key in ("ack_slot", "base_timeout"):
                    timer_overrides[key] = v
                elif key == "range":
                    if cfg.topology_kind:  # a stock topology's links are fixed
                        raise ConfigError(line_no, _TOPOLOGY_CONFLICT)
                    cfg.range_m = v
                    range_given = True
                else:
                    param_overrides[key] = v
            elif key in _INT_PARAMS:
                iv = int(value)
                if iv < 0:
                    raise ConfigError(line_no, f"{key} must be non-negative")
                param_overrides[key] = iv
            elif key == "name":
                cfg.name = value
            else:
                raise ConfigError(line_no, f"unknown key {key!r}")
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(line_no, f"bad value for {key!r}: {exc}") from None

    cfg.explicit_nodes = nodes
    if flows:
        cfg.flows = tuple(flows)
    if timer_overrides:
        param_overrides["timers"] = replace(cfg.params.timers, **timer_overrides)
    if param_overrides:
        cfg.params = replace(cfg.params, **param_overrides)
    if cfg.topology_kind is None and not nodes:
        raise ConfigError(None, "config needs a 'topology' or explicit 'node' lines")
    if cfg.topology_kind is None and not cfg.flows:
        raise ConfigError(None, "explicit topologies need explicit 'flow' lines")
    validate_config(cfg, flow_lines)
    return cfg


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    name = os.path.splitext(os.path.basename(path))[0] or "custom"
    return parse_config(text, name=name)


def validate_config(cfg: ScenarioConfig, flow_lines: Sequence[int] = ()) -> None:
    """Reject what `check_flows` rejects, as a ConfigError at the flow's
    line; `flow_lines[i]` is where flow i was written, if it was."""
    topo = cfg.topology()
    tables = build_forwarding_tables(topo)
    for i, fl in enumerate(cfg.resolved_flows()):
        try:
            check_flows(topo, tables, (fl,))
        except ValueError as exc:
            raise ConfigError(flow_lines[i] if flow_lines else None,
                              str(exc)) from None

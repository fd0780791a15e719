"""meshnc: packet-level simulation of XOR network coding in wireless meshes.

Four link-layer forwarding protocols over the same deterministic engine:
plain store-and-forward, knowledge-gated inter-flow XOR coding, positional
opportunistic coding with native-packet helpers, and flexible opportunistic
coding where non-intended receivers may also decode and forward coded
frames on the intended forwarder's behalf.
"""
from .channel import ChannelParams, Topology, neighbors, sample_reception
from .coding import (
    NeighborKnowledge,
    TimerParams,
    bend_mixable,
    cope_select,
    eligibility_failure,
    flexonc_eligible,
    helper_hold_time,
    priority_index,
    priority_list,
    sender_timeout,
)
from .config import ConfigError, ScenarioConfig, parse_config
from .core import (
    Ack,
    CodedPacket,
    CodingError,
    Frame,
    NativePacket,
    PayloadId,
    Protocol,
    decodable,
    decode,
    encode,
    xor_payloads,
)
from .engine import Simulation, mac_grant, make_payload, run, throughput
from .node import Metrics
from .params import Flow, Scenario, SimParams
from .routing import (
    RoutingError,
    build_forwarding_tables,
    neighbor_next_hop,
    next_hop,
)
from .scenarios import build_topology, default_flows, grid_id
from .sweep import gain_table, run_sweep

__version__ = "0.1.0"

__all__ = [
    "Ack", "ChannelParams", "CodedPacket", "CodingError", "ConfigError",
    "Flow", "Frame", "Metrics", "NativePacket", "NeighborKnowledge",
    "PayloadId", "Protocol", "RoutingError", "Scenario", "ScenarioConfig",
    "SimParams", "Simulation", "TimerParams", "Topology", "bend_mixable",
    "build_forwarding_tables", "build_topology", "cope_select", "decodable",
    "decode", "default_flows", "eligibility_failure", "encode",
    "flexonc_eligible", "gain_table", "grid_id",
    "helper_hold_time", "mac_grant", "make_payload", "neighbor_next_hop",
    "neighbors", "next_hop", "parse_config", "priority_index",
    "priority_list", "run", "run_sweep", "sample_reception",
    "sender_timeout", "throughput", "xor_payloads",
]

"""Run-wide parameter bundle, traffic flows and assembled scenarios."""
from __future__ import annotations

import math
from typing import NamedTuple

from .channel import Topology
from .coding import TimerParams
from .core import Protocol


class SimParams(NamedTuple):
    """Every tunable knob of a run. Defaults follow a 1 Mbps 802.11-era link.

    ack_stagger separates the intended forwarders' ACKs of one coded frame;
    it must stay well below ack_slot so every intended ACK lands before the
    first helper hold expires. pairing_hold briefly parks forwarded packets
    at relay queues so opposite-direction packets can meet and be coded even
    at light load; sources, helpers and retransmissions are exempt.

    A value like every record of the run: immutable, hashable as the tuple
    of its fields and picklable, so a pooled sweep can ship it to workers.
    """
    timers: TimerParams = TimerParams()
    data_rate: float = 1_000_000.0
    payload_size: int = 1000
    slot_time: float = 20e-6
    cw: int = 32
    turnaround: float = 10e-6
    ack_stagger: float = 300e-6
    retry_limit: int = 4
    queue_cap: int = 64
    ack_cache_cap: int = 64
    # Must exceed the worst queueing delay a payload can see between being
    # overheard and being needed for decoding, or saturated runs turn every
    # coded frame undecodable.
    pool_ttl: float = 10.0
    pairing_hold: float = 0.015
    drain_grace: float = 1.0
    max_cope_components: int = 4
    knowledge_cap: int = 256


class _FlowFields(NamedTuple):
    src: int
    dst: int
    interval: float
    duration: float


class Flow(_FlowFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (math.isfinite(self.interval) and math.isfinite(self.duration)):
            raise ValueError("flow interval and duration must be finite")
        if self.interval <= 0:
            raise ValueError("flow interval must be positive")
        if self.duration < 0:
            raise ValueError("flow duration must not be negative")
        return self


class Scenario(NamedTuple):
    name: str
    topology: Topology
    protocol: Protocol
    ber: float
    flows: tuple[Flow, ...]
    params: SimParams = SimParams()

    @property
    def duration(self) -> float:
        return max((f.duration for f in self.flows), default=0.0)

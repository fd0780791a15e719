"""Geometry, neighbor derivation and BER-driven broadcast reception.

`sample_reception` is the one statement of the frame-loss law: a frame of
`bits` reaches each neighbor intact with probability (1 - ber)^bits."""
from __future__ import annotations

import math
import random
from typing import NamedTuple

from .core import TRANSMITTER_FIELD, Frame, NodeId


class Topology:
    """Static node positions with a fixed reception disk.

    Adjacency is precomputed once; positions never change during a run.
    `routes` keeps the forwarding tables built for this topology, keyed by
    destination set (see `routing.shared_tables`).
    """

    def __init__(self, positions: dict[NodeId, tuple[float, float]],
                 range_m: float = 250.0):
        if range_m <= 0:
            raise ValueError("range must be positive")
        self.positions = dict(positions)
        self.range_m = range_m
        self.routes: dict = {}
        self._adj: dict[NodeId, frozenset[NodeId]] = {}
        # Ascending ids: reception draws are consumed in this order.
        self._sorted_adj: dict[NodeId, tuple[NodeId, ...]] = {}
        ids = sorted(self.positions)
        for n in ids:
            xn, yn = self.positions[n]
            near = [
                m for m in ids
                if m != n and math.dist((xn, yn), self.positions[m]) <= range_m
            ]
            self._adj[n] = frozenset(near)
            self._sorted_adj[n] = tuple(near)

    def __contains__(self, n: NodeId) -> bool:
        return n in self.positions

    def nodes(self) -> list[NodeId]:
        return sorted(self.positions)

    def adjacency(self) -> dict[NodeId, frozenset[NodeId]]:
        return dict(self._adj)


class _ChannelFields(NamedTuple):
    ber: float


class ChannelParams(_ChannelFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 <= self.ber < 1.0:
            raise ValueError(f"ber must be in [0,1), got {self.ber}")
        return self


def neighbors(topo: Topology, n: NodeId) -> frozenset[NodeId]:
    """All nodes within reception range of `n` (excluding `n` itself)."""
    if n not in topo:
        raise KeyError(f"unknown node {n}")
    return topo._adj[n]


def sample_reception(frame: Frame, topo: Topology, params: ChannelParams,
                     rng: random.Random) -> tuple[NodeId, ...]:
    """Draw the neighbors that receive a broadcast frame intact.

    Each neighbor succeeds independently with probability (1-ber)^bits. The
    draws are consumed in ascending NodeId order, so runs are reproducible,
    and the receivers come back in that order, as an ascending tuple.
    """
    body = frame.body  # frame.transmitter, without the property call
    sender = body[TRANSMITTER_FIELD[type(body)]]
    heard_by = topo._sorted_adj.get(sender)
    if heard_by is None:
        raise KeyError(f"unknown sender {sender}")
    p_ok = (1.0 - params.ber) ** frame.bits
    rand = rng.random
    heard = []
    for m in heard_by:
        if rand() < p_ok:
            heard.append(m)
    return tuple(heard)

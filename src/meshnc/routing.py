"""Precomputed shortest-path routing plus neighbor-table sharing.

Routing is modeled as the converged state of a distance-vector protocol over
a static topology: minimum-hop routes with ties broken by lowest next-hop id.
Each node additionally holds a copy of every neighbor's table so it can
answer "next hop from neighbor m toward d" locally. `check_flows` is the one
test that a set of flows can be routed at all.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from .channel import Topology
from .core import NodeId


class RoutingError(KeyError):
    """Missing forwarding entry or illegal table lookup."""


@dataclass
class ForwardingTables:
    own: dict[NodeId, dict[NodeId, NodeId]]
    neighbor_copies: dict[NodeId, dict[NodeId, dict[NodeId, NodeId]]]
    # hops[n][dst]: route length in hops; absent when unreachable.
    hops: dict[NodeId, dict[NodeId, int]] = field(default_factory=dict)

    def hop_count(self, n: NodeId, dst: NodeId) -> int:
        if n == dst:
            return 0
        count = self.hops.get(n, {}).get(dst)
        if count is None:
            raise RoutingError(f"no route from {n} to {dst}")
        return count


def build_forwarding_tables(topo: Topology) -> ForwardingTables:
    """BFS from every destination; unreachable pairs simply have no entry."""
    adj = topo.adjacency()
    ids = topo.nodes()
    own: dict[NodeId, dict[NodeId, NodeId]] = {n: {} for n in ids}
    hops: dict[NodeId, dict[NodeId, int]] = {n: {} for n in ids}
    for dst in ids:
        dist = {dst: 0}
        frontier = deque([dst])
        while frontier:
            u = frontier.popleft()
            for v in sorted(adj[u]):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    frontier.append(v)
        for n in ids:
            if n == dst or n not in dist:
                continue
            # Lowest-id neighbor strictly closer to dst.
            nh = min(m for m in adj[n] if dist.get(m, -1) == dist[n] - 1)
            own[n][dst] = nh
            hops[n][dst] = dist[n]

    copies = {n: {m: own[m] for m in sorted(adj[n])} for n in ids}
    return ForwardingTables(own=own, neighbor_copies=copies, hops=hops)


def check_flows(topo: Topology, tables: ForwardingTables,
                flows: Iterable) -> None:
    """Reject a flow with an endpoint missing from the topology, a source
    equal to its destination, or no route; the ValueError names the flow."""
    for fl in flows:
        if fl.src not in topo or fl.dst not in topo:
            raise ValueError(f"flow endpoint not in topology: {fl}")
        if fl.src == fl.dst:
            raise ValueError(f"flow source equals destination: {fl}")
        if fl.dst not in tables.own[fl.src]:
            raise ValueError(
                f"no route between flow endpoints {fl.src} and {fl.dst}")


def next_hop(tables: ForwardingTables, n: NodeId, dst: NodeId) -> NodeId:
    try:
        return tables.own[n][dst]
    except KeyError:
        raise RoutingError(f"no route from {n} to {dst}") from None


def neighbor_next_hop(tables: ForwardingTables, n: NodeId, m: NodeId,
                      dst: NodeId) -> NodeId:
    """Next hop from neighbor `m` toward `dst`, read from n's copy of m's table."""
    copies = tables.neighbor_copies.get(n)
    if copies is None or m not in copies:
        raise RoutingError(f"{m} is not a neighbor of {n}; no table copy held")
    try:
        return copies[m][dst]
    except KeyError:
        raise RoutingError(f"no route from {m} to {dst}") from None

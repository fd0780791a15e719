"""Precomputed shortest-path routing plus neighbor-table sharing.

Routing is modeled as the converged state of a distance-vector protocol over
a static topology: minimum-hop routes with ties broken by lowest next-hop id.
Each node additionally holds a copy of every neighbor's table so it can
answer "next hop from neighbor m toward d" locally. Packets only ever travel
toward flow destinations, so the tables hold routes toward a given set of
destinations only, one BFS from each; `shared_tables` builds them once per
topology and destination set, for the flow check and every cell of a sweep.
`check_flows` is the one test that a set of flows can be routed at all, and
`sendable_hops` names, per node, every hop it can ever address a packet to.
"""
from __future__ import annotations

from typing import Callable, Iterable, NamedTuple

from .channel import Topology
from .core import NodeId, Protocol


class RoutingError(KeyError):
    """Missing forwarding entry or illegal table lookup."""


class ForwardingTables(NamedTuple):
    """own[n][dst]: n's next hop toward dst; neighbor_copies[n][m]: n's copy
    of m's `own` table; hops[n][dst]: route length in hops. An entry is
    absent when dst is unreachable from n or not among the destinations
    the tables were built toward."""
    own: dict
    neighbor_copies: dict
    hops: dict

    def hop_count(self, n: NodeId, dst: NodeId) -> int:
        if n == dst:
            return 0
        count = self.hops.get(n, {}).get(dst)
        if count is None:
            raise RoutingError(f"no route from {n} to {dst}")
        return count


def build_forwarding_tables(topo: Topology,
                            dsts: Iterable[NodeId]) -> ForwardingTables:
    """Routes toward each of `dsts`, by one BFS from each; unreachable pairs
    simply have no entry, and neither does a destination not in `topo`.
    Pass `topo.nodes()` for the full tables."""
    adj = topo.adjacency()
    ids = topo.nodes()
    own: dict[NodeId, dict[NodeId, NodeId]] = {n: {} for n in ids}
    hops: dict[NodeId, dict[NodeId, int]] = {n: {} for n in ids}
    for dst in sorted({d for d in dsts if d in topo}):
        seen = {dst}
        layer = [dst]
        d = 0
        while layer:
            d += 1
            found = []
            # Each layer in ascending id order, so the first node that
            # reaches v is v's lowest-id neighbor one hop closer to dst.
            for u in layer:
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        own[v][dst] = u
                        hops[v][dst] = d
                        found.append(v)
            layer = sorted(found)

    copies = {n: {m: own[m] for m in sorted(adj[n])} for n in ids}
    return ForwardingTables(own=own, neighbor_copies=copies, hops=hops)


def shared_tables(topo: Topology, dsts: Iterable[NodeId],
                  build: Callable[[Topology, frozenset[NodeId]],
                                  ForwardingTables]) -> ForwardingTables:
    """The tables toward `dsts` on `topo`: made by `build` (the caller's
    `build_forwarding_tables`) on first use, then kept on the topology, so
    they live as long as it does and every later caller gets the same
    object. Callers only read them."""
    key = frozenset(dsts)
    tables = topo.routes.get(key)
    if tables is None:
        tables = topo.routes[key] = build(topo, key)
    return tables


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


def sendable_hops(topo: Topology, tables: ForwardingTables, flows: Iterable,
                  protocol: Protocol) -> dict[NodeId, frozenset[NodeId]]:
    """Per node, every hop it can ever address a packet to, after
    `check_flows` has accepted the flows.

    Every next hop a packet of flow f carries lies on f's route chain
    `src -> next_hop(src, dst) -> ... -> dst`: a source, an intended
    forwarder and a helper each read it from a chain node's table, and
    decoding, retransmission and mix splits keep it. So a node sends only
    to its successor on each chain it sits on and, under bend and flexonc,
    as a helper standing in for a chain node c[j] it neighbours: to c[j+1]
    when that is its neighbour too, or to c[j] when c[j] is the destination.
    """
    flows = tuple(flows)
    check_flows(topo, tables, flows)
    adj = topo.adjacency()
    helping = protocol in (Protocol.BEND, Protocol.FLEXONC)
    hops: dict[NodeId, set[NodeId]] = {n: set() for n in topo.nodes()}
    for fl in flows:
        dst = fl.dst
        chain = [fl.src]
        while chain[-1] != dst:
            chain.append(tables.own[chain[-1]][dst])
        for n, succ in zip(chain, chain[1:]):
            hops[n].add(succ)
        if not helping:
            continue
        # A packet's next hop is never its source, so helpers stand in for
        # c[1] onward.
        for j in range(1, len(chain)):
            intended = chain[j]
            onward = chain[j + 1] if intended != dst else dst
            for helper in adj[intended]:
                if onward == intended or onward in adj[helper]:
                    hops[helper].add(onward)
    return {n: frozenset(h) for n, h in hops.items()}


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

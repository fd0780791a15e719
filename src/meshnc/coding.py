"""Pure decision logic of the coding protocols.

What may be mixed (COPE's knowledge-gated rule, BEND's positional rule), who
may forward on another node's behalf (eligibility), in which order competing
receivers act (priority), and how long timers run. Everything here is a pure
function over immutable inputs; all mutable protocol state lives in the node
runtime.
"""
from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Container, Iterable, NamedTuple, Optional, Sequence

from .core import CodedComponent, CodedPacket, NativePacket, NodeId, PayloadId, Protocol, decodable
from .routing import ForwardingTables, RoutingError, neighbor_next_hop

NeighborFn = Callable[[NodeId], frozenset[NodeId]]


class _TimerFields(NamedTuple):
    ack_slot: float = 0.002
    base_timeout: float = 0.005


class TimerParams(_TimerFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.ack_slot <= 0 or self.base_timeout <= 0:
            raise ValueError("timer parameters must be positive")
        return self


class NeighborKnowledge:
    """Per-neighbor belief about which payloads that neighbor holds, kept
    only for the neighbors in `hops`: the hops this node can ever send to
    (`routing.sendable_hops`), since a mix is gated on what the next hops
    hold and nothing else reads a belief.

    Fed by piggybacked reception reports, overheard ACKs and broadcast
    inference. A write about a neighbor outside `hops` is dropped, and a
    read about one raises KeyError, as an invariant check. Each neighbor
    keeps at most `cap` entries, oldest evicted first; that cap is the only
    way entries leave during a run, since the node runtime never calls
    `prune`.

    The node runtime makes one batched update per received frame: `merge`
    records many payloads at one neighbor (a reception report plus the
    frame's own payloads), and `add_to_all` records one payload at many
    neighbors (broadcast inference). Both leave exactly the state that one
    `add` per entry, in iteration order, would leave: the same keys in the
    same order per neighbor, hence the same evictions.

    `n_hops` is the size of the hop set.
    """

    __slots__ = ("_held", "cap", "n_hops")

    def __init__(self, hops: Iterable[NodeId], cap: int = 256):
        if cap < 0:
            raise ValueError("knowledge cap must be non-negative")
        self._held: dict[NodeId, OrderedDict[PayloadId, float]] = {
            n: OrderedDict() for n in sorted(hops)}
        self.cap = cap
        self.n_hops = len(self._held)

    def add(self, neighbor: NodeId, pid: PayloadId, now: float = 0.0) -> None:
        self.add_to_all((neighbor,), pid, now)

    def merge(self, neighbor: NodeId, pids: Sequence[PayloadId],
              now: float = 0.0) -> None:
        entries = self._held.get(neighbor)
        if entries is None:
            return
        to_end = entries.move_to_end
        for pid in pids:
            entries[pid] = now
            to_end(pid)
        # Keeping the `cap` most recently added entries once, at the end,
        # evicts exactly what evicting after every entry would have.
        while len(entries) > self.cap:
            entries.popitem(last=False)

    def add_to_all(self, neighbors: Iterable[NodeId], pid: PayloadId,
                   now: float = 0.0) -> None:
        held, cap = self._held, self.cap
        for neighbor in neighbors:
            entries = held.get(neighbor)
            if entries is None:
                continue
            entries[pid] = now
            entries.move_to_end(pid)
            if len(entries) > cap:
                entries.popitem(last=False)

    def knows(self, neighbor: NodeId, pid: PayloadId) -> bool:
        return pid in self._held[neighbor]

    def held(self, neighbor: NodeId) -> Container[PayloadId]:
        """What `neighbor` is believed to hold, for repeated `in` tests."""
        return self._held[neighbor]

    def holds_all(self, neighbor: NodeId, pids: Iterable[PayloadId]) -> bool:
        entries = self._held[neighbor]
        for pid in pids:
            if pid not in entries:
                return False
        return True

    def prune(self, now: float, ttl: float) -> None:
        for entries in self._held.values():
            while entries:
                pid, stamp = next(iter(entries.items()))
                if stamp >= now - ttl:
                    break
                entries.popitem(last=False)


def cope_select(head: NativePacket, candidates: Iterable[NativePacket],
                knowledge: NeighborKnowledge,
                max_components: int = 4) -> list[NativePacket]:
    """Greedy scan of `candidates` in queue order, growing a codable set.

    A candidate joins when (a) its next hop is not already served by the set
    and (b) after adding it, every member's next hop is believed to hold all
    *other* members. The singleton [head] is always a valid outcome.

    Every next hop must be in the knowledge's hop set, as reading knowledge
    about any other hop raises. So once every hop in that set is blocked,
    no later candidate can join, and the scan stops.
    """
    selected = [head]
    ids = [head.id]
    # Next hops no later candidate may use: one a member already serves, or
    # one believed to lack a member. Members are only ever added, so a hop
    # found lacking one stays blocked for the rest of the scan.
    blocked = {head.next_hop}
    n_hops = knowledge.n_hops
    for cand in candidates:
        if len(selected) >= max_components or len(blocked) >= n_hops:
            break
        hop = cand.next_hop
        if hop in blocked:
            continue
        if not knowledge.holds_all(hop, ids):
            blocked.add(hop)
            continue
        for p in selected:
            if not knowledge.knows(p.next_hop, cand.id):
                break
        else:
            selected.append(cand)
            ids.append(cand.id)
            blocked.add(hop)
    return selected


def bend_mixable(p: NativePacket, q: NativePacket, nbrs: NeighborFn) -> bool:
    """Positional mixability: each packet's next hop must be the other's
    previous hop or one of that previous hop's neighbors."""
    fwd = p.next_hop == q.prev_hop or p.next_hop in nbrs(q.prev_hop)
    rev = q.next_hop == p.prev_hop or q.next_hop in nbrs(p.prev_hop)
    return fwd and rev


def eligibility_failure(receiver: NodeId, component: CodedComponent,
                        coded: CodedPacket, tables: ForwardingTables,
                        nbrs: NeighborFn,
                        pool: frozenset[PayloadId] | set[PayloadId] | dict,
                        ) -> Optional[int]:
    """First failing criterion (1, 2 or 3) for helping one component, or None.

    Criterion 2 (the onward hop from the intended forwarder must be a
    neighbor) is waived when the intended forwarder is the final destination.
    """
    intended = component.intended_next_hop
    my_nbrs = nbrs(receiver)
    if intended not in my_nbrs:
        return 1
    if intended != component.dst:
        try:
            onward = neighbor_next_hop(tables, receiver, intended, component.dst)
        except RoutingError:
            return 2
        if onward not in my_nbrs:
            return 2
    if not decodable(coded, pool, component):
        return 3
    return None


def flexonc_eligible(receiver: NodeId, coded: CodedPacket,
                     tables: ForwardingTables, nbrs: NeighborFn,
                     pool: frozenset[PayloadId] | set[PayloadId] | dict,
                     ) -> Optional[CodedComponent]:
    """First component (header order) the receiver may decode and forward on
    the intended forwarder's behalf; None when no component qualifies."""
    for component in coded.components:
        if component.intended_next_hop == receiver:
            continue
        if eligibility_failure(receiver, component, coded, tables, nbrs,
                               pool) is None:
            return component
    return None


def priority_list(sender: NodeId, intended: NodeId,
                  nbrs: NeighborFn) -> list[NodeId]:
    return [intended] + sorted(nbrs(sender) - {intended})


def priority_index(receiver: NodeId, sender: NodeId, intended: NodeId,
                   nbrs: NeighborFn) -> int:
    """Receiver's rank among the sender's neighbors, intended forwarder first."""
    listing = priority_list(sender, intended, nbrs)
    try:
        return listing.index(receiver)
    except ValueError:
        raise ValueError(
            f"{receiver} is neither the intended forwarder nor a neighbor "
            f"of sender {sender}"
        ) from None


def helper_hold_time(index: int, params: TimerParams) -> float:
    """Hold delay before a helper of rank `index` may act (rank 0 never holds)."""
    if index < 1:
        raise ValueError("index 0 is the intended forwarder; it does not hold")
    return index * params.ack_slot


def sender_timeout(protocol, n_mixed: int, n_sender_neighbors: int,
                   params: TimerParams) -> float:
    """ACK wait before retransmission.

    Native frames wait the base timeout. Coded frames wait one base timeout
    per mixed packet, except that a flexible-forwarding sender waits in
    proportion to its neighbor count so every potential helper's hold window
    fits inside the wait.
    """
    if n_mixed < 1 or n_sender_neighbors < 1:
        raise ValueError("n_mixed and n_sender_neighbors must be >= 1")
    if n_mixed == 1:
        return params.base_timeout
    if protocol == Protocol.FLEXONC:
        return params.base_timeout + n_sender_neighbors * params.ack_slot
    return params.base_timeout * n_mixed

"""Per-node protocol state machine.

One NodeState instance per node per run, driven by the event engine through
five entry points: on_data_frame, on_ack, on_timer, select_transmission and
after_transmit. The frame, timer and transmit handlers return the events the
node wants scheduled, as `(at, event, body)` tuples the engine pushes onto
its heap unchanged: an ACK to send (`E_ACK_TX`, body the `Ack`), a timer
(`E_TIMER`, body the record it fires: a sent native or a `HelperEntry`) or
a wake-up at the end of a pairing hold (`E_WAKE`, no body). An ACK only
updates state, so on_ack returns nothing. The engine owns the clock and the
medium; `ready` says whether a node contends for it (the engine's grant scan
and `select_transmission` restate it); the node owns queues, the decode pool,
pending-retransmission records, helper timers and duplicate suppression.
`_data_frame` builds every data frame it sends, a mix from the mixing queue
or the q1 head with its riders; only a mix's pending records keep their
natives unstamped, with the upstream `prev_hop`.

Frame reception walks the receiver-side flowchart: the intended forwarder of
a native or decodable coded packet admits it, ACKs and progresses it; an
overhearing node caches the payload, and under the opportunistic protocols
may arm a hold timer to take over forwarding if nobody closer to the route
acknowledges first. Plain mode reduces to bare store-and-forward with ACKs.
"""
from __future__ import annotations

from collections import Counter, OrderedDict, deque
from typing import Callable, Container, NamedTuple, Optional

from .coding import (
    NeighborFn,
    NeighborKnowledge,
    bend_mixable,
    cope_select,
    flexonc_eligible,
    helper_hold_time,
    priority_index,  # noqa: F401  (wrapped here by bench/meshbench.py)
    priority_list,
    sender_timeout,
)
from .core import (
    ACK_FRAME_BITS,
    Ack,
    CodedComponent,
    CodedPacket,
    Frame,
    NativePacket,
    REPORT_LEN,
    NodeId,
    PayloadId,
    Protocol,
    data_frame_bits,
    decode,
    encode,
    new_value,
)
from .params import SimParams
from .routing import ForwardingTables, neighbor_next_hop, next_hop

# Bound once: looking a member up on the enum class is slow on the hot path.
PLAIN, COPE, BEND, FLEXONC = Protocol
HELPING = (BEND, FLEXONC)  # the protocols with helpers and positional mixing

# The engine's event kinds for what a node schedules itself.
E_ACK_TX = 3
E_TIMER = 5
E_WAKE = 6


class QueueEntry(NamedTuple):
    pkt: NativePacket
    eligible_at: float
    retx: bool = False


class HelperEntry(NamedTuple):
    """`pkt` as heard: its next hop is the forwarder this node may stand in
    for, sending it on to `onward`. A parked native is also its q2 entry."""
    pkt: NativePacket
    frame_sender: NodeId
    onward: NodeId
    fire_at: float
    index: int


class Metrics:
    """Counters of one run; delivered/generated maps are keyed by flow index.
    Its fields live in its `__dict__`, so `vars()` lists them in this order."""

    def __init__(self):
        self.generated_count = Counter()
        self.generated_bytes = Counter()
        self.delivered_count = Counter()
        self.delivered_bytes = Counter()
        self.tx_data = 0
        self.tx_coded = 0
        self.retx = 0
        self.dups_suppressed = 0
        self.duplicate_deliveries = 0
        self.helper_forwards = 0
        self.corrupted = 0
        self.drops = Counter()
        self.events = 0

    def __eq__(self, other):
        return type(other) is Metrics and vars(self) == vars(other)


class TxIntent(NamedTuple):
    """One granted transmission: the frame plus sender-side bookkeeping."""
    frame: Frame
    natives: tuple[NativePacket, ...]
    retx_count: int


def most_components(params: SimParams, n_hops: int) -> int:
    """The most natives one frame can carry when its sender has `n_hops`
    neighbors: a BEND or FLEXONC mix holds two, a COPE frame up to
    `max_cope_components`, and every native is bound for a distinct
    neighbor."""
    return max(2, min(params.max_cope_components, n_hops))


class NodeState:
    """One node's protocol state in one run. It trusts `Simulation` to pass
    a `Protocol` member: any other value runs a hybrid of the protocols."""

    def __init__(self, node_id: NodeId, protocol: Protocol, params: SimParams,
                 tables: ForwardingTables, nbrs: NeighborFn,
                 hops: frozenset[NodeId], metrics: Metrics,
                 payload_check: Callable[[PayloadId], bytes] | None = None):
        self.node_id = node_id
        self.protocol = protocol
        self.params = params
        self.tables = tables
        self.nbrs = nbrs
        # Every hop this node can ever send to (`routing.sendable_hops`):
        # the only neighbors whose knowledge it keeps.
        self.hops = hops
        self.metrics = metrics
        self.payload_check = payload_check
        self.deg = max(1, len(nbrs(node_id)))

        self.q1: deque[QueueEntry] = deque()
        self.q2: dict[PayloadId, HelperEntry] = {}  # parked, in arrival order
        self.mixing_q: deque[tuple[NativePacket, ...]] = deque()
        # Ids of the payloads in q1, q2 and mixing_q, one copy each. An id
        # joins when its payload enters the queues from outside and leaves
        # when the payload is sent or dropped; moves between queues keep it.
        self._queued: set[PayloadId] = set()
        self.pool: OrderedDict[PayloadId, bytes] = OrderedDict()
        self._pool_stamps: dict[PayloadId, float] = {}
        # The head's stamp at the last eviction scan: as stamps never
        # decrease, no entry expires while the TTL floor is at or below it.
        self._pool_oldest = float("-inf")
        self.recent_rx: deque[PayloadId] = deque(maxlen=REPORT_LEN)
        self.ack_cache: deque[tuple[NodeId, PayloadId]] = deque()
        self._ack_cap = params.ack_cache_cap
        self._acked_by: dict[PayloadId, list[NodeId]] = {}
        self.pending: dict[PayloadId, NativePacket] = {}  # as last sent
        self.retries: dict[PayloadId, int] = {}
        self.helper_timers: dict[PayloadId, HelperEntry] = {}
        self.delivered: set[PayloadId] = set()
        self.knowledge = NeighborKnowledge(hops, cap=params.knowledge_cap)
        self._ranks: dict[tuple[NodeId, NodeId], dict[NodeId, int]] = {}
        # Per transmitter: it and its neighbors other than this node that
        # are in `hops`, the nodes broadcast inference credits with what it
        # sends.
        self._fanout: dict[NodeId, tuple[NodeId, ...]] = {}
        self._serve_mix_next = False
        # The ACK wait after sending a frame, indexed by its component count.
        self._ack_wait = (None, *(
            sender_timeout(protocol, n, self.deg, params.timers)
            for n in range(1, most_components(params, self.deg) + 1)))

    # ------------------------------------------------------------------ utils

    def _pool_add(self, pid: PayloadId, payload: bytes, now: float) -> None:
        pool, stamps = self.pool, self._pool_stamps
        pool[pid] = payload
        pool.move_to_end(pid)
        stamps[pid] = now
        floor = now - self.params.pool_ttl
        while self._pool_oldest < floor and pool:
            old_pid = next(iter(pool))
            self._pool_oldest = stamps[old_pid]
            if self._pool_oldest < floor:
                pool.popitem(last=False)
                del stamps[old_pid]

    def _note_received(self, pid: PayloadId) -> None:
        if pid in self.recent_rx:
            self.recent_rx.remove(pid)
        self.recent_rx.append(pid)

    def _ack_cache_add(self, sender: NodeId, pid: PayloadId) -> None:
        """Remember an ACK in the FIFO `ack_cache`. `_acked_by[pid]` lists
        the sender of each cached ACK for pid, in arrival order. The cache
        evicts its oldest pair, which is the oldest for its payload too, so
        an eviction removes the head of that payload's list."""
        cache, acked_by = self.ack_cache, self._acked_by
        cache.append((sender, pid))
        senders = acked_by.get(pid)
        if senders is None:
            acked_by[pid] = [sender]
        else:
            senders.append(sender)
        if len(cache) > self._ack_cap:
            old_pid = cache.popleft()[1]
            senders = acked_by[old_pid]
            if len(senders) == 1:
                del acked_by[old_pid]
            else:
                del senders[0]

    def _make_ack(self, pid: PayloadId) -> Ack:
        ack = new_value(Ack, (self.node_id, pid))
        self._ack_cache_add(self.node_id, pid)
        return ack

    def build_ack_frame(self, ack: Ack) -> Frame:
        return new_value(Frame, (ack, tuple(self.recent_rx), ACK_FRAME_BITS))

    def _in_custody(self, pid: PayloadId) -> bool:
        return (pid in self._queued or pid in self.pending
                or pid in self.helper_timers or pid in self.delivered)

    def held_payloads(self) -> set[PayloadId]:
        """Payloads in this node's custody: queued in q1, q2 or the mixing
        queue, awaiting an ACK, or behind a helper timer. A payload has at
        most one queued copy per node, and `_queued` indexes exactly those
        copies; the queues are read here rather than trusting the index,
        so this can check it."""
        held = {e.pkt.id for e in self.q1}
        held.update(self.q2)
        held.update(n.id for natives in self.mixing_q for n in natives)
        held.update(self.pending)
        held.update(self.helper_timers)
        return held

    def _deliver(self, pkt: NativePacket) -> None:
        """Hand a payload to the destination application, once per payload:
        a repeat is counted in `duplicate_deliveries` and adds no bytes."""
        if self.payload_check is not None:
            if pkt.payload != self.payload_check(pkt.id):
                self.metrics.corrupted += 1
                return
        if pkt.id in self.delivered:
            self.metrics.duplicate_deliveries += 1
            return
        self.delivered.add(pkt.id)
        self.metrics.delivered_count[pkt.id.flow] += 1
        self.metrics.delivered_bytes[pkt.id.flow] += len(pkt.payload)

    # ----------------------------------------------------------- duplicates

    def _ack_shows_progress(self, sender: NodeId, pkt: NativePacket) -> bool:
        """Whether an ACK from `sender` for pkt's payload proves the payload
        already progressed past this node's copy of `pkt`.

        It does when the sender is the packet's next hop, or a neighbor of
        that hop other than the packet's previous hop that sits strictly
        closer to the destination than this node does. The distance test
        keeps routine receipt ACKs from upstream holders, and helper ACKs
        from peers as far from the destination as this node, from
        masquerading as delivery evidence: both come from nodes that may be
        the payload's only other holder.
        """
        nh = pkt.next_hop
        if sender == nh:
            return True
        if sender == pkt.prev_hop or sender not in self.nbrs(nh):
            return False
        hop_count = self.tables.hop_count
        return hop_count(sender, pkt.dst) < hop_count(self.node_id, pkt.dst)

    def admit_packet(self, pkt: NativePacket) -> bool:
        """False when the packet demonstrably already progressed downstream:
        it was delivered here, or a cached ACK shows progress under
        `_ack_shows_progress`."""
        if pkt.dst == self.node_id and pkt.id in self.delivered:
            return False
        for s in self._acked_by.get(pkt.id, ()):
            if self._ack_shows_progress(s, pkt):
                return False
        return True

    # -------------------------------------------------------------- ingress

    def enqueue_source(self, pkt: NativePacket, now: float) -> bool:
        if len(self.q1) >= self.params.queue_cap:
            self.metrics.drops["queue_overflow"] += 1
            return False
        self.q1.append(new_value(QueueEntry, (pkt, now, False)))
        self._queued.add(pkt.id)
        return True

    def on_data_frame(self, frame: Frame, now: float) -> list[tuple]:
        body = frame.body
        if type(body) is NativePacket:
            return self._on_native(body, frame, now)
        return self._on_coded(body, frame, now)

    def _harvest_components(self, c: CodedPacket, now: float,
                            ) -> tuple[dict[PayloadId, NativePacket], int]:
        """Peel every decodable component into the pool, so that overheard
        coded traffic feeds downstream decoding. Returns the natives
        peeled, by id (none if an add evicted a pooled payload, which may
        be one that a peel read), and how many components were unpooled.
        With two or more, none can be peeled, so `decode` is not tried."""
        pool = self.pool
        unpooled = 0
        for comp in c.components:
            unpooled += comp.id not in pool
        if unpooled > 1:
            return {}, unpooled
        size = len(pool)
        peeled = {}
        for comp in c.components:
            if comp.id in pool:
                continue
            native = decode(c, pool, comp)
            if native is not None:
                self._pool_add(native.id, native.payload, now)
                self._note_received(native.id)
                peeled[native.id] = native
                size += 1  # each peel adds one entry; an eviction drops one
        return (peeled if len(pool) == size else {}), unpooled

    def _native_of(self, c: CodedPacket, comp: CodedComponent, peeled: dict,
                   unpooled: int) -> Optional[NativePacket]:
        """`decode(c, pool, comp)`, called only with one component unpooled."""
        if unpooled == 1:
            return peeled.get(comp.id) or decode(c, self.pool, comp)
        return None if unpooled else new_value(NativePacket, (
            comp.id, comp.src, comp.dst, c.sender, comp.intended_next_hop,
            self.pool[comp.id]))

    def _cede_custody(self, pid: PayloadId, addressee: NodeId) -> None:
        """Another node was heard transmitting this payload to a third node:
        it owns the retransmission responsibility now, so our pending record
        retires. A transmission addressed to this node hands custody to it
        instead (typically an upstream retry after our ACK was lost), so
        the record stays. Called only for a payload in `pending`."""
        if addressee != self.node_id:
            del self.pending[pid]
            self.retries.pop(pid, None)

    def _refresh_helper(self, pid: PayloadId, now: float,
                        actions: list[tuple]) -> None:
        """A fresh transmission restarts the receiver-side race: push the
        hold window out so the new intended forwarder's ACK can beat us.
        Called only for a payload in `helper_timers`."""
        entry = self.helper_timers[pid]
        fire = now + helper_hold_time(entry.index, self.params.timers)
        if fire > entry.fire_at:  # `_arm_helper` re-arms it to fire then
            later = self._arm_helper(entry.pkt, entry.frame_sender,
                                     entry.onward, now, actions)
            if self.q2.get(pid) is entry:  # parked: one entry in both maps
                self.q2[pid] = later

    def _accept(self, pkt: NativePacket, now: float, ack_delay: float,
                actions: list[tuple]) -> None:
        """The intended forwarder's path for a received native or decoded
        component: suppress a duplicate, deliver at the destination, or
        queue it toward the next hop; every outcome is acknowledged."""
        eligible = now
        if not self.admit_packet(pkt) or pkt.id in self._queued:
            self.metrics.dups_suppressed += 1
        elif pkt.dst == self.node_id:
            self._deliver(pkt)
        elif len(self.q1) >= self.params.queue_cap:
            # The frame itself was received fine, so acknowledge it;
            # retrying into a full queue would only burn airtime.
            self.metrics.drops["queue_overflow"] += 1
        else:
            onward_hop = next_hop(self.tables, self.node_id, pkt.dst)
            if self.protocol != PLAIN:
                eligible += self.params.pairing_hold
            self.q1.append(new_value(QueueEntry, (new_value(NativePacket, (
                pkt.id, pkt.src, pkt.dst, pkt.prev_hop, onward_hop,
                pkt.payload)), eligible, False)))
            self._queued.add(pkt.id)
        actions.append((now + self.params.turnaround + ack_delay, E_ACK_TX,
                        self._make_ack(pkt.id)))
        if eligible > now:
            actions.append((eligible, E_WAKE, None))

    def _onward(self, intended: NodeId, dst: NodeId) -> NodeId:
        """The hop after `intended` toward `dst`, read from this node's copy
        of the intended forwarder's table. A caller neighbours `intended`, a
        node on the payload's route chain, so the copy has a route to `dst`."""
        if intended == dst:
            return dst
        return neighbor_next_hop(self.tables, self.node_id, intended, dst)

    def _rank_table(self, sender: NodeId, intended: NodeId) -> dict:
        """`priority_index` of each node for a frame from `sender` to
        `intended`, as a table; a node it would reject is missing."""
        ranks = self._ranks.get((sender, intended))
        if ranks is None:
            listing = priority_list(sender, intended, self.nbrs)
            ranks = self._ranks[sender, intended] = {
                n: i for i, n in enumerate(listing)}
        return ranks

    def _arm_helper(self, pkt: NativePacket, sender: NodeId, onward: NodeId,
                    now: float, actions: list[tuple]) -> HelperEntry:
        """Hold `pkt`, heard from `sender` on its way to its next hop, to
        forward it to `onward` unless a closer node ACKs first."""
        index = self._rank_table(sender, pkt.next_hop)[self.node_id]
        fire = now + helper_hold_time(index, self.params.timers)
        entry = self.helper_timers[pkt.id] = new_value(
            HelperEntry, (pkt, sender, onward, fire, index))
        actions.append((fire, E_TIMER, entry))
        return entry

    def _on_native(self, p: NativePacket, frame: Frame, now: float) -> list[tuple]:
        actions: list[tuple] = []
        proto = self.protocol
        tx = p.prev_hop
        pid = p.id
        if pid in self.pending:
            self._cede_custody(pid, p.next_hop)
        if pid in self.helper_timers:
            self._refresh_helper(pid, now, actions)
        if proto != PLAIN:
            know = self.knowledge
            if tx in self.hops:
                know.merge(tx, frame.reception_report, now)
            self._pool_add(pid, p.payload, now)
            self._note_received(pid)
            # Broadcast inference: every neighbor of the transmitter heard
            # this too unless the channel said otherwise; being wrong under
            # loss reproduces the optimistic coding decisions of the real
            # protocols.
            fanout = self._fanout.get(tx)
            if fanout is None:
                me, hops = self.node_id, self.hops
                fanout = self._fanout[tx] = tuple(
                    m for m in (tx, *self.nbrs(tx)) if m != me and m in hops)
            know.add_to_all(fanout, pid, now)

        if p.next_hop == self.node_id:
            self._accept(p, now, 0.0, actions)
        elif proto in HELPING:
            self._consider_native_helping(p, tx, now, actions)
        return actions

    def _consider_native_helping(self, p: NativePacket, tx: NodeId, now: float,
                                 actions: list[tuple]) -> None:
        if self._in_custody(p.id) or not self.admit_packet(p):
            return
        my_nbrs = self.nbrs(self.node_id)
        if p.next_hop not in my_nbrs:
            return
        onward = self._onward(p.next_hop, p.dst)
        if onward != p.next_hop and onward not in my_nbrs:
            return
        if len(self.q2) >= self.params.queue_cap:
            self.metrics.drops["q2_overflow"] += 1
            return
        self.q2[p.id] = self._arm_helper(p, tx, onward, now, actions)
        self._queued.add(p.id)

    def _on_coded(self, c: CodedPacket, frame: Frame, now: float) -> list[tuple]:
        actions: list[tuple] = []
        proto = self.protocol
        for comp in c.components:
            if comp.id in self.pending:
                self._cede_custody(comp.id, comp.intended_next_hop)
            if comp.id in self.helper_timers:
                self._refresh_helper(comp.id, now, actions)
        peeled, unpooled = {}, 1  # plain pools nothing, so it decodes
        if proto != PLAIN:
            if c.sender in self.hops:
                ids = [*frame.reception_report]
                for comp in c.components:
                    ids.append(comp.id)
                self.knowledge.merge(c.sender, tuple(ids), now)
            peeled, unpooled = self._harvest_components(c, now)

        for i, comp in enumerate(c.components):
            if comp.intended_next_hop == self.node_id:
                native = self._native_of(c, comp, peeled, unpooled)
                if native is None:
                    self.metrics.drops["undecodable"] += 1
                    return actions  # silent; the sender discovers via timeout
                self._pool_add(native.id, native.payload, now)
                self._note_received(native.id)
                self._accept(native, now, i * self.params.ack_stagger, actions)
                return actions

        comp = native = None
        if proto == FLEXONC:
            comp = flexonc_eligible(self.node_id, c, self.tables, self.nbrs,
                                    self.pool)
        if comp is not None and not self._in_custody(comp.id):
            native = self._native_of(c, comp, peeled, unpooled)
        if native is None or not self.admit_packet(native):
            self.metrics.drops["non_intended_coded"] += 1
            return actions
        self._arm_helper(native, c.sender,
                         self._onward(comp.intended_next_hop, comp.dst),
                         now, actions)
        return actions

    # ----------------------------------------------------------------- acks

    def on_ack(self, ack: Ack, report: tuple[PayloadId, ...], now: float,
               ) -> None:
        sender = ack.ack_sender
        pid = ack.payload
        if self.protocol != PLAIN and sender in self.hops:
            self.knowledge.merge(sender, (*report, pid), now)

        sent = self.pending.get(pid)
        if sent is not None:
            nh = sent.next_hop
            if nh == sender or nh in self.nbrs(sender):
                del self.pending[pid]
                self.retries.pop(pid, None)

        if pid in self._queued:
            self._drop_buffered_on_ack(pid, sender)

        helper = self.helper_timers.get(pid)
        if helper is not None:
            # A node with no rank outranks no helper.
            intended = helper.pkt.next_hop
            if (sender == intended or intended in self.nbrs(sender)
                    or self._rank_table(helper.frame_sender, intended).get(
                        sender, helper.index) < helper.index):
                del self.helper_timers[pid]

        self._ack_cache_add(sender, pid)

    def _drop_buffered_on_ack(self, pid: PayloadId, sender: NodeId) -> None:
        """Discard the one queued copy of `pid` if an ACK from `sender`
        proves it obsolete, by the same rule `admit_packet` applies to cached
        ACKs. A looser rule loses payloads: two holders one hop short of the
        same node would each drop their copy on the other's ACK. A dropped
        mix's other components move back to the head of q1 as natives."""
        progress = self._ack_shows_progress
        parked = self.q2.get(pid)
        if parked is not None:
            if progress(sender, parked.pkt):
                del self.q2[pid]
                self._queued.discard(pid)
            return
        for i, e in enumerate(self.q1):
            if e.pkt.id == pid:
                if progress(sender, e.pkt):
                    del self.q1[i]
                    self._queued.discard(pid)
                return
        for i, natives in enumerate(self.mixing_q):
            for n in natives:
                if n.id == pid:
                    if progress(sender, n):
                        del self.mixing_q[i]
                        self._queued.discard(pid)
                        self.q1.extendleft(
                            new_value(QueueEntry, (other, 0.0, False))
                            for other in natives if other.id != pid)
                    return

    # --------------------------------------------------------------- timers

    def on_timer(self, record, now: float) -> list[tuple]:
        """Fire `record` if it is still its payload's current record. `is`
        tells: every send stamps a new native and every arm or refresh builds
        a new entry, and the one object stored again, a native re-queued by
        `_fire_pending`, is sent again only after its own timer has fired."""
        if type(record) is HelperEntry:
            if self.helper_timers.get(record.pkt.id) is record:
                return self._fire_helper(record, now)
        elif self.pending.get(record.id) is record:
            return self._fire_pending(record, now)
        return []  # stale: acked, ceded, resent, cancelled or pushed out

    def _fire_pending(self, sent: NativePacket, now: float) -> list[tuple]:
        pid = sent.id
        del self.pending[pid]
        if pid in self._queued:
            return []  # another copy is already queued here
        left = self.retries.get(pid, 0)
        if left <= 0:
            self.retries.pop(pid, None)
            self.metrics.drops["retries_exhausted"] += 1
            return []
        self.retries[pid] = left - 1
        # Unacked payloads always go back out as natives, at the queue head.
        self.q1.appendleft(new_value(QueueEntry, (sent, now, True)))
        self._queued.add(pid)
        if len(self.q1) > self.params.queue_cap:
            tail = self.q1.pop()
            self._queued.discard(tail.pkt.id)
            self.metrics.drops["queue_overflow"] += 1
        return []

    def _fire_helper(self, entry: HelperEntry, now: float) -> list[tuple]:
        pid = entry.pkt.id
        del self.helper_timers[pid]
        if pid in self.pending or pid in self.delivered:
            return []
        parked = self.q2.pop(pid, None) is not None  # leaves with its timer
        if not parked and pid in self._queued:
            return []
        if len(self.q1) >= self.params.queue_cap:
            self._queued.discard(pid)
            self.metrics.drops["helper_queue_full"] += 1
            return []
        pkt = entry.pkt
        forwarded = new_value(NativePacket, (pkt.id, pkt.src, pkt.dst,
                                             pkt.prev_hop, entry.onward,
                                             pkt.payload))
        # ACK first so other would-be helpers stand down sooner.
        actions: list[tuple] = [(now + self.params.turnaround, E_ACK_TX,
                                 self._make_ack(pid))]
        self.metrics.helper_forwards += 1
        partner = self._take_partner(forwarded, heads_only=True)
        if partner is not None:
            self.mixing_q.append((forwarded, partner.pkt))
        else:
            # Taken-over packets queue like any forwarded packet, pairing
            # hold included, so they can still ride coded frames from here.
            eligible = now + self.params.pairing_hold
            self.q1.append(new_value(QueueEntry, (forwarded, eligible, False)))
            actions.append((eligible, E_WAKE, None))
        self._queued.add(pid)  # already there if it was parked
        return actions

    # ------------------------------------------------------------- egress

    def ready(self, now: float) -> bool:
        if self.mixing_q:
            return True
        q1 = self.q1
        return bool(q1) and q1[0].eligible_at <= now + 1e-12

    def _data_frame(self, pkts) -> tuple[Frame, tuple[NativePacket, ...]]:
        """Stamp `pkts` as sent by this node, retire their `_queued` ids and
        build the frame that carries them: a lone native as it is, several
        as one coded packet. Returns the frame and the stamped natives."""
        me, stamped = self.node_id, []
        for p in pkts:
            self._queued.discard(p.id)
            stamped.append(new_value(NativePacket, (
                p.id, p.src, p.dst, me, p.next_hop, p.payload)))
        natives = tuple(stamped)
        body = natives[0] if len(natives) == 1 else encode(natives, me)
        return new_value(Frame, (body, tuple(self.recent_rx),
                                 data_frame_bits(len(body.payload)))), natives

    def select_transmission(self, now: float) -> Optional[TxIntent]:
        q1 = self.q1
        q1_ok = bool(q1) and q1[0].eligible_at <= now + 1e-12
        if self.mixing_q and (self._serve_mix_next or not q1_ok):
            natives = self.mixing_q.popleft()
            self._serve_mix_next = False
            # Unstamped: their pending records keep the upstream prev_hop.
            return new_value(TxIntent, (self._data_frame(natives)[0],
                                        natives, 0))
        if not q1_ok:
            return None
        self._serve_mix_next = True

        head, _, retx = q1.popleft()
        pkts, retx_count = [head], int(retx)
        proto = self.protocol
        if proto == COPE:
            chosen = cope_select(head, (e.pkt for e in q1), self.knowledge,
                                 self.params.max_cope_components)
            # The riders, in queue order, leave q1 in place.
            i = 0
            for p in chosen[1:]:
                while q1[i].pkt is not p:
                    i += 1
                retx_count += q1[i].retx
                pkts.append(p)
                del q1[i]
        elif proto in HELPING:
            rider = self._take_partner(head, heads_only=False)
            if rider is not None:
                retx_count += rider.retx
                pkts.append(rider.pkt)
        frame, natives = self._data_frame(pkts)
        return new_value(TxIntent, (frame, natives, retx_count))

    def _take_partner(self, pkt: NativePacket,
                      heads_only: bool) -> Optional[QueueEntry]:
        """Pop the first queued packet that may ride one coded frame with
        `pkt`: q1 in order, then the natives parked in q2, each redirected
        to its onward hop and leaving with its helper timer, if an ACK has
        not cancelled it already. `heads_only` looks at each queue's head
        alone. The partner keeps its `_queued` entry; a caller that sends
        it, rather than moving it to the mixing queue, retires the entry."""
        hop, pid, nbrs = pkt.next_hop, pkt.id, self.nbrs
        at_hop = self.knowledge.held(hop)
        fits = self._fits
        for i, e in enumerate(self.q1):
            if i and heads_only:
                break
            p = e.pkt
            if (fits(hop, pid, at_hop, p.next_hop, p.id)
                    and bend_mixable(pkt, p, nbrs)):
                del self.q1[i]
                return e
        # The redirected packet is built only for entries that fit.
        for i, (qid, h) in enumerate(self.q2.items()):
            if i and heads_only:
                break
            if not fits(hop, pid, at_hop, h.onward, qid):
                continue
            p = h.pkt
            cand = new_value(NativePacket, (qid, p.src, p.dst, p.prev_hop,
                                            h.onward, p.payload))
            if bend_mixable(pkt, cand, nbrs):
                del self.q2[qid]
                self.helper_timers.pop(qid, None)
                return new_value(QueueEntry, (cand, 0.0, False))
        return None

    def _fits(self, hop: NodeId, pid: PayloadId, at_hop: Container[PayloadId],
              other_hop: NodeId, other_id: PayloadId) -> bool:
        """Mixable at the hop level: distinct next hops, each believed to
        hold the other's packet (`at_hop` is what `hop` holds)."""
        return (other_hop != hop and other_id in at_hop
                and self.knowledge.knows(other_hop, pid))

    def after_transmit(self, intent: TxIntent, end: float) -> list[tuple]:
        """Arm pending-ACK records once the frame has left the air."""
        deadline = end + self._ack_wait[len(intent.natives)]
        pending, retries = self.pending, self.retries
        limit, pooled = self.params.retry_limit, self.protocol != PLAIN
        actions: list[tuple] = []
        for native in intent.natives:
            pending[native.id] = native
            retries.setdefault(native.id, limit)
            actions.append((deadline, E_TIMER, native))
            if pooled:
                self._pool_add(native.id, native.payload, end)
        return actions

"""Receiver/sender state machine: admission, ACK handling, timers, egress."""
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meshnc.node
from meshnc import (
    Ack,
    CodedPacket,
    Frame,
    Metrics,
    NativePacket,
    PayloadId,
    Protocol,
    SimParams,
    TimerParams,
    build_forwarding_tables,
    build_topology,
    encode,
)
from meshnc.coding import bend_mixable, priority_index, sender_timeout
from meshnc.core import data_frame_bits
from meshnc.node import (
    E_ACK_TX,
    E_TIMER,
    E_WAKE,
    HelperEntry,
    NodeState,
    QueueEntry,
)

PARAMS = SimParams()
SLOT = PARAMS.timers.ack_slot


@pytest.fixture(scope="module")
def ctx():
    topo = build_topology("eight_node")
    tables = build_forwarding_tables(topo, topo.nodes())
    return topo, tables, topo.adjacency().__getitem__


def make_node(ctx, node_id, protocol, params=PARAMS):
    # The packets here are built by hand rather than from flows, so the
    # node keeps knowledge of every neighbor: a superset of any hop set.
    _, tables, nbrs = ctx
    return NodeState(node_id, protocol, params, tables, nbrs,
                     frozenset(nbrs(node_id)), Metrics())


def native(flow, seq, *, src, dst, prev, nxt, payload=b"\xaa" * 8):
    return NativePacket(id=PayloadId(flow, seq), src=src, dst=dst,
                        prev_hop=prev, next_hop=nxt, payload=payload)


def data_frame(body):
    if isinstance(body, CodedPacket):
        bits = data_frame_bits(len(body.payload))
    else:
        bits = data_frame_bits(len(body.payload))
    return Frame(body=body, reception_report=(), bits=bits)


def example_pair(payload_a=b"\x11" * 8, payload_b=b"\x22" * 8):
    """Forward packet (0->4 route, currently 1->2) and reverse packet
    (4->0 route, currently 1->0), the canonical mixable pair at node 1."""
    fwd = native(0, 7, src=0, dst=4, prev=0, nxt=2, payload=payload_a)
    rev = native(1, 7, src=4, dst=0, prev=2, nxt=0, payload=payload_b)
    return fwd, rev


def seed_pair_evidence(node, fwd, rev):
    """What broadcast inference would have recorded had the packets arrived
    over the air: each previous hop (still) holds what it sent."""
    node.knowledge.add(fwd.prev_hop, fwd.id)
    node.knowledge.add(rev.prev_hop, rev.id)


class SentAck(NamedTuple):
    at: float
    ack: Ack


class ArmedTimer(NamedTuple):
    at: float
    record: object  # the record the timer fires


def acks_of(actions):
    """The ACKs among a handler's `(at, event, body)` events."""
    return [SentAck(at, body) for at, event, body in actions
            if event == E_ACK_TX]


def timers_of(actions, kind=None):
    """The timers among a handler's events, those firing a record of type
    `kind` if given: a `HelperEntry`, or a sent `NativePacket`."""
    return [ArmedTimer(at, body) for at, event, body in actions
            if event == E_TIMER and (kind is None or type(body) is kind)]


class TestCodedReception:
    def test_intended_forwarder_decodes_acks_and_progresses(self, ctx):
        node = make_node(ctx, 2, Protocol.FLEXONC)
        fwd, rev = example_pair()
        coded = encode([fwd, rev], sender=1)
        node._pool_add(rev.id, rev.payload, 0.0)
        actions = node.on_data_frame(data_frame(coded), now=1.0)
        sent = acks_of(actions)
        assert len(sent) == 1
        assert sent[0].ack == Ack(ack_sender=2, payload=fwd.id)
        assert len(node.q1) == 1
        queued = node.q1[0].pkt
        assert queued.next_hop == 3
        assert queued.payload == fwd.payload

    def count_decodes(self, monkeypatch):
        calls = []
        decode = meshnc.node.decode

        def counted(*args):
            calls.append(args[2].id)
            return decode(*args)

        monkeypatch.setattr(meshnc.node, "decode", counted)
        return calls

    def test_intended_forwarder_decodes_once(self, ctx, monkeypatch):
        # The harvest peels the missing component into the pool; the
        # intended path takes that native instead of repeating the XOR.
        calls = self.count_decodes(monkeypatch)
        node = make_node(ctx, 2, Protocol.FLEXONC)
        fwd, rev = example_pair()
        node._pool_add(rev.id, rev.payload, 0.0)
        actions = node.on_data_frame(
            data_frame(encode([fwd, rev], sender=1)), now=1.0)
        assert calls == [fwd.id]
        assert [a.ack for a in acks_of(actions)] == [Ack(2, fwd.id)]
        assert [e.pkt.payload for e in node.q1] == [fwd.payload]

    def test_harvest_evicting_the_other_component_leaves_it_undecodable(
            self, ctx, monkeypatch):
        # With a tiny TTL the harvest's own pool add evicts the component
        # it peeled against, so the intended forwarder decodes afresh and
        # fails: no ACK, as if the harvest had not run.
        calls = self.count_decodes(monkeypatch)
        node = make_node(ctx, 2, Protocol.FLEXONC, SimParams(pool_ttl=0.1))
        fwd, rev = example_pair()
        node._pool_add(rev.id, rev.payload, 0.0)
        actions = node.on_data_frame(
            data_frame(encode([rev, fwd], sender=1)), now=1.0)
        assert calls == [fwd.id, fwd.id]
        assert list(node.pool) == [fwd.id]
        assert acks_of(actions) == []
        assert node.metrics.drops["undecodable"] == 1
        assert not node.q1

    def test_harvest_peels_an_evicted_component_again(self, ctx, monkeypatch):
        # In header order the evicted component comes after the peeled
        # one, so the harvest peels it back; the intended forwarder then
        # decodes its own packet against that copy.
        calls = self.count_decodes(monkeypatch)
        node = make_node(ctx, 2, Protocol.FLEXONC, SimParams(pool_ttl=0.1))
        fwd, rev = example_pair()
        node._pool_add(rev.id, rev.payload, 0.0)
        actions = node.on_data_frame(
            data_frame(encode([fwd, rev], sender=1)), now=1.0)
        assert calls == [fwd.id, rev.id, fwd.id]
        assert [a.ack for a in acks_of(actions)] == [Ack(2, fwd.id)]
        assert [e.pkt.payload for e in node.q1] == [fwd.payload]

    def test_a_pooled_intended_component_is_read_from_the_pool(
            self, ctx, monkeypatch):
        node = make_node(ctx, 2, Protocol.FLEXONC)
        fwd, rev = example_pair()
        coded = encode([fwd, rev], sender=1)
        node._pool_add(fwd.id, fwd.payload, 0.0)
        node._pool_add(rev.id, rev.payload, 0.0)
        decoded = meshnc.node.decode(coded, node.pool, coded.components[0])
        accepted = []
        monkeypatch.setattr(node, "_accept",
                            lambda pkt, *rest: accepted.append(pkt))
        calls = self.count_decodes(monkeypatch)
        node.on_data_frame(data_frame(coded), now=1.0)
        assert calls == []
        assert accepted == [decoded]
        assert accepted[0].payload is node.pool[fwd.id]

    def test_a_pooled_eligible_component_is_read_from_the_pool(
            self, ctx, monkeypatch):
        node = make_node(ctx, 6, Protocol.FLEXONC)
        fwd, rev = example_pair()
        coded = encode([fwd, rev], sender=1)
        node._pool_add(fwd.id, fwd.payload, 0.0)
        node._pool_add(rev.id, rev.payload, 0.0)
        decoded = meshnc.node.decode(coded, node.pool, coded.components[0])
        calls = self.count_decodes(monkeypatch)
        actions = node.on_data_frame(data_frame(coded), now=1.0)
        assert calls == []
        (timer,) = timers_of(actions, HelperEntry)
        assert timer.record.pkt == decoded
        assert type(timer.record.pkt) is NativePacket

    def test_undecodable_is_silent(self, ctx, monkeypatch):
        # Both components unpooled: no decode can succeed, so none is
        # tried, in the harvest or on the intended path.
        calls = self.count_decodes(monkeypatch)
        node = make_node(ctx, 2, Protocol.FLEXONC)
        fwd, rev = example_pair()
        coded = encode([fwd, rev], sender=1)
        actions = node.on_data_frame(data_frame(coded), now=1.0)
        assert acks_of(actions) == []
        assert node.metrics.drops["undecodable"] == 1
        assert calls == []

    def test_non_intended_bend_drops(self, ctx):
        node = make_node(ctx, 6, Protocol.BEND)
        fwd, rev = example_pair()
        coded = encode([fwd, rev], sender=1)
        node._pool_add(rev.id, rev.payload, 0.0)
        actions = node.on_data_frame(data_frame(coded), now=1.0)
        assert acks_of(actions) == []
        assert timers_of(actions) == []
        assert node.metrics.drops["non_intended_coded"] == 1

    def test_non_intended_flexonc_arms_helper_at_priority_slot(self, ctx):
        node = make_node(ctx, 6, Protocol.FLEXONC)
        fwd, rev = example_pair()
        coded = encode([fwd, rev], sender=1)
        node._pool_add(rev.id, rev.payload, 0.0)
        actions = node.on_data_frame(data_frame(coded), now=1.0)
        assert acks_of(actions) == []  # no immediate transmission
        (timer,) = timers_of(actions, HelperEntry)
        # Priority list of sender 1 with intended 2: [2, 0, 5, 6] -> index 3.
        assert timer.at == pytest.approx(1.0 + 3 * SLOT)
        assert node.helper_timers[fwd.id].onward == 3

    def test_others_never_ack_coded(self, ctx):
        node = make_node(ctx, 5, Protocol.FLEXONC)
        fwd, rev = example_pair()
        coded = encode([fwd, rev], sender=1)
        actions = node.on_data_frame(data_frame(coded), now=1.0)
        assert acks_of(actions) == []


class TestAckHandling:
    def test_partial_pending_clear(self, ctx):
        node = make_node(ctx, 1, Protocol.BEND)
        fwd, rev = example_pair()
        node.enqueue_source(fwd, 0.0)
        node.enqueue_source(rev, 0.0)
        seed_pair_evidence(node, fwd, rev)
        intent = node.select_transmission(now=1.0)
        assert len(intent.natives) == 2
        node.after_transmit(intent, end=1.01)
        assert set(node.pending) == {fwd.id, rev.id}
        node.on_ack(Ack(2, fwd.id), (), now=1.011)
        assert set(node.pending) == {rev.id}

    def test_helper_cancelled_by_higher_priority_ack(self, ctx):
        node = make_node(ctx, 6, Protocol.FLEXONC)
        fwd, rev = example_pair()
        coded = encode([fwd, rev], sender=1)
        node._pool_add(rev.id, rev.payload, 0.0)
        node.on_data_frame(data_frame(coded), now=1.0)
        assert fwd.id in node.helper_timers
        node.on_ack(Ack(2, fwd.id), (), now=1.001)  # intended has index 0
        assert fwd.id not in node.helper_timers

    def test_buffered_drop_when_acker_neighbors_next_hop(self, ctx):
        node = make_node(ctx, 2, Protocol.BEND)
        pkt = native(0, 9, src=0, dst=4, prev=1, nxt=3)
        node.enqueue_source(pkt, 0.0)
        # Node 7 neighbors 3, so its ACK means the payload is downstream.
        node.on_ack(Ack(7, pkt.id), (), now=2.0)
        assert len(node.q1) == 0
        assert pkt.id not in node._queued

    @pytest.mark.parametrize("proto", [Protocol.BEND, Protocol.FLEXONC])
    def test_peer_acks_one_hop_short_keep_both_copies(self, ctx, proto):
        # Node 3 holds the payload as 2's intended forwarder, node 7 as the
        # helper that took it over; both sit one hop from node 4. Neither
        # ACK proves the payload got closer than the other holder, so
        # dropping on it would lose the payload with no drop counted.
        holders = {n: make_node(ctx, n, proto) for n in (3, 7)}
        pkt = native(0, 196, src=0, dst=4, prev=2, nxt=4)
        for node in holders.values():
            node.enqueue_source(pkt, 0.0)
        holders[3].on_ack(Ack(7, pkt.id), (), now=2.0)
        holders[7].on_ack(Ack(3, pkt.id), (), now=2.0)
        for node in holders.values():
            assert [e.pkt.id for e in node.q1] == [pkt.id]
            assert pkt.id in node._queued

    def test_unrelated_ack_preserves_buffer(self, ctx):
        node = make_node(ctx, 2, Protocol.BEND)
        pkt = native(0, 9, src=0, dst=4, prev=1, nxt=3)
        node.enqueue_source(pkt, 0.0)
        node.on_ack(Ack(5, pkt.id), (), now=2.0)  # 5 is not near node 3
        assert len(node.q1) == 1

    def test_ack_cache_bounded(self, ctx):
        node = make_node(ctx, 2, Protocol.PLAIN)
        for seq in range(200):
            node._ack_cache_add(3, PayloadId(0, seq))
        assert len(node.ack_cache) == PARAMS.ack_cache_cap

    @pytest.mark.parametrize("cap", [0, 1, 64])
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_acked_by_tracks_the_cached_pairs(self, ctx, cap, data):
        # Few senders and payload ids, so pairs repeat and an eviction
        # often leaves another copy of the evicted pair in the cache; the
        # stream runs past the cap so that evictions happen at every cap.
        stream = data.draw(st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 1), st.integers(0, 3)),
            min_size=cap, max_size=2 * cap + 20))
        node = make_node(ctx, 2, Protocol.PLAIN,
                         SimParams(ack_cache_cap=cap))
        for sender, flow, seq in stream:
            node._ack_cache_add(sender, PayloadId(flow, seq))
            assert len(node.ack_cache) <= cap
            expected: dict = {}
            for s, pid in node.ack_cache:
                expected.setdefault(pid, set()).add(s)
            assert {pid: set(senders) for pid, senders
                    in node._acked_by.items()} == expected


class TestRankTable:
    @pytest.mark.parametrize("kind", ["x_topo", "eight_node", "grid5"])
    def test_matches_priority_index(self, kind):
        topo = build_topology(kind)
        tables = build_forwarding_tables(topo, topo.nodes())
        nbrs = topo.adjacency().__getitem__
        nodes = topo.nodes()
        for receiver in nodes:
            node = NodeState(receiver, Protocol.FLEXONC, PARAMS, tables, nbrs,
                             frozenset(nbrs(receiver)), Metrics())
            for sender in nodes:
                for intended in nodes:
                    rank = node._rank_table(sender, intended).get(receiver)
                    try:
                        expected = priority_index(receiver, sender, intended,
                                                  nbrs)
                    except ValueError:
                        expected = None
                    assert rank == expected, (receiver, sender, intended)


def reference_take_partner(node, pkt, heads_only):
    """`NodeState._take_partner` as a scan that tests every candidate with
    one `mixable` conjunction."""
    know, nbrs = node.knowledge, node.nbrs

    def mixable(a, b):
        return (a.next_hop != b.next_hop and know.knows(a.next_hop, b.id)
                and know.knows(b.next_hop, a.id) and bend_mixable(a, b, nbrs))

    for i, e in enumerate(node.q1):
        if i and heads_only:
            break
        if mixable(pkt, e.pkt):
            del node.q1[i]
            return e
    for i, (pid, h) in enumerate(node.q2.items()):
        if i and heads_only:
            break
        p = h.pkt
        cand = NativePacket(pid, p.src, p.dst, p.prev_hop, h.onward,
                            p.payload)
        if mixable(pkt, cand):
            del node.q2[pid]
            node.helper_timers.pop(pid, None)
            return QueueEntry(cand, 0.0)
    return None


class TestTakePartner:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_matches_the_reference_scan(self, ctx, data):
        topo, _, nbrs = ctx
        node_id = data.draw(st.sampled_from(sorted(topo.nodes())))
        hops = sorted(nbrs(node_id))
        any_node = st.sampled_from(sorted(topo.nodes()))
        hop = st.sampled_from(hops)
        n_q1 = data.draw(st.integers(0, 6))
        n_q2 = data.draw(st.integers(0, 4))
        seqs = data.draw(st.lists(st.integers(0, 99), unique=True,
                                  min_size=1 + n_q1 + n_q2,
                                  max_size=1 + n_q1 + n_q2))

        def packet(seq):
            return native(0, seq, src=data.draw(any_node),
                          dst=data.draw(any_node), prev=data.draw(any_node),
                          nxt=data.draw(hop))

        pkt = packet(seqs[0])
        q1 = [QueueEntry(packet(seq), 0.0) for seq in seqs[1:1 + n_q1]]
        q2 = [HelperEntry(packet(seq), data.draw(any_node), data.draw(hop),
                          1.0, 1) for seq in seqs[1 + n_q1:]]
        timed = [h.pkt.id for h in q2 if data.draw(st.booleans())]
        known = {h: data.draw(st.sets(st.sampled_from(seqs))) for h in hops}
        heads_only = data.draw(st.booleans())

        def build():
            node = make_node(ctx, node_id, Protocol.FLEXONC)
            node.q1.extend(QueueEntry(e.pkt, e.eligible_at, e.retx)
                           for e in q1)
            for h in q2:
                node.q2[h.pkt.id] = HelperEntry(h.pkt, h.frame_sender,
                                                h.onward, h.fire_at, h.index)
                if h.pkt.id in timed:
                    node.helper_timers[h.pkt.id] = node.q2[h.pkt.id]
            for h, held in known.items():
                for seq in sorted(held):
                    node.knowledge.add(h, PayloadId(0, seq))
            return node

        node, ref = build(), build()
        assert (node._take_partner(pkt, heads_only)
                == reference_take_partner(ref, pkt, heads_only))
        assert list(node.q1) == list(ref.q1)
        assert node.q2 == ref.q2 and list(node.q2) == list(ref.q2)
        assert node.helper_timers == ref.helper_timers


class TestTimerHandling:
    def test_helper_fire_acks_then_forwards(self, ctx):
        node = make_node(ctx, 6, Protocol.FLEXONC)
        fwd, rev = example_pair()
        coded = encode([fwd, rev], sender=1)
        node._pool_add(rev.id, rev.payload, 0.0)
        (timer,) = timers_of(node.on_data_frame(data_frame(coded), 1.0),
                             HelperEntry)
        actions = node.on_timer(timer.record, now=timer.at)
        (ack,) = acks_of(actions)
        assert ack.ack == Ack(6, fwd.id)
        assert node.metrics.helper_forwards == 1
        assert len(node.q1) == 1
        assert node.q1[0].pkt.next_hop == 3  # next hop from node 2 toward 4
        assert node.q1[0].pkt.payload == fwd.payload

    @staticmethod
    def fire_helper_into_mix(ctx):
        """Node 6 takes fwd over from a coded frame, and its helper timer
        fires with a mix partner at the head of q1."""
        node = make_node(ctx, 6, Protocol.FLEXONC)
        fwd, rev = example_pair()
        node._pool_add(rev.id, rev.payload, 0.0)
        (timer,) = timers_of(
            node.on_data_frame(data_frame(encode([fwd, rev], sender=1)), 1.0),
            HelperEntry)
        # A reverse packet from node 3 toward node 2 heads q1; once node 6
        # takes fwd over (onward hop 3), the two mix, and each receiver is
        # believed to hold the other's packet.
        head = native(1, 8, src=4, dst=0, prev=3, nxt=2)
        node.enqueue_source(head, 0.0)
        node.knowledge.add(3, head.id)
        node.knowledge.add(2, fwd.id)
        node.on_timer(timer.record, now=timer.at)
        return node, fwd, head, timer.at

    def test_helper_remix_keeps_both_payloads_queued(self, ctx):
        node, fwd, head, _ = self.fire_helper_into_mix(ctx)
        assert [n.id for n in node.mixing_q[0]] == [fwd.id, head.id]
        assert {fwd.id, head.id} <= node._queued

    def test_a_helper_mix_hands_over_its_queued_natives_unstamped(self, ctx):
        # The frame carries stamped copies, but the intent, and so the
        # pending records, keep the very natives queued in the mix, with
        # their upstream prev_hops: fwd as decoded from node 1's frame, the
        # head as enqueued from node 3. Stamping them changes the output.
        node, fwd, head, now = self.fire_helper_into_mix(ctx)
        queued = node.mixing_q[0]
        intent = node.select_transmission(now)
        assert len(intent.natives) == len(queued) == 2
        for sent, kept in zip(intent.natives, queued):
            assert sent is kept
        assert intent.natives[1] is head
        assert [n.prev_hop for n in intent.natives] == [1, 3]
        assert intent.frame.body.sender == 6

    def test_queued_helper_mix_is_encoded_when_sent(self, ctx, monkeypatch):
        # The mix waits in the mixing queue as natives, and goes out as one
        # coded frame, built when it is sent. Its two payloads then await
        # ACKs; an ACK from fwd's onward hop retires one record, so only
        # the other's timer sends its payload again.
        encoded = []
        encode_now = meshnc.node.encode
        monkeypatch.setattr(meshnc.node, "encode", lambda natives, sender: (
            encoded.append([n.id for n in natives])
            or encode_now(natives, sender)))
        node, fwd, head, now = self.fire_helper_into_mix(ctx)
        assert encoded == [] and len(node.mixing_q) == 1
        intent = node.select_transmission(now)
        assert encoded == [[fwd.id, head.id]] and not node.mixing_q
        body = intent.frame.body
        assert isinstance(body, CodedPacket) and body.sender == 6
        assert [(c.id, c.intended_next_hop) for c in body.components] == [
            (fwd.id, 3), (head.id, 2)]
        assert not node._queued and not node.q1
        timers = timers_of(node.after_transmit(intent, now + 0.01))
        assert [t.record for t in timers] == list(intent.natives)
        assert set(node.pending) == {fwd.id, head.id}
        node.on_ack(Ack(3, fwd.id), (), now=now + 0.011)
        for t in timers:
            assert node.on_timer(t.record, t.at) == []
        assert not node.pending
        assert [(e.pkt.id, e.retx) for e in node.q1] == [(head.id, True)]

    def test_exhausted_retries_drop(self, ctx):
        node = make_node(ctx, 1, Protocol.PLAIN)
        pkt = native(0, 3, src=0, dst=4, prev=1, nxt=2)
        node.enqueue_source(pkt, 0.0)
        now = 0.0
        retx_flags = 0
        for _ in range(PARAMS.retry_limit + 1):
            intent = node.select_transmission(now)
            assert intent is not None
            retx_flags += intent.retx_count
            (timer,) = timers_of(node.after_transmit(intent, now + 0.008))
            node.on_timer(timer.record, timer.at)
            now = timer.at
        assert node.metrics.drops["retries_exhausted"] == 1
        assert not node.q1 and pkt.id not in node.pending
        assert retx_flags == PARAMS.retry_limit

    def test_coded_timeout_retransmits_only_unacked_component_native(self, ctx):
        # Trace-level oracle for the three-node exchange: mix two packets,
        # ACK one, time the other out, and inspect the retransmitted frame.
        node = make_node(ctx, 1, Protocol.BEND)
        fwd, rev = example_pair()
        node.enqueue_source(fwd, 0.0)
        node.enqueue_source(rev, 0.0)
        seed_pair_evidence(node, fwd, rev)
        intent = node.select_transmission(0.0)
        assert isinstance(intent.frame.body, CodedPacket)
        timers = timers_of(node.after_transmit(intent, end=0.009))
        node.on_ack(Ack(2, fwd.id), (), now=0.010)
        for timer in timers:
            node.on_timer(timer.record, timer.at)
        retx = node.select_transmission(timers[-1].at)
        assert isinstance(retx.frame.body, NativePacket)
        assert retx.frame.body.id == rev.id
        assert retx.retx_count == 1

    def test_upstream_retry_to_self_keeps_pending_record(self, ctx):
        # Node 2 forwarded the payload and awaits node 3's ACK when node 1,
        # having missed 2's receipt ACK, sends the payload to 2 again. The
        # retry hands custody to node 2, so its pending record must stay;
        # only a transmission addressed to another node retires it.
        node = make_node(ctx, 2, Protocol.BEND)
        pkt = native(0, 993, src=0, dst=4, prev=1, nxt=2)
        node.on_data_frame(data_frame(pkt), now=1.0)
        intent = node.select_transmission(1.0 + PARAMS.pairing_hold)
        node.after_transmit(intent, end=1.03)
        assert pkt.id in node.pending
        again = node.on_data_frame(data_frame(pkt), now=1.031)
        assert [a.ack for a in acks_of(again)] == [Ack(2, pkt.id)]
        assert node.metrics.dups_suppressed == 1
        assert pkt.id in node.pending
        onward = native(0, 993, src=0, dst=4, prev=3, nxt=4)
        node.on_data_frame(data_frame(onward), now=1.04)
        assert pkt.id not in node.pending

    def test_resent_payload_fires_only_its_latest_record(self, ctx):
        # Node 1 relays a payload to 2. Its own receipt ACK leaves its
        # one-entry ACK cache, so node 0's retry is admitted and sent again
        # before the first ACK wait ends. The first send's timer finds a
        # newer record and does nothing; the second send's timer fires.
        node = make_node(ctx, 1, Protocol.PLAIN, SimParams(ack_cache_cap=1))
        pkt = native(0, 3, src=0, dst=4, prev=0, nxt=1)
        node.on_data_frame(data_frame(pkt), now=1.0)
        (first,) = timers_of(
            node.after_transmit(node.select_transmission(1.0), end=1.01))
        node.on_ack(Ack(2, PayloadId(0, 4)), (), now=1.011)
        node.on_data_frame(data_frame(pkt), now=1.012)
        (second,) = timers_of(
            node.after_transmit(node.select_transmission(1.012), end=1.02))
        assert first.at > 1.012 and second.at > first.at
        assert node.on_timer(first.record, first.at) == []
        assert node.pending[pkt.id] is second.record
        assert not node.q1 and node.retries[pkt.id] == PARAMS.retry_limit
        assert node.on_timer(second.record, second.at) == []
        assert pkt.id not in node.pending
        assert [(e.pkt, e.retx) for e in node.q1] == [(second.record, True)]
        assert node.retries[pkt.id] == PARAMS.retry_limit - 1

    def test_timer_of_an_acked_record_does_nothing(self, ctx):
        node = make_node(ctx, 1, Protocol.PLAIN)
        pkt = native(0, 3, src=0, dst=4, prev=1, nxt=2)
        node.enqueue_source(pkt, 0.0)
        (timer,) = timers_of(
            node.after_transmit(node.select_transmission(0.0), end=0.009))
        node.on_ack(Ack(2, pkt.id), (), now=0.010)
        assert node.on_timer(timer.record, timer.at) == []
        assert not node.pending and not node.q1 and not node._queued
        assert not node.metrics.drops


# Every knob that sets an event time, off its default, so that a wrong
# formula cannot match by coincidence.
TIMED = SimParams(timers=TimerParams(ack_slot=0.0023, base_timeout=0.0061),
                  turnaround=37e-6, ack_stagger=410e-6, pairing_hold=0.021)


class TestEventTimes:
    """The node alone sets when each event it asks for is due."""

    @pytest.mark.parametrize("node_id, index", [(2, 0), (0, 1)])
    def test_intended_forwarder_acks_after_its_components_stagger(
            self, ctx, node_id, index):
        node = make_node(ctx, node_id, Protocol.FLEXONC, TIMED)
        pair = example_pair()
        other = pair[1 - index]
        node._pool_add(other.id, other.payload, 0.0)
        now = 1.25
        actions = node.on_data_frame(
            data_frame(encode(list(pair), sender=1)), now)
        assert acks_of(actions) == [SentAck(
            now + TIMED.turnaround + index * TIMED.ack_stagger,
            Ack(node_id, pair[index].id))]

    def test_relayed_native_acks_then_wakes_after_the_pairing_hold(self, ctx):
        node = make_node(ctx, 2, Protocol.BEND, TIMED)
        pkt = native(0, 5, src=0, dst=4, prev=1, nxt=2)
        now = 1.25
        assert node.on_data_frame(data_frame(pkt), now) == [
            (now + TIMED.turnaround, E_ACK_TX, Ack(2, pkt.id)),
            (now + TIMED.pairing_hold, E_WAKE, None)]

    def test_firing_helper_acks_first_then_wakes_after_the_pairing_hold(
            self, ctx):
        node = make_node(ctx, 6, Protocol.FLEXONC, TIMED)
        fwd, rev = example_pair()
        node._pool_add(rev.id, rev.payload, 0.0)
        (timer,) = timers_of(node.on_data_frame(
            data_frame(encode([fwd, rev], sender=1)), 1.0), HelperEntry)
        # Node 6 has rank 3 for sender 1 and intended 2: [2, 0, 5, 6].
        assert timer.at == 1.0 + 3 * TIMED.timers.ack_slot
        assert node.on_timer(timer.record, timer.at) == [
            (timer.at + TIMED.turnaround, E_ACK_TX, Ack(6, fwd.id)),
            (timer.at + TIMED.pairing_hold, E_WAKE, None)]

    @pytest.mark.parametrize("proto", [Protocol.BEND, Protocol.FLEXONC])
    def test_after_transmit_arms_each_pending_timer_after_the_ack_wait(
            self, ctx, proto):
        node = make_node(ctx, 1, proto, TIMED)
        fwd, rev = example_pair()
        node.enqueue_source(fwd, 0.0)
        node.enqueue_source(rev, 0.0)
        seed_pair_evidence(node, fwd, rev)
        coded = node.select_transmission(0.0)
        wait = node._ack_wait[2]
        assert wait == sender_timeout(proto, 2, node.deg, TIMED.timers)
        end = 0.0093
        assert [n.id for n in coded.natives] == [fwd.id, rev.id]
        assert node.after_transmit(coded, end) == [
            (end + wait, E_TIMER, native) for native in coded.natives]

        lone = native(0, 8, src=0, dst=4, prev=0, nxt=2)
        node.enqueue_source(lone, 0.02)
        intent = node.select_transmission(0.02)
        assert node._ack_wait[1] == TIMED.timers.base_timeout
        end = 0.0291
        assert node.after_transmit(intent, end) == [
            (end + node._ack_wait[1], E_TIMER, intent.natives[0])]
        assert node.pending[lone.id] is intent.natives[0]


class TestAdmission:
    def test_cached_next_hop_ack_blocks(self, ctx):
        node = make_node(ctx, 2, Protocol.BEND)
        pkt = native(0, 5, src=0, dst=4, prev=1, nxt=3)
        node._ack_cache_add(3, pkt.id)
        assert node.admit_packet(pkt) is False

    def test_empty_cache_admits(self, ctx):
        node = make_node(ctx, 2, Protocol.BEND)
        pkt = native(0, 5, src=0, dst=4, prev=1, nxt=3)
        assert node.admit_packet(pkt) is True

    def test_downstream_neighbor_ack_blocks(self, ctx):
        node = make_node(ctx, 2, Protocol.BEND)
        pkt = native(0, 5, src=0, dst=4, prev=1, nxt=3)
        node._ack_cache_add(7, pkt.id)  # 7 neighbors 3 and is closer to 4
        assert node.admit_packet(pkt) is False

    def test_upstream_receipt_ack_does_not_block(self, ctx):
        # Node 1 acked this payload when receiving it one hop upstream; its
        # ACK must not be read as downstream-delivery evidence at node 2.
        node = make_node(ctx, 2, Protocol.BEND)
        pkt = native(0, 5, src=0, dst=4, prev=1, nxt=2)
        node._ack_cache_add(1, pkt.id)
        assert node.admit_packet(pkt) is True

    def test_repeat_delivery_is_counted_without_bytes(self, ctx):
        node = make_node(ctx, 4, Protocol.FLEXONC)
        pkt = native(0, 5, src=0, dst=4, prev=3, nxt=4)
        node._deliver(pkt)
        node._deliver(pkt)
        m = node.metrics
        assert m.delivered_count[0] == 1
        assert m.delivered_bytes[0] == len(pkt.payload)
        assert m.duplicate_deliveries == 1

    def test_delivered_guard(self, ctx):
        node = make_node(ctx, 4, Protocol.PLAIN)
        pkt = native(0, 5, src=0, dst=4, prev=3, nxt=4)
        node.delivered.add(pkt.id)
        assert node.admit_packet(pkt) is False


class TestSelectTransmission:
    def test_mixable_pair_becomes_coded_with_next_hop_list(self, ctx):
        node = make_node(ctx, 1, Protocol.BEND)
        fwd, rev = example_pair()
        node.enqueue_source(fwd, 0.0)
        node.enqueue_source(rev, 0.0)
        seed_pair_evidence(node, fwd, rev)
        intent = node.select_transmission(0.0)
        body = intent.frame.body
        assert isinstance(body, CodedPacket)
        assert {c.intended_next_hop for c in body.components} == {0, 2}
        assert body.sender == 1

    def test_q1_head_intents_carry_natives_stamped_by_the_sender(self, ctx):
        node = make_node(ctx, 1, Protocol.BEND)
        fwd, rev = example_pair()
        node.enqueue_source(fwd, 0.0)
        node.enqueue_source(rev, 0.0)
        seed_pair_evidence(node, fwd, rev)
        intent = node.select_transmission(0.0)
        assert [n.id for n in intent.natives] == [fwd.id, rev.id]
        assert [n.prev_hop for n in intent.natives] == [1, 1]
        assert intent.natives[0] is not fwd and intent.natives[1] is not rev
        node.enqueue_source(fwd, 1.0)
        (lone,) = node.select_transmission(1.0).natives
        assert lone.prev_hop == 1 and lone is not fwd

    def test_empty_queues_yield_none(self, ctx):
        node = make_node(ctx, 1, Protocol.BEND)
        assert node.select_transmission(0.0) is None
        assert node.ready(0.0) is False

    def test_unpaired_head_goes_native(self, ctx):
        node = make_node(ctx, 1, Protocol.BEND)
        fwd, _ = example_pair()
        node.enqueue_source(fwd, 0.0)
        intent = node.select_transmission(0.0)
        body = intent.frame.body
        assert isinstance(body, NativePacket)
        assert body.prev_hop == 1

    def test_plain_never_pairs(self, ctx):
        node = make_node(ctx, 1, Protocol.PLAIN)
        fwd, rev = example_pair()
        node.enqueue_source(fwd, 0.0)
        node.enqueue_source(rev, 0.0)
        intent = node.select_transmission(0.0)
        assert isinstance(intent.frame.body, NativePacket)

    def test_pairing_hold_defers_readiness(self, ctx):
        node = make_node(ctx, 2, Protocol.BEND)
        pkt = native(0, 1, src=0, dst=4, prev=1, nxt=2)
        node.on_data_frame(data_frame(pkt), now=5.0)
        assert node.ready(5.0) is False
        assert node.ready(5.0 + PARAMS.pairing_hold) is True


class TestNativeHelping:
    def overhear(self, node, now=1.0):
        # Node 5 overhears the uplink 0 -> 1 (destination 4, onward hop 2).
        pkt = native(0, 2, src=0, dst=4, prev=0, nxt=1)
        return pkt, node.on_data_frame(data_frame(pkt), now=now)

    @pytest.mark.parametrize("proto", [Protocol.BEND, Protocol.FLEXONC])
    def test_overhearer_arms_native_helper(self, ctx, proto):
        node = make_node(ctx, 5, proto)
        pkt, actions = self.overhear(node)
        (timer,) = timers_of(actions, HelperEntry)
        # Priority list of sender 0 with intended 1: [1, 5] -> index 1.
        assert timer.at == pytest.approx(1.0 + 1 * SLOT)
        assert len(node.q2) == 1
        assert node.helper_timers[pkt.id].onward == 2

    def test_native_helper_fire_redirects_to_onward_hop(self, ctx):
        node = make_node(ctx, 5, Protocol.BEND)
        pkt, actions = self.overhear(node)
        (timer,) = timers_of(actions, HelperEntry)
        fired = node.on_timer(timer.record, timer.at)
        (ack,) = acks_of(fired)
        assert ack.ack == Ack(5, pkt.id)
        assert node.q1[0].pkt.next_hop == 2
        assert not node.q2

    def test_intended_ack_cancels_native_helper(self, ctx):
        node = make_node(ctx, 5, Protocol.FLEXONC)
        pkt, _ = self.overhear(node)
        node.on_ack(Ack(1, pkt.id), (), now=1.0001)
        assert pkt.id not in node.helper_timers
        assert not node.q2  # buffered copy dropped as well

    @pytest.mark.parametrize("proto", [Protocol.BEND, Protocol.FLEXONC])
    def test_cancel_without_progress_keeps_the_parked_copy(self, ctx, proto):
        # The sender's own ACK outranks helper 5, so it cancels the timer,
        # but it shows no progress past 5's copy: the copy stays queued,
        # held and available as a mix partner until an ACK shows progress.
        node = make_node(ctx, 5, proto)
        pkt, _ = self.overhear(node)
        node.on_ack(Ack(0, pkt.id), (), now=1.0001)
        assert pkt.id not in node.helper_timers
        assert list(node.q2) == [pkt.id]
        assert pkt.id in node._queued and pkt.id in node.held_payloads()
        node.on_ack(Ack(1, pkt.id), (), now=1.0002)  # the intended forwarder
        assert not node.q2
        assert pkt.id not in node._queued
        assert pkt.id not in node.held_payloads()

    def test_plain_and_cope_do_not_help(self, ctx):
        for proto in (Protocol.PLAIN, Protocol.COPE):
            node = make_node(ctx, 5, proto)
            pkt, actions = self.overhear(node)
            assert timers_of(actions) == []
            assert not node.q2

    def test_fresh_transmission_pushes_helper_out(self, ctx):
        node = make_node(ctx, 5, Protocol.BEND)
        pkt, actions = self.overhear(node)
        (t1,) = timers_of(actions, HelperEntry)
        again = node.on_data_frame(data_frame(pkt), now=1.0015)
        (t2,) = timers_of(again, HelperEntry)
        assert t2.at > t1.at
        assert node.on_timer(t1.record, t1.at) == []  # stale
        assert pkt.id in node.helper_timers

    @pytest.mark.parametrize("proto", [Protocol.BEND, Protocol.FLEXONC])
    def test_refreshed_parked_native_stays_one_entry(self, ctx, proto):
        # A refresh replaces the helper entry; a parked native's q2 entry
        # is replaced by the same object, in its place in q2.
        node = make_node(ctx, 5, proto)
        pkt, actions = self.overhear(node)
        (t1,) = timers_of(actions, HelperEntry)
        other = pkt._replace(id=PayloadId(0, 3))
        node.on_data_frame(data_frame(other), now=1.0001)
        again = node.on_data_frame(data_frame(pkt), now=1.0015)
        (t2,) = timers_of(again, HelperEntry)
        assert t2.at > t1.at
        entry = node.helper_timers[pkt.id]
        assert node.q2[pkt.id] is entry and entry.fire_at == t2.at
        assert list(node.q2) == [pkt.id, other.id]
        assert node.q2[other.id] is node.helper_timers[other.id]

    def test_refreshed_coded_takeover_helper_parks_nothing(self, ctx):
        # Node 6 takes over fwd from a coded frame: its helper holds no
        # queued copy, and a refresh must not park one.
        node = make_node(ctx, 6, Protocol.FLEXONC)
        fwd, rev = example_pair()
        frame = data_frame(encode([fwd, rev], sender=1))
        node._pool_add(rev.id, rev.payload, 0.0)
        (t1,) = timers_of(node.on_data_frame(frame, now=1.0), HelperEntry)
        again = node.on_data_frame(frame, now=1.0015)
        (t2,) = timers_of(again, HelperEntry)
        assert t2.at > t1.at and t2.record.pkt.id == fwd.id
        assert node.helper_timers[fwd.id].fire_at == t2.at
        assert not node.q2 and fwd.id not in node._queued

    @pytest.mark.parametrize("proto", [Protocol.BEND, Protocol.FLEXONC])
    def test_q2_overflow_counts_the_drop_and_arms_no_timer(self, ctx, proto):
        node = make_node(ctx, 5, proto, SimParams(queue_cap=1))
        first, _ = self.overhear(node)
        second = first._replace(id=PayloadId(0, 3))
        actions = node.on_data_frame(data_frame(second), now=1.0005)
        assert timers_of(actions) == []
        assert node.metrics.drops["q2_overflow"] == 1
        assert second.id not in node.helper_timers
        assert second.id not in node.held_payloads()
        assert first.id in node.held_payloads() and len(node.q2) == 1

    @pytest.mark.parametrize("proto", [Protocol.BEND, Protocol.FLEXONC])
    def test_parked_native_mixes_toward_its_onward_hop(self, ctx, proto):
        # Node 5 parks 0 -> 1's packet (onward hop 2). A reverse packet from
        # node 2 toward node 0 then heads q1: the two mix, the parked copy
        # goes out addressed to 2, and its helper timer is gone.
        node = make_node(ctx, 5, proto)
        pkt, actions = self.overhear(node)
        (timer,) = timers_of(actions, HelperEntry)
        head = native(1, 9, src=4, dst=0, prev=2, nxt=0)
        node.enqueue_source(head, 1.0)
        node.knowledge.add(2, head.id)
        body = node.select_transmission(1.0).frame.body
        assert isinstance(body, CodedPacket)
        assert {c.id: c.intended_next_hop for c in body.components} == {
            head.id: 0, pkt.id: 2}
        assert pkt.id not in node.helper_timers and not node.q2
        assert node.on_timer(timer.record, timer.at) == []
        assert node.metrics.helper_forwards == 0 and not node.q1

    @pytest.mark.parametrize("proto", [Protocol.BEND, Protocol.FLEXONC])
    def test_helper_queue_full_releases_the_parked_copy(self, ctx, proto):
        node = make_node(ctx, 5, proto, SimParams(queue_cap=1))
        blocker = native(1, 9, src=5, dst=0, prev=5, nxt=0)
        node.enqueue_source(blocker, 1.0)
        pkt, actions = self.overhear(node)
        (timer,) = timers_of(actions, HelperEntry)
        assert pkt.id in node.held_payloads()
        assert node.on_timer(timer.record, timer.at) == []
        assert node.metrics.drops["helper_queue_full"] == 1
        assert pkt.id not in node.held_payloads() and not node.q2
        assert [e.pkt.id for e in node.q1] == [blocker.id]
        # Released for good: hearing the payload again parks it afresh.
        _, again = self.overhear(node, now=timer.at + 0.001)
        assert len(timers_of(again, HelperEntry)) == 1


class TestQueueBounds:
    def test_q1_overflow_acks_then_drops(self, ctx):
        params = SimParams(queue_cap=2)
        node = make_node(ctx, 2, Protocol.BEND, params)
        for seq in range(3):
            pkt = native(0, seq, src=0, dst=4, prev=1, nxt=2)
            actions = node.on_data_frame(data_frame(pkt), now=1.0)
            assert len(acks_of(actions)) == 1
        assert len(node.q1) == 2
        assert node.metrics.drops["queue_overflow"] == 1

    def test_source_overflow_counts(self, ctx):
        params = SimParams(queue_cap=1)
        node = make_node(ctx, 0, Protocol.PLAIN, params)
        a = native(0, 0, src=0, dst=4, prev=0, nxt=1)
        b = native(0, 1, src=0, dst=4, prev=0, nxt=1)
        assert node.enqueue_source(a, 0.0) is True
        assert node.enqueue_source(b, 0.0) is False
        assert node.metrics.drops["queue_overflow"] == 1

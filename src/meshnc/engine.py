"""Deterministic discrete-event scheduler, MAC arbitration and metrics.

The medium is arbitrated as a single contention domain: whenever it is free,
every node with a serviceable queue draws a random backoff and the earliest
draw transmits. The grant scan finds those nodes by reading each node's two
queues in place, `NodeState.ready`'s rule restated without a call per node
(tests/test_engine.py::TestGrantScan pins the copy to `ready`). Losers
defer and re-contend, so hidden terminals never overlap in normal
operation; only an exact backoff tie puts two frames on the air together,
in which case any receiver in range of more than one transmitter gets
nothing. ACKs bypass contention: the grant machinery locks data out of the
window right after a data frame in which its receivers acknowledge, one
staggered slot per coded component.

Reception at each neighbor is an independent Bernoulli draw from the
bit-error model, and every draw is taken. Only hearers, nodes with a hop
(`routing.sendable_hops`) or that are one, handle what they receive. A
bystander, on no route chain (eight_node's N5-N7 under plain and cope),
never holds, sends or is addressed; the engine counts in receiver order the
`non_intended_coded` drop a coded frame costs it, so the bytes are the same.

Identical (scenario, seed) pairs replay identical event sequences: the heap
orders events by (time, sequence number), numbered by one counter, and `run`
pops through `heapq.heappop` looked up on the module, which
tools/samebytes.py wraps to digest that order; receivers are visited in the
order `sample_reception` returns them (ascending node id, the order in which
it consumes its draws), and a single random stream is consumed in event
order. Nodes answer a frame, a timer or their own transmission with the
events they want scheduled, `(at, event, body)` tuples that the engine
pushes in the order given; a timer's body is the record it hands back to
`on_timer`, and a wake-up (`E_WAKE`) only polls `ready` again. An ACK
only changes state, so `on_ack` returns none.

Per-event code, here and in the node, channel, coding and core modules, uses
plain `for` loops, not comprehensions or `any`/`all` over generator
expressions: on Python 3.11 each builds a function object and a frame (3.12
inlines comprehensions), about a tenth of a run's CPU. Each loop draws, stops
and returns as the expression it replaced did (tests/test_plain_loops.py).
"""
from __future__ import annotations

import heapq
import random
from collections import deque
from heapq import heappush
from itertools import count
from typing import Optional

from .channel import ChannelParams, sample_reception
from .core import (ACK_FRAME_BITS, Ack, Frame, NativePacket, PayloadId,
                   new_value)
from .node import (E_ACK_TX, E_TIMER, E_WAKE, Metrics, NodeState, TxIntent,
                   most_components)
from .params import Scenario
from .routing import (build_forwarding_tables, next_hop, sendable_hops,
                      shared_tables)

E_TRAFFIC = 0
E_GRANT = 1
E_FRAME_END = 2
E_ACK_END = 4

MAX_EVENTS = 100_000_000


class SchedulerOverflow(RuntimeError):
    pass


def make_payload(pid: PayloadId, size: int) -> bytes:
    """Deterministic per-datagram pattern so destinations can verify bytes."""
    base = (pid.flow * 2654435761 + pid.seq * 40503 + 0x9E3779B9) & 0xFFFFFFFF
    word = base.to_bytes(4, "big")
    reps = size // 4 + 1
    return (word * reps)[:size]


def mac_grant(contenders: list[int], now: float, rng: random.Random,
              slot_time: float, cw: int) -> tuple[list[int], float]:
    """Resolve one contention round.

    Each contender (visited in the given order) draws a uniform backoff in
    [0, cw) slots; the minimum draw transmits at now + backoff. An exact tie
    puts every tied contender on the air simultaneously — a collision.
    Backoff is continuous, so ties only occur under rigged random streams.
    """
    rand = rng.random
    # Not cw: a rigged stream's draw of exactly 1.0 must still win.
    best = float("inf")
    for c in contenders:
        d = rand() * cw
        if d < best:
            best, winners = d, [c]
        elif d == best:
            winners.append(c)
    return winners, now + best * slot_time


def throughput(metrics: Metrics, duration: float) -> tuple[dict[int, float], float]:
    """Delivered payload bits per second, per flow and aggregate."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    per_flow = {
        flow: metrics.delivered_bytes[flow] * 8.0 / duration
        for flow in sorted(metrics.delivered_bytes)
    }
    return per_flow, sum(per_flow.values())


class Simulation:
    def __init__(self, scenario: Scenario, seed: int):
        self.sc = scenario
        self.params = scenario.params
        self.topo = scenario.topology
        self.chan = ChannelParams(scenario.ber)
        self.rng = random.Random(seed)
        # Shared with every other cell on this topology and flow set (and
        # with parse_config's flow check), so read, never written.
        self.tables = shared_tables(
            self.topo, (fl.dst for fl in scenario.flows),
            build_forwarding_tables)
        adj = self.topo.adjacency()
        self.nbrs = adj.__getitem__
        self.metrics = Metrics()
        size = self.params.payload_size
        check = lambda pid: make_payload(pid, size)  # noqa: E731
        hops = sendable_hops(self.topo, self.tables, scenario.flows,
                             scenario.protocol)
        self.nodes = {
            n: NodeState(n, scenario.protocol, self.params, self.tables,
                         self.nbrs, hops[n], self.metrics, payload_check=check)
            for n in self.topo.nodes()
        }
        hearers = {n for n, h in hops.items() if h}.union(*hops.values())
        self._hearers = {n: v for n, v in self.nodes.items() if n in hearers}
        # The grant scan's (id, q1, mixing_q) triples, in node order.
        self._scan = tuple((n, v.q1, v.mixing_q) for n, v in self.nodes.items())
        # The ACK window after a data frame, indexed by its component
        # count. The trailing turnaround keeps the next data grant strictly
        # after the last in-window ACK has been processed by its receivers.
        p = self.params
        ack_air = ACK_FRAME_BITS / p.data_rate
        self._ack_window = (None, *(
            2 * p.turnaround + (n - 1) * p.ack_stagger + ack_air
            for n in range(1, most_components(
                p, max(map(len, adj.values()), default=0)) + 1)))

        self._heap: list[tuple] = []
        self._next_seq = count(1).__next__
        self.now = 0.0
        self.busy_until = 0.0
        self.lockout_until = 0.0
        self._grant_at: Optional[float] = None
        # ACKs that came due while the medium was busy; they transmit ahead
        # of any data grant as soon as the air frees (SIFS-style priority).
        self._ack_backlog: deque = deque()

    # ------------------------------------------------------------- plumbing

    def _schedule(self, t: float, kind: int, a=None, b=None) -> None:
        heappush(self._heap, (t, self._next_seq(), kind, a, b))

    def _maybe_grant(self) -> None:
        if self._grant_at is not None:
            return
        g = self.busy_until if self.busy_until > self.now else self.now
        if self.lockout_until > g:
            g = self.lockout_until
        self._grant_at = g
        self._schedule(g, E_GRANT)

    def _apply(self, nid: int, actions: list[tuple]) -> None:
        heap, next_seq = self._heap, self._next_seq
        for at, event, body in actions:
            heappush(heap, (at, next_seq(), event, nid, body))

    # ------------------------------------------------------------------ run

    def run(self) -> Metrics:
        for i, fl in enumerate(self.sc.flows):
            if fl.duration > 0.0:
                self._schedule(0.0, E_TRAFFIC, i, 0)
        horizon = self.sc.duration + self.params.drain_grace

        heap = self._heap
        events = 0
        while heap:
            t, seq, kind, a, b = heapq.heappop(heap)
            if t > horizon:
                # Left on the heap: frames still on the air at the horizon
                # hold payloads that held_payloads() must see.
                heappush(heap, (t, seq, kind, a, b))
                break
            if t < self.now:
                raise AssertionError(f"causality violation: {t} < {self.now}")
            self.now = t
            events += 1
            if events > MAX_EVENTS:
                raise SchedulerOverflow(
                    f"more than {MAX_EVENTS} events at t={t:.6f}; "
                    "likely a runaway timer loop"
                )
            if kind == E_GRANT:
                self._on_grant()
            elif kind == E_FRAME_END:
                self._on_frame_end(a, b)
            elif kind == E_ACK_TX:
                self._on_ack_tx(a, b)
            elif kind == E_ACK_END:
                self._on_ack_end(a, b)
            elif kind == E_TIMER:
                node = self.nodes[a]
                actions = node.on_timer(b, t)
                if actions:
                    self._apply(a, actions)
                if self._grant_at is None and node.ready(t):
                    self._maybe_grant()
            elif kind == E_WAKE:
                if self._grant_at is None and self.nodes[a].ready(t):
                    self._maybe_grant()
            elif kind == E_TRAFFIC:
                self._on_traffic(a, b)
        self.metrics.events = events
        return self.metrics

    def held_payloads(self) -> set[PayloadId]:
        """Payloads some node still holds after run(), frames on the air at
        the horizon included. A generated payload that is neither held nor
        delivered was lost, and some drop counter must account for it."""
        held: set[PayloadId] = set()
        for node in self.nodes.values():
            held |= node.held_payloads()
        for _, _, kind, a, _ in self._heap:
            if kind == E_FRAME_END:
                held.update(n.id for n in a[1].natives)
        return held

    # -------------------------------------------------------------- events

    def _on_traffic(self, flow_index: int, k: int) -> None:
        fl = self.sc.flows[flow_index]
        pid = new_value(PayloadId, (flow_index, k))
        payload = make_payload(pid, self.params.payload_size)
        nh = next_hop(self.tables, fl.src, fl.dst)
        pkt = new_value(NativePacket, (pid, fl.src, fl.dst, fl.src, nh,
                                       payload, None))
        self.metrics.generated_count[flow_index] += 1
        self.metrics.generated_bytes[flow_index] += len(payload)
        node = self.nodes[fl.src]
        if (node.enqueue_source(pkt, self.now) and self._grant_at is None
                and node.ready(self.now)):
            self._maybe_grant()
        t_next = (k + 1) * fl.interval
        if t_next < fl.duration:
            self._schedule(t_next, E_TRAFFIC, flow_index, k + 1)

    def _on_grant(self) -> None:
        self._grant_at = None
        self._after_air(())  # the scan below reads every node
        now = self.now
        if now < self.busy_until - 1e-15 or now < self.lockout_until - 1e-15:
            self._maybe_grant()
            return
        contenders = []  # the nodes that are ready(now), in node order
        for n, q1, mixing_q in self._scan:
            if mixing_q or (q1 and q1[0].eligible_at <= now + 1e-12):
                contenders.append(n)
        if not contenders:
            return
        p = self.params
        winners, start = mac_grant(contenders, now, self.rng, p.slot_time, p.cw)
        m, nodes, windows = self.metrics, self.nodes, self._ack_window
        collided = len(winners) > 1
        others: tuple[int, ...] = ()
        for i, w in enumerate(winners):
            # Every winner was ready at now <= start, so each has an intent.
            intent = nodes[w].select_transmission(start)
            n = len(intent.natives)
            end = start + intent.frame.bits / p.data_rate
            m.tx_data += 1
            if n > 1:
                m.tx_coded += 1
            m.retx += intent.retx_count
            if collided:
                others = (*winners[:i], *winners[i + 1:])
            self._schedule(end, E_FRAME_END, (w, intent), others)
            if end > self.busy_until:
                self.busy_until = end
            lock = end + windows[n]
            if lock > self.lockout_until:
                self.lockout_until = lock
        if len(contenders) > len(winners):
            self._maybe_grant()

    def _on_frame_end(self, tx: tuple[int, TxIntent], others: tuple[int, ...],
                      ) -> None:
        w, intent = tx
        node = self.nodes[w]
        now = self.now
        self._apply(w, node.after_transmit(intent, now))
        frame = intent.frame
        receivers = sample_reception(frame, self.topo, self.chan, self.rng)
        if others:
            # A receiver in range of any other simultaneous transmitter hears
            # only garbage; the colliding transmitters themselves hear nothing.
            jammed = set(others)
            for o in others:
                jammed |= self.nbrs(o)
            receivers = sorted(set(receivers) - jammed)  # still ascending
        hearers, heard = self._hearers, [w]
        for r in receivers:
            node = hearers.get(r)
            if node is not None:
                heard.append(r)
                actions = node.on_data_frame(frame, now)
                if actions:
                    self._apply(r, actions)
            elif type(frame.body) is not NativePacket:  # as `_on_coded` does
                self.metrics.drops["non_intended_coded"] += 1
        self._after_air(heard)

    def _transmit_ack(self, nid: int, ack: Ack) -> None:
        frame = self.nodes[nid].build_ack_frame(ack)
        air = frame.bits / self.params.data_rate
        self.busy_until = self.now + air
        self._schedule(self.now + air, E_ACK_END, nid, frame)

    def _on_ack_tx(self, nid: int, ack: Ack) -> None:
        if self.busy_until > self.now + 1e-15:
            self._ack_backlog.append((nid, ack))
            return
        self._transmit_ack(nid, ack)

    def _on_ack_end(self, nid: int, frame: Frame) -> None:
        receivers = sample_reception(frame, self.topo, self.chan, self.rng)
        ack, report = frame.body, frame.reception_report
        now, hearers, heard = self.now, self._hearers, []
        for r in receivers:
            node = hearers.get(r)
            if node is not None:
                heard.append(r)
                node.on_ack(ack, report, now)
        self._after_air(heard)

    def _after_air(self, touched) -> None:
        """When the air may be free: send a backlogged ACK, then grant the
        medium if a node in `touched` is ready."""
        if self._ack_backlog and self.busy_until <= self.now + 1e-15:
            nid, ack = self._ack_backlog.popleft()
            self._transmit_ack(nid, ack)
        # ready() only reads, and a grant already due makes the answer moot.
        if self._grant_at is None:
            now, nodes = self.now, self.nodes
            for r in touched:
                if nodes[r].ready(now):
                    self._maybe_grant()
                    return


def run(scenario: Scenario, seed: int) -> Metrics:
    """Execute one deterministic run; equal inputs give equal metrics."""
    return Simulation(scenario, seed).run()

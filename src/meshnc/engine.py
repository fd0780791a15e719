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

`Simulation.run` is the one event loop. It handles every event kind inline,
with no engine call per event, and holds the engine's mutable state in
locals: the clock, the end of the busy air, the ACK lockout, the pending
grant and the ACK backlog, read from the instance when it starts and written
back when it returns. What tests and tools swap on the instance before a run
(`rng`, `_hearers`, `_scan`, `nbrs`) is read once at its start. What they
patch on the module (`mac_grant`, `sample_reception`, `heapq.heappop`,
`MAX_EVENTS`) is looked up in the loop, so the patch is what runs. Once the
air may be free, a backlogged ACK goes out before any grant is polled for.

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
from .core import ACK_FRAME_BITS, NativePacket, PayloadId, Protocol, new_value
from .node import (E_ACK_END, E_ACK_TX, E_FRAME_END, E_GRANT, E_TIMER,
                   E_TRAFFIC, E_WAKE, Metrics, NodeState, most_components)
from .params import Scenario
from .routing import (build_forwarding_tables, next_hop, sendable_hops,
                      shared_tables)

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
        if not isinstance(scenario.protocol, Protocol):
            raise ValueError(f"not a Protocol member: {scenario.protocol!r}")
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

    def run(self) -> Metrics:
        heap, next_seq, push = self._heap, self._next_seq, heappush
        p, flows, nodes, m = self.params, self.sc.flows, self.nodes, self.metrics
        for i, fl in enumerate(flows):
            if fl.duration > 0.0:
                push(heap, (0.0, next_seq(), E_TRAFFIC, i, 0))
        rng, hearers, scan, nbrs = (self.rng, self._hearers, self._scan,
                                    self.nbrs)
        topo, chan, tables, windows = (self.topo, self.chan, self.tables,
                                       self._ack_window)
        rate, horizon = p.data_rate, self.sc.duration + p.drain_grace
        now, busy_until, lockout_until, grant_at, backlog = (
            self.now, self.busy_until, self.lockout_until, self._grant_at,
            self._ack_backlog)
        events = 0
        while heap:
            t, seq, kind, a, b = heapq.heappop(heap)
            if t > horizon:
                # Left on the heap: frames still on the air at the horizon
                # hold payloads that held_payloads() must see.
                push(heap, (t, seq, kind, a, b))
                break
            if t < now:
                raise AssertionError(f"causality violation: {t} < {now}")
            now = t
            events += 1
            if events > MAX_EVENTS:
                raise SchedulerOverflow(
                    f"more than {MAX_EVENTS} events at t={t:.6f}; "
                    "likely a runaway timer loop"
                )
            want = False  # schedule a grant; set only while none is due
            if kind == E_ACK_TX:
                if busy_until > now + 1e-15:
                    backlog.append((a, b))
                    continue
                frame = nodes[a].build_ack_frame(b)
                busy_until = now + frame.bits / rate
                push(heap, (busy_until, next_seq(), E_ACK_END, a, frame))
                continue
            if kind == E_FRAME_END or kind == E_ACK_END or kind == E_GRANT:
                # `heard`: the nodes to poll for a grant once the air may be
                # free; the grant scan polls every node instead.
                if kind == E_FRAME_END:
                    w, intent = a
                    for at, event, body in nodes[w].after_transmit(intent, now):
                        push(heap, (at, next_seq(), event, w, body))
                    frame = intent.frame
                    receivers = sample_reception(frame, topo, chan, rng)
                    if b:
                        # A receiver in range of any other simultaneous
                        # transmitter hears only garbage; the colliding
                        # transmitters themselves hear nothing.
                        jammed = set(b)
                        for o in b:
                            jammed |= nbrs(o)
                        receivers = sorted(set(receivers) - jammed)
                    heard = [w]
                    for r in receivers:
                        node = hearers.get(r)
                        if node is not None:
                            heard.append(r)
                            for at, event, body in node.on_data_frame(frame, now):
                                push(heap, (at, next_seq(), event, r, body))
                        elif type(frame.body) is not NativePacket:
                            # the drop `_on_coded` would count
                            m.drops["non_intended_coded"] += 1
                elif kind == E_ACK_END:
                    ack, report, heard = b.body, b.reception_report, []
                    for r in sample_reception(b, topo, chan, rng):
                        node = hearers.get(r)
                        if node is not None:
                            heard.append(r)
                            node.on_ack(ack, report, now)
                else:
                    grant_at = None
                # The air may be free: a backlogged ACK goes out before any
                # data grant is polled for.
                if backlog and busy_until <= now + 1e-15:
                    nid, ack = backlog.popleft()
                    frame = nodes[nid].build_ack_frame(ack)
                    busy_until = now + frame.bits / rate
                    push(heap, (busy_until, next_seq(), E_ACK_END, nid, frame))
                if kind != E_GRANT:
                    # ready() only reads, and a grant already due makes the
                    # answer moot.
                    if grant_at is None:
                        for r in heard:
                            if nodes[r].ready(now):
                                want = True
                                break
                elif now < busy_until - 1e-15 or now < lockout_until - 1e-15:
                    want = True  # not free yet: grant when it is
                else:
                    contenders = []  # the nodes that are ready(now), in order
                    for n, q1, mixing_q in scan:
                        if mixing_q or (
                                q1 and q1[0].eligible_at <= now + 1e-12):
                            contenders.append(n)
                    if contenders:
                        winners, start = mac_grant(contenders, now, rng,
                                                   p.slot_time, p.cw)
                        collided = len(winners) > 1
                        others: tuple[int, ...] = ()
                        for i, w in enumerate(winners):
                            # Every winner was ready at now <= start, so
                            # each has an intent.
                            intent = nodes[w].select_transmission(start)
                            n = len(intent.natives)
                            end = start + intent.frame.bits / rate
                            m.tx_data += 1
                            if n > 1:
                                m.tx_coded += 1
                            m.retx += intent.retx_count
                            if collided:
                                others = (*winners[:i], *winners[i + 1:])
                            push(heap, (end, next_seq(), E_FRAME_END,
                                        (w, intent), others))
                            if end > busy_until:
                                busy_until = end
                            lock = end + windows[n]
                            if lock > lockout_until:
                                lockout_until = lock
                        want = len(contenders) > len(winners)
            elif kind == E_TIMER:
                node = nodes[a]
                for at, event, body in node.on_timer(b, now):
                    push(heap, (at, next_seq(), event, a, body))
                want = grant_at is None and node.ready(now)
            elif kind == E_WAKE:
                want = grant_at is None and nodes[a].ready(now)
            else:  # E_TRAFFIC: packet b of flow a
                fl = flows[a]
                pid = new_value(PayloadId, (a, b))
                payload = make_payload(pid, p.payload_size)
                pkt = new_value(NativePacket, (
                    pid, fl.src, fl.dst, fl.src,
                    next_hop(tables, fl.src, fl.dst), payload))
                m.generated_count[a] += 1
                m.generated_bytes[a] += len(payload)
                node = nodes[fl.src]
                want = (node.enqueue_source(pkt, now) and grant_at is None
                        and node.ready(now))
            if want:
                grant_at = busy_until if busy_until > now else now
                if lockout_until > grant_at:
                    grant_at = lockout_until
                push(heap, (grant_at, next_seq(), E_GRANT, None, None))
            if kind == E_TRAFFIC:  # its successor goes after its grant
                t_next = (b + 1) * fl.interval
                if t_next < fl.duration:
                    push(heap, (t_next, next_seq(), E_TRAFFIC, a, b + 1))
        self.now, self.busy_until, self.lockout_until = (now, busy_until,
                                                          lockout_until)
        self._grant_at = grant_at
        m.events = events
        return m

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


def run(scenario: Scenario, seed: int) -> Metrics:
    """Execute one deterministic run; equal inputs give equal metrics."""
    return Simulation(scenario, seed).run()

"""The calibration kernel: the unit in which the benchmark prices CPU time.

A shared host runs the same pure-Python code 20-40 % slower in some minutes
than in others, for as long as the neighbours keep it busy. One pass's CPU
time therefore says as much about the host as about meshnc. The benchmark
runs this kernel before every timed pass, after each of its cells and at its
end, and divides the CPU time of each stretch between two kernel runs by
the mean of theirs: the host's slowdown cancels, meshnc's does not.

The kernel is a small discrete-event loop written to stress what meshnc
stresses: a binary heap of events, ``__slots__`` objects, dict membership,
list queues, seeded random draws and XOR of byte payloads as integers. It
imports nothing from meshnc, so no change to the program moves it. Its work
is fixed; do not change it, or every ``*_ref`` figure recorded before the
change stops being comparable.
"""
from __future__ import annotations

import heapq
import random
import time

NODES = 16
STEPS = 10_000


class _Packet:
    __slots__ = ("id", "src", "dst", "payload")

    def __init__(self, pid: int, src: int, dst: int, payload: bytes) -> None:
        self.id = pid
        self.src = src
        self.dst = dst
        self.payload = payload


class _Node:
    def __init__(self, nid: int) -> None:
        self.nid = nid
        self.queue: list[_Packet] = []
        self.seen: dict[int, float] = {}

    def receive(self, pkt: _Packet, now: float) -> bool:
        if pkt.id in self.seen:
            return False
        self.seen[pkt.id] = now
        self.queue.append(pkt)
        if len(self.queue) > 50:
            self.queue.pop(0)
        return True

    def send(self):
        return self.queue.pop(0) if self.queue else None


def kernel(steps: int = STEPS) -> int:
    """Run the fixed event loop; returns a checksum of what it did."""
    rng = random.Random(7)
    nodes = [_Node(i) for i in range(NODES)]
    payloads = [bytes(rng.randrange(256) for _ in range(64))
                for _ in range(32)]
    heap = [(0.0, 0, 0)]
    delivered = mixed = 0
    for seq in range(1, steps + 1):
        now, kind, who = heapq.heappop(heap)
        node = nodes[who]
        if kind == 0:
            node.receive(_Packet(seq, who, rng.randrange(NODES),
                                 payloads[seq % 32]), now)
        else:
            pkt = node.send()
            if pkt is not None:
                for nb in (who - 1, who + 1):
                    if 0 <= nb < NODES and rng.random() < 0.9:
                        delivered += nodes[nb].receive(pkt, now)
                        mixed ^= int.from_bytes(pkt.payload, "big") ^ seq
        heapq.heappush(heap, (now + rng.expovariate(1.0), rng.randrange(2),
                              rng.randrange(NODES)))
    return delivered ^ (mixed & 0xFFFF)


def kernel_cpu_s() -> float:
    """Process CPU seconds of one kernel run."""
    c0 = time.process_time()
    kernel()
    return time.process_time() - c0

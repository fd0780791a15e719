"""Packets, frames, ACKs and the XOR codec shared by every protocol.

Everything here is an immutable value type plus pure functions, so instances
can be broadcast to many receivers without defensive copying.

Every record of a run is a value: these types, the node's entries, the
forwarding tables and `SimParams` are `NamedTuple`s, so field reads, hashing
and equality run in C. A class call does not: it goes through the `__new__`
that namedtuple writes in Python. The hot path therefore builds values, and
replaces one that changes, with `new_value(Type, fields)`, which is
`tuple.__new__`, one C call, given every field in declaration order.
Tests and cold code call the classes. Each type here must hash as the plain
tuple of its fields in order (`hash(PayloadId(f, s)) == hash((f, s))`): set
and dict iteration order over them follows their hashes and reaches the
output. Being tuples, values of two types with equal fields compare equal;
the code never mixes types in one container, and `isinstance` still tells
the bodies apart.
"""
from __future__ import annotations

from enum import IntEnum
from typing import Mapping, NamedTuple, Optional, Sequence, Union

NodeId = int

DATA_HEADER_BYTES = 40
ACK_FRAME_BYTES = 14
ACK_FRAME_BITS = ACK_FRAME_BYTES * 8
REPORT_LEN = 8


class Protocol(IntEnum):
    PLAIN = 0
    COPE = 1
    BEND = 2
    FLEXONC = 3


class CodingError(ValueError):
    """Raised when packets violate the coding rules (e.g. duplicate next hops)."""


class PayloadId(NamedTuple):
    """Identity of one generated datagram: (flow index, sequence number)."""
    flow: int
    seq: int


class NativePacket(NamedTuple):
    # Like every value type here, it must hash as the tuple of its fields
    # in this order (see the module docstring).
    id: PayloadId
    src: NodeId
    dst: NodeId
    prev_hop: NodeId
    next_hop: NodeId
    payload: bytes


# Unlike a class call, it takes a short field tuple without complaint.
new_value = tuple.__new__


class CodedComponent(NamedTuple):
    """Routing metadata of one native packet folded into a coded frame."""
    id: PayloadId
    src: NodeId
    dst: NodeId
    intended_next_hop: NodeId


class CodedPacket(NamedTuple):
    components: tuple[CodedComponent, ...]
    payload: bytes
    sender: NodeId

    def intended_set(self) -> frozenset[NodeId]:
        return frozenset(c.intended_next_hop for c in self.components)


class Ack(NamedTuple):
    """Link-layer acknowledgment carrying the address of its *sender*."""
    ack_sender: NodeId
    payload: PayloadId


Body = Union[NativePacket, CodedPacket, Ack]


class Frame(NamedTuple):
    """On-air unit: a data or ack body plus a piggybacked reception report."""
    body: Body
    reception_report: tuple[PayloadId, ...]
    bits: int

    @property
    def transmitter(self) -> NodeId:
        return self.body[TRANSMITTER_FIELD[type(self.body)]]


# The position of the field that names a frame's transmitter, by body type:
# `Frame.transmitter` and `channel.sample_reception` both read it.
TRANSMITTER_FIELD = {t: t._fields.index(f) for t, f in (
    (NativePacket, "prev_hop"), (CodedPacket, "sender"), (Ack, "ack_sender"))}


def data_frame_bits(payload_len: int) -> int:
    return DATA_HEADER_BYTES * 8 + 8 * payload_len


def xor_payloads(a: bytes, b: bytes) -> bytes:
    """Bytewise XOR; the shorter input is zero-padded to the longer length."""
    n = max(len(a), len(b))
    if n == 0:
        return b""
    x = int.from_bytes(a, "little") ^ int.from_bytes(b, "little")
    return x.to_bytes(n, "little")


def encode(natives: Sequence[NativePacket], sender: NodeId) -> CodedPacket:
    """Fold two or more native packets into one XOR-coded packet.

    Every native must have a distinct next hop (at most one packet per next
    hop); violating that is a caller bug, not a runtime condition.
    """
    if len(natives) < 2:
        raise CodingError("coded packet needs at least two components")
    hops, components = [], []
    for p in natives:
        hops.append(p.next_hop)
        components.append(
            new_value(CodedComponent, (p.id, p.src, p.dst, p.next_hop)))
    if len(set(hops)) != len(hops):
        raise CodingError(f"duplicate next hop among coded components: {hops}")
    payload = natives[0].payload
    for p in natives[1:]:
        payload = xor_payloads(payload, p.payload)
    return new_value(CodedPacket, (tuple(components), payload, sender))


def decodable(
    coded: CodedPacket,
    pool: Mapping[PayloadId, bytes] | frozenset[PayloadId] | set[PayloadId],
    target: CodedComponent,
) -> bool:
    """True iff every component except `target` is available in `pool`."""
    for c in coded.components:
        if c.id != target.id and c.id not in pool:
            return False
    return True


def decode(
    coded: CodedPacket,
    pool: Mapping[PayloadId, bytes],
    target: CodedComponent,
) -> Optional[NativePacket]:
    """Peel `target` out of a coded packet using pooled payloads.

    Returns None when some other component's payload is missing (not
    decodable); that is an expected runtime condition, not a fault.
    """
    if target not in coded.components:
        raise CodingError("target is not a component of this coded packet")
    payload = coded.payload
    for c in coded.components:
        if c.id == target.id:
            continue
        other = pool.get(c.id)
        if other is None:
            return None
        payload = xor_payloads(payload, other)
    return new_value(NativePacket, (target.id, target.src, target.dst,
                                    coded.sender, target.intended_next_hop,
                                    payload))

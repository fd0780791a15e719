"""XOR codec: payload algebra, encode/decode round trips, decodability."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshnc import (
    Ack,
    CodedPacket,
    CodingError,
    Frame,
    NativePacket,
    PayloadId,
    decodable,
    decode,
    encode,
    xor_payloads,
)
from meshnc.core import CodedComponent


def native(flow, seq, nxt, prev=9, src=9, dst=99, payload=b""):
    return NativePacket(id=PayloadId(flow, seq), src=src, dst=dst,
                        prev_hop=prev, next_hop=nxt, payload=payload)


class TestPayloadId:
    @given(st.integers(-2**40, 2**40), st.integers(-2**40, 2**40))
    def test_hashes_as_its_field_tuple(self, flow, seq):
        # Set and dict iteration order follows hash values and insertion
        # order. A frozen dataclass of (flow, seq) hashed as
        # hash((flow, seq)); the tuple hashes the same, so every set of
        # payload ids iterates in the same order as before, and runs.csv
        # stays byte-identical.
        pid = PayloadId(flow, seq)
        assert hash(pid) == hash((flow, seq))
        assert (pid.flow, pid.seq) == (flow, seq)
        assert pid == PayloadId(flow=flow, seq=seq)


def value_samples():
    """One instance of each packet value type, with its fields in order."""
    pid = PayloadId(3, 7)
    nat = native(3, 7, nxt=2, prev=1, src=0, dst=4, payload=b"ab")
    other = native(5, 1, nxt=6, prev=1, src=8, dst=6, payload=b"cd")
    coded = encode([nat, other], sender=5)
    comp = coded.components[0]
    ack = Ack(ack_sender=2, payload=pid)
    frame = Frame(body=coded, reception_report=(pid,), bits=96)
    return [
        (nat, ("id", "src", "dst", "prev_hop", "next_hop", "payload")),
        (comp, ("id", "src", "dst", "intended_next_hop")),
        (coded, ("components", "payload", "sender")),
        (ack, ("ack_sender", "payload")),
        (frame, ("body", "reception_report", "bits")),
    ]


class TestValueTypes:
    # Set and dict iteration order over packets, frames and ACKs follows
    # their hashes, and that order reaches the output, so each type must
    # hash exactly as the tuple of its fields, in declaration order.

    @pytest.mark.parametrize("index", range(5))
    def test_hashes_as_its_field_tuple(self, index):
        value, names = value_samples()[index]
        assert hash(value) == hash(tuple(getattr(value, n) for n in names))

    @pytest.mark.parametrize("index", range(5))
    def test_fields_cannot_be_assigned(self, index):
        value, names = value_samples()[index]
        for name in names:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))

    def test_body_types_are_told_apart(self):
        nat, coded, ack = (value_samples()[i][0] for i in (0, 2, 3))
        kinds = (NativePacket, CodedPacket, Ack)
        for body, kind in zip((nat, coded, ack), kinds):
            assert [isinstance(body, k) for k in kinds] == [
                k is kind for k in kinds]

    def test_frame_transmitter_per_body_type(self):
        bodies = (value_samples()[i][0] for i in (0, 2, 3))
        assert [Frame(body=b, reception_report=(), bits=8).transmitter
                for b in bodies] == [1, 5, 2]

    def test_coded_component_from_encode(self):
        coded = value_samples()[2][0]
        assert all(type(c) is CodedComponent for c in coded.components)
        assert coded.intended_set() == frozenset({2, 6})


class TestXorPayloads:
    def test_self_inverse(self):
        assert xor_payloads(b"\x42\x17", b"\x42\x17") == b"\x00\x00"

    def test_identity_element(self):
        assert xor_payloads(b"\xab", b"\x00") == b"\xab"

    def test_bitwise_definition(self):
        assert xor_payloads(b"\x0f", b"\x55") == b"\x5a"

    def test_zero_pads_shorter_input(self):
        assert xor_payloads(b"\x01\x02\x03", b"\xff") == b"\xfe\x02\x03"
        assert xor_payloads(b"", b"\x07") == b"\x07"

    @given(st.binary(max_size=64), st.binary(max_size=64))
    def test_commutative(self, a, b):
        assert xor_payloads(a, b) == xor_payloads(b, a)

    @given(st.binary(max_size=64), st.binary(max_size=64), st.binary(max_size=64))
    def test_associative(self, a, b, c):
        lhs = xor_payloads(xor_payloads(a, b), c)
        rhs = xor_payloads(a, xor_payloads(b, c))
        assert lhs == rhs

    @given(st.binary(min_size=1, max_size=64))
    def test_self_inverse_property(self, a):
        assert xor_payloads(a, a) == b"\x00" * len(a)


class TestEncode:
    def test_two_packet_headers_and_payload(self):
        p0 = native(0, 0, nxt=0, payload=b"\x10\x20")
        p2 = native(1, 0, nxt=2, payload=b"\x01\x02")
        coded = encode([p0, p2], sender=1)
        assert coded.sender == 1
        assert [c.intended_next_hop for c in coded.components] == [0, 2]
        assert [c.id for c in coded.components] == [p0.id, p2.id]
        assert coded.payload == b"\x11\x22"

    def test_identical_payloads_cancel(self):
        body = bytes(range(256)) * 4  # 1024 bytes, static pattern
        p = native(0, 1, nxt=3, payload=body[:1000])
        q = native(1, 1, nxt=4, payload=body[:1000])
        assert encode([p, q], sender=7).payload == b"\x00" * 1000

    def test_duplicate_next_hop_rejected(self):
        p = native(0, 0, nxt=1)
        q = native(1, 0, nxt=1)
        with pytest.raises(CodingError):
            encode([p, q], sender=5)

    def test_single_packet_rejected(self):
        with pytest.raises(CodingError):
            encode([native(0, 0, nxt=1)], sender=5)

    def test_order_does_not_change_payload(self):
        rng = random.Random(3)
        pkts = [native(i, 0, nxt=i, payload=rng.randbytes(40)) for i in range(4)]
        fwd = encode(pkts, sender=9).payload
        rev = encode(list(reversed(pkts)), sender=9).payload
        assert fwd == rev


class TestDecode:
    def test_round_trip_two_components(self):
        rng = random.Random(11)
        p0 = native(0, 5, nxt=0, payload=rng.randbytes(1000))
        p2 = native(1, 5, nxt=2, payload=rng.randbytes(1000))
        coded = encode([p0, p2], sender=1)
        out = decode(coded, {p0.id: p0.payload}, coded.components[1])
        assert out is not None
        assert out.payload == p2.payload
        assert out.prev_hop == 1
        assert out.next_hop == 2
        assert out.id == p2.id

    def test_identical_payload_symmetry(self):
        body = b"\x5c" * 100
        p = native(0, 2, nxt=3, payload=body)
        q = native(1, 2, nxt=4, payload=body)
        coded = encode([p, q], sender=8)
        out = decode(coded, {p.id: p.payload}, coded.components[1])
        assert out.payload == body

    def test_empty_pool_not_decodable(self):
        p = native(0, 0, nxt=0, payload=b"a")
        q = native(1, 0, nxt=2, payload=b"b")
        coded = encode([p, q], sender=1)
        assert decode(coded, {}, coded.components[1]) is None

    def test_foreign_target_is_a_fault(self):
        p = native(0, 0, nxt=0, payload=b"a")
        q = native(1, 0, nxt=2, payload=b"b")
        r = native(2, 0, nxt=3, payload=b"c")
        coded = encode([p, q], sender=1)
        stranger = encode([p, r], sender=1).components[1]
        with pytest.raises(CodingError):
            decode(coded, {}, stranger)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_round_trip_every_target(self, data):
        n = data.draw(st.integers(min_value=2, max_value=4))
        rng = random.Random(data.draw(st.integers(0, 10_000)))
        pkts = [native(i, 0, nxt=10 + i, payload=rng.randbytes(64))
                for i in range(n)]
        coded = encode(pkts, sender=5)
        pool = {p.id: p.payload for p in pkts}
        for i, comp in enumerate(coded.components):
            others = {pid: pl for pid, pl in pool.items() if pid != comp.id}
            out = decode(coded, others, comp)
            assert out is not None
            assert out.payload == pkts[i].payload


class TestDecodable:
    def test_two_component_with_other_in_pool(self):
        p = native(0, 0, nxt=0, payload=b"x")
        q = native(1, 0, nxt=2, payload=b"y")
        coded = encode([p, q], sender=1)
        assert decodable(coded, {p.id}, coded.components[1]) is True

    def test_two_component_empty_pool(self):
        p = native(0, 0, nxt=0, payload=b"x")
        q = native(1, 0, nxt=2, payload=b"y")
        coded = encode([p, q], sender=1)
        assert decodable(coded, set(), coded.components[1]) is False

    def test_three_component_subset_enumeration(self):
        # Oracle: enumerate every pool subset; decodable iff the subset
        # covers both non-target components.
        pkts = [native(i, 0, nxt=20 + i, payload=bytes([i])) for i in range(3)]
        coded = encode(pkts, sender=1)
        target = coded.components[0]
        others = {pkts[1].id, pkts[2].id}
        all_ids = [p.id for p in pkts]
        for mask in range(8):
            pool = {all_ids[i] for i in range(3) if mask >> i & 1}
            assert decodable(coded, pool, target) == (others <= pool)

    @given(st.integers(2, 4), st.integers(0, 1000))
    def test_monotone_in_pool(self, n, seed):
        rng = random.Random(seed)
        pkts = [native(i, 0, nxt=30 + i, payload=bytes([i])) for i in range(n)]
        coded = encode(pkts, sender=1)
        target = coded.components[rng.randrange(n)]
        ids = [p.id for p in pkts]
        pool = set()
        seen_true = False
        for pid in rng.sample(ids, len(ids)):
            was = decodable(coded, pool, target)
            pool.add(pid)
            now = decodable(coded, pool, target)
            assert not (was and not now)  # adding never flips true -> false
            seen_true = seen_true or now
        assert seen_true  # full pool always suffices


def test_star_import_binds_every_public_name():
    # A name left in __all__ after its object is gone breaks `import *`.
    namespace: dict = {}
    exec("from meshnc import *", namespace)
    assert {"Topology", "run", "parse_config"} <= set(namespace)

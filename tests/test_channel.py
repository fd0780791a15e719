"""Geometry, frame-loss model and reception sampling."""
import math
import random
import sys
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshnc import (
    ChannelParams,
    Frame,
    NativePacket,
    PayloadId,
    Topology,
    build_topology,
    neighbors,
    sample_reception,
)

DATA_BITS = 8320  # 40-byte header + 1000-byte payload


def brute_force_neighbors(topo, n):
    xn, yn = topo.positions[n]
    return {
        m for m, (x, y) in topo.positions.items()
        if m != n and math.dist((xn, yn), (x, y)) <= topo.range_m
    }


def dummy_frame(sender, bits=DATA_BITS):
    pkt = NativePacket(id=PayloadId(0, 0), src=sender, dst=sender + 1,
                       prev_hop=sender, next_hop=sender + 1, payload=b"")
    return Frame(body=pkt, reception_report=(), bits=bits)


class TestNeighbors:
    def test_eight_node_paper_adjacency(self):
        topo = build_topology("eight_node")
        assert neighbors(topo, 1) == {0, 2, 5, 6}

    def test_eight_node_derived_adjacency(self):
        topo = build_topology("eight_node")
        assert neighbors(topo, 0) == {1, 5}

    def test_single_node(self):
        topo = Topology({7: (0.0, 0.0)})
        assert neighbors(topo, 7) == frozenset()

    def test_unknown_node_faults(self):
        topo = build_topology("x_topo")
        with pytest.raises(KeyError):
            neighbors(topo, 42)

    @pytest.mark.parametrize("kind", ["x_topo", "eight_node", "grid5"])
    def test_matches_brute_force_distance_oracle(self, kind):
        topo = build_topology(kind)
        for n in topo.nodes():
            assert neighbors(topo, n) == brute_force_neighbors(topo, n)

    @pytest.mark.parametrize("kind", ["x_topo", "eight_node", "grid5"])
    def test_symmetry(self, kind):
        topo = build_topology(kind)
        for n in topo.nodes():
            for m in neighbors(topo, n):
                assert n in neighbors(topo, m)


class ScriptedRandom:
    """A random stream that hands out the given draws, in order."""

    def __init__(self, draws):
        self.random = iter(draws).__next__


def received(ber, bits, draw):
    """Whether the one neighbour of a two-node topology receives a frame of
    `bits` at `ber`, given the channel's one draw for it."""
    topo = Topology({0: (0.0, 0.0), 1: (1.0, 0.0)})
    got = sample_reception(dummy_frame(0, bits), topo, ChannelParams(ber),
                           ScriptedRandom([draw]))
    return got == (1,)


def decimal_success(ber, bits):
    """(1 - ber)^bits to 40 digits: the chance that every bit survives."""
    with localcontext() as ctx:
        ctx.prec = 40
        return (Decimal(1) - Decimal(ber)) ** bits


class TestFrameLossProbability:
    """The loss law as the channel applies it: `sample_reception` receives
    on a draw just below the independent (1 - ber)^bits and loses on one
    just above it."""

    def assert_threshold(self, ber, bits, q):
        if float(q) == 0.0:
            assert not received(ber, bits, 0.0)
            return
        if q < Decimal(sys.float_info.min):
            return  # subnormal: floats are coarser than the 1e-9 margin
        assert received(ber, bits, float(q * (1 - Decimal("1e-9"))))
        above = float(q * (1 + Decimal("1e-9")))
        if above < 1.0:
            assert not received(ber, bits, above)

    def test_high_precision_oracle_values(self):
        # Frozen from a 60-digit Decimal evaluation of (1-ber)^bits: frames
        # are lost with probability 0.8106515711356463 and 0.0165023362886885.
        for ber, q in ((2e-4, "0.18934842886435369065827917601929"),
                       (2e-6, "0.98349766371131149987583546761499")):
            assert decimal_success(ber, DATA_BITS) == pytest.approx(
                Decimal(q), rel=Decimal("1e-30"))
            self.assert_threshold(ber, DATA_BITS, Decimal(q))

    @given(st.floats(min_value=0, max_value=0.99), st.integers(1, 20000))
    @settings(max_examples=50, derandomize=True)
    def test_matches_decimal_oracle(self, ber, bits):
        self.assert_threshold(ber, bits, decimal_success(ber, bits))


class TestSampleReception:
    def test_zero_ber_reaches_all_neighbors(self):
        topo = build_topology("eight_node")
        params = ChannelParams(ber=0.0)
        rng = random.Random(1)
        got = sample_reception(dummy_frame(1), topo, params, rng)
        assert got == (0, 2, 5, 6)

    def test_determinism_same_seed(self):
        topo = build_topology("eight_node")
        params = ChannelParams(ber=1e-4)
        a = sample_reception(dummy_frame(2), topo, params, random.Random(99))
        b = sample_reception(dummy_frame(2), topo, params, random.Random(99))
        assert a == b

    def test_near_one_ber_blocks_everything(self):
        # (1-0.999)^8320 underflows to exactly 0 reception probability.
        topo = build_topology("eight_node")
        params = ChannelParams(ber=0.999)
        rng = random.Random(5)
        hits = sum(
            len(sample_reception(dummy_frame(1), topo, params, rng))
            for _ in range(2000)
        )
        assert hits == 0

    def test_receivers_subset_of_neighbors(self):
        topo = build_topology("grid5")
        params = ChannelParams(ber=5e-5)
        rng = random.Random(3)
        for n in topo.nodes():
            got = sample_reception(dummy_frame(n), topo, params, rng)
            assert type(got) is tuple and list(got) == sorted(set(got))
            assert set(got) <= neighbors(topo, n)

    @given(kind=st.sampled_from(["x_topo", "eight_node", "grid5"]),
           pick=st.integers(0, 24), ber=st.floats(0.0, 3e-4),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_matches_one_draw_per_neighbor_in_ascending_order(
            self, kind, pick, ber, seed):
        topo = build_topology(kind)
        nodes = topo.nodes()
        sender = nodes[pick % len(nodes)]
        params = ChannelParams(ber=ber)
        rng, replay = random.Random(seed), random.Random(seed)
        got = sample_reception(dummy_frame(sender), topo, params, rng)
        p_ok = (1.0 - ber) ** DATA_BITS
        assert got == tuple(m for m in sorted(neighbors(topo, sender))
                            if replay.random() < p_ok)
        assert rng.getstate() == replay.getstate()

    def test_empirical_rate_matches_closed_form(self):
        # Monte-Carlo against the analytic per-neighbor success probability,
        # within 3 binomial standard deviations.
        topo = build_topology("x_topo")
        bits = 800
        params = ChannelParams(ber=1e-3)
        p_ok = (1 - 1e-3) ** bits
        rng = random.Random(17)
        trials = 20_000
        frame = dummy_frame(2, bits=bits)  # relay: 4 neighbors
        n_nbrs = len(neighbors(topo, 2))
        hits = sum(
            len(sample_reception(frame, topo, params, rng))
            for _ in range(trials)
        )
        n = trials * n_nbrs
        sigma = math.sqrt(n * p_ok * (1 - p_ok))
        assert abs(hits - n * p_ok) <= 3 * sigma

"""Acceptance criteria for the simulator, one test per criterion.

The trend criteria run the same sweeps the command-line tool performs
(protocol x BER x seed grids on the two benchmark topologies) through the
engine API, then assert the published qualitative relationships. Absolute
throughputs are not comparable to ns-2-class simulators; every tolerance
below is the contract's stated one. Run with ``pytest -s`` to see the
per-criterion verdict lines.
"""
import random
import statistics
import time

import pytest

from meshnc import (
    Flow,
    Protocol,
    Scenario,
    ScenarioConfig,
    SimParams,
    build_forwarding_tables,
    build_topology,
    decode,
    encode,
    flexonc_eligible,
    helper_hold_time,
    neighbor_next_hop,
    neighbors,
    next_hop,
    priority_index,
    run,
    run_sweep,
    sender_timeout,
    throughput,
)
from meshnc.coding import eligibility_failure
from meshnc.core import ACK_FRAME_BYTES, NativePacket, PayloadId
from meshnc.sweep import RUNS_HEADER, rows_to_csv

BERS = (2e-6, 2e-5, 5e-5, 8e-5, 1e-4, 2e-4)
SEEDS = (1, 2, 3, 4, 5)


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    verdict = "PASS" if ok else "FAIL"
    line = f"[acceptance] {criterion}: {verdict}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


def sweep(topology_kind, protocols, duration=None):
    """Mean aggregate throughput per (protocol, ber) plus raw metrics."""
    topo = build_topology(topology_kind)
    from meshnc import default_flows
    flows = tuple(default_flows(topology_kind))
    if duration is not None:
        flows = tuple(Flow(f.src, f.dst, f.interval, duration) for f in flows)
    means, metrics = {}, {}
    for proto in protocols:
        for ber in BERS:
            vals = []
            for seed in SEEDS:
                sc = Scenario(topology_kind, topo, proto, ber, flows)
                m = run(sc, seed)
                metrics[(proto, ber, seed)] = m
                vals.append(throughput(m, flows[0].duration)[1])
            means[(proto, ber)] = statistics.fmean(vals)
    return means, metrics


@pytest.fixture(scope="module")
def eight_node_sweep():
    t0 = time.monotonic()
    means, metrics = sweep("eight_node", list(Protocol))
    return means, metrics, time.monotonic() - t0


@pytest.fixture(scope="module")
def grid_sweep():
    means, metrics = sweep(
        "grid5", [Protocol.PLAIN, Protocol.COPE, Protocol.FLEXONC])
    return means, metrics


def test_criterion_1_codec_round_trip_oracle():
    """1,000 randomized encode/decode round trips recover every target
    byte-exact, in under five seconds."""
    rng = random.Random(20240817)
    t0 = time.monotonic()
    trips = 0
    for _ in range(1000):
        n = rng.randint(2, 4)
        pkts = [
            NativePacket(id=PayloadId(i, trips), src=50 + i, dst=60 + i,
                         prev_hop=40, next_hop=i, payload=rng.randbytes(1000))
            for i in range(n)
        ]
        coded = encode(pkts, sender=40)
        pool = {p.id: p.payload for p in pkts}
        target = coded.components[rng.randrange(n)]
        others = {pid: pl for pid, pl in pool.items() if pid != target.id}
        out = decode(coded, others, target)
        assert out is not None and out.payload == pool[target.id]
        trips += 1
    elapsed = time.monotonic() - t0
    ok = trips == 1000 and elapsed < 5.0
    assert report("1 codec round-trip oracle", ok,
                  f"{trips} trips in {elapsed:.2f}s")


def test_criterion_2_x_topology_coding_gain():
    """100 packet pairs at BER 0: store-and-forward needs exactly 400 data
    transmissions, every coding protocol exactly 300; everything delivered."""
    topo = build_topology("x_topo")
    flows = (Flow(0, 3, 0.07, 7.0), Flow(1, 4, 0.07, 7.0))
    results = {}
    ok = True
    for proto in Protocol:
        m = run(Scenario("x", topo, proto, 0.0, flows), seed=1)
        expected_tx = 400 if proto == Protocol.PLAIN else 300
        delivered = sum(m.delivered_count.values())
        results[proto.name] = (m.tx_data, delivered)
        ok = ok and m.tx_data == expected_tx and delivered == 200
        assert m.generated_count[0] == 100 and m.generated_count[1] == 100
    assert report(
        "2 x-topology exact transmission counts", ok,
        " ".join(f"{k}:{v[0]}tx/{v[1]}dlv" for k, v in results.items()))


def test_criterion_3_eligibility_ground_truth():
    """For the coded example frame from node 1, node 6 is the only eligible
    non-intended receiver; node 0 fails criterion 1 and node 5 criterion 2."""
    topo = build_topology("eight_node")
    tables = build_forwarding_tables(topo, topo.nodes())
    nbrs = topo.adjacency().__getitem__
    fwd = NativePacket(PayloadId(0, 7), src=0, dst=4, prev_hop=0, next_hop=2,
                       payload=b"\x11" * 16)
    rev = NativePacket(PayloadId(1, 7), src=4, dst=0, prev_hop=2, next_hop=0,
                       payload=b"\x22" * 16)
    coded = encode([rev, fwd], sender=1)
    fwd_comp = coded.components[1]
    pool = {rev.id}

    eligible = set()
    for n in topo.nodes():
        if n == coded.sender or n in coded.intended_set():
            continue
        if n not in neighbors(topo, coded.sender):
            continue  # cannot receive the frame at all
        if flexonc_eligible(n, coded, tables, nbrs, pool) is not None:
            eligible.add(n)
    reasons = {
        n: eligibility_failure(n, fwd_comp, coded, tables, nbrs, pool)
        for n in (0, 5, 6)
    }
    ok = (eligible == {6} and reasons[0] == 1 and reasons[5] == 2
          and reasons[6] is None)
    assert report("3 eligibility ground truth", ok,
                  f"eligible={sorted(eligible)} reasons={reasons}")


def test_criterion_4_table1_trend(eight_node_sweep):
    """Gain over the positional-coding baseline grows with BER: near zero at
    2e-6, at least +20% at 2e-4, never below 0.95x, and rank-correlated with
    BER allowing at most one adjacent inversion. Sweep under ten minutes."""
    means, _, elapsed = eight_node_sweep
    flex = [means[(Protocol.FLEXONC, b)] for b in BERS]
    bend = [means[(Protocol.BEND, b)] for b in BERS]
    gains = [(f - b) / b * 100.0 for f, b in zip(flex, bend)]

    never_below = all(f >= 0.95 * b for f, b in zip(flex, bend))
    near_zero_low = abs(gains[0]) <= 5.0
    floor_high = gains[-1] >= 20.0
    inversions = sum(1 for a, b in zip(gains, gains[1:]) if b < a)
    ranks = {g: i + 1 for i, g in enumerate(sorted(gains))}
    d2 = sum((ranks[g] - (i + 1)) ** 2 for i, g in enumerate(gains))
    spearman = 1 - 6 * d2 / (len(gains) * (len(gains) ** 2 - 1))
    trend = spearman > 0 and inversions <= 1
    in_time = elapsed <= 600.0

    ok = never_below and near_zero_low and floor_high and trend and in_time
    assert report(
        "4 eight-node gain-over-baseline trend", ok,
        f"gains={[round(g, 1) for g in gains]} inversions={inversions} "
        f"spearman={spearman:.2f} sweep={elapsed:.0f}s")


def test_criterion_5_grid_trend(grid_sweep):
    """On the 5x5 grid the flexible protocol at least matches the
    knowledge-gated baseline at every BER from 2e-5 up, and plain
    store-and-forward at every BER."""
    means, _ = grid_sweep
    vs_cope = {
        b: means[(Protocol.FLEXONC, b)] / means[(Protocol.COPE, b)]
        for b in BERS if b >= 2e-5
    }
    vs_plain = {
        b: means[(Protocol.FLEXONC, b)] / means[(Protocol.PLAIN, b)]
        for b in BERS
    }
    ok = all(r >= 1.0 for r in vs_cope.values()) and \
        all(r >= 1.0 for r in vs_plain.values())
    assert report(
        "5 grid trend vs baselines", ok,
        "cope=" + ",".join(f"{r:.2f}" for r in vs_cope.values())
        + " plain=" + ",".join(f"{r:.2f}" for r in vs_plain.values()))


def test_criterion_6_duplicate_safety(eight_node_sweep):
    """No destination ever delivers a payload twice, at any BER; the
    suppression machinery demonstrably fires at BER >= 5e-5."""
    _, metrics, _ = eight_node_sweep
    no_dup_delivery = True
    suppression_fires = True
    for (proto, ber, seed), m in metrics.items():
        if m.duplicate_deliveries != 0:
            no_dup_delivery = False
        for flow, count in m.delivered_count.items():
            if count > m.generated_count[flow]:
                no_dup_delivery = False
        if proto == Protocol.FLEXONC and ber >= 5e-5:
            if m.dups_suppressed == 0:
                suppression_fires = False
    ok = no_dup_delivery and suppression_fires
    assert report("6 duplicate safety", ok,
                  f"dup deliveries 0 everywhere: {no_dup_delivery}, "
                  f"suppression fires at high BER: {suppression_fires}")


def test_criterion_7_priority_timer_coherence():
    """Over 10^4 random coded transmissions: receiver priorities form a
    permutation with the intended forwarder first, and no helper ACK is
    scheduled past the sender's wait."""
    params = SimParams()
    ack_air = ACK_FRAME_BYTES * 8 / params.data_rate
    rng = random.Random(7)
    topos = [build_topology(k) for k in ("x_topo", "eight_node", "grid5")]
    checked = 0
    ok = True
    while checked < 10_000:
        topo = rng.choice(topos)
        sender = rng.choice(topo.nodes())
        nbrs_set = sorted(neighbors(topo, sender))
        if len(nbrs_set) < 2:
            continue
        intended = rng.choice(nbrs_set)
        nbrs = topo.adjacency().__getitem__
        indices = [priority_index(r, sender, intended, nbrs) for r in nbrs_set]
        if sorted(indices) != list(range(len(nbrs_set))):
            ok = False
        if priority_index(intended, sender, intended, nbrs) != 0:
            ok = False
        wait = sender_timeout(Protocol.FLEXONC, 2, len(nbrs_set),
                              params.timers)
        for r, idx in zip(nbrs_set, indices):
            if idx == 0:
                continue
            hold = helper_hold_time(idx, params.timers)
            if hold + ack_air >= wait:
                ok = False
        checked += 1
    assert report("7 priority/timer coherence", ok, f"{checked} transmissions")


def test_criterion_8_routing_consistency():
    """A node's copy of each neighbor's table answers exactly like the
    neighbor's own table, exhaustively, on every scenario topology."""
    ok = True
    total = 0
    for kind in ("x_topo", "eight_node", "grid5"):
        topo = build_topology(kind)
        tables = build_forwarding_tables(topo, topo.nodes())
        for n in topo.nodes():
            for m in neighbors(topo, n):
                for dst in topo.nodes():
                    if dst == m or dst not in tables.own[m]:
                        continue
                    total += 1
                    if neighbor_next_hop(tables, n, m, dst) != next_hop(tables, m, dst):
                        ok = False
    assert report("8 routing consistency", ok, f"{total} triples")


def test_criterion_9_determinism():
    """Identical (config, seed) inputs reproduce runs.csv byte for byte."""
    cfg = ScenarioConfig(
        name="det", topology_kind="eight_node",
        protocols=(Protocol.FLEXONC, Protocol.BEND),
        bers=(1e-4,), seeds=(1,),
        flows=(Flow(0, 4, 0.07, 10.0), Flow(4, 0, 0.07, 10.0)),
    )
    first = rows_to_csv(run_sweep(cfg), RUNS_HEADER)
    second = rows_to_csv(run_sweep(cfg), RUNS_HEADER)
    ok = first == second and len(first) > 100
    assert report("9 determinism", ok, f"{len(first)} csv bytes")

"""Event scheduler, MAC arbitration, traffic generation and metrics."""
import copy
import heapq
import math
import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import meshnc.core as core_mod
import meshnc.engine as engine_mod
import meshnc.node as node_mod
from meshnc import (
    CodedPacket,
    Flow,
    Metrics,
    NativePacket,
    PayloadId,
    Protocol,
    Scenario,
    SimParams,
    Simulation,
    build_topology,
    default_flows,
    mac_grant,
    make_payload,
    parse_config,
    run,
    throughput,
)

from mesh_strategies import NO_SHRINK, mesh_configs
from test_tools import samebytes

CoarseRandom = samebytes.CoarseRandom


class RiggedRandom(random.Random):
    """Returns a fixed value from random(), forcing exact backoff ties."""

    def __init__(self, value=0.5):
        super().__init__(0)
        self.value = value

    def random(self):
        return self.value


def x_scenario(protocol, ber=0.0, pairs=10, interval=0.07, **params):
    topo = build_topology("x_topo")
    flows = (Flow(0, 3, interval, pairs * interval),
             Flow(1, 4, interval, pairs * interval))
    return Scenario("x", topo, protocol, ber, flows,
                    params=SimParams(**params) if params else SimParams())


class TestMacGrant:
    def test_single_contender_wins_after_backoff(self):
        rng = random.Random(4)
        winners, start = mac_grant([3], now=1.0, rng=rng, slot_time=20e-6, cw=32)
        assert winners == [3]
        assert 1.0 <= start < 1.0 + 32 * 20e-6

    def test_two_contenders_distinct_draws(self):
        rng = random.Random(4)
        winners, start = mac_grant([1, 2], 0.0, rng, 20e-6, 32)
        assert len(winners) == 1

    def test_forced_tie_reports_both(self):
        winners, start = mac_grant([1, 2, 3], 0.0, RiggedRandom(), 20e-6, 32)
        assert winners == [1, 2, 3]
        assert start == pytest.approx(0.5 * 32 * 20e-6)


class ScriptedRandom(random.Random):
    """Returns the given values from random(), in order."""

    def __init__(self, values):
        super().__init__(0)
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def reference_grant(contenders, now, rng, slot_time, cw):
    """mac_grant as a plain list comprehension over every draw."""
    draws = [rng.random() * cw for _ in contenders]
    best = min(draws)
    return ([c for c, d in zip(contenders, draws) if d == best],
            now + best * slot_time)


class TestMacGrantOracle:
    @given(data=st.data(), n=st.integers(1, 30),
           cw=st.one_of(st.sampled_from([1, 3, 7, 31, 32, 100, 1023]),
                        st.integers(1, 2048)),
           now=st.floats(0.0, 200.0), slot_time=st.floats(1e-6, 1e-3),
           coarse=st.booleans())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_matches_the_reference_comprehension(self, data, n, cw, now,
                                                 slot_time, coarse):
        # Coarse draws come from a few values, so ties among many
        # contenders are common; fine ones rarely tie. Both include 1.0,
        # which a stream rounded to eighths (tools/samebytes.py's
        # CoarseRandom) returns: a draw of exactly cw slots.
        values = st.sampled_from([0.0, 0.125, 0.5, 0.875, 1.0]) if coarse \
            else st.floats(0.0, 1.0)
        draws = data.draw(st.lists(values, min_size=n, max_size=n))
        contenders = data.draw(st.lists(st.integers(0, 99), min_size=n,
                                        max_size=n, unique=True))
        rng, ref_rng = ScriptedRandom(draws + [0.3]), ScriptedRandom(draws)
        got = mac_grant(contenders, now, rng, slot_time, cw)
        assert got == reference_grant(contenders, now, ref_rng, slot_time, cw)
        assert rng.values == [0.3]  # one draw per contender, no more

    @pytest.mark.parametrize("draws, winners", [
        ([1.0], [5]),
        ([1.0, 0.5, 0.25], [7]),
        ([1.0, 0.25, 0.25], [6, 7]),
        ([1.0, 1.0, 1.0], [5, 6, 7]),
    ])
    def test_a_first_draw_of_cw_slots(self, draws, winners):
        # The first draw is the largest, at the top of the window.
        contenders = [5, 6, 7][:len(draws)]
        got = mac_grant(contenders, 2.0, ScriptedRandom(draws), 1e-3, 32)
        assert got == (winners, 2.0 + min(draws) * 32 * 1e-3)
        assert got == reference_grant(contenders, 2.0,
                                      ScriptedRandom(draws), 1e-3, 32)


def stock_scenario(kind, protocol, seconds=2.0, ber=1e-4):
    flows = tuple(Flow(f.src, f.dst, f.interval, seconds)
                  for f in default_flows(kind))
    return Scenario(kind, build_topology(kind), protocol, ber, flows)


def mesh_scenarios(text, seconds=2.0):
    """One scenario per protocol for a `mesh_configs` text, its flows cut
    to `seconds`, with the config's seed."""
    cfg = parse_config(text)
    flows = tuple(Flow(f.src, f.dst, f.interval, seconds) for f in cfg.flows)
    (ber,), (seed,) = cfg.bers, cfg.seeds
    return [(Scenario("mesh", cfg.topology(), protocol, ber, flows), seed)
            for protocol in Protocol]


def bystanders(sim):
    return sorted(set(sim.nodes) - set(sim._hearers))


def snapshot(m):
    """Every `Metrics` field, its counters copied."""
    return {k: (dict(v) if isinstance(v, dict) else v)
            for k, v in vars(m).items()}


class Stop(Exception):
    """Raised by a `mac_grant` stub to end a run at a grant."""


class TestGrantScan:
    """The grant scan in `Simulation.run` reads each node's queues in place
    rather than calling `NodeState.ready`; at every grant its contenders
    must be exactly the nodes whose `ready(now)` is true, in ascending
    order."""

    def checked_run(self, text, coarse):
        grants = 0
        for sc, seed in mesh_scenarios(text):
            sim = Simulation(sc, seed)
            if coarse:
                sim.rng = CoarseRandom(seed)

            def checked(contenders, now, *rest):
                nonlocal grants
                grants += 1
                ready = []
                for n in sorted(sim.nodes):
                    if sim.nodes[n].ready(now):
                        ready.append(n)
                assert contenders == ready, (sc.protocol, now)
                return mac_grant(contenders, now, *rest)

            with mock.patch.object(engine_mod, "mac_grant", checked):
                sim.run()
        assert grants

    def test_the_q1_head_boundary(self, monkeypatch):
        # A q1 head due within 1e-12 s of now contends and one a float
        # later does not; a waiting mix contends whatever q1 holds.
        sim = Simulation(Scenario("scan", build_topology("eight_node"),
                                  Protocol.COPE, 0.0, ()), 1)
        now = 1.0
        edge = now + 1e-12
        pkt = NativePacket(PayloadId(0, 0), 0, 4, 0, 1, b"x")
        nodes = sim.nodes
        nodes[1].q1.append(node_mod.QueueEntry(pkt, edge))
        nodes[2].q1.append(node_mod.QueueEntry(pkt, math.nextafter(edge, 2)))
        nodes[5].q1.append(node_mod.QueueEntry(pkt, 2.0))
        nodes[5].mixing_q.append((pkt,))
        seen = []

        def stop(contenders, *rest):
            # A grant with no winner would poll again at once, so the run
            # stops at the first one.
            seen.append(contenders)
            raise Stop

        monkeypatch.setattr(engine_mod, "mac_grant", stop)
        heapq.heappush(sim._heap, (now, sim._next_seq(), engine_mod.E_GRANT,
                                   None, None))
        with pytest.raises(Stop):
            sim.run()
        ready = [n for n in sorted(nodes) if nodes[n].ready(now)]
        assert seen == [ready] == [[1, 5]]

    @settings(max_examples=60, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow],
              phases=NO_SHRINK)
    @given(text=mesh_configs())
    def test_contenders_are_the_ready_nodes(self, text):
        self.checked_run(text, coarse=False)

    @settings(max_examples=30, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow],
              phases=NO_SHRINK)
    @given(text=mesh_configs())
    def test_contenders_are_the_ready_nodes_under_ties(self, text):
        self.checked_run(text, coarse=True)


class TestAckBacklog:
    """An ACK that comes due while a data frame is on the air waits in the
    backlog; when the air frees it goes out before any data grant is
    polled for, so the next grant falls after its airtime."""

    def test_a_backlogged_ack_goes_out_before_the_next_grant(
            self, monkeypatch):
        sim = Simulation(Scenario("backlog", build_topology("eight_node"),
                                  Protocol.PLAIN, 0.0, ()), 1)
        nodes, rate = sim.nodes, sim.params.data_rate
        for seq in (0, 1):  # the second keeps node 0 ready after the first
            pkt = NativePacket(PayloadId(0, seq), 0, 4, 0, 1,
                               make_payload(PayloadId(0, seq), 64))
            nodes[0].q1.append(node_mod.QueueEntry(pkt, 0.0))
        # A data frame on the air from 0.5 s, planted as a grant leaves it
        # but with no ACK window, and an ACK of node 6 due halfway through.
        intent = nodes[0].select_transmission(0.5)
        end = 0.5 + intent.frame.bits / rate
        due = (0.5 + end) / 2
        sim.busy_until = end
        heapq.heappush(sim._heap, (end, sim._next_seq(), engine_mod.E_FRAME_END,
                                   (0, intent), ()))
        heapq.heappush(sim._heap, (due, sim._next_seq(), node_mod.E_ACK_TX, 6,
                                   core_mod.Ack(6, PayloadId(9, 9))))
        popped, pop = [], heapq.heappop

        def recorded(heap):
            item = pop(heap)
            popped.append(item)
            return item

        def stop(contenders, *rest):
            raise Stop

        monkeypatch.setattr(heapq, "heappop", recorded)
        monkeypatch.setattr(engine_mod, "mac_grant", stop)
        with pytest.raises(Stop):
            sim.run()
        acks = [e for e in popped if e[2] == engine_mod.E_ACK_END]
        grants = [e for e in popped if e[2] == engine_mod.E_GRANT]
        ack_end = end + core_mod.ACK_FRAME_BITS / rate
        # It waited for the frame to end, then went out at once.
        assert [(e[0], e[3]) for e in acks] == [(ack_end, 6)]
        assert grants
        # Pushed before any grant, and no grant falls inside its airtime.
        assert acks[0][1] < grants[0][1]
        assert grants[0][0] >= ack_end
        assert popped[-1] is grants[-1]  # the grant that ran the scan


class TestBystanders:
    """The frame and ACK handlers skip the bystanders, the nodes on no
    route chain (`Simulation._hearers` leaves them out). A run with the
    skip must match one in which every node hears, and what a bystander
    would do, were it called, must be nothing but the coded-frame drop
    the engine counts in its stead."""

    @pytest.mark.parametrize("kind, protocol, expected", [
        ("eight_node", Protocol.PLAIN, [5, 6, 7]),
        ("eight_node", Protocol.COPE, [5, 6, 7]),
        ("eight_node", Protocol.BEND, []),
        ("eight_node", Protocol.FLEXONC, []),
        ("grid5", Protocol.PLAIN, [12, 18, 24]),
        ("grid5", Protocol.COPE, [12, 18, 24]),
        ("grid5", Protocol.BEND, [24]),
        ("grid5", Protocol.FLEXONC, [24]),
    ])
    def test_stock_bystanders(self, kind, protocol, expected):
        sim = Simulation(stock_scenario(kind, protocol), 1)
        assert bystanders(sim) == expected

    def traced_run(self, sim):
        """Run `sim`; its metrics and the (time, seq) of every pop."""
        order = []
        pop = engine_mod.heapq.heappop

        def recorded(heap):
            item = pop(heap)
            order.append(item[:2])
            return item

        with mock.patch.object(engine_mod, "heapq",
                               mock.Mock(heappop=recorded)):
            m = sim.run()
        return m, order

    def compare(self, sc, seed, coarse):
        runs = []
        for every_node_hears in (False, True):
            sim = Simulation(sc, seed)
            if every_node_hears:
                sim._hearers = sim.nodes
            if coarse:
                sim.rng = CoarseRandom(seed)
            m, order = self.traced_run(sim)
            runs.append((vars(m), list(m.drops.items()), order))
        assert runs[0] == runs[1], (sc.protocol, seed)

    @settings(max_examples=40, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow],
              phases=NO_SHRINK)
    @given(text=mesh_configs())
    def test_the_skip_changes_nothing(self, text):
        for sc, seed in mesh_scenarios(text):
            self.compare(sc, seed, coarse=False)

    @settings(max_examples=20, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow],
              phases=NO_SHRINK)
    @given(text=mesh_configs())
    def test_the_skip_changes_nothing_under_ties(self, text):
        for sc, seed in mesh_scenarios(text):
            self.compare(sc, seed, coarse=True)

    def check_bystanders(self, sc, seed):
        """Whether the skip is sound, judged without it. In a run where
        every node hears, each bystander's handlers schedule nothing and
        move no `Metrics` field but one `non_intended_coded` drop per coded
        frame, and it holds nothing at the horizon. In the run with the
        skip, the drops counted outside the hearers' handlers are one per
        coded frame a bystander receives. Returns that count."""
        sim = Simulation(sc, seed)
        skipped = bystanders(sim)
        m = sim.metrics
        coded_rx = 0
        sample = engine_mod.sample_reception

        def counted_sample(frame, *rest):
            nonlocal coded_rx
            receivers = sample(frame, *rest)
            if type(frame.body) is CodedPacket:
                for r in receivers:
                    coded_rx += r not in sim._hearers
            return receivers

        in_handlers = 0
        for node in sim._hearers.values():
            def counted(frame, now, handler=node.on_data_frame):
                nonlocal in_handlers
                before = m.drops["non_intended_coded"]
                actions = handler(frame, now)
                in_handlers += m.drops["non_intended_coded"] - before
                return actions
            node.on_data_frame = counted
        with mock.patch.object(engine_mod, "sample_reception",
                               counted_sample):
            sim.run()
        # No tie, so every frame reached all the receivers it drew.
        assert m.drops["non_intended_coded"] == in_handlers + coded_rx

        sim = Simulation(sc, seed)
        sim._hearers = sim.nodes
        m = sim.metrics

        def checked(handler, coded_of):
            def wrapped(frame_or_ack, *rest):
                before = snapshot(m)
                actions = handler(frame_or_ack, *rest)
                assert not actions
                after = snapshot(m)
                if coded_of(frame_or_ack):
                    before["drops"]["non_intended_coded"] = (
                        before["drops"].get("non_intended_coded", 0) + 1)
                assert after == before
                return actions
            return wrapped

        for b in skipped:
            node = sim.nodes[b]
            node.on_data_frame = checked(
                node.on_data_frame,
                lambda frame: type(frame.body) is CodedPacket)
            node.on_ack = checked(node.on_ack, lambda ack: False)
        sim.run()
        for b in skipped:
            node = sim.nodes[b]
            assert not (node.q1 or node.q2 or node.mixing_q or node._queued)
            assert not (node.pending or node.helper_timers or node.delivered)
        return coded_rx

    @settings(max_examples=25, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow],
              phases=NO_SHRINK)
    @given(text=mesh_configs())
    def test_a_bystander_would_do_nothing(self, text):
        for sc, seed in mesh_scenarios(text):
            self.check_bystanders(sc, seed)

    @pytest.mark.parametrize("kind", ["eight_node", "grid5"])
    def test_a_stock_bystander_would_do_nothing(self, kind):
        coded_rx = 0
        for protocol in Protocol:
            coded_rx += self.check_bystanders(
                stock_scenario(kind, protocol), 1)
        assert coded_rx > 0


class TestCollision:
    def test_rigged_ties_destroy_frames_at_common_receivers(self):
        # Both sources always draw the same backoff: every data frame
        # collides at the relay, nothing is ever delivered, and both
        # senders exhaust their retries.
        sc = x_scenario(Protocol.PLAIN, pairs=1)
        sim = Simulation(sc, seed=1)
        sim.rng = RiggedRandom()
        metrics = sim.run()
        assert sum(metrics.delivered_count.values()) == 0
        assert metrics.drops["retries_exhausted"] == 2
        # 1 initial attempt + retry_limit retries per source.
        assert metrics.tx_data == 2 * (1 + sc.params.retry_limit)

    def test_sole_overhearers_still_receive_under_tie(self):
        # Every data frame collides at relay 2, which hears both tied
        # sources; each destination hears only the opposite source, so the
        # overheard uplink still lands in its pool.
        sc = x_scenario(Protocol.FLEXONC, pairs=1)
        sim = Simulation(sc, seed=1)
        sim.rng = RiggedRandom()
        sim.run()
        a, b = PayloadId(0, 0), PayloadId(1, 0)
        assert b in sim.nodes[3].pool
        assert a in sim.nodes[4].pool
        assert a not in sim.nodes[2].pool and b not in sim.nodes[2].pool


class TestCbrSource:
    @pytest.mark.parametrize("interval, duration, count", [
        (0.07, 150.0, 2143),  # the eight-node and x_topo stock flows
        (0.1, 100.0, 1000),  # the grid5 stock flows
        (0.25, 1.0, 4),  # half-open span: 0, .25, .5, .75
        (0.5, 0.2, 1),  # shorter than one interval
        (0.07, 35 * 0.07, 35),
    ])
    def test_sim_generates_same_count(self, interval, duration, count):
        # k * interval < duration, counted off the emissions of a real run.
        sc = Scenario("cbr", build_topology("x_topo"), Protocol.PLAIN, 0.0,
                      (Flow(0, 3, interval, duration),))
        assert run(sc, seed=2).generated_count == {0: count}


class TestThroughput:
    def test_arithmetic(self):
        m = Metrics()
        m.delivered_bytes[0] = 1000 * 1000
        per_flow, agg = throughput(m, 100.0)
        assert per_flow[0] == pytest.approx(80_000.0)
        assert agg == pytest.approx(80_000.0)

    def test_zero_delivery(self):
        per_flow, agg = throughput(Metrics(), 10.0)
        assert per_flow == {} and agg == 0.0

    def test_aggregate_is_sum(self):
        m = Metrics()
        m.delivered_bytes[0] = 500
        m.delivered_bytes[1] = 1500
        per_flow, agg = throughput(m, 1.0)
        assert agg == pytest.approx(sum(per_flow.values()))

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            throughput(Metrics(), 0.0)


class TestDeterminism:
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_same_seed_same_metrics(self, protocol):
        sc = x_scenario(protocol, ber=1e-4, pairs=20)
        assert run(sc, seed=7) == run(sc, seed=7)

    def test_different_seeds_differ_under_loss(self):
        sc = x_scenario(Protocol.PLAIN, ber=1e-4, pairs=30)
        a, b = run(sc, seed=1), run(sc, seed=2)
        assert a != b  # overwhelmingly likely at this loss rate

    @pytest.mark.parametrize("bump", ["events", "drops"])
    def test_metrics_equality_sees_one_changed_counter(self, bump):
        sc = x_scenario(Protocol.FLEXONC, ber=1e-4, pairs=20)
        m = run(sc, seed=7)
        assert m != run(sc, seed=8)
        twin = copy.deepcopy(m)
        assert twin == m
        if bump == "events":
            twin.events += 1
        else:
            twin.drops["retries_exhausted"] += 1
        assert twin != m and not twin == m


class TestConservation:
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_payloads_survive_coding_byte_exact(self, protocol):
        # Destinations verify every delivered payload against the generator
        # pattern; any XOR bookkeeping slip shows up as a corruption count.
        sc = x_scenario(protocol, ber=5e-5, pairs=40)
        metrics = run(sc, seed=3)
        assert metrics.corrupted == 0
        assert sum(metrics.delivered_count.values()) > 0

    def test_delivered_never_exceeds_generated(self):
        sc = x_scenario(Protocol.FLEXONC, ber=1e-4, pairs=40)
        m = run(sc, seed=5)
        for flow in m.generated_count:
            assert m.delivered_count[flow] <= m.generated_count[flow]
            assert m.delivered_bytes[flow] <= m.generated_bytes[flow]

    def test_no_duplicate_app_deliveries(self):
        sc = x_scenario(Protocol.FLEXONC, ber=2e-4, pairs=60)
        m = run(sc, seed=5)
        assert m.duplicate_deliveries == 0

    @pytest.mark.parametrize("kind, protocol, ber, seed", [
        # Eight-node cases are named protocol-ber-seed, grid5 ones carry a
        # "grid5-" prefix.
        pytest.param(kind, protocol, ber, seed, id="-".join(
            ([] if kind == "eight_node" else [kind])
            + [protocol.name.lower(), str(ber), str(seed)]))
        for kind in ("eight_node", "grid5")
        for protocol in Protocol
        for ber in (2e-6, 2e-5, 1e-4)
        for seed in (1, 2)])
    def test_every_lost_payload_is_counted_as_dropped(self, kind, protocol,
                                                      ber, seed):
        # End-of-run payload fates on the stock flows (30 s on the
        # eight-node mesh, 10 s on grid5): a payload that no destination
        # delivered and no node still holds (queued, awaiting an ACK, behind
        # a helper timer, or on the air at the horizon) was lost, and each
        # loss must have bumped a drop counter. Each node's queue index must
        # also list exactly the payloads read off its queues, one copy each,
        # and an armed native helper's timer entry must be its q2 entry.
        duration = 30.0 if kind == "eight_node" else 10.0
        flows = tuple(Flow(f.src, f.dst, f.interval, duration)
                      for f in default_flows(kind))
        sim = Simulation(Scenario(kind, build_topology(kind), protocol, ber,
                                  flows), seed)
        m = sim.run()
        for nid, node in sim.nodes.items():
            queued = [e.pkt.id for e in node.q1] + list(node.q2)
            queued += [n.id for mix in node.mixing_q for n in mix]
            assert len(queued) == len(set(queued)), f"node {nid} queues twice"
            assert node._queued == set(queued), (
                f"node {nid}: index and queues differ by "
                f"{sorted(node._queued ^ set(queued))[:5]}")
            for pid, helper in node.helper_timers.items():
                # A coded component's helper holds no queued copy.
                parked = node.q2.get(pid)
                assert parked is helper or (
                    parked is None and pid not in node._queued), (
                    f"node {nid}: helper {pid} is not its parked entry")
        generated = {PayloadId(flow, k)
                     for flow, n in m.generated_count.items()
                     for k in range(n)}
        delivered = set().union(*(n.delivered for n in sim.nodes.values()))
        assert len(delivered) == sum(m.delivered_count.values())
        lost = generated - delivered - sim.held_payloads()
        dropped = sum(m.drops[reason] for reason in
                      ("retries_exhausted", "queue_overflow",
                       "helper_queue_full"))
        assert len(lost) <= dropped, (
            f"{len(lost)} payloads lost but {dropped} drops counted; "
            f"first lost: {sorted(lost)[:5]}")


# A fixed example budget: about 1.3 s on a 2-vCPU host.
BER0_EXAMPLES = 200


class TestInvariants:
    def test_plain_zero_ber_transmission_identity(self):
        # Every datagram crosses its full path exactly once: transmissions
        # equal datagrams times path hops, and everything is delivered.
        topo = build_topology("eight_node")
        flows = (Flow(0, 4, 0.07, 3.5), Flow(4, 0, 0.07, 3.5))  # 50 each
        sc = Scenario("e8", topo, Protocol.PLAIN, 0.0, flows)
        m = run(sc, seed=1)
        datagrams = sum(m.generated_count.values())
        assert datagrams == 100
        assert sum(m.delivered_count.values()) == datagrams
        assert m.tx_data == datagrams * 4
        assert m.retx == 0

    @settings(max_examples=BER0_EXAMPLES, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow],
              phases=NO_SHRINK)
    @given(text=mesh_configs())
    def test_plain_at_zero_ber_below_saturation_loses_nothing(self, text):
        # A differential oracle on random meshes: with no bit errors, one
        # frame on the air at a time and a light load, plain forwarding
        # drops, resends and duplicates nothing, and every generated
        # payload is delivered or still held at the horizon.
        cfg = parse_config(text)
        flows = tuple(Flow(f.src, f.dst, 0.5, f.duration) for f in cfg.flows)
        sim = Simulation(Scenario("ber0", cfg.topology(), Protocol.PLAIN,
                                  0.0, flows), cfg.seeds[0])
        m = sim.run()
        assert not m.drops
        assert m.retx == 0 and m.duplicate_deliveries == 0
        generated = sum(m.generated_count.values())
        assert generated == (sum(m.delivered_count.values())
                             + len(sim.held_payloads()))

    def test_coded_protocols_save_airtime_at_zero_ber(self):
        topo = build_topology("eight_node")
        flows = (Flow(0, 4, 0.07, 3.5), Flow(4, 0, 0.07, 3.5))
        plain = run(Scenario("e8", topo, Protocol.PLAIN, 0.0, flows), 1)
        for proto in (Protocol.COPE, Protocol.BEND, Protocol.FLEXONC):
            m = run(Scenario("e8", topo, proto, 0.0, flows), 1)
            assert sum(m.delivered_count.values()) == 100
            assert m.tx_data < plain.tx_data
            assert m.tx_coded > 0

    def test_post_run_state_bounds(self):
        sc = x_scenario(Protocol.FLEXONC, ber=1e-4, pairs=40)
        sim = Simulation(sc, seed=9)
        sim.run()
        for node in sim.nodes.values():
            assert len(node.ack_cache) <= sc.params.ack_cache_cap
            assert len(node.q1) <= sc.params.queue_cap
            assert len(node.q2) <= sc.params.queue_cap
            # A payload never sits in pending and helper_timers at once.
            assert not set(node.pending) & set(node.helper_timers)
            for pid, left in node.retries.items():
                assert 0 <= left <= sc.params.retry_limit


class TestValueConstruction:
    # The hot path builds values with `new_value`, `tuple.__new__`, which
    # unlike a class call takes a short field tuple without complaint.

    @pytest.mark.parametrize("protocol", list(Protocol),
                             ids=lambda p: p.name.lower())
    def test_every_value_built_has_all_its_fields(self, protocol,
                                                  monkeypatch):
        built = set()

        def checked_new(cls, fields):
            assert len(fields) == len(cls._fields), (cls.__name__, fields)
            built.add(cls.__name__)
            return tuple.__new__(cls, fields)

        mixes_sent = 0
        select = node_mod.NodeState.select_transmission

        def counted_select(node, now):
            nonlocal mixes_sent
            queued = len(node.mixing_q)
            intent = select(node, now)
            mixes_sent += queued - len(node.mixing_q)
            return intent

        for module in (core_mod, node_mod, engine_mod):
            monkeypatch.setattr(module, "new_value", checked_new)
        monkeypatch.setattr(node_mod.NodeState, "select_transmission",
                            counted_select)
        m = run(x_scenario(protocol, ber=1e-4, pairs=40), seed=9)
        kinds = {"PayloadId", "NativePacket", "Frame", "Ack", "QueueEntry",
                 "TxIntent"}
        if protocol != Protocol.PLAIN:
            assert m.tx_coded > 0
            kinds |= {"CodedPacket", "CodedComponent"}
        if protocol in (Protocol.BEND, Protocol.FLEXONC):
            assert m.helper_forwards > 0
            kinds.add("HelperEntry")
        # In this cell only bend's firing helpers find a mix partner, and
        # select_transmission sends their mixes off the mixing queue.
        assert (mixes_sent > 0) == (protocol == Protocol.BEND)
        assert built == kinds


class TestScheduler:
    def test_zero_duration_flow_is_zero_metrics(self):
        topo = build_topology("x_topo")
        sc = Scenario("x", topo, Protocol.PLAIN, 0.0,
                      (Flow(0, 3, 0.07, 0.0),))
        m = run(sc, seed=1)
        assert sum(m.generated_count.values()) == 0
        assert sum(m.delivered_count.values()) == 0
        assert m.tx_data == 0

    @pytest.mark.parametrize("protocol", list(Protocol),
                             ids=lambda p: p.name.lower())
    def test_no_flows_is_zero_metrics(self, protocol):
        # A scenario without flows once faulted in `Scenario.duration`
        # (max() of an empty sequence) before the first event.
        sc = Scenario("x", build_topology("x_topo"), protocol, 0.0, ())
        m = Simulation(sc, 1).run()
        assert m.generated_count == {} and m.delivered_count == {}
        assert m.tx_data == 0 and m.events == 0

    def test_event_overflow_aborts_with_diagnostic(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "MAX_EVENTS", 50)
        sc = x_scenario(Protocol.PLAIN, pairs=30)
        with pytest.raises(engine_mod.SchedulerOverflow):
            run(sc, seed=1)

    @pytest.mark.parametrize("protocol", ["bend", "cope", "BEND", 7])
    def test_a_protocol_that_is_not_a_member_is_rejected(self, protocol):
        # The nodes compare the protocol with the members, so a name or a
        # number would run a hybrid that never codes or helps.
        sc = x_scenario(Protocol.BEND, pairs=1)._replace(protocol=protocol)
        with pytest.raises(ValueError, match="Protocol member"):
            Simulation(sc, seed=1)

    def test_unreachable_flow_faults_at_setup(self):
        topo = build_topology("x_topo")
        # 0 and 1 are mutually out of range and 2..4 removed from the route
        # by pointing the flow at a disconnected pair in a custom layout.
        from meshnc import Topology
        iso = Topology({0: (0.0, 0.0), 1: (1000.0, 0.0)})
        sc = Scenario("iso", iso, Protocol.PLAIN, 0.0, (Flow(0, 1, 0.1, 1.0),))
        with pytest.raises(Exception):
            Simulation(sc, seed=1)

    def test_make_payload_deterministic_and_sized(self):
        from meshnc import PayloadId
        a = make_payload(PayloadId(2, 17), 1000)
        b = make_payload(PayloadId(2, 17), 1000)
        assert a == b and len(a) == 1000
        assert make_payload(PayloadId(0, 0), 1000) != a

"""Protocol decision logic: COPE selection, mixability, eligibility, timers."""
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshnc import (
    NativePacket,
    NeighborKnowledge,
    PayloadId,
    Protocol,
    TimerParams,
    bend_mixable,
    build_forwarding_tables,
    build_topology,
    cope_select,
    eligibility_failure,
    encode,
    flexonc_eligible,
    helper_hold_time,
    neighbors,
    priority_index,
    priority_list,
    sender_timeout,
)


# The next hops the selection tests address; their knowledge is kept.
HOPS = range(10, 20)


def native(flow, seq, nxt, prev, dst=99, src=98):
    return NativePacket(id=PayloadId(flow, seq), src=src, dst=dst,
                        prev_hop=prev, next_hop=nxt, payload=b"p")


@pytest.fixture(scope="module")
def eight():
    topo = build_topology("eight_node")
    tables = build_forwarding_tables(topo, topo.nodes())
    return topo, tables, topo.adjacency().__getitem__


def cope_valid(subset, knowledge):
    """Both COPE conditions, evaluated directly."""
    hops = [p.next_hop for p in subset]
    if len(set(hops)) != len(hops):
        return False
    ids = {p.id for p in subset}
    return all(
        knowledge.holds_all(p.next_hop, ids - {p.id}) for p in subset
    )


class TestCopeSelect:
    def _x_relay_setup(self):
        # Crossed flows at a relay: each destination has overheard the
        # opposite packet.
        a = native(0, 0, nxt=10, prev=1)
        b = native(1, 0, nxt=11, prev=2)
        know = NeighborKnowledge(HOPS)
        know.add(10, b.id)
        know.add(11, a.id)
        return a, b, know

    def test_crossed_flows_pair(self):
        a, b, know = self._x_relay_setup()
        assert cope_select(a, [b], know) == [a, b]

    def test_empty_candidates(self):
        a, _, know = self._x_relay_setup()
        assert cope_select(a, [], know) == [a]

    def test_missing_knowledge_blocks(self):
        a = native(0, 0, nxt=10, prev=1)
        b = native(1, 0, nxt=11, prev=2)
        know = NeighborKnowledge(HOPS)
        know.add(11, a.id)  # 10 knows nothing about b
        assert cope_select(a, [b], know) == [a]

    def test_only_one_of_three_qualifies(self):
        a = native(0, 0, nxt=10, prev=1)
        good = native(1, 0, nxt=11, prev=2)
        same_hop = native(2, 0, nxt=10, prev=2)   # duplicate next hop
        unknown = native(3, 0, nxt=12, prev=2)    # no knowledge either way
        know = NeighborKnowledge(HOPS)
        know.add(10, good.id)
        know.add(11, a.id)
        got = cope_select(a, [same_hop, unknown, good], know)
        assert got == [a, good]
        assert cope_valid(got, know)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_against_exhaustive_oracle(self, data):
        """Greedy result is valid, inclusion-maximal, and equals the
        exhaustive maximal subset whenever that subset is unique."""
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        n_cand = data.draw(st.integers(0, 5))
        hop_pool = [10, 11, 12, 13]
        head = native(0, 0, nxt=rng.choice(hop_pool), prev=1)
        cands = [native(1 + i, 0, nxt=rng.choice(hop_pool), prev=2)
                 for i in range(n_cand)]
        know = NeighborKnowledge(HOPS)
        everyone = [head] + cands
        for p in everyone:
            for q in everyone:
                if p is not q and rng.random() < 0.6:
                    know.add(p.next_hop, q.id)

        got = cope_select(head, cands, know)
        assert got[0] is head
        assert cope_valid(got, know)
        # Inclusion-maximal: no remaining candidate can be added.
        leftovers = [c for c in cands if c not in got]
        for extra in leftovers:
            assert not cope_valid(got + [extra], know)
        # Against brute force: find all valid subsets containing head.
        best = max(
            (list(combo) for r in range(n_cand + 1)
             for combo in itertools.combinations(cands, r)
             if cope_valid([head] + list(combo), know)),
            key=len,
        )
        maximal_sets = [
            combo for r in range(len(best), len(best) + 1)
            for combo in itertools.combinations(cands, r)
            if cope_valid([head] + list(combo), know)
        ]
        if len(maximal_sets) == 1 and len(best) == len(got) - 1:
            assert got == [head] + list(maximal_sets[0])

    @staticmethod
    def unpruned_select(head, candidates, knowledge, max_components=4):
        """cope_select without its early stop: every candidate is scanned."""
        selected, ids, blocked = [head], [head.id], {head.next_hop}
        for cand in candidates:
            if len(selected) >= max_components:
                break
            hop = cand.next_hop
            if hop in blocked:
                continue
            if not knowledge.holds_all(hop, ids):
                blocked.add(hop)
                continue
            if not all(knowledge.knows(p.next_hop, cand.id) for p in selected):
                continue
            selected.append(cand)
            ids.append(cand.id)
            blocked.add(hop)
        return selected

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(data=st.data(), hops=st.sets(st.integers(10, 17), min_size=1),
           n_cand=st.integers(0, 25), cap=st.integers(0, 5),
           p_known=st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    def test_stopping_once_every_hop_is_blocked_changes_nothing(
            self, data, hops, n_cand, cap, p_known):
        # As in a node's queue, every next hop is in the knowledge's hop
        # set; candidates are passed as a one-shot iterator, as q1 is.
        hops = sorted(hops)
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        head = native(0, 0, nxt=rng.choice(hops), prev=1)
        cands = [native(1 + i, 0, nxt=rng.choice(hops), prev=2)
                 for i in range(n_cand)]
        know = NeighborKnowledge(hops)
        for hop in hops:
            for p in [head] + cands:
                if rng.random() < p_known:
                    know.add(hop, p.id)
        got = cope_select(head, iter(cands), know, cap)
        assert got == self.unpruned_select(head, cands, know, cap)

    def test_component_cap(self):
        head = native(0, 0, nxt=10, prev=1)
        cands = [native(1 + i, 0, nxt=11 + i, prev=2) for i in range(6)]
        know = NeighborKnowledge(HOPS)
        for p in [head] + cands:
            for q in [head] + cands:
                if p is not q:
                    know.add(p.next_hop, q.id)
        got = cope_select(head, cands, know, max_components=4)
        assert len(got) == 4


class TestNeighborKnowledge:
    @staticmethod
    def state(know):
        """Every kept neighbor's entries in key order: what eviction reads."""
        return {n: list(entries.items()) for n, entries in know._held.items()}

    # Neighbors 0-5 against hop sets drawn from them, so updates reach
    # neighbors outside the set as well as in it.
    _pids = st.builds(PayloadId, st.integers(0, 1), st.integers(0, 3))
    _ops = st.one_of(
        st.tuples(st.just("merge"), st.integers(0, 5),
                  st.lists(_pids, max_size=8).map(tuple)),
        st.tuples(st.just("fan_out"),
                  st.lists(st.integers(0, 5), max_size=5).map(tuple), _pids),
    )

    @settings(max_examples=200, deadline=None)
    @given(cap=st.integers(0, 4), hops=st.frozensets(st.integers(0, 5)),
           ops=st.lists(_ops, max_size=30))
    def test_batched_updates_match_one_add_per_entry(self, cap, hops, ops):
        # A small payload space and small caps make reports repeat entries
        # and evict on most updates. `model` is the cap-bounded
        # recency list that `add` must keep, written out by hand, for the
        # neighbors in `hops`; an update about any other leaves no state.
        batched = NeighborKnowledge(hops, cap)
        single = NeighborKnowledge(hops, cap)
        model: dict = {n: [] for n in hops}

        def model_add(neighbor, pid, now):
            if neighbor not in hops:
                return
            entries = model[neighbor]
            entries[:] = [e for e in entries if e[0] != pid] + [(pid, now)]
            del entries[:max(0, len(entries) - cap)]

        for now, (kind, a, b) in enumerate(ops):
            if kind == "merge":
                batched.merge(a, b, float(now))
                pairs = [(a, pid) for pid in b]
            else:
                batched.add_to_all(a, b, float(now))
                pairs = [(neighbor, b) for neighbor in a]
            for neighbor, pid in pairs:
                single.add(neighbor, pid, float(now))
                model_add(neighbor, pid, float(now))
            assert self.state(batched) == self.state(single)
            assert self.state(single) == model

    def test_reads_outside_the_hop_set_raise(self):
        know = NeighborKnowledge((1, 2))
        pid = PayloadId(0, 0)
        know.add(1, pid)
        know.add(3, pid)
        assert know.knows(1, pid) and not know.knows(2, pid)
        assert know.holds_all(1, [pid]) and not know.holds_all(2, [pid])
        with pytest.raises(KeyError):
            know.knows(3, pid)
        with pytest.raises(KeyError):
            know.holds_all(3, ())

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            NeighborKnowledge((), -1)


class TestBendMixable:
    def test_chain_relay_pair(self, eight):
        _, _, nbrs = eight
        # At node 1: forward packet from 0 heading to 2, reverse packet
        # from 2 heading to 0 — each next hop IS the other's previous hop.
        p = native(0, 0, nxt=2, prev=0)
        q = native(1, 0, nxt=0, prev=2)
        assert bend_mixable(p, q, nbrs) is True

    def test_unrelated_hops_rejected(self, eight):
        _, _, nbrs = eight
        p = native(0, 0, nxt=4, prev=0)   # 4 not adjacent to 2's... checked below
        q = native(1, 0, nxt=0, prev=3)   # 0 vs nbrs(0): p.prev=0
        # p.next=4: 4 == q.prev(3)? no; 4 in nbrs(3)? yes -> fwd ok
        # q.next=0: 0 == p.prev(0)? yes -> rev ok => mixable
        assert bend_mixable(p, q, nbrs) is True
        r = native(2, 0, nxt=4, prev=5)   # q.next=0 vs r.prev=5: 0 in nbrs(5) ok
        s = native(3, 0, nxt=7, prev=0)   # s.next=7 vs r.prev=5: 7 not in nbrs(5)
        assert bend_mixable(s, r, nbrs) is False

    def test_diagonal_neighbor_case(self, eight):
        _, _, nbrs = eight
        # p heads to 5, q's previous hop 0 has 5 as neighbor.
        p = native(0, 0, nxt=5, prev=2)
        q = native(1, 0, nxt=2, prev=0)
        # direction 1: p.next=5 in nbrs(q.prev=0) -> true
        # direction 2: q.next=2 in nbrs(p.prev=2)? 2 == p.prev -> true
        assert bend_mixable(p, q, nbrs) is True

    def test_truth_table_oracle(self, eight):
        _, _, nbrs = eight
        # Every ordered pair over a small packet zoo, against the predicate
        # evaluated longhand from the adjacency list.
        zoo = [native(i, 0, nxt=nx, prev=pv)
               for i, (nx, pv) in enumerate([(2, 0), (0, 2), (3, 1), (1, 3),
                                             (5, 2), (6, 1), (4, 7)])]
        for p, q in itertools.permutations(zoo, 2):
            fwd = p.next_hop == q.prev_hop or p.next_hop in nbrs(q.prev_hop)
            rev = q.next_hop == p.prev_hop or q.next_hop in nbrs(p.prev_hop)
            assert bend_mixable(p, q, nbrs) == (fwd and rev)

    def test_symmetry(self, eight):
        _, _, nbrs = eight
        rng = random.Random(0)
        nodes = list(range(8))
        for _ in range(200):
            p = native(0, 0, nxt=rng.choice(nodes), prev=rng.choice(nodes))
            q = native(1, 0, nxt=rng.choice(nodes), prev=rng.choice(nodes))
            assert bend_mixable(p, q, nbrs) == bend_mixable(q, p, nbrs)


def example_coded(eight_nbrs):
    """The coded packet from the motivating scenario: forward packet toward
    node 2 (final destination 4) mixed with a reverse packet toward node 0
    (its own destination), both sent by node 1."""
    p0 = native(1, 7, nxt=0, prev=2, dst=0, src=4)   # reverse direction
    p2 = native(0, 7, nxt=2, prev=0, dst=4, src=0)   # forward direction
    return p0, p2, encode([p0, p2], sender=1)


class TestFlexoncEligible:
    def test_node6_selected_for_forward_component(self, eight):
        _, tables, nbrs = eight
        p0, p2, coded = example_coded(nbrs)
        comp = flexonc_eligible(6, coded, tables, nbrs, {p0.id})
        assert comp is not None and comp.id == p2.id

    def test_node0_fails_criterion_one(self, eight):
        _, tables, nbrs = eight
        p0, p2, coded = example_coded(nbrs)
        assert flexonc_eligible(0, coded, tables, nbrs, {p0.id}) is None
        assert eligibility_failure(0, coded.components[1], coded, tables,
                                   nbrs, {p0.id}) == 1

    def test_node5_fails_criterion_two(self, eight):
        _, tables, nbrs = eight
        p0, p2, coded = example_coded(nbrs)
        assert flexonc_eligible(5, coded, tables, nbrs, {p0.id}) is None
        assert eligibility_failure(5, coded.components[1], coded, tables,
                                   nbrs, {p0.id}) == 2

    def test_decodability_is_criterion_three(self, eight):
        _, tables, nbrs = eight
        p0, p2, coded = example_coded(nbrs)
        assert eligibility_failure(6, coded.components[1], coded, tables,
                                   nbrs, set()) == 3
        assert flexonc_eligible(6, coded, tables, nbrs, set()) is None

    def test_criterion_two_waived_at_destination(self, eight):
        _, tables, nbrs = eight
        p0, p2, coded = example_coded(nbrs)
        # Component toward node 0 terminates there; node 5 neighbors 0 and
        # holds the other payload, so it qualifies despite no onward hop.
        comp = flexonc_eligible(5, coded, tables, nbrs, {p2.id})
        assert comp is not None and comp.id == p0.id

    def test_eligible_set_among_receivers_is_exactly_node6(self, eight):
        topo, tables, nbrs = eight
        p0, p2, coded = example_coded(nbrs)
        pool = {p0.id}
        eligible = set()
        for n in topo.nodes():
            if n == coded.sender or n in coded.intended_set():
                continue
            if flexonc_eligible(n, coded, tables, nbrs, pool) is not None:
                eligible.add(n)
        receivers = neighbors(topo, coded.sender)
        assert eligible & receivers == {6}


class TestPriority:
    def test_derived_listing(self, eight):
        _, _, nbrs = eight
        assert priority_list(1, 2, nbrs) == [2, 0, 5, 6]
        assert priority_index(6, 1, 2, nbrs) == 3

    def test_intended_is_zero(self, eight):
        _, _, nbrs = eight
        assert priority_index(2, 1, 2, nbrs) == 0

    def test_permutation_over_receivers(self, eight):
        topo, _, nbrs = eight
        for sender in topo.nodes():
            for intended in neighbors(topo, sender):
                receivers = sorted(neighbors(topo, sender))
                indices = [priority_index(r, sender, intended, nbrs)
                           for r in receivers]
                assert sorted(indices) == list(range(len(receivers)))
                assert priority_index(intended, sender, intended, nbrs) == 0

    def test_absent_receiver_faults(self, eight):
        _, _, nbrs = eight
        with pytest.raises(ValueError):
            priority_index(4, 1, 2, nbrs)  # 4 does not hear node 1


class TestTimers:
    def test_hold_linear(self):
        t = TimerParams(ack_slot=0.002, base_timeout=0.005)
        assert helper_hold_time(1, t) == pytest.approx(0.002)
        assert helper_hold_time(3, t) == pytest.approx(0.006)
        for i in range(1, 8):
            assert (helper_hold_time(i + 1, t) - helper_hold_time(i, t)
                    == pytest.approx(t.ack_slot))

    def test_hold_rejects_intended(self):
        with pytest.raises(ValueError):
            helper_hold_time(0, TimerParams())

    def test_sender_timeout_formulas(self):
        t = TimerParams(ack_slot=0.002, base_timeout=0.005)
        assert sender_timeout(Protocol.FLEXONC, 2, 4, t) == pytest.approx(0.013)
        assert sender_timeout(Protocol.BEND, 2, 4, t) == pytest.approx(0.010)
        assert sender_timeout(Protocol.COPE, 3, 4, t) == pytest.approx(0.015)
        for proto in Protocol:
            assert sender_timeout(proto, 1, 4, t) == pytest.approx(0.005)

    @given(st.integers(1, 8))
    def test_flexonc_wait_covers_every_helper(self, deg):
        # No helper's hold plus one ACK airtime may outlast the sender wait.
        t = TimerParams()
        wait = sender_timeout(Protocol.FLEXONC, 2, deg, t)
        ack_air = 14 * 8 / 1e6
        worst_hold = helper_hold_time(deg - 1, t) if deg > 1 else 0.0
        assert worst_hold + ack_air < wait

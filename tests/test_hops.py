"""Sendable hop sets: the hops each node can ever address a packet to, which
bound the neighbors whose knowledge it keeps."""
import pytest
from hypothesis import HealthCheck, given, settings

from meshnc import (
    Flow,
    Protocol,
    Simulation,
    Topology,
    build_forwarding_tables,
    parse_config,
)
from meshnc.routing import sendable_hops

from mesh_strategies import NO_SHRINK, RANGE, mesh_configs

# A line 0 - 1 - 2 with node 3 in range of all three: the route 0 -> 2 runs
# through 1 (lowest id of the two equally close), and 3 can stand in for 1.
DIAMOND = Topology({0: (0.0, 0.0), 1: (200.0, 0.0), 2: (400.0, 0.0),
                    3: (200.0, 150.0)}, RANGE)


class TestSendableHops:
    def hops(self, protocol, flows=(Flow(0, 2, 0.1, 1.0),)):
        tables = build_forwarding_tables(DIAMOND, DIAMOND.nodes())
        return sendable_hops(DIAMOND, tables, flows, protocol)

    @pytest.mark.parametrize("protocol", [Protocol.PLAIN, Protocol.COPE])
    def test_without_helpers_a_node_sends_to_its_route_successors(
            self, protocol):
        assert self.hops(protocol) == {
            0: {1}, 1: {2}, 2: set(), 3: set()}

    @pytest.mark.parametrize("protocol", [Protocol.BEND, Protocol.FLEXONC])
    def test_helpers_send_onward_for_the_chain_nodes_they_neighbour(
            self, protocol):
        # 3 stands in for 1 (onward 2, its neighbor), and 1 and 3 for the
        # destination 2 itself; 0 cannot reach 2, so it helps nobody.
        assert self.hops(protocol) == {
            0: {1}, 1: {2}, 2: set(), 3: {2}}

    def test_reverse_flow_adds_its_own_chain(self):
        hops = self.hops(Protocol.FLEXONC,
                         (Flow(0, 2, 0.1, 1.0), Flow(2, 0, 0.1, 1.0)))
        # 2 -> 0 runs 2 -> 1 -> 0; 3 stands in for 1 (onward 0) and,
        # with 1, for the destination 0.
        assert hops == {0: {1}, 1: {0, 2}, 2: {1}, 3: {0, 2}}

    @pytest.mark.parametrize("flow, message", [
        (Flow(0, 9, 0.1, 1.0), "not in topology"),
        (Flow(1, 1, 0.1, 1.0), "equals destination"),
        (Flow(0, 2, 0.1, 1.0), "no route"),
    ])
    def test_rejects_what_check_flows_rejects(self, flow, message):
        topo = Topology({0: (0.0, 0.0), 1: (200.0, 0.0), 2: (1000.0, 0.0)})
        tables = build_forwarding_tables(topo, topo.nodes())
        with pytest.raises(ValueError, match=message):
            sendable_hops(topo, tables, (Flow(0, 1, 0.1, 1.0), flow),
                          Protocol.FLEXONC)


def watch_sends(sim, sent):
    """Wrap every node's transmit choice: each component of each frame it
    sends must be addressed to a hop in the node's set."""
    for node in sim.nodes.values():
        def checked(now, node=node, select=node.select_transmission):
            intent = select(now)
            if intent is not None:
                for native in intent.natives:
                    assert native.next_hop in node.hops, (
                        f"node {node.node_id} sent {native.id} to "
                        f"{native.next_hop}, outside {sorted(node.hops)}")
                sent.append(len(intent.natives))
            return intent
        node.select_transmission = checked


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow],
          phases=NO_SHRINK)
@given(text=mesh_configs())
def test_every_sent_hop_and_knowledge_read_is_in_the_hop_set(text):
    """The hop-set argument, checked on random meshes: no frame component
    leaves for a hop outside its sender's set, and no knowledge read (which
    raises KeyError outside the set) fails during the run."""
    cfg = parse_config(text)
    topo = cfg.topology()
    # Connected by construction: one BFS from node 0 reaches every node.
    seen, frontier = {0}, [0]
    while frontier:
        for m in topo.adjacency()[frontier.pop()] - seen:
            seen.add(m)
            frontier.append(m)
    assert seen == set(topo.nodes())
    (ber,), (seed,) = cfg.bers, cfg.seeds
    for protocol in cfg.protocols:
        sim = Simulation(cfg.scenario(protocol, ber), seed)
        sent: list[int] = []
        watch_sends(sim, sent)
        sim.run()
        assert sent, "no frame was sent, so nothing was checked"

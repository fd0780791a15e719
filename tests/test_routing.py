"""Shortest-path tables, neighbor copies and flow checks."""
from collections import deque

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from meshnc import (
    Flow,
    RoutingError,
    Topology,
    build_forwarding_tables,
    build_topology,
    grid_id,
    neighbor_next_hop,
    neighbors,
    next_hop,
    parse_config,
)
from meshnc.routing import check_flows

from mesh_strategies import mesh_configs


def bfs_distances(topo, dst):
    """Independent oracle: plain BFS hop counts toward dst."""
    adj = topo.adjacency()
    dist = {dst: 0}
    frontier = deque([dst])
    while frontier:
        u = frontier.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                frontier.append(v)
    return dist


@pytest.fixture(scope="module")
def eight():
    topo = build_topology("eight_node")
    return topo, build_forwarding_tables(topo, topo.nodes())


@pytest.fixture(scope="module", params=["x_topo", "eight_node", "grid5"])
def any_topo(request):
    topo = build_topology(request.param)
    return topo, build_forwarding_tables(topo, topo.nodes())


class TestBuildTables:
    def test_eight_node_chain_route(self, eight):
        topo, t = eight
        path = [0]
        while path[-1] != 4:
            path.append(next_hop(t, path[-1], 4))
        assert path == [0, 1, 2, 3, 4]

    def test_grid_corner_route(self):
        topo = build_topology("grid5")
        t = build_forwarding_tables(topo, topo.nodes())
        src, dst = grid_id(0, 0), grid_id(4, 0)
        assert next_hop(t, src, dst) == grid_id(1, 0)
        hops, n = 0, src
        while n != dst:
            n = next_hop(t, n, dst)
            hops += 1
        assert hops == 4

    def test_hop_counts_equal_bfs(self, any_topo):
        topo, t = any_topo
        for dst in topo.nodes():
            dist = bfs_distances(topo, dst)
            for n in topo.nodes():
                if n == dst:
                    continue
                steps, cur = 0, n
                while cur != dst:
                    cur = next_hop(t, cur, dst)
                    steps += 1
                    assert steps <= len(topo.nodes())  # no loops
                assert steps == dist[n]
                assert t.hop_count(n, dst) == dist[n]

    def test_tie_break_lowest_id(self, eight):
        topo, t = eight
        # 6 -> 4 is two hops via either 3 or 7; lowest id wins.
        assert next_hop(t, 6, 4) == 3

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 1000)),
                    min_size=1, max_size=20))
    def test_next_hop_is_lowest_id_neighbor_one_hop_closer(self, points):
        # Random points with a 300 m range: some meshes split, some tie.
        topo = Topology({i: (float(x), float(y))
                         for i, (x, y) in enumerate(points)}, 300.0)
        t = build_forwarding_tables(topo, topo.nodes())
        adj = topo.adjacency()
        for dst in topo.nodes():
            dist = bfs_distances(topo, dst)
            for n in topo.nodes():
                if n == dst or n not in dist:
                    assert dst not in t.own[n] and dst not in t.hops[n]
                    continue
                assert t.own[n][dst] == min(
                    m for m in adj[n] if dist.get(m) == dist[n] - 1)
                assert t.hops[n][dst] == dist[n]

    def test_next_hop_is_neighbor(self, any_topo):
        topo, t = any_topo
        for n in topo.nodes():
            for dst, nh in t.own[n].items():
                assert nh in neighbors(topo, n)


class TestNextHop:
    def test_paper_example(self, eight):
        _, t = eight
        assert next_hop(t, 1, 4) == 2

    def test_adjacent_destination(self, eight):
        _, t = eight
        assert next_hop(t, 3, 4) == 4

    def test_missing_entry_faults(self):
        topo = build_topology("x_topo")
        t = build_forwarding_tables(topo, topo.nodes())
        with pytest.raises(RoutingError):
            next_hop(t, 0, 17)


class TestNeighborNextHop:
    def test_paper_example(self, eight):
        _, t = eight
        assert neighbor_next_hop(t, 6, 2, 4) == 3

    def test_derived_example(self, eight):
        _, t = eight
        assert neighbor_next_hop(t, 5, 1, 4) == next_hop(t, 1, 4) == 2

    def test_non_neighbor_faults(self, eight):
        _, t = eight
        with pytest.raises(RoutingError):
            neighbor_next_hop(t, 0, 3, 4)  # 3 is not a neighbor of 0

    def test_consistency_exhaustive(self, any_topo):
        topo, t = any_topo
        for n in topo.nodes():
            for m in neighbors(topo, n):
                for dst in topo.nodes():
                    if dst == m:
                        continue
                    if dst in t.own[m]:
                        assert neighbor_next_hop(t, n, m, dst) == next_hop(t, m, dst)


class TestCheckFlows:
    @pytest.mark.parametrize("flow, message", [
        (Flow(0, 9, 0.1, 1.0), "not in topology"),
        (Flow(1, 1, 0.1, 1.0), "equals destination"),
        (Flow(0, 2, 0.1, 1.0), "no route"),
    ])
    def test_rejects_unroutable_flow(self, flow, message):
        topo = Topology({0: (0.0, 0.0), 1: (200.0, 0.0), 2: (1000.0, 0.0)})
        tables = build_forwarding_tables(topo, topo.nodes())
        check_flows(topo, tables, (Flow(0, 1, 0.1, 1.0),))
        with pytest.raises(ValueError, match=message):
            check_flows(topo, tables, (Flow(0, 1, 0.1, 1.0), flow))


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=mesh_configs())
def test_a_chain_neighbour_reads_the_chain_nodes_next_hop(text):
    """What both helping protocols rest on. For every node c on a flow's
    route chain short of its destination, and every neighbour h of c, h's
    copy of c's table names c's own next hop, and h has a route to the
    destination: a helper standing in for c reads the hop that a header
    stamped by c's upstream would carry, and its hop count is defined."""
    cfg = parse_config(text)
    topo = cfg.topology()
    tables = build_forwarding_tables(topo, {fl.dst for fl in cfg.flows})
    adj = topo.adjacency()
    for fl in cfg.flows:
        c = fl.src
        while c != fl.dst:
            succ = next_hop(tables, c, fl.dst)
            for h in adj[c]:
                assert neighbor_next_hop(tables, h, c, fl.dst) == succ
                assert abs(tables.hop_count(h, fl.dst)
                           - tables.hop_count(c, fl.dst)) <= 1
            c = succ

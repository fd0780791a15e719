"""Metamorphic oracles: a run must not depend on the values of node ids or
on where the mesh sits, only on its shape.

Two transformations of a stock cell must leave every `Metrics` field
identical: an order-preserving relabelling of the node ids, and a
translation of every coordinate. The translation is by whole metres, and
every stock coordinate is a whole number of metres, so the shifted
coordinates and their differences are exact in floating point and every
distance, and so every link, is the same. A fractional shift could round a
difference by one ulp and move a pair at exactly the range across it.
"""
import pytest

from meshnc import (
    Flow,
    Protocol,
    Scenario,
    Topology,
    build_topology,
    default_flows,
    run,
)

BER = 1e-4
SEED = 1
FLOW_SECONDS = 10.0
RELABEL = 1000
SHIFT = (1000.0, 2000.0)


def cell(topo, protocol, flows):
    return Scenario("metamorphic", topo, protocol, BER, tuple(flows))


@pytest.mark.parametrize("protocol", list(Protocol),
                         ids=lambda p: p.name.lower())
@pytest.mark.parametrize("kind", ["eight_node", "grid5"])
def test_relabelled_and_translated_meshes_run_alike(kind, protocol):
    topo = build_topology(kind)
    assert all(c == int(c) for xy in topo.positions.values() for c in xy)
    flows = [Flow(f.src, f.dst, f.interval, FLOW_SECONDS)
             for f in default_flows(kind)]
    base = run(cell(topo, protocol, flows), SEED)
    assert sum(base.delivered_count.values()) > 0

    relabelled = Topology({n + RELABEL: xy
                           for n, xy in topo.positions.items()}, topo.range_m)
    moved = [Flow(f.src + RELABEL, f.dst + RELABEL, f.interval, f.duration)
             for f in flows]
    assert run(cell(relabelled, protocol, moved), SEED) == base

    dx, dy = SHIFT
    shifted = Topology({n: (x + dx, y + dy)
                        for n, (x, y) in topo.positions.items()},
                       topo.range_m)
    assert run(cell(shifted, protocol, flows), SEED) == base

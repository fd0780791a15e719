"""Metamorphic oracles: a run must not depend on the values of node ids or
on where the mesh sits, only on its shape.

Two transformations of a cell must leave every `Metrics` field identical:
an order-preserving relabelling of the node ids, and a translation of every
coordinate. The translation is by whole metres, and every stock coordinate
and every coordinate `mesh_configs` draws is a whole number of metres, so
the shifted coordinates and their differences are exact in floating point
and every distance, and so every link, is the same. A fractional shift
could round a difference by one ulp and move a pair at exactly the range
across it. Fields are compared as `vars()`, so a failure names them.
"""
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from meshnc import (
    Flow,
    Protocol,
    Scenario,
    Topology,
    build_topology,
    default_flows,
    parse_config,
    run,
)

from mesh_strategies import NO_SHRINK, mesh_configs

BER = 1e-4
SEED = 1
FLOW_SECONDS = 10.0
RANDOM_FLOW_SECONDS = 3.0
RELABEL = 1000
SHIFT = (1000, 2000)


def cell(topo, protocol, flows, ber=BER):
    return Scenario("metamorphic", topo, protocol, ber, tuple(flows))


def relabelled(topo, flows):
    """The mesh and flows with every node id raised by RELABEL."""
    return (Topology({n + RELABEL: xy for n, xy in topo.positions.items()},
                     topo.range_m),
            [Flow(f.src + RELABEL, f.dst + RELABEL, f.interval, f.duration)
             for f in flows])


def shifted(topo, dx, dy):
    return Topology({n: (x + dx, y + dy)
                     for n, (x, y) in topo.positions.items()}, topo.range_m)


def assert_runs_alike(topo, flows, protocol, seed, dx, dy, ber=BER):
    base = vars(run(cell(topo, protocol, flows, ber), seed))
    topo_r, flows_r = relabelled(topo, flows)
    assert vars(run(cell(topo_r, protocol, flows_r, ber), seed)) == base
    assert vars(run(cell(shifted(topo, dx, dy), protocol, flows, ber),
                    seed)) == base
    return base


@pytest.mark.parametrize("protocol", list(Protocol),
                         ids=lambda p: p.name.lower())
@pytest.mark.parametrize("kind", ["eight_node", "grid5"])
def test_relabelled_and_translated_meshes_run_alike(kind, protocol):
    topo = build_topology(kind)
    assert all(c == int(c) for xy in topo.positions.values() for c in xy)
    flows = [Flow(f.src, f.dst, f.interval, FLOW_SECONDS)
             for f in default_flows(kind)]
    base = assert_runs_alike(topo, flows, protocol, SEED, *SHIFT)
    assert sum(base["delivered_count"].values()) > 0


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow],
          phases=NO_SHRINK)
@given(text=mesh_configs(), dx=st.integers(-5000, 5000),
       dy=st.integers(-5000, 5000))
def test_random_meshes_run_alike_relabelled_and_translated(text, dx, dy):
    """Every protocol on a random mesh, at the config's BER and seed, with
    its flows cut short."""
    cfg = parse_config(text)
    topo = cfg.topology()
    assert all(c == int(c) for xy in topo.positions.values() for c in xy)
    flows = [Flow(f.src, f.dst, f.interval, RANDOM_FLOW_SECONDS)
             for f in cfg.flows]
    (ber,), (seed,) = cfg.bers, cfg.seeds
    for protocol in Protocol:
        base = assert_runs_alike(topo, flows, protocol, seed, dx, dy, ber)
        assert sum(base["generated_count"].values()) > 0

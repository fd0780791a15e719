"""What a sweep builds once and shares: one topology per config, routing
tables toward the flow destinations only, and an import of meshnc that
stays light."""
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings

import meshnc
import meshnc.config
import meshnc.engine
from meshnc import (
    Simulation,
    Topology,
    build_forwarding_tables,
    neighbor_next_hop,
    next_hop,
    parse_config,
    run_sweep,
)
from meshnc.routing import RoutingError, sendable_hops

from mesh_strategies import mesh_configs

SWEEP = """
topology = grid5
protocols = plain, cope, flexonc
bers = 2e-6, 1e-4
seeds = 1, 2
flow = 0, 4, 0.1, 2
flow = 9, 5, 0.1, 2
flow = 21, 1, 0.1, 2
"""


def lookup(fn, *args):
    """A table read, or the RoutingError it raises, as a comparable value."""
    try:
        return fn(*args)
    except RoutingError:
        return RoutingError


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=mesh_configs())
def test_destination_tables_equal_the_full_tables_toward_them(text):
    """Every read toward a flow destination (next hop, a neighbour's next
    hop, hop count) answers the same from the destination-only tables as
    from the full ones, and the former hold nothing toward other nodes."""
    cfg = parse_config(text)
    topo = cfg.topology()
    dsts = {fl.dst for fl in cfg.flows}
    part = build_forwarding_tables(topo, dsts)
    full = build_forwarding_tables(topo, topo.nodes())
    for n in topo.nodes():
        assert set(part.own[n]) == set(full.own[n]) & dsts
        assert set(part.hops[n]) == set(full.hops[n]) & dsts
        for d in dsts:
            assert lookup(next_hop, part, n, d) == lookup(next_hop, full, n, d)
            assert (lookup(part.hop_count, n, d)
                    == lookup(full.hop_count, n, d))
            for m in topo.adjacency()[n]:
                assert (lookup(neighbor_next_hop, part, n, m, d)
                        == lookup(neighbor_next_hop, full, n, m, d))
    for protocol in cfg.protocols:
        assert (sendable_hops(topo, part, cfg.flows, protocol)
                == sendable_hops(topo, full, cfg.flows, protocol))


def test_a_destination_outside_the_topology_gets_no_routes():
    topo = Topology({0: (0.0, 0.0), 1: (200.0, 0.0)})
    tables = build_forwarding_tables(topo, [1, 9])
    assert tables.own == {0: {1: 1}, 1: {}}
    assert tables.hops == {0: {1: 1}, 1: {}}


def test_the_cells_of_a_config_share_one_topology_and_one_build(
        monkeypatch):
    builds = []
    for module in (meshnc.config, meshnc.engine):
        def counted(topo, dsts, build=module.build_forwarding_tables,
                    name=module.__name__):
            builds.append(name)
            return build(topo, dsts)
        monkeypatch.setattr(module, "build_forwarding_tables", counted)
    cfg = parse_config(SWEEP)
    topo = cfg.topology()
    sims = [Simulation(cfg.scenario(p, ber), seed) for p in cfg.protocols
            for ber in cfg.bers for seed in cfg.seeds]
    assert len(sims) == 12
    assert all(sim.topo is topo for sim in sims)
    assert all(sim.tables is sims[0].tables for sim in sims)
    run_sweep(cfg)
    assert builds == ["meshnc.config"]


def test_a_sweep_leaves_the_shared_topology_and_tables_as_built():
    cfg = parse_config(SWEEP)
    topo = cfg.topology()
    dsts = {fl.dst for fl in cfg.flows}
    (tables,) = topo.routes.values()
    run_sweep(cfg)
    fresh = Topology(topo.positions, topo.range_m)
    assert topo.positions == fresh.positions
    assert topo.adjacency() == fresh.adjacency()
    assert topo._sorted_adj == fresh._sorted_adj
    assert list(topo.routes) == [frozenset(dsts)]
    assert topo.routes[frozenset(dsts)] is tables
    assert tables == build_forwarding_tables(fresh, dsts)


@pytest.mark.parametrize("module", ["dataclasses", "inspect"])
def test_importing_meshnc_loads_no(module):
    # Importing dataclasses (and the inspect it pulls in) and decorating
    # classes with it cost more CPU than the rest of the import.
    code = ("import sys; before = set(sys.modules); import meshnc; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    src = os.path.dirname(os.path.dirname(meshnc.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=src))
    added = out.stdout.split()
    assert "meshnc.engine" in added
    assert module not in added

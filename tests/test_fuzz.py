"""Random valid meshes under a random stream rounded to eighths.

Stock runs never draw two equal backoffs, so the collision branch of the
MAC (tied winners, receivers jammed by another transmitter) runs only under
a rigged stream. `CoarseRandom` from tools/samebytes.py rounds every draw
to an eighth, which ties many grants, and it also returns exactly 1.0, the
top of the backoff window. Each derandomized `mesh_configs` mesh runs every
protocol at the config's BER and seed, with its flows cut short, and must:
- finish without an exception (a `SchedulerOverflow` included);
- give the same `Metrics` fields when run again with the same seed;
- account for every lost payload with a drop: generated - delivered -
  held <= the loss drops, the one-sided check of
  `tests/test_engine.py::TestConservation`, as drop counters count copies.

`wide_mesh_configs` meshes (3-30 nodes, 1-6 flows, any knobs a config may
set) run every protocol under the stock stream and must do the same, and
also keep each node's queue index equal to its queues.
"""
from hypothesis import HealthCheck, given, settings

from meshnc import (Flow, PayloadId, Protocol, Scenario, Simulation,
                    parse_config, run)

from mesh_strategies import NO_SHRINK, mesh_configs, wide_mesh_configs
from test_tools import samebytes

FLOW_SECONDS = 3.0
WIDE_EXAMPLES = 150
LOSS_DROPS = ("retries_exhausted", "queue_overflow", "helper_queue_full")


def coarse_run(scenario, seed):
    sim = Simulation(scenario, seed)
    sim.rng = samebytes.CoarseRandom(seed)
    return sim, sim.run()


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow],
          phases=NO_SHRINK)
@given(text=mesh_configs())
def test_random_meshes_survive_coarse_backoffs(text):
    cfg = parse_config(text)
    topo = cfg.topology()
    flows = tuple(Flow(f.src, f.dst, f.interval, FLOW_SECONDS)
                  for f in cfg.flows)
    (ber,), (seed,) = cfg.bers, cfg.seeds
    for protocol in Protocol:
        scenario = Scenario("fuzz", topo, protocol, ber, flows)
        sim, m = coarse_run(scenario, seed)
        assert vars(coarse_run(scenario, seed)[1]) == vars(m), protocol
        generated = {PayloadId(flow, k)
                     for flow, n in m.generated_count.items()
                     for k in range(n)}
        assert generated, protocol
        delivered = set().union(*(n.delivered for n in sim.nodes.values()))
        lost = generated - delivered - sim.held_payloads()
        dropped = sum(m.drops[reason] for reason in LOSS_DROPS)
        assert len(lost) <= dropped, (
            f"{protocol.name}: {len(lost)} payloads lost but {dropped} "
            f"drops counted; first lost: {sorted(lost)[:5]}")


@settings(max_examples=WIDE_EXAMPLES, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow],
          phases=NO_SHRINK)
@given(text=wide_mesh_configs())
def test_wide_random_configs_survive(text):
    # The queue-index audit is the one tests/test_engine.py::TestConservation
    # makes on the stock flows.
    cfg = parse_config(text)
    (ber,), (seed,) = cfg.bers, cfg.seeds
    for protocol in cfg.protocols:
        scenario = cfg.scenario(protocol, ber)
        sim = Simulation(scenario, seed)
        m = sim.run()
        assert vars(run(scenario, seed)) == vars(m), protocol
        for nid, node in sim.nodes.items():
            queued = [e.pkt.id for e in node.q1] + list(node.q2)
            queued += [n.id for mix in node.mixing_q for n in mix]
            assert len(queued) == len(set(queued)), (protocol, nid)
            assert node._queued == set(queued), (protocol, nid)
        generated = {PayloadId(flow, k)
                     for flow, n in m.generated_count.items()
                     for k in range(n)}
        delivered = set().union(*(n.delivered for n in sim.nodes.values()))
        lost = generated - delivered - sim.held_payloads()
        dropped = sum(m.drops[reason] for reason in LOSS_DROPS)
        assert len(lost) <= dropped, (
            f"{protocol.name}: {len(lost)} payloads lost but {dropped} "
            f"drops counted; first lost: {sorted(lost)[:5]}")

"""Hypothesis strategies shared by the tests that run random meshes."""
import math

from hypothesis import Phase
from hypothesis import strategies as st

from meshnc import SimParams

RANGE = 250.0

# The phases of a test that runs whole simulations per example: every phase
# but shrinking, which can take many minutes over such examples. A failure
# then reports the example it was found on, in seconds.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


def grown_positions(draw, n):
    """`n` whole-metre positions, each node after the first drawn 60-240 m
    from a random earlier one, so the mesh is connected."""
    pos = [(0, 0)]
    for k in range(1, n):
        x, y = pos[draw(st.integers(0, k - 1))]
        angle = math.radians(draw(st.integers(0, 359)))
        dist = draw(st.integers(60, 240))
        pos.append((round(x + dist * math.cos(angle)),
                    round(y + dist * math.sin(angle))))
    return pos


def flow_pairs(n):
    """(src, dst) pairs of distinct nodes among `n`."""
    return st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])


@st.composite
def mesh_configs(draw):
    """Config text for a connected explicit topology of 3-12 nodes: each
    node after the first sits within range of an earlier one. Random flows
    between distinct nodes, one BER in [0, 3e-4], one seed.

    Coordinates are whole metres, so a translation by whole metres keeps
    every difference, and so every link, exact (tests/test_metamorphic.py).
    A node is drawn at most 240 m from an earlier one and rounding moves
    it under a metre, so it stays in range of that node."""
    n = draw(st.integers(3, 12))
    pos = grown_positions(draw, n)
    flows = draw(st.lists(flow_pairs(n), min_size=1, max_size=4))
    interval = draw(st.sampled_from([0.02, 0.05, 0.1]))
    ber = draw(st.floats(0.0, 3e-4))
    seed = draw(st.integers(1, 1000))
    lines = ["name = hops", "protocols = cope, bend, flexonc",
             f"bers = {ber!r}", f"seeds = {seed}", f"range = {RANGE}"]
    lines += [f"node = {i}, {x}, {y}" for i, (x, y) in enumerate(pos)]
    lines += [f"flow = {s}, {d}, {interval}, 5" for s, d in flows]
    return "\n".join(lines) + "\n"


# The knobs a config may override, each drawn from a band around its
# default (in brackets). Counts may be 0. `ack_stagger` is set apart below.
KNOB_BANDS = {
    "ack_slot": st.floats(0.001, 0.005),           # [0.002]
    "base_timeout": st.floats(0.002, 0.02),        # [0.005]
    "data_rate": st.floats(5e5, 2e6),              # [1e6]
    "pool_ttl": st.floats(0.1, 20.0),              # [10]
    "pairing_hold": st.floats(0.001, 0.05),        # [0.015]
    "drain_grace": st.floats(0.1, 2.0),            # [1]
    "turnaround": st.floats(2e-6, 50e-6),          # [10e-6]
    "slot_time": st.floats(5e-6, 50e-6),           # [20e-6]
    "payload_size": st.integers(100, 1500),        # [1000]
    "retry_limit": st.integers(0, 8),              # [4]
    "queue_cap": st.integers(0, 128),              # [64]
    "ack_cache_cap": st.integers(0, 128),          # [64]
    "max_cope_components": st.integers(0, 8),      # [4]
}
KNOBS = (*KNOB_BANDS, "ack_stagger")  # [300e-6]


@st.composite
def wide_mesh_configs(draw):
    """Config text for a connected explicit topology of 3-30 nodes, grown
    as `mesh_configs` grows them, with 1-6 flows of 2 s, all four
    protocols, one BER in [0, 3e-4], one seed and a random subset of the
    14 knobs a config may override.

    `ack_stagger` must stay well below `ack_slot` (see `SimParams`): it is
    drawn, or set when its default is not, so that the last intended ACK
    of the widest coded frame comes within half an ack slot."""
    n = draw(st.integers(3, 30))
    pos = grown_positions(draw, n)
    flows = draw(st.lists(flow_pairs(n), min_size=1, max_size=6))
    interval = draw(st.sampled_from([0.02, 0.05, 0.1]))
    ber = draw(st.floats(0.0, 3e-4))
    seed = draw(st.integers(1, 1000))
    chosen = draw(st.sets(st.sampled_from(KNOBS)))
    knobs = {k: draw(KNOB_BANDS[k]) for k in KNOB_BANDS if k in chosen}
    stock = SimParams()
    slot = knobs.get("ack_slot", stock.timers.ack_slot)
    gaps = max(2, knobs.get("max_cope_components",
                            stock.max_cope_components)) - 1
    if "ack_stagger" in chosen or gaps * stock.ack_stagger > slot / 2:
        knobs["ack_stagger"] = slot / 2 / gaps * draw(st.floats(0.05, 1.0))
    lines = ["name = wide", "protocols = plain, cope, bend, flexonc",
             f"bers = {ber!r}", f"seeds = {seed}", f"range = {RANGE}"]
    lines += [f"{k} = {v!r}" for k, v in knobs.items()]
    lines += [f"node = {i}, {x}, {y}" for i, (x, y) in enumerate(pos)]
    lines += [f"flow = {s}, {d}, {interval}, 2" for s, d in flows]
    return "\n".join(lines) + "\n"

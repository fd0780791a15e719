"""Hypothesis strategies shared by the tests that run random meshes."""
import math

from hypothesis import strategies as st

RANGE = 250.0


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
    pos = [(0, 0)]
    for k in range(1, n):
        x, y = pos[draw(st.integers(0, k - 1))]
        angle = math.radians(draw(st.integers(0, 359)))
        dist = draw(st.integers(60, 240))
        pos.append((round(x + dist * math.cos(angle)),
                    round(y + dist * math.sin(angle))))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    flows = draw(st.lists(pairs, min_size=1, max_size=4))
    interval = draw(st.sampled_from([0.02, 0.05, 0.1]))
    ber = draw(st.floats(0.0, 3e-4))
    seed = draw(st.integers(1, 1000))
    lines = ["name = hops", "protocols = cope, bend, flexonc",
             f"bers = {ber!r}", f"seeds = {seed}", f"range = {RANGE}"]
    lines += [f"node = {i}, {x}, {y}" for i, (x, y) in enumerate(pos)]
    lines += [f"flow = {s}, {d}, {interval}, 5" for s, d in flows]
    return "\n".join(lines) + "\n"

"""Stock topologies and their default traffic patterns.

Each kind is a layout (range 250 m, 150 m pitch) and its default flows:

x_topo: two sources out of mutual range, one relay, two destinations, each
destination overhearing the opposite source — the canonical crossed-flows
coding-gain layout.

eight_node: a five-node chain N0..N4 with three off-chain nodes N5..N7
placed so N1 hears exactly {N0,N2,N5,N6}, N6 reaches both N2 and N3, N5
does not reach N3, and N0 does not reach N2.

grid5: 25 nodes, orthogonal and diagonal links only.
"""
from __future__ import annotations

from .channel import Topology
from .params import Flow

GRID_N = 5
GRID_PITCH = 150.0


def grid_id(row: int, col: int) -> int:
    return row * GRID_N + col


# kind -> (node positions, default flows)
_STOCK = {
    "x_topo": ({
        0: (0.0, 200.0),    # source of flow A
        1: (300.0, 200.0),  # source of flow B
        2: (150.0, 100.0),  # relay
        3: (300.0, 0.0),    # destination of flow A, overhears node 1
        4: (0.0, 0.0),      # destination of flow B, overhears node 0
    }, (Flow(0, 3, 0.07, 150.0), Flow(1, 4, 0.07, 150.0))),
    "eight_node": ({
        0: (0.0, 0.0),
        1: (150.0, 0.0),
        2: (300.0, 0.0),
        3: (450.0, 0.0),
        4: (600.0, 0.0),
        5: (150.0, 150.0),
        6: (300.0, 150.0),
        7: (450.0, 150.0),
    }, (Flow(0, 4, 0.07, 150.0), Flow(4, 0, 0.07, 150.0))),
    "grid5": ({grid_id(r, c): (c * GRID_PITCH, r * GRID_PITCH)
               for r in range(GRID_N) for c in range(GRID_N)},
              # Four column flows (columns 0-3, alternating direction
              # between the top and bottom rows), then four row flows
              # (rows 0-3) likewise.
              tuple(Flow(src, dst, 0.1, 100.0) for src, dst in (
                  (0, 20), (21, 1), (2, 22), (23, 3),
                  (0, 4), (9, 5), (10, 14), (19, 15)))),
}
TOPOLOGY_KINDS = tuple(_STOCK)


def _stock(kind: str):
    if kind not in _STOCK:
        raise ValueError(f"unknown topology kind: {kind!r}")
    return _STOCK[kind]


def build_topology(kind: str) -> Topology:
    """Construct one of the stock layouts."""
    return Topology(_stock(kind)[0])


def default_flows(kind: str) -> list[Flow]:
    return list(_stock(kind)[1])

"""Scale probe: what meshnc's set-up and event loop cost as the mesh grows.

    python3 tools/scaleprobe.py [--tree TREE]

It builds explicit k x k grids as config text (150 m pitch, 250 m range, so
orthogonal and diagonal links, like the stock grid5), with 4 row flows of
0.1 s interval and 10 s duration at BER 1e-4. For each size N = k*k of
25, 100, 196 and 400, and each of the four protocols, it runs one child
process that imports ``meshnc`` from ``TREE/src`` (this checkout by
default) and prints one row:

- ``parse_ms``: CPU ms of ``parse_config`` (topology, routing, flow check);
- ``init1_ms``, ``init2_ms``: CPU ms of ``Simulation.__init__`` for the
  first cell (seed 1) and a later one (seed 2) of the same sweep;
- ``builds2``: routing-table builds made while the later cell set up;
- ``us_event``: CPU µs per event of the first cell's run, uninstrumented;
- ``scan_grant``: nodes the grant scan reads per MAC grant, counted in a
  second run of that cell. The scan reads each node's queues in place
  (``Simulation._scan``), so this counts the entries it takes from there;
  ``NodeState.ready`` calls would miss them. In a tree without
  ``_scan``, whose scan polls ``ready``, it counts ``ready`` calls, which
  also take in the engine's other polls;
- ``rss_mb``: the child's peak resident set size.

Standard library only, and outside ``bench/``: it gates nothing. The
children run one at a time.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

PITCH = 150.0
FLOWS = 4
INTERVAL = 0.1
DURATION = 10.0
BER = 1e-4
SIZES = (25, 100, 196, 400)
PROTOCOLS = ("plain", "cope", "bend", "flexonc")
COLUMNS = ("N", "protocol", "parse_ms", "init1_ms", "init2_ms", "builds2",
           "us_event", "scan_grant", "events", "rss_mb")


def flow_rows(k: int) -> list[int]:
    """The grid rows that carry the flows, spread from the first row to the
    last."""
    return [round(i * (k - 1) / (FLOWS - 1)) for i in range(FLOWS)]


def grid_config(k: int, protocol: str, seeds=(1, 2)) -> str:
    """Config text for a k x k grid (node id row*k + col at x = col*PITCH,
    y = row*PITCH) with one flow along each of `flow_rows(k)`, end to end,
    alternating in direction."""
    lines = [f"name = grid{k}", f"protocols = {protocol}", f"bers = {BER!r}",
             f"seeds = {', '.join(map(str, seeds))}", "range = 250"]
    lines += [f"node = {r * k + c}, {c * PITCH}, {r * PITCH}"
              for r in range(k) for c in range(k)]
    for i, r in enumerate(flow_rows(k)):
        ends = (r * k, r * k + k - 1)
        src, dst = ends if i % 2 == 0 else ends[::-1]
        lines.append(f"flow = {src}, {dst}, {INTERVAL}, {DURATION}")
    return "\n".join(lines) + "\n"


def probe(k: int, protocol: str) -> dict:
    """One size and protocol, measured in this process."""
    import resource

    import meshnc.config as mconfig
    import meshnc.engine as mengine
    import meshnc.node as mnode

    counts = {"builds": 0, "scan": 0, "grants": 0}

    def counting(owner, attr, key):
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        setattr(owner, attr, counted)
        return lambda: setattr(owner, attr, original)

    undo = [counting(mconfig, "build_forwarding_tables", "builds"),
            counting(mengine, "build_forwarding_tables", "builds")]
    cpu = time.process_time
    t0 = cpu()
    cfg = mconfig.parse_config(grid_config(k, protocol))
    parse_s = cpu() - t0
    (proto,), (ber,) = cfg.protocols, cfg.bers
    t0 = cpu()
    first = mengine.Simulation(cfg.scenario(proto, ber), cfg.seeds[0])
    init1_s = cpu() - t0
    builds = counts["builds"]
    t0 = cpu()
    mengine.Simulation(cfg.scenario(proto, ber), cfg.seeds[1])
    init2_s = cpu() - t0
    builds2 = counts["builds"] - builds
    for restore in undo:
        restore()

    t0 = cpu()
    events = first.run().events
    run_s = cpu() - t0

    class CountedScan(tuple):
        def __iter__(self):
            for entry in tuple.__iter__(self):
                counts["scan"] += 1
                yield entry

    undo = [counting(mengine, "mac_grant", "grants")]
    sim = mengine.Simulation(cfg.scenario(proto, ber), cfg.seeds[0])
    if hasattr(sim, "_scan"):
        sim._scan = CountedScan(sim._scan)
    else:
        undo.append(counting(mnode.NodeState, "ready", "scan"))
    sim.run()
    for restore in undo:
        restore()
    return {
        "N": k * k, "protocol": protocol,
        "parse_ms": round(parse_s * 1e3, 2),
        "init1_ms": round(init1_s * 1e3, 2),
        "init2_ms": round(init2_s * 1e3, 2),
        "builds2": builds2,
        "us_event": round(run_s / max(events, 1) * 1e6, 2),
        "scan_grant": round(counts["scan"] / max(counts["grants"], 1), 2),
        "events": events,
        "rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, 1),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", type=Path, default=Path(__file__).resolve()
                    .parent.parent, help="source tree whose src/ to import")
    ap.add_argument("--one", nargs=2, metavar=("K", "PROTOCOL"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.one:
        print(json.dumps(probe(int(args.one[0]), args.one[1])))
        return 0
    env = dict(os.environ, PYTHONPATH=str(args.tree.resolve() / "src"))
    print("  ".join(f"{c:>11}" for c in COLUMNS))
    for n in SIZES:
        k = round(n ** 0.5)
        for protocol in PROTOCOLS:
            out = subprocess.run(
                [sys.executable, __file__, "--one", str(k), protocol],
                env=env, capture_output=True, text=True, timeout=900)
            if out.returncode != 0:
                sys.stderr.write(out.stderr)
                return out.returncode
            row = json.loads(out.stdout.strip().splitlines()[-1])
            print("  ".join(f"{row[c]:>11}" for c in COLUMNS), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Same-bytes audit: run the audit cells in one or two source trees and print
three sha256 digests: two over every `Metrics` field of every cell, one over
the stock and collision cells and one over the eviction cells, and a third
over the time and sequence number of every event the cells' engines pop, in
order, so that equal digests mean equal event order too. Then it prints the
same two kinds of digest for the knob cells, on lines of their own.

    python3 tools/samebytes.py TREE [TREE2]

The 174 audit cells are, first, eight_node and x_topo, each with 4 protocols
x 6 BERs x seeds 1-2, and grid5 with 4 protocols x {2e-6, 1e-4, 2e-4} x seeds
1-3, each on its topology's stock flows cut to 10 s. Then come 24 collision
cells: eight_node, x_topo and grid5, each with 4 protocols x seeds 1-2 at BER
1e-4, on the stock flows cut to 5 s, with the run's random stream rounded to
eighths (``CoarseRandom``). Stock runs never draw two equal backoffs, so only
these cells send colliding frames: each has tens to hundreds of tied grants,
and still delivers payloads. Last come 18 eviction cells: eight_node, x_topo
and grid5, each with cope, bend and flexonc x seeds 1-2 at BER 1e-4, on the
stock flows cut to 5 s, with ``pool_ttl = 0.2``. Each evicts hundreds of
pooled payloads, and most see a pool add evict a component of the coded
frame being peeled, which no earlier cell exercises: a reuse of a peeled
native that ignores such an eviction passes the first 156 cells but not
these.

The 18 knob cells come after the 174 audit cells: eight_node, x_topo and
grid5, each with cope, bend and flexonc x seeds 1-2 at BER 1e-4, on the
stock flows cut to 5 s, with ``ack_slot = 0.01`` and ``queue_cap = 4``. The
long helper hold lets fresh transmissions push armed helpers out
(``NodeState._refresh_helper``), and the short queues overflow when an
unacknowledged native returns to the head of q1 (the tail of
``NodeState._fire_pending``) or a helper fires into a full q1
(``helper_queue_full``): node branches that no audit cell reaches. Their
metrics digest and their event-order digest are printed on lines of their
own, so that the three audit digests read as without them.

Each tree runs in its own child process that imports ``meshnc`` from
``TREE/src``; only there is ``heapq.heappop`` wrapped to read event order.
The child also ends each cell's line with an ``event_order`` field, the
digest of that cell's events alone, which the metric digests leave out.
Given two trees, it also names the first cell whose metrics or event order
differ and the fields that differ there (``event_order`` for the latter),
and exits 1 if any do. After the digests it prints each tree's line count
(as ``wc -l`` counts) per ``src/meshnc/*.py`` module and in total, and,
given two trees, the modules whose count changed. Then it does the same for
code lines: those that are not blank, a comment alone or part of a
docstring, so that a size claim does not move with documentation.
Standard library only. One tree takes about 11 s on one core of a 2-vCPU host
with Python 3.11, and two trees run side by side.
"""
from __future__ import annotations

import ast
import hashlib
import heapq
import io
import os
import random
import struct
import subprocess
import sys
import tokenize
from pathlib import Path

SIX_BERS = (2e-6, 2e-5, 5e-5, 8e-5, 1e-4, 2e-4)
CELLS = (
    ("eight_node", SIX_BERS, (1, 2)),
    ("grid5", (2e-6, 1e-4, 2e-4), (1, 2, 3)),
    ("x_topo", SIX_BERS, (1, 2)),
)
FLOW_SECONDS = 10.0
COARSE_CELLS = (
    ("eight_node", (1e-4,), (1, 2)),
    ("x_topo", (1e-4,), (1, 2)),
    ("grid5", (1e-4,), (1, 2)),
)
COARSE_FLOW_SECONDS = 5.0
EVICT_CELLS = COARSE_CELLS
EVICT_FLOW_SECONDS = 5.0
EVICT_POOL_TTL = 0.2
KNOB_CELLS = COARSE_CELLS
KNOB_FLOW_SECONDS = 5.0
KNOB_ACK_SLOT = 0.01
KNOB_QUEUE_CAP = 4
# The cells of the first digest: the stock cells, then the collision cells.
FIRST_DIGEST_CELLS = 156
# The audit cells, after which come the knob cells.
AUDIT_CELLS = 174
# The field that ends each cell line from the child: its event-order digest.
EVENT_FIELD = "\tevent_order="


class CoarseRandom(random.Random):
    """A random stream rounded to eighths, so that contenders often draw
    the same backoff and their frames collide."""

    def random(self) -> float:
        return round(super().random() * 8) / 8


def cell_lines(cell_events=None, knobs: bool = False) -> list[str]:
    """One line per audit cell, or per knob cell if `knobs`: "kind protocol
    ber seed" (plus "coarse" for a collision cell, "evict" for an eviction
    cell and "knobs" for a knob cell) and then every `Metrics` field as
    name=value, counters as their sorted items, tab-separated. Given
    `cell_events`, a call that returns the digest of the events since its
    last call, each line ends with that digest."""
    from meshnc import (Flow, Protocol, Scenario, SimParams, Simulation,
                        TimerParams, build_topology, default_flows)
    stock, evict = SimParams(), SimParams(pool_ttl=EVICT_POOL_TTL)
    coding = tuple(p for p in Protocol if p != Protocol.PLAIN)
    blocks = (
        (CELLS, FLOW_SECONDS, tuple(Protocol), stock, ""),
        (COARSE_CELLS, COARSE_FLOW_SECONDS, tuple(Protocol), stock,
         " coarse"),
        (EVICT_CELLS, EVICT_FLOW_SECONDS, coding, evict, " evict"))
    if knobs:
        blocks = ((KNOB_CELLS, KNOB_FLOW_SECONDS, coding, SimParams(
            timers=TimerParams(ack_slot=KNOB_ACK_SLOT),
            queue_cap=KNOB_QUEUE_CAP), " knobs"),)
    lines = []
    for cells, seconds, protocols, params, tag in blocks:
        for kind, bers, seeds in cells:
            topo = build_topology(kind)
            flows = tuple(Flow(f.src, f.dst, f.interval, seconds)
                          for f in default_flows(kind))
            for protocol in protocols:
                for ber in bers:
                    scenario = Scenario(kind, topo, protocol, ber, flows,
                                        params)
                    for seed in seeds:
                        sim = Simulation(scenario, seed)
                        if tag == " coarse":
                            sim.rng = CoarseRandom(seed)
                        m = sim.run()
                        fields = [f"{kind} {protocol.name.lower()} {ber!r} "
                                  f"{seed}{tag}"]
                        # Every field in declaration order, as `Metrics`
                        # keeps them in its instance dict (a dataclass did
                        # too, so this reads older trees alike).
                        for name, value in vars(m).items():
                            if isinstance(value, dict):
                                value = sorted(value.items())
                            fields.append(f"{name}={value}")
                        line = "\t".join(fields)
                        if cell_events is not None:
                            line += f"{EVENT_FIELD}{cell_events()}"
                        lines.append(line)
    return lines


class EventOrder:
    """Two sha256 hashers fed alike: one over the events since
    `block_digest` was last called, and one over the events since
    `cell_digest` was last called."""

    def __init__(self):
        self.block, self.cell = hashlib.sha256(), hashlib.sha256()

    def update(self, chunk: bytes) -> None:
        self.block.update(chunk)
        self.cell.update(chunk)

    def block_digest(self) -> str:
        digest, self.block = self.block.hexdigest(), hashlib.sha256()
        return digest

    def cell_digest(self) -> str:
        digest, self.cell = self.cell.hexdigest(), hashlib.sha256()
        return digest


def record_event_order(hasher) -> None:
    """Feed `hasher` the (time, seq) of every item `heapq.heappop` returns,
    packed as a double and a 64-bit integer. The engine is the one caller
    of `heapq` in meshnc, so this reads the order its events are handled in.
    It patches `heapq` for the rest of the process: call it in the child."""
    pop, pack = heapq.heappop, struct.Struct("<dq").pack

    def recorded(heap):
        item = pop(heap)
        hasher.update(pack(item[0], item[1]))
        return item

    heapq.heappop = recorded


def start(tree: Path) -> subprocess.Popen:
    src = str(tree.resolve() / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.Popen([sys.executable, __file__, "--cells"], cwd=tree,
                            env=env, stdout=subprocess.PIPE, text=True)


def finish(tree: Path, proc: subprocess.Popen,
           ) -> tuple[list[str], tuple[str, ...]]:
    """The cell lines of one tree, audit cells then knob cells, and the
    event-order digests of the two blocks."""
    out, _ = proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(f"samebytes: the cells failed in {tree} "
                         f"with exit {proc.returncode}")
    lines, events = [], []
    for line in out.splitlines():
        if line.startswith("events "):
            events.append(line.removeprefix("events "))
        else:
            lines.append(line)
    return lines, tuple(events)


def first_difference(a: list[str], b: list[str]) -> str | None:
    for line_a, line_b in zip(a, b):
        if line_a != line_b:
            cell, *fields_a = line_a.split("\t")
            fields_b = line_b.split("\t")[1:]
            names = [fa.partition("=")[0]
                     for fa, fb in zip(fields_a, fields_b) if fa != fb]
            return f"{cell}: {', '.join(names) or 'cell names'} differ"
    if len(a) != len(b):
        return f"cell counts differ: {len(a)} against {len(b)}"
    return None


def metrics_digest(lines: list[str]) -> str:
    """The sha256 of `lines`, one per line, then their count."""
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
    return f"{digest}  {len(lines)}"


def line_counts(tree: Path) -> dict[str, int]:
    """The newline count of each ``src/meshnc/*.py`` module of `tree`, by
    file name."""
    return {path.name: path.read_bytes().count(b"\n")
            for path in sorted((tree / "src" / "meshnc").glob("*.py"))}


# Tokens that hold no code: what a blank or comment-only line is made of.
NO_CODE = frozenset((tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                     tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER))
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The lines of `source` that hold code: every line a token other than
    a comment spans, less those of module, class and function docstrings."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node) is not None:
            docstrings.add((node.body[0].lineno, node.body[0].col_offset))
    rows = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NO_CODE and not (
                tok.type == tokenize.STRING and tok.start in docstrings):
            rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows)


def code_line_counts(tree: Path) -> dict[str, int]:
    """`code_lines` of each ``src/meshnc/*.py`` module of `tree`, by file
    name."""
    return {path.name: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted((tree / "src" / "meshnc").glob("*.py"))}


def changed_counts(a: dict[str, int], b: dict[str, int]) -> str:
    """The modules whose count differs from `a` to `b`, as "name old → new"
    ("-" where a tree lacks the module), then the totals."""
    moved = [f"{name} {a.get(name, '-')} → {b.get(name, '-')}"
             for name in sorted(a.keys() | b.keys())
             if a.get(name) != b.get(name)]
    return ", ".join(moved + [f"total {sum(a.values())} → {sum(b.values())}"])


def main(argv: list[str]) -> int:
    if argv == ["--cells"]:
        events = EventOrder()
        record_event_order(events)
        for knobs in (False, True):
            print("\n".join(cell_lines(events.cell_digest, knobs)))
            print(f"events {events.block_digest()}")
        return 0
    if not 1 <= len(argv) <= 2 or any(a.startswith("-") for a in argv):
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    trees = [Path(a) for a in argv]
    procs = [start(tree) for tree in trees]
    results = [finish(tree, proc) for tree, proc in zip(trees, procs)]
    for tree, (lines, (events, knob_events)) in zip(trees, results):
        metrics = [line.partition(EVENT_FIELD)[0] for line in lines]
        print(f"{metrics_digest(metrics[:FIRST_DIGEST_CELLS])} cells  {tree}")
        print(f"{metrics_digest(metrics[FIRST_DIGEST_CELLS:AUDIT_CELLS])} "
              f"cells  {tree}")
        print(f"{events}  event order  {tree}")
        print(f"{metrics_digest(metrics[AUDIT_CELLS:])} knob cells  {tree}")
        print(f"{knob_events}  knob event order  {tree}")
    for unit, counter in (("lines", line_counts),
                          ("code lines", code_line_counts)):
        counts = [counter(tree) for tree in trees]
        for tree, count in zip(trees, counts):
            modules = ", ".join(f"{name} {n}" for name, n in count.items())
            print(f"{sum(count.values())} {unit}  {modules}  {tree}")
        if len(trees) == 2:
            print(f"{unit} changed: {changed_counts(*counts)}")
    if len(trees) == 2:
        (a, events_a), (b, events_b) = results
        diff = first_difference(a, b)
        if diff is None and events_a != events_b:
            diff = "event order differs"
        print("same bytes" if diff is None else f"first difference: {diff}")
        return int(diff is not None)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

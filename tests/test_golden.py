"""Golden output: two short sweeps whose runs.csv and gains.csv bytes are
pinned by sha256, and a third digest per sweep over every `Metrics` counter
of each cell.

A refactor that claims "same bytes" must leave every digest unchanged; a
deliberate model change must update them and say why in CHANGES.md. The two
sweeps go through the product path (parse_config -> run_sweep -> rows_to_csv)
and take about 8 s together on one core; the metrics digest re-runs the same
cells through `meshnc.run` and takes as long again.

runs.csv leaves out most counters: `events`, drops by reason, `corrupted`,
`duplicate_deliveries`, the generated counts. The metrics digest pins them
too, so a change that keeps runs.csv but adds or drops events (`events`
counts every event the heap hands out before the horizon) still shows. The
same reruns also pin the event order: a digest over the time and sequence
number of every event the engine pops, packed as tools/samebytes.py packs
them, so a change that handles the same events in another order shows too.
"""
import hashlib
import heapq
import struct

import pytest

from meshnc import gain_table, parse_config, run, run_sweep
from meshnc.cli import main
from meshnc.sweep import GAINS_HEADER, RUNS_HEADER, rows_to_csv

EIGHT_NODE = """
name = e8
topology = eight_node
protocols = plain, cope, bend, flexonc
bers = 2e-6, 5e-5, 2e-4
seeds = 1, 2
flow = 0, 4, 0.07, 10
flow = 4, 0, 0.07, 10
"""

# The stock grid5 src/dst pairs (four column flows, then four row flows).
GRID5 = """
name = g5
topology = grid5
protocols = plain, cope, bend, flexonc
bers = 2e-6, 1e-4
seeds = 1
""" + "".join(f"flow = {src}, {dst}, 0.1, 10\n" for src, dst in (
    (0, 20), (21, 1), (2, 22), (23, 3), (0, 4), (9, 5), (10, 14), (19, 15)))

GOLDEN = {
    "eight_node": (
        EIGHT_NODE,
        "5dd4a5bd056f213f280b3b22bebaf2b5e0df821b6aedb500cce3fa4b508acaf7",
        "a94ff54104f341d049377c826748c5efc4096edb0437f169d44b425f0bc1e2a4",
    ),
    "grid5": (
        GRID5,
        "fa5e3658c5e4f3a29edc4be94bae16814559ff3aac08d446389500ec8a48c48a",
        "ffbc3cfb2c6a9e0589779d234ab676275fc538829e560067678cf082b8fa1908",
    ),
}


# sha256 of `metrics_text` over every cell of each sweep above.
METRICS_GOLDEN = {
    "eight_node": "5b4e12de63c26c4f0c309e09cbdfa55958e10b99dc9ef69604ff248d31b380d9",
    "grid5": "43d09aafd9b67a1b30e25455c4ce2bd94b7c5e2ba84f1fb9e41a82c221e6fbb9",
}


# sha256 of the (time, seq) of every event popped during those reruns.
EVENT_ORDER_GOLDEN = {
    "eight_node": "dde9d5f12fbadce253f525f816786b5413009f0bf110c99283e8aef1dcfd426e",
    "grid5": "5bdf39375480b84a6fba92851d85f856b2eda2d23ad2f39d5f5a52a4d5b296d0",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_sweep_output_matches_pinned_digest(label):
    text, runs_digest, gains_digest = GOLDEN[label]
    rows = run_sweep(parse_config(text), jobs=1)
    assert sha256(rows_to_csv(rows, RUNS_HEADER)) == runs_digest
    assert sha256(rows_to_csv(gain_table(rows), GAINS_HEADER)) == gains_digest


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_cli_sweep_writes_the_pinned_files(label, tmp_path):
    # `meshnc sweep` recomputes gains.csv from the runs.csv it has written,
    # so this pins that read-back path as well as the files.
    text, runs_digest, gains_digest = GOLDEN[label]
    cfg = tmp_path / f"{label}.cfg"
    cfg.write_text(text)
    assert main(["sweep", str(cfg), "--out-dir", str(tmp_path), "--jobs", "1",
                 "--quiet"]) == 0
    for name, digest in (("runs.csv", runs_digest), ("gains.csv", gains_digest)):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def metrics_text(text: str) -> str:
    """One line per cell, in sweep order, naming every `Metrics` field;
    counters are written as their sorted items."""
    cfg = parse_config(text)
    lines = []
    for protocol in sorted(cfg.protocols):
        for ber in cfg.bers:
            scenario = cfg.scenario(protocol, ber)
            for seed in cfg.seeds:
                m = run(scenario, seed)
                fields = []
                # Every field, in declaration order: `Metrics` keeps its
                # fields in its instance dict.
                for name, value in vars(m).items():
                    if isinstance(value, dict):
                        value = sorted(value.items())
                    fields.append(f"{name}={value}")
                lines.append(f"{protocol.name.lower()} {ber!r} {seed} "
                             + " ".join(fields))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("label", sorted(METRICS_GOLDEN))
def test_every_metrics_counter_matches_pinned_digest(label, monkeypatch):
    # The engine pops through `heapq.heappop` looked up on the module.
    order, pop, pack = hashlib.sha256(), heapq.heappop, struct.Struct("<dq").pack

    def recorded(heap):
        item = pop(heap)
        order.update(pack(item[0], item[1]))
        return item

    monkeypatch.setattr(heapq, "heappop", recorded)
    text = GOLDEN[label][0]
    assert sha256(metrics_text(text)) == METRICS_GOLDEN[label]
    assert order.hexdigest() == EVENT_ORDER_GOLDEN[label]

"""BER sweeps across protocols, CSV emission and gain tables.

runs.csv has one row per (protocol, ber, seed, flow) plus a flow="total"
aggregate row; gains.csv compares the flexible-forwarding protocol against
each of bend, cope and plain that the rows hold, from per-cell mean
aggregate throughput. Gains are always recomputed from the written runs.csv
text, so regenerating them from the file reproduces the gain table byte for
byte.
"""
from __future__ import annotations

import csv
import io
from typing import NamedTuple

from .config import ScenarioConfig
from .core import Protocol
from .engine import run
from .node import Metrics
from .params import Scenario

RUNS_HEADER = ["scenario", "protocol", "ber", "seed", "flow", "delivered_bytes",
               "throughput_bps", "tx_total", "tx_coded", "retx", "dups",
               "helper_fwds"]
GAINS_HEADER = ["scenario", "ber", "base", "gain_pct"]

UNDEFINED_GAIN = "—"


class Cell(NamedTuple):
    protocol: Protocol
    ber: float
    seed: int


def sweep_cells(cfg: ScenarioConfig) -> list[Cell]:
    return [
        Cell(protocol, ber, seed)
        for protocol in sorted(cfg.protocols)
        for ber in cfg.bers
        for seed in cfg.seeds
    ]


def run_cell(job: tuple[ScenarioConfig, Cell]) -> list[dict]:
    """The rows of one (config, cell) job; a fault names the cell."""
    cfg, cell = job
    try:
        scenario = cfg.scenario(cell.protocol, cell.ber)
        metrics = run(scenario, cell.seed)
        return rows_for_run(scenario, cell.seed, metrics)
    except Exception as exc:
        raise RuntimeError(
            f"run failed for protocol={cell.protocol.name.lower()} "
            f"ber={cell.ber!r} seed={cell.seed}: {exc}") from exc


def rows_for_run(scenario: Scenario, seed: int, metrics: Metrics) -> list[dict]:
    rows = []
    shared = {
        "scenario": scenario.name,
        "protocol": scenario.protocol.name.lower(),
        "ber": repr(scenario.ber),
        "seed": seed,
        "tx_total": metrics.tx_data,
        "tx_coded": metrics.tx_coded,
        "retx": metrics.retx,
        "dups": metrics.dups_suppressed,
        "helper_fwds": metrics.helper_forwards,
    }
    total_bytes = 0
    total_bps = 0.0
    for i, fl in enumerate(scenario.flows):
        delivered = metrics.delivered_bytes[i]
        bps = delivered * 8.0 / fl.duration if fl.duration > 0 else 0.0
        total_bytes += delivered
        total_bps += bps
        rows.append(dict(shared, flow=str(i), delivered_bytes=delivered,
                         throughput_bps=f"{bps:.3f}"))
    rows.append(dict(shared, flow="total", delivered_bytes=total_bytes,
                     throughput_bps=f"{total_bps:.3f}"))
    return rows


def run_sweep(cfg: ScenarioConfig, jobs: int = 1,
              progress=None) -> list[dict]:
    """Run every (protocol, ber, seed) cell, in a pool of min(`jobs`, cells)
    processes when that is above 1; rows come back in sweep order. A pooled
    sweep whose worker dies, say on a job it cannot unpickle, raises
    `BrokenProcessPool`."""
    cells = sweep_cells(cfg)
    jobs = min(jobs, len(cells))
    todo = [(cfg, c) for c in cells]
    pool = None
    if jobs > 1:
        # Only a pooled sweep pays for the imports. Spawned workers start
        # from a fresh import, so no lock or thread state is forked.
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context
        pool = ProcessPoolExecutor(max_workers=jobs,
                                   mp_context=get_context("spawn"))
    rows: list[dict] = []
    try:
        results = pool.map(run_cell, todo) if pool else map(run_cell, todo)
        for done, (cell, cell_rows) in enumerate(zip(cells, results), start=1):
            rows.extend(cell_rows)
            if progress:
                progress(done, len(cells), cell)
    finally:
        if pool:
            # After a failed cell, the cells still queued are dropped, not run.
            pool.shutdown(cancel_futures=True)
    return rows


def rows_to_csv(rows: list[dict], header: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=header, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def write_csv(rows: list[dict], header: list[str], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(rows_to_csv(rows, header))


def cell_stats(rows: list[dict]) -> list[dict]:
    """Per-cell mean and standard deviation of aggregate throughput."""
    import statistics  # only the gain tables need it
    samples: dict[tuple[str, str, str], list[float]] = {}
    for row in rows:
        if row["flow"] != "total":
            continue
        key = (row["scenario"], row["protocol"], row["ber"])
        samples.setdefault(key, []).append(float(row["throughput_bps"]))
    out = []
    for (scenario, protocol, ber), vals in samples.items():
        std = statistics.stdev(vals) if len(vals) > 1 else 0.0
        out.append({
            "scenario": scenario, "protocol": protocol, "ber": ber,
            "mean_bps": statistics.fmean(vals), "std_bps": std,
            "seeds": len(vals),
        })
    return out


def gain_table(rows: list[dict]) -> list[dict]:
    """Percentage throughput gain of flexonc over each baseline per BER;
    the baselines are those of bend, cope and plain that `rows` hold.
    Empty when `rows` hold no flexonc row or no baseline row."""
    means = {(s["scenario"], s["protocol"], s["ber"]): s["mean_bps"]
             for s in cell_stats(rows)}
    present = {p for _, p, _ in means}
    baselines = tuple(p for p in ("bend", "cope", "plain") if p in present)
    flexonc_cells = sorted(((s, b) for s, p, b in means if p == "flexonc"),
                           key=lambda cell: (cell[0], float(cell[1])))
    out = []
    for scenario, ber in flexonc_cells:
        t_flex = means[(scenario, "flexonc", ber)]
        for base in baselines:
            key = (scenario, base, ber)
            if key not in means:
                raise KeyError(
                    f"missing baseline cell {base!r} at ber={ber} "
                    f"in scenario {scenario!r}")
            t_base = means[key]
            if t_base == 0.0:
                gain = UNDEFINED_GAIN
            else:
                gain = f"{(t_flex - t_base) / t_base * 100.0:.2f}"
            out.append({"scenario": scenario, "ber": ber, "base": base,
                        "gain_pct": gain})
    return out


def read_runs_csv(path: str) -> list[dict]:
    """The rows of a runs.csv; ValueError if its header lacks a column."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in RUNS_HEADER if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path} lacks runs.csv column(s) {missing}")
        return list(reader)

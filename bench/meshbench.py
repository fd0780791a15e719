"""The meshnc benchmark: slices of the acceptance sweeps, timed through the
real sweep path (``parse_config`` -> ``run_sweep(cfg, jobs=1)`` ->
``rows_to_csv``) in one process, with no pool and no threads.

    python3 bench/meshbench.py --workload eight_node_coded --seed 1 \
        --seconds 30 --trace 0
    python3 bench/meshbench.py --workload all           # every workload

A run first re-runs every cell on its own through ``meshnc.run`` (the
census). It then repeats one *pass* (every cell of the workload, run as one
closed-loop batch) for ``--seconds``, with at least three passes, prices
each pass in runs of the calibration kernel (``refkernel.py``), reports
medians over passes, and checks the passes' ``runs.csv`` against the census
metrics and against oracles computed from the config (see ``check_cell``).
With ``--trace 1`` it also runs one pass under the outside-in tracer in
``meshtrace.py`` and reports per-layer metrics instead of end-to-end ones.
The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` cells, and ``metrics``. See ``README.md``.
"""
from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
try:
    import meshnc
except ModuleNotFoundError:
    raise SystemExit(f"meshbench: no meshnc package under {SRC}") from None
if Path(meshnc.__file__).resolve().parent != SRC / "meshnc":
    raise SystemExit(f"meshbench: meshnc imported from {meshnc.__file__}, "
                     f"not from {SRC}")

import meshnc.channel as mchannel  # noqa: E402
import meshnc.coding as mcoding  # noqa: E402
import meshnc.config as mconfig  # noqa: E402
import meshnc.engine as mengine  # noqa: E402
import meshnc.node as mnode  # noqa: E402
import meshnc.sweep as msweep  # noqa: E402
from meshtrace import Tracer  # noqa: E402
from refkernel import kernel_cpu_s  # noqa: E402

MIN_PASSES = 3

EIGHT_NODE_FLOWS = ((0, 4, 0.07), (4, 0, 0.07))
# The stock grid5 traffic: four column flows, then four row flows, crossing
# the 5x5 grid in alternating directions.
GRID5_FLOWS = ((0, 20, 0.1), (21, 1, 0.1), (2, 22, 0.1), (23, 3, 0.1),
               (0, 4, 0.1), (9, 5, 0.1), (10, 14, 0.1), (19, 15, 0.1))

DROP_REASONS = ("queue_overflow", "q2_overflow", "retries_exhausted",
                "helper_queue_full", "undecodable", "non_intended_coded",
                "malformed")


@dataclass(frozen=True)
class Workload:
    name: str
    topology: str
    protocols: tuple[str, ...]
    bers: tuple[float, ...]
    flows: tuple[tuple[int, int, float], ...]
    duration: float
    seeds_per_pass: int

    def sim_seeds(self, seed: int) -> tuple[int, ...]:
        """Workload seed n runs simulation seeds n*k+1 .. n*k+k."""
        k = self.seeds_per_pass
        return tuple(seed * k + 1 + j for j in range(k))

    def config_text(self, seed: int) -> str:
        lines = [f"name = {self.name}",
                 f"topology = {self.topology}",
                 f"protocols = {', '.join(self.protocols)}",
                 f"bers = {', '.join(repr(b) for b in self.bers)}",
                 f"seeds = {', '.join(str(s) for s in self.sim_seeds(seed))}"]
        lines += [f"flow = {src}, {dst}, {interval}, {self.duration}"
                  for src, dst, interval in self.flows]
        return "\n".join(lines) + "\n"


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w for w in (
        Workload("eight_node_coded", "eight_node", ("cope", "bend", "flexonc"),
                 (2e-6, 2e-4), EIGHT_NODE_FLOWS, 10.0, 1),
        Workload("eight_node_plain", "eight_node", ("plain",),
                 (2e-6, 2e-4), EIGHT_NODE_FLOWS, 10.0, 5),
        Workload("grid5_dense", "grid5", ("plain", "cope", "flexonc"),
                 (2e-6, 1e-4), GRID5_FLOWS, 10.0, 1),
    )
}


# ------------------------------------------------------------------ passes

def run_pass(text: str, progress=None) -> str:
    """One batch through the product's own path; returns runs.csv text.
    ``progress`` is ``run_sweep``'s hook, called after each cell."""
    cfg = mconfig.parse_config(text)
    rows = msweep.run_sweep(cfg, jobs=1, progress=progress)
    return msweep.rows_to_csv(rows, msweep.RUNS_HEADER)


def timed_pass(text: str) -> tuple[float, float, float, str]:
    """``run_pass`` with the calibration kernel run before it, after each
    cell (through ``run_sweep``'s progress hook) and at its end. Returns
    the pass's wall and CPU seconds with the kernel runs left out, its CPU
    time priced in kernel runs, and its runs.csv text.

    Each stretch of the pass is priced by the kernel runs on either side of
    it, so the price follows the host's slowdown from cell to cell."""
    gc.collect()
    refs = [kernel_cpu_s()]
    walls, cpus = [], []
    w0, c0 = time.perf_counter(), time.process_time()

    def lap(*_) -> None:
        nonlocal w0, c0
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
        refs.append(kernel_cpu_s())
        w0, c0 = time.perf_counter(), time.process_time()

    runs_csv = run_pass(text, progress=lap)
    lap()
    priced = sum(2 * c / (before + after)
                 for c, before, after in zip(cpus, refs, refs[1:]))
    return sum(walls), sum(cpus), priced, runs_csv


# Set-up is timed in CPU seconds, like the passes: wall time also counts the
# moments the shared host gives the CPU to someone else.

def import_seconds() -> float:
    """CPU seconds a fresh interpreter spends importing meshnc."""
    code = ("import time; t = time.process_time(); import meshnc; "
            "print(time.process_time() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


def prepare_seconds(text: str) -> float:
    """Everything a sweep does before each cell's first event, after the
    import: parse and validate the config, then build every cell's scenario
    and Simulation."""
    gc.collect()
    t0 = time.process_time()
    cfg = mconfig.parse_config(text)
    for protocol in cfg.protocols:
        for ber in cfg.bers:
            for seed in cfg.seeds:
                mengine.Simulation(cfg.scenario(protocol, ber), seed)
    return time.process_time() - t0


# ------------------------------------------------------------ correctness

def cbr_count(interval: float, duration: float) -> int:
    """Datagrams a constant-rate source emits: k*interval < duration."""
    k = 0
    while k * interval < duration:
        k += 1
    return k


def check_cell(rows: list[dict], scenario, metrics) -> list[str]:
    """Output invariants of one cell's runs.csv rows, given the metrics of an
    independent re-run of the same cell. Empty when the cell is correct."""
    flows = scenario.flows
    size = scenario.params.payload_size
    expect = [str(i) for i in range(len(flows))] + ["total"]
    if [r["flow"] for r in rows] != expect:
        return [f"flow rows {[r['flow'] for r in rows]} != {expect}"]
    problems = []
    shared = {"tx_total": metrics.tx_data, "tx_coded": metrics.tx_coded,
              "retx": metrics.retx, "dups": metrics.dups_suppressed,
              "helper_fwds": metrics.helper_forwards}
    for r in rows:
        for key, value in shared.items():
            if int(r[key]) != value:
                problems.append(f"flow {r['flow']}: {key}={r[key]}, "
                                f"re-run gave {value}")
    sum_bytes, sum_bps = 0, 0.0
    for i, fl in enumerate(flows):
        r = rows[i]
        got = int(r["delivered_bytes"])
        generated = metrics.generated_count[i]
        delivered = metrics.delivered_count[i]
        if generated != cbr_count(fl.interval, fl.duration):
            problems.append(f"flow {i}: generated {generated} datagrams, "
                            f"source emits {cbr_count(fl.interval, fl.duration)}")
        if delivered > generated:
            problems.append(f"flow {i}: delivered {delivered} > "
                            f"generated {generated}")
        if got != metrics.delivered_bytes[i] or got != delivered * size:
            problems.append(f"flow {i}: delivered_bytes {got}, re-run gave "
                            f"{metrics.delivered_bytes[i]} from {delivered} "
                            f"datagrams of {size} B")
        if r["throughput_bps"] != f"{got * 8 / fl.duration:.3f}":
            problems.append(f"flow {i}: throughput_bps {r['throughput_bps']} "
                            f"!= {got}*8/{fl.duration}")
        sum_bytes += got
        sum_bps += float(r["throughput_bps"])
    total = rows[-1]
    if int(total["delivered_bytes"]) != sum_bytes:
        problems.append(f"total delivered_bytes {total['delivered_bytes']} "
                        f"!= sum of flows {sum_bytes}")
    # Each flow row is rounded to 3 dp on its own; the total is rounded once.
    if abs(float(total["throughput_bps"]) - sum_bps) > 5e-4 * len(rows):
        problems.append(f"total throughput_bps {total['throughput_bps']} "
                        f"!= sum of flows {sum_bps:.3f}")
    return problems


@dataclass
class Census:
    """Every cell of a workload, re-run on its own through ``meshnc.run``."""
    # (protocol, ber, seed) as runs.csv spells them -> scenario, and the
    # cell's Metrics or the exception it raised.
    cells: dict[tuple[str, str, str], tuple[object, object]]

    @property
    def metrics(self) -> list:
        return [m for _, m in self.cells.values()
                if not isinstance(m, Exception)]

    @property
    def events(self) -> int:
        return sum(m.events for m in self.metrics)

    def failures(self, runs_csv: str) -> dict[str, list[str]]:
        """Cells whose census run raised or whose rows in ``runs_csv``
        break an output invariant, with what went wrong."""
        by_cell: dict[tuple[str, str, str], list[dict]] = {}
        for row in csv.DictReader(io.StringIO(runs_csv)):
            by_cell.setdefault((row["protocol"], row["ber"], row["seed"]),
                               []).append(row)
        failed = {}
        for key, (scenario, m) in self.cells.items():
            rows = by_cell.pop(key, [])
            if isinstance(m, Exception):
                problems = [f"raised {m!r}"]
            else:
                problems = check_cell(rows, scenario, m)
            if problems:
                failed["/".join(key)] = problems
        for key in by_cell:
            failed["/".join(key)] = ["row for a cell the config does not have"]
        return failed


def census(text: str) -> Census:
    cfg = mconfig.parse_config(text)
    cells = {}
    for protocol in cfg.protocols:
        for ber in cfg.bers:
            scenario = cfg.scenario(protocol, ber)
            for seed in cfg.seeds:
                try:
                    m = meshnc.run(scenario, seed)
                except Exception as exc:  # a failing cell is a result
                    m = exc
                cells[(protocol.name.lower(), repr(ber), str(seed))] = (
                    scenario, m)
    return Census(cells)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------- tracing

def install_tracer(tracer: Tracer) -> None:
    """Wrap every layer boundary where the calling module looks it up."""
    def grant(args, result, counts):
        counts["contenders"] += len(args[0])
        counts["collisions"] += len(result[0]) > 1

    def reception(args, result, counts):
        frame, topo = args[0], args[1]
        counts["rx"] += len(result)
        counts["draws"] += len(mchannel.neighbors(topo, frame.transmitter))

    def select(args, result, counts):
        counts["intents"] += result is not None

    def eligible(args, result, counts):
        counts["eligible"] += result is not None

    def encode(args, result, counts):
        counts["xor_bytes"] += 3 * (len(args[0]) - 1) * len(result.payload)

    def decode(args, result, counts):
        coded, pool, target = args
        xors = 0
        for c in coded.components:
            if c.id == target.id:
                continue
            if c.id not in pool:
                break
            xors += 1
        counts["decode_fail"] += result is None
        counts["xor_bytes"] += 3 * xors * len(coded.payload)

    def csv_text(args, result, counts):
        counts["csv_bytes"] += len(result.encode("utf-8"))

    wrap = tracer.wrap
    wrap(mconfig, "parse_config", "config.parse_config")
    wrap(mconfig, "build_forwarding_tables", "routing.build_forwarding_tables")
    wrap(mengine, "build_forwarding_tables", "routing.build_forwarding_tables")
    wrap(msweep, "run_sweep", "sweep.run_sweep")
    wrap(msweep, "rows_for_run", "sweep.rows_for_run")
    wrap(msweep, "rows_to_csv", "sweep.rows_to_csv", csv_text)
    wrap(mengine.Simulation, "__init__", "engine.Simulation.__init__")
    wrap(mengine.Simulation, "run", "engine.Simulation.run")
    wrap(mengine, "mac_grant", "engine.mac_grant", grant)
    # The per-grant contention scan polls every node: engine work, even
    # though the predicate lives on the node.
    wrap(mnode.NodeState, "ready", "engine.ready")
    wrap(mengine, "sample_reception", "channel.sample_reception", reception)
    for method in ("on_data_frame", "on_ack", "on_timer", "after_transmit",
                   "enqueue_source", "build_ack_frame"):
        wrap(mnode.NodeState, method, f"node.{method}")
    wrap(mnode.NodeState, "select_transmission", "node.select_transmission",
         select)
    for method in ("add", "merge", "knows", "holds_all", "prune"):
        wrap(mcoding.NeighborKnowledge, method, f"coding.knowledge.{method}")
    for fn in ("cope_select", "bend_mixable", "priority_index"):
        wrap(mnode, fn, f"coding.{fn}")
    wrap(mnode, "flexonc_eligible", "coding.flexonc_eligible", eligible)
    wrap(mnode, "encode", "core.encode", encode)
    wrap(mnode, "decode", "core.decode", decode)


CODING_SELECT = ("coding.cope_select", "coding.bend_mixable",
                 "coding.flexonc_eligible", "coding.priority_index")


def layer_metrics(spans: dict[str, dict[str, int]], counts: Counter,
                  models: list, overhead: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced pass plus the re-run metrics."""
    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def total_s(name):
        return spans.get(name, {}).get("total_ns", 0) / 1e9

    def self_s(names=None, prefix=None):
        return sum(v["self_ns"] for k, v in spans.items()
                   if (names and k in names)
                   or (prefix and k.startswith(prefix))) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    model = Counter()
    drops = Counter()
    for m in models:
        model["events"] += m.events
        model["tx_data"] += m.tx_data
        model["tx_coded"] += m.tx_coded
        model["retx"] += m.retx
        model["dups"] += m.dups_suppressed
        model["helper_forwards"] += m.helper_forwards
        model["generated"] += sum(m.generated_count.values())
        model["delivered"] += sum(m.delivered_count.values())
        drops.update(m.drops)
    grants = calls("engine.mac_grant")
    frames = calls("channel.sample_reception")
    out = {
        "engine.self_s": (self_s(prefix="engine."), "s"),
        "engine.events": (model["events"], "count"),
        "engine.grants": (grants, "count"),
        "engine.contenders_per_grant":
            (ratio(counts["contenders"], grants), "count/grant"),
        "engine.ready_calls": (calls("engine.ready"), "count"),
        "engine.ready_s": (total_s("engine.ready"), "s"),
        "engine.grant_useful_ratio": (ratio(counts["intents"], grants), "ratio"),
        "engine.collisions": (counts["collisions"], "count"),
        "channel.sample_s": (self_s(prefix="channel."), "s"),
        "channel.frames": (frames, "count"),
        "channel.rx_per_frame": (ratio(counts["rx"], frames), "count/frame"),
        "channel.rx_ratio": (ratio(counts["rx"], counts["draws"]), "ratio"),
        "node.self_s": (self_s(prefix="node."), "s"),
    }
    for method in ("on_data_frame", "on_ack", "on_timer"):
        out[f"node.{method}_calls"] = (calls(f"node.{method}"), "count")
        out[f"node.{method}_s"] = (total_s(f"node.{method}"), "s")
    out.update({
        "node.select_s": (total_s("node.select_transmission"), "s"),
        "node.after_transmit_s": (total_s("node.after_transmit"), "s"),
        "node.retx": (model["retx"], "count"),
        "node.dups_suppressed": (model["dups"], "count"),
        "node.helper_forwards": (model["helper_forwards"], "count"),
        "node.delivery_ratio":
            (ratio(model["delivered"], model["generated"]), "ratio"),
    })
    for reason in DROP_REASONS:
        out[f"node.drops.{reason}"] = (drops.pop(reason, 0), "count")
    out["node.drops.other"] = (sum(drops.values()), "count")
    out.update({
        "coding.knowledge_s": (self_s(prefix="coding.knowledge."), "s"),
        "coding.knowledge_add_calls": (calls("coding.knowledge.add"), "count"),
        "coding.knowledge_merge_calls":
            (calls("coding.knowledge.merge"), "count"),
        "coding.knowledge_query_calls":
            (calls("coding.knowledge.knows")
             + calls("coding.knowledge.holds_all"), "count"),
        "coding.select_s": (self_s(names=CODING_SELECT), "s"),
        "coding.eligible_ratio":
            (ratio(counts["eligible"], calls("coding.flexonc_eligible")),
             "ratio"),
        "coding.coded_ratio":
            (ratio(model["tx_coded"], model["tx_data"]), "ratio"),
        "core.codec_s": (self_s(prefix="core."), "s"),
        "core.encode_calls": (calls("core.encode"), "count"),
        "core.decode_calls": (calls("core.decode"), "count"),
        "core.decode_fail_ratio":
            (ratio(counts["decode_fail"], calls("core.decode")), "ratio"),
        "core.xor_bytes": (counts["xor_bytes"], "bytes"),
        "routing.build_s": (self_s(prefix="routing."), "s"),
        "routing.build_calls":
            (calls("routing.build_forwarding_tables"), "count"),
        "config.parse_s": (self_s(prefix="config."), "s"),
        "sweep.rows_s": (total_s("sweep.rows_for_run"), "s"),
        "sweep.csv_s": (total_s("sweep.rows_to_csv"), "s"),
        "sweep.csv_bytes": (counts["csv_bytes"], "bytes"),
        "trace.pass_s": (total_s("bench.pass"), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    })
    return out


def traced_pass(text: str, spans_dir: Path) -> tuple[str, float, Tracer, list[int]]:
    """One pass under the tracer; every original is back when it returns."""
    tracer = Tracer()
    install_tracer(tracer)
    try:
        gc.collect()
        c0 = time.process_time()
        with tracer.root("bench.pass"):
            runs_csv = run_pass(text)
        cpu = time.process_time() - c0
    finally:
        tracer.restore()
    own = tracer.self_ns()
    tracer.write(spans_dir)
    return runs_csv, cpu, tracer, own


# --------------------------------------------------------------------- run

def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4f} q3 {q3:.4f} n={len(values)}"


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool) -> dict:
    text = workload.config_text(seed)
    # The census re-runs every cell on its own before anything is timed,
    # which also warms the process up.
    cen = census(text)
    rec = {"workload": workload.name, "seed": seed,
           "sim_seeds": list(workload.sim_seeds(seed)),
           "cells": len(cen.cells), "notes": [], "metrics": {}}
    raised = {"/".join(k): [f"raised {m!r}"]
              for k, (_, m) in cen.cells.items() if isinstance(m, Exception)}
    if raised:  # run_sweep would stop at the first of these
        rec.update(cells_failed=len(raised), failures=raised, correct=False,
                   runs_sha256=None, passes=0)
        return rec
    if trace:
        traced_csv, traced_cpu, tracer, own = traced_pass(
            text, OUT / f"spans-{workload.name}")
        rec["notes"] += tracer.check(own)

    # Every pass is priced in runs of the calibration kernel, which cancels
    # the host's slowdown of the moment (see refkernel.py). Set-up is
    # sampled between passes, so that its median and the passes' see the
    # same spread of host load. No lap starts that would end after the
    # window, but at least MIN_PASSES passes are timed.
    passes, imports, prepares = [], [], []
    kernel_cpu_s()  # warm the kernel up, as the census warmed meshnc up
    t_start = time.perf_counter()
    lap = 0.0
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - t_start + lap <= seconds):
        t_lap = time.perf_counter()
        passes.append(timed_pass(text))
        if not trace:
            imports.append(import_seconds())
            prepares.append(prepare_seconds(text))
        lap = time.perf_counter() - t_lap

    runs_csv = passes[0][3]
    failures = cen.failures(runs_csv)
    texts = {p[3] for p in passes}
    if len(texts) != 1:
        rec["notes"].append(f"passes wrote {len(texts)} different runs.csv")
    if trace and traced_csv != runs_csv:
        rec["notes"].append("traced pass wrote a different runs.csv")

    walls = [p[0] for p in passes]
    cpus = [p[1] for p in passes]
    rel = [p[2] for p in passes]
    cpu_s = statistics.median(cpus)
    if trace:
        metrics = layer_metrics(tracer.by_name(own), tracer.counts,
                                cen.metrics, traced_cpu / cpu_s)
    else:
        cpu_ref = statistics.median(rel)
        metrics = {
            "cpu_ref": (cpu_ref, "ref"),
            "events_per_ref": (cen.events / cpu_ref, "1/ref"),
            "setup_s": (statistics.median(imports)
                        + statistics.median(prepares), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    rec.update(
        cells_failed=len(failures), failures=failures,
        correct=not failures and not rec["notes"],
        runs_sha256=sha256(runs_csv), passes=len(passes),
        wall_s=statistics.median(walls), cpu_s=cpu_s,
        events_per_s=cen.events / cpu_s,
        wall_spread=quartiles(walls), cpu_spread=quartiles(cpus),
        ref_spread=quartiles(rel),
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    return rec


def report(rec: dict) -> None:
    print(f"workload {rec['workload']}  seed {rec['seed']}  "
          f"sim_seeds {rec['sim_seeds']}  passes {rec['passes']}")
    print(f"  runs_sha256 {rec['runs_sha256']}")
    print(f"  cells_failed {rec['cells_failed']}/{rec['cells']} cells")
    for label, problems in rec["failures"].items():
        print(f"    FAIL {label}: {'; '.join(problems[:3])}")
    for note in rec["notes"]:
        print(f"    FAIL {note}")
    if rec["passes"]:
        print(f"  wall per pass: {rec['wall_spread']};  "
              f"cpu per pass: {rec['cpu_spread']};  "
              f"cpu_ref per pass: {rec['ref_spread']}")
        # Not gated: the host's load of the moment moves these raw times
        # more than any bound; the *_ref metrics below are priced in
        # calibration-kernel runs instead.
        for name, unit in (("wall_s", "s"), ("cpu_s", "s"),
                           ("events_per_s", "1/s")):
            print(f"  {name:34s} {rec[name]:.6g} {unit} (median, not gated)")
    for name, m in rec["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")


def result_line(rec: dict) -> str:
    return json.dumps({"correct": rec["correct"], "attempted": rec["cells"],
                       "failed": rec["cells_failed"],
                       "metrics": rec["metrics"]})


def run_all(args) -> int:
    """Every workload in its own process, so each reports its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr)
            return out.returncode or 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, value in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1,
                    help="workload seed n >= 0; picks simulation seeds "
                         "n*k+1 .. n*k+k")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="length of the window of timed passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from a traced pass")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    rec = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace))
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(rec, indent=1))
    report(rec)
    print(result_line(rec))
    return 0 if rec["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())

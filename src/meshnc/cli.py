"""Command-line entry points: run, sweep, gains, validate."""
from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, load_config
from .engine import run as run_one
from .sweep import (
    GAINS_HEADER,
    RUNS_HEADER,
    cell_stats,
    gain_table,
    read_runs_csv,
    rows_for_run,
    run_sweep,
    write_csv,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meshnc",
        description="Packet-level simulator of XOR coding protocols in "
                    "wireless mesh networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single (protocol, ber, seed) cell")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out-dir", default=".")

    p_sweep = sub.add_parser("sweep", help="run the full protocol x BER x seed grid")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--out-dir", default=".")
    p_sweep.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p_sweep.add_argument("--quiet", action="store_true")

    p_gains = sub.add_parser("gains", help="recompute the gain table from runs.csv")
    p_gains.add_argument("runs_csv")
    p_gains.add_argument("--out-dir", default=".")

    p_val = sub.add_parser("validate", help="parse and validate a config file")
    p_val.add_argument("config")
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seeds[0]
    scenario = cfg.scenario(cfg.protocols[0], cfg.bers[0])
    os.makedirs(args.out_dir, exist_ok=True)
    metrics = run_one(scenario, seed)
    rows = rows_for_run(scenario, seed, metrics)
    path = os.path.join(args.out_dir, "runs.csv")
    write_csv(rows, RUNS_HEADER, path)
    total = rows[-1]
    print(f"protocol={total['protocol']} ber={total['ber']} seed={seed}")
    print(f"delivered_bytes={total['delivered_bytes']} "
          f"throughput_bps={total['throughput_bps']} "
          f"tx_total={total['tx_total']} tx_coded={total['tx_coded']} "
          f"retx={total['retx']} dups={total['dups']} "
          f"helper_fwds={total['helper_fwds']}")
    print(f"wrote {path}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    progress = None
    if not args.quiet:
        def progress(done, total, cell):
            print(f"[{done}/{total}] {cell.protocol.name.lower()} "
                  f"ber={cell.ber!r} seed={cell.seed}", file=sys.stderr)
    rows = run_sweep(cfg, jobs=max(1, args.jobs), progress=progress)
    os.makedirs(args.out_dir, exist_ok=True)
    runs_path = os.path.join(args.out_dir, "runs.csv")
    gains_path = os.path.join(args.out_dir, "gains.csv")
    write_csv(rows, RUNS_HEADER, runs_path)
    baselines = _baselines({r["protocol"] for r in rows})
    gains = (gain_table(read_runs_csv(runs_path), baselines=baselines)
             if baselines else [])
    if gains:
        write_csv(gains, GAINS_HEADER, gains_path)
    for stat in cell_stats(rows):
        print(f"{stat['protocol']:>8} ber={stat['ber']:>7} "
              f"mean={stat['mean_bps']:12.1f} bps "
              f"std={stat['std_bps']:10.1f} (n={stat['seeds']})")
    print(f"wrote {runs_path}" + (f" and {gains_path}" if gains else ""))
    return 0


def _baselines(protocols: set[str]) -> tuple[str, ...]:
    """The baselines present among `protocols` that flexonc's gains can be
    computed against; none without flexonc."""
    if "flexonc" not in protocols:
        return ()
    return tuple(p for p in ("bend", "cope", "plain") if p in protocols)


def _cmd_gains(args) -> int:
    rows = read_runs_csv(args.runs_csv)
    baselines = _baselines({r["protocol"] for r in rows})
    if not baselines:
        print("runs.csv lacks flexonc rows or any baseline rows", file=sys.stderr)
        return 1
    try:
        gains = gain_table(rows, baselines=baselines)
    except KeyError as exc:  # a BER without one of the baseline cells
        raise ValueError(f"{args.runs_csv}: {exc.args[0]}") from None
    path = os.path.join(args.out_dir, "gains.csv")
    write_csv(gains, GAINS_HEADER, path)
    print(f"wrote {path}")
    return 0


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    flows = cfg.resolved_flows()
    print(f"OK: {cfg.name}: topology="
          f"{cfg.topology_kind or f'{len(cfg.explicit_nodes)} explicit nodes'} "
          f"protocols={[p.name.lower() for p in cfg.protocols]} "
          f"bers={list(cfg.bers)} seeds={list(cfg.seeds)} flows={len(flows)}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "gains": _cmd_gains,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

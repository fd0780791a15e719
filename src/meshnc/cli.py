"""Command-line entry points: run, sweep, gains, validate."""
from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, load_config
from .sweep import (
    GAINS_HEADER,
    RUNS_HEADER,
    Cell,
    cell_stats,
    gain_table,
    read_runs_csv,
    run_cell,
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
    p_run.set_defaults(handler=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run the full protocol x BER x seed grid")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--out-dir", default=".")
    p_sweep.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p_sweep.add_argument("--quiet", action="store_true")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_gains = sub.add_parser("gains", help="recompute the gain table from runs.csv")
    p_gains.add_argument("runs_csv")
    p_gains.add_argument("--out-dir", default=".")
    p_gains.set_defaults(handler=_cmd_gains)

    p_val = sub.add_parser("validate", help="parse and validate a config file")
    p_val.add_argument("config")
    p_val.set_defaults(handler=_cmd_validate)
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seeds[0]
    rows = run_cell((cfg, Cell(cfg.protocols[0], cfg.bers[0], seed)))
    path = os.path.join(args.out_dir, "runs.csv")
    write_csv(rows, RUNS_HEADER, path)
    total = rows[-1]
    print(f"protocol={total['protocol']} ber={total['ber']} seed={seed}")
    print(" ".join(f"{k}={total[k]}" for k in RUNS_HEADER[5:]))
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
    runs_path = os.path.join(args.out_dir, "runs.csv")
    write_csv(rows, RUNS_HEADER, runs_path)
    gains_path = _write_gains(runs_path, args.out_dir)
    for stat in cell_stats(rows):
        print(f"{stat['protocol']:>8} ber={stat['ber']:>7} "
              f"mean={stat['mean_bps']:12.1f} bps "
              f"std={stat['std_bps']:10.1f} (n={stat['seeds']})")
    print(f"wrote {runs_path}" + (f" and {gains_path}" if gains_path else ""))
    return 0


def _write_gains(runs_path: str, out_dir: str) -> str | None:
    """Write gains.csv from the runs.csv at `runs_path`; its path, or None
    when that file holds no flexonc rows or no baseline rows."""
    try:
        gains = gain_table(read_runs_csv(runs_path))
    except KeyError as exc:  # a BER without one of the baseline cells
        raise ValueError(f"{runs_path}: {exc.args[0]}") from None
    if not gains:
        return None
    path = os.path.join(out_dir, "gains.csv")
    write_csv(gains, GAINS_HEADER, path)
    return path


def _cmd_gains(args) -> int:
    path = _write_gains(args.runs_csv, args.out_dir)
    if path is None:
        raise ValueError(f"{args.runs_csv} lacks flexonc rows or any baseline rows")
    print(f"wrote {path}")
    return 0


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    print(f"OK: {cfg.name}: topology="
          f"{cfg.topology_kind or f'{len(cfg.explicit_nodes)} explicit nodes'} "
          f"protocols={[p.name.lower() for p in cfg.protocols]} "
          f"bers={list(cfg.bers)} seeds={list(cfg.seeds)} flows={len(cfg.flows)}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "out_dir"):  # every command that writes files
            os.makedirs(args.out_dir, exist_ok=True)
        return args.handler(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Compare two source trees with the meshnc benchmark, in alternating pairs.

    python3 tools/benchpairs.py BASE_TREE CHANGE_TREE --seeds 41 42 43 \
        --seconds 30 --workload grid5_dense

For each seed it runs ``bench/meshbench.py`` once in each tree, one after the
other, and flips which tree goes first from one pair to the next, so a drift
in host load falls on both sides alike. Each run's metrics come from the last
line of its standard output (one JSON object), and its ``runs_sha256`` from
the ``runs_sha256`` line the benchmark prints for each workload.

It then prints, per workload and end-to-end metric, the median [q1, q3] of
each side, how many pairs the change tree won (by the metric's direction in
the base tree's ``BENCHMARK.json``), and whether the medians differ by more
than the base's quartile spread, q3 - q1 (``beyond spread``) or not
(``within spread``): a difference within it is not told apart from
run-to-run noise. Last, per workload, it prints whether every pair's
``runs_sha256`` matched. Standard library only.

It refuses to start while either tree holds ``src/meshnc/__pycache__``, and
runs each benchmark with ``PYTHONDONTWRITEBYTECODE=1``, so neither tree
times an import from bytecode: a cache left by an earlier run is never
refreshed under that setting, so a module edited since is compiled on every
import, in one tree only, and its ``setup_s`` reads as a regression.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(tree: Path, workload: str, seed: int, seconds: float,
              ) -> tuple[dict, dict[str, str]]:
    """One benchmark run in `tree`: its metrics by "<workload>.<metric>"
    (or "<metric>" for a single workload), and runs_sha256 by workload."""
    cmd = [sys.executable, "bench/meshbench.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                         env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"benchpairs: {' '.join(cmd)} failed in {tree} "
                         f"with exit {out.returncode}:\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"benchpairs: {tree} seed {seed}: the benchmark "
                         f"reports incorrect output:\n{out.stdout}")
    digests, current = {}, workload
    for line in lines[:-1]:
        words = line.split()
        if words[:1] == ["workload"]:
            current = words[1]
        elif words[:1] == ["runs_sha256"]:
            digests[current] = words[1]
    return result["metrics"], digests


def bytecode_caches(trees: list[Path]) -> list[Path]:
    """The ``src/meshnc/__pycache__`` directories that `trees` hold."""
    caches = []
    for tree in trees:
        cache = tree / "src" / "meshnc" / "__pycache__"
        if cache.is_dir():
            caches.append(cache)
    return caches


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """q1, median and q3 of `values`; a single value is all three."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def beyond_spread(base: list[float], change: list[float]) -> bool:
    """Whether the medians of `change` and `base` differ by more than the
    base's quartile spread (q3 - q1)."""
    q1, med, q3 = quartiles(base)
    return abs(statistics.median(change) - med) > q3 - q1


def spread(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    if len(values) < 2:
        return f"{med:.4g}"
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path, help="tree of the parent commit")
    ap.add_argument("change", type=Path, help="tree of the change")
    ap.add_argument("--seeds", type=int, nargs="+", required=True,
                    help="one pair of runs per workload seed")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--workload", default="all")
    args = ap.parse_args(argv)

    caches = bytecode_caches([args.base, args.change])
    if caches:
        raise SystemExit("benchpairs: remove the bytecode cache first, so "
                         "that both trees import from source: "
                         + ", ".join(map(str, caches)))
    spec = json.loads((args.base / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = {"base": args.base, "change": args.change}
    runs: dict[str, list] = {"base": [], "change": []}
    for i, seed in enumerate(args.seeds):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(run_bench(sides[side], args.workload, seed,
                                        args.seconds))
        print(f"pair {i + 1}/{len(args.seeds)} (seed {seed}, "
              f"{order[0]} first) done", file=sys.stderr)

    pairs = len(args.seeds)
    for key in runs["base"][0][0]:
        workload, _, metric = key.rpartition(".")
        workload = workload or args.workload
        base = [m[key]["value"] for m, _ in runs["base"]]
        change = [m[key]["value"] for m, _ in runs["change"]]
        sign = 1 if better[metric] == "lower" else -1
        wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
        delta = statistics.median(change) / statistics.median(base) - 1
        side = "beyond" if beyond_spread(base, change) else "within"
        print(f"{workload:18s} {metric:16s} base {spread(base):28s} "
              f"change {spread(change):28s} {delta:+7.1%}  "
              f"change wins {wins}/{pairs}  {side} spread")
    for workload in runs["base"][0][1]:
        same = all(b[1][workload] == c[1][workload]
                   for b, c in zip(runs["base"], runs["change"]))
        print(f"{workload:18s} runs_sha256 "
              + ("matched in every pair" if same else "DIFFERED"))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Sweep orchestration, CSV schemas, gain-table algebra and the CLI."""
import csv
import os
import signal
import subprocess
import sys
import textwrap

import pytest

import meshnc
from meshnc import (Flow, Protocol, Scenario, build_topology, gain_table,
                    parse_config, run, run_sweep)
from meshnc.cli import main
from meshnc.sweep import (
    GAINS_HEADER,
    RUNS_HEADER,
    UNDEFINED_GAIN,
    cell_stats,
    read_runs_csv,
    rows_for_run,
    rows_to_csv,
    sweep_cells,
    write_csv,
)

SMALL = """
name = small
topology = x_topo
protocols = plain, cope, bend, flexonc
bers = 0, 1e-4
seeds = 1, 2
flow = 0, 3, 0.07, 2
flow = 1, 4, 0.07, 2
"""


@pytest.fixture(scope="module")
def small_rows():
    cfg = parse_config(SMALL, name="small")
    return cfg, run_sweep(cfg)


class TestRunSweep:
    def test_row_cardinality(self, small_rows):
        cfg, rows = small_rows
        cells = len(cfg.protocols) * len(cfg.bers) * len(cfg.seeds)
        assert len(sweep_cells(cfg)) == cells
        per_run = len(cfg.flows) + 1  # plus the total row
        assert len(rows) == cells * per_run

    def test_row_order_protocol_ber_seed(self, small_rows):
        _, rows = small_rows
        keys = [(r["protocol"], float(r["ber"]), int(r["seed"]))
                for r in rows if r["flow"] == "total"]
        order = {"plain": 0, "cope": 1, "bend": 2, "flexonc": 3}
        assert keys == sorted(keys, key=lambda k: (order[k[0]], k[1], k[2]))

    def test_rerun_is_byte_identical(self, small_rows):
        cfg, rows = small_rows
        again = run_sweep(cfg)
        assert rows_to_csv(rows, RUNS_HEADER) == rows_to_csv(again, RUNS_HEADER)

    def test_schema(self, small_rows):
        _, rows = small_rows
        assert set(rows[0]) == set(RUNS_HEADER)

    def test_pooled_sweep_equals_the_serial_one(self, small_rows):
        cfg, rows = small_rows
        pooled = run_sweep(cfg, jobs=2)
        assert rows_to_csv(pooled, RUNS_HEADER) == rows_to_csv(rows, RUNS_HEADER)

    def test_importing_meshnc_loads_no_process_pool(self):
        # Only a pooled sweep needs multiprocessing, and only the gain
        # tables need statistics; a plain import pays for neither.
        code = ("import sys, meshnc; "
                "print(sorted({'multiprocessing', 'statistics'} "
                "& set(sys.modules)))")
        src = os.path.dirname(os.path.dirname(meshnc.__file__))
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout.strip() == "[]"

    @pytest.fixture
    def in_process_pool(self, monkeypatch):
        """Stands in for the process pool; returns the sizes it was built
        with and the keyword arguments of each shutdown."""
        import concurrent.futures

        started, shutdowns = [], []

        class InProcessPool:
            """Records its size and maps in this process: no worker starts."""
            def __init__(self, max_workers, mp_context):
                started.append(max_workers)

            def map(self, fn, items):
                return map(fn, items)

            def shutdown(self, **kwargs):
                shutdowns.append(kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InProcessPool)
        return started, shutdowns

    def test_pool_never_has_more_workers_than_cells(self, in_process_pool):
        started, _ = in_process_pool
        base = ("topology = x_topo\nprotocol = plain\nber = 0\n"
                "flow = 0, 3, 0.07, 1\n")
        one = run_sweep(parse_config(base + "seed = 1\n"), jobs=8)
        assert started == [] and len(one) == 2  # one cell runs serially
        two = parse_config(base + "seeds = 1, 2\n")
        assert run_sweep(two, jobs=8) == run_sweep(two)
        assert started == [2]

    def test_a_failing_pooled_sweep_drops_its_queued_cells(
            self, in_process_pool, monkeypatch):
        import meshnc.engine as engine_mod
        _, shutdowns = in_process_pool
        monkeypatch.setattr(engine_mod, "MAX_EVENTS", 50)
        cfg = parse_config("topology = x_topo\nprotocol = plain\nber = 0\n"
                           "seeds = 1, 2, 3\nflow = 0, 3, 0.07, 1\n")
        with pytest.raises(RuntimeError, match="seed=1"):
            run_sweep(cfg, jobs=2)
        assert shutdowns == [{"cancel_futures": True}]

    def test_a_job_no_worker_can_load_fails_the_sweep(self):
        # The job pickles, but unpickling it raises in the worker, which
        # dies. The sweep must fail rather than wait for the lost result.
        code = textwrap.dedent(r"""
            from concurrent.futures.process import BrokenProcessPool
            from meshnc import parse_config, run_sweep
            from meshnc.config import ScenarioConfig

            class Unloadable(ScenarioConfig):
                def __reduce__(self):
                    return int, ("raises ValueError on load",)

            cfg = parse_config("topology = x_topo\nprotocol = plain\nber = 0\n"
                               "seeds = 1, 2\nflow = 0, 3, 0.07, 1\n")
            cfg.__class__ = Unloadable
            try:
                run_sweep(cfg, jobs=2)
            except BrokenProcessPool:
                print("broken pool")
        """)
        src = os.path.dirname(os.path.dirname(meshnc.__file__))
        # Its own session, so a hung sweep's workers go down with it.
        child = subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
            env=dict(os.environ, PYTHONPATH=src))
        try:
            out, err = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            pytest.fail("a pooled sweep with an unloadable job hung")
        assert (child.returncode, out) == (0, "broken pool\n"), err

    def test_a_failing_cell_is_named(self, monkeypatch):
        import meshnc.engine as engine_mod
        monkeypatch.setattr(engine_mod, "MAX_EVENTS", 50)
        cfg = parse_config("topology = x_topo\nprotocol = plain\nber = 0\n"
                           "seed = 1\nflow = 0, 3, 0.07, 1\n")
        with pytest.raises(RuntimeError, match=r"^run failed for "
                           r"protocol=plain ber=0\.0 seed=1: "):
            run_sweep(cfg)

    def test_single_cell_config(self):
        cfg = parse_config(
            "topology = x_topo\nprotocol = plain\nber = 0\nseed = 1\n"
            "flow = 0, 3, 0.07, 1\n")
        rows = run_sweep(cfg)
        assert len(rows) == 2  # one flow row plus the total row

    def test_a_zero_duration_flow_reads_zero_throughput(self):
        # `Flow` and `run` accept a flow that lasts 0 s. Its row reads
        # 0.000, and the other flow's row reads its own throughput.
        sc = Scenario("x", build_topology("x_topo"), Protocol.PLAIN, 0.0,
                      (Flow(0, 3, 0.07, 0.0), Flow(1, 4, 0.07, 1.4)))
        m = run(sc, seed=1)
        rows = rows_for_run(sc, 1, m)
        assert [r["flow"] for r in rows] == ["0", "1", "total"]
        assert (rows[0]["delivered_bytes"], rows[0]["throughput_bps"]) == (
            0, "0.000")
        per_flow, _ = meshnc.throughput(m, 1.4)
        assert m.delivered_bytes[1] > 0
        assert rows[1]["throughput_bps"] == f"{per_flow[1]:.3f}"
        assert ([rows[2][k] for k in ("delivered_bytes", "throughput_bps")]
                == [rows[1][k] for k in ("delivered_bytes", "throughput_bps")])


class TestGainTable:
    def test_algebra_reproducible_from_csv(self, small_rows, tmp_path):
        _, rows = small_rows
        path = tmp_path / "runs.csv"
        write_csv(rows, RUNS_HEADER, str(path))
        first = gain_table(read_runs_csv(str(path)))
        second = gain_table(read_runs_csv(str(path)))
        assert rows_to_csv(first, GAINS_HEADER) == rows_to_csv(second, GAINS_HEADER)
        assert {g["base"] for g in first} == {"bend", "cope", "plain"}
        assert len(first) == 2 * 3  # two bers x three baselines

    def test_equal_throughput_is_zero_gain(self):
        rows = []
        for proto in ("flexonc", "bend"):
            rows.append({"scenario": "s", "protocol": proto, "ber": "0.0",
                         "seed": 1, "flow": "total", "delivered_bytes": 10,
                         "throughput_bps": "80.000"})
        gains = gain_table(rows)
        assert gains == [{"scenario": "s", "ber": "0.0", "base": "bend",
                          "gain_pct": "0.00"}]

    def test_zero_baseline_renders_dash(self):
        rows = [
            {"scenario": "s", "protocol": "flexonc", "ber": "0.0", "seed": 1,
             "flow": "total", "delivered_bytes": 10, "throughput_bps": "80.000"},
            {"scenario": "s", "protocol": "plain", "ber": "0.0", "seed": 1,
             "flow": "total", "delivered_bytes": 0, "throughput_bps": "0.000"},
        ]
        gains = gain_table(rows)
        assert gains[0]["gain_pct"] == UNDEFINED_GAIN

    def test_missing_baseline_cell_faults(self):
        # bend ran at BER 0 only, so flexonc at 1e-4 has nothing to beat.
        rows = [{"scenario": "s", "protocol": p, "ber": ber, "seed": 1,
                 "flow": "total", "delivered_bytes": 10,
                 "throughput_bps": "80.000"}
                for p, ber in (("flexonc", "0.0"), ("flexonc", "0.0001"),
                               ("bend", "0.0"))]
        with pytest.raises(KeyError):
            gain_table(rows)

    def test_cell_stats_mean_std(self, small_rows):
        _, rows = small_rows
        stats = cell_stats(rows)
        assert all(s["seeds"] == 2 for s in stats)
        assert all(s["std_bps"] >= 0 for s in stats)


class TestCli:
    def write_cfg(self, tmp_path, text=SMALL):
        path = tmp_path / "scenario.cfg"
        path.write_text(text)
        return str(path)

    def test_validate_ok(self, tmp_path, capsys):
        assert main(["validate", self.write_cfg(tmp_path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_rejects_bad_config(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("topology = eight_node\nber = 2\n")
        assert main(["validate", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_run_writes_csv(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        assert main(["run", cfg, "--seed", "3", "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "throughput_bps" in out
        with open(tmp_path / "runs.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and rows[0]["seed"] == "3"

    def test_run_prints_its_summary_exactly(self, tmp_path, capsys):
        # The first protocol and BER written, with the fields of runs.csv's
        # total row from delivered_bytes on, in header order.
        text = (SMALL.replace("plain, cope, bend, flexonc", "flexonc, plain")
                .replace("bers = 0, 1e-4", "bers = 1e-4, 0"))
        assert main(["run", self.write_cfg(tmp_path, text), "--seed", "3",
                     "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "protocol=flexonc ber=0.0001 seed=3",
            "delivered_bytes=53000 throughput_bps=212000.000 tx_total=231 "
            "tx_coded=33 retx=126 dups=3 helper_fwds=34",
            f"wrote {tmp_path / 'runs.csv'}",
        ]

    def test_run_creates_a_missing_out_dir(self, tmp_path):
        out = tmp_path / "fresh" / "results"
        assert main(["run", self.write_cfg(tmp_path), "--out-dir",
                     str(out)]) == 0
        assert (out / "runs.csv").exists()

    def test_sweep_writes_runs_and_gains(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "results"
        assert main(["sweep", cfg, "--out-dir", str(out), "--jobs", "1",
                     "--quiet"]) == 0
        assert (out / "runs.csv").exists()
        assert (out / "gains.csv").exists()

    def test_gains_recomputes_identical_file(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "results"
        main(["sweep", cfg, "--out-dir", str(out), "--jobs", "1", "--quiet"])
        original = (out / "gains.csv").read_bytes()
        redo = tmp_path / "redo"
        os.makedirs(redo)
        assert main(["gains", str(out / "runs.csv"),
                     "--out-dir", str(redo)]) == 0
        assert (redo / "gains.csv").read_bytes() == original

    def test_sweep_with_a_subset_of_baselines(self, tmp_path):
        # Gains cover only the baselines the sweep ran, as `meshnc gains`
        # computes them from the same runs.csv.
        cfg = self.write_cfg(tmp_path, SMALL.replace(
            "plain, cope, bend, flexonc", "plain, flexonc"))
        out, redo = tmp_path / "results", tmp_path / "redo"
        assert main(["sweep", cfg, "--out-dir", str(out), "--jobs", "1",
                     "--quiet"]) == 0
        os.makedirs(redo)
        assert main(["gains", str(out / "runs.csv"),
                     "--out-dir", str(redo)]) == 0
        gains = (out / "gains.csv").read_bytes()
        assert gains == (redo / "gains.csv").read_bytes()
        rows = csv.DictReader(gains.decode().splitlines())
        assert {r["base"] for r in rows} == {"plain"}

    def test_gains_creates_a_missing_out_dir(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "results"
        main(["sweep", cfg, "--out-dir", str(out), "--jobs", "1", "--quiet"])
        redo = tmp_path / "fresh" / "redo"
        assert main(["gains", str(out / "runs.csv"),
                     "--out-dir", str(redo)]) == 0
        assert (redo / "gains.csv").read_bytes() == \
            (out / "gains.csv").read_bytes()

    def test_sweep_into_a_file_fails_before_any_cell(self, tmp_path, capsys):
        # The out-dir is made before the first cell runs, so a bad one
        # costs no sweep.
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["sweep", self.write_cfg(tmp_path), "--out-dir",
                     str(taken), "--jobs", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "[1/" not in err
        assert taken.read_text() == ""

    def test_sweep_determinism_across_invocations(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["sweep", cfg, "--out-dir", str(a), "--jobs", "1", "--quiet"])
        main(["sweep", cfg, "--out-dir", str(b), "--jobs", "1", "--quiet"])
        assert (a / "runs.csv").read_bytes() == (b / "runs.csv").read_bytes()
        assert (a / "gains.csv").read_bytes() == (b / "gains.csv").read_bytes()

    def test_gains_without_a_baseline_cell_fails_cleanly(self, tmp_path, capsys):
        # bend ran at BER 0 only, so flexonc at 1e-4 has nothing to beat.
        rows = [{"scenario": "s", "protocol": p, "ber": ber, "seed": 1,
                 "flow": "total", "throughput_bps": "80.000"}
                for p, ber in (("flexonc", "0.0"), ("flexonc", "0.0001"),
                               ("bend", "0.0"))]
        path = tmp_path / "runs.csv"
        write_csv(rows, RUNS_HEADER, str(path))
        assert main(["gains", str(path), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "missing baseline cell 'bend' at ber=0.0001" in err
        assert not (tmp_path / "gains.csv").exists()

    @pytest.mark.parametrize("protocols", ["plain, cope", "flexonc"])
    def test_gains_without_flexonc_or_a_baseline_fails_cleanly(
            self, tmp_path, capsys, protocols):
        # The sweep writes no gains.csv, and `meshnc gains` rejects its
        # runs.csv like any other bad input.
        cfg = self.write_cfg(tmp_path, SMALL.replace(
            "plain, cope, bend, flexonc", protocols))
        out, redo = tmp_path / "results", tmp_path / "redo"
        assert main(["sweep", cfg, "--out-dir", str(out), "--jobs", "1",
                     "--quiet"]) == 0
        assert not (out / "gains.csv").exists()
        capsys.readouterr()
        os.makedirs(redo)
        assert main(["gains", str(out / "runs.csv"),
                     "--out-dir", str(redo)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "lacks flexonc rows or any baseline rows" in err
        assert not (redo / "gains.csv").exists()

    def test_gains_without_a_column_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "runs.csv"
        path.write_text("scenario,ber,seed,flow,throughput_bps\n"
                        "s,0.0,1,total,80.000\n")
        assert main(["gains", str(path), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'protocol'" in err

    def test_missing_config_fails_cleanly(self, capsys):
        assert main(["run", "/nonexistent.cfg"]) == 2
        assert "error" in capsys.readouterr().err

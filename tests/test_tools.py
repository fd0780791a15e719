"""The pure helpers of the command-line tools under tools/."""
import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


benchpairs = load("benchpairs")


class TestBeyondSpread:
    # Base median 12, quartiles 10.5 and 13.5 (q3 - q1 = 3).
    BASE = [14.0, 10.0, 13.0, 11.0, 12.0]

    def test_quartiles(self):
        assert benchpairs.quartiles(self.BASE) == (10.5, 12.0, 13.5)

    @pytest.mark.parametrize("change, beyond", [
        ([15.1, 15.1, 15.1], True),    # above, by more than the spread
        ([8.9, 8.9, 8.9], True),       # below, by more than the spread
        ([14.9, 14.9, 14.9], False),   # above, within it
        ([9.1, 9.1, 9.1], False),      # below, within it
        ([15.0, 15.0, 15.0], False),   # exactly the spread is not beyond
        ([1.0, 15.2, 99.0], True),     # the median decides, not the mean
        ([1.0, 12.5, 99.0], False),
    ])
    def test_compares_medians_with_the_base_spread(self, change, beyond):
        assert benchpairs.beyond_spread(self.BASE, change) is beyond

    def test_a_single_base_run_has_no_spread(self):
        assert benchpairs.beyond_spread([5.0], [5.0]) is False
        assert benchpairs.beyond_spread([5.0], [5.1]) is True
        assert benchpairs.spread([5.0]) == "5"


class TestBytecodeCaches:
    def test_names_each_tree_that_holds_a_meshnc_cache(self, tmp_path):
        base, change = tmp_path / "base", tmp_path / "change"
        for tree in (base, change):
            (tree / "src" / "meshnc").mkdir(parents=True)
        assert benchpairs.bytecode_caches([base, change]) == []
        # Caches elsewhere in a tree are not imported by the benchmark.
        (base / "tests" / "__pycache__").mkdir(parents=True)
        (change / "src" / "__pycache__").mkdir()
        assert benchpairs.bytecode_caches([base, change]) == []
        cache = change / "src" / "meshnc" / "__pycache__"
        cache.mkdir()
        assert benchpairs.bytecode_caches([base, change]) == [cache]
        (base / "src" / "meshnc" / "__pycache__").mkdir()
        assert benchpairs.bytecode_caches([base, change]) == [
            base / "src" / "meshnc" / "__pycache__", cache]

    def test_refuses_to_start_on_a_cache(self, tmp_path):
        cache = tmp_path / "src" / "meshnc" / "__pycache__"
        cache.mkdir(parents=True)
        with pytest.raises(SystemExit) as refused:
            benchpairs.main([str(tmp_path), str(tmp_path), "--seeds", "1"])
        assert str(cache) in str(refused.value)


scaleprobe = load("scaleprobe")


class TestScaleProbeConfig:
    @pytest.mark.parametrize("k, rows", [(2, [0, 0, 1, 1]), (5, [0, 1, 3, 4]),
                                         (20, [0, 6, 13, 19])])
    def test_flow_rows_span_the_grid(self, k, rows):
        assert scaleprobe.flow_rows(k) == rows

    def test_grid_config_is_a_pitched_grid_with_alternating_row_flows(self):
        from meshnc import Protocol, parse_config
        cfg = parse_config(scaleprobe.grid_config(5, "flexonc", seeds=(3, 4)))
        assert cfg.protocols == (Protocol.FLEXONC,)
        assert cfg.bers == (1e-4,) and cfg.seeds == (3, 4)
        assert cfg.range_m == 250.0
        assert cfg.explicit_nodes == {
            r * 5 + c: (c * 150.0, r * 150.0)
            for r in range(5) for c in range(5)}
        assert [(f.src, f.dst, f.interval, f.duration) for f in cfg.flows] == [
            (0, 4, 0.1, 10.0), (9, 5, 0.1, 10.0),
            (15, 19, 0.1, 10.0), (24, 20, 0.1, 10.0)]

    def test_scan_grant_counts_every_node_the_scan_reads(self):
        # The scan reads every node's queues at every grant and calls no
        # `ready`, so a count of `ready` calls would read far below N.
        row = scaleprobe.probe(3, "plain")
        assert row["N"] == 9 and row["events"] > 0
        assert row["scan_grant"] >= 9


samebytes = load("samebytes")


class TestSameBytes:
    A = ["eight_node plain 0.0001 1\tevents=10\ttx_data=4\tdrops=[]",
         "eight_node plain 0.0001 2\tevents=12\ttx_data=5\tdrops=[]"]

    def test_equal_lists_have_no_difference(self):
        assert samebytes.first_difference(self.A, list(self.A)) is None

    def test_names_the_first_differing_cell_and_its_fields(self):
        b = [self.A[0].replace("events=10", "events=11")
             .replace("drops=[]", "drops=[('undecodable', 1)]"),
             self.A[1].replace("tx_data=5", "tx_data=6")]
        assert samebytes.first_difference(self.A, b) == (
            "eight_node plain 0.0001 1: events, drops differ")

    def test_reports_a_cell_count_mismatch(self):
        assert samebytes.first_difference(self.A, self.A[:1]) == (
            "cell counts differ: 2 against 1")

    def test_cells_expand_to_the_two_digest_groups(self, monkeypatch):
        # Every cell runs a stub that returns empty metrics, so the real
        # expansion is counted without simulating anything.
        import meshnc

        class StubSimulation:
            def __init__(self, scenario, seed):
                self.rng = None

            def run(self):
                return meshnc.Metrics()

        monkeypatch.setattr(meshnc, "Simulation", StubSimulation)
        lines = samebytes.cell_lines()
        first = lines[:samebytes.FIRST_DIGEST_CELLS]
        assert (len(first), len(lines) - len(first)) == (156, 18)
        assert sum(" coarse\t" in line for line in first) == 24
        assert not any(" evict\t" in line for line in first)
        assert all(" evict\t" in line and " plain " not in line
                   for line in lines[len(first):])
        assert len(set(line.split("\t")[0] for line in lines)) == 174
        assert samebytes.AUDIT_CELLS == 174

    def test_knob_cells_are_a_block_of_their_own(self, monkeypatch):
        # The stub records each cell's knobs instead of simulating it.
        import meshnc

        params = []

        class StubSimulation:
            def __init__(self, scenario, seed):
                params.append(scenario.params)

            def run(self):
                return meshnc.Metrics()

        monkeypatch.setattr(meshnc, "Simulation", StubSimulation)
        lines = samebytes.cell_lines(knobs=True)
        assert len(lines) == len(set(lines)) == 18
        assert all(" knobs\t" in line and " plain " not in line
                   for line in lines)
        assert {(p.timers.ack_slot, p.queue_cap) for p in params} == {
            (samebytes.KNOB_ACK_SLOT, samebytes.KNOB_QUEUE_CAP)}

    def test_event_order_is_read_off_every_engine_pop(self, monkeypatch):
        # Restored by monkeypatch after the test, as the child never is.
        import heapq
        import struct

        from meshnc import (Flow, Protocol, Scenario, Simulation,
                            build_topology, default_flows)
        monkeypatch.setattr(heapq, "heappop", heapq.heappop)

        class Chunks(list):
            update = list.append

        popped = Chunks()
        samebytes.record_event_order(popped)
        flows = tuple(Flow(f.src, f.dst, f.interval, 5.0)
                      for f in default_flows("x_topo"))
        sim = Simulation(Scenario("x_topo", build_topology("x_topo"),
                                  Protocol.FLEXONC, 1e-4, flows), 1)
        m = sim.run()
        order = [struct.unpack("<dq", chunk) for chunk in popped]
        # Every handled event, and the first one past the horizon if any.
        assert m.events > 0 and len(order) - m.events in (0, 1)
        assert order == sorted(order)
        assert order[m.events - 1][0] == sim.now

    def test_an_event_order_difference_fails_the_audit(self, monkeypatch,
                                                       capsys):
        lines = self.A
        events = iter([("a" * 64, "k" * 64), ("a" * 64, "m" * 64)])
        monkeypatch.setattr(samebytes, "start", lambda tree: tree)
        monkeypatch.setattr(samebytes, "finish",
                            lambda tree, proc: (lines, next(events)))
        assert samebytes.main(["base", "change"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[2] == f"{'a' * 64}  event order  base"
        assert out[4] == f"{'k' * 64}  knob event order  base"
        assert out[9] == f"{'m' * 64}  knob event order  change"
        assert out[-1] == "first difference: event order differs"

    def test_prints_line_counts_after_the_digests(self, monkeypatch, capsys,
                                                  tmp_path):
        # Two scratch trees: one module shrinks, one goes, one is new and
        # one is left alone. Code lines leave out blank and comment-only
        # lines and docstrings, but not another string's lines. The digest
        # lines read as before, and the verdict stays last.
        docs = '"""Doc\nstring."""\nx = 1\n\n# note\ny = 2\n'
        func = 'def f():\n    """Doc."""\n    return 1  # one\n'
        text = 's = """\nnot a docstring\n"""\nx = 1  # one\n'
        for tree, modules in (("base", {"a.py": docs, "b.py": "x = 1\n" * 2,
                                        "c.py": func}),
                              ("change", {"a.py": "x = 1\n",
                                          "b.py": "x = 1\n" * 2,
                                          "d.py": text})):
            package = tmp_path / tree / "src" / "meshnc"
            package.mkdir(parents=True)
            for name, source in modules.items():
                (package / name).write_text(source)
        base, change = tmp_path / "base", tmp_path / "change"
        monkeypatch.setattr(samebytes, "start", lambda tree: tree)
        monkeypatch.setattr(samebytes, "finish",
                            lambda tree, proc: (self.A, ("e" * 64, "k" * 64)))
        assert samebytes.main([str(base), str(change)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[2] == f"{'e' * 64}  event order  {base}"
        assert out[4] == f"{'k' * 64}  knob event order  {base}"
        assert out[7] == f"{'e' * 64}  event order  {change}"
        assert out[9] == f"{'k' * 64}  knob event order  {change}"
        assert out[10:] == [
            f"11 lines  a.py 6, b.py 2, c.py 3  {base}",
            f"7 lines  a.py 1, b.py 2, d.py 4  {change}",
            "lines changed: a.py 6 → 1, c.py 3 → -, d.py - → 4, "
            "total 11 → 7",
            f"6 code lines  a.py 2, b.py 2, c.py 2  {base}",
            f"7 code lines  a.py 1, b.py 2, d.py 4  {change}",
            "code lines changed: a.py 2 → 1, c.py 2 → -, d.py - → 4, "
            "total 6 → 7",
            "same bytes",
        ]

    def test_names_the_first_cell_whose_event_order_differs(self, monkeypatch,
                                                            capsys):
        # The child ends each cell line with that cell's event-order digest.
        # The metric digests leave it out, so they read as without it, and
        # a difference in it alone names its cell.
        import hashlib

        field = samebytes.EVENT_FIELD
        base = [f"{line}{field}{'1' * 64}" for line in self.A]
        change = [base[0], f"{self.A[1]}{field}{'2' * 64}"]
        results = iter([(base, ("a" * 64, "k" * 64)),
                        (change, ("b" * 64, "k" * 64))])
        monkeypatch.setattr(samebytes, "start", lambda tree: tree)
        monkeypatch.setattr(samebytes, "finish",
                            lambda tree, proc: next(results))
        assert samebytes.main(["base", "change"]) == 1
        out = capsys.readouterr().out.splitlines()
        metrics = hashlib.sha256(
            ("\n".join(self.A) + "\n").encode()).hexdigest()
        assert out[0] == f"{metrics}  2 cells  base"
        assert out[5] == f"{metrics}  2 cells  change"
        assert out[-1] == ("first difference: eight_node plain 0.0001 2: "
                           "event_order differ")

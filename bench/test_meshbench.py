"""Tests of the benchmark itself, on configs small enough to run in seconds."""
from __future__ import annotations

import dataclasses
import json

import pytest

import meshbench
import refkernel
from meshtrace import Tracer, load_spans

TINY = dataclasses.replace(meshbench.WORKLOADS["eight_node_coded"],
                           name="tiny", protocols=("plain", "flexonc"),
                           bers=(2e-4,), duration=2.0, seeds_per_pass=1)


def spec() -> dict:
    return json.loads((meshbench.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def scratch_out(tmp_path, monkeypatch):
    monkeypatch.setattr(meshbench, "OUT", tmp_path)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(trace, section):
    rec = meshbench.run_workload(TINY, seed=1, seconds=0, trace=bool(trace))
    assert rec["correct"] and rec["cells_failed"] == 0 and rec["cells"] == 2
    emitted = {k: v["unit"] for k, v in rec["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in spec()[section]}
    for m in rec["metrics"].values():
        assert isinstance(m["value"], (int, float))
    line = json.loads(meshbench.result_line(rec))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_calibration_kernel_does_fixed_work_without_meshnc():
    # The checksum pins the kernel's work: figures priced in ``ref`` are
    # comparable only while it holds.
    assert refkernel.kernel(1_000) == refkernel.kernel(1_000) == 12286
    assert not any(name.startswith("meshnc") for name in vars(refkernel))


def test_workload_names_match_the_spec():
    assert [w["name"] for w in spec()["workloads"]] == list(meshbench.WORKLOADS)


def test_seed_picks_distinct_simulation_seeds():
    w = meshbench.WORKLOADS["eight_node_plain"]
    assert w.sim_seeds(0) == tuple(range(1, w.seeds_per_pass + 1))
    assert not set(w.sim_seeds(1)) & set(w.sim_seeds(2))
    assert w.config_text(3) == w.config_text(3)


def test_invariant_checker_flags_a_corrupted_row():
    text = TINY.config_text(1)
    good = meshbench.run_pass(text)
    cen = meshbench.census(text)
    assert cen.failures(good) == {}
    header, first, *rest = good.splitlines()
    fields = first.split(",")
    col = header.split(",").index("delivered_bytes")
    fields[col] = str(int(fields[col]) + 1000)
    bad = "\n".join([header, ",".join(fields), *rest]) + "\n"
    failed = cen.failures(bad)
    assert len(failed) == 1
    (problems,) = failed.values()
    assert any("delivered_bytes" in p for p in problems)


def test_a_cell_that_raises_fails_the_run(monkeypatch):
    real_run = meshbench.meshnc.run

    def flaky(scenario, seed):
        if scenario.protocol.name == "FLEXONC":
            raise RuntimeError("boom")
        return real_run(scenario, seed)

    monkeypatch.setattr(meshbench.meshnc, "run", flaky)
    rec = meshbench.run_workload(TINY, seed=1, seconds=0, trace=False)
    assert not rec["correct"] and rec["cells_failed"] == 1
    assert rec["metrics"] == {}
    assert list(rec["failures"]) == ["flexonc/0.0002/2"]


def test_traced_pass_restores_originals_and_spans_add_up(tmp_path):
    targets = Tracer()
    meshbench.install_tracer(targets)
    originals = list(targets._patches)
    targets.restore()
    owners = {(owner, attr) for owner, attr, _ in originals}
    assert len(owners) > 20
    assert (meshbench.mengine, "sample_reception") in owners
    assert (meshbench.mnode.NodeState, "on_ack") in owners

    text = TINY.config_text(1)
    runs_csv, _, tracer, own = meshbench.traced_pass(text, tmp_path / "spans")
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original
    assert runs_csv == meshbench.run_pass(text)
    assert tracer.check(own) == []
    assert min(own) >= 0
    names, cols = load_spans(tmp_path / "spans")
    assert names == tracer.names
    assert list(cols["parent"]) == list(tracer.parent)
    assert cols["end_ns"][0] - cols["start_ns"][0] == sum(own)


def test_plain_workload_makes_no_coding_or_core_calls():
    plain = dataclasses.replace(meshbench.WORKLOADS["eight_node_plain"],
                                duration=2.0, seeds_per_pass=1)
    rec = meshbench.run_workload(plain, seed=1, seconds=0, trace=True)
    m = {k: v["value"] for k, v in rec["metrics"].items()}
    for name in ("coding.knowledge_add_calls", "coding.knowledge_merge_calls",
                 "coding.knowledge_query_calls", "core.encode_calls",
                 "core.decode_calls", "core.xor_bytes"):
        assert m[name] == 0, name
    assert m["coding.knowledge_s"] == m["core.codec_s"] == 0
    assert m["engine.grants"] > 0 and m["channel.frames"] > 0

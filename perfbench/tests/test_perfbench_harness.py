"""Tests of the benchmark harness: its hooks, span arithmetic and checks."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for _p in (ROOT / "src", BENCH):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

import graphcd.model as mdl  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Three epochs of texas-like: two timed epoch intervals per unit.
SMALL = workloads.Training("small", "texas-like", max_epochs=3, acc_floor=0.0)
ALL_TARGETS = {f"{o.__name__}.{a}" for o, a in tracing.patch_targets()}
PRISTINE = {(o, a): vars(o)[a] for o, a in tracing.patch_targets()}


def patched_names() -> set:
    """Hook targets that differ from their state when this module loaded."""
    return {f"{o.__name__}.{a}" for (o, a), v in PRISTINE.items()
            if vars(o)[a] is not v}


def _spy_on_train(monkeypatch):
    """Record which hook targets are replaced while model.train runs."""
    seen, real_train = [], mdl.train

    def spy(*args, **kwargs):
        seen.append(patched_names())
        return real_train(*args, **kwargs)

    monkeypatch.setattr(mdl, "train", spy)
    return seen


def test_untraced_unit_installs_only_the_epoch_boundary(monkeypatch):
    seen = _spy_on_train(monkeypatch)
    m = SMALL.unit(0, 1)
    assert seen == [{"AdamW.zero_grad"}]
    assert patched_names() == set()
    assert m.failed == 0 and len(m.epoch_s) == 2 and len(m.forward_s) == 1


def test_setup_measurement_stops_at_first_epoch_and_unhooks():
    t0, t1 = SMALL.setup_once(0)
    assert t1 > t0
    assert patched_names() == set()


def test_tracer_wraps_every_target_and_removes_each(monkeypatch):
    seen = _spy_on_train(monkeypatch)
    with tracing.Tracer() as tracer:
        m = SMALL.unit(0, 1)
    assert seen == [ALL_TARGETS]
    assert patched_names() == set()
    table = tracer.table(m.op_intervals)
    # RK4 on texas-like: two steps of four stages, train and eval forward,
    # in each of the two timed epochs.
    assert table.count("dynamics.rhs") == 2 * 16
    assert table.count(tracing.BWD + "edge_dot") > 0
    assert table.records > 0


def test_tracer_unhooks_when_the_run_raises():
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("boom")
    assert patched_names() == set()


def test_self_time_subtracts_direct_children_only():
    # 0 [0,10] holds 1 [1,4] and 2 [5,9]; 2 holds 3 [6,7].
    start, end, parent = [0, 1, 5, 6], [10, 4, 9, 7], [-1, 0, 0, 2]
    assert tracing.self_times(start, end, parent).tolist() == [3, 3, 3, 1]


def test_tracer_records_parents_and_interval_sums():
    tracer = tracing.Tracer()
    inner = tracer.timed("inner", lambda: None)
    outer = tracer.timed("outer", lambda: inner() or inner())
    outer()
    outer()
    cols = tracer.columns()
    assert cols["parent"].tolist() == [-1, 0, 0, -1, 3, 3]
    dur = cols["end"] - cols["start"]
    assert cols["self"][0] == pytest.approx(dur[0] - dur[1] - dur[2])
    assert cols["self"][3] == pytest.approx(dur[3] - dur[4] - dur[5])
    table = tracer.table([(cols["start"][0], cols["end"][0])])
    assert table.count("inner") == 2 and table.count("outer") == 1
    assert table.total("outer", "self") == pytest.approx(cols["self"][0])


def test_in_intervals_maps_times_to_their_interval():
    idx = tracing.in_intervals([0.5, 1.5, 2.5, 3.0, 9.0], [(1, 2), (2.5, 3)])
    assert idx.tolist() == [-1, 0, 1, -1, -1]


def test_checks_accept_the_reference_and_reject_a_perturbed_one():
    out = {"final_loss": 0.5, "test_acc": 0.9}
    assert workloads.check_training(out, dict(out), 0.6) == []
    assert workloads.check_training(out, {**out, "final_loss": 0.5001}, 0.6)
    assert workloads.check_training(out, {**out, "test_acc": 0.95}, 0.6)
    assert workloads.check_training(out, None, 0.95)
    assert workloads.check_training({**out, "final_loss": np.nan}, None, 0.6)
    ratios = {"pure_diffusion": 0.002, "adaptive": 0.4}
    assert workloads.check_energy(ratios, dict(ratios)) == []
    assert workloads.check_energy(ratios, {**ratios, "adaptive": 0.40001})
    assert workloads.check_energy({**ratios, "pure_diffusion": 1.5}, None)


def test_unit_fails_against_a_perturbed_recorded_reference(monkeypatch):
    wl = workloads.WORKLOADS["texas-rk4-train"]
    ref = workloads.load_reference()[wl.name]["0"]
    m = wl.unit(0, 1)
    assert m.failed == 0, m.failures
    bad = {**ref, "final_loss": ref["final_loss"] * (1 + 1e-4)}
    monkeypatch.setattr(workloads, "_REFERENCE", {wl.name: {"0": bad}})
    m = wl.unit(0, 1)
    assert m.failed == len(m.epoch_s) and "final loss" in m.failures[0]


def test_isolated_unit_reports_its_own_peak_and_merges():
    m = workloads.Measurement()
    for isolate in (True, False):
        m.merge(workloads.run_unit(isolate, SMALL.unit, 0, 2))
    assert len(m.epoch_s) == 4 and len(m.forward_s) == 4
    assert m.attempted == 2 * (2 + 1 + 2) and m.failed == 0
    assert len(m.peak_rss_mb) == 1 and m.peak_rss_mb[0] > 0


def test_isolated_unit_that_raises_fails_the_run():
    def broken():
        raise KeyError("unit bug")

    with pytest.raises(RuntimeError, match="exited with status"):
        workloads.run_unit(True, broken)


def test_benchmark_spec_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(n, u) for n, u, _ in bench.PER_LAYER]
    ref = workloads.load_reference()
    assert all(ref[name] for name in workloads.WORKLOADS)


def test_run_without_graphcd_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "texas-rk4-train",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""The benchmark's own tests, at tiny scale."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from optibench import layers, run, workloads  # noqa: E402
from optibench.tracer import Tracer  # noqa: E402


def _bindings():
    """Every attribute of every loaded ``repro`` module and class."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            seen[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for member, inner in list(vars(value).items()):
                    seen[(name, attr, member)] = inner
    return seen


def _tiny_flood(n=16, plane="columnar-fast"):
    from repro.experiments.runner import Scenario

    size = workloads.TINY["pbft-flood"]
    return Scenario(
        protocol="pbft",
        deployment=f"world-{n}",
        workload="open-loop",
        workload_params={"rate": size["rate"], "clients": size["clients"]},
        duration=size["duration"],
        seed=5,
        jitter=0.0,
        plane=plane,
    )


def test_tracer_restores_every_wrapped_boundary():
    tracer = Tracer()
    tracer._modules()  # import everything first, so the snapshot covers it
    before = _bindings()
    tracer.install()
    try:
        import repro.sim.network as network

        assert hasattr(network.Network.send, "__optibench_original__")
        during = _bindings()
    finally:
        tracer.uninstall()
    after = _bindings()
    assert sum(during[key] is not value for key, value in before.items()) > 500
    for key, value in before.items():
        assert after[key] is value, key


def test_traced_run_matches_untraced_and_self_time_within_total():
    from repro.experiments import runner
    from repro.experiments.trace import state_trace_hash

    untraced = state_trace_hash(runner.run_scenario(_tiny_flood(plane="object")).cluster)
    with Tracer() as tracer:
        traced = state_trace_hash(runner.run_scenario(_tiny_flood(plane="object")).cluster)
    assert traced == untraced
    busy = [row for row in tracer.rows.values() if row.calls]
    assert busy
    for row in busy:
        assert row.self_time <= row.total + 1e-9, row.key
        assert row.spans <= row.calls, row.key
    assert sum(row.spans for row in busy) > 0


def _traced_worker(tmp_path, name):
    work = tmp_path / name
    subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", "fig9-grid",
         "--seed", "2", "--trace", "1", "--tiny", "--work-dir", str(work)],
        cwd=ROOT, check=True, capture_output=True, timeout=300,
    )
    with open(work / "trace-fig9-grid.json") as handle:
        return json.load(handle)


def test_identical_tiny_runs_give_identical_call_counts(tmp_path):
    first = _traced_worker(tmp_path, "a")
    second = _traced_worker(tmp_path, "b")
    calls = {key: row["calls"] for key, row in first["rows"].items()}
    assert calls == {key: row["calls"] for key, row in second["rows"].items()}
    assert calls["repro.tree.optitree:optitree_search"] == 8


def _record(**outputs):
    return {"op": "x", "outputs": outputs}


def test_planted_wrong_outputs_fail_the_checks():
    good = _record(committed_requests=5, client={"requests_sent": 6, "requests_completed": 5})
    assert workloads.check_op("pbft-flood", good) == []
    assert workloads.check_op("pbft-flood", _record(committed_requests=0))
    assert workloads.check_op(
        "pbft-flood",
        _record(committed_requests=7, client={"requests_sent": 6, "requests_completed": 5}),
    )
    assert workloads.check_op(
        "pbft-flood",
        _record(committed_requests=5, client={"requests_sent": 6, "requests_completed": 9}),
    )
    assert workloads.check_op(
        "pbft-campaign", _record(committed_requests=90, requests_target=100, underrun=True)
    )

    def cell(protocol, latency):
        record = _record(committed_requests=1, fig9={
            "deployment": "Global73", "protocol": protocol, "latency": latency})
        record["op"] = protocol
        return record

    assert workloads.check_grid([cell("OptiTree", 0.2), cell("Kauri (pipeline)", 0.7)]) == {}
    assert workloads.check_grid([cell("OptiTree", 0.9), cell("Kauri (pipeline)", 0.7)])

    pieces = [("setup", 1.0), ("run", 2.0)]
    repeat = {"records": [{"op": "x", "hash": "a", "failures": []}], "pieces": pieces}
    other = {"records": [{"op": "x", "hash": "b", "failures": []}], "pieces": pieces}
    unmarked = {"records": repeat["records"], "pieces": pieces[:1]}
    assert run.judge([repeat, repeat])["failed"] == 0
    assert run.judge([repeat, other])["failed"] == 1
    assert run.judge([repeat, unmarked])["failed"] == 1


def test_fastest_takes_each_piece_from_its_fastest_repeat():
    first = {"pieces": [("setup", 0.3), ("run", 1.0), ("run", 5.0), ("other", 0.1)]}
    second = {"pieces": [("setup", 0.5), ("run", 4.0), ("run", 2.0), ("other", 0.2)]}
    stray = {"pieces": [("setup", 0.1)]}
    best = run.fastest([first, second, stray])
    assert best == pytest.approx({"wall_s": 3.4, "setup_s": 0.3, "run_s": 3.0})


@pytest.mark.parametrize("plane", ["object", "columnar-fast"])
def test_stopwatch_chunks_change_nothing(plane):
    from repro.experiments.runner import run_scenario
    from repro.experiments.trace import state_trace_hash

    scenario = _tiny_flood(plane=plane)
    whole = state_trace_hash(run_scenario(scenario).cluster)
    with workloads.Stopwatch(chunk_events=3) as watch:
        chunked = state_trace_hash(run_scenario(scenario).cluster)
    assert chunked == whole
    labels = [label for label, _ in watch.marks]
    assert labels[0] == "run" and labels[1] == "setup" and labels.count("run") > 10


@pytest.mark.parametrize("n", [16, 32])
def test_flood_shape_passes_check_fast(n):
    from repro.experiments.runner import run_scenario

    result = run_scenario(_tiny_flood(n=n, plane="check-fast"))
    assert result.metrics()["committed_requests"] > 0


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.SIZES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.METRICS
    assert len(layers.METRICS) <= 128


def test_run_fails_without_simulator_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "optibench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "optibench/run.py", "--workload", "pbft-flood", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

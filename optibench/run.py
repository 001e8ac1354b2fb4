"""Benchmark of the OptiLog reproduction: end-to-end and per-layer.

    python3 optibench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root.  Each repeat of a workload runs in a fresh
``optibench/worker.py`` process; repeats continue until ``--seconds``
would pass and at least three have run.  Every repeat of a seed does the
same work and marks the clock at the same points (``Stopwatch`` in
``workloads.py``), so each piece between two marks is timed once per
repeat.  The time-based metrics sum, piece by piece, the fastest repeat
(:func:`fastest`): a neighbour that slows the host for part of a repeat
then costs nothing unless it slows that piece in every repeat.

With ``--trace 0`` the last stdout line is one JSON object whose
``metrics`` are the end-to-end metrics.  With ``--trace 1`` untraced and
traced repeats alternate on the same seed (untraced, traced, traced,
untraced); ``metrics`` are the per-layer metrics of the first traced
repeat, and the traced hashes must equal the untraced ones.
``--workload all`` runs the four workloads serially and ends with one
object holding ``<workload>.<metric>`` for each.

``correct`` is false when an operation raised, failed an output check,
or when two repeats of the same seed (or the traced and untraced twins)
disagree on an operation's state-trace hash or on the clock marks.  A
fixed pure-Python calibration loop runs before and after each set; its
seconds go to the ``info`` line as host-drift information and never
correct a metric.  Exits 2 without a result when the simulator sources
are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from optibench.workloads import SIZES, outputs_digest  # noqa: E402  (no simulator import)

WORKER = os.path.join(HERE, "worker.py")
WORK_DIR = os.path.join(HERE, ".work")
MIN_REPEATS = 3
MAX_REPEATS = 25
#: A repeat that outlives this is killed and the run fails loudly.
WORKER_TIMEOUT_S = 150.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "deliveries_per_s": "1/s",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a wrong output)."""


def spin(iterations: int) -> float:
    """Seconds for a fixed pure-Python loop: the calibration that brackets
    each set.  Host drift, information only."""
    start = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += (i * i) % 7
    return time.perf_counter() - start


def run_worker(workload: str, seed: int, trace: bool) -> Dict[str, Any]:
    """One repeat in a fresh process: its record plus its timed pieces."""
    command = [
        sys.executable, WORKER,
        "--workload", workload,
        "--seed", str(seed),
        "--trace", "1" if trace else "0",
        "--work-dir", os.path.join(WORK_DIR, workload),
    ]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{workload} repeat exceeded {WORKER_TIMEOUT_S} s") from error
    end = time.monotonic()
    if proc.returncode != 0:
        raise BenchError(
            f"{workload} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    # Process start to imports done is set-up; the exit after the last
    # mark is "other".  CLOCK_MONOTONIC is shared with the worker.
    marks = [("setup", data["imported"])] + [tuple(m) for m in data["marks"]] + [("other", end)]
    pieces, previous = [], start
    for label, at in marks:
        pieces.append((label, at - previous))
        previous = at
    data["pieces"] = pieces
    data["wall_s"] = end - start
    return data


def _labels(repeat: Dict[str, Any]) -> List[str]:
    return [label for label, _ in repeat["pieces"]]


def _totals(pieces: List[tuple]) -> Dict[str, float]:
    by_label = {"setup": 0.0, "run": 0.0, "other": 0.0}
    for label, seconds in pieces:
        by_label[label] += seconds
    return {
        "wall_s": sum(by_label.values()),
        "setup_s": by_label["setup"],
        "run_s": by_label["run"],
    }


def fastest(repeats: List[Dict[str, Any]]) -> Dict[str, float]:
    """``wall_s``, ``setup_s`` and ``run_s`` of one repeat, each piece
    taken from the repeat that ran it fastest.  Repeats whose marks
    differ from the first one's are left out (``judge`` fails them)."""
    labels = _labels(repeats[0])
    same = [r for r in repeats if _labels(r) == labels]
    best = [min(r["pieces"][i][1] for r in same) for i in range(len(labels))]
    return _totals(list(zip(labels, best)))


def end_to_end(repeats: List[Dict[str, Any]]) -> Dict[str, float]:
    best = fastest(repeats)
    counts = [r.get("counts", {}) for r in repeats[0]["records"]]
    run_s = best["run_s"] or float("inf")
    return {
        "wall_s": best["wall_s"],
        "setup_s": best["setup_s"],
        "deliveries_per_s": sum(c.get("deliveries", 0) for c in counts) / run_s,
        "requests_per_s": sum(c.get("requests", 0) for c in counts) / run_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in repeats),
    }


def _hashes(repeat: Dict[str, Any]) -> Dict[str, Optional[str]]:
    return {r["op"]: r.get("hash") for r in repeat["records"]}


def judge(repeats: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Attempted/failed operations over all repeats, with determinism:
    every repeat must give the first repeat's hash for each operation
    and make the first repeat's clock marks."""
    reference = _hashes(repeats[0])
    labels = _labels(repeats[0])
    attempted = failed = 0
    problems: List[str] = []
    for index, repeat in enumerate(repeats):
        marks_differ = _labels(repeat) != labels
        for record in repeat["records"]:
            attempted += 1
            failures = list(record.get("failures", []))
            if record.get("hash") is None or record["hash"] != reference.get(record["op"]):
                failures.append(f"repeat {index}: state-trace hash differs from repeat 0")
            if marks_differ:
                failures.append(f"repeat {index}: clock marks differ from repeat 0")
            if failures:
                failed += 1
                problems.append(f"{record['op']}: {'; '.join(failures)}")
    return {"attempted": attempted, "failed": failed, "problems": problems}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    calibration = [spin(1_500_000)]
    repeats: List[Dict[str, Any]] = []
    if trace:
        # Alternate, so a slow spell of the host falls on both sides.
        for traced in (False, True, True, False):
            repeats.append(run_worker(workload, seed, traced))
    else:
        # Start another repeat only if one more like the last still ends
        # within ``seconds``, so a run measures about ``seconds`` at most.
        begin = time.monotonic()
        while len(repeats) < MIN_REPEATS or (
            time.monotonic() - begin + repeats[-1]["wall_s"] <= seconds
            and len(repeats) < MAX_REPEATS
        ):
            repeats.append(run_worker(workload, seed, False))
    calibration.append(spin(1_500_000))
    verdict = judge(repeats)
    untraced = [r for r in repeats if "layers" not in r]
    info: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "repeats": len(repeats),
        "calibration_s": calibration,
        "outputs_digest": outputs_digest(repeats[0]["records"]),
        "state_trace_hashes": _hashes(repeats[0]),
        "fastest": fastest(untraced),
        "pieces": len(repeats[0]["pieces"]),
        "per_repeat": [
            dict(_totals(r["pieces"]), peak_rss_mb=r["peak_rss_mb"], traced="layers" in r)
            for r in repeats
        ],
        "problems": verdict["problems"],
    }
    if trace:
        from optibench.layers import UNITS

        traced_wall = fastest([r for r in repeats if "layers" in r])["wall_s"]
        layers = dict(repeats[1]["layers"])
        layers["trace.traced_wall_s"] = traced_wall
        layers["trace.overhead"] = traced_wall / info["fastest"]["wall_s"]
        metrics = {name: {"value": layers[name], "unit": UNITS[name]} for name in UNITS}
    else:
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in end_to_end(repeats).items()
        }
    return {
        "correct": verdict["failed"] == 0,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": metrics,
        "info": info,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(SIZES) + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"run.py: no simulator sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    names = tuple(SIZES) if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps({"info": result.pop("info")}, sort_keys=True))
            if len(names) > 1:
                print(json.dumps({name: result}, sort_keys=True))
            results[name] = result
    except BenchError as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 2
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, result in results.items()
                for metric, value in result["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

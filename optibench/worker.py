"""One repeat of one workload, in a fresh process.

    python3 optibench/worker.py --workload NAME --seed N --trace 0|1 \
        --work-dir DIR [--tiny]

Prints one JSON line: the operations' records (public outputs, checks,
state-trace hashes), the monotonic time at which the ``repro`` imports
finished, the labelled clock marks after it (``workloads.Stopwatch``),
and the process's peak RSS.  With ``--trace 1`` the tracer is installed
before any cluster is built, and the line also carries the per-layer
metrics.  Exits 3 when ``repro``
cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    try:
        import repro.experiments.attack  # noqa: F401
        import repro.experiments.campaign  # noqa: F401
        import repro.experiments.fig9  # noqa: F401
        import repro.experiments.trace  # noqa: F401
        import repro.faults.genome  # noqa: F401
    except ImportError as error:
        print(f"worker: cannot import repro from {ROOT}/src: {error}", file=sys.stderr)
        return 3
    imported = time.monotonic()

    from optibench import layers, workloads
    from optibench.tracer import Tracer

    size = (workloads.TINY if args.tiny else workloads.SIZES)[args.workload]
    os.makedirs(args.work_dir, exist_ok=True)
    tracer = Tracer().install() if args.trace else None
    watch = workloads.Stopwatch(size["chunk_events"])
    records = []
    try:
        ops = workloads.BUILDERS[args.workload](args.seed, size, args.work_dir)
        with watch:
            for index, op in enumerate(ops):
                try:
                    record = op(watch)
                    record["failures"] = workloads.check_op(args.workload, record)
                except Exception:  # an operation that raised counts as failed
                    watch.results.clear()
                    record = {"op": f"#{index}", "failures": [traceback.format_exc()]}
                records.append(record)
    finally:
        if tracer is not None:
            tracer.uninstall()
    for op_name, failures in workloads.check_grid(records).items():
        for record in records:
            if record["op"] == op_name:
                record["failures"] += failures
    watch.mark("other")
    out = {
        "imported": imported,
        "marks": watch.marks,
        "records": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["layers"] = layers.layer_metrics(tracer, records)
        tracer.dump(os.path.join(args.work_dir, f"trace-{args.workload}.json"))
    print(json.dumps(out, default=repr))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer metrics of a traced run.

Every name here is listed under ``per_layer`` in ``BENCHMARK.json``, and
every traced run reports all of them on every workload: a layer the
workload bypasses reads zero, which is itself a checked prediction (see
``README.md``).  Counts of simulated work (events, deliveries, commits,
client requests) come from the operations' public results; calls and
seconds come from the tracer.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Tuple

#: Handler message classes per engine (``handle_<Class>`` and
#: ``handle_<Class>Batch`` fold into one row).
HANDLER_CLASSES = {
    "pbft": ("ClientRequest", "PrePrepare", "Prepare", "Commit", "RecordGossip",
             "Probe", "ProbeReply"),
    "hotstuff": ("ClientRequest", "Proposal", "Vote"),
    "kauri": ("ClientRequest", "Proposal", "Vote", "AggregateVote", "Forward"),
}

#: Interceptor classes of the faults layer (network send-path hooks).
INTERCEPTORS = ("DelayAttack.", "DeltaDelayAttack.", "StealthDelayAttack.", "MessageLoss.")


def _metric_table() -> List[Tuple[str, str, str]]:
    """``(name, unit, better)`` for every per-layer metric, in report order."""
    table = [
        ("sim.engine.events", "count", "lower"),
        ("sim.engine.self_s", "s", "lower"),
        ("sim.network.deliveries", "count", "lower"),
        ("sim.network.drops", "count", "lower"),
        ("sim.network.send_calls", "count", "lower"),
        ("sim.network.multicast_calls", "count", "lower"),
        ("sim.network.self_s", "s", "lower"),
        ("sim.network.deliveries_per_event", "ratio", "higher"),
        ("sim.network.deliveries_per_handler_call", "ratio", "higher"),
        ("net.resolve_s", "s", "lower"),
        ("net.self_s", "s", "lower"),
        ("consensus.self_s", "s", "lower"),
    ]
    for engine, classes in HANDLER_CLASSES.items():
        layer = f"consensus.{engine}"
        table.append((f"{layer}.self_s", "s", "lower"))
        for cls in classes:
            table.append((f"{layer}.handler_calls.{cls}", "count", "lower"))
            table.append((f"{layer}.self_s.{cls}", "s", "lower"))
        table.append((f"{layer}.msgs_per_commit", "msg/commit", "lower"))
        table.append((f"{layer}.bytes_per_commit", "B/commit", "lower"))
    table += [
        ("crypto.sign_calls", "count", "lower"),
        ("crypto.verify_calls", "count", "lower"),
        ("crypto.aggregate_calls", "count", "lower"),
        ("crypto.self_s", "s", "lower"),
        ("core.timeouts.expected_messages_calls", "count", "lower"),
        ("core.timeouts.self_s", "s", "lower"),
        ("core.suspicion.on_message_calls", "count", "lower"),
        ("core.suspicion.self_s", "s", "lower"),
        ("core.latency.is_complete_calls", "count", "lower"),
        ("core.latency.self_s", "s", "lower"),
        ("core.log.appends", "count", "lower"),
        ("core.log.self_s", "s", "lower"),
        ("core.self_s", "s", "lower"),
        ("aware.search_calls", "count", "lower"),
        ("aware.search_s", "s", "lower"),
        ("aware.reconfigurations", "count", "lower"),
        ("aware.self_s", "s", "lower"),
        ("tree.optitree_search_calls", "count", "lower"),
        ("tree.search_s", "s", "lower"),
        ("tree.self_s", "s", "lower"),
        ("optimize.anneal_s", "s", "lower"),
        ("optimize.self_s", "s", "lower"),
        ("faults.interceptor_calls", "count", "lower"),
        ("faults.messages_delayed", "count", "lower"),
        ("faults.self_s", "s", "lower"),
        ("workloads.requests_sent", "count", "higher"),
        ("workloads.requests_completed", "count", "higher"),
        ("workloads.client_self_s", "s", "lower"),
        ("metrics.observe_calls", "count", "lower"),
        ("metrics.self_s", "s", "lower"),
        ("experiments.prepare_s", "s", "lower"),
        ("experiments.slices", "count", "lower"),
        ("experiments.compact_s", "s", "lower"),
        ("experiments.checkpoint_s", "s", "lower"),
        ("experiments.checkpoint_bytes", "B", "lower"),
        ("experiments.self_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.traced_wall_s", "s", "lower"),
        ("trace.overhead", "ratio", "lower"),
    ]
    return table


METRICS = _metric_table()
UNITS = {name: unit for name, unit, _ in METRICS}


def _calls(rows: Iterable[Any]) -> int:
    return sum(row.calls for row in rows)


def _total(rows: Iterable[Any]) -> float:
    return sum(row.total for row in rows)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Any, records: List[Dict[str, Any]]) -> Dict[str, float]:
    """Every per-layer metric except the two the parent adds from the
    untraced twin (``trace.traced_wall_s`` and ``trace.overhead``)."""
    counts: Dict[str, int] = {}
    by_family: Dict[str, Dict[str, int]] = {}
    for record in records:
        for key, value in record.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + value
        family = by_family.setdefault(record.get("family", ""), {})
        for key in ("messages_sent", "bytes_sent", "blocks"):
            family[key] = family.get(key, 0) + record.get("counts", {}).get(key, 0)
    layer_self = tracer.layer_self()
    select = tracer.select
    handler_calls = _calls(
        row for row in tracer.rows.values() if row.name.startswith("handle_")
    )
    out: Dict[str, float] = {
        "sim.engine.events": counts.get("events", 0),
        "sim.network.deliveries": counts.get("deliveries", 0),
        "sim.network.drops": counts.get("drops", 0),
        "sim.network.send_calls": _calls(select("sim.network", ["send"])),
        "sim.network.multicast_calls": _calls(select("sim.network", ["multicast"])),
        "sim.network.deliveries_per_event": _ratio(
            counts.get("deliveries", 0), counts.get("events", 0)
        ),
        "sim.network.deliveries_per_handler_call": _ratio(
            counts.get("deliveries", 0), handler_calls
        ),
        "net.resolve_s": _total(select("experiments", ["resolve_deployment"])),
        "crypto.sign_calls": _calls(select("crypto", ["sign", "sign_many"])),
        "crypto.verify_calls": _calls(select("crypto", ["verify", "require_valid"])),
        "crypto.aggregate_calls": _calls(select("crypto", ["aggregate", "merge", "deferred"])),
        "core.timeouts.expected_messages_calls": _calls(
            select("core.timeouts", ["expected_messages"])
        ),
        "core.suspicion.on_message_calls": _calls(select("core.suspicion", ["on_message"])),
        "core.latency.is_complete_calls": _calls(select("core.latency", ["is_complete"])),
        "core.log.appends": _calls(select("core.log", ["append", "append_many"])),
        "aware.search_calls": _calls(
            select("aware", ["annealed_weight_search", "exhaustive_weight_search"])
        ),
        "aware.search_s": _total(
            select("aware", ["annealed_weight_search", "exhaustive_weight_search"])
        ),
        "aware.reconfigurations": counts.get("reconfigurations", 0),
        "tree.optitree_search_calls": _calls(select("tree", ["optitree_search"])),
        "tree.search_s": _total(select("tree", ["optitree_search"])),
        "optimize.anneal_s": _total(select("optimize", ["anneal", "anneal_incremental"])),
        "faults.interceptor_calls": sum(
            _calls(select("faults", ["__call__"], qualname_prefix=prefix))
            for prefix in INTERCEPTORS
        ),
        "faults.messages_delayed": counts.get("messages_delayed", 0),
        "workloads.requests_sent": counts.get("requests_sent", 0),
        "workloads.requests_completed": counts.get("requests_completed", 0),
        "workloads.client_self_s": layer_self.get("workloads", 0.0),
        "metrics.observe_calls": _calls(select("metrics", ["observe"])),
        "experiments.prepare_s": _total(select("experiments", ["prepare_scenario"])),
        "experiments.slices": counts.get("slices", 0),
        "experiments.compact_s": _total(
            row for row in select(names=["compact"]) if row.key.split(":")[1].endswith(
                "Cluster.compact"
            )
        ),
        "experiments.checkpoint_s": _total(select("experiments", ["save_checkpoint"])),
        "experiments.checkpoint_bytes": counts.get("checkpoint_bytes", 0),
        "trace.spans": sum(row.spans for row in tracer.rows.values()),
    }
    for layer in ("sim.engine", "sim.network", "net", "consensus", "crypto", "core.timeouts",
                  "core.suspicion", "core.latency", "core.log", "core", "aware", "tree",
                  "optimize", "faults", "metrics", "experiments"):
        out[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    for engine, classes in HANDLER_CLASSES.items():
        layer = f"consensus.{engine}"
        out[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
        for cls in classes:
            rows = select(layer, [f"handle_{cls}", f"handle_{cls}Batch"])
            out[f"{layer}.handler_calls.{cls}"] = _calls(rows)
            out[f"{layer}.self_s.{cls}"] = sum(row.self_time for row in rows)
        family = by_family.get(engine, {})
        out[f"{layer}.msgs_per_commit"] = _ratio(family.get("messages_sent", 0),
                                                 family.get("blocks", 0))
        out[f"{layer}.bytes_per_commit"] = _ratio(family.get("bytes_sent", 0),
                                                  family.get("blocks", 0))
    return out

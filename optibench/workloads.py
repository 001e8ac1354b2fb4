"""The benchmark's four workloads, their operations and output checks.

Each workload is a list of *operations*: one scenario execution or one
campaign shard.  Every operation returns a plain dict holding its public
results (``ScenarioResult.metrics()`` or the shard summary), the
``state_trace_hash`` of its cluster, its set-up and run seconds, and the
counters the per-layer report needs.  Output checks read only those
public results, never replica internals that ``cluster.compact()``
truncates, so they hold for any correct run on every seed.

Imports of ``repro`` happen inside the functions: the worker times them
as part of set-up, and the tracer must be installed before the first
cluster is built.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import shutil
import time
from dataclasses import replace
from typing import Any, Callable, Dict, List

#: Sizes per workload.  ``chunk_events`` is how many simulated events
#: run between two clock marks (see :class:`Stopwatch`); it cuts a
#: repeat into several hundred pieces of a few milliseconds each.
SIZES: Dict[str, Dict[str, Any]] = {
    "fig9-grid": {"duration": 10.0, "search_iterations": 20_000, "chunk_events": 500},
    "optiaware-smear": {"duration": 18.0, "chunk_events": 1_000},
    "pbft-flood": {
        "n": 256, "rate": 250.0, "clients": 4, "duration": 1.2, "scenarios": 3,
        "chunk_events": 2,
    },
    "pbft-campaign": {
        "deployment": "Europe21",
        "clients": 8,
        "requests": 5_000,
        "checkpoint_every": 5.0,
        "chunk_events": 2_000,
    },
}
#: The shapes the benchmark's own tests run.
TINY: Dict[str, Dict[str, Any]] = {
    "fig9-grid": {"duration": 1.0, "search_iterations": 500, "chunk_events": 200},
    "pbft-flood": {
        "n": 16, "rate": 40.0, "clients": 4, "duration": 1.0, "scenarios": 1,
        "chunk_events": 5,
    },
}

#: The smear arena's faulty pool (``smear-campaign`` attackers).  The
#: compiled delay move needs a victim outside replica 0, the arena's
#: measurement observer; the spec is then retargeted at the leader.
SMEAR_VICTIMS = (17, 18, 19)


def sub_seed(workload: str, seed: int, index: int) -> int:
    """The scenario seed of operation ``index`` of a run with ``seed``."""
    return random.Random(f"{workload}:{seed}:{index}").getrandbits(31)


# ----------------------------------------------------------------------
# Clock marks
# ----------------------------------------------------------------------
class Stopwatch:
    """Clock marks at fixed points of a repeat, and the set-up capture.

    A mark closes the piece of the repeat since the previous mark and
    labels it ``setup`` (a ``prepare_scenario`` call), ``run`` (the
    operation around it) or ``other`` (records, hashes, checks).  Marks
    fall at every ``prepare_scenario`` entry and exit, at each end of an
    operation, and every ``chunk_events`` simulated events: the
    simulator's ``run`` is replaced by a loop of ``run(until,
    max_events=chunk_events)`` calls, which executes the same events in
    the same order.  So every repeat of a (workload, seed) makes the
    same marks with the same labels, and the parent can compare one
    piece across repeats (see ``run.fastest``).

    ``run_scenario`` and ``run_campaign_shard`` call ``prepare_scenario``
    through their module globals, so replacing those two attributes
    reaches every set-up the workloads trigger.  Installed after the
    tracer, so it calls whatever the tracer put there.
    """

    MODULES = ("repro.experiments.runner", "repro.experiments.campaign")

    def __init__(self, chunk_events: int) -> None:
        self.chunk_events = chunk_events
        self.marks: List[tuple] = []  # (label, monotonic seconds)
        self.results: List[Any] = []  # prepare_scenario results since the last take
        self._saved: List[tuple] = []

    def mark(self, label: str) -> None:
        self.marks.append((label, time.monotonic()))

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def __enter__(self) -> "Stopwatch":
        import importlib

        from repro.sim.engine import Simulator

        for name in self.MODULES:
            module = importlib.import_module(name)

            def prepare(scenario, _original=module.prepare_scenario):
                self.mark("run")
                result = _original(scenario)
                self.mark("setup")
                self.results.append(result)
                return result

            self._patch(module, "prepare_scenario", prepare)

        def run(sim, until=None, max_events=None, _original=Simulator.run):
            if max_events is not None:
                return _original(sim, until, max_events)
            # ``Simulator.run`` pauses the cyclic collector for its loop;
            # keep it paused across the chunks too, as one call would.
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                while True:
                    before = sim.events_processed
                    _original(sim, until, self.chunk_events)
                    self.mark("run")
                    if sim.events_processed - before < self.chunk_events:
                        return None
            finally:
                if gc_was_enabled:
                    gc.enable()

        self._patch(Simulator, "run", run)
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def take(self) -> Any:
        """The last ``prepare_scenario`` result since the last take."""
        result = self.results[-1]
        self.results.clear()
        return result


# ----------------------------------------------------------------------
# Operation records
# ----------------------------------------------------------------------
def _family(protocol: str) -> str:
    if "kauri" in protocol or "optitree" in protocol:
        return "kauri"
    if "hotstuff" in protocol:
        return "hotstuff"
    return "pbft"


def _record(name: str, result: Any, outputs: Dict[str, Any]) -> Dict[str, Any]:
    from repro.experiments.trace import state_trace_hash

    cluster = result.cluster
    stats = cluster.network.stats
    run_metrics = result.run_metrics
    client = outputs.get("client") or {}
    delayed = sum(
        instrument.messages_delayed
        for _, kind, instrument in result.fault_instruments
        if kind in ("delay", "delta_delay")
    )
    return {
        "op": name,
        "family": _family(result.scenario.protocol),
        "hash": state_trace_hash(cluster),
        "outputs": outputs,
        "counts": {
            "events": cluster.sim.events_processed,
            "deliveries": stats.messages_delivered,
            "drops": stats.messages_dropped,
            "messages_sent": stats.messages_sent,
            "bytes_sent": stats.bytes_sent,
            "blocks": run_metrics.committed_blocks(),
            "requests": run_metrics.total_requests(),
            "requests_sent": client.get("requests_sent", 0),
            "requests_completed": client.get("requests_completed", 0),
            "messages_delayed": delayed,
            "reconfigurations": result.reconfiguration_count(),
        },
    }


def _timed(watch: Stopwatch, call: Callable[[], Any]) -> tuple:
    """``(value, prepared result)`` of ``call``, marked as one operation."""
    watch.mark("other")
    value = call()
    watch.mark("run")
    return value, watch.take()


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------
def fig9_grid(seed: int, size: Dict[str, Any], work_dir: str) -> List[Callable]:
    """The Fig. 9 grid, one ``fig9.run_cell`` per operation."""
    from repro.experiments import fig9

    grid_seed = sub_seed("fig9-grid", seed, 0)

    def cell(deployment: str, protocol: str) -> Callable:
        def op(watch: Stopwatch) -> Dict[str, Any]:
            value, result = _timed(
                watch,
                lambda: fig9.run_cell(
                    deployment,
                    protocol,
                    duration=size["duration"],
                    seed=grid_seed,
                    search_iterations=size["search_iterations"],
                ),
            )
            outputs = result.metrics()
            outputs["fig9"] = {
                "deployment": deployment,
                "protocol": protocol,
                "throughput": value.throughput,
                "latency": value.latency,
            }
            return _record(f"{deployment}/{protocol}", result, outputs)

        return op

    return [cell(d, p) for d in fig9.DEPLOYMENTS for p in fig9.PROTOCOLS]


def optiaware_smear(seed: int, size: Dict[str, Any], work_dir: str) -> List[Callable]:
    """One evaluation of the ``optiaware`` attack arena: the smear
    campaign's false suspicions plus one compiled ``delay`` move."""

    def op(watch: Stopwatch) -> Dict[str, Any]:
        from repro.experiments.attack import make_arena
        from repro.experiments.runner import prepare_scenario
        from repro.experiments.scenarios import ADVERSARIAL_SCENARIOS
        from repro.faults.genome import (
            AdversaryBudget,
            AttackGenome,
            AttackMove,
            compile_genome,
        )

        duration = size["duration"]
        scenario_seed = sub_seed("optiaware-smear", seed, 0)
        arena = make_arena("optiaware", duration=duration, seeds=(scenario_seed,))
        smear = ADVERSARIAL_SCENARIOS["smear-campaign"][0](scenario_seed, duration).faults
        genome = AttackGenome(
            victims=SMEAR_VICTIMS,
            moves=(AttackMove(kind="delay", start=8, end=24, level=8),),
        )
        delay = compile_genome(genome, AdversaryBudget(), arena.profile)
        faults = list(smear) + [replace(spec, attacker="leader") for spec in delay]
        scenario = replace(arena.base, seed=scenario_seed, faults=faults)

        def run() -> None:
            result = prepare_scenario(scenario)
            result.run_metrics = result.cluster.run(scenario.duration)

        _, result = _timed(watch, run)
        return _record("smear+delay", result, result.metrics())

    return [op]


def pbft_flood(seed: int, size: Dict[str, Any], work_dir: str) -> List[Callable]:
    """Open-loop static PBFT on ``world-N``, relaxed columnar plane.

    Several short scenarios on independent seeds make one repeat: the
    delivered-message count of a single scenario swings with its seed.
    """
    from repro.experiments.runner import Scenario, run_scenario

    def flood(index: int) -> Callable:
        scenario = Scenario(
            name=f"pbft-flood/{index}",
            protocol="pbft",
            deployment=f"world-{size['n']}",
            workload="open-loop",
            workload_params={"rate": size["rate"], "clients": size["clients"]},
            duration=size["duration"],
            seed=sub_seed("pbft-flood", seed, index),
            jitter=0.0,
            plane="columnar-fast",
        )

        def op(watch: Stopwatch) -> Dict[str, Any]:
            _, result = _timed(watch, lambda: run_scenario(scenario))
            return _record(scenario.name, result, result.metrics())

        return op

    return [flood(index) for index in range(size["scenarios"])]


def pbft_campaign(seed: int, size: Dict[str, Any], work_dir: str) -> List[Callable]:
    """One checkpointed streaming campaign shard to a request target."""

    def op(watch: Stopwatch) -> Dict[str, Any]:
        from repro.experiments.campaign import CampaignSpec, run_campaign_shard
        from repro.experiments.runner import Scenario

        checkpoint_dir = os.path.join(work_dir, "checkpoints")
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
        os.makedirs(checkpoint_dir)
        spec = CampaignSpec(
            scenario=Scenario(
                name="pbft-campaign",
                protocol="pbft",
                deployment=size["deployment"],
                workload="closed-loop",
                workload_params={"clients": size["clients"]},
                duration=1e9,  # the request target ends the run
                seed=sub_seed("pbft-campaign", seed, 0),
            ),
            requests=size["requests"],
            checkpoint_every=size["checkpoint_every"],
            checkpoint_dir=checkpoint_dir,
        )
        point = {
            "shard": 0,
            "scenario": spec.shard_scenario(0),
            "target": spec.shard_target(0),
            "checkpoint_every": spec.checkpoint_every,
            "compact_keep": spec.compact_keep,
            "max_slices": spec.max_slices,
            "checkpoint_path": spec.shard_checkpoint_path(0),
        }
        summary, result = _timed(watch, lambda: run_campaign_shard(point))
        checkpoint_bytes = os.path.getsize(point["checkpoint_path"])
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
        outputs = {
            key: value
            for key, value in summary.items()
            if key not in ("peak_rss_kb", "commit_sketch", "client_sketch")
        }
        record = _record("shard0", result, outputs)
        record["counts"]["slices"] = summary["slices_run"]
        record["counts"]["checkpoint_bytes"] = checkpoint_bytes
        return record

    return [op]


BUILDERS: Dict[str, Callable[[int, Dict[str, Any], str], List[Callable]]] = {
    "fig9-grid": fig9_grid,
    "optiaware-smear": optiaware_smear,
    "pbft-flood": pbft_flood,
    "pbft-campaign": pbft_campaign,
}


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def check_op(workload: str, record: Dict[str, Any]) -> List[str]:
    """Failures of one operation's public results (empty when correct)."""
    failures = []
    outputs = record["outputs"]
    committed = outputs.get("committed_requests", 0)
    if committed <= 0:
        failures.append("committed nothing")
    client = outputs.get("client")
    if client is not None:
        sent = client.get("requests_sent", 0)
        if committed > sent:
            failures.append(f"committed {committed} requests but only {sent} were sent")
        if client.get("requests_completed", 0) > sent:
            failures.append(
                f"completed {client['requests_completed']} requests but only {sent} were sent"
            )
    if workload == "pbft-campaign":
        if outputs.get("underrun"):
            failures.append("campaign underrun")
        if committed < outputs.get("requests_target", 0):
            failures.append(
                f"campaign committed {committed} of its {outputs['requests_target']} target"
            )
    return failures


def check_grid(records: List[Dict[str, Any]]) -> Dict[str, List[str]]:
    """Fig. 9's gated claim: OptiTree's mean latency beats Kauri's at
    Global73.  Stellar56 is deliberately not gated: OptiTree loses there
    on some seeds."""
    cells = {
        (r["outputs"]["fig9"]["deployment"], r["outputs"]["fig9"]["protocol"]): r
        for r in records
        if "fig9" in r.get("outputs", {})
    }
    opti = cells.get(("Global73", "OptiTree"))
    kauri = cells.get(("Global73", "Kauri (pipeline)"))
    if opti is None or kauri is None:
        return {}
    a = opti["outputs"]["fig9"]["latency"]
    b = kauri["outputs"]["fig9"]["latency"]
    if not a < b:
        return {opti["op"]: [f"Global73 OptiTree latency {a} not below Kauri {b}"]}
    return {}


def outputs_digest(records: List[Dict[str, Any]]) -> str:
    """sha256 over every operation's public outputs, for review only."""
    payload = json.dumps([r.get("outputs") for r in records], sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()

"""Outside-in layer tracer for the ``repro`` simulator.

The tracer edits nothing under ``src/``.  :meth:`Tracer.install` imports
every simulator module, then replaces each function defined in the
source tree (module functions, methods, static and class methods, and
``__call__``) with a timing wrapper.  It does this on the module or
class that defines the function and on every other loaded module that
holds the same object through ``from x import f``.  Because methods are
replaced on the class, ``getattr(replica, "handle_Prepare")`` and the
replicas' cached ``handle_<Class>``/``handle_<Class>Batch`` lookups
resolve to the wrappers, as long as the tracer is installed before any
cluster is built.  The network's delivery closure is made per instance
by ``Network._make_deliver``, so that factory's result is wrapped too.

A *boundary* is one wrapped function.  Its layer is its module's place
in the package (``sim.network``, ``consensus.pbft``, ``core.suspicion``,
``net``, ``tree``...; see :func:`layer_of`).  Every call is counted.  A
span (start, end, parent layer) is opened only when a call crosses from
one layer into another, or on a *probe* boundary that always opens one.
So a handler's span covers the private helpers of its own module and
stops where the network, crypto or OptiLog layers take over.  Self time
is the span's duration minus the spans it caused; the self times of a
layer's boundaries partition the traced wall time between layers.

Spans are folded into per-boundary rows in memory and written out
with :meth:`Tracer.dump` when the run ends.  Nothing here installs
signal handlers or interval timers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
import time
import types
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

PACKAGE = "repro"

#: Sub-packages left unwrapped: the older per-PR bench suites and the CLI
#: are not layers of the simulator, and nothing the workloads run calls
#: them.
SKIP_MODULES = ("repro.bench", "repro.__main__")

#: Layers split per module; every other module maps to its sub-package.
SPLIT_PACKAGES = {
    "sim": ("engine", "network"),
    "consensus": ("pbft", "hotstuff", "kauri"),
    "core": ("timeouts", "suspicion", "latency", "log"),
}

#: Factories whose returned closure is itself a boundary: the network
#: builds its per-instance delivery callback this way.
CALLBACK_FACTORIES = {"repro.sim.network:Network._make_deliver"}

#: Boundaries that always open a span, so their inclusive time is known
#: even when called from inside their own layer.
PROBES = frozenset((
    "repro.experiments.runner:prepare_scenario",
    "repro.experiments.runner:resolve_deployment",
    "repro.experiments.checkpoint:save_checkpoint",
    "repro.tree.optitree:optitree_search",
    "repro.optimize.annealing:anneal",
    "repro.optimize.annealing:anneal_incremental",
    "repro.aware.search:annealed_weight_search",
    "repro.aware.search:exhaustive_weight_search",
    "repro.consensus.pbft:PbftCluster.compact",
    "repro.consensus.hotstuff:HotStuffCluster.compact",
    "repro.consensus.kauri:KauriCluster.compact",
))


def layer_of(module_name: str) -> str:
    """``repro.sim.network`` -> ``sim.network``; ``repro.net.hierarchy``
    -> ``net``; ``repro.consensus.base`` -> ``consensus``."""
    parts = module_name.split(".")[1:]
    if not parts:
        return "repro"
    head = parts[0]
    if len(parts) > 1 and parts[1] in SPLIT_PACKAGES.get(head, ()):
        return f"{head}.{parts[1]}"
    return head


class Row:
    """Counters for one boundary."""

    __slots__ = ("key", "layer", "name", "calls", "spans", "total", "self_time", "depth")

    def __init__(self, key: str, layer: str, name: str):
        self.key = key
        self.layer = layer
        self.name = name  # the function's own name, e.g. "handle_Prepare"
        self.calls = 0
        self.spans = 0
        self.total = 0.0  # outermost spans only: never double-counts recursion
        self.self_time = 0.0
        self.depth = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "layer": self.layer,
            "calls": self.calls,
            "spans": self.spans,
            "total_s": self.total,
            "self_s": self.self_time,
        }


class Tracer:
    """Wraps the simulator's boundaries; use as a context manager."""

    def __init__(self) -> None:
        self.rows: Dict[str, Row] = {}
        #: Open spans, innermost last: ``[layer, child_seconds]``.
        self._stack: List[list] = []
        #: ``(owner, attribute, original)`` for every replacement made.
        self._patches: List[Tuple[Any, str, Any]] = []
        self.installed = False

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _row(self, key: str, module: str, name: str) -> Row:
        row = self.rows.get(key)
        if row is None:
            row = self.rows[key] = Row(key, layer_of(module), name)
        return row

    def _wrap(self, fn: Callable, key: str, row: Row) -> Callable:
        stack = self._stack
        clock = time.perf_counter
        layer = row.layer
        probe = key in PROBES
        factory = key in CALLBACK_FACTORIES

        def traced(*args, **kwargs):
            row.calls += 1
            if not probe and stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
                if factory:
                    result = self._wrap_callback(result)
                return result
            frame = [layer, 0.0]
            stack.append(frame)
            row.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                row.depth -= 1
                row.spans += 1
                if row.depth == 0:
                    row.total += elapsed
                row.self_time += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if factory:
                result = self._wrap_callback(result)
            return result

        functools.update_wrapper(traced, fn)
        traced.__optibench_original__ = fn
        return traced

    def _wrap_callback(self, callback: Callable) -> Callable:
        module = callback.__module__
        key = f"{module}:{callback.__qualname__}"
        return self._wrap(callback, key, self._row(key, module, callback.__name__))

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------
    def _modules(self) -> List[types.ModuleType]:
        root = importlib.import_module(PACKAGE)
        for info in pkgutil.walk_packages(root.__path__, PACKAGE + "."):
            if not info.name.startswith(SKIP_MODULES):
                importlib.import_module(info.name)
        return [
            module
            for name, module in sorted(sys.modules.items())
            if (name == PACKAGE or name.startswith(PACKAGE + "."))
            and not name.startswith(SKIP_MODULES)
            and module is not None
        ]

    def _source_root(self) -> str:
        root = importlib.import_module(PACKAGE)
        return os.path.dirname(os.path.abspath(root.__file__))

    def _wrappable(self, fn: Any, source_root: str) -> bool:
        if not isinstance(fn, types.FunctionType):
            return False
        if hasattr(fn, "__optibench_original__"):
            return False
        if inspect.isgeneratorfunction(fn) or inspect.iscoroutinefunction(fn):
            # A wrapper would time only the generator's creation.
            return False
        filename = fn.__code__.co_filename
        return os.path.abspath(filename).startswith(source_root + os.sep)

    def _patch(self, owner: Any, attribute: str, original: Any, replacement: Any) -> None:
        setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, original))

    def install(self) -> "Tracer":
        if self.installed:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise
        self.installed = True
        return self

    def _install(self) -> None:
        modules = self._modules()
        source_root = self._source_root()
        replaced: Dict[int, Tuple[Any, Any]] = {}  # id(original) -> (original, wrapper)
        for module in modules:
            for name, value in list(vars(module).items()):
                if (
                    self._wrappable(value, source_root)
                    and value.__module__ == module.__name__
                    and value.__qualname__ == name
                ):
                    key = f"{module.__name__}:{name}"
                    wrapper = self._wrap(value, key, self._row(key, module.__name__, name))
                    self._patch(module, name, value, wrapper)
                    replaced[id(value)] = (value, wrapper)
                elif (
                    isinstance(value, type)
                    and value.__module__ == module.__name__
                    and value.__qualname__ == name
                ):
                    self._install_class(value, source_root)
        # ``from x import f`` copies: patch every module holding an original.
        for module_name, module in list(sys.modules.items()):
            if module is None:
                continue
            try:
                namespace = vars(module)
            except TypeError:
                continue
            for name, value in list(namespace.items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, name, value, hit[1])

    def _install_class(self, cls: type, source_root: str) -> None:
        for name, value in list(vars(cls).items()):
            if name.startswith("__") and name != "__call__":
                continue
            if isinstance(value, (staticmethod, classmethod)):
                inner = value.__func__
                if not self._wrappable(inner, source_root):
                    continue
                key = f"{inner.__module__}:{inner.__qualname__}"
                row = self._row(key, inner.__module__, name)
                self._patch(cls, name, value, type(value)(self._wrap(inner, key, row)))
            elif self._wrappable(value, source_root):
                key = f"{value.__module__}:{value.__qualname__}"
                row = self._row(key, value.__module__, name)
                self._patch(cls, name, value, self._wrap(value, key, row))

    def uninstall(self) -> None:
        """Put every original back, newest replacement first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
        self.installed = False

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def layer_self(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for row in self.rows.values():
            out[row.layer] = out.get(row.layer, 0.0) + row.self_time
        return out

    def select(
        self,
        layer: Optional[str] = None,
        names: Optional[Iterable[str]] = None,
        qualname_prefix: Optional[str] = None,
    ) -> List[Row]:
        """Rows of one layer, optionally filtered by function name."""
        wanted = None if names is None else frozenset(names)
        out = []
        for row in self.rows.values():
            if layer is not None and row.layer != layer:
                continue
            if wanted is not None and row.name not in wanted:
                continue
            if qualname_prefix is not None and not row.key.split(":", 1)[1].startswith(
                qualname_prefix
            ):
                continue
            out.append(row)
        return out

    def dump(self, path: str) -> None:
        """Write every non-idle row as JSON (at the end of a run)."""
        payload = {
            "rows": {
                key: row.as_dict() for key, row in sorted(self.rows.items()) if row.calls
            },
            "layer_self_s": dict(sorted(self.layer_self().items())),
        }
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)

"""Outside-in tracer: wraps the public functions of each ``wood.<layer>`` module.

Nothing in the package is edited. ``Tracer.install`` finds every public
function defined in a layer module by introspection, replaces it with a
timing wrapper, and rebinds the wrapper wherever a ``wood.*`` module imported
the function by name (``cli`` and ``trainer`` do). Functions added or renamed
later are therefore attributed to their layer without a list to maintain.

Every call becomes a span (layer, function, start, end, parent, run id,
rows) kept in flat in-memory arrays and written out by ``dump``. A layer's
self time counts only spans that enter the layer from another layer (or from
the benchmark); a call nested directly inside the same layer adds no time of
its own, and the entry span's self time is its duration minus the entry
spans of other layers inside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# The package's layers, in pipeline order. ``errors`` defines no functions
# and ``oracles`` is the test-only reference implementation.
LAYERS = ("data", "transport", "geometry", "loss", "model", "trainer", "detect", "cli")


def _rows(args, result) -> int:
    # Work size from argument shapes: the leading dimension of every array
    # argument; loaders take paths, so their rows come from the Dataset they
    # return.
    rows = 0
    for arg in args:
        if isinstance(arg, np.ndarray) and arg.ndim:
            rows += arg.shape[0]
    if not rows:
        features = getattr(result, "features", None)
        if isinstance(features, np.ndarray):
            rows = features.shape[0]
    return rows


def _transport_counts(result) -> tuple[int, int, int, int] | None:
    # (solves, iterations, log-domain fallbacks, non-converged) read from a
    # returned TransportResult; array-valued fields count one solve per entry.
    if not all(hasattr(result, f) for f in ("iterations", "converged", "domain")):
        return None
    converged = np.atleast_1d(np.asarray(result.converged))
    iterations = int(np.sum(result.iterations))
    log_domain = int(np.sum(np.atleast_1d(np.asarray(result.domain)) == "log"))
    return converged.size, iterations, log_domain, int(np.sum(~converged.astype(bool)))


class Tracer:
    """Span recorder for one process; ``run`` tags spans with the op index."""

    def __init__(self):
        self.names: list[tuple[str, str]] = []  # span name id -> (layer, function)
        self.layer_of: list[int] = []  # span name id -> layer index
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.run_of = array("q")
        self.rows = array("q")
        self.run = 0
        self.counts: dict[int, Counter] = {}
        self._stack: list[int] = []

    def install(self) -> None:
        wrappers = {}
        for layer_index, layer in enumerate(LAYERS):
            module = importlib.import_module(f"wood.{layer}")
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name_id = len(self.names)
                self.names.append((layer, attr))
                self.layer_of.append(layer_index)
                wrappers[fn] = self._wrap(fn, name_id, layer_index, layer == "transport")
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "wood" or module_name.startswith("wood.")):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])

    def _wrap(self, fn, name_id: int, layer_index: int, is_transport: bool):
        stack = self._stack
        layer_of = self.layer_of
        start, end, parent, name, run_of, rows = (
            self.start, self.end, self.parent, self.name, self.run_of, self.rows,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            outer = stack[-1] if stack else -1
            entry = outer < 0 or layer_of[name[outer]] != layer_index
            start.append(0.0)
            end.append(0.0)
            parent.append(outer)
            name.append(name_id)
            run_of.append(self.run)
            rows.append(0)
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                start[span] = t0
                stack.pop()
            if entry:
                rows[span] = _rows(args, result)
                if is_transport:
                    solved = _transport_counts(result)
                    if solved is not None:
                        counts = self.counts.setdefault(self.run, Counter())
                        counts["solves"] += solved[0]
                        counts["iterations"] += solved[1]
                        counts["log_fallbacks"] += solved[2]
                        counts["nonconverged"] += solved[3]
            return result

        return traced

    def dump(self, path: Path) -> None:
        """Write every span (columns plus the name table) as one ``.npz``."""
        start, end, parent, name, run_of, rows = self._columns()
        np.savez(
            path, start=start, end=end, parent=parent, name=name, run=run_of, rows=rows,
            names=np.array(json.dumps(self.names)),
        )

    def _columns(self) -> tuple[np.ndarray, ...]:
        # Copies, so the arrays can keep growing while these are alive.
        return tuple(
            np.array(column)
            for column in (self.start, self.end, self.parent, self.name, self.run_of, self.rows)
        )

    def layer_metrics(self, run: int) -> tuple[dict[str, float], list[float]]:
        """Per-layer times and counts of one op (the spans tagged ``run``),
        plus the duration in ms of each training step."""
        start, end, parent, name, run_of, rows = self._columns()
        layer_of = np.asarray(self.layer_of, dtype=np.int64)

        # A run's spans are contiguous: every span opens and closes inside
        # the op that set ``run``.
        idx = np.flatnonzero(run_of == run)
        lo = int(idx[0]) if idx.size else 0
        duration = end[idx] - start[idx]
        layer = layer_of[name[idx]]
        local_parent = parent[idx] - lo
        has_parent = parent[idx] >= 0
        parent_layer = np.where(has_parent, layer[np.maximum(local_parent, 0)], -1)
        entry = layer != parent_layer

        # Self time: an entry span minus the entry spans of other layers it
        # encloses. ``anchor`` is each span's nearest entry span (itself for
        # an entry span), found by pointer jumping through same-layer parents.
        anchor = np.where(entry, np.arange(idx.size), local_parent)
        while True:
            jumped = anchor[anchor]
            if np.array_equal(jumped, anchor):
                break
            anchor = jumped
        enclosed = entry & has_parent
        self_time = np.where(entry, duration, 0.0)
        np.subtract.at(self_time, anchor[local_parent[enclosed]], duration[enclosed])

        span_rows = rows[idx]
        span_name = name[idx]
        metrics: dict[str, float] = {}
        for layer_index, layer_name in enumerate(LAYERS):
            in_layer = entry & (layer == layer_index)
            metrics[f"{layer_name}.self_s"] = float(np.sum(self_time[in_layer]))
            metrics[f"{layer_name}.entries"] = int(np.sum(in_layer))
            metrics[f"{layer_name}.rows"] = int(np.sum(span_rows[in_layer]))

        def named(layer_name: str, fn_name: str) -> np.ndarray:
            if (layer_name, fn_name) not in self.names:
                return np.zeros(idx.size, dtype=bool)
            return span_name == self.names.index((layer_name, fn_name))

        forward = named("model", "forward")
        backward = named("model", "backward")
        steps = named("trainer", "train_step")
        metrics["model.forward_s"] = float(np.sum(duration[forward]))
        metrics["model.forward_rows"] = int(np.sum(span_rows[forward]))
        metrics["model.backward_s"] = float(np.sum(duration[backward]))
        metrics["model.backward_rows"] = int(np.sum(span_rows[backward]))
        metrics["trainer.steps"] = int(np.sum(steps))
        metrics["trainer.checkpoint_s"] = float(np.sum(duration[named("trainer", "save_checkpoint")]))
        metrics["transport.validate_calls"] = int(np.sum(named("transport", "as_prob_vector")))
        counts = self.counts.get(run, Counter())
        for key in ("solves", "iterations", "log_fallbacks", "nonconverged"):
            metrics[f"transport.{key}"] = int(counts[key])
        return metrics, (duration[steps] * 1000.0).tolist()

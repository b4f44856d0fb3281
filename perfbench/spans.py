"""In-memory spans and exact counts around calls into sebrange's layers.

A span is recorded for each call into a function named in ``LAYERS``: its
name, start, end, the index of the enclosing span and the id of the op it
belongs to. A layer's self time is its span's duration minus the time its
direct child spans cover.

Wrappers are installed where each name is looked up, not only where it is
defined: ``model.py`` and ``training.py`` import ``encode_sequence``,
``gnn_encode``, ``mlp_forward``, ``s3im_regularizer`` and
``optimizer_step`` by name, so every ``sebrange`` module that holds the
same function object is patched. Methods are patched on their class. A name
that no longer resolves is reported as absent instead of failing the run.
"""

import functools
import importlib
import os
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

import numpy as np


@dataclass(frozen=True)
class Layer:
    name: str   # "<module>.<qualified name>" inside the sebrange package
    stage: str  # "setup": traced while setting up; "op": traced in the timed loop
    moves: str  # the end-to-end metrics and workloads a change here should move


LAYERS = (
    Layer("attention.encode_sequence", "op",
          "orders_per_s and op_p50_ms on train-s3im and predict-stream; "
          "little on train-bigfleet"),
    Layer("attention.mlp_forward", "op",
          "fusion head; a small share of every workload"),
    Layer("tensor.Tensor.backward", "op",
          "both train workloads; nothing on predict-stream"),
    Layer("gnn.gnn_encode", "op",
          "orders_per_s, op_tail_ms and peak_rss_mb on train-bigfleet; "
          "little elsewhere"),
    Layer("gnn.NodeFeatureTable.build", "op", "as gnn.gnn_encode"),
    Layer("graph.TemporalGraph.merged_snapshot", "op", "as gnn.gnn_encode"),
    Layer("graph.GraphSnapshot.edge_arrays", "op", "as gnn.gnn_encode"),
    Layer("graph.GraphSnapshot.inverse_degrees", "op", "as gnn.gnn_encode"),
    Layer("kernels.scatter_add_rows", "op", "as gnn.gnn_encode"),
    Layer("s3im.s3im_regularizer", "op", "train-s3im only"),
    Layer("optim.optimizer_step", "op", "both train workloads"),
    Layer("model.SebTransformer.forward_batch", "op",
          "training forward and validation on the train workloads; "
          "all the work of predict-stream"),
    Layer("model.SebTransformer.predict", "op", "as model.SebTransformer.forward_batch"),
    Layer("training.objective", "op", "validation loss on the train workloads"),
    Layer("datagen.generate", "setup", "setup_s everywhere"),
    Layer("datagen.write_dataset", "setup", "setup_s everywhere"),
    Layer("datagen.read_dataset", "setup", "setup_s everywhere"),
    Layer("checkpoint.save_checkpoint", "setup", "setup_s on predict-stream"),
    Layer("checkpoint.load_checkpoint", "setup", "setup_s on predict-stream"),
)

# Exact counts the traced run reports, each with its base. Tape nodes per
# step should move both train workloads; the active-node and rows-used
# ratios measure the full-graph GCN work that dominates train-bigfleet.
COUNT_NAMES = (
    "datagen.read_dataset.bytes",
    "tensor.tape_nodes", "tensor.backward_steps",
    "graph.active_nodes", "graph.snapshot_rows",
    "gnn.rows_used", "gnn.rows_computed",
)


def resolve(name):
    """(owner, attribute, function) for a layer name, or None if absent."""
    module_name, _, qualname = name.partition(".")
    try:
        owner = importlib.import_module(f"sebrange.{module_name}")
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, attr, None)
    return None if fn is None else (owner, attr, fn)


def patch(name, make_wrapper):
    """Replace a function at every lookup site.

    Returns the ``(site, attribute, original)`` triples that undo the patch,
    or None when the name does not resolve.
    """
    found = resolve(name)
    if found is None:
        return None
    owner, attr, original = found
    if isinstance(owner, type):
        sites = [(owner, attr)]
    else:
        sites = [
            (module, key)
            for module_name, module in list(sys.modules.items())
            if module_name.split(".")[0] == "sebrange"
            for key, value in list(vars(module).items())
            if value is original
        ]
    wrapper = make_wrapper(original)
    for site, key in sites:
        setattr(site, key, wrapper)
    return [(site, key, original) for site, key in sites]


def unpatch(undo):
    for site, key, original in reversed(undo):
        setattr(site, key, original)


# -- observers: exact counts taken from a call's arguments and result --------

def _dataset_bytes(counts, args, result):
    dirpath = args[0]
    counts["datagen.read_dataset.bytes"] += sum(
        os.path.getsize(os.path.join(dirpath, f)) for f in os.listdir(dirpath))


def _tape_nodes(counts, args, result):
    root = args[0]
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    counts["tensor.tape_nodes"] += len(seen)
    counts["tensor.backward_steps"] += 1


def _active_nodes(counts, args, inv_deg):
    counts["graph.active_nodes"] += int(np.count_nonzero(inv_deg))
    counts["graph.snapshot_rows"] += int(inv_deg.size)


def _rows_computed(counts, args, h):
    counts["gnn.rows_computed"] += h.shape[0]
    counts["gnn.pending"] += 1


def _rows_used(counts, args, result):
    _, orders, graph = args[:3]
    if counts.pop("gnn.pending", 0):
        rows = {graph.node_row(o.battery) for o in orders}
        rows |= {graph.node_row(o.user) for o in orders}
        counts["gnn.rows_used"] += len(rows)


OBSERVERS = {
    "datagen.read_dataset": _dataset_bytes,
    "tensor.Tensor.backward": _tape_nodes,
    "graph.GraphSnapshot.inverse_degrees": _active_nodes,
    "gnn.gnn_encode": _rows_computed,
    "model.SebTransformer.forward_batch": _rows_used,
}


class Recorder:
    """Spans kept in memory plus the exact counts, while ``counting`` is on."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, op id)
        self.counts = Counter()
        self.counting = False
        self.op = 0
        self.absent = set()
        self._stack = []
        self._undo = []

    def install(self, stage):
        for layer in LAYERS:
            if layer.stage != stage:
                continue
            undo = patch(layer.name, functools.partial(self._wrap, layer.name))
            if undo is None:
                self.absent.add(layer.name)
            else:
                self._undo.extend(undo)

    def uninstall(self):
        unpatch(self._undo)
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if observe is not None and self.counting:
                observe(self.counts, args, result)
            return result

        return wrapper

    def layer_stats(self):
        """name -> [calls, seconds, self seconds] over all recorded spans."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        stats = {}
        for (name, start, end, _, _), child in zip(self.spans, covered):
            s = stats.setdefault(name, [0, 0.0, 0.0])
            s[0] += 1
            s[1] += end - start
            s[2] += end - start - child
        return stats

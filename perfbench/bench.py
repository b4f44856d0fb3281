"""One workload of the sebrange benchmark, run in its own process.

``run.py`` starts this file with single-threaded BLAS and ``src`` on the
import path. Each workload is a closed loop with one caller: the next op
starts only when the previous one has returned. An op is one training step
(forward, loss, backward and Adam on one chunk) or one ``model.predict``
call. Set-up builds the inputs the way ``sebrange gen`` followed by
``sebrange train`` does: generate, write the dataset, read it back, build
the model.

The last line of standard output is the result object; the line before it,
starting with ``info``, records the machine, the tail percentile and its
windows, and the failure notes.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

import spans
from sebrange import benchmark, checkpoint, config, datagen, graph, training

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPS = 3
SETUP_CHILD_TIMEOUT_S = 40
# op_tail_ms is this percentile on every workload, the highest of
# 50/75/90/95/99 that leaves TAIL_MIN_BEYOND ops beyond it in a 15 s run of
# train-bigfleet (~200 steps). p99 would qualify on the other workloads, but
# there it follows other tenants' CPU bursts: 47% IQR/median over ten runs of
# predict-stream. A timed phase runs on past --seconds until TAIL_MIN_BEYOND
# ops lie beyond the percentile, but no longer than MAX_PHASE_FACTOR times
# --seconds. The percentile is taken in consecutive windows of TAIL_MIN_OPS
# ops and op_tail_ms is the median window's: a burst from another tenant
# that covers a few seconds of a run moves the whole-run p95 of
# predict-stream by up to 30%, but only the windows it falls in.
TAIL_PERCENTILE = 95.0
TAIL_MIN_BEYOND = 10
TAIL_MIN_OPS = round(TAIL_MIN_BEYOND / (1.0 - TAIL_PERCENTILE / 100.0))
MAX_PHASE_FACTOR = 4
# A prediction depends on its batch's composition in the last bit (BLAS
# blocking), so streamed and per-split predictions are compared within this.
PREDICTION_ATOL_KM = 1e-9


@dataclass(frozen=True)
class Workload:
    kind: str                # model trained or queried, as in `sebrange train --model`
    overrides: tuple = ()    # config keys set on top of the defaults
    epochs: int = 1          # epochs of one timed training run
    setup_epochs: int = 0    # training before the checkpoint round trip (predict only)

    @property
    def trains(self):
        return self.setup_epochs == 0


WORKLOADS = {
    # The paper's model on the paper's benchmark; attention and backward dominate.
    "train-s3im": Workload("seb-s3im"),
    # Same 2,000 orders on a city-sized fleet; graph and GNN layers dominate.
    "train-bigfleet": Workload(
        "seb", ("gen.users=40000", "gen.batteries=12000", "model.window=4")),
    # Forward layers only, as `sebrange eval` uses a reloaded checkpoint.
    "predict-stream": Workload("seb-s3im", setup_epochs=1),
}


class Monitor:
    """Op latencies plus output checks; a failed check fails the op it is in."""

    def __init__(self):
        self.latencies = []
        self.failed = 0
        self.notes = []
        self.recorder = None  # a spans.Recorder to tag with op ids, while tracing
        self._start = None
        self._bad = False

    @property
    def in_op(self):
        return self._start is not None

    def begin(self):
        self._bad = False
        if self.recorder is not None:
            self.recorder.op = len(self.latencies) + 1
        self._start = perf_counter()

    def end(self):
        self.latencies.append(perf_counter() - self._start)
        self._start = None
        if self._bad:
            self.failed += 1
        if self.recorder is not None:
            self.recorder.op = 0

    def check(self, ok, what):
        if ok:
            return
        if self.in_op:
            self._bad = True
        else:
            self.failed += 1
        if len(self.notes) < 8:
            self.notes.append(what)

    def abort(self, what):
        """Record an exception that escaped an op or a whole-run step."""
        traceback.print_exc(file=sys.stderr)
        if self.in_op:
            self._bad = True
            self.end()
        else:
            self.check(False, what)


def _finite(a):
    return bool(np.isfinite(a).all())


def install_step_probes(monitor):
    """Mark training-step boundaries and check every loss and prediction.

    A step opens at the first forward call outside ``predict`` (validation
    and evaluation go through ``predict``) and closes when the optimizer
    step returns.
    """
    in_predict = [False]

    def forward_batch(fn):
        def probe(self, *args, **kwargs):
            if not in_predict[0] and not monitor.in_op:
                monitor.begin()
            out = fn(self, *args, **kwargs)
            monitor.check(_finite(out.array), "non-finite prediction")
            return out
        return probe

    def predict(fn):
        def probe(self, *args, **kwargs):
            in_predict[0] = True
            try:
                return fn(self, *args, **kwargs)
            finally:
                in_predict[0] = False
        return probe

    def backward(fn):
        def probe(self):
            monitor.check(_finite(self.array), "non-finite loss")
            return fn(self)
        return probe

    def optimizer_step(fn):
        def probe(*args, **kwargs):
            out = fn(*args, **kwargs)
            if monitor.in_op:
                monitor.end()
            return out
        return probe

    for name, make in (("model.SebTransformer.forward_batch", forward_batch),
                       ("model.SebTransformer.predict", predict),
                       ("tensor.Tensor.backward", backward),
                       ("optim.optimizer_step", optimizer_step)):
        if spans.patch(name, make) is None:
            raise SystemExit(f"cannot mark training steps: {name} is absent")


# -- set-up -------------------------------------------------------------------

@dataclass
class State:
    rc: object
    orders: list
    graph: object
    model: object
    initial: list           # parameter values at the end of set-up
    buckets: list           # orders grouped by swap timestep, as predict takes them
    first_pass: object = None  # weights digest or predictions of the first pass


def _same_float(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _same_order(a, b):
    return (a.order_id == b.order_id and a.user == b.user
            and a.battery == b.battery and a.t == b.t
            and _same_float(a.ride_length, b.ride_length)
            and _same_float(a.label, b.label)
            and a.telemetry.dtype == b.telemetry.dtype
            and a.telemetry.shape == b.telemetry.shape
            and a.telemetry.tobytes() == b.telemetry.tobytes())


def check_round_trip(written, read, read_graph, workdir, monitor):
    """The dataset read back must equal what was written, bit for bit."""
    monitor.check(len(written) == len(read)
                  and all(map(_same_order, written, read)),
                  "orders read back differ from the orders written")
    resaved = os.path.join(workdir, "graph.resaved")
    graph.save_graph(read_graph, resaved)
    with open(resaved, "rb") as a, \
            open(os.path.join(workdir, datagen.GRAPH_FILENAME), "rb") as b:
        monitor.check(a.read() == b.read(),
                      "graph read back differs from the graph written")


def set_up(wl, seed, workdir, monitor):
    """Build the inputs and the model; returns (state, seconds)."""
    start = perf_counter()
    rc = config.RunConfig.load(None, (f"seed={seed}",) + wl.overrides)
    orders, g = datagen.generate(rc.generator_config())
    datagen.write_dataset(orders, g, workdir)
    read_orders, read_graph = datagen.read_dataset(workdir)
    model = benchmark.build_model(wl.kind, rc.model_config(), read_graph.n_users,
                                  read_graph.n_batteries, seed)
    if wl.setup_epochs:
        cfg = replace(rc.train_config(), epochs=wl.setup_epochs)
        benchmark.train_model(wl.kind, model, read_orders, read_graph, cfg)
        path = os.path.join(workdir, "model.ckpt.npz")
        checkpoint.save_checkpoint(path, model, rc.hash(), trained_as=wl.kind)
        model, meta = checkpoint.load_checkpoint(path)
        checkpoint.verify_config_hash(meta, rc.hash())
    seconds = perf_counter() - start
    check_round_trip(orders, read_orders, read_graph, workdir, monitor)
    initial = [p.value.copy() for p in model.params()]
    return State(rc, read_orders, read_graph, model, initial,
                 training.bucket_by_t(read_orders)), seconds


# -- timed loops --------------------------------------------------------------

def _weights_digest(model):
    h = hashlib.sha256()
    for p in model.params():
        h.update(p.value.tobytes())
    return h.digest()


def training_pass(wl, state, monitor):
    """One fixed-length training run from the set-up weights.

    Returns (orders, seconds); orders count the training and validation
    splits once per epoch. Every run must end with the same weights.
    """
    model = state.model
    for p, v in zip(model.params(), state.initial):
        p.value[...] = v
    cfg = replace(state.rc.train_config(), epochs=wl.epochs)
    start = perf_counter()
    try:
        result = benchmark.train_model(wl.kind, model, state.orders, state.graph, cfg)
    except Exception:
        monitor.abort("training raised")
        return 0, perf_counter() - start
    seconds = perf_counter() - start
    train_split, val_split, _ = result.splits
    digest = _weights_digest(model)
    state.first_pass = state.first_pass or digest
    monitor.check(digest == state.first_pass,
                  "identical training runs ended with different weights")
    return (len(train_split) + len(val_split)) * cfg.epochs, seconds


def prediction_pass(wl, state, monitor):
    """Every timestep bucket through ``predict``, one op per bucket.

    Returns (orders, seconds). Every pass must return the same predictions.
    """
    model, g = state.model, state.graph
    values = []
    start = perf_counter()
    for bucket in state.buckets:
        monitor.begin()
        try:
            v = model.predict(bucket, g)
        except Exception:
            monitor.abort("predict raised")
            continue
        monitor.check(_finite(v) and v.shape == (len(bucket),),
                      "non-finite or misshapen predictions")
        monitor.end()
        values.append(v)
    seconds = perf_counter() - start
    flat = np.concatenate(values) if values else np.empty(0)
    state.first_pass = state.first_pass if state.first_pass is not None else flat
    monitor.check(flat.tobytes() == state.first_pass.tobytes(),
                  "predictions differ between passes")
    return sum(map(len, state.buckets)), seconds


def run_phase(wl, state, seconds, monitor, before_pass=None, after_pass=None):
    """Closed loop of passes for ``seconds``, and until TAIL_MIN_OPS ops
    have been timed.

    The optional hooks get the pass index. Returns (orders, seconds) per pass.
    """
    gc.collect()
    one_pass = training_pass if wl.trains else prediction_pass
    min_ops = len(monitor.latencies) + TAIL_MIN_OPS
    passes, elapsed = [], 0.0
    while elapsed < seconds or (len(monitor.latencies) < min_ops
                                and elapsed < MAX_PHASE_FACTOR * seconds):
        if before_pass is not None:
            before_pass(len(passes))
        passes.append(one_pass(wl, state, monitor))
        elapsed += passes[-1][1]
        if after_pass is not None:
            after_pass(len(passes) - 1)
    return passes


def median_rate(passes):
    return statistics.median(orders / seconds for orders, seconds in passes)


def test_mae(wl, state, monitor):
    """Test MAE (km) of the model as it stands after the timed phase, or of
    the first pass's streamed test predictions.

    The streamed test predictions must match the ones ``evaluate_mae``
    makes within PREDICTION_ATOL_KM.
    """
    test = training.split_orders(state.orders, state.rc.train_config())[2]
    result = training.evaluate_mae(state.model, test, state.graph)
    if wl.trains:
        return result.mean
    ids = [o.order_id for bucket in state.buckets for o in bucket]
    if state.first_pass is None or state.first_pass.size != len(ids):
        monitor.check(False, "no complete prediction pass")
        return result.mean
    streamed = dict(zip(ids, state.first_pass))
    residuals = np.array([streamed[o.order_id] - o.label for o in test])
    monitor.check(np.abs(residuals - result.residuals).max() <= PREDICTION_ATOL_KM,
                  "streamed test predictions differ from evaluate_mae's")
    return float(np.abs(residuals).mean())


# -- reporting ----------------------------------------------------------------

def git_sha():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def kernel_path():
    try:
        from sebrange import kernels
    except ImportError:
        return "numpy"
    return "numba" if getattr(kernels, "NUMBA_ENABLED", False) else "numpy"


def metric(value, unit):
    return {"value": value, "unit": unit}


def trace_metrics(stats, counts, absent, untraced_rate, traced_rate, n_spans):
    out = {}
    for layer in spans.LAYERS:
        calls, s, self_s = stats.get(layer.name, (0, 0.0, 0.0))
        out[f"{layer.name}.calls"] = metric(calls, "count")
        out[f"{layer.name}.s"] = metric(s, "s")
        out[f"{layer.name}.self_s"] = metric(self_s, "s")
    for name in spans.COUNT_NAMES:
        out[name] = metric(counts[name], "bytes" if name.endswith(".bytes") else "count")

    def ratio(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    out["tensor.tape_nodes_per_step"] = metric(
        ratio("tensor.tape_nodes", "tensor.backward_steps"), "nodes/step")
    out["graph.active_node_ratio"] = metric(
        ratio("graph.active_nodes", "graph.snapshot_rows"), "ratio")
    out["gnn.rows_used_ratio"] = metric(
        ratio("gnn.rows_used", "gnn.rows_computed"), "ratio")
    out["trace.untraced_orders_per_s"] = metric(untraced_rate, "1/s")
    out["trace.orders_per_s"] = metric(traced_rate, "1/s")
    out["trace.overhead_ratio"] = metric(
        traced_rate / untraced_rate if untraced_rate else 0.0, "ratio")
    out["trace.spans"] = metric(n_spans, "count")
    out["trace.absent_functions"] = metric(len(absent), "count")
    return out


def stage_shares(stats, timed_s):
    """Shares of the traced timed phase, for comparison with ROADMAP's split."""
    def s(name):
        return stats.get(name, (0, 0.0, 0.0))[1]
    forward = s("model.SebTransformer.forward_batch")
    return {
        "backward_of_run": s("tensor.Tensor.backward") / timed_s,
        "forward_of_run": forward / timed_s,
        "attention_of_run": s("attention.encode_sequence") / timed_s,
        "gnn_of_run": s("gnn.gnn_encode") / timed_s,
        "attention_of_forward": s("attention.encode_sequence") / forward if forward else 0.0,
        "gnn_of_forward": s("gnn.gnn_encode") / forward if forward else 0.0,
        "adam_of_run": s("optim.optimizer_step") / timed_s,
        "s3im_of_run": s("s3im.s3im_regularizer") / timed_s,
    }


def write_spans(recorder, name, seed):
    outdir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, f"spans-{name}-seed{seed}.jsonl")
    with open(path, "w") as fh:
        for span_name, start, end, parent, op in recorder.spans:
            fh.write(json.dumps({"name": span_name, "start": start, "end": end,
                                 "parent": parent, "op": op}) + "\n")
    return path


def setup_in_child(args, monitor):
    """Set-up seconds measured in a fresh process of its own."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    try:
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                               timeout=SETUP_CHILD_TIMEOUT_S)
        result = json.loads(child.stdout.splitlines()[-1])
    except (subprocess.TimeoutExpired, json.JSONDecodeError, IndexError):
        monitor.check(False, "set-up process failed")
        return None
    monitor.failed += result["failed"]
    return result["setup_s"]


def measure_end_to_end(wl, args, workdir, monitor, info):
    # Each set-up runs in a fresh process, like `sebrange gen` and `train`,
    # so no set-up reuses another's warm heap and peak RSS is one set-up's.
    setup_times = [setup_in_child(args, monitor) for _ in range(SETUP_REPS - 1)]
    state, seconds = set_up(wl, args.seed, workdir, monitor)
    setup_times = [s for s in setup_times if s is not None] + [seconds]
    passes = run_phase(wl, state, args.seconds, monitor)
    mae = test_mae(wl, state, monitor)
    lat_ms = np.array(monitor.latencies) * 1e3
    windows = np.array_split(lat_ms, max(1, len(lat_ms) // TAIL_MIN_OPS))
    window_tails = [float(np.percentile(w, TAIL_PERCENTILE)) for w in windows]
    tail_ms = statistics.median(window_tails)
    info.update(setup_s=setup_times, passes=len(passes), ops_total=len(lat_ms),
                tail_percentile=TAIL_PERCENTILE, tail_windows=len(windows),
                tail_window_ops=min(map(len, windows)),
                tail_samples_beyond=min(int(np.count_nonzero(w > t))
                                        for w, t in zip(windows, window_tails)),
                tail_window_ms=window_tails,
                run_tail_ms=float(np.percentile(lat_ms, TAIL_PERCENTILE)))
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "orders_per_s": metric(median_rate(passes), "1/s"),
        "op_p50_ms": metric(float(np.percentile(lat_ms, 50.0)), "ms"),
        "op_tail_ms": metric(tail_ms, "ms"),
        "mae_km": metric(mae, "km"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def measure_layers(wl, args, workdir, monitor, info):
    """One traced set-up, then passes that alternate between spans off and on.

    Alternating lets the untraced and traced passes see the same machine
    conditions, so their rate ratio is the tracing overhead. Exact counts are
    taken over the first traced pass only, so they repeat run to run
    whatever the number of passes.
    """
    recorder = spans.Recorder()
    recorder.counting = True
    recorder.install("setup")
    state, _ = set_up(wl, args.seed, workdir, monitor)
    recorder.uninstall()

    maes = {}

    def before(i):
        if i % 2:
            monitor.recorder = recorder
            recorder.install("op")

    def after(i):
        if i % 2:
            recorder.uninstall()
            monitor.recorder = None
            recorder.counting = False
        if i < 2:
            maes[i] = test_mae(wl, state, monitor)

    passes = run_phase(wl, state, 2 * args.seconds, monitor, before, after)
    monitor.check(maes.get(0) is not None and maes.get(0) == maes.get(1),
                  "traced test MAE differs from the untraced one")
    plain, traced = passes[0::2], passes[1::2]
    stats = recorder.layer_stats()
    info.update(mae_km=maes.get(1), passes=len(passes), absent=sorted(recorder.absent),
                shares=stage_shares(stats, sum(s for _, s in traced)),
                spans_file=os.path.relpath(
                    write_spans(recorder, args.workload, args.seed), ROOT))
    return trace_metrics(stats, recorder.counts, recorder.absent,
                         median_rate(plain), median_rate(traced), len(recorder.spans))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print its seconds")
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    workdir = os.path.join(ROOT, "perfbench", ".work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    monitor = Monitor()
    if args.setup_only:
        try:
            _, seconds = set_up(wl, args.seed, workdir, monitor)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": seconds, "failed": monitor.failed}))
        return 0
    info = {"workload": args.workload, "seed": args.seed, "git_sha": git_sha(),
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "kernels": kernel_path(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        if wl.trains:
            install_step_probes(monitor)
        measure = measure_layers if args.trace else measure_end_to_end
        metrics = measure(wl, args, workdir, monitor, info)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = max(len(monitor.latencies), 1)
    failed = min(monitor.failed, attempted)
    info.update(ops=len(monitor.latencies), error_rate=failed / attempted,
                notes=monitor.notes)
    print("info " + json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Peak memory of order generation and of a training step's backward sweep,
what a sweep leaves behind on the tape, and that no run loads numpy.ma."""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import sebrange
from sebrange.benchmark import build_model
from sebrange.datagen import N_FEATURES, SEQ_LEN, GeneratorConfig, generate
from sebrange.errors import ContractError
from sebrange.gnn import NodeFeatureTable
from sebrange.gradcheck import dense_grad, pack_params_grads
from sebrange.model import ModelConfig
from sebrange.optim import Param
from sebrange.rng import Rng
from sebrange.tensor import add, layer_norm, linear, mul, relu, sum_
from sebrange.training import (
    TrainConfig,
    make_chunks,
    objective,
    split_orders,
)
from test_acceptance import _check_environment_pin


def test_generate_peak_stays_near_its_telemetry(traced):
    # Drawing all 647 uniforms of every order at once peaked at 7.1x; in
    # blocks it read 1.67x, and 1.56x with the words mixed and shifted in place.
    (orders, _), _, peak = traced(generate, GeneratorConfig(n_orders=2000))
    telemetry_bytes = len(orders) * SEQ_LEN * N_FEATURES * 8
    assert peak <= 2.5 * telemetry_bytes, f"generate peaked at {peak} bytes"


# gen, write and read a small dataset, train each model one epoch, round-trip
# its checkpoint and score it; print the first stage after which numpy.ma is
# loaded, if any.
NO_NUMPY_MA_PIPELINE = """
import os, sys
from sebrange import benchmark, checkpoint, datagen, training
from sebrange.model import ModelConfig

def stage(name):
    if "numpy.ma" in sys.modules:
        print(name)
        sys.exit(0)

stage("import")
out = sys.argv[1]
orders, g = datagen.generate(datagen.GeneratorConfig(
    n_orders=120, n_users=60, n_batteries=30, horizon=8, seed=5))
stage("generate")
datagen.write_dataset(orders, g, out)
stage("write_dataset")
orders, g = datagen.read_dataset(out)
stage("read_dataset")
for kind in benchmark.BENCH_MODELS:
    model = benchmark.build_model(kind, ModelConfig(), g.n_users, g.n_batteries, 5)
    benchmark.train_model(kind, model, orders, g, training.TrainConfig(epochs=1))
    stage(f"train {kind}")
    path = os.path.join(out, kind + ".npz")
    checkpoint.save_checkpoint(path, model, "hash", trained_as=kind)
    model, _ = checkpoint.load_checkpoint(path)
    stage(f"checkpoint {kind}")
    training.evaluate_mae(model, orders, g)
    stage(f"evaluate_mae {kind}")
"""


def test_pipeline_never_imports_numpy_ma(tmp_path):
    # np.unique with no optional output imports numpy.ma, and so do
    # np.isin and np.union1d: about 1.7 MB of every process's peak RSS.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sebrange.__file__)))
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY_MA_PIPELINE, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "", f"numpy.ma was imported by: {proc.stdout.strip()}"


def test_node_table_build_peaks_near_its_value(traced):
    # Drawing the bias rows whole, copying them into the param and giving it
    # a table-sized gradient peaked at 3.02x; a draw in blocks into the
    # array the table keeps, with a compact gradient, reads 1.06x.
    table, _, peak = traced(NodeFeatureTable, Rng(3), 10, 100_000, 8)
    value_bytes = table.battery_bias.value.nbytes
    assert value_bytes == 100_000 * 8 * 8
    assert peak <= 1.25 * value_bytes, f"the build peaked at {peak} bytes"


@pytest.fixture(scope="module")
def largest_step():
    """A forward over the largest seed-42 seb-s3im training chunk (41
    orders), with the model's trainable params."""
    orders, graph = generate(GeneratorConfig())
    cfg = TrainConfig(s3im_enabled=True)
    model = build_model("seb-s3im", ModelConfig(), graph.n_users, graph.n_batteries, cfg.seed)
    train_split = split_orders(orders, cfg)[0]
    model.prepare(train_split)
    s3im_cfg = cfg.make_s3im(np.array([o.label for o in train_split]))
    chunk = max(make_chunks(train_split, cfg.batch_size), key=len)
    labels = np.array([o.label for o in chunk])
    params = model.trainable_params()

    def forward():
        for p in params:
            p.zero_grad()
        return objective([(model.forward_batch(chunk, graph), labels)], cfg, s3im_cfg)

    forward()  # the first forward also builds what later ones reuse
    return forward, params


def tape(root):
    seen, stack = {id(root): root}, [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


# The step's gradient digest, one entry per float environment that
# tests/data/frozen_seed42.json pins, keyed by _check_environment_pin; an
# environment with no entry is held to the native digest.
TAPE_GRADS_NATIVE = "20e555703593391610d1bdf8aab317961ef9f51cfe2f3ab0f18dad8bd065e754"
TAPE_GRADS_SHA256 = {
    # SkylakeX, two and one BLAS threads
    "45b278bfb127": TAPE_GRADS_NATIVE,
    "75b28a573237": TAPE_GRADS_NATIVE,
    # X86_V3 and Haswell, one thread
    "dfa60c5f6c06": "10913c48ed2246c2eb228856dc7e1e2048e2329fdc13594380e92e2009e7a4c1",
}


def test_backward_consumes_the_tape(largest_step):
    forward, params = largest_step
    loss = forward()
    loss.backward()
    nodes = tape(loss)
    # Every node of a step is an op output: the params are operands, not
    # leaves, and each got its gradient while the sweep ran.
    assert all(n.grad is None for n in nodes)
    assert all(p.grad.any() for p in params)
    grads = pack_params_grads(params)
    # Taken when backward kept every interior gradient and closure, and the
    # attention head stored W_Q, W_K and W_V as (d_out, d): the head's
    # gradients are hashed in that layout.
    old_layout = np.concatenate([
        (p.grad.T if p.name in ("attn.wq", "attn.wk", "attn.wv") else dense_grad(p)).reshape(-1)
        for p in params])
    _check_environment_pin(TAPE_GRADS_SHA256, TAPE_GRADS_NATIVE,
                           hashlib.sha256(old_layout.tobytes()).hexdigest(),
                           "tests/test_memory.py::test_backward_consumes_the_tape")
    with pytest.raises(ContractError, match="already ran"):
        loss.backward()
    assert pack_params_grads(params).tobytes() == grads.tobytes()


def test_forward_holds_only_what_backward_reads(largest_step, traced):
    # With every op output on the tape the forward held 7.03 MiB.
    forward, _ = largest_step
    _, held, _ = traced(forward)
    assert held <= 0.7 * 7.03 * 2**20, f"the forward held {held} bytes"
    # 4.47 MiB while the attention node kept its (41, 64, 64) softmax weights,
    # 3.23 MiB while the tape kept q, k, v and the FFN's hidden layer.
    assert held <= 1.8 * 2**20, f"the forward held {held} bytes"


def test_backward_keeps_the_values_the_caller_holds():
    r = Rng(5)
    x, w1, w2 = (Param(r.normal(size=s)) for s in [(3, 8, 4), (4, 6), (6, 4)])
    b1, b2, gain, bias = (Param(r.normal(size=n)) for n in (6, 4, 4, 4))
    hidden = relu(linear(x, w1, b1))
    residual = add(linear(hidden, w2, b2), x)
    pred = layer_norm(residual, gain, bias)
    held = [t.array.copy() for t in (hidden, residual, pred)]
    sum_(mul(pred, pred)).backward()
    for t, before in zip((hidden, residual, pred), held):
        assert t.array.tobytes() == before.tobytes()


def test_backward_peak_and_what_it_leaves(largest_step, traced):
    # Keeping every op output until the sweep ended, a step peaked at 1.56x
    # its forward; keeping every interior gradient too, at 2.0x.
    forward, _ = largest_step
    _, forward_held, forward_peak = traced(forward)

    def step():
        loss = forward()
        loss.backward()
        return loss

    _, step_held, step_peak = traced(step)
    assert step_held < forward_held, f"{step_held} bytes left by {forward_held}"
    assert step_peak <= 1.1 * forward_peak, f"{step_peak} vs {forward_peak} bytes"
    # 5.80 MiB while the attention weights waited on the tape for their VJP,
    # 4.56 MiB while q, k, v and the FFN's hidden layer did.
    assert step_peak <= 3.0 * 2**20, f"the step peaked at {step_peak} bytes"

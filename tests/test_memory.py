"""Peak memory of order generation and of a training step's backward sweep,
and what a sweep leaves behind on the tape."""

import hashlib

import numpy as np
import pytest

from sebrange.benchmark import build_model
from sebrange.datagen import N_FEATURES, SEQ_LEN, GeneratorConfig, generate
from sebrange.errors import ContractError
from sebrange.gradcheck import pack_params_grads
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
    # Drawing all 647 uniforms of every order at once peaked at 7.1x.
    (orders, _), _, peak = traced(generate, GeneratorConfig(n_orders=2000))
    telemetry_bytes = len(orders) * SEQ_LEN * N_FEATURES * 8
    assert peak <= 2.5 * telemetry_bytes, f"generate peaked at {peak} bytes"


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
        (p.grad.T if p.name in ("attn.wq", "attn.wk", "attn.wv") else p.grad).reshape(-1)
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
    # 4.47 MiB while the attention node kept its (41, 64, 64) softmax weights.
    assert held <= 3.4 * 2**20, f"the forward held {held} bytes"


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
    # 5.80 MiB while the attention weights waited on the tape for their VJP.
    assert step_peak <= 4.9 * 2**20, f"the step peaked at {step_peak} bytes"

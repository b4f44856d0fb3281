"""Fused tape ops against the composed tape ops they replace.

Each reference below builds the op from elementary tape ops, in the numpy
order the fused forward repeats, so forwards must agree bit for bit and
gradients to 1e-12 relative.
"""

import numpy as np
import pytest

from sebrange.attention import TransformerBlock, attend, encode_sequence, project_qkv
from sebrange.benchmark import build_model
from sebrange.datagen import GeneratorConfig, generate
from sebrange.errors import ShapeError
from sebrange.model import ModelConfig
from sebrange.optim import Param
from sebrange.rng import Rng
from sebrange.tensor import (
    Tensor,
    add,
    as_tensor,
    attention_core,
    layer_norm,
    linear,
    matmul,
    mean,
    mul,
    relu,
    softmax_rows,
    sqrt,
    sub,
    sum_,
    transpose_last,
)
from sebrange.training import (
    LabelBatch,
    Prediction,
    TrainConfig,
    make_chunks,
    objective,
    split_orders,
)

GRAD_RTOL = 1e-12


# -- composed references ------------------------------------------------------

def composed_mean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    count = a.size if axis is None else a.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / count)


def composed_layer_norm(x, gain, bias, eps=1e-5):
    mu = composed_mean(x, axis=-1, keepdims=True)
    centered = sub(x, mu)
    var = composed_mean(mul(centered, centered), axis=-1, keepdims=True)
    normed = mul(centered, 1.0 / sqrt(add(var, eps)))
    return add(mul(normed, gain), bias)


def composed_linear(x, w, b):
    return add(matmul(x, w), b)


def composed_attention(q, k, v):
    scale = 1.0 / np.sqrt(q.shape[-1])
    return matmul(softmax_rows(mul(matmul(q, transpose_last(k)), scale)), v)


def composed_encode(block, x0):
    x = add(x0, block.pos.tensor())
    attended = composed_attention(*project_qkv(block.head, x))
    if block.residual:
        attended = add(attended, x)
    if block.use_layer_norm:
        attended = composed_layer_norm(attended, block.ln1_g.tensor(),
                                       block.ln1_b.tensor())
    hidden = relu(composed_linear(attended, block.w1.tensor(), block.b1.tensor()))
    out = composed_linear(hidden, block.w2.tensor(), block.b2.tensor())
    if block.residual:
        out = add(out, attended)
    if block.use_layer_norm:
        out = composed_layer_norm(out, block.ln2_g.tensor(), block.ln2_b.tensor())
    return out


# -- helpers ------------------------------------------------------------------

def run(op, arrays, seed):
    """Forward values and every operand's gradient of sum(op(...) * c)."""
    params = [Param(a) for a in arrays]
    out = op(*[p.tensor() for p in params])
    c = Rng(seed).normal(size=out.shape)
    sum_(mul(out, c)).backward()
    return out.array, [p.grad for p in params]


def assert_matches(fused, composed, arrays, seed=0):
    out_f, grads_f = run(fused, arrays, seed)
    out_c, grads_c = run(composed, arrays, seed)
    assert np.array_equal(out_f, out_c)
    for gf, gc in zip(grads_f, grads_c):
        assert gf.shape == gc.shape
        assert np.abs(gf - gc).max() <= GRAD_RTOL * max(np.abs(gc).max(), 1e-300)


SHAPES = [(6, 4), (3, 6, 4)]


class TestMean:
    @pytest.mark.parametrize("shape, axis", [
        ((7,), None), ((7,), -1),
        ((5, 3), None), ((5, 3), -1), ((5, 3), -2),
        ((2, 5, 3), None), ((2, 5, 3), -1), ((2, 5, 3), -2),
    ])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_matches_composed(self, shape, axis, keepdims):
        x = Rng(1).normal(size=shape)
        assert_matches(lambda t: mean(t, axis, keepdims),
                       lambda t: composed_mean(t, axis, keepdims), [x])

    def test_one_tape_node(self):
        x = Tensor(np.ones((3, 4)))
        assert mean(x, axis=-1)._parents == (x,)


class TestLinear:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_composed(self, shape):
        r = Rng(2)
        x = r.normal(size=shape)
        w = r.normal(size=(shape[-1], 5))
        b = r.normal(size=(5,))
        assert_matches(linear, composed_linear, [x, w, b])

    def test_shape_errors(self):
        x, w = Tensor(np.ones((3, 4))), Tensor(np.ones((4, 2)))
        with pytest.raises(ShapeError):
            linear(x, Tensor(np.ones((3, 2))), Tensor(np.ones(2)))
        with pytest.raises(ShapeError):
            linear(x, w, Tensor(np.ones(3)))


class TestLayerNorm:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_composed(self, shape):
        r = Rng(3)
        x = r.normal(size=shape) * 3.0 + 1.5
        gain = r.normal(size=(shape[-1],))
        bias = r.normal(size=(shape[-1],))
        assert_matches(layer_norm, composed_layer_norm, [x, gain, bias])

    def test_unit_gain_rows_are_standardized(self):
        x = Rng(4).normal(size=(5, 8)) * 10.0
        out = layer_norm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8)),
                         eps=0.0).array
        assert np.abs(out.mean(axis=-1)).max() < 1e-14
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-13


class TestAttentionCore:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_composed(self, shape):
        r = Rng(5)
        q, k = r.normal(size=shape), r.normal(size=shape)
        v = r.normal(size=shape[:-1] + (3,))
        assert_matches(attention_core, composed_attention, [q, k, v])

    def test_batched_queries_over_shared_keys(self):
        r = Rng(6)
        q = r.normal(size=(2, 6, 4))
        k, v = r.normal(size=(6, 4)), r.normal(size=(6, 3))
        assert_matches(attention_core, composed_attention, [q, k, v])

    def test_attend_is_one_tape_node(self):
        q, k, v = (Tensor(np.ones((4, 3))) for _ in range(3))
        assert attend(q, k, v)._parents == (q, k, v)


class TestBlock:
    @pytest.mark.parametrize("residual, use_layer_norm",
                             [(True, True), (False, False), (True, False),
                              (False, True)])
    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_matches_composed(self, residual, use_layer_norm, batch):
        r = Rng(7)
        block = TransformerBlock.init(r, 4, 4, 4, 5, seq_len=6,
                                      residual=residual,
                                      use_layer_norm=use_layer_norm)
        x0 = r.normal(size=batch + (6, 4))
        params = block.params()
        results = []
        for encode in (encode_sequence, composed_encode):
            for p in params:
                p.zero_grad()
            x = Tensor(x0)
            out = encode(block, x)
            sum_(mul(out, Rng(8).normal(size=out.shape))).backward()
            results.append((out.array, [x.grad] + [p.grad.copy() for p in params]))
        (out_f, grads_f), (out_c, grads_c) = results
        assert np.array_equal(out_f, out_c)
        names = ["x0"] + [p.name for p in params]
        for name, gf, gc in zip(names, grads_f, grads_c):
            err = np.abs(gf - gc).max()
            assert err <= GRAD_RTOL * max(np.abs(gc).max(), 1e-300), name


def tape_nodes(root):
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def test_seb_s3im_step_tape_nodes():
    # The composed ops gave 194 nodes per seb-s3im step at the default
    # architecture; the fused ones give 136.
    orders, graph = generate(GeneratorConfig(
        n_orders=120, n_users=60, n_batteries=20, n_stations=4, horizon=8,
        seed=3))
    cfg = TrainConfig(batch_size=32, seed=3, s3im_enabled=True)
    model = build_model("seb-s3im", ModelConfig(), graph.n_users,
                        graph.n_batteries, 3)
    train_split = split_orders(orders, cfg)[0]
    model.prepare(train_split)
    chunk = next(c for c in make_chunks(train_split, cfg.batch_size)
                 if len(c) >= 2)
    label = LabelBatch(chunk[0].t, [o.label for o in chunk])
    loss = objective([Prediction(label.t, model.forward_batch(chunk, graph))],
                     [label], cfg)
    assert tape_nodes(loss) <= 136

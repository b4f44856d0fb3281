"""Fused tape ops against the composed tape ops they replace.

Each reference below builds the op from elementary tape ops, in the numpy
order the fused forward repeats, so forwards must agree bit for bit and
gradients to 1e-12 relative. The encoder block's two sublayers rebuild what
their VJPs read with the forward's float operations, so their gradients must
agree bit for bit too.
"""

import numpy as np
import pytest

from sebrange.attention import TransformerBlock, attend, encode_sequence, qkv_weights
from sebrange.benchmark import build_model
from sebrange.datagen import GeneratorConfig, generate
from sebrange.errors import ContractError, ShapeError
from sebrange.model import ModelConfig
from sebrange.optim import Param
from sebrange.rng import Rng
from sebrange.tensor import (
    Tensor,
    _record,
    _value,
    add,
    ATTENTION_TILE,
    attention_core,
    feed_forward,
    layer_norm,
    linear,
    matmul,
    mean,
    mul,
    relu,
    self_attention,
    softmax_rows,
    sub,
    sum_,
)
from sebrange.training import (
    TrainConfig,
    make_chunks,
    objective,
    split_orders,
)

GRAD_RTOL = 1e-12


# -- composed references ------------------------------------------------------

def transpose_last(a):
    """Swap the trailing two axes, as a tape op."""
    x = _value(a)
    if x.ndim < 2:
        raise ShapeError(f"transpose_last requires ndim >= 2, got {x.shape}")
    return _record(np.swapaxes(x, -1, -2), (a,), lambda g: (np.swapaxes(g, -1, -2),))


def composed_mean(a, axis=None, keepdims=False):
    x = _value(a)
    count = x.size if axis is None else x.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / count)


def rsqrt(a):
    """Elementwise ``1 / sqrt(a)``; the tensor module has no division op."""
    x = _value(a)
    out = 1.0 / np.sqrt(x)
    return _record(out, (a,), lambda g: (g * (-0.5 * out / x),))


def composed_layer_norm(x, gain, bias, eps=1e-5):
    mu = composed_mean(x, axis=-1, keepdims=True)
    centered = sub(x, mu)
    var = composed_mean(mul(centered, centered), axis=-1, keepdims=True)
    normed = mul(centered, rsqrt(add(var, eps)))
    return add(mul(normed, gain), bias)


def composed_linear(x, w, b):
    return add(matmul(x, w), b)


def composed_attention(q, k, v):
    scale = 1.0 / np.sqrt(q.shape[-1])
    return matmul(softmax_rows(mul(matmul(q, transpose_last(k)), scale)), v)


def project_qkv(x, wq, wk, wv):
    """The Q, K and V projections, one ``matmul`` node each."""
    return matmul(x, wq), matmul(x, wk), matmul(x, wv)


def unfused_self_attention(x, wq, wk, wv):
    """``self_attention`` as five nodes: three projections, the attention
    node and the residual add."""
    return add(attend(*project_qkv(x, wq, wk, wv)), x)


def unfused_feed_forward(a, w1, b1, w2, b2):
    """``feed_forward`` as three nodes."""
    return linear(relu(linear(a, w1, b1)), w2, b2)


def composed_encode(block, x0):
    x = add(x0, block.pos)
    attended = add(composed_attention(*project_qkv(x, block.wq, block.wk, block.wv)), x)
    attended = composed_layer_norm(attended, block.ln1_g, block.ln1_b)
    hidden = relu(composed_linear(attended, block.w1, block.b1))
    out = add(composed_linear(hidden, block.w2, block.b2), attended)
    return composed_layer_norm(out, block.ln2_g, block.ln2_b)


# -- helpers ------------------------------------------------------------------

def run(op, arrays, seed):
    """Forward values and every operand's gradient of sum(op(...) * c)."""
    params = [Param(a) for a in arrays]
    out = op(*params)
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
        ((2, 5, 3), 0), ((2, 4, 5, 3), 1), ((41, 64, 16), -2),
    ])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_matches_composed(self, shape, axis, keepdims):
        x = Rng(1).normal(size=shape)
        assert_matches(lambda t: mean(t, axis, keepdims),
                       lambda t: composed_mean(t, axis, keepdims), [x])

    def test_one_tape_node(self):
        x = Tensor(np.ones((3, 4)))
        assert mean(x, axis=-1)._parents == (x.node,)


class TestLinear:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_composed(self, shape):
        r = Rng(2)
        x = r.normal(size=shape)
        w = r.normal(size=(shape[-1], 5))
        b = r.normal(size=(5,))
        assert_matches(linear, composed_linear, [x, w, b])

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 6, 4), (41, 64, 16)])
    def test_bias_rows_match_broadcast_add_at_every_rank(self, shape):
        r = Rng(3)
        x = r.normal(size=shape)
        w, b = r.normal(size=(shape[-1], 5)), r.normal(size=(5,))
        out = linear(Tensor(x), Tensor(w), Tensor(b)).array
        assert out.tobytes() == (np.matmul(x, w) + b).tobytes()

    def test_constant_input_gets_no_gradient(self):
        r = Rng(4)
        x = r.normal(size=(3, 6, 4))
        w, b = Param(r.normal(size=(4, 5))), Param(r.normal(size=(5,)))
        out = linear(x, w, b)
        assert out._parents == ()
        sum_(mul(out, Rng(0).normal(size=out.shape))).backward()
        _, grads = run(linear, [x, w.value, b.value], 0)
        assert np.array_equal(w.grad, grads[1]) and np.array_equal(b.grad, grads[2])

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

    @pytest.mark.parametrize("q_shape, k_shape, v_shape, logit_scale", [
        ((5, 4), (9, 4), (9, 3), 1.0),
        ((2, 9, 4), (2, 5, 4), (2, 5, 3), 1.0),
        ((3, 7, 4), (11, 4), (11, 2), 1.0),
        ((3, 6, 4), (3, 6, 4), (3, 6, 3), 1e3),
        ((2, 5, 4), (8, 4), (8, 3), 1e3),
    ])
    def test_forward_bits_over_key_shapes(self, q_shape, k_shape, v_shape,
                                          logit_scale):
        # Large logits make the max shift decide which weights underflow.
        r = Rng(9)
        q = r.normal(size=q_shape) * np.sqrt(logit_scale)
        k = r.normal(size=k_shape) * np.sqrt(logit_scale)
        v = r.normal(size=v_shape)
        assert_matches(attention_core, composed_attention, [q, k, v])

    @pytest.mark.parametrize("batch", [1, 28, 41])
    def test_forward_bits_at_the_model_shapes(self, batch):
        # 64 steps, 16 features in q, k and v; not every width keeps the bits.
        r = Rng(13)
        q, k, v = (r.normal(size=(batch, 64, 16)) for _ in range(3))
        assert_matches(attention_core, composed_attention, [q, k, v])

    def test_tiled_gradients_equal_each_sequence_alone(self):
        # 41 sequences fill six whole tiles of the VJP and part of a seventh.
        r = Rng(14)
        q, k, v, c = (r.normal(size=(41, 64, 16)) for _ in range(4))

        def grads(*arrays):
            params = [Param(a) for a in arrays[:3]]
            sum_(mul(attention_core(*params), arrays[3])).backward()
            return [p.grad for p in params]

        batched = grads(q, k, v, c)
        alone = [grads(q[i], k[i], v[i], c[i]) for i in range(41)]
        for n, g in enumerate(batched):
            assert g.tobytes() == np.stack([a[n] for a in alone]).tobytes()

    def test_node_keeps_no_weights(self, traced):
        # Past the output, the node may keep the per-query max and sum and its
        # Python objects: under 4 KiB, an eighth of one sequence's (64, 64)
        # weights. It held all 41 sequences' weights, 1.28 MiB, when the VJP
        # read them from the forward.
        r = Rng(15)
        q, k, v = (Tensor(r.normal(size=(41, 64, 16))) for _ in range(3))
        out, held, _ = traced(attention_core, q, k, v)
        stats = 2 * 41 * 64 * 8
        assert held <= out.array.nbytes + stats + 4096, f"the node held {held} bytes"

    def test_attend_is_one_tape_node(self):
        q, k, v = (Tensor(np.ones((4, 3))) for _ in range(3))
        assert attend(q, k, v)._parents == (q.node, k.node, v.node)


# The model's widths (D = d_qk = 16, 32 FFN units, 64 steps): 1 sequence,
# one whole tile, a tile and one more, the largest seed-42 chunk, and one
# sequence without a batch axis.
FUSED_BATCHES = [(1,), (ATTENTION_TILE,), (ATTENTION_TILE + 1,), (41,), ()]


def run_sublayer(op, x0, weights, seed):
    """Output, x's gradient and every weight's of sum(op(x, *weights) * c), x a
    tape node as in the encoder block; the loss is returned spent."""
    x = Tensor(x0)
    params = [Param(w) for w in weights]
    out = op(x, *params)
    loss = sum_(mul(out, Rng(seed).normal(size=out.shape)))
    loss.backward()
    return loss, [out.array, x.grad] + [p.grad for p in params]


def assert_bits_equal(fused, unfused, x0, weights):
    loss, got = run_sublayer(fused, x0, weights, 1)
    _, want = run_sublayer(unfused, x0, weights, 1)
    for name, g, w in zip(["out", "x"] + [f"w{i}" for i in range(len(weights))], got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes(), name
    with pytest.raises(ContractError, match="already ran"):
        loss.backward()


class TestSelfAttention:
    @pytest.mark.parametrize("batch", FUSED_BATCHES)
    def test_equals_projections_attend_and_add(self, batch):
        r = Rng(16)
        weights = [w.value for w in qkv_weights(r, 16, 16, 16)]
        assert_bits_equal(self_attention, unfused_self_attention,
                          r.normal(size=batch + (64, 16)), weights)

    def test_narrow_queries_and_keys(self):
        r = Rng(17)
        weights = [w.value for w in qkv_weights(r, 4, 3, 4)]
        assert_bits_equal(self_attention, unfused_self_attention,
                          r.normal(size=(ATTENTION_TILE + 1, 5, 4)), weights)

    def test_node_keeps_only_its_input(self, traced):
        # Past the output, the node keeps the per-query max and sum: no q, k,
        # v or weights, which took 3 x 0.33 and 1.28 MiB at this shape.
        r = Rng(18)
        weights = qkv_weights(r, 16, 16, 16)
        x = Tensor(r.normal(size=(41, 64, 16)))
        out, held, _ = traced(self_attention, x, *weights)
        assert out._parents == (x.node,)
        stats = 2 * 41 * 64 * 8
        assert held <= out.array.nbytes + stats + 4096, f"the node held {held} bytes"

    def test_shape_errors(self):
        x = Tensor(np.ones((5, 7)))
        with pytest.raises(ShapeError):
            self_attention(x, *qkv_weights(Rng(4), 4, 3, 3))
        with pytest.raises(ShapeError):
            self_attention(x, *qkv_weights(Rng(4), 7, 3, 3))


class TestFeedForward:
    @pytest.mark.parametrize("batch", FUSED_BATCHES)
    def test_equals_linear_relu_linear(self, batch):
        r = Rng(19)
        weights = [r.normal(size=n) for n in [(16, 32), (32,), (32, 16), (16,)]]
        assert_bits_equal(feed_forward, unfused_feed_forward,
                          r.normal(size=batch + (64, 16)), weights)

    def test_node_keeps_only_its_input(self, traced):
        # The (41, 64, 32) hidden layer, 0.64 MiB, is rebuilt in the VJP.
        r = Rng(20)
        w1, b1, w2, b2 = (Param(r.normal(size=n)) for n in [(16, 32), (32,), (32, 16), (16,)])
        a = Tensor(r.normal(size=(41, 64, 16)))
        out, held, _ = traced(feed_forward, a, w1, b1, w2, b2)
        assert out._parents == (a.node,)
        assert held <= out.array.nbytes + 4096, f"the node held {held} bytes"

    @pytest.mark.parametrize("rows", [41, 1])
    def test_fusion_head_shapes(self, rows):
        # The seb fusion head: 48 fused inputs, 32 hidden units, one output.
        r = Rng(21)
        weights = [r.normal(size=n) for n in [(48, 32), (32,), (32, 1), (1,)]]
        assert_bits_equal(feed_forward, unfused_feed_forward, r.normal(size=(rows, 48)), weights)

    def test_constant_input_at_the_baseline_shapes(self):
        # The MLP baseline's flat telemetry, a constant: 64 x 6 inputs, 64 hidden units.
        r = Rng(22)
        a = r.normal(size=(64, 384))
        weights = [r.normal(size=n) for n in [(384, 64), (64,), (64, 1), (1,)]]
        results = []
        for op in (feed_forward, unfused_feed_forward):
            params = [Param(w) for w in weights]
            out = op(a, *params)
            sum_(mul(out, Rng(1).normal(size=out.shape))).backward()
            results.append([out.array] + [p.grad for p in params])
            if op is feed_forward:
                assert out._parents == ()
        for name, g, w in zip(["out", "w1", "b1", "w2", "b2"], *results):
            assert g.shape == w.shape and g.tobytes() == w.tobytes(), name


class TestBlock:
    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_matches_composed(self, batch):
        r = Rng(7)
        block = TransformerBlock(r, 4, 4, 5, seq_len=6)
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


def step_tape_nodes(kind):
    """Tape nodes of a seed-42 training loss on the first chunk of >= 2
    orders, counted as the traced benchmark counts them."""
    orders, graph = generate(GeneratorConfig())
    cfg = TrainConfig(s3im_enabled=kind == "seb-s3im")
    model = build_model(kind, ModelConfig(), graph.n_users, graph.n_batteries, cfg.seed)
    train_split = split_orders(orders, cfg)[0]
    model.prepare(train_split)
    chunk = next(c for c in make_chunks(train_split, cfg.batch_size)
                 if len(c) >= 2)
    labels = np.array([o.label for o in chunk])
    loss = objective([(model.forward_batch(chunk, graph), labels)], cfg)
    return tape_nodes(loss)


def test_seb_s3im_step_tape_nodes():
    # The composed ops gave 194 nodes per seb-s3im step at the default
    # architecture and the fused ones 71, one of them the S3IM term and one
    # per Q, K and V projection; 4 of the 71 were constants: the telemetry,
    # the labels, the 1.0 in 1 - s3im and the S3IM weight. 25 of the other
    # 67 were leaves, one per use of a param (the battery-bias rows among
    # them), before params became op operands. 42 before the attention
    # sublayer (three projections, attention, the residual add) and the FFN
    # (linear, relu, linear) became one node each; 36 before the fusion head
    # became one ``feed_forward`` node and the graph slice one gather and a
    # reshape (two gathers and a concat before).
    assert step_tape_nodes("seb-s3im") == 33


def test_seb_step_tape_nodes():
    # The seb-s3im step without the S3IM term, the 1 - s3im, its weight and
    # the add; 38 before the two fused sublayers, 32 before the one-node
    # fusion head and graph slice gather.
    assert step_tape_nodes("seb") == 29

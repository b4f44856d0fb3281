"""Attention encoder contracts: the attention sublayer and its projections,
attention, block, MLP head."""

import numpy as np
import pytest

from sebrange.attention import (
    MlpHead,
    TransformerBlock,
    attend,
    encode_sequence,
    mlp_forward,
    qkv_weights,
)
from sebrange.errors import ShapeError
from sebrange.gradcheck import grad_check
from sebrange.optim import Param, glorot_uniform
from sebrange.rng import Rng
from sebrange.tensor import Tensor, mul, self_attention, sum_


class TestProjectQkv:
    """The Q, K and V projections, which ``self_attention`` makes inside its node."""

    def test_zero_input(self):
        weights = qkv_weights(Rng(1), 4, 3, 4)
        out = self_attention(Tensor(np.zeros((5, 4))), *weights)
        assert np.array_equal(out.array, np.zeros((5, 4)))

    def test_identity_projection(self):
        x = Rng(2).normal(size=(4, 3))
        out = self_attention(Tensor(x), *(Param(np.eye(3)) for _ in range(3)))
        expect = attend(Tensor(x), Tensor(x), Tensor(x)).array + x
        assert out.array.tobytes() == expect.tobytes()

    def test_matches_matmul_oracle(self):
        r = Rng(3)
        weights = qkv_weights(r, 2, 2, 2)
        x = r.normal(size=(2, 2))
        q, k, v = (np.zeros((2, 2)) for _ in range(3))
        for m, w in zip((q, k, v), weights):
            for i in range(2):
                for j in range(2):
                    for l in range(2):
                        m[i, j] += x[i, l] * w.value[l, j]
        logits = q @ k.T / np.sqrt(2.0)
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        expect = (e / e.sum(axis=-1, keepdims=True)) @ v + x
        got = self_attention(Tensor(x), *weights).array
        assert np.abs(got - expect).max() <= 1e-12

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            self_attention(Tensor(np.ones((5, 7))), *qkv_weights(Rng(4), 4, 3, 4))

    def test_is_one_tape_node(self):
        block = TransformerBlock(Rng(12), 4, 3, 5, seq_len=6)
        x = Tensor(np.ones((6, 4)))
        out = self_attention(x, block.wq, block.wk, block.wv)
        # The weights are operands, not nodes: their gradients go straight
        # into w.grad. Equal rows attend uniformly, so W_V's is about x^T 1 = 6.
        assert out._parents == (x.node,)
        for w in (block.wq, block.wk, block.wv):
            w.zero_grad()
        sum_(out).backward()
        assert np.abs(block.wv.grad - 6.0).max() <= 1e-12


class TestAttend:
    def test_single_row_returns_value_row(self):
        r = Rng(5)
        q = Tensor(r.normal(size=(1, 4)))
        k = Tensor(r.normal(size=(1, 4)))
        v = Tensor(r.normal(size=(1, 3)))
        out = attend(q, k, v)
        assert np.array_equal(out.array, v.array)

    def test_identical_keys_give_column_mean(self):
        r = Rng(6)
        k_row = r.normal(size=(4,))
        k = Tensor(np.tile(k_row, (5, 1)))
        q = Tensor(r.normal(size=(5, 4)))
        v = Tensor(r.normal(size=(5, 3)))
        out = attend(q, k, v)
        assert np.abs(out.array - v.array.mean(axis=0)).max() <= 1e-12

    def test_two_row_analytic_case(self):
        q = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        k = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        v = Tensor(np.array([[1.0], [3.0]]))
        out = attend(q, k, v).array
        # direct scalar evaluation of the formula
        s = 1.0 / np.sqrt(2.0)
        w11 = np.exp(s) / (np.exp(s) + 1.0)
        expect = np.array([[w11 * 1.0 + (1 - w11) * 3.0],
                           [(1 - w11) * 1.0 + w11 * 3.0]])
        assert np.abs(out - expect).max() <= 1e-12

    def test_rows_in_convex_hull_of_values(self):
        r = Rng(7)
        q, k = (Tensor(r.normal(size=(6, 4))) for _ in range(2))
        v = Tensor(r.normal(size=(6, 3)))
        out = attend(q, k, v).array
        lo, hi = v.array.min(axis=0), v.array.max(axis=0)
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)

    def test_permutation_equivariance_exact(self):
        r = Rng(8)
        q, k = (r.normal(size=(5, 4)) for _ in range(2))
        v = r.normal(size=(5, 3))
        base = attend(Tensor(q), Tensor(k), Tensor(v)).array
        perm = r.permutation(5)
        permuted = attend(Tensor(q[perm]), Tensor(k[perm]), Tensor(v[perm])).array
        # the reductions over value rows re-associate under permutation,
        # so equality holds to the last couple of ulps, not bitwise
        assert np.abs(permuted - base[perm]).max() <= 5e-15

    def test_scaling_q_k_scales_logits_quadratically(self):
        r = Rng(9)
        q, k = (r.normal(size=(3, 4)) for _ in range(2))
        v = np.eye(3)
        # with c = 0 attention is exactly uniform
        out0 = attend(Tensor(0.0 * q), Tensor(0.0 * k), Tensor(v)).array
        assert np.abs(out0 - 1.0 / 3.0).max() <= 1e-15
        # scaling both by c multiplies logits by c^2: compare c=2 against
        # explicitly scaling the score matrix by 4
        s = (q @ k.T) / np.sqrt(4.0)
        e = np.exp(4.0 * s - (4.0 * s).max(axis=-1, keepdims=True))
        expect = (e / e.sum(axis=-1, keepdims=True)) @ v
        got = attend(Tensor(2.0 * q), Tensor(2.0 * k), Tensor(v)).array
        assert np.abs(got - expect).max() <= 1e-12

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            attend(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))),
                   Tensor(np.ones((2, 2))))


class TestEncodeSequence:
    def test_output_shape(self):
        r = Rng(12)
        block = TransformerBlock(r, 4, 4, 6, seq_len=7)
        out = encode_sequence(block, Tensor(r.normal(size=(7, 4))))
        assert out.shape == (7, 4)
        batched = encode_sequence(block, Tensor(r.normal(size=(3, 7, 4))))
        assert batched.shape == (3, 7, 4)

    def test_gradient_through_block(self):
        r = Rng(13)
        block = TransformerBlock(r, 3, 3, 4, seq_len=4)
        c = r.normal(size=(4, 3))
        err = grad_check(
            lambda t: sum_(mul(encode_sequence(block, t), c)),
            r.normal(size=(4, 3)))
        assert err <= 1e-4

    def test_wrong_sequence_length(self):
        block = TransformerBlock(Rng(14), 3, 3, 4, seq_len=6)
        with pytest.raises(ShapeError):
            encode_sequence(block, Tensor(np.ones((5, 3))))

    def test_value_width_matches_residual(self):
        block = TransformerBlock(Rng(15), 4, 2, 5, seq_len=6)
        assert (block.wq.shape, block.wk.shape, block.wv.shape) == ((4, 2), (4, 2), (4, 4))
        assert encode_sequence(block, Tensor(np.ones((6, 4)))).shape == (6, 4)


class TestMlpHead:
    def test_zero_weights_constant_bias(self):
        r = Rng(16)
        head = MlpHead(r, 4, 3)
        for p in head.params():
            p.value[...] = 0.0
        head.out_bias.value[...] = 7.5
        out = mlp_forward(head, Tensor(Rng(17).normal(size=(6, 4))))
        assert np.array_equal(out.array, np.full((6, 1), 7.5))

    def test_draws_w0_then_w1(self):
        # Checkpoints and the frozen seed-42 results pin these draws and names.
        head = MlpHead(Rng(18), 4, 3, "fusion")
        r = Rng(18)
        w0, w1 = glorot_uniform(r, 4, 3, (4, 3)), glorot_uniform(r, 3, 1, (3, 1))
        assert np.array_equal(head.w0.value, w0) and np.array_equal(head.w1.value, w1)
        assert not head.b0.value.any() and not head.b1.value.any()
        assert [p.name for p in head.params()] == [
            "fusion.w0", "fusion.b0", "fusion.w1", "fusion.b1"]
        assert head.out_bias is head.b1

    def test_matches_hand_rolled_loops(self):
        r = Rng(19)
        head = MlpHead(r, 4, 5)
        x = r.normal(size=(3, 4))
        hidden = np.maximum(0.0, x @ head.w0.value + head.b0.value)
        expect = hidden @ head.w1.value + head.b1.value
        got = mlp_forward(head, Tensor(x)).array
        assert np.abs(got - expect).max() <= 1e-12

    def test_width_mismatch(self):
        head = MlpHead(Rng(21), 4, 3)
        with pytest.raises(ShapeError):
            mlp_forward(head, Tensor(np.ones((2, 5))))

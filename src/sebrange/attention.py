"""Softmax-attention encoder for telemetry sequences, plus the MLP head.

Single-head scaled dot-product attention: the input is projected to query,
key and value matrices, attention weights are the row-softmax of QK^T
scaled by 1/sqrt(D_qk), and each output row is the weight-averaged value
rows. The encoder block wraps one attention pass with a learned additive
position table and a two-layer relu feed-forward, each followed by a
residual sum and layer norm.

All ops act on the trailing axes, so a batch of sequences (B x S x D)
encodes in one call.
"""

import numpy as np

from .errors import ShapeError
from .optim import Param, glorot_uniform
from .tensor import Tensor, add, attention_core, feed_forward, layer_norm, self_attention


def qkv_weights(rng, d: int, d_qk: int, d_v: int):
    """W_Q, W_K (D x D_qk) and W_V (D x D_v), named ``attn.wq/wk/wv``. Each is
    drawn as (d_out, d) and stored transposed: the frozen seed-42 results pin
    these values."""
    def weight(d_out, key):
        w = glorot_uniform(rng, d, d_out, (d_out, d))
        return Param(w.T.copy(), f"attn.{key}")

    return weight(d_qk, "wq"), weight(d_qk, "wk"), weight(d_v, "wv")


def attend(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Scaled softmax attention; every output row is a convex mix of V rows."""
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"Q width {q.shape} does not match K width {k.shape}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"K rows {k.shape} do not match V rows {v.shape}")
    return attention_core(q, k, v)


class TransformerBlock:
    """One attention + feed-forward encoder block over a fixed sequence length.

    W_V is (D x D), so the attention output adds onto its input."""

    def __init__(self, rng, d: int, d_qk: int, ffn_dim: int, seq_len: int = 64):
        self.wq, self.wk, self.wv = qkv_weights(rng, d, d_qk, d)
        self.seq_len = seq_len
        self.pos = Param(glorot_uniform(rng, seq_len, d, (seq_len, d)), "block.pos")
        self.w1 = Param(glorot_uniform(rng, d, ffn_dim, (d, ffn_dim)), "block.w1")
        self.b1 = Param(np.zeros(ffn_dim), "block.b1")
        self.w2 = Param(glorot_uniform(rng, ffn_dim, d, (ffn_dim, d)), "block.w2")
        self.b2 = Param(np.zeros(d), "block.b2")
        self.ln1_g = Param(np.ones(d), "block.ln1_g")
        self.ln1_b = Param(np.zeros(d), "block.ln1_b")
        self.ln2_g = Param(np.ones(d), "block.ln2_g")
        self.ln2_b = Param(np.zeros(d), "block.ln2_b")

    def params(self):
        return [
            self.wq, self.wk, self.wv, self.pos, self.w1, self.b1, self.w2, self.b2,
            self.ln1_g, self.ln1_b, self.ln2_g, self.ln2_b,
        ]


def encode_sequence(block: TransformerBlock, x0: Tensor) -> Tensor:
    """Encode (..., S, D) telemetry embeddings to (..., S, D)."""
    if x0.shape[-2] != block.seq_len:
        raise ShapeError(
            f"sequence length {x0.shape[-2]} does not match block ({block.seq_len})"
        )
    x = add(x0, block.pos)
    attended = layer_norm(self_attention(x, block.wq, block.wk, block.wv),
                          block.ln1_g, block.ln1_b)
    out = add(feed_forward(attended, block.w1, block.b1, block.w2, block.b2), attended)
    return layer_norm(out, block.ln2_g, block.ln2_b)


class MlpHead:
    """Two-layer relu perceptron, d_in -> hidden -> 1, as one ``feed_forward``
    node. ``w0`` is drawn, then ``w1``; both biases start at zero."""

    def __init__(self, rng, d_in: int, hidden: int, name: str = "mlp"):
        self.w0 = Param(glorot_uniform(rng, d_in, hidden, (d_in, hidden)), f"{name}.w0")
        self.b0 = Param(np.zeros(hidden), f"{name}.b0")
        self.w1 = Param(glorot_uniform(rng, hidden, 1, (hidden, 1)), f"{name}.w1")
        self.b1 = self.out_bias = Param(np.zeros(1), f"{name}.b1")

    def params(self):
        return [self.w0, self.b0, self.w1, self.b1]


def mlp_forward(head: MlpHead, x) -> Tensor:
    """(..., d_in) -> (..., 1); ``x`` is a Tensor, or an array when it is a constant."""
    return feed_forward(x, head.w0, head.b0, head.w1, head.b1)

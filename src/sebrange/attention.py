"""Softmax-attention encoder for telemetry sequences, plus the MLP head.

Single-head scaled dot-product attention: the input is projected to query,
key and value matrices, attention weights are the row-softmax of QK^T
scaled by 1/sqrt(D_qk), and each output row is the weight-averaged value
rows. The encoder block wraps one attention pass with a learned additive
position table, a two-layer relu feed-forward, and residual + layer-norm
steps that can be toggled off to expose the bare attention path.

All ops act on the trailing axes, so a batch of sequences (B x S x D)
encodes in one call.
"""

import numpy as np

from .errors import ConfigError, ShapeError
from .optim import Param, glorot_uniform
from .tensor import (
    Tensor,
    add,
    attention_core,
    layer_norm,
    linear,
    matmul,
    relu,
    transpose_last,
)


class AttentionHead:
    """Projection weights W_Q, W_K (D_qk x D) and W_V (D_v x D)."""

    def __init__(self, wq: Param, wk: Param, wv: Param):
        if wq.shape != wk.shape:
            raise ShapeError(f"W_Q and W_K must match: {wq.shape} vs {wk.shape}")
        if wq.shape[1] != wv.shape[1]:
            raise ShapeError(
                f"W_V input dim {wv.shape[1]} must equal W_Q input dim {wq.shape[1]}"
            )
        self.wq = wq
        self.wk = wk
        self.wv = wv

    @property
    def d(self) -> int:
        return self.wq.shape[1]

    @property
    def d_qk(self) -> int:
        return self.wq.shape[0]

    @property
    def d_v(self) -> int:
        return self.wv.shape[0]

    @classmethod
    def init(cls, rng, d: int, d_qk: int, d_v: int, name: str = "attn"):
        return cls(
            Param(glorot_uniform(rng, d, d_qk, (d_qk, d)), f"{name}.wq"),
            Param(glorot_uniform(rng, d, d_qk, (d_qk, d)), f"{name}.wk"),
            Param(glorot_uniform(rng, d, d_v, (d_v, d)), f"{name}.wv"),
        )

    def params(self):
        return [self.wq, self.wk, self.wv]


def project_qkv(head: AttentionHead, x: Tensor):
    """Linear projections Q = X W_Q^T, K = X W_K^T, V = X W_V^T."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.shape[-1] != head.d:
        raise ShapeError(
            f"input width {x.shape[-1]} does not match head dim {head.d}"
        )
    q = matmul(x, transpose_last(head.wq.tensor()))
    k = matmul(x, transpose_last(head.wk.tensor()))
    v = matmul(x, transpose_last(head.wv.tensor()))
    return q, k, v


def attend(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Scaled softmax attention; every output row is a convex mix of V rows."""
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"Q width {q.shape} does not match K width {k.shape}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"K rows {k.shape} do not match V rows {v.shape}")
    return attention_core(q, k, v)


class TransformerBlock:
    """One attention + feed-forward encoder block over a fixed sequence length."""

    def __init__(self, head: AttentionHead, ffn_dim: int, seq_len: int, rng,
                 residual: bool = True, use_layer_norm: bool = True):
        d, d_v = head.d, head.d_v
        if residual and d_v != d:
            raise ConfigError(
                f"residual connections require d_v == d, got {d_v} != {d}"
            )
        self.head = head
        self.residual = residual
        self.use_layer_norm = use_layer_norm
        self.seq_len = seq_len
        self.pos = Param(glorot_uniform(rng, seq_len, d, (seq_len, d)), "block.pos")
        self.w1 = Param(glorot_uniform(rng, d_v, ffn_dim, (d_v, ffn_dim)), "block.w1")
        self.b1 = Param(np.zeros(ffn_dim), "block.b1")
        self.w2 = Param(glorot_uniform(rng, ffn_dim, d_v, (ffn_dim, d_v)), "block.w2")
        self.b2 = Param(np.zeros(d_v), "block.b2")
        self.ln1_g = Param(np.ones(d_v), "block.ln1_g")
        self.ln1_b = Param(np.zeros(d_v), "block.ln1_b")
        self.ln2_g = Param(np.ones(d_v), "block.ln2_g")
        self.ln2_b = Param(np.zeros(d_v), "block.ln2_b")

    @classmethod
    def init(cls, rng, d: int, d_qk: int, d_v: int, ffn_dim: int,
             seq_len: int = 64, residual: bool = True,
             use_layer_norm: bool = True):
        head = AttentionHead.init(rng, d, d_qk, d_v)
        return cls(head, ffn_dim, seq_len, rng, residual, use_layer_norm)

    def params(self):
        return self.head.params() + [
            self.pos, self.w1, self.b1, self.w2, self.b2,
            self.ln1_g, self.ln1_b, self.ln2_g, self.ln2_b,
        ]


def encode_sequence(block: TransformerBlock, x0: Tensor) -> Tensor:
    """Encode (..., S, D) telemetry embeddings to (..., S, D_v)."""
    x0 = x0 if isinstance(x0, Tensor) else Tensor(x0)
    if x0.shape[-2] != block.seq_len:
        raise ShapeError(
            f"sequence length {x0.shape[-2]} does not match block ({block.seq_len})"
        )
    x = add(x0, block.pos.tensor())
    attended = attend(*project_qkv(block.head, x))
    if block.residual:
        attended = add(attended, x)
    if block.use_layer_norm:
        attended = layer_norm(attended, block.ln1_g.tensor(), block.ln1_b.tensor())
    hidden = relu(linear(attended, block.w1.tensor(), block.b1.tensor()))
    out = linear(hidden, block.w2.tensor(), block.b2.tensor())
    if block.residual:
        out = add(out, attended)
    if block.use_layer_norm:
        out = layer_norm(out, block.ln2_g.tensor(), block.ln2_b.tensor())
    return out


class MlpHead:
    """Affine-relu stack ending in a single output per row."""

    def __init__(self, dims, rng, name: str = "mlp"):
        if len(dims) < 2:
            raise ConfigError(f"need at least input and output dims, got {dims}")
        if dims[-1] != 1:
            raise ConfigError(f"final output dim must be 1, got {dims[-1]}")
        self.dims = list(dims)
        self.layers = []
        for i in range(len(dims) - 1):
            w = Param(glorot_uniform(rng, dims[i], dims[i + 1],
                                     (dims[i], dims[i + 1])), f"{name}.w{i}")
            b = Param(np.zeros(dims[i + 1]), f"{name}.b{i}")
            self.layers.append((w, b))

    def params(self):
        return [p for w, b in self.layers for p in (w, b)]

    @property
    def out_bias(self) -> Param:
        return self.layers[-1][1]


def mlp_forward(head: MlpHead, x: Tensor) -> Tensor:
    """(..., d_in) -> (..., 1); relu between affine layers, none on output."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.shape[-1] != head.dims[0]:
        raise ShapeError(
            f"input width {x.shape[-1]} does not match head ({head.dims[0]})"
        )
    out = x
    for i, (w, b) in enumerate(head.layers):
        out = linear(out, w.tensor(), b.tensor())
        if i < len(head.layers) - 1:
            out = relu(out)
    return out

"""Finite-difference audit of every differentiable operation.

Each audited op is checked at 20 random points (fresh inputs, and fresh
weights where the op has them) against central differences. Elementwise and
scalar-formula ops must hit 1e-6 relative error; compositions containing
matrix products, message passing or the full model must hit 1e-4.
"""

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .attention import TransformerBlock, encode_sequence, qkv_weights
from .errors import ConfigError
from .gnn import NodeFeatureTable, build_layers, gnn_encode
from .gradcheck import grad_check, grad_check_params
from .graph import TemporalGraph, battery, user
from .model import ModelConfig, SebTransformer
from .optim import Param
from .rng import Rng, derive_seed
from .s3im import S3imConfig, s3im
from .tensor import (ATTENTION_TILE, feed_forward, gather_rows, layer_norm, linear, matmul,
                     mul, relu, self_attention, softmax_rows, sum_)
from .training import TrainConfig, bucket_by_t, chunk_loss, objective

TOL_ELEMENTWISE = 1e-6
TOL_COMPOSED = 1e-4
DEFAULT_POINTS = 20


@dataclass
class AuditRow:
    op: str
    max_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_err <= self.tolerance


def _check_matmul(r):
    w = r.normal(size=(4, 3))
    c = r.normal(size=(3, 3))
    left = grad_check(lambda t: sum_(mul(matmul(t, w), c)), r.normal(size=(3, 4)))
    a = r.normal(size=(3, 4))
    c2 = r.normal(size=(3, 3))
    return max(left, grad_check(
        lambda t: sum_(mul(matmul(a, t), c2)), r.normal(size=(4, 3))))


def _check_softmax(r):
    c = r.normal(size=(3, 5))
    return grad_check(lambda t: sum_(mul(softmax_rows(t), c)), r.normal(size=(3, 5)))


def _check_relu(r):
    c = r.normal(size=(4, 4))
    return grad_check(lambda t: sum_(mul(relu(t), c)), r.normal(size=(4, 4)))


def _check_layer_norm(r):
    gain = Param(r.normal(size=(5,)))
    bias = Param(r.normal(size=(5,)))
    x = Param(r.normal(size=(2, 3, 5)))
    c = r.normal(size=(2, 3, 5))
    return grad_check_params(lambda: sum_(mul(layer_norm(x, gain, bias), c)),
                             [x, gain, bias])


def _check_linear(r):
    w = Param(r.normal(size=(4, 3)))
    b = Param(r.normal(size=(3,)))
    x = Param(r.normal(size=(2, 5, 4)))
    c = r.normal(size=(2, 5, 3))
    return grad_check_params(lambda: sum_(mul(linear(x, w, b), c)), [x, w, b])


def _check_gcn_layer(r):
    # Two hops at window 1 for a subset of the rows, as training runs them;
    # the pair (user 0, battery 0) swaps at both timesteps.
    g = TemporalGraph(3, 2, 2)
    g.add_edges([0, 0, 1, 1], [0, 1, 0, 2], [0, 0, 0, 1], [0] * 4)
    layers = build_layers(r, [3, 3, 3])
    h = Param(r.normal(size=(5, 3)))
    rows = np.array([0, 4])
    c = r.normal(size=(2, 3))

    def loss():
        out = gnn_encode(layers, g, lambda idx: gather_rows(h, idx), 1, rows, window=1)
        return sum_(mul(out, c))

    return grad_check_params(loss, [h] + [p for layer in layers for p in layer.params()])


def _check_ffn(r):
    w1, b1, w2, b2 = (Param(r.normal(size=n)) for n in [(4, 5), (5,), (5, 4), (4,)])
    a = Param(r.normal(size=(2, 3, 4)))
    c = r.normal(size=(2, 3, 4))
    return grad_check_params(lambda: sum_(mul(feed_forward(a, w1, b1, w2, b2), c)),
                             [a, w1, b1, w2, b2])


def _check_attention(r):
    # One sequence more than a tile, so the forward and the VJP's rebuilt
    # q, k, v and weights cross a tile edge.
    weights = qkv_weights(r, 4, 3, 4)
    c = r.normal(size=(ATTENTION_TILE + 1, 5, 4))
    x = Param(r.normal(size=(ATTENTION_TILE + 1, 5, 4)))
    return grad_check_params(lambda: sum_(mul(self_attention(x, *weights), c)),
                             [x, *weights])


def _check_block(r):
    block = TransformerBlock(r, 4, 4, 5, seq_len=6)
    c = r.normal(size=(6, 4))
    return grad_check(lambda t: sum_(mul(encode_sequence(block, t), c)),
                      r.normal(size=(6, 4)))


def _check_node_table(r):
    # Battery 1 (row 3) is read twice, so its table row takes two deposits.
    table = NodeFeatureTable(r, 2, 3, 4)
    idx = np.array([3, 0, 3, 4, 1])
    c = r.normal(size=(5, 4))
    return grad_check_params(lambda: sum_(mul(table.rows(idx), c)), table.params())


_S3IM_CFG = S3imConfig(dynamic_range=10.0)


def _check_s3im(r):
    y = r.normal(2.0, 1.5, size=(8,))
    return grad_check(lambda t: s3im(t, y, _S3IM_CFG), r.normal(2.0, 1.5, size=(8,)))


def _check_regularizer(r):
    # The one-node chunk loss that training runs: MSE plus 0.5 (1 - s3im).
    y = r.normal(30.0, 5.0, size=(8,))
    cfg = S3imConfig(dynamic_range=20.0)
    return grad_check(lambda t: chunk_loss(t, y, 0.5, cfg),
                      r.normal(30.0, 5.0, size=(8,)))


# Tiny full-model dims: 6 graph nodes, sequence length 8, embed width 4.
_TINY_MODEL = ModelConfig(
    embed_dim=4, dqk=4, ffn_dim=5, node_dim=3, gnn_layers=1,
    gnn_hidden=3, mlp_hidden=5, seq_len=8, n_features=6, use_graph=True,
)


def _check_model(r):
    g = TemporalGraph(3, 3, 2)
    ts, users, batteries = (0, 0, 0, 1, 1, 1), (0, 1, 2, 0, 1, 2), (0, 1, 2, 1, 0, 2)
    g.add_edges(ts, users, batteries, [0] * 6)
    model = SebTransformer(_TINY_MODEL, 3, 3, r)
    orders = [SimpleNamespace(order_id=i, user=user(u_i), battery=battery(b_i), t=t,
                              telemetry=r.normal(size=(8, 6)),
                              label=abs(r.normal(30.0, 5.0)))
              for i, (u_i, b_i, t) in enumerate(zip(users, batteries, ts))]
    buckets = bucket_by_t(orders)
    labels = [np.array([o.label for o in b]) for b in buckets]
    cfg = TrainConfig(s3im_enabled=True, s3im_L=20.0)

    def loss_fn():
        return objective([(model.forward_batch(b, g), y)
                          for b, y in zip(buckets, labels)], cfg)

    return grad_check_params(loss_fn, model.trainable_params())


_CHECKS = (
    ("matmul", TOL_ELEMENTWISE, _check_matmul),
    ("softmax", TOL_ELEMENTWISE, _check_softmax),
    ("relu", TOL_ELEMENTWISE, _check_relu),
    ("layer-norm", TOL_ELEMENTWISE, _check_layer_norm),
    ("linear", TOL_COMPOSED, _check_linear),
    ("gcn-layer", TOL_COMPOSED, _check_gcn_layer),
    ("ffn", TOL_COMPOSED, _check_ffn),
    ("attention", TOL_COMPOSED, _check_attention),
    ("block", TOL_COMPOSED, _check_block),
    ("node-table", TOL_COMPOSED, _check_node_table),
    ("s3im", TOL_ELEMENTWISE, _check_s3im),
    ("regularizer", TOL_ELEMENTWISE, _check_regularizer),
    ("model", TOL_COMPOSED, _check_model),
)

AUDIT_OPS = tuple(name for name, _, _ in _CHECKS)


def run_gradient_audit(ops=None, tolerance: float = None, seed: int = 42,
                       points: int = DEFAULT_POINTS):
    """Run the checks and return AuditRows (one per op).

    Point ``i`` of an op draws its inputs from substream ``i`` of the op's
    stream; an op's error is the worst over its points.
    """
    if tolerance is not None and not (tolerance > 0 and math.isfinite(tolerance)):
        raise ConfigError(f"tolerance must be a positive finite number, got {tolerance}")
    if points < 1:
        raise ConfigError(f"points must be at least 1, got {points}")
    selected = AUDIT_OPS if ops is None else tuple(ops)
    unknown = [op for op in selected if op not in AUDIT_OPS]
    if unknown:
        raise ConfigError(f"unknown audit ops {unknown}; available: {AUDIT_OPS}")
    rows = []
    for name, tol, fn in _CHECKS:
        if name not in selected:
            continue
        rng = Rng(derive_seed(seed, hash_op_key(name)))
        err = max(0.0, *(fn(rng.spawn(i)) for i in range(points)))
        rows.append(AuditRow(name, float(err), tol if tolerance is None else tolerance))
    return rows


def hash_op_key(name: str) -> int:
    return sum(ord(c) * (i + 1) for i, c in enumerate(name))

"""Finite-difference audit of every differentiable operation.

Each audited op is checked at 20 random points (fresh inputs, and fresh
weights where the op has them) against central differences. Elementwise and
scalar-formula ops must hit 1e-6 relative error; compositions containing
matrix products, message passing or the full model must hit 1e-4.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .attention import (
    AttentionHead,
    MlpHead,
    TransformerBlock,
    attend,
    encode_sequence,
    mlp_forward,
    project_qkv,
)
from .errors import ConfigError
from .gnn import GcnLayer, gcn_layer_forward
from .gradcheck import grad_check, grad_check_params
from .graph import SwapEdge, TemporalGraph, battery, user
from .model import ModelConfig, SebTransformer
from .optim import Param
from .rng import Rng, derive_seed
from .s3im import S3imConfig, s3im, s3im_regularizer
from .tensor import layer_norm, linear, matmul, mul, relu, softmax_rows, sum_
from .training import LabelBatch, Prediction, TrainConfig, objective

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


def _check_matmul(rng, points):
    worst = 0.0
    for i in range(points):
        r = rng.spawn(i)
        w = r.normal(size=(4, 3))
        c = r.normal(size=(3, 3))
        worst = max(worst, grad_check(
            lambda t: sum_(mul(matmul(t, w), c)), r.normal(size=(3, 4))))
        a = r.normal(size=(3, 4))
        c2 = r.normal(size=(3, 3))
        worst = max(worst, grad_check(
            lambda t: sum_(mul(matmul(a, t), c2)), r.normal(size=(4, 3))))
    return worst


def _check_softmax(rng, points):
    worst = 0.0
    for i in range(points):
        r = rng.spawn(i)
        c = r.normal(size=(3, 5))
        worst = max(worst, grad_check(
            lambda t: sum_(mul(softmax_rows(t), c)), r.normal(size=(3, 5))))
    return worst


def _check_relu(rng, points):
    worst = 0.0
    for i in range(points):
        r = rng.spawn(i)
        c = r.normal(size=(4, 4))
        worst = max(worst, grad_check(
            lambda t: sum_(mul(relu(t), c)), r.normal(size=(4, 4))))
    return worst


def _check_layer_norm(rng, points):
    worst = 0.0
    for i in range(points):
        r = rng.spawn(i)
        gain = Param(r.normal(size=(5,)))
        bias = Param(r.normal(size=(5,)))
        x = r.normal(size=(2, 3, 5))
        c = r.normal(size=(2, 3, 5))
        worst = max(worst, grad_check(
            lambda t: sum_(mul(layer_norm(t, gain.tensor(), bias.tensor()), c)), x))
        worst = max(worst, grad_check_params(
            lambda: sum_(mul(layer_norm(x, gain.tensor(), bias.tensor()), c)),
            [gain, bias]))
    return worst


def _check_linear(rng, points):
    worst = 0.0
    for i in range(points):
        r = rng.spawn(i)
        w = Param(r.normal(size=(4, 3)))
        b = Param(r.normal(size=(3,)))
        x = r.normal(size=(2, 5, 4))
        c = r.normal(size=(2, 5, 3))
        worst = max(worst, grad_check(
            lambda t: sum_(mul(linear(t, w.tensor(), b.tensor()), c)), x))
        worst = max(worst, grad_check_params(
            lambda: sum_(mul(linear(x, w.tensor(), b.tensor()), c)), [w, b]))
    return worst


def _tiny_snapshot():
    g = TemporalGraph(2, 2, 1)
    g.add_edge(SwapEdge(user(0), battery(0), 0, 0))
    g.add_edge(SwapEdge(user(1), battery(0), 0, 1))
    return g.snapshots[0]


def _check_gcn_layer(rng, points):
    snap = _tiny_snapshot()
    worst = 0.0
    for i in range(points):
        r = rng.spawn(i)
        layer = GcnLayer.init(r, 3, 3, "relu")
        c = r.normal(size=(4, 3))
        worst = max(worst, grad_check(
            lambda t: sum_(mul(gcn_layer_forward(layer, t, snap), c)),
            r.normal(size=(4, 3))))
    return worst


def _check_qkv(rng, points):
    worst = 0.0
    for i in range(points):
        r = rng.spawn(i)
        head = AttentionHead.init(r, 4, 3, 3)
        cq = r.normal(size=(5, 3))
        ck = r.normal(size=(5, 3))
        cv = r.normal(size=(5, 3))

        def f(t):
            q, k, v = project_qkv(head, t)
            return sum_(mul(q, cq)) + sum_(mul(k, ck)) + sum_(mul(v, cv))

        worst = max(worst, grad_check(f, r.normal(size=(5, 4))))
    return worst


def _check_attention(rng, points):
    worst = 0.0
    for i in range(points):
        r = rng.spawn(i)
        head = AttentionHead.init(r, 4, 4, 4)
        c = r.normal(size=(5, 4))
        worst = max(worst, grad_check(
            lambda t: sum_(mul(attend(*project_qkv(head, t)), c)),
            r.normal(size=(5, 4))))
    return worst


def _check_block(rng, points):
    worst = 0.0
    for i in range(points):
        r = rng.spawn(i)
        block = TransformerBlock.init(r, 4, 4, 4, 5, seq_len=6)
        c = r.normal(size=(6, 4))
        worst = max(worst, grad_check(
            lambda t: sum_(mul(encode_sequence(block, t), c)),
            r.normal(size=(6, 4))))
    return worst


def _check_mlp(rng, points):
    worst = 0.0
    for i in range(points):
        r = rng.spawn(i)
        head = MlpHead([4, 5, 1], r)
        worst = max(worst, grad_check(
            lambda t: sum_(mlp_forward(head, t)), r.normal(size=(3, 4))))
    return worst


_S3IM_CFG = S3imConfig(dynamic_range=10.0)


def _check_s3im(rng, points):
    worst = 0.0
    for i in range(points):
        r = rng.spawn(i)
        y = r.normal(2.0, 1.5, size=(8,))
        worst = max(worst, grad_check(
            lambda t: s3im(t, y, _S3IM_CFG), r.normal(2.0, 1.5, size=(8,))))
    return worst


def _check_regularizer(rng, points):
    worst = 0.0
    for i in range(points):
        r = rng.spawn(i)
        y = r.normal(30.0, 5.0, size=(8,))
        cfg = S3imConfig(dynamic_range=20.0)
        worst = max(worst, grad_check(
            lambda t: s3im_regularizer(t, y, cfg), r.normal(30.0, 5.0, size=(8,))))
    return worst


# Tiny full-model dims: 6 graph nodes, sequence length 8, embed width 4.
_TINY_MODEL = ModelConfig(
    embed_dim=4, dqk=4, dv=4, ffn_dim=5, node_dim=3, gnn_layers=1,
    gnn_hidden=3, mlp_hidden=5, seq_len=8, n_features=6, use_graph=True,
)


def _tiny_model_setup(r):
    g = TemporalGraph(3, 3, 2)
    edges = [(0, 0, 0), (1, 1, 0), (2, 2, 0), (0, 1, 1), (1, 0, 1), (2, 2, 1)]
    for u_i, b_i, t in edges:
        g.add_edge(SwapEdge(user(u_i), battery(b_i), t, 0))
    model = SebTransformer(_TINY_MODEL, 3, 3, r)
    orders = []
    for i, (u_i, b_i, t) in enumerate(edges):
        orders.append(SimpleNamespace(
            order_id=i, user=user(u_i), battery=battery(b_i), t=t,
            telemetry=r.normal(size=(8, 6)),
            label=abs(r.normal(30.0, 5.0)),
        ))
    return model, g, orders


def _check_model(rng, points):
    cfg = TrainConfig(s3im_enabled=True, s3im_L=20.0)
    worst = 0.0
    for i in range(points):
        r = rng.spawn(i)
        model, g, orders = _tiny_model_setup(r)
        buckets = {}
        for o in orders:
            buckets.setdefault(o.t, []).append(o)

        def loss_fn():
            preds = [Prediction(t, model.forward_batch(bucket, g))
                     for t, bucket in sorted(buckets.items())]
            labels = [LabelBatch(t, np.array([o.label for o in bucket]))
                      for t, bucket in sorted(buckets.items())]
            return objective(preds, labels, cfg)

        worst = max(worst, grad_check_params(loss_fn, model.trainable_params()))
    return worst


_CHECKS = (
    ("matmul", TOL_ELEMENTWISE, _check_matmul),
    ("softmax", TOL_ELEMENTWISE, _check_softmax),
    ("relu", TOL_ELEMENTWISE, _check_relu),
    ("layer-norm", TOL_ELEMENTWISE, _check_layer_norm),
    ("linear", TOL_COMPOSED, _check_linear),
    ("gcn-layer", TOL_COMPOSED, _check_gcn_layer),
    ("qkv", TOL_COMPOSED, _check_qkv),
    ("attention", TOL_COMPOSED, _check_attention),
    ("block", TOL_COMPOSED, _check_block),
    ("mlp", TOL_COMPOSED, _check_mlp),
    ("s3im", TOL_ELEMENTWISE, _check_s3im),
    ("regularizer", TOL_ELEMENTWISE, _check_regularizer),
    ("model", TOL_COMPOSED, _check_model),
)

AUDIT_OPS = tuple(name for name, _, _ in _CHECKS)


def run_gradient_audit(ops=None, tolerance: float = None, seed: int = 42,
                       points: int = DEFAULT_POINTS):
    """Run the checks and return AuditRows (one per op)."""
    selected = AUDIT_OPS if ops is None else tuple(ops)
    unknown = [op for op in selected if op not in AUDIT_OPS]
    if unknown:
        raise ConfigError(f"unknown audit ops {unknown}; available: {AUDIT_OPS}")
    rows = []
    for name, tol, fn in _CHECKS:
        if name not in selected:
            continue
        rng = Rng(derive_seed(seed, hash_op_key(name)))
        err = fn(rng, points)
        rows.append(AuditRow(name, float(err), tolerance if tolerance else tol))
    return rows


def hash_op_key(name: str) -> int:
    return sum(ord(c) * (i + 1) for i, c in enumerate(name))

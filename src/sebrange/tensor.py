"""Dense float64 tensors with reverse-mode automatic differentiation.

A :class:`Tensor` is a row-major float64 numpy array plus the :class:`Node`
that records it on the tape: a vector-Jacobian-product closure and where each
operand's gradient goes. ``_record`` is the one place an op's output or a
leaf goes on the tape. An operand is one of three kinds: a Tensor, whose node
takes its gradient; a :class:`~sebrange.optim.Param` or a ``RowTable.rows()``
read, whose ``accumulate`` adds it into the param's ``grad`` (a row read's
into only its rows) as each consuming op's VJP runs; or a constant, a numpy
array or Python float, with no node and no gradient. A seb-s3im or seb
training step records 18 nodes (33 and 29 before each GCN layer and each
chunk's loss became one node). Calling :meth:`Tensor.backward` on a scalar
output walks the tape in reverse topological order. The sweep consumes the
tape: each interior node frees its gradient and the arrays its VJP saved
once that VJP has run, so a graph is differentiated once.

The tape keeps what backward reads, and never a value that only the caller
holds: a node holds no array, and a VJP closure captures only the arrays it
reads (product operands, softmax weights, normalized rows, relu's mask), else
shapes; the encoder block's ``self_attention`` and ``feed_forward`` keep
their input and rebuild q, k, v, the weights and the hidden layer. An output
no VJP reads dies with the forward's last handle. On the 41-order seed-42
chunk a seb-s3im forward holds 1.5 MiB (3.2 with q, k, v and the hidden
layer kept, 4.5 with attention's weights too, 7.0 when the tape held every
output), and its step peaks in the FFN's VJP at 1.09x the forward's 2.5 MiB.

Tensors are treated as immutable once constructed: ops never write into
operand or result arrays, so values can be shared freely across threads
for read-only use.

Conventions fixed repo-wide:
  * features-times-weights row-vector products, ``h @ W``;
  * operands broadcast like numpy, leading axes of ``matmul`` and
    ``attention_core`` as in numpy's ``matmul``, and every gradient comes
    back in its operand's shape, summed by the one rule ``_unbroadcast``;
  * reductions and row-wise ops act on the trailing axes, so every op
    works on batched (leading-axis) inputs unchanged;
  * BLAS gets contiguous operands; a non-last axis is summed in numpy's order.
"""

import numpy as np

from .errors import ContractError, ShapeError
from .optim import Param, RowRead

_LEAVES = (Param, RowRead)


class Node:
    """A tape entry: gradient, VJP, and the sink of each operand's gradient."""

    __slots__ = ("grad", "_vjp", "_sinks")

    def __init__(self, vjp, sinks):
        self.grad = None
        self._vjp = vjp
        self._sinks = sinks

    # The operands' nodes: the tape edges that walkers follow.
    _parents = property(lambda self: tuple([s for s in self._sinks if type(s) is Node]))


class Tensor:
    """A float64 array plus the tape node that produced it. ``Tensor(array)``
    is a leaf, which keeps its gradient in ``.grad`` after a backward."""

    __slots__ = ("array", "node")

    def __new__(cls, array):
        return _record(array, (), None)

    # The node's fields that callers and tape walkers read, through its tensor.
    grad = property(lambda self: self.node.grad)
    _parents = property(lambda self: self.node._parents)
    shape = property(lambda self: self.array.shape)
    size = property(lambda self: self.array.size)

    def item(self) -> float:
        return float(self.array.reshape(-1)[0])

    def backward(self):
        """Reverse-mode sweep from a scalar output; consumes the graph.

        Each VJP sends its gradients to the operands' sinks as it runs, one
        deposit per use of a param; leaves keep theirs in ``.grad``. An
        interior node drops its ``.grad`` and its VJP, with the arrays the
        VJP saved, once the VJP has run; a second sweep through it raises.
        """
        if self.array.size != 1:
            raise ContractError(
                f"backward() requires a scalar output, got shape {self.shape}"
            )
        order = _toposort(self.node)
        for t in order:
            t.grad = None
        self.node.grad = np.ones_like(self.array)
        for t in reversed(order):
            if t._vjp is None:
                continue
            grads = t._vjp(t.grad)
            t.grad, t._vjp = None, _spent_vjp
            for sink, g in zip(t._sinks, grads):
                if type(sink) is Node:
                    sink.grad = g if sink.grad is None else sink.grad + g
                elif sink is not None:
                    sink(g)

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


def _spent_vjp(g):
    raise ContractError("backward() already ran through this tensor; "
                        "its saved arrays are freed")


def _record(out, operands, vjp) -> Tensor:
    """Put ``out`` on the tape, the one place a Tensor and its Node are made.

    ``vjp`` returns one gradient per operand, in order, each in its
    operand's exact shape, for the operand's ``_sink``; a constant's entry is
    dropped unread, so it may be None. A leaf has no operands and no VJP.
    """
    t = object.__new__(Tensor)
    t.array = np.asarray(out, dtype=np.float64)
    t.node = Node(vjp, tuple([_sink(x) for x in operands]))
    return t


def _value(x) -> np.ndarray:
    """An operand's array: a Tensor's, a param's or a row read's, or a constant's."""
    if type(x) is Tensor:
        return x.array
    return x.value if isinstance(x, _LEAVES) else np.asarray(x, dtype=np.float64)


def _sink(x):
    """An operand's sink: a Tensor's node, a param's or a row read's
    ``accumulate``, or None for a constant."""
    if type(x) is Tensor:
        return x.node
    return x.accumulate if isinstance(x, _LEAVES) else None


def _toposort(root: Node):
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._sinks:
            if type(p) is Node and id(p) not in seen:
                stack.append((p, False))
    return order


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape: over the
    extra leading axes, then over the operand's size-1 axes."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise / broadcasting ops
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    x, y = _value(a), _value(b)
    a_shape, b_shape = x.shape, y.shape
    return _record(x + y, (a, b),
                   lambda g: (_unbroadcast(g, a_shape), _unbroadcast(g, b_shape)))


def sub(a, b) -> Tensor:
    x, y = _value(a), _value(b)
    a_shape, b_shape = x.shape, y.shape
    return _record(x - y, (a, b),
                   lambda g: (_unbroadcast(g, a_shape), _unbroadcast(-g, b_shape)))


def mul(a, b) -> Tensor:
    x, y = _value(a), _value(b)
    return _record(x * y, (a, b),
                   lambda g: (_unbroadcast(g * y, x.shape), _unbroadcast(g * x, y.shape)))


def _relu(a: np.ndarray, out=None) -> np.ndarray:
    """max(a, 0) into ``out``, in place if ``out`` is ``a``, passing NaN; adding +0.0
    folds the -0.0 ``np.maximum`` may keep: the bits of ``np.where(a <= 0.0, 0.0, a)``."""
    out = np.maximum(a, 0.0, out=out)
    out += 0.0
    return out


def relu(a) -> Tensor:
    """``_relu`` as a tape node. The VJP keeps only the mask ``out > 0``,
    which is ``a > 0``: an eighth of the output's bytes."""
    out = _relu(_value(a))
    mask = out > 0.0
    return _record(out, (a,), lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Matrix product on the trailing two axes.

    Supports 2-D x 2-D, batched x 2-D, 2-D x batched, and equal-leading-dims
    batched products (numpy matmul semantics). Gradients are reduced over
    any broadcast leading axes.
    """
    x, y = _value(a), _value(b)
    if x.ndim < 2 or y.ndim < 2:
        raise ShapeError(f"matmul requires 2-D operands, got {x.shape} @ {y.shape}")
    if x.shape[-1] != y.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {x.shape} @ {y.shape}")

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(y, -1, -2))
        gb = np.matmul(np.swapaxes(x, -1, -2), g)
        return _unbroadcast(ga, x.shape), _unbroadcast(gb, y.shape)

    return _record(np.matmul(x, y), (a, b), vjp)


def _affine(xa, wa, ba) -> np.ndarray:
    """``xa @ wa + ba``; on batched inputs the bias goes over rows of S * d_out
    values: long loops, the same adds."""
    if xa.ndim < 1 or wa.ndim != 2 or xa.shape[-1] != wa.shape[0]:
        raise ShapeError(f"linear inner dimensions disagree: {xa.shape} @ {wa.shape}")
    if ba.shape != (wa.shape[1],):
        raise ShapeError(f"linear bias {ba.shape} does not match weight {wa.shape}")
    out = np.matmul(xa, wa)
    if out.ndim < 3:
        out += ba
    else:
        s = out.shape[-2]
        rows = out.reshape(-1, s * wa.shape[1])
        rows += ba[None].repeat(s, axis=0).reshape(-1)
    return out


def _affine_grads(xa, g):
    """``_affine``'s weight and bias gradients, leading axes folded into rows."""
    rows = g.reshape(-1, g.shape[-1])
    return xa.reshape(-1, xa.shape[-1]).T @ rows, rows.sum(axis=0)


def linear(x, w, b) -> Tensor:
    """Affine map ``x @ w + b`` on the trailing axis, as one tape node.

    ``x`` is (..., d_in), ``w`` (d_in, d_out) and ``b`` (d_out,). A constant
    ``x`` gets no gradient, so its product is skipped; a Param ``x``, as in
    the gradient audit, gets one.
    """
    xa, wa = _value(x), _value(w)
    x_constant = _sink(x) is None
    return _record(_affine(xa, wa, _value(b)), (x, w, b), lambda g: (
        None if x_constant else np.matmul(g, wa.T), *_affine_grads(xa, g)))


def feed_forward(a, w1, b1, w2, b2) -> Tensor:
    """``linear(relu(linear(a, w1, b1)), w2, b2)`` as one tape node that keeps
    only ``a``: the VJP rebuilds the hidden layer with the forward's float
    operations (selective recomputation; Korthikanti et al., 2022) and frees
    it, then relu's mask, as soon as it can. Every bit equals the three nodes'.
    A constant ``a`` gets no gradient, so its product is skipped.
    """
    aa, w1a, b1a, w2a = _value(a), _value(w1), _value(b1), _value(w2)
    a_constant = _sink(a) is None

    def hidden():
        h = _affine(aa, w1a, b1a)
        return _relu(h, out=h)

    def vjp(g):
        h = hidden()
        gw2, gb2 = _affine_grads(h, g)
        mask = h > 0.0
        del h
        gh = np.matmul(g, w2a.T)
        gh *= mask
        del mask
        return (None if a_constant else np.matmul(gh, w1a.T), *_affine_grads(aa, gh), gw2, gb2)

    return _record(_affine(hidden(), w2a, _value(b2)), (a, w1, b1, w2, b2), vjp)


# ---------------------------------------------------------------------------
# reductions / reshaping
# ---------------------------------------------------------------------------

def sum_(a, axis=None, keepdims=False) -> Tensor:
    x = _value(a)
    a_shape = x.shape

    def vjp(g):
        gk = g if axis is None or keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gk, a_shape).copy(),)

    return _record(x.sum(axis=axis, keepdims=keepdims), (a,), vjp)


def mean(a, axis=None, keepdims=False) -> Tensor:
    """Mean over one axis, or over all of them when ``axis`` is None."""
    x = _value(a)
    a_shape = x.shape
    scale = 1.0 / (x.size if axis is None else a_shape[axis])
    if axis is None or axis % x.ndim == x.ndim - 1:
        out = x.sum(axis=axis, keepdims=keepdims) * scale
    else:
        # numpy sums a non-last axis in sequence, as this copy does in one loop.
        ax = axis % x.ndim
        moved = x.transpose((ax, *range(ax), *range(ax + 1, x.ndim)))
        out = np.ascontiguousarray(moved).sum(axis=0) * scale
        out = np.expand_dims(out, axis) if keepdims else out

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g * scale, a_shape).copy(),)

    return _record(out, (a,), vjp)


def reshape(a, shape) -> Tensor:
    x = _value(a)
    a_shape = x.shape
    return _record(x.reshape(shape), (a,), lambda g: (g.reshape(a_shape),))


def concat(tensors, axis=-1) -> Tensor:
    arrays = [_value(t) for t in tensors]
    out = np.concatenate(arrays, axis=axis)
    lead, parts, end = (slice(None),) * (axis % out.ndim), [], 0
    for x in arrays:
        parts.append(lead + (slice(end, end + x.shape[axis]),))
        end += x.shape[axis]

    return _record(out, tensors, lambda g: tuple(g[part] for part in parts))


# ---------------------------------------------------------------------------
# row-wise ops
# ---------------------------------------------------------------------------

def _softmax(a: np.ndarray) -> np.ndarray:
    """Row-stable softmax of a numpy array over its last axis."""
    e = a - a.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching last-axis rows, keeping that axis as size 1.

    One einsum pass; on short rows it runs several times faster than
    ``(a * b).sum(axis=-1)``, which allocates the product first.
    """
    return np.einsum("...i,...i->...", a, b)[..., None]


def _softmax_vjp(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Softmax Jacobian-vector product from the output rows, written into g."""
    g -= _row_dot(g, out)
    g *= out
    return g


def _pairwise_sum_rows(a: np.ndarray) -> np.ndarray:
    """Sum over axis -2 in numpy's pairwise order along a contiguous row: up to
    128 values go into 8 strided accumulators joined as a tree, the last n % 8
    (all of them, onto zeros, when n < 8) add in sequence, and longer runs
    split near the middle.
    """
    n = a.shape[-2]
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _pairwise_sum_rows(a[..., :half, :]) + _pairwise_sum_rows(a[..., half:, :])
    m = n - n % 8
    r = a[..., :m, :].reshape(a.shape[:-2] + (m // 8, 8, a.shape[-1])).sum(axis=-3)
    while r.shape[-2] > 1:  # ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))
        r = r[..., 0::2, :] + r[..., 1::2, :]
    res = r[..., 0, :]
    for i in range(m, n):
        res += a[..., i, :]
    return res


def softmax_rows(a) -> Tensor:
    """Row-stable softmax over the last axis.

    Each output row is nonnegative and sums to one; the running maximum is
    subtracted before exponentiation so arbitrarily large finite logits do
    not overflow.
    """
    out = _softmax(_value(a))
    return _record(out, (a,), lambda g: (_softmax_vjp(out, g.copy()),))


# Sequences per attention tile, forward and VJP; of 4-8 and 16, 6 ran the VJP fastest.
ATTENTION_TILE = 6


def _attention_weights(q, k, scale, top=None, total=None):
    """Key-major softmax weights (..., S_k, S_q) and their per-query max and
    sum; given the forward's max and sum, the same float operations rebuild
    them. ``k q^T`` is ``q k^T`` transposed bit for bit; its max, broadcasts
    and sums (in numpy's row order, ``_pairwise_sum_rows``) run over axis -2
    in long contiguous loops."""
    st = np.matmul(k, np.ascontiguousarray(np.swapaxes(q, -1, -2)))
    st *= scale
    top = st.max(axis=-2, keepdims=True) if top is None else top
    st -= top
    np.exp(st, out=st)
    total = _pairwise_sum_rows(st)[..., None, :] if total is None else total
    st /= total
    return st, top, total


def _attention_tile_vjp(q, k, v, top, total, g, scale):
    """A tile's q, k and v gradients: the softmax Jacobian in closed form on
    rebuilt weights, with the scale applied to the narrow (S, D) products."""
    weights = np.ascontiguousarray(np.swapaxes(
        _attention_weights(q, k, scale, top, total)[0], -1, -2))
    gs = _softmax_vjp(weights, np.matmul(g, np.ascontiguousarray(np.swapaxes(v, -1, -2))))
    gv = np.matmul(np.swapaxes(weights, -1, -2), g)
    gq = np.matmul(gs, k)
    gq *= scale
    gk = np.matmul(np.swapaxes(gs, -1, -2), q)
    gk *= scale
    return gq, gk, gv


def attention_core(q, k, v) -> Tensor:
    """Scaled dot-product attention ``softmax(q k^T / sqrt(d_qk)) v``.

    One tape node: the forward keeps q, k, v and the softmax's per-query max
    and sum, not its (..., S_k, S_q) weights. The backward rebuilds the
    weights ``ATTENTION_TILE`` sequences at a time with the forward's own
    float operations and applies the softmax Jacobian in closed form, a
    FlashAttention-style fused backward (Dao et al., 2022) tiled by sequence.
    Training runs ``self_attention``; this op stays as ``attention.attend``, the
    bit-for-bit reference of its tests, which acceptance criterion 04 imports.
    """
    qa, ka, va = _value(q), _value(k), _value(v)
    scale = 1.0 / np.sqrt(qa.shape[-1])
    st, top, total = _attention_weights(qa, ka, scale)
    out = np.matmul(np.swapaxes(st, -1, -2), va)

    def vjp(g):
        # Operands broadcast to g's leading axes (or one); a tile slices the first.
        lead = g.shape[:-2] or (1,)
        ins = [np.broadcast_to(a, lead + a.shape[-2:]) for a in (qa, ka, va, top, total, g)]
        grads = [np.empty(lead + a.shape[-2:]) for a in (qa, ka, va)]
        for i in range(0, lead[0], ATTENTION_TILE):
            tile = slice(i, i + ATTENTION_TILE)
            for gr, t in zip(grads, _attention_tile_vjp(*(a[tile] for a in ins), scale)):
                gr[tile] = t
        return tuple(_unbroadcast(gr, a.shape) for gr, a in zip(grads, (qa, ka, va)))

    return _record(out, (q, k, v), vjp)


def self_attention(x, wq, wk, wv) -> Tensor:
    """``attention_core(x wq, x wk, x wv) + x`` over (..., S, D) inputs as one
    tape node that keeps x, the softmax's max and sum and the weights. The
    forward and the VJP run ``ATTENTION_TILE`` sequences at a time and the VJP
    rebuilds each tile's q, k and v, so no (B, S, S) array and no whole-batch
    q, k or v exists (Chen et al., 2016). x's gradient sums the residual's,
    then q's, k's and v's, and each weight's sums per-sequence products, so
    every bit equals three ``matmul`` nodes, ``attention_core`` and ``add``.
    """
    xa, ws = _value(x), [_value(w) for w in (wq, wk, wv)]
    if (xa.ndim < 2 or any(w.ndim != 2 or w.shape[0] != xa.shape[-1] for w in ws)
            or ws[0].shape[1] != ws[1].shape[1] or ws[2].shape[1] != xa.shape[-1]):
        raise ShapeError(f"attention input {xa.shape} does not fit W_Q, W_K, W_V "
                         f"{[w.shape for w in ws]} with a residual")
    xs = xa.reshape((-1,) + xa.shape[-2:])
    n, s = xs.shape[:2]
    scale = 1.0 / np.sqrt(ws[0].shape[1])
    out, top, total = np.empty(xs.shape), np.empty((n, 1, s)), np.empty((n, 1, s))
    for i in range(0, n, ATTENTION_TILE):
        tile = slice(i, i + ATTENTION_TILE)
        q, k, v = (np.matmul(xs[tile], w) for w in ws)
        st, top[tile], total[tile] = _attention_weights(q, k, scale)
        np.add(np.matmul(np.swapaxes(st, -1, -2), v), xs[tile], out=out[tile])

    def vjp(g):
        g = g.reshape(xs.shape)
        gx = g.copy()  # the residual's gradient comes first
        gws = [np.empty((n,) + w.shape) for w in ws]
        for i in range(0, n, ATTENTION_TILE):
            tile = slice(i, i + ATTENTION_TILE)
            qkv = [np.matmul(xs[tile], w) for w in ws]
            for w, gw, gp in zip(ws, gws, _attention_tile_vjp(*qkv, top[tile], total[tile],
                                                              g[tile], scale)):
                np.matmul(np.swapaxes(xs[tile], -1, -2), gp, out=gw[tile])
                gx[tile] += np.matmul(gp, w.T)
        return (gx.reshape(xa.shape), *(_unbroadcast(gw.reshape(xa.shape[:-2] + w.shape), w.shape)
                                         for w, gw in zip(ws, gws)))

    return _record(out.reshape(xa.shape), (x, wq, wk, wv), vjp)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then scale by
    ``gain`` and shift by ``bias``; one tape node with a closed-form backward.
    """
    xa, gain_a, bias_a = _value(x), _value(gain), _value(bias)
    d, bias_shape = xa.shape[-1], bias_a.shape
    scale = 1.0 / d
    # Centered rows, normalized in place once their variance is known; the
    # in-place steps are the same float operations as fresh arrays.
    normed = xa - xa.sum(axis=-1, keepdims=True) * scale
    var = (normed * normed).sum(axis=-1, keepdims=True) * scale
    rstd = 1.0 / np.sqrt(var + eps)
    normed *= rstd
    out = normed * gain_a
    out += bias_a

    def vjp(g):
        g_gain = _unbroadcast(g * normed, gain_a.shape)
        gn = g * gain_a
        gn_mean = _row_dot(gn, np.ones(d)) * scale
        gn_proj = _row_dot(gn, normed) * scale
        gn -= gn_mean
        # The VJP runs once, so it may scale its saved rows in place.
        gn -= np.multiply(normed, gn_proj, out=normed)
        gn *= rstd
        return gn, g_gain, _unbroadcast(g, bias_shape)

    return _record(out, (x, gain, bias), vjp)


def scatter_add_rows(x, take, put, n_out) -> np.ndarray:
    """Accumulate rows ``x[take[e]]`` into ``out[put[e]]`` over all edges e.

    ``np.add.at`` applies the updates in edge order, so each output row
    sums its edges in that order.
    """
    out = np.zeros((n_out, x.shape[1]), dtype=np.float64)
    np.add.at(out, put, x[take])
    return out


def gather_rows(a, indices) -> Tensor:
    """Select rows of a 2-D tensor; backward scatter-adds into the source."""
    x = _value(a)
    if x.ndim != 2:
        raise ShapeError(f"gather_rows requires a 2-D tensor, got {x.shape}")
    idx = np.ascontiguousarray(indices, dtype=np.int64)
    n_rows = x.shape[0]

    def vjp(g):
        take = np.arange(idx.shape[0], dtype=np.int64)
        return (scatter_add_rows(g, take, idx, n_rows),)

    return _record(x[idx], (a,), vjp)

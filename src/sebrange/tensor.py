"""Dense float64 tensors with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a row-major float64 numpy array plus the tape
entry that produced it: its parent tensors and a vector-Jacobian-product
closure. Calling :meth:`Tensor.backward` on a scalar output walks the tape
in reverse topological order and accumulates gradients; leaf tensors built
from a :class:`~sebrange.optim.Param` deposit their gradient into the
param's accumulator.

Tensors are treated as immutable once constructed: ops never write into
operand or result arrays, so values can be shared freely across threads
for read-only use.

Conventions fixed repo-wide:
  * features-times-weights row-vector products, ``h @ W``;
  * elementwise ops broadcast like numpy, gradients are summed back down
    to each operand's shape;
  * reductions and row-wise ops act on the trailing axes, so every op
    works on batched (leading-axis) inputs unchanged.
"""

import numpy as np

from .errors import ContractError, ShapeError


class Tensor:
    """A float64 array plus the tape entry that produced it."""

    __slots__ = ("array", "grad", "_parents", "_vjp", "_param")

    def __init__(self, array, _parents=(), _vjp=None, _param=None):
        self.array = np.asarray(array, dtype=np.float64)
        self.grad = None
        self._parents = _parents
        self._vjp = _vjp
        self._param = _param

    @property
    def shape(self):
        return self.array.shape

    @property
    def ndim(self):
        return self.array.ndim

    @property
    def size(self):
        return self.array.size

    @property
    def data(self):
        """Flat row-major view of the values."""
        return self.array.reshape(-1)

    def item(self) -> float:
        return float(self.array.reshape(-1)[0])

    def backward(self):
        """Reverse-mode sweep from a scalar output.

        Populates ``.grad`` on every tensor in this graph and adds into the
        ``grad`` accumulator of every Param leaf encountered.
        """
        if self.array.size != 1:
            raise ContractError(
                f"backward() requires a scalar output, got shape {self.shape}"
            )
        order = _toposort(self)
        for t in order:
            t.grad = None
        self.grad = np.ones_like(self.array)
        for t in reversed(order):
            if t.grad is None:
                continue
            if t._param is not None:
                t._param.grad += t.grad.reshape(t._param.grad.shape)
            if t._vjp is None:
                continue
            for parent, g in zip(t._parents, t._vjp(t.grad)):
                if g is None:
                    continue
                parent.grad = g if parent.grad is None else parent.grad + g

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, exponent):
        return pow_const(self, exponent)

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


def as_tensor(x) -> Tensor:
    """Wrap a value as a constant Tensor (no-op for existing Tensors)."""
    return x if isinstance(x, Tensor) else Tensor(x)


def _toposort(root: Tensor):
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
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if g.shape == tuple(shape):
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
    a, b = as_tensor(a), as_tensor(b)
    out = a.array + b.array

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return Tensor(out, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.array - b.array

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return Tensor(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.array * b.array

    def vjp(g):
        return (
            _unbroadcast(g * b.array, a.shape),
            _unbroadcast(g * a.array, b.shape),
        )

    return Tensor(out, (a, b), vjp)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.array / b.array

    def vjp(g):
        return (
            _unbroadcast(g / b.array, a.shape),
            _unbroadcast(-g * a.array / (b.array * b.array), b.shape),
        )

    return Tensor(out, (a, b), vjp)


def neg(a) -> Tensor:
    a = as_tensor(a)
    return Tensor(-a.array, (a,), lambda g: (-g,))


def relu(a) -> Tensor:
    """max(a, 0) that passes NaN through instead of zeroing it."""
    a = as_tensor(a)
    return Tensor(np.where(a.array <= 0.0, 0.0, a.array), (a,),
                  lambda g: (g * (a.array > 0.0),))


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out = np.sqrt(a.array)
    return Tensor(out, (a,), lambda g: (g * (0.5 / out),))


def pow_const(a, exponent: float) -> Tensor:
    """Elementwise power with a constant (non-differentiated) exponent."""
    a = as_tensor(a)
    p = float(exponent)
    out = a.array**p
    return Tensor(out, (a,), lambda g: (g * p * a.array ** (p - 1.0),))


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Matrix product on the trailing two axes.

    Supports 2-D x 2-D, batched x 2-D, 2-D x batched, and equal-leading-dims
    batched products (numpy matmul semantics). Gradients are reduced over
    any broadcast leading axes.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul requires 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    out = np.matmul(a.array, b.array)

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(b.array, -1, -2))
        gb = np.matmul(np.swapaxes(a.array, -1, -2), g)
        return _sum_leading(ga, a.ndim), _sum_leading(gb, b.ndim)

    return Tensor(out, (a, b), vjp)


def _sum_leading(g: np.ndarray, ndim: int) -> np.ndarray:
    """Sum a batched product's gradient over the leading axes its operand
    was broadcast along."""
    while g.ndim > ndim:
        g = g.sum(axis=0)
    return g


def linear(x, w, b) -> Tensor:
    """Affine map ``x @ w + b`` on the trailing axis, as one tape node.

    ``x`` is (..., d_in), ``w`` (d_in, d_out) and ``b`` (d_out,). The weight
    and bias gradients fold the leading axes of ``x`` into one 2-D product.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim < 1 or w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear inner dimensions disagree: {x.shape} @ {w.shape}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"linear bias {b.shape} does not match weight {w.shape}")
    out = np.matmul(x.array, w.array) + b.array

    def vjp(g):
        rows = g.reshape(-1, g.shape[-1])
        return (
            np.matmul(g, w.array.T),
            x.array.reshape(-1, x.shape[-1]).T @ rows,
            rows.sum(axis=0),
        )

    return Tensor(out, (x, w, b), vjp)


def transpose_last(a) -> Tensor:
    """Swap the trailing two axes."""
    a = as_tensor(a)
    if a.ndim < 2:
        raise ShapeError(f"transpose_last requires ndim >= 2, got {a.shape}")
    out = np.swapaxes(a.array, -1, -2)
    return Tensor(out, (a,), lambda g: (np.swapaxes(g, -1, -2),))


# ---------------------------------------------------------------------------
# reductions / reshaping
# ---------------------------------------------------------------------------

def sum_(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    out = a.array.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        gk = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gk, a.shape).copy(),)

    return Tensor(out, (a,), vjp)


def mean(a, axis=None, keepdims=False) -> Tensor:
    """Mean over one axis, or over all of them when ``axis`` is None."""
    a = as_tensor(a)
    scale = 1.0 / (a.size if axis is None else a.shape[axis])
    out = a.array.sum(axis=axis, keepdims=keepdims) * scale

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g * scale, a.shape).copy(),)

    return Tensor(out, (a,), vjp)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = a.array.reshape(shape)
    return Tensor(out, (a,), lambda g: (g.reshape(a.shape),))


def concat(tensors, axis=-1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.array for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor(out, tuple(tensors), vjp)


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
    """Softmax Jacobian-vector product from the output rows alone."""
    gs = g - _row_dot(g, out)
    gs *= out
    return gs


def softmax_rows(a) -> Tensor:
    """Row-stable softmax over the last axis.

    Each output row is nonnegative and sums to one; the running maximum is
    subtracted before exponentiation so arbitrarily large finite logits do
    not overflow.
    """
    a = as_tensor(a)
    out = _softmax(a.array)
    return Tensor(out, (a,), lambda g: (_softmax_vjp(out, g),))


def attention_core(q, k, v) -> Tensor:
    """Scaled dot-product attention ``softmax(q k^T / sqrt(d_qk)) v``.

    One tape node: the forward keeps only the row weights, and the backward
    applies the softmax Jacobian in closed form, a FlashAttention-style fused
    backward (Dao et al., 2022) without tiling.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    scale = 1.0 / np.sqrt(q.shape[-1])
    scores = np.matmul(q.array, np.swapaxes(k.array, -1, -2))
    scores *= scale
    weights = _softmax(scores)
    out = np.matmul(weights, v.array)

    def vjp(g):
        # The scale is applied to the narrow (S, D) products, not the (S, S) rows.
        gs = _softmax_vjp(weights, np.matmul(g, np.swapaxes(v.array, -1, -2)))
        return (
            _sum_leading(np.matmul(gs, k.array) * scale, q.ndim),
            _sum_leading(np.matmul(np.swapaxes(gs, -1, -2), q.array) * scale, k.ndim),
            _sum_leading(np.matmul(np.swapaxes(weights, -1, -2), g), v.ndim),
        )

    return Tensor(out, (q, k, v), vjp)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then scale by
    ``gain`` and shift by ``bias``; one tape node with a closed-form backward.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    scale = 1.0 / x.shape[-1]
    # Centered rows, normalized in place once their variance is known; the
    # in-place steps are the same float operations as fresh arrays.
    normed = x.array - x.array.sum(axis=-1, keepdims=True) * scale
    var = (normed * normed).sum(axis=-1, keepdims=True) * scale
    rstd = 1.0 / np.sqrt(var + eps)
    normed *= rstd
    out = normed * gain.array
    out += bias.array

    def vjp(g):
        gn = g * gain.array
        gn_mean = _row_dot(gn, np.ones(x.shape[-1])) * scale
        gn_proj = _row_dot(gn, normed) * scale
        gn -= gn_mean
        gn -= normed * gn_proj
        gn *= rstd
        return (
            gn,
            _unbroadcast(g * normed, gain.shape),
            _unbroadcast(g, bias.shape),
        )

    return Tensor(out, (x, gain, bias), vjp)


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
    a = as_tensor(a)
    if a.ndim != 2:
        raise ShapeError(f"gather_rows requires a 2-D tensor, got {a.shape}")
    idx = np.ascontiguousarray(indices, dtype=np.int64)
    out = a.array[idx]
    n_rows = a.shape[0]

    def vjp(g):
        take = np.arange(idx.shape[0], dtype=np.int64)
        return (scatter_add_rows(g, take, idx, n_rows),)

    return Tensor(out, (a,), vjp)


def neighbor_mean(h, src, dst, n_out, inv_deg) -> Tensor:
    """Mean of source rows accumulated at each destination row.

    ``out[v] = inv_deg[v] * sum over edges e with dst[e] == v of h[src[e]]``.
    ``inv_deg[v]`` must be 1/degree(v), with 0 for empty neighborhoods so
    isolated destinations receive the zero vector.
    """
    h = as_tensor(h)
    src = np.ascontiguousarray(src, dtype=np.int64)
    dst = np.ascontiguousarray(dst, dtype=np.int64)
    scale = inv_deg[:, None]
    out = scatter_add_rows(h.array, src, dst, n_out) * scale
    n_in = h.shape[0]

    def vjp(g):
        return (scatter_add_rows(g * scale, dst, src, n_in),)

    return Tensor(out, (h,), vjp)

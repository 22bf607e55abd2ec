"""Tensors and reverse-mode automatic differentiation on a per-episode tape.

All values are float64 numpy arrays. A DiffGraph records every primitive
application in execution order (define-by-run); ``backward`` replays the
tape in reverse, accumulating adjoints. There is no graph rewriting:
plain topological evaluation, one graph per episode.

Two primitives outside this module fuse a chain of the generic ops below
into one node, because per-node work, not arithmetic, dominated a
training episode: ``encoder.dense`` (one MLP layer: matmul, add and
softplus) and ``head._student_t_logits`` (the episode's Student-t logits,
from the support and query embeddings and the prior's rho). Each repeats
its chain's numpy operations and adjoint accumulations in the chain's
order, so its values and gradients are the chain's bits; the chains stay
in ``tests/test_encoder.py`` and ``tests/test_head.py`` as the oracles.
Every node, fused or not, passes the same finiteness guard.
"""

import numpy as np

__all__ = [
    "GraphError",
    "Tensor",
    "DiffGraph",
    "forward_eval",
    "backward",
    "grad_check",
    "add",
    "sub",
    "mul",
    "matmul",
    "exp",
    "log",
    "sqrt",
    "reciprocal",
    "softplus",
    "lgamma",
    "digamma_value",
    "lgamma_value",
    "softplus_value",
    "sum_reduce",
    "mean_reduce",
    "max_reduce",
    "softmax",
    "softmax_cross_entropy",
    "stack",
    "concat",
    "rows",
    "transpose",
    "reshape",
]


class GraphError(ValueError):
    """Misuse of a DiffGraph: shape mismatch, domain error, stale state."""


class Tensor:
    """A node on a DiffGraph holding a float64 ndarray value."""

    __slots__ = ("graph", "index", "data", "parents", "vjp", "op", "name")

    # keep numpy from absorbing Tensors into object arrays; reflected
    # operators below handle ndarray-Tensor arithmetic instead
    __array_ufunc__ = None

    def __init__(self, graph, index, data, parents, vjp, op, name=None):
        self.graph = graph
        self.index = index
        self.data = data
        self.parents = parents
        self.vjp = vjp
        self.op = op
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(op={self.op!r}, shape={self.shape}{tag})"

    # operator sugar; all dispatch to the module-level primitives
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_lift(other, self.graph), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return mul(self, reciprocal(_lift(other, self.graph)))

    def __rtruediv__(self, other):
        return mul(_lift(other, self.graph), reciprocal(self))

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


class DiffGraph:
    """Append-only tape of primitive applications.

    Single-threaded by contract; distinct graphs may be used concurrently.
    """

    def __init__(self):
        self._nodes = []
        self._inputs = {}
        self._output = None

    def __len__(self):
        return len(self._nodes)

    def _register(self, data, parents, vjp, op, name=None):
        data = np.asarray(data, dtype=np.float64)
        if not np.isfinite(data).all():
            raise GraphError(
                f"non-finite value produced by op {op!r} at node {len(self._nodes)}"
            )
        t = Tensor(self, len(self._nodes), data, parents, vjp, op, name)
        self._nodes.append(t)
        return t

    def input(self, name, data):
        """Bind a named differentiable leaf. Names are bind-once."""
        if name in self._inputs:
            raise GraphError(f"input {name!r} already bound on this graph")
        t = self._register(data, (), None, "input", name)
        self._inputs[name] = t
        return t

    def input_or_get(self, name, data):
        """Bind a named leaf, or return the existing binding for ``name``.

        Rebinding with different data is an error; identity of the backing
        array is accepted as sameness to keep repeated calls cheap.
        """
        t = self._inputs.get(name)
        if t is None:
            return self.input(name, data)
        if t.data is data:
            return t
        arr = np.asarray(data, dtype=np.float64)
        if arr.shape != t.data.shape or not np.array_equal(arr, t.data):
            raise GraphError(f"input {name!r} already bound with different data")
        return t

    def constant(self, data):
        """A leaf that does not receive gradients."""
        return self._register(data, (), None, "const")

    def release(self):
        """Drop every node and input binding; the graph is empty afterwards.

        Each Tensor points back at its graph, so a tape is a reference
        cycle that only the cyclic garbage collector would free. Releasing
        a throwaway graph frees its intermediates as soon as the caller
        drops the tensors it still holds.
        """
        self._nodes = []
        self._inputs = {}
        self._output = None

    def backward(self, output=None, seed=None):
        """Accumulate adjoints from ``output`` back to every named input.

        Returns a dict name -> gradient ndarray (zeros for unused inputs).
        Each call starts from a clean adjoint state; nothing is retained.
        Two gradients may share memory, so copy one before writing to it.
        """
        out = output if output is not None else self._output
        if out is None:
            raise GraphError("backward called before any forward evaluation")
        if out.graph is not self:
            raise GraphError("output tensor belongs to a different graph")
        if seed is None:
            seed = np.ones_like(out.data)
        else:
            seed = np.asarray(seed, dtype=np.float64)
            if seed.shape != out.data.shape:
                raise GraphError(
                    f"seed shape {seed.shape} does not match output shape {out.data.shape}"
                )
        adjoints = [None] * len(self._nodes)
        adjoints[out.index] = seed.copy()
        for node in reversed(self._nodes[: out.index + 1]):
            g = adjoints[node.index]
            if g is None or node.vjp is None:
                continue
            for parent, pg in zip(node.parents, node.vjp(g)):
                if pg is None:
                    continue
                if pg.shape != parent.data.shape:
                    raise GraphError(
                        f"adjoint shape {pg.shape} != value shape "
                        f"{parent.data.shape} at node {node.index} ({node.op})"
                    )
                # never in place: add and reshape hand the same array (or a
                # view of it) to several parents
                a = adjoints[parent.index]
                adjoints[parent.index] = pg if a is None else a + pg
        grads = {}
        for name, t in self._inputs.items():
            g = adjoints[t.index]
            grads[name] = np.zeros_like(t.data) if g is None else g
        return grads


def forward_eval(builder, inputs, graph=None):
    """Bind ``inputs`` on a graph, run ``builder(graph, bound)``, return its Tensor.

    ``builder`` receives the graph and a dict name -> leaf Tensor and must
    return the output Tensor. The graph retains every intermediate for a
    later ``backward``.
    """
    if graph is None:
        graph = DiffGraph()
    bound = {name: graph.input(name, val) for name, val in inputs.items()}
    out = builder(graph, bound)
    if not isinstance(out, Tensor):
        raise GraphError("builder must return a Tensor")
    graph._output = out
    return out


def backward(graph, seed=None):
    """Gradients of the graph's forward_eval output w.r.t. every named input."""
    return graph.backward(seed=seed)


def grad_check(builder, point, step=1e-5):
    """Max relative error between analytic gradient and central differences.

    ``builder`` must be scalar-valued at ``point`` (dict name -> ndarray).
    Relative error per coordinate is |analytic - numeric| / max(1e-8, |numeric|).
    """
    if step <= 0:
        raise GraphError("step must be positive")
    point = {k: np.asarray(v, dtype=np.float64) for k, v in point.items()}
    out = forward_eval(builder, point)
    if out.data.shape != ():
        raise GraphError(f"grad_check requires a scalar output, got shape {out.shape}")
    analytic = out.graph.backward(out)

    def value_at(pt):
        v = forward_eval(builder, pt)
        return float(v.data)

    worst = 0.0
    for name, x in point.items():
        grad = analytic[name]
        flat = x.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            bumped = {k: (v.copy() if k == name else v) for k, v in point.items()}
            b = bumped[name].reshape(-1)
            b[i] = orig + step
            f_plus = value_at(bumped)
            b[i] = orig - step
            f_minus = value_at(bumped)
            numeric = (f_plus - f_minus) / (2.0 * step)
            a = grad.reshape(-1)[i]
            rel = abs(a - numeric) / max(1e-8, abs(numeric))
            if rel > worst:
                worst = rel
    return worst


# ---------------------------------------------------------------------------
# primitive helpers


def _lift(x, graph):
    if isinstance(x, Tensor):
        if x.graph is not graph:
            raise GraphError("operands belong to different graphs")
        return x
    return graph.constant(x)


def _pair(a, b):
    if isinstance(a, Tensor):
        return a, _lift(b, a.graph)
    if isinstance(b, Tensor):
        return _lift(a, b.graph), b
    raise GraphError("at least one operand must be a Tensor")


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape`` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b):
    a, b = _pair(a, b)
    try:
        out = a.data + b.data
    except ValueError:
        raise GraphError(f"add: incompatible shapes {a.shape} and {b.shape}") from None

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return a.graph._register(out, (a, b), vjp, "add")


def sub(a, b):
    a, b = _pair(a, b)
    try:
        out = a.data - b.data
    except ValueError:
        raise GraphError(f"sub: incompatible shapes {a.shape} and {b.shape}") from None

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return a.graph._register(out, (a, b), vjp, "sub")


def mul(a, b):
    a, b = _pair(a, b)
    try:
        out = a.data * b.data
    except ValueError:
        raise GraphError(f"mul: incompatible shapes {a.shape} and {b.shape}") from None

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return a.graph._register(out, (a, b), vjp, "mul")


def matmul(a, b):
    a, b = _pair(a, b)
    ad, bd = a.data, b.data
    if ad.ndim not in (1, 2) or bd.ndim not in (1, 2):
        raise GraphError("matmul supports 1-D and 2-D operands only")
    if ad.shape[-1] != bd.shape[0]:
        raise GraphError(f"matmul: inner dims differ, {ad.shape} @ {bd.shape}")
    out = ad @ bd

    def vjp(g):
        if ad.ndim == 2 and bd.ndim == 2:
            return g @ bd.T, ad.T @ g
        if ad.ndim == 2 and bd.ndim == 1:
            return np.outer(g, bd), ad.T @ g
        if ad.ndim == 1 and bd.ndim == 2:
            return bd @ g, np.outer(ad, g)
        return g * bd, g * ad  # dot product, g is scalar

    return a.graph._register(out, (a, b), vjp, "matmul")


def exp(x):
    if not isinstance(x, Tensor):
        return np.exp(np.asarray(x, dtype=np.float64))
    with np.errstate(over="ignore"):  # overflow becomes the non-finite node error
        out = np.exp(x.data)

    def vjp(g):
        return (g * out,)

    return x.graph._register(out, (x,), vjp, "exp")


def log(x):
    if not isinstance(x, Tensor):
        return np.log(np.asarray(x, dtype=np.float64))
    if np.any(x.data <= 0):
        raise GraphError(f"log: non-positive argument at node {x.index}")
    out = np.log(x.data)

    def vjp(g):
        return (g / x.data,)

    return x.graph._register(out, (x,), vjp, "log")


def sqrt(x):
    """Square root. The gradient at exactly 0 uses the subgradient 0 so that
    zero-variance statistics stay finite; 0 is a non-differentiable locus."""
    if not isinstance(x, Tensor):
        return np.sqrt(np.asarray(x, dtype=np.float64))
    if np.any(x.data < 0):
        raise GraphError(f"sqrt: negative argument at node {x.index}")
    out = np.sqrt(x.data)

    def vjp(g):
        d = np.where(out > 0, 0.5 / np.where(out > 0, out, 1.0), 0.0)
        return (g * d,)

    return x.graph._register(out, (x,), vjp, "sqrt")


def reciprocal(x):
    if not isinstance(x, Tensor):
        return 1.0 / np.asarray(x, dtype=np.float64)
    if np.any(x.data == 0):
        raise GraphError(f"reciprocal: zero argument at node {x.index}")
    out = 1.0 / x.data

    def vjp(g):
        return (-g * out * out,)

    return x.graph._register(out, (x,), vjp, "reciprocal")


def softplus_value(x):
    """Numerically stable log(1 + e^x) on plain arrays."""
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def softplus(x):
    if not isinstance(x, Tensor):
        return softplus_value(x)
    out = softplus_value(x.data)

    def vjp(g):
        # derivative is the logistic sigmoid, computed stably; e is built
        # here, not kept in the closure, so the tape holds no extra array
        e = np.exp(-np.abs(x.data))
        return (g * np.where(x.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e)),)

    return x.graph._register(out, (x,), vjp, "softplus")


# ---------------------------------------------------------------------------
# log-gamma via the Lanczos approximation (g = 7, 9 coefficients)

_LANCZOS_G = 7.0
_LANCZOS = np.array(
    [
        0.99999999999980993,
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ]
)
_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


def _lanczos_pieces(x):
    # valid for x >= 0.5
    z = x - 1.0
    series = np.full_like(z, _LANCZOS[0])
    dseries = np.zeros_like(z)
    for i in range(1, len(_LANCZOS)):
        denom = z + i
        series = series + _LANCZOS[i] / denom
        dseries = dseries - _LANCZOS[i] / (denom * denom)
    t = z + _LANCZOS_G + 0.5
    return z, t, series, dseries


def _lgamma_digamma(x):
    """log Gamma(x) and its derivative for x > 0, from one Lanczos series."""
    x = np.asarray(x, dtype=np.float64)
    small = x < 0.5
    xs = np.where(small, x + 1.0, x)  # recurrence for (0, 0.5)
    z, t, series, dseries = _lanczos_pieces(xs)
    log_t = np.log(t)
    lg = _HALF_LOG_2PI + (z + 0.5) * log_t - t + np.log(series)
    dg = log_t + (z + 0.5) / t - 1.0 + dseries / series
    x_small = np.where(small, x, 1.0)
    return np.where(small, lg - np.log(x_small), lg), np.where(small, dg - 1.0 / x_small, dg)


def lgamma_value(x):
    """log Gamma(x) for x > 0 on plain arrays; |rel err| well below 1e-12."""
    if np.any(np.asarray(x) <= 0):
        raise GraphError("lgamma: argument must be positive")
    return _lgamma_digamma(x)[0]


def digamma_value(x):
    """Derivative of lgamma_value, from the same Lanczos series."""
    if np.any(np.asarray(x) <= 0):
        raise GraphError("digamma: argument must be positive")
    return _lgamma_digamma(x)[1]


def lgamma(x):
    if not isinstance(x, Tensor):
        return lgamma_value(x)
    if np.any(x.data <= 0):
        raise GraphError(f"lgamma: non-positive argument at node {x.index}")
    out = lgamma_value(x.data)

    def vjp(g):
        return (g * digamma_value(x.data),)

    return x.graph._register(out, (x,), vjp, "lgamma")


# ---------------------------------------------------------------------------
# reductions and structure


def sum_reduce(x, axis=None):
    out = x.data.sum(axis=axis)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, x.data.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), x.data.shape).copy(),)

    return x.graph._register(out, (x,), vjp, "sum")


def mean_reduce(x, axis=None):
    out = x.data.mean(axis=axis)
    count = x.data.size if axis is None else x.data.shape[axis]

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g / count, x.data.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis) / count, x.data.shape).copy(),)

    return x.graph._register(out, (x,), vjp, "mean")


def max_reduce(x, axis=None):
    """Max reduction; ties route the gradient to the first maximum."""
    out = x.data.max(axis=axis)

    def vjp(g):
        grad = np.zeros_like(x.data)
        if axis is None:
            idx = np.unravel_index(np.argmax(x.data), x.data.shape)
            grad[idx] = g
        else:
            idx = np.argmax(x.data, axis=axis)
            expanded = np.expand_dims(idx, axis)
            np.put_along_axis(grad, expanded, np.expand_dims(g, axis), axis=axis)
        return (grad,)

    return x.graph._register(out, (x,), vjp, "max")


def softmax(x, axis=-1):
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return x.graph._register(out, (x,), vjp, "softmax")


def softmax_cross_entropy(logits, labels):
    """Mean negative log softmax probability of ``labels``.

    ``logits`` is (N,) with an int label, or (M, N) with an int vector of
    length M. Returns a scalar Tensor; backward produces the usual
    (softmax - onehot) / M pattern.
    """
    x = logits.data
    squeeze = x.ndim == 1
    x2 = x[None, :] if squeeze else x
    if x2.ndim != 2:
        raise GraphError("softmax_cross_entropy expects 1-D or 2-D logits")
    y = np.atleast_1d(np.asarray(labels))
    if y.shape != (x2.shape[0],):
        raise GraphError(
            f"labels shape {y.shape} does not match logits rows {x2.shape[0]}"
        )
    if y.dtype.kind not in "iu" or np.any(y < 0) or np.any(y >= x2.shape[1]):
        raise GraphError("labels must be integer class indices within range")
    m = x2.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(x2 - m).sum(axis=1))
    rows = np.arange(x2.shape[0])
    out = np.mean(lse - x2[rows, y])

    def vjp(g):
        p = np.exp(x2 - lse[:, None])
        p[rows, y] -= 1.0
        p *= float(g) / x2.shape[0]
        return (p[0] if squeeze else p,)

    return logits.graph._register(out, (logits,), vjp, "softmax_cross_entropy")


def stack(tensors, axis=0):
    tensors = list(tensors)
    if not tensors:
        raise GraphError("stack of zero tensors")
    graph = tensors[0].graph
    for t in tensors:
        if t.graph is not graph:
            raise GraphError("stack operands belong to different graphs")
    out = np.stack([t.data for t in tensors], axis=axis)

    def vjp(g):
        return tuple(np.take(g, i, axis=axis) for i in range(len(tensors)))

    return graph._register(out, tuple(tensors), vjp, "stack")


def concat(tensors, axis=0):
    tensors = list(tensors)
    if not tensors:
        raise GraphError("concat of zero tensors")
    graph = tensors[0].graph
    for t in tensors:
        if t.graph is not graph:
            raise GraphError("concat operands belong to different graphs")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return graph._register(out, tuple(tensors), vjp, "concat")


def rows(x, start, stop):
    """Contiguous row slice x[start:stop] along axis 0."""
    if not (0 <= start < stop <= x.data.shape[0]):
        raise GraphError(
            f"rows: slice [{start}:{stop}] out of range for {x.data.shape[0]} rows"
        )
    out = x.data[start:stop]

    def vjp(g):
        grad = np.zeros_like(x.data)
        grad[start:stop] = g
        return (grad,)

    return x.graph._register(out, (x,), vjp, "rows")


def transpose(x):
    if x.data.ndim != 2:
        raise GraphError("transpose expects a 2-D tensor")
    out = x.data.T.copy()

    def vjp(g):
        return (g.T.copy(),)

    return x.graph._register(out, (x,), vjp, "transpose")


def reshape(x, shape):
    out = x.data.reshape(shape)

    def vjp(g):
        return (g.reshape(x.data.shape),)

    return x.graph._register(out, (x,), vjp, "reshape")

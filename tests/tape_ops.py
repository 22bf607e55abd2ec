"""The generic tape ops that only the tests build graphs from.

``bayescl.autodiff`` holds the ops a program runs. The reference
compositions (oracles) in ``test_head.py`` and ``test_encoder.py``, the
gradient checks of ``test_autodiff.py`` and acceptance criterion 5 need
more: the ops below, each a node of the same kind as the package's, plus
``forward_eval``, ``grad_check`` and ``fresh_and_poisoned``. This module
re-exports the package's names, so a test imports one namespace
(``import tape_ops as ad``).

``Tensor`` has no operators at all, because no program path does
arithmetic on tensors outside a fused node: a test writes ``x + y`` as
``ad.add(x, y)``, ``x * y`` as ``ad.mul(x, y)``, ``x @ y`` as
``ad.matmul(x, y)``, ``x - y`` as ``ad.sub(x, y)`` and ``x / y`` as
``ad.mul(x, ad.reciprocal(y))``. Either operand of a binary op may be
a plain array, which enters the graph as a constant.
"""

import numpy as np

from bayescl import autodiff
from bayescl.autodiff import *  # noqa: F403  (re-exported)
from bayescl.autodiff import (
    DiffGraph,
    GraphError,
    Tensor,
    _lgamma_digamma,
    _unbroadcast,
    lgamma_value,
)

__all__ = [
    *autodiff.__all__,
    "forward_eval",
    "grad_check",
    "fresh_and_poisoned",
    "add",
    "mul",
    "matmul",
    "sub",
    "exp",
    "log",
    "sqrt",
    "reciprocal",
    "softplus",
    "softplus_value",
    "lgamma",
    "digamma_value",
    "sum_reduce",
    "mean_reduce",
    "max_reduce",
    "softmax",
    "stack",
    "transpose",
    "reshape",
    "concat",
]


def forward_eval(builder, inputs):
    """Bind ``inputs`` on a graph, run ``builder(graph, bound)``, return its Tensor.

    ``builder`` receives the graph and a dict name -> leaf Tensor and must
    return the output Tensor. The graph retains every intermediate for a
    later ``backward``.
    """
    graph = DiffGraph()
    bound = {name: graph.input(name, val) for name, val in inputs.items()}
    out = builder(graph, bound)
    if not isinstance(out, Tensor):
        raise GraphError("builder must return a Tensor")
    return out


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


def fresh_and_poisoned(run, tape=True):
    """The bytes of the arrays ``run(graph)`` returns on a new graph, on a
    graph whose ``buffers`` dict starts with a NaN array for each array the
    new graph borrowed, and that count of borrowed arrays.

    The second graph must lend only those NaN arrays, so an op that reads a
    borrowed array before it writes it changes the bytes or fails the
    finiteness guard, whatever ``np.empty`` would have returned.
    """
    fresh = DiffGraph(tape)
    expected = [a.tobytes() for a in run(fresh)]
    fresh.release()
    buffers = {s: [np.full(s, np.nan) for _ in free] for s, free in fresh._free.items()}
    poison = sorted(id(a) for free in buffers.values() for a in free)
    graph = DiffGraph(tape, buffers)
    got = [a.tobytes() for a in run(graph)]
    graph.release()
    if sorted(id(a) for free in buffers.values() for a in free) != poison:
        raise AssertionError("the poisoned graph lent an array its dict did not start with")
    return expected, got, len(poison)


def _lift(x, graph):
    return x if isinstance(x, Tensor) else graph.constant(x)


def _pair(a, b):
    if isinstance(a, Tensor):
        return a, _lift(b, a.graph)
    if isinstance(b, Tensor):
        return _lift(a, b.graph), b
    raise GraphError("at least one operand must be a Tensor")


def add(a, b):
    a, b = _pair(a, b)
    try:
        out = a.data + b.data
    except ValueError:
        raise GraphError(f"add: incompatible shapes {a.shape} and {b.shape}") from None

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return a.graph._register(out, (a, b), vjp, "add")


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


def sub(a, b):
    a, b = _pair(a, b)
    try:
        out = a.data - b.data
    except ValueError:
        raise GraphError(f"sub: incompatible shapes {a.shape} and {b.shape}") from None

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return a.graph._register(out, (a, b), vjp, "sub")


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


def sum_reduce(x, axis=None):
    out = x.data.sum(axis=axis)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, x.data.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), x.data.shape).copy(),)

    return x.graph._register(out, (x,), vjp, "sum")


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


def concat(tensors, axis=0):
    tensors = list(tensors)
    if not tensors:
        raise GraphError("concat of zero tensors")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return tensors[0].graph._register(out, tuple(tensors), vjp, "concat")


def mean_reduce(x, axis=None):
    out = x.data.mean(axis=axis)
    count = x.data.size if axis is None else x.data.shape[axis]

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g / count, x.data.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis) / count, x.data.shape).copy(),)

    return x.graph._register(out, (x,), vjp, "mean")


def softmax(x, axis=-1):
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return x.graph._register(out, (x,), vjp, "softmax")


def stack(tensors, axis=0):
    tensors = list(tensors)
    if not tensors:
        raise GraphError("stack of zero tensors")
    out = np.stack([t.data for t in tensors], axis=axis)

    def vjp(g):
        return tuple(np.take(g, i, axis=axis) for i in range(len(tensors)))

    return tensors[0].graph._register(out, tuple(tensors), vjp, "stack")


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

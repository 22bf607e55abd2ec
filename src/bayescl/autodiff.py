"""Tensors and reverse-mode automatic differentiation on a per-episode tape.

All values are float64 numpy arrays. A DiffGraph records every primitive
application in execution order (define-by-run); ``backward`` replays the
tape in reverse, accumulating adjoints. There is no graph rewriting:
plain topological evaluation, one graph per episode.

Leaves are bound once per graph with ``DiffGraph.input``, and a second
bind of a name raises ``GraphError``: a leaf used twice (the encoder
weights in an episode's support and query embeddings) is passed on.
``DiffGraph._register``, which every op adds its node with, is the one
place that rejects a parent that is not a Tensor or lives on another
graph, naming the op; no op checks it again.

``DiffGraph(tape=False)`` runs every op, check and message the same way
and numbers its nodes the same, but keeps no node, parent or vjp, so an
evaluation forward (``encoder.embed_batch_values``) holds one array per
layer and one temporary; ``backward`` on it raises ``GraphError``.
A graph of either kind lends its ops the arrays they write into
(``DiffGraph.borrow``) from one dict and takes them back on ``release``:
the ``buffers`` dict it is given, or a dict of its own. The graphs that
share one dict allocate their arrays once: the episode graphs and
validation forwards of one ``training.train`` call, and an episode's
support and query forwards (``training.episode_head``).

Most of a training episode's tape is two fused primitives outside this
module, because per-node work, not arithmetic, dominated an episode:
``encoder.dense`` (one MLP layer: matmul, add and softplus) and
``head._student_t_logits`` (the episode's Student-t logits, from the
support and query embeddings and the prior's rho). Each repeats a chain
of generic ops' numpy operations and adjoint accumulations in the chain's
order, so its values and gradients are the chain's bits; the chains stay
in ``tests/test_encoder.py`` and ``tests/test_head.py`` as the oracles.
Every node, fused or not, passes the same finiteness guard.

This module holds only what a program runs: the tape, the loss
(``softmax_cross_entropy``) and ``lgamma_value``. The generic ops the
oracles are built from (``add``, ``mul``, ``matmul``, ``reshape`` and the
rest, with ``forward_eval`` and ``grad_check``) live in
``tests/tape_ops.py``, beside the oracles that use them.
"""

import numpy as np

__all__ = [
    "GraphError",
    "Tensor",
    "DiffGraph",
    "lgamma_value",
    "softmax_cross_entropy",
]


class GraphError(ValueError):
    """Misuse of a DiffGraph: shape mismatch, domain error, stale state."""


class Tensor:
    """A node on a DiffGraph holding a float64 ndarray value."""

    __slots__ = ("graph", "index", "data", "parents", "vjp", "op", "name")

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

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(op={self.op!r}, shape={self.shape}{tag})"


class DiffGraph:
    """Append-only tape of primitive applications.

    Leaves are bound once: ``input`` raises ``GraphError`` for a name
    already bound on this graph, and ``_register`` for a parent that is
    not a Tensor or lives on another graph. Single-threaded by contract;
    distinct graphs may be used concurrently. With ``tape`` false the graph
    only counts its nodes: it keeps none, so it has no ``backward``. It
    lends ``borrow``'s arrays from ``buffers`` (shape -> free arrays), a
    dict of its own when none is given; the graphs that share one dict must
    use it from one thread.
    """

    def __init__(self, tape=True, buffers=None):
        self._nodes = [] if tape else None
        self._count = 0
        self._inputs = {}
        self._free = {} if buffers is None else buffers
        self._lent = {}  # id -> array, until ``give_back`` or ``release``

    def __len__(self):
        return self._count

    @property
    def keeps_tape(self):
        return self._nodes is not None

    def borrow(self, shape):
        """An uninitialised float64 array of ``shape`` for an op to write into.

        The graph lends a free array of that shape from its dict, or a new
        one, and takes it back on ``give_back`` or ``release``: a value
        written into it stays good until then. When a graph with nothing on
        loan needs a new array, the dict first drops its free arrays of
        other row counts: a graph that starts on a new batch size does not
        keep the last one's arrays, while every array one graph holds at
        once (an episode's support, query and Student-t arrays) stays in
        the dict.
        """
        free = self._free.get(shape)
        if not free and not self._lent:
            for other in [s for s in self._free if s[0] != shape[0]]:
                del self._free[other]
        buf = free.pop() if free else np.empty(shape)
        self._lent[id(buf)] = buf
        return buf

    def give_back(self, buf):
        """End the loan of ``buf`` (from ``borrow``) before ``release``: no
        value of the graph lives in it any more."""
        self._free.setdefault(buf.shape, []).append(self._lent.pop(id(buf)))

    def _register(self, data, parents, vjp, op, name=None):
        for p in parents:
            if not isinstance(p, Tensor):
                raise GraphError(f"{op}: operand of type {type(p).__name__} is not a Tensor")
            if p.graph is not self:
                raise GraphError(
                    f"{op}: operands on different graphs "
                    f"({p.name or p.op!r} lives on a different graph)"
                )
        data = np.asarray(data, dtype=np.float64)
        if not np.isfinite(data).all():
            raise GraphError(f"non-finite value produced by op {op!r} at node {self._count}")
        if self._nodes is None:
            t = Tensor(self, self._count, data, (), None, op, name)
        else:
            t = Tensor(self, self._count, data, parents, vjp, op, name)
            self._nodes.append(t)
        self._count += 1
        return t

    def input(self, name, data):
        """Bind a named differentiable leaf. Names are bind-once."""
        if name in self._inputs:
            raise GraphError(f"input {name!r} already bound on this graph")
        t = self._register(data, (), None, "input", name)
        self._inputs[name] = t
        return t

    def constant(self, data):
        """A leaf that does not receive gradients."""
        return self._register(data, (), None, "const")

    def release(self):
        """Drop every node and input binding; the graph is empty afterwards.

        Each Tensor points back at its graph, so a tape is a reference
        cycle that only the cyclic garbage collector would free. Releasing
        a throwaway graph frees its intermediates as soon as the caller
        drops the tensors it still holds. Borrowed arrays go back to the
        graph's dict, for the next op or graph that shares it to write over.
        """
        self._nodes = None if self._nodes is None else []
        self._count = 0
        self._inputs = {}
        for buf in list(self._lent.values()):
            self.give_back(buf)

    def backward(self, output, seed=None):
        """Accumulate adjoints from ``output`` back to every named input.

        Returns a dict name -> gradient ndarray (zeros for unused inputs).
        Each call starts from a clean adjoint state; nothing is retained.
        Two gradients may share memory, so copy one before writing to it.
        """
        if self._nodes is None:
            raise GraphError("backward on a graph that keeps no tape")
        if output.graph is not self:
            raise GraphError("output tensor belongs to a different graph")
        if seed is None:
            seed = np.ones_like(output.data)
        else:
            seed = np.asarray(seed, dtype=np.float64)
            if seed.shape != output.data.shape:
                raise GraphError(
                    f"seed shape {seed.shape} does not match output shape {output.data.shape}"
                )
        adjoints = [None] * len(self._nodes)
        adjoints[output.index] = seed.copy()
        for node in reversed(self._nodes[: output.index + 1]):
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
                # never in place: an op may hand the same array (or a view
                # of it) to several parents, as the generic add does
                a = adjoints[parent.index]
                adjoints[parent.index] = pg if a is None else a + pg
        grads = {}
        for name, t in self._inputs.items():
            g = adjoints[t.index]
            grads[name] = np.zeros_like(t.data) if g is None else g
        return grads


# ---------------------------------------------------------------------------
# primitive helpers


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


def _lgamma_digamma(x, digamma=True):
    """log Gamma(x) and its derivative for x > 0, from one Lanczos series;
    log Gamma(x) alone when ``digamma`` is false."""
    x = np.asarray(x, dtype=np.float64)
    small = x < 0.5
    xs = np.where(small, x + 1.0, x)  # recurrence for (0, 0.5)
    z = xs - 1.0
    series = np.full_like(z, _LANCZOS[0])
    dseries = np.zeros_like(z)
    for i in range(1, len(_LANCZOS)):
        denom = z + i
        series = series + _LANCZOS[i] / denom
        if digamma:
            dseries = dseries - _LANCZOS[i] / (denom * denom)
    t = z + _LANCZOS_G + 0.5
    log_t = np.log(t)
    lg = _HALF_LOG_2PI + (z + 0.5) * log_t - t + np.log(series)
    x_small = np.where(small, x, 1.0)
    lg = np.where(small, lg - np.log(x_small), lg)
    if not digamma:
        return lg
    dg = log_t + (z + 0.5) / t - 1.0 + dseries / series
    return lg, np.where(small, dg - 1.0 / x_small, dg)


def lgamma_value(x):
    """log Gamma(x) for x > 0 on plain arrays; |rel err| well below 1e-12."""
    if np.any(np.asarray(x) <= 0):
        raise GraphError("lgamma: argument must be positive")
    return _lgamma_digamma(x, digamma=False)


# ---------------------------------------------------------------------------
# the loss


def softmax_cross_entropy(logits, labels):
    """Mean negative log softmax probability of ``labels``.

    ``logits`` is 2-D only, (M, N), with an int vector of length M. Returns
    a scalar Tensor; backward produces the usual (softmax - onehot) / M.
    """
    x = logits.data
    if x.ndim != 2:
        raise GraphError(f"softmax_cross_entropy expects 2-D logits, got shape {x.shape}")
    y = np.asarray(labels)
    if y.shape != (x.shape[0],):
        raise GraphError(f"labels shape {y.shape} does not match logits rows {x.shape[0]}")
    if y.dtype.kind not in "iu" or np.any(y < 0) or np.any(y >= x.shape[1]):
        raise GraphError("labels must be integer class indices within range")
    m = x.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(x - m).sum(axis=1))
    rows = np.arange(x.shape[0])
    out = np.mean(lse - x[rows, y])

    def vjp(g):
        p = np.exp(x - lse[:, None])
        p[rows, y] -= 1.0
        p *= float(g) / x.shape[0]
        return (p,)

    return logits.graph._register(out, (logits,), vjp, "softmax_cross_entropy")


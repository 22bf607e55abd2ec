"""The differentiable encoder mapping a clip's pooled features to an embedding vector.

One architecture, ``stats-mlp``: per-coefficient mean and standard
deviation over frames (a 2F statistics vector), then an MLP. It is
invariant to frame order, and the pooling does not depend on the
weights, so it runs once per clip, off the tape, in ``pool_frames``.
Plain feature vectors (synthetic tasks, ``vector_input``) pass through
it and feed the MLP directly.

``embed_batch`` reads one input form: the (width,) rows ``pool_frames``
returns and weights already bound on its graph with ``DiffGraph.input``.
A frame matrix among the rows, or a raw weight array, raises
``GraphError``.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import DiffGraph, GraphError, _unbroadcast


@dataclass
class EncoderConfig:
    # not a field: the one architecture, named in checkpoint headers
    architecture = "stats-mlp"

    embed_dim: int = 64
    hidden_dims: tuple = (128, 128)
    feature_dim: int = 13
    vector_input: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.embed_dim < 1:
            raise ValueError("embed_dim must be >= 1")
        self.hidden_dims = tuple(int(h) for h in self.hidden_dims)
        if not self.hidden_dims:
            raise ValueError("hidden_dims must be non-empty")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")

    @property
    def mlp_input_dim(self):
        # frames pool to a mean and a std per coefficient
        return self.feature_dim if self.vector_input else 2 * self.feature_dim

    def to_dict(self):
        return {
            "architecture": self.architecture,
            "embed_dim": self.embed_dim,
            "hidden_dims": list(self.hidden_dims),
            "feature_dim": self.feature_dim,
            "vector_input": self.vector_input,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        architecture = d.pop("architecture", cls.architecture)
        if architecture != cls.architecture:
            raise ValueError(f"unknown architecture {architecture!r}, expected 'stats-mlp'")
        d["hidden_dims"] = tuple(d["hidden_dims"])
        return cls(**d)


def _xavier(rng, fan_in, fan_out):
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))


def init_params(config):
    """Glorot-uniform weights, zero biases; deterministic in the seed.

    Draw order is fixed (MLP layers in depth order) so identical configs
    give bit-identical parameters.
    """
    rng = np.random.default_rng(config.seed)
    params = {}
    dims = [config.mlp_input_dim, *config.hidden_dims, config.embed_dim]
    for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
        params[f"mlp.{i}.w"] = _xavier(rng, a, b)
        params[f"mlp.{i}.b"] = np.zeros(b)
    return params


def dense(x, w, b, activate):
    """One MLP layer, ``softplus(x @ w + b)`` or with ``activate`` false
    ``x @ w + b``, as one tape node.

    The forward and the vjp repeat the numpy operations of the matmul,
    add and softplus nodes this replaces, so values and gradients keep
    their bits (``tests/test_encoder.py`` keeps those nodes as the
    oracle). The pre-activation gets the finiteness check its own node
    had. A ``const`` input gets no adjoint.

    The layer writes into arrays its graph lends (``DiffGraph.borrow``).
    A recording graph keeps ``pre``, ``e`` and the value for the vjp until
    ``release``, and gives back the temporary that ``log1p(e)`` goes to. On a
    tape-free graph no vjp reads ``pre`` or ``e``, so an activated layer
    writes its value over ``pre`` and gives ``e`` back at once: a forward
    holds one array per hidden layer and one temporary. Its output layer
    allocates the value, which outlives the graph. The ufuncs and their
    order are the same on both graphs, so the bits are too.
    """
    xd, wd = x.data, w.data
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[0]:
        raise GraphError(f"dense: cannot apply {wd.shape} weights to {xd.shape} input")
    graph = x.graph
    tape = graph.keeps_tape
    lend = activate or tape  # a tape-free graph's output outlives the graph
    pre = np.matmul(xd, wd, out=graph.borrow((xd.shape[0], wd.shape[1])) if lend else None)
    pre += b.data
    if activate:
        if not np.isfinite(pre).all():
            raise GraphError(f"non-finite value produced by op 'dense' at node {len(graph)}")
        e = np.abs(pre, out=graph.borrow(pre.shape))
        np.negative(e, out=e)
        np.exp(e, out=e)
        # softplus = max(pre, 0) + log1p(e)
        out = np.maximum(pre, 0.0, out=graph.borrow(pre.shape) if tape else pre)
        log1p_e = np.log1p(e, out=graph.borrow(pre.shape) if tape else e)
        out += log1p_e
        graph.give_back(log1p_e)
    else:
        out = pre

    def vjp(g):
        if activate:
            # the logistic sigmoid, stably: e / (1 + e), or 1 / (1 + e) where pre >= 0
            g = g * (np.where(pre >= 0, 1.0, e) / (1.0 + e))
        gx = None if x.op == "const" else g @ wd.T
        return gx, xd.T @ g, _unbroadcast(g, b.data.shape)

    return graph._register(out, (x, w, b), vjp, "dense")


def _mlp(x, bound, n_layers):
    h = x
    for i in range(n_layers):
        h = dense(h, bound[f"mlp.{i}.w"], bound[f"mlp.{i}.b"], activate=i < n_layers - 1)
    return h


def _frame_stats(a):
    """Mean and population std per coefficient over frames; shape (2F,)."""
    m = a.mean(axis=0)
    dev = a - m
    return np.concatenate([m, np.sqrt((dev * dev).mean(axis=0))])


def pool_frames(features):
    """``features`` with each frame matrix pooled to its (2F,) statistics;
    vectors pass through.

    The pooling does not depend on the weights, so a clip pooled once embeds
    to the same bytes however often it is embedded.
    """
    out = []
    for a in features:
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 1:
            if a.ndim != 2 or a.shape[0] < 1:
                raise GraphError(f"expected a (frames, coeffs) matrix, got shape {a.shape}")
            a = _frame_stats(a)
        out.append(a)
    return out


def _n_layers(params):
    n = 0
    while f"mlp.{n}.w" in params:
        n += 1
    return n


def embed_batch(rows, bound, graph):
    """Embed pooled rows; returns a (B, d) Tensor on ``graph``.

    ``rows`` are (in_dim,) arrays, as ``pool_frames`` returns them, and
    ``bound`` maps each ``mlp.{i}.w`` and ``mlp.{i}.b`` to a Tensor bound
    on ``graph``. The rows enter the graph as one (B, in_dim) constant
    for a single MLP pass. A row of any other shape raises ``GraphError``
    naming the shapes and the input dimension; a weight that is not a
    Tensor on ``graph`` fails in the tape (``DiffGraph._register``).
    """
    if not rows:
        raise ValueError("embed_batch of an empty list")
    in_dim = bound["mlp.0.w"].shape[0]
    shapes = {np.shape(r) for r in rows}
    if shapes != {(in_dim,)}:
        raise GraphError(
            f"rows of shape {sorted(shapes)} do not match encoder input dimension {in_dim}"
        )
    return _mlp(graph.constant(np.stack(rows)), bound, _n_layers(bound))


def embed(features, bound, graph):
    """One clip's frame matrix (or one vector), pooled and embedded with
    weights bound on ``graph``: a (1, d) Tensor. No program calls it;
    ``perfbench/tracer.py`` wraps it by name."""
    return embed_batch(pool_frames([features]), bound, graph)


def embed_batch_values(rows, params, buffers=None):
    """Plain-ndarray embeddings of pooled ``rows`` via a throwaway graph
    (evaluation path), which binds the weight arrays ``params`` once.

    The graph keeps no tape (``DiffGraph(tape=False)``), so it runs the
    checks of a training forward and stores nothing, and its hidden layers
    write into arrays lent from ``buffers``: pass one dict to consecutive
    calls and they reuse one set (about three (rows, width) arrays), which
    without one the graph's own dict gives that call alone. The returned
    embeddings are a new array. The graph is released before returning, so
    its bound weights do not wait for the cyclic garbage collector and its
    arrays go back to its dict.
    """
    graph = DiffGraph(tape=False, buffers=buffers)
    try:
        bound = {k: graph.input(k, v) for k, v in params.items()}
        return embed_batch(rows, bound, graph).data
    finally:
        graph.release()

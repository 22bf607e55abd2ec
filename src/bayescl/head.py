"""Per-class Bayesian generative classifier with closed-form updates.

Each class is a diagonal Gaussian in embedding space whose mean and
precision carry a Normal-Gamma posterior. With a flat location prior
(kappa_0 = 0, mu_0 = 0) the posterior after n observations z_1..z_n is,
element-wise,

    kappa_n = n
    mu_n    = mean(z)
    alpha_n = alpha_0 + n/2
    beta_n  = beta_0 + (n/2) * (mean(z^2) - mean(z)^2)

so a class is fully described by the sufficient statistics
(n, sum_z, sum_z2), and updating one class never touches another.
``HeadState`` keeps one row of them per class, and
``HeadState.normal_gamma`` stacks the posteriors of a range of rows,
every class by default. The posterior predictive of a new observation
is an independent Student's t per dimension:

    nu = 2 alpha_n,  location mu_n,  scale^2 = beta_n (kappa_n + 1) / (alpha_n kappa_n)

``class_scores`` is the one place a head's classes are scored: it
derives these parameters for all classes at once, or for a range of rows
(the protocol scores each checkpoint's new classes alone), rejects a
prior whose alpha_n or scale^2 leaves the bounds ``_student_t_logits``
keeps, and walks the classes in blocks that fill a reused buffer of
2**16 elements (one class per block when a class needs more),
byte-identical to evaluating the density one class at a time. Threads
take the blocks in turn, so the bytes do not depend on the thread count;
``class_scores`` states how many run. A ``ScoringPool`` keeps the
threads and their buffers across calls (a protocol episode opens one
for its checkpoints). ``episode_loss`` scores an episode's queries
against all its classes in one tape node, ``_student_t_logits``, so its
tape does not grow with the number of ways. That node keeps the
arithmetic order of the generic-op tape it replaced (``x / y`` as
``x * (1 / y)``), so it gives that tape's bits; it and ``class_scores``
agree to rounding. ``tests/test_head.py`` holds both references.

alpha_0 and beta_0 stay positive through an exponential
reparameterization (rho_alpha, rho_beta) so they can be meta-learned by
unconstrained gradient descent.
"""

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import tensorio
from .autodiff import (
    GraphError,
    _lgamma_digamma,
    _unbroadcast,
    lgamma_value,
    softmax_cross_entropy,
)

__all__ = [
    "PriorParams",
    "HeadState",
    "ScoringPool",
    "class_scores",
    "scoring_threads",
    "predict",
    "episode_loss",
    "save_head",
    "load_head",
]


@dataclass
class PriorParams:
    """Learnable prior; alpha_0 = e^rho_alpha, beta_0 = e^rho_beta.

    kappa_0 and mu_0 are identically zero (flat location prior) and are
    not represented.
    """

    rho_alpha: float = 0.0
    rho_beta: float = 0.0

    @property
    def alpha0(self):
        return math.exp(self.rho_alpha)

    @property
    def beta0(self):
        return math.exp(self.rho_beta)


@dataclass(eq=False)
class HeadState:
    """Prior plus one row of sufficient statistics per class.

    ``posteriors`` maps each class id to its row, in insertion order, so
    row r is the r-th class added. Row r holds the count ``n[r]`` and the
    (d,) sums ``sum_z[r]`` and ``sum_z2[r]``. Every class has at least one
    observation, and all share one width d.
    """

    prior: PriorParams
    posteriors: dict = field(default_factory=dict)
    n: list = field(default_factory=list)
    sum_z: list = field(default_factory=list)
    sum_z2: list = field(default_factory=list)

    @property
    def class_ids(self):
        return list(self.posteriors)

    def add_class(self, class_id, Z):
        """A new class from the rows of ``Z``, a non-empty (n, d) array."""
        Z = np.asarray(Z, dtype=np.float64)
        if Z.ndim != 2 or Z.shape[0] < 1:
            raise ValueError("batch must be a non-empty 2-D array of observations")
        self._append(class_id, Z.shape[0], Z.sum(axis=0), (Z * Z).sum(axis=0))

    def _append(self, class_id, n, sum_z, sum_z2):
        if class_id in self.posteriors:
            raise ValueError(f"class {class_id!r} already present")
        if self.sum_z and sum_z.shape != self.sum_z[0].shape:
            raise ValueError(
                f"class {class_id!r} has width {sum_z.shape[0]}, "
                f"the head's classes have width {self.sum_z[0].shape[0]}"
            )
        self.posteriors[class_id] = len(self.n)
        self.n.append(n)
        self.sum_z.append(sum_z)
        self.sum_z2.append(sum_z2)

    def update_class(self, class_id, z):
        """Fold one observation into a class; no other row changes."""
        if class_id not in self.posteriors:
            raise ValueError(f"class {class_id!r} not present")
        r = self.posteriors[class_id]
        z = np.asarray(z, dtype=np.float64)
        if z.shape != self.sum_z[r].shape:
            raise ValueError(
                f"observation has shape {z.shape}, class {class_id!r} "
                f"expects {self.sum_z[r].shape}"
            )
        self.n[r] += 1
        self.sum_z[r] = self.sum_z[r] + z
        self.sum_z2[r] = self.sum_z2[r] + z * z

    def normal_gamma(self, rows=slice(None)):
        """Posterior of the classes in the slice ``rows`` (default every
        class), stacked by row: (C, 1) kappa_n and alpha_n, (C, d) mu_n and
        beta_n. Each row's values do not depend on which others are stacked."""
        kappa = np.array(self.n[rows], dtype=np.float64)[:, None]
        mu = np.stack(self.sum_z[rows]) / kappa
        gbar = np.stack(self.sum_z2[rows]) / kappa
        # variance clamped at zero to absorb rounding; beta stays >= beta_0
        beta = self.prior.beta0 + 0.5 * kappa * np.maximum(gbar - mu * mu, 0.0)
        return kappa, mu, self.prior.alpha0 + 0.5 * kappa, beta


def _log_t_const(nu, scale2, d):
    """(nu + 1) / 2 and the log normalising constant of the Student's t
    density.

    ``scale2`` is summed over its last axis, so (C,) ``nu`` with (C, d)
    ``scale2`` gives one constant per class.
    """
    half_nu1 = 0.5 * (nu + 1.0)
    const = (
        d * (lgamma_value(half_nu1) - lgamma_value(0.5 * nu))
        - 0.5 * d * np.log(math.pi * nu)
        - 0.5 * np.sum(np.log(scale2), axis=-1)
    )
    return half_nu1, const


_LOGITS_OP = "student_t_logits"


def _student_t_logits(rho, support_z, query_z, n_classes):
    """(M, N) Student-t logits of the queries under N equal-shot classes,
    as one tape node.

    ``support_z`` is (N*K, d) with rows grouped by class, ``query_z`` is
    (M, d) and ``rho`` the bound (rho_alpha, rho_beta) pair; the tape
    rejects any of the four that lives on another graph than
    ``support_z``. The forward repeats, in order, the numpy
    operations of the generic-op composition this node replaces (class
    means and variances, alpha = e^rho_alpha + K/2, nu = 2 alpha,
    scale^2 = (e^rho_beta + K/2 var) (K+1)/K / alpha, then the Student-t
    density), with every ``x / y`` as ``x * (1 / y)``. The vjp is the
    adjoint of each of those steps in reverse, and an adjoint with several
    uses accumulates in the order the composition's tape would. So values
    and gradients are the composition's bits; ``tests/test_head.py`` keeps
    the composition as the oracle. Two checks raise ``GraphError`` naming
    this op before any lgamma step, so no step overflows: alpha above
    1e100 and scale^2 below 1e-200, zero included (alpha >= 1/2, so every
    other log, reciprocal and lgamma argument is positive). The tape's
    finiteness guard covers the logits.

    Its (M, N, d) arrays are lent by the graph (``DiffGraph.borrow``):
    ``dev``, ``dev2`` and ``opq`` stay lent for the vjp until ``release``,
    and the log's temporary and the vjp's two go back as soon as
    they are summed. The vjp writes nothing else, so a second call gives
    the same bytes.
    """
    ra, rb = rho
    S, Q = support_z.data, query_z.data
    (M, d), K = Q.shape, S.shape[0] // n_classes
    if S.shape[1:] != (d,):
        raise GraphError(f"{_LOGITS_OP}: support {S.shape} and query {Q.shape} differ in width")
    n = float(K)
    pc = S.reshape((n_classes, K, d))
    mu = pc.mean(axis=1)
    var = (pc * pc).mean(axis=1) - mu * mu
    with np.errstate(over="ignore"):  # e^rho_beta overflow ends at the non-finite guard
        ea, eb = np.exp(ra.data), np.exp(rb.data)
    alpha = ea + 0.5 * n
    # the digamma series squares alpha, and the adjoint of scale^2 grows as alpha / scale^2:
    # within these bounds the node and its vjp stay finite for deviations below 1e50
    if not alpha <= 1e100:
        raise GraphError(f"{_LOGITS_OP}: alpha above 1e100 at rho_alpha = {float(ra.data)!r}")
    # rounding can leave var a hair negative; beta_0 > 0 keeps beta positive
    bs = (eb + var * (0.5 * n)) * ((n + 1.0) / n)
    r_alpha = 1.0 / alpha
    scale2 = bs * r_alpha
    if not (scale2 >= 1e-200).all():
        raise GraphError(f"{_LOGITS_OP}: scale^2 below 1e-200 at rho_beta = {float(rb.data)!r}")
    nu = alpha * 2.0
    half_nu1 = (nu + 1.0) * 0.5
    lg1, dg1 = _lgamma_digamma(half_nu1)
    lg2, dg2 = _lgamma_digamma(nu * 0.5)
    pi_nu = nu * math.pi
    shared = (lg1 - lg2) * float(d) - np.log(pi_nu) * (0.5 * d)
    const = shared - np.log(scale2).sum(axis=-1) * 0.5
    graph = support_z.graph
    mnd = (M, n_classes, d)
    dev = np.subtract(Q.reshape((M, 1, d)), mu, out=graph.borrow(mnd))
    dev2 = np.multiply(dev, dev, out=graph.borrow(mnd))
    den = nu * scale2
    r_den = 1.0 / den
    opq = np.multiply(dev2, r_den, out=graph.borrow(mnd))
    opq += 1.0
    log_opq = np.log(opq, out=graph.borrow(mnd))
    tail = log_opq.sum(axis=-1)
    graph.give_back(log_opq)
    logits = const - half_nu1 * tail

    def vjp(g):
        # logits = const - half_nu1 * tail
        g_const, g_hs = _unbroadcast(g, const.shape), -g
        g_half_nu1 = _unbroadcast(g_hs * tail, ())
        # tail = sum(log(dev2 * r_den + 1)), r_den = 1 / (nu * scale2)
        g_opq = np.divide(np.expand_dims(g_hs * half_nu1, -1), opq, out=graph.borrow(mnd))
        prod = np.multiply(g_opq, dev2, out=graph.borrow(mnd))
        g_den = -_unbroadcast(prod, den.shape) * r_den * r_den
        graph.give_back(prod)
        g_nu = _unbroadcast(g_den * scale2, ())
        g_scale2 = g_den * nu
        # dev * dev: one adjoint c per factor, so g_dev = c + c; doubling
        # and negation commute with rounding, so g_dev's sums are c's doubled
        c = np.multiply(g_opq, r_den, out=g_opq)
        c *= dev
        g_q = _unbroadcast(c, (M, 1, d))
        g_q = (g_q + g_q).reshape(Q.shape)
        g_mu = _unbroadcast(c, mu.shape)
        g_mu = -(g_mu + g_mu)
        graph.give_back(g_opq)
        # const = shared - sum(log(scale2)) * 0.5,
        # shared = (lg1 - lg2) * d - log(pi_nu) * (0.5 * d)
        g_shared = _unbroadcast(g_const, ())
        g_scale2 = g_scale2 + np.expand_dims(-g_const * 0.5, -1) / scale2
        g_nu = g_nu + (-g_shared * (0.5 * d)) / pi_nu * math.pi
        g_dlg = g_shared * float(d)
        g_nu = g_nu + (-g_dlg * dg2) * 0.5
        g_half_nu1 = g_half_nu1 + g_dlg * dg1
        g_nu = g_nu + g_half_nu1 * 0.5
        # nu = alpha * 2, scale2 = bs * r_alpha, bs = (eb + var * K/2) * (K+1)/K
        g_alpha = g_nu * 2.0 + -_unbroadcast(g_scale2 * bs, ()) * r_alpha * r_alpha
        g_bsum = (g_scale2 * r_alpha) * ((n + 1.0) / n)
        g_ra, g_rb = g_alpha * ea, _unbroadcast(g_bsum, ()) * eb
        # var = mean(pc * pc) - mu * mu, mu = mean(pc)
        g_var = g_bsum * (0.5 * n)
        c = -g_var * mu
        g_mu = (g_mu + c) + c
        c = (np.expand_dims(g_var, 1) / K) * pc
        g_pc = (c + c) + np.expand_dims(g_mu, 1) / K
        return g_pc.reshape(S.shape), g_q, g_ra, g_rb

    return support_z.graph._register(logits, (support_z, query_z, ra, rb), vjp, _LOGITS_OP)


_BLOCK_ELEMENTS = 2**16  # class_scores buffer per thread: 512 KB of float64


def _cpu_threads():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _plan(M, C, d):
    """Block width B and the number of blocks of C classes."""
    B = max(1, min(C, _BLOCK_ELEMENTS // max(1, M * d)))
    return B, -(-C // B)


def scoring_threads(n_queries, n_classes, width):
    """Threads of the pool a ``class_scores`` call without one opens for
    that shape in this process."""
    return min(_plan(n_queries, n_classes, width)[1], _cpu_threads())


def _score_blocks(Z, mean, den, half_nu1, const, scores, B, starts, lock, buf):
    # each thread claims the next block start under ``lock`` and scores it
    # in its own ``buf``; numpy only: threads run this, and it must stay
    # out of ``__all__`` (perfbench's tracer wraps public functions on one
    # span stack)
    M, d = Z.shape
    while True:
        with lock:
            c0 = next(starts, None)
        if c0 is None:
            return
        c1 = min(len(const), c0 + B)
        # a contiguous prefix keeps every block, the last one too, on one code path
        q = buf[: M * (c1 - c0) * d].reshape(M, c1 - c0, d)
        np.subtract(Z[:, None, :], mean[c0:c1], out=q)
        np.multiply(q, q, out=q)
        np.divide(q, den[c0:c1], out=q)
        np.add(1.0, q, out=q)
        np.log(q, out=q)
        s = np.sum(q, axis=-1)
        np.multiply(half_nu1[c0:c1], s, out=s)
        np.subtract(const[c0:c1], s, out=scores[:, c0:c1])


class ScoringPool:
    """The threads and block buffers that consecutive ``class_scores``
    calls share, as a protocol episode's checkpoints do.

    ``threads`` counts the calling thread, which scores blocks too, so the
    pool runs up to ``threads - 1`` threads of its own, and each of the
    ``threads`` keeps its block buffer from call to call. Leaving the
    ``with`` block joins the pool's threads.
    """

    def __init__(self, threads):
        self.threads = threads
        self._executor = ThreadPoolExecutor(threads - 1) if threads > 1 else None
        self._buffers = [np.empty(0)] * threads

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._executor is not None:
            self._executor.shutdown()

    def _run(self, blocks, size, args):
        # _score_blocks on one thread per block, at most ``self.threads``,
        # the caller's first, each with a buffer of at least ``size``;
        # returns once all have ended
        threads = min(blocks, self.threads)
        for i in range(threads):
            if self._buffers[i].size < size:
                self._buffers[i] = np.empty(size)
        rest = [self._executor.submit(_score_blocks, *args, buf)
                for buf in self._buffers[1:threads]]
        try:
            _score_blocks(*args, self._buffers[0])
        finally:
            wait(rest)
        for future in rest:
            future.result()


def class_scores(head, Z, rows=slice(None), pool=None):
    """(M, C) matrix of log predictive densities of the classes in the
    slice ``rows`` (default every class), in insertion order.

    The one scorer of a head's classes. From ``head.normal_gamma(rows)`` it
    takes nu = 2 alpha_n, scale^2 = beta_n (kappa_n + 1) / (alpha_n
    kappa_n) and the constants of ``_log_t_const``, then walks the
    classes B at a time, in place on a reused (M, B, d) buffer,
    B = max(1, min(C, 2**16 // (M d))). It takes no log1p, multiplies by
    no reciprocal and uses no float32, so each column is byte-identical
    to the density evaluated for its class alone, step by step in the
    same order, on ``np.ascontiguousarray(Z, dtype=np.float64)``,
    whatever the layout or dtype of ``Z`` and whichever rows are scored
    with it: a range of rows gives those columns of the full matrix.

    Before any block it checks the tape node's bounds, alpha_n at most
    1e100 and scale^2 at least 1e-200, and raises one ``ValueError``
    naming the prior's rho otherwise: within them, as in the tape node, no
    step overflows for deviations below 1e50, so every score is finite.

    Threads take the blocks in turn, each into its own buffer and the
    block's own columns, so the bytes do not depend on the thread count.
    The call runs on ``pool``'s threads, at most one per block. Without a
    pool it opens a ``ScoringPool`` of ``scoring_threads`` for this call
    alone: one thread per CPU this process may run on and at most one per
    block, so a call of one block starts no thread. A thread that the
    host deschedules holds up one block, not a fixed share. The constants
    (``_log_t_const`` calls ``lgamma_value``) are computed here, so the
    threads run numpy alone.
    """
    if not head.posteriors:
        raise ValueError("head has no classes")
    Z = np.ascontiguousarray(Z, dtype=np.float64)
    d = head.sum_z[0].shape[0]
    if Z.ndim != 2 or Z.shape[1] != d:
        raise ValueError(f"queries have shape {Z.shape}, the head's classes have width {d}")
    M = Z.shape[0]
    kappa, mean, alpha, beta = head.normal_gamma(rows)
    prior = head.prior
    if not (alpha <= 1e100).all():
        raise ValueError(f"class_scores: alpha_n above 1e100 at rho_alpha = {prior.rho_alpha!r}")
    nu = 2.0 * alpha
    scale2 = beta * (kappa + 1.0) / (alpha * kappa)
    if not (scale2 >= 1e-200).all():
        raise ValueError(f"class_scores: scale^2 below 1e-200 at rho_beta = {prior.rho_beta!r}")
    half_nu1, const = _log_t_const(nu[:, 0], scale2, float(d))
    den = nu * scale2
    C = len(const)
    scores = np.empty((M, C))
    B, blocks = _plan(M, C, d)
    args = (Z, mean, den, half_nu1, const, scores, B, iter(range(0, C, B)), threading.Lock())
    with ScoringPool(scoring_threads(M, C, d)) if pool is None else nullcontext(pool) as pool:
        pool._run(blocks, M * B * d, args)
    return scores


def predict(head, z):
    """Most likely class id for a single query vector; argmax takes the
    first maximum, so ties resolve toward the earliest-inserted class."""
    z = np.asarray(z, dtype=np.float64)
    return list(head.posteriors)[int(np.argmax(class_scores(head, z[None, :])))]


def episode_loss(rho, support_z, query_z, n_classes):
    """Mean query cross-entropy of one episode, differentiable end to end.

    ``rho`` is the bound (rho_alpha, rho_beta) pair, ``support_z`` an
    (N*K, d) and ``query_z`` an (N*Q, d) Tensor, each in the layout of
    ``episodes.Episode``: row i belongs to class i // K (support) or i // Q
    (query). The loss joins their graph, where each leaf is bound once;
    Tensors from different graphs raise ``GraphError``, and a row count
    that does not split into ``n_classes`` equal non-empty classes raises
    ``ValueError``. Gradients flow into the embeddings and into rho.
    """
    for name, z in (("support", support_z), ("query", query_z)):
        rows = z.shape[0]
        if n_classes < 1 or rows < n_classes or rows % n_classes:
            raise ValueError(f"{rows} {name} rows do not split into {n_classes} equal classes")
    logits = _student_t_logits(rho, support_z, query_z, n_classes)
    y = np.repeat(np.arange(n_classes), query_z.shape[0] // n_classes)
    return softmax_cross_entropy(logits, y)


def save_head(head, path):
    """Persist prior and per-class statistics in the binary container."""
    config = {
        "kind": "head-snapshot",
        "prior": {"rho_alpha": head.prior.rho_alpha, "rho_beta": head.prior.rho_beta},
        "classes": [{"id": cid, "n": n} for cid, n in zip(head.posteriors, head.n)],
    }
    tensors = {}
    for i, (sum_z, sum_z2) in enumerate(zip(head.sum_z, head.sum_z2)):
        tensors[f"class.{i}.sum_z"] = sum_z
        tensors[f"class.{i}.sum_z2"] = sum_z2
    tensorio.write_tensors(path, config, tensors)


def load_head(path):
    """Read a snapshot written by ``save_head``.

    A header that does not describe a head (a missing or renamed field,
    a value of the wrong type, a prior rho that is not finite, a class
    without its two tensors or without observations) raises
    ``ContainerError`` naming ``path``.
    """
    config, tensors = tensorio.read_tensors(path)
    if not isinstance(config, dict) or config.get("kind") != "head-snapshot":
        raise tensorio.ContainerError(f"{path}: not a head snapshot")
    # the tensor CRCs do not cover the header, so a damaged config gets here
    try:
        prior = config["prior"]
        head = HeadState(PriorParams(float(prior["rho_alpha"]), float(prior["rho_beta"])))
        # JSON reads NaN and Infinity, which read_tensors' finiteness check does not see
        if not (math.isfinite(head.prior.rho_alpha) and math.isfinite(head.prior.rho_beta)):
            raise ValueError(f"prior {head.prior} is not finite")
        for i, rec in enumerate(config["classes"]):
            cid, n = rec["id"], rec["n"]
            sum_z, sum_z2 = tensors[f"class.{i}.sum_z"], tensors[f"class.{i}.sum_z2"]
            if not (type(n) is int and sum_z.ndim == 1 and sum_z2.shape == sum_z.shape):
                raise ValueError(f"class {cid!r} has malformed statistics")
            if n < 1:
                raise ValueError(f"class {cid!r} has no observations")
            head._append(cid, n, sum_z, sum_z2)
    except (KeyError, TypeError, ValueError) as exc:
        raise tensorio.ContainerError(
            f"{path}: malformed head snapshot ({type(exc).__name__}: {exc})"
        ) from exc
    return head

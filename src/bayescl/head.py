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
(n, sum_z, sum_z2), and updating one class never touches another. The
posterior predictive of a new observation is an independent Student's t
per dimension:

    nu = 2 alpha_n,  location mu_n,  scale^2 = beta_n (kappa_n + 1) / (alpha_n kappa_n)

One kernel, ``_log_t``, evaluates this density everywhere: on plain
arrays for ``log_predictive`` and ``class_scores``, and on DiffGraph
tensors for the differentiable paths. It sums over the last axis and
broadcasts the rest, so ``episode_loss`` scores an (M, 1, d) query
batch against (N, d) class parameters in one call and its tape does
not grow with the number of ways.

alpha_0 and beta_0 stay positive through an exponential
reparameterization (rho_alpha, rho_beta) so they can be meta-learned by
unconstrained gradient descent.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensorio
from .autodiff import (
    Tensor,
    exp,
    lgamma,
    log,
    mean_reduce,
    reshape,
    softmax_cross_entropy,
    sum_reduce,
)

__all__ = [
    "PriorParams",
    "ClassPosterior",
    "HeadState",
    "empty_posterior",
    "posterior_update",
    "posterior_from_batch",
    "predictive_params",
    "log_predictive",
    "predict",
    "predict_batch",
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
class ClassPosterior:
    """Sufficient statistics for one class; derived views are recomputed."""

    class_id: object
    n: int
    sum_z: np.ndarray
    sum_z2: np.ndarray

    @property
    def dim(self):
        return self.sum_z.shape[0]

    def mean(self):
        return self.sum_z / self.n

    def kappa(self):
        return float(self.n)

    def alpha(self, prior):
        return prior.alpha0 + 0.5 * self.n

    def beta(self, prior):
        # variance term clamped at zero to absorb rounding; beta stays >= beta_0
        zbar = self.sum_z / self.n
        gbar = self.sum_z2 / self.n
        return prior.beta0 + 0.5 * self.n * np.maximum(gbar - zbar * zbar, 0.0)

    def state_bytes(self):
        """Canonical byte encoding of the stored state, for exact comparisons."""
        return (self.n, self.sum_z.tobytes(), self.sum_z2.tobytes())


def empty_posterior(class_id, dim):
    """A class with no observations yet; not valid for prediction."""
    return ClassPosterior(class_id, 0, np.zeros(dim), np.zeros(dim))


def posterior_update(post, z):
    """Fold one observation into the posterior; returns a new ClassPosterior."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (post.dim,):
        raise ValueError(
            f"observation has shape {z.shape}, class {post.class_id!r} "
            f"expects ({post.dim},)"
        )
    return ClassPosterior(post.class_id, post.n + 1, post.sum_z + z, post.sum_z2 + z * z)


def posterior_from_batch(prior, Z, class_id):
    """Posterior from a batch of observations (rows of ``Z``).

    Equal to folding posterior_update over the rows in any order: the
    state is a pair of symmetric sums.
    """
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[0] < 1:
        raise ValueError("batch must be a non-empty 2-D array of observations")
    return ClassPosterior(class_id, Z.shape[0], Z.sum(axis=0), (Z * Z).sum(axis=0))


@dataclass
class HeadState:
    """Prior plus per-class posteriors in insertion order."""

    prior: PriorParams
    posteriors: dict = field(default_factory=dict)

    @property
    def class_ids(self):
        return list(self.posteriors)

    def add_class(self, class_id, Z):
        if class_id in self.posteriors:
            raise ValueError(f"class {class_id!r} already present")
        self.posteriors[class_id] = posterior_from_batch(self.prior, Z, class_id)

    def update_class(self, class_id, z):
        if class_id not in self.posteriors:
            raise ValueError(f"class {class_id!r} not present")
        self.posteriors[class_id] = posterior_update(self.posteriors[class_id], z)


def predictive_params(post, prior):
    """(nu, location, scale^2) of the per-dimension Student's t predictive."""
    if post.n < 1:
        raise ValueError(f"class {post.class_id!r} has no observations")
    a = post.alpha(prior)
    k = post.kappa()
    nu = 2.0 * a
    scale2 = post.beta(prior) * (k + 1.0) / (a * k)
    return nu, post.mean(), scale2


def _log_t(z, nu, mean, scale2):
    """Student's t log density summed over the last axis.

    Written against the generic ops, so the one formula evaluates on
    plain arrays and on DiffGraph tensors. ``mean`` and ``scale2`` share
    the trailing dimension d of ``z`` and broadcast against it: a (M, d)
    batch under one class gives (M,), and a (M, 1, d) batch under (C, d)
    class parameters gives the (M, C) matrix.
    """
    d = float(z.shape[-1])
    half_nu1 = 0.5 * (nu + 1.0)
    const = (
        d * (lgamma(half_nu1) - lgamma(0.5 * nu))
        - 0.5 * d * log(math.pi * nu)
        - 0.5 * _sum_last(log(scale2))
    )
    dev = z - mean
    q = dev * dev / (nu * scale2)
    return const - half_nu1 * _sum_last(log(1.0 + q))


def _sum_last(x):
    if isinstance(x, Tensor):
        return sum_reduce(x, axis=-1)
    return np.sum(x, axis=-1)


def _rho_tensors(prior, graph):
    """Bind (or reuse) the prior's unconstrained parameters on a graph.

    ``prior`` may be a PriorParams or an already-bound (rho_alpha,
    rho_beta) Tensor pair, e.g. inside grad_check builders.
    """
    if isinstance(prior, PriorParams):
        ra = graph.input_or_get("rho_alpha", np.asarray(prior.rho_alpha, dtype=np.float64))
        rb = graph.input_or_get("rho_beta", np.asarray(prior.rho_beta, dtype=np.float64))
        return ra, rb
    ra, rb = prior
    return ra, rb


def _graph_predictive(prior, graph, n, var):
    """(nu, scale^2) Tensors for classes of ``n`` shots with variance ``var``."""
    ra, rb = _rho_tensors(prior, graph)
    alpha = exp(ra) + 0.5 * n
    # rounding can leave var a hair negative; beta_0 > 0 keeps beta positive
    scale2 = (exp(rb) + 0.5 * n * var) * ((n + 1.0) / n) / alpha
    return 2.0 * alpha, scale2


def log_predictive(post, prior, z, graph=None):
    """Log posterior-predictive density of ``z`` under one class.

    With ``graph`` given the result is a scalar Tensor, differentiable
    w.r.t. ``z`` (if ``z`` is a Tensor) and the prior's rho parameters.
    """
    if post.n < 1:
        raise ValueError(f"class {post.class_id!r} has no observations")
    d = post.dim
    if graph is None:
        zz = np.asarray(z, dtype=np.float64)
        if zz.shape != (d,):
            raise ValueError(f"query has shape {zz.shape}, expected ({d},)")
        nu, m, s2 = predictive_params(post, prior)
        return float(_log_t(zz, nu, m, s2))
    n = float(post.n)
    zbar = post.sum_z / n
    var = np.maximum(post.sum_z2 / n - zbar * zbar, 0.0)
    nu, scale2 = _graph_predictive(prior, graph, n, var)
    zt = z if isinstance(z, Tensor) else graph.constant(np.asarray(z, dtype=np.float64))
    return _log_t(zt, nu, graph.constant(zbar), scale2)


def class_scores(head, Z):
    """(M, C) matrix of log predictive densities, classes in insertion order."""
    if not head.posteriors:
        raise ValueError("head has no classes")
    Z = np.asarray(Z, dtype=np.float64)
    scores = np.empty((Z.shape[0], len(head.posteriors)))
    # per class: one (M, C, d) broadcast needs 102 MB at protocol scale and was slower
    for j, post in enumerate(head.posteriors.values()):
        nu, m, s2 = predictive_params(post, head.prior)
        scores[:, j] = _log_t(Z, nu, m, s2)
    return scores


def predict_batch(head, Z):
    """Predicted class ids for the rows of ``Z``.

    argmax takes the first maximum, so ties resolve toward the
    earliest-inserted class.
    """
    ids = list(head.posteriors)
    winners = np.argmax(class_scores(head, Z), axis=1)
    return [ids[w] for w in winners]


def predict(head, z):
    """Most likely class id for a single query vector."""
    z = np.asarray(z, dtype=np.float64)
    return predict_batch(head, z[None, :])[0]


def episode_loss(prior, support_z, support_labels, query_z, query_labels, graph):
    """Mean query cross-entropy of one episode, differentiable end to end.

    ``support_z`` is an (N*K, d) Tensor whose rows are grouped by class
    (contiguous blocks, K rows each); ``query_z`` is (M, d). Labels may
    be any hashable ids. Gradients flow into the embeddings and into
    rho_alpha / rho_beta.
    """
    if not isinstance(support_z, Tensor):
        support_z = graph.constant(np.asarray(support_z, dtype=np.float64))
    if not isinstance(query_z, Tensor):
        query_z = graph.constant(np.asarray(query_z, dtype=np.float64))
    support_labels = list(support_labels)
    query_labels = list(query_labels)
    if len(support_labels) != support_z.shape[0]:
        raise ValueError("support labels do not match support rows")
    if len(query_labels) != query_z.shape[0]:
        raise ValueError("query labels do not match query rows")

    blocks = []  # [class_id, start, stop]
    for i, lab in enumerate(support_labels):
        if blocks and blocks[-1][0] == lab:
            blocks[-1][2] = i + 1
        else:
            blocks.append([lab, i, i + 1])
    class_order = [b[0] for b in blocks]
    if len(set(class_order)) != len(class_order):
        raise ValueError("support rows must be grouped into contiguous class blocks")
    shot_counts = {cid: stop - start for cid, start, stop in blocks}
    if len(set(shot_counts.values())) != 1:
        raise ValueError(f"every class needs the same shot count, got {shot_counts}")
    col = {cid: j for j, cid in enumerate(class_order)}
    missing = sorted({repr(lab) for lab in query_labels if lab not in col})
    if missing:
        raise ValueError(f"query labels {missing} absent from support")

    d = support_z.shape[1]
    shots = support_z.shape[0] // len(blocks)
    per_class = reshape(support_z, (len(blocks), shots, d))  # (N, K, d)
    mu = mean_reduce(per_class, axis=1)
    var = mean_reduce(per_class * per_class, axis=1) - mu * mu
    nu, scale2 = _graph_predictive(prior, graph, float(shots), var)
    logits = _log_t(reshape(query_z, (query_z.shape[0], 1, d)), nu, mu, scale2)
    y = np.array([col[lab] for lab in query_labels], dtype=np.int64)
    return softmax_cross_entropy(logits, y)


def save_head(head, path):
    """Persist prior and per-class statistics in the binary container."""
    config = {
        "kind": "head-snapshot",
        "prior": {"rho_alpha": head.prior.rho_alpha, "rho_beta": head.prior.rho_beta},
        "classes": [{"id": cid, "n": post.n} for cid, post in head.posteriors.items()],
    }
    tensors = {}
    for i, post in enumerate(head.posteriors.values()):
        tensors[f"class.{i}.sum_z"] = post.sum_z
        tensors[f"class.{i}.sum_z2"] = post.sum_z2
    tensorio.write_tensors(path, config, tensors)


def load_head(path):
    config, tensors = tensorio.read_tensors(path)
    if config.get("kind") != "head-snapshot":
        raise tensorio.ContainerError(f"{path}: not a head snapshot")
    prior = PriorParams(**config["prior"])
    head = HeadState(prior)
    for i, rec in enumerate(config["classes"]):
        head.posteriors[rec["id"]] = ClassPosterior(
            rec["id"], rec["n"], tensors[f"class.{i}.sum_z"], tensors[f"class.{i}.sum_z2"]
        )
    return head

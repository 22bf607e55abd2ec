"""Episodic meta-training: batches of episodes, Adam on all meta-parameters.

Meta-parameters are the encoder weights plus the unconstrained prior
parameters rho_alpha and rho_beta. Each step samples a batch of
episodes, averages the episode losses' gradients (deterministic ordered
summation), and applies one Adam update. Validation periodically scores
a fixed set of held-out-class episodes; ``save_run`` checkpoints the
final and best parameters. ``episode_head`` is the one place a head is
built from an episode: validation and ``protocol`` both score through it.
"""

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import tensorio
from .autodiff import DiffGraph
from .encoder import EncoderConfig, embed_batch, embed_batch_values, init_params, pool_frames
from .episodes import EpisodeSpec, SampleRegistry, resolve_sample, sample_episode
from .head import HeadState, PriorParams, class_scores, episode_loss

__all__ = [
    "TrainConfig",
    "OptState",
    "TrainHistory",
    "adam_step",
    "train",
    "encoder_params",
    "episode_head",
    "episode_accuracy",
    "save_run",
    "save_checkpoint",
    "load_checkpoint",
]


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingError(RuntimeError):
    """Training aborted (divergence or invalid configuration)."""


@dataclass
class TrainConfig:
    steps: int = 2000
    batch_episodes: int = 4
    spec: EpisodeSpec = field(default_factory=EpisodeSpec)
    learning_rate: float = 1e-3
    seed: int = 0
    validation_every: int = 100
    validation_episodes: int = 20

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.spec.ways < 2:
            raise ValueError("an episode needs at least 2 ways")
        if self.batch_episodes < 1:
            raise ValueError("batch_episodes must be >= 1")
        if self.validation_every < 1:
            raise ValueError("validation_every must be >= 1")
        if self.validation_episodes < 0:
            raise ValueError("validation_episodes must be >= 0")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")


@dataclass
class OptState:
    m: dict
    v: dict
    step: int = 0

    @classmethod
    def for_params(cls, params):
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


@dataclass
class TrainHistory:
    losses: list = field(default_factory=list)
    val_steps: list = field(default_factory=list)
    val_accuracy: list = field(default_factory=list)
    best_step: int = -1
    best_accuracy: float = -1.0
    best_params: dict | None = None  # parameters at best_step

    def write_csv(self, path):
        val = dict(zip(self.val_steps, self.val_accuracy))
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["step", "loss", "val_accuracy"])
            for i, loss in enumerate(self.losses, start=1):
                a = val.get(i)
                w.writerow([i, repr(float(loss)), "" if a is None else repr(float(a))])


def adam_step(params, grads, state, cfg):
    """One bias-corrected Adam update; returns new (params, state)."""
    t = state.step + 1
    new_params, new_m, new_v = {}, {}, {}
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for parameter {name!r}")
        m = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        new_params[name] = p - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        new_m[name], new_v[name] = m, v
    return new_params, OptState(new_m, new_v, t)


def encoder_params(params):
    """The encoder's weights: ``params`` without the prior's rho entries."""
    return {k: v for k, v in params.items() if k not in ("rho_alpha", "rho_beta")}


def encoder_inputs(registry):
    """A copy of ``registry`` holding what the encoder reads: each file
    loaded once and each clip's frames pooled once."""
    return SampleRegistry(
        {c: pool_frames([resolve_sample(r) for r in refs]) for c, refs in registry.classes.items()}
    )


def _batch_gradients(meta, episodes_batch, buffers=None):
    """Mean loss and mean gradients over a batch, one graph per episode.

    Each episode's graph binds every entry of ``meta`` once, in ``meta``
    order, and both embeddings and the loss take those Tensors. The
    episodes' references must be arrays, as ``encoder_inputs`` leaves them.
    The graphs lend their layer and Student-t arrays from ``buffers``
    (``DiffGraph.borrow``), one episode after another; ``train`` passes one
    dict for all its steps.
    """
    total_loss = 0.0
    grad_sum = None
    for episode in episodes_batch:
        graph = DiffGraph(buffers=buffers)
        try:
            bound = {k: graph.input(k, v) for k, v in meta.items()}
            enc = encoder_params(bound)
            sz = embed_batch(episode.support, enc, graph)
            qz = embed_batch(episode.query, enc, graph)
            rho = bound["rho_alpha"], bound["rho_beta"]
            loss = episode_loss(rho, sz, qz, len(episode.class_ids))
            grads = graph.backward(loss)
        finally:
            graph.release()  # free the tape now, not at the next collection
        total_loss += float(loss.data)
        if grad_sum is None:
            grad_sum = {k: g.copy() for k, g in grads.items()}
        else:
            for k in grad_sum:
                grad_sum[k] += grads[k]
    n = len(episodes_batch)
    return total_loss / n, {k: g / n for k, g in grad_sum.items()}


def episode_head(params, prior, episode, times=None, buffers=None):
    """The head an episode's support shots build, and its embedded queries.

    Returns ``(head, query_z)``: the head holds ``episode.class_ids`` in
    order, each class added from its K class-major support rows, and
    ``query_z`` is (N*Q, d) in the episode's query order. The episode's
    references must be arrays, as ``encoder_inputs`` leaves them. The two
    forwards write their hidden layers into arrays lent from ``buffers``
    (``embed_batch_values``), a dict that consecutive episodes share, or
    one of this call's own. With a dict ``times``, sets
    ``times["embed_s"]`` to the seconds of the forwards and
    ``times["add_class_s"]`` to those of building the head.
    """
    t0 = time.perf_counter()
    enc = encoder_params(params)
    buffers = {} if buffers is None else buffers
    support_z = embed_batch_values(episode.support, enc, buffers)
    query_z = embed_batch_values(episode.query, enc, buffers)
    t1 = time.perf_counter()
    head = HeadState(prior)
    k = len(episode.support) // len(episode.class_ids)
    for w, cid in enumerate(episode.class_ids):
        head.add_class(cid, support_z[w * k : (w + 1) * k])
    if times is not None:
        times["embed_s"], times["add_class_s"] = t1 - t0, time.perf_counter() - t1
    return head, query_z


def episode_accuracy(params, prior, episode, buffers=None):
    """Query accuracy of one episode under frozen parameters; ``buffers``
    as in ``episode_head``."""
    head, query_z = episode_head(params, prior, episode, None, buffers)
    truth = np.repeat(np.arange(len(episode.class_ids)), len(query_z) // len(episode.class_ids))
    return float(np.mean(np.argmax(class_scores(head, query_z), axis=1) == truth))


def train(cfg, registry, encoder_cfg, val_registry=None):
    """Meta-train encoder and prior; returns (params, prior, history).

    ``params`` maps names to arrays and includes the 0-d ``rho_alpha``
    and ``rho_beta`` entries; ``history.best_params`` holds the
    parameters of the best validation point. Nothing is written to disk
    (see ``save_run``). Validation episodes are drawn once from
    ``val_registry`` (held-out classes) and reused at every validation
    point so the accuracy curve is comparable across steps. Both
    registries go through ``encoder_inputs`` up front, so every file is
    read and every clip pooled once, and a malformed file fails before
    the first step. Every episode graph and validation forward of the
    call lends its arrays from one dict (``DiffGraph.borrow``), which
    holds each array shape an episode uses and is dropped on return.
    """
    registry.require(cfg.spec.ways, cfg.spec.samples_per_class)
    meta = dict(init_params(encoder_cfg))
    meta["rho_alpha"] = np.asarray(0.0)
    meta["rho_beta"] = np.asarray(0.0)
    registry = encoder_inputs(registry)
    if val_registry is not None:
        val_registry = encoder_inputs(val_registry)
    seeds = np.random.SeedSequence(cfg.seed).spawn(3)
    episode_rng = np.random.default_rng(seeds[0])
    val_rng = np.random.default_rng(seeds[1])

    state = OptState.for_params(meta)
    history = TrainHistory()
    buffers = {}

    val_episodes = []
    if val_registry is not None and cfg.validation_episodes > 0:
        for _ in range(cfg.validation_episodes):
            val_episodes.append(sample_episode(val_registry, cfg.spec, val_rng))

    for step in range(1, cfg.steps + 1):
        batch = [
            sample_episode(registry, cfg.spec, episode_rng)
            for _ in range(cfg.batch_episodes)
        ]
        try:
            loss, grads = _batch_gradients(meta, batch, buffers)
        except Exception as exc:
            raise TrainingError(f"step {step}: {exc}") from exc
        if not np.isfinite(loss):
            raise TrainingError(f"step {step}: loss is not finite")
        meta, state = adam_step(meta, grads, state, cfg)
        history.losses.append(loss)

        if val_episodes and (step % cfg.validation_every == 0 or step == cfg.steps):
            prior = PriorParams(float(meta["rho_alpha"]), float(meta["rho_beta"]))
            acc = float(
                np.mean([episode_accuracy(meta, prior, ep, buffers) for ep in val_episodes])
            )
            history.val_steps.append(step)
            history.val_accuracy.append(acc)
            if acc > history.best_accuracy:
                history.best_accuracy = acc
                history.best_step = step
                history.best_params = {k: v.copy() for k, v in meta.items()}

    prior = PriorParams(float(meta["rho_alpha"]), float(meta["rho_beta"]))
    return meta, prior, history


def save_run(path, params, encoder_cfg, history, extra_config=None):
    """Write a training run's files.

    The final parameters go to ``path``, the best validation parameters
    to ``<path>.best`` when validation ran, both with ``extra_config`` in
    their header, and the per-step log to ``<path>.log.csv``.
    """
    save_checkpoint(params, encoder_cfg, path, extra_config)
    if history.best_params is not None:
        save_checkpoint(history.best_params, encoder_cfg, f"{path}.best", extra_config)
    history.write_csv(f"{path}.log.csv")


def expected_param_shapes(encoder_cfg):
    shapes = {k: v.shape for k, v in init_params(encoder_cfg).items()}
    shapes["rho_alpha"] = ()
    shapes["rho_beta"] = ()
    return shapes


def save_checkpoint(params, encoder_cfg, path, extra_config=None):
    """Write meta-parameters with the encoder config; bit-exact round trip."""
    config = {"kind": "meta-checkpoint", "encoder": encoder_cfg.to_dict()}
    if extra_config:
        config.update(extra_config)
    tensorio.write_tensors(path, config, params)


def load_checkpoint(path):
    """Read a checkpoint; returns (params, prior, encoder_cfg, config).

    Tensor shapes are validated against the stored encoder config, so a
    checkpoint whose architecture disagrees with its payload is rejected.
    A missing or malformed encoder config raises ``ContainerError``.
    """
    config, tensors = tensorio.read_tensors(path)
    if not isinstance(config, dict) or config.get("kind") != "meta-checkpoint":
        raise tensorio.ContainerError(f"{path}: not a meta-training checkpoint")
    # the tensor CRCs do not cover the header, so a damaged config gets here
    try:
        encoder_cfg = EncoderConfig.from_dict(config["encoder"])
        expected = expected_param_shapes(encoder_cfg)
    except (KeyError, TypeError, ValueError) as exc:
        raise tensorio.ContainerError(
            f"{path}: malformed encoder config ({type(exc).__name__}: {exc})"
        ) from exc
    if set(expected) != set(tensors):
        raise tensorio.ContainerError(
            f"{path}: tensor names do not match encoder architecture "
            f"(missing {sorted(set(expected) - set(tensors))}, "
            f"unexpected {sorted(set(tensors) - set(expected))})"
        )
    for name, shape in expected.items():
        if tensors[name].shape != shape:
            raise tensorio.ContainerError(
                f"{path}: tensor {name!r} has shape {tensors[name].shape}, "
                f"architecture expects {shape}"
            )
    prior = PriorParams(float(tensors["rho_alpha"]), float(tensors["rho_beta"]))
    return tensors, prior, encoder_cfg, config

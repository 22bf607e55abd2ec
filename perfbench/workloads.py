"""The benchmark workloads: set-up from a seed, one timed operation, checks.

Each workload repeats a cycle of operations on identical inputs, one call
at a time (a closed loop with a single caller). Because the inputs repeat,
every operation must give the same result bit for bit as the same
operation one cycle earlier.

* ``synth-train``: one ``training.train`` call on vector inputs.
* ``synth-protocol``: one ``protocol.run_protocol`` episode at the
  acceptance-criterion-8 size, on a model meta-trained during set-up.
* ``audio-pipeline``: ``prepare``, ``train`` and ``eval`` through
  ``cli.main`` on a WAV corpus written during set-up.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import re
import shutil
import struct
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# timed calls go through the module, so that the tracer's wrappers on the
# module attributes see them; the checks' calls do not
from bayescl import cli, protocol, training
from bayescl.encoder import EncoderConfig
from bayescl.episodes import EpisodeSpec, SynthTaskConfig, synth_registry
from bayescl.protocol import ProtocolConfig, monotone_violations

import corpus

# class_sep=10 (the CLI default) saturates: loss reaches 0 and held-out
# accuracy 100% well before 100 steps; at 2.0 held-out accuracy is still
# above 99%. At 1.4, after 50 steps, it is 94-99% and the protocol ends
# near 78%.
CLASS_SEP = 1.4
LATENT_DIM = 16
EMBED_DIM = 64


@dataclass
class Op:
    """One timed operation: its wall time, work units and what it produced."""

    index: int = 0  # position in the run
    wall_s: float = 0.0
    units: int = 0
    accuracy_pct: float = float("nan")
    outcome: object = None  # must repeat exactly one cycle later
    stages: dict = field(default_factory=dict)  # stage -> seconds
    facts: dict = field(default_factory=dict)  # workload-specific values
    problems: list = field(default_factory=list)


def _finite_losses(losses, problems):
    bad = [i for i, x in enumerate(losses, start=1) if not math.isfinite(x)]
    if bad:
        problems.append(f"non-finite loss at steps {bad[:5]}")


class SynthTrain:
    name = "synth-train"
    unit = "steps"
    period = 1

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.steps = 3 if tiny else 50
        self.val_episodes = 2 if tiny else 20

    def setup(self, workdir):
        seeds = np.random.SeedSequence(self.seed).spawn(2)
        task = SynthTaskConfig(latent_dim=LATENT_DIM, class_sep=CLASS_SEP)
        self.registry = synth_registry(task, 80, 20, np.random.default_rng(seeds[0]),
                                       prefix="train")
        self.val_registry = synth_registry(task, 20, 20, np.random.default_rng(seeds[1]),
                                           prefix="val")
        self.encoder_cfg = EncoderConfig(embed_dim=EMBED_DIM, feature_dim=LATENT_DIM,
                                         vector_input=True, seed=self.seed)
        self.cfg = training.TrainConfig(
            steps=self.steps, batch_episodes=4, spec=EpisodeSpec(10, 5, 5), seed=self.seed,
            validation_every=self.steps, validation_episodes=self.val_episodes)

    def operation(self, op, workdir):
        t0 = time.perf_counter()
        _, _, history = training.train(self.cfg, self.registry, self.encoder_cfg,
                                       self.val_registry)
        op.wall_s = time.perf_counter() - t0
        op.units = self.steps
        _finite_losses(history.losses, op.problems)
        op.accuracy_pct = 100.0 * history.val_accuracy[-1]
        op.outcome = (tuple(history.losses), tuple(history.val_accuracy))
        op.facts = {"heldout_acc": history.val_accuracy[-1]}

    def check_cycle(self, ops):
        return []

    def report(self, ops, wall_s):
        return {
            "train_steps_per_s": {"value": self.steps / wall_s, "unit": "steps/s"},
            "heldout_acc": {"value": ops[0].facts["heldout_acc"], "unit": "fraction"},
        }


class SynthProtocol:
    """One operation is one protocol episode; ten in turn make a full run.

    Timing single episodes gives ten times as many samples per run as
    timing whole 10-episode runs, and the host's run-to-run noise is large.
    Operation i runs episode i mod 10, so every tenth operation repeats.
    """

    name = "synth-protocol"
    unit = "episodes"

    # the evaluated model is meta-trained at a fixed seed; only the test
    # classes depend on the workload seed
    MODEL_SEED = 0

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.tiny = tiny
        shape = dict(increment=10, max_classes=20) if tiny else dict(increment=25,
                                                                      max_classes=200)
        self.period = 2 if tiny else 10
        self.pcfgs = [ProtocolConfig(**shape, shots=5, query_shots=5, episodes=1,
                                     seed=self.period * seed + k, workers=1)
                      for k in range(self.period)]

    def setup(self, workdir):
        model = SynthTrain(self.MODEL_SEED, self.tiny)
        model.setup(workdir)
        self.params, self.prior, _ = training.train(model.cfg, model.registry,
                                                    model.encoder_cfg, model.val_registry)
        task = SynthTaskConfig(latent_dim=LATENT_DIM, class_sep=CLASS_SEP)
        rng = np.random.default_rng(np.random.SeedSequence(self.seed).spawn(3)[2])
        shape = self.pcfgs[0]
        self.registry = synth_registry(task, shape.max_classes, shape.shots + shape.query_shots,
                                       rng, prefix="test")

    def operation(self, op, workdir):
        t0 = time.perf_counter()
        matrix, report = protocol.run_protocol(self.params, self.prior, self.registry,
                                               self.pcfgs[op.index % self.period])
        op.wall_s = time.perf_counter() - t0
        op.units = 1
        violations = monotone_violations(matrix)
        if violations:
            op.problems.append(f"monotone_violations = {violations}")
        trace = matrix.episodes[0]
        op.facts = {"first": report.mean_accuracy[0]}
        op.accuracy_pct = report.mean_accuracy[-1]
        op.outcome = (tuple(report.mean_accuracy),
                      hashlib.sha256(trace.acc.tobytes() + trace.correct.tobytes()).hexdigest())

    def check_cycle(self, ops):
        """Criterion 8 on one cycle: mean final accuracy <= mean first accuracy."""
        cycle = ops[:self.period]
        first = np.mean([op.facts["first"] for op in cycle])
        last = np.mean([op.accuracy_pct for op in cycle])
        return [] if last <= first else [f"final accuracy {last} exceeds first {first}"]

    def report(self, ops, wall_s):
        return {
            "protocol_wall_s": {"value": self.period * wall_s, "unit": "s"},
            "protocol_acc_final_pct": {"value": accuracy(self, ops), "unit": "%"},
        }


class AudioPipeline:
    name = "audio-pipeline"
    unit = "cli-calls"
    period = 1

    def __init__(self, seed, tiny=False):
        self.seed = seed
        if tiny:
            self.words, self.per_split, self.clip_len, self.steps = 12, 5, (4000, 6000), 2
            self.train_flags = ["--ways", "3", "--shots", "2", "--query-shots", "2"]
            self.eval_flags = ["--increment", "4", "--max-classes", "4", "--episodes", "2",
                               "--shots", "2", "--query-shots", "2"]
        else:
            # train splits words 70/30 into meta-train and test, then holds
            # out --val-ratio of the meta-train words for validation: with 40
            # words that is 28/12, and 0.4 leaves 17 train and 11 validation
            # words, each enough for a 10-way episode (the default 0.1 would
            # leave 3). Eval uses all 12 test words.
            self.words, self.per_split, self.clip_len, self.steps = 40, 10, (8000, 16000), 20
            self.train_flags = ["--ways", "10"]
            self.eval_flags = ["--increment", "4", "--max-classes", "12", "--episodes", "20"]
        self.train_flags += ["--steps", str(self.steps), "--validation-every", str(self.steps)]
        self.clips = self.words * 2 * self.per_split

    def setup(self, workdir):
        self.audio_root = workdir / "wav"
        self.manifest = corpus.write_corpus(
            self.audio_root, self.seed, self.words, self.per_split, noise_std=1.0,
            jitter=0.05, min_len=self.clip_len[0], max_len=self.clip_len[1])

    def _cli(self, op, stage, argv):
        err = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
        op.stages[stage] = time.perf_counter() - t0
        if code != 0:
            op.problems.append(f"{stage} exited {code}: {err.getvalue().strip()}")
        return err.getvalue()

    def operation(self, op, workdir):
        feats, ckpt, reports = workdir / "features", workdir / "model.ckpt", workdir / "report"
        features = str(feats / "features.jsonl")
        seed = str(self.seed)
        t0 = time.perf_counter()
        log = self._cli(op, "prepare", ["prepare", "--manifest", str(self.manifest),
                                        "--audio-root", str(self.audio_root),
                                        "--features-dir", str(feats)])
        if not op.problems:
            self._cli(op, "train", ["train", "--manifest", features, "--val-ratio", "0.4",
                                    "--seed", seed, "--out", str(ckpt), *self.train_flags])
        if not op.problems:
            self._cli(op, "eval", ["eval", "--manifest", features, "--ckpt", str(ckpt),
                                   "--out", str(reports), "--seed", seed, *self.eval_flags])
        op.wall_s = time.perf_counter() - t0
        op.units = 3
        if op.problems:
            return
        self._check(op, log, feats, ckpt, reports)

    def _check(self, op, log, feats, ckpt, reports):
        found = re.search(r"\((\d+) extracted, (\d+) cached\)", log)
        extracted, cached = (int(found[1]), int(found[2])) if found else (-1, -1)
        op.facts = {"extracted": extracted, "cached": cached}
        if (extracted, cached) != (self.clips, 0):
            op.problems.append(f"prepare extracted {extracted} and reused {cached} dumps "
                               f"of {self.clips} clips")
        with open(feats / "features.jsonl", encoding="utf-8") as fh:
            dumps = [json.loads(line)["path"] for line in fh if line.strip()]
        if len(dumps) != self.clips or len(set(dumps)) != self.clips:
            op.problems.append(f"{len(set(dumps))} distinct dumps for {self.clips} clips")
        for path in dumps:
            with open(path, "rb") as fh:
                header = fh.read(16)
            if header[:4] != b"MFCC" or struct.unpack("<III", header[4:16])[2] != 13:
                op.problems.append(f"{path}: not a 13-column feature dump")
                break

        with open(str(ckpt) + ".log.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        _finite_losses([float(r["loss"]) for r in rows], op.problems)
        heldout = float(rows[-1]["val_accuracy"])

        with open(reports / "per_word.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                accs = [float(v) for k, v in row.items() if k.startswith("acc_") and v]
                if any(b > a for a, b in zip(accs, accs[1:])):
                    op.problems.append(f"word {row['word']} gained accuracy after "
                                       "a later class arrived")
                    break
        # mean final <= mean first holds at criterion 8's 200 classes, not
        # for 12 classes near 99%; the per-word check above is the invariant
        with open(reports / "summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        first, last = summary["mean_accuracy_first"], summary["mean_accuracy_last"]

        digest = hashlib.sha256()
        for path in (ckpt, str(ckpt) + ".log.csv", reports / "curve.csv",
                     reports / "per_word.csv", reports / "volatility.csv"):
            digest.update(Path(path).read_bytes())
        op.accuracy_pct = last
        op.outcome = (heldout, first, last, digest.hexdigest())
        op.facts["heldout_acc"] = heldout

    def check_cycle(self, ops):
        return []

    def report(self, ops, wall_s):
        def stage(name):
            return float(np.median([op.stages[name] for op in ops]))

        return {
            "prepare_clips_per_s": {"value": self.clips / stage("prepare"), "unit": "clips/s"},
            "train_steps_per_s": {"value": self.steps / stage("train"), "unit": "steps/s"},
            "heldout_acc": {"value": ops[0].facts["heldout_acc"], "unit": "fraction"},
            "protocol_wall_s": {"value": stage("eval"), "unit": "s"},
            "protocol_acc_final_pct": {"value": ops[0].accuracy_pct, "unit": "%"},
            "prepare_extracted": {"value": ops[0].facts["extracted"], "unit": "clips"},
            "prepare_cached": {"value": ops[0].facts["cached"], "unit": "clips"},
        }


WORKLOADS = {w.name: w for w in (SynthTrain, SynthProtocol, AudioPipeline)}


def accuracy(workload, ops):
    """Mean final accuracy (%) over one cycle of distinct operations."""
    return float(np.mean([op.accuracy_pct for op in ops[:workload.period]]))


def reference_loop():
    """Wall time of fixed numpy work that runs no bayescl code.

    One part is many small array calls, where the interpreter dominates as
    in training; the other is element-wise work on a (1000, 64) array, as
    in scoring. The host's speed moves it as it moves the operations, while
    a change to bayescl moves only the operations.
    """
    x = np.linspace(-1.0, 1.0, 50 * 64).reshape(50, 64)
    w = np.linspace(-0.1, 0.1, 64 * 64).reshape(64, 64)
    z = np.linspace(-3.0, 3.0, 1000 * 64).reshape(1000, 64)
    m, s = np.linspace(-1.0, 1.0, 64), np.linspace(0.5, 2.0, 64)
    t0 = time.perf_counter()
    for _ in range(3000):
        h = x @ w
        float(np.log1p(h * h).sum())
    for _ in range(100):
        d = z - m
        float(np.log1p(d * d / s).sum(axis=1).max())
    return time.perf_counter() - t0


def measure(workload, seconds, workdir, tracer=None):
    """Repeat the operation until ``seconds`` have passed (at least once).

    Stops early at the first operation that fails a check; an operation
    whose result differs from that of the same operation one period earlier
    fails. The reference loop runs before every operation, and again until
    it has taken a tenth of the operations' time, so that long operations
    get as many reference samples as short ones. Returns the operations and
    the reference times.
    """
    ops, refs = [], []
    deadline = time.perf_counter() + seconds
    while True:
        refs.append(reference_loop())
        while sum(refs) < 0.1 * sum(op.wall_s for op in ops):
            refs.append(reference_loop())
        op = Op(index=len(ops))
        opdir = workdir / f"op{len(ops)}"
        opdir.mkdir(parents=True)
        span = tracer.operation() if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                workload.operation(op, opdir)
        except Exception as exc:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            op.wall_s = op.wall_s or time.perf_counter() - t0
            op.problems.append(f"{type(exc).__name__}: {exc}")
        period = workload.period
        if len(ops) >= period and not op.problems and op.outcome != ops[-period].outcome:
            op.problems.append("a repeat on the same inputs gave a different result")
        shutil.rmtree(opdir)
        ops.append(op)
        if op.problems or time.perf_counter() >= deadline:
            return ops, refs

"""Spans and counts around the public functions of each ``bayescl`` module.

The benchmark installs a wrapper in place of every traced function, in
every ``bayescl`` module that holds a reference to it: modules import
names with ``from .x import y``, so patching only the defining module
would miss those callers. Methods are patched on their class. Each call
records a span (name, start, end, parent) and, for some names, counts of
the work it did. Spans stay in memory until ``write``.
"""

import contextlib
import functools
import json
import os
import statistics
import sys
import time
import types
from collections import defaultdict

import numpy as np

# module -> functions wrapped besides its ``__all__``; ``stats`` is not
# reached by any workload and ``cli`` only through its command handlers
EXTRA_FUNCTIONS = {
    "audio": (),
    "episodes": ("registry_from_manifest",),
    "encoder": ("embed_batch", "embed_batch_values", "embed", "init_params"),
    "head": ("class_scores",),
    "training": (),
    "protocol": (),
    "tensorio": ("write_tensors", "read_tensors"),
    "cli": ("cmd_prepare", "cmd_train", "cmd_eval"),
}
METHODS = (("autodiff", "DiffGraph", "backward"), ("head", "HeadState", "add_class"))

# span names used in the reported metrics, per workload; each must fire
COMMON = ("episodes.resolve_sample", "encoder.embed_batch", "encoder.embed_batch_values",
          "head.add_class", "head.class_scores")
TRAINING = ("training.train", "episodes.sample_episode", "head.episode_loss",
            "autodiff.backward", "training.adam_step", "training.episode_accuracy")
REQUIRED_SPANS = {
    "synth-train": COMMON + TRAINING,
    "synth-protocol": COMMON + ("protocol.run_protocol",),
    "audio-pipeline": COMMON + TRAINING + (
        "protocol.run_protocol", "audio.load_wav", "audio.extract_mfcc",
        "audio.mel_filterbank", "audio.dct_matrix", "audio.write_feature_dump",
        "audio.read_feature_dump", "training.save_checkpoint", "training.load_checkpoint",
        "tensorio.write_tensors", "tensorio.read_tensors",
        "cli.cmd_prepare", "cli.cmd_train", "cli.cmd_eval"),
}

LAYERS = ("audio", "episodes", "encoder", "autodiff", "head", "training", "protocol",
          "tensorio", "cli", "bench")

# name -> unit, in the order printed; counts are per timed operation
METRIC_UNITS = {
    "audio.load_wav.ms_per_clip": "ms",
    "audio.extract_mfcc.ms_per_clip": "ms",
    "audio.mel_filterbank.ms_per_clip": "ms",
    "audio.dct_matrix.ms_per_clip": "ms",
    "audio.write_feature_dump.ms_per_clip": "ms",
    "audio.read_feature_dump.calls": "count/op",
    "audio.read_feature_dump.ms_per_call": "ms",
    "episodes.sample_episode.ms": "ms/op",
    "episodes.resolve_sample.calls": "count/op",
    "episodes.resolve_sample.ms": "ms/op",
    "episodes.resolve_sample.distinct_ratio": "ratio",
    "encoder.embed_batch.ms_per_episode": "ms",
    "encoder.embed_batch.rows": "count/op",
    "encoder.embed_batch_values.ms": "ms/op",
    "encoder.embed_batch_values.rows": "count/op",
    "autodiff.tape_nodes_per_episode": "count",
    "autodiff.backward.ms_per_episode": "ms",
    "head.episode_loss.ms_per_episode": "ms",
    "head.add_class.calls": "count/op",
    "head.add_class.ms": "ms/op",
    "head.class_scores.calls": "count/op",
    "head.class_scores.cells": "count/op",
    "head.class_scores.ns_per_cell": "ns",
    "head.class_scores.cells_per_distinct_pair": "ratio",
    "training.adam_step.ms": "ms/op",
    "training.step_ms.p50": "ms",
    "training.step_ms.p95": "ms",
    "training.episode_accuracy.ms": "ms/op",
    "training.save_checkpoint.ms": "ms/op",
    "protocol.support_ingest_s": "s/op",
    "protocol.query_eval_s": "s/op",
    "protocol.residual_s": "s/op",
    "tensorio.write_tensors.ms": "ms/op",
    "tensorio.write_tensors.bytes": "B/op",
    "tensorio.read_tensors.ms": "ms/op",
    "tensorio.read_tensors.bytes": "B/op",
    "cli.prepare.ms": "ms/op",
    "cli.train.ms": "ms/op",
    "cli.eval.ms": "ms/op",
    "cli.prepare.extracted": "count/op",
    "cli.prepare.cached": "count/op",
    **{f"{layer}.self_ms": "ms/op" for layer in LAYERS},
    "trace.untraced_op_ms": "ms",
    "trace.traced_op_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
}


def _row_keys(z):
    z = np.ascontiguousarray(np.asarray(z, dtype=np.float64))
    return {row.tobytes() for row in z}


class Tracer:
    """Installs wrappers, records spans and counts, derives per-layer metrics."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self.refs = set()  # references resolved in the current operation
        self.heads = {}  # id(head) -> (head, query row keys, class ids)
        self.runtimes = []
        self._stack = []
        self._patched = []  # (owner, attribute, original)
        self.installed = defaultdict(list)  # span name -> patched owners

    # --- recording -----------------------------------------------------

    @contextlib.contextmanager
    def operation(self):
        """Span one timed operation; distinct references are counted per op."""
        self._open("bench.op")
        try:
            yield
        finally:
            self._close()
            self.counts["episodes.resolve_sample.distinct"] += len(self.refs)
            self.refs.clear()

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _wrap(self, name, fn):
        count = getattr(self, "_count_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if count is not None:
                count(args, result)
            return result

        return wrapper

    def _count_episodes_resolve_sample(self, args, result):
        ref = args[0]
        self.refs.add(id(ref) if isinstance(ref, np.ndarray) else str(ref))

    def _count_encoder_embed_batch(self, args, result):
        # includes the nested calls from embed_batch_values; ``metrics``
        # subtracts those to get the rows of direct (training) calls
        self.counts["encoder.embed_batch.rows_all"] += len(args[0])

    def _count_encoder_embed_batch_values(self, args, result):
        self.counts["encoder.embed_batch_values.rows"] += len(args[0])

    def _count_autodiff_backward(self, args, result):
        self.counts["autodiff.tape_nodes"] += len(args[0])

    def _count_head_class_scores(self, args, result):
        head, z = args[0], args[1]
        m, c = result.shape
        self.counts["head.class_scores.cells"] += m * c
        entry = self.heads.setdefault(id(head), (head, set(), set()))
        entry[1].update(_row_keys(z))
        entry[2].update(head.posteriors)

    def _count_protocol_run_protocol(self, args, result):
        self.runtimes.append(dict(result[1].runtime))

    def _count_tensorio_write_tensors(self, args, result):
        self.counts["tensorio.write_tensors.bytes"] += os.path.getsize(args[0])

    def _count_tensorio_read_tensors(self, args, result):
        self.counts["tensorio.read_tensors.bytes"] += os.path.getsize(args[0])

    # --- installation --------------------------------------------------

    def install(self):
        """Patch every reference to each traced function; returns self."""
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == "bayescl" or name.startswith("bayescl.")
        }
        for short, extra in EXTRA_FUNCTIONS.items():
            mod = sys.modules[f"bayescl.{short}"]
            names = [n for n in getattr(mod, "__all__", ()) if
                     isinstance(getattr(mod, n), types.FunctionType)]
            for fname in dict.fromkeys([*names, *extra]):
                original = getattr(mod, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for holder in modules.values():
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._patched.append((holder, attr, original))
                            self.installed[f"{short}.{fname}"].append(holder.__name__)
                            setattr(holder, attr, wrapper)
        for short, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"bayescl.{short}"], cls_name)
            original = cls.__dict__[meth]
            self._patched.append((cls, meth, original))
            self.installed[f"{short}.{meth}"].append(f"{cls.__module__}.{cls_name}")
            setattr(cls, meth, self._wrap(f"{short}.{meth}", original))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def missing_spans(self, workload):
        fired = {s[0] for s in self.spans}
        return [n for n in REQUIRED_SPANS[workload] if n not in fired]

    # --- analysis ------------------------------------------------------

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": names,
                "fields": ["name", "start_s", "end_s", "parent"],
                "spans": [[index[n], round(a - t0, 9), round(b - t0, 9), p]
                          for n, a, b, p in self.spans],
                "counts": dict(self.counts),
            }, fh, separators=(",", ":"))

    def metrics(self, n_ops, untraced_walls, traced_walls, workload_metrics):
        """Per-layer metrics; totals are divided by the number of traced ops."""
        total = defaultdict(float)  # name -> seconds
        calls = defaultdict(int)
        child = [0.0] * len(self.spans)
        direct_embed_s = 0.0
        step_ends = defaultdict(list)
        for name, a, b, parent in self.spans:
            total[name] += b - a
            calls[name] += 1
            if parent >= 0:
                child[parent] += b - a
            if name == "encoder.embed_batch" and (
                    parent < 0 or self.spans[parent][0] != "encoder.embed_batch_values"):
                direct_embed_s += b - a
            if name == "training.adam_step":
                step_ends[parent].append(b)
        self_s = defaultdict(float)
        for i, (name, a, b, parent) in enumerate(self.spans):
            self_s[name.split(".")[0]] += (b - a) - child[i]
        direct_embed_rows = (self.counts["encoder.embed_batch.rows_all"]
                             - self.counts["encoder.embed_batch_values.rows"])
        steps = [1e3 * d for ends in step_ends.values() for d in np.diff(ends)]

        def ms(name):
            return 1e3 * total[name]

        def per(value, count):
            return value / count if count else 0.0

        episodes = calls["head.episode_loss"]
        clips = calls["audio.extract_mfcc"]
        distinct_pairs = sum(len(rows) * len(cls) for _, rows, cls in self.heads.values())
        runtime = {k: sum(r[k] for r in self.runtimes)
                   for k in ("support_ingest_s", "query_eval_s", "total_s")}
        untraced = statistics.median(untraced_walls)
        traced = statistics.median(traced_walls)
        out = {
            "audio.load_wav.ms_per_clip": per(ms("audio.load_wav"), calls["audio.load_wav"]),
            "audio.extract_mfcc.ms_per_clip": per(ms("audio.extract_mfcc"), clips),
            "audio.mel_filterbank.ms_per_clip": per(ms("audio.mel_filterbank"), clips),
            "audio.dct_matrix.ms_per_clip": per(ms("audio.dct_matrix"), clips),
            "audio.write_feature_dump.ms_per_clip": per(
                ms("audio.write_feature_dump"), calls["audio.write_feature_dump"]),
            "audio.read_feature_dump.calls": calls["audio.read_feature_dump"] / n_ops,
            "audio.read_feature_dump.ms_per_call": per(
                ms("audio.read_feature_dump"), calls["audio.read_feature_dump"]),
            "episodes.sample_episode.ms": ms("episodes.sample_episode") / n_ops,
            "episodes.resolve_sample.calls": calls["episodes.resolve_sample"] / n_ops,
            "episodes.resolve_sample.ms": ms("episodes.resolve_sample") / n_ops,
            "episodes.resolve_sample.distinct_ratio": per(
                self.counts["episodes.resolve_sample.distinct"],
                calls["episodes.resolve_sample"]),
            "encoder.embed_batch.ms_per_episode": per(1e3 * direct_embed_s, episodes),
            "encoder.embed_batch.rows": direct_embed_rows / n_ops,
            "encoder.embed_batch_values.ms": ms("encoder.embed_batch_values") / n_ops,
            "encoder.embed_batch_values.rows":
                self.counts["encoder.embed_batch_values.rows"] / n_ops,
            "autodiff.tape_nodes_per_episode": per(
                self.counts["autodiff.tape_nodes"], calls["autodiff.backward"]),
            "autodiff.backward.ms_per_episode": per(ms("autodiff.backward"), episodes),
            "head.episode_loss.ms_per_episode": per(ms("head.episode_loss"), episodes),
            "head.add_class.calls": calls["head.add_class"] / n_ops,
            "head.add_class.ms": ms("head.add_class") / n_ops,
            "head.class_scores.calls": calls["head.class_scores"] / n_ops,
            "head.class_scores.cells": self.counts["head.class_scores.cells"] / n_ops,
            "head.class_scores.ns_per_cell": per(
                1e9 * total["head.class_scores"], self.counts["head.class_scores.cells"]),
            "head.class_scores.cells_per_distinct_pair": per(
                self.counts["head.class_scores.cells"], distinct_pairs),
            "training.adam_step.ms": ms("training.adam_step") / n_ops,
            "training.step_ms.p50": float(np.percentile(steps, 50)) if steps else 0.0,
            "training.step_ms.p95": float(np.percentile(steps, 95)) if steps else 0.0,
            "training.episode_accuracy.ms": ms("training.episode_accuracy") / n_ops,
            "training.save_checkpoint.ms": ms("training.save_checkpoint") / n_ops,
            "protocol.support_ingest_s": runtime["support_ingest_s"] / n_ops,
            "protocol.query_eval_s": runtime["query_eval_s"] / n_ops,
            "protocol.residual_s": (runtime["total_s"] - runtime["support_ingest_s"]
                                    - runtime["query_eval_s"]) / n_ops,
            "tensorio.write_tensors.ms": ms("tensorio.write_tensors") / n_ops,
            "tensorio.write_tensors.bytes": self.counts["tensorio.write_tensors.bytes"] / n_ops,
            "tensorio.read_tensors.ms": ms("tensorio.read_tensors") / n_ops,
            "tensorio.read_tensors.bytes": self.counts["tensorio.read_tensors.bytes"] / n_ops,
            "cli.prepare.ms": ms("cli.cmd_prepare") / n_ops,
            "cli.train.ms": ms("cli.cmd_train") / n_ops,
            "cli.eval.ms": ms("cli.cmd_eval") / n_ops,
            **{f"{layer}.self_ms": 1e3 * self_s[layer] / n_ops for layer in LAYERS},
            "trace.untraced_op_ms": 1e3 * untraced,
            "trace.traced_op_ms": 1e3 * traced,
            "trace.overhead_ms": 1e3 * (traced - untraced),
            "trace.overhead_pct": 100.0 * (traced - untraced) / untraced,
        }
        out.update(workload_metrics)
        return out


"""Command-line entry point wiring data preparation, training, and evaluation.

Subcommands: prepare, train, eval, synth-train, synth-eval,
inspect-checkpoint, version. ``eval`` takes its train/test word split
(ratio and seed) from the checkpoint that ``train`` wrote, so its test
words are never meta-train words. Exit codes: 0 success, 2 usage error,
1 runtime error. Diagnostics go to stderr; ``bayescl --verbose <command>``
adds the traceback of a runtime error.

Each command that takes ``--config`` reads its options from one table in
``OPTIONS``: flags override the JSON config file, which overrides the
rows' defaults. A file value of the wrong type fails before anything is
written (``<path>: <key>: expected int, got str``). A bool is never an
int, an int for a float is read as that float, so file and flag write
the same bytes, and null is taken only where the default is None.

A command re-run with the same inputs and seed writes the same bytes,
whatever ``prepare --workers``, on the same machine and numpy build. Across
machines the bits can differ: numpy's float64 ``log`` rounds differently
on its AVX-512 and AVX2/baseline paths.
"""

import argparse
import dataclasses
import json
import sys
import traceback
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, audio, training
from .encoder import EncoderConfig
from .episodes import (
    EpisodeSpec,
    SynthTaskConfig,
    read_manifest,
    registry_from_manifest,
    split_classes,
    synth_registry,
)
from .head import PriorParams
from .pool import spawn_map
from .protocol import ProtocolConfig, emit_report, run_protocol
from .tensorio import ContainerError, read_tensors


def _log(msg):
    print(msg, file=sys.stderr)


class Option(NamedTuple):
    """One option of a command: its config key, its flag and its default."""

    name: str
    type: type
    default: object
    help: str = ""

    def check(self, path, value):
        """``value`` read from config file ``path``, as this option's type."""
        if value is None and self.default is None:
            return None
        if self.type is float and type(value) is int:
            try:
                return float(value)
            except OverflowError as exc:  # JSON ints have no size limit
                raise ValueError(f"{path}: {self.name}: {exc}") from None
        if type(value) is not self.type:  # so a bool is never an int
            got = "null" if value is None else type(value).__name__
            raise ValueError(f"{path}: {self.name}: expected {self.type.__name__}, got {got}")
        return value


def _fields(cls):
    return tuple(Option(f.name, f.type, f.default) for f in dataclasses.fields(cls))


_TRAIN_OPTIONS = (
    Option("steps", int, 2000, "training steps"),
    Option("shots", int, 5, "support shots per class"),
    Option("query_shots", int, 5, "query shots per class"),
    Option("batch_episodes", int, 4, "episodes per step"),
    Option("learning_rate", float, 1e-3),
    Option("validation_every", int, 100),
    Option("embed_dim", int, 64),
    Option("seed", int, 0),
)

_SYNTH_TASK_KEYS = tuple(f.name for f in dataclasses.fields(SynthTaskConfig))

OPTIONS = {
    "train": (
        Option("split_ratio", float, 0.7, "meta-train class fraction"),
        Option("val_ratio", float, 0.1, "fraction of meta-train classes held out for validation"),
        Option("ways", int, 25, "classes per episode"),
        *_TRAIN_OPTIONS,
    ),
    "synth-train": (
        *_fields(SynthTaskConfig),
        Option("classes", int, 80, "synthetic meta-train classes"),
        Option("val_classes", int, 20, "held-out classes for validation"),
        Option("samples_per_class", int, 20),
        Option("ways", int, 10, "classes per episode"),
        *_TRAIN_OPTIONS,
    ),
    "eval": _fields(ProtocolConfig),
    "synth-eval": (
        Option("test_classes", int, None, "synthetic test classes (default max-classes)"),
        Option("samples_per_class", int, None, "samples per class (default shots + query-shots)"),
        *_fields(ProtocolConfig),
    ),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bayescl",
        description="few-shot continual word classification: meta-training and evaluation",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="print the traceback of a runtime error"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("version", help="print the package version").set_defaults(func=cmd_version)

    p = sub.add_parser("prepare", help="extract MFCC feature dumps from a wav manifest")
    p.set_defaults(func=cmd_prepare)
    p.add_argument("--manifest", required=True, help="newline-delimited JSON manifest")
    p.add_argument("--audio-root", help="base directory for relative wav paths")
    p.add_argument("--features-dir", required=True, help="output directory")
    p.add_argument("--shots", type=int, default=5)
    p.add_argument("--query-shots", type=int, default=5)
    p.add_argument("--workers", type=int, default=1)

    for command, func, text in (
        ("train", cmd_train, "meta-train on prepared features"),
        ("eval", cmd_eval, "run the class-incremental protocol on prepared features"),
        ("synth-train", cmd_synth_train, "meta-train on synthetic Gaussian tasks"),
        ("synth-eval", cmd_synth_eval, "run the protocol on synthetic test classes"),
    ):
        p = sub.add_parser(command, help=text)
        p.set_defaults(func=func)
        if not command.startswith("synth-"):
            p.add_argument("--manifest", required=True, help="feature manifest from prepare")
        if command.endswith("eval"):
            p.add_argument("--ckpt", required=True)
            p.add_argument("--out", required=True, help="report output directory")
        else:
            p.add_argument("--out", required=True, help="checkpoint output path")
        for o in OPTIONS[command]:
            default = "" if o.default is None else f" (default {o.default})"
            p.add_argument("--" + o.name.replace("_", "-"), type=o.type, help=o.help + default)
        p.add_argument("--config", help="JSON config file (flags override it)")

    p = sub.add_parser("inspect-checkpoint", help="print checkpoint header information")
    p.set_defaults(func=cmd_inspect)
    p.add_argument("--ckpt", required=True)
    return parser


def _merge_config(args):
    """The values of ``OPTIONS[args.command]``: flags > config file > defaults."""
    options = OPTIONS[args.command]
    file_values = {}
    if args.config:
        with open(args.config) as fh:
            try:
                file_values = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{args.config}: not valid JSON: {exc}") from None
        if not isinstance(file_values, dict):
            raise ValueError(f"{args.config}: not a JSON object")
        unknown = set(file_values) - {o.name for o in options}
        if unknown:
            raise ValueError(f"{args.config}: unknown config keys {sorted(unknown)}")
        file_values = {o.name: o.check(args.config, file_values[o.name])
                       for o in options if o.name in file_values}
    flags = {k: v for k, v in vars(args).items() if v is not None}
    values = {o.name: flags.get(o.name, file_values.get(o.name, o.default)) for o in options}
    _at_least(values, 0, "seed")  # before any read; numpy's SeedSequence would not name it
    return values


def _at_least(values, low, *keys):
    for key in keys:
        if values[key] is not None and values[key] < low:
            raise ValueError(f"{key} must be >= {low}, got {values[key]}")


def cmd_version(args):
    print(__version__)
    return 0


def _extract_one(matrices, job):
    wav_path, dump_path = job
    samples = audio.load_wav(wav_path)
    try:
        frames = audio.extract_mfcc(samples, matrices)
    except audio.AudioFormatError as exc:
        raise audio.AudioFormatError(f"{wav_path}: {exc}") from exc
    audio.write_feature_dump(dump_path, frames)


def cmd_prepare(args):
    _at_least(vars(args), 1, "shots", "query_shots", "workers")
    records = read_manifest(args.manifest)
    root = Path(args.audio_root) if args.audio_root else None
    out_dir = Path(args.features_dir)

    needed = args.shots + args.query_shots
    counts = {}
    for rec in records:
        counts[rec["word"]] = counts.get(rec["word"], 0) + 1
    kept_words = set()
    for word, count in counts.items():
        if count < needed:
            _log(f"rejecting word {word!r}: {count} samples < {needed} required")
        else:
            kept_words.add(word)
    if not kept_words:
        raise ValueError("no word has enough samples for the requested shots")

    sources = {}  # dump path -> the clip it is extracted from
    entries = []
    for rec in records:
        if rec["word"] not in kept_words:
            continue
        src = Path(rec["path"])
        if root is not None and not src.is_absolute():
            src = root / src
        dump = str(out_dir / rec["word"] / (src.stem + ".mfcc"))
        if dump in sources:
            raise ValueError(f"{sources[dump]} and {src} would both be written to {dump}")
        sources[dump] = str(src)
        entries.append({"word": rec["word"], "path": dump, "split": rec["split"]})
    # re-runs reuse the cache; a failed run removes the dumps and directories it made
    jobs = [(src, dump) for dump, src in sources.items() if not Path(dump).exists()]
    made = []
    try:
        for d in (*reversed(out_dir.parents), out_dir, *(out_dir / w for w in kept_words)):
            if not d.exists():
                d.mkdir()
                made.append(d)
        spawn_map(_extract_one, (audio.mfcc_matrices(),), jobs, args.workers)
    except BaseException:
        for _, dump in jobs:
            Path(dump).unlink(missing_ok=True)
        for d in reversed(made):
            d.rmdir()
        raise

    manifest_out = out_dir / "features.jsonl"
    with open(manifest_out, "w", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    _log(
        f"prepared {len(entries)} samples over {len(kept_words)} words "
        f"({len(jobs)} extracted, {len(entries) - len(jobs)} cached) -> {manifest_out}"
    )
    return 0


def _train_config(v):
    return training.TrainConfig(
        steps=v["steps"],
        batch_episodes=v["batch_episodes"],
        spec=EpisodeSpec(v["ways"], v["shots"], v["query_shots"]),
        learning_rate=v["learning_rate"],
        seed=v["seed"],
        validation_every=v["validation_every"],
    )


def _train_common(tcfg, encoder_cfg, registry, val_registry, out, data_config):
    params, prior, history = training.train(tcfg, registry, encoder_cfg, val_registry)
    training.save_run(out, params, encoder_cfg, history, extra_config=data_config)
    _log(
        f"trained {tcfg.steps} steps; final loss {history.losses[-1]:.4f}; "
        f"best validation accuracy {history.best_accuracy:.3f} (step {history.best_step})"
    )
    return 0


def cmd_synth_train(args):
    v = _merge_config(args)
    _at_least(v, 1, "samples_per_class")
    synth_cfg = SynthTaskConfig(**{k: v[k] for k in _SYNTH_TASK_KEYS})
    encoder_cfg = EncoderConfig(
        embed_dim=v["embed_dim"], feature_dim=v["latent_dim"], vector_input=True, seed=v["seed"]
    )
    tcfg = _train_config(v)
    seeds = np.random.SeedSequence(v["seed"]).spawn(2)
    rng = np.random.default_rng(seeds[0])
    registry = synth_registry(synth_cfg, v["classes"], v["samples_per_class"], rng, prefix="train")
    val_rng = np.random.default_rng(seeds[1])
    val_registry = synth_registry(
        synth_cfg, v["val_classes"], v["samples_per_class"], val_rng, prefix="val"
    )
    data = {k: v[k] for k in (*_SYNTH_TASK_KEYS, "samples_per_class")}
    data_config = {"data": {"kind": "synthetic", **data}}
    return _train_common(tcfg, encoder_cfg, registry, val_registry, args.out, data_config)


def _evaluate(args, v, kind, keys, make_registry):
    """The eval commands' shared steps, on the command's values ``v``.

    Load the checkpoint ``args.ckpt`` and check that its ``data`` section
    has the ``kind`` and the ``keys`` the command reads; the tensor CRCs
    do not cover the header, so a damaged one gets here. Then run the
    protocol on ``make_registry(data)`` and write the reports.
    """
    pcfg = ProtocolConfig(**{f.name: v[f.name] for f in dataclasses.fields(ProtocolConfig)})
    params, prior, _, config = training.load_checkpoint(args.ckpt)
    data = config.get("data")
    if not isinstance(data, dict) or data.get("kind") != kind:
        other = "eval" if kind == "synthetic" else "synth-eval"
        raise ContainerError(f"{args.ckpt}: not a {kind!r} checkpoint; use '{other}'")
    missing = [k for k in keys if k not in data]
    if missing:
        raise ContainerError(f"{args.ckpt}: data section lacks {missing}")
    matrix, report = run_protocol(params, prior, make_registry(data), pcfg)
    emit_report(report, matrix, args.out)
    _log(
        f"protocol done: accuracy {report.mean_accuracy[0]:.2f}% at "
        f"{report.checkpoints[0]} classes -> {report.mean_accuracy[-1]:.2f}% at "
        f"{report.checkpoints[-1]}; volatility {report.volatility_mean:.3f} "
        f"+/- {report.volatility_std:.3f}; reports in {args.out}"
    )
    return 0


def cmd_synth_eval(args):
    v = _merge_config(args)
    _at_least(v, 1, "test_classes", "samples_per_class")
    if v["test_classes"] is not None and v["test_classes"] < v["max_classes"]:
        raise ValueError(f"test_classes must be >= max_classes, "
                         f"got {v['test_classes']} < {v['max_classes']}")

    def registry(data):
        synth_cfg = SynthTaskConfig(**{k: data[k] for k in _SYNTH_TASK_KEYS})
        n_test = v["max_classes"] if v["test_classes"] is None else v["test_classes"]
        per_class = v["samples_per_class"]
        per_class = v["shots"] + v["query_shots"] if per_class is None else per_class
        test_rng = np.random.default_rng(np.random.SeedSequence(v["seed"] + 1).spawn(1)[0])
        return synth_registry(synth_cfg, n_test, per_class, test_rng, prefix="test")

    return _evaluate(args, v, "synthetic", _SYNTH_TASK_KEYS, registry)


def _word_split(manifest, ratio, seed):
    reg_all = registry_from_manifest(manifest, split="train")
    words = reg_all.class_ids
    train_words, test_words = split_classes(words, ratio, seed)
    return reg_all, train_words, test_words


def cmd_train(args):
    v = _merge_config(args)
    for key in ("split_ratio", "val_ratio"):
        if not 0.0 < v[key] < 1.0:
            raise ValueError(f"{key} must be strictly between 0 and 1, got {v[key]}")
    encoder_cfg = EncoderConfig(embed_dim=v["embed_dim"], seed=v["seed"])
    tcfg = _train_config(v)
    reg_all, train_words, _ = _word_split(args.manifest, v["split_ratio"], v["seed"])
    core_words, val_words = split_classes(train_words, 1.0 - v["val_ratio"], v["seed"] + 1)
    registry = reg_all.subset(core_words)
    val_registry = reg_all.subset(val_words)
    data_config = {
        "data": {"kind": "mfcc", "split_ratio": v["split_ratio"], "split_seed": v["seed"]}
    }
    return _train_common(tcfg, encoder_cfg, registry, val_registry, args.out, data_config)


def cmd_eval(args):
    def registry(data):
        # evaluation uses test-split samples of meta-test words only
        _, _, test_words = _word_split(args.manifest, data["split_ratio"], data["split_seed"])
        reg_test_split = registry_from_manifest(args.manifest, split="test")
        missing = [w for w in test_words if w not in reg_test_split.classes]
        if missing:
            _log(f"warning: {len(missing)} meta-test words have no test-split samples")
        return reg_test_split.subset([w for w in test_words if w in reg_test_split.classes])

    return _evaluate(args, _merge_config(args), "mfcc", ("split_ratio", "split_seed"), registry)


def cmd_inspect(args):
    config, tensors = read_tensors(args.ckpt)
    info = {
        "config": config,
        "tensors": [
            {"name": k, "shape": list(v.shape)} for k, v in tensors.items()
        ],
        "parameters": int(sum(v.size for v in tensors.values())),
    }
    if "rho_alpha" in tensors and "rho_beta" in tensors:
        prior = PriorParams(float(tensors["rho_alpha"]), float(tensors["rho_beta"]))
        names = ("rho_alpha", "rho_beta", "alpha0", "beta0")
        info["prior"] = {k: getattr(prior, k) for k in names}
    print(json.dumps(info, indent=2, sort_keys=True))
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:  # runtime errors -> exit 1 with a message
        if args.verbose:
            traceback.print_exc()
        _log(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point wiring data preparation, training, and evaluation.

Subcommands: prepare, train, eval, synth-train, synth-eval,
inspect-checkpoint, version. Flags override values from an optional JSON
config file (--config), which overrides built-in defaults. ``eval`` takes
its train/test word split (ratio and seed) from the checkpoint that
``train`` wrote, so its test words are never meta-train words. Exit codes:
0 success, 2 usage error, 1 runtime error. Diagnostics go to stderr;
``bayescl --verbose <command>`` adds the traceback of a runtime error.

A command re-run with the same inputs and seed writes the same bytes,
whatever ``--workers``, on the same machine and numpy build. Across
machines the bits can differ: numpy's float64 ``log`` rounds differently
on its AVX-512 and AVX2/baseline paths.
"""

import argparse
import json
import sys
import traceback
from pathlib import Path

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


def _add_common_train_flags(p):
    p.add_argument("--steps", type=int, help="training steps")
    p.add_argument("--ways", type=int, help="classes per episode")
    p.add_argument("--shots", type=int, help="support shots per class")
    p.add_argument("--query-shots", type=int, help="query shots per class")
    p.add_argument("--batch-episodes", type=int, help="episodes per step")
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--validation-every", type=int)
    p.add_argument("--encoder", choices=["stats-mlp", "attention-mlp"])
    p.add_argument("--embed-dim", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--config", help="JSON config file (flags override it)")


def _add_common_eval_flags(p):
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True, help="report output directory")
    p.add_argument("--increment", type=int)
    p.add_argument("--max-classes", type=int)
    p.add_argument("--episodes", type=int)
    p.add_argument("--shots", type=int)
    p.add_argument("--query-shots", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--config", help="JSON config file (flags override it)")


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

    p = sub.add_parser("train", help="meta-train on prepared features")
    p.set_defaults(func=cmd_train)
    p.add_argument("--manifest", required=True, help="feature manifest from prepare")
    p.add_argument("--split-ratio", type=float, help="meta-train class fraction (default 0.7)")
    p.add_argument("--val-ratio", type=float, help="fraction of meta-train classes held out for validation (default 0.1)")
    _add_common_train_flags(p)

    p = sub.add_parser("eval", help="run the class-incremental protocol on prepared features")
    p.set_defaults(func=cmd_eval)
    p.add_argument("--manifest", required=True, help="feature manifest from prepare")
    _add_common_eval_flags(p)

    p = sub.add_parser("synth-train", help="meta-train on synthetic Gaussian tasks")
    p.set_defaults(func=cmd_synth_train)
    p.add_argument("--latent-dim", type=int)
    p.add_argument("--class-sep", type=float)
    p.add_argument("--within-std", type=float)
    p.add_argument("--classes", type=int, help="synthetic meta-train classes")
    p.add_argument("--val-classes", type=int, help="held-out classes for validation")
    p.add_argument("--samples-per-class", type=int)
    _add_common_train_flags(p)

    p = sub.add_parser("synth-eval", help="run the protocol on synthetic test classes")
    p.set_defaults(func=cmd_synth_eval)
    p.add_argument("--test-classes", type=int, help="synthetic test classes (default max-classes)")
    p.add_argument("--samples-per-class", type=int)
    _add_common_eval_flags(p)

    p = sub.add_parser("inspect-checkpoint", help="print checkpoint header information")
    p.set_defaults(func=cmd_inspect)
    p.add_argument("--ckpt", required=True)
    return parser


def _merge_config(args, defaults):
    """flags > config file > defaults; returns a plain dict."""
    file_values = {}
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        with open(cfg_path) as fh:
            try:
                file_values = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{cfg_path}: not valid JSON: {exc}") from None
        if not isinstance(file_values, dict):
            raise ValueError(f"{cfg_path}: not a JSON object")
        unknown = set(file_values) - set(defaults)
        if unknown:
            raise ValueError(f"{cfg_path}: unknown config keys {sorted(unknown)}")
    merged = {}
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
        elif key in file_values:
            merged[key] = file_values[key]
        else:
            merged[key] = default
    return merged


COMMON_TRAIN_DEFAULTS = {
    "steps": 2000,
    "ways": 25,
    "shots": 5,
    "query_shots": 5,
    "batch_episodes": 4,
    "learning_rate": 1e-3,
    "validation_every": 100,
    "encoder": "stats-mlp",
    "embed_dim": 64,
    "seed": 0,
}

TRAIN_DEFAULTS = dict(COMMON_TRAIN_DEFAULTS, split_ratio=0.7, val_ratio=0.1)

SYNTH_TRAIN_DEFAULTS = dict(
    COMMON_TRAIN_DEFAULTS,
    ways=10,
    latent_dim=16,
    class_sep=10.0,
    within_std=1.0,
    classes=80,
    val_classes=20,
    samples_per_class=20,
)

EVAL_DEFAULTS = {
    "increment": 25,
    "max_classes": 200,
    "episodes": 10,
    "shots": 5,
    "query_shots": 5,
    "workers": 1,
    "seed": 0,
}

SYNTH_EVAL_DEFAULTS = dict(EVAL_DEFAULTS, test_classes=None, samples_per_class=None)


def _protocol_config(values):
    # the EVAL_DEFAULTS keys are exactly ProtocolConfig's fields
    return ProtocolConfig(**{k: values[k] for k in EVAL_DEFAULTS})


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
    records = read_manifest(args.manifest)
    root = Path(args.audio_root) if args.audio_root else None
    out_dir = Path(args.features_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    needed = args.shots + args.query_shots
    by_word = {}
    for rec in records:
        by_word.setdefault((rec["word"], rec["split"]), []).append(rec)
    counts = {}
    for (word, _split), recs in by_word.items():
        counts[word] = counts.get(word, 0) + len(recs)
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
    for word in kept_words:
        (out_dir / word).mkdir(parents=True, exist_ok=True)
    # idempotent re-runs reuse the cache
    jobs = [(src, dump) for dump, src in sources.items() if not Path(dump).exists()]
    spawn_map(_extract_one, (audio.mfcc_matrices(),), jobs, args.workers)

    manifest_out = out_dir / "features.jsonl"
    with open(manifest_out, "w", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    _log(
        f"prepared {len(entries)} samples over {len(kept_words)} words "
        f"({len(jobs)} extracted, {len(entries) - len(jobs)} cached) -> {manifest_out}"
    )
    return 0


def _train_common(cfg_values, encoder_cfg, registry, val_registry, out, data_config):
    spec = EpisodeSpec(cfg_values["ways"], cfg_values["shots"], cfg_values["query_shots"])
    tcfg = training.TrainConfig(
        steps=cfg_values["steps"],
        batch_episodes=cfg_values["batch_episodes"],
        spec=spec,
        learning_rate=cfg_values["learning_rate"],
        seed=cfg_values["seed"],
        validation_every=cfg_values["validation_every"],
    )
    params, prior, history = training.train(tcfg, registry, encoder_cfg, val_registry)
    training.save_run(out, params, encoder_cfg, history, extra_config=data_config)
    best_acc = history.best_accuracy if history.val_accuracy else float("nan")
    _log(
        f"trained {tcfg.steps} steps; final loss {history.losses[-1]:.4f}; "
        f"best validation accuracy {best_acc:.3f} (step {history.best_step})"
    )
    return 0


# the SynthTaskConfig fields, which a synthetic checkpoint's data section records
SYNTH_KEYS = ("latent_dim", "class_sep", "within_std")


def cmd_synth_train(args):
    v = _merge_config(args, SYNTH_TRAIN_DEFAULTS)
    synth_cfg = SynthTaskConfig(**{k: v[k] for k in SYNTH_KEYS})
    seeds = np.random.SeedSequence(v["seed"]).spawn(2)
    rng = np.random.default_rng(seeds[0])
    registry = synth_registry(synth_cfg, v["classes"], v["samples_per_class"], rng, prefix="train")
    val_rng = np.random.default_rng(seeds[1])
    val_registry = synth_registry(
        synth_cfg, v["val_classes"], v["samples_per_class"], val_rng, prefix="val"
    )
    encoder_cfg = EncoderConfig(
        architecture=v["encoder"],
        embed_dim=v["embed_dim"],
        feature_dim=v["latent_dim"],
        vector_input=True,
        seed=v["seed"],
    )
    data = {k: v[k] for k in (*SYNTH_KEYS, "samples_per_class")}
    data_config = {"data": {"kind": "synthetic", **data}}
    return _train_common(v, encoder_cfg, registry, val_registry, args.out, data_config)


def _evaluate(args, defaults, kind, keys, make_registry):
    """The eval commands' shared steps.

    Load the checkpoint ``args.ckpt`` and check that its ``data`` section
    has the ``kind`` and the ``keys`` the command reads; the tensor CRCs
    do not cover the header, so a damaged one gets here. Then run the
    protocol on ``make_registry(data, values)`` and write the reports.
    """
    v = _merge_config(args, defaults)
    pcfg = _protocol_config(v)
    params, prior, _, config = training.load_checkpoint(args.ckpt)
    data = config.get("data")
    if not isinstance(data, dict) or data.get("kind") != kind:
        other = "eval" if kind == "synthetic" else "synth-eval"
        raise ContainerError(f"{args.ckpt}: not a {kind!r} checkpoint; use '{other}'")
    missing = [k for k in keys if k not in data]
    if missing:
        raise ContainerError(f"{args.ckpt}: data section lacks {missing}")
    matrix, report = run_protocol(params, prior, make_registry(data, v), pcfg)
    emit_report(report, matrix, args.out)
    _log(
        f"protocol done: accuracy {report.mean_accuracy[0]:.2f}% at "
        f"{report.checkpoints[0]} classes -> {report.mean_accuracy[-1]:.2f}% at "
        f"{report.checkpoints[-1]}; volatility {report.volatility_mean:.3f} "
        f"+/- {report.volatility_std:.3f}; reports in {args.out}"
    )
    return 0


def cmd_synth_eval(args):
    def registry(data, v):
        synth_cfg = SynthTaskConfig(**{k: data[k] for k in SYNTH_KEYS})
        n_test = v["test_classes"] or v["max_classes"]
        per_class = v["samples_per_class"] or (v["shots"] + v["query_shots"])
        test_rng = np.random.default_rng(np.random.SeedSequence(v["seed"] + 1).spawn(1)[0])
        return synth_registry(synth_cfg, n_test, per_class, test_rng, prefix="test")

    return _evaluate(args, SYNTH_EVAL_DEFAULTS, "synthetic", SYNTH_KEYS, registry)


def _word_split(manifest, ratio, seed):
    reg_all = registry_from_manifest(manifest, split="train")
    words = reg_all.class_ids
    train_words, test_words = split_classes(words, ratio, seed)
    return reg_all, train_words, test_words


def cmd_train(args):
    v = _merge_config(args, TRAIN_DEFAULTS)
    reg_all, train_words, _ = _word_split(args.manifest, v["split_ratio"], v["seed"])
    core_words, val_words = split_classes(train_words, 1.0 - v["val_ratio"], v["seed"] + 1)
    registry = reg_all.subset(core_words)
    val_registry = reg_all.subset(val_words)
    encoder_cfg = EncoderConfig(
        architecture=v["encoder"], embed_dim=v["embed_dim"], seed=v["seed"]
    )
    data_config = {
        "data": {"kind": "mfcc", "split_ratio": v["split_ratio"], "split_seed": v["seed"]}
    }
    return _train_common(v, encoder_cfg, registry, val_registry, args.out, data_config)


def cmd_eval(args):
    def registry(data, v):
        # evaluation uses test-split samples of meta-test words only
        _, _, test_words = _word_split(args.manifest, data["split_ratio"], data["split_seed"])
        reg_test_split = registry_from_manifest(args.manifest, split="test")
        missing = [w for w in test_words if w not in reg_test_split.classes]
        if missing:
            _log(f"warning: {len(missing)} meta-test words have no test-split samples")
        return reg_test_split.subset([w for w in test_words if w in reg_test_split.classes])

    return _evaluate(args, EVAL_DEFAULTS, "mfcc", ("split_ratio", "split_seed"), registry)


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

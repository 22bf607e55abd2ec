"""Command-line entry point wiring data preparation, training, and evaluation.

Subcommands: prepare, train, eval, synth-train, synth-eval,
inspect-checkpoint, version. Flags override values from an optional JSON
config file (--config), which overrides built-in defaults. Exit codes:
0 success, 2 usage error, 1 runtime error. Diagnostics go to stderr;
``bayescl --verbose <command>`` adds the traceback of a runtime error.
"""

import argparse
import json
import multiprocessing
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
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
from .protocol import ProtocolConfig, emit_report, run_protocol
from .tensorio import read_tensors


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
    p.add_argument("--features-dir", help="base directory for relative feature paths")
    p.add_argument("--split-ratio", type=float, help="meta-train class fraction (default 0.7)")
    p.add_argument("--val-ratio", type=float, help="fraction of meta-train classes held out for validation (default 0.1)")
    _add_common_train_flags(p)

    p = sub.add_parser("eval", help="run the class-incremental protocol on prepared features")
    p.set_defaults(func=cmd_eval)
    p.add_argument("--manifest", required=True, help="feature manifest from prepare")
    p.add_argument("--features-dir", help="base directory for relative feature paths")
    p.add_argument("--split-ratio", type=float, help="meta-train class fraction (default 0.7)")
    p.add_argument("--split-seed", type=int, help="seed used for the train/test class split")
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
            file_values = json.load(fh)
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


TRAIN_DEFAULTS = {
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

SYNTH_TRAIN_DEFAULTS = dict(
    TRAIN_DEFAULTS,
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


_worker_mfcc = None  # (config, mfcc_matrices) inside a prepare worker process


def _init_extract_worker(config):
    global _worker_mfcc
    _worker_mfcc = (config, audio.mfcc_matrices(config))


def _worker_extract(job):
    _extract_one(job, *_worker_mfcc)


def _extract_one(job, config, matrices):
    wav_path, dump_path = job
    feats = audio.extract_mfcc(audio.load_wav(wav_path), config, matrices)
    audio.write_feature_dump(dump_path, feats.frames)


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
    for word in kept_words:
        (out_dir / word).mkdir(parents=True, exist_ok=True)

    jobs = []
    entries = []
    for rec in records:
        if rec["word"] not in kept_words:
            continue
        src = Path(rec["path"])
        if root is not None and not src.is_absolute():
            src = root / src
        dump = out_dir / rec["word"] / (src.stem + ".mfcc")
        entries.append({"word": rec["word"], "path": str(dump), "split": rec["split"]})
        if not dump.exists():  # idempotent re-runs reuse the cache
            jobs.append((str(src), str(dump)))
    config = audio.MfccConfig()
    if args.workers > 1 and jobs:
        with ProcessPoolExecutor(
            max_workers=args.workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_init_extract_worker,
            initargs=(config,),
        ) as pool:
            list(pool.map(_worker_extract, jobs))
    else:
        matrices = audio.mfcc_matrices(config)
        for job in jobs:
            _extract_one(job, config, matrices)

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


def cmd_synth_train(args):
    v = _merge_config(args, SYNTH_TRAIN_DEFAULTS)
    synth_cfg = SynthTaskConfig(
        latent_dim=v["latent_dim"], class_sep=v["class_sep"], within_std=v["within_std"]
    )
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
    data_config = {
        "data": {
            "kind": "synthetic",
            "latent_dim": v["latent_dim"],
            "class_sep": v["class_sep"],
            "within_std": v["within_std"],
            "samples_per_class": v["samples_per_class"],
        }
    }
    return _train_common(v, encoder_cfg, registry, val_registry, args.out, data_config)


def cmd_synth_eval(args):
    v = _merge_config(args, SYNTH_EVAL_DEFAULTS)
    params, prior, encoder_cfg, config = training.load_checkpoint(args.ckpt)
    data = config.get("data", {})
    if data.get("kind") != "synthetic":
        raise ValueError(f"{args.ckpt}: not a synthetic-task checkpoint; use 'eval'")
    synth_cfg = SynthTaskConfig(
        latent_dim=data["latent_dim"],
        class_sep=data["class_sep"],
        within_std=data["within_std"],
    )
    n_test = v["test_classes"] or v["max_classes"]
    per_class = v["samples_per_class"] or (v["shots"] + v["query_shots"])
    pcfg = _protocol_config(v)
    test_rng = np.random.default_rng(np.random.SeedSequence(v["seed"] + 1).spawn(1)[0])
    registry = synth_registry(synth_cfg, n_test, per_class, test_rng, prefix="test")
    matrix, report = run_protocol(params, prior, registry, pcfg)
    emit_report(report, matrix, args.out)
    _log(
        f"protocol done: accuracy {report.mean_accuracy[0]:.2f}% at "
        f"{report.checkpoints[0]} classes -> {report.mean_accuracy[-1]:.2f}% at "
        f"{report.checkpoints[-1]}; volatility {report.volatility_mean:.3f} "
        f"+/- {report.volatility_std:.3f}"
    )
    return 0


def _word_split(manifest, ratio, seed):
    reg_all = registry_from_manifest(manifest, split="train")
    words = reg_all.class_ids
    train_words, test_words = split_classes(words, ratio, seed)
    return reg_all, train_words, test_words


def cmd_train(args):
    v = _merge_config(args, TRAIN_DEFAULTS)
    ratio = args.split_ratio if args.split_ratio is not None else 0.7
    val_ratio = args.val_ratio if args.val_ratio is not None else 0.1
    reg_all, train_words, _ = _word_split(args.manifest, ratio, v["seed"])
    core_words, val_words = split_classes(train_words, 1.0 - val_ratio, v["seed"] + 1)
    registry = reg_all.subset(core_words)
    val_registry = reg_all.subset(val_words)
    encoder_cfg = EncoderConfig(
        architecture=v["encoder"], embed_dim=v["embed_dim"], seed=v["seed"]
    )
    data_config = {
        "data": {"kind": "mfcc", "split_ratio": ratio, "split_seed": v["seed"]}
    }
    return _train_common(v, encoder_cfg, registry, val_registry, args.out, data_config)


def cmd_eval(args):
    v = _merge_config(args, EVAL_DEFAULTS)
    params, prior, encoder_cfg, config = training.load_checkpoint(args.ckpt)
    data = config.get("data", {})
    if data.get("kind") != "mfcc":
        raise ValueError(f"{args.ckpt}: not an audio checkpoint; use 'synth-eval'")
    ratio = args.split_ratio if args.split_ratio is not None else data.get("split_ratio", 0.7)
    split_seed = args.split_seed if args.split_seed is not None else data.get("split_seed", 0)
    # evaluation uses test-split samples of meta-test words only
    reg_train_split, _, test_words = _word_split(args.manifest, ratio, split_seed)
    reg_test_split = registry_from_manifest(args.manifest, split="test")
    missing = [w for w in test_words if w not in reg_test_split.classes]
    if missing:
        _log(f"warning: {len(missing)} meta-test words have no test-split samples")
    usable = [w for w in test_words if w in reg_test_split.classes]
    registry = reg_test_split.subset(usable)
    pcfg = _protocol_config(v)
    matrix, report = run_protocol(params, prior, registry, pcfg)
    emit_report(report, matrix, args.out)
    _log(
        f"protocol done: mean accuracy {report.mean_accuracy[-1]:.2f}% at "
        f"{report.checkpoints[-1]} classes; reports in {args.out}"
    )
    return 0


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

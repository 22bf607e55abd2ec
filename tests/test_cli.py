import json
import math
import wave

import numpy as np
import pytest

from bayescl import __version__, audio
from bayescl.cli import main
from bayescl.tensorio import read_tensors


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version_prints_and_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "version")
    assert code == 0
    assert out.strip() == __version__


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "synth-train", "--does-not-exist", "1", "--out", "x")
    assert code == 2


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


@pytest.mark.parametrize("cmd", ["train", "eval"])
def test_train_and_eval_take_no_features_dir(capsys, cmd):
    # their manifest holds the paths prepare wrote, so there is nothing to prefix
    required = ["--manifest", "m.jsonl", "--out", "x"] + (["--ckpt", "c"] if cmd == "eval" else [])
    code, _, _ = run_cli(capsys, cmd, *required, "--features-dir", "x")
    assert code == 2


@pytest.mark.parametrize(
    "cmd",
    ["prepare", "train", "eval", "synth-train", "synth-eval", "inspect-checkpoint"],
)
def test_help_documents_every_subcommand(capsys, cmd):
    code, out, _ = run_cli(capsys, cmd, "--help")
    assert code == 0
    assert "--" in out  # flags are listed


def synth_pipeline(tmp_path, capsys, seed="1"):
    tmp_path.mkdir(parents=True, exist_ok=True)
    ckpt = tmp_path / "ckpt"
    report = tmp_path / "report"
    code, _, err = run_cli(
        capsys,
        "synth-train",
        "--steps", "40", "--ways", "5", "--shots", "5", "--seed", seed,
        "--classes", "20", "--val-classes", "8", "--embed-dim", "16",
        "--validation-every", "20",
        "--out", str(ckpt),
    )
    assert code == 0, err
    code, _, err = run_cli(
        capsys,
        "synth-eval",
        "--ckpt", str(ckpt), "--max-classes", "50", "--increment", "25",
        "--episodes", "2", "--seed", seed, "--out", str(report),
    )
    assert code == 0, err
    return ckpt, report


def test_synth_train_then_eval_smoke(tmp_path, capsys):
    ckpt, report = synth_pipeline(tmp_path, capsys)
    curve = (report / "curve.csv").read_text().splitlines()
    assert curve[0] == "checkpoint_classes,mean_accuracy,ci_low,ci_high"
    assert len(curve) == 3  # two checkpoints
    assert (report / "per_word.csv").exists()
    assert (report / "volatility.csv").exists()
    assert (report / "summary.json").exists()
    assert (str(ckpt) + ".log.csv") and (tmp_path / "ckpt.log.csv").exists()
    # the best-validation checkpoint carries the data header, so it evaluates too
    code, _, err = run_cli(
        capsys,
        "synth-eval",
        "--ckpt", str(ckpt) + ".best", "--max-classes", "25", "--increment", "25",
        "--episodes", "1", "--out", str(tmp_path / "best_report"),
    )
    assert code == 0, err


def test_seeded_pipeline_outputs_are_byte_identical(tmp_path, capsys):
    ckpt1, rep1 = synth_pipeline(tmp_path / "a", capsys)
    ckpt2, rep2 = synth_pipeline(tmp_path / "b", capsys)
    for suffix in ("", ".best", ".log.csv"):
        assert (
            (ckpt1.parent / (ckpt1.name + suffix)).read_bytes()
            == (ckpt2.parent / (ckpt2.name + suffix)).read_bytes()
        )
    for name in ("curve.csv", "volatility.csv", "per_word.csv"):
        assert (rep1 / name).read_bytes() == (rep2 / name).read_bytes()


def test_inspect_checkpoint(tmp_path, capsys):
    ckpt, _ = synth_pipeline(tmp_path, capsys)
    code, out, _ = run_cli(capsys, "inspect-checkpoint", "--ckpt", str(ckpt))
    assert code == 0
    info = json.loads(out)
    assert info["config"]["kind"] == "meta-checkpoint"
    assert any(t["name"] == "rho_alpha" for t in info["tensors"])
    _, tensors = read_tensors(ckpt)
    rho_alpha, rho_beta = float(tensors["rho_alpha"]), float(tensors["rho_beta"])
    assert info["prior"] == {
        "rho_alpha": rho_alpha,
        "rho_beta": rho_beta,
        "alpha0": math.exp(rho_alpha),
        "beta0": math.exp(rho_beta),
    }
    assert info["prior"]["alpha0"] != 1.0  # training moved rho_alpha off 0


def test_eval_rejects_wrong_checkpoint_kind(tmp_path, capsys):
    ckpt, _ = synth_pipeline(tmp_path, capsys)
    code, _, err = run_cli(
        capsys, "eval", "--ckpt", str(ckpt), "--manifest", "none.jsonl", "--out", str(tmp_path / "r")
    )
    assert code == 1
    assert "synth-eval" in err


def test_synth_eval_names_a_checkpoint_whose_data_header_is_damaged(tmp_path, capsys):
    ckpt = tmp_path / "ck"
    code, _, err = run_cli(
        capsys, "synth-train", "--steps", "1", "--ways", "4", "--classes", "8", "--val-classes", "4",
        "--embed-dim", "8", "--out", str(ckpt),
    )
    assert code == 0, err
    blob = ckpt.read_bytes()
    assert blob.count(b'"latent_dim"') == 1
    ckpt.write_bytes(blob.replace(b'"latent_dim"', b'"latent_dix"'))
    code, _, err = run_cli(
        capsys, "synth-eval", "--ckpt", str(ckpt), "--max-classes", "10", "--increment", "5",
        "--episodes", "1", "--out", str(tmp_path / "report"),
    )
    assert code == 1
    last = err.strip().splitlines()[-1]
    assert last.startswith(f"error: {ckpt}: ") and "latent_dim" in last
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--validation-every", "0", "validation_every"),
        ("--learning-rate", "nan", "learning_rate"),
        ("--learning-rate", "inf", "learning_rate"),
        ("--learning-rate", "-1", "learning_rate"),
        ("--learning-rate", "0", "learning_rate"),
    ],
)
def test_bad_training_setting_fails_before_training(tmp_path, capsys, flag, value, field):
    ckpt = tmp_path / "ck"
    code, _, err = run_cli(
        capsys, "synth-train", "--steps", "3", "--ways", "4", "--classes", "8",
        "--val-classes", "4", "--embed-dim", "8", flag, value, "--out", str(ckpt),
    )
    assert code == 1
    last = err.strip().splitlines()[-1]
    assert last.startswith(f"error: {field} must be ")
    assert list(tmp_path.iterdir()) == []


def test_synth_train_rejects_an_attention_encoder(tmp_path, capsys):
    # synthetic samples are vectors, so an attention-mlp would train a plain MLP
    code, _, err = run_cli(
        capsys, "synth-train", "--steps", "3", "--ways", "4", "--classes", "8",
        "--val-classes", "4", "--embed-dim", "8", "--encoder", "attention-mlp",
        "--out", str(tmp_path / "ck"),
    )
    assert code == 1
    last = err.strip().splitlines()[-1]
    assert last.startswith("error: architecture 'attention-mlp'") and "vector_input" in last
    assert list(tmp_path.iterdir()) == []


def test_config_file_provides_defaults_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 10, "ways": 4, "classes": 12, "val_classes": 4}))
    ckpt = tmp_path / "ck"
    code, _, err = run_cli(
        capsys,
        "synth-train", "--config", str(cfg), "--steps", "5",
        "--shots", "2", "--query-shots", "2", "--embed-dim", "8",
        "--seed", "3", "--out", str(ckpt),
    )
    assert code == 0, err
    log = (tmp_path / "ck.log.csv").read_text().splitlines()
    assert len(log) == 1 + 5  # flag wins over config file's 10 steps

    code, _, err = run_cli(
        capsys,
        "synth-train", "--config", str(cfg),
        "--shots", "2", "--query-shots", "2", "--embed-dim", "8",
        "--seed", "3", "--out", str(ckpt),
    )
    assert code == 0, err
    log = (tmp_path / "ck.log.csv").read_text().splitlines()
    assert len(log) == 1 + 10  # config file wins over the built-in default

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nonsense": 1}))
    code, _, err = run_cli(
        capsys, "synth-train", "--config", str(bad), "--out", str(ckpt)
    )
    assert code == 1
    assert "unknown config keys" in err


@pytest.mark.parametrize(
    "text, message",
    [('{"steps": 1,', "not valid JSON"), ("[1, 2]", "not a JSON object")],
)
def test_unreadable_config_file_is_named(tmp_path, capsys, text, message):
    cfg = tmp_path / "c.json"
    cfg.write_text(text)
    code, _, err = run_cli(
        capsys, "synth-train", "--config", str(cfg), "--out", str(tmp_path / "ck")
    )
    assert code == 1
    assert err.strip().startswith(f"error: {cfg}: {message}")
    assert not (tmp_path / "ck").exists()


# --- real-audio pipeline ----------------------------------------------------


def make_tone_wav(path, freq, seconds=0.6, amplitude=0.3, noise=0.01, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(int(16000 * seconds)) / 16000.0
    sig = amplitude * np.sin(2 * np.pi * freq * t)
    sig += noise * rng.normal(size=t.size)
    data = np.clip(sig * 32767, -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(16000)
        fh.writeframes(data.tobytes())


@pytest.fixture(scope="module")
def wav_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("wavs")
    words = {f"tone{i}": 300.0 * (i + 1) for i in range(8)}
    rows = []
    for i, (word, freq) in enumerate(words.items()):
        (root / word).mkdir()
        for j in range(8):
            name = f"{word}/{j}.wav"
            make_tone_wav(root / name, freq, seed=[i, j])
            split = "train" if j < 5 else "test"
            rows.append({"word": word, "path": name, "split": split})
    # one word with too few samples: must be rejected by prepare
    (root / "rare").mkdir()
    make_tone_wav(root / "rare/0.wav", 2500.0)
    for j in range(3):
        rows.append({"word": "rare", "path": "rare/0.wav", "split": "train"})
    manifest = root / "manifest.jsonl"
    manifest.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return root, manifest


def test_prepare_extracts_and_rejects_short_words(tmp_path, capsys, wav_dataset):
    root, manifest = wav_dataset
    feat = tmp_path / "features"
    code, _, err = run_cli(
        capsys,
        "prepare", "--manifest", str(manifest), "--audio-root", str(root),
        "--features-dir", str(feat), "--shots", "3", "--query-shots", "2",
    )
    assert code == 0, err
    assert "rejecting word 'rare'" in err
    out_manifest = feat / "features.jsonl"
    entries = [json.loads(l) for l in out_manifest.read_text().splitlines()]
    assert not any(e["word"] == "rare" for e in entries)
    assert len(entries) == 8 * 8
    # idempotent: second run reuses the cache
    before = sorted(p.stat().st_mtime_ns for p in feat.rglob("*.mfcc"))
    code, _, err = run_cli(
        capsys,
        "prepare", "--manifest", str(manifest), "--audio-root", str(root),
        "--features-dir", str(feat), "--shots", "3", "--query-shots", "2",
    )
    assert code == 0
    assert "64 cached" in err
    after = sorted(p.stat().st_mtime_ns for p in feat.rglob("*.mfcc"))
    assert before == after


def test_prepare_builds_the_mfcc_matrices_once(tmp_path, capsys, wav_dataset, monkeypatch):
    root, manifest = wav_dataset
    built = []
    for name in ("mel_filterbank", "dct_matrix"):
        fn = getattr(audio, name)
        monkeypatch.setattr(audio, name, lambda *a, fn=fn, name=name: built.append(name) or fn(*a))
    code, _, err = run_cli(
        capsys,
        "prepare", "--manifest", str(manifest), "--audio-root", str(root),
        "--features-dir", str(tmp_path / "features"), "--shots", "3", "--query-shots", "2",
    )
    assert code == 0, err
    assert "64 extracted" in err
    assert sorted(built) == ["dct_matrix", "mel_filterbank"]


def test_prepare_with_workers_writes_the_same_dumps(tmp_path, capsys, wav_dataset):
    root, manifest = wav_dataset
    dumps = {}
    for workers in ("1", "2"):
        feat = tmp_path / f"features-{workers}"
        code, _, err = run_cli(
            capsys,
            "prepare", "--manifest", str(manifest), "--audio-root", str(root),
            "--features-dir", str(feat), "--shots", "3", "--query-shots", "2",
            "--workers", workers,
        )
        assert code == 0, err
        assert "64 extracted" in err
        dumps[workers] = {
            str(p.relative_to(feat)): p.read_bytes() for p in sorted(feat.rglob("*.mfcc"))
        }
    assert len(dumps["1"]) == 64
    assert dumps["1"] == dumps["2"]


def test_prepare_rerun_with_every_dump_cached_starts_no_pool(
    tmp_path, capsys, wav_dataset, monkeypatch
):
    from bayescl import pool

    root, manifest = wav_dataset
    argv = (
        "prepare", "--manifest", str(manifest), "--audio-root", str(root),
        "--features-dir", str(tmp_path / "features"), "--shots", "3", "--query-shots", "2",
        "--workers", "2",
    )
    code, _, err = run_cli(capsys, *argv[:-2])
    assert code == 0, err

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(pool, "ProcessPoolExecutor", no_pool)
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert "(0 extracted, 64 cached)" in err


def test_prepare_rejects_clips_that_would_share_a_dump(tmp_path, capsys):
    rows = []
    for split in ("train", "test"):
        (tmp_path / "cat" / split).mkdir(parents=True)
        make_tone_wav(tmp_path / "cat" / split / "0.wav", 440.0)
        rows.append({"word": "cat", "path": f"cat/{split}/0.wav", "split": split})
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    feat = tmp_path / "features"
    code, _, err = run_cli(
        capsys, "prepare", "--manifest", str(manifest), "--audio-root", str(tmp_path),
        "--features-dir", str(feat), "--shots", "1", "--query-shots", "1",
    )
    assert code == 1
    assert str(tmp_path / "cat/train/0.wav") in err and str(tmp_path / "cat/test/0.wav") in err
    assert not (feat / "features.jsonl").exists()
    assert not list(feat.rglob("*.mfcc"))


def test_real_train_and_eval_pipeline(tmp_path, capsys, wav_dataset):
    root, manifest = wav_dataset
    feat = tmp_path / "features"
    code, _, err = run_cli(
        capsys,
        "prepare", "--manifest", str(manifest), "--audio-root", str(root),
        "--features-dir", str(feat), "--shots", "2", "--query-shots", "2",
    )
    assert code == 0, err
    ckpt = tmp_path / "ck"
    code, _, err = run_cli(
        capsys,
        "train", "--manifest", str(feat / "features.jsonl"),
        "--steps", "12", "--ways", "2", "--shots", "2", "--query-shots", "2",
        "--batch-episodes", "2", "--embed-dim", "8", "--seed", "0",
        "--split-ratio", "0.75", "--val-ratio", "0.34",
        "--validation-every", "6", "--out", str(ckpt),
    )
    assert code == 0, err
    report = tmp_path / "report"
    code, _, err = run_cli(
        capsys,
        "eval", "--ckpt", str(ckpt), "--manifest", str(feat / "features.jsonl"),
        "--increment", "1", "--max-classes", "2", "--episodes", "2",
        "--shots", "2", "--query-shots", "1", "--seed", "0", "--out", str(report),
    )
    assert code == 0, err
    curve = (report / "curve.csv").read_text().splitlines()
    assert len(curve) == 3


def test_truncated_dump_fails_train_and_eval_before_any_step(tmp_path, capsys, wav_dataset):
    root, manifest = wav_dataset
    feat = tmp_path / "features"
    code, _, err = run_cli(
        capsys,
        "prepare", "--manifest", str(manifest), "--audio-root", str(root),
        "--features-dir", str(feat), "--shots", "2", "--query-shots", "2",
    )
    assert code == 0, err
    features = str(feat / "features.jsonl")
    train_args = (
        "train", "--manifest", features, "--steps", "2", "--ways", "2", "--shots", "2",
        "--query-shots", "2", "--batch-episodes", "1", "--embed-dim", "8",
        "--split-ratio", "0.75", "--val-ratio", "0.34", "--validation-every", "2",
    )
    ckpt = tmp_path / "ck"
    code, _, err = run_cli(capsys, *train_args, "--out", str(ckpt))
    assert code == 0, err

    # clip 0 of every word is in the train split, clip 7 in the test split
    truncated = sorted(feat.glob("*/0.mfcc")) + sorted(feat.glob("*/7.mfcc"))
    for path in truncated:
        path.write_bytes(path.read_bytes()[:40])
    eval_args = (
        "eval", "--ckpt", str(ckpt), "--manifest", features, "--increment", "1",
        "--max-classes", "2", "--episodes", "1", "--shots", "2", "--query-shots", "1",
        "--out", str(tmp_path / "report"),
    )
    for args in ((*train_args, "--out", str(tmp_path / "ck2")), eval_args):
        code, _, err = run_cli(capsys, "--verbose", *args)
        assert code == 1
        last = err.strip().splitlines()[-1]
        assert last.startswith("error: ") and last.endswith(": truncated feature dump")
        assert last[len("error: ") : -len(": truncated feature dump")] in map(str, truncated)
        assert "bayescl.audio.AudioFormatError" in err
    assert not (tmp_path / "ck2").exists()
    assert not (tmp_path / "report").exists()


def test_prepare_names_a_clip_shorter_than_one_frame(tmp_path, capsys):
    rows = []
    for j in range(4):
        make_tone_wav(tmp_path / f"{j}.wav", 440.0, seed=j)
        rows.append({"word": "tone", "path": str(tmp_path / f"{j}.wav"), "split": "train"})
    short = tmp_path / "short.wav"
    make_tone_wav(short, 440.0, seconds=100 / 16000)
    rows.append({"word": "tone", "path": str(short), "split": "test"})
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
    code, _, err = run_cli(
        capsys, "--verbose", "prepare", "--manifest", str(manifest),
        "--features-dir", str(tmp_path / "features"), "--shots", "2", "--query-shots", "2",
    )
    assert code == 1
    last = err.strip().splitlines()[-1]
    assert last == f"error: {short}: clip has 100 samples, shorter than one frame (400)"
    assert "bayescl.audio.AudioFormatError" in err
    assert not (tmp_path / "features" / "features.jsonl").exists()


def test_eval_takes_its_split_from_the_checkpoint(capsys):
    required = ["eval", "--manifest", "m.jsonl", "--ckpt", "c", "--out", "x"]
    for flag, value in (("--split-ratio", "0.5"), ("--split-seed", "3")):
        code, _, _ = run_cli(capsys, *required, flag, value)
        assert code == 2


def test_eval_rejects_zero_workers_before_reading_anything(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--manifest", "m.jsonl", "--ckpt", "c", "--out", "x", "--workers", "0"
    )
    assert code == 1
    assert err.strip().splitlines()[-1] == "error: workers must be >= 1, got 0"


def test_train_on_a_raw_wav_manifest_names_a_wav(tmp_path, capsys, wav_dataset):
    root, manifest = wav_dataset
    rows = [json.loads(line) for line in manifest.read_text().splitlines()]
    wav_manifest = tmp_path / "wavs.jsonl"
    wav_manifest.write_text(
        "".join(json.dumps(dict(r, path=str(root / r["path"]))) + "\n" for r in rows)
    )
    code, _, err = run_cli(
        capsys, "train", "--manifest", str(wav_manifest), "--steps", "2", "--ways", "2",
        "--shots", "2", "--query-shots", "2", "--embed-dim", "8",
        "--split-ratio", "0.75", "--val-ratio", "0.34", "--out", str(tmp_path / "ck"),
    )
    assert code == 1
    last = err.strip().splitlines()[-1]
    assert last.startswith(f"error: {root}") and last.endswith(".wav: not a feature dump (bad magic)")
    assert not (tmp_path / "ck").exists()


def test_runtime_error_is_one_line_without_verbose(tmp_path, capsys):
    missing = str(tmp_path / "missing")
    code, out, err = run_cli(capsys, "inspect-checkpoint", "--ckpt", missing)
    assert code == 1 and out == ""
    assert err.splitlines() == [err.strip()]
    assert err.startswith("error: ") and missing in err


def test_verbose_prints_the_traceback(tmp_path, capsys):
    missing = str(tmp_path / "missing")
    code, _, err = run_cli(capsys, "--verbose", "inspect-checkpoint", "--ckpt", missing)
    assert code == 1
    lines = err.strip().splitlines()
    assert lines[0] == "Traceback (most recent call last):"
    assert "FileNotFoundError" in err
    assert lines[-1].startswith("error: ") and missing in lines[-1]

import json
import wave

import numpy as np
import pytest

from bayescl import __version__
from bayescl.cli import main


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


def test_eval_rejects_wrong_checkpoint_kind(tmp_path, capsys):
    ckpt, _ = synth_pipeline(tmp_path, capsys)
    code, _, err = run_cli(
        capsys, "eval", "--ckpt", str(ckpt), "--manifest", "none.jsonl", "--out", str(tmp_path / "r")
    )
    assert code == 1
    assert "synth-eval" in err


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
    for word, freq in words.items():
        (root / word).mkdir()
        for j in range(8):
            name = f"{word}/{j}.wav"
            make_tone_wav(root / name, freq, seed=hash((word, j)) % 2**32)
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

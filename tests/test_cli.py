import dataclasses
import json
import math
import struct
import wave

import numpy as np
import pytest

from bayescl import __version__, audio
from bayescl.cli import OPTIONS, main
from bayescl.episodes import SynthTaskConfig
from bayescl.protocol import ProtocolConfig
from bayescl.tensorio import read_tensors
from test_malformed_inputs import rewrite_tensor


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


@pytest.mark.parametrize("tensor", ["mlp.0.w", "rho_alpha"])
def test_synth_eval_names_a_checkpoint_tensor_that_is_not_finite(tmp_path, capsys, tensor):
    ckpt = tmp_path / "ck"
    code, _, err = run_cli(
        capsys, "synth-train", "--steps", "1", "--ways", "4", "--classes", "8", "--val-classes", "4",
        "--embed-dim", "8", "--out", str(ckpt),
    )
    assert code == 0, err
    rewrite_tensor(ckpt, tensor, np.nan)  # with the CRCs of the NaN payload
    code, _, err = run_cli(
        capsys, "synth-eval", "--ckpt", str(ckpt), "--max-classes", "10", "--increment", "5",
        "--episodes", "1", "--out", str(tmp_path / "report"),
    )
    assert code == 1
    last = err.strip().splitlines()[-1]
    assert last == f"error: {ckpt}: non-finite value in tensor {tensor!r}"
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--validation-every", "0", "validation_every"),
        ("--learning-rate", "nan", "learning_rate"),
        ("--learning-rate", "inf", "learning_rate"),
        ("--learning-rate", "-1", "learning_rate"),
        ("--learning-rate", "0", "learning_rate"),
        ("--latent-dim", "0", "latent_dim"),
        ("--class-sep", "inf", "class_sep"),
        ("--class-sep", "nan", "class_sep"),
        ("--class-sep", "0", "class_sep"),
        ("--within-std", "nan", "within_std"),
        ("--within-std", "-1", "within_std"),
        ("--samples-per-class", "0", "samples_per_class"),
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


@pytest.mark.parametrize(
    "values, message",
    [
        ({"steps": "5"}, "steps: expected int, got str"),
        ({"steps": True}, "steps: expected int, got bool"),
        ({"steps": 5.0}, "steps: expected int, got float"),
        ({"steps": None}, "steps: expected int, got null"),
        # a JSON int has no size limit, a float does
        ({"learning_rate": 10**400}, "learning_rate: int too large to convert to float"),
        # one encoder architecture is left, so no option chooses it
        ({"encoder": "stats-mlp"}, "unknown config keys ['encoder']"),
        ({"split_ratio": "0.5"}, "split_ratio: expected float, got str"),
    ],
)
def test_config_value_of_the_wrong_type_fails_before_writing(tmp_path, capsys, values, message):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(values))
    out = tmp_path / "out"
    out.mkdir()
    code, _, err = run_cli(
        capsys, "train", "--manifest", str(tmp_path / "m.jsonl"), "--config", str(cfg),
        "--out", str(out / "ck"),
    )
    assert code == 1
    assert err.strip().splitlines()[-1] == f"error: {cfg}: {message}"
    assert list(out.iterdir()) == []


def test_config_int_for_a_float_writes_the_bytes_of_the_flag(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"class_sep": 3}))
    small = ("--steps", "4", "--ways", "4", "--classes", "8", "--val-classes", "4",
             "--embed-dim", "8", "--validation-every", "2")
    for name, flags in (("flag", ("--class-sep", "3")), ("file", ("--config", str(cfg)))):
        code, _, err = run_cli(capsys, "synth-train", *small, *flags, "--out", str(tmp_path / name))
        assert code == 0, err
    assert read_tensors(tmp_path / "file")[0]["data"]["class_sep"] == 3.0
    for suffix in ("", ".best", ".log.csv"):
        flag_bytes = (tmp_path / f"flag{suffix}").read_bytes()
        assert flag_bytes == (tmp_path / f"file{suffix}").read_bytes(), suffix


def test_synth_eval_takes_null_where_the_default_is_none(tmp_path, capsys):
    ckpt, report = synth_pipeline(tmp_path, capsys)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"test_classes": None, "samples_per_class": None}))
    code, _, err = run_cli(
        capsys, "synth-eval", "--ckpt", str(ckpt), "--max-classes", "50", "--increment", "25",
        "--episodes", "2", "--seed", "1", "--config", str(cfg), "--out", str(tmp_path / "null"),
    )
    assert code == 0, err
    for name in ("curve.csv", "volatility.csv", "per_word.csv"):
        assert (report / name).read_bytes() == (tmp_path / "null" / name).read_bytes()


@pytest.mark.parametrize("flag, field", [
    ("--test-classes", "test_classes"), ("--samples-per-class", "samples_per_class"),
])
def test_synth_eval_rejects_a_zero_count_before_reading_anything(tmp_path, capsys, flag, field):
    code, _, err = run_cli(
        capsys, "synth-eval", "--ckpt", str(tmp_path / "missing"), flag, "0",
        "--out", str(tmp_path / "report"),
    )
    assert code == 1
    assert err.strip().splitlines()[-1] == f"error: {field} must be >= 1, got 0"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("source", ["flag", "config"])
def test_synth_eval_fewer_test_classes_than_max_classes_fails_before_reading(
    tmp_path, capsys, source
):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"test_classes": 10}))
    test_classes = ["--test-classes", "10"] if source == "flag" else ["--config", str(cfg)]
    code, _, err = run_cli(
        capsys, "synth-eval", "--ckpt", str(tmp_path / "missing"), *test_classes,
        "--max-classes", "50", "--out", str(tmp_path / "report"),
    )
    assert code == 1
    assert err.strip().splitlines()[-1] == (
        "error: test_classes must be >= max_classes, got 10 < 50"
    )
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("cmd", ["train", "eval", "synth-train", "synth-eval"])
def test_negative_seed_fails_naming_it_before_anything_is_read(tmp_path, capsys, cmd, source):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": -1}))
    # inputs that do not exist: reading any of them would fail otherwise
    inputs = [] if cmd.startswith("synth-") else ["--manifest", str(tmp_path / "m.jsonl")]
    if cmd.endswith("eval"):
        inputs += ["--ckpt", str(tmp_path / "ck")]
    seed = ["--seed", "-1"] if source == "flag" else ["--config", str(cfg)]
    code, _, err = run_cli(capsys, cmd, *inputs, *seed, "--out", str(tmp_path / "out"))
    assert code == 1
    assert err.strip().splitlines()[-1] == "error: seed must be >= 0, got -1"
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("flags, message", [
    (("--val-ratio", "0"), "val_ratio must be strictly between 0 and 1, got 0.0"),
    (("--val-ratio", "1.5"), "val_ratio must be strictly between 0 and 1, got 1.5"),
    (("--split-ratio", "1"), "split_ratio must be strictly between 0 and 1, got 1.0"),
    (("--split-ratio", "nan"), "split_ratio must be strictly between 0 and 1, got nan"),
    ({"val_ratio": -0.25}, "val_ratio must be strictly between 0 and 1, got -0.25"),
], ids=["val-zero", "val-above-one", "split-one", "split-nan", "val-in-config"])
def test_train_ratio_outside_zero_and_one_fails_before_reading(tmp_path, capsys, flags, message):
    if isinstance(flags, dict):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(flags))
        flags = ("--config", str(cfg))
    code, _, err = run_cli(
        capsys, "train", "--manifest", str(tmp_path / "m.jsonl"), *flags,
        "--out", str(tmp_path / "ck"),
    )
    assert code == 1
    assert err.strip().splitlines()[-1] == f"error: {message}"
    assert not (tmp_path / "ck").exists()


@pytest.mark.parametrize("flags, message", [
    (("--steps", "0"), "steps must be >= 1"),
    (("--embed-dim", "0"), "embed_dim must be >= 1"),
    (("--ways", "1"), "an episode needs at least 2 ways"),
], ids=["steps", "embed-dim", "ways"])
def test_train_bad_setting_fails_before_the_manifest_is_read(tmp_path, capsys, flags, message):
    code, _, err = run_cli(
        capsys, "train", "--manifest", str(tmp_path / "missing.jsonl"), *flags,
        "--out", str(tmp_path / "ck"),
    )
    assert code == 1
    assert err.strip().splitlines()[-1] == f"error: {message}"
    assert list(tmp_path.iterdir()) == []


def test_option_tables_match_the_config_dataclasses():
    protocol_fields = [f.name for f in dataclasses.fields(ProtocolConfig)]
    assert [o.name for o in OPTIONS["eval"]] == protocol_fields
    assert set(protocol_fields) <= {o.name for o in OPTIONS["synth-eval"]}
    synth_fields = {f.name for f in dataclasses.fields(SynthTaskConfig)}
    assert synth_fields <= {o.name for o in OPTIONS["synth-train"]}
    for options in OPTIONS.values():
        assert len({o.name for o in options}) == len(options)
        for o in options:
            checked = o.check("defaults", o.default)
            assert checked == o.default and type(checked) is type(o.default), o


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


def test_prepare_on_a_nan_wav_names_it_and_removes_what_it_made(tmp_path, capsys):
    # a 32-bit float clip with one NaN sample, after a good clip of the same word
    make_tone_wav(tmp_path / "good.wav", 440.0)
    data = np.full(8000, 0.1, dtype="<f4")
    data[4000] = np.nan
    fmt = struct.pack("<HHIIHH", 3, 1, 16000, 64000, 4, 32)
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", data.nbytes) + data.tobytes()
    bad = tmp_path / "nan.wav"
    bad.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("".join(json.dumps({"word": "cat", "path": name, "split": "train"}) + "\n"
                                for name in ("good.wav", "nan.wav")))
    code, _, err = run_cli(
        capsys, "prepare", "--manifest", str(manifest), "--audio-root", str(tmp_path),
        "--features-dir", str(tmp_path / "out" / "features"), "--shots", "1", "--query-shots", "1",
    )
    assert code == 1
    last = err.strip().splitlines()[-1]
    assert last == f"error: {bad}: float samples must be finite and within [-1, 1]"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["good.wav", "manifest.jsonl", "nan.wav"]


def test_prepare_with_no_word_kept_creates_no_features_dir(tmp_path, capsys, wav_dataset):
    root, manifest = wav_dataset
    feat = tmp_path / "features"
    code, _, err = run_cli(
        capsys,
        "prepare", "--manifest", str(manifest), "--audio-root", str(root),
        "--features-dir", str(feat), "--shots", "5", "--query-shots", "5",
    )
    assert code == 1
    lines = err.strip().splitlines()
    # one rejection per word, in manifest order, then the error
    assert lines[:-1] == [f"rejecting word {w!r}: {n} samples < 10 required"
                          for w, n in [*((f"tone{i}", 8) for i in range(8)), ("rare", 3)]]
    assert lines[-1] == "error: no word has enough samples for the requested shots"
    assert not feat.exists()


def tree(path):
    """Every directory and file under ``path``: relative path -> bytes (None for a directory)."""
    return {
        str(p.relative_to(path)): None if p.is_dir() else p.read_bytes() for p in path.rglob("*")
    }


@pytest.mark.parametrize("workers", ["1", "2"])
def test_failed_prepare_removes_the_directories_it_made(tmp_path, capsys, workers):
    # 50 clips over 5 words, none of them on disk
    rows = [{"word": f"w{i}", "path": f"w{i}/{j}.wav", "split": "train"}
            for i in range(5) for j in range(10)]
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
    code, _, err = run_cli(
        capsys, "prepare", "--manifest", str(manifest), "--audio-root", str(tmp_path / "audio"),
        "--features-dir", str(tmp_path / "out" / "features"), "--workers", workers,
    )
    assert code == 1
    missing = tmp_path / "audio" / "w0" / "0.wav"
    assert err.strip().splitlines()[-1] == f"error: [Errno 2] No such file or directory: '{missing}'"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.jsonl"]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_failed_prepare_keeps_what_an_earlier_run_made(tmp_path, capsys, wav_dataset, workers):
    root, manifest = wav_dataset
    feat = tmp_path / "features"
    argv = ["prepare", "--audio-root", str(root), "--features-dir", str(feat),
            "--shots", "3", "--query-shots", "2", "--workers", workers]
    code, _, err = run_cli(capsys, *argv, "--manifest", str(manifest))
    assert code == 0, err
    before = tree(feat)
    # five more clips for a prepared word and for a new one: the first is
    # extracted, the other four are not on disk
    make_tone_wav(tmp_path / "new.wav", 700.0)
    extra = [(word, str(tmp_path / name)) for word in ("tone0", "ghost")
             for name in ("new.wav", "a.wav", "b.wav", "c.wav", "d.wav")]
    grown = tmp_path / "grown.jsonl"
    grown.write_text(manifest.read_text() + "".join(
        json.dumps({"word": word, "path": path, "split": "train"}) + "\n" for word, path in extra
    ))
    code, _, err = run_cli(capsys, *argv, "--manifest", str(grown))
    assert code == 1
    assert err.strip().splitlines()[-1].startswith("error: [Errno 2] No such file or directory")
    assert tree(feat) == before


@pytest.mark.parametrize("flag, value", [
    ("--shots", "-5"), ("--query-shots", "0"), ("--workers", "0"),
])
def test_prepare_count_below_one_fails_before_reading_or_creating(
    tmp_path, capsys, wav_dataset, flag, value
):
    root, manifest = wav_dataset
    feat = tmp_path / "features"
    code, _, err = run_cli(
        capsys,
        "prepare", "--manifest", str(manifest), "--audio-root", str(root),
        "--features-dir", str(feat), flag, value,
    )
    assert code == 1
    field = flag[2:].replace("-", "_")
    assert err.strip().splitlines()[-1] == f"error: {field} must be >= 1, got {value}"
    assert list(tmp_path.iterdir()) == []


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


def test_train_takes_its_split_ratios_from_a_config_file(tmp_path, capsys, wav_dataset):
    root, manifest = wav_dataset
    feat = tmp_path / "features"
    code, _, err = run_cli(
        capsys,
        "prepare", "--manifest", str(manifest), "--audio-root", str(root),
        "--features-dir", str(feat), "--shots", "2", "--query-shots", "2",
    )
    assert code == 0, err
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"split_ratio": 0.5, "val_ratio": 0.5}))

    def train(name, *flags):
        code, _, err = run_cli(
            capsys,
            "train", "--manifest", str(feat / "features.jsonl"), "--steps", "2",
            "--ways", "2", "--shots", "2", "--query-shots", "2", "--batch-episodes", "1",
            "--embed-dim", "8", *flags, "--out", str(tmp_path / name),
        )
        assert code == 0, err
        return read_tensors(tmp_path / name)[0]["data"]

    by_flag = train("flag", "--split-ratio", "0.5", "--val-ratio", "0.5")
    by_file = train("file", "--config", str(cfg))
    assert by_flag == by_file == {"kind": "mfcc", "split_ratio": 0.5, "split_seed": 0}
    # the same validation words, so the same log and best parameters
    for suffix in ("", ".best", ".log.csv"):
        flag_bytes = (tmp_path / f"flag{suffix}").read_bytes()
        assert flag_bytes == (tmp_path / f"file{suffix}").read_bytes(), suffix
    assert train("both", "--config", str(cfg), "--split-ratio", "0.75")["split_ratio"] == 0.75


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
    # episodes run in one process: the eval commands take no --workers
    required = {"eval": ["--manifest", "m.jsonl"], "synth-eval": []}
    for cmd, args in required.items():
        for workers in ("0", "2"):
            code, _, err = run_cli(capsys, cmd, *args, "--ckpt", "c", "--out", "x",
                                   "--workers", workers)
            assert code == 2
            assert "unrecognized arguments: --workers" in err


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

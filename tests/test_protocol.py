import csv
import dataclasses
import threading

import numpy as np
import pytest

from bayescl import audio
from bayescl import encoder as E
from bayescl import episodes as Ep
from bayescl import protocol as P
from bayescl import training as T
from bayescl.head import HeadState, PriorParams, class_scores


def tiny_model(latent_dim=6, seed=0):
    cfg = E.EncoderConfig(
        embed_dim=8, hidden_dims=(8,), feature_dim=latent_dim, vector_input=True, seed=seed
    )
    params = dict(E.init_params(cfg))
    params["rho_alpha"] = np.asarray(0.0)
    params["rho_beta"] = np.asarray(0.0)
    return params, PriorParams(0.0, 0.0)


def tiny_registry(n_classes, per_class=8, latent_dim=6, sep=12.0, seed=0):
    synth = Ep.SynthTaskConfig(latent_dim=latent_dim, class_sep=sep, within_std=1.0)
    return Ep.synth_registry(synth, n_classes, per_class, np.random.default_rng(seed), "w")


class TestProtocolConfig:
    def test_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible"):
            P.ProtocolConfig(increment=25, max_classes=60)

    def test_increment_bounds(self):
        with pytest.raises(ValueError, match="increment"):
            P.ProtocolConfig(increment=50, max_classes=25)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_fewer_than_one_worker_rejected(self, workers):
        with pytest.raises(ValueError, match=rf"^workers must be 1, got {workers}$"):
            P.ProtocolConfig(increment=25, max_classes=100, episodes=1, workers=workers)

    def test_workers_is_an_init_only_argument_that_must_be_one(self):
        # perfbench's synth-protocol set-up passes workers=1
        cfg = P.ProtocolConfig(increment=25, max_classes=200, shots=5, query_shots=5,
                               episodes=1, seed=0, workers=1)
        assert cfg == P.ProtocolConfig(increment=25, max_classes=200, episodes=1)
        with pytest.raises(ValueError, match=r"^workers must be 1, got 2$"):
            P.ProtocolConfig(increment=25, max_classes=200, episodes=1, workers=2)
        assert "workers" not in {f.name for f in dataclasses.fields(P.ProtocolConfig)}

    def test_checkpoints_enumerated(self):
        cfg = P.ProtocolConfig(increment=25, max_classes=100, episodes=1)
        assert cfg.checkpoints == [25, 50, 75, 100]


class TestRunProtocol:
    def test_two_checkpoint_shape(self):
        params, prior = tiny_model()
        reg = tiny_registry(60)
        cfg = P.ProtocolConfig(increment=25, max_classes=50, shots=3, query_shots=3, episodes=2, seed=1)
        matrix, report = P.run_protocol(params, prior, reg, cfg)
        assert matrix.checkpoints == [25, 50]
        for tr in matrix.episodes:
            # first 25 words scored twice, last 25 once
            assert not np.isnan(tr.acc[:25]).any()
            assert np.isnan(tr.acc[25:, 0]).all()
            assert not np.isnan(tr.acc[25:, 1]).any()
            assert list(tr.introduced_at) == [25] * 25 + [50] * 25
        assert len(report.mean_accuracy) == 2

    def test_single_class_single_increment_is_perfect(self):
        params, prior = tiny_model()
        reg = tiny_registry(1)
        cfg = P.ProtocolConfig(increment=1, max_classes=1, shots=3, query_shots=3, episodes=1, seed=2)
        matrix, report = P.run_protocol(params, prior, reg, cfg)
        assert report.mean_accuracy == [100.0]

    def test_monotone_correctness_zero_violations(self):
        params, prior = tiny_model()
        reg = tiny_registry(40, sep=2.0)  # hard enough to produce errors
        cfg = P.ProtocolConfig(increment=10, max_classes=40, shots=3, query_shots=3, episodes=3, seed=3)
        matrix, _ = P.run_protocol(params, prior, reg, cfg)
        assert P.monotone_violations(matrix) == 0
        # sanity: the run actually contains mistakes to constrain
        assert any((tr.correct == 0).any() for tr in matrix.episodes)

    def test_accuracy_values_are_multiples_of_query_share(self):
        params, prior = tiny_model()
        reg = tiny_registry(20, sep=2.0)
        cfg = P.ProtocolConfig(increment=10, max_classes=20, shots=3, query_shots=5, episodes=2, seed=4)
        matrix, _ = P.run_protocol(params, prior, reg, cfg)
        for tr in matrix.episodes:
            vals = tr.acc[~np.isnan(tr.acc)]
            np.testing.assert_array_equal(vals % 20.0, 0.0)

    def test_deterministic_across_runs(self):
        params, prior = tiny_model()
        reg = tiny_registry(30)
        cfg = P.ProtocolConfig(increment=10, max_classes=30, shots=3, query_shots=3, episodes=2, seed=5)
        m1, _ = P.run_protocol(params, prior, reg, cfg)
        m2, _ = P.run_protocol(params, prior, reg, cfg)
        assert len(m1.episodes) == len(m2.episodes) == 2
        for a, b in zip(m1.episodes, m2.episodes):
            assert a.words == b.words
            assert a.acc.tobytes() == b.acc.tobytes()
            assert a.correct.tobytes() == b.correct.tobytes()

    def test_episodes_pair_with_sample_episode(self, monkeypatch):
        # another method that draws sample_episode(registry, EpisodeSpec(max_classes,
        # shots, query_shots), rng) from the same episode seed sees the same words,
        # support and query picks, and class order
        params, prior = tiny_model()
        reg = tiny_registry(30, sep=2.0)
        cfg = P.ProtocolConfig(increment=5, max_classes=20, shots=3, query_shots=2, episodes=3, seed=7)
        seen = []
        head_of = P.episode_head
        monkeypatch.setattr(P, "episode_head", lambda *a: seen.append(a[2]) or head_of(*a))
        matrix, _ = P.run_protocol(params, prior, reg, cfg)
        spec = Ep.EpisodeSpec(cfg.max_classes, cfg.shots, cfg.query_shots)
        seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.episodes)
        for tr, used, seed in zip(matrix.episodes, seen, seeds, strict=True):
            ep = Ep.sample_episode(reg, spec, np.random.default_rng(seed))
            assert tr.words == used.class_ids == ep.class_ids
            for a, b in ((used.support, ep.support), (used.query, ep.query)):
                assert len(a) == len(b) and all(x is y for x, y in zip(a, b))
            # the last checkpoint scores every word against all classes
            head, query_z = T.episode_head(params, prior, ep)
            hits = np.argmax(class_scores(head, query_z), axis=1) == np.repeat(np.arange(20), 2)
            assert tr.correct[:, -1].tobytes() == hits.reshape(20, 2).astype(np.int8).tobytes()

    def test_insufficient_classes_rejected(self):
        params, prior = tiny_model()
        reg = tiny_registry(10)
        cfg = P.ProtocolConfig(increment=25, max_classes=25, shots=3, query_shots=3, episodes=1)
        with pytest.raises(ValueError, match="classes"):
            P.run_protocol(params, prior, reg, cfg)

    def test_ci_width_zero_for_single_episode(self):
        params, prior = tiny_model()
        reg = tiny_registry(20)
        cfg = P.ProtocolConfig(increment=10, max_classes=20, shots=3, query_shots=3, episodes=1, seed=6)
        _, report = P.run_protocol(params, prior, reg, cfg)
        assert report.ci_low == report.mean_accuracy == report.ci_high


@pytest.fixture
def dump_registries(tmp_path):
    """Train and test registries of feature-dump paths, 6 words each."""
    rng = np.random.default_rng(21)
    regs = {"train": Ep.SampleRegistry(), "test": Ep.SampleRegistry()}
    for split, reg in regs.items():
        for w in range(6):
            center = rng.normal(scale=3.0, size=13)
            for j in range(6):
                path = tmp_path / f"{split}-w{w}-{j}.mfcc"
                frames = center + rng.normal(size=(int(rng.integers(3, 9)), 13))
                audio.write_feature_dump(path, frames)
                reg.add(f"{split}{w}", str(path))
    return regs


class TestReadOnce:
    def test_each_dump_is_read_once_per_call(self, dump_registries, monkeypatch):
        reads = []
        read = audio.read_feature_dump

        def counted(path):
            reads.append(path)
            return read(path)

        monkeypatch.setattr(audio, "read_feature_dump", counted)
        train_reg = dump_registries["train"]
        core, val = train_reg.subset(train_reg.class_ids[:4]), train_reg.subset(train_reg.class_ids[4:])
        tcfg = T.TrainConfig(
            steps=4, batch_episodes=2, spec=Ep.EpisodeSpec(2, 2, 2),
            validation_every=2, validation_episodes=2,
        )
        ecfg = E.EncoderConfig(embed_dim=8, hidden_dims=(8,), feature_dim=13, seed=0)
        params, prior, _ = T.train(tcfg, core, ecfg, val)
        assert sorted(reads) == sorted(p for refs in train_reg.classes.values() for p in refs)

        reads.clear()
        test_reg = dump_registries["test"]
        pcfg = P.ProtocolConfig(increment=2, max_classes=6, shots=3, query_shots=3, episodes=3, seed=4)
        test_paths = sorted(p for refs in test_reg.classes.values() for p in refs)
        P.run_protocol(params, prior, test_reg, pcfg)
        assert sorted(reads) == test_paths


def train_and_evaluate(regs):
    """A short training run and protocol on the dump registries ``regs``."""
    train_reg = regs["train"]
    core, val = train_reg.subset(train_reg.class_ids[:4]), train_reg.subset(train_reg.class_ids[4:])
    tcfg = T.TrainConfig(
        steps=4, batch_episodes=2, spec=Ep.EpisodeSpec(2, 2, 2),
        validation_every=2, validation_episodes=2,
    )
    ecfg = E.EncoderConfig(embed_dim=8, hidden_dims=(8,), feature_dim=13, seed=0)
    params, prior, _ = T.train(tcfg, core, ecfg, val)
    pcfg = P.ProtocolConfig(increment=2, max_classes=6, shots=3, query_shots=3, episodes=3, seed=4)
    P.run_protocol(params, prior, regs["test"], pcfg)


class TestPoolOnce:
    def test_each_clip_is_pooled_once(self, dump_registries, monkeypatch):
        # training and the protocol embed pooled rows only (encoder_inputs)
        pooled = []
        stats = E._frame_stats
        monkeypatch.setattr(E, "_frame_stats", lambda a: pooled.append(a) or stats(a))
        train_and_evaluate(dump_registries)
        clips = sum(len(refs) for reg in dump_registries.values() for refs in reg.classes.values())
        assert len(pooled) == clips


def rescore_each_checkpoint(params, prior, registry, cfg, episode_seed):
    """Reference episode: embed word by word, re-score every checkpoint."""
    rng = np.random.default_rng(episode_seed)
    ids = registry.class_ids
    order = [ids[i] for i in rng.choice(len(ids), size=cfg.max_classes, replace=False)]
    enc = {k: v for k, v in params.items() if k not in ("rho_alpha", "rho_beta")}
    n_cp = len(cfg.checkpoints)
    acc = np.full((cfg.max_classes, n_cp), np.nan)
    correct = np.full((cfg.max_classes, n_cp, cfg.query_shots), -1, dtype=np.int8)
    introduced_at = np.empty(cfg.max_classes, dtype=np.int64)
    head = HeadState(prior)
    query_emb = []
    for t, n_classes in enumerate(cfg.checkpoints):
        for w in range(t * cfg.increment, n_classes):
            introduced_at[w] = n_classes
            refs = registry.classes[order[w]]
            picks = rng.choice(len(refs), size=cfg.shots + cfg.query_shots, replace=False)
            support = [Ep.resolve_sample(refs[j]) for j in picks[: cfg.shots]]
            queries = [Ep.resolve_sample(refs[j]) for j in picks[cfg.shots :]]
            head.add_class(order[w], E.embed_batch_values(support, enc))
            query_emb.append(E.embed_batch_values(queries, enc))
        winners = np.argmax(class_scores(head, np.concatenate(query_emb)), axis=1)
        class_list = head.class_ids
        for w in range(n_classes):
            rows = winners[w * cfg.query_shots : (w + 1) * cfg.query_shots]
            ok = np.array([class_list[r] == order[w] for r in rows], dtype=np.int8)
            correct[w, t] = ok
            acc[w, t] = 100.0 * float(ok.mean())
    return P.EpisodeTrace(order, introduced_at, acc, correct)


def assert_matches_rescoring(params, prior, registry, cfg):
    matrix, _ = P.run_protocol(params, prior, registry, cfg)
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.episodes)
    for tr, seed in zip(matrix.episodes, seeds):
        ref = rescore_each_checkpoint(params, prior, registry, cfg, seed)
        assert tr.words == ref.words
        assert tr.introduced_at.dtype == ref.introduced_at.dtype
        assert tr.introduced_at.tobytes() == ref.introduced_at.tobytes()
        assert tr.acc.tobytes() == ref.acc.tobytes()
        assert tr.correct.tobytes() == ref.correct.tobytes()
    return matrix


class TestScoreMatrix:
    @pytest.mark.parametrize(
        "shape",
        [
            dict(increment=10, max_classes=40, shots=3, query_shots=3),
            dict(increment=5, max_classes=20, shots=2, query_shots=4),
            dict(increment=20, max_classes=20, shots=4, query_shots=2),
        ],
    )
    def test_matches_rescoring_at_every_checkpoint(self, shape):
        params, prior = tiny_model()
        reg = tiny_registry(45, sep=2.0)  # hard enough to produce errors
        cfg = P.ProtocolConfig(**shape, episodes=2, seed=8)
        matrix = assert_matches_rescoring(params, prior, reg, cfg)
        assert any((tr.correct == 0).any() for tr in matrix.episodes)

    def test_ties_go_to_the_first_inserted_class(self):
        # an encoder with all-zero weights maps every clip to the same
        # embedding, so both classes have identical support and every
        # query ties; the class inserted first must win each tie
        params, prior = tiny_model()
        params = {k: np.zeros_like(v) for k, v in params.items()}
        reg = tiny_registry(2)
        cfg = P.ProtocolConfig(increment=1, max_classes=2, shots=3, query_shots=3, episodes=3, seed=9)
        matrix = assert_matches_rescoring(params, prior, reg, cfg)
        for tr in matrix.episodes:
            np.testing.assert_array_equal(tr.acc, [[100.0, 100.0], [np.nan, 0.0]])


def prefix_argmax_episode(params, prior, registry, cfg, episode_seed):
    """The episode's ``correct`` as the protocol once computed it, kept as
    the oracle of the streamed argmax: one (M, C) score matrix, then
    ``np.argmax`` over the first n columns at each checkpoint n."""
    rng = np.random.default_rng(episode_seed)
    q = cfg.query_shots
    episode = Ep.sample_episode(registry, Ep.EpisodeSpec(cfg.max_classes, cfg.shots, q), rng)
    head, query_z = T.episode_head(params, prior, episode)
    scores = class_scores(head, query_z)
    truth = np.repeat(np.arange(cfg.max_classes), q)
    correct = np.full((cfg.max_classes, len(cfg.checkpoints), q), -1, dtype=np.int8)
    for t, n in enumerate(cfg.checkpoints):
        hits = np.argmax(scores[: n * q, :n], axis=1) == truth[: n * q]
        correct[:n, t] = hits.reshape(n, q)
    return episode.class_ids, correct


def registry_with_copies(n_plain, n_copied, per_class=10):
    """``n_plain`` classes as ``tiny_registry`` draws them, and ``n_copied``
    classes each of one repeated sample, beside a copy of itself: whatever
    shots an episode picks, a class and its copy have equal densities, so
    every query of either ties exactly between the two."""
    reg = tiny_registry(n_plain + n_copied, per_class=per_class, sep=2.0)
    out = Ep.SampleRegistry()
    for i, (cid, refs) in enumerate(reg.classes.items()):
        if i < n_plain:
            out.classes[cid] = refs
        else:
            out.classes[cid] = [refs[0]] * per_class
            out.classes[f"{cid}-copy"] = [refs[0]] * per_class
    return out


class TestStreamedArgmax:
    """Each checkpoint folds its new class block into a running per-query
    (max, argmax); that must be the prefix argmax of the full matrix."""

    @pytest.mark.parametrize("block", [1, 3, 7, 20])
    def test_merge_is_the_prefix_argmax(self, block):
        rng = np.random.default_rng(40)
        # four distinct values: exact ties within and across blocks
        scores = rng.integers(0, 4, size=(300, 20)).astype(np.float64) - 10.0
        scores[:, 13] = scores[:, 2]  # a duplicate column in a later block
        scores[:5] = -np.inf  # rows with nothing above the starting maximum
        best, guess = np.full(300, -np.inf), np.zeros(300, dtype=np.intp)
        for c0 in range(0, 20, block):
            c1 = min(c0 + block, 20)
            P._merge_block(best, guess, scores[:, c0:c1], c0)
            np.testing.assert_array_equal(guess, np.argmax(scores[:, :c1], axis=1))
            assert best.tobytes() == scores[:, :c1].max(axis=1).tobytes()

    @pytest.mark.parametrize("increment", [1, 5, 20])
    def test_episodes_equal_the_prefix_argmax_and_copies_lose_their_ties(self, increment):
        params, prior = tiny_model()
        reg = registry_with_copies(n_plain=20, n_copied=10)
        cfg = P.ProtocolConfig(increment=increment, max_classes=40, shots=3, query_shots=3,
                               episodes=3, seed=5)
        matrix, _ = P.run_protocol(params, prior, reg, cfg)
        seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.episodes)
        inputs = T.encoder_inputs(reg)
        tied = 0
        for tr, seed in zip(matrix.episodes, seeds):
            words, correct = prefix_argmax_episode(params, prior, inputs, cfg, seed)
            assert tr.words == words
            assert tr.correct.tobytes() == correct.tobytes()
            for j, word in enumerate(words):
                if word.endswith("-copy") and word.removesuffix("-copy") in words:
                    pair = sorted((words.index(word.removesuffix("-copy")), j))
                    later = tr.correct[pair[1]]
                    assert (later[later >= 0] == 0).all()  # the earlier class wins each tie
                    tied += tr.introduced_at[pair[1]] > tr.introduced_at[pair[0]]
        assert tied  # some pair straddles two blocks


def matrix_from_rows(rows_by_episode, checkpoints, query_shots=5):
    episodes = []
    for rows in rows_by_episode:
        acc = np.array(rows, dtype=np.float64)
        intro = np.array(
            [checkpoints[int(np.argmax(~np.isnan(r)))] for r in acc], dtype=np.int64
        )
        correct = np.full(acc.shape + (query_shots,), -1, dtype=np.int8)
        episodes.append(
            P.EpisodeTrace([f"w{i}" for i in range(len(rows))], intro, acc, correct)
        )
    return P.AccuracyMatrix(list(checkpoints), query_shots, episodes)


class TestVolatility:
    def test_constant_rows_are_zero(self):
        m = matrix_from_rows([[[60.0, 60.0, 60.0], [20.0, 20.0, 20.0]]], [10, 20, 30])
        mean, std = P.per_word_volatility(m)
        assert (mean, std) == (0.0, 0.0)

    def test_flip_flop_hand_case(self):
        m = matrix_from_rows([[[100.0, 0.0, 100.0]]], [10, 20, 30])
        mean, std = P.per_word_volatility(m)
        assert (mean, std) == (100.0, 0.0)

    def test_two_word_hand_case(self):
        m = matrix_from_rows([[[80.0, 60.0, 60.0], [100.0, 100.0, 80.0]]], [10, 20, 30])
        mean, std = P.per_word_volatility(m)
        assert (mean, std) == (10.0, 10.0)

    def test_nan_prefix_excluded(self):
        m = matrix_from_rows([[[np.nan, 40.0, 80.0]]], [10, 20, 30])
        mean, std = P.per_word_volatility(m)
        assert (mean, std) == (40.0, 0.0)

    def test_no_pairs_rejected(self):
        m = matrix_from_rows([[[np.nan, 50.0]]], [10, 20])
        with pytest.raises(ValueError, match="pairs"):
            P.per_word_volatility(m)


class TestMonotoneViolations:
    def _matrix(self, sequences):
        # one word per sequence, one query shot; -1 marks "not yet scored"
        correct = np.array(sequences, dtype=np.int8)[:, :, None]
        acc = np.where(correct[:, :, 0] >= 0, 100.0 * correct[:, :, 0], np.nan)
        intro = np.full(len(sequences), 10, dtype=np.int64)
        trace = P.EpisodeTrace([f"w{i}" for i in range(len(sequences))], intro, acc, correct)
        return P.AccuracyMatrix([10, 20, 30, 40], 1, [trace])

    @pytest.mark.parametrize(
        "sequence, expected",
        [
            ([1, 1, 1, 1], 0),
            ([1, 0, 0, 0], 0),
            ([0, 1, 1, 1], 1),
            ([0, 1, 0, 1], 2),
            ([-1, 0, -1, 1], 1),
            ([-1, -1, 0, 0], 0),
            ([-1, -1, -1, -1], 0),
        ],
    )
    def test_hand_cases(self, sequence, expected):
        assert P.monotone_violations(self._matrix([sequence])) == expected

    def test_counts_pool_over_words(self):
        m = self._matrix([[0, 1, 0, 1], [-1, 0, -1, 1], [1, 1, 0, 0]])
        assert P.monotone_violations(m) == 3


class TestEmitReport:
    def _run(self, tmp_path, seed=7):
        params, prior = tiny_model()
        reg = tiny_registry(20)
        cfg = P.ProtocolConfig(increment=10, max_classes=20, shots=3, query_shots=5, episodes=2, seed=seed)
        matrix, report = P.run_protocol(params, prior, reg, cfg)
        out = tmp_path / "report"
        P.emit_report(report, matrix, out)
        return out, matrix, report

    def test_curve_header_and_row_count(self, tmp_path):
        out, matrix, _ = self._run(tmp_path)
        lines = (out / "curve.csv").read_text().splitlines()
        assert lines[0] == "checkpoint_classes,mean_accuracy,ci_low,ci_high"
        assert len(lines) == 1 + len(matrix.checkpoints)

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, _, _ = self._run(tmp_path / "a")
        out2, _, _ = self._run(tmp_path / "b")
        for name in ("curve.csv", "volatility.csv", "per_word.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_per_word_recomputation_matches_report(self, tmp_path):
        # independent recomputation of the volatility definition from the
        # emitted per-word CSV, using only stdlib parsing
        out, _, report = self._run(tmp_path)
        diffs = []
        with open(out / "per_word.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            acc_cols = [c for c in reader.fieldnames if c.startswith("acc_")]
            for row in reader:
                vals = [row[c] for c in acc_cols]
                for a, b in zip(vals, vals[1:]):
                    if a != "" and b != "":
                        diffs.append(abs(float(b) - float(a)))
        assert np.mean(diffs) == pytest.approx(report.volatility_mean, abs=1e-9)
        assert np.std(diffs) == pytest.approx(report.volatility_std, abs=1e-9)
        assert len(diffs) == report.n_pairs

    def test_summary_records_timers_threads_and_numpy_dispatch(self, tmp_path, monkeypatch):
        import json

        monkeypatch.setenv("NPY_DISABLE_CPU_FEATURES", "")
        out, _, report = self._run(tmp_path)
        summary = json.loads((out / "summary.json").read_text())
        runtime = summary["runtime"]
        assert set(runtime) == {"support_ingest_s", "draw_s", "embed_s", "add_class_s",
                                "query_eval_s", "score_s", "argmax_s", "total_s"}
        assert runtime["score_s"] + runtime["argmax_s"] <= runtime["query_eval_s"]
        parts = runtime["draw_s"] + runtime["embed_s"] + runtime["add_class_s"]
        assert parts <= runtime["support_ingest_s"]
        # 100 queries x 20 classes x 8 dimensions is one block
        assert summary["scoring_threads"] == report.scoring_threads == 1
        assert summary["numpy"]["version"] == np.__version__
        assert summary["numpy"]["NPY_DISABLE_CPU_FEATURES"] == ""
        assert "simd_found" in summary["numpy"]

    def test_summary_labels_the_volatility_definition(self, tmp_path):
        import json

        out, _, _ = self._run(tmp_path)
        summary = json.loads((out / "summary.json").read_text())
        assert "pooled" in summary["volatility"]["definition"]


class TestScoringThreadsInTheProtocol:
    """Criterion 8's run (200 classes, increment 25, 5+5 shots, 10 episodes,
    seed 2) on a tiny model: 1,000 queries x 200 classes x 8 dimensions is
    25 blocks, so the default splits them across threads."""

    def _csvs(self, tmp_path, cfg):
        params, prior = tiny_model()
        matrix, report = P.run_protocol(params, prior, tiny_registry(200, per_class=10, sep=2.0),
                                        cfg)
        P.emit_report(report, matrix, tmp_path)
        names = ("curve.csv", "per_word.csv", "volatility.csv")
        return {name: (tmp_path / name).read_bytes() for name in names}, report

    def test_reports_are_byte_identical_for_any_thread_count(self, tmp_path, monkeypatch):
        from bayescl import head as H

        cfg = P.ProtocolConfig(increment=25, max_classes=200, shots=5, query_shots=5,
                               episodes=10, seed=2)
        default, report = self._csvs(tmp_path / "default", cfg)
        assert report.scoring_threads == H.scoring_threads(1000, 25, 8)  # one block
        monkeypatch.setattr(H, "_cpu_threads", lambda: 1)
        serial, report = self._csvs(tmp_path / "serial", cfg)
        assert report.scoring_threads == 1
        assert serial == default


class TestOneScoringPoolPerEpisode:
    """Each episode opens one scoring pool for its checkpoints and joins it
    before it returns, also when the episode fails part-way."""

    CFG = P.ProtocolConfig(increment=25, max_classes=200, shots=5, query_shots=5, episodes=2,
                           seed=2)

    def run(self, monkeypatch, fail_at=None):
        # 1,000 queries x 25 classes x 8 dimensions: 4 blocks, so 2 threads
        from bayescl import head as H

        monkeypatch.setattr(H, "_cpu_threads", lambda: 2)
        counts = []
        merge = P._merge_block

        def record(*a):
            counts.append(threading.active_count())
            if len(counts) == fail_at:
                raise RuntimeError("part-way")
            merge(*a)

        monkeypatch.setattr(P, "_merge_block", record)
        params, prior = tiny_model()
        P.run_protocol(params, prior, tiny_registry(200, per_class=10, sep=2.0), self.CFG)
        return counts

    def test_the_pool_thread_lives_for_the_checkpoints_and_not_after(self, monkeypatch):
        before = threading.active_count()
        counts = self.run(monkeypatch)
        assert counts == [before + 1] * 16  # 8 checkpoints in each of 2 episodes
        assert threading.active_count() == before

    def test_no_thread_outlives_an_episode_that_raises(self, monkeypatch):
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="part-way"):
            self.run(monkeypatch, fail_at=3)
        assert threading.active_count() == before

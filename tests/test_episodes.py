import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayescl import episodes as Ep


class TestSplitClasses:
    def test_seventy_thirty_on_ten_classes(self):
        train, test = Ep.split_classes([f"w{i}" for i in range(10)], 0.7, seed=0)
        assert len(train) == 7 and len(test) == 3

    def test_deterministic_in_seed(self):
        ids = [f"w{i}" for i in range(50)]
        assert Ep.split_classes(ids, 0.3, seed=9) == Ep.split_classes(ids, 0.3, seed=9)
        assert Ep.split_classes(ids, 0.3, seed=9) != Ep.split_classes(ids, 0.3, seed=10)

    def test_union_is_exactly_the_input(self):
        ids = [f"w{i}" for i in range(23)]
        train, test = Ep.split_classes(ids, 0.5, seed=1)
        assert sorted(train + test) == sorted(ids)
        assert not set(train) & set(test)

    @settings(max_examples=40)
    @given(n=st.integers(2, 60), ratio=st.floats(0.05, 0.95), seed=st.integers(0, 999))
    def test_split_partition_property(self, n, ratio, seed):
        ids = list(range(n))
        a, b = Ep.split_classes(ids, ratio, seed)
        assert len(a) == round(ratio * n)
        assert sorted(a + b) == ids

    def test_too_few_classes_rejected(self):
        with pytest.raises(ValueError, match="2 classes"):
            Ep.split_classes(["only"], 0.5, seed=0)

    def test_ratio_bounds_enforced(self):
        with pytest.raises(ValueError, match="ratio"):
            Ep.split_classes([1, 2, 3], 1.0, seed=0)


def toy_registry(n_classes=6, per_class=8, d=3):
    rng = np.random.default_rng(0)
    reg = Ep.SampleRegistry()
    for c in range(n_classes):
        for _ in range(per_class):
            reg.add(f"w{c}", rng.normal(size=d))
    return reg


class TestSampleEpisode:
    def test_support_and_query_sizes(self):
        spec = Ep.EpisodeSpec(25, 5, 5)
        rng = np.random.default_rng(1)
        reg = toy_registry(n_classes=30, per_class=12)
        ep = Ep.sample_episode(reg, spec, rng)
        assert len(ep.support) == 125 and len(ep.query) == 125

    def test_support_query_disjoint_per_class(self):
        spec = Ep.EpisodeSpec(4, 3, 2)
        rng = np.random.default_rng(2)
        ep = Ep.sample_episode(toy_registry(), spec, rng)
        sup_ids = {id(ref) for ref in ep.support}
        qry_ids = {id(ref) for ref in ep.query}
        assert not sup_ids & qry_ids

    def test_no_reference_repeats_within_episode(self):
        spec = Ep.EpisodeSpec(5, 4, 4)
        rng = np.random.default_rng(3)
        ep = Ep.sample_episode(toy_registry(), spec, rng)
        refs = [id(r) for r in ep.support + ep.query]
        assert len(refs) == len(set(refs))

    def test_exact_class_count_uses_full_set(self):
        spec = Ep.EpisodeSpec(6, 2, 2)
        rng = np.random.default_rng(4)
        ep = Ep.sample_episode(toy_registry(n_classes=6), spec, rng)
        assert sorted(ep.class_ids) == [f"w{c}" for c in range(6)]

    def test_insufficient_classes_named(self):
        spec = Ep.EpisodeSpec(10, 2, 2)
        with pytest.raises(ValueError, match="10"):
            Ep.sample_episode(toy_registry(n_classes=4), spec, np.random.default_rng(0))

    def test_insufficient_samples_named(self):
        spec = Ep.EpisodeSpec(3, 5, 5)
        with pytest.raises(ValueError, match="fewer than 10"):
            Ep.sample_episode(toy_registry(per_class=6), spec, np.random.default_rng(0))

    def test_support_is_class_major(self):
        spec = Ep.EpisodeSpec(4, 3, 1)
        reg = toy_registry()
        ep = Ep.sample_episode(reg, spec, np.random.default_rng(5))
        support, query = labelled(ep, spec)
        labels = [y for _, y in support]
        assert labels == [c for c in ep.class_ids for _ in range(3)]
        # row i's reference is one of its class's samples
        for ref, y in support + query:
            assert any(ref is r for r in reg.classes[y])

    def test_one_way_episode(self):
        ep = Ep.sample_episode(toy_registry(), Ep.EpisodeSpec(1, 2, 2), np.random.default_rng(8))
        assert len(ep.class_ids) == 1 and len(ep.support) == len(ep.query) == 2

    def test_sampling_marginals_are_uniform(self):
        # each class should land in about ways/n_classes of episodes
        reg = toy_registry(n_classes=100, per_class=4)
        spec = Ep.EpisodeSpec(5, 2, 2)
        rng = np.random.default_rng(6)
        counts = {c: 0 for c in reg.class_ids}
        n_episodes = 10_000
        for _ in range(n_episodes):
            for c in Ep.sample_episode(reg, spec, rng).class_ids:
                counts[c] += 1
        expected = n_episodes * spec.ways / 100
        se = np.sqrt(n_episodes * (spec.ways / 100) * (1 - spec.ways / 100))
        observed = np.array(list(counts.values()))
        assert np.all(np.abs(observed - expected) <= 3.2 * se)
        chi2 = float(np.sum((observed - expected) ** 2 / expected))
        # chi-square with 99 dof: mean 99, sd ~14; generous deterministic bound
        assert chi2 < 160.0


def labelled(ep, spec):
    """The episode's support and query as (reference, class id) pairs, read
    from row position: row i of K (or Q) per class is class i // K."""
    support = [(r, ep.class_ids[i // spec.shots]) for i, r in enumerate(ep.support)]
    query = [(r, ep.class_ids[i // spec.query_shots]) for i, r in enumerate(ep.query)]
    return support, query


def synth_episode(cfg, spec, rng):
    """An episode over a fresh synthetic registry of exactly ``spec.ways`` classes."""
    reg = Ep.synth_registry(cfg, spec.ways, spec.samples_per_class, rng)
    return Ep.sample_episode(reg, spec, rng)


class TestSynth:
    def test_zero_within_std_gives_identical_samples(self):
        cfg = Ep.SynthTaskConfig(latent_dim=4, class_sep=5.0, within_std=0.0)
        spec = Ep.EpisodeSpec(3, 4, 2)
        support, query = labelled(synth_episode(cfg, spec, np.random.default_rng(0)), spec)
        by_class = {}
        for ref, y in support + query:
            by_class.setdefault(y, []).append(ref)
        for refs in by_class.values():
            for r in refs[1:]:
                assert r.tobytes() == refs[0].tobytes()

    def test_zero_within_std_nearest_mean_is_perfect(self):
        cfg = Ep.SynthTaskConfig(latent_dim=4, class_sep=5.0, within_std=0.0)
        spec = Ep.EpisodeSpec(5, 3, 3)
        support, query = labelled(synth_episode(cfg, spec, np.random.default_rng(1)), spec)
        means = {}
        for ref, y in support:
            means.setdefault(y, []).append(ref)
        means = {y: np.mean(v, axis=0) for y, v in means.items()}
        for ref, y in query:
            nearest = min(means, key=lambda c: float(np.sum((ref - means[c]) ** 2)))
            assert nearest == y

    def test_extreme_separation_nearest_mean_100_over_100_episodes(self):
        cfg = Ep.SynthTaskConfig(latent_dim=8, class_sep=20.0, within_std=1.0)
        spec = Ep.EpisodeSpec(5, 3, 3)
        rng = np.random.default_rng(2)
        for _ in range(100):
            support, query = labelled(synth_episode(cfg, spec, rng), spec)
            sums, counts = {}, {}
            for ref, y in support:
                sums[y] = sums.get(y, 0) + ref
                counts[y] = counts.get(y, 0) + 1
            means = {y: sums[y] / counts[y] for y in sums}
            for ref, y in query:
                nearest = min(means, key=lambda c: float(np.sum((ref - means[c]) ** 2)))
                assert nearest == y

    def test_same_seed_identical_episode(self):
        cfg = Ep.SynthTaskConfig(latent_dim=3, class_sep=2.0, within_std=0.5)
        spec = Ep.EpisodeSpec(3, 2, 2)
        sa, qa = labelled(synth_episode(cfg, spec, np.random.default_rng(7)), spec)
        sb, qb = labelled(synth_episode(cfg, spec, np.random.default_rng(7)), spec)
        for (ra, ya), (rb, yb) in zip(sa + qa, sb + qb):
            assert ya == yb and ra.tobytes() == rb.tobytes()

    def test_config_validation(self):
        with pytest.raises(ValueError, match="class_sep"):
            Ep.SynthTaskConfig(class_sep=0.0)

    def test_registry_generation(self):
        cfg = Ep.SynthTaskConfig(latent_dim=4)
        reg = Ep.synth_registry(cfg, 12, 10, np.random.default_rng(4))
        assert reg.n_classes == 12
        assert all(len(v) == 10 for v in reg.classes.values())


class TestManifest:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "m.jsonl"
        rows = [
            {"word": "cat", "path": "cat/1.wav", "split": "train"},
            {"word": "dog", "path": "dog/1.wav", "split": "test"},
        ]
        p.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        assert Ep.read_manifest(p) == rows

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text('{"word": "a", "path": "x", "split": "train"}\nnot json\n')
        with pytest.raises(ValueError, match=":2:"):
            Ep.read_manifest(p)

    def test_missing_key_rejected(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text('{"word": "a", "split": "train"}\n')
        with pytest.raises(ValueError, match="path"):
            Ep.read_manifest(p)

    @pytest.mark.parametrize(
        "line, message",
        [
            ('"word path split"', "not a JSON object"),
            ('["cat", "x", "train"]', "not a JSON object"),
            ('{"word": 3, "path": "x", "split": "test"}', "word must be one path component, got 3"),
            ('{"word": ["a"], "path": "x", "split": "test"}', "word must be one path component"),
            ('{"word": "a", "path": 3, "split": "test"}', "path must be a non-empty string, got 3"),
            ('{"word": "a", "path": "", "split": "test"}', "path must be a non-empty string"),
        ],
    )
    def test_line_that_is_not_a_record_rejected(self, tmp_path, line, message):
        p = tmp_path / "m.jsonl"
        p.write_text('{"word": "a", "path": "x", "split": "train"}\n' + line + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}:2: {message}")):
            Ep.read_manifest(p)

    @pytest.mark.parametrize("word", ["", ".", "..", "a/b", "../../x", "/abs"])
    def test_word_that_is_not_one_path_component_rejected(self, tmp_path, word):
        # prepare writes a word's dumps to <features-dir>/<word>/
        p = tmp_path / "m.jsonl"
        p.write_text(json.dumps({"word": word, "path": "x.wav", "split": "train"}) + "\n")
        message = f"{p}:1: word must be one path component, got {word!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            Ep.read_manifest(p)

    def test_empty_manifest_rejected(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text("\n")
        with pytest.raises(ValueError, match="empty"):
            Ep.read_manifest(p)

    def test_registry_from_manifest_filters_split(self, tmp_path):
        p = tmp_path / "m.jsonl"
        rows = [
            {"word": "cat", "path": "cat/1.mfcc", "split": "train"},
            {"word": "cat", "path": "cat/2.mfcc", "split": "test"},
            {"word": "dog", "path": "dog/1.mfcc", "split": "train"},
        ]
        p.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        reg = Ep.registry_from_manifest(p, "train")
        assert reg.class_ids == ["cat", "dog"]
        assert reg.classes == {"cat": ["cat/1.mfcc"], "dog": ["dog/1.mfcc"]}


def test_resolve_sample_passthrough_and_dump(tmp_path):
    arr = np.ones((3, 2))
    assert Ep.resolve_sample(arr) is arr
    from bayescl import audio

    p = tmp_path / "f.mfcc"
    audio.write_feature_dump(p, np.full((2, 13), 0.5))
    out = Ep.resolve_sample(str(p))
    assert out.shape == (2, 13)


def test_resolved_loads_each_dump_once_and_passes_arrays_through(tmp_path, monkeypatch):
    from bayescl import audio
    from bayescl import encoder as E
    from bayescl import training as T

    arr = np.ones(26)
    reg = Ep.SampleRegistry({"a": [arr]})
    for j in range(2):
        p = tmp_path / f"{j}.mfcc"
        audio.write_feature_dump(p, np.full((2, 13), float(j)))
        reg.add("b", str(p))
    reads = []
    read = audio.read_feature_dump
    monkeypatch.setattr(audio, "read_feature_dump", lambda path: reads.append(path) or read(path))
    out = T.encoder_inputs(reg)
    assert sorted(reads) == reg.classes["b"]
    assert out.class_ids == ["a", "b"]
    assert out.classes["a"][0] is arr
    # each dump's frames pooled to their means and (zero) deviations
    for j, r in enumerate(out.classes["b"]):
        assert r.tobytes() == E._frame_stats(np.full((2, 13), float(j))).tobytes()
    assert reg.classes["b"] == [str(tmp_path / "0.mfcc"), str(tmp_path / "1.mfcc")]

import gc
import weakref

import numpy as np
import pytest

from bayescl import autodiff as ad
from bayescl import encoder as E
from bayescl import episodes as Ep
from bayescl import training as T
from bayescl.head import PriorParams, episode_loss
from bayescl.tensorio import ContainerError


class TestAdam:
    CFG = T.TrainConfig(steps=1, learning_rate=0.1)

    def test_first_step_hand_value(self):
        params = {"p": np.asarray(1.0)}
        grads = {"p": np.asarray(1.0)}
        state = T.OptState.for_params(params)
        new, state = T.adam_step(params, grads, state, self.CFG)
        # bias correction makes the first step lr * g/(|g| + eps)
        expected = 1.0 - 0.1 * 1.0 / (1.0 + 1e-8)
        assert float(new["p"]) == pytest.approx(expected, abs=1e-15)
        assert state.step == 1

    def test_zero_gradient_is_identity(self):
        params = {"w": np.arange(6.0).reshape(2, 3)}
        grads = {"w": np.zeros((2, 3))}
        state = T.OptState.for_params(params)
        for _ in range(3):
            params, state = T.adam_step(params, grads, state, self.CFG)
        np.testing.assert_array_equal(params["w"], np.arange(6.0).reshape(2, 3))

    def test_hundred_steps_deterministic(self):
        def run():
            rng = np.random.default_rng(0)
            params = {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=3)}
            state = T.OptState.for_params(params)
            for i in range(100):
                g = {k: np.sin(v + i) for k, v in params.items()}
                params, state = T.adam_step(params, g, state, self.CFG)
            return params

        a, b = run(), run()
        assert all(a[k].tobytes() == b[k].tobytes() for k in a)

    def test_non_finite_gradient_names_parameter(self):
        params = {"bad": np.asarray(1.0)}
        grads = {"bad": np.asarray(np.nan)}
        with pytest.raises(T.TrainingError, match="bad"):
            T.adam_step(params, grads, T.OptState.for_params(params), self.CFG)


class TestCheckpoint:
    def _params(self, cfg):
        p = dict(E.init_params(cfg))
        p["rho_alpha"] = np.asarray(0.25)
        p["rho_beta"] = np.asarray(-0.5)
        return p

    def test_round_trip_bit_exact(self, tmp_path):
        cfg = E.EncoderConfig(embed_dim=5, hidden_dims=(6,), feature_dim=3, seed=1)
        params = self._params(cfg)
        path = tmp_path / "ck"
        T.save_checkpoint(params, cfg, path)
        loaded, prior, cfg2, _ = T.load_checkpoint(path)
        assert cfg2 == cfg
        assert prior == PriorParams(0.25, -0.5)
        for k in params:
            assert loaded[k].tobytes() == params[k].tobytes()

    def test_corrupted_byte_fails_checksum(self, tmp_path):
        cfg = E.EncoderConfig(embed_dim=4, hidden_dims=(5,), feature_dim=3, seed=2)
        path = tmp_path / "ck"
        T.save_checkpoint(self._params(cfg), cfg, path)
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ContainerError, match="checksum"):
            T.load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        cfg = E.EncoderConfig(embed_dim=4, hidden_dims=(5,), feature_dim=3, seed=2)
        path = tmp_path / "ck"
        T.save_checkpoint(self._params(cfg), cfg, path)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(ContainerError, match="truncated"):
            T.load_checkpoint(path)

    def test_version_mismatch_detected(self, tmp_path):
        cfg = E.EncoderConfig(embed_dim=4, hidden_dims=(5,), feature_dim=3, seed=2)
        path = tmp_path / "ck"
        T.save_checkpoint(self._params(cfg), cfg, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(ContainerError, match="version"):
            T.load_checkpoint(path)

    def test_architecture_mismatch_detected(self, tmp_path):
        # payload from one architecture, header claiming another
        cfg_a = E.EncoderConfig(embed_dim=4, hidden_dims=(5,), feature_dim=3, seed=2)
        cfg_b = E.EncoderConfig(embed_dim=8, hidden_dims=(5,), feature_dim=3, seed=2)
        path = tmp_path / "ck"
        T.save_checkpoint(self._params(cfg_a), cfg_b, path)
        with pytest.raises(ContainerError, match="shape"):
            T.load_checkpoint(path)


def synth_setup(class_sep, n_train=30, n_val=10, latent_dim=8, seed=0):
    synth = Ep.SynthTaskConfig(latent_dim=latent_dim, class_sep=class_sep, within_std=1.0)
    seeds = np.random.SeedSequence(seed).spawn(2)
    reg = Ep.synth_registry(synth, n_train, 16, np.random.default_rng(seeds[0]), "tr")
    val = Ep.synth_registry(synth, n_val, 16, np.random.default_rng(seeds[1]), "va")
    return reg, val


class TestTrain:
    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError, match="steps"):
            T.TrainConfig(steps=0)

    def test_step0_loss_near_log_n_on_symmetric_tasks(self):
        # classes indistinguishable at a tiny overall scale: an untrained
        # encoder yields near-uniform logits (the unit prior beta_0
        # dominates the predictive scale), so the first loss is ~ln(ways)
        synth = Ep.SynthTaskConfig(latent_dim=8, class_sep=0.01, within_std=0.01)
        reg = Ep.synth_registry(synth, 30, 16, np.random.default_rng(0), "tr")
        cfg = T.TrainConfig(steps=1, batch_episodes=8, spec=Ep.EpisodeSpec(5, 5, 5), seed=3)
        enc = E.EncoderConfig(embed_dim=16, hidden_dims=(16,), feature_dim=8, vector_input=True, seed=3)
        _, _, hist = T.train(cfg, reg, enc)
        assert hist.losses[0] == pytest.approx(np.log(5.0), rel=0.2)

    def test_loss_drops_below_step0_within_200_steps(self):
        reg, _ = synth_setup(class_sep=2.0)
        cfg = T.TrainConfig(steps=200, batch_episodes=2, spec=Ep.EpisodeSpec(5, 3, 3), seed=4)
        enc = E.EncoderConfig(embed_dim=12, hidden_dims=(16,), feature_dim=8, vector_input=True, seed=4)
        _, _, hist = T.train(cfg, reg, enc)
        assert hist.losses[-1] < hist.losses[0]
        assert min(hist.losses[150:]) < hist.losses[0]

    def test_rho_gradients_are_nonzero_for_generic_episodes(self):
        reg, _ = synth_setup(class_sep=2.0)
        rng = np.random.default_rng(5)
        episode = Ep.sample_episode(reg, Ep.EpisodeSpec(5, 3, 3), rng)
        enc_cfg = E.EncoderConfig(embed_dim=12, hidden_dims=(16,), feature_dim=8, vector_input=True, seed=5)
        meta = dict(E.init_params(enc_cfg))
        meta["rho_alpha"] = np.asarray(0.0)
        meta["rho_beta"] = np.asarray(0.0)
        loss, grads = T._batch_gradients(meta, [episode])
        assert grads["rho_alpha"] != 0.0
        assert grads["rho_beta"] != 0.0
        assert loss > 0.0

    def test_no_best_checkpoint_without_validation(self, tmp_path):
        reg, _ = synth_setup(class_sep=2.0)
        cfg = T.TrainConfig(steps=2, batch_episodes=1, spec=Ep.EpisodeSpec(4, 3, 2), seed=8)
        enc = E.EncoderConfig(embed_dim=8, hidden_dims=(8,), feature_dim=8, vector_input=True, seed=8)
        params, _, hist = T.train(cfg, reg, enc)
        assert hist.best_params is None
        T.save_run(tmp_path / "ck", params, enc, hist)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck", "ck.log.csv"]

    def test_batch_gradients_free_every_tape_without_the_collector(self, monkeypatch):
        graphs = []

        class RecordedGraph(ad.DiffGraph):
            def __init__(self):
                super().__init__()
                graphs.append(weakref.ref(self))

        monkeypatch.setattr(T, "DiffGraph", RecordedGraph)
        reg, _ = synth_setup(class_sep=2.0)
        rng = np.random.default_rng(9)
        batch = [Ep.sample_episode(reg, Ep.EpisodeSpec(4, 3, 2), rng) for _ in range(3)]
        enc_cfg = E.EncoderConfig(embed_dim=8, hidden_dims=(8,), feature_dim=8, vector_input=True, seed=9)
        meta = dict(E.init_params(enc_cfg), rho_alpha=np.asarray(0.0), rho_beta=np.asarray(0.0))
        gc.disable()
        try:
            T._batch_gradients(meta, batch)
            assert len(graphs) == 3
            assert all(g() is None for g in graphs)
        finally:
            gc.enable()

    def test_full_run_determinism(self):
        def run():
            reg, val = synth_setup(class_sep=3.0)
            cfg = T.TrainConfig(
                steps=30, batch_episodes=2, spec=Ep.EpisodeSpec(4, 3, 2),
                seed=6, validation_every=10, validation_episodes=4,
            )
            enc = E.EncoderConfig(embed_dim=8, hidden_dims=(8,), feature_dim=8, vector_input=True, seed=6)
            params, prior, hist = T.train(cfg, reg, enc, val)
            return params, prior, hist

        (pa, prio_a, ha), (pb, prio_b, hb) = run(), run()
        assert ha.losses == hb.losses
        assert ha.val_accuracy == hb.val_accuracy
        assert prio_a == prio_b
        assert all(pa[k].tobytes() == pb[k].tobytes() for k in pa)

    def test_validation_tracks_best_checkpoint(self, tmp_path):
        reg, val = synth_setup(class_sep=5.0)
        cfg = T.TrainConfig(
            steps=20, batch_episodes=2, spec=Ep.EpisodeSpec(4, 3, 2), seed=7,
            validation_every=5, validation_episodes=3,
        )
        enc = E.EncoderConfig(embed_dim=8, hidden_dims=(8,), feature_dim=8, vector_input=True, seed=7)
        params, _, hist = T.train(cfg, reg, enc, val)
        assert hist.val_steps == [5, 10, 15, 20]
        assert hist.best_step in hist.val_steps
        data = {"data": {"kind": "synthetic"}}
        T.save_run(tmp_path / "ck", params, enc, hist, extra_config=data)
        final, _, _, config = T.load_checkpoint(tmp_path / "ck")
        best, _, _, best_config = T.load_checkpoint(tmp_path / "ck.best")
        assert config["data"] == best_config["data"] == data["data"]
        assert all(final[k].tobytes() == params[k].tobytes() for k in params)
        assert all(best[k].tobytes() == hist.best_params[k].tobytes() for k in params)
        log = (tmp_path / "ck.log.csv").read_text().splitlines()
        assert log[0] == "step,loss,val_accuracy"
        assert len(log) == 21


def test_history_csv_round_trip(tmp_path):
    hist = T.TrainHistory(losses=[1.5, 1.25], val_steps=[2], val_accuracy=[0.75])
    path = tmp_path / "log.csv"
    hist.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,loss,val_accuracy"
    assert lines[1] == "1,1.5,"
    assert lines[2] == "2,1.25,0.75"

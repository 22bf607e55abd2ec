import gc
import re
import weakref

import numpy as np
import pytest

from bayescl import autodiff as ad
from bayescl import encoder as E
from bayescl import episodes as Ep
from bayescl import head as H
from bayescl import training as T
from bayescl.head import PriorParams
from bayescl.tensorio import ContainerError, write_tensors


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

    def test_attention_mlp_checkpoint_rejected(self, tmp_path):
        # the layout an attention-mlp encoder wrote: attention projections
        # before an MLP fed the feature width
        rng = np.random.default_rng(3)
        encoder = {"architecture": "attention-mlp", "embed_dim": 4, "hidden_dims": [5],
                   "feature_dim": 3, "vector_input": False, "seed": 2}
        shapes = {"attn.wq": (3, 3), "attn.wk": (3, 3), "attn.wv": (3, 3), "mlp.0.w": (3, 5),
                  "mlp.0.b": (5,), "mlp.1.w": (5, 4), "mlp.1.b": (4,), "rho_alpha": (),
                  "rho_beta": ()}
        tensors = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        path = tmp_path / "attention.ckpt"
        write_tensors(path, {"kind": "meta-checkpoint", "encoder": encoder}, tensors)
        with pytest.raises(ContainerError, match=re.escape(str(path)) + ".*'attention-mlp'"):
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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("validation_every", 0),
            ("validation_every", -5),
            ("validation_episodes", -1),
            ("learning_rate", float("nan")),
            ("learning_rate", float("inf")),
            ("learning_rate", -1.0),
            ("learning_rate", 0.0),
        ],
    )
    def test_bad_setting_rejected_naming_its_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            T.TrainConfig(**{field: value})

    def test_one_way_spec_rejected(self):
        # an episode may have one class (the protocol's smallest run), but a
        # 1-way training loss is identically zero
        with pytest.raises(ValueError, match="at least 2 ways"):
            T.TrainConfig(spec=Ep.EpisodeSpec(1, 5, 5))

    def test_no_validation_episodes_accepted(self):
        assert T.TrainConfig(validation_episodes=0).validation_episodes == 0

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
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
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

    def test_synth_training_tape_has_at_most_18_nodes_per_episode(self, monkeypatch):
        # the benchmark's synth-train episode: 10-way 5+5-shot on a
        # 16 -> 128 -> 128 -> 64 vector encoder (80 nodes when each op was a
        # node); every meta-parameter is bound once, in meta order
        tapes = []

        class RecordedGraph(ad.DiffGraph):
            def backward(self, output, seed=None):
                tapes.append([(t.op, t.name) for t in self._nodes])
                return super().backward(output, seed)

        monkeypatch.setattr(T, "DiffGraph", RecordedGraph)
        task = Ep.SynthTaskConfig(latent_dim=16, class_sep=1.4)
        reg = Ep.synth_registry(task, 20, 10, np.random.default_rng(23))
        rng = np.random.default_rng(24)
        batch = [Ep.sample_episode(reg, Ep.EpisodeSpec(10, 5, 5), rng) for _ in range(2)]
        enc_cfg = E.EncoderConfig(embed_dim=64, feature_dim=16, vector_input=True, seed=25)
        meta = dict(E.init_params(enc_cfg), rho_alpha=np.asarray(0.0), rho_beta=np.asarray(0.0))
        T._batch_gradients(meta, batch)
        embed = [("const", None)] + [("dense", None)] * 3
        expected = [("input", name) for name in meta] + embed + embed + [
            ("student_t_logits", None), ("softmax_cross_entropy", None)
        ]
        assert len(expected) == 18
        assert tapes == [expected, expected]

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


class TestEpisodeWorkspace:
    """``train`` lends every episode graph its arrays from one dict
    (``DiffGraph.borrow``): a step's episodes, and every step, write over
    the arrays the last episode gave back. Support and query row counts
    differ (4-way 3+2-shot), so the dict holds both sets."""

    SPEC = Ep.EpisodeSpec(4, 3, 2)
    ENC = E.EncoderConfig(embed_dim=6, hidden_dims=(8, 8), feature_dim=8, vector_input=True,
                          seed=31)

    def setup(self, episodes=3):
        reg, _ = synth_setup(class_sep=2.0)
        rng = np.random.default_rng(31)
        batch = [Ep.sample_episode(reg, self.SPEC, rng) for _ in range(episodes)]
        meta = dict(E.init_params(self.ENC), rho_alpha=np.asarray(0.3), rho_beta=np.asarray(-0.2))
        return meta, batch

    @staticmethod
    def held(buffers):
        return sorted(id(a) for arrays in buffers.values() for a in arrays)

    def test_a_steps_episodes_sharing_one_dict_give_the_bytes_of_fresh_graphs(self):
        meta, batch = self.setup()
        ref_loss, ref_grads = T._batch_gradients(meta, batch)
        buffers = {}
        for _ in range(2):  # the second step writes over the first one's arrays
            loss, grads = T._batch_gradients(meta, batch, buffers)
            assert loss == ref_loss
            assert grads.keys() == ref_grads.keys()
            for name, ref in ref_grads.items():
                assert grads[name].tobytes() == ref.tobytes(), name
        rows = {shape[0] for shape in buffers}
        assert {12, 8} <= rows  # support (4 x 3) and query (4 x 2) layer arrays
        assert (8, 4, 6) in buffers  # the Student-t node's (M, N, d) arrays

    def test_loans_return_on_release(self, monkeypatch):
        graphs = []

        class RecordedGraph(ad.DiffGraph):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                graphs.append(self)

        monkeypatch.setattr(T, "DiffGraph", RecordedGraph)
        meta, batch = self.setup()
        buffers = {}
        T._batch_gradients(meta, batch, buffers)
        held = self.held(buffers)
        assert held and all(g._lent == {} for g in graphs)
        T._batch_gradients(meta, batch, buffers)  # allocates no array the dict lacks
        assert self.held(buffers) == held and all(g._lent == {} for g in graphs)

    def test_calling_a_nodes_vjp_twice_gives_the_same_bytes(self):
        meta, batch = self.setup(episodes=1)
        buffers = {}
        T._batch_gradients(meta, batch, buffers)  # fill the dict: its arrays are reused
        graph = ad.DiffGraph(buffers=buffers)
        bound = {k: graph.input(k, v) for k, v in meta.items()}
        enc = T.encoder_params(bound)
        sz = E.embed_batch(batch[0].support, enc, graph)
        qz = E.embed_batch(batch[0].query, enc, graph)
        H.episode_loss((bound["rho_alpha"], bound["rho_beta"]), sz, qz, self.SPEC.ways)
        rng = np.random.default_rng(32)
        ops = []
        for node in graph._nodes:
            if node.vjp is None:
                continue
            ops.append(node.op)
            g = rng.normal(size=node.shape)
            first = [None if a is None else a.tobytes() for a in node.vjp(g)]
            second = [None if a is None else a.tobytes() for a in node.vjp(g)]
            assert first == second, (node.index, node.op)
        assert ops == ["dense"] * 6 + ["student_t_logits", "softmax_cross_entropy"]
        graph.release()

    def test_train_lends_from_one_dict_per_call(self, monkeypatch):
        dicts = []

        class RecordedGraph(ad.DiffGraph):
            def __init__(self, tape=True, buffers=None):
                super().__init__(tape, buffers)
                dicts.append((tape, buffers))

        monkeypatch.setattr(T, "DiffGraph", RecordedGraph)
        monkeypatch.setattr(E, "DiffGraph", RecordedGraph)
        reg, val = synth_setup(class_sep=2.0)
        cfg = T.TrainConfig(steps=2, batch_episodes=2, spec=self.SPEC, seed=33,
                            validation_every=2, validation_episodes=2)
        calls = []
        for _ in range(2):
            dicts.clear()
            T.train(cfg, reg, self.ENC, val)
            # 2 steps of 2 episode graphs, then 2 validation episodes of 2 forwards
            assert [tape for tape, _ in dicts] == [True] * 4 + [False] * 4
            assert len({id(buffers) for _, buffers in dicts}) == 1
            calls.append(dicts[0][1])
        assert calls[0] is not calls[1]


def test_history_csv_round_trip(tmp_path):
    hist = T.TrainHistory(losses=[1.5, 1.25], val_steps=[2], val_accuracy=[0.75])
    path = tmp_path / "log.csv"
    hist.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,loss,val_accuracy"
    assert lines[1] == "1,1.5,"
    assert lines[2] == "2,1.25,0.75"

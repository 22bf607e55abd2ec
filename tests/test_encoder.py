import gc
import weakref

import numpy as np
import pytest

from bayescl import encoder as E

import tape_ops as ad


def fresh_graph():
    return ad.DiffGraph()


def bind(params, graph):
    """The weight arrays ``params`` bound on ``graph``, once each."""
    return {name: graph.input(name, p) for name, p in params.items()}


def embed_frames(features, params, graph):
    """``embed_batch`` of frame matrices (or vectors) and weight arrays:
    pooled with ``pool_frames``, then bound on ``graph``."""
    return E.embed_batch(E.pool_frames(features), bind(params, graph), graph)


def embed_one(features, params):
    """``embed`` of one clip on a fresh graph that binds ``params``."""
    graph = fresh_graph()
    return E.embed(features, bind(params, graph), graph)


class TestConfig:
    def test_rejects_unknown_architecture(self):
        d = E.EncoderConfig().to_dict()
        d["architecture"] = "transformer"
        with pytest.raises(ValueError, match="unknown architecture 'transformer'"):
            E.EncoderConfig.from_dict(d)

    def test_rejects_empty_hidden(self):
        with pytest.raises(ValueError, match="hidden"):
            E.EncoderConfig(hidden_dims=())

    def test_round_trips_through_dict(self):
        cfg = E.EncoderConfig(32, (64, 32), 13, False, 5)
        d = cfg.to_dict()
        assert d["architecture"] == "stats-mlp"
        assert E.EncoderConfig.from_dict(d) == cfg


class TestInit:
    def test_same_seed_bit_identical(self):
        cfg = E.EncoderConfig(seed=42)
        a, b = E.init_params(cfg), E.init_params(cfg)
        assert a.keys() == b.keys()
        for k in a:
            assert a[k].tobytes() == b[k].tobytes()

    def test_different_seed_differs(self):
        a = E.init_params(E.EncoderConfig(seed=1))
        b = E.init_params(E.EncoderConfig(seed=2))
        assert a["mlp.0.w"].tobytes() != b["mlp.0.w"].tobytes()

    def test_biases_exactly_zero(self):
        params = E.init_params(E.EncoderConfig(seed=3))
        for name, p in params.items():
            if name.endswith(".b"):
                assert not p.any()

    def test_param_count_follows_shape_rules(self):
        # stats input 26 -> 128 -> 128 -> 64, weights plus biases
        cfg = E.EncoderConfig(embed_dim=64, hidden_dims=(128, 128), feature_dim=13)
        expected = (26 * 128 + 128) + (128 * 128 + 128) + (128 * 64 + 64)
        assert expected == 28224
        assert sum(p.size for p in E.init_params(cfg).values()) == expected

    def test_weight_range_is_glorot(self):
        params = E.init_params(E.EncoderConfig(seed=4))
        w = params["mlp.0.w"]
        bound = np.sqrt(6.0 / sum(w.shape))
        assert np.abs(w).max() <= bound


class TestEmbed:
    CFG = E.EncoderConfig(embed_dim=6, hidden_dims=(8, 7), feature_dim=4, seed=0)

    def test_output_shape_for_various_frame_counts(self):
        params = E.init_params(self.CFG)
        for t in (1, 2, 17):
            out = embed_one(np.random.default_rng(t).normal(size=(t, 4)), params)
            assert out.shape == (1, 6)

    def test_single_frame_std_half_is_zero(self):
        mat = np.array([[1.0, -2.0, 3.0, 0.5]])
        stats = E._frame_stats(mat)
        np.testing.assert_array_equal(stats[4:], np.zeros(4))
        np.testing.assert_array_equal(stats[:4], mat[0])

    def test_stats_mlp_invariant_to_frame_permutation(self):
        # integer-valued frames make the pooled sums exact, so the
        # invariance holds bit for bit
        rng = np.random.default_rng(5)
        frames = rng.integers(-8, 8, size=(12, 4)).astype(np.float64)
        params = E.init_params(self.CFG)
        a = embed_one(frames, params).data
        b = embed_one(frames[rng.permutation(12)], params).data
        assert a.tobytes() == b.tobytes()

    def test_batch_of_one_equals_single_embed(self):
        rng = np.random.default_rng(6)
        params = E.init_params(self.CFG)
        m = rng.normal(size=(5, 4))
        batch = embed_frames([m], params, fresh_graph()).data
        single = embed_one(m, params).data
        assert batch.tobytes() == single.tobytes()

    def test_embed_batch_rows_match_single_embeds(self):
        # BLAS blocking may differ per batch size, so rows of a larger
        # batch agree with single embeds only to the last ulp
        rng = np.random.default_rng(6)
        params = E.init_params(self.CFG)
        mats = [rng.normal(size=(t, 4)) for t in (3, 5, 2)]
        batch = embed_frames(mats, params, fresh_graph()).data
        for i, m in enumerate(mats):
            single = embed_one(m, params).data
            np.testing.assert_allclose(batch[i], single[0], rtol=1e-14, atol=1e-15)

    def test_duplicated_inputs_give_duplicated_rows(self):
        rng = np.random.default_rng(7)
        params = E.init_params(self.CFG)
        m = rng.normal(size=(4, 4))
        batch = embed_frames([m, m], params, fresh_graph()).data
        assert batch[0].tobytes() == batch[1].tobytes()

    def test_full_support_batch_shape(self):
        # 25-way-5-shot support: 125 rows in, 125 embeddings out
        rng = np.random.default_rng(8)
        cfg = E.EncoderConfig(embed_dim=16, hidden_dims=(16,), feature_dim=13, seed=2)
        params = E.init_params(cfg)
        mats = [rng.normal(size=(6, 13)) for _ in range(125)]
        out = embed_frames(mats, params, fresh_graph())
        assert out.shape == (125, 16)

    def test_vector_inputs_use_direct_path(self):
        cfg = E.EncoderConfig(embed_dim=5, hidden_dims=(6,), feature_dim=3, vector_input=True, seed=3)
        params = E.init_params(cfg)
        vecs = [np.array([1.0, 2.0, 3.0]), np.array([0.0, -1.0, 0.5])]
        out = embed_frames(vecs, params, fresh_graph())
        assert out.shape == (2, 5)

    def test_width_mismatch_rejected(self):
        params = E.init_params(self.CFG)
        with pytest.raises(ad.GraphError, match="input dimension"):
            embed_one(np.ones((3, 9)), params)

    def test_frame_matrix_row_rejected(self):
        # embed_batch reads pooled rows only; frames are pooled by pool_frames
        graph = fresh_graph()
        bound = bind(E.init_params(self.CFG), graph)
        with pytest.raises(
            ad.GraphError,
            match=r"^rows of shape \[\(3, 4\), \(8,\)\] do not match encoder input dimension 8$",
        ):
            E.embed_batch([np.ones(8), np.ones((3, 4))], bound, graph)

    def test_raw_weight_arrays_rejected(self):
        # weights are bound once per graph by the caller, never by embed_batch
        params = E.init_params(self.CFG)
        graph = fresh_graph()
        with pytest.raises(ad.GraphError, match=r"^dense: operand of type ndarray is not a Tensor$"):
            E.embed_batch([np.ones(8)], params, graph)
        assert [t.op for t in graph._nodes] == ["const"]

    def test_empty_batch_rejected(self):
        graph = fresh_graph()
        with pytest.raises(ValueError, match="empty"):
            E.embed_batch([], bind(E.init_params(self.CFG), graph), graph)

    def test_embeddings_finite_for_finite_inputs(self):
        rng = np.random.default_rng(9)
        params = E.init_params(self.CFG)
        out = embed_one(rng.normal(scale=50.0, size=(20, 4)), params)
        assert np.all(np.isfinite(out.data))

    def test_embed_batch_values_frees_its_graph_without_the_collector(self, monkeypatch):
        graphs = []

        class RecordedGraph(ad.DiffGraph):
            def __init__(self, tape=True, buffers=None):
                super().__init__(tape, buffers)
                graphs.append(weakref.ref(self))

        monkeypatch.setattr(E, "DiffGraph", RecordedGraph)
        rng = np.random.default_rng(11)
        params = E.init_params(self.CFG)
        rows = E.pool_frames([rng.normal(size=(6, 4)) for _ in range(3)])
        gc.disable()
        try:
            out = E.embed_batch_values(rows, params)
            assert len(graphs) == 1
            assert graphs[0]() is None
        finally:
            gc.enable()
        assert out.shape == (3, self.CFG.embed_dim)


def graph_pooled_embed_batch(mats, params, graph):
    """Reference stats-mlp batch: each clip pooled on the tape, then stacked."""
    bound = bind(params, graph)
    pooled = []
    for a in mats:
        mat = graph.constant(a)
        m = ad.mean_reduce(mat, axis=0)
        dev = ad.sub(mat, m)
        var = ad.mean_reduce(ad.mul(dev, dev), axis=0)
        pooled.append(ad.concat([m, ad.sqrt(var)]))
    return E._mlp(ad.stack(pooled, axis=0), bound, E._n_layers(params))


def embed_and_grads(embed_fn, mats, params, w):
    graph = fresh_graph()
    out = embed_fn(mats, params, graph)
    grads = graph.backward(ad.sum_reduce(ad.mul(out, graph.constant(w))))
    return out.data, grads, len(graph)


class TestPoolingOffTape:
    CFG = E.EncoderConfig(embed_dim=6, hidden_dims=(8, 7), feature_dim=13, seed=12)

    @pytest.mark.parametrize("frames", [(1,), (4,), (1, 7, 3), tuple(range(1, 26))])
    def test_rows_and_gradients_match_graph_pooling(self, frames):
        rng = np.random.default_rng(len(frames))
        params = E.init_params(self.CFG)
        mats = [rng.normal(scale=4.0, size=(t, 13)) for t in frames]
        w = rng.normal(size=(len(mats), self.CFG.embed_dim))
        out, grads, _ = embed_and_grads(embed_frames, mats, params, w)
        ref, ref_grads, _ = embed_and_grads(graph_pooled_embed_batch, mats, params, w)
        assert out.tobytes() == ref.tobytes()
        assert grads.keys() == ref_grads.keys() == params.keys()
        for name in params:
            assert grads[name].tobytes() == ref_grads[name].tobytes(), name

    def test_tape_size_does_not_grow_with_clips(self):
        rng = np.random.default_rng(13)
        params = E.init_params(self.CFG)
        sizes = []
        for n in (10, 100):
            mats = [rng.normal(size=(int(t), 13)) for t in rng.integers(1, 30, size=n)]
            sizes.append(embed_and_grads(embed_frames, mats, params, np.ones((n, 6)))[2])
        assert sizes[0] == sizes[1]

    def test_non_finite_frames_rejected(self):
        params = E.init_params(self.CFG)
        mats = [np.ones((3, 13)), np.full((2, 13), np.nan)]
        with pytest.raises(ad.GraphError, match="non-finite"):
            embed_frames(mats, params, fresh_graph())

    def test_vector_among_matrices_rejected(self):
        # the vector passes pool_frames as it is, 13 wide against the 26 pooled
        params = E.init_params(self.CFG)
        with pytest.raises(ad.GraphError, match=r"\[\(13,\), \(26,\)\] .* input dimension 26"):
            embed_frames([np.ones((3, 13)), np.ones(13)], params, fresh_graph())

    def test_pooling_once_embeds_like_pooling_per_use(self):
        rng = np.random.default_rng(14)
        params = E.init_params(self.CFG)
        mats = [rng.normal(scale=3.0, size=(int(t), 13)) for t in rng.integers(1, 30, size=7)]
        pooled = E.pool_frames(mats)
        assert [p.shape for p in pooled] == [(26,)] * 7
        w = rng.normal(size=(7, self.CFG.embed_dim))
        out, grads, _ = embed_and_grads(
            lambda rows, p, graph: E.embed_batch(rows, bind(p, graph), graph), pooled, params, w
        )
        ref, ref_grads, _ = embed_and_grads(graph_pooled_embed_batch, mats, params, w)
        assert out.tobytes() == ref.tobytes()
        for name in params:
            assert grads[name].tobytes() == ref_grads[name].tobytes(), name

    def test_vectors_pass_through(self):
        rng = np.random.default_rng(15)
        vecs = [rng.normal(size=26) for _ in range(3)]
        assert all(a is b for a, b in zip(E.pool_frames(vecs), vecs))

    def test_pooling_an_empty_matrix_rejected(self):
        with pytest.raises(ad.GraphError, match="frames, coeffs"):
            E.pool_frames([np.ones((3, 13)), np.ones((0, 13))])


def _tape_mlp(x, bound, n_layers):
    """Reference MLP: a matmul, an add and a softplus node per layer, which
    ``encoder.dense`` fuses into one node."""
    h = x
    for i in range(n_layers):
        h = ad.add(ad.matmul(h, bound[f"mlp.{i}.w"]), bound[f"mlp.{i}.b"])
        if i < n_layers - 1:
            h = ad.softplus(h)
    return h


def two_embeds_and_grads(first, second, params, seed):
    """Two embeds on one graph from weights bound once, as a training
    episode's support and query: each weight's and bias's gradient sums
    the two."""
    rng = np.random.default_rng(seed)
    graph = fresh_graph()
    bound = {name: graph.input(name, p) for name, p in params.items()}
    a = E.embed_batch(first, bound, graph)
    b = E.embed_batch(second, bound, graph)
    wa, wb = rng.normal(size=a.shape), rng.normal(size=b.shape)
    loss = ad.add(
        ad.sum_reduce(ad.mul(a, graph.constant(wa))), ad.sum_reduce(ad.mul(b, graph.constant(wb)))
    )
    return a.data, b.data, graph.backward(loss), graph


class TestDense:
    """``dense`` layers must give the bits of matmul + add + softplus nodes."""

    def assert_matches_tape_mlp(self, monkeypatch, first, second, params):
        out = two_embeds_and_grads(first, second, params, seed=1)
        with monkeypatch.context() as m:
            m.setattr(E, "_mlp", _tape_mlp)
            ref = two_embeds_and_grads(first, second, params, seed=1)
        assert out[0].tobytes() == ref[0].tobytes()
        assert out[1].tobytes() == ref[1].tobytes()
        assert out[2].keys() == ref[2].keys() == params.keys()
        for name in params:
            assert out[2][name].tobytes() == ref[2][name].tobytes(), name
        assert len(out[3]) < len(ref[3])

    def test_stats_mlp(self, monkeypatch):
        rng = np.random.default_rng(20)
        cfg = E.EncoderConfig(embed_dim=16, hidden_dims=(32, 24), feature_dim=13, seed=20)
        params = E.init_params(cfg)
        mats = [rng.normal(scale=4.0, size=(int(t), 13)) for t in rng.integers(1, 30, size=35)]
        mats = E.pool_frames(mats)
        self.assert_matches_tape_mlp(monkeypatch, mats[:20], mats[20:], params)

    def test_vector_input(self, monkeypatch):
        # wide inputs put pre-activations on both sides of 0
        rng = np.random.default_rng(21)
        cfg = E.EncoderConfig(embed_dim=64, feature_dim=16, vector_input=True, seed=21)
        params = E.init_params(cfg)
        vecs = list(rng.normal(scale=5.0, size=(100, 16)))
        self.assert_matches_tape_mlp(monkeypatch, vecs[:50], vecs[50:], params)

    def test_second_embed_from_arrays_rebinds_and_fails(self):
        cfg = E.EncoderConfig(embed_dim=6, hidden_dims=(8, 7), feature_dim=3, vector_input=True)
        params, graph = E.init_params(cfg), fresh_graph()
        embed_frames([np.ones(3)], params, graph)
        with pytest.raises(ad.GraphError, match="input 'mlp.0.w' already bound"):
            embed_frames([np.ones(3)], params, graph)

    def test_bound_weights_from_another_graph_rejected(self):
        cfg = E.EncoderConfig(embed_dim=6, hidden_dims=(8,), feature_dim=3, vector_input=True)
        other = fresh_graph()
        bound = {name: other.input(name, p) for name, p in E.init_params(cfg).items()}
        with pytest.raises(ad.GraphError, match="'mlp.0.w' lives on a different graph"):
            E.embed_batch([np.ones(3)], bound, fresh_graph())

    def test_one_node_per_layer(self):
        cfg = E.EncoderConfig(embed_dim=6, hidden_dims=(8, 7), feature_dim=3, vector_input=True)
        graph = fresh_graph()
        embed_frames([np.ones(3)] * 4, E.init_params(cfg), graph)
        assert [t.op for t in graph._nodes] == ["input"] * 6 + ["const"] + ["dense"] * 3

    def test_infinite_pre_activation_rejected(self):
        # x @ w overflows to -inf, which softplus would map to a finite 0
        cfg = E.EncoderConfig(embed_dim=2, hidden_dims=(3,), feature_dim=2, vector_input=True)
        params = E.init_params(cfg)
        params["mlp.0.w"] = np.full((2, 3), -1.0)
        with np.errstate(over="ignore"), pytest.raises(
            ad.GraphError, match="non-finite value produced by op 'dense'"
        ):
            embed_frames([np.full(2, 1e308)], params, fresh_graph())

    def test_shape_mismatch_rejected(self):
        graph = fresh_graph()
        x = graph.input("x", np.ones((2, 3)))
        w, b = graph.input("w", np.ones((4, 5))), graph.input("b", np.zeros(5))
        with pytest.raises(ad.GraphError, match="dense: cannot apply"):
            E.dense(x, w, b, activate=True)


class TestNoTape:
    """``DiffGraph(tape=False)``, the graph ``embed_batch_values`` embeds
    on, must run the forward of a recording graph bit for bit and check for
    check, and keep none of it."""

    CFG = E.EncoderConfig(embed_dim=6, hidden_dims=(8, 7), feature_dim=4, vector_input=True,
                          seed=3)

    def forward(self, tape, rows, params):
        graph = ad.DiffGraph(tape=tape)
        return graph, E.embed_batch(rows, bind(params, graph), graph)

    def test_embeddings_are_the_recording_graph_bits(self):
        rng = np.random.default_rng(30)
        params = E.init_params(self.CFG)
        rows = list(rng.normal(scale=5.0, size=(40, 4)))
        graph, out = self.forward(False, rows, params)
        ref_graph, ref = self.forward(True, rows, params)
        assert out.data.tobytes() == ref.data.tobytes()
        assert E.embed_batch_values(rows, params).tobytes() == ref.data.tobytes()
        assert len(graph) == len(ref_graph) == 10  # 6 weights, the rows, 3 layers
        assert out.index == ref.index == 9

    @pytest.mark.parametrize("layer", [0, 2], ids=["hidden", "output"])
    def test_non_finite_values_fail_at_the_same_node(self, layer):
        # a hidden layer fails in dense's pre-activation check, the output
        # layer in the tape's guard; both name the node either graph numbers
        params = E.init_params(self.CFG)
        params[f"mlp.{layer}.w"] = np.full_like(params[f"mlp.{layer}.w"], 1e308)
        messages = []
        for tape in (True, False):
            with np.errstate(over="ignore"), pytest.raises(ad.GraphError) as err:
                self.forward(tape, [np.ones(4)] * 3, params)
            messages.append(str(err.value))
        assert messages == [f"non-finite value produced by op 'dense' at node {7 + layer}"] * 2

    def test_stores_no_node_and_rejects_backward(self):
        graph, out = self.forward(False, [np.ones(4)] * 3, E.init_params(self.CFG))
        assert graph._nodes is None
        assert (out.parents, out.vjp) == ((), None)
        with pytest.raises(ad.GraphError, match=r"^backward on a graph that keeps no tape$"):
            graph.backward(out)

    @pytest.mark.parametrize("tape", [True, False])
    def test_hidden_layers_are_freed_as_the_forward_moves_on(self, monkeypatch, tape):
        layers = []
        dense = E.dense

        def record(*args, **kwargs):
            out = dense(*args, **kwargs)
            layers.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(E, "dense", record)
        gc.disable()
        try:
            graph, out = self.forward(tape, [np.ones(4)] * 3, E.init_params(self.CFG))
            alive = [ref() is not None for ref in layers]
        finally:
            gc.enable()
        assert alive == [tape, tape, True]


class TestSharedBuffers:
    """An episode's support and query forwards (``training.episode_head``)
    share one ``buffers`` dict: their hidden layers write into one set of
    arrays, and what each call returns is its own array."""

    CFG = E.EncoderConfig(embed_dim=6, hidden_dims=(8, 8), feature_dim=4, vector_input=True,
                          seed=4)

    def recorded(self, rows, params):
        graph = fresh_graph()
        return E.embed_batch(rows, bind(params, graph), graph).data

    @staticmethod
    def held(buffers):
        return [a for arrays in buffers.values() for a in arrays]

    def test_support_keeps_its_bytes_and_both_are_the_recording_graph_bits(self):
        rng = np.random.default_rng(40)
        params = E.init_params(self.CFG)
        support, query = (list(rng.normal(scale=3.0, size=(50, 4))) for _ in range(2))
        buffers = {}
        s = E.embed_batch_values(support, params, buffers)
        kept = s.tobytes()
        first = sorted(id(a) for a in self.held(buffers))
        q = E.embed_batch_values(query, params, buffers)
        assert s.tobytes() == kept == self.recorded(support, params).tobytes()
        assert q.tobytes() == self.recorded(query, params).tobytes()
        # one array per hidden layer and one scratch, lent again to the query forward
        assert len(first) == 3 and sorted(id(a) for a in self.held(buffers)) == first
        assert not any(np.shares_memory(out, a) for out in (s, q) for a in self.held(buffers))

    def test_a_new_batch_size_drops_the_last_ones_arrays(self):
        rng = np.random.default_rng(41)
        params = E.init_params(self.CFG)
        buffers = {}
        for rows in (50, 30):
            E.embed_batch_values(list(rng.normal(size=(rows, 4))), params, buffers)
            assert {s: len(a) for s, a in buffers.items()} == {(rows, 8): 3}

    def test_each_call_embeds_through_embed_batch_on_one_released_graph(self, monkeypatch):
        # perfbench's tracer times embed_batch_values and its nested
        # embed_batch span, and counts the rows of its first argument
        graphs, calls = [], []
        embed_batch = E.embed_batch

        class RecordedGraph(ad.DiffGraph):
            def __init__(self, tape=True, buffers=None):
                super().__init__(tape, buffers)
                graphs.append(weakref.ref(self))

        def record(rows, bound, graph):
            calls.append((len(rows), graph is graphs[-1](), graph.keeps_tape))
            return embed_batch(rows, bound, graph)

        monkeypatch.setattr(E, "DiffGraph", RecordedGraph)
        monkeypatch.setattr(E, "embed_batch", record)
        rng = np.random.default_rng(42)
        params = E.init_params(self.CFG)
        buffers = {}
        gc.disable()
        try:
            for n in (20, 20):
                E.embed_batch_values(list(rng.normal(size=(n, 4))), params, buffers)
                assert graphs[-1]() is None
        finally:
            gc.enable()
        assert len(graphs) == 2 and calls == [(20, True, False)] * 2


class TestGradients:
    # frame matrices are pooled to (2F,) statistics, vectors feed the MLP as they are
    @pytest.mark.parametrize("inputs", ["stats-mlp", "vector-input"])
    def test_scalar_of_embedding_grad_check(self, inputs):
        rng = np.random.default_rng(10)
        vector_input = inputs == "vector-input"
        cfg = E.EncoderConfig(5, (6,), 4, vector_input, seed=4)
        params = E.init_params(cfg)
        rows = E.pool_frames([rng.normal(size=4 if vector_input else (5, 4)) for _ in range(3)])
        w = rng.normal(size=(3, 5))

        def builder(graph, t):
            enc = {k: t[k] for k in params}
            out = E.embed_batch(rows, enc, graph)
            return ad.sum_reduce(ad.mul(out, graph.constant(w)))

        assert ad.grad_check(builder, dict(params), step=1e-5) <= 1e-4

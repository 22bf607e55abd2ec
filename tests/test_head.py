import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayescl import autodiff as ad
from bayescl import head as H

PRIOR = H.PriorParams(0.0, 0.0)  # alpha_0 = beta_0 = 1


def random_posterior(rng, d, n=None, class_id="c"):
    n = n or int(rng.integers(1, 12))
    Z = rng.normal(rng.normal(0, 2, size=d), rng.uniform(0.5, 2.0), size=(n, d))
    return H.posterior_from_batch(PRIOR, Z, class_id)


class TestUpdateRules:
    def test_kappa_and_alpha_track_count(self):
        rng = np.random.default_rng(0)
        post = H.empty_posterior("w", 3)
        for n in range(1, 11):
            post = H.posterior_update(post, rng.normal(size=3))
            assert post.kappa() == n
            assert post.alpha(PRIOR) == 1.0 + n / 2.0

    def test_single_sample_mean_is_z_and_beta_is_beta0(self):
        z = np.array([0.3, -2.0, 5.5])
        post = H.posterior_update(H.empty_posterior("w", 3), z)
        np.testing.assert_array_equal(post.mean(), z)
        np.testing.assert_array_equal(post.beta(PRIOR), np.ones(3))

    def test_two_sample_hand_case(self):
        # samples 0 and 2 in one dimension: mean 1, mean-square 2
        post = H.posterior_from_batch(PRIOR, np.array([[0.0], [2.0]]), "w")
        assert post.mean()[0] == 1.0
        assert post.sum_z2[0] / post.n == 2.0
        assert post.beta(PRIOR)[0] == PRIOR.beta0 + 1.0

    def test_repeated_vector_gives_zero_variance(self):
        z = np.array([1.5, -0.5])
        post = H.posterior_from_batch(PRIOR, np.tile(z, (5, 1)), "w")
        np.testing.assert_array_equal(post.mean(), z)
        np.testing.assert_array_equal(post.beta(PRIOR), np.ones(2))

    def test_dimension_mismatch_rejected(self):
        post = H.empty_posterior("w", 3)
        with pytest.raises(ValueError, match="dimension|shape"):
            H.posterior_update(post, np.ones(4))

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            H.posterior_from_batch(PRIOR, np.empty((0, 3)), "w")


class TestConjugacy:
    def test_batch_equals_fold_and_permuted_fold(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            d = int(rng.integers(1, 9))
            k = int(rng.integers(1, 21))
            Z = rng.normal(size=(k, d)) * rng.uniform(0.1, 5)
            batch = H.posterior_from_batch(PRIOR, Z, "w")
            for order in (range(k), rng.permutation(k)):
                fold = H.empty_posterior("w", d)
                for i in order:
                    fold = H.posterior_update(fold, Z[i])
                assert fold.n == batch.n
                for a, b in (
                    (fold.mean(), batch.mean()),
                    (fold.alpha(PRIOR), batch.alpha(PRIOR)),
                    (fold.beta(PRIOR), batch.beta(PRIOR)),
                ):
                    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_order_invariance_property(self, seed):
        rng = np.random.default_rng(seed)
        k, d = int(rng.integers(2, 10)), int(rng.integers(1, 5))
        Z = rng.normal(size=(k, d))
        batch = H.posterior_from_batch(PRIOR, Z, "w")
        fold = H.empty_posterior("w", d)
        for i in rng.permutation(k):
            fold = H.posterior_update(fold, Z[i])
        np.testing.assert_allclose(fold.beta(PRIOR), batch.beta(PRIOR), rtol=1e-12)
        np.testing.assert_allclose(fold.mean(), batch.mean(), rtol=1e-12)


def test_forgetting_immunity_updates_never_touch_other_classes():
    # random interleaving of ten per-class sample streams: each class's
    # final posterior must be byte-identical to folding its own stream
    # alone (other classes' updates must not perturb it at all)
    rng = np.random.default_rng(2)
    d, n_classes = 4, 10
    samples = {c: [rng.normal(size=d) for _ in range(10)] for c in range(n_classes)}
    head = H.HeadState(H.PriorParams(0.1, 0.2))
    for c in range(n_classes):
        head.posteriors[c] = H.empty_posterior(c, d)
    arrival = [c for c in range(n_classes) for _ in range(10)]
    rng.shuffle(arrival)
    cursor = {c: 0 for c in range(n_classes)}
    for c in arrival:
        head.update_class(c, samples[c][cursor[c]])
        cursor[c] += 1
    for c in range(n_classes):
        alone = H.empty_posterior(c, d)
        for z in samples[c]:
            alone = H.posterior_update(alone, z)
        assert head.posteriors[c].state_bytes() == alone.state_bytes()


class TestLogPredictive:
    def test_hand_case_matches_frozen_oracle(self):
        # nu=4, location 1, scale^2 = 1.5 at z=1; value frozen from
        # scipy.stats.t.logpdf(1, df=4, loc=1, scale=sqrt(1.5))
        post = H.posterior_from_batch(PRIOR, np.array([[0.0], [2.0]]), "w")
        value = H.log_predictive(post, PRIOR, np.array([1.0]))
        assert value == pytest.approx(-1.1835618070658083, abs=1e-12)

    def test_matches_scipy_t_logpdf(self):
        sps = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            post = random_posterior(rng, d)
            z = rng.normal(size=d)
            nu, m, s2 = H.predictive_params(post, PRIOR)
            oracle = float(
                np.sum(sps.t.logpdf(z, df=nu, loc=m, scale=np.sqrt(s2)))
            )
            assert H.log_predictive(post, PRIOR, z) == pytest.approx(oracle, abs=1e-9)

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        Z = rng.normal(size=(6, 3))
        z = rng.normal(size=3)
        shift = rng.normal(size=3) * 10
        a = H.log_predictive(H.posterior_from_batch(PRIOR, Z, "w"), PRIOR, z)
        b = H.log_predictive(
            H.posterior_from_batch(PRIOR, Z + shift, "w"), PRIOR, z + shift
        )
        assert a == pytest.approx(b, abs=1e-9)

    def test_density_integrates_to_one(self):
        quad = pytest.importorskip("scipy.integrate").quad
        rng = np.random.default_rng(5)
        for _ in range(10):
            post = random_posterior(rng, 1)
            total, _ = quad(
                lambda x: math.exp(H.log_predictive(post, PRIOR, np.array([x]))),
                -np.inf,
                np.inf,
            )
            assert total == pytest.approx(1.0, abs=1e-3)

    def test_monotone_in_distance_per_dimension(self):
        rng = np.random.default_rng(6)
        post = random_posterior(rng, 3, n=5)
        m = post.mean()
        vals = []
        for r in np.linspace(0.0, 4.0, 9):
            z = m.copy()
            z[1] += r
            vals.append(H.log_predictive(post, PRIOR, z))
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_no_observations_rejected(self):
        with pytest.raises(ValueError, match="no observations"):
            H.log_predictive(H.empty_posterior("w", 2), PRIOR, np.zeros(2))

    def test_graph_path_matches_plain_path_and_is_differentiable(self):
        rng = np.random.default_rng(7)
        post = random_posterior(rng, 3)
        z = rng.normal(size=3)
        plain = H.log_predictive(post, PRIOR, z)
        g = ad.DiffGraph()
        t = H.log_predictive(post, PRIOR, z, graph=g)
        assert float(t.data) == plain
        grads = g.backward(t)
        assert grads["rho_alpha"] != 0.0
        assert grads["rho_beta"] != 0.0

        def builder(graph, tt):
            return H.log_predictive(post, (tt["rho_alpha"], tt["rho_beta"]), tt["z"], graph=graph)

        point = {"rho_alpha": np.asarray(0.0), "rho_beta": np.asarray(0.0), "z": z}
        assert ad.grad_check(builder, point, step=1e-5) < 1e-6


class TestPredict:
    def test_separable_1d(self):
        head = H.HeadState(PRIOR)
        head.add_class("neg", np.array([[-5.2], [-4.8], [-5.0]]))
        head.add_class("pos", np.array([[4.8], [5.2], [5.0]]))
        assert H.predict(head, np.array([4.9])) == "pos"
        assert H.predict(head, np.array([-4.9])) == "neg"

    def test_single_class_head(self):
        head = H.HeadState(PRIOR)
        head.add_class("only", np.array([[0.0, 1.0]]))
        assert H.predict(head, np.array([100.0, -3.0])) == "only"

    def test_empty_head_rejected(self):
        with pytest.raises(ValueError, match="no classes"):
            H.predict(H.HeadState(PRIOR), np.zeros(2))

    def test_tie_breaks_to_earliest_inserted(self):
        head = H.HeadState(PRIOR)
        Z = np.array([[1.0, 0.0], [-1.0, 0.0]])
        head.add_class("first", Z)
        head.add_class("second", Z.copy())
        assert H.predict(head, np.array([0.3, 0.3])) == "first"

    def test_agrees_with_independent_dense_oracle(self):
        sps = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(8)
        for _ in range(200):
            d = int(rng.integers(1, 5))
            n_classes = int(rng.integers(2, 6))
            head = H.HeadState(H.PriorParams(rng.normal() * 0.5, rng.normal() * 0.5))
            for c in range(n_classes):
                k = int(rng.integers(1, 8))
                Z = rng.normal(rng.normal(0, 3, size=d), rng.uniform(0.5, 2), size=(k, d))
                head.add_class(c, Z)
            z = rng.normal(0, 3, size=d)
            scores = []
            for c, post in head.posteriors.items():
                nu, m, s2 = H.predictive_params(post, head.prior)
                scores.append(np.sum(sps.t.logpdf(z, df=nu, loc=m, scale=np.sqrt(s2))))
            assert H.predict(head, z) == int(np.argmax(scores))

    def test_monotone_correctness_under_class_addition(self):
        # once a query is misclassified, adding classes can never fix it
        rng = np.random.default_rng(9)
        d = 3
        head = H.HeadState(PRIOR)
        head.add_class(0, rng.normal(0, 1, size=(5, d)))
        z = rng.normal(0, 2, size=d)
        true_class = 0
        was_wrong = False
        for c in range(1, 40):
            head.add_class(c, rng.normal(rng.normal(0, 2, size=d), 1, size=(5, d)))
            correct = H.predict(head, z) == true_class
            if was_wrong:
                assert not correct
            was_wrong = was_wrong or not correct


def test_prototypical_network_limit():
    # huge alpha_0 with beta_0 = alpha_0 * c and equal n turns the head into
    # a nearest-Euclidean-mean classifier
    rng = np.random.default_rng(10)
    c = 2.0
    prior = H.PriorParams(math.log(1e6), math.log(1e6 * c))
    agree = 0
    trials = 300
    for _ in range(trials):
        d = int(rng.integers(2, 6))
        n_classes = int(rng.integers(2, 6))
        head = H.HeadState(prior)
        means = []
        for cls in range(n_classes):
            Z = rng.normal(rng.normal(0, 3, size=d), 1.0, size=(4, d))
            head.add_class(cls, Z)
            means.append(Z.mean(axis=0))
        z = rng.normal(0, 3, size=d)
        nearest = int(np.argmin([np.sum((z - m) ** 2) for m in means]))
        agree += H.predict(head, z) == nearest
    assert agree >= trials - 1


class TestEpisodeLoss:
    def _labels(self, n, k):
        return [f"c{i}" for i in range(n) for _ in range(k)]

    def test_uniform_logits_give_log_n(self):
        rng = np.random.default_rng(11)
        n, k, q, d = 25, 5, 5, 8
        block = rng.normal(size=(k, d))
        support = np.tile(block, (n, 1))  # identical class statistics
        query = rng.normal(size=(n * q, d))
        g = ad.DiffGraph()
        loss = H.episode_loss(
            PRIOR, support, self._labels(n, k), query, self._labels(n, q), g
        )
        assert float(loss.data) == pytest.approx(math.log(25.0), abs=1e-9)

    def test_separated_classes_drive_loss_to_zero(self):
        rng = np.random.default_rng(12)
        n, k, q, d = 5, 5, 5, 8
        means = rng.normal(0, 50, size=(n, d))
        support = np.concatenate([rng.normal(m, 0.01, size=(k, d)) for m in means])
        query = np.concatenate([rng.normal(m, 0.01, size=(q, d)) for m in means])
        g = ad.DiffGraph()
        loss = H.episode_loss(
            PRIOR, support, self._labels(n, k), query, self._labels(n, q), g
        )
        assert float(loss.data) < 0.01

    def test_query_label_absent_rejected(self):
        g = ad.DiffGraph()
        with pytest.raises(ValueError, match="absent"):
            H.episode_loss(
                PRIOR,
                np.zeros((4, 2)),
                ["a", "a", "b", "b"],
                np.zeros((1, 2)),
                ["zz"],
                g,
            )

    def test_scattered_support_rejected(self):
        g = ad.DiffGraph()
        with pytest.raises(ValueError, match="contiguous"):
            H.episode_loss(
                PRIOR,
                np.zeros((4, 2)),
                ["a", "b", "a", "b"],
                np.zeros((1, 2)),
                ["a"],
                g,
            )

    def test_gradients_reach_rho_and_embeddings(self):
        rng = np.random.default_rng(13)
        n, k, q, d = 3, 4, 2, 5
        support = rng.normal(size=(n * k, d))
        query = rng.normal(size=(n * q, d))
        sup_y, qry_y = self._labels(n, k), self._labels(n, q)

        def builder(graph, t):
            return H.episode_loss(
                (t["rho_alpha"], t["rho_beta"]), t["s"], sup_y, t["q"], qry_y, graph
            )

        point = {
            "rho_alpha": np.asarray(0.2),
            "rho_beta": np.asarray(-0.1),
            "s": support,
            "q": query,
        }
        assert ad.grad_check(builder, point, step=4e-4) <= 1e-4

    @pytest.mark.parametrize(
        "n,k,q,d", [(2, 1, 1, 1), (3, 1, 4, 5), (5, 4, 1, 3), (10, 5, 5, 16), (4, 7, 3, 2)]
    )
    def test_matches_per_class_loop_oracle(self, n, k, q, d):
        rng = np.random.default_rng(100 * n + 10 * k + q)
        support = rng.normal(size=(n * k, d))
        query = rng.normal(size=(n * q, d))
        sup_y, qry_y = self._labels(n, k), self._labels(n, q)
        point = {
            "rho_alpha": np.asarray(0.3),
            "rho_beta": np.asarray(-0.4),
            "s": support,
            "q": query,
        }

        def run(loss_fn):
            g = ad.DiffGraph()
            t = {name: g.input(name, v) for name, v in point.items()}
            loss = loss_fn((t["rho_alpha"], t["rho_beta"]), t["s"], sup_y, t["q"], qry_y, g)
            return float(loss.data), g.backward(loss)

        loss, grads = run(H.episode_loss)
        ref_loss, ref_grads = run(_loop_episode_loss)
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        for name, ref in ref_grads.items():
            assert np.max(np.abs(grads[name] - ref)) <= 1e-12 * np.max(np.abs(ref)), name

    def test_head_tape_size_does_not_grow_with_ways(self):
        def head_nodes(n):
            rng = np.random.default_rng(n)
            g = ad.DiffGraph()
            s = g.input("s", rng.normal(size=(n * 5, 8)))
            q = g.input("q", rng.normal(size=(n * 5, 8)))
            before = len(g)
            H.episode_loss(PRIOR, s, self._labels(n, 5), q, self._labels(n, 5), g)
            return len(g) - before

        assert head_nodes(5) == head_nodes(25)


def _loop_episode_loss(prior, support_z, support_labels, query_z, query_labels, graph):
    """Reference: the Student-t logits built one class at a time."""
    ra, rb = prior
    labels = list(dict.fromkeys(support_labels))
    n = float(len(support_labels) // len(labels))
    d = support_z.shape[1]
    alpha = ad.exp(ra) + 0.5 * n
    nu = 2.0 * alpha
    half_nu1 = 0.5 * (nu + 1.0)
    shared = float(d) * (ad.lgamma(half_nu1) - ad.lgamma(0.5 * nu)) - 0.5 * float(d) * ad.log(
        math.pi * nu
    )
    scale_factor = ((n + 1.0) / n) * ad.reciprocal(alpha)
    cols = []
    for j in range(len(labels)):
        block = ad.rows(support_z, int(j * n), int((j + 1) * n))
        mu = ad.mean_reduce(block, axis=0)
        var = ad.mean_reduce(block * block, axis=0) - mu * mu
        scale2 = (ad.exp(rb) + 0.5 * n * var) * scale_factor
        dev = query_z - mu
        tail = ad.sum_reduce(ad.log(1.0 + dev * dev / (nu * scale2)), axis=1)
        const = shared - 0.5 * ad.sum_reduce(ad.log(scale2))
        cols.append(const - half_nu1 * tail)
    y = np.array([labels.index(lab) for lab in query_labels], dtype=np.int64)
    return ad.softmax_cross_entropy(ad.stack(cols, axis=1), y)


def test_head_snapshot_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    head = H.HeadState(H.PriorParams(0.25, -0.75))
    for c in ("alpha", "beta", "gamma"):
        head.add_class(c, rng.normal(size=(4, 6)))
    path = tmp_path / "head.bcl"
    H.save_head(head, path)
    loaded = H.load_head(path)
    assert loaded.prior == head.prior
    assert loaded.class_ids == head.class_ids
    for c in head.class_ids:
        assert loaded.posteriors[c].state_bytes() == head.posteriors[c].state_bytes()

import contextlib
import math
import os
import re
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayescl import head as H

import tape_ops as ad

PRIOR = H.PriorParams(0.0, 0.0)  # alpha_0 = beta_0 = 1


def bind_rho(graph, prior=PRIOR):
    """``prior``'s (rho_alpha, rho_beta), each bound once on ``graph``."""
    return graph.input("rho_alpha", prior.rho_alpha), graph.input("rho_beta", prior.rho_beta)


def constant_episode_loss(prior, support, query, n):
    """``episode_loss`` on a new graph: ``prior`` bound, the embeddings constants."""
    g = ad.DiffGraph()
    return H.episode_loss(bind_rho(g, prior), g.constant(support), g.constant(query), n)


def pool_of(threads):
    """A ``ScoringPool`` of ``threads`` threads to pass to ``class_scores``,
    or for None no pool: each call then opens its own."""
    return contextlib.nullcontext() if threads is None else H.ScoringPool(threads)


def one_class_head(rng, d, n=None, prior=PRIOR):
    n = n or int(rng.integers(1, 12))
    Z = rng.normal(rng.normal(0, 2, size=d), rng.uniform(0.5, 2.0), size=(n, d))
    return head_of(Z, prior)


def head_of(Z, prior=PRIOR):
    """One-class head from the rows of ``Z``, added as one batch."""
    head = H.HeadState(prior)
    head.add_class("w", Z)
    return head


def folded_head(Z, order, prior=PRIOR):
    """One-class head from the rows of ``Z`` in ``order``: the first added,
    each later one folded in with ``update_class``."""
    order = np.asarray(order)
    head = H.HeadState(prior)
    head.add_class("w", Z[order[:1]])
    for i in order[1:]:
        head.update_class("w", Z[i])
    return head


def posterior(head, row=0):
    """(kappa_n, mu_n, alpha_n, beta_n) of one row of ``normal_gamma``."""
    kappa, mu, alpha, beta = head.normal_gamma()
    return kappa[row, 0], mu[row], alpha[row, 0], beta[row]


def row_bytes(head, class_id):
    r = head.posteriors[class_id]
    return head.n[r], head.sum_z[r].tobytes(), head.sum_z2[r].tobytes()


def score(head, z):
    """Log predictive density of the vector ``z`` under a one-class head."""
    return float(H.class_scores(head, np.asarray(z)[None, :])[0, 0])


class TestUpdateRules:
    def test_kappa_and_alpha_track_count(self):
        rng = np.random.default_rng(0)
        head = H.HeadState(PRIOR)
        for n in range(1, 11):
            z = rng.normal(size=3)
            if n == 1:
                head.add_class("w", z[None, :])
            else:
                head.update_class("w", z)
            kappa, _, alpha, _ = posterior(head)
            assert kappa == n
            assert alpha == 1.0 + n / 2.0

    def test_single_sample_mean_is_z_and_beta_is_beta0(self):
        z = np.array([0.3, -2.0, 5.5])
        _, mu, _, beta = posterior(head_of(z[None, :]))
        np.testing.assert_array_equal(mu, z)
        np.testing.assert_array_equal(beta, np.ones(3))

    def test_two_sample_hand_case(self):
        # samples 0 and 2 in one dimension: mean 1, mean-square 2
        head = head_of(np.array([[0.0], [2.0]]))
        _, mu, _, beta = posterior(head)
        assert mu[0] == 1.0
        assert head.sum_z2[0][0] / head.n[0] == 2.0
        assert beta[0] == PRIOR.beta0 + 1.0

    def test_repeated_vector_gives_zero_variance(self):
        z = np.array([1.5, -0.5])
        _, mu, _, beta = posterior(head_of(np.tile(z, (5, 1))))
        np.testing.assert_array_equal(mu, z)
        np.testing.assert_array_equal(beta, np.ones(2))

    def test_dimension_mismatch_rejected(self):
        head = head_of(np.ones((1, 3)))
        with pytest.raises(ValueError, match="dimension|shape"):
            head.update_class("w", np.ones(4))

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            H.HeadState(PRIOR).add_class("w", np.empty((0, 3)))

    def test_class_of_another_width_rejected(self):
        head = head_of(np.ones((2, 3)))
        with pytest.raises(ValueError, match=r"^class 'b' has width 4, the head's classes have width 3$"):
            head.add_class("b", np.ones((2, 4)))
        assert head.class_ids == ["w"]


class TestConjugacy:
    def test_batch_equals_fold_and_permuted_fold(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            d = int(rng.integers(1, 9))
            k = int(rng.integers(1, 21))
            Z = rng.normal(size=(k, d)) * rng.uniform(0.1, 5)
            batch = head_of(Z)
            for order in (range(k), rng.permutation(k)):
                fold = folded_head(Z, order)
                assert fold.n == batch.n
                for a, b in zip(posterior(fold), posterior(batch)):
                    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_order_invariance_property(self, seed):
        rng = np.random.default_rng(seed)
        k, d = int(rng.integers(2, 10)), int(rng.integers(1, 5))
        Z = rng.normal(size=(k, d))
        _, batch_mu, _, batch_beta = posterior(head_of(Z))
        _, fold_mu, _, fold_beta = posterior(folded_head(Z, rng.permutation(k)))
        np.testing.assert_allclose(fold_beta, batch_beta, rtol=1e-12)
        np.testing.assert_allclose(fold_mu, batch_mu, rtol=1e-12)


def test_forgetting_immunity_updates_never_touch_other_classes():
    # random interleaving of ten per-class sample streams: each class's
    # final row must be byte-identical to folding its own stream alone
    # (other classes' updates must not perturb it at all)
    rng = np.random.default_rng(2)
    d, n_classes = 4, 10
    samples = {c: [rng.normal(size=d) for _ in range(10)] for c in range(n_classes)}
    head = H.HeadState(H.PriorParams(0.1, 0.2))
    arrival = [c for c in range(n_classes) for _ in range(10)]
    rng.shuffle(arrival)
    cursor = {c: 0 for c in range(n_classes)}
    for c in arrival:
        z = samples[c][cursor[c]]
        if cursor[c] == 0:
            head.add_class(c, z[None, :])
        else:
            head.update_class(c, z)
        cursor[c] += 1
    for c in range(n_classes):
        alone = H.HeadState(head.prior)
        alone.add_class(c, samples[c][0][None, :])
        for z in samples[c][1:]:
            alone.update_class(c, z)
        assert row_bytes(head, c) == row_bytes(alone, c)


class TestLogPredictive:
    """The density of one class, through ``class_scores`` on a one-class head."""

    def test_hand_case_matches_frozen_oracle(self):
        # nu=4, location 1, scale^2 = 1.5 at z=1; value frozen from
        # scipy.stats.t.logpdf(1, df=4, loc=1, scale=sqrt(1.5))
        value = score(head_of(np.array([[0.0], [2.0]])), np.array([1.0]))
        assert value == pytest.approx(-1.1835618070658083, abs=1e-12)

    def test_matches_scipy_t_logpdf(self):
        sps = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            head = one_class_head(rng, d)
            z = rng.normal(size=d)
            nu, m, s2 = row_predictive(head, 0)
            oracle = float(
                np.sum(sps.t.logpdf(z, df=nu, loc=m, scale=np.sqrt(s2)))
            )
            assert score(head, z) == pytest.approx(oracle, abs=1e-9)

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        Z = rng.normal(size=(6, 3))
        z = rng.normal(size=3)
        shift = rng.normal(size=3) * 10
        a = score(head_of(Z), z)
        b = score(head_of(Z + shift), z + shift)
        assert a == pytest.approx(b, abs=1e-9)

    def test_density_integrates_to_one(self):
        quad = pytest.importorskip("scipy.integrate").quad
        rng = np.random.default_rng(5)
        for _ in range(10):
            head = one_class_head(rng, 1)
            total, _ = quad(
                lambda x: math.exp(score(head, np.array([x]))),
                -np.inf,
                np.inf,
            )
            assert total == pytest.approx(1.0, abs=1e-3)

    def test_monotone_in_distance_per_dimension(self):
        rng = np.random.default_rng(6)
        head = one_class_head(rng, 3, n=5)
        _, m, _, _ = posterior(head)
        vals = []
        for r in np.linspace(0.0, 4.0, 9):
            z = m.copy()
            z[1] += r
            vals.append(score(head, z))
        assert all(a > b for a, b in zip(vals, vals[1:]))


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
            for r in head.posteriors.values():
                nu, m, s2 = row_predictive(head, r)
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


def row_predictive(head, r):
    """(nu, location, scale^2) of row ``r``'s Student's t predictive, one
    class at a time from the raw row: the per-class reference for
    ``HeadState.normal_gamma`` and ``class_scores``."""
    n, prior = head.n[r], head.prior
    zbar = head.sum_z[r] / n
    gbar = head.sum_z2[r] / n
    beta = prior.beta0 + 0.5 * n * np.maximum(gbar - zbar * zbar, 0.0)
    a = prior.alpha0 + 0.5 * n
    k = float(n)
    return 2.0 * a, zbar, beta * (k + 1.0) / (a * k)


def log_t(z, nu, mean, scale2):
    """Student's t log density of the rows of ``z``, summed over the last axis."""
    half_nu1, const = H._log_t_const(nu, scale2, float(z.shape[-1]))
    dev = z - mean
    q = dev * dev / (nu * scale2)
    return const - half_nu1 * np.sum(np.log(1.0 + q), axis=-1)


def loop_class_scores(head, Z):
    """Reference: ``log_t`` once per class on a C-ordered float64 copy."""
    Z = np.ascontiguousarray(Z, dtype=np.float64)
    cols = [log_t(Z, *row_predictive(head, r)) for r in head.posteriors.values()]
    return np.stack(cols, axis=1)


def random_head(rng, n_classes, d, max_shots=8):
    head = H.HeadState(H.PriorParams(rng.normal() * 0.5, rng.normal() * 0.5))
    for c in range(n_classes):
        k = int(rng.integers(1, max_shots + 1))
        head.add_class(c, rng.normal(rng.normal(0, 2, size=d), rng.uniform(0.5, 2), size=(k, d)))
    return head


def block_classes(m, d):
    return max(1, H._BLOCK_ELEMENTS // (m * d))


class TestClassScores:
    """class_scores must be byte-equal to the per-class loop, so that no
    argmax tie can resolve differently between the two."""

    def assert_matches_loop(self, head, Z):
        got = H.class_scores(head, Z)
        assert got.shape == (len(Z), len(head.posteriors))
        assert got.tobytes() == loop_class_scores(head, Z).tobytes()

    def test_one_query_one_class_one_dimension(self):
        head = H.HeadState(PRIOR)
        head.add_class("w", np.array([[0.5], [2.0]]))
        self.assert_matches_loop(head, np.array([[1.25]]))

    @pytest.mark.parametrize("m, d, n_classes", [(50, 64, 47), (1100, 64, 3), (7, 3, 3200)])
    def test_several_blocks_and_a_partial_last_block(self, m, d, n_classes):
        b = block_classes(m, d)
        assert n_classes > b and (b == 1 or n_classes % b)
        rng = np.random.default_rng(15)
        self.assert_matches_loop(random_head(rng, n_classes, d), rng.normal(0, 2, size=(m, d)))

    def test_random_shapes(self):
        rng = np.random.default_rng(16)
        for _ in range(60):
            m, d, n_classes = (int(rng.integers(1, hi)) for hi in (80, 70, 60))
            self.assert_matches_loop(random_head(rng, n_classes, d), rng.normal(0, 3, size=(m, d)))

    def test_unequal_shot_counts_and_single_shot_classes(self):
        rng = np.random.default_rng(17)
        d = 12
        head = random_head(rng, 30, d)
        for c in range(30, 40):  # n = 1: zero variance, beta = beta_0
            head.add_class(c, rng.normal(size=(1, d)))
        for c in rng.integers(0, 40, size=60):
            head.update_class(int(c), rng.normal(size=d))
        assert len(set(head.n)) > 5
        assert min(head.n) == 1
        self.assert_matches_loop(head, rng.normal(0, 2, size=(90, d)))

    @pytest.mark.parametrize("layout", [np.asfortranarray, lambda z: z.astype(np.float32)])
    def test_query_layout_and_dtype_do_not_change_bits(self, layout):
        rng = np.random.default_rng(18)
        head = random_head(rng, 25, 40)
        Z = layout(rng.normal(0, 2, size=(60, 40)))
        self.assert_matches_loop(head, Z)
        contiguous = np.ascontiguousarray(Z, dtype=np.float64)
        assert H.class_scores(head, Z).tobytes() == H.class_scores(head, contiguous).tobytes()

    def test_empty_head_rejected(self):
        with pytest.raises(ValueError, match=r"^head has no classes$"):
            H.class_scores(H.HeadState(PRIOR), np.zeros((3, 2)))

    @pytest.mark.parametrize("shape", [(3,), (5, 4)], ids=["vector", "another-width"])
    def test_query_of_the_wrong_shape_rejected(self, shape):
        head = head_of(np.ones((2, 3)))
        message = rf"^queries have shape {re.escape(str(shape))}, the head's classes have width 3$"
        with pytest.raises(ValueError, match=message):
            H.class_scores(head, np.zeros(shape))


class TestClassScoresRows:
    """A range of head rows, as the protocol scores each checkpoint's new
    classes, gives those columns of the full matrix bit for bit."""

    @pytest.mark.parametrize("threads", [1, None], ids=["1", "default"])
    @pytest.mark.parametrize(
        "m, n_classes, d, block",
        # criterion 8's shape (B = 1); 4 blocks, the last partial, of
        # B = 8; one block of the whole head; a head that is one kernel
        # block (B = 900) scored 400 rows at a time
        [(1000, 200, 64, 25), (1000, 37, 8, 10), (50, 47, 64, 47), (5, 900, 4, 400)],
    )
    def test_blocks_are_the_columns_of_the_full_matrix(self, threads, m, n_classes, d, block):
        rng = np.random.default_rng(23)
        head = random_head(rng, n_classes, d)
        Z = rng.normal(0, 2, size=(m, d))
        with pool_of(threads) as pool:
            full = H.class_scores(head, Z, pool=pool)
            parts = [slice(c0, min(c0 + block, n_classes)) for c0 in range(0, n_classes, block)]
            got = [H.class_scores(head, Z, rows, pool) for rows in parts]
        stacked = head.normal_gamma()
        for rows, scores in zip(parts, got):
            assert scores.tobytes() == np.ascontiguousarray(full[:, rows]).tobytes()
            for a, b in zip(head.normal_gamma(rows), stacked):
                assert a.tobytes() == np.ascontiguousarray(b[rows]).tobytes()

    @staticmethod
    def zero_variance_head(prior):
        head = H.HeadState(prior)
        for c, row in enumerate(np.eye(3)):
            head.add_class(c, np.stack([row, row]))  # 2 identical shots
        return head

    @pytest.mark.parametrize(
        "rho_alpha, rho_beta",
        [(355.0, 0.0), (400.0, 0.0), (709.0, 0.0), (0.0, -709.0), (0.0, -720.0), (0.0, -745.0)],
    )
    def test_rho_past_the_tape_bounds_fails_before_scoring(self, rho_alpha, rho_beta):
        # the bounds of _student_t_logits: past them, nu * scale^2 overflows
        # (rho_alpha 709) or 1 / (nu * scale^2) of a zero-variance class does
        head = self.zero_variance_head(H.PriorParams(rho_alpha, rho_beta))
        query = np.random.default_rng(8).normal(scale=3.0, size=(6, 3))
        if rho_alpha:
            message = rf"^class_scores: alpha_n above 1e100 at rho_alpha = {rho_alpha!r}$"
        else:
            message = rf"^class_scores: scale\^2 below 1e-200 at rho_beta = {rho_beta!r}$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                H.class_scores(head, query)

    @pytest.mark.parametrize("rho_alpha, rho_beta", [(200.0, 0.0), (0.0, -400.0)])
    def test_rho_within_the_bounds_scores_finitely(self, rho_alpha, rho_beta):
        head = self.zero_variance_head(H.PriorParams(rho_alpha, rho_beta))
        query = np.random.default_rng(8).normal(scale=3.0, size=(6, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(H.class_scores(head, query)).all()


class TestScoringThreads:
    """class_scores' threads take its class blocks in turn; the bytes must
    not depend on the thread count."""

    # B = 1 with 200 blocks; 5 blocks of 8, the last of 5; a single block;
    # 2 blocks, fewer than 3 threads; no queries
    SHAPES = [(1000, 200, 64), (1000, 37, 8), (200, 37, 8), (3000, 2, 16), (0, 30, 5)]

    @pytest.mark.parametrize("threads", [1, 2, 3, None], ids=["1", "2", "3", "default"])
    @pytest.mark.parametrize("m, n_classes, d", SHAPES)
    def test_any_thread_count_gives_the_loop_bytes(self, threads, m, n_classes, d):
        rng = np.random.default_rng(19)
        head = random_head(rng, n_classes, d)
        Z = rng.normal(0, 2, size=(m, d))
        with pool_of(threads) as pool:
            got = H.class_scores(head, Z, pool=pool)
        assert got.shape == (m, n_classes)
        assert got.tobytes() == loop_class_scores(head, Z).tobytes()

    def test_at_most_one_thread_per_block(self, monkeypatch):
        # (block width, blocks) of each shape, and on 3 CPUs the threads
        assert [H._plan(*shape) for shape in self.SHAPES] == [
            (1, 200), (8, 5), (37, 1), (1, 2), (30, 1)]
        monkeypatch.setattr(H, "_cpu_threads", lambda: 3)
        assert [H.scoring_threads(*shape) for shape in self.SHAPES] == [3, 3, 1, 2, 1]
        buffers = []
        score_blocks = H._score_blocks

        def record(*a):
            buffers.append(a[-1])
            score_blocks(*a)

        monkeypatch.setattr(H, "_score_blocks", record)
        rng = np.random.default_rng(26)
        head, Z = random_head(rng, 2, 16), rng.normal(size=(3000, 16))
        with H.ScoringPool(3) as pool:  # 2 blocks take 2 of the pool's 3 threads
            H.class_scores(head, Z, pool=pool)
        assert len({id(b) for b in buffers}) == 2

    def test_the_caller_and_each_pool_thread_take_blocks(self, monkeypatch):
        ran = []
        score_blocks = H._score_blocks

        def record(*a):
            ran.append(threading.current_thread() is threading.main_thread())
            score_blocks(*a)

        monkeypatch.setattr(H, "_score_blocks", record)
        rng = np.random.default_rng(20)
        head, Z = random_head(rng, 37, 8), rng.normal(size=(1000, 8))
        with H.ScoringPool(3) as pool:
            got = H.class_scores(head, Z, pool=pool)
        assert got.tobytes() == loop_class_scores(head, Z).tobytes()
        assert sorted(ran) == [False, False, True]

    def test_more_threads_than_cores_with_rapid_switching(self):
        # 12 threads claiming adjacent column blocks of one output and
        # switching every microsecond: a block lost, done twice or written
        # to the wrong columns changes the bytes
        rng = np.random.default_rng(22)
        head, Z = random_head(rng, 60, 16), rng.normal(0, 2, size=(2000, 16))
        assert H._plan(2000, 60, 16) == (2, 30)
        expected = loop_class_scores(head, Z).tobytes()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with H.ScoringPool(12) as shared:  # and 12 threads kept across calls
                for _ in range(5):
                    with H.ScoringPool(12) as own:
                        assert H.class_scores(head, Z, pool=own).tobytes() == expected
                    assert H.class_scores(head, Z, slice(None), shared).tobytes() == expected
        finally:
            sys.setswitchinterval(interval)

    def test_an_error_in_a_pool_thread_reaches_the_caller(self, monkeypatch):
        score_blocks = H._score_blocks

        def fail_off_the_calling_thread(*a):
            if threading.current_thread() is not threading.main_thread():
                raise FloatingPointError("pool thread")
            score_blocks(*a)

        monkeypatch.setattr(H, "_score_blocks", fail_off_the_calling_thread)
        rng = np.random.default_rng(21)
        with H.ScoringPool(2) as pool, pytest.raises(FloatingPointError, match="pool thread"):
            H.class_scores(random_head(rng, 10, 64), rng.normal(size=(1000, 64)), pool=pool)

    def test_default_is_one_thread_per_usable_cpu(self):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert H.scoring_threads(1000, 200, 64) == min(200, cpus)
        assert H.scoring_threads(10, 20, 64) == 1  # one block: every training head

    def test_cpu_count_where_the_affinity_call_is_missing(self, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert H._cpu_threads() == os.cpu_count()
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert H._cpu_threads() == 5
        assert H.scoring_threads(1000, 200, 64) == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # "undetermined"
        assert H._cpu_threads() == 1


class TestScoringPool:
    """A protocol episode's checkpoints score their class ranges on one
    ``ScoringPool``: its threads and their block buffers serve every call."""

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_ranges_on_one_pool_give_the_bytes_of_separate_calls(self, monkeypatch, threads):
        # 1,000 queries x 20 classes x 8 dimensions: 3 blocks of up to 8 classes
        rng = np.random.default_rng(24)
        head, Z = random_head(rng, 60, 8), rng.normal(0, 2, size=(1000, 8))
        buffers = []
        score_blocks = H._score_blocks

        def record(*a):
            buffers.append(a[-1])
            score_blocks(*a)

        monkeypatch.setattr(H, "_score_blocks", record)
        before = threading.active_count()
        ranges = [slice(c, c + 20) for c in (0, 20, 40)]
        with H.ScoringPool(threads) as shared:
            on_pool = [H.class_scores(head, Z, rows, shared) for rows in ranges]
        assert threading.active_count() == before
        assert len({id(b) for b in buffers}) == min(threads, 3)  # one buffer per thread
        with H.ScoringPool(1) as serial:
            on_one = [H.class_scores(head, Z, rows, serial) for rows in ranges]
        separate = [H.class_scores(head, Z, rows) for rows in ranges]
        assert ([a.tobytes() for a in on_pool] == [a.tobytes() for a in on_one]
                == [a.tobytes() for a in separate])

    def test_the_caller_waits_for_the_pool_threads_when_it_fails(self, monkeypatch):
        # a pool outlives the call, so a failing call must not leave a
        # thread writing into its buffers or output
        score_blocks = H._score_blocks
        raised, finished = threading.Event(), []

        def fail_on_the_calling_thread(*a):
            if threading.current_thread() is threading.main_thread():
                raised.set()
                raise FloatingPointError("calling thread")
            raised.wait(timeout=10)
            time.sleep(0.05)  # still scoring after the caller has failed
            score_blocks(*a)
            finished.append(True)

        monkeypatch.setattr(H, "_score_blocks", fail_on_the_calling_thread)
        rng = np.random.default_rng(25)
        head, Z = random_head(rng, 10, 64), rng.normal(size=(1000, 64))
        with H.ScoringPool(2) as shared:
            with pytest.raises(FloatingPointError, match="calling thread"):
                H.class_scores(head, Z, slice(None), shared)
            assert finished == [True]


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
    def test_uniform_logits_give_log_n(self):
        rng = np.random.default_rng(11)
        n, k, q, d = 25, 5, 5, 8
        block = rng.normal(size=(k, d))
        support = np.tile(block, (n, 1))  # identical class statistics
        query = rng.normal(size=(n * q, d))
        loss = constant_episode_loss(PRIOR, support, query, n)
        assert float(loss.data) == pytest.approx(math.log(25.0), abs=1e-9)

    def test_separated_classes_drive_loss_to_zero(self):
        rng = np.random.default_rng(12)
        n, k, q, d = 5, 5, 5, 8
        means = rng.normal(0, 50, size=(n, d))
        support = np.concatenate([rng.normal(m, 0.01, size=(k, d)) for m in means])
        query = np.concatenate([rng.normal(m, 0.01, size=(q, d)) for m in means])
        loss = constant_episode_loss(PRIOR, support, query, n)
        assert float(loss.data) < 0.01

    @pytest.mark.parametrize(
        "support_rows, query_rows, n, which",
        [(5, 4, 2, "5 support"), (4, 3, 2, "3 query"), (2, 2, 3, "2 support"),
         (4, 4, 0, "4 support")],
    )
    def test_rows_that_do_not_split_into_classes_rejected(
        self, support_rows, query_rows, n, which
    ):
        support, query = np.zeros((support_rows, 2)), np.zeros((query_rows, 2))
        with pytest.raises(ValueError, match=f"{which} rows do not split into {n} equal classes"):
            constant_episode_loss(PRIOR, support, query, n)

    def test_gradients_reach_rho_and_embeddings(self):
        rng = np.random.default_rng(13)
        n, k, q, d = 3, 4, 2, 5
        support = rng.normal(size=(n * k, d))
        query = rng.normal(size=(n * q, d))

        def builder(graph, t):
            return H.episode_loss((t["rho_alpha"], t["rho_beta"]), t["s"], t["q"], n)

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
        point = {
            "rho_alpha": np.asarray(0.3),
            "rho_beta": np.asarray(-0.4),
            "s": support,
            "q": query,
        }

        def run(loss_fn):
            g = ad.DiffGraph()
            t = {name: g.input(name, v) for name, v in point.items()}
            loss = loss_fn((t["rho_alpha"], t["rho_beta"]), t["s"], t["q"], n)
            return float(loss.data), g.backward(loss)

        loss, grads = run(H.episode_loss)
        ref_loss, ref_grads = run(_loop_episode_loss)
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        for name, ref in ref_grads.items():
            assert np.max(np.abs(grads[name] - ref)) <= 1e-12 * np.max(np.abs(ref)), name

    @pytest.mark.parametrize("n,k,q,d", [(2, 1, 1, 1), (5, 3, 4, 6), (10, 5, 5, 16)])
    def test_equals_cross_entropy_of_class_scores(self, n, k, q, d):
        # training and evaluation score queries with the same density
        rng = np.random.default_rng(10 * n + k)
        prior = H.PriorParams(0.3, -0.4)
        support = rng.normal(rng.normal(0, 2, size=(n, 1, d)), 1.0, size=(n, k, d))
        query = rng.normal(size=(n * q, d))
        labels = [f"c{i}" for i in range(n)]
        head = H.HeadState(prior)
        for lab, rows in zip(labels, support):
            head.add_class(lab, rows)
        scores = H.class_scores(head, query)
        y = np.repeat(np.arange(n), q)
        top = scores.max(axis=1)
        lse = top + np.log(np.exp(scores - top[:, None]).sum(axis=1))
        expected = float(np.mean(lse - scores[np.arange(n * q), y]))
        loss = constant_episode_loss(prior, support.reshape(n * k, d), query, n)
        assert abs(float(loss.data) - expected) <= 1e-12 * abs(expected)

    def test_head_tape_size_does_not_grow_with_ways(self):
        def head_nodes(n):
            rng = np.random.default_rng(n)
            g = ad.DiffGraph()
            s = g.input("s", rng.normal(size=(n * 5, 8)))
            q = g.input("q", rng.normal(size=(n * 5, 8)))
            rho = bind_rho(g)
            before = len(g)
            H.episode_loss(rho, s, q, n)
            return len(g) - before

        assert head_nodes(5) == head_nodes(25)


def _tape_logits(rho, support_z, query_z, n_classes):
    """Reference: the Student-t logits composed of generic tape ops, one node
    per step, which ``head._student_t_logits`` fuses into one node."""
    d = support_z.shape[1]
    shots = support_z.shape[0] // n_classes
    per_class = ad.reshape(support_z, (n_classes, shots, d))  # (N, K, d)
    mu = ad.mean_reduce(per_class, axis=1)
    var = ad.sub(ad.mean_reduce(ad.mul(per_class, per_class), axis=1), ad.mul(mu, mu))
    nu, scale2 = _tape_predictive(rho, float(shots), var)
    return _tape_log_t(ad.reshape(query_z, (query_z.shape[0], 1, d)), nu, mu, scale2)


def _tape_episode_loss(rho, support_z, query_z, n_classes):
    """Reference ``episode_loss``: ``_tape_logits`` and the cross-entropy."""
    logits = _tape_logits(rho, support_z, query_z, n_classes)
    return ad.softmax_cross_entropy(logits, _class_major(query_z.shape[0], n_classes))


def _class_major(rows, n_classes):
    """The class of each of ``rows`` class-major rows: row i is class i // (rows / N)."""
    return np.repeat(np.arange(n_classes), rows // n_classes)


def _whole_classes(m, n):
    """``m`` rounded up to a multiple of ``n``, so every class gets the same queries."""
    return -(-m // n) * n


def _tape_predictive(rho, n, var):
    ra, rb = rho
    alpha = ad.add(ad.exp(ra), 0.5 * n)
    beta = ad.add(ad.exp(rb), ad.mul(var, 0.5 * n))
    scale2 = ad.mul(ad.mul(beta, (n + 1.0) / n), ad.reciprocal(alpha))
    return ad.mul(alpha, 2.0), scale2


def _tape_log_t(z, nu, mean, scale2):
    d = float(z.shape[-1])
    half_nu1 = ad.mul(ad.add(nu, 1.0), 0.5)
    const = ad.sub(
        ad.sub(
            ad.mul(ad.sub(ad.lgamma(half_nu1), ad.lgamma(ad.mul(nu, 0.5))), d),
            ad.mul(ad.log(ad.mul(nu, math.pi)), 0.5 * d),
        ),
        ad.mul(ad.sum_reduce(ad.log(scale2), axis=-1), 0.5),
    )
    dev = ad.sub(z, mean)
    q = ad.mul(ad.mul(dev, dev), ad.reciprocal(ad.mul(nu, scale2)))
    return ad.sub(const, ad.mul(half_nu1, ad.sum_reduce(ad.log(ad.add(q, 1.0)), axis=-1)))


def _episode(n, k, m, d, seed):
    """(N*K, d) class-major support and (m, d) query rows."""
    rng = np.random.default_rng(seed)
    support = rng.normal(rng.normal(0, 2, size=(n, 1, d)), 1.0, size=(n, k, d)).reshape(n * k, d)
    return support, rng.normal(0, 2, size=(m, d))


def _loss_and_grads(loss_fn, prior, support, query, n):
    """Loss and gradients with support, query and ``prior``'s rho bound as inputs."""
    g = ad.DiffGraph()
    s, q = g.input("support", support), g.input("query", query)
    loss = loss_fn(bind_rho(g, prior), s, q, n)
    return loss.data, g.backward(loss)


class TestFusedLogits:
    """``episode_loss`` with its one Student-t node must give the bits of the
    generic-op composition: the loss and every gradient."""

    @pytest.mark.parametrize(
        "n, k, m, d", [(2, 1, 1, 1), (3, 1, 4, 5), (4, 7, 3, 2), (10, 5, 50, 64), (25, 5, 125, 64)]
    )
    @pytest.mark.parametrize(
        "prior",
        [H.PriorParams(0.3, -0.4), H.PriorParams(-1.2, 0.8)],
        ids=["rho", "prior"],
    )
    def test_loss_and_gradients_are_the_composition_bits(self, n, k, m, d, prior):
        episode = _episode(n, k, _whole_classes(m, n), d, seed=1000 * n + 100 * k + m)
        loss, grads = _loss_and_grads(H.episode_loss, prior, *episode, n)
        ref, ref_grads = _loss_and_grads(_tape_episode_loss, prior, *episode, n)
        assert loss.tobytes() == ref.tobytes()
        assert grads.keys() == ref_grads.keys()
        assert set(grads) == {"support", "query", "rho_alpha", "rho_beta"}
        for name, ref_grad in ref_grads.items():
            assert grads[name].shape == ref_grad.shape, name
            assert grads[name].tobytes() == ref_grad.tobytes(), name

    def test_any_cotangent_gives_the_composition_bits(self):
        # a cross-entropy cotangent sums to 0 over classes, so the adjoint of
        # the class-shared constant (and of nu through lgamma and log(pi nu))
        # nearly vanishes under episode_loss; random cotangents exercise it
        rng = np.random.default_rng(19)

        def run(logits_fn, prior, support, query, n, cotangent):
            g = ad.DiffGraph()
            s, q = g.input("support", support), g.input("query", query)
            rho = (g.input("rho_alpha", prior[0]), g.input("rho_beta", prior[1]))
            out = logits_fn(rho, s, q, n)
            return out.data, g.backward(out, seed=cotangent)

        for i in range(100):
            n, k, m, d = (int(rng.integers(lo, hi)) for lo, hi in ((2, 7), (1, 6), (1, 9), (1, 7)))
            prior = (np.asarray(rng.normal()), np.asarray(rng.normal()))
            support, query = _episode(n, k, m, d, seed=i)
            cotangent = rng.normal(size=(m, n))
            out, grads = run(H._student_t_logits, prior, support, query, n, cotangent)
            ref, ref_grads = run(_tape_logits, prior, support, query, n, cotangent)
            assert out.tobytes() == ref.tobytes(), i
            for name, ref_grad in ref_grads.items():
                assert grads[name].tobytes() == ref_grad.tobytes(), (i, name)

    def test_constant_embeddings_give_the_rho_gradient_bits(self):
        support, query = _episode(5, 3, _whole_classes(7, 5), 4, seed=3)

        def run(loss_fn):
            g = ad.DiffGraph()
            rho = bind_rho(g, H.PriorParams(0.2, -0.3))
            loss = loss_fn(rho, g.constant(support), g.constant(query), 5)
            return loss.data, g.backward(loss)

        (loss, grads), (ref, ref_grads) = run(H.episode_loss), run(_tape_episode_loss)
        assert loss.tobytes() == ref.tobytes()
        assert grads.keys() == ref_grads.keys() == {"rho_alpha", "rho_beta"}
        for name in grads:
            assert grads[name].tobytes() == ref_grads[name].tobytes(), name

    def test_head_is_one_node_plus_rho_and_cross_entropy(self):
        support, query = _episode(10, 5, 50, 16, seed=4)
        g = ad.DiffGraph()
        s, q = g.input("s", support), g.input("q", query)
        rho = bind_rho(g)
        loss = H.episode_loss(rho, s, q, 10)
        assert [t.op for t in g._nodes[4:]] == ["student_t_logits", "softmax_cross_entropy"]
        assert loss.parents[0].parents == (s, q, *rho)

    @pytest.mark.parametrize("stray", ["rho_alpha", "rho_beta", "support", "query"])
    def test_tensors_from_another_graph_rejected(self, stray):
        support, query = _episode(3, 2, 3, 4, seed=6)
        g, other = ad.DiffGraph(), ad.DiffGraph()
        values = {"rho_alpha": 0.0, "rho_beta": 0.0, "support": support, "query": query}
        t = {name: (other if name == stray else g).input(name, v) for name, v in values.items()}
        with pytest.raises(ad.GraphError, match="student_t_logits: .* different graphs"):
            H.episode_loss((t["rho_alpha"], t["rho_beta"]), t["support"], t["query"], 3)
        assert (len(g), len(other)) == (3, 1)

    def test_overflowing_query_fails_in_the_forward(self):
        # (1e160)^2 overflows: the composition stops at its dev * dev node,
        # the fused node at the logits it emits
        support, query = _episode(4, 3, _whole_classes(2, 4), 5, seed=5)
        query[1] = 1e160
        with np.errstate(over="ignore"):
            with pytest.raises(ad.GraphError, match="non-finite value produced by op 'mul'"):
                _loss_and_grads(_tape_episode_loss, PRIOR, support, query, 4)
            with pytest.raises(
                ad.GraphError, match="non-finite value produced by op 'student_t_logits'"
            ):
                _loss_and_grads(H.episode_loss, PRIOR, support, query, 4)

    def test_zero_scale_fails_the_log_domain_check(self):
        # beta_0 = e^-800 underflows to 0 and identical shots have variance 0
        support = np.repeat(np.eye(3), 2, axis=0)  # classes of 2 identical shots
        prior = H.PriorParams(0.0, -800.0)
        with pytest.raises(ad.GraphError, match="log: non-positive argument"):
            _loss_and_grads(_tape_episode_loss, prior, support, np.ones((3, 3)), 3)
        with pytest.raises(
            ad.GraphError, match=r"^student_t_logits: scale\^2 below 1e-200 at rho_beta = -800\.0$"
        ):
            _loss_and_grads(H.episode_loss, prior, support, np.ones((3, 3)), 3)

    def test_overflowing_rho_alpha_fails_before_the_lgamma_steps(self):
        # e^1000 overflows; an infinite alpha would reach the Lanczos series
        # and fail there as a bare RuntimeWarning under -W error
        support, query = _episode(3, 2, 6, 5, seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ad.GraphError, match=r"^student_t_logits: alpha above 1e100 at rho_alpha = 1000\.0$"
            ):
                _loss_and_grads(H.episode_loss, H.PriorParams(1000.0, 0.0), support, query, 3)

    @pytest.mark.parametrize(
        "rho_alpha, rho_beta",
        [(355.0, 0.0), (400.0, 0.0), (709.0, 0.0), (0.0, -709.0), (0.0, -720.0), (0.0, -745.0)],
    )
    def test_finite_rho_past_the_bounds_fails_in_the_forward(self, rho_alpha, rho_beta):
        # e^rho_alpha is finite but alpha's Lanczos digamma squares it past
        # the float64 maximum; or beta_0 = e^rho_beta is positive but so
        # small that 1 / (nu scale^2) of a zero-variance class overflows
        support = np.repeat(np.eye(3), 2, axis=0)  # classes of 2 identical shots
        query = np.random.default_rng(8).normal(scale=3.0, size=(6, 3))
        prior = H.PriorParams(rho_alpha, rho_beta)
        bound = r"alpha above 1e100" if rho_alpha else r"scale\^2 below 1e-200"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ad.GraphError, match=rf"^student_t_logits: {bound} at rho_"):
                _loss_and_grads(H.episode_loss, prior, support, query, 3)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ad.GraphError, match="differ in width"):
            constant_episode_loss(PRIOR, np.zeros((4, 3)), np.zeros((2, 2)), 2)

    def test_every_borrowed_array_is_written_before_it_is_read(self):
        # the forward lends dev, dev2, opq and the log's temporary, and the
        # vjp takes that temporary back and one more array: 5 (M, N, d) arrays
        support, query = _episode(3, 4, 8, 5, seed=5)
        cotangent = np.random.default_rng(5).normal(size=(8, 3))

        def run(g):
            rho = bind_rho(g, H.PriorParams(0.3, -0.2))
            s, q = g.input("support", support), g.input("query", query)
            logits = H._student_t_logits(rho, s, q, 3)
            return [logits.data, *g.backward(logits, seed=cotangent).values()]

        expected, got, borrowed = ad.fresh_and_poisoned(run)
        assert got == expected and borrowed == 5


def _loop_episode_loss(rho, support_z, query_z, n_classes):
    """Reference: the Student-t logits built one class at a time."""
    ra, rb = rho
    n = float(support_z.shape[0] // n_classes)
    d = support_z.shape[1]
    alpha = ad.add(ad.exp(ra), 0.5 * n)
    nu = ad.mul(alpha, 2.0)
    half_nu1 = ad.mul(ad.add(nu, 1.0), 0.5)
    shared = ad.sub(
        ad.mul(ad.sub(ad.lgamma(half_nu1), ad.lgamma(ad.mul(nu, 0.5))), float(d)),
        ad.mul(ad.log(ad.mul(nu, math.pi)), 0.5 * float(d)),
    )
    scale_factor = ad.mul(ad.reciprocal(alpha), (n + 1.0) / n)
    cols = []
    pick = np.eye(support_z.shape[0])
    for j in range(n_classes):
        block = ad.matmul(pick[int(j * n) : int((j + 1) * n)], support_z)  # class j's rows
        mu = ad.mean_reduce(block, axis=0)
        var = ad.sub(ad.mean_reduce(ad.mul(block, block), axis=0), ad.mul(mu, mu))
        scale2 = ad.mul(ad.add(ad.exp(rb), ad.mul(var, 0.5 * n)), scale_factor)
        dev = ad.sub(query_z, mu)
        q = ad.mul(ad.mul(dev, dev), ad.reciprocal(ad.mul(nu, scale2)))
        tail = ad.sum_reduce(ad.log(ad.add(q, 1.0)), axis=1)
        const = ad.sub(shared, ad.mul(ad.sum_reduce(ad.log(scale2)), 0.5))
        cols.append(ad.sub(const, ad.mul(half_nu1, tail)))
    y = _class_major(query_z.shape[0], n_classes)
    return ad.softmax_cross_entropy(ad.stack(cols, axis=1), y)


def test_head_snapshot_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    head = H.HeadState(H.PriorParams(0.25, -0.75))
    for c in ("alpha", "beta", "gamma"):
        head.add_class(c, rng.normal(size=(4, 6)))
    head.update_class("beta", rng.normal(size=6))
    path, again = tmp_path / "head.bcl", tmp_path / "again.bcl"
    H.save_head(head, path)
    loaded = H.load_head(path)
    assert loaded.prior == head.prior
    assert loaded.class_ids == head.class_ids
    for c in head.class_ids:
        assert row_bytes(loaded, c) == row_bytes(head, c)
    H.save_head(loaded, again)
    assert again.read_bytes() == path.read_bytes()

import functools
import inspect
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

import serec.engine
from serec.engine import DEFAULT_BLOCK_SIZE, DEFAULT_DENSE_BUDGET
from conftest import MatrixProvider, dense_clicks, random_graph, random_interactions
from reference_impls import (
    brute_force_posterior,
    e_step_pair,
    fixed_exposure_p,
    ll_oracle,
    ridge_row_oracle,
)
from serec import (
    BoostExposure,
    ConfigError,
    ExposurePosterior,
    FactorModel,
    FixedExposure,
    InteractionMatrix,
    PopularityExposure,
    RegularExposure,
    SyntheticSpec,
    TrainConfig,
    TrainingError,
    e_step,
    fit,
    load_model,
    log_likelihood,
    save_model,
    update_item_factors,
    update_user_factors,
)


def make_model(theta, beta, lt=0.01, lb=0.01, ly=1.0):
    return FactorModel(np.atleast_2d(theta), np.atleast_2d(beta), lt, lb, ly)


class TestEStepPair:
    def test_worked_example(self):
        assert e_step_pair(0.5, 2.0, 1.0) == pytest.approx(0.05123, abs=5e-6)
        assert e_step_pair(0.5, 2.0, 1.0) == pytest.approx(0.05122526494871291, abs=1e-15)

    def test_zero_score(self):
        # prior 0.5 against the evidence of a silent pair at score 0
        assert e_step_pair(0.5, 0.0, 1.0) == pytest.approx(0.2851742248343187, abs=1e-15)

    def test_degenerate_priors_exact(self):
        assert e_step_pair(0.0, 1.3, 2.0) == 0.0
        assert e_step_pair(1.0, 1.3, 2.0) == 1.0

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(1000):
            mu = rng.random()
            score = rng.normal(0, 2)
            ly = float(np.exp(rng.uniform(np.log(0.1), np.log(10))))
            assert abs(e_step_pair(mu, score, ly) - brute_force_posterior(mu, score, ly)) < 1e-12

    def test_monotone_in_prior(self):
        mus = np.linspace(0, 1, 50)
        ps = e_step_pair(mus, 1.0, 1.0)
        assert np.all(np.diff(ps) > 0)

    def test_decreasing_in_score_magnitude(self):
        scores = np.linspace(0, 5, 50)
        ps = e_step_pair(0.5, scores, 1.0)
        assert np.all(np.diff(ps) < 0)
        assert e_step_pair(0.5, -3.0, 1.0) == e_step_pair(0.5, 3.0, 1.0)

    def test_broadcasts(self):
        out = e_step_pair(np.full((2, 3), 0.5), np.zeros((2, 3)), 1.0)
        assert out.shape == (2, 3)
        assert np.allclose(out, 0.2851742248343187)


class TestEStep:
    def test_clicked_pairs_are_one_and_rest_match_pairwise_rule(self, rng):
        y = random_interactions(rng, 6, 9)
        mu = rng.uniform(0, 1, (6, 9))
        model = make_model(rng.normal(0, 1, (6, 2)), rng.normal(0, 1, (9, 2)))
        post = e_step(y, model, MatrixProvider(mu), block_size=4)
        clicked = dense_clicks(y).astype(bool)
        assert np.all(post[clicked] == 1.0)
        scores = model.theta @ model.beta.T
        expected = e_step_pair(np.clip(mu, 1e-6, 1 - 1e-6), scores, model.lambda_y)
        assert np.allclose(post[~clicked], expected[~clicked], atol=1e-15)
        assert post.min() >= 0.0 and post.max() <= 1.0

    def test_fixed_weight_posterior_is_a_read_only_constant_view(self, rng, monkeypatch):
        # wmf's posterior is the 8-byte view of its weight: e_step and fit
        # return it unwritten, and a fit builds no U x V array on the way
        n_u, n_v = 300, 400
        y = random_interactions(rng, n_u, n_v, density=0.05)
        provider = FixedExposure(y, mu_unobserved=0.4)
        model = make_model(rng.normal(0, 1, (n_u, 2)), rng.normal(0, 1, (n_v, 2)))
        with pytest.raises(ValueError, match="constant view"):
            e_step(y, model, provider, out=np.zeros((n_u, n_v)))
        monkeypatch.setattr(serec.engine, "CHUNK_ENTRIES", n_u * n_v // 8)
        cfg = TrainConfig(k=2, max_em_iters=2, convergence_tol=1e-15, block_size=64)
        tracemalloc.start()
        try:
            res = fit(y, provider, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n_u * n_v * 8
        for post in (e_step(y, model, provider), res.posterior):
            assert post.shape == (n_u, n_v) and post.strides == (0, 0)
            assert not post.flags.writeable
            assert np.all(post == 0.4)

    def test_dimension_mismatch(self, rng):
        y = random_interactions(rng, 4, 5)
        model = make_model(np.zeros((3, 2)), np.zeros((5, 2)))
        with pytest.raises(ValueError, match="dimensions"):
            e_step(y, model, MatrixProvider(np.full((4, 5), 0.5)))

    @pytest.mark.parametrize("n_users, n_items", [(3, 5), (4, 6)])
    def test_log_likelihood_checks_dimensions_as_e_step_does(self, rng, n_users, n_items):
        y = random_interactions(rng, 4, 5)
        model = make_model(np.zeros((n_users, 2)), np.zeros((n_items, 2)))
        provider = MatrixProvider(np.full((4, 5), 0.5))
        for sweep in (e_step, log_likelihood):
            with pytest.raises(ValueError, match="model and interaction matrix disagree"):
                sweep(y, model, provider)

    def test_provider_contract_violations(self, rng):
        y = random_interactions(rng, 4, 5)
        model = make_model(np.zeros((4, 2)), np.zeros((5, 2)))
        with pytest.raises(ValueError, match="contract violation"):
            e_step(y, model, MatrixProvider(np.full((4, 5), 1.5)))
        with pytest.raises(ValueError, match="contract violation"):
            e_step(y, model, MatrixProvider(np.full((4, 5), np.nan)))
        with pytest.raises(ValueError, match=r"contract violation: mu outside \[0, 1\]"):
            log_likelihood(y, model, MatrixProvider(np.full((4, 5), 1.5)))
        # a prior whose rows are one view is checked on its one row
        row = np.array([0.5, 0.5, 0.5, 0.5, 1.5])
        for sweep in (e_step, log_likelihood):
            with pytest.raises(ValueError, match="contract violation"):
                sweep(y, model, MatrixProvider(np.broadcast_to(row, (4, 5))))
        with pytest.raises(ValueError, match="shape"):
            e_step(y, model, MatrixProvider(np.full((3, 5), 0.5)))

    @pytest.mark.parametrize("n_threads", [1, 4])
    def test_bayes_passes_reject_the_priors_only_the_likelihood_takes(self, rng, n_threads):
        # priors of exactly 0 and 1 lie in the likelihood's range, outside the Bayes rule's
        y = random_interactions(rng, 6, 9, density=0.3)
        mu = np.where(np.arange(6 * 9).reshape(6, 9) % 3 == 0, 0.0, 1.0)
        mu[y.user_idx, y.item_idx] = 1.0
        model = make_model(rng.normal(0, 1, (6, 2)), rng.normal(0, 1, (9, 2)))
        assert math.isfinite(log_likelihood(y, model, MatrixProvider(mu), block_size=4))
        message = r"provider contract violation: mu outside \[1e-06, 0.999999\]"
        unclicked = np.argwhere(dense_clicks(y) == 0)[0]
        for prior in (0.0, 1.0):
            edge = np.full((6, 9), 0.5)
            edge[tuple(unclicked)] = prior
            with pytest.raises(ValueError, match=message):
                e_step(y, model, MatrixProvider(edge), block_size=4)
            cfg = TrainConfig(k=2, max_em_iters=2, block_size=4, n_threads=n_threads)
            with pytest.raises(ValueError, match=message):
                fit(y, MatrixProvider(edge), cfg)

    def test_failed_e_step_removes_the_posterior_it_spilled(self, rng, monkeypatch, tmp_path):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        spilling = functools.partial(ExposurePosterior, dense_budget=0)
        monkeypatch.setattr(serec.engine, "ExposurePosterior", spilling)
        y = random_interactions(rng, 4, 5)
        model = make_model(np.zeros((4, 2)), np.zeros((5, 2)))
        with pytest.raises(ValueError, match="contract violation"):
            e_step(y, model, MatrixProvider(np.full((4, 5), 1.5)))
        assert os.listdir(tmp_path) == []


class TestFactorUpdates:
    def test_single_pair_closed_form(self):
        y = InteractionMatrix(1, 1, [(0, 0)])
        model = make_model([[0.0]], [[2.0]], lt=0.1, lb=0.1, ly=1.0)
        theta = update_user_factors(y, np.array([[1.0]]), model)
        assert theta[0, 0] == pytest.approx(2.0 / 4.1, abs=1e-12)

    def test_user_with_no_clicks_gets_zero_vector(self, rng):
        y = InteractionMatrix(3, 4, [(0, 0), (2, 1)])
        model = make_model(rng.normal(0, 1, (3, 2)), rng.normal(0, 1, (4, 2)))
        p = rng.uniform(0.1, 1, (3, 4))
        theta = update_user_factors(y, p, model)
        assert np.array_equal(theta[1], np.zeros(2))

    def test_matches_ridge_oracle(self, rng):
        for _ in range(50):
            n_u = int(rng.integers(1, 11))
            n_v = int(rng.integers(1, 11))
            k = int(rng.integers(1, 4))
            y = random_interactions(rng, n_u, n_v, density=0.4)
            y_dense = dense_clicks(y)
            p = rng.uniform(0.01, 1, (n_u, n_v))
            p[y_dense.astype(bool)] = 1.0
            model = make_model(
                rng.normal(0, 1, (n_u, k)),
                rng.normal(0, 1, (n_v, k)),
                lt=float(rng.uniform(0.01, 2)),
                lb=float(rng.uniform(0.01, 2)),
                ly=float(rng.uniform(0.1, 5)),
            )
            theta = update_user_factors(y, p, model)
            beta = update_item_factors(y, p, model)
            for u in range(n_u):
                ref = ridge_row_oracle(
                    model.beta, p[u], y_dense[u], model.lambda_y, model.lambda_theta
                )
                assert np.allclose(theta[u], ref, atol=1e-10)
            for i in range(n_v):
                ref = ridge_row_oracle(
                    model.theta, p[:, i], y_dense[:, i], model.lambda_y, model.lambda_beta
                )
                assert np.allclose(beta[i], ref, atol=1e-10)

    @pytest.mark.parametrize("k", [7, 20])
    @pytest.mark.parametrize("spilled", [False, True], ids=["dense", "memmap"])
    def test_matches_ridge_oracle_at_full_width(self, rng, monkeypatch, tmp_path, k, spilled):
        # every entry of the packed Gram's index map, at an odd K and at the
        # default K, over several chunks of a dense or a disk-backed posterior
        n_u, n_v = 30, 45
        y = random_interactions(rng, n_u, n_v, density=0.3)
        y_dense = dense_clicks(y)
        p = rng.uniform(0.01, 1, (n_u, n_v))
        p[y_dense.astype(bool)] = 1.0
        if spilled:
            disk = np.memmap(tmp_path / "p.dat", dtype=np.float64, mode="w+", shape=p.shape)
            disk[:] = p
            p = disk
        model = make_model(
            rng.normal(0, 1, (n_u, k)), rng.normal(0, 1, (n_v, k)), lt=0.3, lb=0.7, ly=2.0
        )
        monkeypatch.setattr(serec.engine, "CHUNK_ENTRIES", 7 * max(n_u, n_v))
        theta = update_user_factors(y, p, model)
        beta = update_item_factors(y, p, model)
        for u in range(n_u):
            ref = ridge_row_oracle(model.beta, p[u], y_dense[u], model.lambda_y, model.lambda_theta)
            assert np.allclose(theta[u], ref, atol=1e-10)
        for i in range(n_v):
            ref = ridge_row_oracle(
                model.theta, p[:, i], y_dense[:, i], model.lambda_y, model.lambda_beta
            )
            assert np.allclose(beta[i], ref, atol=1e-10)

    @staticmethod
    def _fixed_weight_case(rng, n_u=30, n_v=45, k=7):
        # user 0 and item 0 have no clicks; user 1 clicks all but item 0 and
        # item 1 is clicked by all but user 0, each far wider than the rest
        mask = rng.random((n_u, n_v)) < 0.1
        mask[0], mask[:, 0] = False, False
        mask[1, 1:], mask[1:, 1] = True, True
        y = InteractionMatrix(n_u, n_v, np.argwhere(mask))
        model = make_model(
            rng.normal(0, 1, (n_u, k)), rng.normal(0, 1, (n_v, k)), lt=0.3, lb=0.7, ly=2.0
        )
        return y, model

    @pytest.mark.parametrize("mu_unobserved", [0.4, 1.0])
    def test_fixed_weight_view_matches_ridge_oracle(self, rng, monkeypatch, mu_unobserved):
        # the split Gram, c F^T F plus each row's clicks, over chunks of at
        # most 4 rows as narrow as K and one for each wide row, solves the
        # systems of the fixed weights: c but 1 at the clicks
        y, model = self._fixed_weight_case(rng)
        k = model.k
        monkeypatch.setattr(serec.engine, "GATHER_ENTRIES", 4 * k * k)
        view = ExposurePosterior(FixedExposure(y, mu_unobserved), y.n_users, y.n_items)
        y_dense = dense_clicks(y)
        p = fixed_exposure_p(y_dense, mu_unobserved)
        theta = update_user_factors(y, view, model)
        beta = update_item_factors(y, view, model)
        assert np.array_equal(theta[0], np.zeros(k)) and np.array_equal(beta[0], np.zeros(k))
        for u in range(y.n_users):
            ref = ridge_row_oracle(model.beta, p[u], y_dense[u], model.lambda_y, model.lambda_theta)
            assert np.allclose(theta[u], ref, atol=1e-10)
        for i in range(y.n_items):
            ref = ridge_row_oracle(
                model.theta, p[:, i], y_dense[:, i], model.lambda_y, model.lambda_beta
            )
            assert np.allclose(beta[i], ref, atol=1e-10)

    @pytest.mark.parametrize("solve", [update_user_factors, update_item_factors])
    def test_fixed_weight_solve_is_the_same_on_any_thread_count(self, rng, monkeypatch, solve):
        # the chunks follow the click counts, so 1, 2 and 4 threads write
        # the same bytes
        y, model = self._fixed_weight_case(rng, k=20)
        monkeypatch.setattr(serec.engine, "GATHER_ENTRIES", 3 * 20 * 20)
        view = ExposurePosterior(FixedExposure(y, 0.4), y.n_users, y.n_items)
        one = solve(y, view, model, 1)
        for n_threads in (2, 4):
            assert solve(y, view, model, n_threads).tobytes() == one.tobytes()

    @pytest.mark.parametrize("n_threads", [1, 2])
    @pytest.mark.parametrize("solve", [update_user_factors, update_item_factors])
    def test_fixed_weight_solve_builds_no_weight_chunk(self, rng, solve, n_threads):
        # traced heap bound: per thread one chunk's gather, its K x K systems
        # and LAPACK's copy of them, and four n x K arrays (the padded
        # factors, the output and two more for the row order and the
        # temporaries); a chunk of rows x V weights, as the dense path
        # reads, breaks it
        n, k = 2000, 20
        y = random_interactions(rng, n, n, density=0.01)
        view = ExposurePosterior(FixedExposure(y, 0.4), n, n)
        model = make_model(rng.normal(0, 1, (n, k)), rng.normal(0, 1, (n, k)))
        tracemalloc.start()
        try:
            solve(y, view, model, n_threads=n_threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 8 * (n_threads * 3 * serec.engine.GATHER_ENTRIES + 4 * n * k)
        assert bound < 8 * serec.engine.CHUNK_ENTRIES  # one chunk of weights
        assert peak < bound

    @pytest.mark.parametrize("n_threads", [1, 2])
    @pytest.mark.parametrize("solve", [update_user_factors, update_item_factors])
    def test_solves_hold_the_packed_gram_and_a_chunk_per_thread(
        self, rng, monkeypatch, solve, n_threads
    ):
        # traced heap bound: the packed Gram (K(K+1)/2 x n), per thread one
        # chunk's packed sums and K x K systems, and three n x K arrays: the
        # factors transposed, the output, and one more that covers each
        # chunk's own clicked entries and right-hand side; no copy of the
        # clicks is made.  A full K x K Gram, a packed one built from whole
        # gathered temporaries, or a transposed copy of each chunk of p
        # breaks it.
        n, k, chunk = 2000, 20, 64
        m = k * (k + 1) // 2
        y = random_interactions(rng, n, n, density=0.01)
        p = rng.uniform(0, 1, (n, n))
        model = make_model(rng.normal(0, 1, (n, k)), rng.normal(0, 1, (n, k)))
        monkeypatch.setattr(serec.engine, "CHUNK_ENTRIES", n * chunk)
        tracemalloc.start()
        try:
            solve(y, p, model, n_threads=n_threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 8 * (m * n + n_threads * chunk * (m + k * k) + 3 * n * k)
        assert peak < bound

    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_single_thread_item_solve_copies_bounded_chunks(self, rng, monkeypatch, n_threads):
        # each thread reads the posterior a column chunk at a time, so a
        # spilled posterior is never copied into RAM whole
        y = random_interactions(rng, 200, 1500, density=0.01)
        p = rng.uniform(0, 1, (200, 1500))
        model = make_model(rng.normal(0, 1, (200, 3)), rng.normal(0, 1, (1500, 3)))
        whole = update_item_factors(y, p, model, n_threads=1)
        monkeypatch.setattr(serec.engine, "CHUNK_ENTRIES", 200 * 50)
        tracemalloc.start()
        try:
            chunked = update_item_factors(y, p, model, n_threads=n_threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < p.nbytes / 4
        # rows solve independently; BLAS may round a row apart by batch size
        assert np.allclose(chunked, whole, rtol=1e-12, atol=0.0)

    def test_update_is_local_minimum(self, rng):
        # coordinate perturbations of the solved row never lower the objective
        y = random_interactions(rng, 5, 7, density=0.4)
        y_dense = dense_clicks(y)
        p = rng.uniform(0.05, 1, (5, 7))
        model = make_model(rng.normal(0, 1, (5, 3)), rng.normal(0, 1, (7, 3)), ly=2.0)
        theta = update_user_factors(y, p, model)

        def objective(u, vec):
            resid = y_dense[u] - model.beta @ vec
            return model.lambda_y * np.sum(p[u] * resid**2) + model.lambda_theta * vec @ vec

        for u in range(5):
            base = objective(u, theta[u])
            for j in range(3):
                for delta in (-1e-3, 1e-3):
                    bumped = theta[u].copy()
                    bumped[j] += delta
                    assert objective(u, bumped) >= base


class TestLogLikelihood:
    def test_single_click_certain_exposure(self):
        y = InteractionMatrix(1, 1, [(0, 0)])
        model = make_model([[1.0]], [[1.0]], lt=1e-12, lb=1e-12, ly=1.0)
        ll = log_likelihood(y, model, MatrixProvider(np.ones((1, 1))))
        assert ll == pytest.approx(-0.9189385332046727, abs=1e-9)

    def test_zero_prior_no_clicks_is_exactly_zero(self):
        y = InteractionMatrix(2, 2, [])
        model = make_model(np.zeros((2, 1)), np.zeros((2, 1)))
        assert log_likelihood(y, model, MatrixProvider(np.zeros((2, 2)))) == 0.0

    def test_click_with_zero_prior_raises(self):
        y = InteractionMatrix(1, 2, [(0, 1)])
        model = make_model(np.zeros((1, 1)), np.zeros((2, 1)))
        with pytest.raises(ValueError, match="zero exposure prior"):
            log_likelihood(y, model, MatrixProvider(np.zeros((1, 2))))

    def test_exact_at_prior_zero_and_one(self, rng):
        y = random_interactions(rng, 5, 6, density=0.3)
        clicked = dense_clicks(y).astype(bool)
        mu = np.where(rng.random((5, 6)) < 0.5, 0.0, 1.0)
        mu[clicked] = 1.0
        model = make_model(
            rng.normal(0, 0.5, (5, 2)), rng.normal(0, 0.5, (6, 2)), lt=0.3, lb=0.7, ly=1.7
        )
        scores = model.theta @ model.beta.T
        log_c = 0.5 * math.log(1.7 / (2 * math.pi))
        want = -0.15 * np.sum(model.theta**2) - 0.35 * np.sum(model.beta**2)
        want += np.sum(log_c - 0.85 * (1.0 - scores[clicked]) ** 2)
        # mu = 0 pairs add exactly nothing; mu = 1 pairs add log N(0 | score)
        want += np.sum(log_c - 0.85 * scores[~clicked & (mu == 1.0)] ** 2)
        got = log_likelihood(y, model, MatrixProvider(mu), block_size=4)
        assert got == pytest.approx(want, rel=1e-13)

    def test_unit_prior_with_underflowing_density_stays_finite(self):
        # pair (0, 1) has score 1600: N(0 | score) = exp(-1.28e6) is 0.0 in
        # floating point, and its log must come from the score
        y = InteractionMatrix(1, 2, [(0, 0)])
        model = make_model([[40.0]], [[0.025], [40.0]], lt=1e-12, lb=1e-12, ly=1.0)
        ll = log_likelihood(y, model, MatrixProvider(np.ones((1, 2))))
        log_c = -0.5 * math.log(2 * math.pi)
        want = -0.5e-12 * (1600.0 + 0.025**2 + 1600.0) + log_c + log_c - 0.5 * 1600.0**2
        assert math.isfinite(ll)
        assert ll == pytest.approx(want, rel=1e-14)

    def test_matches_summation_oracle(self, rng):
        y = random_interactions(rng, 5, 6, density=0.3)
        mu = rng.uniform(0.05, 0.95, (5, 6))
        model = make_model(
            rng.normal(0, 0.5, (5, 2)), rng.normal(0, 0.5, (6, 2)), lt=0.3, lb=0.7, ly=1.7
        )
        got = log_likelihood(y, model, MatrixProvider(mu), block_size=2)
        want = ll_oracle(dense_clicks(y), model.theta, model.beta, mu, 0.3, 0.7, 1.7)
        assert got == pytest.approx(want, rel=1e-12)


class TestFit:
    def test_zero_iterations_returns_seeded_init(self, rng):
        y = random_interactions(rng, 6, 8)
        cfg = TrainConfig(k=3, max_em_iters=0, seed=42)
        res = fit(y, MatrixProvider(np.full((6, 8), 0.5)), cfg)
        ref = np.random.default_rng(42)
        assert np.array_equal(res.model.theta, ref.normal(0.0, cfg.init_scale, (6, 3)))
        assert np.array_equal(res.model.beta, ref.normal(0.0, cfg.init_scale, (8, 3)))
        assert res.trace == [] and res.n_iters == 0 and not res.converged

    def test_trace_non_decreasing_with_popularity_prior(self, rng):
        y = random_interactions(rng, 30, 40, density=0.1)
        provider = PopularityExposure(y)
        res = fit(y, provider, TrainConfig(k=3, max_em_iters=25, convergence_tol=1e-12, seed=1))
        trace = np.array(res.trace)
        rel = np.diff(trace) / np.maximum(np.abs(trace[:-1]), 1e-12)
        assert rel.min() > -1e-6

    def test_convergence_flag(self, rng):
        y = random_interactions(rng, 10, 12, density=0.2)
        res = fit(y, PopularityExposure(y), TrainConfig(k=2, max_em_iters=50, convergence_tol=1e-3))
        assert res.converged
        assert res.n_iters < 50

    def test_thread_count_does_not_change_result(self, rng, monkeypatch):
        monkeypatch.setattr(serec.engine, "CHUNK_ENTRIES", 30)  # solves in chunks of 2 rows
        y = random_interactions(rng, 12, 15, density=0.2)
        mu = np.full((12, 15), 0.3)
        res1 = fit(y, MatrixProvider(mu), TrainConfig(k=3, max_em_iters=1, seed=5, n_threads=1))
        res4 = fit(y, MatrixProvider(mu), TrainConfig(k=3, max_em_iters=1, seed=5, n_threads=4))
        assert np.array_equal(res1.model.theta, res4.model.theta)
        assert np.array_equal(res1.model.beta, res4.model.beta)

    def test_nan_update_aborts_naming_iteration(self, rng, monkeypatch):
        y = random_interactions(rng, 4, 5)

        def poisoned(*args, **kwargs):
            return np.full((4, 2), np.nan)

        monkeypatch.setattr(serec.engine, "update_user_factors", poisoned)
        with pytest.raises(TrainingError, match="iteration 1"):
            serec.engine.fit(y, MatrixProvider(np.full((4, 5), 0.5)), TrainConfig(k=2, max_em_iters=3))

    @pytest.mark.parametrize("kind", ["matrix", "boost"])
    def test_memmap_posterior_matches_dense(self, rng, monkeypatch, tmp_path, kind):
        # serec-boost reads its friend mass from the posterior, so a spilled
        # one feeds the prior from the memmap
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        y = random_interactions(rng, 8, 9, density=0.25)
        mu = rng.uniform(0.1, 0.9, (8, 9))
        graph = random_graph(rng, 8, density=0.3)

        def provider():
            if kind == "matrix":
                return MatrixProvider(mu)
            return BoostExposure(y, graph, s_coeff=5.0)

        cfg_dense = TrainConfig(k=2, max_em_iters=3, seed=9)
        cfg_spill = TrainConfig(k=2, max_em_iters=3, seed=9, dense_budget=1, block_size=4)
        res_dense = fit(y, provider(), cfg_dense)
        res_spill = fit(y, provider(), cfg_spill)
        assert not isinstance(res_dense.posterior, np.memmap)
        assert isinstance(res_spill.posterior, np.memmap)
        assert np.array_equal(res_dense.model.theta, res_spill.model.theta)
        assert np.array_equal(res_dense.model.beta, res_spill.model.beta)
        # the likelihood sums per block, so the trace compares at one block size
        res_blocked = fit(y, provider(), TrainConfig(k=2, max_em_iters=3, seed=9, block_size=4))
        assert res_blocked.trace == res_spill.trace
        # the spill file has no name, alive or released
        assert os.listdir(tmp_path) == []
        del res_spill
        assert os.listdir(tmp_path) == []

    def test_non_finite_likelihood_names_its_own_iteration(self, rng, monkeypatch):
        y = random_interactions(rng, 4, 5)
        solve = serec.engine.update_item_factors
        calls = []

        def huge_second_time(*args, **kwargs):
            calls.append(None)
            beta = solve(*args, **kwargs)
            return beta * 1e300 if len(calls) == 2 else beta  # finite, but its square is not

        monkeypatch.setattr(serec.engine, "update_item_factors", huge_second_time)
        with np.errstate(over="ignore"), pytest.raises(TrainingError) as err:
            fit(y, MatrixProvider(np.full((4, 5), 0.5)), TrainConfig(k=2, max_em_iters=3))
        assert str(err.value) == "non-finite log likelihood at EM iteration 2"

    def test_failed_fit_removes_spilled_posterior(self, rng, monkeypatch, tmp_path):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        y = random_interactions(rng, 4, 5)

        def poisoned(*args, **kwargs):
            return np.full((4, 2), np.nan)

        monkeypatch.setattr(serec.engine, "update_user_factors", poisoned)
        cfg = TrainConfig(k=2, max_em_iters=3, dense_budget=1)
        with pytest.raises(TrainingError):
            fit(y, MatrixProvider(np.full((4, 5), 0.5)), cfg)
        assert os.listdir(tmp_path) == []

    def test_killed_fit_leaves_no_spill_file(self, tmp_path):
        # SIGKILL runs no handler, so only a file without a name is gone
        # with the process
        code = """
import os, signal, sys
import numpy as np
from serec import InteractionMatrix, TrainConfig, fit

class KillingProvider:
    kind = "killing"
    spilled = None
    sweeps = 0

    def mu_block(self, j0, j1):
        self.sweeps += j0 == 0
        if self.sweeps == 2:
            if not self.spilled:
                sys.exit(3)
            os.kill(os.getpid(), signal.SIGKILL)
        return np.full((6, j1 - j0), 0.5)

    def update(self, post, y):
        self.spilled = isinstance(post, np.memmap)

y = InteractionMatrix(6, 40, [(u, (7 * u) % 40) for u in range(6)])
fit(y, KillingProvider(), TrainConfig(k=2, max_em_iters=3, dense_budget=1, block_size=8))
"""
        src = os.path.dirname(os.path.dirname(serec.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp_path))
        proc = subprocess.run([sys.executable, "-c", code], env=env)
        assert proc.returncode == -signal.SIGKILL
        assert os.listdir(tmp_path) == []

    def test_posterior_storage_mode_thresholds(self):
        dense = ExposurePosterior(None, 4, 5, dense_budget=20)
        assert not isinstance(dense, np.memmap)
        spilled = ExposurePosterior(None, 4, 5, dense_budget=19)
        assert isinstance(spilled, np.memmap)
        for p in (dense, spilled):
            assert p.shape == (4, 5) and p.dtype == np.float64 and not p.any()

    def test_spilled_posterior_is_freed_by_reference_count(self, rng, no_gc):
        # serec-boost holds the posterior it was last handed; nothing holds
        # the provider back, so no cycle keeps the spill alive
        y = random_interactions(rng, 8, 9, density=0.25)
        provider = BoostExposure(y, random_graph(rng, 8, density=0.3), s_coeff=5.0)
        res = fit(y, provider, TrainConfig(k=2, max_em_iters=3, dense_budget=1, block_size=4))
        assert isinstance(res.posterior, np.memmap)
        ref = weakref.ref(res.posterior)
        del res, provider
        assert ref() is None


KINDS = ["wmf", "expomf", "serec-regular", "serec-boost"]


def _provider_of_kind(kind, y, graph):
    if kind == "wmf":
        return FixedExposure(y)
    if kind == "expomf":
        return PopularityExposure(y)
    if kind == "serec-regular":
        return RegularExposure(y, graph, k_sr=3, n_sgd_epochs=2, refit_every=1)
    return BoostExposure(y, graph, s_coeff=3.0)


@pytest.mark.parametrize("kind", KINDS)
def test_update_reads_a_spilled_posterior_as_an_in_ram_one(rng, kind):
    # providers sum and slice p with plain numpy calls, which a memmap serves alike
    y = random_interactions(rng, 12, 14, density=0.2)
    graph = random_graph(rng, 12, density=0.3)
    p = rng.uniform(0, 1, (12, 14))
    p[y.user_idx, y.item_idx] = 1.0
    spilled = ExposurePosterior(None, 12, 14, dense_budget=1)
    assert isinstance(spilled, np.memmap)
    spilled[:] = p
    priors = []
    for post in (p, spilled):
        provider = _provider_of_kind(kind, y, graph)
        provider.update(post, y)
        priors.append(np.array(provider.mu_block(0, 14)))
    assert np.array_equal(priors[0], priors[1])


class CountingProvider(MatrixProvider):
    """MatrixProvider that counts the prior entries it serves."""

    def __init__(self, mu):
        super().__init__(mu)
        self.entries = 0

    def mu_block(self, j0, j1):
        block = super().mu_block(j0, j1)
        self.entries += block.size
        return block


class TestFusedSweep:
    """fit computes each likelihood inside the next E-step's sweep."""

    @pytest.mark.parametrize(
        "kind, n_threads",
        [pytest.param(kind, 1, id=kind) for kind in KINDS]
        + [pytest.param(kind, 4, id=f"{kind}-4-threads") for kind in KINDS],
    )
    def test_trace_equals_replay_of_the_public_calls(self, rng, kind, n_threads):
        # the serial e_step and log_likelihood replay a threaded fit bit for bit
        y = random_interactions(rng, 12, 14, density=0.2)
        graph = random_graph(rng, 12, density=0.3)
        cfg = TrainConfig(
            k=3, max_em_iters=3, convergence_tol=1e-15, seed=4, block_size=4, n_threads=n_threads
        )
        res = fit(y, _provider_of_kind(kind, y, graph), cfg)

        provider = _provider_of_kind(kind, y, graph)
        init = np.random.default_rng(cfg.seed)
        theta = init.normal(0.0, cfg.init_scale, (12, 3))
        model = FactorModel(theta, init.normal(0.0, cfg.init_scale, (14, 3)), 0.01, 0.01, 0.01)
        trace = []
        for _ in range(cfg.max_em_iters):
            post = e_step(y, model, provider, block_size=cfg.block_size)
            model.theta = update_user_factors(y, post, model, n_threads)
            model.beta = update_item_factors(y, post, model, n_threads)
            provider.update(post, y)
            trace.append(log_likelihood(y, model, provider, block_size=cfg.block_size))
        assert res.trace == trace
        assert np.array_equal(res.model.theta, model.theta)
        assert np.array_equal(res.model.beta, model.beta)

    def test_two_iterations_read_the_prior_three_times(self, rng):
        y = random_interactions(rng, 6, 9)
        provider = CountingProvider(rng.uniform(0.1, 0.9, (6, 9)))
        res = fit(y, provider, TrainConfig(k=2, max_em_iters=2, convergence_tol=1e-15, block_size=4))
        assert res.n_iters == 2
        assert provider.entries == 3 * 6 * 9

    @pytest.mark.parametrize("max_em_iters, tol, converged", [(50, 1e-3, True), (2, 1e-15, False)])
    def test_posterior_is_the_e_step_of_the_returned_model(self, rng, max_em_iters, tol, converged):
        y = random_interactions(rng, 10, 12, density=0.2)
        provider = PopularityExposure(y)
        cfg = TrainConfig(k=2, max_em_iters=max_em_iters, convergence_tol=tol, block_size=5)
        res = fit(y, provider, cfg)
        assert res.converged is converged
        fresh = e_step(y, res.model, provider, block_size=5)
        assert np.array_equal(res.posterior, fresh)


class TestThreadedSweep:
    """fit's sweeps run item blocks on the n_threads pool."""

    @pytest.mark.parametrize("block_size", [3, 5])  # neither divides the 14 items
    @pytest.mark.parametrize("dense_budget", [DEFAULT_DENSE_BUDGET, 1])
    @pytest.mark.parametrize("kind", KINDS)
    def test_thread_count_changes_neither_p_nor_likelihood(
        self, rng, kind, dense_budget, block_size
    ):
        y = random_interactions(rng, 12, 14, density=0.2)
        graph = random_graph(rng, 12, density=0.3)
        model = FactorModel(rng.normal(0, 1, (12, 3)), rng.normal(0, 1, (14, 3)), 0.01, 0.01, 0.5)
        start = e_step(y, model, _provider_of_kind(kind, y, graph))
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            for n_threads in (1, 2, 4):
                provider = _provider_of_kind(kind, y, graph)
                post = ExposurePosterior(provider, 12, 14, dense_budget)
                if kind != "wmf":  # wmf's posterior is a constant view, never written
                    assert isinstance(post, np.memmap) is (dense_budget <= 1)
                    post[:] = start
                # serec-boost now reads its friend mass from the p the sweep overwrites
                provider.update(post, y)
                serial = log_likelihood(y, model, provider, block_size)
                ll = serec.engine._sweep(y, model, provider, post, block_size, True, n_threads)
                assert ll == serial
                results.append((np.array(post), ll))
        finally:
            sys.setswitchinterval(interval)
        for p, ll in results[1:]:
            assert np.array_equal(p, results[0][0])
            assert ll == results[0][1]

    def test_failing_block_fails_fit_as_a_serial_sweep_does(self, rng, monkeypatch, tmp_path):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        n_items, block = 400, 4
        y = random_interactions(rng, 6, n_items, density=0.2)

        class FailingProvider(MatrixProvider):
            """Fails in two middle blocks; the earlier one fails later in time."""

            def __init__(self, mu):
                super().__init__(mu)
                self.started = []

            def mu_block(self, j0, j1):
                self.started.append(j0)
                if j0 in (200, 208):
                    time.sleep(0.05 if j0 == 200 else 0.0)
                    raise ValueError(f"no prior for items {j0}-{j1}")
                time.sleep(0.005)
                return super().mu_block(j0, j1)

        before = set(threading.enumerate())
        messages = {}
        for n_threads in (1, 4):
            provider = FailingProvider(np.full((6, n_items), 0.5))
            cfg = TrainConfig(k=2, max_em_iters=2, dense_budget=1, block_size=block, n_threads=n_threads)
            with pytest.raises(ValueError) as err:
                fit(y, provider, cfg)
            messages[n_threads] = str(err.value)
            assert os.listdir(tmp_path) == []
            assert set(threading.enumerate()) == before
            # the blocks queued behind the failure were cancelled, not run
            assert len(provider.started) < n_items // block // 2 + 10
        assert messages[1] == messages[4] == "no prior for items 200-204"

    @pytest.mark.parametrize("kind", ["wmf", "expomf", "serec-regular", "serec-boost"])
    def test_fit_leaves_the_clicks_and_the_graph_as_they_were(self, rng, kind):
        # the sweep's threads share y and graph, so nothing may add to them
        y = random_interactions(rng, 12, 14, density=0.2)
        graph = random_graph(rng, 12, density=0.3)
        before = [dict(vars(y)), dict(vars(graph))]
        provider = _provider_of_kind(kind, y, graph)
        fit(y, provider, TrainConfig(k=2, max_em_iters=2, n_threads=4, block_size=3))
        for obj, attrs in zip((y, graph), before):
            assert vars(obj).keys() == attrs.keys()
            assert all(vars(obj)[name] is value for name, value in attrs.items())

    @pytest.mark.parametrize("kind", ["wmf", "expomf", "serec-regular", "serec-boost"])
    def test_two_thread_sweep_holds_a_few_blocks_per_thread(self, rng, kind, monkeypatch):
        n_users, n_items = 256, 5000
        y = random_interactions(rng, n_users, n_items, density=0.01)
        graph = random_graph(rng, n_users, density=0.03)
        cfg = TrainConfig(k=3, max_em_iters=2, n_threads=2)
        sweep = serec.engine._sweep
        calls = []

        def traced_sweep(*args, **kwargs):
            call = inspect.signature(sweep).bind(*args, **kwargs)
            call.apply_defaults()
            tracemalloc.start()  # traces only what the sweep allocates
            try:
                out = sweep(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            calls.append((call.arguments["block_size"], call.arguments["n_threads"], peak))
            return out

        monkeypatch.setattr(serec.engine, "_sweep", traced_sweep)
        fit(y, _provider_of_kind(kind, y, graph), cfg)
        # three U x block arrays per block in flight (the prior, N0 and the
        # E-step denominator; serec-boost's friend mass replaces one), plus
        # slack; wmf's prior is a view and its likelihood's denominator is
        # built in N0's array, so it holds that one array only
        blocks = 1.5 if kind == "wmf" else 4
        bound = blocks * n_users * DEFAULT_BLOCK_SIZE * 8 * cfg.n_threads
        assert len(calls) == 3
        for block_size, n_threads, peak in calls:
            assert (block_size, n_threads) == (DEFAULT_BLOCK_SIZE, 2)
            assert peak < bound


class TestPersistence:
    def test_round_trip(self, rng, tmp_path):
        y = random_interactions(rng, 6, 7, density=0.3)
        provider = PopularityExposure(y)
        cfg = TrainConfig(k=2, max_em_iters=4, seed=3)
        res = fit(y, provider, cfg)
        save_model(tmp_path / "m", res, provider, cfg, extra_meta={"note": "toy"})
        model, meta = load_model(tmp_path / "m")
        assert np.array_equal(model.theta, res.model.theta)
        assert np.array_equal(model.beta, res.model.beta)
        assert meta["kind"] == "expomf"
        assert meta["k"] == 2 and meta["seed"] == 3 and meta["note"] == "toy"
        assert meta["final_log_likelihood"] == res.trace[-1]
        lines = (tmp_path / "m" / "trace.tsv").read_text().splitlines()
        assert lines[0] == "iteration\tlog_likelihood"
        assert [float(ln.split("\t")[1]) for ln in lines[1:]] == res.trace
        meta_raw = json.loads((tmp_path / "m" / "meta.json").read_text())
        assert meta_raw == meta

    def test_saves_the_state_a_delegating_wrapper_reaches(self, rng, tmp_path):
        # a wrapper that forwards attribute reads (as the benchmark's
        # counting provider does) saves the arrays its provider names
        class Forwarding:
            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                return getattr(self._inner, name)

        y = random_interactions(rng, 6, 7, density=0.3)
        provider = PopularityExposure(y)
        cfg = TrainConfig(k=2, max_em_iters=2, seed=3)
        res = fit(y, provider, cfg)
        save_model(tmp_path, res, Forwarding(provider), cfg)
        with np.load(tmp_path / "model.npz", allow_pickle=False) as npz:
            assert npz.files == ["theta", "beta", "mu_items"]
            assert np.array_equal(npz["mu_items"], provider.mu_items)
        assert json.loads((tmp_path / "meta.json").read_text())["kind"] == "expomf"


class TestValidation:
    def test_train_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(k=0)
        with pytest.raises(ValueError):
            TrainConfig(lambda_y=0.0)
        with pytest.raises(ValueError):
            TrainConfig(max_em_iters=-1)
        with pytest.raises(ValueError):
            TrainConfig(n_threads=0)
        for key in ("n_threads", "block_size"):
            with pytest.raises(ConfigError, match=f"config key '{key}' must be >= 1") as err:
                TrainConfig(**{key: 0})
            assert err.value.key == key
        with pytest.raises(ConfigError, match="config key 'dense_budget' must be >= 0"):
            TrainConfig(dense_budget=-3)

    @pytest.mark.parametrize(
        "key", ["lambda_theta", "lambda_beta", "lambda_y", "init_scale", "convergence_tol"]
    )
    def test_train_config_rejects_nan(self, key):
        with pytest.raises(ConfigError, match=f"config key '{key}' must be positive"):
            TrainConfig(**{key: math.nan})

    @pytest.mark.parametrize(
        "key", ["lambda_theta", "lambda_beta", "lambda_y", "init_scale", "convergence_tol"]
    )
    @pytest.mark.parametrize("value", [math.inf, -math.inf, True])
    def test_train_config_rejects_infinity_and_bool(self, key, value):
        with pytest.raises(ConfigError, match=f"config key '{key}' must be positive and finite"):
            TrainConfig(**{key: value})

    @pytest.mark.parametrize(
        "make, key",
        [
            (lambda y, g: BoostExposure(y, g, s_coeff=math.nan), "s_coeff"),
            (lambda y, g: PopularityExposure(y, alpha2=math.nan), "alpha2"),
            (lambda y, g: RegularExposure(y, g, learning_rate=math.nan), "learning_rate"),
            (lambda y, g: RegularExposure(y, g, lambda_x=math.nan), "lambda_x"),
            (lambda y, g: SyntheticSpec(lambda_y=math.nan), "lambda_y"),
            (lambda y, g: SyntheticSpec(s_coeff=math.nan), "s_coeff"),
        ],
        ids=["boost", "popularity", "regular-positive", "regular-non-negative",
             "sampler-positive", "sampler-non-negative"],
    )
    def test_providers_and_sampler_reject_nan(self, rng, make, key):
        y = random_interactions(rng, 5, 6)
        with pytest.raises(ConfigError) as err:
            make(y, random_graph(rng, 5))
        assert err.value.key == key

    def test_factor_model_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            FactorModel(np.zeros(3), np.zeros((3, 1)))
        with pytest.raises(ValueError):
            FactorModel(np.zeros((2, 2)), np.zeros((3, 1)))
        with pytest.raises(ValueError):
            FactorModel(np.zeros((2, 2)), np.zeros((3, 2)), lambda_y=0.0)
        with pytest.raises(ValueError, match="precision 'lambda_theta' must be a finite positive"):
            FactorModel(np.zeros((2, 2)), np.zeros((3, 2)), lambda_theta=math.nan)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, True, "1", None])
    def test_factor_model_rejects_a_precision_not_a_finite_number(self, value):
        with pytest.raises(ValueError, match=f"precision 'lambda_y' must be .*, got {value!r}"):
            FactorModel(np.zeros((2, 2)), np.zeros((3, 2)), lambda_y=value)

    def test_validate_finite(self):
        model = make_model(np.array([[np.inf]]), np.array([[1.0]]))
        with pytest.raises(TrainingError, match="somewhere"):
            model.validate_finite("somewhere")


def test_log_likelihood_zero_factor_reference():
    # two users, one item, one click, flat prior 0.5: both terms hand-computed
    y = InteractionMatrix(2, 1, [(0, 0)])
    model = make_model(np.zeros((2, 1)), np.zeros((1, 1)), lt=1e-12, lb=1e-12, ly=1.0)
    ll = log_likelihood(y, model, MatrixProvider(np.full((2, 1), 0.5)))
    n0 = math.sqrt(1 / (2 * math.pi))
    n1 = math.sqrt(1 / (2 * math.pi)) * math.exp(-0.5)
    assert ll == pytest.approx(math.log(0.5 * n1) + math.log(0.5 * n0 + 0.5), rel=1e-12)

import functools
import json
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest

import serec.engine
from conftest import MatrixProvider, dense_clicks, random_graph, random_interactions
from reference_impls import ll_oracle, ridge_row_oracle
from serec import (
    BoostExposure,
    ExposurePosterior,
    FactorModel,
    FixedExposure,
    InteractionMatrix,
    PopularityExposure,
    RegularExposure,
    TrainConfig,
    TrainingError,
    e_step,
    e_step_pair,
    fit,
    load_model,
    log_likelihood,
    predict_scores,
    save_model,
    update_item_factors,
    update_user_factors,
)
from serec.synthetic import brute_force_posterior


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
        assert np.all(post.p[clicked] == 1.0)
        scores = model.theta @ model.beta.T
        expected = e_step_pair(np.clip(mu, 1e-6, 1 - 1e-6), scores, model.lambda_y)
        assert np.allclose(post.p[~clicked], expected[~clicked], atol=1e-15)
        assert post.p.min() >= 0.0 and post.p.max() <= 1.0

    def test_bypass_stores_prior_directly(self, rng):
        y = random_interactions(rng, 4, 5)
        mu = rng.uniform(0, 1, (4, 5))
        model = make_model(np.zeros((4, 2)), np.zeros((5, 2)))
        post = e_step(y, model, MatrixProvider(mu, bypass=True))
        clicked = dense_clicks(y).astype(bool)
        assert np.all(post.p[clicked] == 1.0)
        assert np.array_equal(post.p[~clicked], mu[~clicked])

    def test_dimension_mismatch(self, rng):
        y = random_interactions(rng, 4, 5)
        model = make_model(np.zeros((3, 2)), np.zeros((5, 2)))
        with pytest.raises(ValueError, match="dimensions"):
            e_step(y, model, MatrixProvider(np.full((4, 5), 0.5)))

    def test_provider_contract_violations(self, rng):
        y = random_interactions(rng, 4, 5)
        model = make_model(np.zeros((4, 2)), np.zeros((5, 2)))
        with pytest.raises(ValueError, match="contract violation"):
            e_step(y, model, MatrixProvider(np.full((4, 5), 1.5)))
        with pytest.raises(ValueError, match="contract violation"):
            e_step(y, model, MatrixProvider(np.full((4, 5), np.nan)))
        with pytest.raises(ValueError, match="shape"):
            e_step(y, model, MatrixProvider(np.full((3, 5), 0.5)))

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

    def test_single_thread_item_solve_copies_bounded_chunks(self, rng, monkeypatch):
        # one thread copies the transposed posterior a chunk at a time, so a
        # spilled posterior is never copied into RAM whole
        y = random_interactions(rng, 200, 1500, density=0.01)
        p = rng.uniform(0, 1, (200, 1500))
        model = make_model(rng.normal(0, 1, (200, 3)), rng.normal(0, 1, (1500, 3)))
        whole = update_item_factors(y, p, model, n_threads=1)
        monkeypatch.setattr(serec.engine, "CHUNK_ENTRIES", 200 * 50)
        tracemalloc.start()
        try:
            chunked = update_item_factors(y, p, model, n_threads=1)
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

    def test_thread_count_does_not_change_result(self, rng):
        y = random_interactions(rng, 12, 15, density=0.2)
        mu = np.full((12, 15), 0.3)
        res1 = fit(y, MatrixProvider(mu), TrainConfig(k=3, max_em_iters=1, seed=5, n_threads=1))
        res4 = fit(y, MatrixProvider(mu), TrainConfig(k=3, max_em_iters=1, seed=5, n_threads=4))
        assert np.allclose(res1.model.theta, res4.model.theta, rtol=1e-8, atol=1e-12)
        assert np.allclose(res1.model.beta, res4.model.beta, rtol=1e-8, atol=1e-12)

    def test_nan_update_aborts_naming_iteration(self, rng, monkeypatch):
        y = random_interactions(rng, 4, 5)

        def poisoned(*args, **kwargs):
            return np.full((4, 2), np.nan)

        monkeypatch.setattr(serec.engine, "update_user_factors", poisoned)
        with pytest.raises(TrainingError, match="iteration 1"):
            serec.engine.fit(y, MatrixProvider(np.full((4, 5), 0.5)), TrainConfig(k=2, max_em_iters=3))

    def test_memmap_posterior_matches_dense(self, rng):
        y = random_interactions(rng, 8, 9, density=0.25)
        mu = rng.uniform(0.1, 0.9, (8, 9))
        cfg_dense = TrainConfig(k=2, max_em_iters=3, seed=9)
        cfg_spill = TrainConfig(k=2, max_em_iters=3, seed=9, dense_budget=1, block_size=4)
        res_dense = fit(y, MatrixProvider(mu), cfg_dense)
        res_spill = fit(y, MatrixProvider(mu), cfg_spill)
        assert res_dense.posterior.is_dense
        assert not res_spill.posterior.is_dense
        assert np.array_equal(res_dense.model.theta, res_spill.model.theta)
        assert np.array_equal(res_dense.model.beta, res_spill.model.beta)
        path = res_spill.posterior.p.filename
        res_spill.posterior.close()
        assert not os.path.exists(path)

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

    def test_posterior_storage_mode_thresholds(self):
        dense = ExposurePosterior(None, 4, 5, dense_budget=20)
        assert dense.is_dense
        spilled = ExposurePosterior(None, 4, 5, dense_budget=19)
        assert not spilled.is_dense
        spilled.close()


def _provider_of_kind(kind, y, graph):
    if kind == "clamped":  # priors of exactly 0 and 1, which the E-step clamps
        mu = np.where(np.arange(y.n_users * y.n_items).reshape(y.n_users, -1) % 3 == 0, 0.0, 1.0)
        mu[y.user_idx, y.item_idx] = 1.0
        return MatrixProvider(mu)
    if kind == "wmf":
        return FixedExposure(y)
    if kind == "expomf":
        return PopularityExposure(y)
    if kind == "serec-regular":
        return RegularExposure(y, graph, k_sr=3, n_sgd_epochs=2, refit_every=1)
    return BoostExposure(y, graph, s_coeff=3.0)


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

    @pytest.mark.parametrize("kind", ["wmf", "expomf", "serec-regular", "serec-boost", "clamped"])
    def test_trace_equals_replay_of_the_public_calls(self, rng, kind):
        y = random_interactions(rng, 12, 14, density=0.2)
        graph = random_graph(rng, 12, density=0.3)
        cfg = TrainConfig(k=3, max_em_iters=3, convergence_tol=1e-15, seed=4, block_size=4)
        res = fit(y, _provider_of_kind(kind, y, graph), cfg)

        provider = _provider_of_kind(kind, y, graph)
        init = np.random.default_rng(cfg.seed)
        theta = init.normal(0.0, cfg.init_scale, (12, 3))
        model = FactorModel(theta, init.normal(0.0, cfg.init_scale, (14, 3)), 0.01, 0.01, 0.01)
        trace = []
        for _ in range(cfg.max_em_iters):
            post = e_step(y, model, provider, block_size=cfg.block_size)
            model.theta = update_user_factors(y, post, model)
            model.beta = update_item_factors(y, post, model)
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
        assert np.array_equal(res.posterior.p, fresh.p)


class TestPredictScores:
    def test_matches_direct_product(self, rng):
        model = make_model(rng.normal(0, 1, (3, 4)), rng.normal(0, 1, (6, 4)))
        for u in range(3):
            want = np.array([model.theta[u] @ model.beta[i] for i in range(6)])
            assert np.allclose(predict_scores(model, u), want, atol=1e-12)

    def test_out_of_range(self):
        model = make_model(np.zeros((2, 1)), np.zeros((3, 1)))
        with pytest.raises(IndexError):
            predict_scores(model, 2)
        with pytest.raises(IndexError):
            predict_scores(model, -1)


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

    def test_factor_model_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            FactorModel(np.zeros(3), np.zeros((3, 1)))
        with pytest.raises(ValueError):
            FactorModel(np.zeros((2, 2)), np.zeros((3, 1)))
        with pytest.raises(ValueError):
            FactorModel(np.zeros((2, 2)), np.zeros((3, 2)), lambda_y=0.0)

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

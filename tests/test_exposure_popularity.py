import numpy as np
import pytest

from conftest import dense_clicks, load_provider, random_interactions, save_provider
from reference_impls import beta_mode_oracle, fixed_exposure_p, wals_reference
from serec import (
    FixedExposure,
    InteractionMatrix,
    PopularityExposure,
    TrainConfig,
    e_step,
    fit,
    popularity_update_mu,
)


class TestPopularityUpdate:
    def test_uniform_prior_worked_example(self):
        mu = popularity_update_mu(np.array([4.0]), n_users=10, alpha1=1.0, alpha2=1.0)
        assert mu[0] == pytest.approx(0.4, abs=1e-15)

    def test_zero_mass_clamps_to_floor(self):
        mu = popularity_update_mu(np.zeros(1), n_users=10)
        assert mu[0] == 1e-6

    def test_full_mass_clamps_to_ceiling(self):
        mu = popularity_update_mu(np.full(1, 10.0), n_users=10)
        assert mu[0] == 1.0 - 1e-6

    def test_informative_prior_worked_example(self):
        mu = popularity_update_mu(np.array([4.0]), n_users=10, alpha1=3.0, alpha2=2.0)
        assert mu[0] == pytest.approx(6.0 / 13.0, abs=1e-15)

    def test_uniform_prior_is_column_mean(self, rng):
        # away from the clamp boundaries the a1 = a2 = 1 case is the mean
        p = rng.uniform(0.2, 0.8, (20, 7))
        mu = popularity_update_mu(p.sum(axis=0), 20)
        assert np.allclose(mu, p.mean(axis=0), atol=1e-12)

    def test_matches_beta_mode_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(3, 50))
            successes = float(rng.uniform(0, n))
            a1 = float(rng.uniform(0.5, 5))
            a2 = float(rng.uniform(0.5, 5))
            want = np.clip(beta_mode_oracle(successes, n - successes, a1, a2), 1e-6, 1 - 1e-6)
            got = popularity_update_mu(np.array([successes]), n, a1, a2)[0]
            assert got == pytest.approx(want, abs=1e-12)

    def test_monotone_in_posterior_mass(self):
        sums = np.linspace(0, 30, 40)
        mu = popularity_update_mu(sums, 30)
        assert np.all(np.diff(mu) >= 0)

    def test_degenerate_denominator_rejected(self):
        with pytest.raises(ValueError, match="exceed 2"):
            popularity_update_mu(np.array([0.5]), n_users=1, alpha1=0.5, alpha2=0.5)


class TestFixedExposureP:
    def test_scalar_cases(self):
        assert fixed_exposure_p(1, 0.4) == 1.0
        assert fixed_exposure_p(0, 0.4) == 0.4

    def test_vectorized(self):
        y = np.array([[0, 1], [1, 0]])
        assert np.array_equal(fixed_exposure_p(y, 0.25), [[0.25, 1.0], [1.0, 0.25]])


class TestPopularityProvider:
    def test_init_from_click_counts(self, toy_matrix):
        provider = PopularityExposure(toy_matrix)
        counts = toy_matrix.item_counts().astype(float)
        assert np.array_equal(provider.mu_items, popularity_update_mu(counts, 4))

    def test_mu_block_broadcasts_per_item(self, toy_matrix):
        provider = PopularityExposure(toy_matrix)
        block = provider.mu_block(1, 4)
        assert block.shape == (4, 3)
        assert np.array_equal(block[0], block[3])

    def test_update_uses_posterior_column_sums(self, rng, toy_matrix):
        provider = PopularityExposure(toy_matrix)
        model_mu = rng.uniform(0, 1, (4, 5))
        provider.update(model_mu, toy_matrix)
        want = popularity_update_mu(model_mu.sum(axis=0), 4)
        assert np.allclose(provider.mu_items, want, atol=1e-15)

    def test_rejects_bad_beta_params(self, toy_matrix):
        with pytest.raises(ValueError):
            PopularityExposure(toy_matrix, alpha1=0.0)

    def test_save_load_round_trip(self, tmp_path, toy_matrix):
        provider = PopularityExposure(toy_matrix, alpha1=2.0, alpha2=3.0)
        save_provider(tmp_path, provider, toy_matrix, alpha1=2.0, alpha2=3.0)
        back = load_provider(tmp_path, toy_matrix)
        assert back.alpha1 == 2.0 and back.alpha2 == 3.0
        assert np.array_equal(back.mu_items, provider.mu_items)


class TestFixedExposureProvider:
    def test_rejects_out_of_range_weight(self, toy_matrix):
        with pytest.raises(ValueError):
            FixedExposure(toy_matrix, mu_unobserved=0.0)
        with pytest.raises(ValueError):
            FixedExposure(toy_matrix, mu_unobserved=1.5)

    def test_mu_block_is_a_read_only_constant_view(self, toy_matrix):
        # the engine, not the prior, gives clicked pairs weight 1, so the
        # provider keeps no copy of the clicks
        provider = FixedExposure(toy_matrix, mu_unobserved=0.4)
        block = provider.mu_block(1, 4)
        assert block.shape == (4, 3) and block.dtype == np.float64
        assert not block.flags.writeable
        assert np.all(block == 0.4)
        assert not any(isinstance(v, InteractionMatrix) for v in vars(provider).values())

    def test_posterior_is_fixed_weights(self, rng):
        y = random_interactions(rng, 6, 8)
        provider = FixedExposure(y, mu_unobserved=0.4)
        model_theta = rng.normal(0, 1, (6, 2))
        model_beta = rng.normal(0, 1, (8, 2))
        from serec import FactorModel

        # the read-only constant view: the clicks' weight 1 is implied, and
        # the solves and the likelihood put it in
        post = e_step(y, FactorModel(model_theta, model_beta), provider)
        assert post.shape == (6, 8) and post.strides == (0, 0)
        assert not post.flags.writeable
        assert np.array_equal(post, np.full((6, 8), 0.4))

    def test_save_load_round_trip(self, tmp_path, toy_matrix):
        save_provider(tmp_path, FixedExposure(toy_matrix, mu_unobserved=0.7), toy_matrix,
                      mu_unobserved=0.7)
        assert load_provider(tmp_path, toy_matrix).mu_unobserved == 0.7


class TestWeightedFactorizationEquivalence:
    def test_fit_matches_wals_oracle(self, rng):
        y = random_interactions(rng, 7, 9, density=0.3)
        cfg = TrainConfig(
            k=2,
            lambda_theta=0.3,
            lambda_beta=0.2,
            lambda_y=1.5,
            max_em_iters=3,
            convergence_tol=1e-15,
            seed=13,
        )
        res = fit(y, FixedExposure(y, mu_unobserved=0.4), cfg)
        init = np.random.default_rng(13)
        theta0 = init.normal(0.0, cfg.init_scale, (7, 2))
        beta0 = init.normal(0.0, cfg.init_scale, (9, 2))
        weights = fixed_exposure_p(dense_clicks(y), 0.4)
        theta_ref, beta_ref = wals_reference(
            dense_clicks(y), weights, 1.5, 0.3, 0.2, theta0, beta0, n_iters=3
        )
        assert res.n_iters == 3
        assert np.allclose(res.model.theta, theta_ref, atol=1e-8)
        assert np.allclose(res.model.beta, beta_ref, atol=1e-8)

    def test_unit_weights_are_plain_ridge_als(self, rng):
        # mu_unobserved = 1 makes every pair weight 1: unweighted ridge ALS
        y = random_interactions(rng, 5, 6, density=0.4)
        cfg = TrainConfig(k=2, max_em_iters=2, convergence_tol=1e-15, seed=4, lambda_y=1.0)
        res = fit(y, FixedExposure(y, mu_unobserved=1.0), cfg)
        init = np.random.default_rng(4)
        theta0 = init.normal(0.0, cfg.init_scale, (5, 2))
        beta0 = init.normal(0.0, cfg.init_scale, (6, 2))
        theta_ref, beta_ref = wals_reference(
            dense_clicks(y), np.ones((5, 6)), 1.0, 0.01, 0.01, theta0, beta0, n_iters=2
        )
        assert np.allclose(res.model.theta, theta_ref, atol=1e-8)

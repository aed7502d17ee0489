import numpy as np
import pytest

from conftest import edge_set, entry_set
from reference_impls import brute_force_posterior, e_step_pair, finite_difference
from serec import SyntheticSpec, generate


class TestSpecValidation:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_users=0)
        with pytest.raises(ValueError):
            SyntheticSpec(k=0)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            SyntheticSpec(social_density=1.0)
        with pytest.raises(ValueError):
            SyntheticSpec(base_exposure=-0.1)
        with pytest.raises(ValueError):
            SyntheticSpec(base_exposure=1.5)

    def test_rejects_bad_precisions(self):
        with pytest.raises(ValueError):
            SyntheticSpec(lambda_y=0.0)


class TestGenerate:
    def test_clicks_require_exposure(self):
        for seed in range(5):
            spec = SyntheticSpec(n_users=40, n_items=50, seed=seed)
            y, graph, truth = generate(spec)
            clicks = np.zeros((40, 50), dtype=bool)
            clicks[y.user_idx, y.item_idx] = True
            assert not np.any(clicks & ~truth.alpha)

    def test_deterministic_per_seed(self):
        spec = SyntheticSpec(n_users=30, n_items=35, seed=9)
        y1, g1, t1 = generate(spec)
        y2, g2, t2 = generate(spec)
        assert entry_set(y1) == entry_set(y2)
        assert edge_set(g1) == edge_set(g2)
        assert np.array_equal(t1.theta, t2.theta)
        y3, _, _ = generate(SyntheticSpec(n_users=30, n_items=35, seed=10))
        assert entry_set(y1) != entry_set(y3)

    def test_zero_base_exposure_silences_friendless_users(self):
        spec = SyntheticSpec(n_users=25, n_items=30, base_exposure=0.0, social_density=0.0, seed=1)
        y, graph, truth = generate(spec)
        assert y.n_entries == 0
        assert not truth.alpha.any()

    def test_full_base_exposure_exposes_everything(self):
        spec = SyntheticSpec(n_users=25, n_items=30, base_exposure=1.0, social_density=0.0, seed=1)
        _, _, truth = generate(spec)
        assert truth.alpha.all()
        assert np.array_equal(truth.mu, np.ones((25, 30)))

    def test_exposure_prior_reflects_friend_count(self):
        spec = SyntheticSpec(n_users=80, n_items=20, base_exposure=0.05, s_coeff=5.0, seed=4)
        _, graph, truth = generate(spec)
        deg = graph.out_degree()
        want = np.clip(0.05 * (1.0 + 5.0 * deg), 0.0, 1.0)
        assert np.allclose(truth.mu, want[:, None], atol=1e-15)

    def test_alpha_mean_tracks_mu(self):
        # Monte Carlo: empirical exposure rate within 0.02 of the prior
        spec = SyntheticSpec(n_users=200, n_items=200, base_exposure=0.3, social_density=0.0, seed=2)
        _, _, truth = generate(spec)
        assert truth.alpha.mean() == pytest.approx(0.3, abs=0.02)

    def test_graph_has_no_self_loops(self):
        _, graph, _ = generate(SyntheticSpec(n_users=50, n_items=10, social_density=0.2, seed=3))
        assert all(a != b for a, b in edge_set(graph))
        assert graph.n_edges > 0


class TestBruteForcePosterior:
    def test_flat_prior_zero_score(self):
        assert brute_force_posterior(0.5, 0.0, 1.0) == pytest.approx(0.2851742248343187, abs=1e-12)

    def test_degenerate_priors(self):
        assert brute_force_posterior(0.0, 0.7, 1.0) == 0.0
        assert brute_force_posterior(1.0, 0.7, 1.0) == 1.0

    def test_agrees_with_engine_everywhere(self, rng):
        worst = 0.0
        for _ in range(1000):
            mu = rng.random()
            score = rng.normal(0, 2)
            ly = float(np.exp(rng.uniform(np.log(0.1), np.log(10))))
            diff = abs(e_step_pair(mu, score, ly) - brute_force_posterior(mu, score, ly))
            worst = max(worst, diff)
        assert worst < 1e-12


class TestFiniteDifference:
    def test_quadratic_slope(self):
        grad = finite_difference(lambda v: float(v[0] ** 2), np.array([3.0]))
        assert grad[0] == pytest.approx(6.0, abs=1e-8)

    def test_constant_function(self):
        grad = finite_difference(lambda v: 1.5, np.array([0.3, -0.7]))
        assert np.array_equal(grad, np.zeros(2))

    def test_multivariate(self):
        # f(x, y) = x^2 y + y at (2, 3): df/dx = 12, df/dy = 5
        grad = finite_difference(lambda v: float(v[0] ** 2 * v[1] + v[1]), np.array([2.0, 3.0]))
        assert np.allclose(grad, [12.0, 5.0], atol=1e-6)

    def test_non_finite_loss_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            finite_difference(lambda v: float("nan"), np.array([1.0]))

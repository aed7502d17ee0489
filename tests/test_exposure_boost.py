import tracemalloc

import numpy as np
import pytest

from conftest import dense_clicks, random_graph, random_interactions
from reference_impls import boost_update_mu, phi_social
from serec import (
    BoostExposure,
    InteractionMatrix,
    PopularityExposure,
    SocialGraph,
    TrainConfig,
    e_step,
    fit,
    popularity_update_mu,
)
import serec.engine


class Post:
    """The part of an engine posterior that a provider update reads."""

    def __init__(self, p):
        self.p = p


def refreshed(p, graph, **params):
    """BoostExposure's dense prior after one update from posterior ``p``."""
    n_users, n_items = p.shape
    y = InteractionMatrix(n_users, n_items, [(0, 0)])
    provider = BoostExposure(y, graph, **params)
    provider.update(Post(p), y)
    return provider.mu_block(0, n_items)


class TestPhiSocial:
    def test_no_friends_contribute_nothing(self):
        graph = SocialGraph(3, [(0, 1)])
        p = np.full((3, 2), 0.9)
        assert phi_social(graph, p, 2, 0, s_coeff=5.0) == 0.0

    def test_two_friends_worked_example(self):
        graph = SocialGraph(3, [(0, 1), (0, 2)])
        p = np.array([[0.9], [0.2], [0.3]])
        assert phi_social(graph, p, 0, 0, s_coeff=5.0) == pytest.approx(2.5, abs=1e-15)

    def test_matches_naive_loop(self, rng):
        graph = random_graph(rng, 8, density=0.3)
        p = rng.uniform(0, 1, (8, 4))
        for u in range(8):
            for i in range(4):
                want = sum(2.5 * p[f, i] for f in graph.friends_of(u))
                assert phi_social(graph, p, u, i, 2.5) == pytest.approx(want, abs=1e-12)


class TestBoostUpdate:
    def test_reduces_to_popularity_bit_for_bit_at_s_one(self, rng):
        graph = random_graph(rng, 10, density=0.4)
        p = rng.uniform(0, 1, (10, 6))
        boosted = refreshed(p, graph, s_coeff=1.0)
        plain = popularity_update_mu(p, 10)
        assert np.array_equal(boosted, np.broadcast_to(plain, (10, 6)))
        assert np.array_equal(boosted, boost_update_mu(p, graph, s_coeff=1.0))

    def test_reduces_to_popularity_bit_for_bit_with_empty_graph(self, rng):
        graph = SocialGraph(10, [])
        p = rng.uniform(0, 1, (10, 6))
        boosted = refreshed(p, graph, s_coeff=7.0)
        plain = popularity_update_mu(p, 10)
        assert np.array_equal(boosted, np.broadcast_to(plain, (10, 6)))
        assert np.array_equal(boosted, boost_update_mu(p, graph, s_coeff=7.0))

    def test_single_friend_worked_example(self):
        # U=10, sum p = 4, one friend with p = 1, s = 5:
        # (1 + 4 + 4*1 - 1) / (1 + 1 + 10 + 4*1 - 2) = 8/14
        p = np.zeros((10, 1))
        p[:4, 0] = 1.0
        graph = SocialGraph(10, [(9, 0)])
        mu = refreshed(p, graph, s_coeff=5.0)
        assert mu[9, 0] == pytest.approx(8.0 / 14.0, abs=1e-15)
        # users without friends keep the popularity value
        assert mu[0, 0] == pytest.approx(0.4, abs=1e-15)

    def test_monotone_toward_one_in_friend_mass(self):
        # growing friend mass (more friends, fixed p) pushes mu up, never past 1
        n_users = 60
        p = np.full((n_users, 1), 0.8)
        vals = []
        for m in range(0, 51):
            graph = SocialGraph(n_users, [(59, f) for f in range(m)])
            vals.append(refreshed(p, graph, s_coeff=5.0)[59, 0])
        vals = np.array(vals)
        assert np.all(np.diff(vals) > 0)
        assert vals[-1] < 1.0

    def test_monotone_in_s_when_friends_have_mass(self, rng):
        graph = random_graph(rng, 12, density=0.5)
        p = rng.uniform(0.2, 0.9, (12, 5))
        prev = None
        for s in (1.0, 2.0, 5.0, 10.0):
            mu = refreshed(p, graph, s_coeff=s)
            if prev is not None:
                has_friends = graph.out_degree() > 0
                assert np.all(mu[has_friends] >= prev[has_friends] - 1e-15)
                # friendless rows never move with s
                assert np.array_equal(mu[~has_friends], prev[~has_friends])
            prev = mu

    def test_boost_never_below_popularity_when_items_unsaturated(self, rng):
        # adding non-negative pseudo exposure mass cannot lower the mode
        # while the column total stays below U - 1
        graph = random_graph(rng, 15, density=0.3)
        p = rng.uniform(0.0, 0.9, (15, 8))
        boosted = refreshed(p, graph, s_coeff=5.0)
        plain = popularity_update_mu(p, 15)
        assert np.all(boosted >= np.broadcast_to(plain, boosted.shape) - 1e-15)

    def test_nonpositive_denominator_rejected(self):
        p = np.zeros((1, 1))
        graph = SocialGraph(1, [])
        with pytest.raises(ValueError, match="denominator"):
            boost_update_mu(p, graph, s_coeff=1.0, alpha1=0.4, alpha2=0.4)
        # the provider refuses those parameters before any update
        with pytest.raises(ValueError, match="must exceed 2"):
            BoostExposure(InteractionMatrix(1, 1, [(0, 0)]), graph, s_coeff=1.0, alpha1=0.4, alpha2=0.4)

    @pytest.mark.parametrize("case", ["s_one", "empty_graph", "s_five"])
    def test_init_and_update_match_oracle_bit_for_bit(self, rng, monkeypatch, case):
        # small row blocks, so the refresh runs several and a short last one
        monkeypatch.setattr(serec.engine, "CHUNK_ENTRIES", 20)
        y = random_interactions(rng, 13, 9, density=0.25)
        graph = SocialGraph(13, []) if case == "empty_graph" else random_graph(rng, 13, density=0.3)
        s = 1.0 if case == "s_one" else 5.0
        dense = BoostExposure(y, graph, s_coeff=s)
        lazy = BoostExposure(y, graph, s_coeff=s, dense_budget=1)
        want = boost_update_mu(dense_clicks(y), graph, s_coeff=s)
        assert np.array_equal(dense.mu_block(0, 9), want)
        assert np.array_equal(lazy.mu_block(0, 9), want)
        p = rng.uniform(0, 1, (13, 9))
        p[y.user_idx, y.item_idx] = 1.0
        dense.update(Post(p), y)
        lazy.update(Post(p), y)
        want = boost_update_mu(p, graph, s_coeff=s)
        assert np.array_equal(dense.mu_block(0, 9), want)
        assert np.array_equal(lazy.mu_block(0, 9), want)

    def test_update_holds_one_prior_plus_a_row_block(self, rng, monkeypatch):
        # the refresh writes the held prior in place: its traced peak is a
        # row block's temporaries, not another (U, V) prior
        monkeypatch.setattr(serec.engine, "CHUNK_ENTRIES", 20 * 3000)
        y = random_interactions(rng, 300, 3000, density=0.02)
        provider = BoostExposure(y, random_graph(rng, 300, density=0.05), s_coeff=5.0)
        post = Post(rng.uniform(0, 1, (300, 3000)))
        prior_bytes = 300 * 3000 * 8
        tracemalloc.start()
        try:
            provider.update(post, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < prior_bytes / 4


class TestBoostProvider:
    def test_validates_arguments(self, toy_matrix, toy_graph):
        with pytest.raises(ValueError, match="s_coeff"):
            BoostExposure(toy_matrix, toy_graph, s_coeff=0.5)
        with pytest.raises(ValueError):
            BoostExposure(toy_matrix, toy_graph, alpha1=0.0)
        with pytest.raises(ValueError, match="n_users"):
            BoostExposure(toy_matrix, SocialGraph(5, [(0, 1)]))

    def test_initial_prior_uses_clicks_as_posterior_proxy(self, toy_matrix, toy_graph):
        provider = BoostExposure(toy_matrix, toy_graph, s_coeff=3.0)
        clicks = np.zeros((4, 5))
        clicks[toy_matrix.user_idx, toy_matrix.item_idx] = 1.0
        want = boost_update_mu(clicks, toy_graph, s_coeff=3.0)
        assert np.allclose(provider.mu_block(0, 5), want, atol=1e-15)

    def test_update_tracks_posterior(self, rng, toy_matrix, toy_graph):
        provider = BoostExposure(toy_matrix, toy_graph, s_coeff=2.0)
        arr = rng.uniform(0, 1, (4, 5))

        class Post:
            p = arr
            is_dense = True
            n_items = 5

        provider.update(Post(), toy_matrix)
        want = boost_update_mu(arr, toy_graph, s_coeff=2.0)
        assert np.allclose(provider.mu_block(0, 5), want, atol=1e-15)

    def test_lazy_mode_matches_dense_mode(self, rng):
        y = random_interactions(rng, 9, 11, density=0.2)
        graph = random_graph(rng, 9, density=0.3)
        dense = BoostExposure(y, graph, s_coeff=4.0)
        lazy = BoostExposure(y, graph, s_coeff=4.0, dense_budget=1)
        assert dense._mu is not None and lazy._mu is None
        for j0, j1 in [(0, 11), (3, 7), (10, 11)]:
            assert np.array_equal(dense.mu_block(j0, j1), lazy.mu_block(j0, j1))

    def test_save_load_round_trip(self, tmp_path, toy_matrix, toy_graph):
        provider = BoostExposure(toy_matrix, toy_graph, s_coeff=6.0, alpha1=1.5, alpha2=2.5)
        provider.save(tmp_path)
        back = BoostExposure.load(tmp_path, toy_matrix, toy_graph)
        assert (back.s_coeff, back.alpha1, back.alpha2) == (6.0, 1.5, 2.5)
        assert np.array_equal(back.mu_block(0, 5), provider.mu_block(0, 5))


class TestEngineReduction:
    def test_s_one_training_is_identical_to_popularity(self, rng):
        y = random_interactions(rng, 12, 14, density=0.15)
        graph = random_graph(rng, 12, density=0.4)
        cfg = TrainConfig(k=3, max_em_iters=5, convergence_tol=1e-15, seed=21)
        res_boost = fit(y, BoostExposure(y, graph, s_coeff=1.0), cfg)
        res_plain = fit(y, PopularityExposure(y), cfg)
        assert np.array_equal(res_boost.model.theta, res_plain.model.theta)
        assert np.array_equal(res_boost.model.beta, res_plain.model.beta)
        assert res_boost.trace == res_plain.trace

    def test_empty_graph_training_is_identical_to_popularity(self, rng):
        y = random_interactions(rng, 10, 12, density=0.2)
        cfg = TrainConfig(k=2, max_em_iters=4, convergence_tol=1e-15, seed=8)
        res_boost = fit(y, BoostExposure(y, SocialGraph(10, []), s_coeff=5.0), cfg)
        res_plain = fit(y, PopularityExposure(y), cfg)
        assert np.array_equal(res_boost.model.theta, res_plain.model.theta)
        assert np.array_equal(res_boost.model.beta, res_plain.model.beta)

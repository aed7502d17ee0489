import copy
import json
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    entry_set,
    load_provider,
    random_graph,
    random_interactions,
    save_provider,
    triplet_gradients,
)
from reference_impls import (
    conflict_free_runs,
    epoch_sample_reference,
    finite_difference,
    fit_exposure_reference,
    is_observed,
    regular_mu,
    sample_negatives_reference,
    sampled_triplet_loss,
    sgd_epoch_runs_reference,
)
from serec import (
    DataFormatError,
    InteractionMatrix,
    RegularExposure,
    SocialGraph,
    TrainConfig,
    TrainingError,
    fit,
    fit_exposure,
    sgd_triplet_step,
)
from serec.exposure import social_regular
from serec.exposure.social_regular import (
    _conflict_layers,
    _draw_trust_partners,
    _epoch_sample,
    _sample_negatives,
    _sgd_epoch,
)

DEFAULT_HYPER = {
    "k_sr": 1,
    "lambda_sr": 5.0,
    "lambda_x": 1.0,
    "lambda_t": 1.0,
    "lambda_b": 1.0,
    "lambda_gamma": 1.0,
    "learning_rate": 0.01,
    "n_sgd_epochs": 10,
}


UNPICKLED = []


def _record_unpickling():
    UNPICKLED.append(True)


class _Tripwire:
    """Unpickling one calls _record_unpickling."""

    def __reduce__(self):
        return (_record_unpickling, ())


def make_state(x, t, b, gamma, **hyper_overrides):
    hyper = {**DEFAULT_HYPER, **hyper_overrides}
    return SimpleNamespace(
        x=np.atleast_2d(np.asarray(x, dtype=float)),
        t=np.atleast_2d(np.asarray(t, dtype=float)),
        b=np.atleast_2d(np.asarray(b, dtype=float)),
        gamma=np.atleast_1d(np.asarray(gamma, dtype=float)),
        hyper=hyper,
    )


def random_state(rng, n_users=4, n_items=5, k_sr=3):
    return make_state(
        rng.normal(0, 1, (n_users, k_sr)),
        rng.normal(0, 1, (n_items, k_sr)),
        rng.normal(0, 1, (n_users, k_sr)),
        rng.uniform(-0.5, 1.5, n_items),
        k_sr=k_sr,
        lambda_sr=float(rng.uniform(0.1, 8)),
        lambda_x=float(rng.uniform(0.1, 3)),
        lambda_t=float(rng.uniform(0.1, 3)),
        lambda_b=float(rng.uniform(0.1, 3)),
        lambda_gamma=float(rng.uniform(0.1, 3)),
    )


class TestTripletGradients:
    def test_worked_example(self):
        state = make_state([[0.5]], [[0.3]], [[0.4]], [0.1])
        g_t, g_x, g_b, g_gamma = triplet_gradients(state, (0, 0, 0), target=0.2, s_uk=1)
        assert g_t[0] == pytest.approx(0.325, abs=1e-12)
        assert g_x[0] == pytest.approx(-1.085, abs=1e-12)
        assert g_b[0] == pytest.approx(-1.6, abs=1e-12)
        assert g_gamma == pytest.approx(0.15, abs=1e-12)

    def test_zero_state_zero_target_is_fixed_point(self):
        state = make_state([[0.0]], [[0.0]], [[0.0]], [0.0])
        grads = triplet_gradients(state, (0, 0, 0), target=0.0, s_uk=0)
        for g in grads[:3]:
            assert np.array_equal(g, np.zeros(1))
        assert grads[3] == 0.0

    def test_all_four_match_finite_differences(self):
        # the loss whose exact gradient the four formulas claim to be
        rng = np.random.default_rng(7)
        for trial in range(100):
            state = random_state(rng)
            i = int(rng.integers(5))
            u = int(rng.integers(4))
            k = int(rng.integers(4))
            target = float(rng.uniform(0, 1))
            s_uk = int(rng.integers(0, 2))
            triplet = (i, u, k)
            g_t, g_x, g_b, g_gamma = triplet_gradients(state, triplet, target, s_uk)

            def loss_with(block, vec):
                st = copy.deepcopy(state)
                if block == "t":
                    st.t[i] = vec
                elif block == "x":
                    st.x[u] = vec
                elif block == "b":
                    st.b[k] = vec
                else:
                    st.gamma[i] = vec[0]
                return sampled_triplet_loss(st, triplet, target, s_uk)

            for block, point, grad in (
                ("t", state.t[i], g_t),
                ("x", state.x[u], g_x),
                ("b", state.b[k], g_b),
                ("gamma", np.array([state.gamma[i]]), np.array([g_gamma])),
            ):
                fd = finite_difference(lambda v, blk=block: loss_with(blk, v), point, h=1e-5)
                assert np.allclose(fd, grad, rtol=1e-5, atol=1e-8), (trial, block)


class TestSgdStep:
    def test_applies_simultaneous_update(self):
        state = make_state([[0.5]], [[0.3]], [[0.4]], [0.1])
        out = sgd_triplet_step(state, (0, 0, 0), target=0.2, s_uk=1, lr=0.1)
        assert out is state
        assert state.t[0, 0] == pytest.approx(0.3 - 0.1 * 0.325, abs=1e-12)
        assert state.x[0, 0] == pytest.approx(0.5 - 0.1 * -1.085, abs=1e-12)
        assert state.b[0, 0] == pytest.approx(0.4 - 0.1 * -1.6, abs=1e-12)
        assert state.gamma[0] == pytest.approx(0.1 - 0.1 * 0.15, abs=1e-12)

    def test_non_finite_state_aborts_naming_triplet(self):
        state = make_state([[np.inf]], [[0.3]], [[0.4]], [0.1])
        with pytest.raises(TrainingError, match=r"\(i=0, u=0, k=0\)"):
            sgd_triplet_step(state, (0, 0, 0), target=0.2, s_uk=1, lr=0.1)

    def test_decay_only_shrinks_trustee_vector(self):
        # lambda_sr = 0 leaves only the decay term in the B gradient
        state = make_state([[0.5]], [[0.3]], [[2.0]], [0.1], lambda_sr=0.0)
        norms = [abs(state.b[0, 0])]
        for _ in range(20):
            sgd_triplet_step(state, (0, 0, 0), target=0.2, s_uk=1, lr=0.05)
            norms.append(abs(state.b[0, 0]))
        assert all(b < a for a, b in zip(norms, norms[1:]))


def sampled_targets(y, p):
    """The regression target of each (u, i) pair that one epoch of
    ``_epoch_sample`` draws, and the number of draws that were negatives."""
    pairs, t_vals, _, _ = _epoch_sample(y, SocialGraph(y.n_users, []), p, 0, 0)
    targets = {}
    for (u, i), t in zip(pairs.tolist(), t_vals.tolist()):
        assert targets.setdefault((u, i), t) == t  # a pair drawn twice has one target
    n_negatives = sum(not is_observed(y, u, i) for u, i in pairs.tolist())
    return targets, n_negatives


class TestEpochSampleTargets:
    def test_observed_pairs_pull_toward_audience_share(self):
        pairs = [(u, 0) for u in range(4)] + [(0, 1)]
        y = InteractionMatrix(10, 2, pairs)
        targets, _ = sampled_targets(y, np.full((10, 2), 0.123))
        assert targets[0, 0] == 0.4
        assert targets[0, 1] == 0.1

    def test_unobserved_pairs_pull_toward_posterior(self, rng):
        y = InteractionMatrix(10, 3, [(0, 0), (3, 1), (7, 2)])
        p = rng.uniform(0.01, 0.99, (10, 3))
        targets, n_negatives = sampled_targets(y, p)
        assert n_negatives == y.n_entries
        for (u, i), t in targets.items():
            assert t == (y.item_counts()[i] / 10 if is_observed(y, u, i) else p[u, i])

    def test_single_user_share_clamps_below_one(self):
        y = InteractionMatrix(1, 2, [(0, 0)])
        targets, _ = sampled_targets(y, np.ones((1, 2)))
        assert targets == {(0, 0): 1.0 - 1e-6, (0, 1): 1.0 - 1e-6}

    def test_posterior_lookup_clamps(self):
        y = InteractionMatrix(2, 2, [(0, 0)])
        targets, _ = sampled_targets(y, np.zeros((2, 2)))
        assert targets.pop((0, 0)) == 0.5
        assert set(targets.values()) == {1e-6}


class TestFitExposure:
    def setup_instance(self, seed=0, n_users=12, n_items=15):
        rng = np.random.default_rng(seed)
        y = random_interactions(rng, n_users, n_items, density=0.3)
        graph = random_graph(rng, n_users, density=0.3)
        p = rng.uniform(0, 1, (n_users, n_items))
        return y, graph, p

    def test_zero_epochs_is_identity(self):
        y, graph, p = self.setup_instance()
        provider = RegularExposure(y, graph, k_sr=3, n_sgd_epochs=0, seed=1)
        before = (provider.x.copy(), provider.t.copy(), provider.b.copy(), provider.gamma.copy())
        out = fit_exposure(provider, y, p, graph, seed=5)
        assert out is provider
        assert np.array_equal(provider.x, before[0])
        assert np.array_equal(provider.t, before[1])
        assert np.array_equal(provider.b, before[2])
        assert np.array_equal(provider.gamma, before[3])

    def test_objective_descends_on_tiny_instance(self):
        y, graph, p = self.setup_instance()
        provider = RegularExposure(y, graph, k_sr=3, learning_rate=0.05, n_sgd_epochs=10, seed=1)
        fit_exposure(provider, y, p, graph, seed=2)
        initial, final = provider.last_objective
        assert final <= 0.9 * initial

    def test_divergence_aborts_with_actionable_message(self):
        y, graph, p = self.setup_instance()
        provider = RegularExposure(y, graph, k_sr=3, learning_rate=0.3, n_sgd_epochs=10, seed=1)
        with pytest.raises(TrainingError, match="smaller learning_rate"):
            fit_exposure(provider, y, p, graph, seed=2)

    def test_runaway_rate_still_mentions_learning_rate(self):
        # explodes to non-finite mid-epoch, before the end-of-epoch check
        y, graph, p = self.setup_instance()
        provider = RegularExposure(y, graph, k_sr=3, learning_rate=5.0, n_sgd_epochs=10, seed=1)
        with pytest.raises(TrainingError, match="smaller learning_rate"):
            fit_exposure(provider, y, p, graph, seed=2)

    def test_seeded_epochs_are_reproducible(self):
        y, graph, p = self.setup_instance()
        runs = []
        for _ in range(2):
            provider = RegularExposure(y, graph, k_sr=2, n_sgd_epochs=3, seed=9)
            fit_exposure(provider, y, p, graph, seed=4)
            runs.append((provider.x.copy(), provider.gamma.copy()))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])


class TestRegularMu:
    def test_bias_only(self):
        state = make_state(np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((1, 2)), [0.3])
        assert regular_mu(state, 0, 0) == pytest.approx(0.3, abs=1e-15)

    def test_clamps_above_one(self):
        state = make_state([[2.0]], [[1.0]], [[0.0]], [0.5])
        assert regular_mu(state, 0, 0) == 1.0 - 1e-6

    def test_clamps_below_zero(self):
        state = make_state([[-2.0]], [[1.0]], [[0.0]], [0.0])
        assert regular_mu(state, 0, 0) == 1e-6

    def test_inner_product_plus_bias(self, rng):
        state = make_state(
            rng.normal(0, 0.2, (3, 4)),
            rng.normal(0, 0.2, (5, 4)),
            rng.normal(0, 0.2, (3, 4)),
            rng.uniform(0, 0.5, 5),
        )
        for u in range(3):
            for i in range(5):
                raw = float(state.x[u] @ state.t[i]) + state.gamma[i]
                want = min(max(raw, 1e-6), 1 - 1e-6)
                assert regular_mu(state, u, i) == pytest.approx(want, abs=1e-15)


class TestRegularProvider:
    def test_init_draws_and_bias(self, rng):
        y = random_interactions(rng, 6, 8, density=0.3)
        graph = random_graph(rng, 6, density=0.3)
        provider = RegularExposure(y, graph, k_sr=4, seed=3)
        ref = np.random.default_rng(3)
        assert np.array_equal(provider.x, ref.normal(0.0, 0.01, (6, 4)))
        assert np.array_equal(provider.t, ref.normal(0.0, 0.01, (8, 4)))
        assert np.array_equal(provider.b, ref.normal(0.0, 0.01, (6, 4)))
        assert np.array_equal(provider.gamma, y.item_counts() / 6)

    def test_mu_block_matches_pairwise_and_stays_in_bounds(self, rng):
        y = random_interactions(rng, 6, 8, density=0.3)
        graph = random_graph(rng, 6, density=0.3)
        provider = RegularExposure(y, graph, k_sr=4, seed=3)
        block = provider.mu_block(2, 6)
        for u in range(6):
            for i in range(2, 6):
                assert block[u, i - 2] == pytest.approx(regular_mu(provider, u, i), abs=1e-15)
        assert block.min() >= 1e-6 and block.max() <= 1 - 1e-6

    def test_refit_once_runs_on_first_update_only(self, rng):
        y = random_interactions(rng, 8, 10, density=0.3)
        graph = random_graph(rng, 8, density=0.3)
        provider = RegularExposure(y, graph, k_sr=2, n_sgd_epochs=2, seed=1)
        assert provider.refit_every == "once"
        p = rng.uniform(0, 1, (8, 10))
        provider.update(p, y)
        after_first = provider.x.copy()
        assert not np.array_equal(after_first, np.random.default_rng(1).normal(0, 0.01, (8, 2)))
        provider.update(p, y)
        assert np.array_equal(provider.x, after_first)

    def test_refit_every_n(self, rng):
        y = random_interactions(rng, 8, 10, density=0.3)
        graph = random_graph(rng, 8, density=0.3)
        provider = RegularExposure(y, graph, k_sr=2, n_sgd_epochs=1, refit_every=2, seed=1)
        p = rng.uniform(0, 1, (8, 10))
        snapshots = [provider.x.copy()]
        for _ in range(4):
            provider.update(p, y)
            snapshots.append(provider.x.copy())
        # updates 1 and 3 refit (counter 0 and 2); updates 2 and 4 do not
        assert not np.array_equal(snapshots[0], snapshots[1])
        assert np.array_equal(snapshots[1], snapshots[2])
        assert not np.array_equal(snapshots[2], snapshots[3])
        assert np.array_equal(snapshots[3], snapshots[4])

    def test_validates_arguments(self, rng):
        y = random_interactions(rng, 4, 5)
        graph = random_graph(rng, 4)
        with pytest.raises(ValueError):
            RegularExposure(y, graph, k_sr=0)
        with pytest.raises(ValueError, match="refit_every"):
            RegularExposure(y, graph, refit_every=0)
        with pytest.raises(ValueError, match="refit_every"):
            RegularExposure(y, graph, refit_every="sometimes")
        with pytest.raises(ValueError, match="n_users"):
            RegularExposure(y, SocialGraph(9, []))

    def test_save_load_round_trip(self, tmp_path, rng):
        y = random_interactions(rng, 5, 6, density=0.3)
        graph = random_graph(rng, 5, density=0.3)
        params = dict(k_sr=2, lambda_sr=3.0, learning_rate=0.02, n_sgd_epochs=4, seed=6)
        provider = RegularExposure(y, graph, **params)
        fit_exposure(provider, y, rng.uniform(0, 1, (5, 6)), graph, seed=1)
        save_provider(tmp_path, provider, y, **params)
        back = load_provider(tmp_path, y, graph)
        assert np.array_equal(back.x, provider.x)
        assert np.array_equal(back.t, provider.t)
        assert np.array_equal(back.b, provider.b)
        assert np.array_equal(back.gamma, provider.gamma)
        assert back.hyper == provider.hyper
        assert back.refit_every == provider.refit_every and back.seed == 6

    @pytest.mark.parametrize(
        "change, array",
        [("k_sr", "'x'"), ("n_items", "'t'")],
    )
    def test_load_checks_each_array_against_split_and_k_sr(self, tmp_path, rng, change, array):
        y = random_interactions(rng, 5, 6, density=0.3)
        graph = random_graph(rng, 5, density=0.3)
        save_provider(tmp_path, RegularExposure(y, graph, k_sr=2), y, k_sr=2)
        if change == "k_sr":
            meta = json.loads((tmp_path / "meta.json").read_text())
            meta["config"]["k_sr"] = 3
            (tmp_path / "meta.json").write_text(json.dumps(meta))
        else:
            y = InteractionMatrix(5, 7, np.column_stack([y.user_idx, y.item_idx]))
        with pytest.raises(DataFormatError, match=rf"model\.npz: array {array}"):
            load_provider(tmp_path, y, graph)

    def test_load_refuses_an_object_array_without_unpickling(self, tmp_path, rng):
        y = random_interactions(rng, 5, 6, density=0.3)
        graph = random_graph(rng, 5, density=0.3)
        provider = RegularExposure(y, graph, k_sr=2)
        save_provider(tmp_path, provider, y, k_sr=2)
        tripwire = np.empty((5, 2), dtype=object)
        tripwire[:] = _Tripwire()
        np.savez(tmp_path / "model.npz", theta=np.zeros((5, 1)), beta=np.zeros((6, 1)),
                 x=tripwire, t=provider.t, b=provider.b, gamma=provider.gamma)
        with pytest.raises(DataFormatError, match=r"model\.npz: array 'x'.*allow_pickle"):
            load_provider(tmp_path, y, graph)
        assert UNPICKLED == []

    def test_end_to_end_fit(self, rng):
        y = random_interactions(rng, 10, 12, density=0.25)
        graph = random_graph(rng, 10, density=0.3)
        provider = RegularExposure(y, graph, k_sr=2, n_sgd_epochs=3, learning_rate=0.02, seed=2)
        res = fit(y, provider, TrainConfig(k=2, max_em_iters=4, convergence_tol=1e-15, seed=0))
        assert res.n_iters == 4
        assert np.all(np.isfinite(res.model.theta))
        assert provider.last_objective is not None


def befriended_instance(seed, n_users, n_items, clicks_per_user, friends_per_user):
    """Clicks with a long-tailed item popularity, and a trust graph in which
    every user has at least one friend (a ring plus random edges)."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, n_items + 1)
    users = np.repeat(np.arange(n_users), clicks_per_user)
    items = rng.choice(n_items, size=users.size, p=weights / weights.sum())
    y = InteractionMatrix(n_users, n_items, np.column_stack([users, items]))
    ring = np.column_stack([np.arange(n_users), (np.arange(n_users) + 1) % n_users])
    extra = rng.integers(0, n_users, size=(n_users * friends_per_user, 2))
    graph = SocialGraph(n_users, np.vstack([ring, extra]))
    p = rng.uniform(0, 1, (n_users, n_items))
    return y, graph, p


class TestBatchedRefit:
    @pytest.mark.parametrize(
        "shape, epochs",
        [
            ((6, 5, 2, 1), 10),  # runs of a few triplets; items and trustees collide
            ((200, 2000, 30, 13), 3),  # lastfm's clicks and friends per user
        ],
    )
    def test_matches_sequential_reference(self, shape, epochs):
        y, graph, p = befriended_instance(3, *shape)
        provider = RegularExposure(
            y, graph, k_sr=5, learning_rate=0.02, n_sgd_epochs=epochs, seed=4, init_scale=0.3
        )
        ref = copy.deepcopy(provider)
        fit_exposure(provider, y, p, graph, seed=8)
        fit_exposure_reference(ref, y, p, graph, seed=8)
        for name in ("x", "t", "b", "gamma"):
            np.testing.assert_allclose(getattr(provider, name), getattr(ref, name), rtol=1e-10)

    @pytest.mark.parametrize(
        "shape, epochs",
        [
            ((6, 5, 2, 1), 10),
            ((200, 2000, 30, 13), 3),
            ((60, 80, 30, 5), 3),  # 22% of the pairs clicked: long conflict chains
        ],
    )
    def test_layers_equal_greedy_runs_byte_for_byte(self, monkeypatch, shape, epochs):
        y, graph, p = befriended_instance(3, *shape)
        provider = RegularExposure(
            y, graph, k_sr=5, learning_rate=0.02, n_sgd_epochs=epochs, seed=4, init_scale=0.3
        )
        ref = copy.deepcopy(provider)
        fit_exposure(provider, y, p, graph, seed=8)
        monkeypatch.setattr(social_regular, "_sgd_epoch", sgd_epoch_runs_reference)
        fit_exposure(ref, y, p, graph, seed=8)
        for name in ("x", "t", "b", "gamma"):
            assert getattr(provider, name).tobytes() == getattr(ref, name).tobytes(), name
        assert provider.last_objective == ref.last_objective

    def test_layers_are_conflict_free_and_as_soon_as_possible(self):
        rng = np.random.default_rng(5)
        n = 400
        i, u, k = rng.integers(0, 9, n), rng.integers(0, 5, n), rng.integers(0, 5, n)
        order, bounds = _conflict_layers(i, u, k)
        assert sorted(order.tolist()) == list(range(n))
        assert bounds[0] == 0 and bounds[-1] == n
        assert np.all(np.diff(bounds) > 0)
        layer = np.empty(n, dtype=np.int64)
        for number, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            rows = order[a:b]
            assert np.all(np.diff(rows) > 0)  # epoch order within a layer
            for col in (i, u, k):
                assert len(set(col[rows].tolist())) == b - a
            layer[rows] = number
        for j in range(n):
            earlier = [r for r in range(j) if i[r] == i[j] or u[r] == u[j] or k[r] == k[j]]
            assert layer[j] == 1 + max((layer[r] for r in earlier), default=-1)
        # far fewer batches than greedy runs of consecutive triplets
        assert len(bounds) - 1 < len(conflict_free_runs(i, u, k)) - 1

    def test_empty_epoch_has_no_layers(self):
        order, bounds = _conflict_layers(*(np.empty(0, dtype=np.int64),) * 3)
        assert order.size == 0 and bounds.tolist() == [0, 0]

    def test_objective_does_not_depend_on_the_chunk_size(self, monkeypatch):
        y, graph, p = befriended_instance(6, 40, 120, 10, 4)
        provider = RegularExposure(y, graph, k_sr=5, seed=1, init_scale=0.3)
        sample = _epoch_sample(y, graph, p, 0, 0)
        whole = social_regular._sampled_objective(provider, *sample)
        monkeypatch.setattr(social_regular, "OBJECTIVE_CHUNK", 7)
        assert social_regular._sampled_objective(provider, *sample) == whole

    def test_epoch_sample_equals_reference_sampler(self):
        y, graph, p = befriended_instance(6, 40, 120, 10, 4)
        assert graph.out_degree().min() > 0
        for seed, epoch in ((0, 0), (3, 1), (11, 7)):
            got = _epoch_sample(y, graph, p, seed, epoch)
            want = epoch_sample_reference(y, graph, p, seed, epoch)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)

    def test_no_negative_to_sample_when_every_pair_is_clicked(self):
        y = InteractionMatrix(2, 3, [(u, i) for u in range(2) for i in range(3)])
        with pytest.raises(ValueError, match="every pair is observed"):
            _sample_negatives(y, 1, np.random.default_rng(0))

    def test_negatives_equal_reference_and_are_unobserved(self):
        y, _, _ = befriended_instance(2, 30, 12, 6, 1)  # dense: many rejections
        got = _sample_negatives(y, 500, np.random.default_rng(1))
        want = sample_negatives_reference(y, 500, np.random.default_rng(1))
        assert np.array_equal(got, want)
        assert not set(map(tuple, got.tolist())) & entry_set(y)

    def test_friendless_users_never_draw_themselves(self):
        graph = SocialGraph(6, [(0, 1), (0, 2), (4, 5)])
        users = np.tile(np.arange(6), 500)
        partners, s_flags = _draw_trust_partners(graph, users, np.random.default_rng(0))
        lonely = np.isin(users, [1, 2, 3, 5])
        assert np.all(s_flags == ~lonely)
        assert np.all(partners[lonely] != users[lonely])
        assert np.all((partners >= 0) & (partners < 6))
        for u in (1, 2, 3, 5):
            assert set(partners[users == u].tolist()) == set(range(6)) - {u}
        assert set(partners[users == 0].tolist()) == {1, 2}
        assert set(partners[users == 4].tolist()) == {5}

    def test_single_user_is_own_partner(self):
        partners, s_flags = _draw_trust_partners(
            SocialGraph(1, []), np.zeros(4, dtype=np.int64), np.random.default_rng(0)
        )
        assert partners.tolist() == [0, 0, 0, 0]
        assert s_flags.tolist() == [0, 0, 0, 0]

    def test_non_finite_mid_run_names_that_triplet(self):
        rng = np.random.default_rng(2)
        state = random_state(rng, n_users=6, n_items=6, k_sr=3)
        pairs = np.array([[0, 5], [1, 4], [2, 3], [3, 2], [4, 1]])
        partners = np.array([5, 4, 3, 2, 1])
        order, bounds = _conflict_layers(pairs[:, 1], pairs[:, 0], partners)
        assert bounds.tolist() == [0, 5]  # one layer holds all five
        state.x[2] = np.inf  # triplet 2: (i=3, u=2, k=3)
        state.b[1, 0] = np.inf  # triplet 4 is bad as well, but later
        with pytest.raises(TrainingError, match=r"\(i=3, u=2, k=3\)"):
            _sgd_epoch(state, pairs, np.full(5, 0.2), partners, np.ones(5, dtype=np.int64), 0.1)

    def test_non_finite_in_a_later_layer_but_earlier_in_the_epoch_is_named(self):
        # triplet 1 shares item 0 with triplet 0, so it runs in layer 1;
        # triplet 2 runs in layer 0.  Both are bad, and 1 comes first.
        rng = np.random.default_rng(3)
        state = random_state(rng, n_users=6, n_items=6, k_sr=3)
        pairs = np.array([[0, 0], [2, 0], [4, 4]])  # (u, i)
        partners = np.array([1, 3, 5])
        order, bounds = _conflict_layers(pairs[:, 1], pairs[:, 0], partners)
        assert order.tolist() == [0, 2, 1] and bounds.tolist() == [0, 2, 3]
        state.x[2] = np.inf  # triplet 1: (i=0, u=2, k=3)
        state.x[4] = np.inf  # triplet 2: (i=4, u=4, k=5)
        sequential = copy.deepcopy(state)
        sgd_triplet_step(sequential, (0, 0, 1), 0.2, 1, 0.1)  # the one good triplet
        with pytest.raises(TrainingError, match=r"\(i=0, u=2, k=3\)"):
            _sgd_epoch(state, pairs, np.full(3, 0.2), partners, np.ones(3, dtype=np.int64), 0.1)
        # what ran is exactly the triplets before the named one
        for name in ("x", "t", "b", "gamma"):
            assert np.array_equal(getattr(state, name), getattr(sequential, name))

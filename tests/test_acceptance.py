"""Acceptance gate: one test per shipped guarantee.

Each test prints a single [PASS]/[FAIL]/[SKIP] line naming its criterion
(run ``pytest tests/test_acceptance.py -s`` to see them all); the
assertions carry the stated tolerances.  Three criteria need the original
benchmark datasets converted to the documented edge-list layout under
``SEREC_DATA_DIR``; without the files they skip with an explicit message
rather than pretending to pass.
"""

import copy
import math
import os
import time
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    MatrixProvider,
    dense_clicks,
    random_graph,
    random_interactions,
    triplet_gradients,
)
from reference_impls import (
    brute_evaluate,
    brute_force_posterior,
    finite_difference,
    fixed_exposure_p,
    items_of,
    ridge_row_oracle,
    sampled_triplet_loss,
    wals_reference,
)
from serec import (
    BoostExposure,
    DatasetSplit,
    FactorModel,
    FixedExposure,
    InteractionMatrix,
    PopularityExposure,
    SocialGraph,
    TrainConfig,
    e_step,
    fit,
    popularity_update_mu,
    update_item_factors,
    update_user_factors,
)
from serec import data as dm
from serec import metrics, synthetic


@contextmanager
def criterion(label):
    try:
        yield
    except pytest.skip.Exception as exc:
        print(f"[SKIP] {label} -- {exc}")
        raise
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    else:
        print(f"[PASS] {label}")


def _load_benchmark(name):
    root = os.environ.get("SEREC_DATA_DIR")
    if not root:
        pytest.skip(f"needs the {name} dataset; set SEREC_DATA_DIR")
    d = Path(root) / name
    if not (d / "interactions.tsv").exists() or not (d / "social.tsv").exists():
        pytest.skip(f"{name} edge lists not found under {d}")
    y, id_map = dm.load_interactions(d / "interactions.tsv")
    graph, _ = dm.load_social(d / "social.tsv", id_map)
    return y, graph


# --------------------------------------------------------------- criterion 1


def test_c1_posterior_and_factor_update_oracles(rng):
    with criterion("criterion 1: closed-form posterior and factor updates match oracles"):
        t0 = time.perf_counter()
        pair_rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(1000):
            mu = float(pair_rng.uniform(0, 1))
            score = float(pair_rng.normal(0, 2))
            lam = float(pair_rng.uniform(0.1, 10))
            # the engine's E-step on one unclicked pair whose score is theta . beta
            pair = FactorModel([[score]], [[1.0]], lambda_y=lam)
            got = float(e_step(InteractionMatrix(1, 1, []), pair, MatrixProvider([[mu]]))[0, 0])
            want = brute_force_posterior(mu, score, lam)
            worst = max(worst, abs(got - want))
        assert worst < 1e-12, worst

        for _ in range(50):
            n_u = int(rng.integers(1, 11))
            n_v = int(rng.integers(1, 11))
            k = int(rng.integers(1, 4))
            y = random_interactions(rng, n_u, n_v, density=0.4)
            y_dense = dense_clicks(y)
            p = rng.uniform(0.01, 1, (n_u, n_v))
            p[y_dense.astype(bool)] = 1.0
            model = FactorModel(
                rng.normal(0, 1, (n_u, k)),
                rng.normal(0, 1, (n_v, k)),
                float(rng.uniform(0.01, 2)),
                float(rng.uniform(0.01, 2)),
                float(rng.uniform(0.1, 5)),
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
        assert time.perf_counter() - t0 < 10.0


# --------------------------------------------------------------- criterion 2


def _random_sr_state(rng, n_users=4, n_items=5, k_sr=3):
    return SimpleNamespace(
        x=rng.normal(0, 1, (n_users, k_sr)),
        t=rng.normal(0, 1, (n_items, k_sr)),
        b=rng.normal(0, 1, (n_users, k_sr)),
        gamma=rng.uniform(-0.5, 1.5, n_items),
        hyper={
            "lambda_sr": float(rng.uniform(0.1, 8)),
            "lambda_x": float(rng.uniform(0.1, 3)),
            "lambda_t": float(rng.uniform(0.1, 3)),
            "lambda_b": float(rng.uniform(0.1, 3)),
            "lambda_gamma": float(rng.uniform(0.1, 3)),
        },
    )


def test_c2_exposure_factorization_gradients():
    with criterion("criterion 2: all four exposure-factor gradients match finite differences"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(7)
        for trial in range(100):
            state = _random_sr_state(rng)
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
        assert time.perf_counter() - t0 < 10.0


# --------------------------------------------------------------- criterion 3


def test_c3_reduction_properties(rng):
    with criterion("criterion 3: degenerate settings reduce to the simpler models"):
        # (a) boost with s = 1, and boost with an empty graph, give the
        # popularity model's metrics exactly under a shared seed
        y = random_interactions(rng, 40, 60, density=0.15)
        graph = random_graph(rng, 40, density=0.08)
        split = dm.split_interactions(y, ratios=(0.7, 0.2), seed=5)
        cfg = TrainConfig(k=3, max_em_iters=4, convergence_tol=1e-15, seed=11, n_threads=1)

        def run(provider, kind):
            res = fit(split.train, provider, cfg)
            return metrics.evaluate(res.model, kind, split, cutoffs=(10, 50)).metrics

        base = run(PopularityExposure(split.train), "expomf")
        assert run(BoostExposure(split.train, graph, s_coeff=1.0), "serec-boost") == base
        empty = SocialGraph(split.train.n_users, np.empty((0, 2), dtype=np.int64))
        assert run(BoostExposure(split.train, empty, s_coeff=4.0), "serec-boost") == base

        # (b) fixed-weight mode equals a standalone weighted ALS oracle
        y2 = random_interactions(rng, 7, 9, density=0.3)
        cfg2 = TrainConfig(
            k=2, lambda_theta=0.3, lambda_beta=0.2, lambda_y=1.5,
            max_em_iters=3, convergence_tol=1e-15, seed=13,
        )
        res = fit(y2, FixedExposure(y2, mu_unobserved=0.4), cfg2)
        init = np.random.default_rng(13)
        theta0 = init.normal(0.0, cfg2.init_scale, (7, 2))
        beta0 = init.normal(0.0, cfg2.init_scale, (9, 2))
        weights = fixed_exposure_p(dense_clicks(y2), 0.4)
        theta_ref, beta_ref = wals_reference(
            dense_clicks(y2), weights, 1.5, 0.3, 0.2, theta0, beta0, n_iters=3
        )
        assert np.allclose(res.model.theta, theta_ref, atol=1e-8)
        assert np.allclose(res.model.beta, beta_ref, atol=1e-8)

        # (c) the uniform Beta prior turns the popularity update into a mean
        p = rng.uniform(0.2, 0.8, (30, 12))
        mu = popularity_update_mu(p.sum(axis=0), n_users=30, alpha1=1.0, alpha2=1.0)
        assert np.allclose(mu, p.mean(axis=0), rtol=1e-12, atol=1e-12)


# --------------------------------------------------------------- criterion 4


def test_c4_em_monotonicity():
    with criterion("criterion 4: EM likelihood trace is non-decreasing (5 seeds, 2 models)"):
        for seed in range(5):
            spec = synthetic.SyntheticSpec(
                n_users=200, n_items=200, k=3,
                social_density=0.02, base_exposure=0.05, s_coeff=5.0, seed=seed,
            )
            y, graph, _ = synthetic.generate(spec)
            cfg = TrainConfig(
                k=3, max_em_iters=15, convergence_tol=1e-12, seed=seed, n_threads=1
            )
            for provider in (
                PopularityExposure(y),
                BoostExposure(y, graph, s_coeff=5.0),
            ):
                trace = fit(y, provider, cfg).trace
                assert len(trace) >= 2
                for step, (prev, cur) in enumerate(zip(trace, trace[1:])):
                    assert cur >= prev - 1e-6 * abs(prev), (
                        seed, type(provider).__name__, step, prev, cur,
                    )


# --------------------------------------------------------------- criterion 5


def test_c5_metric_oracle(rng):
    with criterion("criterion 5: ranking metrics match brute force; chance level correct"):
        for trial in range(30):
            n_users = int(rng.integers(1, 21))
            n_items = int(rng.integers(2, 21))
            stack = rng.random((n_users, n_items))
            def mat(mask):
                return InteractionMatrix(n_users, n_items, np.argwhere(mask))
            split = DatasetSplit(
                train=mat(stack < 0.25),
                validation=mat((stack >= 0.25) & (stack < 0.35)),
                test=mat((stack >= 0.35) & (stack < 0.5)),
                seed=0,
            )
            model = FactorModel(
                rng.normal(0, 1, (n_users, 3)), rng.normal(0, 1, (n_items, 3))
            )
            sets = [
                [set(items_of(part, u).tolist()) for u in range(n_users)]
                for part in (split.train, split.validation, split.test)
            ]
            for target in ("test", "validation"):
                try:
                    want, count = brute_evaluate(
                        model.theta, model.beta, *sets, (1, 3, 10), target
                    )
                except ValueError:
                    with pytest.raises(ValueError):
                        metrics.evaluate(model, None, split, cutoffs=(1, 3, 10), target=target)
                    continue
                report = metrics.evaluate(model, None, split, cutoffs=(1, 3, 10), target=target)
                assert report.n_users_evaluated == count
                for name, val in want.items():
                    assert report.metrics[name] == pytest.approx(val, abs=1e-12), (trial, name)

        # random scores rank a lone relevant item into the top 10 of 1000
        # items 1% of the time; with |rel| = 1 the normalizer is 1
        n_users, n_items = 10_000, 1000
        chance_rng = np.random.default_rng(2024)
        test_pairs = np.column_stack(
            [np.arange(n_users), chance_rng.integers(0, n_items, n_users)]
        )
        split = DatasetSplit(
            train=InteractionMatrix(n_users, n_items, np.empty((0, 2), dtype=np.int64)),
            validation=InteractionMatrix(n_users, n_items, np.empty((0, 2), dtype=np.int64)),
            test=InteractionMatrix(n_users, n_items, test_pairs),
            seed=0,
        )
        model = FactorModel(
            chance_rng.normal(0, 1, (n_users, 8)), chance_rng.normal(0, 1, (n_items, 8))
        )
        recall = metrics.evaluate(model, None, split, cutoffs=(10,)).metrics["recall@10"]
        assert recall == pytest.approx(0.01, abs=0.005), recall


# --------------------------------------------------------------- criterion 6


# published reference statistics for the four benchmark snapshots; each
# percentage/ratio is stored with the number of significant figures the
# comparison runs at (capped at two)
REFERENCE_STATS = {
    "epinions": dict(
        n_users=32424, n_items=61274, n_ratings=664824, n_links=487145,
        r_density=(0.03, 1), s_density=(0.05, 1), avg_s=(15.02, 2), s_impact=(3.67, 2),
    ),
    "delicious": dict(
        n_users=1867, n_items=69223, n_ratings=104799, n_links=15328,
        r_density=(0.08, 1), s_density=(0.44, 2), avg_s=(8.23, 2), s_impact=(0.67, 2),
    ),
    "lastfm": dict(
        n_users=1892, n_items=17632, n_ratings=92834, n_links=25434,
        r_density=(0.01, 1), s_density=(0.71, 2), avg_s=(13.44, 2), s_impact=(3.72, 2),
    ),
    "douban": dict(
        n_users=129490, n_items=58541, n_ratings=16830839, n_links=1692952,
        r_density=(0.22, 2), s_density=(0.01, 1), avg_s=(13.07, 2), s_impact=(2.91, 2),
    ),
}

# two published values disagree with what the stated formulas give on the
# published counts; these are reported, never matched
DISCREPANT = {("lastfm", "r_density"), ("epinions", "s_impact")}


def _round_sig(x: float, n: int) -> float:
    if x == 0:
        return 0.0
    return round(x, n - 1 - math.floor(math.log10(abs(x))))


def _count_exact_dataset(n_users, n_items, n_ratings, n_links):
    """Matrices with exactly the published counts (contents are immaterial
    to the statistics; pairs/edges are distinct by construction)."""
    k = np.arange(n_ratings, dtype=np.int64)
    y = dm.InteractionMatrix(n_users, n_items, np.column_stack([k // n_items, k % n_items]))
    e = np.arange(n_links, dtype=np.int64)
    src = e // (n_users - 1)
    rem = e % (n_users - 1)
    dst = rem + (rem >= src)
    graph = dm.SocialGraph(n_users, np.column_stack([src, dst]))
    return y, graph


def _check_against_reference(name, stats):
    ref = REFERENCE_STATS[name]
    assert stats.n_ratings == ref["n_ratings"]
    assert stats.n_social_links == ref["n_links"]
    computed = {
        "r_density": stats.rating_density * 100,
        "s_density": stats.social_density * 100,
        "avg_s": stats.avg_social_links,
        "s_impact": stats.s_impact * 100,
    }
    for field, (printed, sig) in ((f, ref[f]) for f in computed):
        got = _round_sig(computed[field], sig)
        want = _round_sig(printed, sig)
        if (name, field) in DISCREPANT:
            assert got != want, (name, field, got, want)
            print(
                f"  NOTE {name} {field}: computed {computed[field]:.4g} "
                f"vs published {printed:g}; reported, not matched"
            )
        else:
            assert got == want, (name, field, computed[field], printed)


def test_c6a_dataset_statistics_from_exact_counts():
    with criterion("criterion 6a: statistics formulas reproduce the published table"):
        for name, ref in REFERENCE_STATS.items():
            y, graph = _count_exact_dataset(
                ref["n_users"], ref["n_items"], ref["n_ratings"], ref["n_links"]
            )
            stats = dm.dataset_stats(y, graph)
            _check_against_reference(name, stats)
            del y, graph
        # anchor the two reported discrepancies numerically
        lastfm = REFERENCE_STATS["lastfm"]
        assert 100 * lastfm["n_ratings"] / (lastfm["n_users"] * lastfm["n_items"]) == (
            pytest.approx(0.2783, abs=1e-3)
        )
        epin = REFERENCE_STATS["epinions"]
        assert (
            100
            * (epin["n_links"] / epin["n_users"])
            * epin["n_ratings"]
            / (epin["n_users"] * epin["n_items"])
        ) == pytest.approx(0.5028, abs=1e-3)


def test_c6b_dataset_statistics_on_original_files():
    with criterion("criterion 6b: statistics on the original dataset files"):
        root = os.environ.get("SEREC_DATA_DIR")
        if not root:
            pytest.skip("original dataset files unavailable; set SEREC_DATA_DIR")
        checked = 0
        for name in REFERENCE_STATS:
            d = Path(root) / name
            if not (d / "interactions.tsv").exists():
                continue
            y, id_map = dm.load_interactions(d / "interactions.tsv")
            graph, _ = dm.load_social(d / "social.tsv", id_map)
            _check_against_reference(name, dm.dataset_stats(y, graph))
            checked += 1
        if checked == 0:
            pytest.skip(f"no converted datasets found under {root}")


# --------------------------------------------------------------- criterion 7


def test_c7_desk_scale_directional_reproduction():
    with criterion("criterion 7: lastfm recall@50 ordering boost > popularity > fixed"):
        y, graph = _load_benchmark("lastfm")
        t0 = time.perf_counter()
        split = dm.split_interactions(y, ratios=(0.7, 0.2), seed=0)
        cfg = TrainConfig(
            k=20, lambda_theta=0.01, lambda_beta=0.01, lambda_y=0.01,
            max_em_iters=50, convergence_tol=1e-5, seed=0,
        )
        recalls = {}
        for kind, provider in (
            ("wmf", FixedExposure(split.train, mu_unobserved=0.4)),
            ("expomf", PopularityExposure(split.train)),
            ("serec-boost", BoostExposure(split.train, graph, s_coeff=5.0)),
        ):
            res = fit(split.train, provider, cfg)
            report = metrics.evaluate(res.model, kind, split, cutoffs=(50,))
            recalls[kind] = report.metrics["recall@50"]
        print(f"  lastfm recall@50: {recalls}")
        assert recalls["serec-boost"] > recalls["expomf"] > recalls["wmf"], recalls
        assert recalls["serec-boost"] == pytest.approx(0.4381, abs=0.05), recalls
        assert time.perf_counter() - t0 < 1800.0


# --------------------------------------------------------------- criterion 8


def test_c8_social_pruning_robustness_trend():
    with criterion("criterion 8: lastfm recall@50 decays monotonically with pruning"):
        y, graph = _load_benchmark("lastfm")
        split = dm.split_interactions(y, ratios=(0.7, 0.2), seed=0)
        cfg_base = dict(
            k=20, lambda_theta=0.01, lambda_beta=0.01, lambda_y=0.01,
            max_em_iters=50, convergence_tol=1e-5,
        )
        monotone = 0
        for seed in range(3):
            series = []
            for keep in (1.0, 0.6, 0.2):
                pruned = dm.prune_social(graph, keep, seed=seed)
                provider = BoostExposure(split.train, pruned, s_coeff=5.0)
                res = fit(split.train, provider, TrainConfig(seed=seed, **cfg_base))
                series.append(
                    metrics.evaluate(res.model, "serec-boost", split, cutoffs=(50,))
                    .metrics["recall@50"]
                )
            print(f"  seed {seed} recall@50 at keep 1.0/0.6/0.2: {series}")
            monotone += series[0] >= series[1] >= series[2]
        assert monotone >= 2, monotone


# --------------------------------------------------------------- criterion 9


def test_c9_synthetic_social_exposure_recovery():
    with criterion("criterion 9: boost beats popularity on strong-social synthetic data"):
        wins = 0
        details = []
        for seed in range(5):
            spec = synthetic.SyntheticSpec(
                n_users=300, n_items=200, k=3,
                social_density=0.02, base_exposure=0.01, s_coeff=8.0, seed=seed,
            )
            y, graph, _ = synthetic.generate(spec)
            split = dm.split_interactions(y, ratios=(0.7, 0.2), seed=seed)
            cfg = TrainConfig(
                k=3, max_em_iters=15, convergence_tol=1e-9, seed=seed, n_threads=1
            )
            scores = {}
            for kind, provider in (
                ("serec-boost", BoostExposure(split.train, graph, s_coeff=8.0)),
                ("expomf", PopularityExposure(split.train)),
            ):
                res = fit(split.train, provider, cfg)
                scores[kind] = metrics.evaluate(
                    res.model, kind, split, cutoffs=(50,)
                ).metrics["recall@50"]
            details.append(scores)
            wins += scores["serec-boost"] > scores["expomf"]
        assert wins >= 4, details

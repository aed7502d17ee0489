import json
import math

import numpy as np
import pytest

from conftest import random_interactions
from reference_impls import (
    RankedList,
    brute_evaluate,
    brute_map,
    brute_ndcg,
    brute_rank,
    brute_recall,
    map_at_k,
    ndcg_at_k,
    per_user_metrics_reference,
    rank_items,
    recall_at_k,
)
from serec import (
    DatasetSplit,
    FactorModel,
    InteractionMatrix,
    SocialGraph,
    evaluate,
    group_by_friends,
)
from serec import metrics
from serec.metrics import EvalReport


def ranked(items):
    return RankedList(user=0, items=np.asarray(items))


class TestRankItems:
    def test_orders_by_score(self):
        out = rank_items(np.array([0.1, 0.9, 0.5]), excluded=(), n=2)
        assert out.items.tolist() == [1, 2]

    def test_exclusion_removes_before_truncation(self):
        out = rank_items(np.array([0.1, 0.9, 0.5]), excluded={1}, n=2)
        assert out.items.tolist() == [2, 0]

    def test_ties_break_by_ascending_index(self):
        out = rank_items(np.zeros(5), excluded=(), n=5)
        assert out.items.tolist() == [0, 1, 2, 3, 4]

    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            rank_items(np.array([1.0]), excluded=(), n=0)

    def test_matches_sorted_oracle(self, rng):
        for _ in range(50):
            n_items = int(rng.integers(1, 30))
            scores = rng.normal(0, 1, n_items)
            # inject ties
            if n_items > 3:
                scores[1] = scores[0]
            excluded = set(int(i) for i in rng.integers(0, n_items, size=2))
            n = int(rng.integers(1, n_items + 1))
            got = rank_items(scores, excluded, n).items.tolist()
            assert got == brute_rank(scores, excluded, n)

    def test_tie_heavy_scores_match_sorted_oracle(self, rng):
        # few distinct integer scores, so the n-th best score is almost
        # always shared and the cut falls inside a run of ties
        for _ in range(300):
            n_items = int(rng.integers(1, 40))
            scores = rng.integers(-2, 3, n_items)
            n_excluded = int(rng.integers(0, n_items + 1))
            excluded = set(rng.choice(n_items, size=n_excluded, replace=False).tolist())
            n = int(rng.integers(1, n_items + 5))  # may exceed the candidates left
            got = rank_items(scores, excluded, n).items.tolist()
            assert got == brute_rank(scores.tolist(), excluded, n)

    def test_everything_excluded_gives_empty_list(self):
        out = rank_items(np.array([3.0, 1.0, 2.0]), excluded=[0, 1, 2], n=2)
        assert out.items.tolist() == []

    def test_nan_scores_rank_last_like_a_stable_sort(self):
        scores = np.array([np.nan, 1.0, np.nan, 2.0, 1.0, np.nan])
        for n in range(1, 7):
            want = np.argsort(-scores, kind="stable")[:n].tolist()
            assert rank_items(scores, (), n).items.tolist() == want

    def test_invariant_under_monotone_transform(self, rng):
        scores = rng.permutation(20).astype(float)
        base = rank_items(scores, excluded=(), n=20).items.tolist()
        assert rank_items(3.0 * scores + 7.0, (), 20).items.tolist() == base
        assert rank_items(np.exp(scores / 10), (), 20).items.tolist() == base


class TestPointMetrics:
    def test_recall_worked_example(self):
        # relevant items land at ranks 1 and 3 of 5
        r = ranked([7, 1, 9, 2, 3])
        assert recall_at_k(r, {7, 9}, 5) == 1.0
        assert recall_at_k(r, {7, 9}, 2) == pytest.approx(1 / 2)

    def test_recall_normalizes_by_min(self):
        r = ranked(list(range(10)))
        # 3 relevant, k=2, both hit: denominator is k
        assert recall_at_k(r, {0, 1, 55}, 2) == 1.0

    def test_map_worked_example(self):
        # hits at ranks 1 and 3, |relevant| = 2: (1/1 + 2/3) / 2
        r = ranked([7, 1, 9, 2, 3])
        assert map_at_k(r, {7, 9}, 5) == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)

    def test_ndcg_single_hit_at_rank_two(self):
        r = ranked([4, 8, 1])
        assert ndcg_at_k(r, {8}, 3) == pytest.approx(1.0 / math.log2(3), abs=1e-12)

    def test_perfect_ranking_scores_one(self):
        r = ranked([3, 5, 2, 9])
        assert recall_at_k(r, {3, 5}, 2) == 1.0
        assert map_at_k(r, {3, 5}, 2) == 1.0
        assert ndcg_at_k(r, {3, 5}, 2) == 1.0

    def test_empty_relevant_raises(self):
        r = ranked([1, 2])
        for fn in (recall_at_k, map_at_k, ndcg_at_k):
            with pytest.raises(ValueError, match="skip"):
                fn(r, set(), 2)

    def test_match_brute_force_on_random_lists(self, rng):
        for _ in range(200):
            n_items = int(rng.integers(2, 25))
            order = rng.permutation(n_items)
            rel = set(int(i) for i in rng.choice(n_items, size=rng.integers(1, n_items), replace=False))
            k = int(rng.integers(1, n_items + 2))
            r = ranked(order)
            assert recall_at_k(r, rel, k) == pytest.approx(brute_recall(order.tolist(), rel, k))
            assert map_at_k(r, rel, k) == pytest.approx(brute_map(order.tolist(), rel, k))
            assert ndcg_at_k(r, rel, k) == pytest.approx(brute_ndcg(order.tolist(), rel, k))


def split_from_dense(train, val, test):
    def mat(d):
        return InteractionMatrix(d.shape[0], d.shape[1], np.argwhere(d))

    return DatasetSplit(train=mat(train), validation=mat(val), test=mat(test), seed=0)


class TestEvaluate:
    def random_split(self, rng, n_users, n_items):
        # disjoint random train/val/test occupancy
        stack = rng.random((n_users, n_items))
        train = stack < 0.25
        val = (stack >= 0.25) & (stack < 0.35)
        test = (stack >= 0.35) & (stack < 0.5)
        return split_from_dense(train, val, test)

    def test_matches_brute_force_small_instances(self, rng):
        for trial in range(30):
            n_users = int(rng.integers(1, 21))
            n_items = int(rng.integers(2, 21))
            split = self.random_split(rng, n_users, n_items)
            model = FactorModel(rng.normal(0, 1, (n_users, 3)), rng.normal(0, 1, (n_items, 3)))
            train_sets = [set(split.train.items_of(u).tolist()) for u in range(n_users)]
            val_sets = [set(split.validation.items_of(u).tolist()) for u in range(n_users)]
            test_sets = [set(split.test.items_of(u).tolist()) for u in range(n_users)]
            cutoffs = (1, 3, 10)
            for target in ("test", "validation"):
                try:
                    want, count = brute_evaluate(
                        model.theta, model.beta, train_sets, val_sets, test_sets, cutoffs, target
                    )
                except ValueError:
                    with pytest.raises(ValueError):
                        evaluate(model, None, split, cutoffs=cutoffs, target=target)
                    continue
                report = evaluate(model, None, split, cutoffs=cutoffs, target=target)
                assert report.n_users_evaluated == count
                for name, val in want.items():
                    assert report.metrics[name] == pytest.approx(val, abs=1e-12), (trial, name)

    def test_matches_brute_force_with_exact_ties(self, rng):
        # integer factors give integer scores: many exact ties at every
        # cutoff, and the matrix-vector product computes them exactly
        for trial in range(30):
            n_users = int(rng.integers(1, 16))
            n_items = int(rng.integers(2, 30))
            split = self.random_split(rng, n_users, n_items)
            model = FactorModel(
                rng.integers(-1, 2, (n_users, 2)).astype(float),
                rng.integers(-1, 2, (n_items, 2)).astype(float),
            )
            sets = [
                [set(part.items_of(u).tolist()) for u in range(n_users)]
                for part in (split.train, split.validation, split.test)
            ]
            for target in ("test", "validation"):
                try:
                    want, count = brute_evaluate(model.theta, model.beta, *sets, (1, 4, 8), target)
                except ValueError:
                    continue
                report = evaluate(model, None, split, cutoffs=(1, 4, 8), target=target)
                assert report.n_users_evaluated == count
                for name, val in want.items():
                    assert report.metrics[name] == pytest.approx(val, abs=1e-12), (trial, name)

    def test_per_user_values_equal_point_metrics(self, rng):
        split = self.random_split(rng, 30, 40)
        model = FactorModel(rng.integers(-2, 3, (30, 3)).astype(float), rng.normal(0, 1, (40, 3)))
        cutoffs = (1, 5, 20)
        for target in ("test", "validation"):
            per_user, users = metrics._per_user_metrics(model, split, cutoffs, target)
            parts = (split.train, split.validation) if target == "test" else (split.train,)
            truth = split.test if target == "test" else split.validation
            for pos, u in enumerate(users.tolist()):
                excluded = np.concatenate([m.items_of(u) for m in parts])
                relevant = np.setdiff1d(truth.items_of(u), excluded)
                ranked = rank_items(model.beta @ model.theta[u], excluded, max(cutoffs))
                for k in cutoffs:
                    assert per_user[f"recall@{k}"][pos] == recall_at_k(ranked, relevant, k)
                    assert per_user[f"map@{k}"][pos] == map_at_k(ranked, relevant, k)
                    assert per_user[f"ndcg@{k}"][pos] == ndcg_at_k(ranked, relevant, k)

    def test_duplicate_cutoffs_count_each_user_once(self, rng):
        # a repeated cutoff used to append each user's value twice, so the
        # group means indexed the wrong users
        split = self.random_split(rng, 40, 30)
        model = FactorModel(rng.normal(0, 1, (40, 3)), rng.normal(0, 1, (30, 3)))
        groups = {"a": np.arange(0, 20), "b": np.arange(20, 40)}
        once = evaluate(model, None, split, cutoffs=(10,), groups=groups)
        twice = evaluate(model, None, split, cutoffs=(10, 10), groups=groups)
        assert twice.metrics == once.metrics
        assert twice.groups == once.groups

    def test_perfect_model_scores_one(self):
        # item factors aligned with each user's test items
        test = np.zeros((3, 6), dtype=bool)
        test[0, 1] = test[1, 4] = test[2, 0] = True
        split = split_from_dense(np.zeros_like(test), np.zeros_like(test), test)
        theta = np.eye(3)
        beta = np.zeros((6, 3))
        beta[1, 0] = beta[4, 1] = beta[0, 2] = 1.0
        report = evaluate(FactorModel(theta, beta), "toy", split, cutoffs=(1, 5))
        assert report.metrics["recall@1"] == 1.0
        assert report.metrics["ndcg@5"] == 1.0
        assert report.n_users_evaluated == 3

    def test_users_without_relevant_items_are_skipped(self):
        test = np.zeros((2, 4), dtype=bool)
        test[0, 2] = True
        split = split_from_dense(np.zeros_like(test), np.zeros_like(test), test)
        model = FactorModel(np.ones((2, 1)), np.ones((4, 1)))
        assert evaluate(model, None, split).n_users_evaluated == 1

    def test_relevant_covered_by_exclusions_is_skipped(self):
        # the user's only test item is also in train: nothing to find
        train = np.zeros((1, 3), dtype=bool)
        train[0, 1] = True
        test = train.copy()
        split = split_from_dense(train, np.zeros_like(train), test)
        model = FactorModel(np.ones((1, 1)), np.ones((3, 1)))
        with pytest.raises(ValueError, match="no users with relevant items"):
            evaluate(model, None, split)

    def test_zero_evaluable_users_is_an_error(self):
        empty = np.zeros((2, 3), dtype=bool)
        split = split_from_dense(empty, empty, empty)
        model = FactorModel(np.ones((2, 1)), np.ones((3, 1)))
        with pytest.raises(ValueError, match="no users with relevant items"):
            evaluate(model, None, split)

    def test_chance_level_recall(self):
        # random scores against one relevant item out of 1000:
        # E[recall@10] = 10/1000 = 0.01
        n_users, n_items = 10_000, 1000
        rng = np.random.default_rng(123)
        test_pairs = [(u, int(rng.integers(n_items))) for u in range(n_users)]
        split = DatasetSplit(
            train=InteractionMatrix(n_users, n_items, []),
            validation=InteractionMatrix(n_users, n_items, []),
            test=InteractionMatrix(n_users, n_items, test_pairs),
            seed=0,
        )
        model = FactorModel(rng.normal(0, 1, (n_users, 8)), rng.normal(0, 1, (n_items, 8)))
        report = evaluate(model, None, split, cutoffs=(10,))
        assert report.metrics["recall@10"] == pytest.approx(0.01, abs=0.005)

    def test_group_means(self, rng):
        y = random_interactions(rng, 8, 10, density=0.3)
        test = random_interactions(rng, 8, 10, density=0.2)
        split = DatasetSplit(
            train=InteractionMatrix(8, 10, []),
            validation=InteractionMatrix(8, 10, []),
            test=test,
            seed=0,
        )
        model = FactorModel(rng.normal(0, 1, (8, 2)), rng.normal(0, 1, (10, 2)))
        groups = {"low": np.array([0, 1, 2, 3]), "high": np.array([4, 5, 6, 7])}
        report = evaluate(model, None, split, cutoffs=(5,), groups=groups)
        assert set(report.groups) <= {"low", "high"}
        total = sum(g["n_users"] for g in report.groups.values())
        assert total == report.n_users_evaluated

    def test_invalid_target(self, rng):
        y = random_interactions(rng, 3, 4)
        split = DatasetSplit(train=y, validation=y, test=y, seed=0)
        model = FactorModel(np.ones((3, 1)), np.ones((4, 1)))
        with pytest.raises(ValueError, match="target"):
            evaluate(model, None, split, target="holdout")


def ranking_case(rng, n_users, n_items, scores):
    """A split whose users cover the ranker's edge cases, and a model.

    User 0 has every item in train, user 1 no validation or test items,
    and user 2 only validation and test items that are also in train.
    Other users keep about 45% of the items as candidates, so with a
    cutoff of 20 over 40 items some have fewer candidates than places.  ``scores`` "ties" gives integer
    scores with few distinct values; "special" gives normal scores with
    NaN, +inf and -inf ones, and users whose scores are all NaN or all 0.
    """
    stack = rng.random((n_users, n_items))
    train, val, test = stack < 0.4, (stack >= 0.4) & (stack < 0.55), stack >= 0.75
    train[0] = True
    val[1] = test[1] = False
    val[2] = test[2] = train[2]
    if scores == "ties":
        theta = rng.integers(-1, 2, (n_users, 2)).astype(float)
        beta = rng.integers(-1, 2, (n_items, 2)).astype(float)
    else:
        theta = rng.normal(0, 1, (n_users, 3))
        beta = rng.normal(0, 1, (n_items, 3))
        beta[rng.choice(n_items, size=3, replace=False)] = np.nan
        beta[rng.choice(n_items, size=3, replace=False), 0] = np.inf
        beta[rng.choice(n_items, size=3, replace=False), 1] = -np.inf
        theta[3] = 0.0  # inf * 0: NaN where beta is infinite, 0 elsewhere
        theta[4] = np.nan
        theta[5, :2] = [1.0, -1.0]  # +inf - inf
    return split_from_dense(train, val, test), FactorModel(theta, beta)


class TestBlockRanker:
    """``_per_user_metrics`` against the per-user loop it replaced
    (``reference_impls.per_user_metrics_reference``), bit for bit."""

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("scores", ["ties", "special"])
    @pytest.mark.parametrize("target", ["test", "validation"])
    def test_matches_per_user_loop_bit_for_bit(self, rng, scores, target):
        for n_items, cutoffs in ((40, (1, 5, 20)), (12, (3, 50)), (300, (1, 10, 100))):
            split, model = ranking_case(rng, 50, n_items, scores)
            want, want_users = per_user_metrics_reference(model, split, cutoffs, target)
            assert 0 not in want_users and 1 not in want_users and 2 not in want_users
            for n_threads in (1, 2, 4):
                for batch in (1, 3, 7, None):  # 50 users: none divides them but 1
                    got, users = metrics._per_user_metrics(
                        model, split, cutoffs, target, n_threads, batch
                    )
                    assert users.tolist() == want_users.tolist()
                    assert got.keys() == want.keys()
                    for name in want:
                        assert got[name].tobytes() == want[name].tobytes(), (
                            n_items, n_threads, batch, name
                        )


class TestGroupByFriends:
    def test_default_bucket_labels_and_boundaries(self):
        # degrees 0, 3, 8, 20: one user per default bucket
        edges = []
        edges += [(1, k) for k in range(2, 5)]
        edges += [(2, k) for k in range(3, 11)]
        edges += [(3, k) for k in list(range(4, 24)) + [0]][:20]
        graph = SocialGraph(30, [(a, b % 30) for a, b in edges])
        groups = group_by_friends(graph)
        assert set(groups) == {"0", "1-5", "6-15", "15+"}
        assert 1 in groups["1-5"]
        assert 2 in groups["6-15"]
        assert 3 in groups["15+"]
        assert 0 in groups["0"]

    def test_fifteen_friends_is_not_fifteen_plus(self):
        edges = [(0, k) for k in range(1, 16)]  # out-degree exactly 15
        graph = SocialGraph(20, edges)
        groups = group_by_friends(graph)
        assert 0 in groups["6-15"]
        assert 0 not in groups["15+"]

    def test_sixteen_friends_is_fifteen_plus(self):
        edges = [(0, k) for k in range(1, 17)]
        graph = SocialGraph(20, edges)
        assert 0 in group_by_friends(graph)["15+"]

    def test_partition_is_exact(self, rng):
        from conftest import random_graph

        graph = random_graph(rng, 40, density=0.2)
        groups = group_by_friends(graph)
        seen = np.concatenate(list(groups.values()))
        assert sorted(seen.tolist()) == list(range(40))

    def test_overlapping_buckets_rejected(self):
        graph = SocialGraph(5, [(0, 1)])
        with pytest.raises(ValueError, match="overlap"):
            group_by_friends(graph, buckets=((0, 5), (5, 10)))

    def test_uncovered_degree_rejected(self):
        graph = SocialGraph(5, [(0, 1), (0, 2)])
        with pytest.raises(ValueError, match="no bucket"):
            group_by_friends(graph, buckets=((0, 1), (3, None)))


class TestEvalReport:
    def test_json_and_table(self):
        report = EvalReport(
            metrics={"recall@10": 0.5, "ndcg@10": 0.25},
            n_users_evaluated=7,
            model_kind="expomf",
        )
        payload = json.loads(report.to_json())
        assert payload["metrics"]["recall@10"] == 0.5
        assert payload["n_users_evaluated"] == 7
        assert payload["model_kind"] == "expomf"
        table = report.to_table()
        lines = table.splitlines()
        assert lines[0].startswith("metric")
        # aligned: every value starts at the same column
        starts = {len(ln) - len(ln.split()[-1]) for ln in lines}
        assert len(starts) == 1
        tsv = report.to_tsv()
        assert tsv.startswith("metric\tvalue\n")
        assert "recall@10\t0.5" in tsv

"""Top-N ranking evaluation: Recall@K, MAP@K, NDCG@K, friend-count groups.

Relevance is binary (implicit data).  Recall normalizes by min(k, number
of relevant items), MAP by the same; NDCG uses the binary ideal DCG.  Ties
in scores break by ascending item index so rankings are deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from serec.data import DatasetSplit, SocialGraph
from serec.engine import FactorModel

DEFAULT_CUTOFFS = (10, 50, 100)
DEFAULT_FRIEND_BUCKETS = ((0, 0), (1, 5), (6, 15), (16, None))


@dataclass
class RankedList:
    """Top-n items for one user, best first, after exclusions."""

    user: int
    items: np.ndarray


@dataclass
class EvalReport:
    """Mean metric values over the evaluated users.

    ``metrics`` maps names like "recall@50" to means in [0, 1]; ``groups``
    optionally holds the same maps per friend-count bucket.
    """

    metrics: dict[str, float]
    n_users_evaluated: int
    model_kind: str | None = None
    groups: dict[str, dict] | None = None
    target: str = "test"

    def to_json(self) -> str:
        payload = {
            "metrics": self.metrics,
            "n_users_evaluated": self.n_users_evaluated,
            "model_kind": self.model_kind,
            "target": self.target,
        }
        if self.groups is not None:
            payload["groups"] = self.groups
        return json.dumps(payload, indent=2)

    def to_table(self) -> str:
        """Aligned metric-per-row text table."""
        rows = [("metric", "value")]
        rows += [(name, f"{val:.4f}") for name, val in sorted(self.metrics.items())]
        width = max(len(r[0]) for r in rows)
        lines = [f"{name.ljust(width)}  {val}" for name, val in rows]
        lines.append(f"{'n_users'.ljust(width)}  {self.n_users_evaluated}")
        return "\n".join(lines)

    def to_tsv(self) -> str:
        lines = ["metric\tvalue"]
        lines += [f"{name}\t{val:.17g}" for name, val in sorted(self.metrics.items())]
        return "\n".join(lines) + "\n"


def _top_n(scores: np.ndarray, keep: np.ndarray, n: int) -> np.ndarray:
    """Indices of the n best-scoring items among those ``keep`` marks.

    Equal scores rank by ascending item index.  ``np.partition`` finds the
    n-th best score; every item above it, then the tied items in index
    order, fill the n places, and a stable sort orders that small set.
    NaN scores rank last, as in a sort.
    """
    candidates = np.flatnonzero(keep)
    neg = -scores[candidates]
    if len(neg) > n:
        cut = np.partition(neg, n - 1)[n - 1]
        above, tied = (~np.isnan(neg), np.isnan(neg)) if np.isnan(cut) else (neg < cut, neg == cut)
        above[np.flatnonzero(tied)[: n - np.count_nonzero(above)]] = True
        chosen = np.flatnonzero(above)
        return candidates[chosen[np.argsort(neg[chosen], kind="stable")]]
    return candidates[np.argsort(neg, kind="stable")]


def _metric_table(hits: np.ndarray, n_relevant: np.ndarray, cutoffs) -> dict[str, np.ndarray]:
    """Recall, MAP and NDCG at each cutoff, one entry per row of ``hits``.

    ``hits[r, j]`` says whether rank j + 1 of row r holds a relevant item;
    ``n_relevant[r]`` (>= 1) counts that row's relevant items.  Running
    sums along each row give every cutoff at once.  ``np.cumsum`` adds in
    rank order, unlike the pairwise ``np.sum``, and the discounts come from
    ``math.log2``, so each value is bit for bit what a loop over ranks gives.
    """
    ranks = np.arange(1, hits.shape[1] + 1)
    discount = np.array([1.0 / math.log2(r + 1) for r in ranks.tolist()])
    found = np.cumsum(hits, axis=1)
    precision_sum = np.cumsum(np.where(hits, found / ranks, 0.0), axis=1)
    dcg = np.cumsum(np.where(hits, discount, 0.0), axis=1)
    ideal_dcg = np.cumsum(discount)
    norms = {k: np.minimum(k, n_relevant) for k in cutoffs}
    return {
        **{f"recall@{k}": found[:, k - 1] / norm for k, norm in norms.items()},
        **{f"map@{k}": precision_sum[:, k - 1] / norm for k, norm in norms.items()},
        **{f"ndcg@{k}": dcg[:, k - 1] / ideal_dcg[norm - 1] for k, norm in norms.items()},
    }


def rank_items(scores: np.ndarray, excluded, n: int) -> RankedList:
    """Indices of the n best-scoring items, excluded ones removed first.

    Equal scores rank by ascending item index.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    scores = np.asarray(scores)
    exc = np.fromiter(excluded, dtype=np.int64)
    keep = np.ones(len(scores), dtype=bool)
    keep[exc[(exc >= 0) & (exc < len(scores))]] = False
    return RankedList(user=-1, items=_top_n(scores, keep, n))


def _point_metric(metric: str, ranked: RankedList, relevant, k: int) -> float:
    if k < 1:
        raise ValueError("k must be >= 1")
    rel = np.unique(np.fromiter(relevant, dtype=np.int64))
    if not len(rel):
        raise ValueError("relevant set is empty; user should be skipped, not scored")
    top = np.asarray(ranked.items)[:k]
    hits = np.zeros((1, k), dtype=bool)
    hits[0, : len(top)] = np.isin(top, rel)
    return float(_metric_table(hits, np.array([len(rel)]), (k,))[f"{metric}@{k}"][0])


def recall_at_k(ranked: RankedList, relevant, k: int) -> float:
    """Relevant items in the top k over min(k, |relevant|)."""
    return _point_metric("recall", ranked, relevant, k)


def map_at_k(ranked: RankedList, relevant, k: int) -> float:
    """Average precision at k, normalized by min(k, |relevant|)."""
    return _point_metric("map", ranked, relevant, k)


def ndcg_at_k(ranked: RankedList, relevant, k: int) -> float:
    """Binary-relevance DCG at k over the ideal DCG."""
    return _point_metric("ndcg", ranked, relevant, k)


def _per_user_metrics(
    model: FactorModel, split: DatasetSplit, cutoffs, target: str
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Metric arrays (one entry per evaluated user) plus the user indices.

    Scores are ``model.beta @ model.theta[u]``, one user at a time: a
    batched ``theta @ beta.T`` rounds differently in the last bits, which
    reorders near-ties.
    """
    if target not in ("test", "validation"):
        raise ValueError('target must be "test" or "validation"')
    if model.n_users != split.n_users or model.n_items != split.n_items:
        raise ValueError("model and split disagree on dimensions")
    cutoffs = np.unique([int(c) for c in cutoffs]).tolist()  # sorted, each once
    if not cutoffs or cutoffs[0] < 1:
        raise ValueError("cutoffs must be positive")
    target_matrix = split.test if target == "test" else split.validation
    seen = (split.train, split.validation) if target == "test" else (split.train,)
    n_max = cutoffs[-1]
    hits = np.zeros((split.n_users, n_max), dtype=bool)
    n_relevant = np.zeros(split.n_users, dtype=np.int64)
    keep = np.ones(split.n_items, dtype=bool)
    is_relevant = np.zeros(split.n_items, dtype=bool)
    for u in range(split.n_users):
        keep[:] = True
        for part in seen:
            keep[part.items_of(u)] = False
        relevant = target_matrix.items_of(u)
        relevant = relevant[keep[relevant]]
        if not len(relevant):
            continue
        top = _top_n(model.beta @ model.theta[u], keep, n_max)
        is_relevant[relevant] = True
        hits[u, : len(top)] = is_relevant[top]
        is_relevant[relevant] = False
        n_relevant[u] = len(relevant)
    users = np.flatnonzero(n_relevant)
    if not len(users):
        raise ValueError("no users with relevant items in the target split")
    return _metric_table(hits[users], n_relevant[users], cutoffs), users


def evaluate(
    model: FactorModel,
    exposure_kind: str | None,
    split: DatasetSplit,
    cutoffs=DEFAULT_CUTOFFS,
    target: str = "test",
    groups: dict[str, np.ndarray] | None = None,
) -> EvalReport:
    """Rank by preference scores and average the metrics over users.

    Target "test" excludes each user's train and validation items from the
    candidate list; "validation" excludes train items.  Users with no
    relevant items in the target split are skipped.  Exposure never enters
    the ranking; ``exposure_kind`` is recorded for reporting only.  When
    ``groups`` maps labels to user-index arrays, per-group means are
    reported alongside the overall ones.
    """
    per_user, users = _per_user_metrics(model, split, cutoffs, target)
    report = EvalReport(
        metrics={name: float(vals.mean()) for name, vals in per_user.items()},
        n_users_evaluated=len(users),
        model_kind=exposure_kind,
        target=target,
    )
    if groups is not None:
        position = np.full(split.n_users, -1)
        position[users] = np.arange(len(users))
        report.groups = {}
        for label, members in groups.items():
            members = np.asarray(members, dtype=np.int64)
            idx = position[members[(members >= 0) & (members < split.n_users)]]
            idx = idx[idx >= 0]
            if not len(idx):
                continue
            report.groups[label] = {
                "n_users": len(idx),
                **{name: float(vals[idx].mean()) for name, vals in per_user.items()},
            }
    return report


def group_by_friends(graph: SocialGraph, buckets=DEFAULT_FRIEND_BUCKETS) -> dict[str, np.ndarray]:
    """Partition users by out-degree into labeled buckets.

    Default buckets follow the usual presentation: 0, 1-5, 6-15, and 15+
    friends, where "15+" means degree 16 or more.  Buckets must not
    overlap and must cover every observed degree.
    """
    spans = []
    for lo, hi in buckets:
        if hi is not None and hi < lo:
            raise ValueError(f"bucket ({lo}, {hi}) is inverted")
        spans.append((int(lo), None if hi is None else int(hi)))
    spans_sorted = sorted(spans, key=lambda s: s[0])
    for (lo1, hi1), (lo2, _) in zip(spans_sorted, spans_sorted[1:]):
        if hi1 is None or lo2 <= hi1:
            raise ValueError("buckets overlap")
    degrees = graph.out_degree()
    out: dict[str, np.ndarray] = {}
    assigned = np.zeros(graph.n_users, dtype=bool)
    for lo, hi in spans:
        if lo == hi:
            label = str(lo)
        elif hi is None:
            label = f"{lo - 1}+"
        else:
            label = f"{lo}-{hi}"
        mask = degrees >= lo if hi is None else (degrees >= lo) & (degrees <= hi)
        out[label] = np.flatnonzero(mask)
        assigned |= mask
    if not assigned.all():
        missing = degrees[~assigned]
        raise ValueError(f"degrees {sorted(set(missing.tolist()))} fall in no bucket")
    return out

"""Top-N ranking evaluation: Recall@K, MAP@K, NDCG@K, friend-count groups.

Relevance is binary (implicit data).  Recall normalizes by min(k, number
of relevant items), MAP by the same; NDCG uses the binary ideal DCG.  Ties
in scores break by ascending item index so rankings are deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from serec.data import DatasetSplit, InteractionMatrix, SocialGraph
from serec.engine import FactorModel, _in_pool

DEFAULT_CUTOFFS = (10, 50, 100)
# friend-count buckets and the lowest out-degree of each after the first
FRIEND_BUCKETS = ("0", "1-5", "6-15", "15+")
FRIEND_BUCKET_EDGES = (1, 6, 16)


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


# Scores per step of a ranking block: each pool thread reuses four buffers
# of this many entries, a step's users times n_items.
RANK_STEP_ENTRIES = 1 << 18


def _pairs_of(matrix: InteractionMatrix, users: np.ndarray):
    """Rows (positions in ``users``) and item indices of the pairs of ``users``."""
    start = matrix.csr_indptr[users]
    counts = matrix.csr_indptr[users + 1] - start
    rows = np.repeat(np.arange(len(users)), counts)
    first = np.cumsum(counts) - counts  # each user's first place in the result
    return rows, matrix.item_idx[np.arange(len(rows)) + (start - first)[rows]]


def _listed(sel: np.ndarray):
    """Rows and columns of the True entries of ``sel``, row by row in
    ascending column order, and the count of each row."""
    rows, cols = np.divmod(np.flatnonzero(sel), sel.shape[1])
    return rows, cols, np.bincount(rows, minlength=sel.shape[0])


def _rank_block(model: FactorModel, users, target, seen, hits, n_relevant, batch: int) -> None:
    """Rank ``users`` into the rows of ``hits``, ``batch`` users a step.

    The items of user ``users[r]`` in ``target`` and in no part of
    ``seen`` are relevant; ``n_relevant[r]`` counts them, and row r of
    ``hits`` marks which places of the user's top n (n = ``hits.shape[1]``)
    hold one.  The top n are the first n of a stable sort of the negated
    scores of the items in no part of ``seen``, NaN last, so equal scores
    rank by ascending item index.

    A step writes each user's scores into a row of one buffer and sets the
    seen items to NaN.  One row-wise ``np.partition`` of the negated scores
    finds each row's n-th best score, the floor, and each row lists, in
    index order, its items at or above the floor; a row with fewer than n
    scores that are not NaN (its floor is NaN) lists every item in no part
    of ``seen``.  A stable sort of each row's list puts it in rank order,
    ties at the floor in index order, and is cut to its first n.
    """
    n_items = model.n_items
    n_take = min(hits.shape[1], n_items)
    scores_buf = np.empty((batch, n_items))
    neg_buf = np.empty((batch, n_items))
    sel_buf = np.empty((batch, n_items), dtype=bool)
    mark_buf = np.zeros((batch, n_items), dtype=bool)  # the seen items, then the target ones
    places = np.arange(n_take)
    for b0 in range(0, len(users), batch):
        step = users[b0 : b0 + batch]
        m = len(step)
        scores, neg, sel, mark = scores_buf[:m], neg_buf[:m], sel_buf[:m], mark_buf[:m]
        # one matrix-vector product per user, in one call, bit for bit beta @ theta[u]
        np.matmul(model.beta, model.theta[step, :, None], out=scores[:, :, None])
        excluded = [_pairs_of(part, step) for part in seen]
        for er, ec in excluded:
            scores[er, ec] = np.nan
            mark[er, ec] = True
        tr, tc = _pairs_of(target, step)
        relevant = ~mark[tr, tc]
        tr, tc = tr[relevant], tc[relevant]
        n_relevant[b0 : b0 + m] = np.bincount(tr, minlength=m)
        np.negative(scores, out=neg).partition(n_take - 1, axis=1)
        floor = -neg[:, n_take - 1 : n_take]
        np.greater_equal(scores, floor, out=sel)  # False at NaN, and everywhere for a NaN floor
        no_floor = np.isnan(floor[:, 0])
        sel[no_floor] = ~mark[no_floor]
        rows, cols, counts = _listed(sel)
        for er, ec in excluded:
            mark[er, ec] = False
        width = max(n_take, counts.max())
        place = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
        key = np.full((m, width), np.nan)  # a short row's padding sorts after its NaN items
        key[rows, place] = -scores[rows, cols]
        top = np.zeros((m, width), dtype=np.int64)
        top[rows, place] = cols
        top = np.take_along_axis(top, np.argsort(key, axis=1, kind="stable")[:, :n_take], axis=1)
        mark[tr, tc] = True
        hits[b0 : b0 + m, :n_take] = mark[np.arange(m)[:, None], top] & (places < counts[:, None])
        mark[tr, tc] = False


def _per_user_metrics(
    model: FactorModel, split: DatasetSplit, cutoffs, target: str, n_threads: int = 1
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Metric arrays (one entry per evaluated user) plus the user indices.

    Scores are ``model.beta @ model.theta[u]``, one user at a time: a
    batched ``theta @ beta.T`` rounds differently in the last bits, which
    reorders near-ties.  The users with a target item are ranked in
    ``n_threads`` contiguous blocks on the pool, as many users a step as
    fit ``RANK_STEP_ENTRIES``; neither number changes any user's list
    (:func:`_rank_block`).  Those with a relevant item are evaluated.
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
    users = np.flatnonzero(target_matrix.user_counts())
    hits = np.zeros((len(users), cutoffs[-1]), dtype=bool)
    n_relevant = np.zeros(len(users), dtype=np.int64)
    batch = max(1, RANK_STEP_ENTRIES // split.n_items)
    bounds = [len(users) * t // n_threads for t in range(n_threads + 1)]
    calls = [
        (model, users[lo:hi], target_matrix, seen, hits[lo:hi], n_relevant[lo:hi], batch)
        for lo, hi in zip(bounds, bounds[1:])
        if hi > lo
    ]
    _in_pool(_rank_block, calls, n_threads)
    evaluated = n_relevant > 0
    if not evaluated.any():
        raise ValueError("no users with relevant items in the target split")
    return _metric_table(hits[evaluated], n_relevant[evaluated], cutoffs), users[evaluated]


def evaluate(
    model: FactorModel,
    exposure_kind: str | None,
    split: DatasetSplit,
    cutoffs=DEFAULT_CUTOFFS,
    target: str = "test",
    groups: dict[str, np.ndarray] | None = None,
    n_threads: int = 1,
) -> EvalReport:
    """Rank by preference scores and average the metrics over users.

    Target "test" excludes each user's train and validation items from the
    candidate list; "validation" excludes train items.  Users with no
    relevant items in the target split are skipped.  Exposure never enters
    the ranking; ``exposure_kind`` is recorded for reporting only.  When
    ``groups`` maps labels to user-index arrays, per-group means are
    reported alongside the overall ones.  Users are ranked on ``n_threads``
    threads; the report does not depend on how many.
    """
    per_user, users = _per_user_metrics(model, split, cutoffs, target, n_threads)
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


def group_by_friends(graph: SocialGraph) -> dict[str, np.ndarray]:
    """Users by out-degree in the buckets of ``FRIEND_BUCKETS``: 0, 1-5,
    6-15 and 15+ friends, where "15+" means degree 16 or more.  Every
    bucket is listed, empty or not."""
    which = np.digitize(graph.out_degree(), FRIEND_BUCKET_EDGES)
    return {label: np.flatnonzero(which == b) for b, label in enumerate(FRIEND_BUCKETS)}

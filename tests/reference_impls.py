"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: explicit loops, scipy densities,
augmented least-squares instead of normal equations.  Nothing imports the
package's numerics beyond plain data containers, the metric table of the
ranking oracles and the batched SGD step of the greedy-run epoch (an
oracle for the order of the steps, not for the step), so agreement is
evidence rather than tautology.  ``items_of`` and ``friends_of`` read one
row of the CSR arrays; ``e_step_pair`` is the closed-form posterior that
``brute_force_posterior`` checks by enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse, stats

from serec.exposure.social_regular import _sgd_run
from serec.metrics import _metric_table


def items_of(matrix, u):
    """The items user ``u`` clicked, ascending: row u of the CSR arrays."""
    return matrix.item_idx[matrix.csr_indptr[u] : matrix.csr_indptr[u + 1]]


def friends_of(graph, u):
    """The users ``u`` trusts, ascending: row u of the CSR arrays."""
    return graph.dst[graph.indptr[u] : graph.indptr[u + 1]]


def _gaussian_pdf0(scores: np.ndarray, lambda_y: float) -> np.ndarray:
    """Density of N(mean=scores, var=1/lambda_y) evaluated at 0."""
    return math.sqrt(lambda_y / (2.0 * math.pi)) * np.exp(-0.5 * lambda_y * scores**2)


def e_step_pair(mu, score, lambda_y: float):
    """Posterior exposure probability for an unclicked pair.

    Bayes rule over alpha in {0, 1}: the prior mu against the evidence
    that a zero response is certain without exposure but Gaussian around
    ``score`` with it.  Exact at mu = 0 and mu = 1.  Accepts scalars or
    arrays (broadcast together).
    """
    mu = np.asarray(mu, dtype=np.float64)
    num = mu * _gaussian_pdf0(np.asarray(score, dtype=np.float64), lambda_y)
    out = num / (num + (1.0 - mu))
    if out.ndim == 0:
        return float(out)
    return out


def brute_force_posterior(mu: float, score: float, lambda_y: float) -> float:
    """P(exposed | no click) by explicit two-case enumeration.

    Case alpha=0: prior 1-mu, a zero response is certain.  Case alpha=1:
    prior mu, the response is Gaussian around the score, by the scipy
    density.
    """
    prior = np.array([1.0 - mu, mu])
    likelihood = np.array(
        [1.0, stats.norm.pdf(0.0, loc=score, scale=1.0 / math.sqrt(lambda_y))]
    )
    joint = prior * likelihood
    return float(joint[1] / joint.sum())


def finite_difference(loss, point: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function at ``point``."""
    point = np.asarray(point, dtype=np.float64)
    grad = np.empty_like(point)
    for idx in range(point.size):
        bump = np.zeros_like(point)
        bump.flat[idx] = h
        hi = loss(point + bump)
        lo = loss(point - bump)
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise ValueError(f"non-finite loss near coordinate {idx}")
        grad.flat[idx] = (hi - lo) / (2.0 * h)
    return grad


def ridge_row_oracle(factors, p_row, y_row, lambda_y, lambda_reg):
    """Solve min lambda_y * sum_i p_i (y_i - x.f_i)^2 + lambda_reg ||x||^2
    by augmented least squares (no normal equations)."""
    k = factors.shape[1]
    w = np.sqrt(lambda_y * np.asarray(p_row, dtype=float))
    design = np.vstack([w[:, None] * factors, math.sqrt(lambda_reg) * np.eye(k)])
    target = np.concatenate([w * np.asarray(y_row, dtype=float), np.zeros(k)])
    sol, *_ = np.linalg.lstsq(design, target, rcond=None)
    return sol


def wals_reference(y_dense, weights, lambda_y, lambda_theta, lambda_beta, theta0, beta0, n_iters):
    """Weighted alternating least squares with fixed per-pair weights.

    Mirrors the engine's sweep order (users first, then items against the
    updated user factors) but solves every row with the augmented
    least-squares oracle.
    """
    y_dense = np.asarray(y_dense, dtype=float)
    weights = np.asarray(weights, dtype=float)
    theta = np.array(theta0, dtype=float)
    beta = np.array(beta0, dtype=float)
    n_users, n_items = y_dense.shape
    for _ in range(n_iters):
        for u in range(n_users):
            theta[u] = ridge_row_oracle(beta, weights[u], y_dense[u], lambda_y, lambda_theta)
        for i in range(n_items):
            beta[i] = ridge_row_oracle(theta, weights[:, i], y_dense[:, i], lambda_y, lambda_beta)
    return theta, beta


def ll_oracle(y_dense, theta, beta, mu, lambda_theta, lambda_beta, lambda_y):
    """Plain summation of the marginal log likelihood, scipy densities."""
    y_dense = np.asarray(y_dense)
    scale = 1.0 / math.sqrt(lambda_y)
    total = -0.5 * lambda_theta * float(np.sum(np.asarray(theta) ** 2))
    total += -0.5 * lambda_beta * float(np.sum(np.asarray(beta) ** 2))
    for u in range(y_dense.shape[0]):
        for i in range(y_dense.shape[1]):
            score = float(np.dot(theta[u], beta[i]))
            m = float(mu[u, i])
            if y_dense[u, i]:
                total += math.log(m * stats.norm.pdf(1.0, loc=score, scale=scale))
            else:
                total += math.log(m * stats.norm.pdf(0.0, loc=score, scale=scale) + 1.0 - m)
    return total


def brute_rank(scores, excluded, n):
    """Ranking by descending score, ties by ascending index, via sorted()."""
    order = sorted(
        (i for i in range(len(scores)) if i not in excluded),
        key=lambda i: (-scores[i], i),
    )
    return order[:n]


def brute_recall(ranking, relevant, k):
    hits = len([i for i in ranking[:k] if i in relevant])
    return hits / min(k, len(relevant))


def brute_map(ranking, relevant, k):
    hits = 0
    acc = 0.0
    for rank, item in enumerate(ranking[:k], start=1):
        if item in relevant:
            hits += 1
            acc += hits / rank
    return acc / min(k, len(relevant))


def brute_ndcg(ranking, relevant, k):
    dcg = sum(
        1.0 / math.log2(rank + 1)
        for rank, item in enumerate(ranking[:k], start=1)
        if item in relevant
    )
    ideal = sum(1.0 / math.log2(rank + 1) for rank in range(1, min(k, len(relevant)) + 1))
    return dcg / ideal


def brute_evaluate(theta, beta, train_sets, val_sets, test_sets, cutoffs, target="test"):
    """Per-user loops over python sets; mean metric values and user count."""
    n_users = len(train_sets)
    n_items = beta.shape[0]
    sums = {}
    count = 0
    for u in range(n_users):
        excluded = set(train_sets[u])
        if target == "test":
            excluded |= set(val_sets[u])
            relevant = set(test_sets[u]) - excluded
        else:
            relevant = set(val_sets[u]) - excluded
        if not relevant:
            continue
        count += 1
        scores = [float(np.dot(theta[u], beta[i])) for i in range(n_items)]
        ranking = brute_rank(scores, excluded, max(cutoffs))
        for k in cutoffs:
            sums.setdefault(f"recall@{k}", 0.0)
            sums[f"recall@{k}"] += brute_recall(ranking, relevant, k)
            sums.setdefault(f"map@{k}", 0.0)
            sums[f"map@{k}"] += brute_map(ranking, relevant, k)
            sums.setdefault(f"ndcg@{k}", 0.0)
            sums[f"ndcg@{k}"] += brute_ndcg(ranking, relevant, k)
    if count == 0:
        raise ValueError("no evaluable users")
    return {name: value / count for name, value in sums.items()}, count


def beta_mode_oracle(successes, failures, alpha1, alpha2):
    """Mode of Beta(alpha1 + successes, alpha2 + failures)."""
    a = alpha1 + successes
    b = alpha2 + failures
    return (a - 1.0) / (a + b - 2.0)


def fixed_exposure_p(y_ui, mu_unobserved: float):
    """Fixed-weight assignment: clicked pairs weigh 1, the rest mu_unobserved."""
    out = np.where(np.asarray(y_ui) != 0, 1.0, mu_unobserved)
    if out.ndim == 0:
        return float(out)
    return out


# The serec-regular exposure refit, one triplet and one draw at a time:
# oracles for the vectorized sampler and the batched SGD runs.

REF_MU_EPS = 1e-6


def regular_mu(state, u: int, i: int) -> float:
    """Prior for one pair: clamp(X_u . T_i + gamma_i)."""
    raw = float(state.x[u] @ state.t[i]) + float(state.gamma[i])
    return float(np.clip(raw, REF_MU_EPS, 1.0 - REF_MU_EPS))


def is_observed(y, u: int, i: int) -> bool:
    """Whether user u clicked item i, by scanning the click list."""
    return bool(np.any((y.user_idx == u) & (y.item_idx == i)))


def sample_negatives_reference(y, n, rng):
    """n unobserved (u, i) pairs, rejected against a Python set of clicks."""
    observed = set((y.user_idx * y.n_items + y.item_idx).tolist())
    out = np.empty((n, 2), dtype=np.int64)
    filled = 0
    while filled < n:
        m = max(2 * (n - filled), 16)
        cand_u = rng.integers(0, y.n_users, size=m)
        cand_i = rng.integers(0, y.n_items, size=m)
        for u, i in zip(cand_u, cand_i):
            if int(u) * y.n_items + int(i) in observed:
                continue
            out[filled] = (u, i)
            filled += 1
            if filled == n:
                break
    return out


def draw_trust_partner_reference(graph, u, rng):
    """A trustee for u: a friend with s=1, or a random non-friend with s=0,
    redrawn while it is u itself."""
    friends = friends_of(graph, u)
    if friends.size:
        return int(friends[rng.integers(friends.size)]), 1
    k = int(rng.integers(graph.n_users))
    while k == u and graph.n_users > 1:
        k = int(rng.integers(graph.n_users))
    return k, 0


def epoch_sample_reference(y, graph, posterior, seed, epoch):
    """One epoch's permuted triplets: clicks with target n_i / U, as many
    negatives with target p_ui, each with a trust partner."""
    rng = np.random.default_rng([seed, epoch])
    per_item = np.clip(y.item_counts() / y.n_users, REF_MU_EPS, 1.0 - REF_MU_EPS)
    pos = np.column_stack([y.user_idx, y.item_idx])
    neg = sample_negatives_reference(y, len(pos), rng)
    pairs = np.vstack([pos, neg])
    t_vals = np.empty(len(pairs))
    t_vals[: len(pos)] = per_item[pos[:, 1]]
    t_vals[len(pos) :] = np.clip(
        np.asarray([posterior[u, i] for u, i in neg]), REF_MU_EPS, 1.0 - REF_MU_EPS
    )
    partners = np.empty(len(pairs), dtype=np.int64)
    s_flags = np.empty(len(pairs), dtype=np.int64)
    for idx, (u, _) in enumerate(pairs):
        partners[idx], s_flags[idx] = draw_trust_partner_reference(graph, int(u), rng)
    order = rng.permutation(len(pairs))
    return pairs[order], t_vals[order], partners[order], s_flags[order]


def sampled_triplet_loss(state, triplet, target: float, s_uk: int) -> float:
    """Half of (squared errors plus decay terms) for one (i, u, k) triplet,
    the loss whose exact gradient the refit's SGD step takes."""
    i, u, k = triplet
    h = state.hyper
    xu, ti, bk = state.x[u], state.t[i], state.b[k]
    err = float(xu @ ti) + state.gamma[i] - target
    serr = float(xu @ bk) - s_uk
    return 0.5 * (
        err**2
        + h["lambda_sr"] * serr**2
        + h["lambda_x"] * float(xu @ xu)
        + h["lambda_t"] * float(ti @ ti)
        + h["lambda_b"] * float(bk @ bk)
        + h["lambda_gamma"] * state.gamma[i] ** 2
    )


def sgd_epoch_reference(state, pairs, t_vals, partners, s_flags, lr):
    """Plain sequential SGD, one simultaneous four-gradient step per triplet."""
    h = state.hyper
    for (u, i), target, k, s_uk in zip(pairs, t_vals, partners, s_flags):
        xu, ti, bk = state.x[u].copy(), state.t[i].copy(), state.b[k].copy()
        err = float(xu @ ti) + state.gamma[i] - target
        serr = float(xu @ bk) - s_uk
        state.t[i] -= lr * (err * xu + h["lambda_t"] * ti)
        state.x[u] -= lr * (err * ti + h["lambda_sr"] * serr * bk + h["lambda_x"] * xu)
        state.b[k] -= lr * (h["lambda_sr"] * serr * xu + h["lambda_b"] * bk)
        state.gamma[i] -= lr * (err + h["lambda_gamma"] * state.gamma[i])


def conflict_free_runs(*columns) -> list[int]:
    """Boundaries of the greedy maximal runs in which no column repeats a value.

    Returns offsets ``[0, b_1, ..., n]``: run r is ``[b_r, b_{r+1})``, and
    each run ends just before the first row that repeats a value of its
    own run in some column.
    """
    n = len(columns[0])
    prev = np.full(n, -1, dtype=np.int64)  # latest earlier row sharing a value
    for col in columns:
        order = np.argsort(col, kind="stable")
        later, earlier = order[1:], order[:-1]
        same = col[later] == col[earlier]
        later, earlier = later[same], earlier[same]
        prev[later] = np.maximum(prev[later], earlier)
    bounds = [0]
    for row, p in enumerate(prev.tolist()):
        if p >= bounds[-1]:
            bounds.append(row)
    bounds.append(n)
    return bounds


def sgd_epoch_runs_reference(state, pairs, t_vals, partners, s_flags, lr):
    """Sequential SGD over one epoch, one batched step per greedy maximal
    run of consecutive conflict-free triplets, in epoch order: the epoch
    the conflict-graph layers replaced, which they must equal byte for
    byte.  Raises ValueError at the first non-finite gradient."""
    u, i = pairs[:, 0], pairs[:, 1]
    bounds = conflict_free_runs(i, u, partners)
    for a, b in zip(bounds[:-1], bounds[1:]):
        j = _sgd_run(state, i[a:b], u[a:b], partners[a:b], t_vals[a:b], s_flags[a:b], lr)
        if j >= 0:
            raise ValueError(f"non-finite gradient at triplet {a + j} of the epoch")


def fit_exposure_reference(state, y, posterior, graph, seed):
    """Every configured epoch of the refit, sequentially, in place."""
    h = state.hyper
    for epoch in range(h["n_sgd_epochs"]):
        sample = epoch_sample_reference(y, graph, posterior, seed, epoch)
        sgd_epoch_reference(state, *sample, h["learning_rate"])
    return state


# The serec-boost prior, dense and per pair: oracles for BoostExposure's
# row-block refresh.


def phi_social(graph, p, u, i, s_coeff):
    """Social exposure mass friends contribute to pair (u, i): sum_f s * p_fi."""
    friends = friends_of(graph, u)
    if friends.size == 0:
        return 0.0
    return float(s_coeff * np.sum(np.asarray(p)[friends, i]))


def boost_update_mu(p, graph, s_coeff=5.0, alpha1=1.0, alpha2=1.0):
    """Dense (U, V) boosted prior in one expression: the Beta mode with the
    friends' posterior mass, less their own unit already in the column
    total, as extra pseudo-counts of exposure."""
    arr = np.asarray(p, dtype=float)
    n_users = arr.shape[0]
    col = arr.sum(axis=0)
    edges = (np.ones(graph.n_edges), (graph.src, graph.dst))
    adjacency = sparse.coo_matrix(edges, shape=(n_users, n_users)).tocsr()
    boost = (s_coeff - 1.0) * (adjacency @ arr)
    num = alpha1 + col - 1.0 + boost
    den = alpha1 + alpha2 + n_users - 2.0 + boost
    if np.any(den <= 0):
        raise ValueError("boost update denominator must be positive")
    return np.clip(num / den, REF_MU_EPS, 1.0 - REF_MU_EPS)


# Edge-list readers, one line at a time: oracles for the vectorized scan,
# on every file it reads.  A fault raises ValueError with the message the
# package's DataFormatError carries.


def _lines_reference(path):
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            if fields and not fields[0].startswith("#"):
                yield lineno, fields


def load_interactions_reference(path, min_rating=None):
    """(users, items, pairs): first-seen id lists and one index pair per
    kept line, duplicates included."""
    users, items, pairs = {}, {}, []
    for lineno, fields in _lines_reference(path):
        if len(fields) not in (2, 3):
            raise ValueError(
                f"{path}:{lineno}: expected 'user item [rating]', got {len(fields)} fields"
            )
        if len(fields) == 3:
            try:
                rating = float(fields[2])
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: rating {fields[2]!r} is not a number"
                ) from None
            if min_rating is not None and rating < min_rating:
                continue
        u = users.setdefault(fields[0], len(users))
        i = items.setdefault(fields[1], len(items))
        pairs.append((u, i))
    if not pairs:
        raise ValueError(f"{path}: no interaction records")
    return list(users), list(items), pairs


def load_social_reference(path, users):
    """(edges, counts): the kept (src, dst) edges in first-seen order and the
    dropped-record counts, against the user id list ``users``."""
    index = {u: k for k, u in enumerate(users)}
    edges, counts = [], {"n_self_loops": 0, "n_unknown_users": 0, "n_duplicates": 0}
    for lineno, fields in _lines_reference(path):
        if len(fields) != 2:
            raise ValueError(
                f"{path}:{lineno}: expected 'truster trustee', got {len(fields)} fields"
            )
        if fields[0] not in index or fields[1] not in index:
            counts["n_unknown_users"] += 1
        elif fields[0] == fields[1]:
            counts["n_self_loops"] += 1
        elif (index[fields[0]], index[fields[1]]) in edges:
            counts["n_duplicates"] += 1
        else:
            edges.append((index[fields[0]], index[fields[1]]))
    return edges, counts


# Top-N ranking one user at a time, moved here from serec.metrics: the
# oracle for its block ranker.  Only the ranking is independent: the metric
# values come from serec.metrics._metric_table, so equal hit tables give
# equal values bit for bit.


@dataclass
class RankedList:
    """Top-n items for one user, best first, after exclusions."""

    user: int
    items: np.ndarray


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


def per_user_metrics_reference(model, split, cutoffs, target):
    """``metrics._per_user_metrics`` one user at a time: the oracle for the
    block ranker.  Each user's scores are ``model.beta @ model.theta[u]``
    and :func:`_top_n` picks its list; the metric table is the package's."""
    cutoffs = np.unique([int(c) for c in cutoffs]).tolist()  # sorted, each once
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
            keep[items_of(part, u)] = False
        relevant = items_of(target_matrix, u)
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

"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: explicit loops, scipy densities,
augmented least-squares instead of normal equations.  Nothing imports the
package's numerics beyond plain data containers, so agreement is evidence
rather than tautology.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats


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


# The serec-regular exposure refit, one triplet and one draw at a time:
# oracles for the vectorized sampler and the batched SGD runs.

REF_MU_EPS = 1e-6


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
    friends = graph.friends_of(u)
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
    friends = graph.friends_of(u)
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
    boost = (s_coeff - 1.0) * (graph.adjacency() @ arr)
    num = alpha1 + col - 1.0 + boost
    den = alpha1 + alpha2 + n_users - 2.0 + boost
    if np.any(den <= 0):
        raise ValueError("boost update denominator must be positive")
    return np.clip(num / den, REF_MU_EPS, 1.0 - REF_MU_EPS)

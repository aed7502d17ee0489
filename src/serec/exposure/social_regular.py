"""Social regularization: factorize the exposure prior, tying users to the
people they trust.

The prior is a low-rank bilinear form mu_ui = X_u . T_i + gamma_i.  The
trust graph enters as a second factorization task sharing X: for an edge
(u, k) the product X_u . B_k should approach 1, for a non-edge 0.  Both
tasks are fit jointly by SGD over (i, u, k) triplets.  Triplets that
share no item, truster or trustee touch disjoint rows and commute, so each
epoch is applied layer by layer, one batched step per layer of its
conflict graph; the result is sequential SGD up to dot-product rounding.

Regression targets: an observed pair pulls mu toward the item's audience
share n_i / U; a sampled unobserved pair pulls it toward the current
posterior p_ui, the exposure estimate the likelihood itself produces.
"""

from __future__ import annotations

import numpy as np

from serec.data import InteractionMatrix, SocialGraph
from serec.engine import BAYES_RANGE, ConfigError, TrainingError

DIVERGENCE_FACTOR = 10.0
OBJECTIVE_CHUNK = 8192  # triplets per gather of the sampled objective


def _run_gradients(h, xu, ti, bk, gamma, target, s_uk):
    """The four half-gradients of the sampled loss at each triplet of a batch.

    Row j of ``xu``, ``ti``, ``bk`` and ``gamma`` holds X_u, T_i, B_k and
    gamma_i of triplet j = (i, u, k).  With err = X_u.T_i + gamma_i - target
    and serr = X_u.B_k - s_uk:
        dT_i    = err * X_u + lambda_t * T_i
        dX_u    = err * T_i + lambda_sr * serr * B_k + lambda_x * X_u
        dB_k    = lambda_sr * serr * X_u + lambda_b * B_k
        dgamma  = err + lambda_gamma * gamma_i
    """
    # overflow lands on the finite-guard in the step, not on a warning
    with np.errstate(over="ignore", invalid="ignore"):
        err = np.einsum("ij,ij->i", xu, ti) + gamma - target
        pull = h["lambda_sr"] * (np.einsum("ij,ij->i", xu, bk) - s_uk)  # lambda_sr * serr
        g_t = err[:, None] * xu + h["lambda_t"] * ti
        g_x = err[:, None] * ti + pull[:, None] * bk + h["lambda_x"] * xu
        g_b = pull[:, None] * xu + h["lambda_b"] * bk
        g_gamma = err + h["lambda_gamma"] * gamma
    return g_t, g_x, g_b, g_gamma


def _sgd_run(state, i, u, k, target, s_uk, lr: float) -> int:
    """One simultaneous SGD step for every triplet of a conflict-free batch.

    No item, truster or trustee repeats within the batch, so each triplet
    reads and writes rows no other one touches, and the batched step
    equals the same steps taken one after another.  Returns -1 once the
    step is applied.  If a gradient is not finite, nothing is applied and
    the position of the first such triplet is returned.
    """
    xu, ti, bk, gamma = state.x[u], state.t[i], state.b[k], state.gamma[i]
    g_t, g_x, g_b, g_gamma = _run_gradients(state.hyper, xu, ti, bk, gamma, target, s_uk)
    finite = (
        np.isfinite(g_t).all(axis=1)
        & np.isfinite(g_x).all(axis=1)
        & np.isfinite(g_b).all(axis=1)
        & np.isfinite(g_gamma)
    )
    if not finite.all():
        return int(np.argmin(finite))
    # the gathered rows are still the current ones: step them, write them back
    ti -= lr * g_t
    xu -= lr * g_x
    bk -= lr * g_b
    gamma -= lr * g_gamma
    state.t[i] = ti
    state.x[u] = xu
    state.b[k] = bk
    state.gamma[i] = gamma
    return -1


def sgd_triplet_step(state, triplet, target: float, s_uk: int, lr: float):
    """One simultaneous SGD step: all four gradients evaluated at the
    current point, then applied together."""
    i, u, k = triplet
    _sgd_epoch(state, np.array([[u, i]]), np.array([target]), np.array([k]), np.array([s_uk]), lr)
    return state


def _conflict_layers(*columns) -> tuple[np.ndarray, np.ndarray]:
    """The rows grouped into the as-soon-as-possible layers of their
    conflict graph.

    Row j conflicts with every earlier row that shares its value in some
    column.  Its layer is 1 + the largest layer among those rows, or 0 if
    there are none.  Returns ``(order, bounds)``: layer L is
    ``order[bounds[L]:bounds[L + 1]]``, in ascending row order.

    Rows that share a value lie in increasing layers, so only the latest
    earlier row per column counts as a predecessor.  The layers are found
    one round each, as in Kahn's topological sort: a layer releases its
    rows' successors, and a row joins the next layer once none of its
    predecessors is left unplaced.
    """
    n = len(columns[0])
    successor = np.full((n, len(columns)), n)  # next later row with the value; n if none
    waiting = np.zeros(n + 1, dtype=np.int64)  # unplaced predecessors per row
    waiting[n] = successor.size + 1  # slot n takes every "none" and never reaches 0
    for c, col in enumerate(columns):
        # indices below 2**16 sort by radix in a narrow dtype, several times faster
        col = col.astype(np.min_scalar_type(col.max(initial=0)))
        order = np.argsort(col, kind="stable")
        later, earlier = order[1:], order[:-1]
        same = col[later] == col[earlier]
        successor[earlier[same], c] = later[same]
        waiting[later[same]] += 1
    layers = [np.flatnonzero(waiting[:n] == 0)]
    while True:
        released = successor[layers[-1]].ravel()
        np.subtract.at(waiting, released, 1)
        # a row appears once per column through which the last layer released it
        ready = np.sort(released[waiting[released] == 0])
        if not ready.size:
            break
        first = np.empty(ready.size, dtype=bool)
        first[0] = True
        np.not_equal(ready[1:], ready[:-1], out=first[1:])
        layers.append(ready[first])
    bounds = np.zeros(len(layers) + 1, dtype=np.int64)
    np.cumsum([len(rows) for rows in layers], out=bounds[1:])
    return np.concatenate(layers), bounds


def _sgd_epoch(state, pairs, t_vals, partners, s_flags, lr: float) -> None:
    """Sequential SGD over one epoch's triplets, one batched step per layer
    of their conflict graph.

    Triplets that share no item, truster or trustee commute exactly, and
    the layers keep every conflicting pair in epoch order, so the result
    is the sequential pass's.  A non-finite gradient names the first bad
    triplet in epoch order: once one is found, only the triplets before it
    still run, each layer cut to its prefix of them, and a bad one among
    them takes its place.
    """
    u, i = pairs[:, 0], pairs[:, 1]
    order, bounds = _conflict_layers(i, u, partners)
    columns = (i[order], u[order], partners[order], t_vals[order], s_flags[order])
    n = len(order)
    bad = n  # epoch position of the first triplet with a non-finite gradient
    for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        if bad < n:
            b = a + int(np.searchsorted(order[a:b], bad))
        while a < b:
            j = _sgd_run(state, *(col[a:b] for col in columns), lr)
            if j < 0:
                break
            bad, b = int(order[a + j]), a + j
    if bad < n:
        raise TrainingError(
            f"non-finite gradient at triplet "
            f"(i={int(i[bad])}, u={int(u[bad])}, k={int(partners[bad])})"
        )


def _sample_negatives(y: InteractionMatrix, n: int, rng) -> np.ndarray:
    """n unobserved (u, i) pairs, rejection-sampled in draw order."""
    n_pairs = y.n_users * y.n_items
    if y.n_entries >= n_pairs:
        raise ValueError("every pair is observed; nothing to sample")
    # ascending, since pairs are stored in (user, item) order; the sentinel
    # above every key keeps searchsorted's position in bounds
    observed = np.append(y.user_idx * y.n_items + y.item_idx, n_pairs)
    out = np.empty((n, 2), dtype=np.int64)
    filled = 0
    while filled < n:
        m = max(2 * (n - filled), 16)
        cand_u = rng.integers(0, y.n_users, size=m)
        cand_i = rng.integers(0, y.n_items, size=m)
        keys = cand_u * y.n_items + cand_i
        keep = np.flatnonzero(observed[np.searchsorted(observed, keys)] != keys)[: n - filled]
        out[filled : filled + keep.size, 0] = cand_u[keep]
        out[filled : filled + keep.size, 1] = cand_i[keep]
        filled += keep.size
    return out


def _draw_trust_partners(graph: SocialGraph, users: np.ndarray, rng):
    """A trustee for each user: a uniform friend with s=1, or, for a user
    without friends, a uniform other user with s=0.  One draw per user."""
    degree = graph.out_degree()[users]
    has_friends = degree > 0
    draw = rng.integers(0, np.where(has_friends, degree, max(graph.n_users - 1, 1)))
    # skip past u itself; a lone user (n_users == 1) has no other and keeps u
    partners = np.minimum(draw + (draw >= users), graph.n_users - 1)
    partners[has_friends] = graph.dst[graph.indptr[users[has_friends]] + draw[has_friends]]
    return partners, has_friends.astype(np.int64)


def _epoch_sample(y, graph, p, seed: int, epoch: int):
    """Triplets for one epoch: all clicks plus an equal-size fresh negative
    sample, each paired with a trust partner.  Each click's target is its
    item's audience share n_i / U and each negative's its posterior p_ui,
    both clipped to [1e-6, 1 - 1e-6]."""
    rng = np.random.default_rng([seed, epoch])
    pos = np.column_stack([y.user_idx, y.item_idx])
    neg = _sample_negatives(y, len(pos), rng)
    pairs = np.vstack([pos, neg])
    t_vals = np.empty(len(pairs))
    t_vals[: len(pos)] = (y.item_counts() / y.n_users)[pos[:, 1]]
    t_vals[len(pos) :] = p[neg[:, 0], neg[:, 1]]
    np.clip(t_vals, *BAYES_RANGE, out=t_vals)
    partners, s_flags = _draw_trust_partners(graph, pairs[:, 0], rng)
    order = rng.permutation(len(pairs))
    return pairs[order], t_vals[order], partners[order], s_flags[order]


def _sampled_objective(state, pairs, t_vals, partners, s_flags) -> float:
    """The joint objective on a fixed sample: squared prediction and trust
    errors plus the global decay terms (counted once).

    The rows are gathered ``OBJECTIVE_CHUNK`` triplets at a time, so the
    gathers stay in cache and hold a few MiB whatever the sample size.
    """
    h = state.hyper
    pred = np.empty(len(pairs))
    serr = np.empty(len(pairs))
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, len(pairs), OBJECTIVE_CHUNK):
            b = a + OBJECTIVE_CHUNK
            i = pairs[a:b, 1]
            xu = state.x[pairs[a:b, 0]]
            pred[a:b] = np.einsum("ij,ij->i", xu, state.t[i]) + state.gamma[i]
            serr[a:b] = np.einsum("ij,ij->i", xu, state.b[partners[a:b]]) - s_flags[a:b]
        return float(
            np.sum((pred - t_vals) ** 2)
            + h["lambda_sr"] * np.sum(serr**2)
            + h["lambda_x"] * np.sum(state.x**2)
            + h["lambda_t"] * np.sum(state.t**2)
            + h["lambda_b"] * np.sum(state.b**2)
            + h["lambda_gamma"] * np.sum(state.gamma**2)
        )


def fit_exposure(state, y: InteractionMatrix, p, social: SocialGraph, seed: int = 0):
    """Run the configured number of SGD epochs over clicks plus negatives.

    The objective is tracked on the first epoch's sample; growth past 10x
    its starting value aborts with a hint to lower the learning rate.
    Returns the state (updated in place).  Each epoch's sample reads its
    negatives' targets from the posterior ``p`` (:func:`_epoch_sample`).
    """
    h = state.hyper
    if h["n_sgd_epochs"] == 0:
        return state
    lr = h["learning_rate"]
    ref = None
    initial = None
    for epoch in range(h["n_sgd_epochs"]):
        pairs, t_vals, partners, s_flags = _epoch_sample(y, social, p, seed, epoch)
        if ref is None:
            ref = (pairs, t_vals, partners, s_flags)
            initial = _sampled_objective(state, *ref)
        try:
            _sgd_epoch(state, pairs, t_vals, partners, s_flags, lr)
        except TrainingError as exc:
            raise TrainingError(f"{exc}; try a smaller learning_rate") from None
        current = _sampled_objective(state, *ref)
        if current > DIVERGENCE_FACTOR * initial:
            raise TrainingError(
                f"exposure SGD diverged at epoch {epoch + 1} "
                f"(objective {current:.3g} vs initial {initial:.3g}); "
                "try a smaller learning_rate"
            )
    state.last_objective = (initial, current)
    return state


class RegularExposure:
    """Low-rank social-regularized exposure prior.

    Truster/item/trustee vectors start as small seeded noise; the item
    bias gamma starts at each item's audience share so the untrained prior
    already tracks popularity.  ``refit_every`` controls how often the SGD
    refit runs across EM iterations: "once" (default, after the first
    E-step only), or a positive integer n for every n-th iteration.
    """

    kind = "serec-regular"
    state = ("x", "t", "b", "gamma")
    requires_social = True  # the trust graph is half the objective; none is a usage error

    def __init__(
        self,
        y: InteractionMatrix,
        graph: SocialGraph,
        k_sr: int = 30,
        lambda_sr: float = 5.0,
        lambda_x: float = 1.0,
        lambda_t: float = 1.0,
        lambda_b: float = 1.0,
        lambda_gamma: float = 1.0,
        learning_rate: float = 0.01,
        n_sgd_epochs: int = 10,
        refit_every: int | str = "once",
        seed: int = 0,
        init_scale: float = 0.01,
    ) -> None:
        self.hyper = {
            "k_sr": k_sr,
            "lambda_sr": lambda_sr,
            "lambda_x": lambda_x,
            "lambda_t": lambda_t,
            "lambda_b": lambda_b,
            "lambda_gamma": lambda_gamma,
            "learning_rate": learning_rate,
            "n_sgd_epochs": n_sgd_epochs,
        }
        for name in ("k_sr", "learning_rate"):
            if not self.hyper[name] > 0:
                raise ConfigError(name, "must be positive")
        for name in (
            "lambda_sr", "lambda_x", "lambda_t", "lambda_b", "lambda_gamma", "n_sgd_epochs"
        ):
            if not self.hyper[name] >= 0:
                raise ConfigError(name, "must be >= 0")
        if refit_every != "once" and (not isinstance(refit_every, int) or refit_every < 1):
            raise ConfigError("refit_every", 'must be "once" or a positive integer')
        if graph.n_users != y.n_users:
            raise ValueError("graph and interactions disagree on n_users")
        rng = np.random.default_rng(seed)
        self.x = rng.normal(0.0, init_scale, size=(y.n_users, k_sr))
        self.t = rng.normal(0.0, init_scale, size=(y.n_items, k_sr))
        self.b = rng.normal(0.0, init_scale, size=(y.n_users, k_sr))
        self.gamma = y.item_counts() / y.n_users
        self.refit_every = refit_every
        self.seed = seed
        self.graph = graph
        self.last_objective = None
        self._n_updates = 0

    def mu_block(self, j0: int, j1: int) -> np.ndarray:
        raw = self.x @ self.t[j0:j1].T + self.gamma[j0:j1]
        return np.clip(raw, *BAYES_RANGE)

    def update(self, p, y: InteractionMatrix) -> None:
        due = (
            self._n_updates == 0
            if self.refit_every == "once"
            else self._n_updates % self.refit_every == 0
        )
        if due:
            fit_exposure(self, y, p, self.graph, seed=self.seed + self._n_updates)
        self._n_updates += 1

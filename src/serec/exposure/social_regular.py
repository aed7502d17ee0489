"""Social regularization: factorize the exposure prior, tying users to the
people they trust.

The prior is a low-rank bilinear form mu_ui = X_u . T_i + gamma_i.  The
trust graph enters as a second factorization task sharing X: for an edge
(u, k) the product X_u . B_k should approach 1, for a non-edge 0.  Both
tasks are fit jointly by SGD over (i, u, k) triplets.  Consecutive
triplets that share no item, truster or trustee touch disjoint rows, so
each maximal run of them is applied as one batched step; the result is
sequential SGD up to dot-product rounding.

Regression targets: an observed pair pulls mu toward the item's audience
share n_i / U; a sampled unobserved pair pulls it toward the current
posterior p_ui, the exposure estimate the likelihood itself produces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from serec.data import InteractionMatrix, SocialGraph
from serec.engine import MU_EPS, ConfigError, TrainingError

DIVERGENCE_FACTOR = 10.0


@dataclass
class ExposureTargets:
    """Regression targets for the prior fit, clamped to [1e-6, 1 - 1e-6]."""

    observed_per_item: np.ndarray  # n_i / U per item
    posterior: object = field(repr=False)  # (U, V) array-like for Y- lookups


def build_targets(y: InteractionMatrix, p) -> ExposureTargets:
    """Targets per the module contract: n_i / U on clicks, p_ui elsewhere."""
    per_item = np.clip(y.item_counts() / y.n_users, MU_EPS, 1.0 - MU_EPS)
    return ExposureTargets(observed_per_item=per_item, posterior=p)


def _run_gradients(state, i, u, k, target, s_uk):
    """The four half-gradients of the sampled loss at each triplet of a run.

    For triplet j with err = X_u.T_i + gamma_i - target and
    serr = X_u.B_k - s_uk:
        dT_i    = err * X_u + lambda_t * T_i
        dX_u    = err * T_i + lambda_sr * serr * B_k + lambda_x * X_u
        dB_k    = lambda_sr * serr * X_u + lambda_b * B_k
        dgamma  = err + lambda_gamma * gamma_i
    Row j of each result belongs to triplet (i[j], u[j], k[j]); all rows
    are evaluated at the current point.
    """
    h = state.hyper
    xu, ti, bk = state.x[u], state.t[i], state.b[k]
    gamma = state.gamma[i]
    # overflow lands on the finite-guard in the step, not on a warning
    with np.errstate(over="ignore", invalid="ignore"):
        err = np.einsum("ij,ij->i", xu, ti) + gamma - target
        pull = h["lambda_sr"] * (np.einsum("ij,ij->i", xu, bk) - s_uk)  # lambda_sr * serr
        g_t = err[:, None] * xu + h["lambda_t"] * ti
        g_x = err[:, None] * ti + pull[:, None] * bk + h["lambda_x"] * xu
        g_b = pull[:, None] * xu + h["lambda_b"] * bk
        g_gamma = err + h["lambda_gamma"] * gamma
    return g_t, g_x, g_b, g_gamma


def _sgd_run(state, i, u, k, target, s_uk, lr: float) -> None:
    """One simultaneous SGD step for every triplet of a conflict-free run.

    No item, truster or trustee repeats within the run, so each triplet
    reads and writes rows no other one touches, and the batched step
    equals the same steps taken one after another.
    """
    g_t, g_x, g_b, g_gamma = _run_gradients(state, i, u, k, target, s_uk)
    finite = (
        np.isfinite(g_t).all(axis=1)
        & np.isfinite(g_x).all(axis=1)
        & np.isfinite(g_b).all(axis=1)
        & np.isfinite(g_gamma)
    )
    if not finite.all():
        j = int(np.argmin(finite))
        raise TrainingError(
            f"non-finite gradient at triplet (i={int(i[j])}, u={int(u[j])}, k={int(k[j])})"
        )
    state.t[i] -= lr * g_t
    state.x[u] -= lr * g_x
    state.b[k] -= lr * g_b
    state.gamma[i] -= lr * g_gamma


def _one(triplet, target, s_uk):
    """A single triplet as a run of length one."""
    i, u, k = triplet
    return np.array([i]), np.array([u]), np.array([k]), np.array([target]), np.array([s_uk])


def triplet_gradients(state, triplet, target: float, s_uk: int):
    """The four half-gradients of the sampled loss at one (i, u, k) triplet
    (formulas in :func:`_run_gradients`)."""
    g_t, g_x, g_b, g_gamma = _run_gradients(state, *_one(triplet, target, s_uk))
    return g_t[0], g_x[0], g_b[0], g_gamma[0]


def sampled_triplet_loss(state, triplet, target: float, s_uk: int) -> float:
    """Half of (squared errors plus decay terms) for one triplet; its exact
    gradient is what :func:`triplet_gradients` returns."""
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


def sgd_triplet_step(state, triplet, target: float, s_uk: int, lr: float):
    """One simultaneous SGD step: all four gradients evaluated at the
    current point, then applied together."""
    _sgd_run(state, *_one(triplet, target, s_uk), lr)
    return state


def _conflict_free_runs(*columns) -> list[int]:
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


def _sgd_epoch(state, pairs, t_vals, partners, s_flags, lr: float) -> None:
    """Sequential SGD over one epoch's triplets, one batched step per
    conflict-free run."""
    u, i = pairs[:, 0], pairs[:, 1]
    bounds = _conflict_free_runs(i, u, partners)
    for a, b in zip(bounds[:-1], bounds[1:]):
        _sgd_run(state, i[a:b], u[a:b], partners[a:b], t_vals[a:b], s_flags[a:b], lr)


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


def _epoch_sample(y, graph, targets: ExposureTargets, seed: int, epoch: int):
    """Triplets for one epoch: all clicks plus an equal-size fresh negative
    sample, each paired with a trust partner."""
    rng = np.random.default_rng([seed, epoch])
    pos = np.column_stack([y.user_idx, y.item_idx])
    neg = _sample_negatives(y, len(pos), rng)
    pairs = np.vstack([pos, neg])
    t_vals = np.empty(len(pairs))
    t_vals[: len(pos)] = targets.observed_per_item[pos[:, 1]]
    t_vals[len(pos) :] = np.clip(targets.posterior[neg[:, 0], neg[:, 1]], MU_EPS, 1.0 - MU_EPS)
    partners, s_flags = _draw_trust_partners(graph, pairs[:, 0], rng)
    order = rng.permutation(len(pairs))
    return pairs[order], t_vals[order], partners[order], s_flags[order]


def _sampled_objective(state, pairs, t_vals, partners, s_flags) -> float:
    """The joint objective on a fixed sample: squared prediction and trust
    errors plus the global decay terms (counted once)."""
    h = state.hyper
    u_idx = pairs[:, 0]
    i_idx = pairs[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        pred = np.einsum("ij,ij->i", state.x[u_idx], state.t[i_idx]) + state.gamma[i_idx]
        serr = np.einsum("ij,ij->i", state.x[u_idx], state.b[partners]) - s_flags
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
    Returns the state (updated in place).
    """
    h = state.hyper
    if h["n_sgd_epochs"] == 0:
        return state
    targets = build_targets(y, p)
    lr = h["learning_rate"]
    ref = None
    initial = None
    for epoch in range(h["n_sgd_epochs"]):
        pairs, t_vals, partners, s_flags = _epoch_sample(y, social, targets, seed, epoch)
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
            if self.hyper[name] <= 0:
                raise ConfigError(name, "must be positive")
        for name in (
            "lambda_sr", "lambda_x", "lambda_t", "lambda_b", "lambda_gamma", "n_sgd_epochs"
        ):
            if self.hyper[name] < 0:
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
        return np.clip(raw, MU_EPS, 1.0 - MU_EPS)

    def update(self, p, y: InteractionMatrix) -> None:
        due = (
            self._n_updates == 0
            if self.refit_every == "once"
            else self._n_updates % self.refit_every == 0
        )
        if due:
            fit_exposure(self, y, p, self.graph, seed=self.seed + self._n_updates)
        self._n_updates += 1

    def save(self, out_dir) -> None:
        out_dir = Path(out_dir)
        np.savetxt(out_dir / "X.tsv", self.x, fmt="%.17g", delimiter="\t")
        np.savetxt(out_dir / "T.tsv", self.t, fmt="%.17g", delimiter="\t")
        np.savetxt(out_dir / "B.tsv", self.b, fmt="%.17g", delimiter="\t")
        np.savetxt(out_dir / "gamma.tsv", self.gamma, fmt="%.17g", delimiter="\t")
        with open(out_dir / "exposure.json", "w", encoding="utf-8") as fh:
            json.dump({**self.hyper, "refit_every": self.refit_every, "seed": self.seed}, fh, indent=2)

    @classmethod
    def load(cls, model_dir, y: InteractionMatrix, graph: SocialGraph) -> "RegularExposure":
        model_dir = Path(model_dir)
        with open(model_dir / "exposure.json", encoding="utf-8") as fh:
            params = json.load(fh)
        refit = params.pop("refit_every", "once")
        seed = params.pop("seed", 0)
        provider = cls(y, graph, refit_every=refit, seed=seed, **params)
        provider.x = np.loadtxt(model_dir / "X.tsv", delimiter="\t", ndmin=2)
        provider.t = np.loadtxt(model_dir / "T.tsv", delimiter="\t", ndmin=2)
        provider.b = np.loadtxt(model_dir / "B.tsv", delimiter="\t", ndmin=2)
        provider.gamma = np.loadtxt(model_dir / "gamma.tsv", delimiter="\t", ndmin=1)
        return provider

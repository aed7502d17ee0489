"""Social boosting: friends' exposure raises the prior.

Each friend who has likely seen an item contributes extra pseudo-counts of
success to the item's Beta exposure posterior, scaled by the social
coefficient s.  The prior becomes the mode of that boosted Beta, per pair:

    mu_ui = (a1 + sum_u' p_u'i + (s - 1) * sum_{f in Friends(u)} p_fi - 1)
            / (a1 + a2 + U + (s - 1) * sum_f p_fi - 2)

With s = 1 or no friends the boost mass is exactly zero and the update
degenerates to the per-item popularity prior, bit for bit.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from serec.data import InteractionMatrix, SocialGraph
from serec.engine import DEFAULT_DENSE_BUDGET, MU_EPS, _iter_blocks, posterior_column_sums


def phi_social(graph: SocialGraph, p, u: int, i: int, s_coeff: float) -> float:
    """Social exposure mass friends contribute to pair (u, i): sum_f s * p_fi.

    The hook other social-effect models would replace; the boost update
    consumes the same friend sums with the s - 1 discount for the friend's
    own unit already counted in the column total.
    """
    friends = graph.friends_of(u)
    if friends.size == 0:
        return 0.0
    arr = p.p if hasattr(p, "p") else np.asarray(p)
    return float(s_coeff * np.sum(arr[friends, i]))


def _boost_ratio(col: np.ndarray, boost, n_users: int, alpha1: float, alpha2: float):
    """The Beta-mode ratio, written so zero boost reproduces the popularity
    arithmetic exactly (x + 0.0 is the identity)."""
    num = alpha1 + col - 1.0 + boost
    den = alpha1 + alpha2 + n_users - 2.0 + boost
    if np.any(den <= 0):
        raise ValueError("boost update denominator must be positive")
    return np.clip(num / den, MU_EPS, 1.0 - MU_EPS)


def boost_update_mu(
    p,
    graph: SocialGraph,
    s_coeff: float = 5.0,
    alpha1: float = 1.0,
    alpha2: float = 1.0,
    n_users: int | None = None,
) -> np.ndarray:
    """Dense (U, V) prior from the posterior and the trust graph."""
    arr = p.p if hasattr(p, "p") else np.asarray(p, dtype=np.float64)
    if n_users is None:
        n_users = arr.shape[0]
    col = np.asarray(arr).sum(axis=0)
    friend_mass = graph.adjacency() @ np.asarray(arr)
    boost = (s_coeff - 1.0) * friend_mass
    return _boost_ratio(col[None, :], boost, n_users, alpha1, alpha2)


class BoostExposure:
    """Per-pair exposure prior boosted by friends' posterior mass.

    Initialized as if the posterior equalled the click matrix, so before
    the first EM iteration a friend's click already raises the prior.
    Below the dense budget the full (U, V) prior is materialized on every
    update; above it, blocks are recomputed on demand from the stored
    column sums and the posterior the engine last handed over (the engine
    reads each block before overwriting it, which makes the lazy mode
    safe).
    """

    kind = "serec-boost"
    refresh_on_load = True  # load() restores the click-proxy prior, not the fitted one

    def __init__(
        self,
        y: InteractionMatrix,
        graph: SocialGraph,
        s_coeff: float = 5.0,
        alpha1: float = 1.0,
        alpha2: float = 1.0,
        dense_budget: int = DEFAULT_DENSE_BUDGET,
    ) -> None:
        if s_coeff < 1.0:
            raise ValueError("s_coeff must be >= 1")
        if alpha1 <= 0 or alpha2 <= 0:
            raise ValueError("Beta parameters must be positive")
        if alpha1 + alpha2 + y.n_users <= 2:
            raise ValueError("alpha1 + alpha2 + n_users must exceed 2")
        if graph.n_users != y.n_users:
            raise ValueError("graph and interactions disagree on n_users")
        self.s_coeff = s_coeff
        self.alpha1 = alpha1
        self.alpha2 = alpha2
        self.graph = graph
        self.n_users = y.n_users
        self.n_items = y.n_items
        self._dense = y.n_users * y.n_items <= dense_budget
        self._mu = None
        self._col = y.item_counts().astype(np.float64)
        # p proxy at init: the clicks themselves
        self._source = graph.adjacency() @ y.to_csr()
        if self._dense:
            self._materialize()

    @classmethod
    def from_config(cls, cfg, y: InteractionMatrix, graph: SocialGraph) -> "BoostExposure":
        return cls(
            y,
            graph,
            s_coeff=cfg.s_coeff,
            alpha1=cfg.alpha1,
            alpha2=cfg.alpha2,
            dense_budget=cfg.dense_budget,
        )

    def _block_from_source(self, j0: int, j1: int) -> np.ndarray:
        src = self._source
        if hasattr(src, "p"):  # posterior handed over by the engine
            friend_mass = self.graph.adjacency() @ np.asarray(src.p[:, j0:j1])
        else:  # sparse click proxy from initialization
            friend_mass = src[:, j0:j1].toarray()
        boost = (self.s_coeff - 1.0) * friend_mass
        return _boost_ratio(self._col[j0:j1][None, :], boost, self.n_users, self.alpha1, self.alpha2)

    def _materialize(self) -> None:
        mu = np.empty((self.n_users, self.n_items), dtype=np.float64)
        for j0, j1 in _iter_blocks(self.n_items, 8192):
            mu[:, j0:j1] = self._block_from_source(j0, j1)
        self._mu = mu

    def mu_block(self, j0: int, j1: int) -> np.ndarray:
        if self._mu is not None:
            return self._mu[:, j0:j1]
        return self._block_from_source(j0, j1)

    def update(self, post, y: InteractionMatrix) -> None:
        self._col = posterior_column_sums(post)
        self._source = post
        if self._dense:
            self._materialize()

    def save(self, out_dir) -> None:
        with open(Path(out_dir) / "boost.json", "w", encoding="utf-8") as fh:
            json.dump(
                {"s_coeff": self.s_coeff, "alpha1": self.alpha1, "alpha2": self.alpha2},
                fh,
                indent=2,
            )

    @classmethod
    def load(cls, model_dir, y: InteractionMatrix, graph: SocialGraph) -> "BoostExposure":
        """Rebuild from hyperparameters; the prior starts from the click
        proxy and callers refresh it with an E-step plus update()."""
        with open(Path(model_dir) / "boost.json", encoding="utf-8") as fh:
            params = json.load(fh)
        return cls(y, graph, **params)

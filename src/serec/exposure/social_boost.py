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
import scipy.sparse as sp

from serec import engine
from serec.data import InteractionMatrix, SocialGraph
from serec.engine import DEFAULT_DENSE_BUDGET, MU_EPS, _iter_blocks, posterior_column_sums


class BoostExposure:
    """Per-pair exposure prior boosted by friends' posterior mass.

    Initialized as if the posterior equalled the click matrix, so before
    the first EM iteration a friend's click already raises the prior.
    Below the dense budget the full (U, V) prior is held and refreshed in
    place on every update, in row blocks of friend mass
    ``adjacency[r0:r1] @ posterior``.  Above it, column blocks are
    recomputed on demand from the stored column sums and the posterior the
    engine last handed over (the engine reads each block before
    overwriting it, which makes the lazy mode safe).
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
        self._den0 = alpha1 + alpha2 + y.n_users - 2.0
        self._num0 = alpha1 + y.item_counts().astype(np.float64) - 1.0
        # p proxy at init: the clicks themselves
        if y.n_users * y.n_items <= dense_budget:
            self._mu = np.empty((y.n_users, y.n_items), dtype=np.float64)
            self._fill(y.to_csr())
        else:
            self._mu = None
            self._source = graph.adjacency() @ y.to_csr()

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

    def _prior(self, mass: np.ndarray, num0: np.ndarray, out: np.ndarray) -> None:
        """Write the boosted Beta mode for friend mass ``mass`` (overwritten)
        into ``out``.

        The sums keep the popularity update's association,
        ((a1 + col - 1) + boost) / ((a1 + a2 + U - 2) + boost), so zero
        boost reproduces it bit for bit (x + 0.0 is the identity).  Both
        denominators are positive: the constructor checks the first, and
        the boost is non-negative.
        """
        mass *= self.s_coeff - 1.0
        den = mass + self._den0
        mass += num0
        np.divide(mass, den, out=out)
        np.clip(out, MU_EPS, 1.0 - MU_EPS, out=out)

    def _fill(self, source) -> None:
        """Refresh the held prior in place from posterior ``source`` (the
        sparse clicks at init), one row block of friend mass at a time."""
        adj = self.graph.adjacency()
        step = max(1, engine.CHUNK_ENTRIES // self.n_items)
        for r0, r1 in _iter_blocks(self.n_users, step):
            mass = adj[r0:r1] @ source
            mass = mass.toarray() if sp.issparse(mass) else mass
            self._prior(mass, self._num0, self._mu[r0:r1])

    def mu_block(self, j0: int, j1: int) -> np.ndarray:
        if self._mu is not None:
            return self._mu[:, j0:j1]
        src = self._source
        if hasattr(src, "p"):  # posterior handed over by the engine
            mass = self.graph.adjacency() @ np.asarray(src.p[:, j0:j1])
        else:  # sparse click proxy from initialization
            mass = src[:, j0:j1].toarray()
        self._prior(mass, self._num0[j0:j1], mass)
        return mass

    def update(self, post, y: InteractionMatrix) -> None:
        self._num0 = self.alpha1 + posterior_column_sums(post) - 1.0
        if self._mu is not None:
            self._fill(post.p)
        else:
            self._source = post

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

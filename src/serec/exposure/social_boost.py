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
from serec.engine import MU_EPS, ConfigError
from serec.exposure.popularity import _check_beta_parameters


class BoostExposure:
    """Per-pair exposure prior boosted by friends' posterior mass.

    Initialized as if the posterior equalled the click matrix, so before
    the first EM iteration a friend's click already raises the prior.  No
    prior is stored: ``update`` keeps the posterior's column sums and a
    reference to the posterior, and ``mu_block`` derives each item block
    from them, with friend mass ``adjacency @ p[:, j0:j1]``.  The engine
    reads a block before its sweep overwrites that block of p, so every
    block the sweep reads is the prior of the posterior last handed over.

    Once a sweep has overwritten p (for instance after ``fit`` returns),
    ``mu_block`` would pair the new p's friend mass with the old column
    sums; call ``update(posterior, y)`` before reading the prior again.
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
    ) -> None:
        if s_coeff < 1.0:
            raise ConfigError("s_coeff", "must be >= 1")
        _check_beta_parameters(alpha1, alpha2)
        if alpha1 + alpha2 + y.n_users <= 2:
            raise ValueError("alpha1 + alpha2 + n_users must exceed 2")
        if graph.n_users != y.n_users:
            raise ValueError("graph and interactions disagree on n_users")
        self.s_coeff = s_coeff
        self.alpha1 = alpha1
        self.alpha2 = alpha2
        self.graph = graph
        self._den0 = alpha1 + alpha2 + y.n_users - 2.0
        self._num0 = alpha1 + y.item_counts().astype(np.float64) - 1.0
        # p proxy at init: the clicks themselves, so friend mass is sparse.
        # This also builds the cached adjacency that mu_block reads on the
        # sweep's pool threads.
        self._source = graph.adjacency() @ y.to_csr()

    def mu_block(self, j0: int, j1: int) -> np.ndarray:
        """The boosted Beta mode for items [j0, j1), a new array.

        The sums keep the popularity update's association,
        ((a1 + col - 1) + boost) / ((a1 + a2 + U - 2) + boost), so zero
        boost reproduces it bit for bit (x + 0.0 is the identity).  Both
        denominators are positive: the constructor checks the first, and
        the boost is non-negative.
        """
        src = self._source
        if isinstance(src, np.ndarray):  # posterior handed over by the engine
            mass = self.graph.adjacency() @ np.asarray(src[:, j0:j1])
        else:  # sparse click proxy from initialization
            mass = src[:, j0:j1].toarray()
        mass *= self.s_coeff - 1.0
        den = mass + self._den0
        mass += self._num0[j0:j1]
        np.divide(mass, den, out=mass)
        np.clip(mass, MU_EPS, 1.0 - MU_EPS, out=mass)
        return mass

    def update(self, p, y: InteractionMatrix) -> None:
        self._num0 = self.alpha1 + p.sum(axis=0) - 1.0
        self._source = p

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

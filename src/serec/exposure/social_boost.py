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

import numpy as np

from serec.data import InteractionMatrix, SocialGraph
from serec.engine import BAYES_RANGE, ConfigError
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
    The adjacency is built once, by the constructor, and only read after
    that, so the sweep's threads share it without locking.

    Once a sweep has overwritten p (for instance after ``fit`` returns),
    ``mu_block`` would pair the new p's friend mass with the old column
    sums; call ``update(posterior, y)`` before reading the prior again.
    """

    kind = "serec-boost"
    state = ()
    # no array is saved, so a provider rebuilt from a model directory holds
    # the click-proxy prior, not the fitted one, until a refresh
    refresh_on_load = True

    def __init__(
        self,
        y: InteractionMatrix,
        graph: SocialGraph,
        s_coeff: float = 5.0,
        alpha1: float = 1.0,
        alpha2: float = 1.0,
    ) -> None:
        if not s_coeff >= 1.0:
            raise ConfigError("s_coeff", "must be >= 1")
        _check_beta_parameters(alpha1, alpha2)
        if alpha1 + alpha2 + y.n_users <= 2:
            raise ValueError("alpha1 + alpha2 + n_users must exceed 2")
        if graph.n_users != y.n_users:
            raise ValueError("graph and interactions disagree on n_users")
        import scipy.sparse as sp  # here: no other kind multiplies sparse matrices

        self.s_coeff = s_coeff
        self.alpha1 = alpha1
        self.alpha2 = alpha2
        # row u holds the indicator of Friends(u)
        self._adj = sp.csr_matrix(
            (np.ones(graph.n_edges), graph.dst, graph.indptr), shape=(graph.n_users, graph.n_users)
        )
        self._den0 = alpha1 + alpha2 + y.n_users - 2.0
        self._num0 = alpha1 + y.item_counts().astype(np.float64) - 1.0
        # p proxy at init: the clicks themselves, so friend mass is sparse.
        # Column-major, since mu_block slices columns.
        clicks = sp.csr_matrix(
            (np.ones(y.n_entries), y.item_idx, y.csr_indptr), shape=(y.n_users, y.n_items)
        )
        self._source = (self._adj @ clicks).tocsc()

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
            mass = self._adj @ np.asarray(src[:, j0:j1])
        else:  # sparse click proxy from initialization; row-major like the
            # posterior's mass, so the sums downstream add in the same order
            mass = src[:, j0:j1].toarray(order="C")
        mass *= self.s_coeff - 1.0
        den = mass + self._den0
        mass += self._num0[j0:j1]
        np.divide(mass, den, out=mass)
        np.clip(mass, *BAYES_RANGE, out=mass)
        return mass

    def update(self, p, y: InteractionMatrix) -> None:
        self._num0 = self.alpha1 + p.sum(axis=0) - 1.0
        self._source = p

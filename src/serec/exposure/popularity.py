"""Exposure priors that ignore the social graph.

``PopularityExposure`` shares one prior per item, updated as the mode of a
Beta posterior over how many users saw the item.  ``FixedExposure`` is a
constant weight that the engine takes as the posterior, with weight 1 at
every click, which turns the EM engine into plain weighted matrix
factorization.
"""

from __future__ import annotations

import numpy as np

from serec.data import InteractionMatrix
from serec.engine import BAYES_RANGE, ConfigError


def popularity_update_mu(col, n_users: int, alpha1: float = 1.0, alpha2: float = 1.0) -> np.ndarray:
    """Per-item prior from the posterior's column sums ``col``:
    (a1 + sum_u p_ui - 1)/(a1 + a2 + U - 2).

    With a1 = a2 = 1 this is exactly the column mean before the boundary
    clamp to [1e-6, 1 - 1e-6].
    """
    if alpha1 + alpha2 + n_users <= 2:
        raise ValueError("alpha1 + alpha2 + n_users must exceed 2")
    mu = (alpha1 + np.asarray(col, dtype=np.float64) - 1.0) / (alpha1 + alpha2 + n_users - 2.0)
    return np.clip(mu, *BAYES_RANGE)


def _check_beta_parameters(alpha1: float, alpha2: float) -> None:
    for name, value in (("alpha1", alpha1), ("alpha2", alpha2)):
        if not value > 0:
            raise ConfigError(name, "must be positive (a Beta parameter)")


class PopularityExposure:
    """Item-popularity exposure prior (no social information).

    Initialized from raw click counts as if the posterior equalled the
    click matrix, then refreshed each EM iteration from the actual
    posterior column sums.
    """

    kind = "expomf"
    state = ("mu_items",)

    def __init__(self, y: InteractionMatrix, alpha1: float = 1.0, alpha2: float = 1.0) -> None:
        _check_beta_parameters(alpha1, alpha2)
        self.alpha1 = alpha1
        self.alpha2 = alpha2
        self.n_users = y.n_users
        self.mu_items = popularity_update_mu(
            y.item_counts().astype(np.float64), y.n_users, alpha1, alpha2
        )

    def mu_block(self, j0: int, j1: int) -> np.ndarray:
        return np.broadcast_to(self.mu_items[j0:j1], (self.n_users, j1 - j0))

    def update(self, p, y: InteractionMatrix) -> None:
        self.mu_items = popularity_update_mu(p.sum(axis=0), self.n_users, self.alpha1, self.alpha2)


class FixedExposure:
    """Constant exposure weights: the WMF special case.

    The prior is ``mu_unobserved`` at every pair.  That attribute marks a
    fixed-weight provider to the engine: it skips the Bayes E-step, takes
    the read-only constant view of ``mu_unobserved`` as the posterior, and
    gives clicked pairs weight 1 in the factor solves and the likelihood.
    No U x V array is stored.
    """

    kind = "wmf"
    state = ()

    def __init__(self, y: InteractionMatrix, mu_unobserved: float = 0.4) -> None:
        if not 0.0 < mu_unobserved <= 1.0:
            raise ConfigError("mu_unobserved", "must be in (0, 1]")
        self.mu_unobserved = mu_unobserved
        self.n_users = y.n_users

    def mu_block(self, j0: int, j1: int) -> np.ndarray:
        return np.broadcast_to(self.mu_unobserved, (self.n_users, j1 - j0))

    def update(self, p, y: InteractionMatrix) -> None:
        pass  # weights are fixed by definition

"""Seeded generative sampler.

``generate`` samples the full generative story: Gaussian factors, a random
directed trust graph, per-user exposure raised by friend count, Bernoulli
exposure bits, and clicks that can only happen where exposure happened.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from serec.data import InteractionMatrix, SocialGraph
from serec.engine import ConfigError


@dataclass
class SyntheticSpec:
    """Knobs for the generative sampler.

    ``base_exposure`` is each user's exposure probability before the
    social boost; a user with f friends gets
    clip(base * (1 + s_coeff * f), 0, 1), a one-step version of the
    friend-mass boost.  0 and 1 are allowed so the degenerate cases stay
    exactly degenerate.
    """

    n_users: int = 100
    n_items: int = 150
    k: int = 5
    lambda_theta: float = 1.0
    lambda_beta: float = 1.0
    lambda_y: float = 1.0
    social_density: float = 0.05
    base_exposure: float = 0.1
    s_coeff: float = 5.0
    seed: int = 0

    def __post_init__(self):
        for name in ("n_users", "n_items", "k", "lambda_theta", "lambda_beta", "lambda_y"):
            if not getattr(self, name) > 0:
                raise ConfigError(name, "must be positive")
        if not 0.0 <= self.social_density < 1.0:
            raise ConfigError("social_density", "must be in [0, 1)")
        if not 0.0 <= self.base_exposure <= 1.0:
            raise ConfigError("base_exposure", "must be in [0, 1]")
        for name in ("s_coeff", "seed"):
            if not getattr(self, name) >= 0:
                raise ConfigError(name, "must be >= 0")


@dataclass
class GroundTruth:
    theta: np.ndarray
    beta: np.ndarray
    mu: np.ndarray  # (U, V) exposure priors used for sampling
    alpha: np.ndarray  # (U, V) boolean exposure bits


def generate(spec: SyntheticSpec) -> tuple[InteractionMatrix, SocialGraph, GroundTruth]:
    """Sample (interactions, graph, ground truth) from the generative story.

    Clicks given exposure use a logistic squash of the preference score as
    the success probability (the Gaussian response is a modeling device,
    not a sampler for bits).  No click ever occurs without exposure.
    """
    rng = np.random.default_rng(spec.seed)
    theta = rng.normal(0.0, 1.0 / math.sqrt(spec.lambda_theta), size=(spec.n_users, spec.k))
    beta = rng.normal(0.0, 1.0 / math.sqrt(spec.lambda_beta), size=(spec.n_items, spec.k))
    adj = rng.random((spec.n_users, spec.n_users)) < spec.social_density
    np.fill_diagonal(adj, False)
    graph = SocialGraph(spec.n_users, np.argwhere(adj))
    out_deg = graph.out_degree()
    mu_user = np.clip(spec.base_exposure * (1.0 + spec.s_coeff * out_deg), 0.0, 1.0)
    mu = np.broadcast_to(mu_user[:, None], (spec.n_users, spec.n_items)).copy()
    alpha = rng.random(mu.shape) < mu
    with np.errstate(over="ignore"):  # saturating scores squash to 0/1
        click_prob = 1.0 / (1.0 + np.exp(-(theta @ beta.T)))
    y = alpha & (rng.random(mu.shape) < click_prob)
    matrix = InteractionMatrix(spec.n_users, spec.n_items, np.argwhere(y))
    return matrix, graph, GroundTruth(theta=theta, beta=beta, mu=mu, alpha=alpha)

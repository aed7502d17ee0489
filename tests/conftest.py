import gc
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from serec import (
    FactorModel,
    FitResult,
    InteractionMatrix,
    SocialGraph,
    TrainConfig,
    load_model,
    save_model,
)
from serec import cli
from serec.exposure.social_regular import _run_gradients


@pytest.fixture
def no_gc():
    """Run the test with the cycle collector off: what is freed then was
    freed by reference count."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def random_interactions(rng, n_users, n_items, density=0.3):
    """Random click matrix with at least one click."""
    mask = rng.random((n_users, n_items)) < density
    if not mask.any():
        mask[rng.integers(n_users), rng.integers(n_items)] = True
    users, items = np.nonzero(mask)
    return InteractionMatrix(n_users, n_items, list(zip(users.tolist(), items.tolist())))


def random_graph(rng, n_users, density=0.1):
    mask = rng.random((n_users, n_users)) < density
    np.fill_diagonal(mask, False)
    srcs, dsts = np.nonzero(mask)
    return SocialGraph(n_users, list(zip(srcs.tolist(), dsts.tolist())))


def entry_set(matrix):
    """The clicked (user, item) pairs of an interaction matrix."""
    return set(zip(matrix.user_idx.tolist(), matrix.item_idx.tolist()))


def edge_set(graph):
    """The (truster, trustee) edges of a social graph."""
    return set(zip(graph.src.tolist(), graph.dst.tolist()))


def triplet_gradients(state, triplet, target, s_uk):
    """The four half-gradients of serec-regular's sampled loss at one
    (i, u, k) triplet: ``_run_gradients`` on a batch of one row."""
    i, u, k = triplet
    rows = (state.x[[u]], state.t[[i]], state.b[[k]], state.gamma[[i]])
    return tuple(g[0] for g in _run_gradients(state.hyper, *rows, target, s_uk))


def dense_clicks(matrix):
    out = np.zeros((matrix.n_users, matrix.n_items))
    out[matrix.user_idx, matrix.item_idx] = 1.0
    return out


class MatrixProvider:
    """Test double: exposure prior given as an explicit dense matrix."""

    kind = "matrix"

    def __init__(self, mu):
        self.mu = np.asarray(mu, dtype=float)
        self.updates = 0

    def mu_block(self, j0, j1):
        return self.mu[:, j0:j1]

    def update(self, posterior, y):
        self.updates += 1


def edit_npz(path, edit):
    """Rewrite the ``.npz`` file ``path`` with ``edit`` applied to a dict of
    its arrays."""
    with np.load(path) as npz:
        arrays = dict(npz)
    edit(arrays)
    np.savez(path, **arrays)


def save_provider(model_dir, provider, y, **config):
    """Write ``provider`` with ``engine.save_model`` as ``serec train`` does,
    ``config`` (with the provider's kind as ``model``) being meta.json's
    config."""
    result = FitResult(
        FactorModel(np.zeros((y.n_users, 1)), np.zeros((y.n_items, 1))),
        trace=[],
        converged=False,
        n_iters=0,
    )
    save_model(
        model_dir,
        result,
        provider,
        TrainConfig(k=1),
        extra_meta={"config": {"model": provider.kind, **config}},
    )


def load_provider(model_dir, y, graph=None):
    """The provider ``serec exposure-curve`` rebuilds from ``model_dir``."""
    _, meta = load_model(model_dir)
    return cli.load_provider(model_dir, meta, y, graph)[0]


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def toy_matrix():
    # 4 users x 5 items, hand picked so every user has a click
    pairs = [(0, 0), (0, 2), (1, 1), (1, 2), (2, 3), (3, 0), (3, 4)]
    return InteractionMatrix(4, 5, pairs)


@pytest.fixture
def toy_graph():
    return SocialGraph(4, [(0, 1), (1, 0), (1, 2), (3, 1)])


def data_dir():
    return os.environ.get("SEREC_DATA_DIR")


needs_data = pytest.mark.skipif(
    data_dir() is None,
    reason="set SEREC_DATA_DIR to run tests against the original data files",
)

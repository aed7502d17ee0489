"""EM inference for exposure-aware matrix factorization.

Clicks y_ui are modeled through a latent exposure bit alpha_ui: a click is
impossible without exposure, and given exposure the response is Gaussian
around the preference score theta_u . beta_i with precision lambda_y.  The
exposure prior mu_ui comes from a pluggable provider; this module is
generic over providers and alternates

    E-step   p_ui = E[alpha_ui | y_ui]           (Bayes rule per pair)
    M-step   ridge solves for theta and beta weighted by p
    prior    provider.update(p, y)

Provider protocol (duck-typed):
    mu_block(j0, j1) -> (n_users, j1 - j0) priors in BAYES_RANGE, or in [0, 1]
                        for a fixed-weight provider; may be a read-only view
    update(p, y) -> None                refresh internal state from the
                                        U x V posterior array p
    kind -> str                         short model name for persistence
    state -> tuple of str (optional)    names of the array attributes that
                                        save_model writes to model.npz
    mu_unobserved -> float (optional)   marks a fixed-weight provider (wmf):
                                        p is this constant at every
                                        unclicked pair and 1 at every click,
                                        without the Bayes rule; its
                                        posterior is the read-only constant
                                        view of ExposurePosterior
"""

from __future__ import annotations

import json
import math
import numbers
import tempfile
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from serec.data import (
    DataFormatError,
    InteractionMatrix,
    load_arrays,
    read_json_object,
    save_arrays,
    write_matrix,
)

# the priors the E-step's Bayes rule takes; only the likelihood takes [0, 1]
BAYES_RANGE = (1e-6, 1.0 - 1e-6)
_TINY = np.finfo(np.float64).tiny
DEFAULT_DENSE_BUDGET = 200_000_000  # posterior entries kept in RAM
# Item columns per block of a sweep.  Each sweep thread holds a few U x block
# temporaries, and serec-boost's friend-mass product over a block this narrow
# stays in cache.
DEFAULT_BLOCK_SIZE = 512
# U x V entries per row chunk of a bounded dense pass (16 MiB).  Chunks of
# 32 MiB sit at glibc's cap on its mmap threshold, where a freed chunk may stay
# in the heap: peak RSS then varied by ~70 MiB from run to run.
CHUNK_ENTRIES = 1 << 21
META_NAME = "meta.json"
MODEL_NAME = "model.npz"  # theta, beta and the provider's state arrays, by name


class TrainingError(RuntimeError):
    """Raised when training produces non-finite values or diverges."""


class ConfigError(ValueError):
    """A setting outside its range; ``key`` names it and ``reason`` says why."""

    def __init__(self, key: str, reason: str) -> None:
        super().__init__(f"config key {key!r} {reason}")
        self.key = key
        self.reason = reason


@dataclass
class TrainConfig:
    """Hyperparameters for :func:`fit`.

    Defaults follow the reference configuration: K=20 latent factors and
    0.01 for all three precisions.
    """

    k: int = 20
    lambda_theta: float = 0.01
    lambda_beta: float = 0.01
    lambda_y: float = 0.01
    max_em_iters: int = 50
    convergence_tol: float = 1e-5
    seed: int = 0
    init_scale: float = 0.01
    n_threads: int = 1
    dense_budget: int = DEFAULT_DENSE_BUDGET
    block_size: int = DEFAULT_BLOCK_SIZE

    def __post_init__(self):
        # each check fails for NaN, which no comparison holds for; a bool
        # would pass as 0 or 1
        for name in ("k", "lambda_theta", "lambda_beta", "lambda_y", "init_scale", "convergence_tol"):
            value = getattr(self, name)
            if isinstance(value, bool) or not 0 < value < math.inf:
                raise ConfigError(name, "must be positive and finite")
        for name in ("max_em_iters", "seed", "dense_budget"):
            if not getattr(self, name) >= 0:
                raise ConfigError(name, "must be >= 0")
        for name in ("n_threads", "block_size"):
            if not getattr(self, name) >= 1:
                raise ConfigError(name, "must be >= 1")


@dataclass
class FactorModel:
    """User and item latent factors with their precision hyperparameters."""

    theta: np.ndarray  # (n_users, k)
    beta: np.ndarray  # (n_items, k)
    lambda_theta: float = 0.01
    lambda_beta: float = 0.01
    lambda_y: float = 0.01

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        self.beta = np.asarray(self.beta, dtype=np.float64)
        if self.theta.ndim != 2 or self.beta.ndim != 2:
            raise ValueError("theta and beta must be 2-d")
        if self.theta.shape[1] != self.beta.shape[1]:
            raise ValueError("theta and beta disagree on k")
        for key in ("lambda_theta", "lambda_beta", "lambda_y"):
            lam = getattr(self, key)
            # bool is an int to Python, and NaN fails the comparison
            if isinstance(lam, bool) or not isinstance(lam, numbers.Real) or not 0 < lam < math.inf:
                raise ValueError(f"precision {key!r} must be a finite positive number, got {lam!r}")

    @property
    def n_users(self) -> int:
        return self.theta.shape[0]

    @property
    def n_items(self) -> int:
        return self.beta.shape[0]

    @property
    def k(self) -> int:
        return self.theta.shape[1]

    def validate_finite(self, where: str = "model") -> None:
        if not np.all(np.isfinite(self.theta)) or not np.all(np.isfinite(self.beta)):
            raise TrainingError(f"non-finite factor values in {where}")


def _fixed_weight(provider) -> float | None:
    """The constant weight of a fixed-weight provider, else None."""
    return getattr(provider, "mu_unobserved", None)


def ExposurePosterior(
    provider, n_users: int, n_items: int, dense_budget: int = DEFAULT_DENSE_BUDGET
) -> np.ndarray:
    """The U x V posterior p_ui = E[alpha_ui | y_ui] of ``provider``.

    A fixed-weight provider (one with ``mu_unobserved``) gets the
    read-only, zero-stride view of that constant, 8 bytes whatever the
    shape: its clicks weigh 1 by definition, and the factor solves, which
    see the zero strides, put them in per row chunk.  Any other provider
    gets a zeroed array for the E-step to fill: in RAM while
    n_users * n_items fits the budget, otherwise a memmap of an unnamed
    temporary file (under ``$TMPDIR``).  The mapping keeps its own
    descriptor, so the file lives exactly as long as the array's last
    reference, however the process ends.
    """
    weight = _fixed_weight(provider)
    if weight is not None:
        return np.broadcast_to(np.float64(weight), (n_users, n_items))
    if n_users * n_items <= dense_budget:
        return np.zeros((n_users, n_items), dtype=np.float64)
    with tempfile.TemporaryFile() as fh:
        return np.memmap(fh, dtype=np.float64, mode="w+", shape=(n_users, n_items))


@dataclass
class FitResult:
    model: FactorModel
    trace: list[float]
    converged: bool
    n_iters: int
    posterior: np.ndarray | None = field(default=None, repr=False)


def _iter_blocks(n: int, size: int):
    for j0 in range(0, n, size):
        yield j0, min(j0 + size, n)


def _log_pdf_const(lambda_y: float) -> float:
    return 0.5 * math.log(lambda_y / (2.0 * math.pi))


def _clicked_in_block(indptr: np.ndarray, indices: np.ndarray, j0: int, j1: int):
    """The clicks of slots [j0, j1) of a compressed layout (``csc_indptr``
    and ``csc_indices`` for items, ``csr_indptr`` and ``item_idx`` for
    users): each one's index on the other side and its block-local slot."""
    other = indices[indptr[j0] : indptr[j1]]
    local = np.repeat(np.arange(j1 - j0), np.diff(indptr[j0 : j1 + 1]))
    return other, local


def _provider_mu_block(provider, y: InteractionMatrix, j0: int, j1: int, bound: tuple):
    """The provider's prior for items [j0, j1), which may be the provider's
    own storage and is never written.

    It must lie in ``bound``, the closed range its pass needs, checked
    with one min and one max (NaN fails both comparisons).
    """
    mu = np.asarray(provider.mu_block(j0, j1), dtype=np.float64)
    if mu.shape != (y.n_users, j1 - j0):
        raise ValueError(
            f"provider returned mu of shape {mu.shape}, expected {(y.n_users, j1 - j0)}"
        )
    lo, hi = bound
    if not (mu.min() >= lo and mu.max() <= hi):
        raise ValueError(f"provider contract violation: mu outside [{lo:g}, {hi:g}]")
    return mu


def _block_log_likelihood(model: FactorModel, mu_obs, den, rows, cols, s_obs, j0: int) -> float:
    """Likelihood terms of the item block starting at ``j0``; consumes ``den``.

    ``den`` holds mu * N0 + 1 - mu for the block's prior, whose log is the
    unclicked term.  The clicked pairs (``rows``, ``cols``, block-local)
    are set to 1 there (log 1 = 0) and add log(mu_obs * N(1 | score))
    instead, from their priors ``mu_obs`` and scores ``s_obs``; mu_obs = 0
    is inconsistent (zero exposure prior, observed click) and raises.
    """
    ly = model.lambda_y
    log_c = _log_pdf_const(ly)
    total = 0.0
    if rows.size:
        if np.any(mu_obs == 0.0):
            raise ValueError("observed click with zero exposure prior")
        total += float(np.sum(np.log(mu_obs) + log_c - 0.5 * ly * (1.0 - s_obs) ** 2))
        den[rows, cols] = 1.0
    # den >= 1 - mu, so only mu = 1 gets below the smallest normal: there den
    # is N0 itself, underflowed, and its log is taken from the score instead
    low = np.nonzero(den < _TINY) if den.min() < _TINY else None
    with np.errstate(divide="ignore"):
        np.log(den, out=den)
    if low is not None:
        r, c = low
        s = np.einsum("ij,ij->i", model.theta[r], model.beta[j0 + c])
        den[r, c] = log_c - 0.5 * ly * s**2
    return total + float(np.sum(den))


def _sweep(
    y: InteractionMatrix,
    model: FactorModel,
    provider,
    p_out,
    block_size: int,
    with_ll: bool,
    n_threads: int = 1,
) -> float:
    """One pass over item blocks: the E-step, the log likelihood, or both.

    With ``p_out`` the posterior is written there (see :func:`e_step`),
    unless the provider is fixed-weight: its posterior is the constant view
    of :func:`ExposurePosterior`, so a dense ``p_out`` raises.  With
    ``with_ll`` the marginal log likelihood is returned, else 0.0.
    Each block is one call of :func:`_sweep_block`, a function of the
    read-only inputs and its own columns of ``p_out`` (serec-boost's
    friend mass included), so its U x block arrays are allocated in the
    call and freed when it returns.
    Blocks run on ``n_threads`` threads, and their likelihood terms are
    added in block order, so the result depends on ``block_size`` but not
    on ``n_threads``.
    """
    if model.n_users != y.n_users or model.n_items != y.n_items:
        raise ValueError("model and interaction matrix disagree on dimensions")
    if _fixed_weight(provider) is not None and p_out is not None:
        if any(p_out.strides):
            raise ValueError("a fixed-weight posterior is the constant view of ExposurePosterior")
        p_out = None  # nothing to write
    if p_out is None and not with_ll:
        return 0.0
    total = 0.0
    if with_ll:
        total = -0.5 * model.lambda_theta * float(np.sum(model.theta**2))
        total += -0.5 * model.lambda_beta * float(np.sum(model.beta**2))
    calls = [
        (y, model, provider, p_out, j0, j1, with_ll)
        for j0, j1 in _iter_blocks(y.n_items, block_size)
    ]
    for part in _in_pool(_sweep_block, calls, n_threads):
        total += part
    return total


def _sweep_block(
    y: InteractionMatrix,
    model: FactorModel,
    provider,
    p_out,
    j0: int,
    j1: int,
    with_ll: bool,
) -> float:
    """Items [j0, j1) of :func:`_sweep`; returns their likelihood terms.

    The provider's prior is read once, in ``BAYES_RANGE`` for a sweep that
    writes the posterior and in [0, 1] for one that does not, and the
    scores become N0 = N(0 | score) and then mu * N0 in place.  The
    likelihood's unclicked term is the log of mu * N0 + 1 - mu, which is
    the E-step's own denominator, so a sweep that does both computes it
    once.  A sweep that writes no posterior builds the denominator in
    N0's own array, taking 1 - mu from one row when the prior's rows are
    one view (zero row stride, as for wmf and expomf), so it holds one
    U x block array.
    """
    bayes = p_out is not None
    mu = _provider_mu_block(provider, y, j0, j1, BAYES_RANGE if bayes else (0.0, 1.0))
    rows, cols = _clicked_in_block(y.csc_indptr, y.csc_indices, j0, j1)
    n0 = model.theta @ model.beta[j0:j1].T
    if with_ll:
        s_obs = n0[rows, cols]
    np.square(n0, out=n0)
    n0 *= -0.5 * model.lambda_y
    np.exp(n0, out=n0)
    n0 *= math.sqrt(model.lambda_y / (2.0 * math.pi))
    n0 *= mu
    if bayes:
        den = 1.0 - mu
        den += n0
        np.divide(n0, den, out=p_out[:, j0:j1])
        p_out[rows, j0 + cols] = 1.0
    else:  # a likelihood pass, which _sweep runs only with with_ll
        den = n0
        den += 1.0 - (mu[:1] if mu.strides[0] == 0 else mu)
    if not with_ll:
        return 0.0
    mu_obs = 1.0 if _fixed_weight(provider) is not None else mu[rows, cols]
    return _block_log_likelihood(model, mu_obs, den, rows, cols, s_obs, j0)


def e_step(
    y: InteractionMatrix,
    model: FactorModel,
    provider,
    out: np.ndarray | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> np.ndarray:
    """Fill the exposure posterior for every pair.

    Clicked pairs get p = 1 exactly; unclicked pairs get the Bayes update
    of the provider's prior against the Gaussian evidence at 0.  The prior
    must lie in ``BAYES_RANGE``, [1e-6, 1 - 1e-6], to which every Bayes
    provider clips it; a value outside is a provider contract violation
    and raises.  A fixed-weight provider has nothing to fill: its posterior
    is the constant view of :func:`ExposurePosterior`, returned as it is,
    and a dense ``out`` for one raises.
    """
    post = out if out is not None else ExposurePosterior(provider, y.n_users, y.n_items)
    _sweep(y, model, provider, post, block_size, with_ll=False)
    return post


def _in_pool(fn, calls: list[tuple], n_threads: int) -> list:
    """``fn(*args)`` for each tuple in ``calls``, results in call order.

    With ``n_threads`` > 1 the calls run on a pool of that many threads.
    The first failure cancels the calls not yet started; once the running
    ones finish, the failure of the earliest call in ``calls`` is raised,
    which is the one a serial loop would have raised.  No pool thread
    outlives the call.
    """
    if n_threads <= 1 or len(calls) < 2:
        return [fn(*args) for args in calls]
    with ThreadPoolExecutor(max_workers=min(n_threads, len(calls))) as pool:
        futures = [pool.submit(fn, *args) for args in calls]
        try:
            wait(futures, return_when=FIRST_EXCEPTION)
        finally:
            for f in futures:
                f.cancel()  # a no-op on calls already started
    # calls run in submission order, so every call before a failed one ran
    return [f.result() for f in futures]


def _packed_gram(factors: np.ndarray) -> np.ndarray:
    """The K(K+1)/2 distinct entries of each outer product f_j f_j^T.

    Row r holds f[:, t] * f[:, s] for the r-th pair s >= t in
    ``np.triu_indices`` order.  Filling it one factor column t at a time
    allocates nothing beyond the (K(K+1)/2, n) result.
    """
    ft = np.ascontiguousarray(factors.T)
    k, n = ft.shape
    packed = np.empty((k * (k + 1) // 2, n), dtype=np.float64)
    off = 0
    for t in range(k):
        np.multiply(ft[t:], ft[t], out=packed[off : off + k - t])
        off += k - t
    return packed


def _ridge_update(
    p_arr,
    indptr: np.ndarray,
    indices: np.ndarray,
    factors: np.ndarray,
    lambda_y: float,
    lambda_reg: float,
    n_threads: int,
    transpose: bool,
) -> np.ndarray:
    """Shared body of the two factor updates.

    Solves, for every row u of the output, with u's clicks j in
    ``indices[indptr[u]:indptr[u + 1]]``,
        (lambda_y * sum_j p_uj f_j f_j^T + lambda_reg I) x = lambda_y * sum_{j clicked} p_uj f_j
    where f ranges over the opposite side's factor rows.  Per chunk, the
    left-hand sums are one matmul against the packed Gram
    (:func:`_packed_gram`), expanded to K x K systems by one ``take`` over
    a flat index map, and the right-hand side is one ``bincount`` per
    factor column over the chunk's clicks, which adds each row's terms in
    index order from 0.0, as a sparse product does.  ``transpose`` selects
    columns of p instead of rows (the item update); the matmul reads that
    strided column chunk in place, so no part of a spilled posterior is
    copied into RAM.  A fixed-weight posterior, the zero-stride constant
    view of :func:`ExposurePosterior`, is the one p a chunk does not read
    in place: the chunk builds its weights in an array of its own, the
    constant with 1 at its clicks, the values of the dense posterior.

    The rows run in chunks, on a pool of ``n_threads`` threads when asked.
    Chunks write disjoint output rows, so they need no locking; the pool's
    shutdown is the barrier before the next phase.  Each chunk holds at
    most ``CHUNK_ENTRIES`` posterior entries, so a chunk's copy of a
    spilled posterior or its own weights stay bounded, and the chunks,
    like the result, do not depend on ``n_threads``.
    """
    k = factors.shape[1]
    n_out = indptr.size - 1
    out = np.empty((n_out, k), dtype=np.float64)
    packed = _packed_gram(factors)
    rows, cols = np.triu_indices(k)
    where = np.empty((k, k), dtype=np.intp)
    where[rows, cols] = where[cols, rows] = np.arange(rows.size)
    full = where.ravel()  # packed index of each entry of a row-major K x K
    diag = np.arange(k)
    fixed = p_arr.size > 0 and not any(p_arr.strides)

    def work(lo: int, hi: int) -> None:
        other, local = _clicked_in_block(indptr, indices, lo, hi)
        clicks = (other, local) if transpose else (local, other)
        if fixed:
            shape = (p_arr.shape[0], hi - lo) if transpose else (hi - lo, p_arr.shape[1])
            chunk = np.full(shape, p_arr[0, 0])
            chunk[clicks] = 1.0
        else:
            chunk = p_arr[:, lo:hi] if transpose else p_arr[lo:hi]
        sums = (packed @ chunk).T if transpose else chunk @ packed.T
        w = chunk[clicks]
        sums *= lambda_y
        a = sums.take(full, axis=1).reshape(-1, k, k)
        a[:, diag, diag] += lambda_reg
        rhs = np.stack([np.bincount(local, w * factors[other, t], hi - lo) for t in range(k)], 1)
        rhs *= lambda_y
        out[lo:hi] = np.linalg.solve(a, rhs[:, :, None])[:, :, 0]

    row_len = p_arr.shape[0] if transpose else p_arr.shape[1]
    _in_pool(work, list(_iter_blocks(n_out, max(1, CHUNK_ENTRIES // row_len))), n_threads)
    return out


def update_user_factors(
    y: InteractionMatrix, p, model: FactorModel, n_threads: int = 1
) -> np.ndarray:
    """Exact per-user ridge solve of the M-step.

    theta_u = (lambda_y * sum_i p_ui beta_i beta_i^T + lambda_theta I)^-1
              (lambda_y * sum_{i clicked} p_ui beta_i)

    The left-hand sum runs over all items; only clicks contribute to the
    right-hand side, read from ``y``'s CSR layout.  ``p`` is a U x V
    posterior, in RAM or spilled, or a fixed-weight provider's constant
    view, whose clicks weigh 1.  Unique minimizer since lambda_theta > 0.
    """
    return _ridge_update(
        p, y.csr_indptr, y.item_idx, model.beta, model.lambda_y, model.lambda_theta,
        n_threads, transpose=False,
    )


def update_item_factors(
    y: InteractionMatrix, p, model: FactorModel, n_threads: int = 1
) -> np.ndarray:
    """Per-item ridge solve, the mirror image of the user update; the
    clicks come from ``y``'s CSC layout."""
    return _ridge_update(
        p, y.csc_indptr, y.csc_indices, model.theta, model.lambda_y, model.lambda_beta,
        n_threads, transpose=True,
    )


def log_likelihood(
    y: InteractionMatrix, model: FactorModel, provider, block_size: int = DEFAULT_BLOCK_SIZE
) -> float:
    """Marginal log likelihood of the clicks plus the Gaussian factor priors.

    Unclicked pairs contribute log(mu * N(0 | score) + 1 - mu), the log of
    the E-step's own denominator.  Unlike the E-step, this pass takes any
    prior in [0, 1]: the term is exactly 0 at mu = 0, and log N(0 | score)
    from the score at mu = 1 when N0 underflows.  Clicked pairs contribute
    log(mu * N(1 | score)).  A clicked pair with mu = 0 is inconsistent
    (zero exposure prior, observed click) and raises.
    """
    return _sweep(y, model, provider, None, block_size, with_ll=True)


def fit(train: InteractionMatrix, provider, cfg: TrainConfig) -> FitResult:
    """Alternate E-step, factor solves, and provider updates until converged.

    Initialization draws theta then beta from seeded zero-mean Gaussians of
    scale ``cfg.init_scale`` (this order is part of the reproducibility
    contract).  Each iteration runs {E-step; theta solve; beta solve with
    the new theta; provider.update} and records the log likelihood of the
    new factors and prior.  That likelihood comes from the next
    iteration's E-step sweep, so n iterations make n + 1 passes over the
    prior, and the returned posterior is the E-step of the returned model
    and prior.  A fixed-weight provider's posterior is the constant view
    of :func:`ExposurePosterior`, which no pass writes, so its first pass
    is skipped and n iterations make n.  Every pass runs its item blocks
    on ``cfg.n_threads`` threads and gives the results of the serial
    :func:`e_step` and :func:`log_likelihood` at the same ``block_size``.
    Stops when the relative likelihood change drops below
    ``cfg.convergence_tol`` or after ``max_em_iters`` iterations.
    A provider that derives its prior from the posterior it was last
    handed (serec-boost) needs ``provider.update(result.posterior, train)``
    before its prior is read again: the final sweep overwrote that
    posterior after the last update, so until then the prior mixes two
    iterations.
    """
    rng = np.random.default_rng(cfg.seed)
    theta = rng.normal(0.0, cfg.init_scale, size=(train.n_users, cfg.k))
    beta = rng.normal(0.0, cfg.init_scale, size=(train.n_items, cfg.k))
    model = FactorModel(theta, beta, cfg.lambda_theta, cfg.lambda_beta, cfg.lambda_y)
    post = ExposurePosterior(provider, train.n_users, train.n_items, cfg.dense_budget)
    trace: list[float] = []
    converged = False
    n_iters = 0
    _sweep(train, model, provider, post, cfg.block_size, with_ll=False, n_threads=cfg.n_threads)
    for it in range(1, cfg.max_em_iters + 1):
        n_iters = it
        model.theta = update_user_factors(train, post, model, cfg.n_threads)
        model.beta = update_item_factors(train, post, model, cfg.n_threads)
        try:
            model.validate_finite(f"EM iteration {it}")
        except TrainingError:
            raise TrainingError(f"non-finite factors after EM iteration {it}") from None
        provider.update(post, train)
        ll = _sweep(
            train, model, provider, post, cfg.block_size, with_ll=True, n_threads=cfg.n_threads
        )
        if not math.isfinite(ll):
            raise TrainingError(f"non-finite log likelihood at EM iteration {it}")
        trace.append(ll)
        if len(trace) >= 2:
            prev = trace[-2]
            if abs(ll - prev) / max(abs(prev), 1e-12) < cfg.convergence_tol:
                converged = True
                break
    return FitResult(model=model, trace=trace, converged=converged, n_iters=n_iters, posterior=post)


def save_model(
    out_dir: str | Path,
    result: FitResult,
    provider,
    cfg: TrainConfig,
    extra_meta: dict | None = None,
) -> None:
    """Write ``model.npz`` (theta, beta and the provider's ``state``
    arrays) and a meta.json manifest, which :func:`load_model` and the
    CLI read, and ``trace.tsv`` and theta and beta as TSV, a readable copy
    that they do not."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    theta, beta = result.model.theta, result.model.beta
    write_matrix(out_dir / "theta.tsv", theta)
    write_matrix(out_dir / "beta.tsv", beta)
    state = {name: getattr(provider, name) for name in getattr(provider, "state", ())}
    save_arrays(out_dir / MODEL_NAME, theta=theta, beta=beta, **state)
    meta = {
        "kind": getattr(provider, "kind", "unknown"),
        "k": result.model.k,
        "n_users": result.model.n_users,
        "n_items": result.model.n_items,
        "lambda_theta": result.model.lambda_theta,
        "lambda_beta": result.model.lambda_beta,
        "lambda_y": result.model.lambda_y,
        "seed": cfg.seed,
        "n_iters": result.n_iters,
        "converged": result.converged,
        "final_log_likelihood": result.trace[-1] if result.trace else None,
    }
    if extra_meta:
        meta.update(extra_meta)
    with open(out_dir / META_NAME, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
    with open(out_dir / "trace.tsv", "w", encoding="utf-8") as fh:
        fh.write("iteration\tlog_likelihood\n")
        for i, ll in enumerate(result.trace, start=1):
            fh.write(f"{i}\t{ll:.17g}\n")


def load_model(model_dir: str | Path) -> tuple[FactorModel, dict]:
    """Read back the factor matrices from ``model.npz``, at their own 2-d
    shapes, which must agree on k, and the meta manifest, of which only the
    three precisions are needed: its ``k``, ``n_users`` and ``n_items`` are
    readable copies.  A fault names the file, and the array or the
    meta.json key."""
    model_dir = Path(model_dir)
    meta_path, model_path = model_dir / META_NAME, model_dir / MODEL_NAME
    precisions = ("lambda_theta", "lambda_beta", "lambda_y")
    meta = read_json_object(meta_path, precisions)
    matrix = (np.float64, (None, None))
    factors = load_arrays(model_path, "train", {"theta": matrix, "beta": matrix})
    theta, beta = factors["theta"], factors["beta"]
    if beta.shape[1] != theta.shape[1]:
        raise DataFormatError(
            f"{model_path}: array 'beta' has shape {beta.shape}, "
            f"but array 'theta' has shape {theta.shape}"
        )
    try:
        model = FactorModel(theta, beta, **{key: meta[key] for key in precisions})
    except ValueError as exc:
        raise DataFormatError(f"{meta_path}: {exc}") from None
    return model, meta

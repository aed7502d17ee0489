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
    mu_block(j0, j1) -> (n_users, j1 - j0) array of priors in [0, 1]
    update(p, y) -> None                refresh internal state from the
                                        U x V posterior array p
    kind -> str                         short model name for persistence
    save(dir_path) -> None              write provider state files
    bypass_bayes -> bool (optional)     when True the E-step stores the
                                        prior directly as p (fixed-weight
                                        mode; clicked pairs still get 1)
"""

from __future__ import annotations

import json
import math
import tempfile
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from serec.data import InteractionMatrix, csr_matrix

MU_EPS = 1e-6
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
        for name in ("k", "lambda_theta", "lambda_beta", "lambda_y", "init_scale", "convergence_tol"):
            if getattr(self, name) <= 0:
                raise ConfigError(name, "must be positive")
        for name in ("max_em_iters", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(name, "must be >= 0")
        for name in ("n_threads", "block_size"):
            if getattr(self, name) < 1:
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
        if min(self.lambda_theta, self.lambda_beta, self.lambda_y) <= 0:
            raise ValueError("precisions must be positive")

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


def ExposurePosterior(
    provider, n_users: int, n_items: int, dense_budget: int = DEFAULT_DENSE_BUDGET
) -> np.ndarray:
    """A zeroed U x V array for p_ui = E[alpha_ui | y_ui].

    ``provider`` is unused; it stays so that existing callers keep working.
    In RAM while n_users * n_items fits the budget, otherwise a memmap of
    an unnamed temporary file (under ``$TMPDIR``).  The mapping keeps its
    own descriptor, so the file lives exactly as long as the array's last
    reference, however the process ends.
    """
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


def _gaussian_pdf0(scores: np.ndarray, lambda_y: float) -> np.ndarray:
    """Density of N(mean=scores, var=1/lambda_y) evaluated at 0."""
    return math.sqrt(lambda_y / (2.0 * math.pi)) * np.exp(-0.5 * lambda_y * scores**2)


def e_step_pair(mu, score, lambda_y: float):
    """Posterior exposure probability for an unclicked pair.

    Bayes rule over alpha in {0, 1}: the prior mu against the evidence
    that a zero response is certain without exposure but Gaussian around
    ``score`` with it.  Exact at mu = 0 and mu = 1.  Accepts scalars or
    arrays (broadcast together).
    """
    mu = np.asarray(mu, dtype=np.float64)
    num = mu * _gaussian_pdf0(np.asarray(score, dtype=np.float64), lambda_y)
    out = num / (num + (1.0 - mu))
    if out.ndim == 0:
        return float(out)
    return out


def _clicked_in_block(y: InteractionMatrix, j0: int, j1: int):
    """Row indices and block-local column indices of clicks in items [j0, j1)."""
    start, end = y.csc_indptr[j0], y.csc_indptr[j1]
    rows = y.csc_indices[start:end]
    counts = np.diff(y.csc_indptr[j0 : j1 + 1])
    cols = np.repeat(np.arange(j1 - j0), counts)
    return rows, cols


def _provider_mu_block(provider, y: InteractionMatrix, j0: int, j1: int):
    """The provider's prior for items [j0, j1), checked with one min and one
    max (NaN fails both comparisons).

    Returns the block, which may be the provider's own storage and is
    never written, and whether the E-step clamp leaves it unchanged.
    """
    mu = np.asarray(provider.mu_block(j0, j1), dtype=np.float64)
    if mu.shape != (y.n_users, j1 - j0):
        raise ValueError(
            f"provider returned mu of shape {mu.shape}, expected {(y.n_users, j1 - j0)}"
        )
    lo, hi = mu.min(), mu.max()
    if not (lo >= 0.0 and hi <= 1.0):
        raise ValueError("provider contract violation: mu outside [0, 1]")
    return mu, bool(lo >= MU_EPS and hi <= 1.0 - MU_EPS)


def _block_log_likelihood(model: FactorModel, mu, den, rows, cols, s_obs, j0: int) -> float:
    """Likelihood terms of the item block starting at ``j0``; consumes ``den``.

    ``den`` holds mu * N0 + 1 - mu for the raw prior, whose log is the
    unclicked term.  The clicked pairs (``rows``, ``cols``, block-local)
    are set to 1 there (log 1 = 0) and add log(mu * N(1 | score)) instead,
    from their scores ``s_obs``.  A clicked pair with mu = 0 is
    inconsistent (zero exposure prior, observed click) and raises.
    """
    ly = model.lambda_y
    log_c = _log_pdf_const(ly)
    total = 0.0
    if rows.size:
        mu_obs = mu[rows, cols]
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

    With ``p_out`` the posterior is written there (see :func:`e_step`);
    with ``with_ll`` the marginal log likelihood is returned, else 0.0.
    Each block is one call, so its temporaries are freed when it returns.
    Blocks run on ``n_threads`` threads: a block reads and writes only its
    own columns of ``p_out`` (serec-boost's friend mass included), and its
    likelihood terms are added in block order, so the result depends on
    ``block_size`` but not on ``n_threads``.
    """
    total = 0.0
    if with_ll:
        total = -0.5 * model.lambda_theta * float(np.sum(model.theta**2))
        total += -0.5 * model.lambda_beta * float(np.sum(model.beta**2))

    def block(j0: int, j1: int) -> float:
        return _sweep_block(y, model, provider, p_out, j0, j1, with_ll)

    for part in _in_pool(block, list(_iter_blocks(y.n_items, block_size)), n_threads):
        total += part
    return total


def _sweep_block(
    y: InteractionMatrix, model: FactorModel, provider, p_out, j0: int, j1: int, with_ll: bool
) -> float:
    """Items [j0, j1) of :func:`_sweep`; returns their likelihood terms.

    The provider's prior is read once, and the scores become
    N0 = N(0 | score) in place.  The likelihood's unclicked term is the
    log of mu * N0 + 1 - mu for the raw prior, which is the E-step's own
    denominator whenever the clamp leaves mu unchanged, so a sweep that
    does both computes it once.
    """
    bayes = p_out is not None and not getattr(provider, "bypass_bayes", False)
    mu, unclamped = _provider_mu_block(provider, y, j0, j1)
    rows, cols = _clicked_in_block(y, j0, j1)
    if with_ll or bayes:
        n0 = model.theta @ model.beta[j0:j1].T
        if with_ll:
            s_obs = n0[rows, cols]
        np.square(n0, out=n0)
        n0 *= -0.5 * model.lambda_y
        np.exp(n0, out=n0)
        n0 *= math.sqrt(model.lambda_y / (2.0 * math.pi))
    shared = bayes and unclamped
    if with_ll and not shared:
        # the E-step below still needs N0; otherwise it becomes mu * N0
        num = mu * n0 if bayes else np.multiply(n0, mu, out=n0)
        den = 1.0 - mu
        den += num
    if p_out is not None:
        if bayes:
            mu_e = mu if unclamped else np.clip(mu, MU_EPS, 1.0 - MU_EPS)
            n0 *= mu_e
            e_den = 1.0 - mu_e
            e_den += n0
            np.divide(n0, e_den, out=p_out[:, j0:j1])
            if shared:
                den = e_den
        else:
            p_out[:, j0:j1] = mu
        p_out[rows, j0 + cols] = 1.0
    if not with_ll:
        return 0.0
    return _block_log_likelihood(model, mu, den, rows, cols, s_obs, j0)


def e_step(
    y: InteractionMatrix,
    model: FactorModel,
    provider,
    out: np.ndarray | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> np.ndarray:
    """Fill the exposure posterior for every pair.

    Clicked pairs get p = 1 exactly; unclicked pairs get the Bayes update
    of the provider's prior against the Gaussian evidence at 0.  Providers
    flagged ``bypass_bayes`` have their prior stored as p directly (the
    fixed-weight mode).  Priors are clamped to [1e-6, 1 - 1e-6] before the
    Bayes rule so the posterior stays numerically stable; values outside
    [0, 1] are a provider contract violation and raise.
    """
    if model.n_users != y.n_users or model.n_items != y.n_items:
        raise ValueError("model and interaction matrix disagree on dimensions")
    post = out if out is not None else ExposurePosterior(provider, y.n_users, y.n_items)
    _sweep(y, model, provider, post, block_size, with_ll=False)
    return post


def _clicked_weights(y: InteractionMatrix, p_arr):
    """The clicks as a sparse matrix holding p at each clicked pair."""
    weights = np.asarray(p_arr[y.user_idx, y.item_idx], dtype=np.float64)
    return csr_matrix(weights, y.item_idx, y.csr_indptr, (y.n_users, y.n_items))


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


def _run_phase(work, n_rows: int, n_threads: int, row_len: int) -> None:
    """Run ``work(lo, hi)`` over row chunks, in threads when asked.

    Chunks write disjoint output rows, so the phase needs no locking; the
    pool's shutdown is the barrier before the next phase.  Each chunk holds
    at most ``CHUNK_ENTRIES`` posterior entries (``row_len`` per row), so a
    chunk's copy of a spilled posterior stays bounded, and the chunks, like
    the result, do not depend on ``n_threads``.
    """
    _in_pool(work, list(_iter_blocks(n_rows, max(1, CHUNK_ENTRIES // row_len))), n_threads)


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
    clicked_rhs: np.ndarray,
    factors: np.ndarray,
    lambda_y: float,
    lambda_reg: float,
    n_threads: int,
    transpose: bool,
) -> np.ndarray:
    """Shared body of the two factor updates.

    Solves, for every row u of the output,
        (lambda_y * sum_j p_uj f_j f_j^T + lambda_reg I) x = clicked_rhs[u]
    where f ranges over the opposite side's factor rows.  The weighted sum
    is one matmul per chunk against the packed Gram (:func:`_packed_gram`),
    and one ``take`` over a flat index map expands a chunk's packed sums to
    its K x K systems.  ``transpose`` selects columns of p instead of rows
    (the item update); the matmul reads that strided column chunk in
    place, so no part of a spilled posterior is copied into RAM.
    """
    k = factors.shape[1]
    n_out = clicked_rhs.shape[0]
    out = np.empty((n_out, k), dtype=np.float64)
    packed = _packed_gram(factors)
    rows, cols = np.triu_indices(k)
    where = np.empty((k, k), dtype=np.intp)
    where[rows, cols] = where[cols, rows] = np.arange(rows.size)
    full = where.ravel()  # packed index of each entry of a row-major K x K
    diag = np.arange(k)

    def work(lo: int, hi: int) -> None:
        if transpose:
            sums = (packed @ p_arr[:, lo:hi]).T
        else:
            sums = p_arr[lo:hi] @ packed.T
        sums *= lambda_y
        a = sums.take(full, axis=1).reshape(-1, k, k)
        a[:, diag, diag] += lambda_reg
        out[lo:hi] = np.linalg.solve(a, clicked_rhs[lo:hi, :, None])[:, :, 0]

    _run_phase(work, n_out, n_threads, p_arr.shape[0] if transpose else p_arr.shape[1])
    return out


def update_user_factors(
    y: InteractionMatrix, p, model: FactorModel, n_threads: int = 1
) -> np.ndarray:
    """Exact per-user ridge solve of the M-step.

    theta_u = (lambda_y * sum_i p_ui beta_i beta_i^T + lambda_theta I)^-1
              (lambda_y * sum_{i clicked} p_ui beta_i)

    The left-hand sum runs over all items; only clicks contribute to the
    right-hand side.  Unique minimizer since lambda_theta > 0.
    """
    beta = model.beta
    rhs = model.lambda_y * (_clicked_weights(y, p) @ beta)
    return _ridge_update(
        p, rhs, beta, model.lambda_y, model.lambda_theta, n_threads, transpose=False
    )


def update_item_factors(
    y: InteractionMatrix, p, model: FactorModel, n_threads: int = 1
) -> np.ndarray:
    """Per-item ridge solve, the mirror image of the user update."""
    theta = model.theta
    rhs = model.lambda_y * (_clicked_weights(y, p).T @ theta)
    return _ridge_update(
        p, rhs, theta, model.lambda_y, model.lambda_beta, n_threads, transpose=True
    )


def log_likelihood(
    y: InteractionMatrix, model: FactorModel, provider, block_size: int = DEFAULT_BLOCK_SIZE
) -> float:
    """Marginal log likelihood of the clicks plus the Gaussian factor priors.

    Unclicked pairs contribute log(mu * N(0 | score) + 1 - mu), the log of
    the E-step's own denominator for the unclamped prior: exactly 0 at
    mu = 0, and log N(0 | score) from the score at mu = 1 when N0
    underflows.  Clicked pairs contribute log(mu * N(1 | score)).  A
    clicked pair with mu = 0 is inconsistent (zero exposure prior, observed
    click) and raises.
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
    and prior.  Every pass runs its item blocks on ``cfg.n_threads``
    threads and gives the results of the serial :func:`e_step` and
    :func:`log_likelihood` at the same ``block_size``.  Stops when the
    relative likelihood change drops below ``cfg.convergence_tol`` or
    after ``max_em_iters`` iterations.
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


def predict_scores(model: FactorModel, u: int) -> np.ndarray:
    """Preference scores theta_u . beta_i for all items.

    Exposure never enters ranking; it only reweights training.
    """
    if not 0 <= u < model.n_users:
        raise IndexError(f"user index {u} out of range")
    return model.beta @ model.theta[u]


def save_model(
    out_dir: str | Path,
    result: FitResult,
    provider,
    cfg: TrainConfig,
    extra_meta: dict | None = None,
) -> None:
    """Write theta/beta TSVs, provider state, and a meta.json manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    np.savetxt(out_dir / "theta.tsv", result.model.theta, fmt="%.17g", delimiter="\t")
    np.savetxt(out_dir / "beta.tsv", result.model.beta, fmt="%.17g", delimiter="\t")
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
    if hasattr(provider, "save"):
        provider.save(out_dir)


def load_model(model_dir: str | Path) -> tuple[FactorModel, dict]:
    """Read back the factor matrices and the meta manifest."""
    model_dir = Path(model_dir)
    with open(model_dir / META_NAME, encoding="utf-8") as fh:
        meta = json.load(fh)
    theta = np.loadtxt(model_dir / "theta.tsv", delimiter="\t", ndmin=2)
    beta = np.loadtxt(model_dir / "beta.tsv", delimiter="\t", ndmin=2)
    model = FactorModel(
        theta,
        beta,
        lambda_theta=meta["lambda_theta"],
        lambda_beta=meta["lambda_beta"],
        lambda_y=meta["lambda_y"],
    )
    return model, meta

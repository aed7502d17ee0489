"""Traced in-process replay of the CLI pipeline, one span per layer call.

The replay calls the public functions of ``serec.data``, ``serec.engine``,
``serec.exposure.*`` and ``serec.metrics`` in the order ``serec split``,
``serec train`` and ``serec evaluate`` do, and repeats ``engine.fit``'s loop
from outside so each EM phase gets its own span.  The provider comes from
``serec.cli.make_provider``, as in ``serec train``.  Spans stay in memory
and are written out once, at the end.  The program's code carries no
tracing: every span wraps a call from this file, and the only wrapper put
around program code is the SGD step counter, swapped in for the fit and
restored after it.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from serec import cli, data as dm, engine, metrics
from serec.exposure import social_regular

MIB = 2.0**20


class Tracer:
    """In-memory span recorder: name, start, end, parent span, run id."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, peak: bool = False):
        """Time the enclosed call; with ``peak`` also record its tracemalloc
        peak above the memory already traced when it started."""
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        if peak:
            tracemalloc.start()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            if peak:
                rec["peak_mb"] = (tracemalloc.get_traced_memory()[1] - base) / MIB
                tracemalloc.stop()
            self._open.pop()

    def seconds(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def peaks(self, name: str) -> list[float]:
        return [s["peak_mb"] for s in self.spans if s["name"] == name and "peak_mb" in s]

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


class CountingProvider:
    """Delegates to an exposure provider and counts the prior entries the
    engine asks for through ``mu_block``."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.entries_served = 0

    def mu_block(self, j0: int, j1: int):
        block = self._inner.mu_block(j0, j1)
        self.entries_served += int(np.prod(np.shape(block)))
        return block

    def __getattr__(self, name):
        return getattr(self._inner, name)


@contextmanager
def counting_sgd_steps():
    """Count calls to the public per-triplet SGD step for the duration."""
    original = social_regular.sgd_triplet_step
    counter = {"n": 0}

    def step(*args, **kwargs):
        counter["n"] += 1
        return original(*args, **kwargs)

    social_regular.sgd_triplet_step = step
    try:
        yield counter
    finally:
        social_regular.sgd_triplet_step = original


def _train(tr: Tracer, cfg, split_dir: Path, social: Path, model_dir: Path) -> dict:
    """``serec train`` with ``engine.fit``'s loop written out."""
    with tr.span("data.load_split"):
        split, id_map = dm.load_split(split_dir)
    with tr.span("data.load_social"):
        graph, _ = dm.load_social(social, id_map)
    train = split.train
    tcfg = cfg.train_config()
    with tr.span("exposure.init"):
        provider = CountingProvider(cli.make_provider(cfg, train, graph))

    with tr.span("engine.fit"):
        rng = np.random.default_rng(tcfg.seed)
        theta = rng.normal(0.0, tcfg.init_scale, size=(train.n_users, tcfg.k))
        beta = rng.normal(0.0, tcfg.init_scale, size=(train.n_items, tcfg.k))
        model = engine.FactorModel(theta, beta, tcfg.lambda_theta, tcfg.lambda_beta, tcfg.lambda_y)
        post = engine.ExposurePosterior(provider, train.n_users, train.n_items, tcfg.dense_budget)
        trace: list[float] = []
        with counting_sgd_steps() as sgd:
            for it in range(1, tcfg.max_em_iters + 1):
                with tr.span("engine.iter"):
                    with tr.span("engine.e_step", peak=True):
                        engine.e_step(train, model, provider, out=post, block_size=tcfg.block_size)
                    with tr.span("engine.theta_solve", peak=True):
                        model.theta = engine.update_user_factors(train, post, model, tcfg.n_threads)
                    with tr.span("engine.beta_solve", peak=True):
                        model.beta = engine.update_item_factors(train, post, model, tcfg.n_threads)
                    model.validate_finite(f"EM iteration {it}")
                    # no tracemalloc here: it slows the per-triplet SGD five-fold
                    with tr.span("exposure.update"):
                        provider.update(post, train)
                    with tr.span("engine.log_likelihood", peak=True):
                        ll = engine.log_likelihood(train, model, provider, block_size=tcfg.block_size)
                trace.append(ll)
                if len(trace) >= 2 and abs(ll - trace[-2]) / max(abs(trace[-2]), 1e-12) < tcfg.convergence_tol:
                    break
    result = engine.FitResult(model=model, trace=trace, converged=False, n_iters=len(trace))
    passes = provider.entries_served / len(trace) / (train.n_users * train.n_items)
    with tr.span("engine.save_model"):
        engine.save_model(model_dir, result, provider, tcfg)

    # probes after the loop, outside the replayed pipeline's spans
    with tr.span("probe.exposure.update", peak=True):
        provider.update(post, train)
    with tr.span("probe.theta_solve_1t", peak=True):
        engine.update_user_factors(train, post, model, 1)
    with tr.span("probe.beta_solve_1t", peak=True):
        engine.update_item_factors(train, post, model, 1)
    return {
        "trace": trace,
        "prior_passes_per_iter": passes,
        "sgd_triplets": sgd["n"],
        "posterior_mb": train.n_users * train.n_items * 8 / MIB,
    }


def run(run_id: str, set_flags: list[str], inputs: Path, work: Path) -> tuple[Tracer, dict]:
    """Replay split -> train -> evaluate on the files in ``inputs``."""
    cfg = cli.load_config(None, set_flags)
    split_dir, model_dir = work / "split", work / "model"
    tr = Tracer(run_id)
    with tr.span("pipeline"):
        with tr.span("split"):
            with tr.span("data.load_interactions"):
                y, id_map = dm.load_interactions(inputs / "interactions.tsv")
            with tr.span("data.split_interactions"):
                split = dm.split_interactions(y, ratios=(0.7, 0.2), seed=0)
            with tr.span("data.save_split"):
                dm.save_split(split_dir, split, id_map)
        with tr.span("train"):
            out = _train(tr, cfg, split_dir, inputs / "social.tsv", model_dir)
        with tr.span("evaluate"):
            with tr.span("engine.load_model"):
                model, meta = engine.load_model(model_dir)
            with tr.span("data.load_split"):
                split, _ = dm.load_split(split_dir)
            with tr.span("metrics.evaluate"):
                report = metrics.evaluate(model, meta.get("kind"), split, cutoffs=[10, 50, 100])
            (model_dir / "report.json").write_text(report.to_json() + "\n", encoding="utf-8")
    out["distinct_clicks"] = y.n_entries
    out["users_evaluated"] = report.n_users_evaluated
    out["recall_at_50"] = report.metrics["recall@50"]
    return tr, out


def layer_metrics(tr: Tracer, out: dict, input_rows: int) -> dict[str, float]:
    """Per-layer numbers from the spans.

    EM phases are medians over iterations, except ``exposure.update_s``,
    which sums the fit's provider updates: serec-regular refits only in
    the first iteration, and a median would hide that refit.
    """
    one = lambda name: statistics.median(tr.seconds(name))
    peak = lambda name: statistics.median(tr.peaks(name))
    probe_seconds = sum(one(n) for n in ("probe.exposure.update", "probe.theta_solve_1t", "probe.beta_solve_1t"))
    update_s = sum(tr.seconds("exposure.update"))
    return {
        "data.load_interactions_s": one("data.load_interactions"),
        "data.split_interactions_s": one("data.split_interactions"),
        "data.save_split_s": one("data.save_split"),
        "data.load_split_s": one("data.load_split"),
        "data.load_social_s": one("data.load_social"),
        "data.rows_per_s": input_rows / one("data.load_interactions"),
        "data.dedup_ratio": out["distinct_clicks"] / input_rows,
        "exposure.init_s": one("exposure.init"),
        "exposure.update_s": update_s,
        "exposure.update_peak_mb": peak("probe.exposure.update"),
        "exposure.sgd_triplets": out["sgd_triplets"],
        # floored at one triplet, so without SGD this is the whole update in us
        "exposure.sgd_us_per_triplet": 1e6 * update_s / max(out["sgd_triplets"], 1),
        "engine.e_step_s": one("engine.e_step"),
        "engine.theta_solve_s": one("engine.theta_solve"),
        "engine.beta_solve_s": one("engine.beta_solve"),
        "engine.log_likelihood_s": one("engine.log_likelihood"),
        "engine.iter_s": one("engine.iter"),
        "engine.prior_passes_per_iter": out["prior_passes_per_iter"],
        "engine.posterior_mb": out["posterior_mb"],
        "engine.e_step_peak_mb": peak("engine.e_step"),
        "engine.theta_solve_peak_mb": peak("engine.theta_solve"),
        "engine.beta_solve_peak_mb": peak("engine.beta_solve"),
        "engine.log_likelihood_peak_mb": peak("engine.log_likelihood"),
        "engine.theta_solve_1t_s": one("probe.theta_solve_1t"),
        "engine.beta_solve_1t_s": one("probe.beta_solve_1t"),
        "engine.save_model_s": one("engine.save_model"),
        "engine.load_model_s": one("engine.load_model"),
        "metrics.evaluate_s": one("metrics.evaluate"),
        "metrics.users_evaluated": out["users_evaluated"],
        "metrics.us_per_user": 1e6 * one("metrics.evaluate") / out["users_evaluated"],
        "traced_total_s": one("pipeline") - probe_seconds,
    }

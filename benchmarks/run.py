"""Benchmark of the serec pipeline: split -> train -> evaluate.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload lastfm-boost --seed 1 --seconds 36 --trace 0

``--trace 0`` drives the CLI (``python3 -m serec.cli``, which calls
``serec.cli.main``) with tracing off and reports the end-to-end metrics.
``--trace 1`` also replays the pipeline in-process through the public
functions of each layer, recording one span per call, and reports the
per-layer metrics.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
benchmarks/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread in every process the benchmark runs, this one included
# (set before numpy loads).  serec's own pool still runs n_threads = nproc
# threads; BLAS threads on top of it oversubscribe the cores and make the
# timings follow the scheduler rather than the program.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# The order in which CLI steps are sampled, round and round.  The first
# FIRST_PASS steps always run, so every metric has a sample and setup_s
# has two; after them a step runs only if its last sample still fits in
# the time left.
CYCLE = ("setup_s", "train_s", "evaluate_s")
FIRST_PASS = 4
TOP_N = 50


@dataclass(frozen=True)
class Workload:
    shape: workloads.Shape
    model: str
    settings: dict = field(default_factory=dict)  # RunConfig overrides; the rest stay CLI defaults

    def set_flags(self) -> list[str]:
        return [f"{k}={v}" for k, v in self.settings.items()]


# convergence_tol is far below any relative change two EM iterations make,
# so every run does exactly max_em_iters iterations
FIXED_ITERS = {"max_em_iters": 2, "convergence_tol": 1e-12}

WORKLOADS = {
    "lastfm-boost": Workload(
        workloads.LASTFM,
        "serec-boost",
        {**FIXED_ITERS, "k": 20, "s_coeff": 5.0},
    ),
    "lastfm-regular": Workload(
        workloads.LASTFM,
        "serec-regular",
        {**FIXED_ITERS, "k": 20, "n_sgd_epochs": 1},
    ),
    "heavy-wmf": Workload(
        workloads.DOUBAN_SHARD,
        "wmf",
        {**FIXED_ITERS, "k": 20},
    ),
}


class Failures:
    """Operations attempted and the ones that failed, with reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.reasons: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.reasons.append(what)
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


class CliError(RuntimeError):
    """A ``serec`` subcommand exited non-zero (already counted as failed)."""


def _cli_env(tmp_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(tmp_dir)
    return env


def run_cli(fails: Failures, args: list[str], env: dict) -> float:
    """Run one ``serec`` subcommand, an attempted operation; return its wall seconds."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "serec.cli", *args], env=env, capture_output=True)
    wall = time.perf_counter() - t0
    if not fails.check(proc.returncode == 0,
                       f"serec {args[0]} exited {proc.returncode}: {proc.stderr.decode().strip()[-400:]}"):
        raise CliError(args[0])
    return wall


def children_peak_mb() -> float:
    """Largest resident set of any child process reaped so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def read_trace(model_dir: Path) -> list[float]:
    lines = (model_dir / "trace.tsv").read_text().splitlines()[1:]
    return [float(line.split("\t")[1]) for line in lines]


# ------------------------------------------------------------ output checks


def _read_pairs(path: Path, user_index: dict, item_index: dict) -> list[tuple[int, int]]:
    out = []
    for line in path.read_text().splitlines():
        u, i = line.split("\t")
        out.append((user_index[u], item_index[i]))
    return out


def _read_ids(path: Path) -> dict:
    ids = {}
    for line in path.read_text().splitlines():
        idx, raw = line.split("\t", 1)
        ids[raw] = int(idx)
    return ids


def recompute_recall(model_dir: Path, split_dir: Path, n: int = TOP_N) -> tuple[float, int]:
    """Mean recall@n from the saved factors and split files, independently
    of serec.metrics: test items are relevant, train and validation items
    are excluded, equal scores rank by ascending item index."""
    theta = np.loadtxt(model_dir / "theta.tsv", delimiter="\t", ndmin=2)
    beta = np.loadtxt(model_dir / "beta.tsv", delimiter="\t", ndmin=2)
    users = _read_ids(split_dir / "users.tsv")
    items = _read_ids(split_dir / "items.tsv")
    seen = [set() for _ in range(len(users))]
    for name in ("train.tsv", "validation.tsv"):
        for u, i in _read_pairs(split_dir / name, users, items):
            seen[u].add(i)
    relevant = [set() for _ in range(len(users))]
    for u, i in _read_pairs(split_dir / "test.tsv", users, items):
        relevant[u].add(i)
    recalls = []
    for u in range(len(users)):
        rel = relevant[u] - seen[u]
        if not rel:
            continue
        keep = np.ones(len(beta), dtype=bool)
        keep[list(seen[u])] = False
        candidates = np.flatnonzero(keep)  # ascending item index
        scores = (beta @ theta[u])[candidates]
        if len(candidates) > n:
            cut = np.partition(-scores, n - 1)[n - 1]
            above = candidates[-scores < cut]
            ties = candidates[-scores == cut]
            top = np.concatenate([above, ties[: n - len(above)]])
        else:
            top = candidates
        hits = len(rel.intersection(top.tolist()))
        recalls.append(hits / min(n, len(rel)))
    return float(np.mean(recalls)), len(recalls)


def check_split(fails: Failures, wl: Workload, split_dir: Path) -> None:
    """Ingest and dedup kept exactly the generated distinct clicks."""
    meta = json.loads((split_dir / "split-meta.json").read_text())
    n_split = meta["n_train"] + meta["n_validation"] + meta["n_test"]
    fails.check(
        n_split == wl.shape.n_clicks
        and (meta["n_users"], meta["n_items"]) == (wl.shape.n_users, wl.shape.n_items),
        f"split holds {n_split} pairs over {meta['n_users']}x{meta['n_items']}",
    )


def check_train(fails: Failures, wl: Workload, model_dir: Path) -> None:
    trace = read_trace(model_dir)
    fails.check(len(trace) == wl.settings["max_em_iters"], f"trace has {len(trace)} iterations")
    fails.check(all(np.isfinite(trace)), "non-finite log-likelihood in trace.tsv")
    if wl.model == "serec-boost":
        drops = [(a, b) for a, b in zip(trace, trace[1:]) if b < a - 1e-6 * abs(a)]
        fails.check(not drops, f"serec-boost trace decreased: {drops}")


def check_evaluate(fails: Failures, model_dir: Path, split_dir: Path) -> float:
    """Compare the report with the recompute; return the recall@50 it reported."""
    report = json.loads((model_dir / "report.json").read_text())
    reported = report["metrics"][f"recall@{TOP_N}"]
    mine, n_users = recompute_recall(model_dir, split_dir)
    fails.check(
        abs(mine - reported) <= 1e-12 and n_users == report["n_users_evaluated"],
        f"recall@{TOP_N} {reported!r} over {report['n_users_evaluated']} users, "
        f"recomputed {mine!r} over {n_users}",
    )
    return reported


def count_files(path: Path) -> int:
    return sum(len(files) for _, _, files in os.walk(path))


# ---------------------------------------------------------------- sampling


def measure(fails: Failures, wl: Workload, data_dir: Path, work: Path, env: dict,
            seconds: float, first_pass: int = FIRST_PASS) -> dict:
    """Untraced CLI steps in ``CYCLE`` order, each checked after it runs.

    The first ``first_pass`` steps always run.  After them the cycle goes
    on while the next step's last sample fits in what is left of
    ``seconds`` (checks included), and stops at the first that does not.
    """
    split_dir, model_dir = work / "split", work / "model"
    commands = {
        "setup_s": ["split", "--interactions", str(data_dir / "interactions.tsv"),
                    "--out-dir", str(split_dir)],
        "train_s": ["train", "--split-dir", str(split_dir), "--social", str(data_dir / "social.tsv"),
                    "--out-dir", str(model_dir), "--model", wl.model,
                    *[a for flag in wl.set_flags() for a in ("--set", flag)]],
        "evaluate_s": ["evaluate", "--model-dir", str(model_dir), "--split-dir", str(split_dir)],
    }
    samples: dict[str, list[float]] = {name: [] for name in commands}
    recalls: list[float] = []
    started = time.perf_counter()
    for n in itertools.count():
        name = CYCLE[n % len(CYCLE)]
        left = seconds - (time.perf_counter() - started)
        if n >= first_pass and samples[name][-1] > left:
            break
        samples[name].append(run_cli(fails, commands[name], env))
        if name == "setup_s":
            check_split(fails, wl, split_dir)
        elif name == "train_s":
            check_train(fails, wl, model_dir)
        else:
            recalls.append(check_evaluate(fails, model_dir, split_dir))
    medians = {name: statistics.median(values) for name, values in samples.items()}
    return {
        "samples": samples,
        **medians,
        "total_s": sum(medians.values()),
        "peak_rss_mb": children_peak_mb(),
        "recall_at_50": statistics.median(recalls),
        "trace": read_trace(model_dir),
    }


def startup_s(env: dict) -> float:
    """Seconds for a fresh interpreter to import the CLI, the fixed cost
    each untraced step pays and the in-process traced run does not."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import serec.cli"], env=env, check=True)
    return time.perf_counter() - t0


def traced_round(fails: Failures, wl: Workload, name: str, seed: int, data_dir: Path,
                 work: Path, untraced: dict, results: Path) -> dict:
    import traced

    tr, out = traced.run(f"{name}-{seed}", [f"model={wl.model}", *wl.set_flags()], data_dir, work)
    tr.write(results / f"{name}-seed{seed}-spans.jsonl")
    fails.check(out["trace"] == untraced["trace"],
                f"traced replica trace {out['trace']} != CLI trace {untraced['trace']}")
    fails.check(out["recall_at_50"] == untraced["recall_at_50"],
                f"traced recall@50 {out['recall_at_50']!r} != CLI {untraced['recall_at_50']!r}")
    return traced.layer_metrics(tr, out, wl.shape.n_clicks + wl.shape.n_duplicate_rows)


def environment(seed: int, wl: Workload) -> dict:
    import scipy

    from serec import cli

    def openblas(module) -> dict:
        """Version string and thread count of the OpenBLAS bundled with a wheel."""
        base = Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
        for lib_path in sorted(glob.glob(str(base / "*openblas*"))):
            lib = ctypes.CDLL(lib_path)
            for suffix in ("64_", ""):
                config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                if config and threads:
                    config.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
                    return {"config": config().decode(), "threads": threads()}
        return {"config": None, "threads": None}

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:  # git is not installed
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads_env": BLAS_THREADS,
        "numpy_openblas": openblas(np),
        "scipy_openblas": openblas(scipy),
        "serec_n_threads": cli.load_config(None, wl.set_flags()).train_config().n_threads,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "evaluate_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MiB",
    "recall_at_50": "ratio",
}


def layer_unit(name: str) -> str:
    for suffix, unit in (("rows_per_s", "rows/s"), ("us_per_triplet", "us"), ("us_per_user", "us"),
                         ("_mb", "MiB"), ("_s", "s"), ("dedup_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def run_all(args) -> int:
    """Every workload in turn, each in its own process; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = m
            print(f"{name}\t{metric}\t{m['value']:.6g}\t{m['unit']}")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36,
                        help="keep sampling CLI steps until this much time is measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "serec" / "cli.py").is_file():
        print(f"error: no serec sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    base = ROOT / ".bench_work"
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp_dir = work / "tmp"
    tmp_dir.mkdir(parents=True)
    env = _cli_env(tmp_dir)
    fails = Failures()
    measured: dict = {}
    layers: dict = {}
    fingerprint = None
    try:
        fingerprint = workloads.write_workload(wl.shape, args.seed, work / "inputs")
        startup_s(env)  # warm-up: compiles serec's bytecode and loads the imports once
        try:
            # the traced run needs one split, train and evaluate only, to
            # check its replica against
            measured = measure(fails, wl, work / "inputs", work, env,
                               0 if args.trace else args.seconds,
                               first_pass=len(CYCLE) if args.trace else FIRST_PASS)
        except CliError:
            pass
        if args.trace and measured:
            os.environ["TMPDIR"] = str(tmp_dir)
            tempfile.tempdir = str(tmp_dir)
            layers = traced_round(fails, wl, args.workload, args.seed, work / "inputs",
                                  work / "traced", measured, results)
            untraced = measured["total_s"] - 3 * startup_s(env)
            layers["trace.overhead_s"] = layers.pop("traced_total_s") - untraced
        left = count_files(tmp_dir)
        fails.check(left == 0, f"{left} files left in the private TMPDIR")
        layers["engine.tmp_files_left"] = left
    except Exception as exc:  # a crash is a failed operation, not a missing result
        fails.check(False, f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    if args.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in layers.items()}
    elif measured:
        metrics = {name: {"value": measured[name], "unit": unit} for name, unit in END_TO_END.items()}
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed, wl),
        "inputs": fingerprint,
        "samples": measured.get("samples"),
        "trace_tsv": measured.get("trace"),
        "failures": fails.reasons,
        "metrics": metrics,
    }
    out_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    for name, m in metrics.items():
        print(f"{name}\t{m['value']:.6g}\t{m['unit']}")
    print(f"result file: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not fails.reasons,
        "attempted": fails.attempted,
        "failed": len(fails.reasons),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

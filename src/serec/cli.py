"""Command-line front end for the full experiment cycle.

Subcommands: stats, split, train, evaluate, friend-groups, exposure-curve,
robustness, generate.  Tabular output is TSV, structured output is JSON.
Exit codes: 0 success, 1 usage error, 2 runtime failure.

Configuration precedence is command line over config file over defaults:
``--config run.json`` loads a JSON object of RunConfig fields and
``--set key=value`` (repeatable) overrides single keys.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import inspect
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from serec import data as dm
from serec import engine, metrics, synthetic
from serec.exposure import PROVIDERS

MODEL_KINDS = tuple(PROVIDERS)
TARGETS = ("test", "validation")
# the config keys that take one of a fixed set of strings
CHOICES = {"model": MODEL_KINDS, "target": TARGETS}

# glibc's mallopt parameter numbers for the size from which an allocation gets
# pages of its own and for the most malloc arenas a process uses
M_MMAP_THRESHOLD = -3
M_ARENA_MAX = -8
LARGE_ARRAY_BYTES = 16 << 20  # a sweep block's U x 512 arrays from 4096 users on


class UsageError(Exception):
    """Bad flags or config values; maps to exit code 1."""


def _provider_params(cls) -> dict:
    """A provider's keyword parameters with their defaults: its config keys."""
    params = inspect.signature(cls).parameters.values()
    return {p.name: p.default for p in params if p.default is not p.empty}


def _train_config(self) -> engine.TrainConfig:
    values = {f.name: getattr(self, f.name) for f in dataclasses.fields(engine.TrainConfig)}
    values["n_threads"] = self.n_threads or os.cpu_count() or 1
    return engine.TrainConfig(**values)


def _run_config_fields():
    """Each key once, with the default of its first consumer."""
    defaults = {f.name: f.default for f in dataclasses.fields(engine.TrainConfig)}
    defaults["n_threads"] = 0  # 0 means all available cores
    for cls in PROVIDERS.values():
        for name, default in _provider_params(cls).items():
            defaults.setdefault(name, default)
    defaults.update(model="serec-boost", cutoffs=metrics.DEFAULT_CUTOFFS, target="test")
    return [(name, type(default), default) for name, default in defaults.items()]


RunConfig = dataclasses.make_dataclass(
    "RunConfig",
    _run_config_fields(),
    namespace={
        "__doc__": "Every tunable: the fields of engine.TrainConfig, the "
        "providers' keyword parameters and the keys only the CLI reads.",
        "train_config": _train_config,
    },
)

CONFIG_KEYS = frozenset(f.name for f in dataclasses.fields(RunConfig))


def _coerce(where: str, name: str, value):
    """``value`` as config key ``name`` takes it: an integer key takes only
    integral numbers that fit in 64 bits and a float key only finite
    numbers, neither booleans.  JSON's ``NaN`` and ``Infinity`` would pass
    every range check, and numpy takes no array dimension past 64 bits."""
    if name == "cutoffs":
        text = ",".join(map(str, value)) if isinstance(value, (list, tuple)) else str(value)
        return tuple(_parse_cutoffs(text, "cutoffs"))
    default = getattr(RunConfig, name)
    if name in CHOICES and value not in CHOICES[name]:
        *rest, last = map(json.dumps, CHOICES[name])
        expects = f"{', '.join(rest)} or {last}"
        raise UsageError(f"{where}: config key {name!r} expects {expects}, got {value!r}")
    if isinstance(default, str) and (name != "refit_every" or value == "once"):
        return value
    number = value
    if isinstance(value, str):
        try:
            number = float(value)
        except ValueError:
            pass
    shown = value if isinstance(value, str) else json.dumps(value)
    if isinstance(number, (int, float)) and not isinstance(number, bool):
        if isinstance(default, float):
            try:
                number = float(number)
            except OverflowError:  # an integer past the float range
                number = math.inf
            if not math.isfinite(number):
                raise UsageError(f"{where}: config key {name!r} must be finite, got {shown!r}")
            return number
        if isinstance(number, int) or number.is_integer():
            number = int(number)
            if not -(2**63) <= number < 2**63:
                raise UsageError(f"{where}: config key {name!r} must fit in 64 bits, got {shown!r}")
            return number
    expects = "a number" if isinstance(default, float) else "an integer"
    if name == "refit_every":
        expects = '"once" or an integer'
    raise UsageError(f"{where}: config key {name!r} expects {expects}, got {shown!r}")


def _set_config(cfg: RunConfig, where: str, loaded) -> None:
    """Set each key of the JSON object ``loaded`` on ``cfg``, in order,
    checked as ``_coerce`` checks it; ``where`` names the object's file,
    or ``--set``."""
    if not isinstance(loaded, dict):
        raise UsageError(f"{where}: config must be a JSON object")
    for key, value in loaded.items():
        if key not in CONFIG_KEYS:
            raise UsageError(f"{where}: unknown config key {key!r}")
        setattr(cfg, key, _coerce(where, key, value))


def load_config(config_path: str | None, overrides: list[str] | None) -> RunConfig:
    cfg = RunConfig()
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise UsageError(f"{config_path}: not valid JSON: {exc}") from None
        _set_config(cfg, config_path, loaded)
    for item in overrides or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        _set_config(cfg, "--set", {key: value})
    return cfg


def _provider_graph(cls, y: dm.InteractionMatrix, graph: dm.SocialGraph | None):
    """The loaded graph, else an empty one unless the provider requires it."""
    if graph is not None:
        return graph
    if getattr(cls, "requires_social", False):
        raise UsageError(f"{cls.kind} requires --social")
    return dm.SocialGraph(y.n_users, np.empty((0, 2), dtype=np.int64))


def make_provider(cfg: RunConfig, y: dm.InteractionMatrix, graph: dm.SocialGraph | None):
    """Build the exposure provider for the configured model kind: each of
    the class's keyword parameters takes the config key of its name."""
    cls = PROVIDERS[cfg.model]
    kwargs = {name: getattr(cfg, name) for name in _provider_params(cls)}
    if "graph" in inspect.signature(cls).parameters:
        kwargs["graph"] = _provider_graph(cls, y, graph)
    return cls(y, **kwargs)


def load_provider(
    model_dir: str | Path, meta: dict, y: dm.InteractionMatrix, graph: dm.SocialGraph | None
):
    """The provider a model directory was trained with and the config it
    was built from by ``make_provider``, the ``config`` of its
    ``meta.json``; each array of its ``state`` is read from ``model.npz``."""
    kind = meta.get("kind")
    if kind not in PROVIDERS:
        raise ValueError(f"model directory has unknown kind {kind!r}")
    meta_path = Path(model_dir) / engine.META_NAME
    if "config" not in meta:
        raise dm.DataFormatError(f"{meta_path}: missing key 'config'")
    cfg = RunConfig()
    try:
        _set_config(cfg, str(meta_path), meta["config"])
    except UsageError as exc:  # the file is at fault, not the command line
        raise dm.DataFormatError(str(exc)) from None
    cfg.model = kind
    try:
        provider = make_provider(cfg, y, graph)
    except engine.ConfigError as exc:
        raise dm.DataFormatError(f"{meta_path}: {exc}") from None
    specs = {name: (np.float64, getattr(provider, name).shape) for name in provider.state}
    path = Path(model_dir) / engine.MODEL_NAME
    for name, array in dm.load_arrays(path, "train", specs).items():
        setattr(provider, name, array)
    return provider, cfg


def _load_graph(path: str | None, id_map: dm.IdMap) -> dm.SocialGraph | None:
    if path is None:
        return None
    graph, _ = dm.load_social(path, id_map)
    return graph


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v]
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated numbers") from None
    if not values:
        raise UsageError(f"{flag} must be a comma-separated list of numbers, got {text!r}")
    return values


def _parse_cutoffs(text: str, flag: str) -> list[int]:
    values = _parse_floats(text, flag)
    if not all(v.is_integer() and v >= 1 for v in values):
        raise UsageError(f"{flag} must be positive integers, got {text!r}")
    return [int(v) for v in values]


# ---------------------------------------------------------------- commands


def cmd_stats(args) -> int:
    y, id_map = dm.load_interactions(args.interactions, min_rating=args.min_rating)
    graph, load_stats = dm.load_social(args.social, id_map)
    report = dm.dataset_stats(y, graph)
    text = report.to_json()
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    if load_stats.n_unknown_users or load_stats.n_self_loops:
        print(
            f"dropped {load_stats.n_unknown_users} edges with unknown users, "
            f"{load_stats.n_self_loops} self-loops",
            file=sys.stderr,
        )
    return 0


def cmd_split(args) -> int:
    ratios = _parse_floats(args.ratios, "--ratios")
    if len(ratios) != 2:
        raise UsageError("--ratios expects two fractions, e.g. 0.7,0.2")
    if not (min(ratios) > 0 and sum(ratios) < 1):  # NaN fails both
        raise UsageError("--ratios must be positive and sum to less than 1")
    if not 0 <= args.seed < 2**63:  # split.npz stores it as an int64
        raise UsageError(f"--seed must be in 0..2**63 - 1, got {args.seed}")
    y, id_map = dm.load_interactions(args.interactions, min_rating=args.min_rating)
    split = dm.split_interactions(y, ratios=(ratios[0], ratios[1]), seed=args.seed)
    dm.save_split(args.out_dir, split, id_map)
    print(
        f"split {y.n_entries} interactions into "
        f"{split.train.n_entries}/{split.validation.n_entries}/{split.test.n_entries} "
        f"at {args.out_dir}"
    )
    return 0


def _train_once(cfg: RunConfig, train, graph):
    try:
        # TrainConfig first: it checks seed and init_scale, which
        # serec-regular hands to numpy as well
        train_cfg = cfg.train_config()
        provider = make_provider(cfg, train, graph)
    except engine.ConfigError as exc:  # an out-of-range value the user set
        raise UsageError(str(exc)) from None
    t0 = time.perf_counter()
    result = engine.fit(train, provider, train_cfg)
    return result, provider, time.perf_counter() - t0


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.set)
    if args.model:
        cfg.model = args.model
    split, id_map = dm.load_split(args.split_dir)
    graph = _load_graph(args.social, id_map)
    result, provider, elapsed = _train_once(cfg, split.train, graph)
    out_dir = Path(args.out_dir)
    engine.save_model(
        out_dir,
        result,
        provider,
        cfg.train_config(),
        extra_meta={"config": dataclasses.asdict(cfg) | {"cutoffs": list(cfg.cutoffs)}},
    )
    with open(out_dir / "timing.json", "w", encoding="utf-8") as fh:
        json.dump({"fit_s": elapsed}, fh, indent=2)
    ll = result.trace[-1] if result.trace else float("nan")
    print(
        f"trained {cfg.model} for {result.n_iters} iterations "
        f"(converged={result.converged}, log-likelihood {ll:.6g}) in {elapsed:.2f}s"
    )
    return 0


def _load_model(args, split: dm.DatasetSplit) -> tuple[engine.FactorModel, dict]:
    """The model in ``--model-dir`` and its meta, checked against the shape
    of ``split``, read from ``--split-dir``."""
    model, meta = engine.load_model(args.model_dir)
    if model.n_users != split.n_users or model.n_items != split.n_items:
        raise ValueError(
            f"model {Path(args.model_dir) / engine.MODEL_NAME} is {model.n_users}x{model.n_items} "
            f"but split {Path(args.split_dir) / dm.SPLIT_NAME} is {split.n_users}x{split.n_items}"
        )
    return model, meta


def _evaluate_model(args, split: dm.DatasetSplit, cutoffs, groups=None) -> metrics.EvalReport:
    """The report of the model in ``--model-dir`` on ``split``, ranked on all cores."""
    model, meta = _load_model(args, split)
    return metrics.evaluate(
        model,
        meta.get("kind"),
        split,
        cutoffs=cutoffs,
        target=args.target,
        groups=groups,
        n_threads=os.cpu_count() or 1,
    )


def cmd_evaluate(args) -> int:
    cutoffs = _parse_cutoffs(args.cutoffs, "--cutoffs")
    split, _ = dm.load_split(args.split_dir)
    report = _evaluate_model(args, split, cutoffs)
    out_dir = Path(args.out_dir) if args.out_dir else Path(args.model_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(report.to_json() + "\n", encoding="utf-8")
    (out_dir / "report.tsv").write_text(report.to_tsv(), encoding="utf-8")
    print(report.to_table())
    return 0


def cmd_friend_groups(args) -> int:
    split, id_map = dm.load_split(args.split_dir)
    graph = _load_graph(args.social, id_map)
    groups = metrics.group_by_friends(graph)
    report = _evaluate_model(args, split, cutoffs=[50], groups=groups)
    lines = ["bucket\tn_users\trecall@50"]
    for label, g in report.groups.items():
        lines.append(f"{label}\t{g['n_users']}\t{g['recall@50']:.17g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def cmd_exposure_curve(args) -> int:
    if args.bins < 1:
        raise UsageError("--bins must be >= 1")
    split, id_map = dm.load_split(args.split_dir)
    model, meta = _load_model(args, split)
    if args.user not in id_map.user_index:
        raise ValueError(f"unknown user id {args.user!r}")
    u = id_map.user_index[args.user]
    y = split.train
    graph = _load_graph(args.social, id_map)
    provider, cfg = load_provider(args.model_dir, meta, y, graph)
    post = engine.ExposurePosterior(provider, y.n_users, y.n_items, cfg.dense_budget)
    engine.e_step(y, model, provider, out=post, block_size=cfg.block_size)
    refresh = getattr(provider, "refresh_on_load", False)
    if refresh:
        # one refresh restores the training-time prior from the actual posterior
        provider.update(post, y)
    blocks = engine._iter_blocks(y.n_items, cfg.block_size)
    # copies of row u, so that no U x block prior outlives its block
    mu_user = np.concatenate([np.array(provider.mu_block(j0, j1)[u]) for j0, j1 in blocks])
    if refresh:
        # in place, as in fit: the sweep reads each block's prior before
        # overwriting that block
        engine.e_step(y, model, provider, out=post, block_size=cfg.block_size)
    p_user = np.array(post[u])
    # a no-op but for wmf, whose constant view leaves its clicks' 1 implied
    p_user[y.item_idx[y.csr_indptr[u] : y.csr_indptr[u + 1]]] = 1.0
    popularity = y.item_counts()
    edges = np.linspace(0, popularity.max() + 1, args.bins + 1)
    which = np.clip(np.digitize(popularity, edges) - 1, 0, args.bins - 1)
    lines = ["bin_lo\tbin_hi\tn_items\tmean_popularity\tmean_mu\tmean_p"]
    for b in range(args.bins):
        mask = which == b
        if not mask.any():
            continue
        lines.append(
            f"{edges[b]:.17g}\t{edges[b + 1]:.17g}\t{int(mask.sum())}\t"
            f"{popularity[mask].mean():.17g}\t{mu_user[mask].mean():.17g}\t"
            f"{p_user[mask].mean():.17g}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def cmd_robustness(args) -> int:
    cfg = load_config(args.config, args.set)
    if args.model:
        cfg.model = args.model
    keep_probs = _parse_floats(args.keep_probs, "--keep-probs")
    if any(not 0.0 <= kp <= 1.0 for kp in keep_probs):
        raise UsageError("--keep-probs values must be in [0, 1]")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    split, id_map = dm.load_split(args.split_dir)
    graph = _load_graph(args.social, id_map)
    rows = []
    for kp in keep_probs:
        pruned = dm.prune_social(graph, kp, seed=args.seed)
        # keep only the model: the fit's posterior and provider are freed here
        model = _train_once(cfg, split.train, pruned)[0].model
        report = metrics.evaluate(
            model,
            cfg.model,
            split,
            cutoffs=cfg.cutoffs,
            target=cfg.target,
            n_threads=cfg.train_config().n_threads,
        )
        rows.append((kp, report.metrics))
    names = sorted(rows[0][1])
    lines = ["keep_prob\t" + "\t".join(names)]
    for kp, vals in rows:
        lines.append(f"{kp:g}\t" + "\t".join(f"{vals[n]:.17g}" for n in names))
    ref = max(rows, key=lambda r: r[0])[1]
    low = min(rows, key=lambda r: r[0])[1]
    decay = {
        n: (ref[n] - low[n]) / ref[n] if ref[n] != 0 else 0.0 for n in names
    }
    lines.append("decay_ratio\t" + "\t".join(f"{decay[n]:.17g}" for n in names))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def cmd_generate(args) -> int:
    names = [f.name for f in dataclasses.fields(synthetic.SyntheticSpec)]
    try:
        spec = synthetic.SyntheticSpec(**{name: getattr(args, name) for name in names})
    except engine.ConfigError as exc:  # each field is the flag of its name
        raise UsageError(f"--{exc.key.replace('_', '-')} {exc.reason}") from None
    y, graph, truth = synthetic.generate(spec)
    out_dir = Path(args.out_dir)
    truth_dir = out_dir / "truth"
    truth_dir.mkdir(parents=True, exist_ok=True)
    dm.write_interactions(out_dir / "interactions.tsv", y)
    dm.write_social(out_dir / "social.tsv", graph)
    for name in ("theta", "beta", "mu"):
        dm.write_matrix(truth_dir / f"{name}.tsv", getattr(truth, name))
    np.savetxt(truth_dir / "alpha.tsv", truth.alpha.astype(int), fmt="%d", delimiter="\t")
    print(
        f"generated {y.n_entries} interactions over {spec.n_users} users x "
        f"{spec.n_items} items with {graph.n_edges} social edges at {out_dir}"
    )
    return 0


# ------------------------------------------------------------------ parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_config_flags(p):
    p.add_argument("--config", help="JSON file of config overrides")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override one config key")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="serec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="dataset statistics as JSON")
    p.add_argument("--interactions", required=True)
    p.add_argument("--social", required=True)
    p.add_argument("--min-rating", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("split", help="train/validation/test split")
    p.add_argument("--interactions", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--ratios", default="0.7,0.2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-rating", type=float, default=None)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="fit a model on a split")
    p.add_argument("--split-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--model", choices=MODEL_KINDS)
    p.add_argument("--social")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="ranking metrics for a trained model")
    p.add_argument("--model-dir", required=True)
    p.add_argument("--split-dir", required=True)
    p.add_argument("--cutoffs", default=",".join(map(str, metrics.DEFAULT_CUTOFFS)))
    p.add_argument("--target", choices=TARGETS, default="test")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("friend-groups", help="recall@50 by friend-count bucket")
    p.add_argument("--model-dir", required=True)
    p.add_argument("--split-dir", required=True)
    p.add_argument("--social", required=True)
    p.add_argument("--target", choices=TARGETS, default="test")
    p.add_argument("--out")
    p.set_defaults(func=cmd_friend_groups)

    p = sub.add_parser("exposure-curve", help="prior and posterior vs item popularity")
    p.add_argument("--model-dir", required=True)
    p.add_argument("--split-dir", required=True)
    p.add_argument("--user", required=True, help="raw user id as in the input files")
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("--social")
    p.add_argument("--out")
    p.set_defaults(func=cmd_exposure_curve)

    p = sub.add_parser("robustness", help="metric decay as social edges are pruned")
    p.add_argument("--split-dir", required=True)
    p.add_argument("--social", required=True)
    p.add_argument("--model", choices=MODEL_KINDS)
    p.add_argument("--keep-probs", default="1.0,0.6,0.2")
    p.add_argument("--seed", type=int, default=0, help="pruning seed")
    p.add_argument("--out")
    _add_config_flags(p)
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser("generate", help="sample a synthetic dataset")
    p.add_argument("--out-dir", required=True)
    for f in dataclasses.fields(synthetic.SyntheticSpec):
        p.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default), default=f.default)
    p.set_defaults(func=cmd_generate)

    return parser


def _share_one_malloc_arena() -> None:
    """Have every thread allocate from glibc's main arena (glibc only).

    By default each pool thread gets an arena of its own, and an array a
    thread frees is kept there for that thread alone.  How much the
    arenas hold at once then depends on which thread ran which item
    block: the peak RSS of one ``serec train`` on a 6000 x 2000 shard
    was 343 MiB in most runs and 363 MiB in the others.  In one arena a
    freed block is reused by the next block on any thread, and the peak
    was 333 MiB in every run.  The pool threads allocate a few large
    arrays per block, so they seldom wait for the arena's lock.
    """
    _mallopt(M_ARENA_MAX, 1)


def _map_large_arrays() -> None:
    """Give each allocation of ``LARGE_ARRAY_BYTES`` or more pages of its
    own, returned when it is freed (glibc only).  By default glibc raises
    this threshold to each large array it frees, so a sweep's later U x
    block arrays come from the heap, where a smaller array may split the
    hole a freed one leaves and the next block grows the heap by a whole
    array: on a 6000 x 2000 shard the peak RSS of one ``serec train`` was
    256-259 MiB in most runs and 278 MiB in some, and 261.4-261.8 MiB in
    every run with the threshold fixed."""
    _mallopt(M_MMAP_THRESHOLD, LARGE_ARRAY_BYTES)


def _mallopt(param: int, value: int) -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc: nothing to do
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(param, value)


def main(argv=None) -> int:
    _share_one_malloc_arena()
    _map_large_arrays()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args) or 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

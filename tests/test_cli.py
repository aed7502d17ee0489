"""End-to-end command line tests.

Every test drives cli.main(argv) in process, so exit codes, stdout and the
files each command writes are all observable without subprocesses.
"""

import dataclasses
import inspect
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from conftest import edit_npz

from serec import cli, engine, metrics, synthetic
from serec import data as dm
from serec.exposure import PROVIDERS


def run(argv):
    """Invoke the CLI, folding argparse SystemExit into a plain return code."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


FAST = ["--set", "k=3", "--set", "max_em_iters=3", "--set", "seed=1",
        "--set", "n_threads=1"]


@pytest.fixture(scope="session")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    rc = run(
        [
            "generate",
            "--out-dir", str(out),
            "--n-users", "40",
            "--n-items", "60",
            "--k", "3",
            "--social-density", "0.08",
            "--base-exposure", "0.3",
            "--s-coeff", "4.0",
            "--seed", "7",
        ]
    )
    assert rc == 0
    return out


@pytest.fixture(scope="session")
def split_dir(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("split")
    rc = run(
        [
            "split",
            "--interactions", str(dataset / "interactions.tsv"),
            "--out-dir", str(out),
            "--ratios", "0.7,0.2",
            "--seed", "3",
        ]
    )
    assert rc == 0
    return out


def _train(split_dir, out, model, social=None, extra=()):
    argv = ["train", "--split-dir", str(split_dir), "--out-dir", str(out), "--model", model]
    if social is not None:
        argv += ["--social", str(social)]
    argv += list(extra) + FAST
    return run(argv)


@pytest.fixture(scope="session")
def wmf_dir(dataset, split_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("wmf")
    assert _train(split_dir, out, "wmf") == 0
    return out


@pytest.fixture(scope="session")
def expomf_dir(dataset, split_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("expomf")
    assert _train(split_dir, out, "expomf") == 0
    return out


@pytest.fixture(scope="session")
def boost_dir(dataset, split_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("boost")
    assert _train(split_dir, out, "serec-boost", social=dataset / "social.tsv") == 0
    return out


@pytest.fixture(scope="session")
def regular_dir(dataset, split_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("regular")
    assert _train(split_dir, out, "serec-regular", social=dataset / "social.tsv",
                  extra=["--set", "k_sr=4", "--set", "n_sgd_epochs=1"]) == 0
    return out


MODEL_DIRS = {"wmf": "wmf_dir", "expomf": "expomf_dir", "serec-regular": "regular_dir",
              "serec-boost": "boost_dir"}


def _raw_user_ids(dataset):
    ids = []
    for line in (dataset / "interactions.tsv").read_text().splitlines():
        uid = line.split("\t")[0]
        if uid not in ids:
            ids.append(uid)
    return ids


# ------------------------------------------------------------------ generate


def test_generate_writes_loadable_dataset(dataset):
    y, id_map = dm.load_interactions(dataset / "interactions.tsv")
    assert y.n_entries > 50
    graph, stats = dm.load_social(dataset / "social.tsv", id_map)
    assert graph.n_edges > 0
    theta = np.loadtxt(dataset / "truth" / "theta.tsv", delimiter="\t")
    beta = np.loadtxt(dataset / "truth" / "beta.tsv", delimiter="\t")
    assert theta.shape == (40, 3)
    assert beta.shape == (60, 3)
    mu = np.loadtxt(dataset / "truth" / "mu.tsv", delimiter="\t")
    assert mu.shape == (40, 60)
    assert ((mu >= 0) & (mu <= 1)).all()
    alpha = np.loadtxt(dataset / "truth" / "alpha.tsv", delimiter="\t")
    assert set(np.unique(alpha)) <= {0.0, 1.0}


def test_generate_is_deterministic(tmp_path):
    args = ["generate", "--n-users", "15", "--n-items", "20", "--seed", "11"]
    assert run(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert run(args + ["--out-dir", str(tmp_path / "b")]) == 0
    for name in ("interactions.tsv", "social.tsv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert run(["generate", "--n-users", "15", "--n-items", "20", "--seed", "12",
                "--out-dir", str(tmp_path / "c")]) == 0
    assert (tmp_path / "a" / "interactions.tsv").read_bytes() != (
        tmp_path / "c" / "interactions.tsv"
    ).read_bytes()


def test_generate_flags_are_the_spec_fields():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    flags = {
        a.dest: (a.option_strings, a.default, a.type)
        for a in sub.choices["generate"]._actions
        if a.dest not in ("help", "out_dir")
    }
    assert flags == {
        f.name: ([f"--{f.name.replace('_', '-')}"], f.default, type(f.default))
        for f in dataclasses.fields(synthetic.SyntheticSpec)
    }


def test_generate_reports_counts(dataset, capsys, tmp_path):
    rc = run(["generate", "--out-dir", str(tmp_path), "--n-users", "10",
              "--n-items", "12", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "10 users x 12 items" in out


# --------------------------------------------------------------------- stats


def test_stats_reports_json(dataset, capsys, tmp_path):
    out_file = tmp_path / "stats.json"
    rc = run(
        [
            "stats",
            "--interactions", str(dataset / "interactions.tsv"),
            "--social", str(dataset / "social.tsv"),
            "--out", str(out_file),
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    payload = json.loads(printed)
    expected_keys = {
        "n_users", "n_items", "n_ratings", "n_social_links",
        "rating_density", "social_density", "avg_social_links", "s_impact",
    }
    assert set(payload) == expected_keys
    y, id_map = dm.load_interactions(dataset / "interactions.tsv")
    assert payload["n_users"] == y.n_users
    assert payload["n_ratings"] == y.n_entries
    assert payload["rating_density"] == pytest.approx(
        y.n_entries / (y.n_users * y.n_items)
    )
    assert json.loads(out_file.read_text()) == payload


def test_stats_notes_dropped_edges_on_stderr(dataset, capsys, tmp_path):
    social = tmp_path / "social.tsv"
    users = _raw_user_ids(dataset)
    social.write_text(f"{users[0]}\t{users[1]}\n{users[0]}\t{users[0]}\nghost\t{users[1]}\n")
    rc = run(["stats", "--interactions", str(dataset / "interactions.tsv"),
              "--social", str(social)])
    assert rc == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["n_social_links"] == 1
    assert "dropped 1 edges with unknown users, 1 self-loops" in err


def test_stats_missing_file_exits_2(tmp_path, capsys):
    rc = run(["stats", "--interactions", str(tmp_path / "nope.tsv"),
              "--social", str(tmp_path / "also-nope.tsv")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# --------------------------------------------------------------------- split


def test_split_writes_directory(dataset, split_dir):
    for name in ("train.tsv", "validation.tsv", "test.tsv",
                 "users.tsv", "items.tsv", "split-meta.json", "split.npz"):
        assert (split_dir / name).exists()
    meta = json.loads((split_dir / "split-meta.json").read_text())
    assert meta["ratios"] == [0.7, 0.2]
    assert meta["seed"] == 3
    total = meta["n_train"] + meta["n_validation"] + meta["n_test"]
    y, _ = dm.load_interactions(dataset / "interactions.tsv")
    assert total == y.n_entries
    split, _ = dm.load_split(split_dir)
    assert split.train.n_entries == meta["n_train"]
    assert split.test.n_entries == meta["n_test"]


def test_split_prints_summary(dataset, tmp_path, capsys):
    rc = run(["split", "--interactions", str(dataset / "interactions.tsv"),
              "--out-dir", str(tmp_path / "s")])
    assert rc == 0
    line = capsys.readouterr().out
    assert "split" in line and "interactions into" in line


def test_split_rejects_single_ratio(dataset, tmp_path, capsys):
    rc = run(["split", "--interactions", str(dataset / "interactions.tsv"),
              "--out-dir", str(tmp_path / "s"), "--ratios", "0.7"])
    assert rc == 1
    assert "two fractions" in capsys.readouterr().err


def test_split_rejects_overfull_ratios(dataset, tmp_path):
    rc = run(["split", "--interactions", str(dataset / "interactions.tsv"),
              "--out-dir", str(tmp_path / "s"), "--ratios", "0.9,0.9"])
    assert rc == 1


def test_split_invalid_utf8_exits_2_naming_file_and_line(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_bytes(b"u1\ti1\nu2\xff\ti2\n")
    rc = run(["split", "--interactions", str(bad), "--out-dir", str(tmp_path / "s")])
    assert rc == 2
    assert f"{bad}:2: not valid UTF-8" in capsys.readouterr().err


def test_crlf_dataset_gives_byte_identical_outputs(dataset, tmp_path):
    crlf = tmp_path / "crlf-data"
    crlf.mkdir()
    for name in ("interactions.tsv", "social.tsv"):
        text = (dataset / name).read_bytes()
        assert b"\r" not in text
        (crlf / name).write_bytes(text.replace(b"\n", b"\r\n"))
    for source, data in (("lf", dataset), ("crlf", crlf)):
        split, model = tmp_path / source / "split", tmp_path / source / "model"
        assert run(["split", "--interactions", str(data / "interactions.tsv"),
                    "--out-dir", str(split)]) == 0
        assert _train(split, model, "serec-boost", social=data / "social.tsv") == 0
        assert run(["evaluate", "--model-dir", str(model), "--split-dir", str(split)]) == 0
    outputs = [f"split/{f.name}" for f in (tmp_path / "lf" / "split").iterdir()]
    outputs += [f"model/{name}" for name in ("theta.tsv", "beta.tsv", "trace.tsv", "report.json")]
    for name in outputs:
        assert (tmp_path / "lf" / name).read_bytes() == (tmp_path / "crlf" / name).read_bytes()


# --------------------------------------------------------------------- train


def test_train_writes_model_dir(wmf_dir):
    for name in ("meta.json", "model.npz", "theta.tsv", "beta.tsv", "trace.tsv", "timing.json"):
        assert (wmf_dir / name).exists()
    meta = json.loads((wmf_dir / "meta.json").read_text())
    assert meta["kind"] == "wmf"
    assert meta["k"] == 3
    assert meta["config"]["model"] == "wmf"
    timing = json.loads((wmf_dir / "timing.json").read_text())
    assert list(timing) == ["fit_s"]
    assert timing["fit_s"] > 0.0


def test_train_prints_progress(split_dir, tmp_path, capsys):
    assert _train(split_dir, tmp_path / "m", "wmf") == 0
    out = capsys.readouterr().out
    assert "trained wmf" in out and "log-likelihood" in out


def test_train_regular_requires_social(split_dir, tmp_path, capsys):
    rc = _train(split_dir, tmp_path / "m", "serec-regular")
    assert rc == 1
    assert "--social" in capsys.readouterr().err


def test_train_regular_with_social(dataset, split_dir, tmp_path):
    rc = _train(
        split_dir, tmp_path / "m", "serec-regular",
        social=dataset / "social.tsv",
        extra=["--set", "k_sr=4", "--set", "n_sgd_epochs=2"],
    )
    assert rc == 0
    meta = json.loads((tmp_path / "m" / "meta.json").read_text())
    assert meta["kind"] == "serec-regular"


def test_train_rejects_unknown_config_key(split_dir, tmp_path, capsys):
    rc = run(["train", "--split-dir", str(split_dir), "--out-dir", str(tmp_path / "m"),
              "--model", "wmf", "--set", "granularity=9"])
    assert rc == 1
    assert "unknown config key" in capsys.readouterr().err


def test_train_rejects_malformed_set(split_dir, tmp_path, capsys):
    rc = run(["train", "--split-dir", str(split_dir), "--out-dir", str(tmp_path / "m"),
              "--model", "wmf", "--set", "k3"])
    assert rc == 1
    assert "key=value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "setting, expects",
    [
        ("k=abc", "an integer"),
        ("k=3.7", "an integer"),
        ("k=true", "an integer"),
        ("lambda_y=true", "a number"),
        ("refit_every=2.5", '"once" or an integer'),
    ],
)
def test_train_rejects_set_value_of_wrong_type(split_dir, tmp_path, capsys, setting, expects):
    rc = run(["train", "--split-dir", str(split_dir), "--out-dir", str(tmp_path / "m"),
              "--model", "wmf", "--set", setting])
    assert rc == 1
    key, raw = setting.split("=")
    assert f"--set: config key '{key}' expects {expects}, got '{raw}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"k": 3.7}, "config key 'k' expects an integer, got '3.7'"),
        ({"max_em_iters": True}, "config key 'max_em_iters' expects an integer, got 'true'"),
        ({"lambda_y": "x"}, "config key 'lambda_y' expects a number, got 'x'"),
        ({"seed": [1]}, "config key 'seed' expects an integer, got '[1]'"),
    ],
    ids=["float-for-int", "bool-for-int", "string-for-float", "list-for-int"],
)
def test_train_rejects_config_value_of_wrong_type(split_dir, tmp_path, capsys, settings, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(settings))
    rc = run(["train", "--split-dir", str(split_dir), "--out-dir", str(tmp_path / "m"),
              "--model", "wmf", "--config", str(cfg_path)])
    assert rc == 1
    assert f"{cfg_path}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "model, setting, reason",
    [
        ("wmf", "k=0", "must be positive"),
        ("wmf", "n_threads=-1", "must be >= 1"),
        ("wmf", "mu_unobserved=2", "must be in (0, 1]"),
        ("serec-boost", "s_coeff=0.5", "must be >= 1"),
        ("serec-regular", "n_sgd_epochs=-1", "must be >= 0"),
        ("serec-regular", "learning_rate=-1", "must be positive"),
        ("serec-regular", "lambda_sr=-5", "must be >= 0"),
        ("serec-regular", "lambda_gamma=-1", "must be >= 0"),
        ("wmf", "seed=-1", "must be >= 0"),
        ("serec-regular", "seed=-1", "must be >= 0"),
        ("serec-regular", "init_scale=-1", "must be positive"),
    ],
)
def test_train_rejects_out_of_range_value_naming_its_key(
    dataset, split_dir, tmp_path, capsys, model, setting, reason
):
    # a bad value is a usage error (exit 1) from TrainConfig and the
    # providers alike; data faults keep exit 2
    rc = run(["train", "--split-dir", str(split_dir), "--out-dir", str(tmp_path / "m"),
              "--model", model, "--social", str(dataset / "social.tsv"),
              "--set", "max_em_iters=1", "--set", setting])
    assert rc == 1
    key = setting.split("=")[0]
    assert f"error: config key '{key}' {reason}" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


PAST_FLOAT_RANGE = "1" + "0" * 400  # an integer that float() cannot hold


@pytest.mark.parametrize("setting", ["lambda_y=NaN", "s_coeff=NaN", "convergence_tol=nan",
                                     "alpha1=Infinity", "init_scale=-Infinity", "lambda_y=inf",
                                     pytest.param(f"lambda_y={PAST_FLOAT_RANGE}",
                                                  id="lambda_y=past-float-range")])
def test_train_rejects_non_finite_set_value_naming_its_key(
    dataset, split_dir, tmp_path, capsys, setting
):
    rc = run(["train", "--split-dir", str(split_dir), "--out-dir", str(tmp_path / "m"),
              "--social", str(dataset / "social.tsv"), "--set", setting])
    assert rc == 1
    key, raw = setting.split("=")
    assert f"--set: config key '{key}' must be finite, got '{raw}'" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("raw", ["NaN", PAST_FLOAT_RANGE], ids=["nan", "past-float-range"])
def test_train_rejects_non_finite_config_value_naming_the_file(split_dir, tmp_path, capsys, raw):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(f'{{"lambda_theta": {raw}}}')
    rc = run(["train", "--split-dir", str(split_dir), "--out-dir", str(tmp_path / "m"),
              "--model", "wmf", "--config", str(cfg_path)])
    assert rc == 1
    assert f"{cfg_path}: config key 'lambda_theta' must be finite, got '{raw}'" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("raw", ["1e30", PAST_FLOAT_RANGE, "9223372036854775808"],
                         ids=["1e30", "past-float-range", "2**63"])
def test_train_rejects_integer_past_64_bits_naming_its_key(split_dir, tmp_path, capsys, raw):
    # numpy would take k as an array dimension and fail with exit 2
    rc = run(["train", "--split-dir", str(split_dir), "--out-dir", str(tmp_path / "m"),
              "--model", "wmf", "--set", f"k={raw}"])
    assert rc == 1
    # the message shows the value as JSON spells it: 1e30 as 1e+30
    assert "--set: config key 'k' must fit in 64 bits, got '" in capsys.readouterr().err
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(f'{{"seed": {raw}}}')
    rc = run(["train", "--split-dir", str(split_dir), "--out-dir", str(tmp_path / "m"),
              "--model", "wmf", "--config", str(cfg_path)])
    assert rc == 1
    assert f"{cfg_path}: config key 'seed' must fit in 64 bits, got '" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()
    assert cli.load_config(None, [f"k={2**63 - 1}"]).k == 2**63 - 1


def test_config_takes_integral_numbers_for_integer_keys():
    cfg = cli.load_config(None, ["k=3.0", "lambda_y=1", "refit_every=2", "seed=1e3"])
    assert (cfg.k, cfg.lambda_y, cfg.refit_every, cfg.seed) == (3, 1.0, 2, 1000)
    assert type(cfg.k) is int and type(cfg.lambda_y) is float and type(cfg.seed) is int


def test_meta_config_retrains_byte_identical(dataset, split_dir, tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    social = dataset / "social.tsv"
    assert _train(split_dir, first, "serec-regular", social=social,
                  extra=["--set", "k_sr=4", "--set", "n_sgd_epochs=2"]) == 0
    config = json.loads((first / "meta.json").read_text())["config"]
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    assert run(["train", "--split-dir", str(split_dir), "--out-dir", str(second),
                "--social", str(social), "--config", str(cfg_path)]) == 0
    assert json.loads((second / "meta.json").read_text())["config"] == config
    for name in ("theta.tsv", "beta.tsv", "trace.tsv"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_train_config_file_with_set_override(split_dir, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"k": 2, "max_em_iters": 2, "seed": 9}))
    out = tmp_path / "m"
    rc = run(["train", "--split-dir", str(split_dir), "--out-dir", str(out),
              "--model", "wmf", "--config", str(cfg_path),
              "--set", "k=4", "--set", "n_threads=1"])
    assert rc == 0
    meta = json.loads((out / "meta.json").read_text())
    # --set wins over the file; untouched file keys survive
    assert meta["k"] == 4
    assert meta["config"]["max_em_iters"] == 2
    assert meta["seed"] == 9


@pytest.mark.parametrize(
    "key, choices",
    [
        ("target", '"test" or "validation"'),
        ("model", '"wmf", "expomf", "serec-regular" or "serec-boost"'),
    ],
)
@pytest.mark.parametrize("command", ["train", "robustness"])
def test_value_outside_a_keys_choices_is_a_usage_error_naming_where_it_was_set(
    dataset, split_dir, tmp_path, capsys, command, key, choices
):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({key: "training"}))
    argv = {
        "train": ["train", "--split-dir", str(split_dir), "--out-dir", str(tmp_path / "m")],
        "robustness": ["robustness", "--split-dir", str(split_dir),
                       "--social", str(dataset / "social.tsv"), "--out", str(tmp_path / "rob.tsv")],
    }[command]
    assert run(argv + ["--set", f"{key}=bogus"]) == 1
    err = capsys.readouterr().err
    assert f"--set: config key '{key}' expects {choices}, got 'bogus'" in err
    assert run(argv + ["--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert f"{cfg_path}: config key '{key}' expects {choices}, got 'training'" in err
    assert not (tmp_path / "m").exists() and not (tmp_path / "rob.tsv").exists()
    assert cli.load_config(None, ["target=validation"]).target == "validation"


def test_set_flags_are_checked_in_command_line_order():
    with pytest.raises(cli.UsageError, match="'model' expects"):
        cli.load_config(None, ["model=svd", "model=wmf"])  # a later value does not mask it
    with pytest.raises(cli.UsageError, match="'model' expects"):
        cli.load_config(None, ["model=svd", "granularity=9"])
    with pytest.raises(cli.UsageError, match="unknown config key 'granularity'"):
        cli.load_config(None, ["granularity=9", "model=svd"])
    assert cli.load_config(None, ["model=wmf", "model=expomf"]).model == "expomf"


def test_train_config_must_be_object(split_dir, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("[1, 2]")
    rc = run(["train", "--split-dir", str(split_dir), "--out-dir", str(tmp_path / "m"),
              "--model", "wmf", "--config", str(cfg_path)])
    assert rc == 1
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "robustness"])
def test_config_that_is_not_json_is_a_usage_error(dataset, split_dir, tmp_path, capsys, command):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"k": 3,\n}')
    argv = [command, "--split-dir", str(split_dir), "--social", str(dataset / "social.tsv"),
            "--config", str(cfg_path)]
    if command == "train":
        argv += ["--out-dir", str(tmp_path / "m")]
    rc = run(argv)
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{cfg_path}: not valid JSON: " in err
    assert "line 2 column 1" in err


# ------------------------------------------------------------------ evaluate


def test_evaluate_writes_reports(wmf_dir, split_dir, capsys):
    rc = run(["evaluate", "--model-dir", str(wmf_dir), "--split-dir", str(split_dir)])
    assert rc == 0
    report = json.loads((wmf_dir / "report.json").read_text())
    expected = {f"{m}@{c}" for m in ("recall", "map", "ndcg") for c in (10, 50, 100)}
    assert set(report["metrics"]) == expected
    assert all(0.0 <= v <= 1.0 for v in report["metrics"].values())
    assert report["n_users_evaluated"] > 0
    assert report["model_kind"] == "wmf"
    tsv = (wmf_dir / "report.tsv").read_text()
    assert tsv.splitlines()[0].startswith("metric")
    table = capsys.readouterr().out
    assert "recall@10" in table


def test_evaluate_custom_cutoffs(wmf_dir, split_dir, tmp_path):
    out = tmp_path / "r"
    rc = run(["evaluate", "--model-dir", str(wmf_dir), "--split-dir", str(split_dir),
              "--cutoffs", "5,7", "--out-dir", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report["metrics"]) == {
        "recall@5", "recall@7", "map@5", "map@7", "ndcg@5", "ndcg@7"
    }


def test_evaluate_validation_target(wmf_dir, split_dir, tmp_path):
    out = tmp_path / "r"
    rc = run(["evaluate", "--model-dir", str(wmf_dir), "--split-dir", str(split_dir),
              "--target", "validation", "--out-dir", str(out)])
    assert rc == 0
    assert json.loads((out / "report.json").read_text())["target"] == "validation"


def test_evaluate_rejects_bad_cutoffs(wmf_dir, split_dir, capsys):
    rc = run(["evaluate", "--model-dir", str(wmf_dir), "--split-dir", str(split_dir),
              "--cutoffs", "ten"])
    assert rc == 1
    assert "comma-separated numbers" in capsys.readouterr().err


@pytest.mark.parametrize("cutoffs", ["10.7", "0", "-5", "10,0"])
def test_evaluate_cutoffs_must_be_positive_integers(wmf_dir, split_dir, tmp_path, capsys, cutoffs):
    # 10.7 used to report @10; 0 and -5 exited 2 from inside evaluate
    rc = run(["evaluate", "--model-dir", str(wmf_dir), "--split-dir", str(split_dir),
              "--cutoffs", cutoffs, "--out-dir", str(tmp_path / "r")])
    assert rc == 1
    assert "--cutoffs must be positive integers" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_config_cutoffs_must_be_positive_integers():
    # train records them and robustness evaluates them; 10.7 used to become
    # 10, and a single value (JSON-decoded to a number) raised TypeError
    assert cli.load_config(None, ["cutoffs=5,20"]).cutoffs == (5, 20)
    assert cli.load_config(None, ["cutoffs=50"]).cutoffs == (50,)
    for bad in ("10.7", "0", "-5"):
        with pytest.raises(cli.UsageError, match="cutoffs must be positive integers"):
            cli.load_config(None, [f"cutoffs={bad}"])


def _run_python(code: str) -> None:
    """Run ``code`` in a fresh interpreter that imports this checkout's serec."""
    src = Path(cli.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path), check=True)


SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_cli_import_does_not_load_scipy_stats():
    # scipy.stats costs about a second of every CLI process's start-up, and
    # scipy.sparse a quarter of one; only the sparse products import it
    _run_python(f"import serec.cli, sys; loaded = {SCIPY_LOADED}; assert not loaded, loaded")


def test_no_command_but_serec_boost_loads_scipy(dataset, wmf_dir, tmp_path):
    # the factor solves read the clicks from InteractionMatrix's own index
    # arrays; only serec-boost's prior multiplies sparse matrices
    split, out = tmp_path / "split", tmp_path / "out"
    social = str(dataset / "social.tsv")
    train = ["train", "--split-dir", str(split), "--social", social, *FAST, "--out-dir"]
    argv = [
        ["split", "--interactions", str(dataset / "interactions.tsv"), "--out-dir", str(split),
         "--seed", "3"],
        ["evaluate", "--model-dir", str(wmf_dir), "--split-dir", str(split), "--out-dir", str(out)],
        ["friend-groups", "--model-dir", str(wmf_dir), "--split-dir", str(split),
         "--social", social],
        *[[*train, str(tmp_path / kind), "--model", kind]
          for kind in ("wmf", "expomf", "serec-regular")],
        ["exposure-curve", "--model-dir", str(tmp_path / "serec-regular"), "--split-dir",
         str(split), "--social", social, "--user", _raw_user_ids(dataset)[0]],
    ]
    boost = [*train, str(tmp_path / "serec-boost"), "--model", "serec-boost"]
    _run_python(
        "import sys\n"
        "from serec import cli\n"
        f"for argv in {argv!r}:\n"
        "    assert cli.main(argv) == 0, argv\n"
        f"loaded = {SCIPY_LOADED}\n"
        "assert not loaded, loaded\n"
        f"assert cli.main({boost!r}) == 0\n"
        f"assert {SCIPY_LOADED}\n"
    )
    assert json.loads((out / "report.json").read_text())["n_users_evaluated"] > 0


def test_evaluate_report_does_not_depend_on_the_core_count(
    wmf_dir, split_dir, tmp_path, monkeypatch
):
    used, evaluate = [], metrics.evaluate

    def spy(*args, **kwargs):
        used.append(kwargs["n_threads"])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(metrics, "evaluate", spy)
    reports = []
    for cores in (1, 4):
        monkeypatch.setattr(os, "cpu_count", lambda cores=cores: cores)
        out = tmp_path / f"cores{cores}"
        assert run(["evaluate", "--model-dir", str(wmf_dir), "--split-dir", str(split_dir),
                    "--out-dir", str(out)]) == 0
        reports.append((out / "report.json").read_bytes())
    assert used == [1, 4]
    assert reports[0] == reports[1]


glibc_on_linux = pytest.mark.skipif(
    not sys.platform.startswith("linux") or not hasattr(os, "confstr")
    or "glibc" not in (os.confstr("CS_GNU_LIBC_VERSION") or ""),
    reason="mallopt and /proc/self/statm are glibc on Linux",
)


@glibc_on_linux
@pytest.mark.parametrize("shared, kept_mib", [(False, 40), (True, 20)])
def test_one_malloc_arena_reuses_what_another_thread_freed(shared, kept_mib):
    # two live threads each allocate and free a 20 MiB array three times;
    # with an arena per thread each keeps its own freed array, which made
    # the peak RSS of `serec train` depend on which thread ran which block
    _run_python(
        "import os, threading\n"
        "import numpy as np\n"
        "from serec import cli\n"
        f"if {shared}:\n"
        "    cli._share_one_malloc_arena()\n"
        "def rss_mib():\n"
        "    with open('/proc/self/statm') as f:\n"
        "        return int(f.read().split()[1]) * os.sysconf('SC_PAGE_SIZE') / 2**20\n"
        "def churn():\n"
        "    for _ in range(3):\n"
        "        np.ones(20 * 2**20 // 8)\n"
        "first_done, release = threading.Event(), threading.Event()\n"
        "def first():\n"
        "    churn()\n"
        "    first_done.set()\n"
        "    release.wait()\n"
        "base = rss_mib()\n"
        "a = threading.Thread(target=first)\n"
        "a.start()\n"
        "first_done.wait()\n"
        "b = threading.Thread(target=churn)\n"
        "b.start()\n"
        "b.join()\n"
        "kept = rss_mib() - base\n"
        "release.set()\n"
        "a.join()\n"
        f"assert abs(kept - {kept_mib}) < 2, kept\n"
    )


def test_main_shares_one_malloc_arena(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(cli, "_share_one_malloc_arena", lambda: calls.append(1))
    run(["stats", "--interactions", str(tmp_path / "nope.tsv")])
    assert calls == [1]


@glibc_on_linux
@pytest.mark.parametrize("mapped, kept_mib", [(False, 20), (True, 0)])
def test_a_freed_large_array_gives_its_pages_back(mapped, kept_mib):
    # a 20 MiB array allocated and freed three times; by default glibc
    # serves the second from the heap once it has unmapped the first, and
    # the heap keeps those pages, where a smaller array may split them
    _run_python(
        "import os\n"
        "import numpy as np\n"
        "from serec import cli\n"
        f"if {mapped}:\n"
        "    cli._map_large_arrays()\n"
        "def rss_mib():\n"
        "    with open('/proc/self/statm') as f:\n"
        "        return int(f.read().split()[1]) * os.sysconf('SC_PAGE_SIZE') / 2**20\n"
        "base = rss_mib()\n"
        "for _ in range(3):\n"
        "    np.ones(20 * 2**20 // 8)\n"
        "kept = rss_mib() - base\n"
        f"assert abs(kept - {kept_mib}) < 2, kept\n"
    )


def test_main_maps_large_arrays_on_their_own(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(cli, "_map_large_arrays", lambda: calls.append(1))
    run(["stats", "--interactions", str(tmp_path / "nope.tsv")])
    assert calls == [1]


@pytest.mark.parametrize(
    "command, case",
    [(command, case) for case in ("other-split", "missing-row")
     for command in ("evaluate", "friend-groups", "exposure-curve")],
    ids=["evaluate", "friend-groups", "exposure-curve",
         "evaluate-missing-row", "friend-groups-missing-row", "exposure-curve-missing-row"],
)
def test_model_of_another_shape_than_the_split_exits_2_naming_both(
    dataset, wmf_dir, split_dir, tmp_path, capsys, command, case
):
    model_dir = tmp_path / "model"
    shutil.copytree(wmf_dir, model_dir)
    if case == "missing-row":  # theta and beta still agree on k
        edit_npz(model_dir / "model.npz", lambda a: a.update(theta=a["theta"][1:]))
        data_dir = dataset
    else:
        data_dir, split_dir = tmp_path / "d", tmp_path / "s"
        assert run(["generate", "--out-dir", str(data_dir), "--n-users", "30",
                    "--n-items", "25", "--seed", "2"]) == 0
        assert run(["split", "--interactions", str(data_dir / "interactions.tsv"),
                    "--out-dir", str(split_dir)]) == 0
    with np.load(model_dir / "model.npz") as npz:
        n_users, n_items = len(npz["theta"]), len(npz["beta"])
    split, ids = dm.load_split(split_dir)
    argv = [command, "--model-dir", str(model_dir), "--split-dir", str(split_dir)]
    if command != "evaluate":
        argv += ["--social", str(data_dir / "social.tsv")]
    if command == "exposure-curve":
        argv += ["--user", ids.users[0]]
    assert run(argv) == 2
    assert (
        f"error: model {model_dir / 'model.npz'} is {n_users}x{n_items} "
        f"but split {split_dir / 'split.npz'} is {split.n_users}x{split.n_items}"
    ) in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda a: a.update(test_user=a["test_user"][:5]),
         "split.npz: array 'test_item' has shape ({n_test},), but array 'test_user' has shape (5,)"),
        (lambda a: a["test_item"].__setitem__(0, 60),
         "split.npz: array 'test_item' holds index 60 at position 0, outside 0..59"),
        (lambda a: a.pop("train_user"), "split.npz: no array 'train_user'"),
        # the split.npz an older serec wrote: index arrays alone
        (lambda a: [a.pop(name) for name in ("users", "items", "seed", "ratios")],
         "split.npz: no array 'users' (files from an older serec lack it); "
         "run serec split again"),
    ],
    ids=["short", "out-of-range", "missing-array", "older-split"],
)
def test_evaluate_malformed_split_npz_exits_2_naming_file_and_array(
    wmf_dir, split_dir, tmp_path, capsys, edit, message
):
    bad = tmp_path / "split"
    shutil.copytree(split_dir, bad)
    edit_npz(bad / "split.npz", edit)
    n_test = json.loads((bad / "split-meta.json").read_text())["n_test"]
    rc = run(["evaluate", "--model-dir", str(wmf_dir), "--split-dir", str(bad)])
    assert rc == 2
    assert str(bad / message.format(n_test=n_test)) in capsys.readouterr().err


@pytest.mark.parametrize(
    "directory, name, command",
    [("split", "split.npz", "split"), ("model", "model.npz", "train")],
)
def test_evaluate_without_npz_exits_2_saying_to_run_again(
    wmf_dir, split_dir, tmp_path, capsys, directory, name, command
):
    dirs = {"split": tmp_path / "split", "model": tmp_path / "model"}
    shutil.copytree(split_dir, dirs["split"])
    shutil.copytree(wmf_dir, dirs["model"])
    (dirs[directory] / name).unlink()
    rc = run(["evaluate", "--model-dir", str(dirs["model"]), "--split-dir", str(dirs["split"])])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{dirs[directory] / name} is missing" in err
    assert f"run serec {command} again" in err


def test_split_and_factor_tsvs_agree_with_the_npz_files(split_dir, request):
    """The edge lists and factor TSVs serec writes but never reads back hold
    what split.npz and model.npz hold."""
    split, ids = dm.load_split(split_dir)
    with np.load(split_dir / "split.npz") as npz:
        for part in dm.SPLIT_PARTS:
            y, raw = dm.load_interactions(split_dir / f"{part}.tsv")
            users = np.array([ids.user_index[u] for u in raw.users])
            items = np.array([ids.item_index[i] for i in raw.items])
            pairs = np.column_stack([users[y.user_idx], items[y.item_idx]])
            back = dm.InteractionMatrix(split.n_users, split.n_items, pairs)
            assert np.array_equal(back.user_idx, npz[f"{part}_user"])
            assert np.array_equal(back.item_idx, npz[f"{part}_item"])
            assert back.n_entries == getattr(split, part).n_entries
    for fixture in MODEL_DIRS.values():
        model_dir = request.getfixturevalue(fixture)
        with np.load(model_dir / "model.npz") as npz:
            for name in ("theta", "beta"):
                text = np.loadtxt(model_dir / f"{name}.tsv", delimiter="\t", ndmin=2)
                assert text.tobytes() == npz[name].tobytes(), (fixture, name)


def test_no_provider_state_is_named_like_a_factor():
    for cls in PROVIDERS.values():
        assert not {"theta", "beta"} & set(cls.state), cls.kind


def test_evaluate_invalid_utf8_id_array_exits_2_naming_file_and_array(
    wmf_dir, split_dir, tmp_path, capsys
):
    bad = tmp_path / "split"
    shutil.copytree(split_dir, bad)
    with np.load(bad / "split.npz") as npz:
        at = np.flatnonzero(npz["users"] == ord("\n"))[0] + 1  # the second id's first byte
    edit_npz(bad / "split.npz", lambda a: a["users"].__setitem__(at, 0xFF))
    rc = run(["evaluate", "--model-dir", str(wmf_dir), "--split-dir", str(bad)])
    assert rc == 2
    assert (
        f"{bad / 'split.npz'}: array 'users' is not valid UTF-8 "
        f"(byte 0xff at position {at}: invalid start byte)"
    ) in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, edit, message",
    [
        ("model.npz", lambda a: a.pop("theta"), "model.npz: no array 'theta'"),
        ("model.npz", lambda a: a.update(beta=a["beta"].astype(object)),
         "model.npz: array 'beta': Object arrays cannot be loaded"),
        ("model.npz", lambda a: a.update(theta=a["theta"].astype(np.float32)),
         "model.npz: array 'theta' is float32, expected float64"),
        ("model.npz", lambda a: a.update(theta=a["theta"].ravel()),
         "model.npz: array 'theta' has shape (120,), expected (n, n)"),
        ("model.npz", lambda a: a.update(beta=np.hstack([a["beta"], np.zeros((60, 2))])),
         "model.npz: array 'beta' has shape (60, 5), but array 'theta' has shape (40, 3)"),
        ("model.npz", lambda a: a["theta"].__setitem__((3, 0), np.nan),
         "model.npz: array 'theta' holds nan at position (3, 0), not a finite number"),
        ("model.npz", lambda a: a["beta"].__setitem__((5, 1), np.inf),
         "model.npz: array 'beta' holds inf at position (5, 1), not a finite number"),
        ("meta.json", lambda t: t[: len(t) // 2], "meta.json: not valid JSON: "),
        ("meta.json", lambda t: "[]", "meta.json: expected a JSON object"),
        ("meta.json", lambda t: t.replace('"lambda_y"', '"lambda_y_"'),
         "meta.json: missing key 'lambda_y'"),
        ("meta.json", lambda t: t.replace('"lambda_y": 0.01', '"lambda_y": -1'),
         "meta.json: precision 'lambda_y' must be a finite positive number, got -1"),
        ("meta.json", lambda t: t.replace('"lambda_y": 0.01', '"lambda_y": Infinity'),
         "meta.json: precision 'lambda_y' must be a finite positive number, got inf"),
        ("meta.json", lambda t: t.replace('"lambda_y": 0.01', '"lambda_y": 1e400'),
         "meta.json: precision 'lambda_y' must be a finite positive number, got inf"),
        ("meta.json", lambda t: t.replace('"lambda_y": 0.01', '"lambda_y": true'),
         "meta.json: precision 'lambda_y' must be a finite positive number, got True"),
    ],
    ids=["no-theta", "object-beta", "float32-theta", "flat-theta", "wide-beta",
         "nan-theta", "inf-beta", "truncated-meta",
         "meta-not-an-object", "meta-missing-key", "meta-bad-precision",
         "meta-infinite-precision", "meta-overflowing-precision", "meta-bool-precision"],
)
def test_evaluate_malformed_model_exits_2_naming_the_file(
    wmf_dir, split_dir, tmp_path, capsys, name, edit, message
):
    bad = tmp_path / "model"
    shutil.copytree(wmf_dir, bad)
    if name == "model.npz":
        edit_npz(bad / name, edit)
    else:
        (bad / name).write_text(edit((bad / name).read_text()))
    rc = run(["evaluate", "--model-dir", str(bad), "--split-dir", str(split_dir)])
    assert rc == 2
    assert str(bad / message) in capsys.readouterr().err


# ------------------------------------------------------------- friend-groups


def test_friend_groups_table(dataset, boost_dir, split_dir, tmp_path, capsys):
    out_file = tmp_path / "groups.tsv"
    rc = run(["friend-groups", "--model-dir", str(boost_dir),
              "--split-dir", str(split_dir),
              "--social", str(dataset / "social.tsv"),
              "--out", str(out_file)])
    assert rc == 0
    text = out_file.read_text()
    assert capsys.readouterr().out == text
    lines = text.splitlines()
    assert lines[0] == "bucket\tn_users\trecall@50"
    assert len(lines) > 1
    seen = []
    total_users = 0
    for line in lines[1:]:
        label, n_users, recall = line.split("\t")
        assert label in ("0", "1-5", "6-15", "15+")
        assert int(n_users) > 0
        total_users += int(n_users)
        assert 0.0 <= float(recall) <= 1.0
        seen.append(label)
    assert seen == sorted(seen, key=("0", "1-5", "6-15", "15+").index)
    assert total_users <= 40


def test_friend_groups_loads_the_split_once(dataset, boost_dir, split_dir, monkeypatch):
    calls, load_split = [], dm.load_split

    def counted(in_dir):
        calls.append(in_dir)
        return load_split(in_dir)

    monkeypatch.setattr(dm, "load_split", counted)
    assert run(["friend-groups", "--model-dir", str(boost_dir), "--split-dir", str(split_dir),
                "--social", str(dataset / "social.tsv")]) == 0
    assert calls == [str(split_dir)]


# ------------------------------------------------------------ exposure-curve


def test_exposure_curve_popularity_prior_is_user_invariant(
    dataset, expomf_dir, split_dir, tmp_path
):
    users = _raw_user_ids(dataset)[:2]
    curves = []
    for idx, uid in enumerate(users):
        out_file = tmp_path / f"curve{idx}.tsv"
        rc = run(["exposure-curve", "--model-dir", str(expomf_dir),
                  "--split-dir", str(split_dir), "--user", uid,
                  "--bins", "6", "--out", str(out_file)])
        assert rc == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "bin_lo\tbin_hi\tn_items\tmean_popularity\tmean_mu\tmean_p"
        curves.append([line.split("\t") for line in lines[1:]])
    # every item lands in exactly one bin
    assert sum(int(row[2]) for row in curves[0]) == 60
    # the popularity prior has no user dimension, so mu curves coincide
    mu0 = [row[4] for row in curves[0]]
    mu1 = [row[4] for row in curves[1]]
    assert mu0 == mu1
    for row in curves[0]:
        assert 0.0 <= float(row[4]) <= 1.0
        assert 0.0 <= float(row[5]) <= 1.0


@pytest.mark.parametrize("kind", cli.MODEL_KINDS)
def test_exposure_curve_reads_settings_from_meta_config(
    dataset, split_dir, tmp_path, capsys, request, kind
):
    """A model directory states its settings once, in meta.json's config,
    and keeps the provider's state arrays in model.npz; a stale
    exposure.json or boost.json from an older serec is ignored."""
    model_dir = tmp_path / "m"
    shutil.copytree(request.getfixturevalue(MODEL_DIRS[kind]), model_dir)
    written = {"meta.json", "timing.json", "model.npz", "theta.tsv", "beta.tsv", "trace.tsv"}
    evaluated = {"report.json", "report.tsv"}  # if a test evaluated the fixture's model
    assert {f.name for f in model_dir.iterdir()} - evaluated == written
    argv = ["exposure-curve", "--model-dir", str(model_dir), "--split-dir", str(split_dir),
            "--user", _raw_user_ids(dataset)[0], "--bins", "6",
            "--social", str(dataset / "social.tsv")]
    capsys.readouterr()  # what the model fixtures printed
    assert run(argv) == 0
    curve = capsys.readouterr().out
    lines = curve.splitlines()
    assert lines[0] == "bin_lo\tbin_hi\tn_items\tmean_popularity\tmean_mu\tmean_p"
    assert sum(int(line.split("\t")[2]) for line in lines[1:]) == 60
    for line in lines[1:]:
        assert 0.0 <= float(line.split("\t")[4]) <= 1.0
        assert 0.0 <= float(line.split("\t")[5]) <= 1.0
    stale = {"mu_unobserved": 0.9, "alpha1": 7.0, "alpha2": 7.0, "s_coeff": 9.0, "k_sr": 9}
    for name in ("exposure.json", "boost.json"):
        (model_dir / name).write_text(json.dumps(stale))
    assert run(argv) == 0
    assert capsys.readouterr().out == curve
    for name in PROVIDERS[kind].state:
        npz = model_dir / "model.npz"
        kept = npz.read_bytes()
        edit_npz(npz, lambda arrays: arrays.pop(name))
        assert run(argv) == 2
        assert f"{npz}: no array {name!r}" in capsys.readouterr().err
        npz.write_bytes(kept)
        with np.load(npz) as arrays:
            shape = arrays[name].shape
        edit_npz(npz, lambda arrays: arrays[name].flat.__setitem__([1, -1], [np.nan, np.inf]))
        assert run(argv) == 2
        at = tuple(map(int, np.unravel_index(1, shape)))
        assert f"{npz}: array {name!r} holds nan at position {at}" in capsys.readouterr().err
        npz.write_bytes(kept)
    # a directory from before model.npz: its arrays are TSV files
    (model_dir / "model.npz").unlink()
    (model_dir / "X.tsv").write_text("0\t0\t0\t0\n")
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "model.npz is missing" in err and "run serec train again" in err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda meta: meta.pop("config"), "missing key 'config'"),
        (lambda meta: meta["config"].update(granularity=9), "unknown config key 'granularity'"),
        (lambda meta: meta["config"].update(alpha1="x"), "config key 'alpha1' expects a number"),
        (lambda meta: meta["config"].update(alpha1=0), "config key 'alpha1' must be positive"),
        (lambda meta: meta["config"].update(alpha1=math.nan),
         "config key 'alpha1' must be finite, got 'NaN'"),
        (lambda meta: meta["config"].update(alpha1=int(PAST_FLOAT_RANGE)),
         f"config key 'alpha1' must be finite, got '{PAST_FLOAT_RANGE}'"),
        (lambda meta: meta["config"].update(target="bogus"), "config key 'target' expects"),
        (lambda meta: meta["config"].update(model="svd"), "config key 'model' expects"),
        (lambda meta: meta.update(config=[1]), "config must be a JSON object"),
    ],
    ids=["no-config", "unknown-key", "wrong-type", "out-of-range", "non-finite",
         "past-float-range", "bad-target", "bad-model", "not-an-object"],
)
def test_exposure_curve_bad_meta_config_exits_2_naming_meta_json(
    dataset, expomf_dir, split_dir, tmp_path, capsys, edit, message
):
    model_dir = tmp_path / "m"
    shutil.copytree(expomf_dir, model_dir)
    meta = json.loads((model_dir / "meta.json").read_text())
    edit(meta)
    (model_dir / "meta.json").write_text(json.dumps(meta))
    rc = run(["exposure-curve", "--model-dir", str(model_dir), "--split-dir", str(split_dir),
              "--user", _raw_user_ids(dataset)[0]])
    assert rc == 2
    assert f"{model_dir / 'meta.json'}: {message}" in capsys.readouterr().err


def test_exposure_curve_unknown_kind_exits_2(dataset, wmf_dir, split_dir, tmp_path, capsys):
    model_dir = tmp_path / "m"
    shutil.copytree(wmf_dir, model_dir)
    meta = json.loads((model_dir / "meta.json").read_text())
    (model_dir / "meta.json").write_text(json.dumps({**meta, "kind": "svd"}))
    rc = run(["exposure-curve", "--model-dir", str(model_dir), "--split-dir", str(split_dir),
              "--user", _raw_user_ids(dataset)[0]])
    assert rc == 2
    assert "model directory has unknown kind 'svd'" in capsys.readouterr().err


def test_exposure_curve_refreshes_boost_in_one_posterior(
    dataset, boost_dir, split_dir, monkeypatch, capsys
):
    built = []

    make = engine.ExposurePosterior

    def counting(*args, **kwargs):
        built.append(None)
        return make(*args, **kwargs)

    monkeypatch.setattr(engine, "ExposurePosterior", counting)
    rc = run(["exposure-curve", "--model-dir", str(boost_dir),
              "--split-dir", str(split_dir), "--user", _raw_user_ids(dataset)[0],
              "--social", str(dataset / "social.tsv")])
    assert rc == 0
    assert len(built) == 1


def test_exposure_curve_shows_the_wmf_prior_and_fixed_weights(
    dataset, wmf_dir, split_dir, tmp_path
):
    # the prior is mu_unobserved at every pair; only the posterior gives
    # the user's clicked items weight 1
    uid = _raw_user_ids(dataset)[0]
    out_file = tmp_path / "curve.tsv"
    rc = run(["exposure-curve", "--model-dir", str(wmf_dir), "--split-dir", str(split_dir),
              "--user", uid, "--bins", "6", "--out", str(out_file)])
    assert rc == 0
    split, id_map = dm.load_split(split_dir)
    y = split.train
    u = id_map.user_index[uid]
    p_user = np.full(y.n_items, 0.4)
    p_user[y.item_idx[y.user_idx == u]] = 1.0
    popularity = y.item_counts()
    edges = np.linspace(0, popularity.max() + 1, 7)
    which = np.clip(np.digitize(popularity, edges) - 1, 0, 5)
    rows = [line.split("\t") for line in out_file.read_text().splitlines()[1:]]
    bins = [b for b in range(6) if (which == b).any()]
    assert len(rows) == len(bins)
    for b, row in zip(bins, rows):
        assert float(row[4]) == pytest.approx(0.4, rel=1e-15)
        assert float(row[5]) == p_user[which == b].mean()
    assert any(float(row[5]) != float(row[4]) for row in rows)


def test_exposure_curve_spills_and_blocks_as_the_model_was_trained(
    dataset, split_dir, tmp_path, monkeypatch
):
    # the posterior spills at the model's dense_budget, and no U x block
    # prior outlives its block, so the curve holds no U x V array in RAM
    model_dir = tmp_path / "m"
    assert _train(split_dir, model_dir, "serec-boost", social=dataset / "social.tsv",
                  extra=["--set", "dense_budget=1", "--set", "block_size=7"]) == 0
    sweeps, served = [], []
    sweep = engine._sweep
    mu_block = PROVIDERS["serec-boost"].mu_block

    def recording_sweep(y, model, provider, p_out, block_size, *args, **kwargs):
        sweeps.append((type(p_out), block_size))
        return sweep(y, model, provider, p_out, block_size, *args, **kwargs)

    def recording_mu_block(self, j0, j1):
        assert all(ref() is None for ref in served)
        block = mu_block(self, j0, j1)
        served.append(weakref.ref(block))
        return block

    monkeypatch.setattr(engine, "_sweep", recording_sweep)
    monkeypatch.setattr(PROVIDERS["serec-boost"], "mu_block", recording_mu_block)
    rc = run(["exposure-curve", "--model-dir", str(model_dir), "--split-dir", str(split_dir),
              "--user", _raw_user_ids(dataset)[0], "--social", str(dataset / "social.tsv")])
    assert rc == 0
    assert sweeps == [(np.memmap, 7)] * 2
    assert len(served) == 3 * 9  # two sweeps and the curve, over 60 items in blocks of 7


def test_exposure_curve_regular_model_needs_social(dataset, regular_dir, split_dir, capsys):
    rc = run(["exposure-curve", "--model-dir", str(regular_dir),
              "--split-dir", str(split_dir), "--user", _raw_user_ids(dataset)[0]])
    assert rc == 1
    assert "--social" in capsys.readouterr().err


def test_exposure_curve_unknown_user_exits_2(expomf_dir, split_dir, capsys):
    rc = run(["exposure-curve", "--model-dir", str(expomf_dir),
              "--split-dir", str(split_dir), "--user", "no-such-user"])
    assert rc == 2
    assert "unknown user" in capsys.readouterr().err


# ----------------------------------------------------------------- robustness


ROBUST_FAST = ["--set", "k=2", "--set", "max_em_iters=2", "--set", "seed=1",
               "--set", "n_threads=1"]


def test_robustness_table_shape(dataset, split_dir, tmp_path):
    out_file = tmp_path / "rob.tsv"
    rc = run(["robustness", "--split-dir", str(split_dir),
              "--social", str(dataset / "social.tsv"),
              "--model", "serec-boost", "--keep-probs", "1.0,0.4",
              "--out", str(out_file)] + ROBUST_FAST)
    assert rc == 0
    lines = out_file.read_text().splitlines()
    names = lines[0].split("\t")[1:]
    assert names == sorted(names)
    assert "recall@50" in names
    assert len(lines) == 4  # header, two keep levels, decay row
    assert lines[1].split("\t")[0] == "1"
    assert lines[2].split("\t")[0] == "0.4"
    assert lines[3].split("\t")[0] == "decay_ratio"
    for line in lines[1:]:
        for field in line.split("\t")[1:]:
            assert np.isfinite(float(field))


def test_robustness_single_level_has_zero_decay(dataset, split_dir, tmp_path):
    out_file = tmp_path / "rob.tsv"
    rc = run(["robustness", "--split-dir", str(split_dir),
              "--social", str(dataset / "social.tsv"),
              "--model", "serec-boost", "--keep-probs", "1.0",
              "--out", str(out_file)] + ROBUST_FAST)
    assert rc == 0
    decay = out_file.read_text().splitlines()[-1].split("\t")[1:]
    assert all(float(v) == 0.0 for v in decay)


def test_robustness_matches_direct_train_and_evaluate(dataset, split_dir, tmp_path):
    out_file = tmp_path / "rob.tsv"
    rc = run(["robustness", "--split-dir", str(split_dir),
              "--social", str(dataset / "social.tsv"),
              "--model", "serec-boost", "--keep-probs", "1.0",
              "--out", str(out_file)] + ROBUST_FAST)
    assert rc == 0
    lines = out_file.read_text().splitlines()
    names = lines[0].split("\t")[1:]
    robust = dict(zip(names, (float(v) for v in lines[1].split("\t")[1:])))

    model_dir = tmp_path / "m"
    rc = run(["train", "--split-dir", str(split_dir), "--out-dir", str(model_dir),
              "--model", "serec-boost", "--social", str(dataset / "social.tsv")]
             + ROBUST_FAST)
    assert rc == 0
    rc = run(["evaluate", "--model-dir", str(model_dir), "--split-dir", str(split_dir)])
    assert rc == 0
    report = json.loads((model_dir / "report.json").read_text())
    for name, value in robust.items():
        assert report["metrics"][name] == pytest.approx(value, rel=1e-12)


def test_robustness_leaves_no_spill_files(dataset, split_dir, tmp_path, monkeypatch):
    spill = tmp_path / "tmp"
    spill.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spill))
    rc = run(["robustness", "--split-dir", str(split_dir),
              "--social", str(dataset / "social.tsv"),
              "--model", "serec-boost", "--keep-probs", "1.0,0.5",
              "--set", "dense_budget=1", "--out", str(tmp_path / "rob.tsv")] + ROBUST_FAST)
    assert rc == 0
    assert os.listdir(spill) == []


def test_robustness_holds_one_posterior_at_a_time(
    dataset, split_dir, tmp_path, monkeypatch, no_gc
):
    # the spill file has no name, so only the arrays themselves show a leak
    make = engine.ExposurePosterior
    made, live_before = [], []

    def tracked(*args, **kwargs):
        live_before.append(sum(ref() is not None for ref in made))
        p = make(*args, **kwargs)
        made.append(weakref.ref(p))
        return p

    monkeypatch.setattr(engine, "ExposurePosterior", tracked)
    rc = run(["robustness", "--split-dir", str(split_dir),
              "--social", str(dataset / "social.tsv"),
              "--model", "serec-boost", "--keep-probs", "1.0,0.5,0.2",
              "--set", "dense_budget=1", "--out", str(tmp_path / "rob.tsv")] + ROBUST_FAST)
    assert rc == 0
    assert live_before == [0, 0, 0]
    assert all(ref() is None for ref in made)


def test_robustness_rejects_bad_keep_prob(dataset, split_dir, capsys):
    rc = run(["robustness", "--split-dir", str(split_dir),
              "--social", str(dataset / "social.tsv"),
              "--keep-probs", "1.5"] + ROBUST_FAST)
    assert rc == 1
    assert "[0, 1]" in capsys.readouterr().err


def test_robustness_requires_social_flag(split_dir):
    rc = run(["robustness", "--split-dir", str(split_dir)])
    assert rc == 1  # argparse required-flag error


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["split", "--ratios", "0.7,0.3"], "--ratios"),
        (["split", "--ratios", "nan,0.2"], "--ratios"),
        (["split", "--ratios", "0.7,nan"], "--ratios"),
        (["split", "--ratios", ","], "--ratios"),
        (["split", "--seed", "-1"], "--seed"),
        (["split", "--seed", "100000000000000000000000"], "--seed"),
        (["robustness", "--seed", "-1", "--keep-probs", "0.5"], "--seed"),
        (["exposure-curve", "--bins", "0"], "--bins"),
        (["exposure-curve", "--bins", "-3"], "--bins"),
        (["generate", "--n-users", "0"], "--n-users"),
        (["generate", "--social-density", "2"], "--social-density"),
        (["generate", "--seed", "-1"], "--seed"),
    ],
    ids=["split-ratios", "split-ratios-nan-first", "split-ratios-nan-second",
         "split-ratios-empty", "split-seed",
         "split-seed-past-64-bits", "robustness-seed", "curve-bins-zero", "curve-bins-negative", "generate-n-users",
         "generate-social-density", "generate-seed"],
)
def test_bad_flag_value_exits_1_naming_the_flag(
    dataset, split_dir, expomf_dir, tmp_path, capsys, argv, flag
):
    required = {
        "split": ["--interactions", str(dataset / "interactions.tsv"),
                  "--out-dir", str(tmp_path / "out")],
        "robustness": ["--split-dir", str(split_dir), "--social", str(dataset / "social.tsv"),
                       "--out", str(tmp_path / "out")] + ROBUST_FAST,
        "exposure-curve": ["--model-dir", str(expomf_dir), "--split-dir", str(split_dir),
                           "--user", _raw_user_ids(dataset)[0], "--out", str(tmp_path / "out")],
        "generate": ["--out-dir", str(tmp_path / "out")],
    }
    rc = run(argv[:1] + required[argv[0]] + argv[1:])
    assert rc == 1
    assert f"error: {flag} must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------------ cross-command


def test_every_command_reads_a_split_from_split_npz_alone(dataset, split_dir, tmp_path):
    """Without the readable copies (the edge lists, the id maps and
    split-meta.json) each command that reads a split writes the same bytes."""
    bare = tmp_path / "bare"
    shutil.copytree(split_dir, bare)
    for name in ("train.tsv", "validation.tsv", "test.tsv",
                 "users.tsv", "items.tsv", "split-meta.json"):
        (bare / name).unlink()
    assert [path.name for path in bare.iterdir()] == ["split.npz"]
    social, user = str(dataset / "social.tsv"), _raw_user_ids(dataset)[0]
    for which, split in (("full", split_dir), ("bare", bare)):
        out = tmp_path / which
        model = ["--model-dir", str(out / "model"), "--split-dir", str(split)]
        assert _train(split, out / "model", "serec-boost", social=social) == 0
        assert run(["evaluate", *model, "--out-dir", str(out / "report")]) == 0
        assert run(["friend-groups", *model, "--social", social,
                    "--out", str(out / "groups.tsv")]) == 0
        assert run(["exposure-curve", *model, "--social", social, "--user", user,
                    "--out", str(out / "curve.tsv")]) == 0
        assert run(["robustness", "--split-dir", str(split), "--social", social,
                    "--keep-probs", "1.0,0.5", "--out", str(out / "robustness.tsv")]
                   + ROBUST_FAST) == 0
    for name in ("model/model.npz", "model/meta.json", "model/trace.tsv", "model/theta.tsv",
                 "model/beta.tsv", "report/report.json", "report/report.tsv", "groups.tsv",
                 "curve.tsv", "robustness.tsv"):
        full, bare = (tmp_path / which / name for which in ("full", "bare"))
        assert full.read_bytes() == bare.read_bytes(), name


def test_every_command_reads_a_model_without_meta_shapes(dataset, boost_dir, split_dir, tmp_path):
    """meta.json's k, n_users and n_items are readable copies: without them
    each command that reads a model writes the same bytes."""
    bare = tmp_path / "bare"
    shutil.copytree(boost_dir, bare)
    meta = json.loads((bare / "meta.json").read_text())
    for key in ("k", "n_users", "n_items"):
        del meta[key]
    (bare / "meta.json").write_text(json.dumps(meta, indent=2))
    social, user = str(dataset / "social.tsv"), _raw_user_ids(dataset)[0]
    outputs = []
    for model_dir in (boost_dir, bare):
        out = tmp_path / f"{model_dir.name}-out"
        model = ["--model-dir", str(model_dir), "--split-dir", str(split_dir)]
        assert run(["evaluate", *model, "--out-dir", str(out)]) == 0
        assert run(["friend-groups", *model, "--social", social,
                    "--out", str(out / "groups.tsv")]) == 0
        assert run(["exposure-curve", *model, "--social", social, "--user", user,
                    "--out", str(out / "curve.tsv")]) == 0
        outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert sorted(outputs[0]) == ["curve.tsv", "groups.tsv", "report.json", "report.tsv"]
    assert outputs[0] == outputs[1]


def test_boost_without_social_matches_popularity_model(split_dir, tmp_path):
    """With no graph the boost prior degenerates to the popularity prior."""
    opts = ["--set", "k=2", "--set", "max_em_iters=2", "--set", "seed=5",
            "--set", "n_threads=1"]
    a, b = tmp_path / "boost", tmp_path / "expomf"
    assert run(["train", "--split-dir", str(split_dir), "--out-dir", str(a),
                "--model", "serec-boost"] + opts) == 0
    assert run(["train", "--split-dir", str(split_dir), "--out-dir", str(b),
                "--model", "expomf"] + opts) == 0
    assert (a / "theta.tsv").read_bytes() == (b / "theta.tsv").read_bytes()
    assert (a / "beta.tsv").read_bytes() == (b / "beta.tsv").read_bytes()
    for out, model_dir in ((tmp_path / "ra", a), (tmp_path / "rb", b)):
        assert run(["evaluate", "--model-dir", str(model_dir),
                    "--split-dir", str(split_dir), "--out-dir", str(out)]) == 0
    ra = json.loads((tmp_path / "ra" / "report.json").read_text())
    rb = json.loads((tmp_path / "rb" / "report.json").read_text())
    assert ra["metrics"] == rb["metrics"]


def _model_choices(command):
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    parser = sub.choices[command]
    return tuple(next(a for a in parser._actions if a.dest == "model").choices)


def test_console_script_end_to_end(tmp_path):
    """tests/cli_e2e.sh, the workflow's end-to-end step, run as the workflow
    runs it (bash -eo pipefail, one BLAS thread) through python -m serec.cli
    from this checkout."""
    bash = shutil.which("bash")
    if bash is None:
        pytest.skip("tests/cli_e2e.sh needs bash")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        SEREC=f"{sys.executable} -m serec.cli",
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    script = Path(__file__).with_name("cli_e2e.sh")
    proc = subprocess.run(
        [bash, "-eo", "pipefail", str(script), str(tmp_path / "e2e")],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


def test_model_kinds_match_provider_table():
    assert cli.MODEL_KINDS == tuple(PROVIDERS) == (
        "wmf", "expomf", "serec-regular", "serec-boost"
    )
    assert all(PROVIDERS[kind].kind == kind for kind in PROVIDERS)
    assert _model_choices("train") == cli.MODEL_KINDS
    assert _model_choices("robustness") == cli.MODEL_KINDS


def test_run_config_defaults_match_their_consumers():
    """RunConfig takes each key's default from its first consumer, so a name
    two consumers share (alpha1, alpha2, seed, init_scale) must have one
    default in both, or the later one's would be overridden without a word;
    n_threads differs on purpose (0 means all cores)."""
    run_defaults = {f.name: f.default for f in dataclasses.fields(cli.RunConfig)}
    consumers = [(f.name, f.default) for f in dataclasses.fields(engine.TrainConfig)]
    for cls in PROVIDERS.values():
        consumers += [
            (name, param.default)
            for name, param in inspect.signature(cls.__init__).parameters.items()
            if param.default is not inspect.Parameter.empty and name in run_defaults
        ]
    checked = 0
    for name, default in consumers:
        if name == "n_threads":
            continue
        assert run_defaults[name] == default, name
        checked += 1
    assert checked >= 20


def test_test_only_names_are_not_in_the_package():
    """The oracles live in tests/reference_impls.py; the package keeps what
    the CLI and the library run."""
    import serec
    from serec.exposure import social_regular

    removed = {
        serec: ("brute_force_posterior", "e_step_pair", "finite_difference", "predict_scores"),
        engine: ("_gaussian_pdf0", "e_step_pair", "predict_scores"),
        synthetic: ("brute_force_posterior", "finite_difference"),
        social_regular: ("sampled_triplet_loss", "triplet_gradients"),
        dm.InteractionMatrix: ("__contains__", "__len__", "entry_set", "items_of", "users_of"),
        dm.SocialGraph: ("edge_set", "friends_of"),
        metrics: ("DEFAULT_FRIEND_BUCKETS",),
    }
    for owner, names in removed.items():
        for name in names:
            assert not hasattr(owner, name), (owner, name)
    assert list(inspect.signature(metrics.group_by_friends).parameters) == ["graph"]


def test_usage_errors_exit_1():
    assert run([]) == 1
    assert run(["no-such-command"]) == 1
    assert run(["train", "--split-dir", "x"]) == 1  # missing --out-dir


def _changed(value):
    """A valid value for a provider parameter, unlike its default."""
    if value == "once":
        return 2
    return value + 1 if isinstance(value, int) else value * 1.5


def _attributes(provider):
    """A provider's attributes, arrays (sparse ones too) by dtype, shape and
    bytes, and the split and graph it was built on by identity."""
    out = {}
    for name, value in vars(provider).items():
        if hasattr(value, "toarray"):
            value = value.toarray()
        if isinstance(value, np.ndarray):
            value = (value.dtype.str, value.shape, value.tobytes())
        elif isinstance(value, (dm.InteractionMatrix, dm.SocialGraph)):
            value = id(value)
        out[name] = value
    return out


@pytest.mark.parametrize(
    "kind, name, default",
    [
        (kind, name, param.default)
        for kind, cls in PROVIDERS.items()
        for name, param in inspect.signature(cls).parameters.items()
        if param.default is not param.empty
    ],
)
def test_make_provider_passes_each_keyword_parameter(
    dataset, split_dir, kind, name, default
):
    """make_provider builds what the class builds from the same value, and
    the value changes the provider, so no key is dropped on the way."""
    split, id_map = dm.load_split(split_dir)
    graph, _ = dm.load_social(dataset / "social.tsv", id_map)
    cls = PROVIDERS[kind]
    args = [split.train]
    if "graph" in inspect.signature(cls).parameters:
        args.append(graph)
    value = _changed(default)
    cfg = cli.load_config(None, [f"model={kind}", f"{name}={json.dumps(value)}"])
    built = [
        _attributes(provider)
        for provider in (
            cli.make_provider(cfg, split.train, graph),
            cls(*args, **{name: value}),
            cls(*args),
        )
    ]
    assert built[0] == built[1]
    assert built[1] != built[2]

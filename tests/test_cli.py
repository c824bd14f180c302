import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import toeplitz

import hdsparse
from hdsparse.cli import main
from hdsparse.data import FeatureMatrix, ResponseVector, write_table


@pytest.fixture
def linear_csv(tmp_path):
    rng = np.random.default_rng(0)
    n, p = 60, 6
    X = rng.normal(size=(n, p))
    beta = np.array([2.0, -1.5, 0, 0, 0, 0])
    y = X @ beta + rng.normal(scale=0.3, size=n)
    path = tmp_path / "data.csv"
    write_table(path, FeatureMatrix(X, tuple(f"x{j}" for j in range(p))),
                ResponseVector(y))
    return path


def test_screen_command(linear_csv, tmp_path):
    out = tmp_path / "screen_out"
    rc = main(["screen", "--data", str(linear_csv), "--outcome", "y",
               "--method", "pearson", "--out-dir", str(out)])
    assert rc == 0
    with open(out / "screen.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert rows[0]["feature"] == "x0"           # strongest signal first
    assert rows[0]["rank"] == "1"
    assert rows[0]["method"] == "pearson"
    scores = [float(r["score"]) for r in rows]
    assert scores == sorted(scores, reverse=True)
    diag = json.loads((out / "screen_diagnostics.json").read_text())
    assert diag["method"] == "pearson" and diag["failures"] == []


def test_fit_command_solvers(linear_csv, tmp_path):
    estimates = {}
    for solver in ("ag", "pg", "pcg"):
        out = tmp_path / f"fit_{solver}"
        rc = main(["fit", "--data", str(linear_csv), "--outcome", "y",
                   "--solver", solver, "--penalty", "l1", "--lambda", "0.05",
                   "--tol", "1e-8", "--out-dir", str(out)])
        assert rc == 0
        payload = json.loads((out / "fit.json").read_text())
        assert payload["converged"]
        assert payload["solver"] == solver
        assert payload["penalty"] == {"kind": "l1", "lambda": 0.05}
        estimates[solver] = np.asarray(payload["estimate"])
    # all three solvers find the same LASSO solution
    assert np.max(np.abs(estimates["ag"] - estimates["pg"])) <= 1e-3
    assert np.max(np.abs(estimates["pcg"] - estimates["pg"])) <= 1e-3
    assert abs(estimates["pg"][0] - 2.0) <= 0.2


@pytest.mark.parametrize("psi", ["identity", "toeplitz"])
def test_qfit_command(linear_csv, tmp_path, psi):
    if psi == "toeplitz":
        psi = tmp_path / "psi.csv"
        write_table(psi, FeatureMatrix(toeplitz(0.5 ** np.arange(60)),
                                       tuple(f"r{i}" for i in range(60))))
    out = tmp_path / "qfit_out"
    with pytest.warns(UserWarning, match="near-Gaussian boundary"):
        rc = main(["qfit", "--data", str(linear_csv), "--outcome", "y", "--psi", str(psi),
                   "--penalty", "l1", "--lambda", "0.0", "--out-dir", str(out)])
    assert rc == 0
    payload = json.loads((out / "qfit.json").read_text())
    assert len(payload["theta"]) == 7           # intercept + 6 coefficients
    assert payload["sigma2"] > 0
    assert payload["n_train"] == 60
    assert abs(payload["theta"][1] - 2.0) <= 0.2


def test_simulate_command(tmp_path):
    out = tmp_path / "sim_out"
    rc = main(["simulate", "--n", "30", "--p", "20", "--signal", "four_fixed",
               "--outcome", "linear", "--seed", "7", "--out-dir", str(out)])
    assert rc == 0
    with open(out / "simulated.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][-1] == "y" and len(rows[0]) == 21
    assert len(rows) == 31
    truth = json.loads((out / "truth.json").read_text())
    beta = np.asarray(truth["beta_true"])
    assert np.count_nonzero(beta) == 4
    assert truth["spec"]["seed"] == 7


def test_bench_command(tmp_path):
    out = tmp_path / "bench_out"
    rc = main(["bench", "--kind", "screening_auroc", "--n", "50", "--p", "20",
               "--signal", "screening_recipe", "--outcome", "screening_continuous",
               "--p-true", "3", "--replications", "2", "--seed", "5",
               "--out-dir", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["kind"] == "screening_auroc"
    assert "auroc_pearson" in report["summary"]
    with open(out / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2


def test_screen_csv_quotes_feature_names(tmp_path):
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 3))
    path = tmp_path / "names.csv"
    write_table(path, FeatureMatrix(X, ("a,b", 'q"t', "c")), ResponseVector(X[:, 0]))
    out = tmp_path / "screen_out"
    main(["screen", "--data", str(path), "--outcome", "y",
          "--method", "pearson", "--out-dir", str(out)])
    with open(out / "screen.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["feature", "score", "rank", "method"]
    assert rows[1][0] == "a,b"                  # y is a copy of this column
    assert sorted(r[0] for r in rows[2:]) == ["c", 'q"t']
    assert [r[2:] for r in rows[1:]] == [[str(k), "pearson"] for k in (1, 2, 3)]


@pytest.mark.parametrize("command", ["screen", "bench"])
def test_commands_reject_workers_below_one(linear_csv, tmp_path, command):
    out = tmp_path / "out"
    argv = {"screen": ["screen", "--data", str(linear_csv), "--outcome", "y"],
            "bench": ["bench", "--kind", "ag_convergence", "--replications", "1"]}[command]
    with pytest.raises(ValueError, match="^workers must be at least 1, got 0$"):
        main(argv + ["--workers", "0", "--out-dir", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("command", ["screen", "fit", "qfit"])
def test_commands_reject_a_repeated_outcome_name(tmp_path, command):
    # the feature named y used to be read as the outcome, without a word
    path = tmp_path / "dup.csv"
    path.write_text("a,y,b,y\n1,2,3,10\n4,5,6,20\n7,8,9,30\n10,11,12,41\n")
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="outcome column 'y' appears 2 times"):
        main([command, "--data", str(path), "--outcome", "y", "--out-dir", str(out)])
    assert not out.exists()


def test_bench_command_rejects_p_too_small_for_the_signal(tmp_path):
    # it used to exit 0 with one error row per replication and an empty summary
    out = tmp_path / "bench_out"
    with pytest.raises(ValueError, match="^p must be at least 50 for the five_blocks signal$"):
        main(["bench", "--kind", "signal_recovery", "--p", "20", "--replications", "2",
              "--out-dir", str(out)])
    assert not out.exists()


def test_bench_command_rejects_a_nan_threshold(tmp_path):
    # it used to report iters_* = max_iter for every solver, without a word
    out = tmp_path / "bench_out"
    with pytest.raises(ValueError, match="^threshold must be finite and at least 0, got nan$"):
        main(["bench", "--kind", "ag_convergence", "--replications", "1",
              "--threshold", "nan", "--out-dir", str(out)])
    assert not out.exists()


def test_bench_command_rejects_zero_replications(tmp_path):
    out = tmp_path / "bench_out"
    src = str(Path(hdsparse.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-m", "hdsparse.cli", "bench", "--kind",
                          "ag_convergence", "--replications", "0", "--out-dir", str(out)],
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert run.returncode != 0
    assert "replications must be at least 1, got 0" in run.stderr
    assert not (out / "metrics.csv").exists()
    assert not (out / "report.json").exists()


def test_option_precedence(linear_csv, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "pearson", "workers": 1}))

    # config file supplies the method
    out1 = tmp_path / "o1"
    main(["screen", "--data", str(linear_csv), "--outcome", "y",
          "--config", str(cfg), "--out-dir", str(out1)])
    assert json.loads((out1 / "screen_diagnostics.json").read_text())["method"] == "pearson"

    # environment beats the config file
    monkeypatch.setenv("HDSL_METHOD", "binning")
    out2 = tmp_path / "o2"
    main(["screen", "--data", str(linear_csv), "--outcome", "y",
          "--config", str(cfg), "--out-dir", str(out2)])
    assert json.loads((out2 / "screen_diagnostics.json").read_text())["method"] == "binning"

    # a flag beats both
    out3 = tmp_path / "o3"
    main(["screen", "--data", str(linear_csv), "--outcome", "y",
          "--config", str(cfg), "--method", "knn", "--out-dir", str(out3)])
    assert json.loads((out3 / "screen_diagnostics.json").read_text())["method"] == "knn"


def test_screen_requires_outcome_column(tmp_path):
    path = tmp_path / "noy.csv"
    path.write_text("a,b\n1,2\n3,4\n5,6\n")
    with pytest.raises(ValueError):
        main(["screen", "--data", str(path), "--outcome", "y",
              "--out-dir", str(tmp_path / "x")])


def test_cli_import_skips_scipy_signal_and_stats():
    # each costs about half a second of start-up and nothing needs them
    code = ("import sys, hdsparse.cli; "
            "print(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))")
    src = str(Path(hdsparse.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_cli_import_and_numpy_only_commands_load_no_scipy(linear_csv, tmp_path):
    # the import alone, least-squares fits by ag, pg and pcg, and the two screening
    # methods that are numpy only: scipy's import cost dwarfs such a run
    src = str(Path(hdsparse.__file__).resolve().parents[1])
    common = ["--data", str(linear_csv), "--outcome", "y", "--out-dir", str(tmp_path)]
    runs = [[]] + [["fit", "--solver", s] + common for s in ("ag", "pg", "pcg")] \
        + [["screen", "--method", m] + common for m in ("pearson", "binning")]
    for argv in runs:
        code = ("import sys\nfrom hdsparse.cli import main\n"
                f"if {argv!r}: main({argv!r})\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.splitlines()[-1] == "[]", argv


def _fit_value(out, key):
    payload = json.loads((out / "fit.json").read_text())
    return {"lambda": payload["penalty"]["lambda"], "max_iter": payload["iterations"],
            "solver": payload["solver"]}[key]


@pytest.mark.parametrize("command, key, values", [
    # the value a run reports: by default, from the config file, the environment, a flag
    ("fit", "lambda", (0.5, 0.1, 0.2, 0.3)),
    ("fit", "max_iter", (2000, 5, 6, 7)),
    ("fit", "solver", ("ag", "pg", "ag-orig", "pcg")),
    ("simulate", "p_true", (10, 3, 4, 5)),
])
def test_layer_precedence(linear_csv, tmp_path, monkeypatch, command, key, values):
    default, from_config, from_env, from_flag = values
    if command == "fit":
        argv = ["fit", "--data", str(linear_csv), "--outcome", "y"]
        argv += ["--tol", "0"] if key == "max_iter" else []
        read = lambda out: _fit_value(out, key)  # noqa: E731
    else:
        argv = ["simulate", "--n", "30", "--p", "20", "--signal", "screening_recipe",
                "--outcome", "screening_continuous"]
        read = lambda out: json.loads((out / "truth.json").read_text())["spec"][key]  # noqa: E731
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: from_config}))
    flag = "--" + key.replace("_", "-")
    seen = []
    for layer in range(4):
        if layer == 1:
            argv += ["--config", str(cfg)]
        if layer == 2:
            monkeypatch.setenv(f"HDSL_{key.upper()}", str(from_env))
        extra = [flag, str(from_flag)] if layer == 3 else []
        out = tmp_path / f"layer{layer}"
        assert main([*argv, *extra, "--out-dir", str(out)]) == 0
        seen.append(read(out))
    assert seen == [default, from_config, from_env, from_flag]


@pytest.mark.parametrize("layer", ["env", "config"])
def test_layered_solver_gets_the_flag_choice_check(linear_csv, tmp_path, monkeypatch,
                                                   capsys, layer):
    # a misspelt solver used to run AG and record the typo in fit.json
    argv = ["fit", "--data", str(linear_csv), "--outcome", "y", "--out-dir", str(tmp_path / "o")]
    if layer == "env":
        monkeypatch.setenv("HDSL_SOLVER", "pgg")
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"solver": "PCG"}))
        argv += ["--config", str(cfg)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument --solver: invalid choice" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_and_env_values_are_honoured(linear_csv, tmp_path, monkeypatch):
    # keys follow the long flags (lambda, max_iter); both used to be ignored.
    # method is a screen option, so fit ignores it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda": 0.01, "max_iter": 5, "method": "knn"}))
    argv = ["fit", "--data", str(linear_csv), "--outcome", "y", "--tol", "0",
            "--config", str(cfg)]
    main([*argv, "--out-dir", str(tmp_path / "o1")])
    assert [_fit_value(tmp_path / "o1", k) for k in ("lambda", "max_iter")] == [0.01, 5]
    monkeypatch.setenv("HDSL_LAMBDA", "0.02")
    main([*argv, "--out-dir", str(tmp_path / "o2")])
    assert [_fit_value(tmp_path / "o2", k) for k in ("lambda", "max_iter")] == [0.02, 5]


@pytest.mark.parametrize("layer, name", [("config", "'lam'"), ("env", "HDSL_LAM"),
                                         ("config", "'max-iter'")])
def test_unknown_layered_key_is_named(linear_csv, tmp_path, monkeypatch, layer, name):
    argv = ["fit", "--data", str(linear_csv), "--outcome", "y", "--out-dir", str(tmp_path / "o")]
    if layer == "env":
        monkeypatch.setenv(name, "0.1")
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({name.strip("'"): 0.1}))
        argv += ["--config", str(cfg)]
    with pytest.raises(ValueError, match=name):
        main(argv)


@pytest.mark.parametrize("argv", [
    ["fit", "--data", "d.csv", "--outcome", "y", "--seed", "3"],
    ["fit", "--data", "d.csv", "--outcome", "y", "--workers", "2"],
    ["qfit", "--data", "d.csv", "--outcome", "y", "--seed", "3"],
    ["screen", "--data", "d.csv", "--outcome", "y", "--seed", "3"],
    ["simulate", "--lambda", "0.1"],
    ["simulate", "--penalty", "mcp"],
    ["simulate", "--workers", "2"],
])
def test_commands_reject_options_they_never_read(tmp_path, capsys, argv):
    # these options used to be accepted and dropped without a word
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out-dir", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_seed_config_key_still_serves_fit(linear_csv, tmp_path):
    # seed is an option of simulate and bench, so fit ignores the key
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "workers": 2}))
    out = tmp_path / "o"
    assert main(["fit", "--data", str(linear_csv), "--outcome", "y", "--config", str(cfg),
                 "--out-dir", str(out)]) == 0
    assert json.loads((out / "fit.json").read_text())["converged"]


@pytest.mark.parametrize("layer", ["env", "config"])
def test_bad_layered_value_names_its_source(linear_csv, tmp_path, monkeypatch, capsys, layer):
    argv = ["fit", "--data", str(linear_csv), "--outcome", "y", "--out-dir", str(tmp_path / "o")]
    if layer == "env":
        monkeypatch.setenv("HDSL_MAX_ITER", "5.0")
        source = "environment variable HDSL_MAX_ITER=5.0"
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iter": 5.0}))
        argv += ["--config", str(cfg)]
        source = "config key 'max_iter'=5.0"
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --max-iter: invalid int value: '5.0'" in err
    assert f"(from {source})" in err
    assert not (tmp_path / "o").exists()

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

import json

import numpy as np
import pytest
from scipy.linalg import toeplitz

import hdsparse.bench as bench
from hdsparse.bench import (
    SimSpec,
    gen_dataset,
    gen_design,
    gen_outcome,
    gen_signal,
    lambda_path,
    ppv_npv,
    run_benchmark,
    scaled_estimation_error,
)
from hdsparse.penalty import PenaltySpec


def test_simspec_validation():
    with pytest.raises(ValueError):
        SimSpec(tau=1.0)
    with pytest.raises(ValueError):
        SimSpec(signal="spikes")
    with pytest.raises(ValueError):
        SimSpec(outcome="poisson")


@pytest.mark.parametrize("field, bad", [
    ("n", dict(n=1)),
    ("p", dict(p=0)),
    ("snr", dict(snr=0.0)),
    ("snr", dict(snr=-1.0)),
    ("snr", dict(snr=float("nan"))),
    ("p_true", dict(p_true=0)),
    ("p_true", dict(p_true=21)),
    ("p", dict(signal="four_fixed", p=3)),
    ("p", dict(signal="five_blocks", p=49)),
])
def test_simspec_rejects_bad_sizes_and_snr(field, bad):
    # snr=0 used to give a non-finite screening outcome and a ZeroDivisionError
    # for a linear one; p_true outside [1, p], or p too small for the signal's
    # layout, failed deep in the generator with a message about something else
    base = dict(n=30, p=20, signal="screening_recipe", outcome="screening_continuous")
    with pytest.raises(ValueError, match=rf"^{field} must"):
        SimSpec(**{**base, **bad})
    assert SimSpec(**{**base, "snr": float("inf"), "p_true": 20}).snr == float("inf")
    # p_true is read by the screening recipe only
    assert SimSpec(n=30, p=6, signal="four_fixed").p_true == 10


def test_gen_design_correlation_structure():
    spec = SimSpec(n=4000, p=6, tau=0.5, signal="four_fixed", seed=1)
    X = gen_design(spec)
    emp = np.corrcoef(X.values, rowvar=False)
    target = toeplitz(0.5 ** np.arange(6))
    assert np.max(np.abs(emp - target)) <= 0.05
    assert np.allclose(X.values.mean(0), 0.0, atol=1e-10)
    assert np.allclose(X.values.std(0, ddof=1), 1.0, atol=1e-8)
    # tau = 0 is plain white noise
    X0 = gen_design(SimSpec(n=4000, p=6, tau=0.0, signal="four_fixed", seed=1))
    emp0 = np.corrcoef(X0.values, rowvar=False)
    assert np.max(np.abs(emp0 - np.eye(6))) <= 0.05


def test_gen_signal_four_fixed():
    beta = gen_signal(SimSpec(p=2004, signal="four_fixed", outcome="linear"))
    nz = np.nonzero(beta)[0]
    assert nz.tolist() == [0, 501, 1002, 1503]
    assert beta[nz].tolist() == [2.0, -2.0, 8.0, -8.0]
    blog = gen_signal(SimSpec(p=2004, signal="four_fixed", outcome="logistic"))
    assert blog[np.nonzero(blog)[0]].tolist() == [0.5, -0.5, 0.8, -0.8]


def test_gen_signal_five_blocks():
    spec = SimSpec(p=400, signal="five_blocks", outcome="linear", seed=3)
    beta = gen_signal(spec)
    nz = np.nonzero(beta)[0]
    assert nz.size == 50
    gap = (400 - 50) // 5
    starts = [j * (10 + gap) for j in range(5)]
    for s in starts:
        assert np.all(beta[s : s + 10] != 0)
    # block means roughly follow (0.5, 5, 10, 20, 50)
    means = [beta[s : s + 10].mean() for s in starts]
    for m, target, sd in zip(means, (0.5, 5, 10, 20, 50), (1, 2, 3, 4, 5)):
        assert abs(m - target) <= 4 * np.sqrt(sd / 10)
    # reproducible from the spec seed
    assert np.array_equal(beta, gen_signal(spec))


def test_gen_signal_screening_recipe():
    spec = SimSpec(p=300, p_true=10, signal="screening_recipe", outcome="screening_continuous", seed=4)
    beta = gen_signal(spec)
    nz = np.nonzero(beta)[0]
    assert nz.size == 10
    assert np.array_equal(nz, np.sort(nz))


def test_gen_outcome_snr():
    # empirical noise sd should match signal_sd / snr
    spec = SimSpec(n=4000, p=20, tau=0.5, snr=3.0, signal="four_fixed",
                   outcome="linear", seed=5)
    rng = np.random.default_rng(5)
    X = gen_design(spec, rng)
    beta = gen_signal(spec, rng)
    y = gen_outcome(spec, X, beta, rng)
    resid = y.values - X.values @ beta
    sigma_cov = toeplitz(0.5 ** np.arange(20))
    target = np.sqrt(beta @ sigma_cov @ beta) / 3.0
    assert abs(resid.std(ddof=1) - target) / target <= 0.1


def test_gen_outcome_binary_kinds():
    for outcome in ("logistic", "screening_binary_original",
                    "screening_binary_translated"):
        spec = SimSpec(n=300, p=40, signal="screening_recipe" if "screening" in outcome
                       else "four_fixed", outcome=outcome, seed=6)
        X, y, beta = gen_dataset(spec)
        assert y.kind == "binary"
        assert set(np.unique(y.values)) == {0.0, 1.0}
    # the translated variant shifts the class balance upward
    spec_o = SimSpec(n=2000, p=40, signal="screening_recipe",
                     outcome="screening_binary_original", seed=7)
    spec_t = SimSpec(n=2000, p=40, signal="screening_recipe",
                     outcome="screening_binary_translated", seed=7)
    y_o = gen_dataset(spec_o)[1].values.mean()
    y_t = gen_dataset(spec_t)[1].values.mean()
    assert y_t > y_o


def test_ppv_npv():
    sel = np.zeros(40, bool)
    tru = np.zeros(40, bool)
    sel[:10] = True            # 10 selected, 5 correct
    tru[5:14] = True           # 9 true
    ppv, npv = ppv_npv(sel, tru)
    # TP = 5, FP = 5, TN = 26, FN = 4
    assert ppv == pytest.approx(0.5)
    assert npv == pytest.approx(26 / 30)
    assert ppv_npv(np.zeros(5, bool), tru[:5])[0] is None
    assert ppv_npv(np.ones(5, bool), tru[:5])[1] is None


def test_scaled_estimation_error():
    bt = np.array([2.0, 0.0, -1.0])
    assert scaled_estimation_error(bt, bt) == 0.0
    assert scaled_estimation_error(bt, np.zeros(3)) == pytest.approx(1.0)
    assert scaled_estimation_error(bt, bt + np.array([1.0, 0, 0])) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        scaled_estimation_error(np.zeros(3), bt)


def test_lambda_path():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(60, 12))
    y = rng.normal(size=60)
    lams = lambda_path(X, y)
    assert lams.size == 50
    assert lams[-1] == 0.0
    assert np.all(np.diff(lams) < 0)
    assert lams[0] == pytest.approx(np.max(np.abs(X.T @ (y - y.mean()) / 60)))
    assert np.allclose(np.diff(lams), np.diff(lams)[0])  # equally spaced


def _small_spec(**kw):
    base = dict(n=60, p=30, tau=0.5, snr=3.0, signal="screening_recipe",
                outcome="screening_continuous", seed=11, p_true=4)
    base.update(kw)
    return SimSpec(**base)


def test_run_benchmark_screening_and_determinism(tmp_path):
    spec = _small_spec()
    r1 = run_benchmark("screening_auroc", spec, replications=3, workers=1,
                       out_dir=tmp_path / "a")
    r2 = run_benchmark("screening_auroc", spec, replications=3, workers=3,
                       out_dir=tmp_path / "b")
    assert r1.rows == r2.rows          # worker count never changes results
    assert (tmp_path / "a" / "metrics.csv").read_text() == \
        (tmp_path / "b" / "metrics.csv").read_text()
    for row in r1.rows:
        for m in ("fftkde", "binning", "knn", "pearson"):
            assert 0.0 <= row[f"auroc_{m}"] <= 1.0
    # summary is recomputable from the rows
    vals = np.array([row["auroc_pearson"] for row in r1.rows])
    assert r1.summary["auroc_pearson"]["mean"] == pytest.approx(vals.mean())
    assert r1.summary["auroc_pearson"]["se"] == pytest.approx(
        vals.std(ddof=1) / np.sqrt(3))
    payload = json.loads((tmp_path / "a" / "report.json").read_text())
    assert payload["kind"] == "screening_auroc"
    assert payload["config"]["replications"] == 3
    assert payload["config"]["max_iter"] == 2000 and payload["config"]["path_len"] == 50


def test_run_benchmark_ag_convergence():
    spec = SimSpec(n=50, p=20, tau=0.5, signal="four_fixed", outcome="linear", seed=12)
    rep = run_benchmark("ag_convergence", spec, replications=2,
                        penalty=PenaltySpec("scad", 0.5, a=3.7),
                        threshold=np.exp(3.0), max_iter=300)
    for row in rep.rows:
        for k in ("iters_ag_opt", "iters_ag_orig", "iters_pg"):
            assert 1 <= row[k] <= 300


def test_run_benchmark_signal_recovery():
    spec = SimSpec(n=80, p=40, tau=0.5, snr=5.0, signal="four_fixed",
                   outcome="linear", seed=13)
    rep = run_benchmark("signal_recovery", spec, replications=2,
                        penalty=PenaltySpec("mcp", 0.5, gamma=3.0),
                        max_iter=500, path_len=20)
    for row in rep.rows:
        assert row["scaled_error"] <= 1.0    # beats the null fit on easy data
        assert row["ppv"] >= 0.25            # validation picks a loose lambda
        assert row["npv"] >= 0.9


def test_run_benchmark_qgaussian():
    spec = SimSpec(n=40, p=5, tau=0.0, snr=3.0, signal="four_fixed",
                   outcome="linear", seed=14)
    rep = run_benchmark("qgaussian_recovery", spec, replications=2)
    for row in rep.rows:
        assert row["sigma2_hat"] > 0
        assert row["q_hat"] > 1


def test_run_benchmark_unknown_kind():
    for reps in (1, 0):
        with pytest.raises(ValueError, match="unknown benchmark kind"):
            run_benchmark("speedup", _small_spec(), replications=reps)


def test_run_benchmark_rejects_zero_replications(tmp_path, monkeypatch):
    def rep_ag(*args):
        raise AssertionError("no replication may run")

    monkeypatch.setattr(bench, "_rep_ag", rep_ag)
    for reps in (0, -2):
        with pytest.raises(ValueError, match=f"replications must be at least 1, got {reps}"):
            run_benchmark("ag_convergence", _small_spec(), replications=reps,
                          out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["ag_convergence", "signal_recovery"])
@pytest.mark.parametrize("bad, message", [
    ({"threshold": -1.0}, "threshold must be finite and at least 0, got -1.0"),
    ({"threshold": float("nan")}, "threshold must be finite and at least 0, got nan"),
    ({"threshold": float("inf")}, "threshold must be finite and at least 0, got inf"),
    ({"max_iter": 0}, "max_iter must be at least 1, got 0"),
    ({"path_len": 0}, "path_len must be at least 1, got 0"),
])
def test_run_benchmark_rejects_a_meaningless_threshold_or_size(tmp_path, monkeypatch,
                                                               kind, bad, message):
    # a negative or NaN threshold used to report max_iter for every solver,
    # inf 1, and max_iter=0 one error row per replication, all without a word
    def rep(*args):
        raise AssertionError("no replication may run")

    monkeypatch.setattr(bench, "_rep_ag", rep)
    monkeypatch.setattr(bench, "_rep_signal", rep)
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_benchmark(kind, _small_spec(), replications=2, out_dir=tmp_path / "out", **bad)
    assert not (tmp_path / "out").exists()


def test_rep_ag_rows_are_the_sequential_solves():
    # the lockstep solve counts what ag_opt, ag_orig and pg counted one by one
    from hdsparse.agsolver import (ag_solve, make_linear_objective, pg_solve,
                                   schedule_optimal, schedule_original)

    spec = SimSpec(n=60, p=80, tau=0.5, signal="five_blocks", outcome="linear", seed=3)
    penalty = PenaltySpec("scad", 0.5, a=3.7)
    for rep in range(3):
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(rep,)))
        row = bench._rep_ag(spec, rng, penalty, bench.E3, 400)
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(rep,)))
        X, y, _ = gen_dataset(spec, rng)
        obj = make_linear_objective(X.values, y.values, penalty)
        L, x0 = obj.lipschitz, np.zeros(spec.p)
        runs = {"ag_opt": ag_solve(obj, penalty, schedule_optimal(L, 400), x0, 0.0, 400),
                "ag_orig": ag_solve(obj, penalty, schedule_original(L, 400), x0, 0.0, 400),
                "pg": pg_solve(obj, penalty, 1 / L, x0, 0.0, 400)}
        gstar = min(r.objective_trace.min() for r in runs.values())
        assert row == {f"iters_{k}": bench._iters_to_threshold(r.objective_trace, gstar + bench.E3)
                       for k, r in runs.items()}


def _fail_first_call(monkeypatch, exc):
    calls = []

    def rep_ag(spec, rng, *args):
        calls.append(rng)
        if len(calls) == 1:
            raise exc
        return {"iters_ag_opt": 3, "iters_pg": len(calls)}

    monkeypatch.setattr(bench, "_rep_ag", rep_ag)


def test_run_benchmark_summary_skips_failed_first_replication(monkeypatch):
    _fail_first_call(monkeypatch, RuntimeError("boom"))
    rep = run_benchmark("ag_convergence", _small_spec(), replications=3)
    assert rep.rows[0] == {"rep": 0, "error": "boom"}
    assert set(rep.summary) == {"iters_ag_opt", "iters_pg"}
    assert rep.summary["iters_pg"]["mean"] == pytest.approx(2.5)
    assert all(isinstance(v, dict) for v in rep.summary.values())


def test_run_benchmark_records_replication_value_error(monkeypatch):
    _fail_first_call(monkeypatch, ValueError("could not simulate"))
    rep = run_benchmark("ag_convergence", _small_spec(), replications=2)
    assert rep.rows[0] == {"rep": 0, "error": "could not simulate"}
    assert rep.rows[1]["iters_ag_opt"] == 3


def test_signal_recovery_validates_on_the_training_beta(monkeypatch):
    # the validation outcome comes from the model the training data came
    # from: five_blocks draws beta at random, so a second draw would differ
    betas = []
    orig = bench.gen_outcome
    monkeypatch.setattr(bench, "gen_outcome",
                        lambda spec, X, beta, rng: betas.append(beta) or orig(spec, X, beta, rng))
    spec = SimSpec(n=40, p=50, signal="five_blocks", seed=6)
    rep = run_benchmark("signal_recovery", spec, replications=1, path_len=3, max_iter=20)
    assert "error" not in rep.rows[0]
    assert len(betas) == 2 and np.array_equal(betas[0], betas[1])


def test_signal_recovery_validation_loss_needs_no_power_iteration(monkeypatch):
    # only the training objective needs a Lipschitz constant; the validation
    # draw is scored by the loss alone
    import hdsparse.agsolver as agsolver

    calls = []
    orig = agsolver.power_iteration_lmax
    monkeypatch.setattr(agsolver, "power_iteration_lmax",
                        lambda X, *a, **k: calls.append(X.shape) or orig(X, *a, **k))
    spec = SimSpec(n=40, p=30, signal="four_fixed", seed=5)
    rep = run_benchmark("signal_recovery", spec, replications=1, path_len=4, max_iter=50)
    assert "error" not in rep.rows[0]
    assert len(calls) == 1
